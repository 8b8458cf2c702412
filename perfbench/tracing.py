"""Layer spans recorded from outside the program.

A :class:`Tracer` replaces the public entry points of each ``repro``
layer with timing wrappers for the duration of one traced pass, and
puts the originals back afterwards, so an untraced pass runs the
program exactly as shipped.  A function is patched under every name it
is bound to in a loaded ``repro`` module (``from ..analog import
transient`` binds a second name, and the caller uses that one);
methods and properties are patched on their class.

Spans are kept in memory as ``(name, start_ns, end_ns, parent, request)``
tuples and written out once the pass is over.  Only the main thread
records: the service's lease heartbeat thread is not a layer, and a
forked shard worker records into its own copy of the tracer, which is
discarded with the worker.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

#: (span name, module, attribute path) of every wrapped entry point.
#: Self times are summed per span name; the name's first component is
#: the ``repro`` layer it belongs to.
ENTRY_POINTS: Tuple[Tuple[str, str, str], ...] = (
    ("analog.dc", "repro.analog.dc", "dc_operating_point"),
    ("analog.dc", "repro.analog.batch", "batch_dc_operating_points"),
    ("analog.tran", "repro.analog.transient", "transient"),
    ("analog.tran", "repro.analog.batch", "batch_transients"),
    ("faults.collapse", "repro.faults.collapse", "FaultCollapser.__init__"),
    ("faults.collapse", "repro.faults.collapse", "FaultCollapser.classes"),
    ("faults.collapse", "repro.faults.collapse",
     "FaultCollapser.representative_map"),
    ("faults.collapse", "repro.faults.collapse", "FaultCollapser.class_key"),
    ("faults.collapse", "repro.faults.collapse",
     "FaultCollapser.tier_signature"),
    ("dft.dc", "repro.dft.dc_test", "DCTest.screen"),
    ("dft.dc", "repro.dft.dc_test", "DCTest.detect"),
    ("dft.dc", "repro.dft.dc_test", "DCTest.detect_batch"),
    ("dft.dc", "repro.dft.dc_test", "DCTest.detect_collapsed"),
    ("dft.scan", "repro.dft.scan_test", "ScanTest.screen"),
    ("dft.scan", "repro.dft.scan_test", "ScanTest.detect"),
    ("dft.scan", "repro.dft.scan_test", "ScanTest.detect_batch"),
    ("dft.scan", "repro.dft.scan_test", "ScanTest.detect_collapsed"),
    ("dft.bist", "repro.dft.bist", "BISTTest.screen"),
    ("dft.bist", "repro.dft.bist", "BISTTest.detect"),
    ("dft.bist", "repro.dft.bist", "BISTTest.static_detect"),
    ("dft.bist", "repro.dft.bist", "BISTTest.at_speed_detect"),
    ("dft.bist", "repro.dft.bist", "BISTTest.detect_batch"),
    ("dft.bist", "repro.dft.bist", "BISTTest.detect_collapsed"),
    ("dft.goldens", "repro.dft.golden", "GoldenSignatures.dc_link"),
    ("dft.goldens", "repro.dft.golden", "GoldenSignatures.retention_link"),
    ("dft.goldens", "repro.dft.golden", "GoldenSignatures.dc_receiver"),
    ("dft.goldens", "repro.dft.golden",
     "GoldenSignatures.retention_receiver"),
    ("dft.goldens", "repro.dft.golden", "GoldenSignatures.retention_vcdl"),
    ("synchronizer.loop", "repro.synchronizer.loop", "SynchronizerLoop.run"),
    ("patterns.ber_sweep", "repro.patterns.campaign", "ber_vs_length_sweep"),
    ("variation.prepass", "repro.variation.batch_mc", "precompute_die_maps"),
    ("service.submit", "repro.service.client", "JobQueue.submit"),
    ("service.reclaim_scan", "repro.service.client",
     "JobQueue.reclaim_expired"),
    ("service.claim", "repro.service.client", "JobQueue.claim"),
    ("service.result", "repro.service.client", "JobQueue.result"),
    ("service.run_spec", "repro.service.coordinator", "Coordinator.run_spec"),
    ("service.store", "repro.service.store", "ResultStore.get"),
    ("service.store", "repro.service.store", "ResultStore.put"),
    ("core.supervised", "repro.core.supervisor", "run_supervised"),
)

#: span name -> function of the wrapped call's return value, summed
#: per name into :attr:`Tracer.tallies`
TALLIES: Dict[str, Callable[[object], float]] = {
    "synchronizer.loop": lambda result: result.cycles_run,
}

#: one span: (name, start_ns, end_ns, parent index or -1, request id)
Span = Tuple[str, int, int, int, object]


class Tracer:
    """Records nested spans around the patched entry points."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        #: the request the next spans belong to (set by the workload)
        self.request: object = None
        self.spans: List[Optional[Span]] = []
        self.tallies: Dict[str, float] = defaultdict(float)
        self._stack: List[int] = []
        self._main = threading.main_thread().ident
        self._undo: List[Tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------
    def reset(self) -> None:
        """Forget everything recorded so far (no span may be open)."""
        if self._stack:
            raise RuntimeError("reset() inside an open span")
        self.spans.clear()
        self.tallies.clear()

    def wrap(self, name: str, fn: Callable) -> Callable:
        tracer = self
        tally = TALLIES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if threading.get_ident() != tracer._main:
                return fn(*args, **kwargs)
            index = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else -1
            tracer.spans.append(None)
            tracer._stack.append(index)
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
                if tally is not None:
                    tracer.tallies[name] += tally(result)
                return result
            finally:
                end = time.perf_counter_ns()
                tracer._stack.pop()
                tracer.spans[index] = (name, start, end, parent,
                                       tracer.request)

        return traced

    # -- patching --------------------------------------------------------
    def install(self) -> None:
        """Patch every entry point; :meth:`remove` undoes it."""
        for name, module, path in ENTRY_POINTS:
            owner = importlib.import_module(module)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            if isinstance(owner, type):
                self._patch_member(owner, attr, name)
            else:
                self._patch_function(getattr(owner, attr), name)

    def _patch_member(self, cls: type, attr: str, name: str) -> None:
        original = cls.__dict__[attr]
        if isinstance(original, property):
            patched = property(self.wrap(name, original.fget))
        else:
            patched = self.wrap(name, original)
        self._undo.append((cls, attr, original))
        setattr(cls, attr, patched)

    def _patch_function(self, original: Callable, name: str) -> None:
        patched = self.wrap(name, original)
        for mod_name, mod in list(sys.modules.items()):
            if not (mod_name == "repro" or mod_name.startswith("repro.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._undo.append((mod, attr, original))
                    setattr(mod, attr, patched)

    def remove(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    # -- analysis --------------------------------------------------------
    def self_times(self) -> Dict[str, float]:
        """Seconds per layer bucket: each span's duration minus the
        durations of its direct children."""
        spans = self.spans
        child_ns = [0] * len(spans)
        for span in spans:
            if span is not None and span[3] >= 0:
                child_ns[span[3]] += span[2] - span[1]
        out: Dict[str, float] = defaultdict(float)
        for i, span in enumerate(spans):
            if span is not None:
                out[span[0]] += (span[2] - span[1] - child_ns[i]) / 1e9
        return dict(out)

    def inclusive(self, name: str) -> float:
        """Seconds inside outermost spans of *name* (nested calls of
        the same name are not counted twice)."""
        spans = self.spans
        total = 0
        for span in spans:
            if span is None or span[0] != name:
                continue
            parent = span[3]
            while parent >= 0 and spans[parent][0] != name:
                parent = spans[parent][3]
            if parent < 0:
                total += span[2] - span[1]
        return total / 1e9

    def count(self, name: str) -> int:
        return sum(1 for s in self.spans if s is not None and s[0] == name)

    def covered(self) -> float:
        """Seconds covered by top-level spans."""
        return sum(s[2] - s[1] for s in self.spans
                   if s is not None and s[3] < 0) / 1e9

    def write(self, path: str) -> None:
        """Dump the spans as JSON lines (times relative to the first)."""
        t0 = min((s[1] for s in self.spans if s is not None), default=0)
        with open(path, "w") as fh:
            for i, span in enumerate(self.spans):
                if span is None:
                    continue
                name, start, end, parent, request = span
                fh.write(json.dumps({
                    "run": self.run_id, "request": request, "id": i,
                    "name": name, "parent": parent,
                    "start_s": (start - t0) / 1e9,
                    "end_s": (end - t0) / 1e9}) + "\n")
