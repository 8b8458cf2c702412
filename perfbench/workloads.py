"""The four benchmark workloads: seeded inputs, one timed pass, checks.

Every workload is closed-loop and driven by one process.  Its inputs
are a pure function of ``(seed, seconds)`` (:func:`make_plan`); the
program only ever sees the generated inputs.  :func:`run_pass` runs
one pass of a plan and returns what was measured together with every
output that disagreed with the stored reference digests.

Why these four (each stresses a different part of the program):

``table1_campaign``
    The paper's headline result: the full 336-fault Table-I universe
    through ``run_paper_campaign`` (tiers dc, scan, bist; batched
    backend; ``collapse="on"``; in-process), in universe order for
    every seed: the campaign's work depends on the fault order (see
    NOTES.md), so a seeded order would measure the order, not the
    program.  Time goes to ``analog`` and to the ``dft`` tier stages;
    the only workload where fault collapse shares work.
``pattern_sweep``
    ``PatternCampaign`` with all five stimuli over a seeded subset of
    the 236-fault BIST universe (one fault per device, cycling), then
    ``ber_vs_length_sweep``.  Dominated by ``SynchronizerLoop.run``
    (the solver takes about a quarter); collapse is not used, so a
    collapse change should not show here.
``mc_yield``
    ``MonteCarloCampaign.run(dies, backend="batched")`` in-process.
    The only workload that runs ``variation``: cross-die lockstep
    stacking, with little synchronizer work.  The population seed is
    fixed so every die has a stored reference; the workload seed picks
    which dies of that population run, one from each band of dies of
    like cost, so every seed does about the same work.
``service_mix``
    One client looping ``JobQueue.submit`` -> ``serve(once=True)`` ->
    ``JobQueue.result`` (two shard workers) over small sharded cold
    jobs of all three kinds and resubmissions of earlier specs, which
    the result store answers.  The only workload that runs ``service``
    and the ``core`` supervisor/checkpoint machinery.  Each pass starts
    from a fresh root pre-filled with a fixed history of finished jobs,
    because every serve iteration rescans all finished jobs (see
    NOTES.md): the history is part of the workload.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import statistics
import time
from dataclasses import dataclass, field
from typing import Dict, List

from repro.core.profiling import COUNTERS

WORKLOADS = ("table1_campaign", "pattern_sweep", "mc_yield", "service_mix")

#: what one item is, per workload (the unit of ``items_per_s``)
ITEM = {
    "table1_campaign": "fault",
    "pattern_sweep": "fault x stimulus verdict",
    "mc_yield": "die",
    "service_mix": "completed job",
}

# Work per pass is a fixed function of --seconds, sized so a pass takes
# about that long on a 2-core x86-64 host; fixing it (rather than
# looping until a deadline) keeps the inputs, the outputs and every
# per-layer count a pure function of the seed.
TABLE1_CAMPAIGN_S = 27.0        # one full campaign
PATTERN_FAULTS_PER_S = 2.7      # 40 faults (one per device) at 15 s
MC_DIES_PER_S = 3.0             # 45 dies at 15 s, ~0.33 s per die
SERVICE_TRIPLE_S = 4.0          # one cold job of each kind + their hits

#: population seed of mc_yield (the paper-default campaign seed) and the
#: number of its dies that carry a stored reference
MC_SEED = 2016
MC_POOL = 320

#: service_mix shape
SERVICE_WORKERS = 2
SERVICE_HITS_PER_COLD = 20
SERVICE_HISTORY_HITS = 200
SERVICE_CATALOGUE = 12          # cold specs per kind
SPEC_KINDS = ("campaign", "mc", "patterns")
_STIMULI = ("prbs7", "prbs15", "scrambler", "isi", "aggressor")


def digest(obj: object) -> str:
    """Short content digest of a JSON-serialisable value."""
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.blake2b(text.encode(), digest_size=8).hexdigest()


def fault_id(fault) -> str:
    return ":".join(fault.key())


def verdict(record) -> str:
    """Order-free summary of one fault record: the detecting tiers,
    plus the outcome and an error digest when the record carries them."""
    text = "+".join(sorted(t for t, hit in record.tiers.items() if hit))
    if record.outcome != "ok":
        text += "!" + record.outcome
    if record.errors:
        text += "#" + digest([list(e) for e in record.errors])
    return text


# ----------------------------------------------------------------------
# service catalogue
# ----------------------------------------------------------------------
def service_spec(kind: str, index: int):
    """Cold spec *index* of *kind*: small, sharded over two workers.

    Indices ``>= SERVICE_CATALOGUE`` are the history specs, which the
    timed part of a pass never submits cold.
    """
    from repro.service.spec import CampaignSpec

    common = dict(shards=2, workers=SERVICE_WORKERS)
    if kind == "campaign":
        return CampaignSpec(kind="campaign", seed=100 + index, sample=6,
                            backend="batched", collapse="on", **common)
    if kind == "mc":
        return CampaignSpec(kind="mc", seed=200 + index, dies=4,
                            backend="batched", **common)
    return CampaignSpec(kind="patterns", seed=300 + index, sample=3,
                        patterns=(_STIMULI[index % len(_STIMULI)],),
                        **common)


HISTORY_SPEC = ("patterns", SERVICE_CATALOGUE)


def catalogue():
    """Every (kind, index) a service pass can submit."""
    return [(k, i) for k in SPEC_KINDS for i in range(SERVICE_CATALOGUE)] \
        + [HISTORY_SPEC]


# ----------------------------------------------------------------------
# plans
# ----------------------------------------------------------------------
def make_plan(name: str, seed: int, seconds: int,
              reference: Dict) -> Dict[str, object]:
    """The inputs of one pass: a pure function of the arguments."""
    rng = random.Random(f"{name}:{seed}")
    if name == "table1_campaign":
        from repro.dft.coverage import build_fault_universe

        n = len(build_fault_universe())
        repeats = max(1, round(seconds / TABLE1_CAMPAIGN_S))
        return {"orders": [list(range(n))] * repeats}
    if name == "pattern_sweep":
        from repro.patterns.campaign import bist_universe

        by_device: Dict[str, List[int]] = {}
        for i, f in enumerate(bist_universe()):
            by_device.setdefault(f.device, []).append(i)
        decks = [rng.sample(v, len(v)) for _, v in sorted(by_device.items())]
        rng.shuffle(decks)
        want = max(3, round(PATTERN_FAULTS_PER_S * seconds))
        picks: List[int] = []
        while len(picks) < want and any(decks):
            for deck in decks:
                if deck and len(picks) < want:
                    picks.append(deck.pop())
        return {"faults": picks}
    if name == "mc_yield":
        cost = reference["mc_yield"]["cost"]
        by_cost = sorted(range(MC_POOL), key=lambda d: (cost[str(d)], d))
        want = min(MC_POOL, max(2, round(MC_DIES_PER_S * seconds)))
        return {"dies": sorted(rng.choice(band)
                               for band in _bands(by_cost, want))}
    if name == "service_mix":
        triples = min(SERVICE_CATALOGUE,
                      max(1, round(seconds / SERVICE_TRIPLE_S)))
        submitted = [HISTORY_SPEC]
        jobs: List[List[object]] = []
        for triple in range(triples):
            for kind in rng.sample(SPEC_KINDS, len(SPEC_KINDS)):
                cold = (kind, triple)
                jobs.append([cold[0], cold[1], "cold"])
                submitted.append(cold)
                for _ in range(SERVICE_HITS_PER_COLD):
                    k, i = rng.choice(submitted)
                    jobs.append([k, i, "hit"])
        return {"history_hits": SERVICE_HISTORY_HITS, "jobs": jobs}
    raise KeyError(f"unknown workload {name!r}; choices: "
                   f"{', '.join(WORKLOADS)}")


def _bands(members: List[int], n: int) -> List[List[int]]:
    """*members* cut into *n* consecutive bands of (nearly) equal size."""
    return [members[len(members) * i // n:len(members) * (i + 1) // n]
            for i in range(n)]


# ----------------------------------------------------------------------
# one pass
# ----------------------------------------------------------------------
@dataclass
class PassResult:
    """What one timed pass measured."""

    wall_s: float
    items: int
    counters: Dict[str, int]
    #: items whose outcome was not ok, or whose output disagreed
    failed: int = 0
    #: one line per output that disagreed with the reference (each also
    #: counted in ``failed``)
    mismatches: List[str] = field(default_factory=list)
    #: workload-specific values (latencies, sweep bits, disk stats, ...)
    info: Dict[str, object] = field(default_factory=dict)

    @property
    def items_per_s(self) -> float:
        return self.items / self.wall_s


class _Timed:
    """Times the measured region and takes its counter delta; spans
    recorded before it (untimed preparation) are dropped.  A host-speed
    probe, if given, samples during the region only."""

    def __init__(self, tracer, probe=None):
        self.tracer = tracer
        self.probe = probe

    def __enter__(self) -> "_Timed":
        if self.tracer is not None:
            self.tracer.reset()
        if self.probe is not None:
            self.probe.start()
        self._before = COUNTERS.snapshot()
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc_info) -> None:
        self.wall_s = time.perf_counter() - self._t0
        if self.probe is not None:
            self.probe.stop()
        after = COUNTERS.snapshot()
        self.counters = {k: after[k] - self._before[k] for k in after}


def run_pass(name: str, plan: Dict[str, object], reference: Dict,
             pass_dir: str, tracer=None, probe=None) -> PassResult:
    """Run *plan* once and check every output against *reference*;
    *probe* (a :class:`hostspeed.SpeedProbe`) samples the timed part."""
    os.makedirs(pass_dir, exist_ok=True)
    return _RUNNERS[name](plan, reference[name], pass_dir, tracer, probe)


def _check_faults(records, ref_faults: Dict[str, str], out: PassResult,
                  what: str) -> None:
    for rec in records:
        fid = fault_id(rec.fault)
        got, want = verdict(rec), ref_faults.get(fid)
        if rec.outcome != "ok" or got != want:
            out.failed += 1
        if got != want:
            out.mismatches.append(f"{what} {fid}: got {got!r}, "
                                  f"reference {want!r}")


def _coverage(verdicts: List[str], tiers) -> float:
    hit = sum(1 for v in verdicts
              if set(v.split("!")[0].split("#")[0].split("+")) & set(tiers))
    return hit / len(verdicts)


def _run_table1(plan, ref, pass_dir, tracer, probe) -> PassResult:
    from repro.dft.coverage import build_fault_universe, run_paper_campaign

    universe = build_fault_universe()
    reports = []
    with _Timed(tracer, probe) as timed:
        for order in plan["orders"]:
            if tracer is not None:
                tracer.request = len(reports)
            reports.append(run_paper_campaign(
                [universe[i] for i in order], backend="batched",
                collapse="on"))
    out = PassResult(wall_s=timed.wall_s, counters=timed.counters,
                     items=sum(r.result.total for r in reports))
    for report in reports:
        _check_faults(report.result.records, ref["faults"], out, "fault")
        want = list(ref["faults"].values())
        for i, tier in enumerate(("dc", "scan", "bist")):
            expected = _coverage(want, ("dc", "scan", "bist")[:i + 1])
            got = getattr(report, tier)
            if got != expected:
                out.failed += 1
                out.mismatches.append(f"cumulative {tier} coverage {got} "
                                      f"!= reference {expected}")
    return out


def _run_patterns(plan, ref, pass_dir, tracer, probe) -> PassResult:
    from repro.patterns.campaign import (PatternCampaign, at_speed_tier,
                                         ber_vs_length_sweep, bist_universe)

    universe = bist_universe()
    subset = [universe[i] for i in plan["faults"]]
    with _Timed(tracer, probe) as timed:
        if tracer is not None:
            tracer.request = "campaign"
        result = PatternCampaign().run(universe=subset)
        if tracer is not None:
            tracer.request = "ber_sweep"
        sweep = ber_vs_length_sweep()
    records = result.result.records
    out = PassResult(wall_s=timed.wall_s, counters=timed.counters,
                     items=len(records) * len(result.patterns))
    _check_faults(records, ref["faults"], out, "fault")
    want = [ref["faults"][fault_id(f)] for f in subset]
    for p in result.patterns:
        expected = _coverage(want, ("static", at_speed_tier(p)))
        if result.coverage(p) != expected:
            out.failed += 1
            out.mismatches.append(f"{p} coverage {result.coverage(p)} "
                                  f"!= reference {expected}")
        got = digest(result.lock_summary[p])
        if got != ref["lock"][p]:
            out.failed += 1
            out.mismatches.append(f"{p} healthy lock summary digest {got} "
                                  f"!= reference {ref['lock'][p]}")
    for point in sweep:
        got = digest(point.to_dict())
        if got != ref["ber_sweep"].get(point.pattern):
            out.failed += 1
            out.mismatches.append(
                f"BER sweep point {point.pattern} digest {got} != "
                f"reference {ref['ber_sweep'].get(point.pattern)}")
    out.info["sweep_bits"] = sum(p.bits for p in sweep)
    return out


def _run_mc(plan, ref, pass_dir, tracer, probe) -> PassResult:
    from repro.variation import MonteCarloCampaign

    trace = (os.path.join(pass_dir, "mc.trace.jsonl")
             if tracer is not None else None)
    with _Timed(tracer, probe) as timed:
        result = MonteCarloCampaign(seed=MC_SEED).run(
            plan["dies"], backend="batched", trace=trace)
    out = PassResult(wall_s=timed.wall_s, counters=timed.counters,
                     items=len(result.records))
    for rec in result.records:
        got, want = digest(rec.to_dict()), ref["dies"].get(str(rec.die))
        if rec.outcome != "ok" or got != want:
            out.failed += 1
        if got != want:
            out.mismatches.append(f"die {rec.die}: record digest {got} "
                                  f"!= reference {want}")
    if trace is not None:
        out.info["item_s"] = _item_durations([trace])
    out.info.update(_trace_disk_stats(pass_dir))
    return out


def _run_service(plan, ref, pass_dir, tracer, probe) -> PassResult:
    from repro.service.client import JobQueue, serve

    root = os.path.join(pass_dir, "root")
    queue = JobQueue(root)

    def job(kind: str, index: int):
        spec = service_spec(kind, index)
        t0 = time.perf_counter()
        job_id = queue.submit(spec)
        serve(root, once=True, workers=SERVICE_WORKERS)
        try:
            _, artifact = queue.result(job_id)
        except ValueError as exc:          # JobError: the job failed
            artifact = {"error": str(exc)}
        return job_id, spec, artifact, time.perf_counter() - t0

    # untimed: the seeded history of finished jobs
    job(*HISTORY_SPEC)
    for _ in range(int(plan["history_hits"])):
        job(*HISTORY_SPEC)
    before = _service_disk_stats(root)
    latencies: Dict[str, List[float]] = {"cold": [], "hit": []}
    outcomes = []
    with _Timed(tracer, probe) as timed:
        for n, (kind, index, expect) in enumerate(plan["jobs"]):
            if tracer is not None:
                tracer.request = n
            job_id, spec, artifact, wall = job(kind, index)
            latencies[expect].append(wall)
            outcomes.append((kind, index, expect, job_id, spec, artifact))
    out = PassResult(wall_s=timed.wall_s, counters=timed.counters,
                     items=len(outcomes))
    failed_jobs = 0
    for kind, index, expect, job_id, spec, artifact in outcomes:
        status = queue.status(job_id)
        want = ref["specs"].get(f"{kind}:{index}")
        got = digest(artifact)
        bad = status.get("state") != "done" or got != want
        if status.get("state") != "done":
            failed_jobs += 1
        if status.get("cache_hit") != (expect == "hit"):
            bad = True
            out.mismatches.append(
                f"job {job_id}: expected a {expect}, status says "
                f"cache_hit={status.get('cache_hit')}")
        if got != want:
            out.mismatches.append(f"job {job_id} ({kind}:{index}): "
                                  f"artifact digest {got} != reference "
                                  f"{want}")
        out.failed += bad
    after = _service_disk_stats(root)
    out.info.update({k: after[k] - before[k] for k in
                     ("trace_events", "checkpoint_lines",
                      "checkpoint_bytes")})
    out.info["root_jobs"] = after["root_jobs"]
    out.info["history_jobs"] = before["root_jobs"]
    out.info["failed_jobs"] = failed_jobs
    out.info["cold_s"] = latencies["cold"]
    out.info["hit_s"] = latencies["hit"]
    out.info["shard_item_s"] = _item_durations(
        [p for p in after["shard_traces"] if p not in
         set(before["shard_traces"])])
    return out


_RUNNERS = {
    "table1_campaign": _run_table1,
    "pattern_sweep": _run_patterns,
    "mc_yield": _run_mc,
    "service_mix": _run_service,
}


# ----------------------------------------------------------------------
# on-disk artifacts
# ----------------------------------------------------------------------
def _item_durations(paths: List[str]) -> List[float]:
    """``duration_s`` of every ``item_done`` event in the RunTraces."""
    out: List[float] = []
    for path in paths:
        with open(path) as fh:
            for line in fh:
                event = json.loads(line)
                if event.get("event") == "item_done":
                    out.append(float(event["duration_s"]))
    return out


def _lines_and_bytes(paths: List[str]):
    lines = size = 0
    for path in paths:
        with open(path, "rb") as fh:
            data = fh.read()
        lines += data.count(b"\n")
        size += len(data)
    return lines, size


def _trace_disk_stats(pass_dir: str) -> Dict[str, object]:
    traces = [os.path.join(pass_dir, n) for n in os.listdir(pass_dir)
              if n.endswith(".jsonl")]
    return {"trace_events": _lines_and_bytes(traces)[0]}


def _service_disk_stats(root: str) -> Dict[str, object]:
    """Job count, trace lines and shard checkpoint volume under *root*."""
    traces = [os.path.join(root, "trace", n)
              for n in os.listdir(os.path.join(root, "trace"))]
    checkpoints: List[str] = []
    shard_traces: List[str] = []
    shards = os.path.join(root, "shards")
    for digest_dir in (os.listdir(shards) if os.path.isdir(shards) else ()):
        for n in os.listdir(os.path.join(shards, digest_dir)):
            path = os.path.join(shards, digest_dir, n)
            if n.endswith(".trace.jsonl"):
                shard_traces.append(path)
            elif n.endswith(".jsonl"):
                checkpoints.append(path)
    ck_lines, ck_bytes = _lines_and_bytes(checkpoints)
    return {
        "root_jobs": len(os.listdir(os.path.join(root, "jobs"))),
        "trace_events": _lines_and_bytes(traces + shard_traces)[0],
        "checkpoint_lines": ck_lines,
        "checkpoint_bytes": ck_bytes,
        "shard_traces": sorted(shard_traces),
    }


def median(values: List[float], default: float = 0.0) -> float:
    return statistics.median(values) if values else default
