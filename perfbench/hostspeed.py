"""Host-speed probe: how fast the benchmark's core runs while it works.

The shared 2-core host this benchmark was tuned on changes speed by up
to 1.7x, in spells of about a minute: a fixed pure-Python loop took
0.145 s in one minute and 0.237 s in the next.  Every CPU-bound pass
slows with it, so a pass's wall time mixes the program's cost with the
host's speed at that moment.  :class:`SpeedProbe` measures the second
part where it happens: every ``INTERVAL_S`` of the process's CPU time
(``SIGPROF``) it runs a fixed kernel in the interrupted thread and times
it in that thread's CPU time, so waiting for a core does not count but
a slower core does.  The mean kernel time over a pass, against
``NOMINAL_US``, gives the host's slowdown, and its square root rescales
the pass towards nominal host speed.

The kernel adds about 2% of CPU time to what it probes.  A forked
child inherits no interval timer, so a fork hook starts one in every
child forked while the probe runs (the shard workers of
``service_mix``); children add their samples to a block of shared
memory, one slot per process id, and the probe reads them back.
"""

from __future__ import annotations

import mmap
import os
import random
import signal
import struct
import time
from typing import List, Tuple

#: the kernel time, in microseconds, taken as nominal host speed: about
#: the middle of what the 2-core x86-64 host the benchmark was tuned on
#: read during passes, so rescaled figures stay near measured ones there
NOMINAL_US = 400.0

#: process CPU time between two kernel runs
INTERVAL_S = 0.02

#: passes are rescaled by ``slowdown ** RESCALE_POWER``.  The benchmark's
#: passes moved between about half and twice as far as the kernel, by
#: workload and by spell.  Over twenty-three ten-run sets taken while the
#: probe was built, the widest throughput spread was 0.196 with the
#: square root, 0.279 without rescaling and 0.267 with full rescaling.
RESCALE_POWER = 0.5


def _chain(length: int) -> Tuple[int, ...]:
    """One cycle through all of ``range(length)`` in a shuffled order:
    entry *i* holds the index that follows *i*."""
    order = list(range(1, length))
    random.Random(0).shuffle(order)
    chain = [0] * length
    for here, there in zip([0] + order, order + [0]):
        chain[here] = there
    return tuple(chain)


#: following the chain reads memory all over a few megabytes, so the
#: kernel feels contention for caches and memory, not only for the
#: core's pipeline
_CHAIN = _chain(100_000)


def _kernel() -> int:
    """Fixed work: interpreter arithmetic and dict stores, then 500 steps
    along ``_CHAIN``.  Either part alone tracked the benchmark's passes
    less closely than the two together."""
    table = {}
    total = 0
    for i in range(1500):
        total += i * i % 7
        table[i & 63] = total
    at = 0
    for _ in range(500):
        at = _CHAIN[at]
    return total + at


def _timed_kernel() -> int:
    t0 = time.thread_time_ns()
    _kernel()
    return time.thread_time_ns() - t0


#: forked children's (samples, nanoseconds) slots; slot = pid % CHILD_SLOTS
CHILD_SLOTS = 256
_SLOT = struct.Struct("qq")


class SpeedProbe:
    """Samples ``_kernel`` times between :meth:`start` and :meth:`stop`
    (or inside a ``with`` block), in this process and in every child
    forked meanwhile."""

    def __init__(self) -> None:
        self.samples_ns: List[int] = []
        self._children = mmap.mmap(-1, CHILD_SLOTS * _SLOT.size)
        self._active = False
        os.register_at_fork(after_in_child=self._in_child)

    def _tick(self, signum, frame) -> None:
        self.samples_ns.append(_timed_kernel())

    def _in_child(self) -> None:
        if self._active:
            signal.signal(signal.SIGPROF, self._child_tick)
            signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)

    def _child_tick(self, signum, frame) -> None:
        took = _timed_kernel()
        at = os.getpid() % CHILD_SLOTS * _SLOT.size
        n, total = _SLOT.unpack_from(self._children, at)
        _SLOT.pack_into(self._children, at, n + 1, total + took)

    def child_samples(self) -> Tuple[int, int]:
        """``(samples, nanoseconds)`` summed over the forked children."""
        slots = list(_SLOT.iter_unpack(self._children))
        return sum(n for n, _ in slots), sum(t for _, t in slots)

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGPROF, self._tick)
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)
        self._active = True

    def stop(self) -> None:
        self._active = False
        signal.setitimer(signal.ITIMER_PROF, 0.0)
        signal.signal(signal.SIGPROF, self._previous)

    def __enter__(self) -> "SpeedProbe":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()

    @property
    def kernel_us(self) -> float:
        """Mean kernel time over this process and its children;
        ``NOMINAL_US`` if the probe never fired.

        The samples are evenly spaced in CPU time, so their mean follows
        the host's speed averaged over the work, as the work's own time
        does; a median would follow whichever spell was longest."""
        n, total = self.child_samples()
        n += len(self.samples_ns)
        if not n:
            return NOMINAL_US
        return (total + sum(self.samples_ns)) / n / 1e3

    @property
    def slowdown(self) -> float:
        """How many times slower than nominal the kernel ran (< 1: faster)."""
        return self.kernel_us / NOMINAL_US

    @property
    def rescale(self) -> float:
        """Factor by which the probed work is taken to have run slower
        than at nominal host speed."""
        return self.slowdown ** RESCALE_POWER
