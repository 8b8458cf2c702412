"""Closed-loop simulation of the dual-loop clock synchronizer (Fig 2).

Cycle-accurate at bit granularity: every bit period the behavioural
Alexander PD compares the sampling instant (selected DLL tap + VCDL
delay) against the data-eye centre and pumps the loop filter; every
``divider_ratio`` bits the coarse FSM evaluates the window comparator
and, when V_c has railed, steps the ring counter / fires the strong pump
/ increments the lock detector.

The trace it produces — V_c sawtoothing between the window bounds while
the coarse phase staircases toward the eye, then V_c settling — is the
paper's Fig 2.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from .._profiling import COUNTERS
from ..link.alexander_pd import AlexanderPD, wrap_phase
from ..link.charge_pump_beh import ChargePumpBeh
from ..link.control_fsm import CoarseFSM
from ..link.dll import DLL
from ..link.lock_detector import LockDetector
from ..link.params import N_DLL_PHASES, LinkParams
from ..link.prbs import PRBS
from ..link.ring_counter import RingCounterBeh
from ..link.switch_matrix import SwitchMatrix
from ..link.vcdl import VCDLBeh
from ..link.window_comp_beh import WindowComparatorBeh

#: consecutive quiet coarse evaluations that define lock
LOCK_QUIET_EVALS = 8
#: sampling-phase error that counts as "at the eye centre" [fraction of bit]
LOCK_PHASE_TOL = 0.08
#: the paper's lock budget (Section III: 5000 cycles at 2.5 Gbps)
LOCK_BUDGET_S = 2e-6


@dataclass
class LoopTrace:
    """Time series recorded by the loop simulation."""

    time: List[float] = field(default_factory=list)
    vc: List[float] = field(default_factory=list)
    phase_index: List[int] = field(default_factory=list)
    sampling_phase: List[float] = field(default_factory=list)
    coarse_requests: List[float] = field(default_factory=list)

    def as_arrays(self):
        import numpy as np

        return (np.asarray(self.time), np.asarray(self.vc),
                np.asarray(self.phase_index),
                np.asarray(self.sampling_phase))


@dataclass
class LoopResult:
    """Outcome of a synchronizer run."""

    locked: bool
    lock_time: Optional[float]
    cycles_run: int
    coarse_corrections: int
    final_vc: float
    final_phase_index: int
    final_sampling_phase: Optional[float]
    phase_error: Optional[float]       # vs eye centre, wrapped [s]
    #: recorded time series (empty for a lockstep-batch lane)
    trace: LoopTrace
    #: received-bit errors before/after lock (a sample outside the open
    #: eye region resolves to the wrong/metastable value)
    errors_before_lock: int = 0
    errors_after_lock: int = 0
    #: bit period index at which lock was declared
    lock_cycles: Optional[int] = None
    #: the lock detector's legal coarse-correction count (n_phases / 2)
    correction_bound: int = N_DLL_PHASES // 2

    @property
    def post_lock_error_free(self) -> bool:
        """The link's actual job: clean data once locked."""
        return self.locked and self.errors_after_lock == 0

    @property
    def bist_pass(self) -> bool:
        """The paper's BIST verdict under the unstretched 2 us budget."""
        return bist_verdict(self)


def bist_verdict(result: LoopResult, budget_s: float = LOCK_BUDGET_S,
                 clean_data: bool = False) -> bool:
    """The BIST pass rule applied to a loop run (Section III).

    Pass means: locked within *budget_s* with no more coarse corrections
    than the lock detector's bound.  ``clean_data`` adds the strict
    data-integrity rule of the non-default stimuli: zero sampling errors
    after lock.  Every at-speed verdict in the repo goes through here.
    """
    return (result.locked
            and result.lock_time is not None
            and result.lock_time <= budget_s
            and result.coarse_corrections <= result.correction_bound
            and (not clean_data or result.errors_after_lock == 0))


class SynchronizerLoop:
    """The dual-loop synchronizer as a runnable simulation."""

    def __init__(self, params: Optional[LinkParams] = None,
                 prbs_order: int = 7, seed: int = 7,
                 source=None, aggressor=None, checker=None):
        """*source* swaps the transmitted stimulus (any
        :class:`repro.patterns.sources.PatternSource`; default: the
        legacy PRBS — bit-identical to every pre-pattern-engine run).
        *aggressor* is an optional crosstalk hook whose ``penalty(p)``
        is charged against the eye half-width each bit period;
        *checker* is an optional
        :class:`repro.patterns.checker.PatternChecker` fed the received
        bit stream."""
        self.params = params or LinkParams()
        p = self.params
        self.pd = AlexanderPD(p)
        self.pump = ChargePumpBeh(p)
        self.vcdl = VCDLBeh(p)
        self.dll = DLL(p)
        self.ring = RingCounterBeh(p)
        self.switch = SwitchMatrix(p)
        self.window = WindowComparatorBeh(p)
        self.lock_detector = LockDetector(p)
        self.fsm = CoarseFSM(p, self.window, self.pump, self.ring,
                             self.lock_detector)
        self.prbs = PRBS(order=prbs_order, seed=seed)
        self.source = source if source is not None else self.prbs
        self.aggressor = aggressor
        self.checker = checker

    # ------------------------------------------------------------------
    def sampling_phase(self) -> Optional[float]:
        """Current absolute sampling phase within the bit, or None when
        no clock reaches the sampler (dead VCDL / dead switch phase)."""
        sel = self.switch.select(self.ring.one_hot())
        if sel is None:
            return None
        d = self.vcdl.delay(self.pump.vc)
        if d is None:
            return None
        return (self.dll.phase(sel) + d) % self.params.bit_time

    def run(self, max_cycles: int = 20000,
            record_every: int = 8,
            stop_on_lock: bool = False) -> LoopResult:
        """Simulate up to *max_cycles* bit periods.

        Lock is declared after :data:`LOCK_QUIET_EVALS` consecutive
        in-window coarse evaluations with the PD dithering (not
        monotonically slewing).  The BIST verdict additionally applies
        the lock-detector bound and the 5000-cycle budget (Section III).
        """
        COUNTERS.loop_scalar_runs += 1
        p = self.params
        dt = p.bit_time
        dt_slow = p.divider_ratio * dt

        trace = LoopTrace()
        locked = False
        lock_time: Optional[float] = None
        lock_cycle: Optional[int] = None
        divider_count = 0
        on_target_evals = 0
        tol = LOCK_PHASE_TOL * p.bit_time
        ups_seen = 0
        dns_seen = 0
        errors_before = 0
        errors_after = 0

        for cycle in range(max_cycles):
            t = cycle * dt
            bit = self.source.next_bit()
            phase = self.sampling_phase()

            # data correctness: a sample outside the open eye region
            # resolves wrongly (or metastably) -- count it as an error
            if phase is None:
                sample_ok = False
            else:
                e_sample = wrap_phase(phase - p.eye_center, p.bit_time)
                margin = p.eye_half_width
                if self.aggressor is not None:
                    margin = margin - self.aggressor.penalty(p)
                sample_ok = abs(e_sample) < margin
            if not sample_ok:
                if locked:
                    errors_after += 1
                else:
                    errors_before += 1
            if self.checker is not None:
                # a bad sample resolves to the wrong value at the
                # receiver -- that is what the checker FSM sees
                self.checker.push(bit if sample_ok else 1 - bit)

            if phase is not None and self.fsm.state == "TRACK":
                up, dn = self.pd.decide(bit, phase)
                ups_seen += up
                dns_seen += dn
                self.pump.step(up, dn, dt)
            elif phase is None:
                # no sampling clock: PD sees no data, pump idles, and the
                # loop can never lock
                self.pd.reset()

            divider_count += 1
            if not p.divider_dead and divider_count >= p.divider_ratio:
                divider_count = 0
                request, _ = self.fsm.evaluate(dt_slow)
                if request:
                    trace.coarse_requests.append(t)
                # lock criterion: sampling phase pinned to the eye centre
                # for several consecutive coarse evaluations, the fine
                # loop tracking (in window), and the PD visibly dithering
                # (both UP and DN seen — evidence the loop is regulating,
                # not merely parked; a dead PD never shows dither)
                if (self.fsm.state == "TRACK" and phase is not None
                        and abs(wrap_phase(phase - p.eye_center,
                                           p.bit_time)) < tol
                        and self.window.in_window(self.pump.vc)):
                    on_target_evals += 1
                else:
                    on_target_evals = 0
                    ups_seen = 0
                    dns_seen = 0
                if (not locked and on_target_evals >= LOCK_QUIET_EVALS
                        and ups_seen > 0 and dns_seen > 0):
                    locked = True
                    lock_time = t
                    lock_cycle = cycle

            if cycle % record_every == 0:
                trace.time.append(t)
                trace.vc.append(self.pump.vc)
                trace.phase_index.append(self.ring.position)
                trace.sampling_phase.append(
                    phase if phase is not None else float("nan"))

            if locked and stop_on_lock:
                break

        final_phase = self.sampling_phase()
        err = (wrap_phase(final_phase - p.eye_center, p.bit_time)
               if final_phase is not None else None)
        return LoopResult(
            locked=locked, lock_time=lock_time,
            cycles_run=cycle + 1,
            coarse_corrections=self.lock_detector.count,
            final_vc=self.pump.vc,
            final_phase_index=self.ring.position,
            final_sampling_phase=final_phase,
            phase_error=err, trace=trace,
            errors_before_lock=errors_before,
            errors_after_lock=errors_after,
            lock_cycles=lock_cycle,
            correction_bound=self.lock_detector.bound)


def run_synchronizer(params: Optional[LinkParams] = None,
                     max_cycles: int = 20000, seed: int = 7) -> LoopResult:
    """Convenience wrapper: build and run a loop simulation."""
    return SynchronizerLoop(params=params, seed=seed).run(max_cycles=max_cycles)
