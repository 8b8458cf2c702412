"""The BIST tier (Section III): lock detector + CP-BIST checks.

Four at-speed observations, all available without external test access:

* **V_p tracking** — after lock (emulated by pinning V_c at the locked
  mid-window point) the CP-BIST window comparator must read "00"; a
  balancing-path or amplifier fault lets V_p drift past the 150 mV
  window.
* **Pump-current check** — with V_c pinned, asserting UP (then DN) must
  draw a weak-pump current within a window of the nominal; a
  drain-source short in a current-source transistor (masked during scan,
  where the source is used as a switch) multiplies the current.
* **VCDL aliveness** — the sampling clock must propagate; a dead stage
  shows statically as an output that no longer follows the input.
* **Lock test** — the behavioural loop runs at speed on PRBS data from
  the worst-case startup phase; the lock detector must report lock
  within 2 us with no more than n_phases/2 coarse corrections.

The at-speed stimulus is a sweepable axis (DESIGN.md §15): the tier
registers parameterised variants ``bist@<pattern>`` over the
:mod:`repro.patterns` sources.  The default ``bist`` tier is the
legacy PRBS7 run, bit-identical to every pre-pattern-engine campaign;
non-default patterns additionally run past lock and apply the strict
data-integrity verdict (zero post-lock sampling errors) under a
stimulus-specific lock-budget stretch.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

from ..faults.behavior_map import map_fault_to_knobs
from ..faults.inject import inject_fault
from ..faults.model import StructuralFault
from ..link.params import KnotCurve, LinkParams
from ..synchronizer.batch import LaneResults, LoopLane
from ..synchronizer.loop import LOCK_BUDGET_S, LoopResult, bist_verdict
from .duts import build_receiver_dut, build_vcdl_dut
from .golden import GoldenSignatures
from .registry import register_tier

#: pump current acceptance window relative to nominal
CURRENT_LO = 0.3
CURRENT_HI = 3.0
#: worst-case startup phase used for the lock test
LOCK_TEST_PHASE = 5
#: cycles simulated by the lock test (> the 5000-cycle budget)
LOCK_TEST_CYCLES = 7000
#: the paper's lock-time budget [s]
LOCK_BUDGET = LOCK_BUDGET_S


def _release(circuit) -> None:
    """Drop a finished characterisation circuit's compiled plans.

    A plan references its circuit, so the pair is a reference cycle
    that only a full garbage collection frees; back-to-back
    characterisations (the batched at-speed prepass) would otherwise
    pile up their solver matrices.
    """
    circuit.touch()


@register_tier("bist")
@dataclass
class BISTTest:
    """BIST tier detector with cached golden signatures.

    *pattern* selects the at-speed stimulus (any
    :data:`repro.patterns.sources.PATTERN_NAMES` entry); the registry
    builds parameterised instances via ``create_tier("bist@isi")``.
    *measure_cache* memoizes the expensive pattern-independent netlist
    characterisations (window thresholds, VCDL delay pairs) — pass one
    shared dict when sweeping many patterns over the same fault list.
    """

    goldens: GoldenSignatures = field(default_factory=GoldenSignatures)
    pattern: str = "prbs7"
    measure_cache: Dict = field(default_factory=dict, repr=False)
    _golden: Dict = field(default_factory=dict, repr=False)
    _healthy_ota_i: Dict[str, float] = field(default_factory=dict,
                                             repr=False)

    #: OTA devices screened for bias collapse (block speed screen)
    OTA_DEVICES = ("win_hi_MT", "win_hi_MLO", "win_lo_MT", "win_lo_MLO",
                   "cp_amp_MT", "cp_amp_MLO")
    #: bias current below this fraction of healthy = block too slow for
    #: the coarse-loop clock -> lock failure at speed
    SLEW_COLLAPSE = 0.1

    def __post_init__(self):
        from ..patterns.sources import PATTERN_NAMES, lock_budget_scale

        if self.pattern not in PATTERN_NAMES:
            raise KeyError(f"unknown pattern {self.pattern!r}; choices: "
                           f"{', '.join(PATTERN_NAMES)}")
        #: the stimulus' lock-budget stretch (DESIGN.md section 15)
        self.budget_scale = lock_budget_scale(self.pattern)
        # the default tier keeps its historical name so records stay
        # byte-identical; parameterised instances carry the registry's
        # "bist@<pattern>" spelling
        self.name = ("bist" if self.pattern == "prbs7"
                     else f"bist@{self.pattern}")
        # shared retention references (receiver quiescent point, VCDL
        # with the clock low) are built through the cache — pre-fork,
        # and reused by every tier of the campaign
        self.goldens.retention_receiver
        self.goldens.retention_vcdl
        self._golden = self._run_receiver_checks(None, calibrate=True)

    @property
    def golden(self) -> Dict[str, object]:
        """Healthy signatures: V_p tracking flags, OTA speed screens,
        and the pump-current windows."""
        return {"receiver_checks": self._golden}

    @property
    def golden_checks(self) -> Dict:
        """The healthy receiver-checks signature (the reference the
        batched MC screens compare against)."""
        return self._golden

    # ------------------------------------------------------------------
    def applies_to(self, fault: StructuralFault) -> bool:
        return fault.block in ("cp", "window_comp", "vcdl")

    def screen(self) -> bool:
        """Healthy-die screen: does a fault-free die pass the BIST tier?

        Runs the receiver checks and the VCDL aliveness probe without a
        fault, comparing against the nominal calibration captured at
        construction (never re-calibrating — the tester's reference is
        the nominal design, not the die under test).
        """
        if self._run_receiver_checks(None) != self._golden:
            return False
        return self._vcdl_alive(None)

    def detect(self, fault: StructuralFault) -> bool:
        if self.static_detect(fault):
            return True
        return self.at_speed_detect(fault)

    def static_detect(self, fault: StructuralFault) -> bool:
        """The tier's pattern-independent stages only (receiver checks,
        VCDL aliveness).  The pattern campaign runs these once and
        sweeps :meth:`at_speed_detect` per stimulus."""
        if fault.block in ("window_comp", "cp"):
            return self._run_receiver_checks(fault) != self._golden
        if fault.block == "vcdl":
            return not self._vcdl_alive(fault)
        return False

    def at_speed_detect(self, fault: StructuralFault) -> bool:
        """The stimulus-dependent at-speed stages only (serial: stops at
        the first startup phase that fails)."""
        plan = self.lock_runs(fault)
        if isinstance(plan, bool):
            return plan
        return not all(self.lane_passes(lane.run()) for lane in plan)

    # ------------------------------------------------------------------
    def detect_batch(self, faults, backend=None) -> Dict:
        """Batched :meth:`detect`; see DCTest.detect_batch for the
        resolve/omit contract.

        The netlist stages (receiver checks, VCDL aliveness, VCDL
        characterisation transients) run batched; the behavioural lock
        runs of every fault that reaches them go through one
        :meth:`at_speed_stage`.  The window-threshold bisection stays
        serial (through ``measure_cache``); a fault whose bisection
        raises is omitted.
        """
        from .batch_stages import vcdl_aliveness
        from .duts import ReceiverDUT, VCDLDUT

        out: Dict = {}
        rx = [f for f in faults if f.block in ("window_comp", "cp")]
        vc = [f for f in faults if f.block == "vcdl"]
        lock_keys: List[Tuple] = []
        plans: List = []

        if rx:
            base = build_receiver_dut()
            duts, keep = [], []
            for f in rx:
                try:
                    faulted = inject_fault(
                        base.circuit, f,
                        retention=self.goldens.retention_receiver)
                except Exception:
                    continue
                duts.append(ReceiverDUT(circuit=faulted, cp=base.cp,
                                        vdd=base.vdd))
                keep.append(f)
            sigs = self.batched_receiver_checks(duts, backend=backend)
            for f, sig in zip(keep, sigs):
                if isinstance(sig, Exception):
                    continue
                if sig != self._golden:
                    out[f.key()] = True
                else:
                    lock_keys.append(f.key())
                    plans.append(self._lock_plan(f))

        if vc:
            base = build_vcdl_dut()
            duts, keep = [], []
            for f in vc:
                try:
                    faulted = inject_fault(
                        base.circuit, f,
                        retention=self.goldens.retention_vcdl)
                except Exception:
                    continue
                duts.append(VCDLDUT(circuit=faulted, ports=base.ports))
                keep.append(f)
            alive = vcdl_aliveness(duts, backend=backend)
            need_lock = []
            for f, a in zip(keep, alive):
                if isinstance(a, Exception):
                    continue
                if not a:
                    out[f.key()] = True
                else:
                    need_lock.append(f)
            delays = self._batched_vcdl_delays(need_lock, backend=backend)
            for f in need_lock:
                if f in delays:
                    lock_keys.append(f.key())
                    plans.append(self._vcdl_lock_runs(*delays[f]))

        for key, verdict in zip(lock_keys, self._run_lock_stage(plans)):
            if not isinstance(verdict, Exception):
                out[key] = verdict
        return out

    # ------------------------------------------------------------------
    def detect_collapsed(self, faults, collapser, backend=None,
                         memo=None):
        """One-representative-per-class :meth:`detect`; see
        DCTest.detect_collapsed for the memo/provenance contract.

        Receiver checks key on the perturbation digest alone (shared by
        cp and window-comparator classes, and across stimulus patterns);
        the follow-on lock run keys on the stimulus pattern plus the
        behavioural knob set for cp faults (the only inputs
        :meth:`lock_runs` consumes) or the digest for the
        window-threshold bisection.  Lock runs (and the VCDL classes'
        runs) go through :meth:`at_speed_stage`.
        """
        from .collapsed import (consume, expand, group_by_signature,
                                stage_exec)

        memo = {} if memo is None else memo
        resolved: Dict = {}
        provenance: Dict = {}
        # the collapser's equivalence knowledge is per base tier; the
        # pattern only enters the lock-stage memo keys below
        groups = group_by_signature(faults, collapser, "bist")
        rx_groups = {s: m for s, m in groups.items() if s[0] == "R"}
        vc_groups = {s: m for s, m in groups.items() if s[0] == "V"}

        fresh = stage_exec(
            memo,
            {("bist_checks", s[1]): m[0] for s, m in rx_groups.items()},
            lambda reps: self._run_checks_stage(reps, backend))
        lock_need, lock_groups = {}, []
        for sig, members in rx_groups.items():
            key = ("bist_checks", sig[1])
            entry = memo[key]
            if isinstance(entry, Exception):
                continue
            consume(fresh, key, len(members))
            if entry != self._golden:
                expand(resolved, provenance, members, True)
                continue
            if members[0].block == "cp":
                lkey = ("cp_lock", self.pattern, sig[2])
            else:
                lkey = ("win_lock", self.pattern, sig[1])
            lock_need.setdefault(lkey, members[0])
            lock_groups.append((lkey, members))

        fresh = stage_exec(
            memo, lock_need,
            lambda reps: self._run_lock_stage(
                [self._lock_plan(f) for f in reps]))
        for lkey, members in lock_groups:
            entry = memo[lkey]
            if isinstance(entry, Exception):
                continue
            consume(fresh, lkey, len(members))
            expand(resolved, provenance, members, entry)

        from .collapsed import run_vcdl_alive

        fresh = stage_exec(
            memo,
            {("vcdl_alive", s[1]): m[0] for s, m in vc_groups.items()},
            lambda reps: run_vcdl_alive(self.goldens, reps, backend))
        char_need, char_groups = {}, []
        for sig, members in vc_groups.items():
            key = ("vcdl_alive", sig[1])
            entry = memo[key]
            if isinstance(entry, Exception):
                continue
            consume(fresh, key, len(members))
            if not entry:
                expand(resolved, provenance, members, True)
            else:
                ckey = ("vcdl_char", sig[3])
                char_need.setdefault(ckey, members[0])
                char_groups.append((ckey, members))

        fresh = stage_exec(memo, char_need,
                           lambda reps: self._run_char_stage(reps, backend))
        char_groups = [(ckey, members) for ckey, members in char_groups
                       if not isinstance(memo[ckey], Exception)]
        verdicts = self._run_lock_stage(
            [self._vcdl_lock_runs(*memo[ckey]) for ckey, _ in char_groups])
        for (ckey, members), verdict in zip(char_groups, verdicts):
            consume(fresh, ckey, len(members))
            expand(resolved, provenance, members, verdict)

        return resolved, provenance

    def _run_checks_stage(self, reps, backend):
        """Receiver-checks stage over class representatives."""
        from .collapsed import _injected

        base = build_receiver_dut()
        from .duts import ReceiverDUT

        results, duts, idx = _injected(
            reps, lambda inj: ReceiverDUT(circuit=inj(base.circuit),
                                          cp=base.cp, vdd=base.vdd),
            self.goldens.retention_receiver)
        sigs = self.batched_receiver_checks(duts, backend=backend)
        for i, sig in zip(idx, sigs):
            results[i] = sig
        return results

    def _run_lock_stage(self, plans) -> List:
        """Detected verdicts for this tier's lock *plans* (see
        :meth:`at_speed_stage`)."""
        return self.at_speed_stage([(self, plan) for plan in plans])[0]

    def _run_char_stage(self, reps, backend):
        """VCDL characterisation delays per representative."""
        reps = list(reps)
        delays = self._batched_vcdl_delays(reps, backend=backend)
        return [delays[f] if f in delays
                else RuntimeError("vcdl characterisation unresolved")
                for f in reps]

    def batched_receiver_checks(self, duts, backend=None):
        """Batched :meth:`_run_receiver_checks` over prepared DUTs.

        Stage-lockstep mirror of the serial method: the hold check runs
        for every DUT, then each pump condition runs only for DUTs whose
        every earlier stage converged (the serial early-return).  A
        non-converged stage yields the serial ``{"converged": False}``
        signature; an exception marks the item unresolved.
        """
        from ..analog import batch_dc_operating_points

        n = len(duts)
        sigs = [dict() for _ in range(n)]
        resolved = [None] * n

        for d in duts:
            d.set_condition(hold=True)
        ops = batch_dc_operating_points([d.circuit for d in duts],
                                        backend=backend)
        live = []
        for j, op in enumerate(ops):
            if isinstance(op, Exception):
                resolved[j] = op
            elif not op.converged:
                resolved[j] = {"converged": False}
            else:
                obs = duts[j].observe(op)
                sigs[j]["vp_flag"] = (obs["bist_hi"], obs["bist_lo"])
                currents = self._ota_currents(duts[j], op)
                for name in self.OTA_DEVICES:
                    ref = self._healthy_ota_i.get(name, 0.0)
                    sigs[j][f"slew_{name}_ok"] = bool(
                        ref == 0.0
                        or currents[name] >= self.SLEW_COLLAPSE * ref)
                live.append(j)

        nominal = {"up": 1.83e-6, "dn": 3.66e-6,
                   "up_st": 14.6e-6, "dn_st": 29e-6}
        for name, kw in (("up", dict(hold=True, up=1)),
                         ("dn", dict(hold=True, dn=1)),
                         ("up_st", dict(hold=True, up_st=1)),
                         ("dn_st", dict(hold=True, dn_st=1))):
            if not live:
                break
            for j in live:
                duts[j].set_condition(**kw)
            ops = batch_dc_operating_points(
                [duts[j].circuit for j in live], backend=backend)
            nxt = []
            for j, op in zip(live, ops):
                if isinstance(op, Exception):
                    resolved[j] = op
                elif not op.converged:
                    resolved[j] = {"converged": False}
                else:
                    i = abs(duts[j].hold_current(op))
                    ref = nominal[name]
                    sigs[j][f"i_{name}_ok"] = bool(
                        CURRENT_LO * ref <= i <= CURRENT_HI * ref)
                    nxt.append(j)
            live = nxt
        for j in live:
            sigs[j]["converged"] = True
            resolved[j] = sigs[j]
        return resolved

    def _batched_vcdl_delays(self, faults, backend=None) -> Dict:
        """Characterisation delays ``{fault: (d_lo, d_hi)}``, batched.

        Both window-bound transients of every fault go through one
        :func:`batch_transients` call; a fault whose either transient
        raised is omitted (unresolved).
        """
        from ..analog import batch_transients

        p0 = LinkParams()
        circuits, keep = [], []
        for f in faults:
            try:
                pair = (self._vcdl_char_circuit(f, p0.v_window_lo),
                        self._vcdl_char_circuit(f, p0.v_window_hi))
            except Exception:
                continue
            circuits.extend(pair)
            keep.append(f)
        trs = batch_transients(circuits, 1.6e-9, 2e-12,
                               probes=["clk_out"], backend=backend)
        out: Dict = {}
        for i, f in enumerate(keep):
            tr_lo, tr_hi = trs[2 * i], trs[2 * i + 1]
            if isinstance(tr_lo, Exception) or isinstance(tr_hi, Exception):
                continue
            out[f] = (self._vcdl_delay_from(tr_lo),
                      self._vcdl_delay_from(tr_hi))
        return out

    # ------------------------------------------------------------------
    def _run_receiver_checks(self, fault: Optional[StructuralFault],
                             calibrate: bool = False) -> Dict:
        """V_p tracking + pump-current windows on the receiver bench.

        ``calibrate=True`` (construction only) records the healthy OTA
        bias currents as the speed-screen reference; every later call —
        faulted or the healthy-die screen — compares against that stored
        nominal.
        """
        dut = build_receiver_dut()
        if fault is not None:
            dut.circuit = inject_fault(
                dut.circuit, fault,
                retention=self.goldens.retention_receiver)
        out: Dict[str, object] = {}

        # V_p tracking at the locked operating point
        dut.set_condition(hold=True)
        op = dut.solve()
        if not op.converged:
            return {"converged": False}
        obs = dut.observe(op)
        out["vp_flag"] = (obs["bist_hi"], obs["bist_lo"])

        # speed screen: an OTA whose bias current collapsed cannot meet
        # the divided-clock timing -- the loop fails to lock at speed
        # even though the slow DC observables still look legal
        currents = self._ota_currents(dut, op)
        if calibrate:
            self._healthy_ota_i = currents
            for name in self.OTA_DEVICES:
                out[f"slew_{name}_ok"] = True
        else:
            for name in self.OTA_DEVICES:
                ref = self._healthy_ota_i.get(name, 0.0)
                out[f"slew_{name}_ok"] = bool(
                    ref == 0.0 or currents[name] >= self.SLEW_COLLAPSE * ref)

        # pump currents (digitised into in-window / out-of-window).
        # The strong pump is included: during scan its source is a
        # switch too, so a D-S short there is equally masked -- but at
        # speed it shows as a grossly excessive coarse-correction slew.
        nominal = {"up": 1.83e-6, "dn": 3.66e-6,
                   "up_st": 14.6e-6, "dn_st": 29e-6}
        for name, kw in (("up", dict(hold=True, up=1)),
                         ("dn", dict(hold=True, dn=1)),
                         ("up_st", dict(hold=True, up_st=1)),
                         ("dn_st", dict(hold=True, dn_st=1))):
            dut.set_condition(**kw)
            op = dut.solve()
            if not op.converged:
                return {"converged": False}
            i = abs(dut.hold_current(op))
            ref = nominal[name]
            out[f"i_{name}_ok"] = bool(
                CURRENT_LO * ref <= i <= CURRENT_HI * ref)
        out["converged"] = True
        return out

    def _ota_currents(self, dut, op) -> Dict[str, float]:
        """Drain-current magnitudes of the screened OTA devices."""
        out: Dict[str, float] = {}
        for name in self.OTA_DEVICES:
            m = dut.circuit[name]
            i, *_ = m.ids(op.v(m.terminals["g"]), op.v(m.terminals["d"]),
                          op.v(m.terminals["s"]), op.v(m.terminals["b"]))
            out[name] = abs(i)
        return out

    def _vcdl_alive(self, fault: Optional[StructuralFault]) -> bool:
        """Static aliveness: the line output must follow the input."""
        dut = build_vcdl_dut()
        if fault is not None:
            dut.circuit = inject_fault(dut.circuit, fault,
                                       retention=self.goldens.retention_vcdl)
        dut.set_input(0)
        lo = dut.observe()
        dut.set_input(1)
        hi = dut.observe()
        return lo == 0 and hi == 1

    #: step instant of the VCDL characterisation stimulus [s]
    VCDL_CHAR_T_STEP = 0.3e-9

    def _vcdl_char_circuit(self, fault: StructuralFault, vctl: float):
        """Faulted ad-hoc characterisation netlist for one *vctl*."""

        from ..analog import step_waveform
        from ..circuits.vcdl import build_vcdl
        from ..analog import Circuit
        from ..variation.context import tune_active

        c = Circuit("vcdl_char")
        c.add_vsource("vdd", "0", 1.2, name="VDD")
        c.add_vsource("vctl", "0", vctl, name="VCTL")
        vin = c.add_vsource("clk_in", "0", 0.0, name="VCLK")
        vin.waveform = step_waveform(0.0, 1.2, self.VCDL_CHAR_T_STEP,
                                     t_rise=20e-12)
        build_vcdl(c, "vcdl", "clk_in", "clk_out", "vctl")
        # ad-hoc characterisation netlist: bypasses the wrapped
        # builders, so apply the active die's mismatch explicitly
        tune_active(c)
        return inject_fault(c, fault,
                            retention=self.goldens.retention_vcdl)

    def _vcdl_delay_from(self, tr) -> float:
        """Propagation delay from a characterisation transient."""
        v_out = tr.v("clk_out")
        after = tr.time > self.VCDL_CHAR_T_STEP
        crossed = (after & (v_out > 0.6)).nonzero()[0]
        if len(crossed) == 0:
            return float("nan")
        return float(tr.time[crossed[0]] - self.VCDL_CHAR_T_STEP)

    def _measure_faulted_vcdl(self, fault: StructuralFault,
                              vctl: float) -> float:
        """Propagation delay of the faulted VCDL at *vctl* (transient)."""

        from ..analog import transient

        faulted = self._vcdl_char_circuit(fault, vctl)
        tr = transient(faulted, 1.6e-9, 2e-12, probes=["clk_out"])
        _release(faulted)
        return self._vcdl_delay_from(tr)

    # ------------------------------------------------------------------
    # at-speed lock stage
    # ------------------------------------------------------------------
    def lock_runs(self, fault: StructuralFault
                  ) -> Union[bool, List[LoopLane]]:
        """The loop runs of *fault*'s at-speed lock test, or its verdict
        when no run is needed.

        * charge pump: the fault -> behaviour knob mapping (no knobs:
          no loop-level consequence, not detected);
        * window comparator: the *measured* faulted thresholds;
        * VCDL: the *measured* faulted tuning curve.

        The netlist characterisations go through ``measure_cache`` and
        may raise.  The runs cover both walk directions (startup phases
        5 and 6 exercise the high- and low-side coarse corrections, 'from
        any initial condition', Section III); the VCDL test runs from
        the worst-case phase only.
        """
        if fault.block == "window_comp":
            return self._window_lock_runs(self._window_thresholds(fault))
        if fault.block == "vcdl":
            return self._vcdl_lock_runs(*self._vcdl_delays(fault))
        knobs = map_fault_to_knobs(fault)
        if not knobs:
            return False
        return self._lanes(LinkParams().with_faults(**knobs))

    def _lock_plan(self, fault: StructuralFault):
        """:meth:`lock_runs`, with a raised exception as the value."""
        try:
            return self.lock_runs(fault)
        except Exception as exc:  # noqa: BLE001 - the serial path re-raises
            return exc

    def _lanes(self, params: LinkParams,
               phases: Sequence[int] = (LOCK_TEST_PHASE,
                                        LOCK_TEST_PHASE + 1)
               ) -> List[LoopLane]:
        """Lock-test runs of *params* under this tier's stimulus.

        The default PRBS7 tier stops at lock.  Non-default stimuli run
        past lock so post-lock errors can accumulate (``stop_on_lock``
        exits the very cycle lock is declared), with the cycle count
        stretched alongside the budget for transition-starved patterns.
        """
        if self.pattern == "prbs7":
            cycles, stop = LOCK_TEST_CYCLES, True
        else:
            cycles, stop = int(LOCK_TEST_CYCLES * self.budget_scale), False
        return [LoopLane(params, self.pattern, phase, cycles, stop)
                for phase in phases]

    def lane_passes(self, result: LoopResult) -> bool:
        """The BIST verdict of one lock-test run.

        Lock inside the (stimulus-stretched) budget with corrections
        within the lock-detector bound.  Non-default stimuli add zero
        post-lock sampling errors: a stimulus whose whole point is
        stressing the sampled data (crosstalk aggressor, ISI lone bits)
        detects through the data path, not just the lock path.
        """
        return bist_verdict(result, LOCK_BUDGET * self.budget_scale,
                            clean_data=self.pattern != "prbs7")

    @staticmethod
    def at_speed_stage(jobs: Sequence[Tuple["BISTTest", object]],
                       extra_lanes: Sequence[LoopLane] = ()
                       ) -> Tuple[List, List[LoopResult]]:
        """The batched at-speed lock stage.

        *jobs* pairs a tier with a lock plan: a verdict, an exception, or
        a list of lanes (:meth:`lock_runs`).  Every lane of every job,
        plus *extra_lanes*, goes into one
        :class:`~repro.synchronizer.batch.LaneResults`, which simulates
        equal lanes once and batches them when there are enough; a job
        whose lanes run scalar stops at its first failing run, as the
        serial detector does.  Returns the detected verdict (or the
        plan's verdict / exception) per job, and the results of
        *extra_lanes*.
        """
        lanes = [lane for _, plan in jobs if isinstance(plan, list)
                 for lane in plan]
        runs = LaneResults(lanes + list(extra_lanes))
        verdicts = [
            not all(tier.lane_passes(runs[lane]) for lane in plan)
            if isinstance(plan, list) else plan
            for tier, plan in jobs]
        return verdicts, [runs[lane] for lane in extra_lanes]

    def _vcdl_delays(self, fault: StructuralFault) -> Tuple[float, float]:
        """Faulted VCDL delays at the window bounds (memoized)."""
        ckey = ("vcdl_delays", fault.key())
        if ckey not in self.measure_cache:
            p0 = LinkParams()
            self.measure_cache[ckey] = (
                self._measure_faulted_vcdl(fault, p0.v_window_lo),
                self._measure_faulted_vcdl(fault, p0.v_window_hi))
        return self.measure_cache[ckey]

    def _vcdl_lock_runs(self, d_lo: float, d_hi: float
                        ) -> Union[bool, List[LoopLane]]:
        """Lock test with a *measured* faulted VCDL tuning curve.

        The faulted delay is characterised at the window bounds on the
        transistor netlist; the behavioural loop then runs with that
        curve.  A dead line, a curve whose span no longer reaches the
        eye, or a lost tuning gain all surface as lock failure / lock-
        detector overflow; a mild parametric shift locks fine and
        escapes (the Table I open-fault escapes).
        """
        import math

        if math.isnan(d_lo) or math.isnan(d_hi):
            return True     # clock does not propagate at speed
        p0 = LinkParams()
        curve = KnotCurve(((p0.v_window_lo, d_lo), (p0.v_window_hi, d_hi)))
        return self._lanes(LinkParams(vcdl_delay=curve),
                           phases=(LOCK_TEST_PHASE,))

    def _measure_window_thresholds(self,
                                   fault: Optional[StructuralFault]):
        """Trip points of the (optionally faulted) window comparator.

        Sweeps the pinned V_c through the hold source and bisects the
        win_hi / win_lo trip voltages on the netlist.  Returns
        ``(th_lo, th_hi)`` with ``None`` for a side that never fires
        inside the rails.  Note the sweep drives V_c through the hold
        switch, so faults that load V_c resistively (e.g. a shorted
        loop capacitor) legitimately shift the measured thresholds —
        and are detected through them.
        """
        dut = build_receiver_dut()
        if fault is not None:
            dut.circuit = inject_fault(
                dut.circuit, fault,
                retention=self.goldens.retention_receiver)
        hold = dut.circuit["VHOLD"]

        def win_bits(vc):
            hold.voltage = vc
            dut.set_condition(hold=True)
            op = dut.solve()
            if not op.converged:
                return None
            return (1 if op.v("win_hi") > 0.6 else 0,
                    1 if op.v("win_lo") > 0.6 else 0)

        def bisect(side, lo, hi):
            """First vc (within [lo, hi]) where the side asserts."""
            b_lo, b_hi = win_bits(lo), win_bits(hi)
            if b_lo is None or b_hi is None:
                return "nonconv"
            # win_bits returns (hi, lo)
            i = 1 if side == "lo" else 0
            if b_lo[i] == b_hi[i]:
                return None          # never trips inside the rails
            for _ in range(9):
                mid = 0.5 * (lo + hi)
                bm = win_bits(mid)
                if bm is None:
                    return "nonconv"
                if bm[i] == b_lo[i]:
                    lo = mid
                else:
                    hi = mid
            return 0.5 * (lo + hi)

        th_lo = bisect("lo", 0.02, 0.6)
        th_hi = bisect("hi", 0.6, 1.18)
        _release(dut.circuit)
        return th_lo, th_hi

    def _window_thresholds(self, fault: StructuralFault):
        """Measured faulted window thresholds (memoized)."""
        ckey = ("win_thresholds", fault.key())
        if ckey not in self.measure_cache:
            self.measure_cache[ckey] = \
                self._measure_window_thresholds(fault)
        return self.measure_cache[ckey]

    def _window_lock_runs(self, th) -> Union[bool, List[LoopLane]]:
        """Lock test with the *measured* faulted window thresholds.

        The scan conditions exercise the comparator at +-0.6 V inputs; a
        degraded comparator (e.g. a mirror open turning it into a
        pseudo-NMOS stage) may still resolve those large swings while
        its thresholds are wildly shifted.  In mission the coarse loop
        then fails to fire (or fires constantly), which the lock
        detector observes.
        """
        if th == "nonconv" or "nonconv" in th:
            return True
        th_lo, th_hi = th
        knobs = {}
        if th_lo is None:
            knobs["window_lo_stuck"] = 0
        else:
            knobs["v_window_lo"] = th_lo
        if th_hi is None:
            knobs["window_hi_stuck"] = 0
        else:
            knobs["v_window_hi"] = th_hi
        return self._lanes(LinkParams().with_faults(**knobs))
