"""Lockstep synchronizer loop: many runs, one bit period per numpy step.

:class:`~repro.synchronizer.loop.SynchronizerLoop` spends about 5 us of
interpreter time per simulated bit period, and a campaign's at-speed
stage is hundreds of independent runs (faults x stimuli x startup
phases) of thousands of periods each.  :class:`LoopBatch` holds those
runs as a struct of arrays, one element per *lane*, and advances every
live lane one bit period per numpy step.  The scalar loop stays the
oracle; every lane's :class:`LoopResult` scalars equal its scalar run's
bit for bit (DESIGN.md section 15):

* every fault knob and every derived constant is a per-lane array,
  computed once with the scalar loop's own float expressions, and each
  per-cycle update is the scalar update in the same IEEE operation
  order (``np.remainder`` follows Python's float ``%``);
* all lanes of one stimulus share one pregenerated bit stream (every
  run starts a fresh source and draws one bit per period) and one
  aggressor-toggle stream; per-lane cursors track the two draws that
  depend on lane state -- the aggressor penalty (drawn only while a
  sampling clock exists) and the PD jitter generator;
* coarse-FSM ticks are masked updates on the divided-clock cycles;
* a lane that reaches its ``max_cycles`` or locks with ``stop_on_lock``
  is frozen and compacted out of the arrays.

:class:`LaneResults` (and :func:`run_lanes`) is the entry point: it
deduplicates equal lanes, batches the knot-curve lanes when enough of
them run long enough to pay for the per-step numpy overhead, and runs
the rest on the scalar loop on demand.  The recorded trace is omitted
for batched lanes (no verdict reads it).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, fields, replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .._profiling import COUNTERS
from ..link.alexander_pd import JITTER_SEED, wrap_phase
from ..link.control_fsm import RECENTER_MARGIN
from ..link.params import KnotCurve, LinkParams
from .loop import (LOCK_PHASE_TOL, LOCK_QUIET_EVALS, LoopResult, LoopTrace,
                   SynchronizerLoop)

#: a lane set runs batched only when at least this many knot-curve lanes
#: are live for a lane's whole run; below it the per-step numpy overhead
#: loses to the scalar loop (measured in DESIGN.md section 15)
BATCH_MIN_LANES = 12

_PD_MODES = {"up": 1, "dn": 2, "quiet": 3}


@dataclass
class LoopLane:
    """One loop run: ``SynchronizerLoop`` over *params* started from DLL
    tap *phase*, driven by the named stimulus, for up to *max_cycles*
    bit periods."""

    params: LinkParams
    pattern: str
    phase: int
    max_cycles: int
    stop_on_lock: bool = False

    def link_params(self) -> LinkParams:
        return replace(self.params, initial_phase_index=self.phase)

    def key(self) -> Tuple:
        """Equal keys give equal results (the dedup key)."""
        p = self.link_params()
        return (tuple(getattr(p, f.name) for f in fields(p)), self.pattern,
                self.max_cycles, self.stop_on_lock)

    def batchable(self) -> bool:
        return (isinstance(self.params.vcdl_delay, KnotCurve)
                and self.max_cycles >= 1)

    def run(self) -> LoopResult:
        """The scalar oracle run of this lane."""
        from ..patterns.sources import build_stimulus

        source, aggressor = build_stimulus(self.pattern)
        loop = SynchronizerLoop(params=self.link_params(), source=source,
                                aggressor=aggressor)
        return loop.run(max_cycles=self.max_cycles,
                        stop_on_lock=self.stop_on_lock)


class LaneResults:
    """Loop results by lane, each distinct lane simulated once.

    The lanes given up front that are worth batching -- knot-curve
    lanes that share their whole run with at least
    :data:`BATCH_MIN_LANES` lanes (by ``max_cycles``) -- run at once in
    one :class:`LoopBatch`; any other lane runs on the scalar loop when
    it is first looked up, so a caller that stops at a failing run
    never pays for the next.
    """

    def __init__(self, lanes: Sequence[LoopLane]):
        unique: Dict[Tuple, LoopLane] = {}
        for lane in lanes:
            unique.setdefault(lane.key(), lane)
        batched = _batch_plan(list(unique.values()))
        self._results: Dict[Tuple, LoopResult] = {}
        if batched:
            for lane, result in zip(batched, LoopBatch(batched).run()):
                self._results[lane.key()] = result

    def __getitem__(self, lane: LoopLane) -> LoopResult:
        key = lane.key()
        if key not in self._results:
            self._results[key] = lane.run()
        return self._results[key]


def run_lanes(lanes: Sequence[LoopLane]) -> List[LoopResult]:
    """Results of *lanes* in order (see :class:`LaneResults`)."""
    results = LaneResults(lanes)
    return [results[lane] for lane in lanes]


def _batch_plan(lanes: Sequence[LoopLane]) -> List[LoopLane]:
    """The lanes worth batching.

    A knot-curve lane joins when at least :data:`BATCH_MIN_LANES`
    knot-curve lanes have a ``max_cycles`` no shorter than its own, so
    a long-running tail never steps a nearly empty batch.
    """
    knot = [lane for lane in lanes if lane.batchable()]
    if len(knot) < BATCH_MIN_LANES:
        return []
    lengths = sorted((lane.max_cycles for lane in knot), reverse=True)
    cutoff = lengths[BATCH_MIN_LANES - 1]
    return [lane for lane in knot if lane.max_cycles <= cutoff]


class _Streams:
    """Pregenerated stimulus bits and aggressor toggles, one row per
    stimulus; the PD jitter sequence, extended on demand."""

    def __init__(self, lanes: Sequence[LoopLane]):
        from ..patterns.sources import build_stimulus

        self.names = sorted({lane.pattern for lane in lanes})
        length = {n: 0 for n in self.names}
        for lane in lanes:
            length[lane.pattern] = max(length[lane.pattern],
                                       lane.max_cycles)
        width = max(length.values())
        self.bits = np.zeros((width, len(self.names)), dtype=np.int8)
        self.aggressors = {}
        toggles = np.zeros((len(self.names), width), dtype=bool)
        for s, name in enumerate(self.names):
            source, aggressor = build_stimulus(name)
            n = length[name]
            self.bits[:n, s] = [source.next_bit() for _ in range(n)]
            if aggressor is not None:
                self.aggressors[name] = aggressor
                # at most one penalty draw per bit period
                toggles[s, :n] = [aggressor.toggle() for _ in range(n)]
        self.toggles = toggles.ravel()
        self.width = width
        self._rng = random.Random(JITTER_SEED)
        self.gauss = np.zeros(0)

    def gauss_upto(self, n: int) -> np.ndarray:
        """The PD jitter draws ``rng.gauss(0, 1)`` of a fresh PD, at
        least *n* of them (``gauss(0, s) == 0.0 + z * s`` for each)."""
        if len(self.gauss) < n:
            more = max(n - len(self.gauss), 4096)
            draws = [self._rng.gauss(0.0, 1.0) for _ in range(more)]
            self.gauss = np.concatenate([self.gauss, draws])
        return self.gauss


def _lane_constants(p: LinkParams, streams: _Streams, lane: LoopLane):
    """Per-lane scalars, each computed with the scalar loop's own float
    expression so the lockstep update reproduces it exactly."""
    dt = p.bit_time
    dt_slow = p.divider_ratio * dt
    pump = []
    for up, dn in ((1, 0), (0, 1), (0, 0)):     # ChargePumpBeh.step
        i = 0.0
        if up:
            i += p.i_up * p.i_up_scale
        if dn:
            i -= p.i_dn * p.i_dn_scale
        i -= p.leak_current
        pump.append(i * dt / p.c_loop)
    aggressor = streams.aggressors.get(lane.pattern)
    return dict(
        bt=dt, half=dt / 2.0, tol=LOCK_PHASE_TOL * p.bit_time,
        ec=p.eye_center, ehw=p.eye_half_width,
        pen=(aggressor.edge_penalty(p) if aggressor is not None else 0.0),
        rx_off=p.rx_clock_offset, step=p.phase_step,
        off=p.vcdl_delay_offset, jit=p.sampling_jitter_rms,
        vdd=p.vdd, vlo=p.v_window_lo, vhi=p.v_window_hi,
        rc_lo=p.v_window_lo + RECENTER_MARGIN,
        rc_hi=p.v_window_hi - RECENTER_MARGIN,
        dv_up=pump[0], dv_dn=pump[1], dv_0=pump[2],
        s_up=p.i_up * p.i_up_scale * p.strong_scale * dt_slow / p.c_loop,
        s_dn=p.i_dn * p.i_dn_scale * p.strong_scale * dt_slow / p.c_loop)


class LoopBatch:
    """B synchronizer runs advanced in lockstep (see module docstring).

    Every lane's ``params.vcdl_delay`` must be a
    :class:`~repro.link.params.KnotCurve`; :class:`LaneResults` routes
    any other callable to the scalar loop.
    """

    def __init__(self, lanes: Sequence[LoopLane]):
        self.lanes = list(lanes)
        for lane in self.lanes:
            if not lane.batchable():
                raise ValueError(f"lane cannot run batched: {lane}")

    # ------------------------------------------------------------------
    def run(self) -> List[LoopResult]:
        lanes = self.lanes
        n = len(lanes)
        results: List[Optional[LoopResult]] = [None] * n
        if n == 0:
            return []
        COUNTERS.loop_lanes += n
        streams = _Streams(lanes)
        params = [lane.link_params() for lane in lanes]
        consts = [_lane_constants(p, streams, lane)
                  for p, lane in zip(params, lanes)]
        f64 = {k: np.array([c[k] for c in consts]) for k in consts[0]}

        def col(fn, dtype):
            return np.array([fn(p) for p in params], dtype=dtype)

        stim_of = {name: s for s, name in enumerate(streams.names)}
        a = dict(f64)           # every per-lane array, compacted together
        a.update(
            lane=np.arange(n),
            stim=np.array([stim_of[lane.pattern] for lane in lanes]),
            max_c=np.array([lane.max_cycles for lane in lanes]),
            stop=np.array([lane.stop_on_lock for lane in lanes]),
            agg=np.array([lane.pattern in streams.aggressors
                          for lane in lanes]),
            nph=col(lambda p: p.n_phases, np.int64),
            dead=col(lambda p: (-1 if p.switch_matrix_dead_phase is None
                                else p.switch_matrix_dead_phase), np.int64),
            vcdl_dead=col(lambda p: p.vcdl_dead, bool),
            ring_stuck=col(lambda p: p.ring_counter_stuck, bool),
            sup_dead=col(lambda p: p.strong_up_dead, bool),
            sdn_dead=col(lambda p: p.strong_dn_dead, bool),
            pd_mode=col(lambda p: _PD_MODES.get(p.pd_stuck, 0), np.int8),
            hs_set=col(lambda p: p.window_hi_stuck is not None, bool),
            hs_val=col(lambda p: bool(p.window_hi_stuck), bool),
            ls_set=col(lambda p: p.window_lo_stuck is not None, bool),
            ls_val=col(lambda p: bool(p.window_lo_stuck), bool),
            cmax=col(lambda p: p.lock_detector_max, np.int64),
            period=col(lambda p: (0 if p.divider_dead
                                  else max(1, math.ceil(p.divider_ratio))),
                       np.int64),
            # state
            vc=col(lambda p: p.vc_init, np.float64),
            pos=col(lambda p: p.initial_phase_index, np.int64),
            track=np.ones(n, dtype=bool),
            corr=np.zeros(n, dtype=np.int8),
            count=np.zeros(n, dtype=np.int64),
            prev=np.full(n, -1, dtype=np.int8),
            on_t=np.zeros(n, dtype=np.int64),
            ups=np.zeros(n, dtype=np.int64),
            dns=np.zeros(n, dtype=np.int64),
            locked=np.zeros(n, dtype=bool),
            lock_c=np.full(n, -1, dtype=np.int64),
            good=np.zeros(n, dtype=np.int64),
            good_lock=np.zeros(n, dtype=np.int64),
            g_cur=np.zeros(n, dtype=np.int64),
            t_cur=np.array([stim_of[lane.pattern] * streams.width
                            for lane in lanes]),
        )
        curve = _KnotTable([p.vcdl_delay.knots for p in params])
        a["knot"] = curve.lane_base
        bits, toggles = streams.bits, streams.toggles
        ends = set(a["max_c"].tolist())
        rebind = True
        for c in range(max(ends)):
            if rebind:
                # compaction replaced every array: rebind the step's
                # locals (the step updates state arrays in place)
                vc, good, ups, dns, prev = (
                    a[k] for k in ("vc", "good", "ups", "dns", "prev"))
                stim, knot, off, bt, ec, half = (
                    a[k] for k in ("stim", "knot", "off", "bt", "ec",
                                   "half"))
                ehw, dv_up, dv_dn, dv_0, vdd = (
                    a[k] for k in ("ehw", "dv_up", "dv_dn", "dv_0", "vdd"))
                neg_half = -half
                any_agg = bool(a["agg"].any())
                # lanes whose PD draws jitter on a transition
                jit_pd = (a["jit"] > 0.0) & (a["pd_mode"] == 0)
                jitter = bool(jit_pd.any())
                stuck_pd = bool(a["pd_mode"].any())
                periods = sorted(set(a["period"].tolist()) - {0})
                all_tick = (len(periods) == 1
                            and bool((a["period"] != 0).all()))
                rebind, reclock = False, True
            if reclock:
                # clock presence, tap phase and the PD's enable change
                # only on FSM ticks (and compaction)
                pos, nph = a["pos"], a["nph"]
                clk = ((pos >= 0) & (pos < nph) & (pos != a["dead"])
                       & ~a["vcdl_dead"])
                tap = a["rx_off"] + np.remainder(pos, nph) * a["step"]
                active = clk & a["track"]
                prev[~clk] = -1      # the PD resets while no clock
                reclock = False
            bit = bits[c].take(stim)

            # sampling phase and its wrapped error vs the eye centre
            phase = np.remainder(tap + (curve(vc, knot) + off), bt)
            e = np.remainder(phase - ec + half, bt) - half
            np.copyto(e, half, where=e == neg_half)
            ae = np.abs(e)

            # data check (the aggressor penalty is drawn only while a
            # sampling clock exists)
            if any_agg:
                draw = a["agg"] & clk
                edge = toggles.take(a["t_cur"]) & draw
                a["t_cur"] += draw
                margin = np.where(edge, ehw - a["pen"], ehw)
            else:
                margin = ehw
            good += (ae < margin) & clk

            # PD decision and weak pump, only for TRACK lanes with a clock
            trans = (prev ^ bit) == 1
            trans &= active
            if jitter:
                draw = trans & jit_pd
                if draw.any():
                    idx = np.flatnonzero(draw)
                    cur = a["g_cur"][idx]
                    z = streams.gauss_upto(int(cur.max()) + 1)[cur]
                    e = e.copy()
                    e[idx] = e[idx] + (0.0 + z * a["jit"][idx])
                    a["g_cur"][idx] = cur + 1
            up = trans & (e > 0.0)
            dn = trans & (e < 0.0)
            if stuck_pd:
                mode = a["pd_mode"]
                up = np.where(mode == 0, up, (mode == 1) & active)
                dn = np.where(mode == 0, dn, (mode == 2) & active)
            ups += up
            dns += dn
            v = vc + np.where(up, dv_up, np.where(dn, dv_dn, dv_0))
            np.maximum(v, 0.0, out=v)
            np.minimum(v, vdd, out=v)
            np.copyto(vc, v, where=active)
            np.copyto(prev, bit, where=active)

            # divided clock: coarse FSM and lock criterion
            ticking = [q for q in periods if (c + 1) % q == 0]
            fin = None
            if ticking:
                if all_tick:
                    ti = slice(None)
                else:
                    ti = np.flatnonzero(np.isin(a["period"], ticking))
                fin = self._tick(a, ti, clk, ae, c) & a["stop"]
                reclock = True
            if c + 1 in ends:
                ended = a["max_c"] == c + 1
                fin = ended if fin is None else fin | ended
            if fin is not None and fin.any():
                self._finish(a, fin, c, params, results)
                keep = ~fin
                for k in a:
                    a[k] = a[k][keep]
                if not keep.any():
                    break
                rebind = True
        COUNTERS.loop_steps += c + 1
        return results

    @staticmethod
    def _tick(a, ti, clk, ae, c) -> np.ndarray:
        """One divided-clock evaluation (CoarseFSM.evaluate and the lock
        criterion) for the lanes *ti*; returns the newly-locked mask
        over all live lanes."""
        vc = a["vc"][ti]
        hi = np.where(a["hs_set"][ti], a["hs_val"][ti], vc > a["vhi"][ti])
        lo = np.where(a["ls_set"][ti], a["ls_val"][ti], vc < a["vlo"][ti])
        track = a["track"][ti]
        corr = a["corr"][ti]
        go_hi = track & hi
        go_lo = track & ~hi & lo
        go = go_hi | go_lo
        # CORRECT: strong pump toward the window, then the exit test
        cor = ~track
        up_st = cor & (corr > 0) & ~a["sup_dead"][ti]
        dn_st = cor & (corr < 0) & ~a["sdn_dead"][ti]
        v = np.where(up_st, vc + a["s_up"][ti],
                     np.where(dn_st, vc - a["s_dn"][ti], vc))
        np.maximum(v, 0.0, out=v)
        np.minimum(v, a["vdd"][ti], out=v)
        vc = np.where(cor, v, vc)
        leave = cor & (((corr > 0) & (vc >= a["rc_lo"][ti]))
                       | ((corr < 0) & (vc <= a["rc_hi"][ti])))
        # TRACK with V_c railed: ring shift, lock-detector count
        pos, nph = a["pos"][ti], a["nph"][ti]
        shift = go & ~a["ring_stuck"][ti]
        step = np.where(go_hi, -1, 1)
        a["pos"][ti] = np.where(shift, np.remainder(pos + step, nph), pos)
        count = a["count"][ti]
        a["count"][ti] = np.where(go & (count < a["cmax"][ti]), count + 1,
                                  count)
        corr = np.where(go_hi, -1, np.where(go_lo, 1, corr))
        a["corr"][ti] = np.where(leave, 0, corr)
        track = (track & ~go) | leave
        a["track"][ti] = track
        a["vc"][ti] = vc

        # lock: phase on the eye centre, V_c in the window, PD dithering
        hi = np.where(a["hs_set"][ti], a["hs_val"][ti], vc > a["vhi"][ti])
        lo = np.where(a["ls_set"][ti], a["ls_val"][ti], vc < a["vlo"][ti])
        cond = track & clk[ti] & (ae[ti] < a["tol"][ti]) & ~hi & ~lo
        on_t = np.where(cond, a["on_t"][ti] + 1, 0)
        a["on_t"][ti] = on_t
        ups = np.where(cond, a["ups"][ti], 0)
        dns = np.where(cond, a["dns"][ti], 0)
        a["ups"][ti] = ups
        a["dns"][ti] = dns
        newly = np.zeros(len(a["lane"]), dtype=bool)
        newly[ti] = (~a["locked"][ti] & (on_t >= LOCK_QUIET_EVALS)
                     & (ups > 0) & (dns > 0))
        if newly.any():
            a["locked"] |= newly
            a["lock_c"][newly] = c
            a["good_lock"][newly] = a["good"][newly]
        return newly

    @staticmethod
    def _finish(a, fin, c, params, results) -> None:
        """Freeze the lanes in *fin* (at cycle *c*) into LoopResults."""
        for j in np.flatnonzero(fin):
            lane = int(a["lane"][j])
            p = params[lane]
            # the final sampling phase through the scalar loop's own
            # blocks, from the lane's frozen state
            probe = SynchronizerLoop(params=p)
            probe.pump.vc = float(a["vc"][j])
            probe.ring.position = int(a["pos"][j])
            final = probe.sampling_phase()
            err = (wrap_phase(final - p.eye_center, p.bit_time)
                   if final is not None else None)
            cycles = c + 1
            bad = cycles - int(a["good"][j])
            locked = bool(a["locked"][j])
            lock_c = int(a["lock_c"][j]) if locked else None
            before = (lock_c + 1 - int(a["good_lock"][j]) if locked
                      else bad)
            results[lane] = LoopResult(
                locked=locked,
                lock_time=lock_c * p.bit_time if locked else None,
                cycles_run=cycles,
                coarse_corrections=int(a["count"][j]),
                final_vc=float(a["vc"][j]),
                final_phase_index=int(a["pos"][j]),
                final_sampling_phase=final,
                phase_error=err, trace=LoopTrace(),
                errors_before_lock=before,
                errors_after_lock=bad - before,
                lock_cycles=lock_c,
                correction_bound=p.n_phases // 2)


class _KnotTable:
    """Per-lane knot curves evaluated as one gather.

    Lane ``i``'s rows of :attr:`table` are its low clamp, one row per
    segment, and its high clamp; a clamp row is ``(0, 1, d, 0)``, so
    ``d0 + (vc - v0) / dv * dd`` returns its knot delay exactly.  The
    row follows :meth:`KnotCurve.__call__`'s rule (clamp at the ends,
    else the *first* matching segment): it is the count of the lane's
    thresholds below ``vc`` -- its first ``k - 1`` knot voltages plus
    the float just below the last knot (so ``vc >= v_last`` counts).
    Every threshold of every lane is in one sorted array, so that count
    is one ``searchsorted`` plus a per-lane lookup.
    """

    def __init__(self, curves: Sequence[Tuple[Tuple[float, float], ...]]):
        lane_thresholds = []
        rows = []
        for knots in curves:
            v = [kv for kv, _ in knots]
            d = [kd for _, kd in knots]
            lane_thresholds.append(v[:-1] + [float(np.nextafter(v[-1],
                                                               -np.inf))])
            rows.append([(0.0, 1.0, d[0], 0.0)]
                        + [(v[s - 1], v[s] - v[s - 1], d[s - 1],
                            d[s] - d[s - 1]) for s in range(1, len(v))]
                        + [(0.0, 1.0, d[-1], 0.0)])
        self.thresholds = np.unique(np.concatenate(lane_thresholds))
        width = len(self.thresholds) + 1
        starts = np.cumsum([0] + [len(r) for r in rows[:-1]])
        self.table = np.array([row for r in rows for row in r])
        # row_of[i * width + j]: lane i's table row when j thresholds of
        # the union lie below vc
        self.row_of = np.array([
            start + int(np.count_nonzero(np.asarray(t) <= u))
            for start, t in zip(starts, lane_thresholds)
            for u in np.concatenate([[-np.inf], self.thresholds])])
        self.lane_base = np.arange(len(curves)) * width

    def __call__(self, vc: np.ndarray, lane_base: np.ndarray) -> np.ndarray:
        """Delays at *vc* for the lanes whose :attr:`lane_base` entries
        are *lane_base*."""
        below = self.thresholds.searchsorted(vc)
        seg = self.table.take(self.row_of.take(lane_base + below), axis=0)
        return seg[:, 2] + (vc - seg[:, 0]) / seg[:, 1] * seg[:, 3]
