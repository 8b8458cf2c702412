"""LoopBatch: the lockstep loop must reproduce the scalar loop exactly."""

from dataclasses import fields

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.profiling import COUNTERS
from repro.link import KnotCurve, LinkParams, default_vcdl_delay
from repro.link.params import VCDL_KNOTS
from repro.synchronizer import SynchronizerLoop, bist_verdict
from repro.synchronizer import batch as batch_mod
from repro.synchronizer.batch import LoopBatch, LoopLane, run_lanes
from repro.synchronizer.loop import LoopResult

#: every LoopResult scalar (the trace is omitted for batched lanes)
SCALARS = [f.name for f in fields(LoopResult) if f.name != "trace"]
STIMULI = ("prbs7", "prbs15", "scrambler", "isi", "aggressor")


def scalars(result):
    return {name: getattr(result, name) for name in SCALARS}


def assert_batch_matches_scalar(lanes):
    batched = LoopBatch(lanes).run()
    for lane, got in zip(lanes, batched):
        assert scalars(got) == scalars(lane.run()), lane


# ----------------------------------------------------------------------
# knob strategies
# ----------------------------------------------------------------------
#: dead and stuck blocks: every pd_stuck mode, a dead switch phase, a
#: dead VCDL, stuck window outputs and a dead divider
DEAD_KNOBS = st.fixed_dictionaries({}, optional={
    "pd_stuck": st.sampled_from(["up", "dn", "quiet"]),
    "switch_matrix_dead_phase": st.integers(0, 9),
    "vcdl_dead": st.just(True),
    "window_hi_stuck": st.sampled_from([0, 1]),
    "window_lo_stuck": st.sampled_from([0, 1]),
    "divider_dead": st.just(True),
})

#: a stuck ring counter, dead strong pumps, leak, jitter / V_p drift, a
#: VCDL offset, shifted window thresholds and scaled pump currents
PARAMETRIC_KNOBS = st.fixed_dictionaries({}, optional={
    "ring_counter_stuck": st.just(True),
    "strong_up_dead": st.just(True),
    "strong_dn_dead": st.just(True),
    "leak_current": st.floats(-4e-7, 4e-7),
    "sampling_jitter_rms": st.floats(0.0, 2e-11),
    "vp_drift": st.floats(0.0, 0.3),
    "vcdl_delay_offset": st.floats(-6e-11, 6e-11),
    "v_window_lo": st.floats(0.2, 0.6),
    "v_window_hi": st.floats(0.6, 1.0),
    "i_up_scale": st.floats(0.0, 4.0),
    "i_dn_scale": st.floats(0.0, 4.0),
})

CURVES = st.one_of(
    st.just(default_vcdl_delay),
    st.tuples(st.floats(1.5e-10, 3.5e-10), st.floats(1.0e-10, 2.5e-10)).map(
        lambda d: KnotCurve(((0.45, d[0]), (0.75, d[1])))))


def lanes_of(knobs):
    return st.lists(
        st.builds(
            lambda k, curve, pattern, phase, cycles, stop: LoopLane(
                LinkParams(vcdl_delay=curve).with_faults(**k), pattern,
                phase, cycles, stop),
            knobs, CURVES, st.sampled_from(STIMULI), st.integers(0, 9),
            st.integers(1, 1500), st.booleans()),
        min_size=1, max_size=6)


class TestLockstepParity:
    @given(lanes_of(DEAD_KNOBS))
    @settings(max_examples=25, deadline=None)
    def test_dead_and_stuck_blocks(self, lanes):
        assert_batch_matches_scalar(lanes)

    @given(lanes_of(PARAMETRIC_KNOBS))
    @settings(max_examples=25, deadline=None)
    def test_parametric_faults(self, lanes):
        assert_batch_matches_scalar(lanes)

    def test_long_isi_and_aggressor_lanes(self):
        lanes = [LoopLane(LinkParams(sampling_jitter_rms=8e-12), "aggressor",
                          5, 7000),
                 LoopLane(LinkParams(leak_current=1e-7), "isi", 6, 9000),
                 LoopLane(LinkParams(), "prbs7", 5, 7000, True),
                 LoopLane(LinkParams(i_up_scale=0.25), "scrambler", 6, 7000)]
        assert_batch_matches_scalar(lanes)


class TestLockCycles:
    def test_scalar_lock_cycle_is_the_bit_period_index(self):
        """Phase 0 locks on the 8th coarse evaluation: bit period 127,
        not the recorded-trace index (which read 16)."""
        r = SynchronizerLoop(LinkParams(initial_phase_index=0)).run(
            max_cycles=7000, stop_on_lock=True)
        assert r.locked
        assert r.lock_cycles == 127
        assert r.cycles_run == 128

    def test_batched_lock_cycle(self):
        lane = LoopLane(LinkParams(), "prbs7", 0, 7000, True)
        (r,) = LoopBatch([lane]).run()
        assert r.lock_cycles == 127

    def test_unlocked_run_has_no_lock_cycle(self):
        r = SynchronizerLoop(LinkParams(pd_stuck="quiet")).run(max_cycles=500)
        assert not r.locked and r.lock_cycles is None


class TestRouting:
    def test_non_knot_curve_falls_back_to_scalar(self):
        curve = lambda vc: default_vcdl_delay(vc)  # noqa: E731
        odd = LoopLane(LinkParams(vcdl_delay=curve), "prbs7", 5, 800)
        lanes = [odd] + [LoopLane(LinkParams(i_up_scale=1.0 + 0.05 * i),
                                  "prbs15", 5, 800)
                         for i in range(batch_mod.BATCH_MIN_LANES)]
        with pytest.raises(ValueError):
            LoopBatch([odd])
        before = COUNTERS.snapshot()
        results = run_lanes(lanes)
        after = COUNTERS.snapshot()
        assert after["loop_scalar_runs"] - before["loop_scalar_runs"] == 1
        assert (after["loop_lanes"] - before["loop_lanes"]
                == batch_mod.BATCH_MIN_LANES)
        assert after["loop_steps"] - before["loop_steps"] == 800
        for lane, got in zip(lanes, results):
            assert scalars(got) == scalars(lane.run())
        assert len(results[0].trace.time) > 0     # the scalar oracle's
        assert len(results[1].trace.time) == 0    # batched: no trace

    def test_small_lane_sets_stay_scalar(self):
        lanes = [LoopLane(LinkParams(), "prbs7", p, 300) for p in range(3)]
        before = COUNTERS.loop_lanes
        run_lanes(lanes)
        assert COUNTERS.loop_lanes == before

    def test_short_tail_lanes_stay_scalar(self, monkeypatch):
        """A lane longer than the threshold-th longest would step a
        nearly empty batch for its tail: it runs scalar instead."""
        monkeypatch.setattr(batch_mod, "BATCH_MIN_LANES", 2)
        lanes = [LoopLane(LinkParams(), "prbs7", 5, 300),
                 LoopLane(LinkParams(), "prbs15", 5, 300),
                 LoopLane(LinkParams(), "isi", 5, 900)]
        before = COUNTERS.snapshot()
        run_lanes(lanes)
        after = COUNTERS.snapshot()
        assert after["loop_lanes"] - before["loop_lanes"] == 2
        assert after["loop_scalar_runs"] - before["loop_scalar_runs"] == 1

    def test_equal_lanes_run_once(self):
        lane = LoopLane(LinkParams(), "prbs7", 5, 300)
        twin = LoopLane(LinkParams(initial_phase_index=2), "prbs7", 5, 300)
        before = COUNTERS.loop_scalar_runs
        a, b = run_lanes([lane, twin])
        assert a is b
        assert COUNTERS.loop_scalar_runs - before == 1


class TestKnotCurve:
    @staticmethod
    def legacy_default(vc):
        """The historical default_vcdl_delay function body."""
        knots = VCDL_KNOTS
        if vc <= knots[0][0]:
            return knots[0][1]
        if vc >= knots[-1][0]:
            return knots[-1][1]
        for (v0, d0), (v1, d1) in zip(knots, knots[1:]):
            if v0 <= vc <= v1:
                f = (vc - v0) / (v1 - v0)
                return d0 + f * (d1 - d0)

    @given(st.one_of(st.floats(-0.5, 1.7), st.sampled_from(
        [v for v, _ in VCDL_KNOTS])))
    @settings(max_examples=60)
    def test_default_curve_is_the_legacy_function(self, vc):
        assert default_vcdl_delay(vc) == self.legacy_default(vc)

    @given(st.floats(0.0, 1.2), st.floats(1e-10, 4e-10),
           st.floats(1e-10, 4e-10))
    @settings(max_examples=60)
    def test_two_knot_curve_is_the_faulted_closure(self, vc, d_lo, d_hi):
        lo_v, hi_v = 0.45, 0.75
        if vc <= lo_v:
            want = d_lo
        elif vc >= hi_v:
            want = d_hi
        else:
            want = d_lo + (vc - lo_v) / (hi_v - lo_v) * (d_hi - d_lo)
        assert KnotCurve(((lo_v, d_lo), (hi_v, d_hi)))(vc) == want

    def test_rejects_unordered_knots(self):
        with pytest.raises(ValueError):
            KnotCurve(((0.7, 1e-10), (0.5, 2e-10)))
        with pytest.raises(ValueError):
            KnotCurve(((0.5, 1e-10),))


class TestVerdict:
    def test_budget_is_an_argument(self):
        r = SynchronizerLoop(LinkParams(initial_phase_index=5)).run(
            max_cycles=7000, stop_on_lock=True)
        assert r.bist_pass == bist_verdict(r)
        assert bist_verdict(r, budget_s=r.lock_time)
        assert not bist_verdict(r, budget_s=r.lock_time / 2)

    def test_clean_data_rule(self):
        r = SynchronizerLoop(LinkParams(initial_phase_index=5)).run(
            max_cycles=7000)
        r.errors_after_lock = 1
        assert bist_verdict(r)
        assert not bist_verdict(r, clean_data=True)
