"""Integration tests of the three test tiers on representative faults.

These use module-scoped tier fixtures (golden extraction is the slow
part) and exercise the paper's key claims fault-by-fault.
"""

import pytest

from repro.dft.golden import GoldenSignatures
from repro.dft.registry import create_tier
from repro.faults import FaultKind, StructuralFault


@pytest.fixture(scope="module")
def goldens():
    return GoldenSignatures()


@pytest.fixture(scope="module")
def dc(goldens):
    return create_tier("dc", goldens)


@pytest.fixture(scope="module")
def scan(goldens):
    return create_tier("scan", goldens)


@pytest.fixture(scope="module")
def bist(goldens):
    return create_tier("bist", goldens)


def F(dev, kind, block, role=""):
    return StructuralFault(dev, kind, block, role)


class TestDCTier:
    def test_applies_to_link_and_receiver_blocks(self, dc):
        assert dc.applies_to(F("x", FaultKind.DRAIN_OPEN, "tx"))
        assert dc.applies_to(F("x", FaultKind.DRAIN_OPEN, "cp"))
        assert not dc.applies_to(F("x", FaultKind.DRAIN_OPEN, "vcdl"))

    def test_weak_driver_short_detected(self, dc):
        f = F("tx_p_weak_MP", FaultKind.DRAIN_SOURCE_SHORT, "tx", "tx_weak")
        assert dc.detect(f)

    def test_series_cap_short_detected(self, dc):
        f = F("tx_p_C1", FaultKind.CAP_SHORT, "tx")
        assert dc.detect(f)

    def test_tg_pmos_open_missed_at_dc(self, dc):
        """The paper's dynamic-mismatch example escapes the DC test."""
        f = F("term_tgn_MP", FaultKind.DRAIN_OPEN, "termination",
              "termination_tg")
        assert not dc.detect(f)

    def test_cp_weak_switch_ds_short_visible_at_dc(self, dc):
        """A permanently-on weak pump switch leaks the quiescent V_c
        away from its healthy resting point."""
        f = F("cp_wk_MSWU", FaultKind.DRAIN_SOURCE_SHORT, "cp",
              "cp_weak_sw")
        assert dc.detect(f)


class TestScanTier:
    def test_probe_catches_strong_driver_open(self, scan):
        """The grey probe FFs see the strong driver even though the
        series cap hides it from the line comparators."""
        f = F("tx_p_main_MP", FaultKind.DRAIN_OPEN, "tx", "tx_strong")
        assert scan.detect(f)

    def test_toggle_catches_tg_open(self, scan):
        """The 100 MHz toggling pattern catches the dynamic mismatch."""
        f = F("term_tgn_MP", FaultKind.DRAIN_OPEN, "termination",
              "termination_tg")
        assert scan.detect(f)

    def test_tg_gate_open_caught_by_toggle(self, scan):
        """A TG floating gate couples to its drain/source (~0.6 V) and
        the device nearly turns off: the arm impedance jump shows in the
        toggle test."""
        f = F("term_tgp_MN", FaultKind.GATE_OPEN, "termination",
              "termination_tg")
        assert scan.detect(f)

    def test_window_comparator_input_fault_detected(self, scan):
        f = F("win_hi_MINP", FaultKind.DRAIN_OPEN, "window_comp",
              "window_comp")
        assert scan.detect(f)

    def test_cp_switch_open_detected(self, scan):
        """Scan drives UP/DN through the combinational pump: a dead
        switch cannot rail V_c."""
        f = F("cp_wk_MSWU", FaultKind.DRAIN_OPEN, "cp", "cp_weak_sw")
        assert scan.detect(f)

    def test_cp_source_ds_short_masked_in_scan(self, scan):
        """The masking the paper describes: with the bias clamped the
        source is a switch, so its D-S short changes nothing."""
        f = F("cp_wk_MSRC", FaultKind.DRAIN_SOURCE_SHORT, "cp",
              "cp_weak_src")
        assert not scan.detect(f)

    def test_amp_fault_invisible_to_scan(self, scan):
        f = F("cp_amp_MT", FaultKind.DRAIN_OPEN, "cp", "cp_amp")
        assert not scan.detect(f)


class TestBISTTier:
    def test_cp_source_ds_short_caught_by_current_check(self, bist):
        """The fault scan masked: mission-mode pump current blows up."""
        f = F("cp_wk_MSRC", FaultKind.DRAIN_SOURCE_SHORT, "cp",
              "cp_weak_src")
        assert bist.detect(f)

    def test_amp_fault_caught_by_vp_tracking(self, bist):
        """Balancing-amp faults drift V_p past the 150 mV window."""
        f = F("cp_amp_MT", FaultKind.DRAIN_OPEN, "cp", "cp_amp")
        assert bist.detect(f)

    def test_balance_switch_short_caught(self, bist):
        f = F("cp_MBALN", FaultKind.DRAIN_SOURCE_SHORT, "cp", "cp_balance")
        assert bist.detect(f)

    def test_vcdl_stage_open_caught(self, bist):
        """A dead VCDL stage: no sampling clock, no lock."""
        f = F("vcdl_MN0", FaultKind.DRAIN_OPEN, "vcdl", "vcdl_stage")
        assert bist.detect(f)

    def test_balance_switch_open_escapes_everything(self, dc, scan, bist):
        """A balancing-switch open merely disconnects a parked node: the
        statics stay legal everywhere and the loop still locks — one of
        the residual escapes behind Table I's < 100% open coverage."""
        f = F("cp_MBALN", FaultKind.SOURCE_OPEN, "cp", "cp_balance")
        assert not dc.detect(f)
        assert not scan.detect(f)
        assert not bist.detect(f)

    def test_scan_and_bist_sets_intersect(self, scan, bist):
        """A fault both tiers catch (the paper: the sets intersect)."""
        f = F("cp_wk_MSWU", FaultKind.DRAIN_OPEN, "cp", "cp_weak_sw")
        assert scan.detect(f)
        assert bist.detect(f)


class TestAtSpeedStage:
    def test_scalar_job_stops_at_its_first_failing_run(self, bist):
        """Below the batch threshold the stage runs each job's lanes on
        the scalar loop and, like the serial detector, skips phase 6
        once phase 5 fails."""
        from repro.core.profiling import COUNTERS
        from repro.link import LinkParams
        from repro.synchronizer.batch import LoopLane

        dead = [LoopLane(LinkParams(pd_stuck="quiet"), "prbs7", phase,
                         7000, True) for phase in (5, 6)]
        before = COUNTERS.loop_scalar_runs
        verdicts, _ = bist.at_speed_stage([(bist, dead), (bist, True)])
        assert verdicts == [True, True]
        assert COUNTERS.loop_scalar_runs - before == 1

    @pytest.mark.parametrize("threshold", [1, 10 ** 9])
    def test_stage_matches_serial_detector(self, bist, threshold,
                                           monkeypatch):
        """Batched or scalar, the stage's verdicts are the serial ones."""
        from repro.synchronizer import batch

        monkeypatch.setattr(batch, "BATCH_MIN_LANES", threshold)
        faults = [F("cp_MBALN", FaultKind.SOURCE_OPEN, "cp", "cp_balance"),
                  F("cp_wk_MSWU", FaultKind.DRAIN_OPEN, "cp", "cp_weak_sw"),
                  F("cp_amp_MT", FaultKind.DRAIN_OPEN, "cp", "cp_amp"),
                  F("vcdl_MN0", FaultKind.DRAIN_OPEN, "vcdl", "vcdl_stage")]
        jobs = [(bist, bist.lock_runs(f)) for f in faults]
        verdicts, _ = bist.at_speed_stage(jobs)
        assert verdicts == [bist.at_speed_detect(f) for f in faults]
