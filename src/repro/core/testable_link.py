"""The public facade: a testable repeaterless low-swing link.

:class:`TestableLink` ties every subsystem together behind the API a
user of this library actually wants:

* **channel analysis** — eye opening with/without equalization;
* **lock simulation** — the dual-loop synchronizer from any startup
  phase (the paper's Fig 2);
* **the three test tiers** — DC test, scan test (digital + analog
  conditions), at-speed BIST;
* **fault campaigns** — the structural-fault coverage numbers of
  Section IV and Table I;
* **overhead accounting** — Table II.

Example
-------
>>> from repro import LinkConfig, TestableLink
>>> link = TestableLink(LinkConfig())
>>> link.run_dc_test().passed
True
>>> result = link.lock(initial_phase=5)
>>> result.locked and result.lock_time < 2e-6
True
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Sequence

from ..channel import EyeResult, equalization_gain, eye_of_channel
from ..dft.bist import BISTTest
from ..dft.coverage import (
    CoverageReport,
    build_fault_universe,
    run_paper_campaign,
)
from ..dft.dc_test import DCTest
from ..dft.digital_scan import run_digital_scan_campaign
from ..dft.golden import GoldenSignatures
from ..dft.overhead import dft_inventory, table2_rows
from ..dft.registry import TestTier, create_tier
from ..dft.scan_test import ScanTest
from ..faults.campaign import FaultCampaign
from ..faults.model import StructuralFault
from ..synchronizer.lock import LockSweepResult, lock_sweep
from ..synchronizer.loop import LoopResult, SynchronizerLoop, bist_verdict
from .config import LinkConfig
from .results import BISTResult, CampaignSummary, DCTestResult, ScanTestResult


class TestableLink:
    """A DFT-equipped low-swing interconnect instance."""

    #: not a pytest test class, despite the name
    __test__ = False

    def __init__(self, config: Optional[LinkConfig] = None):
        self.config = config or LinkConfig()
        self.goldens = GoldenSignatures()
        self._tiers: Dict[str, TestTier] = {}

    # ------------------------------------------------------------------
    # lazily built test tiers (golden-signature extraction is not free)
    # ------------------------------------------------------------------
    def tier(self, name: str) -> TestTier:
        """The named test tier, built on this link's shared golden
        cache and memoized (any registered tier name is valid)."""
        if name not in self._tiers:
            self._tiers[name] = create_tier(name, self.goldens)
        return self._tiers[name]

    @property
    def dc_tier(self) -> DCTest:
        return self.tier("dc")

    @property
    def scan_tier(self) -> ScanTest:
        return self.tier("scan")

    @property
    def bist_tier(self) -> BISTTest:
        return self.tier("bist")

    # ------------------------------------------------------------------
    # channel analysis
    # ------------------------------------------------------------------
    def eye(self, equalized: bool = True) -> EyeResult:
        """Worst-case eye at the configured data rate."""
        return eye_of_channel(self.config.channel_config(),
                              self.config.data_rate, equalized=equalized)

    def equalization_gain(self) -> float:
        """Eye-opening ratio, equalized vs unequalized."""
        return equalization_gain(self.config.channel_config(),
                                 self.config.data_rate)

    # ------------------------------------------------------------------
    # lock / synchronizer
    # ------------------------------------------------------------------
    def lock(self, initial_phase: int = 0, max_cycles: int = 20000,
             seed: int = 7, **fault_knobs) -> LoopResult:
        """Run the dual-loop synchronizer from *initial_phase*."""
        params = self.config.link_params(
            initial_phase_index=initial_phase, **fault_knobs)
        loop = SynchronizerLoop(params=params,
                                prbs_order=self.config.prbs_order,
                                seed=seed)
        return loop.run(max_cycles=max_cycles)

    def lock_sweep(self, max_cycles: int = 20000) -> LockSweepResult:
        """Lock behaviour from every DLL startup phase."""
        return lock_sweep(self.config.link_params(), max_cycles=max_cycles)

    # ------------------------------------------------------------------
    # the three test tiers
    # ------------------------------------------------------------------
    def run_dc_test(self,
                    fault: Optional[StructuralFault] = None) -> DCTestResult:
        """Two-pattern DC test; optionally against an injected fault."""
        tier = self.dc_tier
        if fault is None:
            return DCTestResult(signatures=dict(tier.golden["link"]),
                                passed=True)
        detected = tier.detect(fault)
        return DCTestResult(signatures={}, passed=not detected)

    def run_scan_test(self, n_random: int = 24,
                      fault: Optional[StructuralFault] = None) -> ScanTestResult:
        """Digital scan campaign plus the analog scan conditions."""
        digital = run_digital_scan_campaign(n_random=n_random)
        tier = self.scan_tier
        analog_ok = True
        if fault is not None:
            analog_ok = not tier.detect(fault)
        return ScanTestResult(
            digital_coverage=digital.coverage,
            digital_faults=digital.total,
            analog_signatures=dict(tier.golden["receiver"]),
            chains_flush_ok=analog_ok)

    def run_bist(self, initial_phase: int = 5,
                 fault: Optional[StructuralFault] = None,
                 **fault_knobs) -> BISTResult:
        """At-speed BIST: lock test + V_p tracking + pump currents.

        Either inject a structural *fault* (netlist-level) or pass
        behavioural *fault_knobs* directly.
        """
        tier = self.bist_tier
        if fault is not None:
            detected = tier.detect(fault)
            loop = self.lock(initial_phase=initial_phase)
            return BISTResult(loop=loop, vp_tracking_ok=not detected,
                              pump_currents_ok=not detected,
                              passed=not detected)
        loop = self.lock(initial_phase=initial_phase, **fault_knobs)
        checks = tier.golden["receiver_checks"]  # healthy netlist checks
        vp_ok = checks.get("vp_flag") == (0, 0)
        i_ok = bool(checks.get("i_up_ok")) and bool(checks.get("i_dn_ok"))
        return BISTResult(loop=loop, vp_tracking_ok=vp_ok,
                          pump_currents_ok=i_ok,
                          passed=bist_verdict(loop) and vp_ok and i_ok)

    # ------------------------------------------------------------------
    # fault campaigns
    # ------------------------------------------------------------------
    def fault_universe(self) -> List[StructuralFault]:
        """The structural fault universe of the mission analog blocks."""
        return build_fault_universe()

    def run_fault_campaign(self, sample: Optional[int] = None,
                           seed: int = 1, progress=None,
                           workers: Optional[int] = None,
                           tiers: Optional[Sequence[str]] = None,
                           checkpoint: Optional[str] = None
                           ) -> CampaignSummary:
        """Run a fault campaign (optionally on a random sample).

        The default pipeline is the paper's ``("dc", "scan", "bist")``;
        *tiers* selects any ordered list of registered tier names
        instead.  ``workers`` > 1 fans the fault simulations out over
        forked worker processes; the results are identical to a serial
        run.  ``checkpoint`` streams completed records to a JSONL file
        an interrupted campaign resumes from.
        """
        universe = self.fault_universe()
        if sample is not None and sample < len(universe):
            rng = random.Random(seed)
            universe = rng.sample(universe, sample)
        if tiers is None:
            report = run_paper_campaign(universe, progress=progress,
                                        workers=workers,
                                        checkpoint=checkpoint)
            return CampaignSummary.from_result(report.result)
        campaign = FaultCampaign()
        for name in tiers:
            campaign.add_tier(self.tier(name))
        result = campaign.run(universe, progress=progress,
                              workers=workers, checkpoint=checkpoint)
        return CampaignSummary.from_result(result)

    def coverage_report(self, sample: Optional[int] = None, seed: int = 1,
                        workers: Optional[int] = None) -> CoverageReport:
        """Full CoverageReport (formatting helpers included)."""
        universe = self.fault_universe()
        if sample is not None and sample < len(universe):
            rng = random.Random(seed)
            universe = rng.sample(universe, sample)
        return run_paper_campaign(universe, workers=workers)

    # ------------------------------------------------------------------
    # overhead
    # ------------------------------------------------------------------
    def dft_overhead(self):
        """Table II inventory of the DFT additions."""
        return dft_inventory()

    def overhead_rows(self):
        """(entity, ours, paper) rows of the Table II comparison."""
        return table2_rows()
