#!/usr/bin/env python
"""Loop-parity smoke: the lockstep ``LoopBatch`` against the scalar loop.

Builds every at-speed lock run of the full BIST universe under each of
the five campaign stimuli, from both startup phases (the VCDL tests run
from the worst-case phase only), plus the healthy-die lock-summary
runs, deduplicates them, runs the whole set as one ``LoopBatch`` and
asserts that every ``LoopResult`` scalar of every lane equals the
scalar loop's.  Faults whose netlist characterisation raises have no
runs (the campaign leaves them to the serial detector).

Used locally and as the ``loop-parity`` guard check.
"""

import sys
from dataclasses import fields

from repro.dft.bist import BISTTest
from repro.dft.golden import GoldenSignatures
from repro.patterns.campaign import (
    DEFAULT_CAMPAIGN_PATTERNS,
    bist_universe,
    healthy_lock_lanes,
)
from repro.synchronizer.batch import LoopBatch
from repro.synchronizer.loop import LoopResult

SCALARS = [f.name for f in fields(LoopResult) if f.name != "trace"]


def campaign_lanes():
    """Deduplicated lock runs of the universe x stimuli x phases."""
    goldens = GoldenSignatures()
    cache = {}
    tiers = [
        BISTTest(goldens, pattern=p, measure_cache=cache)
        for p in DEFAULT_CAMPAIGN_PATTERNS
    ]
    lanes = {}
    for fault in bist_universe():
        for tier in tiers:
            try:
                plan = tier.lock_runs(fault)
            except Exception:  # noqa: BLE001 - no runs to compare
                continue
            for lane in plan if isinstance(plan, list) else ():
                lanes.setdefault(lane.key(), lane)
    for pattern in DEFAULT_CAMPAIGN_PATTERNS:
        for lane in healthy_lock_lanes(pattern):
            lanes.setdefault(lane.key(), lane)
    return list(lanes.values())


def main() -> int:
    lanes = campaign_lanes()
    odd = [lane for lane in lanes if not lane.batchable()]
    if odd:
        print(f"{len(odd)} campaign lanes cannot run batched")
        return 1
    mismatches = 0
    for lane, got in zip(lanes, LoopBatch(lanes).run()):
        want = lane.run()
        for name in SCALARS:
            if getattr(got, name) != getattr(want, name):
                mismatches += 1
                print(
                    f"MISMATCH {lane.pattern} phase {lane.phase} {name}: "
                    f"batch {getattr(got, name)!r}, "
                    f"scalar {getattr(want, name)!r}"
                )
    print(f"{len(lanes)} lanes, {mismatches} mismatched fields")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
