"""Regenerate ``reference.json``, the outputs every pass is checked against.

Run from the root of a source checkout (takes about fifteen minutes on a
2-core x86-64 host)::

    python3 perfbench/make_reference.py [workload ...]

Only the named workloads' sections are rewritten (default: all).  The
campaign and Monte-Carlo references come from the serial backend with
collapse off, the paths the repository's parity guards treat as the
oracle, so the benchmark's batched/collapsed runs are checked against
an independent computation.  The Monte-Carlo section also holds the
cost of every die of the pool, from which ``make_plan`` draws a pass's
dies; those counts are inputs, not outputs.  Regenerate only for a
change that is meant to alter results, and say so in the change.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import workloads as w  # noqa: E402
from run import REFERENCE, WORK  # noqa: E402


def table1() -> dict:
    from repro.dft.coverage import build_fault_universe, run_paper_campaign

    report = run_paper_campaign(build_fault_universe())
    return {"faults": {w.fault_id(r.fault): w.verdict(r)
                       for r in report.result.records}}


def patterns() -> dict:
    from repro.patterns.campaign import (PatternCampaign,
                                         ber_vs_length_sweep, bist_universe)

    result = PatternCampaign().run(universe=bist_universe())
    return {
        "faults": {w.fault_id(r.fault): w.verdict(r)
                   for r in result.result.records},
        "lock": {p: w.digest(s) for p, s in result.lock_summary.items()},
        "ber_sweep": {p.pattern: w.digest(p.to_dict())
                      for p in ber_vs_length_sweep()},
    }


def mc() -> dict:
    from repro.variation import MonteCarloCampaign

    result = MonteCarloCampaign(seed=w.MC_SEED).run(range(w.MC_POOL))
    return {"seed": w.MC_SEED,
            "dies": {str(r.die): w.digest(r.to_dict())
                     for r in result.records},
            "cost": mc_cost()}


def mc_cost() -> dict:
    """Work of each die run alone through the batched backend, as Newton
    iterations plus LU factorizations.  The counts repeat exactly, and
    they track the die's run time more closely than any one timing on a
    shared host does.  ``make_plan`` draws one die from each band of
    like cost, so every seed's dies add up to about the same work."""
    from repro.core.profiling import COUNTERS
    from repro.variation import MonteCarloCampaign

    cost = {}
    for die in range(w.MC_POOL):
        before = COUNTERS.snapshot()
        MonteCarloCampaign(seed=w.MC_SEED).run([die], backend="batched")
        after = COUNTERS.snapshot()
        cost[str(die)] = sum(after[k] - before[k]
                             for k in ("newton_iterations", "lu_factor"))
    return cost


def service() -> dict:
    from repro.service.client import JobQueue, serve

    root = os.path.join(WORK, "reference-service")
    shutil.rmtree(root, ignore_errors=True)
    queue = JobQueue(root)
    specs = {}
    try:
        for kind, index in w.catalogue():
            job_id = queue.submit(w.service_spec(kind, index))
            serve(root, once=True, workers=w.SERVICE_WORKERS)
            specs[f"{kind}:{index}"] = w.digest(queue.result(job_id)[1])
    finally:
        shutil.rmtree(root, ignore_errors=True)
    return {"specs": specs}


SECTIONS = {"table1_campaign": table1, "pattern_sweep": patterns,
            "mc_yield": mc, "service_mix": service}


def main(names) -> None:
    for name in names or SECTIONS:
        print(f"building {name} reference ...", flush=True)
        section = SECTIONS[name]()
        reference = {}
        if os.path.exists(REFERENCE):
            with open(REFERENCE) as fh:
                reference = json.load(fh)
        reference[name] = section
        with open(REFERENCE, "w") as fh:
            json.dump(reference, fh, indent=1, sort_keys=True)
            fh.write("\n")


if __name__ == "__main__":
    main(sys.argv[1:])
