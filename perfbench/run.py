"""Benchmark entry point: one workload, one seed, one JSON result line.

Run from the root of a source checkout::

    python3 perfbench/run.py --workload table1_campaign --seed 1 \\
        --seconds 15 --trace 0

``--trace 0`` runs one untraced pass and reports the end-to-end
metrics, its times rescaled for host speed by the probe of
``hostspeed.py``.  ``--trace 1`` runs the same untraced pass, then a
second, traced pass of the same inputs, and reports the per-layer
metrics (the untraced pass is the baseline for ``trace.overhead``).
Every metric measured is printed by name with its unit, its sample
count and, for tail metrics, the percentile used; the last line of
standard output is the JSON result.  Outputs are checked against
``reference.json``; a mismatch is printed to standard error, counted
as a failed item and makes ``correct`` false.

The program is imported from ``src/`` of the checkout this file sits
in; without it the benchmark exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import pkgutil
import resource
import shutil
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional, Tuple

from hostspeed import SpeedProbe

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench")
REFERENCE = os.path.join(HERE, "reference.json")

#: set-ups in fresh interpreters before and again after the untraced
#: pass (plus the one in this process): spreading them over the run keeps
#: one slow spell of the host from setting the median
SETUP_PROBES = 2

END_TO_END = (("setup_s", "s"), ("items_per_nominal_s", "1/s"),
              ("peak_rss_mb", "MB"))

#: layers whose work runs in forked shard workers on service_mix; their
#: counts and times are only published for the in-process workloads
ENGINE_LAYERS = ("analog", "faults", "dft", "synchronizer", "patterns",
                 "variation")

PER_LAYER: Tuple[Tuple[str, str], ...] = (
    ("analog.dc_s", "s"), ("analog.tran_s", "s"),
    ("analog.assemblies", "count"), ("analog.newton_iterations", "count"),
    ("analog.lu_factor", "count"), ("analog.lu_reuse", "count"),
    ("analog.batched_solves", "count"),
    ("analog.batch_fill_per_solve", "ratio"),
    ("analog.woodbury_hits", "count"), ("analog.batch_fallbacks", "count"),
    ("analog.plan_hit_ratio", "ratio"), ("analog.rescues", "count"),
    ("faults.collapse_s", "s"), ("faults.classes", "count"),
    ("faults.rep_evals", "count"), ("faults.class_hits", "count"),
    ("faults.verdicts_per_rep_eval", "ratio"),
    ("faults.audit_checks", "count"),
    ("dft.dc_s", "s"), ("dft.scan_s", "s"), ("dft.bist_s", "s"),
    ("dft.goldens_s", "s"),
    ("synchronizer.loop_runs", "count"), ("synchronizer.loop_cycles", "count"),
    ("synchronizer.loop_s", "s"), ("synchronizer.cycles_per_s", "1/s"),
    ("patterns.at_speed_verdicts", "count"), ("patterns.ber_sweep_s", "s"),
    ("patterns.sweep_bits", "count"),
    ("variation.dies", "count"), ("variation.prepass_s", "s"),
    ("variation.bench_reuse", "count"), ("variation.plan_retunes", "count"),
    ("variation.die_p50_s", "s"),
    ("service.submit_s", "s"), ("service.claim_wait_s", "s"),
    ("service.run_spec_s", "s"), ("service.result_s", "s"),
    ("service.reclaim_scan_s", "s"), ("service.reclaim_scans", "count"),
    ("service.store_s", "s"), ("service.root_jobs", "count"),
    ("service.store_hits", "count"), ("service.store_misses", "count"),
    ("service.store_writes", "count"), ("service.store_hit_ratio", "ratio"),
    ("service.shards", "count"), ("service.shards_resumed", "count"),
    ("service.failed_jobs", "count"),
    ("service.job_cold_p50_s", "s"), ("service.job_cold_tail_s", "s"),
    ("service.job_hit_p50_ms", "ms"), ("service.job_hit_tail_ms", "ms"),
    ("service.cold_jobs_s", "s"), ("service.hit_jobs_s", "s"),
    ("core.supervised_s", "s"), ("core.supervisor_spawns", "count"),
    ("core.worker_deaths", "count"), ("core.retries", "count"),
    ("core.timeouts", "count"), ("core.trace_events", "count"),
    ("core.checkpoint_lines", "count"), ("core.checkpoint_bytes", "count"),
    ("core.shard_item_p50_s", "s"),
    ("trace.overhead", "ratio"), ("trace.unattributed_s", "s"),
    ("trace.spans", "count"),
    ("host.slowdown", "ratio"), ("host.items_per_s", "1/s"),
)


def setup() -> Tuple[float, float]:
    """What a fresh ``repro`` process pays before its first campaign:
    importing the package (every module, so lazy imports inside the
    timed passes cost nothing), enumerating the fault universe,
    building the golden signatures and the netlist digest.  Returns the
    seconds it took and the host-speed rescale factor meanwhile."""
    with SpeedProbe() as probe:
        t0 = time.perf_counter()
        _set_up()
        seconds = time.perf_counter() - t0
    return seconds, probe.rescale


def _set_up() -> None:
    import repro

    for mod in pkgutil.walk_packages(repro.__path__, "repro."):
        importlib.import_module(mod.name)
    from repro.dft.coverage import build_fault_universe
    from repro.dft.golden import GoldenSignatures
    from repro.service.spec import netlist_digest

    build_fault_universe()
    goldens = GoldenSignatures()
    for signature in ("dc_link", "dc_receiver", "retention_vcdl"):
        getattr(goldens, signature)
    netlist_digest()


def probe_setup() -> Tuple[float, float]:
    """:func:`setup` in a fresh interpreter."""
    out = subprocess.run([sys.executable, os.path.abspath(__file__),
                          "--setup-probe"], check=True,
                         capture_output=True, text=True, timeout=120)
    seconds, rescale = out.stdout.strip().splitlines()[-1].split()
    return float(seconds), float(rescale)


def peak_rss_mb() -> float:
    """Largest peak resident set of this process and of any child it has
    waited for: the shard workers of ``service_mix``, and the set-up
    probes, which only set up and so stay below this process."""
    return max(resource.getrusage(who).ru_maxrss
               for who in (resource.RUSAGE_SELF,
                           resource.RUSAGE_CHILDREN)) / 1024


def tail(values: List[float]) -> Tuple[float, float, int]:
    """``(value, percentile, n)``: the highest whole percentile with at
    least ten samples above it (nearest rank), or the maximum
    (percentile 100) when there are fewer than twenty samples."""
    n = len(values)
    if n == 0:
        return 0.0, 100.0, 0
    xs = sorted(values)
    if n < 20:
        return xs[-1], 100.0, n
    pct = math.floor(100.0 * (1.0 - 10.0 / n))
    return xs[math.ceil(pct / 100.0 * n) - 1], float(pct), n


def claim_wait(spans) -> float:
    """Seconds from each submit's return to the claim that picked the
    job up (the first claim span after it)."""
    total, pending = 0.0, None
    for span in sorted((s for s in spans if s is not None),
                       key=lambda s: s[1]):
        if span[0] == "service.submit":
            pending = span[2]
        elif span[0] == "service.claim" and pending is not None:
            total += (span[2] - pending) / 1e9
            pending = None
    return total


def per_layer(workload: str, base, traced, tracer) -> Dict[str, Tuple]:
    """Per-layer metrics: ``name -> (value, unit, samples, percentile)``."""
    from workloads import median

    c = traced.counters
    st = tracer.self_times()
    ratio = (lambda a, b: a / b if b else 0.0)
    info = traced.info
    loop_s = st.get("synchronizer.loop", 0.0)
    cycles = tracer.tallies.get("synchronizer.loop", 0.0)
    cold = base.info.get("cold_s", [])
    hit_ms = [1e3 * v for v in base.info.get("hit_s", [])]
    die_s = info.get("item_s", [])
    shard_s = info.get("shard_item_s", [])
    values: Dict[str, object] = {
        "analog.dc_s": st.get("analog.dc", 0.0),
        "analog.tran_s": st.get("analog.tran", 0.0),
        "analog.assemblies": c["assemblies"] + c["assemblies_legacy"],
        "analog.newton_iterations": c["newton_iterations"],
        "analog.lu_factor": c["lu_factor"],
        "analog.lu_reuse": c["lu_reuse"],
        "analog.batched_solves": c["batched_solves"],
        "analog.batch_fill_per_solve": ratio(c["batch_fill"],
                                             c["batched_solves"]),
        "analog.woodbury_hits": c["woodbury_hits"],
        "analog.batch_fallbacks": c["batch_fallbacks"],
        "analog.plan_hit_ratio": ratio(
            c["compiled_cache_hits"],
            c["compiled_cache_hits"] + c["compile_count"]),
        "analog.rescues": (c["rescue_refined"] + c["rescue_equilibrated"]
                           + c["rescue_lstsq"] + c["dc_ptc_rescues"]),
        "faults.collapse_s": st.get("faults.collapse", 0.0),
        "faults.classes": c["classes"],
        "faults.rep_evals": c["collapse_rep_evals"],
        "faults.class_hits": c["class_hits"],
        "faults.verdicts_per_rep_eval": ratio(
            c["collapse_rep_evals"] + c["class_hits"],
            c["collapse_rep_evals"]),
        "faults.audit_checks": c["audit_checks"],
        "dft.dc_s": st.get("dft.dc", 0.0),
        "dft.scan_s": st.get("dft.scan", 0.0),
        "dft.bist_s": st.get("dft.bist", 0.0),
        "dft.goldens_s": st.get("dft.goldens", 0.0),
        "synchronizer.loop_runs": tracer.count("synchronizer.loop"),
        "synchronizer.loop_cycles": int(cycles),
        "synchronizer.loop_s": loop_s,
        "synchronizer.cycles_per_s": ratio(cycles, loop_s),
        "patterns.at_speed_verdicts": (traced.items
                                       if workload == "pattern_sweep"
                                       else 0),
        "patterns.ber_sweep_s": tracer.inclusive("patterns.ber_sweep"),
        "patterns.sweep_bits": info.get("sweep_bits", 0),
        "variation.dies": c["mc_dies"],
        "variation.prepass_s": tracer.inclusive("variation.prepass"),
        "variation.bench_reuse": c["mc_bench_reuse"],
        "variation.plan_retunes": c["plan_retunes"],
        "variation.die_p50_s": (median(die_s), None, len(die_s)),
        "service.submit_s": st.get("service.submit", 0.0),
        "service.claim_wait_s": claim_wait(tracer.spans),
        "service.run_spec_s": st.get("service.run_spec", 0.0),
        "service.result_s": st.get("service.result", 0.0),
        "service.reclaim_scan_s": st.get("service.reclaim_scan", 0.0),
        "service.reclaim_scans": tracer.count("service.reclaim_scan"),
        "service.store_s": st.get("service.store", 0.0),
        "service.root_jobs": info.get("root_jobs", 0),
        "service.store_hits": c["store_hits"],
        "service.store_misses": c["store_misses"],
        "service.store_writes": c["store_writes"],
        "service.store_hit_ratio": ratio(
            c["store_hits"], c["store_hits"] + c["store_misses"]),
        "service.shards": c["service_shards"],
        "service.shards_resumed": c["service_shards_resumed"],
        "service.failed_jobs": info.get("failed_jobs", 0),
        "service.job_cold_p50_s": (median(cold), None, len(cold)),
        "service.job_cold_tail_s": tail(cold),
        "service.job_hit_p50_ms": (median(hit_ms), None, len(hit_ms)),
        "service.job_hit_tail_ms": tail(hit_ms),
        "service.cold_jobs_s": (sum(cold), None, len(cold)),
        "service.hit_jobs_s": (sum(hit_ms) / 1e3, None, len(hit_ms)),
        "core.supervised_s": st.get("core.supervised", 0.0),
        "core.supervisor_spawns": c["supervisor_spawns"],
        "core.worker_deaths": c["supervisor_worker_deaths"],
        "core.retries": c["supervisor_retries"],
        "core.timeouts": c["supervisor_timeouts"],
        "core.trace_events": info.get("trace_events", 0),
        "core.checkpoint_lines": info.get("checkpoint_lines", 0),
        "core.checkpoint_bytes": info.get("checkpoint_bytes", 0),
        "core.shard_item_p50_s": (median(shard_s), None, len(shard_s)),
        "trace.overhead": base.items_per_s / traced.items_per_s - 1.0,
        "trace.unattributed_s": traced.wall_s - tracer.covered(),
        "trace.spans": len(tracer.spans),
        "host.slowdown": base.info["slowdown"],
        "host.items_per_s": base.items_per_s,
    }
    if workload == "service_mix":
        for name in values:
            if name.split(".")[0] in ENGINE_LAYERS:
                values[name] = 0
    units = dict(PER_LAYER)
    out = {}
    for name, value in values.items():
        if not isinstance(value, tuple):
            value = (value, None, None)
        out[name] = (value[0], units[name], value[2], value[1])
    return out


def report(rows: Dict[str, Tuple], out) -> None:
    for name, (value, unit, n, pct) in rows.items():
        extra = "" if n is None else f"  n={n}"
        if pct is not None:
            extra += f"  p{pct:g}"
        print(f"  {name:<32} {value:>16.6g} {unit:<6}{extra}", file=out)


def main(argv: Optional[List[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=15)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--reference", default=REFERENCE,
                    help="reference digests to check outputs against")
    ap.add_argument("--setup-probe", action="store_true",
                    help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no program sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    if args.setup_probe:
        print(*setup())
        return 0

    setup_samples = [setup()]
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: --workload must be one of "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    setup_samples += [probe_setup() for _ in range(SETUP_PROBES)]
    with open(args.reference) as fh:
        reference = json.load(fh)
    run_id = f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    work = os.path.join(WORK, run_id)
    plan = workloads.make_plan(args.workload, args.seed, args.seconds,
                               reference)
    try:
        probe = SpeedProbe()
        base = workloads.run_pass(args.workload, plan, reference,
                                  os.path.join(work, "untraced"),
                                  probe=probe)
        base.info["slowdown"] = probe.slowdown
        base.info["rescale"] = probe.rescale
        rss_mb = peak_rss_mb()
        setup_samples += [probe_setup() for _ in range(SETUP_PROBES)]
        passes = [base]
        if args.trace:
            from tracing import Tracer

            tracer = Tracer(run_id)
            tracer.install()
            try:
                traced = workloads.run_pass(args.workload, plan, reference,
                                            os.path.join(work, "traced"),
                                            tracer)
            finally:
                tracer.remove()
            passes.append(traced)
            os.makedirs(os.path.join(WORK, "spans"), exist_ok=True)
            tracer.write(os.path.join(WORK, "spans", f"{run_id}.jsonl"))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    mismatches = [m for p in passes for m in p.mismatches]
    for line in mismatches:
        print(f"perfbench: REFERENCE MISMATCH: {line}", file=sys.stderr)
    attempted = sum(p.items for p in passes)
    # pass-level mismatches add failures of their own; a pass still
    # cannot fail more items than it attempted
    failed = sum(min(p.failed, p.items) for p in passes)

    e2e = {
        "setup_s": (statistics.median(s / f for s, f in setup_samples),
                    "s", len(setup_samples), None),
        "items_per_nominal_s": (base.items_per_s * base.info["rescale"],
                                "1/s", base.items, None),
        "peak_rss_mb": (rss_mb, "MB", None, None),
    }
    print(f"perfbench {args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    print(f"  item: {workloads.ITEM[args.workload]}; attempted {attempted}, "
          f"failed {failed}, error_rate {failed / attempted:.6g}, "
          f"untraced wall {base.wall_s:.3f} s")
    print(f"  as measured: {base.items_per_s:.6g} items/s, set-up "
          f"{statistics.median(s for s, _ in setup_samples):.6g} s; host "
          f"slowdown {base.info['slowdown']:.4g} in the pass (rescale "
          f"{base.info['rescale']:.4g}), set-up rescale "
          f"{statistics.median(f for _, f in setup_samples):.4g}")
    if "cold_s" in base.info:
        print(f"  share of untraced wall: cold jobs "
              f"{sum(base.info['cold_s']) / base.wall_s:.3f}, hits "
              f"{sum(base.info['hit_s']) / base.wall_s:.3f}")
    print("end-to-end (untraced pass, rescaled for host speed):")
    report(e2e, sys.stdout)
    metrics = e2e
    if args.trace:
        layers = per_layer(args.workload, base, traced, tracer)
        print("per-layer (traced pass; self times unless noted in NOTES.md):")
        report(layers, sys.stdout)
        metrics = layers
    result = {
        "correct": not mismatches and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v[0], "unit": v[1]}
                    for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
