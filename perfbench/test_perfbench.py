"""Tests of the benchmark itself (not part of the repository's suite).

Run from the root of a source checkout::

    python3 -m pytest perfbench -q

The count-repeat test drives every in-process workload twice; with the
full Table-I campaign in it the file takes a few minutes.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import run  # noqa: E402
from hostspeed import NOMINAL_US, SpeedProbe  # noqa: E402
from tracing import ENTRY_POINTS, Tracer  # noqa: E402


def bench(*args: str, cwd: str = ROOT):
    proc = subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True,
                          timeout=600)
    return proc


def result_of(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload, table, marker", [
    ("mc_yield", "dies", "REFERENCE MISMATCH: die"),
    # a pass-level output, not a per-item verdict: one failure per stimulus
    ("pattern_sweep", "lock", "healthy lock summary digest"),
])
def test_corrupted_reference_is_caught(tmp_path, workload, table, marker):
    with open(run.REFERENCE) as fh:
        reference = json.load(fh)
    entries = reference[workload][table]
    for key in entries:
        entries[key] = "0" * 16
    bad = tmp_path / "reference.json"
    bad.write_text(json.dumps(reference))
    proc = bench("--workload", workload, "--seed", "3", "--seconds", "1",
                 "--reference", str(bad))
    result = result_of(proc)
    assert result["correct"] is False
    if table == "dies":
        assert result["failed"] == result["attempted"] > 0
    else:
        assert result["failed"] == len(entries)
    assert "REFERENCE MISMATCH" in proc.stderr and marker in proc.stderr


def test_clean_reference_passes():
    result = result_of(bench("--workload", "mc_yield", "--seed", "3",
                             "--seconds", "1"))
    assert result["correct"] is True and result["failed"] == 0
    assert set(result["metrics"]) == {n for n, _ in run.END_TO_END}


@pytest.mark.parametrize("workload", ["mc_yield", "pattern_sweep",
                                      "table1_campaign"])
def test_layer_counts_repeat_exactly(workload):
    """Count metrics of in-process workloads are a pure function of the
    seed, so count-based claims can compare two runs."""
    runs = [result_of(bench("--workload", workload, "--seed", "7",
                            "--seconds", "1", "--trace", "1"))
            for _ in range(2)]
    counts = [{k: v["value"] for k, v in r["metrics"].items()
               if v["unit"] == "count" and not k.startswith("trace.")}
              for r in runs]
    assert counts[0] == counts[1]
    assert set(runs[0]["metrics"]) == {n for n, _ in run.PER_LAYER}
    assert any(counts[0].values())


def test_tracer_leaves_no_wrappers():
    tracer = Tracer("test")
    tracer.install()
    try:
        import repro.analog
        from repro.synchronizer.loop import SynchronizerLoop

        assert repro.analog.transient.__wrapped__ is not None
        assert hasattr(SynchronizerLoop.run, "__wrapped__")
    finally:
        tracer.remove()
    import repro.analog
    from repro.analog.transient import transient
    from repro.synchronizer.loop import SynchronizerLoop

    assert repro.analog.transient is transient
    assert not hasattr(transient, "__wrapped__")
    assert not hasattr(SynchronizerLoop.run, "__wrapped__")
    assert len(ENTRY_POINTS) == len({(m, p) for _, m, p in ENTRY_POINTS})


def test_self_times_subtract_children():
    tracer = Tracer("test")
    outer = tracer.wrap("a", lambda: inner())
    inner = tracer.wrap("b", lambda: sum(range(20000)))
    outer()
    (name_b, sb, eb, pb, _), (name_a, sa, ea, pa, _) = \
        sorted(tracer.spans, key=lambda s: s[0], reverse=True)
    times = tracer.self_times()
    assert pb == 0 and pa == -1
    assert times["b"] == pytest.approx((eb - sb) / 1e9)
    assert times["a"] == pytest.approx((ea - sa - (eb - sb)) / 1e9)
    assert tracer.covered() == pytest.approx((ea - sa) / 1e9)


def _spin(seconds: float = 0.3) -> None:
    deadline = time.process_time() + seconds
    while time.process_time() < deadline:
        pass


def test_speed_probe_samples_here_and_in_forked_children():
    import multiprocessing
    import signal

    fork = multiprocessing.get_context("fork")
    previous = signal.getsignal(signal.SIGPROF)
    with SpeedProbe() as probe:
        child = fork.Process(target=_spin)
        child.start()
        _spin()
        child.join(timeout=30)
    assert child.exitcode == 0
    assert signal.getsignal(signal.SIGPROF) is previous
    assert signal.getitimer(signal.ITIMER_PROF) == (0.0, 0.0)
    assert len(probe.samples_ns) >= 5
    assert probe.child_samples()[0] >= 5
    assert probe.slowdown == pytest.approx(probe.kernel_us / NOMINAL_US)
    sampled = probe.child_samples()
    late = fork.Process(target=_spin)       # forked after stop: no timer
    late.start()
    late.join(timeout=30)
    assert late.exitcode == 0 and probe.child_samples() == sampled
    assert SpeedProbe().slowdown == 1.0     # never fired: no rescaling


def test_tail_has_ten_samples_beyond():
    value, pct, n = run.tail([float(i) for i in range(1, 301)])
    assert (pct, n) == (96.0, 300)
    assert sum(1 for v in range(1, 301) if v > value) >= 10
    assert run.tail([1.0, 3.0, 2.0]) == (3.0, 100.0, 3)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "mc_yield", "--seed", "1", "--seconds", "1",
                 cwd=str(tmp_path))
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
