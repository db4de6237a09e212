"""Self-tests of the benchmark (not collected by a bare ``pytest``):

    python -m pytest -q perfbench/tests/check_perfbench.py
"""

import json
import os
import shutil
import statistics
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import benchstats  # noqa: E402
import calib  # noqa: E402
import spans  # noqa: E402


# -- stats helpers -----------------------------------------------------------

def test_median_and_quartiles_match_statistics():
    values = [5.0, 1.0, 4.0, 2.0, 3.0, 9.0, 7.0]
    assert benchstats.median(values) == 4.0
    q1, q2, q3 = benchstats.quartiles(values)
    assert [q1, q2, q3] == statistics.quantiles(values, n=4)
    assert benchstats.quartiles([2.5]) == (2.5, 2.5, 2.5)
    with pytest.raises(ValueError):
        benchstats.median([])


@pytest.mark.parametrize("n, pct", [(100, 90), (1000, 99), (50, 80),
                                    (15, 33), (11, 9), (10, None)])
def test_tail_percentile_keeps_ten_samples_beyond(n, pct):
    assert benchstats.tail_percentile(n) == pct
    if pct is not None:
        values = list(range(1, n + 1))
        got_pct, value = benchstats.tail(values)
        assert got_pct == pct
        assert sum(v > value for v in values) >= 10


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert benchstats.percentile(values, 50) == 50
    assert benchstats.percentile(values, 90) == 90
    assert benchstats.percentile(values, 100) == 100
    assert benchstats.percentile([7.0], 90) == 7.0


# -- calibration -------------------------------------------------------------

def test_calibration_arithmetic():
    ref = calib.KERNEL_REF_S
    alpha = calib.CAL_EXPONENT
    assert calib.scale(ref) == pytest.approx(1.0)
    assert calib.calibrated(2.5, ref, ref) == pytest.approx(2.5)
    # a kernel running twice as slow shrinks raw time by 2 ** alpha
    assert calib.calibrated(2.0, 2 * ref, 2 * ref) == pytest.approx(
        2.0 / 2 ** alpha)
    # the two bracketing kernel timings are averaged
    assert calib.calibrated(3.0, ref, 2 * ref) == pytest.approx(
        3.0 / 1.5 ** alpha)
    # a faster kernel scales up
    assert calib.scale(ref / 2) == pytest.approx(2 ** alpha)
    with pytest.raises(ValueError):
        calib.scale(0.0)


def test_reference_kernel_is_deterministic():
    assert calib.reference_kernel() == calib.KERNEL_CHECKSUM
    assert calib.time_kernel(reps=1) > 0


# -- tracing -----------------------------------------------------------------

def test_self_time_subtracts_direct_children():
    spans_ = [
        [1, "child", 1.0, 3.0, 0, 0],
        [2, "grandchild", 1.5, 2.0, 1, 0],
        [3, "child", 4.0, 5.0, 0, 0],
        [0, "parent", 0.0, 10.0, None, 0],
    ]
    own = spans.self_times(spans_)
    assert own["parent"] == pytest.approx(7.0)
    assert own["child"] == pytest.approx(2.5)
    assert own["grandchild"] == pytest.approx(0.5)


class _Owner:
    @staticmethod
    def work(x, name=None):
        return x * 2


def test_patch_records_spans_only_when_enabled_and_restores():
    ticks = iter(range(100))
    tracer = spans.Tracer(clock=lambda: float(next(ticks)))
    original = _Owner.work
    calls = []
    tracer.patch(_Owner, "work", "layer.work",
                 lambda result, *a, **k: calls.append(result))
    assert _Owner.work(2, name="n") == 4      # 'name' reaches the callee
    assert tracer.spans == [] and calls == []
    tracer.enabled = True
    tracer.round = 3
    assert _Owner.work(5) == 10
    assert calls == [10]
    assert len(tracer.spans) == 1 and tracer.spans[0][1] == "layer.work"
    assert tracer.self_times(3) == {"layer.work": 1.0}
    tracer.restore()
    assert _Owner.work is original


# -- the benchmark end to end, at tiny size ----------------------------------

def _run(args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=300)
    return proc


@pytest.mark.parametrize("workload", ["sweep", "sweep.codegen", "verify",
                                      "serve"])
@pytest.mark.parametrize("trace", [0, 1])
def test_every_workload_emits_every_metric(workload, trace):
    # --seconds 0.1: the fewest rounds (one, or two when traced)
    proc = _run(["--workload", workload, "--seed", "3", "--seconds", "0.1",
                 "--trace", str(trace)])
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    assert sorted(result["metrics"]) == sorted(m["name"] for m in wanted)
    for metric in wanted:
        got = result["metrics"][metric["name"]]
        assert got["unit"] == metric["unit"]
        assert isinstance(got["value"], float)
        if not trace:
            assert got["value"] > 0


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".run", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert "{" not in proc.stdout
