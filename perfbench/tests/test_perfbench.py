"""Tests of the benchmark itself.

A tiny run of each workload must print every metric BENCHMARK.json names,
with its unit, and every output check must flag a corrupted result.
"""

import dataclasses
import json
import math
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

import focuslab.search  # noqa: E402
from focuslab import NoiseSpec, TracePoint  # noqa: E402
from perfbench import run  # noqa: E402
from perfbench.hostspeed import REFERENCE_MS, HostSpeed  # noqa: E402
from perfbench.tracer import Tracer  # noqa: E402
from perfbench.workloads import (  # noqa: E402
    WORKLOADS,
    AutofocusWorkload,
    StabilityWorkload,
    SweepWorkload,
)

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "perfbench/run.py", *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_tiny_run_prints_every_named_metric_with_its_unit(workload, trace):
    proc = _bench("--workload", workload, "--seed", "5", "--seconds", "0.3",
                  "--trace", str(trace), "--tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == expected
    assert all(math.isfinite(m["value"]) for m in result["metrics"].values())


def test_workload_names_match_the_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


def test_exits_without_a_result_when_the_program_is_missing(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _bench("--workload", "sweep-256", "--seed", "1", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


def _checked(workload):
    op = workload.inputs(0)
    result = workload.run(op)
    assert workload.check(0, op, result) is None
    return op, result


class TestAutofocusCheck:
    @pytest.fixture(scope="class")
    def case(self):
        workload = AutofocusWorkload(5, tiny=True)
        return (workload, *_checked(workload))

    def test_wrong_z_star_fails(self, case):
        workload, op, result = case
        other = next(p for p in result.trace if p.z_mm != result.z_star)
        assert workload.check(0, op, dataclasses.replace(result, z_star=other.z_mm))

    def test_boundary_fails(self, case):
        workload, op, result = case
        assert workload.check(0, op, dataclasses.replace(result, at_boundary=True))

    def test_non_finite_value_fails(self, case):
        workload, op, result = case
        assert workload.check(0, op, dataclasses.replace(result, d_star=math.nan))

    def test_evaluation_count_mismatch_fails(self, case):
        workload, op, result = case
        bad = dataclasses.replace(result, evaluations=result.evaluations + 1)
        assert workload.check(0, op, bad)

    def test_far_from_focus_fails(self, case):
        workload, op, result = case
        far = TracePoint(z_mm=0.8, d_mean=result.d_star + 1.0, phase="refine")
        trace = (*result.trace, far)
        bad = dataclasses.replace(result, z_star=far.z_mm, d_star=far.d_mean, trace=trace,
                                  evaluations=workload.trials * len(trace))
        assert "exceeds" in workload.check(0, op, bad)


class TestSweepCheck:
    @pytest.fixture(scope="class")
    def case(self):
        workload = SweepWorkload(5, tiny=True)
        return (workload, *_checked(workload))

    def _with_means(self, curve, means):
        entries = [dataclasses.replace(e, d_mean=d) for e, d in zip(curve.entries, means)]
        return dataclasses.replace(curve, entries=tuple(entries))

    def test_asymmetric_curve_fails(self, case):
        workload, op, curve = case
        means = [e.d_mean for e in curve.entries]
        means[0] += 1.0
        assert "differ" in workload.check(0, op, self._with_means(curve, means))

    def test_symmetric_but_wrong_values_fail(self, case):
        workload, op, curve = case
        doubled = self._with_means(curve, [2 * e.d_mean for e in curve.entries])
        assert "recomputed" in workload.check(0, op, doubled)


class TestStabilityCheck:
    @pytest.fixture(scope="class")
    def case(self):
        workload = StabilityWorkload(5, tiny=True)
        return (workload, *_checked(workload))

    def test_missing_row_fails(self, case):
        workload, op, report = case
        assert workload.check(0, op, dataclasses.replace(report, rows=report.rows[:-1]))

    def test_short_row_fails(self, case):
        workload, op, report = case
        row = report.rows[0]
        short = dataclasses.replace(row, measurements=row.measurements[:-1])
        assert workload.check(0, op, dataclasses.replace(report, rows=(short, *report.rows[1:])))

    def test_non_finite_value_fails(self, case):
        workload, op, report = case
        bad = dataclasses.replace(report.rows[1], mean=math.inf)
        rows = (report.rows[0], bad, *report.rows[2:])
        assert workload.check(0, op, dataclasses.replace(report, rows=rows))


def test_raising_op_counts_as_failed():
    class Raising(StabilityWorkload):
        def run(self, op):
            raise ValueError("boom")

    loop = run._Loop(Raising(5, tiny=True), HostSpeed())
    loop.op(0)
    assert (loop.attempted, loop.completed, len(loop.failures)) == (1, 0, 1)


def test_host_speed_scales_to_the_reference_kernel_time():
    speed = HostSpeed()
    start = time.perf_counter_ns()
    speed.sample(0.0)
    assert len(speed.kernel_ms) == 1
    assert speed.scale(start, start) == REFERENCE_MS / speed.kernel_ms[0]


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    value, pct, beyond = run._tail([float(x) for x in range(30)])
    assert (value, beyond) == (19.0, 10)
    assert pct == pytest.approx(100 * 20 / 30)


def test_tracer_restores_the_bindings_and_reports_unentered_layers():
    original = focuslab.search.convolve
    original_derived = NoiseSpec.__dict__["derived"]
    tracer = Tracer("search.autofocus")
    tracer.begin(0)
    assert focuslab.search.convolve is not original
    tracer.end(0, 1000)
    assert focuslab.search.convolve is original
    assert NoiseSpec.__dict__["derived"] is original_derived
    metrics, not_observed = tracer.metrics({0: 1.0})
    assert set(not_observed) == {
        "optics.convolve", "image.add_noise", "optics.psf", "metric.resolution", "image.derived",
    }
    assert set(metrics) == {"op.self_ms"}
