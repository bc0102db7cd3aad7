"""Tests for the perf-bench harness (quick mode, so CI stays fast)."""

import json

import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from repro.fastpath import PerfBenchReport, run_perf_bench
from repro.fastpath.bench import BatchThroughput, SaturatedLoad, _saturated_arm


@pytest.fixture(scope="module")
def report():
    return run_perf_bench(
        n_inputs=16,
        hidden_sizes=(16, 8),
        seed=0,
        quick=True,
        batch_sizes=(1, 7),
        guard_frames=256,
    )


class TestRunPerfBench:
    def test_rejects_bad_inputs(self):
        with pytest.raises(ConfigurationError):
            run_perf_bench(n_inputs=0)
        with pytest.raises(ConfigurationError):
            run_perf_bench(batch_sizes=(0,))
        with pytest.raises(ConfigurationError):
            run_perf_bench(n_repeats=0)

    def test_equivalence_holds(self, report):
        assert report.equivalent
        assert 0.0 <= report.max_divergence <= report.tolerance

    def test_timings_are_positive(self, report):
        assert report.tensor_p50_ms > 0
        assert report.fastpath_p50_ms > 0
        assert report.tensor_p99_ms >= report.tensor_p50_ms
        assert report.fastpath_p99_ms >= report.fastpath_p50_ms

    def test_throughput_covers_requested_batches(self, report):
        assert [row.batch for row in report.throughput] == [1, 7]
        assert all(row.tensor_fps > 0 and row.fastpath_fps > 0
                   for row in report.throughput)

    def test_guard_micro_bench_ran(self, report):
        assert report.guard_scalar_fps > 0
        assert report.guard_batch_fps > 0

    def test_model_metadata(self, report):
        assert report.n_inputs == 16
        assert report.hidden_sizes == (16, 8)
        assert report.n_parameters > 0


class TestQuantizedArm:
    def test_both_modes_reported_and_gated(self, report):
        assert [row.mode for row in report.quantized] == ["int8", "float16"]
        for row in report.quantized:
            assert row.ok
            assert row.parameter_bytes < row.float32_parameter_bytes
            assert row.compression > 1.0
            assert row.throughput_fps > 0
        assert report.quantized_ok
        assert report.float32_parameter_bytes > 0

    def test_describe_mentions_quantized_modes(self, report):
        text = report.describe()
        assert "int8" in text and "float16" in text


class TestSaturatedArm:
    def test_loads_cover_sub_and_super_capacity(self, report):
        ratios = [row.offered_ratio for row in report.saturated]
        assert len(ratios) >= 3
        assert min(ratios) < 1.0 < max(ratios)
        assert report.saturated_capacity_fps > 0

    def test_every_load_reconciles_exactly(self, report):
        for row in report.saturated:
            assert row.ok
            assert row.ledger_unaccounted == 0
            dropped = sum(row.dropped.values())
            assert row.answered + dropped == row.n_offered
            assert 0 < row.sojourn_p50_ms <= row.sojourn_p99_ms
        assert report.saturated_ok

    def test_overload_sheds_while_undercapacity_serves_all(self, report):
        by_ratio = {row.offered_ratio: row for row in report.saturated}
        under = by_ratio[min(by_ratio)]
        over = by_ratio[max(by_ratio)]
        assert sum(under.dropped.values()) == 0
        assert sum(over.dropped.values()) > 0
        # Queueing delay compounds past capacity.
        assert over.sojourn_p99_ms >= under.sojourn_p99_ms

    def test_gates_passed_aggregates_all_arms(self, report):
        assert report.gates_passed == (
            report.equivalent and report.quantized_ok and report.saturated_ok
        )
        assert report.gates_passed


class TestReport:
    def test_describe_mentions_equivalence(self, report):
        text = report.describe()
        assert "OK" in text and "p50" in text and "fr/s" in text

    def test_describe_flags_divergence(self, report):
        bad = PerfBenchReport(
            n_inputs=4, hidden_sizes=(4,), n_parameters=10, n_repeats=1,
            tolerance=1e-5, n_probe=4, max_divergence=0.5,
            tensor_p50_ms=1.0, tensor_p99_ms=1.0,
            fastpath_p50_ms=0.5, fastpath_p99_ms=0.5,
        )
        assert not bad.equivalent
        assert "DIVERGED" in bad.describe()

    def test_nan_divergence_is_not_equivalent(self):
        bad = PerfBenchReport(
            n_inputs=4, hidden_sizes=(4,), n_parameters=10, n_repeats=1,
            tolerance=1e-5, n_probe=4, max_divergence=float("nan"),
            tensor_p50_ms=1.0, tensor_p99_ms=1.0,
            fastpath_p50_ms=0.5, fastpath_p99_ms=0.5,
        )
        assert not bad.equivalent

    def test_speedup_properties(self):
        row = BatchThroughput(batch=4, tensor_fps=100.0, fastpath_fps=300.0)
        assert row.speedup == pytest.approx(3.0)
        report = PerfBenchReport(
            n_inputs=4, hidden_sizes=(4,), n_parameters=10, n_repeats=1,
            tolerance=1e-5, n_probe=4, max_divergence=0.0,
            tensor_p50_ms=3.0, tensor_p99_ms=4.0,
            fastpath_p50_ms=1.0, fastpath_p99_ms=2.0,
            guard_scalar_fps=100.0, guard_batch_fps=400.0,
        )
        assert report.single_frame_speedup == pytest.approx(3.0)
        assert report.guard_speedup == pytest.approx(4.0)

    def test_json_round_trips_and_is_gateable(self, report, tmp_path):
        path = report.save_json(tmp_path / "BENCH_serve.json")
        loaded = json.loads(path.read_text())
        assert loaded["bench"] == "perf-bench"
        assert loaded["equivalence"]["equivalent"] is True
        assert loaded["equivalence"]["max_divergence"] <= loaded["equivalence"]["tolerance"]
        assert loaded["model"]["n_inputs"] == 16
        assert [row["batch"] for row in loaded["throughput_fps"]] == [1, 7]
        assert loaded["quantized"]["ok"] is True
        assert [m["mode"] for m in loaded["quantized"]["modes"]] == ["int8", "float16"]
        assert loaded["quantized"]["bytes_target"] == 15 * 1024
        assert loaded["saturated"]["ok"] is True
        assert all(
            load["ledger_unaccounted"] == 0 for load in loaded["saturated"]["loads"]
        )
        assert loaded["gates_passed"] is True
        # The whole payload must be plain JSON scalars (no numpy leakage).
        json.dumps(loaded)

    def test_quick_mode_caps_work(self):
        report = run_perf_bench(
            n_inputs=8, hidden_sizes=(8,), quick=True, n_repeats=10_000,
            guard_frames=128, batch_sizes=(1,),
        )
        assert report.n_repeats <= 60


def test_deterministic_divergence_across_runs():
    """The probe and weights are seeded: divergence is reproducible."""
    kwargs = dict(n_inputs=8, hidden_sizes=(8,), seed=42, quick=True,
                  batch_sizes=(1,), guard_frames=128)
    a = run_perf_bench(**kwargs)
    b = run_perf_bench(**kwargs)
    assert a.max_divergence == b.max_divergence


class _RowMean:
    def predict_proba(self, x):
        return np.asarray(x, dtype=float).mean(axis=1)


def _sat_row(unaccounted: int) -> SaturatedLoad:
    return SaturatedLoad(
        offered_ratio=1.4, offered_fps=1400.0, n_offered=100, answered=70,
        dropped={"overflow": 30}, sojourn_p50_ms=1.0, sojourn_p99_ms=2.0,
        wall_fps=1e5, ledger_unaccounted=unaccounted,
    )


@pytest.mark.parametrize("unaccounted, ok", [(0, True), (1, False), (-1, False)])
def test_saturated_load_ok_is_the_ledger_gate(unaccounted, ok):
    assert _sat_row(unaccounted).ok is ok


def test_saturated_arm_at_fixed_capacity_is_host_independent():
    """Answers, drops by cause and sojourn depend on the offered ratio only."""
    kwargs = dict(
        n_inputs=6, capacity_fps=1000.0, loads=(0.7, 1.0, 1.4),
        n_frames=3000, seed=4,
    )
    first = _saturated_arm(_RowMean(), **kwargs)
    second = _saturated_arm(_RowMean(), **kwargs)
    for a, b in zip(first, second, strict=True):
        assert (a.answered, a.dropped, a.sojourn_p50_ms, a.sojourn_p99_ms) == (
            b.answered, b.dropped, b.sojourn_p50_ms, b.sojourn_p99_ms
        )
        assert a.ok and a.answered + sum(a.dropped.values()) == a.n_offered
    assert sum(first[0].dropped.values()) == 0
    assert first[-1].dropped["overflow"] > 0
