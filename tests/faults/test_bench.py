"""Tests for the chaos-bench harness."""

import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from repro.faults.bench import (
    ChaosScenario,
    ChaosScenarioResult,
    FlakyPrimary,
    default_scenario_suite,
    run_chaos_bench,
)
from repro.faults.schedule import FaultWindow
from repro.faults.stream import LinkOutage
from repro.ledger import FrameLedger


class ConstantEstimator:
    def __init__(self, p: float = 0.9) -> None:
        self.p = p

    def predict_proba(self, x: np.ndarray) -> np.ndarray:
        return np.full(np.asarray(x).shape[0], self.p)


class TestFlakyPrimary:
    def test_fails_only_inside_call_window(self):
        flaky = FlakyPrimary(ConstantEstimator(), fail_from=2, fail_calls=2)
        x = np.ones((1, 4))
        flaky.predict_proba(x)
        flaky.predict_proba(x)
        with pytest.raises(RuntimeError):
            flaky.predict_proba(x)
        with pytest.raises(RuntimeError):
            flaky.predict_proba(x)
        flaky.predict_proba(x)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            FlakyPrimary(ConstantEstimator(), fail_from=-1, fail_calls=1)


class TestDefaultSuite:
    def test_names_and_span(self):
        suite = default_scenario_suite(0.0, 1000.0)
        names = [s.name for s in suite]
        assert names[0] == "baseline"
        assert {"subcarrier-dropout", "link-outage", "clock-chaos", "model-crash"} <= set(names)
        for scenario in suite:
            for window in scenario.windows:
                assert 0.0 <= window.start_s < window.end_s <= 1000.0

    def test_env_suite_adds_sensor_faults(self):
        names = {s.name for s in default_scenario_suite(0.0, 100.0, include_env=True)}
        assert {"sensor-stuck", "sensor-dropout"} <= names

    def test_rejects_empty_span(self):
        with pytest.raises(ConfigurationError):
            default_scenario_suite(10.0, 10.0)


class TestScenarioResultReconciliation:
    @staticmethod
    def _result(n_submitted, n_answered, **counts):
        ledger = FrameLedger()
        for key, value in counts.items():
            setattr(ledger, key, value)
        return ChaosScenarioResult(
            name="s", n_frames=n_submitted, n_submitted=n_submitted,
            n_answered=n_answered, n_correct=0, n_fallback=0,
            n_recovered=0, n_primary_failures=0, ledger=ledger.stats(),
        )

    def test_balanced_replay_has_nothing_unanswered(self):
        result = self._result(
            10, 6, frames_in=8, frames_out=6, rejected=1, quarantined=1,
            stale_dropped=1, overflow=1,
        )
        assert result.n_unanswered == 0
        assert (result.n_rejected, result.n_quarantined) == (1, 1)
        assert (result.n_stale, result.n_overflow) == (1, 1)

    def test_frame_lost_before_admission_is_unanswered(self):
        # The engine counted 8 offered frames but the replay submitted 10:
        # two vanished without reaching any ledger count.
        result = self._result(
            10, 6, frames_in=6, frames_out=6, rejected=1, quarantined=1,
        )
        assert result.n_unanswered == 2

    def test_tallied_but_undelivered_answer_is_unanswered(self):
        result = self._result(5, 4, frames_in=5, frames_out=5)
        assert result.n_unanswered == 1


class TestRunChaosBench:
    def test_every_admitted_frame_answered(self, smoke_dataset):
        dataset = smoke_dataset.window(0.0, 3600.0)
        report = run_chaos_bench(
            ConstantEstimator(), dataset, n_links=2, max_batch=16, seed=5
        )
        assert len(report.results) == 7
        for result in report.results:
            assert result.n_unanswered == 0
            assert result.n_answered == result.n_submitted
            assert 0.0 <= result.accuracy <= 1.0

    def test_outage_suppresses_but_never_loses(self, smoke_dataset):
        dataset = smoke_dataset.window(0.0, 3600.0)
        report = run_chaos_bench(
            ConstantEstimator(), dataset, n_links=2, max_batch=16, seed=5
        )
        outage = report.result("link-outage")
        baseline = report.result("baseline")
        assert outage.n_submitted < baseline.n_submitted
        assert outage.n_unanswered == 0

    def test_model_crash_routes_to_fallback_and_recovers(self, smoke_dataset):
        dataset = smoke_dataset.window(0.0, 3600.0)
        report = run_chaos_bench(
            ConstantEstimator(), dataset, n_links=2, max_batch=16, seed=5
        )
        crash = report.result("model-crash")
        assert crash.n_fallback > 0
        assert crash.n_primary_failures > 0
        assert crash.n_recovered >= 1
        assert crash.n_answered == crash.n_submitted

    def test_deterministic_in_seed(self, smoke_dataset):
        dataset = smoke_dataset.window(0.0, 1800.0)
        a = run_chaos_bench(ConstantEstimator(), dataset, seed=9)
        b = run_chaos_bench(ConstantEstimator(), dataset, seed=9)
        assert [r.row() for r in a.results] == [r.row() for r in b.results]

    def test_custom_scenario_and_report_lookup(self, smoke_dataset):
        dataset = smoke_dataset.window(0.0, 1800.0)
        scenario = ChaosScenario(
            "mini-outage", "test", [FaultWindow(0.0, 600.0, LinkOutage())]
        )
        report = run_chaos_bench(ConstantEstimator(), dataset, [scenario])
        assert report.result("mini-outage").n_submitted < len(dataset)
        with pytest.raises(ConfigurationError):
            report.result("nope")

    def test_describe_mentions_every_scenario(self, smoke_dataset):
        dataset = smoke_dataset.window(0.0, 1800.0)
        report = run_chaos_bench(ConstantEstimator(), dataset)
        text = report.describe()
        for result in report.results:
            assert result.name in text
        assert "every admitted frame was answered" in text

    def test_bad_link_count_rejected(self, smoke_dataset):
        with pytest.raises(ConfigurationError):
            run_chaos_bench(ConstantEstimator(), smoke_dataset, n_links=0)
