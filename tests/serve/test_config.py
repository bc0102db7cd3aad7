"""Tests for ServeConfig and the engine's removed legacy-kwarg path."""

import warnings

import numpy as np
import pytest

from repro.exceptions import ConfigError, ConfigurationError
from repro.guard.repair import GapRepairer
from repro.guard.supervisor import RecoverySupervisor
from repro.guard.validation import AmplitudeRangeCheck, FrameValidator
from repro.serve import InferenceEngine, ServeConfig
from repro.serve.metrics import MetricsRegistry


class _Estimator:
    def predict_proba(self, x):
        return np.full(len(np.atleast_2d(x)), 0.8)


class TestServeConfigValidation:
    def test_defaults_construct(self):
        config = ServeConfig()
        assert config.max_batch == 32
        assert config.max_latency_ms == 250.0
        assert config.queue_capacity == 256

    def test_rejects_bad_max_batch(self):
        with pytest.raises(ConfigurationError):
            ServeConfig(max_batch=0)

    def test_rejects_capacity_below_batch(self):
        with pytest.raises(ConfigurationError, match="queue_capacity"):
            ServeConfig(max_batch=64, queue_capacity=32)
        config = ServeConfig(max_batch=8, queue_capacity=8)  # the boundary
        assert (config.max_batch, config.queue_capacity) == (8, 8)

    @pytest.mark.parametrize(
        "field", ["min_batch", "adaptive_batching", "arena_slots"]
    )
    def test_batching_has_one_fixed_size_knob(self, field):
        # Batches are sized by max_batch alone; the removed knobs are not
        # silently accepted and dropped.
        with pytest.raises(TypeError, match=field):
            ServeConfig(**{field: 4})
        with pytest.raises(TypeError, match=field):
            ServeConfig().with_overrides(**{field: 4})

    def test_rejects_non_positive_latency(self):
        with pytest.raises(ConfigurationError):
            ServeConfig(max_latency_ms=0.0)
        assert ServeConfig(max_latency_ms=None).max_latency_ms is None

    def test_rejects_non_positive_staleness(self):
        with pytest.raises(ConfigurationError):
            ServeConfig(stale_after_s=-1.0)

    def test_frozen(self):
        with pytest.raises(AttributeError):
            ServeConfig().max_batch = 5

    def test_with_overrides_revalidates(self):
        config = ServeConfig(max_batch=8)
        bumped = config.with_overrides(max_batch=16)
        assert bumped.max_batch == 16
        assert config.max_batch == 8
        with pytest.raises(ConfigurationError):
            config.with_overrides(max_batch=-1)


class TestBuildGuards:
    def test_no_guard_config_yields_nones(self):
        assert ServeConfig().build_guards() == (None, None, None)

    def test_explicit_components_pass_through(self):
        validator = FrameValidator([AmplitudeRangeCheck(0.0, 1.0)])
        repairer = GapRepairer(expected_interval_s=1.0)
        supervisor = RecoverySupervisor()
        config = ServeConfig(
            validator=validator, repairer=repairer, supervisor=supervisor
        )
        assert config.build_guards() == (validator, repairer, supervisor)

    def test_policy_builds_fresh_components_per_call(self):
        from repro.guard import GuardPolicy, ReferenceStats

        rng = np.random.default_rng(0)
        features = np.abs(rng.normal(size=(64, 4))) + 0.1
        policy = GuardPolicy(reference=ReferenceStats.fit(features), n_features=4)
        config = ServeConfig(guard=policy)
        first = config.build_guards()
        second = config.build_guards()
        for a, b in zip(first, second):
            assert a is not None
            assert a is not b  # fresh per call — per-tenant isolation


class TestEngineAcceptsConfig:
    def test_config_replaces_kwargs(self):
        registry = MetricsRegistry()
        engine = InferenceEngine(
            _Estimator(),
            ServeConfig(max_batch=4, max_latency_ms=None, registry=registry),
        )
        assert engine.config.max_batch == 4
        assert engine.registry is registry
        ticket = engine.submit_frame("link-0", 0.0, np.ones(3))
        assert ticket.admitted

    def test_legacy_kwargs_raise_typed_config_error(self):
        with pytest.raises(ConfigError) as exc_info:
            InferenceEngine(_Estimator(), max_batch=4, max_latency_ms=None)
        message = str(exc_info.value)
        # The migration hint names the offending kwargs and the fix.
        assert "max_batch" in message
        assert "max_latency_ms" in message
        assert "ServeConfig" in message

    def test_legacy_kwargs_rejected_even_with_config(self):
        with pytest.raises(ConfigError):
            InferenceEngine(_Estimator(), ServeConfig(max_batch=8), max_batch=2)

    def test_config_error_is_configuration_error(self):
        # Callers catching the broad typed hierarchy keep working.
        with pytest.raises(ConfigurationError):
            InferenceEngine(_Estimator(), window=3)
        with pytest.raises(ValueError):
            InferenceEngine(_Estimator(), window=3)

    def test_legacy_rejection_happens_before_side_effects(self):
        registry = MetricsRegistry()
        with pytest.raises(ConfigError):
            InferenceEngine(_Estimator(), registry=registry)
        assert registry.counters == {}

    def test_config_only_construction_is_warning_free(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            InferenceEngine(_Estimator(), ServeConfig())


class TestOverloadConfigValidation:
    def test_valid_overload_config_accepted(self):
        from repro.overload.governor import OverloadPolicy

        config = ServeConfig(
            rate_limit_hz=8.0, rate_limit_burst=16.0,
            deadline_ms=2000.0, queue_credit=32,
            overload=OverloadPolicy(),
        )
        assert config.rate_limit_hz == 8.0
        assert config.queue_credit == 32

    def test_rejects_non_positive_rate(self):
        with pytest.raises(ConfigError):
            ServeConfig(rate_limit_hz=0.0)
        with pytest.raises(ConfigError):
            ServeConfig(rate_limit_hz=-1.0)

    def test_rejects_burst_without_rate(self):
        with pytest.raises(ConfigError):
            ServeConfig(rate_limit_burst=4.0)

    def test_rejects_sub_frame_burst(self):
        with pytest.raises(ConfigError):
            ServeConfig(rate_limit_hz=1.0, rate_limit_burst=0.5)

    def test_rejects_non_positive_deadline(self):
        with pytest.raises(ConfigError):
            ServeConfig(deadline_ms=0.0)

    def test_rejects_bad_queue_credit(self):
        with pytest.raises(ConfigError):
            ServeConfig(queue_credit=0)

    def test_overload_errors_catchable_as_configuration_error(self):
        # ConfigError subclasses ConfigurationError, so existing handlers
        # written against the old name still catch overload-plane knobs.
        with pytest.raises(ConfigurationError):
            ServeConfig(deadline_ms=-5.0)
