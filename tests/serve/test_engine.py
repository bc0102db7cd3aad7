"""Tests for the micro-batched inference engine."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.baselines.pipeline import ScaledLogistic
from repro.config import TrainingConfig
from repro.core.detector import OccupancyDetector
from repro.data.streaming import StreamingDetector
from repro.exceptions import ConfigurationError, ServingError
from repro.ledger import unaccounted
from repro.overload.governor import OverloadPolicy, ServiceMode
from repro.serve.config import ServeConfig
from repro.serve.engine import InferenceEngine
from repro.serve.queue import PendingFrame
from repro.serve.robustness import LinkHealth, PriorFallback


class ConstantEstimator:
    """Always answers the same probability — cheap and deterministic."""

    def __init__(self, p: float = 0.9) -> None:
        self.p = p

    def predict_proba(self, x: np.ndarray) -> np.ndarray:
        return np.full(np.asarray(x).shape[0], self.p)


class EchoEstimator:
    """Probability = first feature of each row (frames script their vote)."""

    def predict_proba(self, x: np.ndarray) -> np.ndarray:
        return np.asarray(x)[:, 0]


class RowMean:
    """Row-deterministic estimator: numerics independent of batch shape."""

    def predict_proba(self, x: np.ndarray) -> np.ndarray:
        return np.asarray(x, dtype=float).mean(axis=1)


class BrokenEstimator:
    def predict_proba(self, x: np.ndarray) -> np.ndarray:
        raise RuntimeError("weights corrupted")


class WrongLengthEstimator:
    def predict_proba(self, x: np.ndarray) -> np.ndarray:
        return np.full(np.asarray(x).shape[0] + 1, 0.5)


class FailNTimesEstimator:
    """Primary that dies for the first ``n`` calls, then comes back."""

    def __init__(self, n: int, p: float = 0.6) -> None:
        self.n = n
        self.p = p
        self.calls = 0

    def predict_proba(self, x: np.ndarray) -> np.ndarray:
        self.calls += 1
        if self.calls <= self.n:
            raise RuntimeError("transient outage")
        return np.full(np.asarray(x).shape[0], self.p)


def _row(value: float = 0.9, width: int = 4) -> np.ndarray:
    return np.full(width, value)


class TestBatching:
    def test_flushes_on_max_batch(self):
        engine = InferenceEngine(ConstantEstimator(), ServeConfig(max_batch=4, max_latency_ms=None))
        for i in range(3):
            assert engine.submit("a", float(i), _row()) == []
        results = engine.submit("a", 3.0, _row())
        assert len(results) == 4
        assert [r.t_s for r in results] == [0.0, 1.0, 2.0, 3.0]
        assert all(r.source == "primary" for r in results)
        assert engine.registry.counter("batches").value == 1
        assert engine.registry.histogram("batch_size").percentile(50) == 4

    def test_latency_trigger_uses_stream_time(self):
        engine = InferenceEngine(ConstantEstimator(), ServeConfig(max_batch=100, max_latency_ms=1000.0))
        assert engine.submit("a", 0.0, _row()) == []
        # Second frame advances stream time past the 1 s budget of the first.
        results = engine.submit("a", 2.0, _row())
        assert len(results) == 2

    def test_flush_drains_everything(self):
        engine = InferenceEngine(ConstantEstimator(), ServeConfig(max_batch=100, max_latency_ms=None))
        for i in range(5):
            engine.submit("a", float(i), _row())
        results = engine.flush()
        assert len(results) == 5
        assert engine.queue.depth == 0
        assert engine.registry.counter("frames_out").value == 5

    def test_overflow_evicts_oldest_and_counts(self):
        engine = InferenceEngine(ConstantEstimator(), ServeConfig(max_batch=4, max_latency_ms=None, queue_capacity=4))
        # Pre-load the queue to capacity behind the engine's back, so the
        # next admission exercises the drop-oldest backpressure path.
        for i in range(4):
            engine.queue._pending.append(PendingFrame("a", float(i), _row()))
        results = engine.submit("a", 4.0, _row())
        assert engine.registry.counter("frames_dropped_overflow").value == 1
        # The oldest (t=0) was evicted; the surviving four were served.
        assert [r.t_s for r in results] == [1.0, 2.0, 3.0, 4.0]


class TestAdmission:
    def test_rejects_non_finite_frames(self):
        engine = InferenceEngine(ConstantEstimator(), ServeConfig(max_batch=2, max_latency_ms=None))
        bad = _row()
        bad[1] = np.nan
        assert engine.submit("a", 0.0, bad) == []
        assert engine.registry.counter("frames_rejected").value == 1
        assert engine.registry.counter("frames_in").value == 0

    def test_rejects_wrong_shape(self):
        engine = InferenceEngine(ConstantEstimator(), ServeConfig(max_batch=2, max_latency_ms=None))
        assert engine.submit("a", 0.0, np.ones((2, 4))) == []
        assert engine.registry.counter("frames_rejected").value == 1

    def test_stale_frames_dropped_and_link_degraded(self):
        engine = InferenceEngine(ConstantEstimator(), ServeConfig(max_batch=3, max_latency_ms=None, stale_after_s=5.0))
        engine.submit("old", 0.0, _row())
        engine.submit("fresh", 100.0, _row())
        results = engine.submit("fresh", 100.1, _row())
        assert len(results) == 2
        assert all(r.link_id == "fresh" for r in results)
        assert engine.registry.counter("frames_dropped_stale").value == 1
        assert engine.health("old") is LinkHealth.DEGRADED
        assert engine.health("fresh") is LinkHealth.HEALTHY


class TestRobustness:
    def test_fallback_keeps_stream_alive(self):
        engine = InferenceEngine(BrokenEstimator(), ServeConfig(max_batch=4, max_latency_ms=None, fallback=PriorFallback(prior=0.8)))
        results = [r for i in range(8) for r in engine.submit("a", float(i), _row())]
        assert len(results) == 8  # no frame dropped on model failure
        assert all(r.source == "fallback" for r in results)
        assert all(r.probability == pytest.approx(0.8) for r in results)
        assert engine.health("a") is LinkHealth.DEGRADED
        assert engine.registry.counter("primary_failures").value == 2
        assert engine.registry.counter("fallback_frames").value == 8

    def test_degraded_link_recovers_on_next_primary_batch(self):
        engine = InferenceEngine(FailNTimesEstimator(n=1), ServeConfig(max_batch=2, max_latency_ms=None, fallback=PriorFallback(prior=0.8)))
        engine.submit("a", 0.0, _row())
        first = engine.submit("a", 1.0, _row())  # primary dies -> fallback
        assert all(r.source == "fallback" for r in first)
        assert engine.health("a") is LinkHealth.DEGRADED
        assert engine.registry.counter("link_recovered_total").value == 0

        engine.submit("a", 2.0, _row())
        second = engine.submit("a", 3.0, _row())  # primary back -> recovery
        assert all(r.source == "primary" for r in second)
        assert engine.health("a") is LinkHealth.HEALTHY
        assert engine.registry.counter("link_recovered_total").value == 1

        engine.submit("a", 4.0, _row())
        engine.submit("a", 5.0, _row())  # stays healthy: no double count
        assert engine.registry.counter("link_recovered_total").value == 1

    def test_flush_recovers_degraded_link_exactly_once(self):
        # A flush batch holding several frames of one DEGRADED link must
        # bump link_recovered_total once, not once per frame.
        engine = InferenceEngine(FailNTimesEstimator(n=1), ServeConfig(max_batch=4, max_latency_ms=None, fallback=PriorFallback(prior=0.8)))
        for i in range(4):
            engine.submit("a", float(i), _row())  # full batch -> primary dies
        assert engine.health("a") is LinkHealth.DEGRADED
        assert engine.registry.counter("link_recovered_total").value == 0

        engine.submit("a", 4.0, _row())
        engine.submit("a", 5.0, _row())  # two pending frames, no batch yet
        results = engine.flush()  # primary healed: one batch, one recovery
        assert len(results) == 2
        assert all(r.source == "primary" for r in results)
        assert engine.health("a") is LinkHealth.HEALTHY
        assert engine.registry.counter("link_recovered_total").value == 1

        engine.submit("a", 6.0, _row())
        assert engine.flush()  # healthy link: flush must not count again
        assert engine.registry.counter("link_recovered_total").value == 1

    def test_flush_counts_one_recovery_per_degraded_link(self):
        engine = InferenceEngine(FailNTimesEstimator(n=1), ServeConfig(max_batch=2, max_latency_ms=None, fallback=PriorFallback(prior=0.8)))
        engine.submit("a", 0.0, _row())
        engine.submit("b", 0.5, _row())  # full batch -> both links degrade
        assert engine.health("a") is LinkHealth.DEGRADED
        assert engine.health("b") is LinkHealth.DEGRADED

        engine.submit("a", 1.0, _row())
        results = engine.submit("b", 1.5, _row())
        if not results:
            results = engine.flush()
        assert all(r.source == "primary" for r in results)
        assert engine.registry.counter("link_recovered_total").value == 2

    def test_stale_degraded_link_recovers_with_fresh_frames(self):
        engine = InferenceEngine(ConstantEstimator(), ServeConfig(max_batch=2, max_latency_ms=None, stale_after_s=5.0))
        engine.submit("old", 0.0, _row())
        engine.submit("fresh", 100.0, _row())
        engine.submit("fresh", 100.1, _row())  # drops the stale frame
        assert engine.health("old") is LinkHealth.DEGRADED
        engine.submit("old", 100.2, _row())
        engine.submit("old", 100.3, _row())  # fresh frames, primary batch
        assert engine.health("old") is LinkHealth.HEALTHY
        assert engine.registry.counter("link_recovered_total").value == 1

    def test_both_tiers_failing_raises(self):
        engine = InferenceEngine(BrokenEstimator(), ServeConfig(max_batch=2, max_latency_ms=None, fallback=BrokenEstimator()))
        engine.submit("a", 0.0, _row())
        with pytest.raises(ServingError):
            engine.submit("a", 1.0, _row())

    def test_wrong_length_probabilities_raise(self):
        engine = InferenceEngine(WrongLengthEstimator(), ServeConfig(max_batch=2, max_latency_ms=None))
        engine.submit("a", 0.0, _row())
        with pytest.raises(ServingError):
            engine.submit("a", 1.0, _row())

    def test_estimator_without_predict_proba_rejected(self):
        with pytest.raises(ConfigurationError):
            InferenceEngine(object())


class TestLinks:
    def test_unknown_link_rejected(self):
        engine = InferenceEngine(ConstantEstimator())
        with pytest.raises(ConfigurationError):
            engine.health("ghost")
        with pytest.raises(ConfigurationError):
            engine.state("ghost")

    def test_links_are_idle_until_first_result(self):
        engine = InferenceEngine(ConstantEstimator(), ServeConfig(max_batch=8, max_latency_ms=None))
        engine.submit("a", 0.0, _row())
        assert engine.health("a") is LinkHealth.IDLE
        engine.flush()
        assert engine.health("a") is LinkHealth.HEALTHY
        assert engine.link_ids == ("a",)

    def test_per_link_debounce_is_independent(self):
        # Link "on" streams occupied votes, link "off" empty votes; each
        # link's debouncer must see only its own frames.
        engine = InferenceEngine(EchoEstimator(), ServeConfig(max_batch=4, max_latency_ms=None, window=1, hold_frames=1))
        results = []
        for i in range(8):
            link, value = ("on", 0.9) if i % 2 == 0 else ("off", 0.1)
            results.extend(engine.submit(link, float(i), _row(value)))
        results.extend(engine.flush())
        assert engine.state("on") == 1
        assert engine.state("off") == 0
        on_transitions = [r.transition for r in results
                         if r.link_id == "on" and r.transition is not None]
        assert len(on_transitions) == 1 and on_transitions[0].occupied
        assert not any(r.transition for r in results if r.link_id == "off")


@pytest.fixture(scope="module")
def fitted_logistic(smoke_dataset):
    half = len(smoke_dataset) // 2
    model = ScaledLogistic()
    model.fit(smoke_dataset.csi[:half], smoke_dataset.occupancy[:half])
    return model


class TestEquivalence:
    def test_matches_streaming_detector_transitions(self, smoke_dataset, fitted_logistic):
        """Micro-batching must not change the answer, only the cost."""
        start = len(smoke_dataset) // 2
        t = smoke_dataset.timestamps_s
        csi = smoke_dataset.csi
        n = min(600, len(smoke_dataset) - start)

        reference = StreamingDetector(fitted_logistic, window=5, hold_frames=3)
        expected = []
        for i in range(start, start + n):
            event = reference.update(float(t[i]), csi[i])
            if event is not None:
                expected.append((event.t_s, event.occupied))

        engine = InferenceEngine(fitted_logistic, ServeConfig(max_batch=64, max_latency_ms=None, window=5, hold_frames=3))
        got = []
        for i in range(start, start + n):
            for r in engine.submit("link-0", float(t[i]), csi[i]):
                if r.transition is not None:
                    got.append((r.transition.t_s, r.transition.occupied))
        for r in engine.flush():
            if r.transition is not None:
                got.append((r.transition.t_s, r.transition.occupied))

        assert got == expected
        assert engine.state("link-0") == reference.state

    def test_serves_the_neural_detector(self, smoke_dataset):
        config = TrainingConfig(epochs=2, hidden_sizes=(16,), batch_size=256)
        detector = OccupancyDetector(smoke_dataset.n_subcarriers, config)
        detector.fit(smoke_dataset.csi[:800], smoke_dataset.occupancy[:800])

        engine = InferenceEngine(detector, ServeConfig(max_batch=32, max_latency_ms=None))
        results = []
        for i in range(64):
            results.extend(
                engine.submit(f"link-{i % 2}", float(smoke_dataset.timestamps_s[i]),
                              smoke_dataset.csi[i])
            )
        assert len(results) == 64
        assert all(0.0 <= r.probability <= 1.0 for r in results)
        assert all(r.source == "primary" for r in results)


class TestObserverIntegration:
    def _engine(self, **kwargs):
        from repro.obs import Observer

        obs = Observer(label="t")
        engine = InferenceEngine(
            ConstantEstimator(),
            ServeConfig(observer=obs, max_latency_ms=None, **kwargs),
        )
        return engine, obs

    def test_frame_ids_are_monotonic_and_returned(self):
        engine, obs = self._engine(max_batch=4)
        results = []
        for i in range(8):
            results.extend(engine.submit("a", float(i), _row()))
        results.extend(engine.flush())
        assert [r.frame_id for r in results] == list(range(8))
        assert obs.ledger()["answered"] == 8

    def test_ids_assigned_even_without_observer(self):
        engine = InferenceEngine(ConstantEstimator(), ServeConfig(max_batch=2, max_latency_ms=None))
        assert engine.observer.enabled is False
        results = engine.submit("a", 0.0, _row()) + engine.submit("a", 1.0, _row())
        assert [r.frame_id for r in results] == [0, 1]

    def test_rejected_frame_sealed_with_rejected_outcome(self):
        engine, obs = self._engine(max_batch=4)
        engine.submit("a", 0.0, np.full(4, np.nan))
        assert obs.events.count("frame.rejected") == 1
        event = obs.events.tail(1)[0]
        assert event.frame_id == 0 and event.data["gate"] == "shape"
        assert obs.tracer.trace(0).outcome == "rejected"

    def test_overflow_eviction_seals_the_evicted_frame(self):
        engine, obs = self._engine(max_batch=4, queue_capacity=4)
        for i in range(6):  # two evictions before any flush trigger at 4+
            engine.submit("a", float(i), _row())
            engine.queue.max_batch = 100  # hold the queue closed
        assert obs.events.count("frame.overflow") == 2
        evicted = [e.frame_id for e in obs.events if e.kind == "frame.overflow"]
        assert evicted == [0, 1]  # drop-oldest
        ledger = obs.ledger()
        assert ledger["overflow"] == 2 and ledger["unaccounted"] == 0

    def test_stale_drop_emits_age(self):
        engine, obs = self._engine(max_batch=100, stale_after_s=5.0)
        engine.submit("a", 0.0, _row())
        engine.submit("a", 100.0, _row())
        engine.flush()
        assert obs.events.count("frame.stale") == 1
        event = next(e for e in obs.events if e.kind == "frame.stale")
        assert event.frame_id == 0 and event.data["age_s"] == 100.0
        assert obs.ledger()["unaccounted"] == 0

    def test_batch_flush_event_carries_size_and_source(self):
        engine, obs = self._engine(max_batch=3)
        for i in range(3):
            engine.submit("a", float(i), _row())
        event = next(e for e in obs.events if e.kind == "batch.flush")
        assert event.data == {"n": 3, "source": "primary"}

    def test_fallback_recovery_emits_link_recovered(self):
        from repro.obs import Observer

        obs = Observer(label="t")
        engine = InferenceEngine(FailNTimesEstimator(1), ServeConfig(observer=obs, max_batch=2, max_latency_ms=None, fallback=PriorFallback()))
        for i in range(4):
            engine.submit("a", float(i), _row())
        assert obs.events.count("link.recovered") == 1
        answered = [e for e in obs.events if e.kind == "frame.answered"]
        assert [e.data["source"] for e in answered] == [
            "fallback", "fallback", "primary", "primary",
        ]

    def test_traces_record_pipeline_stages(self):
        engine, obs = self._engine(max_batch=2)
        engine.submit("a", 0.0, _row())
        engine.submit("a", 1.0, _row())
        trace = obs.tracer.trace(0)
        assert trace.outcome == "answered"
        for stage in ("enqueue", "queue_wait", "supervise", "predict", "emit"):
            assert stage in trace.stages, stage
        assert trace.total_ms > 0.0

    def test_observer_shares_engine_registry(self):
        engine, obs = self._engine(max_batch=2)
        engine.submit("a", 0.0, _row())
        engine.submit("a", 1.0, _row())
        assert obs.registry is engine.registry
        assert engine.registry.histogram("stage_predict_ms").count == 2
        dump = obs.dump()
        assert "repro_frames_in" in dump["prometheus"]


class TestOverloadPlane:
    """The engine half of the overload control plane (repro.overload)."""

    def test_rate_limited_frames_get_typed_outcome(self):
        engine = InferenceEngine(
            ConstantEstimator(),
            ServeConfig(max_batch=4, max_latency_ms=None,
                        rate_limit_hz=1.0, rate_limit_burst=1.0),
        )
        assert engine.submit_frame("a", 0.0, _row()).outcome == "enqueued"
        ticket = engine.submit_frame("a", 0.0, _row())
        assert ticket.outcome == "rate_limited"
        assert not ticket.admitted
        assert engine.registry.counter("frames_rate_limited").value == 1
        assert engine.link_stats("a")["rate_limited"] == 1
        # Tokens refill in stream time: one second buys the next frame.
        assert engine.submit_frame("a", 1.0, _row()).outcome == "enqueued"

    def test_rate_limit_is_per_link(self):
        engine = InferenceEngine(
            ConstantEstimator(),
            ServeConfig(max_batch=8, max_latency_ms=None,
                        rate_limit_hz=1.0, rate_limit_burst=1.0),
        )
        engine.submit_frame("chatty", 0.0, _row())
        assert engine.submit_frame("chatty", 0.0, _row()).outcome == "rate_limited"
        # The quiet link's bucket is untouched by the chatty one.
        assert engine.submit_frame("quiet", 0.0, _row()).outcome == "enqueued"

    def test_malformed_frames_spend_no_tokens(self):
        engine = InferenceEngine(
            ConstantEstimator(),
            ServeConfig(max_batch=4, max_latency_ms=None,
                        rate_limit_hz=1.0, rate_limit_burst=1.0),
        )
        bad = _row()
        bad[0] = np.nan
        assert engine.submit_frame("a", 0.0, bad).outcome == "rejected"
        # The shape gate ran first, so the bucket still holds its token.
        assert engine.submit_frame("a", 0.0, _row()).outcome == "enqueued"

    def test_expired_frames_shed_at_dequeue(self):
        engine = InferenceEngine(
            ConstantEstimator(),
            ServeConfig(max_batch=16, max_latency_ms=None,
                        deadline_ms=1000.0, auto_flush=False),
        )
        engine.submit("a", 0.0, _row())
        engine.submit("a", 5.0, _row())
        results = engine.pump(now_s=5.0)
        # The t=0 frame waited 5 s against a 1 s budget: shed, not served.
        assert [r.t_s for r in results] == [5.0]
        assert engine.link_stats("a")["deadline_expired"] == 1
        assert engine.registry.counter("frames_deadline_expired").value == 1
        # Deadline sheds are load decisions, never link faults.
        assert engine.health("a") is LinkHealth.HEALTHY

    def test_queue_credit_bounds_one_links_share(self):
        engine = InferenceEngine(
            ConstantEstimator(),
            ServeConfig(max_batch=16, max_latency_ms=None, queue_capacity=16,
                        queue_credit=2, auto_flush=False),
        )
        for i in range(5):
            engine.submit("hog", float(i), _row())
        engine.submit("meek", 5.0, _row())
        # The hog evicted its own oldest frames at its credit bound; the
        # meek link's frame still sits in plentiful global capacity.
        assert engine.link_stats("hog")["overflow"] == 3
        assert engine.link_stats("meek")["overflow"] == 0
        served = engine.flush()
        assert sorted(r.t_s for r in served if r.link_id == "hog") == [3.0, 4.0]

    def test_governor_serves_fastpath_under_pressure(self):
        engine = InferenceEngine(
            EchoEstimator(),
            ServeConfig(
                max_batch=8, max_latency_ms=None, queue_capacity=8,
                auto_flush=False,
                overload=OverloadPolicy(
                    fastpath_at=0.01, fallback_at=5.0, shed_at=6.0,
                    alpha=1.0, hold_ticks=1, jitter=0.0,
                ),
            ),
        )
        engine.attach_fastpath(ConstantEstimator(0.25))
        for i in range(4):
            engine.submit("a", float(i), _row(0.9))
        results = engine.pump()
        assert engine.mode is ServiceMode.FASTPATH_ONLY
        assert all(r.source == "fastpath" for r in results)
        assert all(r.probability == pytest.approx(0.25) for r in results)
        # Fastpath answers count as primary for link health.
        assert engine.health("a") is LinkHealth.HEALTHY

    def test_governor_without_fastpath_falls_through_to_primary(self):
        engine = InferenceEngine(
            EchoEstimator(),
            ServeConfig(
                max_batch=8, max_latency_ms=None, queue_capacity=8,
                auto_flush=False,
                overload=OverloadPolicy(
                    fastpath_at=0.01, fallback_at=5.0, shed_at=6.0,
                    alpha=1.0, hold_ticks=1, jitter=0.0,
                ),
            ),
        )
        for i in range(4):
            engine.submit("a", float(i), _row(0.9))
        results = engine.pump()
        assert all(r.source == "primary" for r in results)

    def test_governor_fallback_only_skips_primary(self):
        engine = InferenceEngine(
            EchoEstimator(),
            ServeConfig(
                max_batch=8, max_latency_ms=None, queue_capacity=8,
                auto_flush=False, fallback=PriorFallback(prior=0.8),
                overload=OverloadPolicy(
                    fastpath_at=0.01, fallback_at=0.02, shed_at=6.0,
                    alpha=1.0, hold_ticks=1, jitter=0.0,
                ),
            ),
        )
        for i in range(4):
            engine.submit("a", float(i), _row(0.9))
        results = engine.pump()
        assert engine.mode is ServiceMode.FALLBACK_ONLY
        assert all(r.source == "fallback" for r in results)
        assert all(r.probability == pytest.approx(0.8) for r in results)

    def test_governor_shed_mode_drops_typed_and_health_neutral(self):
        engine = InferenceEngine(
            ConstantEstimator(),
            ServeConfig(
                max_batch=8, max_latency_ms=None, queue_capacity=8,
                auto_flush=False,
                overload=OverloadPolicy(
                    fastpath_at=0.01, fallback_at=0.02, shed_at=0.03,
                    alpha=1.0, hold_ticks=1, jitter=0.0,
                ),
            ),
        )
        for i in range(4):
            engine.submit("a", float(i), _row())
        results = engine.pump()
        assert engine.mode is ServiceMode.SHED
        assert results == []
        assert engine.link_stats("a")["overload_shed"] == 4
        assert engine.registry.counter("frames_shed_overload").value == 4
        assert engine.health("a") is LinkHealth.IDLE  # untouched by sheds

    def test_governor_recovers_after_calm(self):
        engine = InferenceEngine(
            ConstantEstimator(),
            ServeConfig(
                max_batch=8, max_latency_ms=None, queue_capacity=8,
                auto_flush=False,
                overload=OverloadPolicy(
                    fastpath_at=0.4, fallback_at=5.0, shed_at=6.0,
                    alpha=1.0, hold_ticks=1, probe_cooldown_s=1.0,
                    jitter=0.0,
                ),
            ),
        )
        for i in range(4):
            engine.submit("a", float(i), _row())
        engine.pump()
        assert engine.mode is ServiceMode.FASTPATH_ONLY
        # One calm, post-cooldown batch probes back down to FULL.
        engine.submit("a", 100.0, _row())
        engine.pump(now_s=100.0)
        assert engine.mode is ServiceMode.FULL

    def test_supervisor_reject_wins_over_governor(self):
        # Breakers hold both tiers open: the governor cannot force
        # traffic onto a tier the supervisor rejects.
        from repro.guard.breaker import CircuitBreaker
        from repro.guard.supervisor import RecoverySupervisor

        supervisor = RecoverySupervisor(
            breaker=CircuitBreaker(failure_threshold=1, cooldown_s=1e6, max_cooldown_s=1e6),
            fallback_breaker=CircuitBreaker(failure_threshold=1, cooldown_s=1e6, max_cooldown_s=1e6),
        )
        supervisor.record_primary_failure(0.0)
        supervisor.record_fallback_failure(0.0)
        engine = InferenceEngine(
            ConstantEstimator(),
            ServeConfig(
                max_batch=8, max_latency_ms=None, queue_capacity=8,
                auto_flush=False, supervisor=supervisor,
                overload=OverloadPolicy(
                    fastpath_at=0.01, fallback_at=5.0, shed_at=6.0,
                    alpha=1.0, hold_ticks=1, jitter=0.0,
                ),
            ),
        )
        engine.attach_fastpath(ConstantEstimator(0.25))
        engine.submit("a", 0.0, _row())
        assert engine.pump(now_s=0.5) == []
        assert engine.link_stats("a")["policy_rejected"] == 1

    def test_full_mode_governor_is_byte_identical_noop(self):
        # A governor that never leaves FULL must not change a single
        # answer or shed a single frame vs the ungoverned engine.
        def run(overload):
            engine = InferenceEngine(
                EchoEstimator(),
                ServeConfig(max_batch=4, max_latency_ms=None,
                            overload=overload),
            )
            rng = np.random.default_rng(7)
            out = []
            for i in range(64):
                row = np.abs(rng.normal(size=4)) + 0.01
                out.extend(engine.submit("a", float(i), row))
            out.extend(engine.flush())
            return engine, out

        plain_engine, plain = run(None)
        governed_engine, governed = run(OverloadPolicy())
        assert governed_engine.mode is ServiceMode.FULL
        assert [r.probability for r in governed] == [r.probability for r in plain]
        assert [r.t_s for r in governed] == [r.t_s for r in plain]
        stats = governed_engine.link_stats("a")
        assert stats["overload_shed"] == 0
        assert stats["deadline_expired"] == 0
        assert stats["rate_limited"] == 0
        assert stats["frames_out"] == plain_engine.link_stats("a")["frames_out"]

    def test_attach_fastpath_validates_and_detaches(self):
        engine = InferenceEngine(ConstantEstimator(), ServeConfig(max_batch=4, max_latency_ms=None))
        with pytest.raises(ConfigurationError):
            engine.attach_fastpath(object())  # no predict_proba
        engine.attach_fastpath(ConstantEstimator(0.5))
        engine.attach_fastpath(None)  # detach is allowed
        assert engine._fastpath is None

    def test_link_stats_unknown_link_raises(self):
        engine = InferenceEngine(ConstantEstimator(), ServeConfig(max_batch=4, max_latency_ms=None))
        with pytest.raises(ConfigurationError):
            engine.link_stats("nope")


class TestPump:
    def test_auto_flush_off_defers_service_to_pump(self):
        engine = InferenceEngine(
            ConstantEstimator(),
            ServeConfig(max_batch=2, max_latency_ms=None, auto_flush=False),
        )
        for i in range(6):
            assert engine.submit("a", float(i), _row()) == []
        assert engine.queue.depth == 6
        assert len(engine.pump(3)) == 3
        assert engine.queue.depth == 3
        assert len(engine.pump()) == 3  # None drains the rest
        assert engine.queue.depth == 0

    def test_pump_respects_max_batch(self):
        engine = InferenceEngine(
            ConstantEstimator(),
            ServeConfig(max_batch=2, max_latency_ms=None, auto_flush=False),
        )
        for i in range(5):
            engine.submit("a", float(i), _row())
        engine.pump()
        assert engine.registry.histogram("batch_size").percentile(100) <= 2

    def test_pump_advances_stream_time(self):
        engine = InferenceEngine(
            ConstantEstimator(),
            ServeConfig(max_batch=4, max_latency_ms=None, auto_flush=False,
                        stale_after_s=2.0),
        )
        engine.submit("a", 0.0, _row())
        engine.pump(now_s=10.0)
        # Stream time moved to 10 s, so the frame aged out as stale.
        assert engine.link_stats("a")["stale_dropped"] == 1

    def test_pump_rejects_negative_budget(self):
        engine = InferenceEngine(
            ConstantEstimator(),
            ServeConfig(max_batch=2, max_latency_ms=None, auto_flush=False),
        )
        with pytest.raises(ConfigurationError):
            engine.pump(-1)


@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    phases=st.lists(
        st.tuples(
            st.integers(min_value=1, max_value=40),   # frames in the phase
            st.sampled_from([0.001, 0.01, 0.2]),      # inter-arrival dt
        ),
        min_size=1,
        max_size=6,
    ),
    bad_every=st.integers(min_value=5, max_value=11),
    data_seed=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_ledger_reconciles_over_random_schedules(phases, bad_every, data_seed):
    """Burst/lull schedules with faults: exact frame accounting.

    Overflow, staleness, deadlines and non-finite frames all fire at
    random; afterwards the engine-side ledger must balance exactly and
    the queue must be empty.
    """
    config = ServeConfig(
        max_batch=8,
        max_latency_ms=30.0,
        queue_capacity=16,
        stale_after_s=0.5,
        deadline_ms=800.0,
    )
    engine = InferenceEngine(RowMean(), config)
    rng = np.random.default_rng(data_seed)
    answered = 0
    t = 0.0
    i = 0
    for n_frames, dt in phases:
        for _ in range(n_frames):
            t += dt
            i += 1
            if i % bad_every == 0:
                row = np.full(5, np.inf)  # refused at the finite gate
            else:
                row = rng.normal(loc=10.0, scale=3.0, size=5)
            answered += len(engine.submit("link", t, row))
    answered += len(engine.flush())

    stats = engine.link_stats("link")
    assert stats["frames_out"] == answered
    assert unaccounted(stats) == 0
    assert engine.queue.depth == 0
