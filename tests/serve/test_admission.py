"""The engine's one admission path: owned float64 rows, fixed batching.

Every admitted frame is held in the queue as the float64 row that
:func:`~repro.data.streaming.check_csi_row` returns, and every batch is
copied into a two-slot ring of ``queue.max_batch`` rows.  The guarantees
under test:

* **batch-shape independence** — the batch size only changes how frames
  are grouped, never what is answered: a row-deterministic estimator gives
  bit-identical probabilities, states and per-link tallies at every
  ``max_batch``;
* **the ring contract** — a batch handed to the estimator stays intact
  until the flush after next, and the ring follows the frame width;
* **exact frame accounting** — over randomized burst/lull schedules with
  several links, the governor or the guard stack, every frame that enters
  the engine is answered or dropped with a typed cause;
* **a fixed queue** — the batch size set by ``ServeConfig`` holds for the
  life of the engine, escalated governor included.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.guard import GuardPolicy, ReferenceStats
from repro.ledger import unaccounted
from repro.obs import EVENT_KINDS, Observer
from repro.overload.governor import OverloadPolicy
from repro.serve import InferenceEngine, ServeConfig


class RowMean:
    """Row-deterministic estimator: numerics independent of batch shape."""

    def predict_proba(self, x):
        return np.asarray(x, dtype=float).mean(axis=1)


class Recording(RowMean):
    """Keeps every batch it was handed, as passed (views, not copies)."""

    def __init__(self):
        self.batches = []

    def predict_proba(self, x):
        self.batches.append((x, x.copy()))
        return super().predict_proba(x)


def _serve(max_batch, max_latency_ms, schedule, width=5, data_seed=3):
    config = ServeConfig(
        max_batch=max_batch,
        max_latency_ms=max_latency_ms,
        queue_capacity=512,  # ample: overflow would couple the arms
    )
    engine = InferenceEngine(RowMean(), config)
    rng = np.random.default_rng(data_seed)
    results = []
    t = 0.0
    for dt in schedule:
        t += dt
        results += engine.submit("a", t, rng.normal(size=width))
    results += engine.flush()
    return results, engine.link_stats("a")


@pytest.fixture(scope="module")
def schedule():
    rng = np.random.default_rng(42)
    return [float(rng.choice([0.0003, 0.004, 0.12])) for _ in range(400)]


@pytest.fixture(scope="module")
def per_frame(schedule):
    return _serve(1, None, schedule)


class TestBatchShapeIndependence:
    @pytest.mark.parametrize("max_latency_ms", [None, 50.0])
    @pytest.mark.parametrize("max_batch", [2, 3, 8, 32, 64, 512])
    def test_matches_per_frame_serving_bit_for_bit(
        self, schedule, per_frame, max_batch, max_latency_ms
    ):
        want, want_stats = per_frame
        got, got_stats = _serve(max_batch, max_latency_ms, schedule)
        assert len(got) == len(want) == len(schedule)
        for a, b in zip(got, want):
            assert (a.link_id, a.t_s, a.frame_id, a.source, a.state) == (
                b.link_id, b.t_s, b.frame_id, b.source, b.state
            )
            # Bit-level equality: batching must never touch numerics.
            assert np.float64(a.probability).tobytes() == np.float64(
                b.probability
            ).tobytes()
        assert got_stats == want_stats
        assert got_stats["frames_in"] == got_stats["frames_out"] == len(schedule)


class TestOwnedRows:
    @pytest.mark.parametrize("dtype", [np.float32, np.float16, np.int16])
    def test_queued_rows_are_float64(self, dtype):
        engine = InferenceEngine(
            RowMean(), ServeConfig(max_batch=4, max_latency_ms=None)
        )
        engine.submit("a", 0.0, np.arange(6).astype(dtype))
        (frame,) = engine.queue.drain()
        assert frame.csi.dtype == np.float64
        np.testing.assert_array_equal(frame.csi, np.arange(6, dtype=float))

    def test_malformed_and_nonfinite_frames_never_enqueue(self):
        engine = InferenceEngine(
            RowMean(), ServeConfig(max_batch=8, max_latency_ms=None)
        )
        engine.submit("a", 0.0, np.ones(6))
        assert engine.submit_frame("a", 0.1, np.ones((2, 3))).outcome == "rejected"
        bad = np.ones(6)
        bad[3] = np.nan
        assert engine.submit_frame("a", 0.2, bad).outcome == "rejected"
        assert engine.queue.depth == 1
        assert len(engine.flush()) == 1
        stats = engine.link_stats("a")
        assert stats["rejected"] == 2
        assert stats["frames_in"] == stats["frames_out"] == 1

    def test_backlog_past_max_batch_serves_every_frame(self):
        engine = InferenceEngine(
            RowMean(),
            ServeConfig(max_batch=16, max_latency_ms=None, queue_capacity=32),
        )
        results = []
        for i in range(40):
            results += engine.submit("a", i * 0.01, np.full(6, float(i)))
        results += engine.flush()
        assert [r.probability for r in results] == [float(i) for i in range(40)]
        assert engine.registry.histogram("batch_size").values() == [16.0, 16.0, 8.0]
        stats = engine.link_stats("a")
        assert stats["frames_in"] == stats["frames_out"] == 40
        assert stats["overflow"] == 0


class TestBatchRing:
    def _engine(self, estimator, max_batch=4):
        return InferenceEngine(
            estimator, ServeConfig(max_batch=max_batch, max_latency_ms=None)
        )

    def test_batch_survives_the_next_flush(self):
        estimator = Recording()
        engine = self._engine(estimator)
        for i in range(8):  # two full batches of distinct rows
            engine.submit("a", i * 0.01, np.full(3, float(i)))
        (first, first_copy), (second, second_copy) = estimator.batches
        np.testing.assert_array_equal(first, first_copy)
        np.testing.assert_array_equal(second, second_copy)
        assert not np.shares_memory(first, second)

    def test_third_batch_reuses_the_first_slot(self):
        estimator = Recording()
        engine = self._engine(estimator)
        for i in range(12):
            engine.submit("a", i * 0.01, np.full(3, float(i)))
        (first, _), _, (third, third_copy) = estimator.batches
        assert np.shares_memory(first, third)
        np.testing.assert_array_equal(first, third_copy)

    def test_ring_holds_max_batch_float64_rows(self):
        estimator = Recording()
        engine = self._engine(estimator, max_batch=8)
        for i in range(3):
            engine.submit("a", i * 0.01, np.full(5, float(i)))
        engine.flush()  # a short batch is a prefix of a full slot
        ((x, _),) = estimator.batches
        assert x.shape == (3, 5)
        assert x.dtype == np.float64
        assert x.base is not None and x.base.shape == (8, 5)

    def test_width_change_after_flush_resizes_the_ring(self):
        engine = self._engine(RowMean())
        engine.submit("a", 0.0, np.ones(6))
        engine.flush()  # ragged batches raise by contract, so drain first
        engine.submit("b", 0.1, np.full(9, 2.0))
        (result,) = engine.flush()
        assert result.probability == 2.0
        assert engine.link_stats("b")["frames_out"] == 1

    def test_ragged_batch_raises(self):
        engine = self._engine(RowMean())
        engine.submit("a", 0.0, np.ones(6))
        engine.submit("b", 0.1, np.ones(9))
        with pytest.raises(ValueError):
            engine.flush()


def _episode_engine(kind):
    observer = Observer(label="surface") if kind == "observer" else None
    overrides = {}
    if kind == "governor":
        overrides = dict(
            auto_flush=False,
            overload=OverloadPolicy(
                fastpath_at=0.05, fallback_at=0.1, shed_at=0.95, alpha=1.0
            ),
        )
    elif kind == "guard":
        rng = np.random.default_rng(0)
        features = np.abs(rng.normal(size=(64, 5))) + 0.1
        overrides = dict(
            guard=GuardPolicy(
                reference=ReferenceStats.fit(features),
                n_features=5,
                expected_interval_s=0.01,
            )
        )
    elif kind == "overload-knobs":
        overrides = dict(rate_limit_hz=50.0, deadline_ms=100.0, queue_credit=8)
    return InferenceEngine(
        RowMean(),
        ServeConfig(
            max_batch=8,
            max_latency_ms=40.0,
            queue_capacity=32,
            observer=observer,
            **overrides,
        ),
    )


_REMOVED_METRICS = ("batch_resizes_total", "adaptive_batch_size")


@pytest.mark.parametrize(
    "kind", ["plain", "observer", "governor", "guard", "overload-knobs"]
)
def test_registry_has_no_arena_or_resize_metrics(kind):
    engine = _episode_engine(kind)
    rng = np.random.default_rng(5)
    t = 0.0
    for i in range(120):
        t += 0.002 if i < 60 else 0.03
        engine.submit(f"l{i % 3}", t, np.abs(rng.normal(size=5)) + 0.1)
        if not engine.config.auto_flush and i % 16 == 15:
            engine.pump(max_frames=4, now_s=t)
    engine.flush()
    names = set(engine.registry.as_dict())
    assert "frames_in" in names
    assert not {name for name in names if name.startswith("arena_")}
    assert not names & set(_REMOVED_METRICS)
    assert engine.queue.max_batch == 8


def test_observed_episode_emits_only_taxonomy_kinds():
    engine = _episode_engine("observer")
    rng = np.random.default_rng(6)
    t = 0.0
    for i in range(200):
        t += 0.0005 if i < 100 else 0.2  # burst, then a hard lull
        engine.submit("a", t, rng.normal(size=5))
    engine.flush()
    kinds = {event.kind for event in engine.observer.events}
    assert "batch.flush" in kinds
    assert kinds <= EVENT_KINDS
    assert "serve.batch_resize" not in EVENT_KINDS


def test_governor_escalation_keeps_the_configured_batch():
    engine = InferenceEngine(
        RowMean(),
        ServeConfig(
            max_batch=16,
            max_latency_ms=100.0,
            queue_capacity=64,
            auto_flush=False,
            overload=OverloadPolicy(
                fastpath_at=0.05, fallback_at=0.1, shed_at=0.95, alpha=1.0
            ),
        ),
    )
    rng = np.random.default_rng(2)
    t = 0.0
    for _ in range(40):  # flood: queue depth well over the first rung
        t += 0.001
        engine.submit("a", t, rng.normal(size=5))
    first = engine.pump(max_frames=8, now_s=t)  # governor sees the backlog
    assert engine.mode.severity > 0
    assert len(first) == 8
    served = len(first)
    while engine.queue.depth:
        t += 0.001
        batch = engine.pump(max_frames=64, now_s=t)
        assert engine.queue.max_batch == 16
        served += len(batch)
    assert engine.registry.histogram("batch_size").values()[1:] == [16.0, 16.0]
    stats = engine.link_stats("a")
    assert stats["frames_in"] == 40 and stats["frames_out"] == served
    assert unaccounted(stats) == 0


_PHASES = st.lists(
    st.tuples(
        st.integers(min_value=1, max_value=40),   # frames in the phase
        st.sampled_from([0.001, 0.01, 0.2]),      # inter-arrival dt
    ),
    min_size=1,
    max_size=6,
)
_SETTINGS = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@_SETTINGS
@given(
    phases=_PHASES,
    n_links=st.integers(min_value=2, max_value=5),
    credit=st.one_of(st.none(), st.integers(min_value=1, max_value=8)),
    data_seed=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_multi_link_ledger_reconciles_per_link(phases, n_links, credit, data_seed):
    """Each link's tallies balance on their own, with or without credit."""
    config = ServeConfig(
        max_batch=8,
        max_latency_ms=30.0,
        queue_capacity=16,
        queue_credit=credit,
        stale_after_s=0.5,
        deadline_ms=800.0,
    )
    engine = InferenceEngine(RowMean(), config)
    rng = np.random.default_rng(data_seed)
    answered = {}
    t = 0.0
    for n_frames, dt in phases:
        for _ in range(n_frames):
            t += dt
            link = f"l{int(rng.integers(n_links))}"
            for result in engine.submit(link, t, rng.normal(10.0, 3.0, size=5)):
                answered[result.link_id] = answered.get(result.link_id, 0) + 1
    for result in engine.flush():
        answered[result.link_id] = answered.get(result.link_id, 0) + 1

    for link in engine.link_ids:
        stats = engine.link_stats(link)
        assert stats["frames_out"] == answered.get(link, 0)
        assert unaccounted(stats) == 0
        assert engine.queue.link_depth(link) == 0
    assert engine.queue.depth == 0


@_SETTINGS
@given(
    phases=_PHASES,
    pump_every=st.integers(min_value=1, max_value=12),
    budget=st.integers(min_value=1, max_value=16),
    data_seed=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_governed_ledger_reconciles_under_pumped_service(
    phases, pump_every, budget, data_seed
):
    """Finite pump service through the degradation ladder loses nothing."""
    config = ServeConfig(
        max_batch=8,
        max_latency_ms=30.0,
        queue_capacity=16,
        deadline_ms=300.0,
        auto_flush=False,
        overload=OverloadPolicy(
            fastpath_at=0.3, fallback_at=0.6, shed_at=0.9, alpha=0.5
        ),
    )
    engine = InferenceEngine(RowMean(), config)
    engine.attach_fastpath(RowMean())
    rng = np.random.default_rng(data_seed)
    answered = 0
    t = 0.0
    i = 0
    for n_frames, dt in phases:
        for _ in range(n_frames):
            t += dt
            i += 1
            engine.submit("link", t, rng.normal(10.0, 3.0, size=5))
            if i % pump_every == 0:
                answered += len(engine.pump(max_frames=budget, now_s=t))
            assert engine.queue.max_batch == 8
    answered += len(engine.flush())

    stats = engine.link_stats("link")
    assert stats["frames_out"] == answered
    assert unaccounted(stats) == 0
    assert engine.queue.depth == 0


@_SETTINGS
@given(
    phases=_PHASES,
    bad_every=st.integers(min_value=5, max_value=11),
    data_seed=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_guarded_ledger_reconciles_with_quarantine_and_repair(
    phases, bad_every, data_seed
):
    """Quarantined frames never enter; repaired fills are answered or dropped."""
    rng = np.random.default_rng(data_seed)
    features = np.abs(rng.normal(size=(64, 5))) + 0.1
    config = ServeConfig(
        max_batch=8,
        max_latency_ms=30.0,
        queue_capacity=16,
        stale_after_s=0.5,
        guard=GuardPolicy(
            reference=ReferenceStats.fit(features),
            n_features=5,
            expected_interval_s=0.01,
            max_fill=4,
        ),
    )
    engine = InferenceEngine(RowMean(), config)
    answered = 0
    t = 0.0
    i = 0
    for n_frames, dt in phases:
        for _ in range(n_frames):
            t += dt
            i += 1
            row = np.abs(rng.normal(size=5)) + 0.1
            if i % bad_every == 0:
                row = row * 1e6  # far outside the amplitude envelope
            answered += len(engine.submit("link", t, row))
    answered += len(engine.flush())

    stats = engine.link_stats("link")
    assert stats["frames_out"] == answered
    assert unaccounted(stats) == 0
    assert stats["quarantined"] == len(engine.quarantine)
    assert engine.queue.depth == 0
