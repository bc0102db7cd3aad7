"""Golden-trace determinism: same-seed replays dump identical event logs.

The event log stamps stream time only, so two chaos replays with the same
seed must produce byte-for-byte equal ``EventLog.to_jsonl()`` dumps per
scenario — the observability layer extends the fault layer's
byte-identical stream guarantee all the way to the postmortem artifact.
The same runs also cross-check the obs-side frame ledger against the
bench's independently counted result legs, frame for frame.
"""

import numpy as np
import pytest

from repro.config import BehaviorConfig, CampaignConfig
from repro.data.recording import CollectionCampaign
from repro.fastpath.plan import InferencePlan
from repro.faults.bench import default_scenario_suite, run_chaos_bench
from repro.fleet import Fleet, PlanRegistry
from repro.guard import GuardPolicy, ReferenceStats
from repro.guard.bench import run_guard_bench
from repro.guard.drift import DriftState
from repro.nn.modules import Linear, Sequential
from repro.obs import Observer, build_dump
from repro.rollout import RolloutManager, RolloutState, SequentialComparison
from repro.serve import ServeConfig
from repro.serve.engine import InferenceEngine


class ConstantEstimator:
    def __init__(self, p: float = 0.9) -> None:
        self.p = p

    def predict_proba(self, x: np.ndarray) -> np.ndarray:
        return np.full(np.asarray(x).shape[0], self.p)


@pytest.fixture(scope="module")
def trace_dataset():
    config = CampaignConfig(
        duration_h=1.0,
        sample_rate_hz=0.2,
        seed=41,
        behavior=BehaviorConfig(mean_stay_h=0.5, mean_gap_h=0.5),
    )
    return CollectionCampaign(config).run()


def _scenarios(dataset, names, include_env=False):
    t = dataset.timestamps_s
    suite = default_scenario_suite(
        float(t[0]), float(t[-1]), n_csi=dataset.n_subcarriers,
        include_env=include_env,
    )
    return [s for s in suite if s.name in names]


def _chaos(dataset, seed=5):
    return run_chaos_bench(
        ConstantEstimator(),
        dataset,
        _scenarios(dataset, {"baseline", "clock-chaos", "model-crash"}),
        n_links=2,
        max_batch=16,
        seed=seed,
        observer_factory=lambda name: Observer(label=name),
    )


class TestGoldenTrace:
    def test_same_seed_replays_dump_identical_event_logs(self, trace_dataset):
        first = _chaos(trace_dataset)
        second = _chaos(trace_dataset)
        assert set(first.observers) == set(second.observers)
        for name, obs_a in first.observers.items():
            obs_b = second.observers[name]
            jsonl_a = obs_a.events.to_jsonl()
            assert jsonl_a, f"{name}: empty event log"
            assert jsonl_a.encode() == obs_b.events.to_jsonl().encode(), (
                f"{name}: same-seed replays diverged"
            )

    def test_different_seed_changes_the_faulted_trace(self, trace_dataset):
        # Sanity check that the golden comparison has teeth: reseeding the
        # fault schedule must move the clock-chaos event stream.
        a = _chaos(trace_dataset, seed=5).observers["clock-chaos"]
        b = _chaos(trace_dataset, seed=6).observers["clock-chaos"]
        assert a.events.to_jsonl() != b.events.to_jsonl()

    def test_observer_ledger_reconciles_with_bench_counters(self, trace_dataset):
        report = _chaos(trace_dataset)
        for result in report.results:
            ledger = report.observers[result.name].ledger()
            assert ledger["unaccounted"] == 0, result.name
            assert ledger["pending"] == 0, result.name
            assert ledger["submitted"] == result.n_submitted
            assert ledger["fills"] == result.n_repaired
            assert ledger["answered"] == result.n_answered + result.n_answered_repaired
            assert ledger["rejected"] == result.n_rejected
            assert ledger["quarantined"] == result.n_quarantined
            assert ledger["policy_rejected"] == result.n_policy_rejected
            assert ledger["stale"] == result.n_stale
            assert ledger["overflow"] == result.n_overflow

    def test_answered_event_ids_are_unique_and_complete(self, trace_dataset):
        report = _chaos(trace_dataset)
        for name, obs in report.observers.items():
            result = report.result(name)
            answered = [e for e in obs.events if e.kind == "frame.answered"]
            ids = [e.frame_id for e in answered]
            # Event log capacity exceeds this campaign, so nothing evicted:
            # every answered frame appears exactly once, under its own id.
            assert len(ids) == len(set(ids))
            assert len(ids) == result.n_answered + result.n_answered_repaired


class TestGoldenTraceGuarded:
    def test_guarded_replay_is_deterministic_and_reconciles(self, trace_dataset):
        features = np.hstack([trace_dataset.csi, trace_dataset.environment])
        n_csi = trace_dataset.n_subcarriers
        policy = GuardPolicy(
            reference=ReferenceStats.fit(features),
            n_features=n_csi + 2,
            env_slice=slice(n_csi, n_csi + 2),
            seed=3,
        )
        scenarios = _scenarios(
            trace_dataset, {"baseline", "sensor-dropout"}, include_env=True
        )

        def run():
            return run_guard_bench(
                ConstantEstimator(),
                trace_dataset,
                policy,
                scenarios=scenarios,
                n_links=2,
                max_batch=16,
                seed=5,
                observer_factory=lambda name: Observer(label=name),
            )

        first, second = run(), run()
        assert first.baseline.observers == {}  # off-leg stays untraced
        assert set(first.guarded.observers) == {"baseline", "sensor-dropout"}
        for name, obs in first.guarded.observers.items():
            twin = second.guarded.observers[name]
            assert obs.events.to_jsonl() == twin.events.to_jsonl()
            ledger = obs.ledger()
            result = first.guarded.result(name)
            assert ledger["unaccounted"] == 0 and ledger["pending"] == 0
            assert ledger["submitted"] == result.n_submitted
            assert ledger["quarantined"] == result.n_quarantined

        # The deterministic halves of the dump match too (events + ledger);
        # wall-clock stages are explicitly outside the guarantee.
        dump_a = build_dump(first.guarded.observers)
        dump_b = build_dump(second.guarded.observers)
        for run_a, run_b in zip(dump_a["runs"], dump_b["runs"]):
            assert run_a["events"] == run_b["events"]
            assert run_a["ledger"] == run_b["ledger"]
            assert run_a["events_by_kind"] == run_b["events_by_kind"]


class _TrippedSentinel:
    """Drift oracle pinned at TRIP: arms the trigger on the first frame."""

    def __init__(self):
        self.state = DriftState.TRIP
        self.reference = None

    def reset(self):
        pass


class _PrebuiltTrigger:
    """Trigger stub that hands back a prebuilt challenger plan."""

    def __init__(self, challenger, min_frames=4):
        self.challenger = challenger
        self.min_frames = min_frames
        self._rows = []
        self._armed = True

    @property
    def buffered(self):
        return len(self._rows)

    def buffered_rows(self):
        return np.stack(self._rows)

    def record(self, rows, labels):
        for row in np.atleast_2d(rows):
            self._rows.append(np.array(row, copy=True))

    def observe_state(self, state):
        fired = state is DriftState.TRIP and self._armed
        self._armed = state is DriftState.OK
        return fired

    def clear(self):
        self._rows.clear()

    def retrain(self, *, version=0, label=None):
        self.challenger.version = version
        self.challenger.label = label
        return self.challenger


class TestGoldenTracePromotion:
    """Same-seed promotion cycles dump byte-identical event logs.

    The rollout machinery stamps stream time only (frame ``t_s``), like
    every other event source, so a full drift → shadow → promote → seal
    cycle must replay byte-for-byte — including the ``rollout.*`` events
    interleaved with the frame life cycle.
    """

    N_IN = 4

    def _plan(self, *, negate=False):
        rng = np.random.default_rng(11)
        model = Sequential(Linear(self.N_IN, 1, rng=rng))
        if negate:
            for p in model.parameters():
                p.data[:] = -p.data
        return InferencePlan.from_model(model, version=0, label="champion")

    def _cycle(self, seed):
        champion = self._plan()
        engine = InferenceEngine(
            champion,
            ServeConfig(
                max_batch=4,
                max_latency_ms=None,
                stale_after_s=None,
                observer=Observer(label="engine"),
            ),
        )
        label_rng = np.random.default_rng(seed)

        def label_fn(frame):
            # Champion right 20% of the time; its negated twin wins the
            # rest.  Seed-dependent correctness makes the comparison's
            # stopping frame — and hence the trace — depend on the seed.
            p = float(champion.predict_proba(frame.csi[None, :])[0])
            vote = int(p >= 0.5)
            return vote if label_rng.random() < 0.2 else 1 - vote

        manager = RolloutManager.for_engine(
            engine,
            _PrebuiltTrigger(self._plan(negate=True)),
            label_fn=label_fn,
            comparison_factory=lambda: SequentialComparison(
                min_frames=8, max_frames=256
            ),
            guard_frames=8,
            refresh_reference=False,
        )
        manager.sentinel = _TrippedSentinel()

        frame_rng = np.random.default_rng(77)  # traffic is arm-invariant
        for i in range(200):
            engine.submit_frame("room", i * 0.5, frame_rng.random(self.N_IN))
            if manager.promotions and manager.state is RolloutState.IDLE:
                break
        engine.flush()
        assert manager.promotions == 1
        return engine.observer.events.to_jsonl()

    def test_same_seed_promotion_cycles_are_byte_identical(self):
        first = self._cycle(seed=5)
        assert "rollout.shadow_start" in first
        assert "rollout.promoted" in first
        assert first.encode() == self._cycle(seed=5).encode()

    def test_different_seed_moves_the_promotion_trace(self):
        # Teeth check: reseeding the labelled stream shifts the sequential
        # comparison's stopping time, so the trace must move.
        assert self._cycle(seed=5) != self._cycle(seed=6)


class TestGoldenTraceChurn:
    """A seeded fleet churn episode replays byte-for-byte.

    Lifecycle events (``fleet.attach`` / ``fleet.plan_swap`` /
    ``fleet.rebalance`` / ``fleet.detach``) are stream-time stamped like
    every other event source, so a full attach → serve → hot-swap →
    detach episode — drain ticks, shard migrations and all — must dump
    identical per-tenant event logs across runs of the same seed.
    """

    N_IN = 6

    def _plan(self, seed):
        rng = np.random.default_rng(seed)
        return InferencePlan.from_model(Sequential(Linear(self.N_IN, 1, rng=rng)))

    def _episode(self, seed):
        observers = {}
        attach_label = []

        def factory():
            observer = Observer(label=attach_label[-1])
            observers.setdefault(attach_label[-1], []).append(observer)
            return observer

        fleet = Fleet(
            ServeConfig(max_batch=8, max_latency_ms=None, stale_after_s=None),
            plans=PlanRegistry(n_shards=4),
            observer_factory=factory,
            rebalance_skew=1.0,
        )
        rng = np.random.default_rng(seed)

        def attach(tenant, t_s):
            attach_label.append(tenant)
            fleet.attach(tenant, self._plan(1), now_s=t_s)

        for tenant in ("room-a", "room-b", "room-c"):
            attach(tenant, 0.0)
        # Serve: the per-tick frame count is seed-drawn, so reseeding
        # genuinely moves the trace (the teeth check below relies on it).
        for i in range(8):
            t_s = float(i)
            for tenant in fleet.tenant_ids:
                for _ in range(int(rng.integers(1, 4))):
                    fleet.submit(tenant, t_s, rng.random(self.N_IN))
            fleet.tick(t_s + 0.5)
        # Hot-swap with a frame in flight: the cutover tick drains first.
        fleet.submit("room-b", 8.0, rng.random(self.N_IN))
        fleet.replace_plan("room-b", self._plan(2), now_s=8.0)
        fleet.take_drained()
        # Detach with a frame in flight: the drain tick serves it.
        fleet.submit("room-a", 9.0, rng.random(self.N_IN))
        fleet.detach("room-a", now_s=9.0)
        fleet.take_drained()
        # A late joiner (plus re-attach of a detached id) and final seal.
        attach("room-d", 10.0)
        attach("room-a", 10.5)
        for i in range(3):
            t_s = 11.0 + i
            for tenant in fleet.tenant_ids:
                fleet.submit(tenant, t_s, rng.random(self.N_IN))
            fleet.tick(t_s + 0.5)
        for tenant in list(fleet.tenant_ids):
            fleet.detach(tenant, now_s=15.0)
        fleet.take_drained()
        return {
            tenant: [observer.events.to_jsonl() for observer in incarnations]
            for tenant, incarnations in observers.items()
        }

    def test_same_seed_churn_episodes_are_byte_identical(self):
        first = self._episode(seed=5)
        second = self._episode(seed=5)
        assert set(first) == {"room-a", "room-b", "room-c", "room-d"}
        assert len(first["room-a"]) == 2  # detached + re-attached incarnations
        for tenant, dumps in first.items():
            for dump_a, dump_b in zip(dumps, second[tenant]):
                assert dump_a, f"{tenant}: empty event log"
                assert dump_a.encode() == dump_b.encode(), (
                    f"{tenant}: same-seed churn episodes diverged"
                )
        joined = "\n".join(dump for dumps in first.values() for dump in dumps)
        for kind in ("fleet.attach", "fleet.plan_swap", "fleet.detach"):
            assert kind in joined

    def test_different_seed_moves_the_churn_trace(self):
        a = self._episode(seed=5)
        b = self._episode(seed=6)
        assert any(a[tenant] != b[tenant] for tenant in a)
