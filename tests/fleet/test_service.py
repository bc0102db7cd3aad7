"""Tests for the Fleet facade: isolation, accounting, labeled metrics."""

import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from repro.fastpath import InferencePlan
from repro.fleet import Fleet, PlanRegistry
from repro.guard.validation import AmplitudeRangeCheck, FrameValidator
from repro.nn.modules import Linear, ReLU, Sequential
from repro.obs import Observer
from repro.obs.exposition import render_prometheus
from repro.serve import FrameTicket, ServeConfig

N_IN = 8


def _plan(seed=0):
    rng = np.random.default_rng(seed)
    model = Sequential(Linear(N_IN, 6, rng=rng), ReLU(), Linear(6, 1, rng=rng))
    return InferencePlan.from_model(model)


def _row(rng):
    return np.abs(rng.normal(size=N_IN)) + 0.5


@pytest.fixture
def fleet():
    fleet = Fleet(ServeConfig(max_latency_ms=None))
    fleet.attach("room-a", _plan(seed=1))
    fleet.attach("room-b", _plan(seed=1))
    fleet.attach("room-c", _plan(seed=2))
    return fleet


class TestAttach:
    def test_accepts_plan_and_model(self):
        fleet = Fleet()
        fleet.attach("room-a", _plan())
        rng = np.random.default_rng(0)
        fleet.attach(
            "room-b", Sequential(Linear(N_IN, 4, rng=rng), ReLU(), Linear(4, 1, rng=rng))
        )
        assert fleet.tenant_ids == ("room-a", "room-b")
        assert fleet.metrics.gauge("fleet_tenants").value == 2

    def test_rejects_non_model(self):
        with pytest.raises(ConfigurationError):
            Fleet().attach("room-a", object())

    def test_rejects_duplicate_tenant(self):
        fleet = Fleet()
        fleet.attach("room-a", _plan())
        with pytest.raises(ConfigurationError):
            fleet.attach("room-a", _plan())

    def test_unknown_tenant_raises(self, fleet):
        with pytest.raises(ConfigurationError):
            fleet.submit("room-zz", 0.0, np.ones(N_IN))
        with pytest.raises(ConfigurationError):
            fleet.counters("room-zz")

    def test_prepopulated_registry_still_needs_attach(self):
        plans = PlanRegistry()
        plans.register("room-a", _plan())
        fleet = Fleet(plans=plans)
        with pytest.raises(ConfigurationError):
            fleet.submit("room-a", 0.0, np.ones(N_IN))


class TestSubmitAndTick:
    def test_round_trip_results_per_tenant(self, fleet):
        rng = np.random.default_rng(0)
        for i in range(6):
            for tenant in fleet.tenant_ids:
                ticket = fleet.submit(tenant, float(i), _row(rng))
                assert isinstance(ticket, FrameTicket)
                assert ticket.admitted
                assert ticket.tenant_id == tenant
                assert ticket.results == ()
        results = fleet.tick()
        assert len(results) == 18
        by_tenant = {}
        for r in results:
            by_tenant.setdefault(r.tenant_id, []).append(r)
        for tenant in fleet.tenant_ids:
            assert [r.t_s for r in by_tenant[tenant]] == [float(i) for i in range(6)]
            assert all(r.source == "primary" for r in by_tenant[tenant])
            assert all(0.0 <= r.probability <= 1.0 for r in by_tenant[tenant])

    def test_tick_without_pending_is_empty(self, fleet):
        assert fleet.tick() == []

    def test_malformed_row_rejected_with_ticket(self, fleet):
        ticket = fleet.submit("room-a", 0.0, np.full(N_IN, np.nan))
        assert ticket.outcome == "rejected"
        assert not ticket.admitted
        assert fleet.counters("room-a")["rejected"] == 1
        assert fleet.tick() == []

    def test_flush_is_tick(self, fleet):
        rng = np.random.default_rng(0)
        fleet.submit("room-a", 0.0, _row(rng))
        assert len(fleet.flush()) == 1

    def test_stale_frames_dropped(self):
        fleet = Fleet(ServeConfig(max_latency_ms=None, stale_after_s=5.0))
        fleet.attach("room-a", _plan())
        rng = np.random.default_rng(0)
        fleet.submit("room-a", 0.0, _row(rng))
        fleet.submit("room-a", 100.0, _row(rng))
        results = fleet.tick()
        assert len(results) == 1
        assert results[0].t_s == 100.0
        assert fleet.counters("room-a")["stale_dropped"] == 1

    def test_ring_overflow_counts_per_tenant(self):
        fleet = Fleet(ServeConfig(max_batch=2, queue_capacity=2, max_latency_ms=None))
        fleet.attach("room-a", _plan())
        fleet.attach("room-b", _plan())
        rng = np.random.default_rng(0)
        for i in range(4):
            fleet.submit("room-a", float(i), _row(rng))
        fleet.submit("room-b", 0.0, _row(rng))
        assert fleet.counters("room-a")["overflow"] == 2
        assert fleet.counters("room-b")["overflow"] == 0
        assert len(fleet.tick()) == 3


class TestIsolation:
    def test_debouncer_state_is_per_tenant(self, fleet):
        # Saturate room-a towards occupied while room-b sees nothing.
        rng = np.random.default_rng(0)
        for i in range(20):
            fleet.submit("room-a", float(i), _row(rng))
        fleet.tick()
        assert fleet.state("room-b") in (0, 1)
        assert fleet.health("room-b").name == "IDLE"
        assert fleet.health("room-a").name != "IDLE"

    def test_validator_quarantines_only_offending_tenant(self):
        validator = FrameValidator([AmplitudeRangeCheck(0.0, 10.0)])
        fleet = Fleet(ServeConfig(max_latency_ms=None, validator=validator))
        fleet.attach("room-a", _plan())
        fleet.attach("room-b", _plan())
        ticket = fleet.submit("room-a", 0.0, np.full(N_IN, 99.0))
        assert ticket.outcome == "quarantined"
        ok = fleet.submit("room-b", 0.0, np.ones(N_IN))
        assert ok.outcome == "enqueued"
        assert fleet.counters("room-a")["quarantined"] == 1
        assert fleet.counters("room-b")["quarantined"] == 0

    def test_scheduler_failure_sheds_only_that_tick(self, fleet, monkeypatch):
        rng = np.random.default_rng(0)
        fleet.submit("room-a", 0.0, _row(rng))
        fleet.submit("room-b", 0.0, _row(rng))
        monkeypatch.setattr(
            fleet.scheduler, "run_tick", lambda batches: 1 / 0
        )
        assert fleet.tick() == []
        assert fleet.counters("room-a")["policy_rejected"] == 1
        assert fleet.counters("room-b")["policy_rejected"] == 1
        assert fleet.metrics.counter("fleet_tick_failures").value == 1
        monkeypatch.undo()
        fleet.submit("room-a", 1.0, _row(rng))
        assert len(fleet.tick()) == 1


class TestObserversAndMetrics:
    def test_untraced_ledger_is_empty(self, fleet):
        assert fleet.ledger("room-a") == {}

    def test_per_tenant_ledgers_reconcile(self):
        fleet = Fleet(
            ServeConfig(max_latency_ms=None), observer_factory=lambda: Observer()
        )
        fleet.attach("room-a", _plan(seed=1))
        fleet.attach("room-b", _plan(seed=1))
        rng = np.random.default_rng(0)
        for i in range(7):
            fleet.submit("room-a", float(i), _row(rng))
        for i in range(3):
            fleet.submit("room-b", float(i), _row(rng))
        fleet.submit("room-b", 3.0, np.full(N_IN, np.inf))
        fleet.tick()
        a, b = fleet.ledger("room-a"), fleet.ledger("room-b")
        assert a["submitted"] == 7 and a["answered"] == 7
        assert b["submitted"] == 4 and b["answered"] == 3 and b["rejected"] == 1
        for ledger in (a, b):
            assert ledger["unaccounted"] == 0
            assert ledger["pending"] == 0

    def test_labeled_rollups_and_fusion_metrics(self, fleet):
        rng = np.random.default_rng(0)
        for i in range(4):
            for tenant in fleet.tenant_ids:
                fleet.submit(tenant, float(i), _row(rng))
        fleet.tick()
        metrics = fleet.metrics
        for tenant in fleet.tenant_ids:
            assert metrics.counter(f"fleet_frames_total{{tenant={tenant}}}").value == 4
            assert (
                metrics.counter(f"fleet_frames_out_total{{tenant={tenant}}}").value == 4
            )
        # room-a and room-b share a plan (fused); room-c is odd-one-out.
        assert metrics.counter("fleet_fused_frames_total").value == 8
        assert metrics.counter("fleet_unfused_frames_total").value == 4
        assert metrics.counter("fleet_fused_groups_total").value == 1
        assert metrics.counter("fleet_unfused_groups_total").value == 1
        assert metrics.gauge("fleet_fusion_ratio").value == pytest.approx(8 / 12)
        assert metrics.gauge("fleet_pending").value == 0

    def test_prometheus_renders_tenant_labels(self, fleet):
        rng = np.random.default_rng(0)
        fleet.submit("room-a", 0.0, _row(rng))
        fleet.tick()
        text = render_prometheus(fleet.metrics)
        assert "# TYPE repro_fleet_frames_total counter" in text
        assert 'repro_fleet_frames_total{tenant="room-a"} 1.0' in text


class TestOverloadPlane:
    """The fleet half of the overload control plane."""

    def test_rate_limited_ticket_and_tallies(self):
        fleet = Fleet(ServeConfig(max_latency_ms=None, rate_limit_hz=1.0,
                                  rate_limit_burst=1.0))
        fleet.attach("room-a", _plan())
        fleet.attach("room-b", _plan())
        rng = np.random.default_rng(0)
        assert fleet.submit("room-a", 0.0, _row(rng)).outcome == "enqueued"
        ticket = fleet.submit("room-a", 0.0, _row(rng))
        assert ticket.outcome == "rate_limited"
        assert not ticket.admitted
        assert fleet.counters("room-a")["rate_limited"] == 1
        # The bucket is per tenant; room-b still holds its burst token.
        assert fleet.submit("room-b", 0.0, _row(rng)).outcome == "enqueued"
        assert fleet.metrics.counter("fleet_frames_rate_limited").value == 1
        # Stream time refills: one second later the tenant is admitted.
        assert fleet.submit("room-a", 1.0, _row(rng)).outcome == "enqueued"
        assert len(fleet.flush()) == 3

    def test_expired_frames_shed_at_tick(self):
        fleet = Fleet(ServeConfig(max_latency_ms=None, deadline_ms=1000.0),
                      observer_factory=Observer)
        fleet.attach("room-a", _plan())
        rng = np.random.default_rng(0)
        fleet.submit("room-a", 0.0, _row(rng))
        fleet.submit("room-a", 5.0, _row(rng))
        results = fleet.tick(5.0)
        assert [r.t_s for r in results] == [5.0]
        assert fleet.counters("room-a")["deadline_expired"] == 1
        ledger = fleet.ledger("room-a")
        assert ledger["deadline_expired"] == 1 and ledger["pending"] == 0

    def test_mode_is_full_when_ungoverned(self, fleet):
        from repro.overload.governor import ServiceMode

        assert fleet.mode is ServiceMode.FULL

    def test_shed_mode_drops_every_pending_frame(self):
        from repro.overload.governor import OverloadPolicy, ServiceMode

        fleet = Fleet(ServeConfig(
            max_batch=8, max_latency_ms=None, queue_capacity=8,
            overload=OverloadPolicy(fastpath_at=0.001, fallback_at=0.002,
                                    shed_at=0.003, alpha=1.0, hold_ticks=1,
                                    jitter=0.0),
        ), observer_factory=Observer)
        fleet.attach("room-a", _plan())
        rng = np.random.default_rng(0)
        for i in range(4):
            fleet.submit("room-a", float(i), _row(rng))
        assert fleet.tick() == []
        assert fleet.mode is ServiceMode.SHED
        assert fleet.counters("room-a")["overload_shed"] == 4
        assert fleet.ledger("room-a")["pending"] == 0

    def test_fallback_only_quota_leaves_rest_ringed(self):
        from repro.overload.governor import OverloadPolicy, ServiceMode

        fleet = Fleet(ServeConfig(
            max_batch=8, max_latency_ms=None, queue_capacity=8,
            overload=OverloadPolicy(fastpath_at=0.001, fallback_at=0.002,
                                    shed_at=10.0, alpha=1.0, hold_ticks=1,
                                    jitter=0.0, degraded_quota=1),
        ), observer_factory=Observer)
        fleet.attach("room-a", _plan())
        rng = np.random.default_rng(0)
        for i in range(4):
            fleet.submit("room-a", float(i), _row(rng))
        served = fleet.tick()
        assert fleet.mode is ServiceMode.FALLBACK_ONLY
        # The degraded quota serves exactly one frame; the rest stay
        # ringed for later ticks rather than being dropped.
        assert len(served) == 1
        assert fleet.ledger("room-a")["pending"] == 3

    def test_flush_loops_until_rings_are_empty(self):
        from repro.overload.governor import OverloadPolicy

        fleet = Fleet(ServeConfig(
            max_batch=8, max_latency_ms=None, queue_capacity=8,
            overload=OverloadPolicy(fastpath_at=0.001, fallback_at=0.002,
                                    shed_at=10.0, alpha=1.0, hold_ticks=1,
                                    jitter=0.0, degraded_quota=1),
        ), observer_factory=Observer)
        fleet.attach("room-a", _plan())
        rng = np.random.default_rng(0)
        for i in range(5):
            fleet.submit("room-a", float(i), _row(rng))
        # Shutdown must close the ledger even though each degraded tick
        # only drains one frame per tenant.
        served = fleet.flush()
        ledger = fleet.ledger("room-a")
        assert ledger["pending"] == 0
        assert len(served) + ledger["shed"] + ledger["deadline_expired"] == 5

    def test_labeled_overflow_rollup(self):
        fleet = Fleet(ServeConfig(max_batch=2, queue_capacity=2,
                                  max_latency_ms=None))
        fleet.attach("room-a", _plan())
        fleet.attach("room-b", _plan())
        rng = np.random.default_rng(0)
        for i in range(4):
            fleet.submit("room-a", float(i), _row(rng))
        fleet.submit("room-b", 0.0, _row(rng))
        metrics = fleet.metrics
        assert metrics.counter("fleet_frames_overflow_total{tenant=room-a}").value == 2
        text = render_prometheus(metrics)
        assert 'repro_fleet_frames_overflow_total{tenant="room-a"} 2.0' in text
