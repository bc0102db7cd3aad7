"""Property test: the frame ledger balances under randomized burst load.

For any burst schedule — random per-tenant rates, random burst timing,
random service cadence, overload plane on or off — every submitted frame
must end in exactly one typed terminal outcome once the surface is
flushed at shutdown:

    submitted + fills == answered + rejected + quarantined
                       + policy_rejected + stale + overflow
                       + rate_limited + deadline_expired + shed

and the serving surface's own per-tenant :class:`~repro.ledger.FrameLedger`
must close and agree with the observer's event-side ledger cause by cause
(:func:`repro.ledger.mismatches`).  Both serving surfaces
(engine and fleet) are driven through the same randomized schedules.
"""

import numpy as np
import pytest

from repro.fastpath.plan import InferencePlan
from repro.fleet.service import Fleet
from repro.ledger import OUTCOMES, mismatches, total, unaccounted
from repro.nn.modules import Linear, ReLU, Sequential
from repro.obs.observer import Observer
from repro.overload.governor import OverloadPolicy, ServiceMode
from repro.serve.config import ServeConfig
from repro.serve.engine import InferenceEngine

N_INPUTS = 8
SEEDS = [0, 1, 2, 3, 4, 5]



def make_plan(rng):
    return InferencePlan.from_model(
        Sequential(Linear(N_INPUTS, 8, rng=rng), ReLU(), Linear(8, 1, rng=rng))
    )


def random_schedule(rng):
    """(t_s, tenant, row) arrivals with random bursts, plus pump times."""
    tenants = [f"t{i}" for i in range(int(rng.integers(1, 4)))]
    arrivals = []
    t = 0.0
    for _ in range(int(rng.integers(50, 250))):
        t += float(rng.exponential(0.05))
        tenant = tenants[int(rng.integers(len(tenants)))]
        if rng.random() < 0.3:  # burst: several frames at ~the same instant
            for k in range(int(rng.integers(2, 8))):
                arrivals.append((t + k * 1e-3, tenant))
        else:
            arrivals.append((t, tenant))
    arrivals.sort()
    return arrivals


def random_config(rng, observer):
    """A ServeConfig with the overload plane randomly on or off."""
    kwargs = dict(
        max_batch=4,
        max_latency_ms=None,
        queue_capacity=int(rng.integers(8, 33)),
        auto_flush=False,
        observer=observer,
    )
    if rng.random() < 0.7:
        kwargs["rate_limit_hz"] = float(rng.uniform(2.0, 20.0))
    if rng.random() < 0.7:
        kwargs["deadline_ms"] = float(rng.uniform(200.0, 3000.0))
    if rng.random() < 0.5:
        kwargs["queue_credit"] = int(rng.integers(2, kwargs["queue_capacity"] + 1))
    if rng.random() < 0.7:
        kwargs["overload"] = OverloadPolicy(
            fastpath_at=0.3, fallback_at=0.5, shed_at=0.7,
            alpha=1.0, hold_ticks=1, probe_cooldown_s=0.5,
            seed=int(rng.integers(1000)),
        )
    return ServeConfig(**kwargs)


def assert_ledger_balances(ledger):
    assert ledger["unaccounted"] == 0
    assert ledger["pending"] == 0
    total_in = ledger["submitted"] + ledger["fills"]
    total_out = sum(ledger[outcome] for outcome in OUTCOMES)
    assert total_in == total_out


class TestEngineLedgerProperty:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_admitted_equals_served_plus_shed_by_cause(self, seed):
        rng = np.random.default_rng(seed)
        observer = Observer(trace_capacity=64, event_capacity=64)
        config = random_config(rng, observer)
        plan = make_plan(rng)
        engine = InferenceEngine(plan, config)
        engine.attach_fastpath(plan)

        for t, tenant in random_schedule(rng):
            engine.submit_frame(tenant, t, rng.normal(size=N_INPUTS))
            if rng.random() < 0.3:  # random finite-capacity service cadence
                engine.pump(int(rng.integers(1, 6)))
        engine.flush()  # shutdown: nothing may stay pending

        ledger = observer.ledger()
        assert_ledger_balances(ledger)
        # The engine-side tallies agree with the event ledger per cause.
        stats = total(engine.link_stats(link) for link in engine.link_ids)
        assert unaccounted(stats) == 0
        assert mismatches(stats, ledger) == {}


class TestFleetLedgerProperty:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_admitted_equals_served_plus_shed_by_cause(self, seed):
        rng = np.random.default_rng(seed)
        observers = {}

        def factory():
            observer = Observer(
                label=f"t{len(observers)}", trace_capacity=64, event_capacity=64
            )
            observers[observer.label] = observer
            return observer

        config = random_config(rng, None)
        plan = make_plan(rng)
        fleet = Fleet(config, observer_factory=factory)
        schedule = random_schedule(rng)
        for tenant in sorted({tenant for _, tenant in schedule}):
            fleet.attach(tenant, plan)

        for t, tenant in schedule:
            fleet.submit(tenant, t, rng.normal(size=N_INPUTS))
            if rng.random() < 0.2:
                fleet.tick(t)
        fleet.flush()  # shutdown: nothing may stay ringed

        for tenant in fleet.tenant_ids:
            ledger = fleet.ledger(tenant)
            assert_ledger_balances(ledger)
            counters = fleet.counters(tenant)
            assert unaccounted(counters) == 0
            assert mismatches(counters, ledger) == {}, tenant

    @pytest.mark.parametrize("seed", SEEDS)
    def test_ledger_balances_under_churn(self, seed):
        """The per-cause ledger identity survives random tenant churn.

        Same randomized burst traffic and overload plane as above, but
        tenants now detach mid-run (draining their rings), re-attach as
        fresh incarnations, and hot-swap plans — every incarnation's
        observer must still close exactly, and every detach must be
        drain-exact.
        """
        rng = np.random.default_rng(seed + 100)
        observers = {}  # tenant -> [observer per incarnation, in order]
        attach_label = []

        def factory():
            observer = Observer(trace_capacity=64, event_capacity=64)
            observers.setdefault(attach_label[-1], []).append(observer)
            return observer

        def attach(tenant):
            attach_label.append(tenant)
            fleet.attach(tenant, plan)

        config = random_config(rng, None)
        plan = make_plan(rng)
        fleet = Fleet(config, observer_factory=factory, rebalance_skew=1.5)
        schedule = random_schedule(rng)
        for tenant in sorted({tenant for _, tenant in schedule}):
            attach(tenant)

        detach_reports = []  # (tenant, final counters) in detach order
        for t, tenant in schedule:
            if tenant not in fleet.tenant_ids:
                if rng.random() < 0.5:
                    attach(tenant)  # re-attach: a fresh incarnation
                else:
                    continue
            fleet.submit(tenant, t, rng.normal(size=N_INPUTS))
            if rng.random() < 0.2:
                fleet.tick(t)
            churn = rng.random()
            if churn < 0.05 and len(fleet.tenant_ids) > 1:
                live = fleet.tenant_ids
                victim = live[int(rng.integers(len(live)))]
                detach_reports.append((victim, fleet.detach(victim, now_s=t)))
                fleet.take_drained()
            elif churn < 0.08:
                live = fleet.tenant_ids
                target = live[int(rng.integers(len(live)))]
                fleet.replace_plan(target, make_plan(rng), now_s=t)
                fleet.take_drained()
        fleet.flush()
        for tenant in list(fleet.tenant_ids):
            detach_reports.append((tenant, fleet.detach(tenant)))
        fleet.take_drained()

        # Every incarnation of every tenant closes its ledger exactly.
        for tenant, incarnations in observers.items():
            for observer in incarnations:
                assert_ledger_balances(observer.ledger())
        # Every detach was drain-exact, and its archived counters agree
        # with that incarnation's observer cause by cause.
        per_tenant_reports = {}
        for tenant, report in detach_reports:
            per_tenant_reports.setdefault(tenant, []).append(report)
        for tenant, reports in per_tenant_reports.items():
            assert len(reports) == len(observers[tenant])
            for report, observer in zip(reports, observers[tenant]):
                assert report["drained"] == (
                    report["drain_served"] + report["drain_shed"]
                )
                assert unaccounted(report) == 0
                assert mismatches(report, observer.ledger()) == {}, tenant

    def test_churn_burst_during_governor_degradation_reconciles(self):
        """Detaching while the saturation governor is shedding still
        reconciles every per-cause count exactly: drained frames land in
        ``overload_shed``, never vanish."""
        observers = {}
        attach_label = []

        def factory():
            observer = Observer(trace_capacity=64, event_capacity=64)
            observers.setdefault(attach_label[-1], []).append(observer)
            return observer

        def attach(tenant):
            attach_label.append(tenant)
            fleet.attach(tenant, plan)

        config = ServeConfig(
            max_batch=4,
            max_latency_ms=None,
            queue_capacity=8,
            auto_flush=False,
            overload=OverloadPolicy(
                fastpath_at=0.01, fallback_at=0.02, shed_at=0.05,
                alpha=1.0, hold_ticks=5, probe_cooldown_s=60.0, seed=0,
            ),
        )
        rng = np.random.default_rng(0)
        plan = make_plan(rng)
        fleet = Fleet(config, observer_factory=factory)
        for tenant in ("t0", "t1", "t2"):
            attach(tenant)

        # Flood every ring without serving: saturation rockets past the
        # shed threshold on the next tick.
        for i in range(8):
            for tenant in ("t0", "t1", "t2"):
                fleet.submit(tenant, i * 0.01, rng.normal(size=N_INPUTS))
        assert fleet.tick(0.1) == []  # governor shed the whole tick
        assert fleet.mode is ServiceMode.SHED

        # Churn burst while degraded: refill one ring and detach it.
        for i in range(4):
            fleet.submit("t1", 0.2 + i * 0.01, rng.normal(size=N_INPUTS))
        report = fleet.detach("t1", now_s=0.3)
        fleet.take_drained()
        # The drain ran under SHED: everything pending was shed, counted.
        assert report["drained"] == 4
        assert report["drain_served"] == 0
        assert report["drain_shed"] == 4
        assert report["overload_shed"] >= 4

        fleet.flush()
        for tenant in list(fleet.tenant_ids):
            fleet.detach(tenant)
        fleet.take_drained()
        for tenant, incarnations in observers.items():
            for observer in incarnations:
                ledger = observer.ledger()
                assert_ledger_balances(ledger)
        assert mismatches(report, observers["t1"][0].ledger()) == {}
