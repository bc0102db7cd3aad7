"""Stateful model-based churn harness: the fleet under random elasticity.

A Hypothesis :class:`~hypothesis.stateful.RuleBasedStateMachine` drives
random interleavings of ``attach`` / ``detach`` / ``replace_plan`` /
``submit`` / ``tick`` / ``flush`` against **three** systems at once:

* a fused :class:`~repro.fleet.Fleet` (cross-tenant batch fusion on),
* an unfused :class:`~repro.fleet.Fleet` (singleton dispatch — the
  numeric reference), and
* a pure-Python oracle that models only the accounting contract
  (rings, overflow eviction, serve counts, lifecycle).

After every rule the machine asserts the elasticity invariants the
design document promises:

* **byte identity** — every probability the fused fleet ever emits
  (normal ticks, flushes, and the lifecycle-internal drain ticks of
  ``detach``/``replace_plan``) equals the unfused fleet's bit for bit,
  in the same global order with the same frame ids;
* **ledger identity** — per-tenant counters match between arms and
  match the oracle exactly (``frames_in``/``frames_out``/overflow), and
  each tenant's observer ledger reconciles with ``pending`` equal to
  the oracle's ring depth at every step;
* **no post-detach serves** — no result is ever attributed to a tenant
  after its detach sealed the ledger;
* **drain exactness** — every detach reports
  ``drained == drain_served + drain_shed`` and (with no shedding guards
  configured here) ``drain_shed == 0``, with the final archived ledgers
  byte-equal between arms.
"""

from __future__ import annotations

import numpy as np
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

from repro.fastpath.plan import InferencePlan
from repro.fleet import Fleet, PlanRegistry, TenantLifecycle
from repro.nn.modules import Linear, ReLU, Sequential
from repro.obs.observer import Observer
from repro.serve.config import ServeConfig

N_INPUTS = 8
QUEUE_CAPACITY = 4
TENANTS = ("alpha", "beta", "gamma", "delta")


def _plan(seed: int) -> InferencePlan:
    rng = np.random.default_rng(seed)
    return InferencePlan.from_model(
        Sequential(Linear(N_INPUTS, 6, rng=rng), ReLU(), Linear(6, 1, rng=rng))
    )


PLANS = tuple(_plan(seed) for seed in (11, 22, 33))
ROWS = tuple(
    np.ascontiguousarray(row)
    for row in np.random.default_rng(99).standard_normal((8, N_INPUTS))
)


class _OracleTenant:
    """What the pure-Python model tracks per attached tenant."""

    def __init__(self) -> None:
        self.ring: list[int] = []  # pending frame ids, FIFO
        self.submitted = 0
        self.served = 0
        self.overflowed = 0


class ChurnMachine(RuleBasedStateMachine):
    def __init__(self) -> None:
        super().__init__()
        self.fused_observers: dict[str, Observer] = {}
        self.unfused_observers: dict[str, Observer] = {}
        self._attach_label: list[str] = []

        def make_factory(store: dict[str, Observer]):
            def factory() -> Observer:
                observer = Observer()
                store[self._attach_label[-1]] = observer
                return observer

            return factory

        def make_fleet(fusion_enabled: bool, store: dict[str, Observer]) -> Fleet:
            return Fleet(
                ServeConfig(
                    max_batch=QUEUE_CAPACITY,
                    max_latency_ms=None,
                    queue_capacity=QUEUE_CAPACITY,
                ),
                plans=PlanRegistry(n_shards=3),
                tile=4,
                fusion_enabled=fusion_enabled,
                observer_factory=make_factory(store),
                rebalance_skew=1.25,
            )

        self.fused = make_fleet(True, self.fused_observers)
        self.unfused = make_fleet(False, self.unfused_observers)
        self.oracle: dict[str, _OracleTenant] = {}
        self.detached: set[str] = set()
        self.t = 0.0

    # ------------------------------------------------------------ helpers

    def _advance(self) -> float:
        self.t += 0.5
        return self.t

    def _check_results(self, fused_results, unfused_results) -> None:
        """Byte identity + oracle accounting for one batch of results."""
        assert len(fused_results) == len(unfused_results)
        for a, b in zip(fused_results, unfused_results):
            assert a.tenant_id == b.tenant_id
            assert a.frame_id == b.frame_id
            # The core elasticity promise: fusion never changes a bit.
            assert a.probability == b.probability
            assert a.state == b.state
            assert a.tenant_id not in self.detached, (
                f"frame {a.frame_id} served after tenant {a.tenant_id} detached"
            )
            tenant = self.oracle.get(a.tenant_id)
            assert tenant is not None
            assert tenant.ring and tenant.ring[0] == a.frame_id, (
                "serve order broke FIFO within a tenant ring"
            )
            tenant.ring.pop(0)
            tenant.served += 1

    def _harvest_drained(self) -> None:
        self._check_results(self.fused.take_drained(), self.unfused.take_drained())

    # -------------------------------------------------------------- rules

    @precondition(lambda self: any(t not in self.oracle for t in TENANTS))
    @rule(data=st.data(), plan_i=st.integers(0, len(PLANS) - 1))
    def attach(self, data, plan_i):
        free = [t for t in TENANTS if t not in self.oracle]
        tenant = data.draw(st.sampled_from(free))
        now = self._advance()
        self._attach_label.append(tenant)
        sig_fused = self.fused.attach(tenant, PLANS[plan_i], now_s=now)
        sig_unfused = self.unfused.attach(tenant, PLANS[plan_i], now_s=now)
        assert sig_fused == sig_unfused
        self.oracle[tenant] = _OracleTenant()
        # A re-attached id is a fresh tenant; its post-detach tripwire
        # re-arms only at the next detach.
        self.detached.discard(tenant)
        assert self.fused.lifecycle(tenant) is TenantLifecycle.ATTACHED

    @precondition(lambda self: bool(self.oracle))
    @rule(data=st.data(), row_i=st.integers(0, len(ROWS) - 1))
    def submit(self, data, row_i):
        tenant = data.draw(st.sampled_from(sorted(self.oracle)))
        now = self._advance()
        row = ROWS[row_i]
        ticket_fused = self.fused.submit(tenant, now, row)
        ticket_unfused = self.unfused.submit(tenant, now, row)
        assert ticket_fused.outcome == ticket_unfused.outcome == "enqueued"
        assert ticket_fused.frame_id == ticket_unfused.frame_id
        tenant_state = self.oracle[tenant]
        tenant_state.submitted += 1
        tenant_state.ring.append(ticket_fused.frame_id)
        if len(tenant_state.ring) > QUEUE_CAPACITY:
            tenant_state.ring.pop(0)
            tenant_state.overflowed += 1

    @rule()
    def tick(self):
        now = self._advance()
        self._check_results(self.fused.tick(now), self.unfused.tick(now))

    @rule()
    def flush(self):
        self._check_results(self.fused.flush(), self.unfused.flush())

    @precondition(lambda self: bool(self.oracle))
    @rule(data=st.data(), plan_i=st.integers(0, len(PLANS) - 1))
    def replace_plan(self, data, plan_i):
        tenant = data.draw(st.sampled_from(sorted(self.oracle)))
        now = self._advance()
        had_pending = bool(self.oracle[tenant].ring)
        sig_fused = self.fused.replace_plan(tenant, PLANS[plan_i], now_s=now)
        sig_unfused = self.unfused.replace_plan(tenant, PLANS[plan_i], now_s=now)
        assert sig_fused == sig_unfused
        # Cutover ticks run only when the swapped tenant had frames in
        # flight; a tick drains *every* ring, so the spill covers all
        # tenants — otherwise no ring moves at all.
        self._harvest_drained()
        assert not self.oracle[tenant].ring
        if had_pending:
            for state in self.oracle.values():
                assert not state.ring

    @precondition(lambda self: bool(self.oracle))
    @rule(data=st.data())
    def detach(self, data):
        tenant = data.draw(st.sampled_from(sorted(self.oracle)))
        now = self._advance()
        tenant_state = self.oracle[tenant]
        pending = len(tenant_state.ring)
        final_fused = self.fused.detach(tenant, now_s=now)
        final_unfused = self.unfused.detach(tenant, now_s=now)
        assert final_fused == final_unfused
        assert final_fused["drained"] == pending
        assert (
            final_fused["drained"]
            == final_fused["drain_served"] + final_fused["drain_shed"]
        )
        # No staleness/deadline/guards configured: a drain can only serve.
        assert final_fused["drain_shed"] == 0
        self._harvest_drained()
        assert not tenant_state.ring
        assert final_fused["frames_in"] == tenant_state.submitted
        assert final_fused["frames_out"] == tenant_state.served
        assert final_fused["overflow"] == tenant_state.overflowed
        del self.oracle[tenant]
        self.detached.add(tenant)
        assert self.fused.lifecycle(tenant) is TenantLifecycle.DETACHED
        assert self.fused.detached_ledger(tenant) == final_fused
        assert self.unfused.detached_ledger(tenant) == final_unfused

    # ---------------------------------------------------------- invariants

    @invariant()
    def ledgers_match(self):
        assert set(self.fused.tenant_ids) == set(self.oracle)
        assert set(self.unfused.tenant_ids) == set(self.oracle)
        for tenant, state in self.oracle.items():
            counters_fused = self.fused.counters(tenant)
            assert counters_fused == self.unfused.counters(tenant)
            assert counters_fused["frames_in"] == state.submitted
            assert counters_fused["frames_out"] == state.served
            assert counters_fused["overflow"] == state.overflowed
            for store in (self.fused_observers, self.unfused_observers):
                ledger = store[tenant].ledger()
                assert ledger["unaccounted"] == 0
                assert ledger["pending"] == len(state.ring)
                assert ledger["answered"] == state.served
                assert ledger["overflow"] == state.overflowed

    @invariant()
    def pending_depth_matches(self):
        expected = sum(len(state.ring) for state in self.oracle.values())
        assert self.fused.router.total_depth == expected
        assert self.unfused.router.total_depth == expected


ChurnMachine.TestCase.settings = settings(
    max_examples=200,
    stateful_step_count=20,
    deadline=None,
    suppress_health_check=[
        HealthCheck.too_slow,
        HealthCheck.filter_too_much,
        HealthCheck.data_too_large,
    ],
)

TestFleetChurnProperty = ChurnMachine.TestCase
