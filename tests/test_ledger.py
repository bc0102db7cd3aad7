"""The one frame ledger: schema, identities, and the configuration product.

:mod:`repro.ledger` owns the outcome tuple, the stats-key schema and the
two checks every bench and test uses.  The property suite drives both
serving surfaces through every combination of guard stack, saturation
governor and observer with NaN, out-of-envelope, gap and over-rate
frames, and checks the ledger after every single call — not only at
shutdown, where a transient double count could cancel out.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.exceptions import ConfigurationError
from repro.fastpath.plan import InferencePlan
from repro.fleet.service import Fleet
from repro.guard import GuardPolicy, ReferenceStats
from repro.ledger import (
    LOST,
    OUTCOMES,
    REFUSED,
    STATS_KEYS,
    FrameLedger,
    mismatches,
    offered,
    outcomes,
    total,
    unaccounted,
)
from repro.nn.modules import Linear, ReLU, Sequential
from repro.obs.observer import _OUTCOME_KINDS, NULL_OBSERVER, Observer
from repro.overload.governor import OverloadPolicy
from repro.serve.config import ServeConfig
from repro.serve.engine import InferenceEngine

N_INPUTS = 8
#: The repairer's expected cadence; a "gap" step skips several slots.
INTERVAL_S = 0.05
LINKS = ("l0", "l1", "l2")


def _plan(seed=0):
    rng = np.random.default_rng(seed)
    return InferencePlan.from_model(
        Sequential(Linear(N_INPUTS, 8, rng=rng), ReLU(), Linear(8, 1, rng=rng))
    )


def _clean_row(rng):
    return np.abs(rng.normal(size=N_INPUTS)) + 0.1


class TestSchema:
    def test_stats_keys_are_the_public_schema_in_order(self):
        assert STATS_KEYS == (
            "frames_in", "frames_out", "fallback_frames", "stale_dropped",
            "rejected", "quarantined", "repaired", "policy_rejected",
            "rate_limited", "deadline_expired", "overflow", "overload_shed",
        )
        assert tuple(FrameLedger().stats()) == STATS_KEYS
        assert set(FrameLedger().stats().values()) == {0}

    def test_outcomes_partition_into_answered_refused_and_lost(self):
        assert set(OUTCOMES) == {"answered", *REFUSED, *LOST}
        assert len(OUTCOMES) == 1 + len(REFUSED) + len(LOST)

    def test_observer_outcome_kinds_come_from_the_ledger(self):
        assert tuple(_OUTCOME_KINDS) == OUTCOMES
        assert set(outcomes(FrameLedger().stats())) == set(OUTCOMES)

    def test_ledger_counts_are_plain_slotted_ints(self):
        ledger = FrameLedger()
        ledger.frames_in += 3
        with pytest.raises(AttributeError):
            ledger.not_a_count = 1
        assert ledger.stats()["frames_in"] == 3


class TestIdentities:
    @staticmethod
    def _stats(**counts):
        ledger = FrameLedger()
        for key, value in counts.items():
            setattr(ledger, key, value)
        return ledger.stats()

    def test_unaccounted_counts_fills_losses_and_pending(self):
        stats = self._stats(
            frames_in=10, repaired=2, frames_out=6, stale_dropped=1,
            overflow=1, deadline_expired=1, overload_shed=1, policy_rejected=1,
            rejected=5, quarantined=5, rate_limited=5, fallback_frames=6,
        )
        # Refusals never entered, so they do not move the admitted side.
        assert unaccounted(stats) == 1
        assert unaccounted(stats, pending=1) == 0

    def test_mismatches_compares_offered_fills_and_every_outcome(self):
        stats = self._stats(
            frames_in=4, repaired=1, frames_out=3, rejected=2, rate_limited=1,
            overload_shed=2,
        )
        ledger = {
            "submitted": 7, "fills": 1, "answered": 3, "rejected": 2,
            "quarantined": 0, "policy_rejected": 0, "stale": 0, "overflow": 0,
            "rate_limited": 1, "deadline_expired": 0, "shed": 2,
            "pending": 0, "unaccounted": 0,
        }
        assert mismatches(stats, ledger) == {}
        assert mismatches(stats, {**ledger, "shed": 1}) == {"shed": (2, 1)}
        assert mismatches(stats, {**ledger, "submitted": 4}) == {
            "submitted": (7, 4)
        }

    def test_offered_is_admitted_plus_refused(self):
        stats = self._stats(
            frames_in=4, rejected=2, quarantined=1, rate_limited=1,
            policy_rejected=3, overload_shed=2,
        )
        assert offered(stats) == 8

    @pytest.mark.parametrize("ledger", [{}, {"submitted": 0, "answered": 0}])
    def test_mismatches_refuses_an_incomplete_observer_ledger(self, ledger):
        # An untraced surface's ledger is {}; reading it as zeros would
        # report every real count as a mismatch.
        with pytest.raises(ConfigurationError, match="traced"):
            mismatches(self._stats(frames_in=1, frames_out=1), ledger)

    def test_total_sums_key_by_key(self):
        a = self._stats(frames_in=2, overflow=1)
        b = self._stats(frames_in=3, frames_out=3)
        combined = total([a, b])
        assert tuple(combined) == STATS_KEYS
        assert combined["frames_in"] == 5
        assert combined["overflow"] == 1 and combined["frames_out"] == 3


def test_engine_link_fleet_tenant_and_detach_share_one_schema():
    rng = np.random.default_rng(0)
    engine = InferenceEngine(_plan(), ServeConfig(max_latency_ms=None))
    engine.submit("a", 0.0, _clean_row(rng))
    fleet = Fleet(ServeConfig(max_latency_ms=None))
    fleet.attach("t", _plan())
    fleet.submit("t", 0.0, _clean_row(rng))
    counters = fleet.counters("t")
    report = fleet.detach("t")
    audit = ("drained", "drain_served", "drain_shed")

    assert tuple(engine.link_stats("a")) == STATS_KEYS
    assert tuple(counters) == STATS_KEYS
    assert tuple(k for k in report if k not in audit) == STATS_KEYS
    assert tuple(report)[len(STATS_KEYS):] == audit
    assert fleet.detached_ledger("t") == report
    assert report["fallback_frames"] == 0


# ---------------------------------------------------------------- product

#: One submitted frame: (link index, kind, stream-time step before it).
_SUBMIT = st.tuples(
    st.just("submit"),
    st.integers(min_value=0, max_value=2),
    st.sampled_from(["clean", "clean", "clean", "nan", "envelope", "gap"]),
    st.sampled_from([0.001, INTERVAL_S]),
)
#: Clean frames 1 ms apart on one link: over the rate limit and the ring.
_BURST = st.tuples(
    st.just("burst"),
    st.integers(min_value=0, max_value=2),
    st.integers(min_value=2, max_value=12),
)
#: One service call: (at most this many frames, stream-time lag).
_SERVE = st.tuples(
    st.just("serve"),
    st.integers(min_value=1, max_value=6),
    st.sampled_from([0.0, 0.0, 0.3, 1.5]),
)
_OPS = st.lists(
    st.one_of(_SUBMIT, _SUBMIT, _BURST, _SERVE, st.just(("flush",))),
    min_size=1,
    max_size=50,
)
#: (deadline_ms, stale_after_s): the deadline, when set, is the shorter.
_LIMITS = st.sampled_from([(600.0, 1.0), (None, 1.0), (None, None)])


def _config(guarded, governed, limits):
    reference = ReferenceStats.fit(
        np.abs(np.random.default_rng(7).normal(size=(64, N_INPUTS))) + 0.1
    )
    kwargs = dict(
        max_batch=4,
        max_latency_ms=None,
        queue_capacity=6,
        deadline_ms=limits[0],
        stale_after_s=limits[1],
        rate_limit_hz=40.0,
        rate_limit_burst=8,
        auto_flush=False,
    )
    if guarded:
        kwargs["guard"] = GuardPolicy(
            reference=reference,
            n_features=N_INPUTS,
            expected_interval_s=INTERVAL_S,
            max_fill=4,
        )
    if governed:
        kwargs["overload"] = OverloadPolicy(
            fastpath_at=0.3, fallback_at=0.5, shed_at=0.7,
            alpha=1.0, hold_ticks=1, probe_cooldown_s=0.5, seed=0,
        )
    return ServeConfig(**kwargs)


class _EngineSurface:
    def __init__(self, config, traced):
        self.observer = (
            Observer(trace_capacity=64, event_capacity=64) if traced else NULL_OBSERVER
        )
        plan = _plan()
        self.engine = InferenceEngine(plan, config.with_overrides(observer=self.observer))
        self.engine.attach_fastpath(plan)

    def submit(self, link, t, row):
        self.engine.submit(link, t, row)

    def serve(self, n, t):
        self.engine.pump(n, now_s=t)

    def flush(self):
        self.engine.flush()

    def check(self, traced):
        engine = self.engine
        stats = {link: engine.link_stats(link) for link in engine.link_ids}
        for link, one in stats.items():
            assert unaccounted(one, engine.queue.link_depth(link)) == 0, link
        if traced:
            ledger = self.observer.ledger()
            assert mismatches(total(stats.values()), ledger) == {}
            assert ledger["pending"] == engine.queue.depth
            assert ledger["unaccounted"] == 0


class _FleetSurface:
    def __init__(self, config, traced):
        def factory():
            if traced:
                return Observer(trace_capacity=64, event_capacity=64)
            return NULL_OBSERVER

        self.fleet = Fleet(config, observer_factory=factory)
        for link in LINKS:
            self.fleet.attach(link, _plan())

    def submit(self, link, t, row):
        self.fleet.submit(link, t, row)

    def serve(self, n, t):
        self.fleet.tick(t)

    def flush(self):
        self.fleet.flush()

    def check(self, traced):
        fleet = self.fleet
        for tenant in fleet.tenant_ids:
            stats = fleet.counters(tenant)
            pending = fleet.router.depth(tenant)
            assert unaccounted(stats, pending) == 0, tenant
            if traced:
                ledger = fleet.ledger(tenant)
                assert mismatches(stats, ledger) == {}, tenant
                assert ledger["pending"] == pending
                assert ledger["unaccounted"] == 0
            else:
                assert fleet.ledger(tenant) == {}


_SURFACES = {"engine": _EngineSurface, "fleet": _FleetSurface}


@pytest.mark.parametrize("traced", [True, False], ids=["Observer", "NULL_OBSERVER"])
@pytest.mark.parametrize("governed", [True, False], ids=["governor", "ungoverned"])
@pytest.mark.parametrize("guarded", [True, False], ids=["guards", "unguarded"])
@pytest.mark.parametrize("surface", sorted(_SURFACES))
@settings(max_examples=12, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(ops=_OPS, limits=_LIMITS, data_seed=st.integers(min_value=0, max_value=2**31 - 1))
def test_ledger_closes_after_every_call(
    surface, guarded, governed, traced, ops, limits, data_seed
):
    rng = np.random.default_rng(data_seed)
    stack = _SURFACES[surface](_config(guarded, governed, limits), traced)
    t = 0.0
    for op in ops:
        if op[0] == "submit":
            _, link_i, kind, step = op
            t += 4 * INTERVAL_S if kind == "gap" else step
            row = _clean_row(rng)
            if kind == "nan":
                row[int(rng.integers(N_INPUTS))] = np.nan
            elif kind == "envelope":
                row *= 1e6
            stack.submit(LINKS[link_i], t, row)
        elif op[0] == "burst":
            for _ in range(op[2]):
                t += 0.001
                stack.submit(LINKS[op[1]], t, _clean_row(rng))
                stack.check(traced)
        elif op[0] == "serve":
            t += op[2]
            stack.serve(op[1], t)
        else:
            stack.flush()
        stack.check(traced)
    stack.flush()
    stack.check(traced)
