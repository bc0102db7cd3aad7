"""The fleet facade: tenant-scoped serving over the fusion scheduler.

:class:`Fleet` is the multi-room counterpart of
:class:`~repro.serve.engine.InferenceEngine`.  One process serves many
tenants, each bound to a frozen :class:`~repro.fastpath.plan.InferencePlan`
via the :class:`~repro.fleet.registry.PlanRegistry`; submissions land in
per-tenant ring buffers (:class:`~repro.fleet.router.FleetRouter`) and a
:meth:`Fleet.tick` drains every ring through the
:class:`~repro.fleet.fusion.FusionScheduler`, fusing same-signature
cohorts into single batched GEMMs.

Tenant lifecycle (the elasticity contract):

.. code-block:: text

    attach()            detach()              ring empty, ledger sealed
      │    ┌──────────┐   │    ┌──────────┐    │    ┌──────────┐
      └──► │ ATTACHED │ ──┴──► │ DRAINING │ ───┴──► │ DETACHED │
           └──────────┘        └──────────┘         └──────────┘
            submit/tick         real ticks serve     submit raises;
            serve normally      the ring; submit     final counters
                                is closed            archived

``detach`` never drops silently: the tenant's ring is drained through
*real* :meth:`Fleet.tick` calls (the same scheduler, guards and governor
every other frame saw), and the returned counters prove it —
``drained == drain_served + drain_shed`` exactly, or detach raises.
Results produced by lifecycle-internal ticks (the cutover tick of
:meth:`replace_plan`, the drain ticks of :meth:`detach`) are never lost:
they accumulate in a spill buffer the caller harvests via
:meth:`take_drained`.

Isolation guarantees (the part that makes multi-tenancy honest):

* **guard state is per tenant** — each ``attach`` builds fresh
  validator/repairer/supervisor instances from the shared
  :class:`~repro.serve.config.ServeConfig` recipe, so one room's circuit
  breaker trips, drift windows and cadence state never bleed into
  another's;
* **ledgers are per tenant** — each tenant holds its own
  :class:`~repro.ledger.FrameLedger`, and with ``observer_factory`` its
  own :class:`~repro.obs.observer.Observer`, whose event-side ledger
  reconciles against it independently;
* **metrics are shared but labeled** — per-tenant rollups use the brace
  convention (``fleet_frames_total{tenant=room-12}``) that
  :func:`repro.obs.exposition.render_prometheus` renders as one labeled
  family, next to aggregate fleet counters and the fusion ratio.

The supervisor mapping differs from the engine's in one deliberate way:
a fleet has no per-tenant fallback predictor tier, so a supervisor
decision of FALLBACK or REJECT (or a primary failure) *sheds* that
tenant's tick as ``policy_rejected`` rather than serving degraded
answers.  Shedding is per tenant — the rest of the fleet's tick fuses
and serves normally.
"""

from __future__ import annotations

import enum
import time
from functools import cached_property

import numpy as np

from ..data.streaming import SmoothingDebouncer, Transition, check_csi_row
from ..exceptions import ConfigurationError, ServingError, ShapeError, StreamError
from ..fastpath.plan import InferencePlan
from ..guard.supervisor import RecoverySupervisor, ServingMode
from ..guard.validation import QuarantineBuffer, QuarantinedFrame
from ..ledger import FrameLedger, unaccounted
from ..nn.modules import Module
from ..obs.observer import NULL_OBSERVER
from ..overload.deadline import deadline_for, expired
from ..overload.governor import SaturationGovernor, ServiceMode
from ..overload.limiter import RateLimiter
from ..serve.config import ServeConfig
from ..serve.engine import InferenceResult
from ..serve.metrics import Counter, MetricsRegistry
from ..serve.robustness import LinkHealth
from ..serve.types import FrameTicket
from .fusion import FusionScheduler, TenantBatch
from .registry import PlanRegistry, PlanSignature
from .router import FleetRouter, TenantFrame


class TenantLifecycle(enum.Enum):
    """Where a tenant is in its attach → drain → detach life."""

    ATTACHED = "attached"  #: serving normally; submit admits frames
    DRAINING = "draining"  #: detach in progress; ring served, submit closed
    DETACHED = "detached"  #: gone; ledger sealed and archived


class _TenantState:
    """Everything one tenant owns besides its registered plan."""

    def __init__(
        self, tenant_id: str, config: ServeConfig, metrics: MetricsRegistry, observer
    ) -> None:
        self.tenant_id = tenant_id
        self.metrics = metrics
        self.lifecycle = TenantLifecycle.ATTACHED
        self.debouncer = SmoothingDebouncer(config.window, config.hold_frames)
        self.health = LinkHealth.IDLE
        self.observer = observer
        validator, repairer, supervisor = config.build_guards(registry=metrics)
        self.validator = validator
        self.repairer = repairer
        self.supervisor = supervisor if supervisor is not None else RecoverySupervisor()
        self.supervisor.bind_registry(metrics)
        self.supervisor.bind_observer(observer)
        self.quarantine = QuarantineBuffer() if validator is not None else None
        self.ledger = FrameLedger()

    # The tenant's labeled counters, looked up by name on first use only
    # (so each still enters the registry when it first fires).

    @cached_property
    def frames_total(self) -> Counter:
        return self.metrics.counter(f"fleet_frames_total{{tenant={self.tenant_id}}}")

    @cached_property
    def frames_out_total(self) -> Counter:
        return self.metrics.counter(f"fleet_frames_out_total{{tenant={self.tenant_id}}}")


class Fleet:
    """Tenant-scoped, fusion-scheduled serving for many rooms at once.

    Parameters
    ----------
    config:
        Shared :class:`~repro.serve.config.ServeConfig` recipe.  Queue
        bounds apply *per tenant ring*; guard settings are rebuilt as
        fresh instances per tenant; ``config.registry`` (when set) is the
        shared metrics sink.
    plans:
        Optional pre-populated :class:`~repro.fleet.registry.PlanRegistry`;
        tenants registered there before construction still need
        :meth:`attach` to grow serving state.
    tile:
        Fixed GEMM tile size for the shape-stable runners (see
        :mod:`repro.fleet.fusion`).
    fusion_enabled:
        ``False`` forces per-tenant dispatch — the benchmark control arm.
    observer_factory:
        Zero-argument callable yielding one observer per tenant;
        defaults to the no-op :data:`~repro.obs.observer.NULL_OBSERVER`.
    rebalance_skew:
        Skew ratio (max per-shard tenant count over the mean) above which
        a shard-rebalance pass runs automatically after every attach and
        detach; ``None`` disables automatic rebalancing (explicit
        :meth:`rebalance` calls still work).
    """

    def __init__(
        self,
        config: ServeConfig | None = None,
        *,
        plans: PlanRegistry | None = None,
        tile: int = 16,
        fusion_enabled: bool = True,
        observer_factory=None,
        rebalance_skew: float | None = None,
    ) -> None:
        if rebalance_skew is not None and rebalance_skew < 1.0:
            raise ConfigurationError("rebalance_skew must be >= 1.0 (or None)")
        self.rebalance_skew = rebalance_skew
        self.config = config if config is not None else ServeConfig()
        self.metrics = (
            self.config.registry if self.config.registry is not None else MetricsRegistry()
        )
        self.plans = plans if plans is not None else PlanRegistry()
        self.router = FleetRouter(capacity=self.config.queue_capacity)
        self.scheduler = FusionScheduler(tile=tile, fusion_enabled=fusion_enabled)
        self._observer_factory = observer_factory
        self._tenants: dict[str, _TenantState] = {}
        #: Per-tenant rollout managers (see :mod:`repro.rollout.promote`),
        #: fed every served batch from :meth:`tick`.
        self._rollouts: dict[str, object] = {}
        #: Final counters of every tenant that ever detached, keyed by id.
        self._detached: dict[str, dict[str, int]] = {}
        #: Results produced by lifecycle-internal ticks (replace_plan
        #: cutover, detach drain) — harvested via :meth:`take_drained`.
        self._drained_results: list[InferenceResult] = []
        self._now_s = -np.inf
        self._frame_seq = 0
        # Overload control plane — inert unless configured (see the
        # engine's mirror wiring; fleet governor events go to metrics
        # only, since mode is fleet-wide and ledgers are per tenant).
        self.limiter = (
            RateLimiter(self.config.rate_limit_hz, self.config.rate_limit_burst)
            if self.config.rate_limit_hz is not None
            else None
        )
        self.deadline_s = (
            None
            if self.config.deadline_ms is None
            else self.config.deadline_ms / 1000.0
        )
        self.governor = None
        if self.config.overload is not None:
            budget_s = self.deadline_s
            if budget_s is None and self.config.max_latency_ms is not None:
                budget_s = self.config.max_latency_ms / 1000.0
            self.governor = SaturationGovernor(
                self.config.overload,
                capacity=self.config.queue_capacity,
                latency_budget_s=budget_s,
                registry=self.metrics,
            )

    # -------------------------------------------------------------- tenants

    def attach(
        self, tenant_id: str, model, scaler=None, now_s: float | None = None
    ) -> PlanSignature:
        """Register a tenant and build its isolated serving state.

        ``model`` may be a frozen :class:`~repro.fastpath.plan.InferencePlan`
        or a trainable :class:`~repro.nn.modules.Sequential` (frozen here,
        with the optional ``scaler`` folded in).  The tenant enters the
        lifecycle ATTACHED; a previously detached id may re-attach as a
        fresh tenant (its archived ledger is released).
        """
        plan = self._freeze(model, scaler)
        signature = self.plans.register(tenant_id, plan)
        observer = (
            self._observer_factory() if self._observer_factory is not None else NULL_OBSERVER
        )
        observer.bind_registry(self.metrics)
        self._tenants[tenant_id] = _TenantState(
            tenant_id, self.config, self.metrics, observer
        )
        self._detached.pop(tenant_id, None)
        if observer.enabled:
            observer.emit(
                "fleet.attach",
                t_s=self._stamp(now_s),
                link_id=tenant_id,
                shard=self.plans.shard_of(tenant_id),
                digest=signature.weights_digest[:8],
            )
        self.metrics.counter("fleet_attaches_total").inc()
        self.metrics.gauge("fleet_tenants").set(len(self._tenants))
        self._rescale_governor()
        self._update_shard_gauges()
        self._maybe_rebalance(now_s)
        return signature

    def _stamp(self, now_s: float | None) -> float:
        """Stream-time stamp for lifecycle events (0.0 before any traffic)."""
        if now_s is not None:
            self._now_s = max(self._now_s, float(now_s))
        return self._now_s if np.isfinite(self._now_s) else 0.0

    def _rescale_governor(self) -> None:
        # The ring bound is per tenant, so fleet-wide capacity (what the
        # saturation score normalises backlog by) scales with headcount.
        if self.governor is not None:
            self.governor.capacity = self.config.queue_capacity * max(
                1, len(self._tenants)
            )

    @property
    def mode(self) -> ServiceMode:
        """The governor's current degradation rung (FULL when ungoverned)."""
        return ServiceMode.FULL if self.governor is None else self.governor.mode

    def _freeze(self, model, scaler) -> InferencePlan:
        if isinstance(model, InferencePlan):
            return model
        if isinstance(model, Module):
            return InferencePlan.from_model(model, scaler=scaler)
        raise ConfigurationError(
            f"attach needs an InferencePlan or Sequential, got {type(model).__name__}"
        )

    def replace_plan(
        self, tenant_id: str, model, scaler=None, now_s: float | None = None
    ) -> PlanSignature:
        """Hot-swap one tenant's plan with drain-before-swap semantics.

        Every frame admitted before this call is served by the *old* plan
        (full :meth:`tick` calls run first — the cutover ticks, whose
        results land in the :meth:`take_drained` spill), then the
        registry binding flips atomically and a ``fleet.plan_swap`` event
        marks the cutover on the tenant's observer.  No frame is dropped
        or re-routed: the ledger stays exact through the swap.  When the
        replacement carries a different :class:`PlanSignature`, the
        tenant's fusion cohort re-keys from the next tick, and the old
        cohort's cached runner is evicted once its last tenant leaves it.
        """
        state = self._tenant(tenant_id)
        if state.lifecycle is not TenantLifecycle.ATTACHED:
            raise ConfigurationError(
                f"tenant {tenant_id!r} is {state.lifecycle.value}; "
                f"plans can only be replaced while attached"
            )
        plan = self._freeze(model, scaler)
        while self.router.depth(tenant_id):
            self._drained_results.extend(self.tick(now_s))
        old = self.plans.signature(tenant_id)
        signature = self.plans.replace_plan(tenant_id, plan)
        if old != signature and not self.plans.has_signature(old):
            self.scheduler.evict(old)
        self.metrics.counter("fleet_plan_swaps_total").inc()
        if state.observer.enabled:
            state.observer.emit(
                "fleet.plan_swap",
                t_s=self._stamp(now_s),
                link_id=tenant_id,
                old_digest=old.weights_digest[:8],
                new_digest=signature.weights_digest[:8],
                new_version=plan.version,
            )
        return signature

    def detach(self, tenant_id: str, now_s: float | None = None) -> dict[str, int]:
        """Remove a tenant after draining its ring through real ticks.

        The lifecycle walks ATTACHED → DRAINING → DETACHED: an attached
        rollout manager is aborted first (its shadow ledger closes), the
        tenant's ring is then served to empty by repeated :meth:`tick`
        calls — the same scheduler, guards and governor every other frame
        saw, so drained frames may legitimately be served *or* shed, but
        never dropped silently — and finally a ``fleet.detach`` event
        seals the observer and the binding is removed.

        Returns the tenant's final counters plus the drain audit:
        ``drained`` (frames pending when detach began), ``drain_served``
        and ``drain_shed``.  ``drained == drain_served + drain_shed`` is
        enforced — a mismatch raises :class:`~repro.exceptions.ServingError`
        rather than un-reconciling the ledger.  Results the drain ticks
        produced (for this tenant and any other with pending work) are in
        the :meth:`take_drained` spill.
        """
        state = self._tenant(tenant_id)
        if state.lifecycle is not TenantLifecycle.ATTACHED:
            raise ConfigurationError(
                f"tenant {tenant_id!r} is already {state.lifecycle.value}"
            )
        manager = self._rollouts.pop(tenant_id, None)
        if manager is not None and hasattr(manager, "abort"):
            manager.abort(self._stamp(now_s))
        state.lifecycle = TenantLifecycle.DRAINING
        drained = self.router.depth(tenant_id)
        before = state.ledger.stats()
        while self.router.depth(tenant_id):
            self._drained_results.extend(self.tick(now_s))
        final = state.ledger.stats()
        # Submissions are closed, so nothing is admitted, filled or
        # evicted while draining: the fall in unaccounted is exactly the
        # frames the drain ticks answered or lost.
        drain_served = final["frames_out"] - before["frames_out"]
        drain_shed = unaccounted(before) - unaccounted(final) - drain_served
        if drained != drain_served + drain_shed:
            raise ServingError(
                f"detach drain for tenant {tenant_id!r} does not reconcile: "
                f"{drained} drained != {drain_served} served + {drain_shed} shed"
            )
        final["drained"] = drained
        final["drain_served"] = drain_served
        final["drain_shed"] = drain_shed
        if state.observer.enabled:
            state.observer.emit(
                "fleet.detach",
                t_s=self._stamp(now_s),
                link_id=tenant_id,
                frames_in=final["frames_in"],
                frames_out=final["frames_out"],
                drained=drained,
                drain_served=drain_served,
                drain_shed=drain_shed,
            )
        state.lifecycle = TenantLifecycle.DETACHED
        signature = self.plans.signature(tenant_id)
        self.plans.remove(tenant_id)
        if not self.plans.has_signature(signature):
            self.scheduler.evict(signature)
        del self._tenants[tenant_id]
        self.router.forget(tenant_id)
        self._detached[tenant_id] = final
        self.metrics.counter("fleet_detaches_total").inc()
        self.metrics.gauge("fleet_tenants").set(len(self._tenants))
        self._rescale_governor()
        self._update_shard_gauges()
        self._maybe_rebalance(now_s)
        return final

    def take_drained(self) -> list[InferenceResult]:
        """Harvest (and clear) results produced by lifecycle-internal ticks.

        :meth:`replace_plan` and :meth:`detach` run real ticks to drain
        rings; those ticks serve every pending tenant, and their results
        would otherwise be invisible to the caller.  They spill here
        instead — zero silent drops extends to the *results*, not just
        the counts.
        """
        results = self._drained_results
        self._drained_results = []
        return results

    def lifecycle(self, tenant_id: str) -> TenantLifecycle:
        """A tenant's lifecycle state (DETACHED survives removal)."""
        state = self._tenants.get(tenant_id)
        if state is not None:
            return state.lifecycle
        if tenant_id in self._detached:
            return TenantLifecycle.DETACHED
        raise ConfigurationError(f"unknown tenant {tenant_id!r}")

    def detached_ledger(self, tenant_id: str) -> dict[str, int]:
        """The archived final counters of a detached tenant."""
        if tenant_id not in self._detached:
            raise ConfigurationError(f"no detached tenant {tenant_id!r}")
        return dict(self._detached[tenant_id])

    @property
    def detached_tenants(self) -> tuple[str, ...]:
        """Tenants that have detached (and not re-attached), detach order."""
        return tuple(self._detached)

    # ------------------------------------------------------------ rebalance

    def rebalance(
        self, max_skew: float | None = None, now_s: float | None = None
    ) -> list[tuple[str, int, int]]:
        """Run one shard-rebalance pass; returns the migrations applied.

        Emits one ``fleet.rebalance`` event per migrated tenant (on that
        tenant's observer) and refreshes the ``fleet_shard_tenants{shard=…}``
        gauges.  Tenants on shards within the skew ceiling never move.
        """
        skew = max_skew if max_skew is not None else self.rebalance_skew
        if skew is None:
            raise ConfigurationError(
                "rebalance needs max_skew (or a fleet-level rebalance_skew)"
            )
        migrations = self.plans.rebalance(skew)
        t = self._stamp(now_s)
        for tenant_id, src, dst in migrations:
            self.metrics.counter("fleet_rebalance_migrations_total").inc()
            state = self._tenants.get(tenant_id)
            if state is not None and state.observer.enabled:
                state.observer.emit(
                    "fleet.rebalance",
                    t_s=t,
                    link_id=tenant_id,
                    from_shard=src,
                    to_shard=dst,
                )
        if migrations:
            self.metrics.counter("fleet_rebalance_passes_total").inc()
        self._update_shard_gauges()
        return migrations

    def _maybe_rebalance(self, now_s: float | None) -> None:
        if (
            self.rebalance_skew is not None
            and self.plans.skew() > self.rebalance_skew
        ):
            self.rebalance(self.rebalance_skew, now_s)

    def _update_shard_gauges(self) -> None:
        for shard, count in enumerate(self.plans.shard_counts()):
            self.metrics.gauge(f"fleet_shard_tenants{{shard={shard}}}").set(count)
        self.metrics.gauge("fleet_shard_skew").set(self.plans.skew())

    # -------------------------------------------------------------- rollout

    def attach_rollout(self, tenant_id: str, manager) -> None:
        """Bind a rollout manager to one tenant; it sees every served batch.

        ``manager`` follows the :class:`repro.rollout.promote.RolloutManager`
        duck type: an ``on_batch(frames, rows, probabilities, now_s)``
        called after the tenant's results are emitted each tick.
        """
        self._tenant(tenant_id)  # raises on unknown tenants
        self._rollouts[tenant_id] = manager

    def detach_rollout(self, tenant_id: str):
        """Unbind and return the tenant's rollout manager (None when absent)."""
        return self._rollouts.pop(tenant_id, None)

    # Fleet-wide counters of the per-frame paths, looked up by name on
    # first use only.

    @cached_property
    def _frames_in(self) -> Counter:
        return self.metrics.counter("fleet_frames_in")

    @cached_property
    def _transitions(self) -> Counter:
        return self.metrics.counter("fleet_transitions")

    def _tenant(self, tenant_id: str) -> _TenantState:
        state = self._tenants.get(tenant_id)
        if state is None:
            raise ConfigurationError(f"unknown tenant {tenant_id!r}; attach it first")
        return state

    @property
    def tenant_ids(self) -> tuple[str, ...]:
        """Attached tenants, in attach order."""
        return tuple(self._tenants)

    def health(self, tenant_id: str) -> LinkHealth:
        """One tenant's serving health (IDLE until its first result)."""
        return self._tenant(tenant_id).health

    def state(self, tenant_id: str) -> int:
        """One tenant's current debounced occupancy state (0/1)."""
        return self._tenant(tenant_id).debouncer.state

    def ledger(self, tenant_id: str) -> dict[str, int]:
        """The tenant observer's frame ledger (``{}`` when untraced)."""
        return self._tenant(tenant_id).observer.ledger()

    def counters(self, tenant_id: str) -> dict[str, int]:
        """The tenant's :class:`~repro.ledger.FrameLedger` tallies.

        Same keys, in the same order, as the engine's ``link_stats``.
        """
        return self._tenant(tenant_id).ledger.stats()

    # --------------------------------------------------------------- submit

    def submit(self, tenant_id: str, t_s: float, csi_row: np.ndarray) -> FrameTicket:
        """Admit one frame into the tenant's ring; results come from tick.

        The returned :class:`~repro.serve.types.FrameTicket` carries the
        admission outcome; its ``results`` tuple is always empty because
        fleet inference is tick-driven, never submit-driven.  Only
        ATTACHED tenants admit frames: a DRAINING or DETACHED tenant
        raises, so no frame can slip in behind a drain.
        """
        state = self._tenant(tenant_id)
        if state.lifecycle is not TenantLifecycle.ATTACHED:
            raise ConfigurationError(
                f"tenant {tenant_id!r} is {state.lifecycle.value}; "
                f"submissions are closed"
            )
        obs = state.observer
        tracing = obs.enabled
        frame_id = self._frame_seq
        self._frame_seq += 1
        t_f = float(t_s)
        if tracing:
            obs.frame_submitted(frame_id, tenant_id, t_f)
        try:
            csi_row = check_csi_row(csi_row)
        except (ShapeError, StreamError):
            state.ledger.rejected += 1
            self.metrics.counter("fleet_frames_rejected").inc()
            if tracing:
                obs.frame_outcome("rejected", frame_id, tenant_id, t_f, gate="shape")
            return FrameTicket(tenant_id, frame_id, t_f, "rejected")
        if self.limiter is not None and not self.limiter.admit(tenant_id, t_f):
            # Same gate order as the engine: after the shape check
            # (malformed frames spend no tokens), before the validator
            # (over-rate tenants burn no validator CPU).
            state.ledger.rate_limited += 1
            self.metrics.counter("fleet_frames_rate_limited").inc()
            if tracing:
                obs.frame_outcome(
                    "rate_limited",
                    frame_id,
                    tenant_id,
                    t_f,
                    reserved_hz=self.limiter.reserved_hz(tenant_id),
                )
            return FrameTicket(tenant_id, frame_id, t_f, "rate_limited")
        if state.validator is not None:
            failure = state.validator.validate(tenant_id, t_f, csi_row)
            if failure is not None:
                state.ledger.quarantined += 1
                self.metrics.counter("fleet_frames_quarantined").inc()
                state.quarantine.add(QuarantinedFrame(tenant_id, t_f, csi_row, failure))
                if tracing:
                    obs.frame_outcome(
                        "quarantined", frame_id, tenant_id, t_f, check=failure.check
                    )
                return FrameTicket(tenant_id, frame_id, t_f, "quarantined")
        state.ledger.frames_in += 1
        self._frames_in.inc()
        state.frames_total.inc()
        self._now_s = max(self._now_s, t_f)

        pending = [
            TenantFrame(
                tenant_id,
                frame_id,
                t_f,
                csi_row,
                deadline_s=deadline_for(t_f, self.deadline_s),
            )
        ]
        if state.repairer is not None:
            fills = state.repairer.observe(tenant_id, t_f, csi_row)
            if fills:
                state.ledger.repaired += len(fills)
                self.metrics.counter("fleet_frames_repaired").inc(len(fills))
                filled = []
                for fill in fills:
                    fill_id = self._frame_seq
                    self._frame_seq += 1
                    filled.append(
                        TenantFrame(
                            tenant_id,
                            fill_id,
                            fill.t_s,
                            fill.row,
                            repaired=True,
                            deadline_s=deadline_for(fill.t_s, self.deadline_s),
                        )
                    )
                    if tracing:
                        obs.frame_filled(fill_id, tenant_id, fill.t_s, source_frame=frame_id)
                pending = filled + pending
        for frame in pending:
            evicted = self.router.route(frame)
            if evicted is not None:
                state.ledger.overflow += 1
                self.metrics.counter("fleet_frames_dropped_overflow").inc()
                # Labeled rollup: eviction is attributable per tenant in
                # the Prometheus exposition, not just fleet-aggregate.
                self.metrics.counter(
                    f"fleet_frames_overflow_total{{tenant={evicted.tenant_id}}}"
                ).inc()
                if tracing:
                    obs.frame_outcome(
                        "overflow", evicted.frame_id, evicted.tenant_id, evicted.t_s
                    )
        self.metrics.gauge("fleet_pending").set(self.router.total_depth)
        return FrameTicket(tenant_id, frame_id, t_f, "enqueued")

    # ----------------------------------------------------------------- tick

    def tick(self, now_s: float | None = None) -> list[InferenceResult]:
        """Drain every tenant ring through one fusion-scheduled pass.

        ``now_s`` advances stream time (defaults to the newest submitted
        timestamp); staleness and breaker clocks read it.  Returns the
        results of every tenant served this tick, grouped per tenant in
        submission order.
        """
        if now_s is not None:
            self._now_s = max(self._now_s, float(now_s))
        now = self._now_s
        tick_start = time.perf_counter()
        mode = ServiceMode.FULL
        if self.governor is not None:
            oldest = self.router.oldest_t_s()
            mode = self.governor.observe(
                self.router.total_depth,
                0.0 if oldest is None else now - oldest,
                now,
            )
        if mode is ServiceMode.SHED:
            for tenant_id in self.router.pending_tenants:
                state = self._tenants[tenant_id]
                self._shed_overload(state, self.router.drain(tenant_id))
            self.metrics.gauge("fleet_pending").set(self.router.total_depth)
            return []
        quota = (
            self.governor.policy.degraded_quota
            if mode is ServiceMode.FALLBACK_ONLY
            else None
        )
        batches: list[TenantBatch] = []
        shed: list[tuple[_TenantState, list[TenantFrame]]] = []
        for tenant_id in self.router.pending_tenants:
            state = self._tenants[tenant_id]
            frames = self.router.drain(tenant_id, quota)
            frames = self._drop_expired(state, frames, now)
            frames = self._drop_stale(state, frames, now)
            if not frames:
                continue
            rows = np.stack([frame.row for frame in frames]).astype(np.float32)
            if mode is ServiceMode.FULL:
                # Degraded rungs shed per-tick drift scoring — the fleet
                # already serves frozen plans, so the sentinel window is
                # the guard overhead the governor trades away first.
                state.supervisor.observe(rows, now)
            if state.supervisor.decide(now) is ServingMode.PRIMARY:
                batches.append(
                    TenantBatch(
                        tenant_id=tenant_id,
                        signature=self.plans.signature(tenant_id),
                        plan=self.plans.get(tenant_id),
                        frames=frames,
                        rows=rows,
                    )
                )
            else:
                shed.append((state, frames))
        for state, frames in shed:
            self._shed(state, frames)
        if not batches:
            self.metrics.gauge("fleet_pending").set(self.router.total_depth)
            return []

        try:
            outcome = self.scheduler.run_tick(batches)
        except Exception:
            for batch in batches:
                state = self._tenants[batch.tenant_id]
                state.supervisor.record_primary_failure(now)
                self._shed(state, batch.frames)
            self.metrics.counter("fleet_tick_failures").inc()
            return []
        scatter_start = time.perf_counter()

        results: list[InferenceResult] = []
        for batch in batches:
            state = self._tenants[batch.tenant_id]
            state.supervisor.record_primary_success(now)
            probabilities = outcome.probabilities[batch.tenant_id]
            results.extend(self._emit(batch.tenant_id, state, batch.frames, probabilities))
            manager = self._rollouts.get(batch.tenant_id)
            if manager is not None:
                # After emission, so a promotion triggered here swaps only
                # future ticks — this batch was served by the old plan.
                manager.on_batch(batch.frames, batch.rows, probabilities, now)

        scatter_ms = 1000.0 * (time.perf_counter() - scatter_start)
        tick_ms = 1000.0 * (time.perf_counter() - tick_start)
        self.metrics.counter("fleet_ticks").inc()
        self.metrics.counter("fleet_fused_frames_total").inc(outcome.fused_frames)
        self.metrics.counter("fleet_unfused_frames_total").inc(outcome.unfused_frames)
        self.metrics.counter("fleet_fused_groups_total").inc(outcome.fused_groups)
        self.metrics.counter("fleet_unfused_groups_total").inc(outcome.unfused_groups)
        fused = self.metrics.counter("fleet_fused_frames_total").value
        total = fused + self.metrics.counter("fleet_unfused_frames_total").value
        if total:
            self.metrics.gauge("fleet_fusion_ratio").set(fused / total)
        self.metrics.histogram("fleet_scatter_latency_ms").observe(scatter_ms)
        self.metrics.histogram("fleet_tick_latency_ms").observe(tick_ms)
        self.metrics.gauge("fleet_pending").set(self.router.total_depth)
        return results

    def flush(self) -> list[InferenceResult]:
        """Serve everything pending (end of stream / shutdown).

        Ticks until every ring is empty: under the governor's
        FALLBACK_ONLY quota one tick drains only a few frames per
        tenant, and shutdown must leave zero frames ringed so the
        per-tenant ledgers close exactly.  Progress is guaranteed —
        every tick with pending frames serves or sheds at least one.
        """
        results = self.tick()
        while self.router.total_depth:
            results.extend(self.tick())
        return results

    # ------------------------------------------------------------- plumbing

    def _drop_stale(
        self, state: _TenantState, frames: list[TenantFrame], now: float
    ) -> list[TenantFrame]:
        if self.config.stale_after_s is None:
            return frames
        obs = state.observer
        fresh: list[TenantFrame] = []
        for frame in frames:
            if now - frame.t_s > self.config.stale_after_s:
                state.ledger.stale_dropped += 1
                state.health = LinkHealth.DEGRADED
                self.metrics.counter("fleet_frames_dropped_stale").inc()
                if obs.enabled:
                    obs.frame_outcome(
                        "stale", frame.frame_id, frame.tenant_id, frame.t_s,
                        age_s=now - frame.t_s,
                    )
            else:
                fresh.append(frame)
        return fresh

    def _drop_expired(
        self, state: _TenantState, frames: list[TenantFrame], now: float
    ) -> list[TenantFrame]:
        """Shed frames whose deadline budget ran out in the ring."""
        if self.deadline_s is None:
            return frames
        obs = state.observer
        alive: list[TenantFrame] = []
        for frame in frames:
            if expired(frame.deadline_s, now):
                state.ledger.deadline_expired += 1
                self.metrics.counter("fleet_frames_deadline_expired").inc()
                if obs.enabled:
                    obs.frame_outcome(
                        "deadline_expired",
                        frame.frame_id,
                        frame.tenant_id,
                        frame.t_s,
                        age_s=now - frame.t_s,
                        budget_s=self.deadline_s,
                    )
            else:
                alive.append(frame)
        return alive

    def _shed_overload(self, state: _TenantState, frames: list[TenantFrame]) -> None:
        """Governor in SHED mode: a load decision, so health is untouched
        (unlike :meth:`_shed`, which records a per-tenant fault)."""
        if not frames:
            return
        state.ledger.overload_shed += len(frames)
        self.metrics.counter("fleet_frames_shed_overload").inc(len(frames))
        obs = state.observer
        if obs.enabled:
            for frame in frames:
                obs.frame_outcome("shed", frame.frame_id, frame.tenant_id, frame.t_s)

    def _shed(self, state: _TenantState, frames: list[TenantFrame]) -> None:
        """Supervisor said not-PRIMARY (or the run failed): drop the tick."""
        state.ledger.policy_rejected += len(frames)
        state.health = LinkHealth.DEGRADED
        self.metrics.counter("fleet_frames_policy_rejected").inc(len(frames))
        obs = state.observer
        if obs.enabled:
            for frame in frames:
                obs.frame_outcome(
                    "policy_rejected", frame.frame_id, frame.tenant_id, frame.t_s
                )

    def _emit(
        self,
        tenant_id: str,
        state: _TenantState,
        frames: list[TenantFrame],
        probabilities: np.ndarray,
    ) -> list[InferenceResult]:
        obs = state.observer
        tracing = obs.enabled
        state.ledger.frames_out += len(frames)
        state.frames_out_total.inc(len(frames))
        # Batch-level work once, as in the engine's emit loop: one float
        # conversion and one health resolution per distinct health.
        resolved: dict[LinkHealth, tuple[LinkHealth, bool]] = {}
        health = step = None
        debouncer = state.debouncer
        results: list[InferenceResult] = []
        append = results.append
        for frame, p in zip(frames, probabilities.tolist()):
            if state.health is not health:
                health = state.health
                step = resolved.get(health)
                if step is None:
                    step = resolved[health] = state.supervisor.resolve_health(
                        health, "primary"
                    )
            state.health, recovered = step
            if recovered:
                self.metrics.counter("fleet_tenant_recovered_total").inc()
                if tracing:
                    obs.emit(
                        "link.recovered",
                        t_s=frame.t_s,
                        frame_id=frame.frame_id,
                        link_id=tenant_id,
                    )
            flipped = debouncer.update(p >= 0.5)
            transition = None
            if flipped is not None:
                transition = Transition(frame.t_s, bool(flipped))
                self._transitions.inc()
            append(
                InferenceResult(
                    tenant_id,
                    frame.t_s,
                    p,
                    debouncer.state,
                    transition,
                    "primary",
                    frame.repaired,
                    frame.frame_id,
                )
            )
            if tracing:
                obs.frame_outcome(
                    "answered", frame.frame_id, tenant_id, frame.t_s,
                    source="primary", repaired=frame.repaired,
                )
        self.metrics.counter("fleet_frames_out").inc(len(frames))
        return results
