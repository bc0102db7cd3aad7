"""Recovery supervision: one policy for "which tier serves this batch?".

Before this module the engine's degraded-mode logic was scattered: the
try/except in ``_predict`` chose the tier, and an inline health flip in
``_run_batch`` decided when DEGRADED ended.  :class:`RecoverySupervisor`
centralises those decisions behind three calls the engine makes per batch:

* :meth:`decide` — PRIMARY / FALLBACK / REJECT for this batch, from the
  primary's circuit breaker, the drift sentinel, and (when the fallback
  itself is failing) the fallback's breaker;
* :meth:`record_primary_success` (etc.) — outcome feedback that drives
  the breakers and the recovery counters;
* :meth:`resolve_health` — the link-health transition rule that used to
  live inline in the engine, including the ``link_recovered_total``
  bookkeeping contract (only a *primary* batch ends DEGRADED).

The default ``RecoverySupervisor()`` (no breakers, no sentinel) is a
strict passthrough: ``decide`` always answers PRIMARY and the engine
behaves exactly as it did before this subsystem existed.

This module must not import :mod:`repro.serve` at module level — the
engine imports the guard package, and an eager import back the other way
would be a cycle.  The supervisor needs ``LinkHealth`` for
:meth:`resolve_health`, so it imports it lazily once, at construction,
when both packages are fully loaded — not on the per-batch call.
"""

from __future__ import annotations

import enum

import numpy as np

from .breaker import BreakerState, CircuitBreaker
from .drift import DriftSentinel, DriftState


class ServingMode(enum.Enum):
    """Which tier the supervisor assigns to a batch."""

    PRIMARY = "primary"
    FALLBACK = "fallback"
    REJECT = "reject"


class RecoverySupervisor:
    """Compose breaker + drift + link health into one serving policy.

    Parameters
    ----------
    breaker:
        Circuit breaker guarding the primary estimator.  ``None`` means
        the primary is always eligible (legacy behaviour).
    fallback_breaker:
        Breaker guarding the fallback tier; when both breakers are open
        the supervisor answers REJECT rather than letting the engine
        hammer two dead models.
    sentinel:
        Optional :class:`~repro.guard.drift.DriftSentinel` fed every
        served batch via :meth:`observe`.
    drift_action:
        ``"warn"`` (default) only emits metrics on drift; ``"fallback"``
        additionally routes batches to the fallback tier while the
        sentinel is TRIPped — the conservative prior beats confident
        extrapolation on a shifted distribution.
    registry:
        Metrics sink (a :class:`~repro.serve.metrics.MetricsRegistry`,
        duck-typed).  May also be attached later via
        :meth:`bind_registry` — the engine does this so a supervisor
        built before the engine shares the engine's registry.
    observer:
        Optional event sink (an :class:`~repro.obs.observer.Observer`,
        duck-typed).  When live, breaker transitions and drift state
        changes land in the structured event log with stream-time
        stamps; attached by the engine via :meth:`bind_observer`.
    """

    def __init__(
        self,
        *,
        breaker: CircuitBreaker | None = None,
        fallback_breaker: CircuitBreaker | None = None,
        sentinel: DriftSentinel | None = None,
        drift_action: str = "warn",
        registry=None,
        observer=None,
    ) -> None:
        if drift_action not in ("warn", "fallback"):
            raise ValueError(f"drift_action must be 'warn' or 'fallback', got {drift_action!r}")
        self.breaker = breaker
        self.fallback_breaker = fallback_breaker
        self.sentinel = sentinel
        self.drift_action = drift_action
        self.registry = registry
        self.observer = observer
        from ..serve.robustness import LinkHealth  # lazy: avoid guard<->serve cycle

        self._healthy = LinkHealth.HEALTHY
        self._degraded = LinkHealth.DEGRADED

    def bind_registry(self, registry) -> None:
        """Adopt the engine's metrics registry unless one was given."""
        if self.registry is None:
            self.registry = registry

    def bind_observer(self, observer) -> None:
        """Adopt the engine's observer unless one was given."""
        if self.observer is None:
            self.observer = observer

    def _inc(self, name: str, amount: float = 1.0) -> None:
        if self.registry is not None:
            self.registry.counter(name).inc(amount)

    def _set(self, name: str, value: float) -> None:
        if self.registry is not None:
            self.registry.gauge(name).set(value)

    def _event(self, kind: str, t_s: float, **data) -> None:
        observer = self.observer
        if observer is not None and observer.enabled:
            observer.emit(kind, t_s=t_s, **data)

    # --------------------------------------------------------------- routing

    def decide(self, now_s: float) -> ServingMode:
        """Pick the tier for a batch flushing at stream time ``now_s``."""
        primary_ok = self.breaker is None or self.breaker.allow(now_s)
        drifted = (
            self.drift_action == "fallback"
            and self.sentinel is not None
            and self.sentinel.state is DriftState.TRIP
        )
        if primary_ok and not drifted:
            return ServingMode.PRIMARY
        if self.fallback_breaker is not None and not self.fallback_breaker.allow(now_s):
            self._inc("guard_rejected_batches")
            return ServingMode.REJECT
        self._inc("guard_short_circuits")
        return ServingMode.FALLBACK

    # ------------------------------------------------------------- outcomes

    def _feed(self, breaker: CircuitBreaker | None, now_s: float, ok: bool, label: str) -> None:
        if breaker is None:
            return
        before = breaker.state
        if ok:
            breaker.record_success(now_s)
        else:
            breaker.record_failure(now_s)
        after = breaker.state
        if before is not after:
            if after is BreakerState.OPEN:
                self._inc(f"{label}_breaker_opened_total")
                self._event(
                    "breaker.opened", now_s, breaker=label,
                    trip_count=breaker.trip_count,
                )
            elif after is BreakerState.CLOSED:
                self._inc(f"{label}_breaker_closed_total")
                self._event(
                    "breaker.closed", now_s, breaker=label,
                    recovery_count=breaker.recovery_count,
                )
        if before is BreakerState.HALF_OPEN and ok:
            self._inc(f"{label}_breaker_probes_total")
            self._event("breaker.probe", now_s, breaker=label, ok=True)

    def record_primary_success(self, now_s: float) -> None:
        self._feed(self.breaker, now_s, True, "primary")

    def record_primary_failure(self, now_s: float) -> None:
        self._feed(self.breaker, now_s, False, "primary")

    def record_fallback_success(self, now_s: float) -> None:
        self._feed(self.fallback_breaker, now_s, True, "fallback")

    def record_fallback_failure(self, now_s: float) -> None:
        self._feed(self.fallback_breaker, now_s, False, "fallback")

    # ---------------------------------------------------------------- drift

    def observe(self, batch: np.ndarray, now_s: float) -> None:
        """Feed a served batch to the drift sentinel; publish its scores."""
        if self.sentinel is None:
            return
        events = self.sentinel.observe(batch, now_s)
        for event in events:
            if event.state is DriftState.TRIP:
                self._inc("drift_trip_total")
                self._event(
                    "drift.trip", event.t_s,
                    z=event.z_score, psi=event.psi_score,
                    previous=event.previous.value,
                )
            elif event.state is DriftState.WARN:
                self._inc("drift_warn_total")
                self._event(
                    "drift.warn", event.t_s,
                    z=event.z_score, psi=event.psi_score,
                    previous=event.previous.value,
                )
        self._set("drift_z_score", self.sentinel.z_score)
        self._set("drift_psi_score", self.sentinel.psi_score)
        order = {DriftState.OK: 0, DriftState.WARN: 1, DriftState.TRIP: 2}
        self._set("drift_state", order[self.sentinel.state])

    # --------------------------------------------------------------- health

    def resolve_health(self, health, source: str):
        """Next link health after a batch from ``source``.

        Returns ``(new_health, recovered)`` where ``recovered`` is True
        exactly when a DEGRADED link just completed a *primary* batch —
        the engine increments ``link_recovered_total`` on that edge.
        Fallback answers keep (or make) the link DEGRADED: the output is
        flowing but at reduced fidelity, and claiming recovery on a prior
        would defeat the metric's meaning.
        """
        if source != "primary":
            return self._degraded, False
        return self._healthy, health is self._degraded

    def snapshot(self) -> dict:
        """JSON-friendly diagnostic state for reports and tests."""
        return {
            "primary_breaker": None if self.breaker is None else self.breaker.snapshot(),
            "fallback_breaker": (
                None if self.fallback_breaker is None else self.fallback_breaker.snapshot()
            ),
            "drift_state": None if self.sentinel is None else self.sentinel.state.value,
            "drift_action": self.drift_action,
        }
