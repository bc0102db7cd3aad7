"""One declarative bundle of serving configuration.

:class:`~repro.serve.engine.InferenceEngine` historically grew a keyword
argument per subsystem — queue bounds, smoothing, staleness, fallback,
the four guard components, the observer — and every new serving surface
(benchmarks, the chaos harness, now the fleet layer) had to re-plumb the
same dozen knobs.  :class:`ServeConfig` consolidates them into a single
frozen dataclass that both ``InferenceEngine`` and :class:`repro.fleet.Fleet`
accept, so one object describes "how a stream is served" everywhere.

Two conveniences beyond plain field storage:

* ``guard`` may hold a :class:`~repro.guard.policy.GuardPolicy`; when the
  explicit ``validator``/``repairer``/``supervisor`` fields are unset,
  :meth:`ServeConfig.build_guards` manufactures **fresh** components from
  the policy per call — exactly what the fleet needs to give every tenant
  isolated guard state from one shared recipe.
* the legacy keyword arguments on ``InferenceEngine.__init__`` had their
  one deprecation release (PR 6) and now raise a typed
  :class:`~repro.exceptions.ConfigError` naming the offending kwargs —
  each maps to the ``ServeConfig`` field of the same name.

Shared *instances* (``registry``, ``observer``, a prebuilt ``supervisor``)
are deliberately allowed — sharing a metrics registry across engines is a
feature — but anything stateful that must not leak between streams should
be expressed as a ``guard`` policy, not prebuilt components.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Any

from ..exceptions import ConfigError, ConfigurationError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from ..guard.policy import GuardPolicy
    from ..guard.repair import GapRepairer
    from ..guard.supervisor import RecoverySupervisor
    from ..guard.validation import FrameValidator, QuarantineBuffer
    from ..overload.governor import OverloadPolicy
    from .metrics import MetricsRegistry
    from .robustness import FallbackPredictor


@dataclass(frozen=True)
class ServeConfig:
    """Everything an engine (or fleet tenant) needs besides the estimator.

    Field semantics are identical to the historical
    :class:`~repro.serve.engine.InferenceEngine` keyword arguments; see
    that class for the full per-knob documentation.  Defaults reproduce
    the engine's defaults exactly, so ``ServeConfig()`` is the legacy
    no-argument engine.
    """

    # --- micro-batching ---
    max_batch: int = 32
    max_latency_ms: float | None = 250.0
    queue_capacity: int = 256
    # --- smoothing / staleness ---
    window: int = 5
    hold_frames: int = 3
    stale_after_s: float | None = None
    # --- robustness / metrics ---
    fallback: "FallbackPredictor | None" = None
    registry: "MetricsRegistry | None" = None
    # --- guard components (prebuilt instances) ---
    validator: "FrameValidator | None" = None
    repairer: "GapRepairer | None" = None
    supervisor: "RecoverySupervisor | None" = None
    quarantine: "QuarantineBuffer | None" = None
    # --- guard recipe (fresh components per build_guards call) ---
    guard: "GuardPolicy | None" = None
    # --- observability ---
    observer: Any = None
    # --- overload control plane (all None/off by default: strict no-op) ---
    #: Per-tenant sustained admission rate; over-rate frames get a typed
    #: ``"rate_limited"`` ticket outcome instead of queueing.
    rate_limit_hz: float | None = None
    #: Token-bucket depth (bounded per-tenant credit at admission);
    #: defaults to ``max(1, rate_limit_hz)`` when a rate is set.
    rate_limit_burst: float | None = None
    #: Stream-time deadline budget per frame; expired frames are shed at
    #: dequeue (``frame.deadline_expired``) instead of served stale.
    deadline_ms: float | None = None
    #: Per-link bound on in-queue frames (engine path): a link over its
    #: credit evicts its *own* oldest frame, keeping backpressure
    #: attributable.  ``None`` keeps global oldest-first eviction.
    queue_credit: int | None = None
    #: Saturation-governor policy; ``None`` disables the degradation
    #: ladder entirely (the surface always serves in FULL mode).
    overload: "OverloadPolicy | None" = None
    #: ``False`` decouples admission from service: ``submit`` only
    #: enqueues, and batches run via explicit
    #: :meth:`~repro.serve.engine.InferenceEngine.pump` / ``flush``
    #: calls.  Open-loop benches use this to model finite service
    #: capacity; the default keeps the legacy synchronous serve loop.
    auto_flush: bool = True

    def __post_init__(self) -> None:
        if self.max_batch < 1:
            raise ConfigurationError("max_batch must be >= 1")
        if self.queue_capacity < self.max_batch:
            raise ConfigurationError(
                f"max_batch ({self.max_batch}) must be <= queue_capacity "
                f"({self.queue_capacity}); queue_capacity must be >= max_batch"
            )
        if self.max_latency_ms is not None and self.max_latency_ms <= 0:
            raise ConfigurationError("max_latency_ms must be positive (or None)")
        if self.stale_after_s is not None and self.stale_after_s <= 0:
            raise ConfigurationError("stale_after_s must be positive (or None)")
        # Overload knobs fail here, with the field named, rather than deep
        # in the engine on the first admitted frame.
        if self.rate_limit_hz is not None and self.rate_limit_hz <= 0:
            raise ConfigError(
                f"rate_limit_hz must be positive (or None), got {self.rate_limit_hz}"
            )
        if self.rate_limit_burst is not None:
            if self.rate_limit_hz is None:
                raise ConfigError("rate_limit_burst needs rate_limit_hz to be set")
            if self.rate_limit_burst < 1:
                raise ConfigError(
                    f"rate_limit_burst must be >= 1 (or None), got {self.rate_limit_burst}"
                )
        if self.deadline_ms is not None and self.deadline_ms <= 0:
            raise ConfigError(
                f"deadline_ms must be positive (or None), got {self.deadline_ms}"
            )
        if self.queue_credit is not None and self.queue_credit < 1:
            raise ConfigError(
                f"queue_credit must be >= 1 (or None), got {self.queue_credit}"
            )

    def with_overrides(self, **overrides: Any) -> "ServeConfig":
        """A copy with the given fields replaced (validation re-runs)."""
        return replace(self, **overrides)

    def build_guards(
        self, registry: "MetricsRegistry | None" = None
    ) -> tuple[
        "FrameValidator | None",
        "GapRepairer | None",
        "RecoverySupervisor | None",
    ]:
        """Resolve the guard chain for one stream.

        Explicit component fields win; otherwise, when a ``guard`` policy
        is present, fresh instances are built from it (per-call, so each
        stream gets isolated breaker clocks, cadence state and drift
        windows).  With neither, all three come back ``None`` and the
        engine runs its legacy passthrough behaviour.
        """
        validator, repairer, supervisor = self.validator, self.repairer, self.supervisor
        if self.guard is not None:
            built_v, built_r, built_s = self.guard.build(registry=registry)
            validator = validator if validator is not None else built_v
            repairer = repairer if repairer is not None else built_r
            supervisor = supervisor if supervisor is not None else built_s
        return validator, repairer, supervisor
