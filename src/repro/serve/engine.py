"""The micro-batched streaming inference engine.

Frames from one or many links enter :meth:`InferenceEngine.submit`; the
engine accumulates them in a bounded :class:`~repro.serve.queue.MicroBatchQueue`,
flushes when the batch fills or the oldest frame's latency budget expires,
runs a single vectorized ``predict_proba`` over the whole batch, and
routes each probability back to its link's
:class:`~repro.data.streaming.SmoothingDebouncer`.  Compared with the
frame-at-a-time :class:`~repro.data.streaming.StreamingDetector`, the
per-frame Python/autograd overhead is amortised over the batch — the
``serve-bench`` CLI command measures the resulting frames/s gap.

Degradation is explicit rather than accidental:

* queue overflow evicts the oldest frame (counted, never an exception);
* non-finite frames are rejected at admission (counted per link);
* frames older than ``stale_after_s`` at flush time are dropped and the
  link marked DEGRADED — late answers are worse than no answers;
* a primary-model exception reroutes the batch to the fallback predictor
  (see :mod:`repro.serve.robustness`) instead of killing the stream;
* DEGRADED is not a terminal state: the next batch a link completes from
  the *primary* model flips it back to HEALTHY and increments the
  ``link_recovered_total`` counter — an outage or fallback stretch ends
  the moment good answers flow again.

The engine also hosts the :mod:`repro.overload` control plane, all of it
off by default and a strict no-op until configured:

* ``rate_limit_hz`` puts a stream-time token bucket in front of every
  link; over-rate frames get a typed ``"rate_limited"`` ticket outcome
  at the front door instead of anonymously evicting a neighbour later;
* ``deadline_ms`` stamps every admitted frame with an absolute
  stream-time deadline; expired frames are shed at dequeue
  (``frame.deadline_expired``) rather than served stale;
* ``queue_credit`` bounds each link's share of the queue — a link over
  its credit evicts *its own* oldest frame, keeping backpressure
  attributable;
* an ``overload`` policy attaches a
  :class:`~repro.overload.governor.SaturationGovernor` that steps the
  engine through FULL → FASTPATH_ONLY → FALLBACK_ONLY → SHED as queue
  depth/wait EWMAs saturate, composing with (never bypassing) the
  supervisor's circuit breakers.

The engine optionally composes with the :mod:`repro.guard` subsystem:

* a :class:`~repro.guard.validation.FrameValidator` gates admission with
  a richer check chain (width, amplitude envelope, timestamp
  monotonicity, environment plausibility); refused frames land in a
  bounded :class:`~repro.guard.validation.QuarantineBuffer` with the
  verdict attached instead of vanishing;
* a :class:`~repro.guard.repair.GapRepairer` fills short per-link
  dropouts with synthetic frames, each flagged ``repaired`` end to end;
* a :class:`~repro.guard.supervisor.RecoverySupervisor` decides per
  batch which tier serves (primary / fallback / reject) from circuit
  breakers and a drift sentinel, and owns the link-health transition
  rule.  The default supervisor is a strict passthrough, so an engine
  built without guard components behaves exactly as before.

Every decision increments the engine's :class:`~repro.serve.metrics.MetricsRegistry`.

Accountability goes beyond counters: ``submit`` assigns every frame a
monotonic **frame id** (threaded through
:class:`~repro.serve.queue.PendingFrame` to :class:`InferenceResult`),
and when a live :class:`~repro.obs.observer.Observer` is attached the
engine records per-frame trace spans (wall time per stage: validate →
repair → enqueue → queue_wait → supervise → predict → emit) and emits
structured, stream-time-stamped events for every quarantine, gap fill,
overflow eviction, stale drop, batch flush, policy rejection and link
recovery.  The default observer is the no-op
:data:`~repro.obs.observer.NULL_OBSERVER`; every timing block hides
behind its ``enabled`` flag, so an untraced engine performs no clock
reads beyond the pre-existing batch-latency measurement and tier-1
throughput is untouched.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ..core.estimator import validate_estimator
from ..data.streaming import SmoothingDebouncer, Transition, check_csi_row
from ..exceptions import (
    ConfigError,
    ConfigurationError,
    ServingError,
    ShapeError,
    StreamError,
)
from ..guard.repair import GapRepairer
from ..guard.supervisor import RecoverySupervisor, ServingMode
from ..guard.validation import FrameValidator, QuarantineBuffer, QuarantinedFrame
from ..obs.observer import NULL_OBSERVER
from ..overload.deadline import deadline_for, expired
from ..overload.governor import SaturationGovernor, ServiceMode
from ..overload.limiter import RateLimiter
from .adaptive import AdaptiveBatcher
from .arena import FrameArena
from .config import ServeConfig
from .metrics import Counter, Gauge, Histogram, MetricsRegistry
from .queue import MicroBatchQueue, PendingFrame
from .robustness import FallbackPredictor, LinkHealth, PriorFallback
from .types import FrameTicket

#: Sentinel distinguishing "caller passed nothing" from explicit ``None``
#: for the removed per-knob keyword arguments (kept so a legacy call site
#: fails with a typed migration error instead of a bare ``TypeError``).
_UNSET = object()


@dataclass(frozen=True, slots=True)
class InferenceResult:
    """One completed frame: probability, smoothed state, optional event.

    One is built per answered frame; slots make that cheaper and smaller
    than a per-instance ``__dict__`` without changing fields, equality,
    hash or repr.
    """

    link_id: str
    t_s: float
    probability: float
    state: int
    transition: Transition | None
    #: "primary", "fallback" or "fastpath" — which tier produced the
    #: probability (fastpath = the frozen plan, full-precision answers).
    source: str
    #: True when the frame was synthesised by the gap repairer.
    repaired: bool = False
    #: The monotonic id ``submit`` assigned to this frame — the key that
    #: joins the result to its trace spans and events in :mod:`repro.obs`.
    frame_id: int = -1

    @property
    def tenant_id(self) -> str:
        """Alias for :attr:`link_id` — the fleet layer's tenant naming.

        Single-engine code says "link", the fleet says "tenant"; results
        answer to both so downstream consumers read one field name.
        """
        return self.link_id


class _LinkState:
    """Per-link serving context: debouncer, health, bookkeeping."""

    def __init__(self, window: int, hold_frames: int) -> None:
        self.debouncer = SmoothingDebouncer(window, hold_frames)
        self.health = LinkHealth.IDLE
        self.frames_in = 0
        self.frames_out = 0
        self.fallback_frames = 0
        self.stale_dropped = 0
        self.rejected = 0
        self.quarantined = 0
        self.repaired = 0
        self.policy_rejected = 0
        # Overload control plane tallies (always zero when unconfigured).
        self.rate_limited = 0
        self.deadline_expired = 0
        self.overflow = 0
        self.overload_shed = 0


class InferenceEngine:
    """Micro-batched, multi-link, failure-tolerant occupancy inference.

    Parameters
    ----------
    estimator:
        Any fitted :class:`~repro.core.estimator.Estimator`; only
        ``predict_proba`` is called.
    config:
        A :class:`~repro.serve.config.ServeConfig` bundling every knob
        below.  This is the *only* way to configure an engine: the
        pre-PR-6 per-knob keyword arguments were deprecated for one
        release and now raise a typed
        :class:`~repro.exceptions.ConfigError` whose message names the
        offending kwargs and the ``ServeConfig`` field each one maps to
        (same names, e.g. ``InferenceEngine(est, ServeConfig(max_batch=8))``).
    max_batch / max_latency_ms / queue_capacity:
        Micro-batching policy (see :class:`~repro.serve.queue.MicroBatchQueue`).
        Latency is measured in *stream* time (frame timestamps);
        ``max_latency_ms=None`` flushes on ``max_batch`` only
        (backlogged / offline-reprocessing mode).
    window / hold_frames:
        Per-link smoothing/debounce, identical semantics to
        :class:`~repro.data.streaming.StreamingDetector`.
    stale_after_s:
        Frames older than this at flush time are dropped (``None``
        disables the policy).
    fallback:
        Predictor used when the primary raises; defaults to
        :class:`~repro.serve.robustness.PriorFallback`.
    registry:
        Metrics sink; a private one is created when not shared.
    validator:
        Optional :class:`~repro.guard.validation.FrameValidator` run on
        every submitted frame after the basic shape/finite gate; failed
        frames are parked in :attr:`quarantine` and counted, never
        enqueued.
    repairer:
        Optional :class:`~repro.guard.repair.GapRepairer`; short gaps in
        a link's cadence are filled with synthetic frames flagged
        ``repaired``.
    supervisor:
        Optional :class:`~repro.guard.supervisor.RecoverySupervisor`
        deciding per batch which tier serves.  Defaults to a passthrough
        supervisor that reproduces the legacy behaviour exactly.
    quarantine:
        Holding pen for refused frames; auto-created when a validator is
        supplied without one.
    observer:
        Optional :class:`~repro.obs.observer.Observer` receiving per-frame
        trace spans and structured events.  Defaults to the no-op
        :data:`~repro.obs.observer.NULL_OBSERVER` (zero-cost: no clock
        reads, no allocations on the hot path).
    """

    def __init__(
        self,
        estimator,
        config: ServeConfig | None = None,
        *,
        max_batch=_UNSET,
        max_latency_ms=_UNSET,
        queue_capacity=_UNSET,
        window=_UNSET,
        hold_frames=_UNSET,
        stale_after_s=_UNSET,
        fallback=_UNSET,
        registry=_UNSET,
        validator=_UNSET,
        repairer=_UNSET,
        supervisor=_UNSET,
        quarantine=_UNSET,
        observer=_UNSET,
    ) -> None:
        legacy = {
            name: value
            for name, value in (
                ("max_batch", max_batch),
                ("max_latency_ms", max_latency_ms),
                ("queue_capacity", queue_capacity),
                ("window", window),
                ("hold_frames", hold_frames),
                ("stale_after_s", stale_after_s),
                ("fallback", fallback),
                ("registry", registry),
                ("validator", validator),
                ("repairer", repairer),
                ("supervisor", supervisor),
                ("quarantine", quarantine),
                ("observer", observer),
            )
            if value is not _UNSET
        }
        if legacy:
            names = ", ".join(sorted(legacy))
            raise ConfigError(
                "InferenceEngine no longer accepts per-knob keyword "
                f"arguments (got: {names}); pass a ServeConfig instead — "
                "each legacy kwarg maps to the ServeConfig field of the "
                "same name, e.g. "
                "InferenceEngine(estimator, ServeConfig(max_batch=8))"
            )
        if config is None:
            config = ServeConfig()
        validate_estimator(estimator, require=("predict_proba",))
        self.config = config
        self.estimator = estimator
        self.fallback = config.fallback if config.fallback is not None else PriorFallback()
        validate_estimator(self.fallback, require=("predict_proba",))
        self.window = config.window
        self.hold_frames = config.hold_frames
        self.stale_after_s = config.stale_after_s
        self.queue = MicroBatchQueue(
            max_batch=config.max_batch,
            max_latency_s=(
                None
                if config.max_latency_ms is None
                else config.max_latency_ms / 1000.0
            ),
            capacity=config.queue_capacity,
            credit=config.queue_credit,
        )
        self.registry = config.registry if config.registry is not None else MetricsRegistry()
        guard_v, guard_r, guard_s = config.build_guards(registry=self.registry)
        self.validator = guard_v
        self.repairer = guard_r
        self.supervisor = guard_s if guard_s is not None else RecoverySupervisor()
        self.supervisor.bind_registry(self.registry)
        self.observer = config.observer if config.observer is not None else NULL_OBSERVER
        self.observer.bind_registry(self.registry)
        self.supervisor.bind_observer(self.observer)
        quarantine_pen = config.quarantine
        if quarantine_pen is None and self.validator is not None:
            quarantine_pen = QuarantineBuffer()
        self.quarantine = quarantine_pen
        self._links: dict[str, _LinkState] = {}
        self._now_s = -np.inf
        self._frame_seq = 0
        # Preallocated ring of batch buffers (lazily sized to the frame
        # width) so _run_batch copies rows into reused storage instead of
        # np.stack-ing a fresh array per flush.  Two slots: inference is
        # synchronous, but the drift sentinel and custom estimators may
        # legitimately read the batch until the *next* flush begins.
        self._batch_ring: list[np.ndarray] = []
        self._ring_index = 0
        # Hot-swap state: a replacement estimator waiting for the queue to
        # drain, and an optional rollout manager fed every served batch.
        self._pending_estimator = None
        self._rollout = None
        # Overload control plane — every piece None/inert unless configured.
        self._auto_flush = config.auto_flush
        self.limiter = (
            RateLimiter(config.rate_limit_hz, config.rate_limit_burst)
            if config.rate_limit_hz is not None
            else None
        )
        self.deadline_s = (
            None if config.deadline_ms is None else config.deadline_ms / 1000.0
        )
        self.governor = None
        if config.overload is not None:
            budget_s = self.deadline_s
            if budget_s is None and config.max_latency_ms is not None:
                budget_s = config.max_latency_ms / 1000.0
            self.governor = SaturationGovernor(
                config.overload,
                capacity=config.queue_capacity,
                latency_budget_s=budget_s,
                registry=self.registry,
                observer=self.observer,
            )
        # Optional frozen fastpath plan the governor's FASTPATH_ONLY mode
        # prefers (attach via attach_fastpath; health-wise it is primary).
        self._fastpath = None
        # Zero-copy frame arena: created lazily at the first admitted
        # frame (the row width is unknown until then).  None arena_slots
        # keeps the legacy owned-array admission path.
        self._arena_slots = config.arena_slots
        self.arena: FrameArena | None = None
        # Adaptive batching: max_batch in the config is the *ceiling* the
        # batch ring is sized to; the batcher moves queue.max_batch and
        # the flush deadline underneath it, never above.
        self._batch_ceiling = config.max_batch
        self._batcher = (
            AdaptiveBatcher(
                config.min_batch,
                config.max_batch,
                None
                if config.max_latency_ms is None
                else config.max_latency_ms / 1000.0,
            )
            if config.adaptive_batching
            else None
        )

    # ------------------------------------------------------------- hot swap

    def replace_estimator(self, estimator, *, drain: bool = True):
        """Swap the primary estimator; returns the one being replaced.

        With ``drain=True`` (the default) the swap honours
        drain-before-swap semantics: every frame already admitted to the
        queue is served by the *current* estimator first, and the swap is
        applied the moment the queue next empties (immediately when it is
        already empty — no frame is dropped or re-routed either way).
        ``drain=False`` swaps immediately, abandoning that guarantee.

        The returned estimator is the active one at call time — with a
        deferred swap it keeps serving until the drain completes, so
        callers holding it for rollback always get the true incumbent.
        """
        validate_estimator(estimator, require=("predict_proba",))
        old = self.estimator
        if drain and self.queue.depth:
            self._pending_estimator = estimator
        else:
            self.estimator = estimator
            self._pending_estimator = None
            self.registry.counter("estimator_swaps_total").inc()
        return old

    def _apply_pending_swap(self) -> None:
        if self._pending_estimator is not None and not self.queue.depth:
            self.estimator = self._pending_estimator
            self._pending_estimator = None
            self.registry.counter("estimator_swaps_total").inc()

    def attach_rollout(self, manager) -> None:
        """Bind a rollout manager; it sees every served batch post-emit.

        ``manager`` follows the :class:`repro.rollout.promote.RolloutManager`
        duck type: ``on_batch(frames, rows, probabilities, now_s,
        source=...)`` invoked after each batch's results are built, so a
        shadow challenger replays exactly the frames the champion served.
        """
        self._rollout = manager

    def detach_rollout(self):
        """Unbind and return the rollout manager (None when absent)."""
        manager, self._rollout = self._rollout, None
        return manager

    # ---------------------------------------------------------------- links

    def _link(self, link_id: str) -> _LinkState:
        link = self._links.get(link_id)
        if link is None:
            link = self._links[link_id] = _LinkState(self.window, self.hold_frames)
            self.registry.gauge("links").set(len(self._links))
        return link

    @property
    def link_ids(self) -> tuple[str, ...]:
        """Links seen so far, in first-submission order."""
        return tuple(self._links)

    def health(self, link_id: str) -> LinkHealth:
        """The serving health of one link (IDLE until its first result)."""
        if link_id not in self._links:
            raise ConfigurationError(f"unknown link {link_id!r}")
        return self._links[link_id].health

    def state(self, link_id: str) -> int:
        """The link's current debounced occupancy state (0/1)."""
        if link_id not in self._links:
            raise ConfigurationError(f"unknown link {link_id!r}")
        return self._links[link_id].debouncer.state

    # --------------------------------------------------------------- submit

    def submit(self, link_id: str, t_s: float, csi_row: np.ndarray) -> list[InferenceResult]:
        """Enqueue one frame; returns results for any batch this triggered.

        Malformed frames (wrong shape, NaN/inf) are rejected and counted,
        never enqueued — one broken sniffer row must not take down the
        shared pipeline.  With a validator attached, frames that fail its
        richer check chain are quarantined (with the verdict) instead;
        with a repairer attached, an admitted frame that closes a short
        cadence gap first enqueues the synthetic fill frames, flagged
        ``repaired``.

        For a receipt carrying the assigned frame id and admission
        outcome, use :meth:`submit_frame` instead.
        """
        return self._admit(link_id, t_s, csi_row)[2]

    def submit_frame(self, tenant_id: str, t_s: float, csi_row: np.ndarray) -> FrameTicket:
        """Like :meth:`submit`, but returns a typed :class:`FrameTicket`.

        The ticket carries the monotonic frame id this submission was
        assigned (the join key into :mod:`repro.obs` traces/events), the
        admission outcome, and any results the submission flushed — the
        normalised surface shared with :class:`repro.fleet.Fleet`.
        """
        frame_id, outcome, results = self._admit(tenant_id, t_s, csi_row)
        return FrameTicket(
            tenant_id=tenant_id,
            frame_id=frame_id,
            t_s=float(t_s),
            outcome=outcome,
            results=tuple(results),
        )

    def _admit(
        self, link_id: str, t_s: float, csi_row: np.ndarray
    ) -> tuple[int, str, list[InferenceResult]]:
        link = self._link(link_id)
        obs = self.observer
        tracing = obs.enabled
        frame_id = self._frame_seq
        self._frame_seq += 1
        t_f = float(t_s)
        if tracing:
            obs.frame_submitted(frame_id, link_id, t_f)
        slot = None
        if self._arena_slots is not None:
            staged = self._stage_row(csi_row)
            if staged is None:
                link.rejected += 1
                self.registry.counter("frames_rejected").inc()
                if tracing:
                    obs.frame_outcome("rejected", frame_id, link_id, t_f, gate="shape")
                return frame_id, "rejected", []
            csi_row, slot = staged
        else:
            try:
                csi_row = check_csi_row(csi_row)
            except (ShapeError, StreamError):
                link.rejected += 1
                self.registry.counter("frames_rejected").inc()
                if tracing:
                    obs.frame_outcome("rejected", frame_id, link_id, t_f, gate="shape")
                return frame_id, "rejected", []
        if self.limiter is not None and not self.limiter.admit(link_id, t_f):
            # After the shape gate (malformed frames must not spend
            # tokens), before the validator (an over-rate tenant must not
            # burn validator CPU either).
            self._release_ref(slot)
            link.rate_limited += 1
            self.registry.counter("frames_rate_limited").inc()
            if tracing:
                obs.frame_outcome(
                    "rate_limited",
                    frame_id,
                    link_id,
                    t_f,
                    reserved_hz=self.limiter.reserved_hz(link_id),
                )
            return frame_id, "rate_limited", []
        if self.validator is not None:
            if tracing:
                t0 = time.perf_counter()
            failure = self.validator.validate(link_id, t_f, csi_row)
            if tracing:
                obs.tracer.add_stage(
                    frame_id, "validate", 1000.0 * (time.perf_counter() - t0)
                )
            if failure is not None:
                link.quarantined += 1
                self.registry.counter("frames_quarantined").inc()
                if slot is not None:
                    # The pen outlives the slot: park an owned copy.
                    csi_row = csi_row.copy()
                    self._release_ref(slot)
                self.quarantine.add(
                    QuarantinedFrame(link_id, t_f, csi_row, failure)
                )
                if tracing:
                    obs.frame_outcome(
                        "quarantined", frame_id, link_id, t_f, check=failure.check
                    )
                return frame_id, "quarantined", []
        link.frames_in += 1
        self._frames_in.inc()
        self._now_s = max(self._now_s, t_f)
        if self._batcher is not None:
            self._batcher.observe(t_f)
            self._apply_batch_decision(t_f)

        # Positional: keyword binding would double the construction cost.
        # Fields: link_id, t_s, csi, repaired, frame_id, deadline_s, slot.
        pending = [
            PendingFrame(
                link_id,
                t_f,
                csi_row,
                False,
                frame_id,
                deadline_for(t_f, self.deadline_s),
                slot,
            )
        ]
        if self.repairer is not None:
            if tracing:
                t0 = time.perf_counter()
            fills = self.repairer.observe(link_id, t_f, csi_row)
            if tracing:
                obs.tracer.add_stage(
                    frame_id, "repair", 1000.0 * (time.perf_counter() - t0)
                )
            if fills:
                link.repaired += len(fills)
                self.registry.counter("frames_repaired").inc(len(fills))
                filled: list[PendingFrame] = []
                for fill in fills:
                    fill_id = self._frame_seq
                    self._frame_seq += 1
                    fill_row, fill_slot = fill.row, None
                    if self.arena is not None:
                        fill_slot = self.arena.acquire(fill.row)
                        if fill_slot is not None:
                            fill_row = self.arena.slab[fill_slot.slot]
                        else:
                            self.registry.counter("arena_fallback_total").inc()
                    filled.append(
                        PendingFrame(
                            link_id,
                            fill.t_s,
                            fill_row,
                            repaired=True,
                            frame_id=fill_id,
                            deadline_s=deadline_for(fill.t_s, self.deadline_s),
                            slot=fill_slot,
                        )
                    )
                    if tracing:
                        obs.frame_filled(fill_id, link_id, fill.t_s, source_frame=frame_id)
                pending = filled + pending
        for frame in pending:
            if tracing:
                t0 = time.perf_counter()
            evicted = self.queue.push(frame)
            if evicted is not None:
                self._release_frame(evicted)
                self._link(evicted.link_id).overflow += 1
                self.registry.counter("frames_dropped_overflow").inc()
                if tracing:
                    obs.frame_outcome(
                        "overflow", evicted.frame_id, evicted.link_id, evicted.t_s
                    )
            if tracing:
                obs.tracer.add_stage(
                    frame.frame_id, "enqueue", 1000.0 * (time.perf_counter() - t0)
                )
                obs.tracer.mark_enqueued(frame.frame_id)
        # The gauge is bound here, where the registry first saw it, and
        # set once the call's flushes are done: one write per call.
        queue_depth = self._queue_depth
        self._queue_depth_dist.observe(self.queue.depth)
        self._sync_arena_metrics()

        results: list[InferenceResult] = []
        if self._auto_flush:
            while self.queue.ready(self._now_s):
                results.extend(self._run_batch(self.queue.drain()))
            self._apply_pending_swap()
        queue_depth.set(self.queue.depth)
        return frame_id, "enqueued", results

    # Registry handles of the per-frame and per-batch paths.  Each is
    # looked up by name on first use only, so a metric still enters the
    # registry (and as_dict()/the exposition order) when it first fires.

    @cached_property
    def _frames_in(self) -> Counter:
        return self.registry.counter("frames_in")

    @cached_property
    def _queue_depth(self) -> Gauge:
        return self.registry.gauge("queue_depth")

    @cached_property
    def _queue_depth_dist(self) -> Histogram:
        return self.registry.histogram("queue_depth_dist")

    @cached_property
    def _batches(self) -> Counter:
        return self.registry.counter("batches")

    @cached_property
    def _batch_size(self) -> Histogram:
        return self.registry.histogram("batch_size")

    @cached_property
    def _batch_latency_ms(self) -> Histogram:
        return self.registry.histogram("batch_latency_ms")

    @cached_property
    def _frames_out(self) -> Counter:
        return self.registry.counter("frames_out")

    @cached_property
    def _transitions(self) -> Counter:
        return self.registry.counter("transitions")

    # ----------------------------------------------------- arena / adaptive

    def _stage_row(self, csi_row) -> tuple[np.ndarray, object | None] | None:
        """Arena admission: one copy into a slab slot, gated on the view.

        Returns ``(row, slot_ref)`` — ``slot_ref`` is ``None`` when the
        frame fell back to the legacy owned-array path (ring exhausted,
        unexpected width, exotic dtype) — or ``None`` for a malformed
        frame the shape/finite gate refuses.  Note the float32 slab means
        values beyond float32 range overflow to ``inf`` and are refused
        at the finite gate; CSI amplitudes live many orders of magnitude
        below that.
        """
        arr = np.asarray(csi_row)
        if arr.ndim != 1:
            return None
        if arr.dtype.kind not in "fiub":
            # Exotic dtypes keep the legacy gate's cast-or-reject
            # semantics; the arena only stages plain numeric rows.
            return self._stage_fallback(arr)
        arena = self.arena
        if arena is None:
            arena = self.arena = FrameArena(self._arena_slots, arr.shape[0])
            self.registry.gauge("arena_slots").set(arena.n_slots)
        ref = arena.acquire(arr) if arr.shape[0] == arena.width else None
        if ref is None:
            return self._stage_fallback(arr)
        view = arena.slab[ref.slot]
        if not np.isfinite(view).all():
            arena.release(ref)
            return None
        return view, ref

    def _stage_fallback(self, arr) -> tuple[np.ndarray, None] | None:
        """The owned-array path for frames the arena cannot stage."""
        try:
            row = check_csi_row(arr)
        except (ShapeError, StreamError):
            return None
        self.registry.counter("arena_fallback_total").inc()
        return row, None

    def _release_ref(self, ref) -> None:
        if ref is not None:
            self.arena.release(ref)

    def _release_frame(self, frame: PendingFrame) -> None:
        """Recycle a frame's slab slot the moment its outcome is terminal."""
        if frame.slot is not None:
            self.arena.release(frame.slot)

    def _sync_arena_metrics(self) -> None:
        arena = self.arena
        if arena is not None:
            self.registry.gauge("arena_in_use").set(arena.in_use)
            self.registry.gauge("arena_acquired_total").set(arena.acquired_total)
            self.registry.gauge("arena_released_total").set(arena.released_total)

    def _apply_batch_decision(self, t_s: float) -> None:
        """Point the queue's flush triggers at the batcher's decision.

        The flush deadline tracks the rate estimate continuously (and
        silently); a batch-*size* change is the discrete, observable
        decision — counted and recorded as a closed-taxonomy
        ``serve.batch_resize`` event so a same-seed replay reproduces the
        full decision sequence byte-identically.
        """
        severity = 0 if self.governor is None else self.governor.mode.severity
        batch, deadline_s = self._batcher.decide(severity)
        previous = self.queue.max_batch
        if batch == previous and deadline_s == self.queue.max_latency_s:
            return
        self.queue.resize(batch, deadline_s)
        if batch == previous:
            return
        self.registry.counter("batch_resizes_total").inc()
        self.registry.gauge("adaptive_batch_size").set(batch)
        if self.observer.enabled:
            self.observer.emit(
                "serve.batch_resize",
                t_s=t_s,
                previous=previous,
                batch=batch,
                deadline_ms=None if deadline_s is None else 1000.0 * deadline_s,
            )

    def flush(self) -> list[InferenceResult]:
        """Force inference on everything pending (end of stream, shutdown)."""
        results: list[InferenceResult] = []
        while self.queue.depth:
            results.extend(self._run_batch(self.queue.drain()))
        self._apply_pending_swap()
        return results

    def pump(
        self, max_frames: int | None = None, now_s: float | None = None
    ) -> list[InferenceResult]:
        """Serve up to ``max_frames`` pending frames as micro-batches.

        The explicit service half of the decoupled loop: with
        ``auto_flush=False`` in the config, ``submit`` only enqueues and
        a driver calls ``pump`` at whatever cadence models its service
        capacity — the overload bench uses exactly this to create real
        backlog from open-loop arrivals.  ``now_s`` advances stream time
        (service happening later than the newest arrival); ``None``
        serves at the current stream time.  ``max_frames=None`` drains
        everything pending, in ``max_batch``-sized batches.
        """
        if max_frames is not None and max_frames < 0:
            raise ConfigurationError("max_frames must be >= 0 (or None)")
        if now_s is not None:
            self._now_s = max(self._now_s, float(now_s))
        budget = self.queue.depth if max_frames is None else int(max_frames)
        results: list[InferenceResult] = []
        while self.queue.depth and budget > 0:
            batch = self.queue.drain(min(budget, self.queue.max_batch))
            budget -= len(batch)
            results.extend(self._run_batch(batch))
        self._apply_pending_swap()
        return results

    # ------------------------------------------------------------- overload

    @property
    def mode(self) -> ServiceMode:
        """The governor's current degradation rung (FULL when ungoverned)."""
        return ServiceMode.FULL if self.governor is None else self.governor.mode

    def attach_fastpath(self, plan) -> None:
        """Bind a frozen inference plan for FASTPATH_ONLY mode.

        ``plan`` follows the :class:`repro.fastpath.plan.InferencePlan`
        duck type (``predict_proba(x) -> (n,)``).  While the governor
        sits on the FASTPATH_ONLY rung the plan serves instead of the
        primary estimator; its answers count as primary for link health
        (a frozen copy of the primary is not a degraded tier).
        """
        if plan is not None:
            validate_estimator(plan, require=("predict_proba",))
        self._fastpath = plan

    def link_stats(self, link_id: str) -> dict[str, int]:
        """Per-link lifetime tallies (admission through terminal outcome).

        The engine-side half of the frame ledger, keyed like the fleet's
        per-tenant ``counters()`` so bench reconciliation reads one
        schema across both serving surfaces.
        """
        if link_id not in self._links:
            raise ConfigurationError(f"unknown link {link_id!r}")
        link = self._links[link_id]
        return {
            "frames_in": link.frames_in,
            "frames_out": link.frames_out,
            "fallback_frames": link.fallback_frames,
            "stale_dropped": link.stale_dropped,
            "rejected": link.rejected,
            "quarantined": link.quarantined,
            "repaired": link.repaired,
            "policy_rejected": link.policy_rejected,
            "rate_limited": link.rate_limited,
            "deadline_expired": link.deadline_expired,
            "overflow": link.overflow,
            "overload_shed": link.overload_shed,
        }

    # ---------------------------------------------------------------- batch

    def _drop_expired(self, frames: list[PendingFrame]) -> list[PendingFrame]:
        """Shed frames whose deadline budget ran out while they queued."""
        if self.deadline_s is None:
            return frames
        obs = self.observer
        alive: list[PendingFrame] = []
        for frame in frames:
            if expired(frame.deadline_s, self._now_s):
                self._release_frame(frame)
                link = self._link(frame.link_id)
                link.deadline_expired += 1
                self.registry.counter("frames_deadline_expired").inc()
                if obs.enabled:
                    obs.frame_outcome(
                        "deadline_expired",
                        frame.frame_id,
                        frame.link_id,
                        frame.t_s,
                        age_s=self._now_s - frame.t_s,
                        budget_s=self.deadline_s,
                    )
            else:
                alive.append(frame)
        return alive

    def _shed_overload(self, frames: list[PendingFrame]) -> list[InferenceResult]:
        """Governor in SHED mode: refuse the batch, typed and counted.

        Unlike :meth:`_reject_batch` (both tiers broken — a fault) a shed
        is a *load* decision, so link health is left alone: the link did
        nothing wrong and recovers the moment the governor steps down.
        """
        self.registry.counter("frames_shed_overload").inc(len(frames))
        obs = self.observer
        for frame in frames:
            self._release_frame(frame)
            self._link(frame.link_id).overload_shed += 1
            if obs.enabled:
                obs.frame_outcome(
                    "shed", frame.frame_id, frame.link_id, frame.t_s
                )
        return []

    def _drop_stale(self, frames: list[PendingFrame]) -> list[PendingFrame]:
        if self.stale_after_s is None:
            return frames
        obs = self.observer
        fresh: list[PendingFrame] = []
        for frame in frames:
            if self._now_s - frame.t_s > self.stale_after_s:
                self._release_frame(frame)
                link = self._link(frame.link_id)
                link.stale_dropped += 1
                link.health = LinkHealth.DEGRADED
                self.registry.counter("frames_dropped_stale").inc()
                if obs.enabled:
                    obs.frame_outcome(
                        "stale",
                        frame.frame_id,
                        frame.link_id,
                        frame.t_s,
                        age_s=self._now_s - frame.t_s,
                    )
            else:
                fresh.append(frame)
        return fresh

    def _predict(
        self, x: np.ndarray, service_mode: ServiceMode = ServiceMode.FULL
    ) -> tuple[np.ndarray, str] | None:
        """Run the supervisor-selected tier; ``None`` means batch rejected.

        The governor's ``service_mode`` selects the *preferred* tier; the
        supervisor's breaker verdict still composes on top — a governor
        cannot force traffic onto a tier the breakers hold open.
        """
        mode = self.supervisor.decide(self._now_s)
        if mode is ServingMode.REJECT:
            return None
        if service_mode is ServiceMode.FASTPATH_ONLY and self._fastpath is not None:
            try:
                probabilities = np.asarray(
                    self._fastpath.predict_proba(x), dtype=float
                ).ravel()
            except Exception:
                # A broken plan falls through to the normal tier walk —
                # degraded capacity, never a dead surface.
                self.registry.counter("fastpath_failures").inc()
            else:
                return probabilities, "fastpath"
        if mode is ServingMode.PRIMARY and service_mode is not ServiceMode.FALLBACK_ONLY:
            try:
                probabilities = np.asarray(
                    self.estimator.predict_proba(x), dtype=float
                ).ravel()
            except Exception:
                self.registry.counter("primary_failures").inc()
                self.supervisor.record_primary_failure(self._now_s)
            else:
                self.supervisor.record_primary_success(self._now_s)
                return probabilities, "primary"
        try:
            probabilities = np.asarray(
                self.fallback.predict_proba(x), dtype=float
            ).ravel()
        except Exception as error:  # both tiers dead: surface loudly
            self.supervisor.record_fallback_failure(self._now_s)
            raise ServingError(
                "primary estimator and fallback predictor both failed"
            ) from error
        self.supervisor.record_fallback_success(self._now_s)
        return probabilities, "fallback"

    def _assemble(self, frames: list[PendingFrame]) -> np.ndarray:
        """Copy the batch rows into a reused buffer (zero fresh allocation).

        Falls back to ``np.stack`` for over-long batches or mixed frame
        widths, where it reproduces the legacy behaviour (including the
        ``ValueError`` a ragged batch has always raised).
        """
        n = len(frames)
        width = frames[0].csi.shape[0]
        ceiling = max(self._batch_ceiling, self.queue.max_batch)
        if n > ceiling or any(
            frame.csi.shape[0] != width for frame in frames
        ):
            return np.stack([frame.csi for frame in frames])
        # The ring is sized to the configured ceiling, not the queue's
        # *current* max_batch, so adaptive resizes never reallocate; on
        # the arena path it matches the slab dtype (float32) end to end.
        dtype = np.float32 if self._arena_slots is not None else np.float64
        shape = (ceiling, width)
        if (
            not self._batch_ring
            or self._batch_ring[0].shape != shape
            or self._batch_ring[0].dtype != dtype
        ):
            self._batch_ring = [np.empty(shape, dtype=dtype) for _ in range(2)]
            self._ring_index = 0
        buffer = self._batch_ring[self._ring_index]
        self._ring_index = (self._ring_index + 1) % len(self._batch_ring)
        x = buffer[:n]
        for i, frame in enumerate(frames):
            x[i] = frame.csi
        return x

    def _run_batch(self, frames: list[PendingFrame]) -> list[InferenceResult]:
        mode = ServiceMode.FULL
        if self.governor is not None and frames:
            # Depth at drain time (queue remainder plus this batch) and
            # the oldest frame's queueing delay — both stream time.
            mode = self.governor.observe(
                self.queue.depth + len(frames),
                self._now_s - frames[0].t_s,
                self._now_s,
            )
        frames = self._drop_expired(frames)
        frames = self._drop_stale(frames)
        self._queue_depth.set(self.queue.depth)
        if not frames:
            return []
        if mode is ServiceMode.SHED:
            return self._shed_overload(frames)
        obs = self.observer
        tracing = obs.enabled
        if tracing:
            for frame in frames:
                obs.tracer.queue_wait(frame.frame_id)
            t0 = time.perf_counter()
        x = self._assemble(frames)
        if mode is ServiceMode.FULL:
            # Degraded rungs skip per-batch drift scoring — the sentinel
            # window is guard overhead the governor is shedding.
            self.supervisor.observe(x, self._now_s)
        if tracing:
            supervise_ms = 1000.0 * (time.perf_counter() - t0)
            for frame in frames:
                obs.tracer.add_stage(frame.frame_id, "supervise", supervise_ms)

        start = time.perf_counter()
        predicted = self._predict(x, mode)
        if predicted is None:
            return self._reject_batch(frames)
        probabilities, source = predicted
        latency_ms = 1000.0 * (time.perf_counter() - start)

        if probabilities.shape[0] != len(frames):
            raise ServingError(
                f"{source} predictor returned {probabilities.shape[0]} probabilities "
                f"for a batch of {len(frames)}"
            )
        n = len(frames)
        self._batches.inc()
        self._batch_size.observe(n)
        self._batch_latency_ms.observe(latency_ms)
        self._frames_out.inc(n)
        fallback = source == "fallback"
        if fallback:
            self.registry.counter("fallback_frames").inc(n)
        if tracing:
            # Every frame in the batch really did wait out the whole
            # predict call, so each gets the full batch latency.
            for frame in frames:
                obs.tracer.add_stage(frame.frame_id, "predict", latency_ms)
            obs.emit("batch.flush", t_s=self._now_s, n=len(frames), source=source)
            emit_t0 = time.perf_counter()

        # Batch-level work once: one conversion to Python floats and one
        # health resolution per distinct link health (the source is fixed
        # for the batch).  The loop below is O(1) per frame; its ``p >=
        # 0.5`` on the converted float equals numpy's, since 0.5 is exact.
        health_source = "primary" if source == "fastpath" else source
        resolved: dict[LinkHealth, tuple[LinkHealth, bool]] = {}
        health = step = None
        links = self._links
        results: list[InferenceResult] = []
        append = results.append
        for frame, p in zip(frames, probabilities.tolist()):
            link = links[frame.link_id]
            link.frames_out += 1
            if fallback:
                link.fallback_frames += 1
            if link.health is not health:
                health = link.health
                step = resolved.get(health)
                if step is None:
                    step = resolved[health] = self.supervisor.resolve_health(
                        health, health_source
                    )
            link.health, recovered = step
            if recovered:
                self.registry.counter("link_recovered_total").inc()
                if tracing:
                    obs.emit(
                        "link.recovered",
                        t_s=frame.t_s,
                        frame_id=frame.frame_id,
                        link_id=frame.link_id,
                    )
            debouncer = link.debouncer
            flipped = debouncer.update(p >= 0.5)
            transition = None
            if flipped is not None:
                transition = Transition(frame.t_s, bool(flipped))
                self._transitions.inc()
            append(
                InferenceResult(
                    frame.link_id,
                    frame.t_s,
                    p,
                    debouncer.state,
                    transition,
                    source,
                    frame.repaired,
                    frame.frame_id,
                )
            )
            if tracing:
                obs.frame_outcome(
                    "answered",
                    frame.frame_id,
                    frame.link_id,
                    frame.t_s,
                    source=source,
                    repaired=frame.repaired,
                )
        if tracing:
            # The emit loop is one pass over the batch; attribute each
            # frame its share so per-stage sums stay comparable.
            emit_ms = 1000.0 * (time.perf_counter() - emit_t0) / n
            for frame in frames:
                obs.tracer.add_stage(frame.frame_id, "emit", emit_ms)
        if self._rollout is not None:
            # After emission: the served outputs above are final, so the
            # shadow leg can never affect them.  A promotion requested in
            # here defers via replace_estimator until the queue drains.
            self._rollout.on_batch(
                frames, x[: len(frames)], probabilities, self._now_s, source=source
            )
        if self.arena is not None:
            # Answered is terminal: the rows live on in the batch ring
            # copy (x), so the slab slots recycle immediately.  Consumers
            # must not retain frame.csi past this point — the same
            # aliasing contract the two-slot batch ring already imposes.
            for frame in frames:
                self._release_frame(frame)
            self._sync_arena_metrics()
        return results

    def _reject_batch(self, frames: list[PendingFrame]) -> list[InferenceResult]:
        """Both tiers circuit-broken: shed the batch, mark links DEGRADED."""
        self.registry.counter("frames_rejected_policy").inc(len(frames))
        obs = self.observer
        if obs.enabled:
            obs.emit("batch.rejected", t_s=self._now_s, n=len(frames))
        for frame in frames:
            self._release_frame(frame)
            link = self._link(frame.link_id)
            link.policy_rejected += 1
            link.health = LinkHealth.DEGRADED
            if obs.enabled:
                obs.frame_outcome(
                    "policy_rejected", frame.frame_id, frame.link_id, frame.t_s
                )
        return []
