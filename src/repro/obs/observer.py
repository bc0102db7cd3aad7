"""The observability facade the serving stack threads through itself.

:class:`Observer` bundles the two sinks — a :class:`~repro.obs.tracer.FrameTracer`
for wall-clock stage spans and an :class:`~repro.obs.events.EventLog` for
deterministic structured events — behind the single object the
:class:`~repro.serve.engine.InferenceEngine`, the
:class:`~repro.guard.supervisor.RecoverySupervisor`, the trainer and the
benches all accept.

The default is :data:`NULL_OBSERVER`: a singleton whose ``enabled`` flag
is False and whose methods are no-ops.  Instrumented code guards every
timing block with ``if observer.enabled:``, so a disabled pipeline pays
one attribute read per frame and zero ``perf_counter`` calls — tier-1
throughput numbers are untouched (asserted by the serve-bench noise test).

Beyond bundling, the observer owns the obs-side **frame ledger**: it
counts frames entering the pipeline (:attr:`frames_submitted`, plus
synthetic :attr:`fills_created`) and, via the event log's lifetime kind
counts, frames leaving through each terminal outcome.  :meth:`ledger`
reconciles the two (``submitted + fills`` == every outcome of
:data:`repro.ledger.OUTCOMES` + ``pending``) exactly, so
:func:`repro.ledger.mismatches` can cross-check it against the serving
surfaces' own :class:`~repro.ledger.FrameLedger` tallies.
"""

from __future__ import annotations

from ..exceptions import ConfigurationError
from ..ledger import OUTCOMES
from .events import EventLog
from .tracer import FrameTracer

#: Terminal outcomes and the event kind that records each.
_OUTCOME_KINDS = {outcome: f"frame.{outcome}" for outcome in OUTCOMES}


class Observer:
    """Live tracer + event log + ledger behind one ``enabled`` flag."""

    enabled = True

    def __init__(
        self,
        *,
        label: str | None = None,
        tracer: FrameTracer | None = None,
        events: EventLog | None = None,
        trace_capacity: int = 2048,
        event_capacity: int = 4096,
    ) -> None:
        self.label = label
        self.tracer = tracer if tracer is not None else FrameTracer(trace_capacity)
        self.events = events if events is not None else EventLog(event_capacity)
        self.registry = None
        #: Real frames entering submit (ids assigned, pre-admission).
        self.frames_submitted = 0
        #: Synthetic gap-fill frames manufactured by the repairer.
        self.fills_created = 0

    def bind_registry(self, registry) -> None:
        """Adopt the engine's metrics registry (stage histograms + dump)."""
        if self.registry is None:
            self.registry = registry
        self.tracer.bind_registry(registry)

    # ------------------------------------------------------------ frame life

    def frame_submitted(self, frame_id: int, link_id: str, t_s: float) -> None:
        """A real frame entered ``submit`` and got its id."""
        self.frames_submitted += 1
        self.tracer.start(frame_id, link_id, t_s)

    def frame_filled(self, frame_id: int, link_id: str, t_s: float, source_frame: int) -> None:
        """The repairer manufactured a fill frame (non-terminal event)."""
        self.fills_created += 1
        self.tracer.start(frame_id, link_id, t_s, repaired=True)
        self.events.emit(
            "frame.repaired",
            t_s=t_s,
            frame_id=frame_id,
            link_id=link_id,
            source_frame=source_frame,
        )

    def frame_outcome(
        self,
        outcome: str,
        frame_id: int,
        link_id: str,
        t_s: float,
        **data,
    ) -> None:
        """Seal one frame: emit its terminal event and close its trace."""
        kind = _OUTCOME_KINDS.get(outcome)
        if kind is None:
            raise ConfigurationError(
                f"unknown frame outcome {outcome!r}; expected one of "
                f"{sorted(_OUTCOME_KINDS)}"
            )
        self.events.emit(kind, t_s=t_s, frame_id=frame_id, link_id=link_id, **data)
        self.tracer.finish(frame_id, outcome)

    # ---------------------------------------------------------------- events

    def emit(self, kind: str, *, t_s: float = 0.0, frame_id=None, link_id=None, **data):
        """Emit a non-frame-terminal event (batch/guard/training kinds)."""
        return self.events.emit(
            kind, t_s=t_s, frame_id=frame_id, link_id=link_id, **data
        )

    # ---------------------------------------------------------------- ledger

    def ledger(self) -> dict[str, int]:
        """The obs-side frame accounting; ``unaccounted`` must be zero."""
        outcomes = {
            name: self.events.count(kind) for name, kind in _OUTCOME_KINDS.items()
        }
        pending = self.frames_submitted + self.fills_created - sum(outcomes.values())
        return {
            "submitted": self.frames_submitted,
            "fills": self.fills_created,
            **outcomes,
            "pending": self.tracer.open_frames,
            "unaccounted": pending - self.tracer.open_frames,
        }

    # ------------------------------------------------------------------ dump

    def dump(self) -> dict:
        """One JSON-ready postmortem bundle for this observer's run.

        ``events``/``ledger`` are deterministic under same-seed replay;
        ``stages`` (wall-clock) and ``metrics``/``prometheus`` are not.
        """
        out: dict = {
            "label": self.label,
            "ledger": self.ledger(),
            "stages": self.tracer.stage_summary(),
            "events_total": self.events.total,
            "events_by_kind": self.events.counts_by_kind(),
            "events": [event.to_dict() for event in self.events],
        }
        if self.registry is not None:
            from .exposition import render_prometheus  # deferred: avoid cycle

            out["metrics"] = self.registry.as_dict()
            out["prometheus"] = render_prometheus(self.registry)
        return out


class NullObserver:
    """The zero-cost default: ``enabled`` is False, every method a no-op.

    Instrumented code checks ``observer.enabled`` before doing any timing
    work, so with this observer the hot path performs no clock reads, no
    allocations and no event emission.  The class still implements the
    full :class:`Observer` surface so un-guarded calls stay safe.
    """

    enabled = False

    label = None
    registry = None
    frames_submitted = 0
    fills_created = 0

    def bind_registry(self, registry) -> None:
        pass

    def frame_submitted(self, frame_id, link_id, t_s) -> None:
        pass

    def frame_filled(self, frame_id, link_id, t_s, source_frame) -> None:
        pass

    def frame_outcome(self, outcome, frame_id, link_id, t_s, **data) -> None:
        pass

    def emit(self, kind, *, t_s=0.0, frame_id=None, link_id=None, **data) -> None:
        pass

    def ledger(self) -> dict[str, int]:
        return {}

    def dump(self) -> dict:
        return {"label": None, "ledger": {}, "stages": {}, "events": []}


#: Shared no-op observer every engine uses unless handed a live one.
NULL_OBSERVER = NullObserver()
