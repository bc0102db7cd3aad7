"""Structured events: the pipeline's append-only incident journal.

Counters answer "how many"; they cannot answer "which frame, when, and
in what order".  :class:`EventLog` is the missing middle ground between a
metrics registry and a full tracing backend: a bounded ring buffer of
typed :class:`Event` records — quarantine verdicts, gap fills, breaker
transitions, fallback switches, checkpoint saves and rollbacks — each
stamped with a monotonic sequence number and **stream time** (frame
timestamps), never wall clock.

Stream-time stamping is a determinism contract, not a convenience: a
same-seed chaos replay must produce a byte-identical event-log dump
(:meth:`EventLog.to_jsonl`), extending the byte-identical stream
guarantee of :mod:`repro.faults` up through observability.  Anything
wall-clock-dependent belongs in the tracer's stage spans
(:mod:`repro.obs.tracer`), which are explicitly outside that guarantee.

The event taxonomy is closed (:data:`EVENT_KINDS`): emitting an unknown
kind raises, so a typo in an instrumentation site fails loudly in tests
instead of silently fragmenting postmortem queries.  Extend the taxonomy
per log via ``extra_kinds`` when embedding the log in new subsystems.

Lifetime totals (:attr:`EventLog.total`, :meth:`EventLog.counts_by_kind`)
survive ring eviction, so ledger reconciliation stays exact even when a
long campaign wraps the buffer many times.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from ..exceptions import ConfigurationError

#: The closed event taxonomy.  Per-frame terminal outcomes come first —
#: every frame the engine admits ends its life in exactly one of them.
EVENT_KINDS = frozenset(
    {
        # -- per-frame terminal outcomes (the obs-side frame ledger) --
        "frame.answered",        # a result was emitted (primary or fallback)
        "frame.rejected",        # refused at the basic shape/finite gate
        "frame.quarantined",     # refused by the validator check chain
        "frame.policy_rejected", # shed because both serving tiers were down
        "frame.stale",           # dropped at flush: older than stale_after_s
        "frame.overflow",        # evicted by queue backpressure
        "frame.rate_limited",    # refused admission by the tenant's token bucket
        "frame.deadline_expired",# shed at dequeue: deadline budget exhausted
        "frame.shed",            # shed by the saturation governor (SHED mode)
        # -- per-frame non-terminal --
        "frame.repaired",        # a synthetic gap-fill frame was manufactured
        # -- batch-level --
        "batch.flush",           # a micro-batch ran (size + serving source)
        "batch.rejected",        # a whole batch shed by the supervisor
        # -- guard transitions --
        "breaker.opened",
        "breaker.closed",
        "breaker.probe",
        "drift.warn",
        "drift.trip",
        "link.recovered",
        # -- overload governor --
        "governor.mode_change",  # the degradation ladder stepped (sticky)
        "governor.probe",        # a jittered-backoff recovery probe fired
        # -- training lifecycle --
        "train.epoch",
        "checkpoint.saved",
        "checkpoint.best",
        "checkpoint.rollback",
        # -- champion/challenger rollout lifecycle --
        "rollout.shadow_start",  # a challenger entered shadow evaluation
        "rollout.promoted",      # anytime-valid win: challenger hot-swapped in
        "rollout.rolled_back",   # promotion reverted (breaker trip / divergence)
        "rollout.futility_stop", # shadow ended without promotion (loss/futility)
        # -- fleet tenant churn --
        "fleet.attach",          # a tenant joined the fleet (lifecycle ATTACHED)
        "fleet.plan_swap",       # a tenant's plan was replaced after a drain
        "fleet.detach",          # a tenant left the fleet after a drain
        "fleet.rebalance",       # a tenant migrated shards (skew rebalancing)
    }
)


def _jsonable(value):
    """Coerce numpy scalars/strings to plain JSON-stable Python values."""
    if isinstance(value, (np.floating, np.integer, np.bool_)):
        return value.item()
    if isinstance(value, (bool, int, float, str)) or value is None:
        return value
    return str(value)


@dataclass(frozen=True)
class Event:
    """One structured record: what happened, to which frame, at what time."""

    #: Monotonic position in the log (survives ring eviction).
    seq: int
    #: One of :data:`EVENT_KINDS` (or a registered extra kind).
    kind: str
    #: Stream time of the event (frame timestamps; 0-based epoch index
    #: for training events) — never wall clock.
    t_s: float
    frame_id: int | None = None
    link_id: str | None = None
    #: Kind-specific payload (JSON-stable values only).
    data: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "seq": self.seq,
            "kind": self.kind,
            "t_s": self.t_s,
            "frame_id": self.frame_id,
            "link_id": self.link_id,
            "data": self.data,
        }

    def to_json(self) -> str:
        """Canonical one-line JSON (sorted keys, no whitespace)."""
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))


class EventLog:
    """Bounded, typed, stream-time event ring (drop-oldest on overflow)."""

    def __init__(self, capacity: int = 4096, extra_kinds: tuple[str, ...] = ()) -> None:
        if capacity < 1:
            raise ConfigurationError("capacity must be >= 1")
        self.capacity = capacity
        self._kinds = EVENT_KINDS | frozenset(extra_kinds)
        self._events: deque[Event] = deque(maxlen=capacity)
        self._seq = 0
        #: Lifetime number of events emitted (>= len(self) after eviction).
        self.total = 0
        self._by_kind: dict[str, int] = {}

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self):
        return iter(self._events)

    def emit(
        self,
        kind: str,
        *,
        t_s: float = 0.0,
        frame_id: int | None = None,
        link_id: str | None = None,
        **data,
    ) -> Event:
        """Append one event; returns it.  Unknown kinds raise."""
        if kind not in self._kinds:
            raise ConfigurationError(
                f"unknown event kind {kind!r}; register it via extra_kinds "
                f"or use one of the {len(self._kinds)} taxonomy kinds"
            )
        event = Event(
            seq=self._seq,
            kind=kind,
            t_s=float(t_s),
            frame_id=None if frame_id is None else int(frame_id),
            link_id=link_id,
            data={key: _jsonable(value) for key, value in data.items()},
        )
        self._seq += 1
        self.total += 1
        self._by_kind[kind] = self._by_kind.get(kind, 0) + 1
        self._events.append(event)
        return event

    def counts_by_kind(self) -> dict[str, int]:
        """Lifetime event counts keyed by kind (exact under eviction)."""
        return dict(self._by_kind)

    def count(self, kind: str) -> int:
        """Lifetime count of one kind (0 when never emitted)."""
        return self._by_kind.get(kind, 0)

    def tail(self, n: int = 20) -> list[Event]:
        """The newest ``n`` retained events, oldest first."""
        if n < 0:
            raise ConfigurationError("n must be >= 0")
        return list(self._events)[-n:] if n else []

    def to_jsonl(self) -> str:
        """Canonical JSONL dump of the retained ring, oldest first.

        This string is the byte-identical determinism surface: two
        same-seed replays of the same campaign must produce equal dumps.
        """
        return "\n".join(event.to_json() for event in self._events)

    def drain(self) -> list[Event]:
        """Pop every retained event (oldest first) for offline audit."""
        out = list(self._events)
        self._events.clear()
        return out
