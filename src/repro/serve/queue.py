"""Bounded frame queue with micro-batching flush policy.

The engine's admission path: frames from all links land in one
:class:`MicroBatchQueue`, a fixed-capacity ring buffer.  Under
backpressure (producers outrunning inference) the *oldest* pending frame
is evicted — in live occupancy sensing a fresh frame is always worth more
than a stale one, so drop-oldest is the only sane overflow policy.

A batch becomes ready when either

* ``max_batch`` frames are pending (throughput trigger), or
* the oldest pending frame has waited ``max_latency_s`` of stream time
  (latency trigger — a lone link at 1 Hz must not wait forever for 63
  friends).  ``max_latency_s=None`` disables the trigger for backlogged
  / offline-reprocessing workloads where only throughput matters.

Stream time means frame timestamps, not wall clock: the queue is fully
deterministic, which keeps replay tests exact and lets simulations run
faster than real time.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from ..exceptions import ConfigurationError


@dataclass(slots=True)
class PendingFrame:
    """One enqueued observation awaiting inference.

    One is built per admitted frame, so it is a slotted plain dataclass:
    nothing hashes or mutates it, and a frozen ``__init__`` would cost
    several times as much on the hot path.
    """

    link_id: str
    t_s: float
    csi: np.ndarray
    #: True for synthetic frames the gap repairer manufactured; the flag
    #: rides through to :class:`~repro.serve.engine.InferenceResult` so
    #: downstream consumers can always separate measured from filled.
    repaired: bool = False
    #: Monotonic id assigned by :meth:`~repro.serve.engine.InferenceEngine.submit`
    #: (-1 for frames built outside an engine).  The id keys the frame's
    #: trace spans and structured events in :mod:`repro.obs`.
    frame_id: int = -1
    #: Absolute stream-time deadline (``t_s`` + the configured budget);
    #: ``inf`` when no deadline budget is configured.  Frames past their
    #: deadline are shed at dequeue instead of served stale.
    deadline_s: float = math.inf


class MicroBatchQueue:
    """Fixed-capacity FIFO of :class:`PendingFrame` with flush triggers.

    Parameters
    ----------
    max_batch:
        Flush as soon as this many frames are pending.
    max_latency_s:
        Flush once the oldest pending frame is this old in stream time;
        ``None`` disables the latency trigger (flush on ``max_batch`` only).
    capacity:
        Hard bound on pending frames; pushing beyond it evicts the oldest.
    credit:
        Optional per-link bound on pending frames.  A link pushing past
        its credit evicts *its own* oldest frame — backpressure becomes
        attributable to the chatty link instead of anonymously taxing
        whichever link happens to own the globally oldest frame.
        ``None`` (the default) keeps the legacy global-oldest policy.
    """

    def __init__(
        self,
        max_batch: int = 32,
        max_latency_s: float | None = 0.25,
        capacity: int = 256,
        credit: int | None = None,
    ) -> None:
        if max_batch < 1:
            raise ConfigurationError("max_batch must be >= 1")
        if max_latency_s is not None and max_latency_s <= 0:
            raise ConfigurationError("max_latency_s must be positive (or None)")
        if capacity < max_batch:
            raise ConfigurationError(
                f"capacity ({capacity}) must be >= max_batch ({max_batch})"
            )
        if credit is not None and credit < 1:
            raise ConfigurationError("credit must be >= 1 (or None)")
        self.max_batch = max_batch
        self.max_latency_s = max_latency_s
        self.capacity = capacity
        self.credit = credit
        self._pending: deque[PendingFrame] = deque()
        self._link_counts: dict[str, int] = {}

    def __len__(self) -> int:
        return len(self._pending)

    @property
    def depth(self) -> int:
        """Number of frames currently pending."""
        return len(self._pending)

    def link_depth(self, link_id: str) -> int:
        """Frames currently pending for one link."""
        return self._link_counts.get(link_id, 0)

    @property
    def oldest_t_s(self) -> float | None:
        """Timestamp of the oldest pending frame (None when empty)."""
        return self._pending[0].t_s if self._pending else None

    def _forget(self, frame: PendingFrame) -> PendingFrame:
        count = self._link_counts.get(frame.link_id, 0) - 1
        if count > 0:
            self._link_counts[frame.link_id] = count
        else:
            self._link_counts.pop(frame.link_id, None)
        return frame

    def _evict_from_link(self, link_id: str) -> PendingFrame:
        for i, frame in enumerate(self._pending):
            if frame.link_id == link_id:
                del self._pending[i]
                return self._forget(frame)
        raise AssertionError(f"credit bookkeeping out of sync for {link_id!r}")

    def push(self, frame: PendingFrame) -> PendingFrame | None:
        """Enqueue a frame; returns the evicted frame when a bound is hit.

        A link over its ``credit`` evicts its own oldest frame; a full
        queue evicts the globally oldest.  At most one frame is evicted
        per push (credit <= capacity by construction of the counts).
        """
        evicted = None
        if (
            self.credit is not None
            and self._link_counts.get(frame.link_id, 0) >= self.credit
        ):
            evicted = self._evict_from_link(frame.link_id)
        elif len(self._pending) >= self.capacity:
            evicted = self._forget(self._pending.popleft())
        self._pending.append(frame)
        self._link_counts[frame.link_id] = self._link_counts.get(frame.link_id, 0) + 1
        return evicted

    def ready(self, now_s: float) -> bool:
        """Should the engine flush, given the current stream time?"""
        if len(self._pending) >= self.max_batch:
            return True
        if (
            self.max_latency_s is not None
            and self._pending
            and now_s - self._pending[0].t_s >= self.max_latency_s
        ):
            return True
        return False

    def drain(self, limit: int | None = None) -> list[PendingFrame]:
        """Pop up to ``limit`` frames (default ``max_batch``) in FIFO order."""
        n = min(len(self._pending), limit if limit is not None else self.max_batch)
        return [self._forget(self._pending.popleft()) for _ in range(n)]
