"""Streaming (online) view of a campaign.

A deployed detector consumes CSI frame by frame, not as a matrix.
:class:`FrameStream` replays an :class:`~repro.data.dataset.OccupancyDataset`
in that shape, and :class:`StreamingDetector` wraps a fitted estimator with
the state a real controller keeps: per-frame probability, a majority-vote
smoothing window and debounced occupancy transitions.  That state machine
lives in :class:`SmoothingDebouncer` so the micro-batched serving engine
(:mod:`repro.serve.engine`) can run the identical logic per link.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Iterator

import numpy as np

from ..exceptions import ConfigurationError, ShapeError, ValidationError
from .dataset import OccupancyDataset

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.estimator import Estimator


@dataclass(frozen=True)
class Frame:
    """One streamed observation."""

    t_s: float
    csi: np.ndarray
    occupancy: int


class FrameStream:
    """Iterates a dataset as (timestamp, CSI row, label) frames."""

    def __init__(self, dataset: OccupancyDataset) -> None:
        self.dataset = dataset

    def __len__(self) -> int:
        return len(self.dataset)

    def __iter__(self) -> Iterator[Frame]:
        t = self.dataset.timestamps_s
        csi = self.dataset.csi
        occ = self.dataset.occupancy
        for i in range(len(self.dataset)):
            yield Frame(float(t[i]), csi[i], int(occ[i]))


@dataclass(frozen=True)
class Transition:
    """A debounced occupancy change the controller would act on."""

    t_s: float
    occupied: bool


class SmoothingDebouncer:
    """Majority-vote smoothing + debounce over a stream of raw 0/1 votes.

    The anti-flicker state machine every controller needs: raw per-frame
    decisions enter, a majority vote over the last ``window`` frames
    smooths them, and a state flip is only committed after the smoothed
    value has disagreed with the current state for ``hold_frames``
    consecutive frames.  Ties in an even window round toward occupied
    (mean exactly 0.5 counts as 1), matching the >= 0.5 decision rule of
    the classifiers.

    Parameters
    ----------
    window:
        Majority-vote length in frames (1 disables smoothing).
    hold_frames:
        A state change must persist this many frames before it commits
        (debounce, prevents flicker).
    """

    def __init__(self, window: int = 5, hold_frames: int = 3) -> None:
        if window < 1:
            raise ConfigurationError("window must be >= 1")
        if hold_frames < 1:
            raise ConfigurationError("hold_frames must be >= 1")
        self.window = window
        self.hold_frames = hold_frames
        self._votes: deque[int] = deque(maxlen=window)
        # Running sum of the votes in the window, so the majority test is
        # O(1) per update instead of a mean over the deque.
        self._ones = 0
        self._state = 0
        self._pending_state: int | None = None
        self._pending_count = 0

    @property
    def state(self) -> int:
        """The current debounced occupancy state (0/1)."""
        return self._state

    def reset(self) -> None:
        """Forget all votes and return to the empty state."""
        self._votes.clear()
        self._ones = 0
        self._state = 0
        self._pending_state = None
        self._pending_count = 0

    def update(self, raw: int) -> int | None:
        """Consume one raw vote; returns the new state when a flip commits."""
        vote = int(raw)
        votes = self._votes
        if len(votes) == self.window:
            self._ones -= votes[0]
        votes.append(vote)
        self._ones += vote
        # mean >= 0.5, in exact integer arithmetic (ties round to occupied).
        smoothed = int(2 * self._ones >= len(votes))

        if smoothed == self._state:
            self._pending_state = None
            self._pending_count = 0
            return None
        if smoothed != self._pending_state:
            self._pending_state = smoothed
            self._pending_count = 1
        else:
            self._pending_count += 1
        if self._pending_count >= self.hold_frames:
            self._state = smoothed
            self._pending_state = None
            self._pending_count = 0
            return smoothed
        return None


def check_csi_row(csi_row: np.ndarray, row_index: int | None = None) -> np.ndarray:
    """Validate one streamed CSI row: 1-D and finite.

    Raises :class:`~repro.exceptions.ShapeError` on wrong dimensionality
    and :class:`~repro.exceptions.ValidationError` (a
    :class:`~repro.exceptions.StreamError` subclass, so existing handlers
    keep working) on NaN/inf amplitudes — a real sniffer occasionally
    emits garbage rows, and they must be rejected before they poison a
    smoothing window.  The error names the first offending column and,
    when the caller passes ``row_index``, the stream position.
    """
    csi_row = np.asarray(csi_row, dtype=float)
    if csi_row.ndim != 1:
        raise ShapeError(f"expected a 1-D CSI row, got shape {csi_row.shape}")
    if math.isfinite(csi_row.sum()):
        # A finite sum means every value is finite.  A non-finite sum may
        # still come from a finite row that overflows (numpy warns about
        # that, and about +inf meeting -inf), so the mask decides.
        return csi_row
    finite = np.isfinite(csi_row)
    if not finite.all():
        column = int(np.flatnonzero(~finite)[0])
        where = f"row {row_index}, " if row_index is not None else ""
        raise ValidationError(
            f"CSI frame ({where}column {column}) contains a non-finite value "
            f"({csi_row[column]})",
            row_index=row_index,
            column=column,
        )
    return csi_row


class StreamingDetector:
    """Stateful frame-by-frame wrapper around a fitted estimator.

    Parameters
    ----------
    detector:
        Any fitted :class:`~repro.core.estimator.Estimator` (the paper's
        :class:`~repro.core.detector.OccupancyDetector` or a baseline).
    window:
        Majority-vote length in frames (1 disables smoothing).
    hold_frames:
        A state change must persist this many frames before a
        :class:`Transition` is emitted (debounce, prevents flicker).
    """

    def __init__(
        self,
        detector: "Estimator",
        window: int = 5,
        hold_frames: int = 3,
    ) -> None:
        self.detector = detector
        self.window = window
        self.hold_frames = hold_frames
        self._debouncer = SmoothingDebouncer(window, hold_frames)

    @property
    def state(self) -> int:
        """The current debounced occupancy state (0/1)."""
        return self._debouncer.state

    def update(self, t_s: float, csi_row: np.ndarray) -> Transition | None:
        """Consume one frame; returns a transition when the state flips."""
        csi_row = check_csi_row(csi_row)
        raw = int(self.detector.predict(csi_row[None, :])[0])
        flipped = self._debouncer.update(raw)
        if flipped is None:
            return None
        return Transition(t_s, bool(flipped))

    def run(self, stream: Iterable[Frame]) -> list[Transition]:
        """Replay a whole stream; returns the emitted transitions."""
        return [
            event
            for frame in stream
            if (event := self.update(frame.t_s, frame.csi)) is not None
        ]
