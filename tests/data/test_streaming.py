"""Tests for the streaming inference interface."""

from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import TrainingConfig
from repro.core.detector import OccupancyDetector
from repro.data.streaming import (
    Frame,
    FrameStream,
    SmoothingDebouncer,
    StreamingDetector,
    Transition,
    check_csi_row,
)
from repro.exceptions import (
    ConfigurationError,
    ShapeError,
    StreamError,
    ValidationError,
)


class ScriptedPredictor:
    """Duck-typed estimator emitting a pre-scripted 0/1 vote per call."""

    def __init__(self, votes):
        self.votes = list(votes)
        self.calls = 0

    def predict(self, x):
        vote = self.votes[self.calls % len(self.votes)] if self.votes else 0
        self.calls += 1
        return np.array([vote])


FAST = TrainingConfig(epochs=4, hidden_sizes=(32,), batch_size=128)


@pytest.fixture(scope="module")
def fitted(smoke_dataset):
    detector = OccupancyDetector(64, FAST)
    detector.fit(smoke_dataset.csi, smoke_dataset.occupancy)
    return detector


class TestFrameStream:
    def test_replays_every_row(self, smoke_dataset):
        stream = FrameStream(smoke_dataset)
        frames = list(stream)
        assert len(frames) == len(smoke_dataset)
        assert frames[0].csi.shape == (64,)
        assert frames[0].t_s == smoke_dataset.timestamps_s[0]

    def test_labels_match(self, smoke_dataset):
        for i, frame in enumerate(FrameStream(smoke_dataset)):
            assert frame.occupancy == smoke_dataset.occupancy[i]
            if i > 20:
                break


class TestStreamingDetector:
    def test_state_follows_ground_truth(self, fitted, smoke_dataset):
        streaming = StreamingDetector(fitted, window=5, hold_frames=3)
        stream = FrameStream(smoke_dataset)
        correct = 0
        total = 0
        for frame in stream:
            streaming.update(frame.t_s, frame.csi)
            correct += int(streaming.state == frame.occupancy)
            total += 1
        assert correct / total > 0.8

    def test_transitions_debounced(self, fitted, smoke_dataset):
        streaming = StreamingDetector(fitted, window=5, hold_frames=3)
        transitions = streaming.run(FrameStream(smoke_dataset))
        truth_flips = int(np.count_nonzero(np.diff(smoke_dataset.occupancy)))
        # Debounce keeps the event count in the same ballpark as the truth
        # (no flicker storm).
        assert len(transitions) <= max(4, 3 * truth_flips)
        assert all(isinstance(t, Transition) for t in transitions)

    def test_transitions_alternate(self, fitted, smoke_dataset):
        streaming = StreamingDetector(fitted)
        transitions = streaming.run(FrameStream(smoke_dataset))
        for a, b in zip(transitions, transitions[1:]):
            assert a.occupied != b.occupied
            assert a.t_s < b.t_s

    def test_window_one_no_smoothing(self, fitted, smoke_dataset):
        streaming = StreamingDetector(fitted, window=1, hold_frames=1)
        frame_iter = iter(FrameStream(smoke_dataset))
        frame = next(frame_iter)
        streaming.update(frame.t_s, frame.csi)
        raw = int(fitted.predict(frame.csi[None, :])[0])
        assert streaming.state in (0, 1)
        # With no smoothing and hold 1, state tracks the raw prediction
        # after at most one update.
        streaming2 = StreamingDetector(fitted, window=1, hold_frames=1)
        streaming2.update(frame.t_s, frame.csi)
        assert streaming2.state == raw or streaming2.state == 0

    def test_validation(self, fitted):
        with pytest.raises(ConfigurationError):
            StreamingDetector(fitted, window=0)
        with pytest.raises(ConfigurationError):
            StreamingDetector(fitted, hold_frames=0)
        streaming = StreamingDetector(fitted)
        with pytest.raises(ShapeError):
            streaming.update(0.0, np.ones((2, 64)))


class TestSmoothingDebouncer:
    def test_tie_in_even_window_rounds_to_occupied(self):
        # With window=2 the votes [0, 1] average to exactly 0.5, which must
        # count as occupied — matching the classifiers' >= 0.5 rule.
        debouncer = SmoothingDebouncer(window=2, hold_frames=1)
        assert debouncer.update(0) is None
        assert debouncer.update(1) == 1
        assert debouncer.state == 1

    def test_flip_commits_exactly_at_hold_frames(self):
        debouncer = SmoothingDebouncer(window=1, hold_frames=3)
        assert debouncer.update(1) is None  # pending 1/3
        assert debouncer.update(1) is None  # pending 2/3
        assert debouncer.update(1) == 1     # commits on the 3rd
        assert debouncer.state == 1

    def test_flicker_resets_the_hold_counter(self):
        debouncer = SmoothingDebouncer(window=1, hold_frames=3)
        debouncer.update(1)
        debouncer.update(1)
        debouncer.update(0)  # back in agreement: pending cleared
        assert debouncer.update(1) is None  # restarts at 1/3
        assert debouncer.state == 0

    def test_reset(self):
        debouncer = SmoothingDebouncer(window=1, hold_frames=1)
        debouncer.update(1)
        assert debouncer.state == 1
        debouncer.reset()
        assert debouncer.state == 0
        assert debouncer.update(1) == 1


class MeanDebouncer:
    """Reference copy of the debouncer that takes ``np.mean`` of its window.

    The shipped :class:`SmoothingDebouncer` keeps a running sum instead;
    the property test below drives both with the same votes.
    """

    def __init__(self, window: int, hold_frames: int) -> None:
        self.hold_frames = hold_frames
        self._votes: deque[int] = deque(maxlen=window)
        self.state = 0
        self._pending_state: int | None = None
        self._pending_count = 0

    def reset(self) -> None:
        self._votes.clear()
        self.state = 0
        self._pending_state = None
        self._pending_count = 0

    def update(self, raw: int) -> int | None:
        self._votes.append(int(raw))
        smoothed = int(np.mean(self._votes) >= 0.5)
        if smoothed == self.state:
            self._pending_state = None
            self._pending_count = 0
            return None
        if smoothed != self._pending_state:
            self._pending_state = smoothed
            self._pending_count = 1
        else:
            self._pending_count += 1
        if self._pending_count >= self.hold_frames:
            self.state = smoothed
            self._pending_state = None
            self._pending_count = 0
            return smoothed
        return None


#: A vote stream: 0/1 votes with an occasional ``None`` meaning reset().
_VOTE_STREAMS = st.lists(
    st.one_of(st.integers(0, 1), st.integers(0, 1), st.integers(0, 1), st.none()),
    max_size=80,
)


class TestDebouncerEquivalence:
    @settings(max_examples=300, deadline=None)
    @given(window=st.integers(1, 8), hold=st.integers(1, 5), stream=_VOTE_STREAMS)
    def test_running_sum_matches_the_mean_of_the_window(self, window, hold, stream):
        fast = SmoothingDebouncer(window, hold)
        reference = MeanDebouncer(window, hold)
        for step, vote in enumerate(stream):
            if vote is None:
                fast.reset()
                reference.reset()
            else:
                assert fast.update(vote) == reference.update(vote), step
            assert fast.state == reference.state, step

    @pytest.mark.parametrize("window", [2, 4, 6, 8])
    def test_even_window_ties_round_to_occupied_after_eviction(self, window):
        # Fill the window with zeros, then push ones until exactly half the
        # (evicting) window votes occupied: that tie must count as 1.
        fast = SmoothingDebouncer(window, hold_frames=1)
        reference = MeanDebouncer(window, hold_frames=1)
        for vote in [0] * (2 * window) + [1] * (window // 2):
            assert fast.update(vote) == reference.update(vote)
        assert fast.state == reference.state == 1


def _reference_check(row, row_index=None):
    """check_csi_row as it was before the finite-sum fast path."""
    row = np.asarray(row, dtype=float)
    if row.ndim != 1:
        raise ShapeError(f"expected a 1-D CSI row, got shape {row.shape}")
    finite = np.isfinite(row)
    if not finite.all():
        column = int(np.flatnonzero(~finite)[0])
        where = f"row {row_index}, " if row_index is not None else ""
        raise ValidationError(
            f"CSI frame ({where}column {column}) contains a non-finite value "
            f"({row[column]})",
            row_index=row_index,
            column=column,
        )
    return row


def _outcome(check, row):
    try:
        return "ok", check(row, row_index=7).tolist()
    except (ShapeError, ValidationError) as error:
        return type(error).__name__, str(error), getattr(error, "column", None)


class TestCheckCsiRowFastPath:
    # A sum that overflows, or +inf meeting -inf, makes numpy warn; the
    # warnings are beside the point here.
    pytestmark = pytest.mark.filterwarnings("ignore::RuntimeWarning")

    def test_finite_row_whose_sum_overflows_is_accepted_unchanged(self):
        row = np.array([1e308, 1e308])
        assert not np.isfinite(row.sum())
        checked = check_csi_row(row)
        assert checked.dtype == float
        assert checked.tolist() == [1e308, 1e308]

    @pytest.mark.parametrize(
        "row", [[1.0, np.inf, -np.inf, 2.0], [1.0, -np.inf, np.inf, np.nan]]
    )
    def test_opposite_infinities_still_name_the_first_bad_column(self, row):
        with pytest.raises(ValidationError) as excinfo:
            check_csi_row(row, row_index=3)
        assert excinfo.value.column == 1
        assert excinfo.value.row_index == 3
        assert str(excinfo.value).startswith("CSI frame (row 3, column 1)")

    def test_nan_row_keeps_its_typed_error_and_message(self):
        with pytest.raises(ValidationError) as excinfo:
            check_csi_row([0.5, 1.5, np.nan, np.nan])
        assert excinfo.value.column == 2
        assert str(excinfo.value) == (
            "CSI frame (column 2) contains a non-finite value (nan)"
        )

    @pytest.mark.parametrize("row", [np.ones((2, 3)), np.float64(1.0), np.ones((1, 1, 4))])
    def test_wrong_ndim_keeps_its_typed_error_and_message(self, row):
        with pytest.raises(ShapeError) as excinfo:
            check_csi_row(row)
        assert str(excinfo.value) == (
            f"expected a 1-D CSI row, got shape {np.shape(row)}"
        )

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(
            st.one_of(
                st.floats(allow_nan=True, allow_infinity=True),
                st.sampled_from([1e308, -1e308, np.inf, -np.inf, np.nan]),
            ),
            max_size=12,
        )
    )
    def test_matches_the_mask_only_check(self, values):
        row = np.array(values, dtype=float)
        assert _outcome(check_csi_row, row) == _outcome(_reference_check, row)


class TestStreamEdgeCases:
    def test_empty_stream_yields_no_transitions(self):
        streaming = StreamingDetector(ScriptedPredictor([1]))
        assert streaming.run([]) == []
        assert streaming.state == 0

    def test_single_frame_stream(self):
        # One occupied frame with no smoothing/debounce flips immediately.
        streaming = StreamingDetector(ScriptedPredictor([1]), window=1, hold_frames=1)
        transitions = streaming.run([Frame(5.0, np.ones(4), 1)])
        assert transitions == [Transition(5.0, True)]
        assert streaming.state == 1
        # The same frame under the default debounce does not flip yet.
        cautious = StreamingDetector(ScriptedPredictor([1]))
        assert cautious.run([Frame(5.0, np.ones(4), 1)]) == []
        assert cautious.state == 0

    def test_nan_frame_rejected(self):
        streaming = StreamingDetector(ScriptedPredictor([1]))
        bad = np.ones(4)
        bad[2] = np.nan
        with pytest.raises(StreamError):
            streaming.update(0.0, bad)
        with pytest.raises(StreamError):
            streaming.update(0.0, np.full(4, np.inf))

    def test_check_csi_row(self):
        row = check_csi_row([1.0, 2.0, 3.0])
        assert row.dtype == float and row.shape == (3,)
        with pytest.raises(ShapeError):
            check_csi_row(np.ones((2, 3)))
        with pytest.raises(StreamError):
            check_csi_row([1.0, np.nan])

    def test_check_csi_row_raises_typed_validation_error(self):
        # ValidationError subclasses StreamError, so pre-existing handlers
        # keep working while new code can read the structured fields.
        with pytest.raises(ValidationError) as excinfo:
            check_csi_row([1.0, np.inf, 3.0], row_index=42)
        assert isinstance(excinfo.value, StreamError)
        assert excinfo.value.row_index == 42
        assert excinfo.value.column == 1
        assert "row 42" in str(excinfo.value)
        assert "column 1" in str(excinfo.value)

    def test_check_csi_row_error_without_position_context(self):
        with pytest.raises(ValidationError) as excinfo:
            check_csi_row([np.nan])
        assert excinfo.value.row_index is None
        assert excinfo.value.column == 0
