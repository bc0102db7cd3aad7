"""Output checks: every answer of a phase against offline references.

* probability: each answered frame's probability is within
  :data:`TOLERANCE` (the fastpath tolerance) of an offline float32
  :class:`~repro.fastpath.plan.InferencePlan` on the same row.  A
  repaired fill holds its link's previous admitted row, so it is checked
  against that row.
* debounce: per link or tenant, the states and transitions returned
  equal a replay of the returned probabilities through the majority-vote
  and hold rule written out below (not the program's own debouncer), and
  the final state the program reports equals the replay's.
* ledger: per link or tenant, offered + fills = answered + every refusal
  cause, with nothing left queued.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .workloads import CLEAN, NAN_ROW, OUT_OF_ENVELOPE, OVER_RATE, REGRESSED, Inputs

#: |p - reference| bound; float32 GEMMs of different batch shapes differ
#: by far less.
TOLERANCE = 1e-5
#: Debouncer settings every workload serves with (ServeConfig defaults).
WINDOW, HOLD = 5, 3
#: At most this many messages are kept per check.
_MAX_ERRORS = 5

_REFUSED = ("rejected", "quarantined", "rate_limited")
_LOST = (
    "stale_dropped",
    "policy_rejected",
    "deadline_expired",
    "overflow",
    "overflow_dropped",
    "overload_shed",
)


@dataclass
class Verdict:
    """The outcome of checking one phase."""

    errors: list[str] = field(default_factory=list)
    offered: int = 0
    #: Offered frames that got an answer.
    answered: int = 0
    #: Repaired fill frames that got an answer.
    fills: int = 0
    #: Offered frames without an answer that the workload did not design
    #: to be refused (dirt rows and the over-rate link's excess are).
    unexpected: int = 0
    #: Per result: index of its frame in the stream (-1 for a repaired
    #: fill, -2 for an answer that matches no frame sent).
    index: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.int64))

    def fail(self, check: str, message: str) -> None:
        if sum(e.startswith(check) for e in self.errors) < _MAX_ERRORS:
            self.errors.append(f"{check}: {message}")


def replay(votes) -> list[tuple[int, bool]]:
    """Reference debouncer: ``(state, flipped)`` after each 0/1 vote.

    A majority over the last :data:`WINDOW` votes (a tie counts as
    occupied) must disagree with the state for :data:`HOLD` consecutive
    votes before the state flips.
    """
    window: deque[int] = deque(maxlen=WINDOW)
    state, pending, count = 0, None, 0
    out = []
    for vote in votes:
        window.append(vote)
        smoothed = int(2 * sum(window) >= len(window))
        flipped = False
        if smoothed == state:
            pending, count = None, 0
        else:
            count = count + 1 if smoothed == pending else 1
            pending = smoothed
            if count >= HOLD:
                state, pending, count, flipped = smoothed, None, 0, True
        out.append((state, flipped))
    return out


def _locate(inputs: Inputs, phase, verdict: Verdict) -> np.ndarray:
    """Map each result to its stream frame (see :attr:`Verdict.index`)."""
    stream = phase.stream
    index = np.full(len(phase.results), -1, dtype=np.int64)
    if phase.frame_ids:
        by_key = dict(zip(phase.frame_ids, range(len(stream))))
        key = [r.frame_id for r in phase.results]
    else:
        by_key = dict(zip(stream.stamp.tolist(), range(len(stream))))
        key = [r.t_s for r in phase.results]
    ids = stream.ids
    for j, (result, k) in enumerate(zip(phase.results, key)):
        if result.repaired:
            continue
        i = by_key.get(k)
        if i is None or ids[stream.stream[i]] != result.link_id:
            verdict.fail("probability", f"answer {result!r} matches no frame sent")
            index[j] = -2
            continue
        index[j] = i
    answered = index[index >= 0]
    if np.unique(answered).size != answered.size:
        verdict.fail("ledger", "a frame was answered more than once")
    return index


def _expected(inputs: Inputs, phase, index: np.ndarray, verdict: Verdict) -> np.ndarray:
    """Reference probability per result (NaN where none can exist)."""
    stream = phase.stream
    expected = np.full(index.size, np.nan)
    sent = index >= 0
    expected[sent] = inputs.reference[stream.cohort[index[sent]], stream.row[index[sent]]]
    fills = np.flatnonzero(index == -1)
    if fills.size == 0:
        return expected
    # A hold-mode fill repeats the row of its link's newest admitted
    # frame before it: the answered frame with the largest stamp below.
    by_link: dict[str, list[int]] = {}
    for j in np.flatnonzero(sent):
        by_link.setdefault(phase.results[j].link_id, []).append(int(index[j]))
    anchors = {}
    for link, frames in by_link.items():
        frames = np.array(frames)
        order = np.argsort(stream.stamp[frames], kind="stable")
        anchors[link] = (stream.stamp[frames][order], frames[order])
    for j in fills:
        result = phase.results[j]
        stamps, frames = anchors.get(result.link_id, (np.empty(0), None))
        at = int(np.searchsorted(stamps, result.t_s, side="left")) - 1
        if at < 0:
            verdict.fail("probability", f"fill {result!r} has no earlier frame to hold")
            continue
        anchor = frames[at]
        expected[j] = inputs.reference[stream.cohort[anchor], stream.row[anchor]]
    return expected


def check_probabilities(probabilities, expected, verdict: Verdict) -> None:
    probabilities = np.asarray(probabilities, dtype=float)
    bad = ~(np.abs(probabilities - expected) <= TOLERANCE)
    for j in np.flatnonzero(bad)[:_MAX_ERRORS]:
        verdict.fail(
            "probability",
            f"result {j}: p={probabilities[j]!r}, offline plan gives {expected[j]!r}",
        )


def check_debounce(results, states: dict, verdict: Verdict) -> None:
    """Replay each id's returned probabilities; compare states and flips."""
    by_id: dict[str, list] = {}
    for result in results:
        by_id.setdefault(result.link_id, []).append(result)
    for link, mine in by_id.items():
        expected = replay([int(r.probability >= 0.5) for r in mine])
        for result, (state, flipped) in zip(mine, expected):
            transition = result.transition
            ok = result.state == state and (
                transition is None
                if not flipped
                else transition is not None
                and transition.t_s == result.t_s
                and transition.occupied == bool(state)
            )
            if not ok:
                verdict.fail(
                    "debounce",
                    f"{link} at t={result.t_s}: state {result.state}, transition "
                    f"{transition}; replay gives state {state}, flipped {flipped}",
                )
                break
        if link in states and states[link] != expected[-1][0]:
            verdict.fail(
                "debounce",
                f"{link} ends in state {states[link]}, replay ends in {expected[-1][0]}",
            )
    for link, state in states.items():
        if link not in by_id and state != 0:
            verdict.fail("debounce", f"{link} never answered but is in state {state}")


def check_ledger(offered: dict, answered: dict, ledgers: dict, pending: int, verdict: Verdict) -> None:
    """offered + fills = answered + refusals, per id, nothing queued."""
    if pending:
        verdict.fail("ledger", f"{pending} frames still queued after the final flush")
    for link, n in offered.items():
        ledger = ledgers.get(link)
        if ledger is None:
            verdict.fail("ledger", f"{link} sent {n} frames but has no ledger")
            continue
        refused = sum(ledger.get(k, 0) for k in _REFUSED)
        lost = sum(ledger.get(k, 0) for k in _LOST)
        if ledger["frames_in"] + refused != n:
            verdict.fail(
                "ledger",
                f"{link}: offered {n} != admitted {ledger['frames_in']} + refused {refused}",
            )
        if ledger["frames_in"] + ledger["repaired"] != ledger["frames_out"] + lost:
            verdict.fail("ledger", f"{link}: admitted + fills != answered + lost in {ledger}")
        if ledger["frames_out"] != answered.get(link, 0):
            verdict.fail(
                "ledger",
                f"{link}: ledger says {ledger['frames_out']} answered, "
                f"{answered.get(link, 0)} answers were returned",
            )


def _count_by_id(ids: list[str], index: np.ndarray, minlength: int) -> dict:
    counts = np.bincount(index, minlength=minlength)
    return {ids[i]: int(c) for i, c in enumerate(counts) if c}


def check_phase(inputs: Inputs, phase) -> Verdict:
    """Run every check on one phase."""
    verdict = Verdict()
    stream = phase.stream
    index = _locate(inputs, phase, verdict)
    verdict.index = index
    expected = _expected(inputs, phase, index, verdict)
    check_probabilities([r.probability for r in phase.results], expected, verdict)
    check_debounce(phase.results, phase.states, verdict)
    n_ids = len(stream.ids)
    id_index = {link: i for i, link in enumerate(stream.ids)}
    offered = _count_by_id(stream.ids, stream.stream, n_ids)
    answered_ids = np.array([id_index[r.link_id] for r in phase.results], dtype=np.int64)
    answered = _count_by_id(stream.ids, answered_ids, n_ids)
    check_ledger(offered, answered, phase.ledgers, phase.pending, verdict)

    sent = index[index >= 0]
    verdict.offered = len(stream)
    verdict.answered = int(sent.size)
    verdict.fills = int((index == -1).sum())
    answered_mask = np.zeros(len(stream), dtype=bool)
    answered_mask[sent] = True
    dirt = np.isin(stream.kind, (NAN_ROW, OUT_OF_ENVELOPE, REGRESSED))
    verdict.unexpected = int((~answered_mask & (stream.kind == CLEAN)).sum())
    # The over-rate link may lose frames to its rate limit, and to nothing else.
    over = np.unique(stream.stream[stream.kind == OVER_RATE])
    for i in over.tolist():
        mine = stream.stream == i
        limited = phase.ledgers.get(stream.ids[i], {}).get("rate_limited", 0)
        verdict.unexpected += max(0, int((mine & ~answered_mask).sum()) - limited)
    verdict.unexpected += int((answered_mask & dirt).sum())
    return verdict
