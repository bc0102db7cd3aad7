"""Set-up and the two load loops, for each serving surface.

Load comes from one process and one thread.  The engine is synchronous,
so a frame's answer is delivered by whichever ``submit`` (or ``flush``)
call completes its micro-batch; the fleet serves on ``tick``, which the
generator calls after every pass over a :data:`TICK_S` window.

* closed loop: the next frame is submitted the moment the previous call
  returns.  The clock is read after every call that delivers answers, so
  throughput can be taken over any run of deliveries past the warm-up.
  Its timed frames may go in two halves with other work (the open loop)
  between them, so they sample the host at two moments a run apart.
* open loop: frame *i* is sent at its due wall time ``start + due[i]``
  (or as soon after as the generator is free), and the fleet ticks at the
  end of each :data:`TICK_S` window.  Each answer is timed from its
  frame's due time, so a stall also counts against the frames queued
  behind it.

Every phase builds a fresh engine or fleet; set-up is timed separately.
"""

from __future__ import annotations

import gc
import time
from dataclasses import dataclass, field

import numpy as np

from repro.fastpath.plan import InferencePlan
from repro.fleet.service import Fleet
from repro.guard.policy import GuardPolicy
from repro.obs.observer import Observer
from repro.overload.governor import OverloadPolicy
from repro.serve.config import ServeConfig
from repro.serve.engine import InferenceEngine

from .workloads import PERIOD_S, Inputs, Stream

#: Fleet: one generator pass per this many stream seconds.  A pass sends
#: the frames due in its window and ends with one ``tick`` (in the open
#: loop, at the window's end).
TICK_S = 0.010
#: How far ahead of the first due time the open loop's clock starts.
_LEAD_S = 0.005


@dataclass
class Phase:
    """What one closed- or open-loop phase produced."""

    stream: Stream
    #: Every InferenceResult, in the order the program returned them.
    results: list = field(default_factory=list)
    #: (number of results delivered so far, perf_counter) after each call
    #: that delivered results; closed loop: past the warm-up only.
    marks: list = field(default_factory=list)
    #: Closed loop: indices into ``marks`` where a timed segment starts
    #: after a pause; no throughput window spans a pause.
    breaks: list = field(default_factory=list)
    #: Fleet only: the frame id each submitted frame was given.
    frame_ids: list = field(default_factory=list)
    #: Open loop: wall clock of the first due time (perf_counter seconds).
    start: float = 0.0
    #: Open loop: how late the generator sent each frame (seconds).
    late: np.ndarray | None = None
    #: Per link / tenant id: the program's ledger counters at the end.
    ledgers: dict = field(default_factory=dict)
    #: Per id still attached at the end: its debounced state.
    states: dict = field(default_factory=dict)
    #: Frames still queued when the phase ended (must be 0).
    pending: int = 0

    def _segments(self) -> list[tuple[np.ndarray, np.ndarray]]:
        """(answers so far, clock) arrays of each run of marks between pauses."""
        bounds = [0, *self.breaks, len(self.marks)]
        marks = [np.array(self.marks[lo:hi]) for lo, hi in zip(bounds, bounds[1:])]
        return [(m[:, 0], m[:, 1]) for m in marks if len(m) > 1]

    def rate(self) -> float:
        """Answered frames per second from the first to the last mark,
        leaving out pauses."""
        segments = self._segments()
        frames = sum(n[-1] - n[0] for n, _ in segments)
        return frames / sum(t[-1] - t[0] for _, t in segments)

    def fastest_rate(self, frames: int) -> float:
        """Answered frames per second over the fastest run of deliveries
        that spans at least ``frames`` answers without a pause (the whole
        phase if none does)."""
        best = 0.0
        for n, t in self._segments():
            end = np.searchsorted(n, n + frames, side="left")
            ok = end < n.size
            if ok.any():
                best = max(best, float(np.max((n[end[ok]] - n[ok]) / (t[end[ok]] - t[ok]))))
        return best or self.rate()


# ------------------------------------------------------------------ set-up


def _engine_config(inputs: Inputs) -> ServeConfig:
    if not inputs.workload.guarded:
        return ServeConfig(max_batch=64, queue_capacity=256)
    policy = GuardPolicy(
        reference=inputs.guard_reference,
        n_features=inputs.rows.shape[1],
        monotonic_tolerance_s=0.0,
        expected_interval_s=PERIOD_S,
        repair_mode="hold",
    )
    return ServeConfig(
        max_batch=64,
        queue_capacity=256,
        guard=policy,
        rate_limit_hz=1.0 / PERIOD_S,
        rate_limit_burst=2.0,
        deadline_ms=500.0,
        overload=OverloadPolicy(),
        observer=Observer(),
    )


def setup(inputs: Inputs, stream: Stream):
    """Freeze the plan(s) and build the surface up to its first frame.

    Returns ``(surface, plans, seconds)``; ``plans[c]`` serves cohort c.
    """
    start = time.perf_counter()
    plans = [InferencePlan.from_model(m, scaler=inputs.scaler) for m in inputs.models]
    if inputs.workload.surface == "engine":
        surface = InferenceEngine(plans[0], _engine_config(inputs))
    else:
        surface = Fleet(
            ServeConfig(queue_capacity=256),
            tile=16,
            fusion_enabled=True,
            rebalance_skew=1.5,
        )
        for index, cohort in stream.initial:
            surface.attach(stream.ids[index], plans[cohort], now_s=0.0)
    return surface, plans, time.perf_counter() - start


def _feed(inputs: Inputs, stream: Stream) -> tuple[list, list, list]:
    """Per frame: the id, timestamp and row view the program is handed."""
    views = list(inputs.rows)
    return (
        [stream.ids[s] for s in stream.stream.tolist()],
        stream.stamp.tolist(),
        [views[r] for r in stream.row.tolist()],
    )


def _closed(phase: Phase, send, finish, pause=None) -> None:
    """Warm up, then send the timed frames; ``send(lo, hi)`` marks deliveries.

    With ``pause``, the timed frames go in two halves and ``pause()`` runs
    between them; the second segment's marks start at its first delivery,
    so frames left queued over the pause count in no window.
    """
    stream = phase.stream
    send(0, stream.timed_from)
    phase.marks[:] = [(len(phase.results), time.perf_counter())]
    if pause is not None:
        half = (stream.timed_from + len(stream)) // 2
        send(stream.timed_from, half)
        pause()
        phase.breaks.append(len(phase.marks))
        send(half, len(stream))
    else:
        send(stream.timed_from, len(stream))
    phase.results.extend(finish())
    phase.marks.append((len(phase.results), time.perf_counter()))


def _close_ledgers(phase: Phase, surface) -> None:
    if isinstance(surface, InferenceEngine):
        phase.ledgers = {i: surface.link_stats(i) for i in surface.link_ids}
        phase.states = {i: surface.state(i) for i in surface.link_ids}
        phase.pending = surface.queue.depth
        return
    phase.ledgers = {i: surface.counters(i) for i in surface.tenant_ids}
    phase.ledgers.update({i: surface.detached_ledger(i) for i in surface.detached_tenants})
    phase.states = {i: surface.state(i) for i in surface.tenant_ids}
    phase.pending = surface.router.total_depth


# ------------------------------------------------------------------ engine


def engine_closed(engine: InferenceEngine, stream: Stream, feed, pause=None) -> Phase:
    phase = Phase(stream)
    out, marks = phase.results, phase.marks
    ids, stamps, rows = feed
    submit, clock = engine.submit, time.perf_counter

    def send(lo: int, hi: int) -> None:
        for i in range(lo, hi):
            res = submit(ids[i], stamps[i], rows[i])
            if res:
                out.extend(res)
                marks.append((len(out), clock()))

    _closed(phase, send, engine.flush, pause)
    _close_ledgers(phase, engine)
    return phase


def _wait_until(deadline: float) -> float:
    """Sleep most of a long wait, spin the rest; returns the clock."""
    now = time.perf_counter()
    while now < deadline:
        if deadline - now > 0.002:
            time.sleep(deadline - now - 0.001)
        now = time.perf_counter()
    return now


def engine_open(engine: InferenceEngine, stream: Stream, feed) -> Phase:
    phase = Phase(stream)
    out, marks = phase.results, phase.marks
    ids, stamps, rows = feed
    n = len(stream)
    late = np.empty(n)
    submit = engine.submit
    clock = time.perf_counter
    phase.start = clock() + _LEAD_S
    due = (phase.start + stream.due - stream.due[0]).tolist()
    for i in range(n):
        sent = _wait_until(due[i])
        late[i] = sent - due[i]
        res = submit(ids[i], stamps[i], rows[i])
        if res:
            out.extend(res)
            marks.append((len(out), clock()))
    out.extend(engine.flush())
    marks.append((len(out), clock()))
    phase.late = late
    _close_ledgers(phase, engine)
    return phase


# ------------------------------------------------------------------- fleet


class _Churn:
    """Applies a stream's churn schedule as stream time passes each op."""

    def __init__(self, fleet: Fleet, plans: list, stream: Stream, phase: Phase) -> None:
        self.fleet, self.plans, self.stream, self.phase = fleet, plans, stream, phase
        self.ops = stream.ops
        self.next = 0
        self.next_t = self.ops[0].t_s if self.ops else np.inf

    def until(self, t_s: float) -> None:
        fleet, out = self.fleet, self.phase.results
        while self.next_t <= t_s:
            op = self.ops[self.next]
            tenant = self.stream.ids[op.stream]
            if op.action == "detach":
                fleet.detach(tenant, now_s=op.t_s)
            elif op.action == "attach":
                fleet.attach(tenant, self.plans[op.cohort], now_s=op.t_s)
            else:
                fleet.replace_plan(tenant, self.plans[op.cohort], now_s=op.t_s)
            drained = fleet.take_drained()
            if drained:
                out.extend(drained)
                self.phase.marks.append((len(out), time.perf_counter()))
            self.next += 1
            self.next_t = self.ops[self.next].t_s if self.next < len(self.ops) else np.inf


def fleet_closed(fleet: Fleet, plans: list, stream: Stream, feed, pause=None) -> Phase:
    phase = Phase(stream)
    out, marks, fids = phase.results, phase.marks, phase.frame_ids
    ids, stamps, rows = feed
    churn = _Churn(fleet, plans, stream, phase)
    submit, tick, clock = fleet.submit, fleet.tick, time.perf_counter
    window = (stream.due // TICK_S).astype(np.int64)
    last_of_pass = np.append(window[1:] != window[:-1], True).tolist()

    def send(lo: int, hi: int) -> None:
        for i in range(lo, hi):
            if churn.next_t <= stamps[i]:
                churn.until(stamps[i])
            fids.append(submit(ids[i], stamps[i], rows[i]).frame_id)
            if last_of_pass[i]:
                res = tick()
                if res:
                    out.extend(res)
                    marks.append((len(out), clock()))

    _closed(phase, send, fleet.flush, pause)
    _close_ledgers(phase, fleet)
    return phase


def fleet_open(fleet: Fleet, plans: list, stream: Stream, feed) -> Phase:
    phase = Phase(stream)
    out, marks, fids = phase.results, phase.marks, phase.frame_ids
    ids, stamps, rows = feed
    n = len(stream)
    phase.late = late = np.empty(n)
    churn = _Churn(fleet, plans, stream, phase)
    submit, tick = fleet.submit, fleet.tick
    window = (stream.due // TICK_S).astype(np.int64)
    last_of_pass = np.append(window[1:] != window[:-1], True).tolist()
    clock = time.perf_counter
    phase.start = clock() + _LEAD_S
    offset = phase.start - stream.due[0]
    due = (offset + stream.due).tolist()
    tick_due = (offset + (window + 1) * TICK_S).tolist()
    for i in range(n):
        if churn.next_t <= stamps[i]:
            churn.until(stamps[i])
        late[i] = _wait_until(due[i]) - due[i]
        fids.append(submit(ids[i], stamps[i], rows[i]).frame_id)
        if last_of_pass[i]:
            _wait_until(tick_due[i])
            res = tick()
            if res:
                out.extend(res)
                marks.append((len(out), clock()))
    out.extend(fleet.flush())
    marks.append((len(out), clock()))
    _close_ledgers(phase, fleet)
    return phase


def run_phase(inputs: Inputs, stream: Stream, loop: str, pause=None) -> tuple[Phase, float]:
    """Set up a fresh surface and drive one phase; returns (phase, setup_s).

    ``pause`` runs halfway through a closed loop's timed frames.
    The benchmark's own objects (inputs, this phase's feed, earlier phases)
    are frozen out of the cyclic garbage collector first, and again after
    the pause, so its full collections only walk what the program allocates.
    """
    feed = _feed(inputs, stream)
    gc.collect()
    gc.freeze()

    def resume() -> None:
        pause()
        gc.collect()
        gc.freeze()

    resume_at = None if pause is None else resume
    try:
        surface, plans, setup_s = setup(inputs, stream)
        engine = inputs.workload.surface == "engine"
        if loop == "open":
            if engine:
                return engine_open(surface, stream, feed), setup_s
            return fleet_open(surface, plans, stream, feed), setup_s
        if engine:
            return engine_closed(surface, stream, feed, resume_at), setup_s
        return fleet_closed(surface, plans, stream, feed, resume_at), setup_s
    finally:
        gc.unfreeze()
