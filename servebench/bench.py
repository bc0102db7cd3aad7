"""One benchmark run: inputs, both load phases, checks and metrics.

End-to-end metrics (``--trace 0``):

* ``frames_per_s``: answered frames per wall-clock second in the closed
  loop, over its fastest run of :data:`WINDOW_FRAMES` answers.  Other
  work on the host only ever slows the program down, often for seconds at
  a time, so the fastest window is the steadiest estimate of capacity.
  The closed loop's timed frames go in two halves, one before and one
  after the open loop, so a slow spell on the host has to last the whole
  run to hide every fast window.
* ``latency_p50_ms`` / ``latency_p99_ms``: open loop, from each timed
  frame's due time to the return of the call that delivered its answer;
  the percentile is taken in each :data:`LATENCY_WINDOW_S` window of due
  times and the median over windows is reported, so a host stall that
  hits one window does not move the figure.
* ``on_time_ratio``: timed open-loop frames answered within 50 ms of
  their due time, over timed frames offered (an unanswered frame is late).
* ``frames_answered_ratio``: offered frames answered, over frames offered,
  both phases; fixed by the seed, since every refusal reads stream time.
* ``setup_s``: median wall time to freeze the plan(s) and build the engine
  or fleet with every tenant attached.
* ``peak_rss_mb``: peak resident memory of the process.
"""

from __future__ import annotations

import json
import resource
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .check import check_phase
from .drive import run_phase, setup
from .tracing import Tracer
from .workloads import WARMUP_S, WORKLOADS, make_inputs

HERE = Path(__file__).resolve().parent
#: Where the traced run writes its spans (git-ignored).
SPANS_DIR = HERE.parent / ".servebench"
#: An answer later than one 20 Hz frame period after its due time is late.
ON_TIME_S = 0.050
#: Extra set-ups before the closed loop and on each side of the open
#: loop; the median of these and the two that start the phases is
#: reported as setup_s.
SETUP_REPEATS = 21
#: Answers per throughput window (16 engine micro-batches, 20 fleet ticks).
WINDOW_FRAMES = 1024
#: Open-loop latency percentiles are taken per window of this many
#: stream seconds of due times (over 2,500 answers, so a window's p99
#: has more than 25 samples beyond it).
LATENCY_WINDOW_S = 1.0

#: name -> (unit, better)
END_TO_END = {
    "frames_per_s": ("1/s", "higher"),
    "latency_p50_ms": ("ms", "lower"),
    "latency_p99_ms": ("ms", "lower"),
    "on_time_ratio": ("ratio", "higher"),
    "frames_answered_ratio": ("ratio", "higher"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}


def per_layer_metrics() -> dict[str, tuple[str, str]]:
    """name -> (unit, better) for every per-layer metric, from layers.json."""
    table = json.loads((HERE / "layers.json").read_text())
    return {
        m["name"]: (m["unit"], m["better"])
        for layer in table["layers"]
        for m in layer["metrics"]
    }


@dataclass
class Report:
    correct: bool
    attempted: int
    failed: int
    metrics: dict[str, tuple[float, str]]
    lines: list[str] = field(default_factory=list)

    def result_line(self) -> str:
        return json.dumps(
            {
                "correct": self.correct,
                "attempted": self.attempted,
                "failed": self.failed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in self.metrics.items()
                },
            }
        )


def open_loop_latency(phase, index: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per answered timed frame: seconds from due time to delivery, and
    the number of the :data:`LATENCY_WINDOW_S` window it was due in."""
    stream = phase.stream
    ends = np.array([m[0] for m in phase.marks])
    times = np.array([m[1] for m in phase.marks])
    returned = times[np.searchsorted(ends, np.arange(index.size), side="right")]
    timed = index >= stream.timed_from
    frames = index[timed]
    latency = returned[timed] - (phase.start + stream.due[frames] - stream.due[0])
    window = ((stream.due[frames] - WARMUP_S) // LATENCY_WINDOW_S).astype(np.int64)
    return latency, window


def windowed_percentile(values: np.ndarray, window: np.ndarray, q: float) -> float:
    """The median over windows of each window's ``q``-th percentile."""
    return float(np.median([np.percentile(values[window == w], q) for w in np.unique(window)]))


def run(name: str, seed: int, seconds: float, trace: bool) -> Report:
    workload = WORKLOADS[name]
    inputs = make_inputs(workload, seed, seconds)
    repeats = 0 if trace else SETUP_REPEATS // 3

    def set_up() -> list[float]:
        return [setup(inputs, inputs.closed)[2] for _ in range(repeats)]

    setups = set_up()
    opened = open_setup = None

    def open_loop() -> None:
        nonlocal opened, open_setup
        setups.extend(set_up())
        opened, open_setup = run_phase(inputs, inputs.open, "open")
        setups.extend(set_up())

    closed, closed_setup = run_phase(inputs, inputs.closed, "closed", pause=open_loop)
    setups += [closed_setup, open_setup]
    verdicts = [check_phase(inputs, closed), check_phase(inputs, opened)]
    lines = []
    if trace:
        # The traced run replays the first half of the closed-loop frames.
        head = inputs.closed.head(len(inputs.closed) // 2)
        tracer = Tracer()
        with tracer:
            traced, _ = run_phase(inputs, head, "closed")
        verdicts.append(check_phase(inputs, traced))
        tracer.spans.save(SPANS_DIR / f"{name}-spans.npz")
        values = tracer.layer_metrics(len(head))
        timed_late = opened.late[opened.stream.timed_from :]
        values["loadgen.late_p50_ms"] = 1e3 * float(np.percentile(timed_late, 50))
        values["loadgen.late_p99_ms"] = 1e3 * float(np.percentile(timed_late, 99))
        values["bench.trace_overhead_ratio"] = closed.rate() / traced.rate()
        units = per_layer_metrics()
        lines.append(f"traced run: {len(tracer.spans)} spans")
    else:
        latency, window = open_loop_latency(opened, verdicts[1].index)
        timed = len(opened.stream) - opened.stream.timed_from
        offered = verdicts[0].offered + verdicts[1].offered
        answered = verdicts[0].answered + verdicts[1].answered
        values = {
            "frames_per_s": closed.fastest_rate(WINDOW_FRAMES),
            "latency_p50_ms": 1e3 * windowed_percentile(latency, window, 50),
            "latency_p99_ms": 1e3 * windowed_percentile(latency, window, 99),
            "on_time_ratio": float((latency <= ON_TIME_S).sum()) / timed,
            "frames_answered_ratio": answered / offered,
            "setup_s": float(np.median(setups)),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END
        lines.append(
            f"closed loop: {len(closed.stream)} frames, {closed.rate():.0f} frames/s "
            f"past the warm-up, {values['frames_per_s']:.0f} over the fastest "
            f"{WINDOW_FRAMES} answers"
        )
        lines.append(
            f"open loop: {len(opened.stream)} frames offered at "
            f"{workload.offered_fps:.0f}/s, {latency.size} latency samples past the "
            f"warm-up in {np.unique(window).size} windows of {LATENCY_WINDOW_S:g} s"
        )
    for verdict, label in zip(verdicts, ("closed", "open", "traced")):
        lines.append(
            f"{label}: offered {verdict.offered}, answered {verdict.answered}, "
            f"fills {verdict.fills}, unexpected refusals {verdict.unexpected}"
        )
        lines.extend(f"CHECK FAILED ({label}) {e}" for e in verdict.errors)
    metrics = {n: (values[n], units[n][0]) for n in units}
    for n, (value, unit) in metrics.items():
        note = (
            f"  (n={latency.size}, median of {np.unique(window).size} windows)"
            if not trace and n.startswith("latency_")
            else ""
        )
        lines.append(f"{n:<34} {value:>14.6g} {unit}{note}")
    return Report(
        correct=not any(v.errors for v in verdicts),
        attempted=sum(v.offered for v in verdicts),
        failed=sum(v.unexpected for v in verdicts),
        metrics=metrics,
        lines=lines,
    )
