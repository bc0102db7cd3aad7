"""The traced run: spans around calls into each layer's public functions.

:class:`Tracer` replaces the functions listed in :data:`CALLS` with
timing wrappers for the duration of a ``with`` block and puts the
originals back afterwards; the program's source is not touched.  Each
call becomes a span ``(call, start, end, parent span, key)``: the key is
the frame id for per-frame calls and a batch number for per-batch ones
(-1 where neither applies).  Spans are kept in flat arrays and written
out once at the end.

A layer's self time is the duration of its spans minus the time their
child spans (any traced call made inside them) cover.  Wrapper overhead
lands in the caller's self time, which is why end-to-end metrics come
from the untraced run and ``bench.trace_overhead_ratio`` is reported.
"""

from __future__ import annotations

import importlib
import math
import time
from array import array
from pathlib import Path

import numpy as np

_METRICS = ("counter", "gauge", "histogram")
_SUPERVISOR = (
    "decide",
    "observe",
    "resolve_health",
    "record_primary_success",
    "record_primary_failure",
    "record_fallback_success",
    "record_fallback_failure",
)

#: (layer, part, module, owner class or None for a module function, name).
CALLS: tuple[tuple[str, str, str, str | None, str], ...] = (
    ("serve.engine", "", "repro.serve.engine", "InferenceEngine", "submit"),
    ("serve.engine", "", "repro.serve.engine", "InferenceEngine", "flush"),
    ("serve.queue", "push", "repro.serve.queue", "MicroBatchQueue", "push"),
    ("serve.queue", "", "repro.serve.queue", "MicroBatchQueue", "ready"),
    ("serve.queue", "drain", "repro.serve.queue", "MicroBatchQueue", "drain"),
    *(
        ("serve.metrics", "lookup", "repro.serve.metrics", "MetricsRegistry", name)
        for name in _METRICS
    ),
    ("serve.metrics", "", "repro.serve.metrics", "Counter", "inc"),
    ("serve.metrics", "", "repro.serve.metrics", "Gauge", "set"),
    ("serve.metrics", "", "repro.serve.metrics", "Histogram", "observe"),
    # check_csi_row as the serving surfaces bound it at import time.
    ("streaming", "check", "repro.serve.engine", None, "check_csi_row"),
    ("streaming", "check", "repro.fleet.service", None, "check_csi_row"),
    ("streaming", "debounce", "repro.data.streaming", "SmoothingDebouncer", "update"),
    ("fastpath.plan", "plan", "repro.fastpath.plan", "InferencePlan", "predict_proba"),
    ("guard.validation", "validate", "repro.guard.validation", "FrameValidator", "validate"),
    ("guard.repair", "repair", "repro.guard.repair", "GapRepairer", "observe"),
    *(
        ("guard.supervisor", "", "repro.guard.supervisor", "RecoverySupervisor", name)
        for name in _SUPERVISOR
    ),
    ("overload.limiter", "admit", "repro.overload.limiter", "RateLimiter", "admit"),
    ("overload.governor", "govern", "repro.overload.governor", "SaturationGovernor", "observe"),
    *(
        ("obs.observer", "", "repro.obs.observer", "Observer", name)
        for name in ("frame_submitted", "frame_filled", "frame_outcome", "emit")
    ),
    *(
        ("obs.observer", "", "repro.obs.tracer", "FrameTracer", name)
        for name in ("add_stage", "mark_enqueued", "queue_wait")
    ),
    *(
        ("fleet.service", "", "repro.fleet.service", "Fleet", name)
        for name in ("submit", "tick", "flush")
    ),
    ("fleet.router", "", "repro.fleet.router", "FleetRouter", "route"),
    ("fleet.router", "", "repro.fleet.router", "FleetRouter", "drain"),
    ("fleet.fusion", "tick", "repro.fleet.fusion", "FusionScheduler", "run_tick"),
    ("fleet.fusion", "kernel", "repro.fleet.fusion", "TiledPlanRunner", "predict_proba"),
    *(
        ("fleet.registry", "read", "repro.fleet.registry", "PlanRegistry", name)
        for name in ("signature", "get")
    ),
    *(
        ("fleet.registry", "write", "repro.fleet.registry", "PlanRegistry", name)
        for name in ("register", "replace_plan", "remove", "rebalance")
    ),
    *(
        ("fleet.lifecycle", "", "repro.fleet.service", "Fleet", name)
        for name in ("attach", "detach", "replace_plan")
    ),
)


class Spans:
    """Flat, append-only span storage (one slot per finished call)."""

    def __init__(self) -> None:
        self.span = array("q")  # span id, in start order
        self.call = array("i")  # index into CALLS
        self.parent = array("q")  # span id of the caller, -1 at top level
        self.start = array("d")
        self.end = array("d")
        self.key = array("q")  # frame id, batch number or -1

    def __len__(self) -> int:
        return len(self.span)

    def add(self, span: int, call: int, parent: int, start: float, end: float, key: int) -> None:
        self.span.append(span)
        self.call.append(call)
        self.parent.append(parent)
        self.start.append(start)
        self.end.append(end)
        self.key.append(key)

    def arrays(self) -> dict[str, np.ndarray]:
        """The spans as arrays indexed by span id."""
        order = np.argsort(np.frombuffer(self.span, dtype=np.int64), kind="stable")
        return {
            name: np.frombuffer(getattr(self, name), dtype=dtype)[order]
            for name, dtype in (
                ("call", np.int32),
                ("parent", np.int64),
                ("start", np.float64),
                ("end", np.float64),
                ("key", np.int64),
            )
        }

    def save(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        names = np.array([f"{c[0]}:{c[3] or c[2]}.{c[4]}" for c in CALLS])
        with open(path, "wb") as handle:
            np.savez(handle, names=names, **self.arrays())


def self_times(parent: np.ndarray, duration: np.ndarray) -> np.ndarray:
    """Each span's duration minus the time its direct children cover.

    Spans are indexed by id; ``parent[i]`` is the id of span *i*'s
    caller or -1.  Calls are synchronous, so children of one span never
    overlap and their durations add.
    """
    nested = parent >= 0
    covered = np.bincount(parent[nested], weights=duration[nested], minlength=parent.size)
    return duration - covered


class Tracer:
    """Installs the span wrappers for a ``with`` block."""

    def __init__(self) -> None:
        self.spans = Spans()
        self._stack: list[int] = []
        self._next = [0]
        self._saved: list[tuple[object, str, object]] = []
        # Counts taken at the same boundaries as the spans.
        self.enqueued_at: dict[int, float] = {}
        self.awaiting: list[int] = []
        self.queue_waits: list[float] = []
        self.batch_sizes: list[int] = []
        self.batches = 0
        self.plan_rows = 0
        self.plan_flops = 0.0
        self.flips = 0
        self.refused = {"validate": 0, "admit": 0}
        self.fills = 0
        self.governors: dict[int, object] = {}
        self.fused_frames = 0
        self.tick_frames = 0
        self.kernel_rows = 0
        self.kernel_padded = 0

    # Hooks see (args, result, start) of a finished call; they return the
    # span key and record the layer's counts.
    def _push(self, args, frame, start):
        self.enqueued_at[args[1].frame_id] = start
        return args[1].frame_id

    def _drain(self, args, frames, start):
        self.batches += 1
        self.batch_sizes.append(len(frames))
        self.awaiting = [f.frame_id for f in frames]
        return self.batches

    def _plan(self, args, result, start):
        plan, x = args[0], args[1]
        rows = 1 if x.ndim == 1 else x.shape[0]
        self.plan_rows += rows
        self.plan_flops += rows * sum(2.0 * s.weight.size for s in plan.steps)
        for frame_id in self.awaiting:
            enqueued = self.enqueued_at.pop(frame_id, None)
            if enqueued is not None:
                self.queue_waits.append(start - enqueued)
        self.awaiting = []
        return self.batches

    def _debounce(self, args, result, start):
        self.flips += result is not None
        return -1

    def _validate(self, args, result, start):
        self.refused["validate"] += result is not None
        return -1

    def _admit(self, args, result, start):
        self.refused["admit"] += not result
        return -1

    def _repair(self, args, result, start):
        self.fills += len(result)
        return -1

    def _govern(self, args, result, start):
        self.governors[id(args[0])] = args[0]
        return -1

    def _tick(self, args, outcome, start):
        self.fused_frames += outcome.fused_frames
        self.tick_frames += outcome.total_frames
        self.batches += 1
        return self.batches

    def _kernel(self, args, result, start):
        runner, n = args[0], len(result)
        self.kernel_rows += n
        self.kernel_padded += math.ceil(n / runner.tile) * runner.tile
        return self.batches + 1  # the tick in progress

    def _hook(self, part: str):
        return {
            "push": self._push,
            "drain": self._drain,
            "plan": self._plan,
            "debounce": self._debounce,
            "validate": self._validate,
            "admit": self._admit,
            "repair": self._repair,
            "govern": self._govern,
            "tick": self._tick,
            "kernel": self._kernel,
        }.get(part)

    def _wrap(self, call: int, fn, hook):
        stack, counter, add = self._stack, self._next, self.spans.add
        clock = time.perf_counter

        def traced(*args, **kwargs):
            span = counter[0]
            counter[0] = span + 1
            parent = stack[-1] if stack else -1
            stack.append(span)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                add(span, call, parent, start, clock(), -1)
                stack.pop()
                raise
            end = clock()
            stack.pop()
            add(span, call, parent, start, end, -1 if hook is None else hook(args, result, start))
            return result

        traced.__wrapped__ = fn
        return traced

    def __enter__(self) -> "Tracer":
        try:
            for call, (_, part, module, owner, name) in enumerate(CALLS):
                target = importlib.import_module(module)
                if owner is not None:
                    target = getattr(target, owner)
                original = vars(target)[name]
                self._saved.append((target, name, original))
                setattr(target, name, self._wrap(call, original, self._hook(part)))
        except BaseException:
            self._restore()
            raise
        return self

    def _restore(self) -> None:
        while self._saved:
            target, name, original = self._saved.pop()
            setattr(target, name, original)

    def __exit__(self, *exc) -> None:
        self._restore()

    # ------------------------------------------------------------- metrics

    def layer_metrics(self, frames: int) -> dict[str, float]:
        """Per-layer values for a run that offered ``frames`` frames."""
        spans = self.spans.arrays()
        duration = spans["end"] - spans["start"]
        own = self_times(spans["parent"], duration)
        layer_of = np.array([c[0] for c in CALLS])[spans["call"]]
        part_of = np.array([c[1] for c in CALLS])[spans["call"]]
        out: dict[str, float] = {}
        for layer in dict.fromkeys(c[0] for c in CALLS):
            mine = layer_of == layer
            out[f"{layer}.calls"] = float(mine.sum())
            out[f"{layer}.self_ms"] = 1e3 * float(own[mine].sum())

        def ms(mask) -> float:
            return 1e3 * float(own[mask].sum())

        def ratio(num: float, den: float) -> float:
            return num / den if den else 0.0

        def pct(values, q: float) -> float:
            return 1e3 * float(np.percentile(values, q)) if len(values) else 0.0

        per_frame = 1.0 / frames
        out["serve.engine.us_per_frame"] = 1e3 * out["serve.engine.self_ms"] * per_frame
        out["serve.engine.batch_size_mean"] = (
            float(np.mean(self.batch_sizes)) if self.batch_sizes else 0.0
        )
        out["serve.queue.wait_p50_ms"] = pct(self.queue_waits, 50)
        out["serve.queue.wait_p99_ms"] = pct(self.queue_waits, 99)
        out["serve.metrics.lookups_per_frame"] = float((part_of == "lookup").sum()) * per_frame
        out["streaming.check_self_ms"] = ms(part_of == "check")
        out["streaming.debounce_self_ms"] = ms(part_of == "debounce")
        out["streaming.debounce_flip_ratio"] = ratio(self.flips, (part_of == "debounce").sum())
        plan = part_of == "plan"
        out["fastpath.plan.rows_per_call"] = ratio(self.plan_rows, plan.sum())
        out["fastpath.plan.gflops"] = ratio(self.plan_flops / 1e9, float(duration[plan].sum()))
        out["guard.validation.refused_ratio"] = ratio(
            self.refused["validate"], out["guard.validation.calls"]
        )
        out["guard.repair.fills"] = float(self.fills)
        out["overload.limiter.refused_ratio"] = ratio(
            self.refused["admit"], out["overload.limiter.calls"]
        )
        out["overload.governor.escalations"] = float(
            sum(g.escalations for g in self.governors.values())
        )
        out["obs.observer.calls_per_frame"] = out["obs.observer.calls"] * per_frame
        out["fleet.service.us_per_frame"] = 1e3 * out["fleet.service.self_ms"] * per_frame
        kernel = part_of == "kernel"
        out["fleet.fusion.kernel_ms"] = 1e3 * float(duration[kernel].sum())
        out["fleet.fusion.fused_ratio"] = ratio(self.fused_frames, self.tick_frames)
        out["fleet.fusion.tile_fill_ratio"] = ratio(self.kernel_rows, self.kernel_padded)
        out["fleet.registry.read_ms"] = ms(part_of == "read")
        out["fleet.registry.write_calls"] = float((part_of == "write").sum())
        out["fleet.registry.write_ms"] = ms(part_of == "write")
        lifecycle = duration[layer_of == "fleet.lifecycle"]
        out["fleet.lifecycle.p99_ms"] = pct(lifecycle, 99)
        return out
