"""chaos-bench: accuracy-under-fault for the serving engine.

The harness replays one recorded campaign through
:class:`~repro.serve.engine.InferenceEngine` once per
:class:`ChaosScenario`, each scenario corrupting the stream with a
:class:`~repro.faults.schedule.ChaosSchedule` (and optionally crashing
the primary model for a stretch of batches).  The report answers the
question the paper's "unconstrained environments" claim raises: when
subcarriers die, links go dark or the model itself falls over, does the
stack *degrade* — keep answering every deliverable frame, route around
the failure, recover — or does it die?

Reconciliation is exact: per scenario,

``submitted + repaired == answered + answered_repaired + rejected
+ quarantined + policy_rejected + stale + overflow + unanswered``

and a healthy engine keeps ``unanswered`` at zero — every admitted frame
yields an :class:`~repro.serve.engine.InferenceResult` from the primary
or the fallback.  The ``repaired``/``quarantined``/``policy_rejected``
legs are only non-zero when the replay runs with a
:class:`~repro.guard.policy.GuardPolicy` attached (``guard=``), which
stands up the full validation → quarantine → gap-repair →
circuit-breaker stack in front of each scenario's engine.
"""

from __future__ import annotations

import dataclasses
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from ..data.dataset import OccupancyDataset
from ..exceptions import ConfigurationError
from ..ledger import offered, total, unaccounted
from ..serve.config import ServeConfig
from ..serve.engine import InferenceEngine
from ..serve.metrics import MetricsRegistry
from ..serve.robustness import FallbackPredictor
from .base import ChaosFrame
from .row import BurstNoise, GainDrift, SensorDropout, SensorStuckAt, SubcarrierDropout
from .schedule import ChaosSchedule, FaultWindow
from .stream import ClockSkew, FrameReorder, LinkOutage


class FlakyPrimary:
    """Wraps an estimator; raises for a declared window of calls.

    Models the OTA-update-gone-wrong scenario: the primary model starts
    throwing after ``fail_from`` batch calls and recovers ``fail_calls``
    later, which must show up in the report as fallback share followed by
    ``link_recovered_total`` increments.
    """

    def __init__(self, inner, fail_from: int, fail_calls: int) -> None:
        if fail_from < 0 or fail_calls < 1:
            raise ConfigurationError("need fail_from >= 0 and fail_calls >= 1")
        self.inner = inner
        self.fail_from = fail_from
        self.fail_until = fail_from + fail_calls
        self.calls = 0

    def predict_proba(self, x: np.ndarray) -> np.ndarray:
        call = self.calls
        self.calls += 1
        if self.fail_from <= call < self.fail_until:
            raise RuntimeError("chaos: simulated primary-model crash")
        return self.inner.predict_proba(x)


class _StreamClock:
    """Mutable stream-time holder the replay loop advances per frame."""

    def __init__(self, t_s: float) -> None:
        self.t_s = t_s


class TimedFlakyPrimary:
    """Wraps an estimator; raises inside a *stream-time* window.

    Unlike :class:`FlakyPrimary` (whose call counter freezes when a
    circuit breaker short-circuits the primary, so the crash would never
    "end"), the outage here is anchored to the replay clock: the model is
    down for the same stretch of the campaign whether or not anything
    calls it.  That makes recovery-on vs recovery-off replays directly
    comparable.
    """

    def __init__(self, inner, clock: _StreamClock, fail_t0_s: float, fail_t1_s: float) -> None:
        if not fail_t1_s > fail_t0_s:
            raise ConfigurationError("need fail_t1_s > fail_t0_s")
        self.inner = inner
        self.clock = clock
        self.fail_t0_s = fail_t0_s
        self.fail_t1_s = fail_t1_s
        self.failed_calls = 0

    def predict_proba(self, x: np.ndarray) -> np.ndarray:
        if self.fail_t0_s <= self.clock.t_s < self.fail_t1_s:
            self.failed_calls += 1
            raise RuntimeError("chaos: simulated primary-model crash")
        return self.inner.predict_proba(x)


@dataclass
class ChaosScenario:
    """One named chaos campaign: fault windows plus an optional model crash.

    ``crash_fraction`` is a ``(start, stop)`` fraction of the replay's
    expected batch count during which the primary raises — expressed as
    fractions so the same scenario scales to any campaign length.
    """

    name: str
    description: str
    windows: list[FaultWindow] = field(default_factory=list)
    crash_fraction: tuple[float, float] | None = None


def _ledger_count(key: str) -> property:
    return property(lambda self: self.ledger[key], doc=f"``ledger[{key!r}]``.")


@dataclass
class ChaosScenarioResult:
    """Outcome of replaying one scenario through the engine."""

    name: str
    n_frames: int
    n_submitted: int
    n_answered: int
    n_correct: int
    n_fallback: int
    n_recovered: int
    n_primary_failures: int
    #: The engine's :class:`~repro.ledger.FrameLedger` stats summed over links.
    ledger: dict[str, int]
    # Guard-path legs; all zero when the replay runs without a guard.
    n_answered_repaired: int = 0
    n_correct_repaired: int = 0
    n_breaker_trips: int = 0
    n_drift_warn: int = 0
    n_drift_trip: int = 0

    @property
    def accuracy(self) -> float:
        """Accuracy over answered *measured* frames (repairs excluded)."""
        return self.n_correct / self.n_answered if self.n_answered else float("nan")

    @property
    def coverage(self) -> float:
        """Correct answers (measured + repaired) over the whole campaign.

        Accuracy alone hides shed load: an engine that drops 90 % of the
        stream and nails the remainder scores 1.0.  Coverage charges
        every campaign frame, so gap repair and breaker recovery show up
        as gains rather than noise.
        """
        if not self.n_frames:
            return float("nan")
        return (self.n_correct + self.n_correct_repaired) / self.n_frames

    @property
    def fallback_share(self) -> float:
        answered = self.n_answered + self.n_answered_repaired
        return self.n_fallback / answered if answered else 0.0

    n_rejected = _ledger_count("rejected")
    n_quarantined = _ledger_count("quarantined")
    n_repaired = _ledger_count("repaired")
    n_policy_rejected = _ledger_count("policy_rejected")
    n_stale = _ledger_count("stale_dropped")
    n_overflow = _ledger_count("overflow")

    @property
    def n_unanswered(self) -> int:
        """Submitted frames that never reached an outcome — should be 0.

        Submissions and answers are counted by the replay, not the ledger,
        so a frame lost before admission or an undelivered answer shows.
        """
        answered = self.n_answered + self.n_answered_repaired
        return (
            self.n_submitted
            - offered(self.ledger)
            + unaccounted({**self.ledger, "frames_out": answered})
        )

    def row(self) -> dict[str, object]:
        return {
            "scenario": self.name,
            "frames": self.n_frames,
            "submitted": self.n_submitted,
            "answered": self.n_answered,
            "accuracy": f"{self.accuracy:.3f}",
            "coverage": f"{self.coverage:.3f}",
            "fallback%": f"{100.0 * self.fallback_share:.1f}",
            "rejected": self.n_rejected,
            "quarantined": self.n_quarantined,
            "repaired": self.n_repaired,
            "stale": self.n_stale,
            "overflow": self.n_overflow,
            "recovered": self.n_recovered,
            "unanswered": self.n_unanswered,
        }


@dataclass
class ChaosBenchReport:
    """All scenario results of one chaos-bench run.

    When the run was traced (``observer_factory``), :attr:`observers`
    maps scenario name → its :class:`~repro.obs.observer.Observer`, so
    callers can dump per-scenario event logs and stage breakdowns via
    :func:`repro.obs.write_dump`.
    """

    results: list[ChaosScenarioResult]
    observers: dict[str, object] = field(default_factory=dict)

    def result(self, name: str) -> ChaosScenarioResult:
        for r in self.results:
            if r.name == name:
                return r
        raise ConfigurationError(f"no scenario named {name!r} in this report")

    def describe(self) -> str:
        rows = [r.row() for r in self.results]
        columns = list(rows[0]) if rows else []
        widths = {
            c: max(len(str(c)), *(len(str(r[c])) for r in rows)) for c in columns
        }
        lines = ["accuracy under fault (chaos-bench):"]
        lines.append("  ".join(str(c).ljust(widths[c]) for c in columns))
        for row in rows:
            lines.append("  ".join(str(row[c]).ljust(widths[c]) for c in columns))
        degraded = [r for r in self.results if r.n_unanswered]
        lines.append("")
        if degraded:
            lines.append(
                "WARNING: unanswered frames in "
                + ", ".join(r.name for r in degraded)
                + " — the engine lost admitted frames"
            )
        else:
            lines.append("every admitted frame was answered (primary or fallback)")
        return "\n".join(lines)

    def to_json(self) -> dict:
        """JSON payload for the common bench envelope (see repro.benchkit)."""
        return {
            "bench": "chaos-bench",
            "scenarios": [
                {
                    **dataclasses.asdict(r),
                    "accuracy": r.accuracy,
                    "coverage": r.coverage,
                    "fallback_share": r.fallback_share,
                    "n_unanswered": r.n_unanswered,
                }
                for r in self.results
            ],
        }


def default_scenario_suite(
    t0_s: float,
    t1_s: float,
    *,
    n_csi: int = 64,
    include_env: bool = False,
    jitter_s: float = 5.0,
) -> list[ChaosScenario]:
    """The standard chaos campaign over a stream spanning ``[t0_s, t1_s]``.

    All windows are placed at fixed fractions of the span so the suite
    scales from CI smoke streams to multi-day campaigns.  The default
    (CSI-only) suite keeps corrupted rows finite, so a healthy engine
    answers *every* admitted frame; ``include_env=True`` adds the sensor
    faults (requires feature rows that carry the T/H columns), of which
    ``sensor-dropout`` intentionally emits NaN rows to drill the
    admission-rejection path.
    """
    if not t1_s > t0_s:
        raise ConfigurationError("need t1_s > t0_s")
    span = t1_s - t0_s

    def at(f0: float, f1: float, injector) -> FaultWindow:
        return FaultWindow(t0_s + f0 * span, t0_s + f1 * span, injector)

    scenarios = [
        ChaosScenario("baseline", "clean replay, reference accuracy"),
        ChaosScenario(
            "subcarrier-dropout",
            "a 16-subcarrier band reads zero for the middle 60% of the stream",
            [at(0.2, 0.8, SubcarrierDropout(band_width=16, mode="zero", n_csi=n_csi))],
        ),
        ChaosScenario(
            "burst-noise",
            "impulse-noise bursts across all subcarriers",
            [at(0.3, 0.7, BurstNoise(amplitude=4.0, burst_frames=5, p_start=0.1, n_csi=n_csi))],
        ),
        ChaosScenario(
            "gain-drift",
            "front-end gain drifts up through the second half",
            [at(0.5, 1.0, GainDrift(rate_per_s=1e-3, n_csi=n_csi))],
        ),
        ChaosScenario(
            "link-outage",
            "all links dark for the middle 20% of the stream, then recover",
            [at(0.4, 0.6, LinkOutage())],
        ),
        ChaosScenario(
            "clock-chaos",
            "timestamp jitter, then out-of-order delivery",
            [at(0.2, 0.5, ClockSkew(jitter_s=jitter_s)), at(0.5, 0.8, FrameReorder(depth=4))],
        ),
        ChaosScenario(
            "model-crash",
            "primary model raises for the middle 20% of batches",
            crash_fraction=(0.4, 0.6),
        ),
    ]
    if include_env:
        scenarios.extend(
            [
                ChaosScenario(
                    "sensor-stuck",
                    "T/H sensor sticks at its last reading",
                    [at(0.3, 0.9, SensorStuckAt(slice(n_csi, n_csi + 2)))],
                ),
                ChaosScenario(
                    "sensor-dropout",
                    "T/H columns go NaN; frames are rejected at admission",
                    [at(0.4, 0.7, SensorDropout(slice(n_csi, n_csi + 2)))],
                ),
            ]
        )
    return scenarios


def _interleaved_chaos_frames(
    dataset: OccupancyDataset, n_links: int, include_env: bool
) -> list[ChaosFrame]:
    """Round-robin the campaign rows over ``n_links`` simulated sniffers."""
    link_ids = [f"link-{i}" for i in range(n_links)]
    t = dataset.timestamps_s
    features = (
        np.hstack([dataset.csi, dataset.environment]) if include_env else dataset.csi
    )
    occupancy = dataset.occupancy
    return [
        ChaosFrame(link_ids[i % n_links], float(t[i]), features[i], int(occupancy[i]))
        for i in range(len(dataset))
    ]


def run_chaos_bench(
    estimator,
    dataset: OccupancyDataset,
    scenarios: list[ChaosScenario] | None = None,
    *,
    n_links: int = 2,
    max_batch: int = 32,
    max_latency_ms: float | None = None,
    stale_after_s: float | None = None,
    window: int = 5,
    hold_frames: int = 3,
    seed: int = 0,
    fallback: FallbackPredictor | None = None,
    include_env: bool = False,
    guard=None,
    observer_factory=None,
) -> ChaosBenchReport:
    """Replay every scenario through a fresh engine; returns the report.

    The estimator must already be fitted on features matching the replay
    layout (CSI-only by default, CSI+T/H with ``include_env=True``).  Each
    scenario gets its own engine and metrics registry, so counters never
    bleed between scenarios; the fault schedule is reseeded per replay,
    so the whole campaign is deterministic in ``seed``.

    ``guard`` is any object with a ``build(registry)`` method returning
    ``(validator, repairer, supervisor)`` — canonically a
    :class:`~repro.guard.policy.GuardPolicy` (duck-typed here so this
    module never imports :mod:`repro.guard`).  Fresh components are built
    per scenario, so per-link state cannot leak between replays.
    Repaired answers are scored against the *clean* campaign labels at
    their grid timestamps — a fill is "correct" when it matches what the
    lost frame would have been labelled.

    ``observer_factory`` is an optional ``name -> Observer`` callable
    (duck-typed; canonically ``lambda name: repro.obs.Observer(label=name)``).
    When given, each scenario's engine runs fully traced and the built
    observers come back on :attr:`ChaosBenchReport.observers`.
    """
    if n_links < 1:
        raise ConfigurationError("n_links must be >= 1")
    if len(dataset) == 0:
        raise ConfigurationError("dataset is empty; nothing to replay")
    frames = _interleaved_chaos_frames(dataset, n_links, include_env)
    t0, t1 = frames[0].t_s, frames[-1].t_s
    if scenarios is None:
        scenarios = default_scenario_suite(
            t0, max(t1, t0 + 1.0), n_csi=dataset.n_subcarriers, include_env=include_env
        )

    # Clean-campaign labels keyed by (link, grid timestamp): repaired fills
    # land exactly on the lost frames' grid, so this is their ground truth.
    clean_labels = {(f.link_id, f.t_s): f.label for f in frames}

    results: list[ChaosScenarioResult] = []
    observers: dict[str, object] = {}
    for scenario in scenarios:
        clock = _StreamClock(t0)
        primary = estimator
        if scenario.crash_fraction is not None:
            span = max(t1, t0 + 1.0) - t0
            f0, f1 = scenario.crash_fraction
            primary = TimedFlakyPrimary(estimator, clock, t0 + f0 * span, t0 + f1 * span)
        registry = MetricsRegistry()
        validator = repairer = supervisor = None
        if guard is not None:
            validator, repairer, supervisor = guard.build(registry)
        observer = None
        if observer_factory is not None:
            observer = observer_factory(scenario.name)
            observers[scenario.name] = observer
        engine = InferenceEngine(
            primary,
            ServeConfig(
                max_batch=max_batch,
                max_latency_ms=max_latency_ms,
                queue_capacity=4 * max_batch,
                window=window,
                hold_frames=hold_frames,
                stale_after_s=stale_after_s,
                fallback=fallback,
                registry=registry,
                validator=validator,
                repairer=repairer,
                supervisor=supervisor,
                observer=observer,
            ),
        )
        schedule = ChaosSchedule(scenario.windows, seed=seed)

        labels: dict[tuple[str, float], deque[int | None]] = {}
        answered_keys: set[tuple[str, float]] = set()
        repaired_answers: list = []
        n_submitted = 0
        n_answered = n_correct = n_fallback = 0
        n_answered_repaired = n_correct_repaired = 0

        def score(batch) -> None:
            nonlocal n_answered, n_correct, n_fallback, n_answered_repaired
            for result in batch:
                if result.source == "fallback":
                    n_fallback += 1
                if result.repaired:
                    # Correctness is settled after the replay: a fill only
                    # earns credit for a slot no real frame answered.
                    n_answered_repaired += 1
                    repaired_answers.append(result)
                    continue
                n_answered += 1
                key = (result.link_id, result.t_s)
                answered_keys.add(key)
                queued = labels.get(key)
                label = queued.popleft() if queued else None
                if label is not None and (result.probability >= 0.5) == bool(label):
                    n_correct += 1

        for frame in schedule.run(frames):
            n_submitted += 1
            clock.t_s = max(clock.t_s, frame.t_s)
            labels.setdefault((frame.link_id, frame.t_s), deque()).append(frame.label)
            score(engine.submit(frame.link_id, frame.t_s, frame.features))
        score(engine.flush())

        # A repaired answer counts as correct only when (a) it sits on a
        # clean grid slot, (b) no real frame answered that slot (reordered
        # originals must not be double-counted), and (c) no earlier fill
        # already claimed it.
        credited: set[tuple[str, float]] = set()
        for result in repaired_answers:
            key = (result.link_id, result.t_s)
            if key in answered_keys or key in credited:
                continue
            label = clean_labels.get(key)
            if label is not None and (result.probability >= 0.5) == bool(label):
                credited.add(key)
                n_correct_repaired += 1

        counters = registry.as_dict()
        ledger = total(engine.link_stats(link) for link in engine.link_ids)
        results.append(
            ChaosScenarioResult(
                name=scenario.name,
                n_frames=len(frames),
                n_submitted=n_submitted,
                n_answered=n_answered,
                n_correct=n_correct,
                n_fallback=n_fallback,
                n_recovered=int(counters.get("link_recovered_total", 0.0)),
                n_primary_failures=int(counters.get("primary_failures", 0.0)),
                ledger=ledger,
                n_answered_repaired=n_answered_repaired,
                n_correct_repaired=n_correct_repaired,
                n_breaker_trips=int(counters.get("primary_breaker_opened_total", 0.0)),
                n_drift_warn=int(counters.get("drift_warn_total", 0.0)),
                n_drift_trip=int(counters.get("drift_trip_total", 0.0)),
            )
        )
    return ChaosBenchReport(results, observers=observers)
