"""The ``overload-bench`` harness: serving honesty under saturation.

Drives a deterministic **open-loop** arrival process — one hot tenant
whose rate square-waves between its base rate and ``skew`` times a cold
tenant's rate, beside several steady cold tenants — through four arms:

* ``unprotected`` engine — no overload plane: the control arm, where the
  hot tenant's bursts anonymously evict cold tenants' frames and late
  answers are served anyway;
* ``protected`` engine — per-tenant token buckets, deadline budgets,
  per-link queue credit and the saturation governor, with service
  capacity above the *reserved* admission load, so the plane's only
  visible action is typed refusal of the hot tenant's excess;
* ``governed`` engine — same protection plus a mid-run **service stall**
  (the pump stops for a few seconds, modelling a downstream outage);
  backlog saturates the queue, the governor walks the degradation
  ladder, deadline sheds clear the stale backlog, and jittered probes
  step the surface back down once calm returns;
* ``fleet`` — the multi-tenant surface with the same protection,
  tick-driven.

Arrivals, service and every policy clock are **stream time**, so a
same-seed run reproduces every admission, shed and mode transition
exactly.  CI gates only on the deterministic invariants:

* **ledger reconciliation** — per arm, the observer's event-side ledger
  balances to zero unaccounted frames, and the serving surface's own
  per-tenant tallies (``link_stats`` / ``counters``) agree with it cause
  by cause (rate_limited / overflow / deadline_expired / shed / …);
* **deadline honesty** — no frame is ever *served* past its budget
  (expired frames must be shed, never answered);
* **fairness** — in the protected arms a cold tenant under its reserved
  rate is never rate-limited and loses no frames to the hot tenant's
  10:1 bursts, while the hot tenant's excess is refused in volume;
* **ladder walk** — the governed arm's governor escalates at least once,
  probes recovery at least once, and ends below its peak severity.

Throughput and latency numbers are reported but never gated.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..benchkit import DEFAULT_SEED
from ..exceptions import ConfigurationError, DeadlineError
from ..fastpath.plan import InferencePlan
from ..ledger import OUTCOMES, mismatches, outcomes, total
from ..nn.modules import Linear, ReLU, Sequential
from ..obs.observer import Observer
from ..serve.config import ServeConfig
from ..serve.engine import InferenceEngine
from .deadline import check_served_within_deadline
from .governor import OverloadPolicy

#: Shed causes the per-arm breakdown reports, in ledger order.
SHED_CAUSES = tuple(o for o in OUTCOMES if o != "answered")


@dataclass(frozen=True)
class OverloadTraffic:
    """The deterministic arrival schedule every arm replays."""

    #: ``(t_s, tenant_id, row_index)`` triples, time-ordered.
    arrivals: tuple[tuple[float, str, int], ...]
    #: Row pool indexed by ``row_index``.
    rows: np.ndarray
    #: Per-tenant arrival counts.
    per_tenant: dict[str, int]
    hot_tenant: str
    cold_tenants: tuple[str, ...]


def make_traffic(
    *,
    duration_s: float,
    step_s: float,
    n_cold: int,
    cold_hz: float,
    hot_base_hz: float,
    hot_burst_hz: float,
    burst_period_s: float,
    burst_duty: float,
    n_inputs: int,
    seed: int,
) -> OverloadTraffic:
    """Build the open-loop schedule: square-wave hot bursts over steady cold.

    Per-tenant fractional accumulators make the emission exact for any
    ``step_s`` — ``rate * duration`` frames arrive, no drift, regardless
    of how the step grid divides the rates.
    """
    hot = "hot"
    cold = tuple(f"cold-{i}" for i in range(n_cold))
    tenants = (hot,) + cold
    rng = np.random.default_rng(seed)
    rows = rng.normal(size=(256, n_inputs))

    def rate_at(tenant: str, t: float) -> float:
        if tenant != hot:
            return cold_hz
        return hot_burst_hz if (t % burst_period_s) < burst_period_s * burst_duty else hot_base_hz

    arrivals: list[tuple[float, str, int]] = []
    acc = dict.fromkeys(tenants, 0.0)
    row_i = 0
    for step in range(int(round(duration_s / step_s))):
        t0 = step * step_s
        batch: list[tuple[float, str]] = []
        for tenant in tenants:
            acc[tenant] += rate_at(tenant, t0) * step_s
            emit = int(acc[tenant])
            if emit:
                acc[tenant] -= emit
                for k in range(emit):
                    batch.append((t0 + (k + 0.5) * step_s / (emit + 1), tenant))
        batch.sort()  # interleave tenants by in-step time, deterministically
        for t, tenant in batch:
            arrivals.append((t, tenant, row_i % len(rows)))
            row_i += 1
    per_tenant = dict.fromkeys(tenants, 0)
    for _, tenant, _ in arrivals:
        per_tenant[tenant] += 1
    return OverloadTraffic(
        arrivals=tuple(arrivals),
        rows=rows,
        per_tenant=per_tenant,
        hot_tenant=hot,
        cold_tenants=cold,
    )


@dataclass
class ArmReport:
    """Everything one arm's replay measured."""

    name: str
    arrivals: dict[str, int]
    answered: dict[str, int]
    shed_by_cause: dict[str, int]
    goodput_hz: dict[str, float]
    #: tenant → {"p50_ms", "p99_ms"} of stream-time serve latency.
    latency_ms: dict[str, dict[str, float]]
    ledger_reconciled: bool
    counters_reconciled: bool
    deadline_violations: int
    rate_limited: dict[str, int]
    governor: dict | None = None
    peak_severity: int = 0
    final_severity: int = 0


def _percentiles(samples: list[float]) -> dict[str, float]:
    if not samples:
        return {"p50_ms": float("nan"), "p99_ms": float("nan")}
    arr = np.asarray(samples)
    return {
        "p50_ms": float(np.percentile(arr, 50.0)),
        "p99_ms": float(np.percentile(arr, 99.0)),
    }


def _shed_by_cause(stats: dict[str, int]) -> dict[str, int]:
    counts = outcomes(stats)
    return {cause: counts[cause] for cause in SHED_CAUSES}


def _run_engine_arm(
    name: str,
    traffic: OverloadTraffic,
    config: ServeConfig,
    plan: InferencePlan,
    *,
    duration_s: float,
    step_s: float,
    service_hz: float,
    stall: tuple[float, float] | None = None,
) -> ArmReport:
    """Replay the schedule against one engine with a finite service pump."""
    observer = config.observer
    engine = InferenceEngine(plan, config)
    engine.attach_fastpath(plan)

    budget_s = engine.deadline_s
    answered = dict.fromkeys(traffic.per_tenant, 0)
    latencies: dict[str, list[float]] = {t: [] for t in traffic.per_tenant}
    deadline_violations = 0
    peak_severity = 0
    service_acc = 0.0
    arrival_i = 0
    arrivals = traffic.arrivals
    n_steps = int(round(duration_s / step_s))

    def consume(results, now: float) -> None:
        nonlocal deadline_violations
        for result in results:
            answered[result.link_id] += 1
            latencies[result.link_id].append(1000.0 * (now - result.t_s))
        try:
            check_served_within_deadline(results, now, budget_s)
        except DeadlineError:
            deadline_violations += sum(
                1 for r in results if budget_s is not None and now - r.t_s > budget_s
            )

    for step in range(n_steps):
        t_end = (step + 1) * step_s
        while arrival_i < len(arrivals) and arrivals[arrival_i][0] < t_end:
            t, tenant, row_i = arrivals[arrival_i]
            engine.submit_frame(tenant, t, traffic.rows[row_i])
            arrival_i += 1
        stalled = stall is not None and stall[0] <= t_end < stall[1]
        if not stalled:
            service_acc += service_hz * step_s
            n_serve = int(service_acc)
            if n_serve:
                service_acc -= n_serve
                consume(engine.pump(n_serve, now_s=t_end), t_end)
        peak_severity = max(peak_severity, engine.mode.severity)
    # Shutdown flush: everything still pending is served (or shed by its
    # deadline) so the ledger closes with zero pending frames.
    consume(engine.flush(), duration_s)
    peak_severity = max(peak_severity, engine.mode.severity)

    # One observer sees every link, so it reconciles against the total.
    ledger = observer.ledger()
    stats = {link_id: engine.link_stats(link_id) for link_id in engine.link_ids}
    combined = total(stats.values())
    ledger_ok = ledger["unaccounted"] == 0 and ledger["pending"] == 0
    counters_ok = not mismatches(combined, ledger)
    shed = _shed_by_cause(combined)
    rate_limited = {link_id: s["rate_limited"] for link_id, s in stats.items()}
    return ArmReport(
        name=name,
        arrivals=dict(traffic.per_tenant),
        answered=answered,
        shed_by_cause=shed,
        goodput_hz={t: n / duration_s for t, n in answered.items()},
        latency_ms={t: _percentiles(s) for t, s in latencies.items()},
        ledger_reconciled=ledger_ok,
        counters_reconciled=counters_ok,
        deadline_violations=deadline_violations,
        rate_limited=rate_limited,
        governor=None if engine.governor is None else engine.governor.snapshot(),
        peak_severity=peak_severity,
        final_severity=engine.mode.severity,
    )


def _run_fleet_arm(
    traffic: OverloadTraffic,
    config: ServeConfig,
    plan: InferencePlan,
    *,
    duration_s: float,
    step_s: float,
) -> ArmReport:
    """Replay the schedule against the tick-driven fleet surface."""
    from ..fleet.service import Fleet  # deferred: keep bench importable alone

    observers: dict[str, Observer] = {}
    pending_ids = list(traffic.per_tenant)

    def observer_factory() -> Observer:
        observer = Observer(label=pending_ids[len(observers)])
        observers[observer.label] = observer
        return observer

    fleet = Fleet(config, observer_factory=observer_factory)
    for tenant in traffic.per_tenant:
        fleet.attach(tenant, plan)

    budget_s = fleet.deadline_s
    answered = dict.fromkeys(traffic.per_tenant, 0)
    latencies: dict[str, list[float]] = {t: [] for t in traffic.per_tenant}
    deadline_violations = 0
    arrival_i = 0
    arrivals = traffic.arrivals

    def consume(results, now: float) -> None:
        nonlocal deadline_violations
        for result in results:
            answered[result.tenant_id] += 1
            latencies[result.tenant_id].append(1000.0 * (now - result.t_s))
        try:
            check_served_within_deadline(results, now, budget_s)
        except DeadlineError:
            deadline_violations += sum(
                1 for r in results if budget_s is not None and now - r.t_s > budget_s
            )

    for step in range(int(round(duration_s / step_s))):
        t_end = (step + 1) * step_s
        while arrival_i < len(arrivals) and arrivals[arrival_i][0] < t_end:
            t, tenant, row_i = arrivals[arrival_i]
            fleet.submit(tenant, t, traffic.rows[row_i])
            arrival_i += 1
        consume(fleet.tick(t_end), t_end)
    consume(fleet.flush(), duration_s)

    stats = {tenant: fleet.counters(tenant) for tenant in traffic.per_tenant}
    ledgers = {tenant: fleet.ledger(tenant) for tenant in stats}
    ledger_ok = not any(
        ledger["unaccounted"] or ledger["pending"] for ledger in ledgers.values()
    )
    counters_ok = not any(mismatches(stats[t], ledgers[t]) for t in stats)
    shed = _shed_by_cause(total(stats.values()))
    rate_limited = {tenant: s["rate_limited"] for tenant, s in stats.items()}
    return ArmReport(
        name="fleet",
        arrivals=dict(traffic.per_tenant),
        answered=answered,
        shed_by_cause=shed,
        goodput_hz={t: n / duration_s for t, n in answered.items()},
        latency_ms={t: _percentiles(s) for t, s in latencies.items()},
        ledger_reconciled=ledger_ok,
        counters_reconciled=counters_ok,
        deadline_violations=deadline_violations,
        rate_limited=rate_limited,
        governor=None if fleet.governor is None else fleet.governor.snapshot(),
        peak_severity=0 if fleet.governor is None else fleet.mode.severity,
        final_severity=0 if fleet.governor is None else fleet.mode.severity,
    )


@dataclass
class OverloadBenchReport:
    """Everything one overload-bench run measured, plus its gate verdicts."""

    duration_s: float
    n_cold: int
    cold_hz: float
    hot_base_hz: float
    hot_burst_hz: float
    reserved_hz: float
    service_hz: float
    deadline_ms: float
    skew: float
    seed: int
    quick: bool
    unprotected: ArmReport
    protected: ArmReport
    governed: ArmReport
    fleet: ArmReport
    fairness_ok: bool = True
    fairness_detail: dict = field(default_factory=dict)

    # ----------------------------------------------------------------- gates

    @property
    def reconciled(self) -> bool:
        """Every arm's ledger balances and agrees with surface tallies."""
        return all(
            arm.ledger_reconciled and arm.counters_reconciled for arm in self._arms()
        )

    @property
    def deadline_honest(self) -> bool:
        """No arm ever served a frame past its deadline budget."""
        return all(arm.deadline_violations == 0 for arm in self._arms())

    @property
    def ladder_walked(self) -> bool:
        """The governed arm escalated, probed recovery, and stepped down."""
        snap = self.governed.governor
        return (
            snap is not None
            and snap["escalations"] >= 1
            and snap["probes"] >= 1
            and self.governed.peak_severity >= 1
            and self.governed.final_severity < self.governed.peak_severity
        )

    @property
    def passed(self) -> bool:
        return (
            self.reconciled
            and self.deadline_honest
            and self.fairness_ok
            and self.ladder_walked
        )

    def _arms(self) -> tuple[ArmReport, ...]:
        return (self.unprotected, self.protected, self.governed, self.fleet)

    # ---------------------------------------------------------------- output

    def describe(self) -> str:
        hot = "hot"

        def goodput(arm: ArmReport) -> str:
            cold = sum(v for t, v in arm.answered.items() if t != hot)
            return (
                f"hot {arm.answered.get(hot, 0):5d}/{arm.arrivals.get(hot, 0)}"
                f"  cold {cold:5d}/{sum(v for t, v in arm.arrivals.items() if t != hot)}"
            )

        def sheds(arm: ArmReport) -> str:
            parts = [f"{k}={v}" for k, v in arm.shed_by_cause.items() if v]
            return ", ".join(parts) if parts else "none"

        lines = [
            f"traffic             : 1 hot + {self.n_cold} cold tenants, "
            f"{self.skew:g}:1 burst skew, {self.duration_s:g} s @ seed {self.seed}"
            + (" (quick)" if self.quick else ""),
            f"policy              : reserved {self.reserved_hz:g} Hz/tenant, "
            f"deadline {self.deadline_ms:g} ms, service {self.service_hz:g} fps",
        ]
        for arm in self._arms():
            gov = ""
            if arm.governor is not None:
                gov = (
                    f", governor {arm.governor['mode']} "
                    f"({arm.governor['escalations']} esc/"
                    f"{arm.governor['probes']} probes)"
                )
            lines.append(f"--- {arm.name}")
            lines.append(f"  served            : {goodput(arm)}")
            lines.append(f"  shed breakdown    : {sheds(arm)}{gov}")
            p99s = [v["p99_ms"] for v in arm.latency_ms.values() if v["p99_ms"] == v["p99_ms"]]
            if p99s:
                lines.append(f"  worst tenant p99  : {max(p99s):.0f} ms (stream time)")
        lines += [
            f"ledger reconciliation: {'OK' if self.reconciled else 'FAILED'}",
            f"deadline honesty     : {'OK' if self.deadline_honest else 'FAILED'}",
            f"fairness (reserved)  : {'OK' if self.fairness_ok else 'FAILED'}",
            f"degradation ladder   : {'OK' if self.ladder_walked else 'FAILED'}",
            f"overall              : {'PASSED' if self.passed else 'FAILED'}",
        ]
        return "\n".join(lines)

    def to_json(self) -> dict:
        """JSON payload for ``BENCH_overload.json`` (CLI adds the envelope)."""

        def arm_json(arm: ArmReport) -> dict:
            return {
                "arrivals": arm.arrivals,
                "answered": arm.answered,
                "shed_by_cause": arm.shed_by_cause,
                "goodput_hz": arm.goodput_hz,
                "latency_ms": arm.latency_ms,
                "rate_limited": arm.rate_limited,
                "ledger_reconciled": arm.ledger_reconciled,
                "counters_reconciled": arm.counters_reconciled,
                "deadline_violations": arm.deadline_violations,
                "governor": arm.governor,
                "peak_severity": arm.peak_severity,
                "final_severity": arm.final_severity,
            }

        return {
            "bench": "overload-bench",
            "traffic": {
                "duration_s": self.duration_s,
                "n_cold": self.n_cold,
                "cold_hz": self.cold_hz,
                "hot_base_hz": self.hot_base_hz,
                "hot_burst_hz": self.hot_burst_hz,
                "skew": self.skew,
            },
            "policy": {
                "reserved_hz": self.reserved_hz,
                "service_hz": self.service_hz,
                "deadline_ms": self.deadline_ms,
            },
            "arms": {arm.name: arm_json(arm) for arm in self._arms()},
            "gates": {
                "ledger_reconciled": self.reconciled,
                "deadline_honest": self.deadline_honest,
                "fairness_ok": self.fairness_ok,
                "ladder_walked": self.ladder_walked,
                "passed": self.passed,
            },
            "fairness": self.fairness_detail,
        }


def _check_fairness(
    traffic: OverloadTraffic, arms: list[ArmReport]
) -> tuple[bool, dict]:
    """The reserved-rate invariant on every protected arm.

    A cold tenant arriving under its reserved rate must be admitted and
    answered in full — zero refusals, zero losses — no matter what the
    hot tenant does; the hot tenant's burst excess must show up as typed
    ``rate_limited`` refusals rather than anyone else's missing frames.
    """
    ok = True
    detail: dict = {}
    for arm in arms:
        cold_fair = all(
            arm.rate_limited[tenant] == 0
            and arm.answered[tenant] == arm.arrivals[tenant]
            for tenant in traffic.cold_tenants
        )
        hot_limited = arm.rate_limited[traffic.hot_tenant]
        detail[arm.name] = {
            "cold_fair": cold_fair,
            "hot_rate_limited": hot_limited,
        }
        if not cold_fair or hot_limited == 0:
            ok = False
    return ok, detail


def run_overload_bench(
    *,
    duration_s: float = 120.0,
    step_s: float = 0.05,
    n_cold: int = 3,
    cold_hz: float = 5.0,
    hot_base_hz: float = 5.0,
    skew: float = 10.0,
    burst_period_s: float = 20.0,
    burst_duty: float = 0.5,
    reserved_hz: float = 8.0,
    burst_credit: float = 16.0,
    service_hz: float = 30.0,
    deadline_ms: float = 2000.0,
    queue_capacity: int = 64,
    queue_credit: int = 32,
    max_batch: int = 16,
    stall_s: float = 10.0,
    n_inputs: int = 16,
    seed: int = DEFAULT_SEED,
    quick: bool = False,
) -> OverloadBenchReport:
    """Run the full overload benchmark; see the module docstring.

    ``quick`` shrinks the run to a third of the duration for CI smoke
    runs while keeping every gate — all four invariants are exact,
    scale-independent properties of the stream-time replay.
    """
    if duration_s <= 0 or step_s <= 0 or duration_s < 4 * burst_period_s:
        raise ConfigurationError(
            "need duration_s >= 4 burst periods and positive step_s"
        )
    if n_cold < 1:
        raise ConfigurationError("n_cold must be >= 1")
    if not cold_hz < reserved_hz:
        raise ConfigurationError(
            "fairness gate needs cold_hz < reserved_hz (cold tenants must "
            "arrive under their reserved rate)"
        )
    if service_hz <= n_cold * cold_hz + reserved_hz:
        raise ConfigurationError(
            "protected arm needs service_hz above the reserved admission "
            f"load ({n_cold * cold_hz + reserved_hz:g} fps)"
        )
    if quick:
        duration_s = min(duration_s, 80.0)
        stall_s = min(stall_s, 8.0)

    traffic = make_traffic(
        duration_s=duration_s,
        step_s=step_s,
        n_cold=n_cold,
        cold_hz=cold_hz,
        hot_base_hz=hot_base_hz,
        hot_burst_hz=skew * cold_hz,
        burst_period_s=burst_period_s,
        burst_duty=burst_duty,
        n_inputs=n_inputs,
        seed=seed,
    )
    rng = np.random.default_rng(seed)
    plan = InferencePlan.from_model(
        Sequential(
            Linear(n_inputs, 16, rng=rng), ReLU(), Linear(16, 1, rng=rng)
        )
    )

    def base_config(**overrides) -> ServeConfig:
        return ServeConfig(
            max_batch=max_batch,
            max_latency_ms=None,
            queue_capacity=queue_capacity,
            auto_flush=False,
            observer=Observer(),
            **overrides,
        )

    protected_knobs = dict(
        rate_limit_hz=reserved_hz,
        rate_limit_burst=burst_credit,
        deadline_ms=deadline_ms,
        queue_credit=queue_credit,
        overload=OverloadPolicy(seed=seed),
    )

    unprotected = _run_engine_arm(
        "unprotected", traffic, base_config(), plan,
        duration_s=duration_s, step_s=step_s, service_hz=service_hz,
    )
    protected = _run_engine_arm(
        "protected", traffic, base_config(**protected_knobs), plan,
        duration_s=duration_s, step_s=step_s, service_hz=service_hz,
    )
    stall_at = round(0.35 * duration_s / burst_period_s) * burst_period_s
    governed = _run_engine_arm(
        "governed", traffic, base_config(**protected_knobs), plan,
        duration_s=duration_s, step_s=step_s, service_hz=service_hz,
        stall=(stall_at, stall_at + stall_s),
    )
    fleet = _run_fleet_arm(
        traffic,
        # Tick-driven service has no pump; auto_flush is irrelevant there.
        base_config(**protected_knobs).with_overrides(observer=None),
        plan,
        duration_s=duration_s,
        step_s=step_s,
    )

    fairness_ok, fairness_detail = _check_fairness(traffic, [protected, fleet])
    return OverloadBenchReport(
        duration_s=duration_s,
        n_cold=n_cold,
        cold_hz=cold_hz,
        hot_base_hz=hot_base_hz,
        hot_burst_hz=skew * cold_hz,
        reserved_hz=reserved_hz,
        service_hz=service_hz,
        deadline_ms=deadline_ms,
        skew=skew,
        seed=seed,
        quick=quick,
        unprotected=unprotected,
        protected=protected,
        governed=governed,
        fleet=fleet,
        fairness_ok=fairness_ok,
        fairness_detail=fairness_detail,
    )
