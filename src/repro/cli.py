"""Command-line interface.

``python -m repro <command>`` exposes the library's main workflows:

* ``generate`` — simulate a campaign and save it (NPZ or Table I CSV);
* ``profile`` — the Section V-A profiling report of a saved campaign;
* ``folds`` — print the Table III fold table of a saved campaign;
* ``table4`` — train/evaluate the occupancy grid on a saved campaign;
* ``table5`` — the linear-vs-neural T/H regression comparison;
* ``footprint`` — quantize the paper MLP and print the Nucleo budget;
* ``serve-bench`` — per-frame vs. micro-batched serving throughput;
* ``perf-bench`` — fastpath (frozen-plan) vs. tensor-path inference
  latency/throughput, with a hard numerical-equivalence gate and a
  JSON report (``BENCH_serve.json``) for CI;
* ``chaos-bench`` — accuracy-under-fault across the chaos scenario suite;
* ``guard-bench`` — the self-healing ablation: chaos suite with the
  guard stack off vs on, plus an exact frame-ledger reconciliation;
* ``fleet-bench`` — multi-tenant fused vs per-tenant serving with the
  byte-identity gate (``BENCH_fleet.json``);
* ``rollout-bench`` — a simulated mid-run room shift driven through the
  drift→retrain→shadow→hot-swap loop, gated on zero dropped frames and
  exact ledger reconciliation (``BENCH_rollout.json``);
* ``overload-bench`` — bursty 10:1 hot-tenant traffic against
  unprotected / rate-limited / governor-degraded / fleet arms, gated on
  exact shed-cause reconciliation, deadline honesty, reserved-rate
  fairness and the degradation ladder (``BENCH_overload.json``);
* ``obs-report`` — render a trace dump (``--trace-dump`` on the bench
  commands) back into per-stage latency tables and the event-log tail.

Every command is a thin shell over the public API, so scripts and
notebooks can do the same with imports.  The seven ``*-bench`` commands
share one argparse parent (:func:`repro.benchkit.bench_parent`) so
``--seed``/``--rate``/``--output``/``--quick`` are spelled and defaulted
identically everywhere, and a ``--output *.json`` always gets the common
report envelope (:func:`repro.benchkit.make_envelope`).
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

from . import benchkit
from .benchkit import DEFAULT_RATE_HZ, DEFAULT_SEED
from .config import CampaignConfig, TrainingConfig
from .core.experiment import OccupancyExperiment, RegressionExperiment
from .core.model_zoo import build_paper_mlp
from .data.folds import make_paper_folds
from .data.io import load_npz, save_csv, save_npz
from .data.recording import CollectionCampaign
from .deploy.footprint import estimate_footprint
from .deploy.timing import cortex_m4_latency_ms
from .fastpath.plan import InferencePlan

#: Epilog appended to every subcommand that takes the common flags.
COMMON_FLAGS_EPILOG = """\
common flags (spelled and defaulted identically across subcommands):
  --seed N      RNG seed (default 2022)
  --rate HZ     sample rate in rows per second (default 0.5)
  --output PATH where to write this command's artifact
                (bench commands: .json gets the enveloped JSON report)
  --quick       bench commands only: CI smoke mode — shrink the
                workload, keep every gate/assertion
"""


def _format_rows(rows: list[dict[str, object]]) -> str:
    if not rows:
        return ""
    columns = list(rows[0])
    widths = {c: max(len(str(c)), *(len(str(r.get(c, ""))) for r in rows)) for c in columns}
    lines = ["  ".join(str(c).ljust(widths[c]) for c in columns)]
    for row in rows:
        lines.append("  ".join(str(row.get(c, "")).ljust(widths[c]) for c in columns))
    return "\n".join(lines)


def _emit(text: str, output: str | None) -> None:
    """Print ``text`` and, when ``--output`` was given, also write it there."""
    print(text)
    if output:
        Path(output).write_text(text + "\n")
        print(f"(written to {output})")


def _emit_bench_report(
    report, args: argparse.Namespace, bench: str, wall_clock_s: float | None = None
) -> None:
    """Print a bench report; ``--output *.json`` gets the enveloped form.

    Every bench command funnels through here so the JSON artifacts all
    carry the same envelope (schema version, git describe, wall clock)
    around the report's own ``to_json()`` payload.
    """
    print(report.describe())
    if not args.output:
        return
    if str(args.output).endswith(".json"):
        envelope = benchkit.make_envelope(
            bench,
            seed=getattr(args, "seed", None),
            quick=getattr(args, "quick", False),
            wall_clock_s=wall_clock_s,
        )
        path = benchkit.save_report(args.output, report.to_json(), envelope)
        print(f"(JSON report written to {path})")
    else:
        Path(args.output).write_text(report.describe() + "\n")
        print(f"(written to {args.output})")


def cmd_generate(args: argparse.Namespace) -> int:
    config = CampaignConfig(
        duration_h=args.hours, sample_rate_hz=args.rate, seed=args.seed
    )
    print(f"Simulating {config.duration_h} h at {config.sample_rate_hz} Hz "
          f"({config.n_samples} rows, seed {config.seed})...")
    dataset = CollectionCampaign(config).run(progress_every=20_000)
    path = Path(args.output)
    if path.suffix == ".csv":
        save_csv(dataset, path)
    else:
        save_npz(dataset, path)
    balance = dataset.class_balance()
    print(f"Saved {len(dataset)} rows to {path} "
          f"({balance['empty']:.0%} empty / {balance['occupied']:.0%} occupied)")
    return 0


def cmd_profile(args: argparse.Namespace) -> int:
    from .analysis.profiling import profile_dataset

    dataset = load_npz(args.dataset)
    profile = profile_dataset(dataset)
    print(f"rows: {profile.n_rows}, duplicates: {profile.n_duplicate_timestamps}, "
          f"non-finite: {profile.n_non_finite}")
    print(f"empty {profile.empty_fraction:.1%} / occupied {profile.occupied_fraction:.1%}")
    print(f"occupant distribution: {profile.occupant_distribution}")
    print(f"corr(T, H) = {profile.corr_temperature_humidity:+.2f}, "
          f"corr(T, occ) = {profile.corr_temperature_occupancy:+.2f}, "
          f"corr(H, occ) = {profile.corr_humidity_occupancy:+.2f}, "
          f"corr(time, env) = {profile.corr_time_environment():+.2f}")
    for name, result in profile.adf.items():
        print(f"ADF {name:>12}: stat {result.statistic:8.2f}  p {result.p_value:.3f}  "
              f"{'stationary' if result.is_stationary else 'NON-stationary'}")
    return 0


def cmd_folds(args: argparse.Namespace) -> int:
    dataset = load_npz(args.dataset)
    split = make_paper_folds(dataset)
    print(_format_rows([dict(f.describe()) for f in split.all_folds]))
    return 0


def _training_from_args(args: argparse.Namespace) -> TrainingConfig:
    return TrainingConfig(epochs=args.epochs, seed=args.seed)


def cmd_table4(args: argparse.Namespace) -> int:
    dataset = load_npz(args.dataset)
    split = make_paper_folds(dataset)
    experiment = OccupancyExperiment(
        split, training=_training_from_args(args), max_train_rows=args.max_train_rows
    )
    result = experiment.run(verbose=True)
    _emit(_format_rows(result.rows()), args.output)
    return 0


def cmd_table5(args: argparse.Namespace) -> int:
    dataset = load_npz(args.dataset)
    split = make_paper_folds(dataset)
    experiment = RegressionExperiment(
        split, training=_training_from_args(args), max_train_rows=args.max_train_rows
    )
    result = experiment.run()
    _emit(_format_rows(result.rows()), args.output)
    return 0


def cmd_footprint(args: argparse.Namespace) -> int:
    model = build_paper_mlp(args.inputs)
    plan = InferencePlan.from_model(model, quantize="int8")
    report = estimate_footprint(plan)
    print(f"parameters: {model.n_parameters():,}")
    print(report.describe())
    print(f"Cortex-M4 latency model: {cortex_m4_latency_ms(plan):.2f} ms/sample")
    return 0


def cmd_serve_bench(args: argparse.Namespace) -> int:
    from .baselines.pipeline import ScaledLogistic
    from .core.detector import OccupancyDetector
    from .serve.bench import run_serve_bench
    from .serve.robustness import PriorFallback

    # Fail on bad knobs before paying for simulation + training.
    if args.links < 1:
        print("serve-bench: --links must be >= 1", file=sys.stderr)
        return 2
    if args.max_batch < 1:
        print("serve-bench: --max-batch must be >= 1", file=sys.stderr)
        return 2
    if args.quick:
        args.hours = min(args.hours, 0.5)
        args.epochs = min(args.epochs, 1)

    config = CampaignConfig(
        duration_h=args.hours, sample_rate_hz=args.rate, seed=args.seed
    )
    print(f"Simulating {config.duration_h} h at {config.sample_rate_hz} Hz "
          f"({config.n_samples} rows, seed {config.seed})...")
    dataset = CollectionCampaign(config).run()
    split = make_paper_folds(dataset)
    train = split.train.data

    if args.model == "mlp":
        estimator = OccupancyDetector(
            dataset.n_subcarriers, TrainingConfig(epochs=args.epochs, seed=args.seed)
        )
    else:
        estimator = ScaledLogistic()
    print(f"Training the {args.model} estimator on fold 0 ({len(train)} rows)...")
    estimator.fit(train.csi, train.occupancy)

    fallback = PriorFallback().fit(train.csi, train.occupancy)
    print(f"Replaying {len(dataset)} frames over {args.links} link(s)...\n")
    bench_start = time.perf_counter()
    report = run_serve_bench(
        estimator,
        dataset,
        n_links=args.links,
        max_batch=args.max_batch,
        max_latency_ms=args.max_latency_ms if args.max_latency_ms > 0 else None,
        fallback=fallback,
    )
    _emit_bench_report(
        report, args, "serve-bench", wall_clock_s=time.perf_counter() - bench_start
    )
    return 0


def cmd_perf_bench(args: argparse.Namespace) -> int:
    from .fastpath import run_perf_bench

    if args.inputs < 1:
        print("perf-bench: --inputs must be >= 1", file=sys.stderr)
        return 2
    mode = "quick (CI smoke)" if args.quick else "full"
    print(f"Benchmarking the {args.inputs}-input paper MLP, fastpath vs "
          f"tensor path ({mode}, seed {args.seed})...\n")
    bench_start = time.perf_counter()
    report = run_perf_bench(n_inputs=args.inputs, seed=args.seed, quick=args.quick)
    wall_clock_s = time.perf_counter() - bench_start
    print(report.describe())
    if args.output:
        envelope = benchkit.make_envelope(
            "perf-bench", seed=args.seed, quick=args.quick, wall_clock_s=wall_clock_s
        )
        path = benchkit.save_report(args.output, report.to_json(), envelope)
        print(f"(JSON report written to {path})")
    # Exit code gates deterministic invariants only (never wall-clock
    # speed): tensor/fastpath equivalence, quantized accuracy deltas,
    # and exact frame-ledger reconciliation under saturation.
    if not report.equivalent:
        print(f"perf-bench: fastpath DIVERGED from the tensor path "
              f"(max |dp| = {report.max_divergence:.3g} > "
              f"tolerance {report.tolerance:g})", file=sys.stderr)
        return 1
    if not report.quantized_ok:
        failed = [row.mode for row in report.quantized if not row.ok]
        print(f"perf-bench: quantized plan(s) {failed} exceeded the "
              f"accuracy-delta gate vs float32", file=sys.stderr)
        return 1
    if not report.saturated_ok:
        print("perf-bench: saturated arm failed frame-ledger "
              "reconciliation", file=sys.stderr)
        return 1
    return 0


def _observer_factory(trace_dump: str | None):
    """``name -> Observer`` factory when ``--trace-dump`` was given, else None."""
    if not trace_dump:
        return None
    from .obs import Observer

    return lambda name: Observer(label=name)


def _write_trace_dump(trace_dump: str | None, observers: dict) -> None:
    if not trace_dump:
        return
    from .obs import write_dump

    path = write_dump(trace_dump, observers)
    print(f"(trace dump written to {path}; render with `python -m repro obs-report {path}`)")


def cmd_obs_report(args: argparse.Namespace) -> int:
    from .exceptions import SerializationError
    from .obs import load_dump, render_report

    try:
        dump = load_dump(args.dump)
    except SerializationError as error:
        print(f"obs-report: {error}", file=sys.stderr)
        return 2
    if args.prom:
        blocks = [
            run["prometheus"] for run in dump.get("runs", []) if run.get("prometheus")
        ]
        if not blocks:
            print("obs-report: dump carries no Prometheus exposition "
                  "(run was not registry-bound)", file=sys.stderr)
            return 1
        _emit("\n".join(blocks).rstrip("\n"), args.output)
        return 0
    _emit(render_report(dump, events_tail=args.events), args.output)
    return 0


def cmd_chaos_bench(args: argparse.Namespace) -> int:
    from .baselines.pipeline import ScaledLogistic
    from .core.detector import OccupancyDetector
    from .faults.bench import default_scenario_suite, run_chaos_bench
    from .serve.robustness import PriorFallback

    if args.links < 1:
        print("chaos-bench: --links must be >= 1", file=sys.stderr)
        return 2
    if args.max_batch < 1:
        print("chaos-bench: --max-batch must be >= 1", file=sys.stderr)
        return 2
    if args.quick:
        args.hours = min(args.hours, 0.5)
        args.epochs = min(args.epochs, 1)

    config = CampaignConfig(
        duration_h=args.hours, sample_rate_hz=args.rate, seed=args.seed
    )
    print(f"Simulating {config.duration_h} h at {config.sample_rate_hz} Hz "
          f"({config.n_samples} rows, seed {config.seed})...")
    dataset = CollectionCampaign(config).run()
    split = make_paper_folds(dataset)
    train = split.train.data

    if args.model == "mlp":
        estimator = OccupancyDetector(
            dataset.n_subcarriers, TrainingConfig(epochs=args.epochs, seed=args.seed)
        )
    else:
        estimator = ScaledLogistic()
    print(f"Training the {args.model} estimator on fold 0 ({len(train)} rows)...")
    estimator.fit(train.csi, train.occupancy)
    fallback = PriorFallback().fit(train.csi, train.occupancy)

    t = dataset.timestamps_s
    scenarios = default_scenario_suite(
        float(t[0]), float(t[-1]), n_csi=dataset.n_subcarriers
    )
    if args.scenario:
        known = {s.name for s in scenarios}
        unknown = [name for name in args.scenario if name not in known]
        if unknown:
            print(f"chaos-bench: unknown scenario(s) {unknown}; "
                  f"choose from {sorted(known)}", file=sys.stderr)
            return 2
        scenarios = [s for s in scenarios if s.name in args.scenario]
    print(f"Replaying {len(dataset)} frames over {args.links} link(s) "
          f"through {len(scenarios)} scenario(s)...\n")
    bench_start = time.perf_counter()
    report = run_chaos_bench(
        estimator,
        dataset,
        scenarios,
        n_links=args.links,
        max_batch=args.max_batch,
        seed=args.seed,
        fallback=fallback,
        observer_factory=_observer_factory(args.trace_dump),
    )
    _emit_bench_report(
        report, args, "chaos-bench", wall_clock_s=time.perf_counter() - bench_start
    )
    _write_trace_dump(args.trace_dump, report.observers)
    return 0


def cmd_guard_bench(args: argparse.Namespace) -> int:
    import numpy as np

    from .baselines.pipeline import ScaledLogistic
    from .guard import GuardPolicy, ReferenceStats, run_guard_bench
    from .serve.robustness import PriorFallback

    if args.links < 1:
        print("guard-bench: --links must be >= 1", file=sys.stderr)
        return 2
    if args.max_batch < 1:
        print("guard-bench: --max-batch must be >= 1", file=sys.stderr)
        return 2
    if args.quick:
        args.hours = min(args.hours, 0.5)

    config = CampaignConfig(
        duration_h=args.hours, sample_rate_hz=args.rate, seed=args.seed
    )
    print(f"Simulating {config.duration_h} h at {config.sample_rate_hz} Hz "
          f"({config.n_samples} rows, seed {config.seed})...")
    dataset = CollectionCampaign(config).run()
    split = make_paper_folds(dataset)
    train = split.train.data

    # The guarded replay carries the T/H columns, so train on CSI + env.
    features = np.hstack([train.csi, train.environment])
    estimator = ScaledLogistic()
    print(f"Training the estimator on fold 0 ({len(train)} rows, CSI+env)...")
    estimator.fit(features, train.occupancy)
    fallback = PriorFallback().fit(features, train.occupancy)

    reference = ReferenceStats.fit(features)
    if args.stats:
        path = reference.save(args.stats)
        print(f"Reference statistics written to {path}")
    n_csi = dataset.n_subcarriers
    policy = GuardPolicy(
        reference=reference,
        n_features=n_csi + 2,
        env_slice=slice(n_csi, n_csi + 2),
        seed=args.seed,
    )
    print(f"Replaying {len(dataset)} frames over {args.links} link(s), "
          f"guard off then on...\n")
    bench_start = time.perf_counter()
    report = run_guard_bench(
        estimator,
        dataset,
        policy,
        n_links=args.links,
        max_batch=args.max_batch,
        seed=args.seed,
        fallback=fallback,
        observer_factory=_observer_factory(args.trace_dump),
    )
    _emit_bench_report(
        report, args, "guard-bench", wall_clock_s=time.perf_counter() - bench_start
    )
    _write_trace_dump(args.trace_dump, report.guarded.observers)
    if report.unaccounted_total:
        print(f"guard-bench: {report.unaccounted_total} unaccounted frames",
              file=sys.stderr)
        return 1
    return 0


def cmd_fleet_bench(args: argparse.Namespace) -> int:
    from .fleet.bench import run_fleet_bench

    if args.tenants < 1:
        print("fleet-bench: --tenants must be >= 1", file=sys.stderr)
        return 2
    if args.frames < 1:
        print("fleet-bench: --frames must be >= 1", file=sys.stderr)
        return 2
    if args.rate <= 0:
        print("fleet-bench: --rate must be positive", file=sys.stderr)
        return 2
    if args.churn_ticks < 0:
        print("fleet-bench: --churn-ticks must be >= 0", file=sys.stderr)
        return 2

    mode = "quick (CI smoke)" if args.quick else "full"
    print(f"Fleet bench: {args.tenants} tenant(s) x {args.frames} frames, "
          f"fused vs per-tenant dispatch ({mode}, seed {args.seed})...\n")
    bench_start = time.perf_counter()
    report = run_fleet_bench(
        n_tenants=args.tenants,
        frames_per_tenant=args.frames,
        frames_per_tick=args.frames_per_tick,
        rate_hz=args.rate,
        tile=args.tile,
        distinct_every=args.distinct_every,
        seed=args.seed,
        quick=args.quick,
        churn_ticks=args.churn_ticks,
    )
    _emit_bench_report(
        report, args, "fleet-bench", wall_clock_s=time.perf_counter() - bench_start
    )
    # CI gates on the deterministic invariants only — byte identity and
    # exact ledger/counter reconciliation — never on throughput numbers.
    failed = []
    if not report.byte_identical:
        failed.append("fused outputs DIVERGED from per-tenant dispatch")
    if not report.ledger_reconciled:
        failed.append("observer ledgers do not reconcile")
    if not report.counters_reconciled:
        failed.append("per-tenant counter rollups do not reconcile")
    if report.churn is not None:
        if not report.churn.byte_identical:
            failed.append("churn arm: fused outputs DIVERGED under tenant churn")
        if not report.churn.ledger_reconciled:
            failed.append("churn arm: per-tenant ledgers do not reconcile")
        if not report.churn.drain_exact:
            failed.append("churn arm: a detach drain did not reconcile "
                          "(drained != served + shed)")
        if report.churn.post_detach_serves:
            failed.append(f"churn arm: {report.churn.post_detach_serves} "
                          f"frame(s) served after their tenant detached")
    if failed:
        for reason in failed:
            print(f"fleet-bench: {reason}", file=sys.stderr)
        return 1
    return 0


def cmd_rollout_bench(args: argparse.Namespace) -> int:
    from .rollout.bench import run_rollout_bench

    if args.stream_frames < 64:
        print("rollout-bench: --stream-frames must be >= 64", file=sys.stderr)
        return 2
    if not 16 <= args.shift_at < args.stream_frames:
        print("rollout-bench: --shift-at must lie in [16, --stream-frames)",
              file=sys.stderr)
        return 2

    mode = "quick (CI smoke)" if args.quick else "full"
    print(f"Rollout bench: {args.stream_frames} streamed frames, room shift "
          f"at frame {args.shift_at}, healthy vs forced-bad challenger "
          f"({mode}, seed {args.seed})...\n")
    bench_start = time.perf_counter()
    report = run_rollout_bench(
        n_stream=args.stream_frames,
        shift_at=args.shift_at,
        train_epochs=args.epochs,
        seed=args.seed,
        quick=args.quick,
    )
    _emit_bench_report(
        report, args, "rollout-bench", wall_clock_s=time.perf_counter() - bench_start
    )
    # CI gates on the deterministic invariants only — zero drops, exact
    # champion/challenger ledger reconciliation, and the two arms'
    # verdicts — never on timing or accuracy numbers.
    failed = []
    if not report.zero_drops:
        failed.append(
            f"frames were dropped (healthy {report.healthy.dropped_frames}, "
            f"forced-bad {report.forced_bad.dropped_frames}); the hot-swap "
            "path must not lose frames"
        )
    if not report.ledgers_reconciled:
        failed.append("champion/challenger ledgers do not reconcile exactly")
    if not report.healthy_promoted:
        failed.append("the healthy challenger was not promoted")
    if not report.bad_never_promoted:
        failed.append("the forced-bad challenger was not stopped")
    if failed:
        for reason in failed:
            print(f"rollout-bench: {reason}", file=sys.stderr)
        return 1
    return 0


def cmd_overload_bench(args: argparse.Namespace) -> int:
    from .overload.bench import run_overload_bench

    if args.cold_tenants < 1:
        print("overload-bench: --cold-tenants must be >= 1", file=sys.stderr)
        return 2
    if args.skew <= 1:
        print("overload-bench: --skew must be > 1", file=sys.stderr)
        return 2

    mode = "quick (CI smoke)" if args.quick else "full"
    print(f"Overload bench: 1 hot + {args.cold_tenants} cold tenant(s), "
          f"{args.skew:g}:1 burst skew, unprotected vs rate-limited vs "
          f"governor-degraded vs fleet ({mode}, seed {args.seed})...\n")
    bench_start = time.perf_counter()
    report = run_overload_bench(
        duration_s=args.duration,
        n_cold=args.cold_tenants,
        skew=args.skew,
        reserved_hz=args.reserved_hz,
        deadline_ms=args.deadline_ms,
        service_hz=args.service_hz,
        seed=args.seed,
        quick=args.quick,
    )
    _emit_bench_report(
        report, args, "overload-bench", wall_clock_s=time.perf_counter() - bench_start
    )
    # CI gates on the deterministic invariants only — ledger/shed-cause
    # reconciliation, deadline honesty, reserved-rate fairness and the
    # ladder walk — never on goodput or latency numbers.
    failed = []
    if not report.reconciled:
        failed.append("shed-cause ledgers do not reconcile exactly")
    if not report.deadline_honest:
        failed.append("a frame was served past its deadline budget")
    if not report.fairness_ok:
        failed.append("a cold tenant under its reserved rate lost frames "
                      "to the hot tenant's bursts")
    if not report.ladder_walked:
        failed.append("the governed arm did not walk the degradation ladder "
                      "(escalate, probe, recover)")
    if failed:
        for reason in failed:
            print(f"overload-bench: {reason}", file=sys.stderr)
        return 1
    return 0


def _add_seed(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"RNG seed (default {DEFAULT_SEED})")


def _add_rate(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--rate", type=float, default=DEFAULT_RATE_HZ,
                        help=f"rows per second (default {DEFAULT_RATE_HZ})")


def _add_output(parser: argparse.ArgumentParser, default: str | None, help_text: str) -> None:
    parser.add_argument("--output", default=default, help=help_text)


def _add_trace_dump(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--trace-dump", metavar="PATH", default=None,
                        help="trace the replay and write an obs dump here "
                             "(render with `repro obs-report PATH`)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="WiFi-CSI occupancy detection (DATE 2023 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_command(name: str, help_text: str, **kwargs) -> argparse.ArgumentParser:
        return sub.add_parser(
            name,
            help=help_text,
            epilog=COMMON_FLAGS_EPILOG,
            formatter_class=argparse.RawDescriptionHelpFormatter,
            **kwargs,
        )

    def add_bench(
        name: str,
        help_text: str,
        *,
        output_default: str | None = None,
        output_help: str | None = None,
    ) -> argparse.ArgumentParser:
        """A bench subcommand riding the shared --seed/--rate/--output/--quick parent."""
        parent_kwargs = {"output_default": output_default}
        if output_help is not None:
            parent_kwargs["output_help"] = output_help
        return add_command(
            name, help_text, parents=[benchkit.bench_parent(**parent_kwargs)]
        )

    p = add_command("generate", "simulate a campaign and save it")
    _add_output(p, "campaign.npz",
                "output path (.npz, or .csv for Table I format; default campaign.npz)")
    p.add_argument("--hours", type=float, default=74.0)
    _add_rate(p)
    _add_seed(p)
    p.set_defaults(func=cmd_generate)

    p = add_command("profile", "Section V-A profiling of a saved campaign")
    p.add_argument("dataset", help="path to a .npz campaign")
    p.set_defaults(func=cmd_profile)

    p = add_command("folds", "print the Table III fold table")
    p.add_argument("dataset")
    p.set_defaults(func=cmd_folds)

    for name, func in (("table4", cmd_table4), ("table5", cmd_table5)):
        p = add_command(name, f"regenerate {name} on a saved campaign")
        p.add_argument("dataset")
        p.add_argument("--epochs", type=int, default=10)
        p.add_argument("--max-train-rows", type=int, default=12_000)
        _add_seed(p)
        _add_output(p, None, "also write the printed table to this path")
        p.set_defaults(func=func)

    p = add_command("footprint", "Nucleo-L432KC deployment accounting")
    p.add_argument("--inputs", type=int, default=66)
    p.set_defaults(func=cmd_footprint)

    p = add_bench("serve-bench", "per-frame vs. micro-batched serving throughput")
    p.add_argument("--hours", type=float, default=2.0,
                   help="synthetic campaign length (default 2.0)")
    p.add_argument("--epochs", type=int, default=3,
                   help="training epochs for the mlp estimator (default 3)")
    p.add_argument("--model", choices=("mlp", "logistic"), default="mlp",
                   help="estimator served by both paths (default mlp)")
    p.add_argument("--links", type=int, default=4,
                   help="simulated sniffer links (default 4)")
    p.add_argument("--max-batch", type=int, default=64,
                   help="micro-batch flush size (default 64)")
    p.add_argument("--max-latency-ms", type=float, default=0.0,
                   help="micro-batch latency budget in stream time; "
                        "0 disables the trigger and benchmarks the "
                        "backlogged regime (default 0)")
    p.set_defaults(func=cmd_serve_bench)

    p = add_bench(
        "perf-bench",
        "fastpath vs tensor-path inference regression",
        output_default="BENCH_serve.json",
        output_help="where to write the JSON report (default BENCH_serve.json)",
    )
    p.add_argument("--inputs", type=int, default=64,
                   help="feature width of the benchmarked MLP "
                        "(default 64; use 66 for CSI+Env)")
    p.set_defaults(func=cmd_perf_bench)

    p = add_bench("chaos-bench", "accuracy-under-fault across the chaos suite")
    p.add_argument("--hours", type=float, default=2.0,
                   help="synthetic campaign length (default 2.0)")
    p.add_argument("--epochs", type=int, default=3,
                   help="training epochs for the mlp estimator (default 3)")
    p.add_argument("--model", choices=("mlp", "logistic"), default="logistic",
                   help="primary estimator under test (default logistic)")
    p.add_argument("--links", type=int, default=2,
                   help="simulated sniffer links (default 2)")
    p.add_argument("--max-batch", type=int, default=32,
                   help="micro-batch flush size (default 32)")
    p.add_argument("--scenario", action="append", metavar="NAME",
                   help="run only this scenario (repeatable; default: all)")
    _add_trace_dump(p)
    p.set_defaults(func=cmd_chaos_bench)

    p = add_bench("guard-bench", "self-healing ablation: chaos suite, guard off vs on")
    p.add_argument("--hours", type=float, default=2.0,
                   help="synthetic campaign length (default 2.0)")
    p.add_argument("--links", type=int, default=2,
                   help="simulated sniffer links (default 2)")
    p.add_argument("--max-batch", type=int, default=32,
                   help="micro-batch flush size (default 32)")
    p.add_argument("--stats", metavar="PATH", default=None,
                   help="also persist the training-fold reference statistics "
                        "(.npz) used by the drift sentinel")
    _add_trace_dump(p)
    p.set_defaults(func=cmd_guard_bench)

    p = add_bench(
        "fleet-bench",
        "multi-tenant fused vs per-tenant serving, with byte-identity gate",
        output_default="BENCH_fleet.json",
        output_help="where to write the JSON report (default BENCH_fleet.json)",
    )
    p.add_argument("--tenants", type=int, default=64,
                   help="number of simulated rooms (default 64)")
    p.add_argument("--frames", type=int, default=64,
                   help="frames submitted per tenant (default 64)")
    p.add_argument("--frames-per-tick", type=int, default=4,
                   help="frames each tenant submits between scheduler ticks "
                        "(default 4)")
    p.add_argument("--tile", type=int, default=16,
                   help="fixed GEMM tile size of the shape-stable runners "
                        "(default 16)")
    p.add_argument("--distinct-every", type=int, default=8,
                   help="every Nth tenant gets its own odd-one-out plan that "
                        "cannot fuse (default 8; 0 for one shared cohort)")
    p.add_argument("--churn-ticks", type=int, default=24,
                   help="ticks of the elasticity churn arm — seeded "
                        "attach/detach/swap under live traffic, gated on "
                        "ledger + drain + identity (default 24; 0 disables)")
    p.set_defaults(func=cmd_fleet_bench)

    p = add_bench(
        "rollout-bench",
        "drift-triggered retrain + champion/challenger hot-swap under a "
        "simulated room shift",
        output_default="BENCH_rollout.json",
        output_help="where to write the JSON report (default BENCH_rollout.json)",
    )
    p.add_argument("--stream-frames", type=int, default=768,
                   help="frames streamed through the engine (default 768)")
    p.add_argument("--shift-at", type=int, default=128,
                   help="stream index where the room shift hits (default 128)")
    p.add_argument("--epochs", type=int, default=25,
                   help="champion training epochs (default 25)")
    p.set_defaults(func=cmd_rollout_bench)

    p = add_bench(
        "overload-bench",
        "per-tenant rate limiting, deadlines and graceful degradation "
        "under bursty 10:1 hot-tenant traffic",
        output_default="BENCH_overload.json",
        output_help="where to write the JSON report (default BENCH_overload.json)",
    )
    p.add_argument("--duration", type=float, default=120.0,
                   help="stream-time length of the replay in seconds "
                        "(default 120)")
    p.add_argument("--cold-tenants", type=int, default=3,
                   help="steady well-behaved tenants beside the hot one "
                        "(default 3)")
    p.add_argument("--skew", type=float, default=10.0,
                   help="hot tenant's burst rate as a multiple of a cold "
                        "tenant's rate (default 10)")
    p.add_argument("--reserved-hz", type=float, default=8.0,
                   help="per-tenant reserved admission rate in the protected "
                        "arms (default 8)")
    p.add_argument("--deadline-ms", type=float, default=2000.0,
                   help="stream-time deadline budget per frame (default 2000)")
    p.add_argument("--service-hz", type=float, default=30.0,
                   help="modelled service capacity in frames/s (default 30)")
    p.set_defaults(func=cmd_overload_bench)

    p = add_command("obs-report", "render a bench trace dump (ledger, stages, events)")
    p.add_argument("dump", help="path to a dump written via --trace-dump")
    p.add_argument("--events", type=int, default=20, metavar="N",
                   help="event-log tail length per run (default 20)")
    p.add_argument("--prom", action="store_true",
                   help="print the stored Prometheus exposition instead of the report")
    _add_output(p, None, "also write the rendered report to this path")
    p.set_defaults(func=cmd_obs_report)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return int(args.func(args))


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
