"""Pipeline observability: a small in-process metrics registry.

The serving engine and the training loop both need the same three
primitives — monotonically increasing counters, last-value gauges and
value-distribution histograms — without dragging in a metrics client
library.  :class:`MetricsRegistry` is a get-or-create namespace of those
primitives; everything is plain Python + numpy, cheap enough to update on
every frame.

The registry is shared infrastructure, not serving-specific:
:class:`TrainingMetricsCallback` plugs it into
:class:`~repro.nn.train.Trainer` so per-epoch loss and wall time land in
the same report as frames/s and batch latency.
"""

from __future__ import annotations

import numpy as np

from ..exceptions import ConfigurationError
from ..nn.train import TrainerCallback


class Counter:
    """Monotonically increasing count (frames in, batches run, drops)."""

    def __init__(self) -> None:
        self._value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ConfigurationError("counters only increase; use a Gauge")
        self._value += amount

    @property
    def value(self) -> float:
        return self._value


class Gauge:
    """Last-observed value (queue depth, current loss)."""

    def __init__(self) -> None:
        self._value = 0.0

    def set(self, value: float) -> None:
        self._value = float(value)

    @property
    def value(self) -> float:
        return self._value


class Histogram:
    """Distribution summary over observed values (batch sizes, latencies).

    Keeps a bounded ring of raw samples: once ``max_samples`` is reached,
    new observations overwrite the oldest, so the percentiles track the
    recent window while ``count``/``total`` stay exact lifetime totals.
    """

    def __init__(self, max_samples: int = 4096) -> None:
        if max_samples < 1:
            raise ConfigurationError("max_samples must be >= 1")
        self._samples: list[float] = []
        self._max_samples = max_samples
        self._write = 0
        self.count = 0
        self.total = 0.0

    def observe(self, value: float) -> None:
        value = float(value)
        self.count += 1
        self.total += value
        if len(self._samples) < self._max_samples:
            self._samples.append(value)
        else:
            self._samples[self._write] = value
            self._write = (self._write + 1) % self._max_samples

    def percentile(self, q: float) -> float:
        """The q-th percentile (0..100) of the retained sample window."""
        if not self._samples:
            return float("nan")
        return float(np.percentile(self._samples, q))

    def values(self) -> list[float]:
        """The retained window in observation order (oldest first).

        Before the ring wraps this is simply the samples as observed;
        after wrapping, the oldest surviving sample leads.  Summary
        percentiles/``max`` are computed over exactly this window, while
        ``count``/``total`` keep counting evicted samples.
        """
        return self._samples[self._write :] + self._samples[: self._write]

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else float("nan")

    def summary(self) -> dict[str, float]:
        return {
            "count": float(self.count),
            "mean": self.mean,
            "p50": self.percentile(50),
            "p95": self.percentile(95),
            "max": max(self._samples) if self._samples else float("nan"),
        }


class MetricsRegistry:
    """Named metrics, get-or-create semantics, one text report.

    >>> registry = MetricsRegistry()
    >>> registry.counter("frames_in").inc()
    >>> registry.gauge("queue_depth").set(3)
    >>> registry.histogram("batch_latency_ms").observe(1.7)
    """

    def __init__(self) -> None:
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}

    def _get_or_create(self, table: dict, name: str, factory):
        metric = table.get(name)
        if metric is not None:
            # A name lives in at most one kind table, so a hit needs no
            # cross-kind scan.
            return metric
        for other in (self._counters, self._gauges, self._histograms):
            if other is not table and name in other:
                raise ConfigurationError(f"metric {name!r} already registered as another kind")
        metric = table[name] = factory()
        return metric

    def counter(self, name: str) -> Counter:
        return self._get_or_create(self._counters, name, Counter)

    def gauge(self, name: str) -> Gauge:
        return self._get_or_create(self._gauges, name, Gauge)

    def histogram(self, name: str, max_samples: int = 4096) -> Histogram:
        return self._get_or_create(
            self._histograms, name, lambda: Histogram(max_samples)
        )

    # Read-only views by kind: the Prometheus exposition renderer
    # (:mod:`repro.obs.exposition`) needs to know counter from gauge,
    # which the flat ``as_dict`` snapshot erases.

    @property
    def counters(self) -> dict[str, Counter]:
        """Snapshot copy of the registered counters by name."""
        return dict(self._counters)

    @property
    def gauges(self) -> dict[str, Gauge]:
        """Snapshot copy of the registered gauges by name."""
        return dict(self._gauges)

    @property
    def histograms(self) -> dict[str, Histogram]:
        """Snapshot copy of the registered histograms by name."""
        return dict(self._histograms)

    def as_dict(self) -> dict[str, object]:
        """Flat snapshot: counters/gauges -> float, histograms -> summary."""
        out: dict[str, object] = {}
        for name, counter in self._counters.items():
            out[name] = counter.value
        for name, gauge in self._gauges.items():
            out[name] = gauge.value
        for name, hist in self._histograms.items():
            out[name] = hist.summary()
        return out

    def report(self, title: str | None = None) -> str:
        """Human-readable dump, one metric per line, sorted by name."""
        lines: list[str] = [title] if title else []
        rows: list[tuple[str, str]] = []
        for name, counter in self._counters.items():
            rows.append((name, f"{counter.value:g}"))
        for name, gauge in self._gauges.items():
            rows.append((name, f"{gauge.value:g}"))
        for name, hist in self._histograms.items():
            s = hist.summary()
            rows.append(
                (name,
                 f"count={s['count']:g} mean={s['mean']:.3f} "
                 f"p50={s['p50']:.3f} p95={s['p95']:.3f} max={s['max']:.3f}")
            )
        width = max((len(name) for name, _ in rows), default=0)
        lines.extend(f"{name.ljust(width)}  {text}" for name, text in sorted(rows))
        return "\n".join(lines)


class TrainingMetricsCallback(TrainerCallback):
    """Feeds per-epoch loss and wall time into a :class:`MetricsRegistry`.

    Attach to :meth:`repro.nn.train.Trainer.fit` via ``callbacks=[...]`` so
    training runs report through the same registry as the serving engine:

    * counter ``<prefix>_epochs`` — epochs completed;
    * gauge ``<prefix>_loss`` — latest training loss;
    * histogram ``<prefix>_epoch_time_s`` — per-epoch wall time;
    * histogram ``<prefix>_loss_per_epoch`` — training-loss trajectory;
    * gauge ``<prefix>_val_loss`` — latest validation loss (when present).
    """

    def __init__(self, registry: MetricsRegistry, prefix: str = "train") -> None:
        self.registry = registry
        self.prefix = prefix

    def on_epoch_end(self, epoch: int, logs: dict[str, float]) -> None:
        p = self.prefix
        self.registry.counter(f"{p}_epochs").inc()
        self.registry.gauge(f"{p}_loss").set(logs["train_loss"])
        self.registry.histogram(f"{p}_loss_per_epoch").observe(logs["train_loss"])
        self.registry.histogram(f"{p}_epoch_time_s").observe(logs["duration_s"])
        if "val_loss" in logs:
            self.registry.gauge(f"{p}_val_loss").set(logs["val_loss"])
