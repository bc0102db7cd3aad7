"""Online serving: micro-batched streaming inference with observability.

The deployment story of the paper (Section V) is a live CSI stream feeding
a small model on constrained hardware.  This subpackage is the serving
loop around any :class:`~repro.core.estimator.Estimator`:

* :mod:`repro.serve.queue` — bounded ring-buffer admission queue with the
  micro-batching flush policy (``max_batch`` / ``max_latency_ms``);
* :mod:`repro.serve.engine` — :class:`InferenceEngine`, the multi-link
  batched inference loop with per-link smoothing/debounce;
* :mod:`repro.serve.robustness` — fallback predictors and per-link
  :class:`LinkHealth` states;
* :mod:`repro.serve.metrics` — the counters/gauges/histograms registry
  shared with the training loop;
* :mod:`repro.serve.bench` — the ``serve-bench`` harness comparing
  per-frame and micro-batched throughput.

Frame-level tracing lives one package over, in :mod:`repro.obs`: pass
``InferenceEngine(est, ServeConfig(observer=Observer()))`` to record
per-stage spans and structured events.  The default is the no-op
:data:`~repro.obs.NULL_OBSERVER` — every instrumentation site is gated
on ``observer.enabled``, so an untraced engine does no timing work.
"""

from .bench import ServeBenchReport, run_serve_bench
from .config import ServeConfig
from .engine import InferenceEngine, InferenceResult
from .types import TICKET_OUTCOMES, FrameTicket
from .metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    TrainingMetricsCallback,
)
from .queue import MicroBatchQueue, PendingFrame
from .robustness import (
    EnvThresholdFallback,
    FallbackPredictor,
    LinkHealth,
    PriorFallback,
)

__all__ = [
    "InferenceEngine",
    "InferenceResult",
    "ServeConfig",
    "FrameTicket",
    "TICKET_OUTCOMES",
    "MicroBatchQueue",
    "PendingFrame",
    "LinkHealth",
    "FallbackPredictor",
    "PriorFallback",
    "EnvThresholdFallback",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "TrainingMetricsCallback",
    "ServeBenchReport",
    "run_serve_bench",
]
