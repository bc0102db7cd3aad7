"""Inference latency: Cortex-M4 cycle model and host wall clock.

The paper reports 10.781 ms per sample on the full feature set.  Two
complementary reproductions:

* :func:`cortex_m4_latency_ms` — an analytic cycle model of a CMSIS-NN
  style int8 GEMV loop on the 80 MHz M4F (MAC throughput, load/store and
  loop overhead), evaluated for a plan's layer widths;
* :func:`measure_inference_ms` — measured single-sample latency of the
  Python implementation on the host (reported alongside, never conflated).
"""

from __future__ import annotations

import time

import numpy as np

from ..exceptions import DeploymentError
from ..fastpath.plan import InferencePlan
from ..nn.modules import Module
from ..nn.tensor import Tensor, no_grad
from .footprint import NUCLEO_L432KC, DeviceProfile

#: Effective cycles per int8 multiply-accumulate on an M4 with SMLAD-style
#: dual-MAC plus load overhead (CMSIS-NN reports ~2 MACs / 3 cycles).
_CYCLES_PER_MAC = 1.6
#: Per-output-neuron overhead: bias load, requantize, activation, store.
_CYCLES_PER_NEURON = 24.0
#: Per-layer call overhead.
_CYCLES_PER_LAYER = 400.0


def cortex_m4_latency_ms(
    plan: InferencePlan, device: DeviceProfile = NUCLEO_L432KC
) -> float:
    """Analytic single-sample latency of the plan's layers on the M4."""
    cycles = 0.0
    for step in plan.steps:
        macs = step.in_features * step.out_features
        cycles += macs * _CYCLES_PER_MAC
        cycles += step.out_features * _CYCLES_PER_NEURON
        cycles += _CYCLES_PER_LAYER
    return 1e3 * cycles / device.clock_hz


def measure_inference_ms(
    model: Module | InferencePlan,
    n_inputs: int,
    n_repeats: int = 200,
    warmup: int = 20,
) -> float:
    """Median wall-clock single-sample inference time on the host [ms].

    Accepts both execution forms — the autograd :class:`Module` and the
    frozen :class:`~repro.fastpath.plan.InferencePlan`, quantized or not —
    so the tensor-path and fastpath latencies print from one helper.
    """
    if n_repeats < 1 or warmup < 0:
        raise DeploymentError("invalid timing parameters")
    rng = np.random.default_rng(0)
    x = rng.normal(size=(1, n_inputs))

    if isinstance(model, InferencePlan):
        def run() -> None:
            model.forward(x)
    else:
        model.eval()

        def run() -> None:
            with no_grad():
                model(Tensor(x))

    for _ in range(warmup):
        run()
    samples = []
    for _ in range(n_repeats):
        start = time.perf_counter()
        run()
        samples.append(time.perf_counter() - start)
    return 1e3 * float(np.median(samples))
