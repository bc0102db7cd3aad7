"""Embedded deployment substrate (Nucleo-L432KC target).

The paper stresses deployability: "a model size of 15.18 KiB, with a RAM
occupancy of 23.04 KiB, being easily deployable over a resource-constraint
device such as Nucleo-L432KC" with 10.781 ms inference per sample.  This
subpackage reproduces that resource accounting without the physical board.

Its one input is the frozen :class:`~repro.fastpath.plan.InferencePlan`
that also serves traffic — float32, or quantized with
``plan.quantized("int8")`` (per-channel) or ``"float16"`` — so the model
you compile is the model you serve:

* :mod:`repro.deploy.export` — the plan's payload as a C header or an
  ``.npz`` archive (one format, two renderings);
* :mod:`repro.deploy.c_runtime` — the matching C inference loop, compiled
  and checked against ``plan.forward``;
* :mod:`repro.deploy.footprint` — flash/RAM budgets vs. the L432KC;
* :mod:`repro.deploy.timing` — cycle-model latency on the Cortex-M4 plus
  wall-clock measurement of the Python implementation.
"""

from .export import export_c_header, export_plan, load_plan
from .footprint import FootprintReport, estimate_footprint, NUCLEO_L432KC
from .timing import cortex_m4_latency_ms, measure_inference_ms
from .c_runtime import (
    generate_inference_source,
    write_firmware_bundle,
    compile_firmware,
    run_firmware,
    validate_against_python,
    host_compiler,
)

__all__ = [
    "export_c_header",
    "export_plan",
    "load_plan",
    "FootprintReport",
    "estimate_footprint",
    "NUCLEO_L432KC",
    "cortex_m4_latency_ms",
    "measure_inference_ms",
    "generate_inference_source",
    "write_firmware_bundle",
    "compile_firmware",
    "run_firmware",
    "validate_against_python",
    "host_compiler",
]
