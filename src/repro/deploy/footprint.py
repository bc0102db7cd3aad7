"""Flash/RAM footprint accounting against embedded targets.

Checks a frozen :class:`~repro.fastpath.plan.InferencePlan` (float32, int8
or float16) against a device budget the way a firmware engineer would
before committing to a board: parameter storage in flash, activation
working set plus runtime overhead in RAM.  Ships the
Nucleo-L432KC profile the paper deploys on (STM32L432KC: 256 KiB flash,
64 KiB SRAM, 80 MHz Cortex-M4F).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..exceptions import DeploymentError
from ..fastpath.plan import InferencePlan


@dataclass(frozen=True)
class DeviceProfile:
    """Resource envelope of an embedded target."""

    name: str
    flash_bytes: int
    ram_bytes: int
    clock_hz: float
    #: Flash the firmware itself (HAL, radio stack, inference loop) uses.
    firmware_overhead_bytes: int = 48 * 1024
    #: RAM reserved for stack/heap/drivers.
    ram_overhead_bytes: int = 16 * 1024

    def __post_init__(self) -> None:
        if min(self.flash_bytes, self.ram_bytes) <= 0 or self.clock_hz <= 0:
            raise DeploymentError("device resources must be positive")


#: The paper's deployment target (STM32L432KC).
NUCLEO_L432KC = DeviceProfile(
    name="Nucleo-L432KC",
    flash_bytes=256 * 1024,
    ram_bytes=64 * 1024,
    clock_hz=80e6,
)


@dataclass(frozen=True)
class FootprintReport:
    """Model-vs-device accounting."""

    device: DeviceProfile
    model_flash_bytes: int
    model_ram_bytes: int

    @property
    def model_flash_kib(self) -> float:
        """Model size in KiB (the paper reports 15.18 KiB)."""
        return self.model_flash_bytes / 1024.0

    @property
    def model_ram_kib(self) -> float:
        """Working RAM in KiB (the paper reports 23.04 KiB)."""
        return self.model_ram_bytes / 1024.0

    @property
    def flash_utilisation(self) -> float:
        """Fraction of device flash consumed, including firmware overhead."""
        used = self.model_flash_bytes + self.device.firmware_overhead_bytes
        return used / self.device.flash_bytes

    @property
    def ram_utilisation(self) -> float:
        """Fraction of device RAM consumed, including runtime overhead."""
        used = self.model_ram_bytes + self.device.ram_overhead_bytes
        return used / self.device.ram_bytes

    @property
    def fits(self) -> bool:
        """True when both budgets close — the paper's deployability claim."""
        return self.flash_utilisation <= 1.0 and self.ram_utilisation <= 1.0

    def describe(self) -> str:
        return (
            f"{self.device.name}: model {self.model_flash_kib:.2f} KiB flash "
            f"({self.flash_utilisation:.0%} used incl. firmware), "
            f"{self.model_ram_kib:.2f} KiB RAM "
            f"({self.ram_utilisation:.0%} used incl. runtime) -> "
            f"{'FITS' if self.fits else 'DOES NOT FIT'}"
        )


def estimate_footprint(
    plan: InferencePlan,
    device: DeviceProfile = NUCLEO_L432KC,
    batch_buffer_rows: int = 1,
) -> FootprintReport:
    """Account a plan against a device.

    Flash is the plan's stored artifact, :meth:`InferencePlan.parameter_bytes`
    (int8 codes and per-channel scales, float16 or float32 weights, float32
    biases and scaler statistics), so the int8/float32 report pair shows
    the benefit of quantization.  RAM is the float32 double buffer of the
    two widest activations, the input included, per buffered row — the
    same for every storage mode, since every mode executes in float32.
    Freeze a float model with ``InferencePlan.from_model(model)`` first.
    """
    if batch_buffer_rows < 1:
        raise DeploymentError("batch_buffer_rows must be >= 1")
    widths = [plan.n_inputs] + [s.out_features for s in plan.steps]
    ram = 4 * sum(sorted(widths, reverse=True)[:2]) * batch_buffer_rows
    return FootprintReport(
        device=device, model_flash_bytes=plan.parameter_bytes(), model_ram_bytes=ram
    )
