"""Throughput, power, and area-efficiency model for the crossbar hasher.

One unit streams r rate bits per permutation, so

    tput_unit   = (r / latency_round) * f
    tput_system = tput_unit * units_per_crossbar * crossbars
    power       = tput_system * energy_per_round_per_unit / r

from which throughput-per-watt collapses to r / energy, independent of how
many units or crossbars run. Inputs may come from simulator measurements or
from the published reference constants (see ``REFERENCE_INPUT``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class MetricsInput:
    clock_hz: float = 1.0 / 3e-9          # 1 / gate delay
    rate_bits: int = 1088
    latency_round_cycles: float = 3494.0
    energy_unit_j: float = 0.765e-9       # per round, per unit
    units_per_crossbar: int = 378
    crossbars: int = 1
    cell_area_f2: float = 4.0
    crossbar_cells: int = 1024 * 1024

    def validate(self) -> None:
        values = (self.clock_hz, self.rate_bits, self.latency_round_cycles,
                  self.energy_unit_j, self.units_per_crossbar, self.crossbars,
                  self.cell_area_f2, self.crossbar_cells)
        if not all(math.isfinite(v) and v > 0 for v in values):
            raise ValueError("all metrics inputs must be finite and positive")


# Published reference operating point: 3,494 cycles and 0.765 nJ per round
# per unit at 333 MHz with 378 units on one 1024x1024 crossbar.
REFERENCE_INPUT = MetricsInput()

# Throughput per watt of SHINE-2, the memristive SHA-3 accelerator the
# published design is compared with (1,422 / 311 = 4.6x).
SHINE2_GBPS_PER_W = 311


@dataclass(frozen=True)
class MetricsReport:
    tput_unit_bps: float
    tput_system_bps: float
    power_system_w: float
    tput_per_watt_bps: float
    tput_per_area_bps_f2: float

    def as_dict(self) -> dict:
        return {
            "tput_unit_gbps": self.tput_unit_bps / 1e9,
            "tput_system_gbps": self.tput_system_bps / 1e9,
            "power_system_w": self.power_system_w,
            "tput_per_watt_gbps": self.tput_per_watt_bps / 1e9,
            "tput_per_watt_vs_shine2":
                self.tput_per_watt_bps / 1e9 / SHINE2_GBPS_PER_W,
            "tput_per_area_bps_f2": self.tput_per_area_bps_f2,
        }


def compute(inputs: MetricsInput) -> MetricsReport:
    """The metrics of ``inputs``; raises ``ValueError`` if an input is bad
    or a metric is not a finite positive float (it overflowed or
    underflowed)."""
    inputs.validate()
    tput_unit = inputs.rate_bits / inputs.latency_round_cycles * inputs.clock_hz
    tput_system = tput_unit * inputs.units_per_crossbar * inputs.crossbars
    power = tput_system * inputs.energy_unit_j / inputs.rate_bits
    area = inputs.crossbars * inputs.crossbar_cells * inputs.cell_area_f2
    report = MetricsReport(
        tput_unit_bps=tput_unit,
        tput_system_bps=tput_system,
        power_system_w=power,
        tput_per_watt_bps=inputs.rate_bits / inputs.energy_unit_j,
        tput_per_area_bps_f2=tput_system / area,
    )
    for name, value in report.as_dict().items():
        if not (math.isfinite(value) and value > 0):
            raise ValueError(f"metric {name} is not finite and positive ({value})")
    return report
