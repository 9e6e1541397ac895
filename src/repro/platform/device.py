"""Board-parametric platform primitives: fabric totals, clocks, power.

The paper evaluates exactly one platform — the TUL PYNQ-Z2's Zynq XC7Z020 —
and the seed repository hard-coded its constants (650 MHz PS clock, 100 MHz
PL clock, the Zynq-7000 wattages) in every model layer.  This module promotes
the board to a first-class value object so the same analytical models can be
evaluated for any PS + PL SoC:

* :class:`ResourceVector` / :class:`FpgaDevice` — programmable-logic fabric
  totals and arithmetic over them;
* :class:`PowerProfile` — the documented-not-measured power constants of one
  board (PS active/idle watts, PL static and dynamic coefficients);
* :class:`BoardSpec` — one board: fabric, PS/PL clocks, cores, DRAM, power
  profile and a fabric delay scale for the timing model.

Every board-derived default elsewhere in the repository (the PS software
model's clock, the AXI transfer clock, the timing target, the power model's
wattages) derives from a :class:`BoardSpec` — by default the reference
:data:`repro.platform.catalog.PYNQ_Z2` — so there is exactly one source of
truth per constant.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

__all__ = ["ResourceVector", "FpgaDevice", "PowerProfile", "BoardSpec"]


@dataclass(frozen=True)
class ResourceVector:
    """A bundle of FPGA resource counts (BRAM36 tiles, DSP48 slices, LUTs, FFs)."""

    bram: float = 0.0
    dsp: float = 0.0
    lut: float = 0.0
    ff: float = 0.0

    def __add__(self, other: "ResourceVector") -> "ResourceVector":
        return ResourceVector(
            bram=self.bram + other.bram,
            dsp=self.dsp + other.dsp,
            lut=self.lut + other.lut,
            ff=self.ff + other.ff,
        )

    def scale(self, factor: float) -> "ResourceVector":
        return ResourceVector(
            bram=self.bram * factor,
            dsp=self.dsp * factor,
            lut=self.lut * factor,
            ff=self.ff * factor,
        )

    def utilization(self, device: "FpgaDevice") -> Dict[str, float]:
        """Utilisation percentages against a device's totals."""

        return {
            "bram": 100.0 * self.bram / device.bram36,
            "dsp": 100.0 * self.dsp / device.dsp,
            "lut": 100.0 * self.lut / device.lut,
            "ff": 100.0 * self.ff / device.ff,
        }

    def fits(self, device: "FpgaDevice") -> bool:
        """Whether the resources fit within the device."""

        return (
            self.bram <= device.bram36
            and self.dsp <= device.dsp
            and self.lut <= device.lut
            and self.ff <= device.ff
        )

    def as_dict(self) -> Dict[str, float]:
        return {"bram": self.bram, "dsp": self.dsp, "lut": self.lut, "ff": self.ff}


@dataclass(frozen=True)
class FpgaDevice:
    """Totals of the programmable-logic fabric of a device."""

    name: str
    bram36: int
    dsp: int
    lut: int
    ff: int


@dataclass(frozen=True)
class PowerProfile:
    """Power constants (watts) of one board's PS + PL system.

    The defaults are the documented Zynq-7000 class figures the seed power
    model shipped with (see :mod:`repro.fpga.power` — deliberately
    conservative estimates, not measurements).  Other boards override them;
    the per-DSP/per-BRAM dynamic coefficients are quoted at the board's
    *default* PL clock (clock-scaling of dynamic power under ``pl_clock_hz``
    overrides is deliberately not modelled).
    """

    #: PS subsystem (cores + DRAM controller) draw when busy, W.
    ps_active_w: float = 1.3
    #: PS subsystem draw when idle, W.
    ps_idle_w: float = 0.3
    #: PL static (leakage) power, W.
    pl_static_w: float = 0.12
    #: PL dynamic power per active DSP48 slice at the default PL clock, W.
    pl_dynamic_per_dsp_w: float = 0.0015
    #: PL dynamic power per active BRAM36 tile at the default PL clock, W.
    pl_dynamic_per_bram_w: float = 0.0005
    #: PL dynamic power of clocking/control common to any design, W.
    pl_dynamic_base_w: float = 0.05


@dataclass(frozen=True)
class BoardSpec:
    """A PS + PL SoC board (Figure 3 / Table 1 of the paper, generalised)."""

    name: str
    fpga: FpgaDevice
    ps_clock_hz: float
    ps_cores: int
    dram_mb: int
    pl_clock_hz: float
    os_name: str = "PYNQ Linux (Ubuntu 18.04)"
    #: Multiplier on the timing model's critical-path delays relative to the
    #: 7-series fabric the constants were calibrated on (UltraScale+ fabrics
    #: switch faster, so their scale is < 1).
    fabric_delay_scale: float = 1.0
    #: Documented power constants of this board's PS + PL system.
    power: PowerProfile = PowerProfile()
    #: Documented street price, USD (launch-era list price; ``None`` when
    #: unknown).  Used as a cost axis by ``repro.opt`` — an estimate for
    #: ranking, not a quote.
    price_usd: Optional[float] = None

    @property
    def ps_clock_mhz(self) -> float:
        return self.ps_clock_hz / 1e6

    @property
    def pl_clock_mhz(self) -> float:
        return self.pl_clock_hz / 1e6
