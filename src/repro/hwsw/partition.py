"""Hardware/software partitioning description.

A :class:`Partition` names, for one concrete network, which layer groups run
on the PL part (as :class:`~repro.fpga.odeblock_hw.HardwareODEBlock`
instances) and which stay on the PS part (as the software modules of the
:class:`~repro.core.architectures.OdeNetModel`).  It is consumed by
:class:`repro.hwsw.runtime.HwSwRuntime`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from ..core.network_spec import OFFLOADABLE_LAYER_NAMES

__all__ = ["Partition"]


@dataclass(frozen=True)
class Partition:
    """Assignment of layer groups to PS (software) or PL (hardware)."""

    pl_layers: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        for layer in self.pl_layers:
            if layer not in OFFLOADABLE_LAYER_NAMES:
                raise ValueError(
                    f"layer '{layer}' cannot be offloaded; only {OFFLOADABLE_LAYER_NAMES} "
                    "are implemented on the PL part (Section 3.1)"
                )

    @classmethod
    def offload(cls, *layers: str) -> "Partition":
        """Offload the named layer groups to the PL part."""

        return cls(pl_layers=tuple(layers))

    def runs_on_pl(self, layer: str) -> bool:
        return layer in self.pl_layers
