"""Hardware/software co-execution substrate (the PS+PL system of Figure 3)."""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        ".partition": ("Partition",),
        ".ps_model": ("SoftwareCostModel",),
        ".runtime": ("HwSwRuntime", "PredictionReport"),
    },
)
