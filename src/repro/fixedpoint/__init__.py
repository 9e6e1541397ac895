"""Fixed-point arithmetic substrate (the paper's 32-bit Q20 datapath format)."""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        ".fxarray": ("FxArray",),
        ".qformat": ("Q8", "Q12", "Q16", "Q20", "QFormat"),
    },
    submodules=("arithmetic",),
)
