"""Q-format fixed-point number specifications.

The paper's PL implementation uses a *32-bit Q20* fixed-point format: a signed
32-bit integer whose 20 least-significant bits hold the fractional part,
leaving 11 integer bits plus the sign.  :class:`QFormat` captures word length
and fraction length and provides conversion, range and resolution queries.
It is the single source of truth used by :mod:`repro.fixedpoint.fxarray`
(vectorised arrays), :mod:`repro.fpga.ops` (the hardware ODEBlock arithmetic)
and the word-length ablation benchmark.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Tuple, Union

from .._checks import check_count

if TYPE_CHECKING:  # the conversions import NumPy when called: the analytic models never do
    import numpy as np

__all__ = ["QFormat", "QFormatLike", "Q20", "Q16", "Q12", "Q8"]


@dataclass(frozen=True)
class QFormat:
    """A signed fixed-point format with ``word_length`` total bits.

    Attributes
    ----------
    word_length:
        Total number of bits including the sign bit (the paper uses 32).
    fraction_bits:
        Number of fractional bits (the paper uses 20, i.e. "Q20").
    """

    word_length: int = 32
    fraction_bits: int = 20

    def __post_init__(self) -> None:
        object.__setattr__(self, "word_length", check_count("word_length", self.word_length, 1))
        object.__setattr__(self, "fraction_bits", check_count("fraction_bits", self.fraction_bits))
        if self.word_length < 2 or self.word_length > 64:
            raise ValueError("word_length must be between 2 and 64 bits")
        if not (0 <= self.fraction_bits < self.word_length):
            raise ValueError("fraction_bits must satisfy 0 <= f < word_length")

    @classmethod
    def parse(cls, spec: QFormatLike) -> QFormat:
        """``spec`` as a :class:`QFormat`: a QFormat passes through, and a
        ``(word_length, fraction_bits)`` pair or a ``"WL:FB"`` string is
        built and validated.  Anything else is a :class:`ValueError` that
        names ``spec``."""

        if isinstance(spec, QFormat):
            return spec
        try:
            parts = [int(p) for p in spec.split(":")] if isinstance(spec, str) else list(spec)
        except (TypeError, ValueError):
            parts = []
        if len(parts) != 2:
            raise ValueError(
                f"bad Q-format {spec!r}; expected WL:FB (e.g. 16:8) or a (WL, FB) pair of integers"
            )
        try:
            return cls(*parts)
        except ValueError as exc:
            raise ValueError(f"bad Q-format {spec!r}: {exc}") from None

    def check_datapath(self) -> QFormat:
        """This format if the PL datapath runs it, else a :class:`ValueError`.

        The datapath, its RTL and the accuracy sweep compute double-width
        products (``fx_mul``, the conv accumulators) in int64, so a word
        past 32 bits would wrap silently instead of saturating.
        """

        if self.word_length > 32:
            raise ValueError(
                "word_length must be at most 32 bits for the PL datapath "
                f"(got {self.word_length}): its double-width products are int64"
            )
        return self

    # -- derived quantities ----------------------------------------------------

    @property
    def scale(self) -> int:
        """Integer representation of 1.0 (i.e. ``2**fraction_bits``)."""

        return 1 << self.fraction_bits

    @property
    def resolution(self) -> float:
        """Smallest representable increment."""

        return 1.0 / self.scale

    @property
    def min_int(self) -> int:
        return -(1 << (self.word_length - 1))

    @property
    def max_int(self) -> int:
        return (1 << (self.word_length - 1)) - 1

    @property
    def min_value(self) -> float:
        """Most negative representable real value."""

        return self.min_int / self.scale

    @property
    def max_value(self) -> float:
        """Most positive representable real value."""

        return self.max_int / self.scale

    @property
    def bytes_per_value(self) -> int:
        """Storage bytes per value (rounded up to whole bytes)."""

        return (self.word_length + 7) // 8

    @property
    def name(self) -> str:
        return f"Q{self.fraction_bits} ({self.word_length}-bit)"

    # -- conversion --------------------------------------------------------------

    def to_fixed(self, values) -> np.ndarray:
        """Quantise real ``values`` to their integer fixed-point representation,
        saturating at the representable range."""

        import numpy as np

        scaled = np.round(np.asarray(values, dtype=np.float64) * self.scale)
        return np.clip(scaled, self.min_int, self.max_int).astype(np.int64)

    def to_float(self, fixed) -> np.ndarray:
        """Convert integer fixed-point representations back to floats."""

        import numpy as np

        return np.asarray(fixed, dtype=np.float64) / self.scale

    def representable(self, values) -> np.ndarray:
        """Boolean mask of values that fit in the representable range."""

        import numpy as np

        values = np.asarray(values, dtype=np.float64)
        return (values >= self.min_value) & (values <= self.max_value)


#: What :meth:`QFormat.parse` accepts.
QFormatLike = Union[QFormat, Tuple[int, int], str]

#: The paper's production format: 32-bit word, 20 fractional bits.
Q20 = QFormat(32, 20)

#: Reduced-precision formats referenced by footnote 2 ("using reduced bit
#: widths (e.g., 16-bit or less) can implement more layers in PL part").
Q16 = QFormat(16, 8)
Q12 = QFormat(12, 6)
Q8 = QFormat(8, 4)
