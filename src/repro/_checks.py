"""The one integer-count rule every subsystem shares.

A count (a depth, a MAC-unit count, replicas, workers, a seed ...) must be
an integer: Python and NumPy integers pass and are normalised to a plain
``int`` (so JSON output never meets ``numpy.int64``), while ``2.5`` or
``"4"`` is refused instead of truncated.  This module imports nothing from
the package, so every layer can use it.
"""

from __future__ import annotations

import operator

__all__ = ["check_count", "check_seed"]


def check_count(name: str, value: object, minimum: int = 0, note: str = "") -> int:
    """``value`` as a plain ``int`` of at least ``minimum`` (0 or 1), else a
    :class:`ValueError` naming the field and the value; ``note`` is
    appended to the rule."""

    try:
        number = operator.index(value)
    except TypeError:
        number = minimum - 1
    if number < minimum:
        rule = "must be a positive integer" if minimum else "must be a non-negative integer"
        raise ValueError(f"{name} {rule}{note} (got {value!r})")
    return number


def check_seed(name: str, value: object) -> int:
    """A seed as a non-negative ``int``, naming the field.

    NumPy's own message ("expected non-negative integer") names neither the
    field nor the value.
    """

    return check_count(name, value, 0)
