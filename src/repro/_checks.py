"""The one integer-count rule every subsystem shares.

A count (a depth, a MAC-unit count, replicas, workers, a seed ...) must be
an integer: Python and NumPy integers pass and are normalised to a plain
``int`` (so JSON output never meets ``numpy.int64``), while ``2.5`` or
``"4"`` is refused instead of truncated.  This module imports nothing from
the package, so every layer can use it, and the CLI can check an accuracy
sweep's run (:func:`check_sweep_run`) before the NumPy-backed datapath loads.
"""

from __future__ import annotations

import math
import operator
from typing import Tuple

__all__ = ["check_count", "check_seed", "check_sweep_run"]


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


def check_sweep_run(
    images: object, workers: object, seed: object, chunk_size: object, input_scale: float
) -> Tuple[int, int, int, int]:
    """An accuracy sweep's ``(images, workers, seed, chunk_size)`` as plain
    ints, else a :class:`ValueError`; ``chunk_size=None`` resolves to
    ``images`` (one chunk), and ``input_scale`` must be non-negative and
    finite."""

    images = check_count("images", images, 1)
    workers = check_count("workers", workers, 1)
    seed = check_seed("seed", seed)
    chunk_size = images if chunk_size is None else check_count("chunk_size", chunk_size, 1)
    if not 0 <= input_scale < math.inf:
        raise ValueError(f"input_scale must be non-negative and finite (got {input_scale!r})")
    return images, workers, seed, chunk_size
