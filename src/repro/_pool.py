"""One ordered process map behind every fan-out.

Accuracy-sweep chunks and fleet cells each carry their own seeded stream, so
running them in another process changes wall-clock time, never the numbers
— provided the results come back in item order.  Each pool worker runs one
BLAS thread, so two workers on 2 CPUs do not run four BLAS threads.
"""

from __future__ import annotations

from typing import Callable, Iterable, List, Optional, TypeVar

T = TypeVar("T")
R = TypeVar("R")


def ordered_map(fn: Callable[[T], R], items: Iterable[T], workers: int) -> List[R]:
    """``[fn(item) for item in items]``, over up to ``workers`` processes.

    Runs inline when ``workers <= 1`` or there are fewer than two items, so
    a serial call never imports the process machinery.  Otherwise ``fn``
    and every item must pickle; results come back in item order whichever
    finishes first, and an exception raised by ``fn`` reaches the caller.
    """

    items = list(items)
    if workers <= 1 or len(items) < 2:
        return [fn(item) for item in items]
    from concurrent.futures import ProcessPoolExecutor

    width = min(workers, len(items))
    with ProcessPoolExecutor(width, initializer=_blas_setter(), initargs=(1,)) as pool:
        return list(pool.map(fn, items))


def _blas_setter() -> Optional[Callable[[int], object]]:
    """NumPy's OpenBLAS thread setter, if a forked worker can take it as its initializer."""

    import ctypes
    import multiprocessing
    from pathlib import Path

    import numpy

    if multiprocessing.get_start_method() == "fork":
        for path in sorted((Path(numpy.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
            lib = ctypes.CDLL(str(path))
            for name in ("scipy_openblas_set_num_threads64_", "openblas_set_num_threads64_"):
                if (setter := getattr(lib, name, None)) is not None:
                    setter.argtypes, setter.restype = [ctypes.c_int], None
                    return setter
    return None
