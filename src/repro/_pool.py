"""One ordered process map behind every fan-out.

Accuracy-sweep chunks, fleet cells and optimizer candidates each carry their
own seeded stream, so running them in another process changes wall-clock
time, never the numbers — provided the results come back in item order.
"""

from __future__ import annotations

from typing import Callable, Iterable, List, TypeVar

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

    with ProcessPoolExecutor(max_workers=min(workers, len(items))) as pool:
        return list(pool.map(fn, items))
