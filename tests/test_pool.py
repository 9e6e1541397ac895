"""The one ordered process map behind accuracy chunks, fleet cells and optimizer cohorts."""

from __future__ import annotations

import concurrent.futures
import time

import pytest

from repro._pool import ordered_map


def _late_first(item):
    """Earlier items sleep longer, so later ones finish first."""

    index, count = item
    time.sleep(0.05 * (count - index))
    return index * index


def _fail_on_two(item):
    if item == 2:
        raise ValueError(f"bad item {item}")
    return item


def _no_pool(*args, **kwargs):
    raise AssertionError("ordered_map built a process pool")


class TestOrderedMap:
    def test_results_follow_item_order_when_later_items_finish_first(self):
        items = [(i, 4) for i in range(4)]
        assert ordered_map(_late_first, items, workers=2) == [0, 1, 4, 9]

    @pytest.mark.parametrize(
        "workers, items",
        [
            pytest.param(1, [0, 1, 3], id="one-worker"),
            pytest.param(0, [0, 1], id="zero-workers"),
            pytest.param(4, [3], id="one-item"),
            pytest.param(4, [], id="no-items"),
            pytest.param(1, range(4), id="iterable"),
        ],
    )
    def test_inline_without_a_pool(self, monkeypatch, workers, items):
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _no_pool)
        assert ordered_map(str, items, workers) == [str(i) for i in items]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_a_worker_exception_reaches_the_caller(self, workers):
        with pytest.raises(ValueError, match="bad item 2"):
            ordered_map(_fail_on_two, [0, 1, 2, 3], workers)
