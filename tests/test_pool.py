"""The one ordered process map behind accuracy chunks and fleet cells."""

from __future__ import annotations

import concurrent.futures
import ctypes
import time
from pathlib import Path

import numpy as np
import pytest

from repro._pool import _blas_setter, ordered_map
from repro.api.accuracy import accuracy_sweep


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


def _blas_threads(_=None):
    """This process's thread count of NumPy's bundled OpenBLAS (``None``: not found)."""

    for path in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
        lib = ctypes.CDLL(str(path))
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_"):
            if hasattr(lib, name):
                return getattr(lib, name)()
    return None


@pytest.fixture
def blas_setter():
    """The pool's thread setter; the test's thread count is restored after it."""

    setter = _blas_setter()
    before = _blas_threads()
    if setter is None or before is None:
        pytest.skip("no OpenBLAS thread setter found in this NumPy build")
    yield setter
    setter(before)


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


class TestOneBlasThreadPerWorker:
    def test_a_pool_worker_runs_one_blas_thread(self, blas_setter):
        # The parent runs two threads, so a worker that inherited them reads 2.
        blas_setter(2)
        assert ordered_map(_blas_threads, [0, 1], workers=2) == [1, 1]
        assert _blas_threads() == 2

    @pytest.mark.parametrize("block", ["layer1", "layer3_2"])
    def test_accuracy_records_do_not_depend_on_blas_threads(self, blas_setter, block):
        records = {}
        for threads in (1, 2):
            blas_setter(threads)
            records[threads] = accuracy_sweep(
                block, formats=["32:20", "16:8"], images=64, chunk_size=32
            ).records()
        assert records[1] == records[2]
