"""Conformance suite for the streaming quantile sketch.

The fleet simulator replaces stored per-request latencies with
:class:`~repro.sim.metrics.QuantileSketch`; this suite is what makes that
replacement falsifiable.  Three pillars:

* **1 % relative error vs ``np.percentile``** for p50/p90/p95/p99 across
  adversarial distributions — bimodal, heavy-tail, constant, tiny (n < 5) —
  with the sketch *forced* to spill (spilled before its first insert), so the bound is
  exercised on the binned estimator, not the exact buffer.
* **Merge-order invariance**: shard sketches merged in any order yield
  identical quantiles (the shared-nothing fleet merge depends on this).
* **Bit-identity on the exact path**: an unspilled sketch's ``stats()``
  equals :func:`latency_stats` exactly, including the NaN-not-zero empty
  semantics from PR 6.
"""

from __future__ import annotations

import math
import pickle
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.metrics import (
    DEFAULT_EXACT_THRESHOLD,
    PERCENTILES,
    QuantileSketch,
    latency_stats,
)

#: The conformance bar from the issue: 1 % relative error against the exact
#: oracle.  The default sketch resolution guarantees 0.5 %.
REL_TOL = 0.01

positive_values = st.floats(min_value=1e-9, max_value=1e9, allow_nan=False)
value_lists = st.lists(positive_values, min_size=1, max_size=400)


def fill(sketch: QuantileSketch, values) -> None:
    for value in values:
        sketch.insert(value)


def empty_spilled_sketch() -> QuantileSketch:
    """An empty sketch already on the binned path, as after a spill."""

    sketch = QuantileSketch()
    sketch._spill()
    return sketch


def spilled_sketch(values) -> QuantileSketch:
    """A sketch forced onto the binned path regardless of stream size."""

    sketch = empty_spilled_sketch()
    fill(sketch, values)
    assert sketch._samples is None
    return sketch


def assert_within_tolerance(sketch: QuantileSketch, values) -> None:
    exact = np.percentile(np.asarray(values, dtype=np.float64), list(PERCENTILES))
    estimates = sketch.percentiles(list(PERCENTILES))
    for q, truth, est in zip(PERCENTILES, exact, estimates):
        assert est == pytest.approx(truth, rel=REL_TOL, abs=1e-12), (
            f"p{q}: sketch {est} vs exact {truth} over {len(values)} samples"
        )


class TestBinnedAccuracy:
    """The 1 % bound on the spilled (bounded-memory) estimator."""

    @settings(max_examples=300, deadline=None)
    @given(value_lists)
    def test_arbitrary_streams(self, values):
        assert_within_tolerance(spilled_sketch(values), values)

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(st.floats(min_value=1e-4, max_value=2e-4), min_size=1, max_size=100),
        st.lists(st.floats(min_value=5.0, max_value=6.0), min_size=1, max_size=100),
    )
    def test_bimodal(self, low_mode, high_mode):
        values = low_mode + high_mode
        assert_within_tolerance(spilled_sketch(values), values)

    def test_heavy_tail(self):
        rng = np.random.default_rng(7)
        values = np.exp(rng.normal(loc=-6.0, scale=2.5, size=20_000))  # lognormal
        assert_within_tolerance(spilled_sketch(values), values)

    def test_pareto_tail_spanning_six_decades(self):
        rng = np.random.default_rng(11)
        values = 1e-4 * (1.0 + rng.pareto(0.6, size=10_000))
        assert_within_tolerance(spilled_sketch(values), values)

    @settings(max_examples=100, deadline=None)
    @given(positive_values, st.integers(min_value=1, max_value=500))
    def test_constant_stream_is_exact(self, value, n):
        sketch = spilled_sketch([value] * n)
        for estimate in sketch.percentiles(list(PERCENTILES)):
            assert estimate == value

    @settings(max_examples=200, deadline=None)
    @given(st.lists(positive_values, min_size=1, max_size=4))
    def test_tiny_streams(self, values):
        # n < 5: every percentile interpolates between just-inserted samples.
        assert_within_tolerance(spilled_sketch(values), values)

    def test_interpolation_matches_numpy_semantics(self):
        # The adversarial case for naive bin quantiles: p90 of [1,1,1,1000]
        # is an interpolation (699.3...), not a bin edge.
        values = [1.0, 1.0, 1.0, 1000.0]
        truth = float(np.percentile(values, 90))
        est = spilled_sketch(values).percentiles([90])[0]
        assert est == pytest.approx(truth, rel=REL_TOL)

    def test_extremes_are_exact(self):
        values = [3.7, 0.002, 81.0, 0.5]
        sketch = spilled_sketch(values)
        assert sketch.percentiles([0])[0] == min(values)
        assert sketch.percentiles([100])[0] == max(values)
        stats = sketch.stats()
        assert stats.minimum == min(values)
        assert stats.maximum == max(values)
        assert stats.mean == pytest.approx(np.mean(values), rel=1e-12)

    def test_zeros_are_representable(self):
        values = [0.0] * 10 + [1.0] * 10
        sketch = spilled_sketch(values)
        assert sketch.percentiles([10])[0] == 0.0
        assert sketch.percentiles([95])[0] == pytest.approx(1.0, rel=REL_TOL)

    def test_bounded_memory(self):
        rng = np.random.default_rng(3)
        sketch = QuantileSketch()
        fill(sketch, np.exp(rng.normal(size=50_000)))
        # Spilling frees the exact buffer; later inserts go to the bins only.
        assert sketch._samples is None
        # Log-spaced bins over a lognormal: a few hundred, not 50k samples.
        assert sketch.bins_used < 5_000


class TestMergeInvariance:
    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(st.lists(positive_values, min_size=0, max_size=60), min_size=2, max_size=6),
        st.randoms(use_true_random=False),
    )
    def test_merge_order_does_not_change_quantiles(self, shards, rnd):
        def merged(order):
            total = empty_spilled_sketch()
            for i in order:
                shard = spilled_sketch(shards[i]) if shards[i] else empty_spilled_sketch()
                total.merge(shard)
            return total

        forward = list(range(len(shards)))
        shuffled = forward[:]
        rnd.shuffle(shuffled)
        a = merged(forward).percentiles(list(PERCENTILES))
        b = merged(shuffled).percentiles(list(PERCENTILES))
        assert a == b or (all(math.isnan(x) for x in a) and all(math.isnan(x) for x in b))

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.lists(positive_values, min_size=1, max_size=50), min_size=2, max_size=5))
    def test_merged_sketch_tracks_the_concatenated_stream(self, shards):
        values = [v for shard in shards for v in shard]
        total = empty_spilled_sketch()
        for shard in shards:
            total.merge(spilled_sketch(shard))
        assert total.count == len(values)
        assert_within_tolerance(total, values)

    def test_exact_shards_merge_exactly(self):
        a = QuantileSketch()
        fill(a, [1.0, 5.0])
        b = QuantileSketch()
        fill(b, [2.0, 9.0])
        merged = a.merge(b)
        assert merged._samples is not None
        assert merged.stats() == latency_stats([1.0, 5.0, 2.0, 9.0])

    def test_merging_past_the_threshold_spills(self):
        a = QuantileSketch()
        fill(a, range(1, DEFAULT_EXACT_THRESHOLD))
        b = QuantileSketch()
        fill(b, [3.0, 4.0])
        assert a._samples is not None and b._samples is not None
        assert a.merge(b)._samples is None

    def test_exact_flag_never_spills_on_merge_of_exact_shards(self):
        a = QuantileSketch(exact=True)
        fill(a, range(1, 10_001))
        b = QuantileSketch(exact=True)
        fill(b, range(1, 10_001))
        assert a.merge(b)._samples is not None

    def test_merge_leaves_the_donor_untouched(self):
        donor = spilled_sketch([1.0, 2.0, 3.0])
        before = donor.percentiles(list(PERCENTILES))
        empty_spilled_sketch().merge(donor)
        assert donor.count == 3
        assert donor.percentiles(list(PERCENTILES)) == before


class TestExactPath:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(positive_values, min_size=1, max_size=200))
    def test_stats_bit_identical_to_latency_stats(self, values):
        sketch = QuantileSketch()  # default threshold far above 200
        fill(sketch, values)
        assert sketch._samples is not None
        assert sketch.stats() == latency_stats(values)

    def test_exact_true_never_spills(self):
        sketch = QuantileSketch(exact=True)
        fill(sketch, (float(i) for i in range(1, 100_000)))
        assert sketch._samples is not None
        assert sketch.count == 99_999

    def test_empty_sketch_is_nan_not_zero(self):
        stats = QuantileSketch().stats()
        assert stats.count == 0
        assert math.isnan(stats.mean)
        assert all(math.isnan(v) for v in stats.percentiles.values())
        assert all(math.isnan(v) for v in empty_spilled_sketch().percentiles([50]))

    def test_rejects_invalid_samples(self):
        sketch = QuantileSketch()
        for bad in (-1.0, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="finite and non-negative"):
                sketch.insert(bad)

    def test_sketches_pickle_roundtrip(self):
        # Shard results cross process boundaries; both paths must survive.
        for sketch in (QuantileSketch(), spilled_sketch([0.5, 1.5, 2.5])):
            sketch.insert(1.0)
            clone = pickle.loads(pickle.dumps(sketch))
            assert clone.count == sketch.count
            assert clone.percentiles([50, 99]) == sketch.percentiles([50, 99])
