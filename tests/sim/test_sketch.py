"""Conformance suite for the latency sample store.

:class:`~repro.sim.metrics.QuantileSketch` keeps every latency (or wait)
sample in a float64 buffer, so its percentiles are exact.  Three pillars:

* **Exact percentiles**: p50/p90/p95/p99 equal ``np.percentile`` over the
  inserted values across adversarial streams (bimodal, heavy-tail,
  constant, tiny), and ``stats()`` equals :func:`latency_stats` over the
  same values, including the NaN-not-zero semantics of an empty stream.
* **Merge-order invariance**: shard stores merged in any order yield
  identical quantiles (the shared-nothing fleet merge depends on this).
* **Compact storage**: 8 bytes per sample, no per-sample Python objects.
"""

from __future__ import annotations

import math
import pickle
from array import array

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.metrics import PERCENTILES, QuantileSketch, latency_stats

positive_values = st.floats(min_value=1e-9, max_value=1e9, allow_nan=False)
value_lists = st.lists(positive_values, min_size=1, max_size=400)


def fill(sketch: QuantileSketch, values) -> QuantileSketch:
    for value in values:
        sketch.insert(value)
    return sketch


def assert_exact(sketch: QuantileSketch, values) -> None:
    truth = np.percentile(np.asarray(values, dtype=np.float64), list(PERCENTILES))
    reported = sketch.stats().percentiles
    for q, exact in zip(PERCENTILES, truth):
        assert reported[q] == exact, (
            f"p{q}: store {reported[q]} vs numpy {exact} over {len(values)} samples"
        )


class TestAccuracy:
    """Percentiles equal the ``np.percentile`` oracle, not an estimate of it."""

    @settings(max_examples=300, deadline=None)
    @given(value_lists)
    def test_arbitrary_streams(self, values):
        assert_exact(fill(QuantileSketch(), values), values)

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(st.floats(min_value=1e-4, max_value=2e-4), min_size=1, max_size=100),
        st.lists(st.floats(min_value=5.0, max_value=6.0), min_size=1, max_size=100),
    )
    def test_bimodal(self, low_mode, high_mode):
        values = low_mode + high_mode
        assert_exact(fill(QuantileSketch(), values), values)

    def test_pareto_tail_spanning_six_decades(self):
        rng = np.random.default_rng(11)
        values = 1e-4 * (1.0 + rng.pareto(0.6, size=10_000))
        assert_exact(fill(QuantileSketch(), values), values)

    @settings(max_examples=100, deadline=None)
    @given(positive_values, st.integers(min_value=1, max_value=500))
    def test_constant_stream_is_exact(self, value, n):
        stats = fill(QuantileSketch(), [value] * n).stats()
        assert all(v == value for v in stats.percentiles.values())

    @settings(max_examples=200, deadline=None)
    @given(st.lists(positive_values, min_size=1, max_size=4))
    def test_tiny_streams(self, values):
        # n < 5: every percentile interpolates between just-inserted samples.
        assert_exact(fill(QuantileSketch(), values), values)

    def test_interpolation_matches_numpy_semantics(self):
        # p90 of [1,1,1,1000] is a linear interpolation (700.3), not a sample.
        values = [1.0, 1.0, 1.0, 1000.0]
        assert fill(QuantileSketch(), values).stats().percentiles[90] == pytest.approx(700.3)
        assert_exact(fill(QuantileSketch(), values), values)

    def test_extremes_are_exact(self):
        values = [3.7, 0.002, 81.0, 0.5]
        sketch = fill(QuantileSketch(), values)
        stats = sketch.stats()
        assert stats.minimum == min(values)
        assert stats.maximum == max(values)
        assert stats.mean == pytest.approx(np.mean(values), rel=1e-12)

    def test_zeros_are_representable(self):
        values = [0.0] * 10 + [1.0] * 10
        stats = fill(QuantileSketch(), values).stats()
        assert stats.minimum == 0.0
        assert stats.percentiles[50] == 0.5
        assert stats.percentiles[95] == 1.0


class TestMergeInvariance:
    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(st.lists(positive_values, min_size=0, max_size=60), min_size=2, max_size=6),
        st.randoms(use_true_random=False),
    )
    def test_merge_order_does_not_change_quantiles(self, shards, rnd):
        def merged(order):
            total = QuantileSketch()
            for i in order:
                total.merge(fill(QuantileSketch(), shards[i]))
            return total.stats().percentiles

        forward = list(range(len(shards)))
        shuffled = forward[:]
        rnd.shuffle(shuffled)
        a = list(merged(forward).values())
        b = list(merged(shuffled).values())
        assert a == b or (all(math.isnan(x) for x in a) and all(math.isnan(x) for x in b))

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.lists(positive_values, min_size=1, max_size=50), min_size=2, max_size=5))
    def test_merged_sketch_tracks_the_concatenated_stream(self, shards):
        values = [v for shard in shards for v in shard]
        total = QuantileSketch()
        for shard in shards:
            total.merge(fill(QuantileSketch(), shard))
        assert list(total.samples) == values
        assert_exact(total, values)

    def test_shards_merge_exactly(self):
        a = fill(QuantileSketch(), [1.0, 5.0])
        b = fill(QuantileSketch(), [2.0, 9.0])
        merged = a.merge(b)
        assert merged.samples == array("d", [1.0, 5.0, 2.0, 9.0])
        assert merged.stats() == latency_stats([1.0, 5.0, 2.0, 9.0])

    def test_merging_past_the_old_buffer_stays_exact(self):
        rng = np.random.default_rng(3)
        left, right = np.exp(rng.normal(size=4_000)), np.exp(rng.normal(size=4_000))
        merged = fill(QuantileSketch(), left).merge(fill(QuantileSketch(), right))
        assert merged.stats() == latency_stats(np.concatenate([left, right]))

    def test_merge_leaves_the_donor_untouched(self):
        donor = fill(QuantileSketch(), [1.0, 2.0, 3.0])
        before = donor.stats()
        QuantileSketch().merge(donor)
        assert donor.stats() == before


class TestExactPath:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(positive_values, min_size=1, max_size=200))
    def test_stats_bit_identical_to_latency_stats(self, values):
        assert fill(QuantileSketch(), values).stats() == latency_stats(values)

    def test_long_streams_are_exact(self):
        # Well past the 4,096 samples the store once buffered before binning.
        rng = np.random.default_rng(7)
        values = np.exp(rng.normal(loc=-6.0, scale=2.5, size=20_000))
        sketch = fill(QuantileSketch(), values)
        stats = sketch.stats()
        assert stats == latency_stats(values)
        assert stats.count == 20_000
        assert stats.mean == pytest.approx(values.mean(), rel=1e-12)

    def test_storage_is_eight_bytes_per_sample(self):
        sketch = fill(QuantileSketch(), [0.5, 1.5])
        assert sketch.samples.typecode == "d"
        assert sketch.samples.itemsize == 8

    def test_empty_sketch_is_nan_not_zero(self):
        sketch = QuantileSketch()
        stats = sketch.stats()
        assert stats.count == 0
        assert math.isnan(stats.mean)
        assert all(math.isnan(v) for v in stats.percentiles.values())

    def test_rejects_invalid_samples(self):
        sketch = QuantileSketch()
        for bad in (-1.0, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="finite and non-negative"):
                sketch.insert(bad)
        assert sketch.stats().count == 0

    def test_sketches_pickle_roundtrip(self):
        # Shard results cross process boundaries.
        sketch = fill(QuantileSketch(), [0.5, 1.5, 2.5, 1.0])
        clone = pickle.loads(pickle.dumps(sketch))
        assert clone.stats() == sketch.stats()
        assert clone.samples == sketch.samples
