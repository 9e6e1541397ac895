"""Property-based tests of the closed-form plan/timing kernels (hypothesis).

The batch-evaluation engine replaced the per-unique-key scalar BRAM/timing
calls with array kernels; these tests pin the kernels to the scalar truth
and to the structural invariants the design space relies on:

* BRAM — tile counts are monotone in the byte count, never under-allocate
  capacity, match :func:`plan_block_allocation` exactly, and a ``fits``
  verdict implies the total is within the device capacity;
* timing — the achievable frequency is monotone non-increasing in the
  MAC-unit count, kernels match :meth:`TimingModel.analyze` bit-for-bit,
  and the slack sign always agrees with the closure verdict;
* scheduler — the closed-form cycle count equals stepping the schedule.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fixedpoint import QFormat
from repro.fpga import (
    LAYER1,
    LAYER2_2,
    LAYER3_2,
    ZYNQ_XC7Z020,
    BRAM36_BYTES,
    TimingModel,
    bram_fits_kernel,
    bram_tiles_kernel,
    critical_path_ns_kernel,
    fmax_hz_kernel,
    meets_timing_kernel,
    plan_block_allocation,
    slack_ns_kernel,
    tiles_for_bytes,
    tiles_for_bytes_kernel,
)
from repro.fpga.geometry import BlockGeometry
from scheduler import DatapathScheduler, schedule_cycles_kernel

GEOMETRIES = (LAYER1, LAYER2_2, LAYER3_2)


@st.composite
def geometries(draw) -> BlockGeometry:
    """A small but structurally valid block geometry."""

    channels = draw(st.sampled_from([1, 2, 3, 8, 16, 32, 64]))
    size = draw(st.sampled_from([2, 4, 8, 16, 32]))
    return BlockGeometry(
        name="prop", in_channels=channels, out_channels=channels, height=size, width=size
    )


@st.composite
def qformat_pairs(draw):
    word_length = draw(st.integers(min_value=2, max_value=64))
    fraction_bits = draw(st.integers(min_value=0, max_value=word_length - 1))
    return QFormat(word_length, fraction_bits)


class TestBramKernels:
    @given(st.integers(min_value=0, max_value=10**9), st.integers(min_value=0, max_value=10**9))
    @settings(max_examples=60, deadline=None)
    def test_tiles_monotone_in_bytes(self, a, b):
        lo, hi = sorted((a, b))
        assert tiles_for_bytes_kernel(lo) <= tiles_for_bytes_kernel(hi)

    @given(st.integers(min_value=0, max_value=10**9))
    @settings(max_examples=60, deadline=None)
    def test_tiles_never_under_allocate(self, num_bytes):
        tiles = int(tiles_for_bytes_kernel(num_bytes))
        assert tiles * BRAM36_BYTES >= num_bytes
        # ... and never over-allocate by a full spare tile.
        assert num_bytes == 0 or (tiles - 1) * BRAM36_BYTES < num_bytes

    @given(st.integers(min_value=0, max_value=10**9))
    @settings(max_examples=60, deadline=None)
    def test_kernel_matches_scalar_helper(self, num_bytes):
        assert int(tiles_for_bytes_kernel(num_bytes)) == tiles_for_bytes(num_bytes)

    @given(geometries(), qformat_pairs())
    @settings(max_examples=60, deadline=None)
    def test_total_tiles_match_scalar_plan(self, geometry, fmt):
        plan = plan_block_allocation(geometry, n_units=16, qformat=fmt)
        assert int(bram_tiles_kernel(geometry, fmt.bytes_per_value)) == plan.total_tiles

    @given(qformat_pairs(), st.sampled_from(GEOMETRIES))
    @settings(max_examples=60, deadline=None)
    def test_fits_implies_within_capacity(self, fmt, geometry):
        tiles = bram_tiles_kernel(geometry, fmt.bytes_per_value)
        if bool(bram_fits_kernel(tiles)):
            assert int(tiles) <= ZYNQ_XC7Z020.bram36

    def test_vectorized_over_format_axis(self):
        bpv = np.array([1, 2, 2, 4, 8])
        tiles = bram_tiles_kernel(LAYER3_2, bpv)
        expected = [
            plan_block_allocation(LAYER3_2, qformat=QFormat(8 * b, 4 * b - 1)).total_tiles
            for b in bpv
        ]
        # bytes_per_value is what matters; any format with that storage width
        # gives the same plan.
        assert tiles.tolist() == expected

    def test_tiles_monotone_in_bytes_per_value(self):
        bpv = np.arange(1, 9)
        tiles = bram_tiles_kernel(LAYER2_2, bpv)
        assert all(a <= b for a, b in zip(tiles, tiles[1:]))


class TestTimingKernels:
    @given(st.lists(st.integers(min_value=1, max_value=4096), min_size=2, max_size=32))
    @settings(max_examples=60, deadline=None)
    def test_fmax_monotone_non_increasing_in_units(self, units):
        units = np.sort(np.asarray(units, dtype=np.int64))
        cfg = TimingModel()
        fmax = fmax_hz_kernel(
            critical_path_ns_kernel(units, cfg.base_delay_ns, cfg.per_level_delay_ns)
        )
        assert np.all(np.diff(fmax) <= 0)

    @given(
        st.integers(min_value=1, max_value=4096),
        st.floats(min_value=1e6, max_value=1e9, allow_nan=False),
    )
    @settings(max_examples=60, deadline=None)
    def test_kernels_match_scalar_analyze(self, n_units, target_hz):
        model = TimingModel()
        report = model.analyze(n_units, target_hz=target_hz)
        cfg = model
        path = critical_path_ns_kernel(n_units, cfg.base_delay_ns, cfg.per_level_delay_ns)
        assert float(path) == report.critical_path_ns
        assert float(fmax_hz_kernel(path)) == report.fmax_hz
        assert float(slack_ns_kernel(path, target_hz)) == report.slack_ns
        assert bool(meets_timing_kernel(path, target_hz)) == report.meets_timing

    @given(
        st.integers(min_value=1, max_value=4096),
        st.floats(min_value=1e6, max_value=1e9, allow_nan=False),
    )
    @settings(max_examples=60, deadline=None)
    def test_slack_sign_agrees_with_closure(self, n_units, target_hz):
        cfg = TimingModel()
        path = critical_path_ns_kernel(n_units, cfg.base_delay_ns, cfg.per_level_delay_ns)
        assert (float(slack_ns_kernel(path, target_hz)) >= 0) == bool(
            meets_timing_kernel(path, target_hz)
        )

    def test_analyze_batch_matches_scalar_loop(self):
        model = TimingModel()
        units = np.array([1, 2, 3, 5, 8, 13, 16, 31, 32, 64, 100])
        clocks = np.linspace(50e6, 150e6, len(units))
        batch = model.analyze_batch(units, clocks)
        for i, (n, hz) in enumerate(zip(units, clocks)):
            report = model.analyze(int(n), target_hz=float(hz))
            assert batch["critical_path_ns"][i] == report.critical_path_ns
            assert batch["fmax_hz"][i] == report.fmax_hz
            assert batch["slack_ns"][i] == report.slack_ns
            assert bool(batch["meets_timing"][i]) == report.meets_timing

    def test_analyze_batch_rejects_non_positive_units(self):
        with pytest.raises(ValueError):
            TimingModel().analyze_batch([4, 0, 16])


class TestSchedulerKernel:
    @given(st.sampled_from(GEOMETRIES), st.integers(min_value=1, max_value=128))
    @settings(max_examples=40, deadline=None)
    def test_closed_form_equals_stepped_schedule(self, geometry, n_units):
        scheduler = DatapathScheduler()
        stepped = scheduler.simulate_block(geometry, n_units).total_cycles
        assert float(scheduler.total_cycles_batch(geometry, n_units)) == stepped

    @given(geometries(), st.integers(min_value=1, max_value=128))
    @settings(max_examples=40, deadline=None)
    def test_closed_form_with_unfused_relu(self, geometry, n_units):
        scheduler = DatapathScheduler(relu_fused=False)
        stepped = scheduler.simulate_block(geometry, n_units).total_cycles
        assert float(scheduler.total_cycles_batch(geometry, n_units)) == stepped

    def test_vectorized_unit_axis(self):
        scheduler = DatapathScheduler()
        units = np.arange(1, 70)
        vec = scheduler.total_cycles_batch(LAYER2_2, units)
        assert vec.shape == units.shape
        assert all(
            vec[i] == scheduler.simulate_block(LAYER2_2, int(n)).total_cycles
            for i, n in enumerate(units)
        )

    def test_kernel_function_defaults_match_scheduler_defaults(self):
        assert float(schedule_cycles_kernel(LAYER1, 16)) == (
            DatapathScheduler().simulate_block(LAYER1, 16).total_cycles
        )
