"""Tests of the streaming / sharded `accuracy_sweep` execution modes.

The contract under test: chunked sweeps are a pure function of
``(seed, chunk_size)`` — never of the worker count (per-chunk
``default_rng((seed, chunk))`` input streams, accumulators reduced in
ascending chunk order) — and the streaming accumulators reproduce the
whole-batch `error_report` formulas exactly when the batch is one chunk.
"""

from __future__ import annotations

import json

import numpy as np
import pytest
from error_reference import error_report

from repro.api.accuracy import (
    AccuracySweepResult,
    _chunk_bounds,
    _chunk_inputs,
    _finalize_error_stats,
    _measure_chunk,
    _merge_reference_stats,
    _reduce_error_stats,
    accuracy_sweep,
)
from repro.cli import main
from repro.fixedpoint import Q16, FxArray, QFormat
from repro.fpga import GROUP_ELEMENTS, BlockWeights, HardwareODEBlock
from repro.fpga.geometry import block_geometry
from repro.fpga.ops import hw_batch_norm, hw_conv2d, hw_relu

FORMATS = [(32, 20), (12, 6)]


def chunked_sweep(**kwargs):
    defaults = dict(
        block="layer1", formats=FORMATS, images=10, seed=7, chunk_size=4, workers=1
    )
    defaults.update(kwargs)
    return accuracy_sweep(**defaults)


class TestChunkPlumbing:
    def test_chunk_bounds_cover_the_batch_without_overlap(self):
        assert _chunk_bounds(10, 4) == [(0, 4), (4, 8), (8, 10)]
        assert _chunk_bounds(4, 4) == [(0, 4)]
        assert _chunk_bounds(3, 8) == [(0, 3)]

    def test_chunk_inputs_depend_only_on_seed_and_chunk(self):
        geometry = block_geometry("layer1")
        a = _chunk_inputs(3, 1, 4, geometry, 0.5)
        b = _chunk_inputs(3, 1, 4, geometry, 0.5)
        c = _chunk_inputs(3, 2, 4, geometry, 0.5)
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, c)

    @pytest.mark.parametrize(
        "fmt, input_scale",
        [
            pytest.param(Q16, 0.5, id="16:8"),
            # Saturating formats: overflow_fraction > 0 and a large error.
            pytest.param(QFormat(6, 4), 4.0, id="6:4-saturating"),
            pytest.param(QFormat(4, 2), 4.0, id="4:2-saturating"),
            # All-zero inputs: the sqnr_db edge cases.
            pytest.param(Q16, 0.0, id="16:8-zero-input"),
        ],
    )
    def test_streamed_accumulators_match_error_report_on_one_chunk(self, fmt, input_scale):
        """Single-chunk streaming == the whole-batch ``error_report`` formulas, bitwise.

        The chunk is one full image group plus one image, so the grouped
        float reference must equal one whole-chunk pass.
        """

        geometry = block_geometry("layer1")
        rng = np.random.default_rng(0)
        weights = BlockWeights.random(geometry, rng, scale=0.1)
        n = GROUP_ELEMENTS // geometry.input_elements + 1
        z = rng.normal(0.0, input_scale, size=(n, 16, 32, 32))
        ref_stats, (acc,) = _measure_chunk(z, geometry, weights, [fmt])
        stats = _finalize_error_stats(_reduce_error_stats([acc]))

        from repro.api.accuracy import _float_forward, _reference_stats

        stages = _float_forward(weights, z)
        hw = HardwareODEBlock(geometry, weights, qformat=fmt)
        report = error_report(stages["output"], hw.dynamics_batch(z), fmt)
        assert stats["max_abs_error"] == report.max_abs_error
        assert stats["rms_error"] == report.rms_error
        assert stats["sqnr_db"] == report.sqnr_db
        assert stats["overflow_fraction"] == report.overflow_fraction
        assert ref_stats["input_max"] == float(np.max(np.abs(z)))
        whole = _reference_stats(z, stages)
        assert ref_stats.keys() == whole.keys()
        for key, value in whole.items():
            np.testing.assert_array_equal(ref_stats[key], value)

    def test_one_chunk_measures_every_format_against_one_reference(self):
        geometry = block_geometry("layer1")
        rng = np.random.default_rng(2)
        weights = BlockWeights.random(geometry, rng, scale=0.1)
        z = rng.normal(0.0, 0.5, size=(2, 16, 32, 32))
        formats = [QFormat(32, 20), QFormat(8, 4)]
        ref_stats, accs = _measure_chunk(z, geometry, weights, formats)
        assert len(accs) == len(formats)
        for fmt, acc in zip(formats, accs):
            _, (alone,) = _measure_chunk(z, geometry, weights, [fmt])
            assert acc == alone
        assert ref_stats["input_max"] == float(np.max(np.abs(z)))

    def test_merge_reference_stats_is_exact_maxmin_reduction(self):
        geometry = block_geometry("layer1")
        rng = np.random.default_rng(1)
        weights = BlockWeights.random(geometry, rng, scale=0.1)
        za = rng.normal(0.0, 0.5, size=(2, 16, 32, 32))
        zb = rng.normal(0.0, 0.5, size=(2, 16, 32, 32))

        from repro.api.accuracy import _float_forward, _reference_stats

        sa = _reference_stats(za, _float_forward(weights, za))
        sb = _reference_stats(zb, _float_forward(weights, zb))
        whole = _reference_stats(
            np.concatenate([za, zb]),
            _float_forward(weights, np.concatenate([za, zb])),
        )
        merged = _merge_reference_stats([sa, sb])
        assert merged["input_max"] == whole["input_max"]
        assert merged["hidden_max"] == whole["hidden_max"]
        np.testing.assert_array_equal(merged["centered1_max"], whole["centered1_max"])
        np.testing.assert_array_equal(merged["sigma2_min"], whole["sigma2_min"])


def _whole_batch_datapath(weights, z, fmt):
    """The fixed-point pipeline with each of its five steps over the whole batch."""

    q = lambda values: FxArray.from_float(values, fmt)  # noqa: E731
    h = hw_conv2d(q(z), q(weights.conv1_weight))
    h = hw_relu(hw_batch_norm(h, q(weights.bn1_gamma), q(weights.bn1_beta)))
    h = hw_conv2d(h, q(weights.conv2_weight))
    return hw_batch_norm(h, q(weights.bn2_gamma), q(weights.bn2_beta)).to_float()


@pytest.mark.parametrize("block", ["layer1", "layer2_2"])
def test_grouped_chunk_sums_equal_the_whole_batch_pipeline(block):
    """Nine images span three image groups, yet the chunk's error sums are
    bit-identical to those of one whole-batch pass of both pipelines: the
    grouped outputs keep the whole-batch values and memory order, so the
    sums reduce in the same order."""

    from repro.api.accuracy import _float_forward

    geometry = block_geometry(block)
    rng = np.random.default_rng(0)
    weights = BlockWeights.random(geometry, rng)
    z = rng.normal(0.0, 0.5, size=(9, geometry.in_channels, geometry.height, geometry.width))
    reference = _float_forward(weights, z)["output"]
    for fmt in (QFormat(32, 20), Q16, QFormat(8, 4), QFormat(4, 2)):
        _, (acc,) = _measure_chunk(z, geometry, weights, [fmt])
        error = _whole_batch_datapath(weights, z, fmt) - reference
        assert acc["sse"] == float(np.sum(np.square(error)))
        assert acc["ssr"] == float(np.sum(np.square(reference)))
        assert acc["max_abs"] == float(np.max(np.abs(error)))


class TestWorkerInvariance:
    def test_workers_1_equals_workers_4(self):
        """The issue's headline assertion: shard count moves nothing."""

        serial = chunked_sweep(workers=1)
        sharded = chunked_sweep(workers=4)
        assert serial.records() == sharded.records()

    def test_workers_1_equals_workers_2_with_saturating_formats(self):
        formats = [(32, 20), (8, 4), (4, 2)]
        serial = chunked_sweep(formats=formats, images=7, chunk_size=3, workers=1)
        sharded = chunked_sweep(formats=formats, images=7, chunk_size=3, workers=2)
        assert serial.records() == sharded.records()
        assert max(p.overflow_fraction for p in serial.points) > 0.0

    def test_float_reference_runs_once_per_chunk(self, monkeypatch):
        """The reference is format-independent: n_chunks runs, not formats x chunks."""

        from repro.api import accuracy

        calls = []
        original = accuracy._float_forward

        def counting(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(accuracy, "_float_forward", counting)
        result = chunked_sweep(formats=[(32, 20), (16, 8), (12, 6)], images=10, chunk_size=4)
        assert result.chunks == 3
        assert len(calls) == result.chunks

    def test_chunked_results_are_deterministic_across_runs(self):
        assert chunked_sweep().records() == chunked_sweep().records()

    def test_chunk_size_is_part_of_the_contract(self):
        """Different chunking -> different (but each deterministic) streams."""

        a = chunked_sweep(chunk_size=4)
        b = chunked_sweep(chunk_size=5)
        assert a.records() != b.records()

    def test_partial_final_chunk_is_handled(self):
        result = chunked_sweep(images=9, chunk_size=4)
        assert result.chunks == 3
        assert len(result) == len(FORMATS)


class TestValidationAndEcho:
    def test_workers_require_chunk_size(self):
        with pytest.raises(ValueError, match="requires chunk_size"):
            accuracy_sweep(block="layer1", images=4, workers=2)

    @pytest.mark.parametrize(
        "bad, name",
        [
            pytest.param({"workers": 0}, "workers", id="workers=0"),
            pytest.param({"chunk_size": 0}, "chunk_size", id="chunk_size=0"),
            pytest.param({"images": 0}, "images", id="images=0"),
            # Non-integers raise instead of truncating: chunk_size=2.5 would
            # otherwise run as 2 and change the seeded numbers.
            pytest.param({"workers": 2.5, "chunk_size": 2}, "workers", id="workers=2.5"),
            pytest.param({"chunk_size": 2.5}, "chunk_size", id="chunk_size=2.5"),
            pytest.param({"images": 2.5}, "images", id="images=2.5"),
            pytest.param({"images": "4"}, "images", id="images=str"),
        ],
    )
    def test_bad_worker_and_chunk_values(self, bad, name):
        with pytest.raises(ValueError, match=f"{name} must be a positive integer"):
            accuracy_sweep(**{"block": "layer1", "images": 4, **bad})

    def test_numpy_integers_are_accepted(self):
        counts = dict(images=np.int64(10), chunk_size=np.int32(4), workers=np.int64(1))
        result = chunked_sweep(**counts)
        assert result.records() == chunked_sweep().records()
        echo = result.reproducibility
        assert (echo["images"], echo["chunk_size"], echo["workers"]) == (10, 4, 1)
        assert all(type(echo[key]) is int for key in ("images", "chunk_size", "workers"))

    def test_reproducibility_echo_fields(self):
        result = chunked_sweep(images=10, chunk_size=4, workers=2)
        echo = result.reproducibility
        assert echo["seed"] == 7
        assert echo["chunk_size"] == 4
        assert echo["chunks"] == 3
        assert echo["workers"] == 2
        assert echo["worker_count_invariant"] is True
        assert "per-chunk" in echo["generator"]

    def test_legacy_mode_reports_single_stream(self):
        result = accuracy_sweep(block="layer1", formats=FORMATS, images=2)
        echo = result.reproducibility
        assert echo["chunk_size"] is None and echo["chunks"] == 1
        assert "single-stream" in echo["generator"]

    def test_pareto_front_carries_the_echo(self):
        front = chunked_sweep().pareto_front()
        assert front.reproducibility["chunk_size"] == 4

    def test_to_json_carries_the_echo(self):
        payload = json.loads(chunked_sweep().to_json())
        assert payload["reproducibility"]["chunks"] == 3
        assert len(payload["points"]) == len(FORMATS)


class TestStreamingCli:
    def run(self, capsys, *argv) -> str:
        assert main(list(argv)) == 0
        return capsys.readouterr().out

    def test_workers_and_chunk_size_flags(self, capsys):
        base = (
            "accuracy-sweep", "--block", "layer1", "--formats", "16:8",
            "--images", "6", "--chunk-size", "3",
        )
        serial = self.run(capsys, *base, "--workers", "1", "--json")
        sharded = self.run(capsys, *base, "--workers", "2", "--json")
        serial_data, sharded_data = json.loads(serial), json.loads(sharded)
        assert serial_data["points"] == sharded_data["points"]
        assert sharded_data["reproducibility"]["workers"] == 2

    def test_table_echoes_chunking(self, capsys):
        out = self.run(
            capsys, "accuracy-sweep", "--block", "layer1", "--formats", "16:8",
            "--images", "4", "--chunk-size", "2",
        )
        assert "reproducibility:" in out
        assert "chunk_size=2" in out and "chunks=2" in out

    def test_workers_without_chunk_size_is_clean_error(self, capsys):
        assert main(["accuracy-sweep", "--images", "4", "--workers", "2"]) == 2
        assert "requires chunk_size" in capsys.readouterr().err
