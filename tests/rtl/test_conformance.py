"""End-to-end iverilog conformance (skips cleanly without the toolchain)."""

from pathlib import Path

import numpy as np
import pytest

from repro.fixedpoint import QFormat
from repro.fpga.geometry import BlockGeometry
from repro.fpga.odeblock_hw import BlockWeights
from repro.rtl import (
    GOLDEN_CASES,
    GOLDEN_GEOMETRY,
    emit_odeblock,
    emit_testbench,
    generate_vectors,
    golden_vectors,
    iverilog_available,
    run_conformance,
    write_vector_files,
)

pytestmark = pytest.mark.skipif(
    not iverilog_available(), reason="iverilog/vvp not on PATH"
)

TINY = BlockGeometry(name="tiny", in_channels=4, out_channels=4, height=4, width=4)


def _prepare(tmp_path, geometry, weights, qformat, vectors, n_units, time_concat=False):
    bundle = emit_odeblock(
        geometry, weights, qformat=qformat, n_units=n_units, time_concat=time_concat
    )
    bundle.write(tmp_path)
    write_vector_files(vectors, tmp_path)
    tb = emit_testbench(bundle, len(vectors.records), "stimulus.hex", "expected.hex")
    (tmp_path / "tb_odeblock.v").write_text(tb)
    return bundle


@pytest.mark.parametrize("word,frac", [(16, 8), (12, 6), (8, 4)])
def test_simulated_outputs_bit_identical_to_fxarray(tmp_path, word, frac):
    qf = QFormat(word, frac)
    weights = BlockWeights.random(TINY, np.random.default_rng(21), scale=0.5)
    vec = generate_vectors(
        TINY, weights, qformat=qf, images=2, iterations=2, seed=13, input_scale=0.6
    )
    _prepare(tmp_path, TINY, weights, qf, vec, n_units=2)
    result = run_conformance(tmp_path)
    assert result.available
    assert result.passed, result.stdout
    assert result.vectors == len(vec.records)
    assert result.words == len(vec.records) * vec.words_per_map


@pytest.mark.parametrize("name", sorted(GOLDEN_CASES))
def test_golden_saturation_cases_conform(tmp_path, name):
    vec, weights = golden_vectors(name)
    _prepare(tmp_path, GOLDEN_GEOMETRY, weights, GOLDEN_CASES[name], vec, n_units=2)
    result = run_conformance(tmp_path)
    assert result.passed, result.stdout


def test_time_concat_design_conforms(tmp_path):
    qf = QFormat(16, 8)
    weights = BlockWeights.random(TINY, np.random.default_rng(5), scale=0.5, time_concat=True)
    vec = generate_vectors(
        TINY, weights, qformat=qf, images=1, iterations=3, seed=8, time_concat=True
    )
    _prepare(tmp_path, TINY, weights, qf, vec, n_units=4, time_concat=True)
    result = run_conformance(tmp_path)
    assert result.passed, result.stdout


def test_idle_pe_design_conforms(tmp_path):
    # More units than channels: idle PEs must not corrupt the datapath.
    qf = QFormat(16, 8)
    weights = BlockWeights.random(TINY, np.random.default_rng(6), scale=0.5)
    vec = generate_vectors(TINY, weights, qformat=qf, images=1, iterations=1, seed=3)
    _prepare(tmp_path, TINY, weights, qf, vec, n_units=8)
    result = run_conformance(tmp_path)
    assert result.passed, result.stdout


def test_tampered_expected_vector_fails(tmp_path):
    # Sanity check that the testbench actually compares: flip one expected
    # word and the run must FAIL.
    qf = QFormat(16, 8)
    weights = BlockWeights.random(TINY, np.random.default_rng(21), scale=0.5)
    vec = generate_vectors(TINY, weights, qformat=qf, images=1, iterations=1, seed=13)
    _prepare(tmp_path, TINY, weights, qf, vec, n_units=2)
    exp = tmp_path / "expected.hex"
    lines = exp.read_text().strip().splitlines()
    lines[0] = format((int(lines[0], 16) ^ 0x1), "04x")
    exp.write_text("\n".join(lines) + "\n")
    result = run_conformance(tmp_path)
    assert result.available and not result.passed
    assert result.mismatches >= 1
