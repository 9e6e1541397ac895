"""Committed golden vectors: regenerable bit-for-bit, saturation-heavy."""

from pathlib import Path

import numpy as np
import pytest
from vector_image import read_vectors

from repro.rtl import GOLDEN_CASES, golden_vectors, write_vector_files
from repro.rtl.vectors import GOLDEN_IMAGES, GOLDEN_ITERATIONS

GOLDEN_ROOT = Path(__file__).parent / "goldens"


@pytest.mark.parametrize("name", sorted(GOLDEN_CASES))
def test_golden_files_are_byte_identical_to_regeneration(name):
    case, vec, _ = golden_vectors(name)
    out = GOLDEN_ROOT / name
    assert (out / "stimulus.hex").read_text() == vec.stimulus_hex()
    assert (out / "expected.hex").read_text() == vec.expected_hex()
    assert (out / "vectors.bin").read_bytes() == vec.to_bytes()


@pytest.mark.parametrize("name", sorted(GOLDEN_CASES))
def test_golden_manifest_is_byte_identical_to_regeneration(name, tmp_path):
    # vectors.json records the shared recipe (geometry, step size, time
    # channel, record count) next to the Q-format of the case.
    _, vec, _ = golden_vectors(name)
    written = write_vector_files(vec, tmp_path)["vectors.json"].read_text()
    assert (GOLDEN_ROOT / name / "vectors.json").read_text() == written


@pytest.mark.parametrize("name", sorted(GOLDEN_CASES))
def test_golden_binary_parses_back(name):
    data = (GOLDEN_ROOT / name / "vectors.bin").read_bytes()
    vec = read_vectors(data)
    case = GOLDEN_CASES[name]
    assert vec.qformat == case.qformat
    assert len(vec.records) == GOLDEN_IMAGES * GOLDEN_ITERATIONS


@pytest.mark.parametrize("name", sorted(GOLDEN_CASES))
def test_goldens_are_saturation_heavy(name):
    # The whole point of the Q4/Q6 cases: a large fraction of the output
    # words must sit on the saturation rails.
    case, vec, _ = golden_vectors(name)
    qf = case.qformat
    expected = np.concatenate([rec.expected for rec in vec.records])
    on_rail = np.isin(expected, (qf.min_int, qf.max_int)).mean()
    assert on_rail > 0.25, f"{name}: only {on_rail:.1%} of words saturate"


def test_regeneration_is_stable_across_calls():
    a = golden_vectors("q4_2_saturation")[1].to_bytes()
    b = golden_vectors("q4_2_saturation")[1].to_bytes()
    assert a == b


def test_golden_hex_width_matches_word_length():
    for name, case in GOLDEN_CASES.items():
        digits = (case.word_length + 3) // 4
        lines = (GOLDEN_ROOT / name / "stimulus.hex").read_text().strip().splitlines()
        assert all(len(ln) == digits for ln in lines)
