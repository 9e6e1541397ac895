"""Vector generation: determinism, chain consistency, integer encoding."""

import numpy as np
import pytest
from vector_image import read_vectors

from repro.fixedpoint import QFormat
from repro.fpga.geometry import BlockGeometry
from repro.fpga.odeblock_hw import HardwareODEBlock
from repro.rtl import (
    generate_vectors,
    random_block_weights,
    write_vector_files,
)

TINY = BlockGeometry(name="tiny", in_channels=4, out_channels=4, height=4, width=4)
Q16 = QFormat(16, 8)


def _vectors(**kw):
    args = dict(qformat=Q16, images=2, iterations=3, seed=9, input_scale=0.5)
    args.update(kw)
    weights = random_block_weights(TINY, seed=4, scale=0.5)
    return generate_vectors(TINY, weights, **args)


def test_record_count_and_shapes():
    vec = _vectors()
    assert len(vec.records) == 2 * 3
    for rec in vec.records:
        assert rec.stimulus.shape == (vec.words_per_map,)
        assert rec.expected.shape == (vec.words_per_map,)


def test_generation_is_deterministic():
    a, b = _vectors(), _vectors()
    assert a.to_bytes() == b.to_bytes()
    assert a.stimulus_hex() == b.stimulus_hex()
    assert a.expected_hex() == b.expected_hex()


def test_chain_consistency_with_run_iterations_batch():
    # Record i's expected state is record i+images' stimulus, and the final
    # expected state equals what run_iterations_batch produces end-to-end.
    weights = random_block_weights(TINY, seed=4, scale=0.5)
    vec = generate_vectors(
        TINY, weights, qformat=Q16, images=2, iterations=3, seed=9, input_scale=0.5
    )
    for i in range(len(vec.records) - 2):
        np.testing.assert_array_equal(vec.records[i].expected, vec.records[i + 2].stimulus)

    hw = HardwareODEBlock(TINY, weights, n_units=4, qformat=Q16)
    rng = np.random.default_rng(9)
    state = rng.normal(0.0, 0.5, size=(2, 4, 4, 4))
    final, _, _ = hw.run_iterations_batch(state, iterations=3)
    final_raw = Q16.to_fixed(final)
    np.testing.assert_array_equal(vec.records[-2].expected, final_raw[0].ravel())
    np.testing.assert_array_equal(vec.records[-1].expected, final_raw[1].ravel())


def test_n_units_does_not_change_vectors():
    assert _vectors(n_units=1).to_bytes() == _vectors(n_units=8).to_bytes()


def test_hex_encoding_is_twos_complement():
    vec = _vectors()
    lines = vec.stimulus_hex().strip().splitlines()
    # 16-bit words -> 4 hex digits, negatives wrap into the upper half.
    assert all(len(ln) == 4 for ln in lines)
    rec_pos, neg = next(
        (i, rec) for i, rec in enumerate(vec.records) if (rec.stimulus < 0).any()
    )
    idx = int(np.argmax(neg.stimulus < 0))
    value = int(neg.stimulus[idx])
    line = lines[rec_pos * (vec.words_per_map + 1) + idx]
    assert int(line, 16) == value + (1 << 16)


def test_binary_round_trip_is_bit_exact():
    vec = _vectors()
    back = read_vectors(vec.to_bytes())
    assert back.qformat == vec.qformat
    assert len(back.records) == len(vec.records)
    for a, b in zip(vec.records, back.records):
        assert a.t_fx == b.t_fx
        np.testing.assert_array_equal(a.stimulus, b.stimulus)
        np.testing.assert_array_equal(a.expected, b.expected)


def test_binary_header_is_little_endian_and_int_only():
    data = _vectors().to_bytes()
    assert data[:4] == b"ODEV"
    # word_length 16 at offset 6, little-endian.
    assert data[6] == 16 and data[7] == 0


def test_from_bytes_rejects_bad_magic_and_version():
    data = bytearray(_vectors().to_bytes())
    bad = b"XXXX" + bytes(data[4:])
    with pytest.raises(ValueError, match="magic"):
        read_vectors(bad)
    data[4] = 99
    with pytest.raises(ValueError, match="version"):
        read_vectors(bytes(data))


def test_t_fx_advances_with_iterations():
    vec = _vectors(iterations=3)
    t_values = [rec.t_fx for rec in vec.records]
    # images=2 -> t repeats per pair, then advances by h=1.0 (256 in Q16.8).
    assert t_values == [0, 0, 256, 256, 512, 512]


def test_write_vector_files(tmp_path):
    vec = _vectors()
    paths = write_vector_files(vec, tmp_path)
    assert set(paths) == {"stimulus.hex", "expected.hex", "vectors.json"}
    assert paths["stimulus.hex"].read_text() == vec.stimulus_hex()
    # JSON manifest is deterministic (sorted keys).
    assert paths["vectors.json"].read_text().startswith("{\n  \"channels\"")
