"""Vector generation: determinism, chain consistency, integer encoding."""

import numpy as np

from repro.fixedpoint import QFormat
from repro.fpga.geometry import BlockGeometry
from repro.fpga.odeblock_hw import BlockWeights, HardwareODEBlock
from repro.rtl import (
    generate_vectors,
    write_vector_files,
)

TINY = BlockGeometry(name="tiny", in_channels=4, out_channels=4, height=4, width=4)
Q16 = QFormat(16, 8)


def _vectors(**kw):
    args = dict(qformat=Q16, images=2, iterations=3, seed=9, input_scale=0.5)
    args.update(kw)
    weights = BlockWeights.random(TINY, np.random.default_rng(4), scale=0.5)
    return generate_vectors(TINY, weights, **args)


def test_record_count_and_shapes():
    vec = _vectors()
    assert len(vec.records) == 2 * 3
    for rec in vec.records:
        assert rec.stimulus.shape == (vec.words_per_map,)
        assert rec.expected.shape == (vec.words_per_map,)


def test_generation_is_deterministic():
    a, b = _vectors(), _vectors()
    assert a.stimulus_hex() == b.stimulus_hex()
    assert a.expected_hex() == b.expected_hex()
    assert a.manifest() == b.manifest()


def test_chain_consistency_with_run_iterations_batch():
    # Record i's expected state is record i+images' stimulus, and the final
    # expected state equals what run_iterations_batch produces end-to-end.
    weights = BlockWeights.random(TINY, np.random.default_rng(4), scale=0.5)
    vec = generate_vectors(
        TINY, weights, qformat=Q16, images=2, iterations=3, seed=9, input_scale=0.5
    )
    for i in range(len(vec.records) - 2):
        np.testing.assert_array_equal(vec.records[i].expected, vec.records[i + 2].stimulus)

    hw = HardwareODEBlock(TINY, weights, qformat=Q16)
    rng = np.random.default_rng(9)
    state = rng.normal(0.0, 0.5, size=(2, 4, 4, 4))
    final = hw.run_iterations_batch(state, iterations=3)
    final_raw = Q16.to_fixed(final)
    np.testing.assert_array_equal(vec.records[-2].expected, final_raw[0].ravel())
    np.testing.assert_array_equal(vec.records[-1].expected, final_raw[1].ravel())


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
