"""RTL emission: bundle contents, manifest schema, model consistency."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fixedpoint import Q20, QFormat
from repro.fpga.bram import plan_block_allocation
from repro.fpga.geometry import KERNEL, OFFLOADABLE_BLOCKS, BlockGeometry, block_geometry
from repro.fpga.odeblock_hw import BlockWeights, HardwareODEBlock
from repro.fpga.resources import ResourceEstimator
from repro.platform import PYNQ_Z2, get_board
from repro.rtl import (
    BN_ROM_FILE,
    MANIFEST_FILE,
    SOURCE_FILES,
    TOP_FILE,
    check_bundle,
    default_n_units,
    emit_odeblock,
    emit_testbench,
)

TINY = BlockGeometry(name="tiny", in_channels=4, out_channels=4, height=4, width=4)
Q16 = QFormat(16, 8)


def _emit(block, seed=0, **kwargs):
    """Emit ``block`` with ``BlockWeights.random`` weights drawn from ``seed``."""

    geometry = block if isinstance(block, BlockGeometry) else block_geometry(block)
    return emit_odeblock(block, BlockWeights.random(geometry, np.random.default_rng(seed)), **kwargs)


def test_bundle_contains_all_sources_and_roms():
    bundle = _emit(TINY, qformat=Q16, n_units=2)
    for name in SOURCE_FILES:
        assert name in bundle.files
    assert MANIFEST_FILE in bundle.files
    assert BN_ROM_FILE in bundle.files
    assert "wbank_0.hex" in bundle.files and "wbank_1.hex" in bundle.files


def test_manifest_schema_and_consistency():
    bundle = _emit(TINY, qformat=Q16, n_units=2)
    m = json.loads(bundle.files[MANIFEST_FILE])
    for key in (
        "generator", "version", "block", "qformat", "board", "n_units", "n_banks",
        "roms", "sources", "top", "resources", "bram_plan", "cycle_guess", "not_emitted",
    ):
        assert key in m, key
    assert m["qformat"] == {"word_length": 16, "fraction_bits": 8}
    assert m["n_units"] == 2
    assert m["top"] == TOP_FILE
    # The deliberately-not-emitted list is recorded in the artifact itself.
    assert "axi_dma_frontend" in m["not_emitted"]
    assert "replica_scheduling_fsm" in m["not_emitted"]


def _rom_words(text, word_length):
    """Signed words of a ``$readmemh`` hex dump."""

    raw = np.array([int(ln, 16) for ln in text.split()], dtype=np.int64)
    return np.where(raw >= 1 << (word_length - 1), raw - (1 << word_length), raw)


@pytest.mark.parametrize("time_concat", [False, True])
@pytest.mark.parametrize(
    "qf, scale",
    [(Q20, 0.5), (Q16, 0.5), (QFormat(8, 4), 0.5), (QFormat(4, 2), 3.0)],  # Q4.2 saturates most words
    ids=["q32.20", "q16.8", "q8.4", "q4.2-saturating"],
)
def test_rom_files_equal_fixed_weights_in_bank_order(qf, scale, time_concat):
    # Every ROM file holds to_fixed of the float weights: each bank its
    # owned channels' conv1 words then their conv2 words, the BN ROM the
    # eight BN vectors (missing running statistics read as mean 0, var 1).
    c = TINY.out_channels
    for running_stats in (False, True):
        rng = np.random.default_rng(11)
        weights = BlockWeights.random(TINY, rng, scale=scale, time_concat=time_concat)
        weights.bn1_gamma = rng.normal(1.0, scale, size=c)
        weights.bn2_beta = rng.normal(0.0, scale, size=c)
        if running_stats:
            weights.bn1_mean = rng.normal(0.0, scale, size=c)
            weights.bn1_var = rng.uniform(0.5, 2.0, size=c)
            weights.bn2_mean = rng.normal(0.0, scale, size=c)
            weights.bn2_var = rng.uniform(0.5, 2.0, size=c)
        conv1 = qf.to_fixed(weights.conv1_weight)
        conv2 = qf.to_fixed(weights.conv2_weight)
        zeros, ones = np.zeros(c), np.ones(c)
        bn = qf.to_fixed(np.concatenate([
            weights.bn1_gamma, weights.bn1_beta,
            weights.bn1_mean if running_stats else zeros,
            weights.bn1_var if running_stats else ones,
            weights.bn2_gamma, weights.bn2_beta,
            weights.bn2_mean if running_stats else zeros,
            weights.bn2_var if running_stats else ones,
        ]))
        for n_units in (1, 3, 2 * c):
            bundle = emit_odeblock(
                TINY, weights, qformat=qf, n_units=n_units, time_concat=time_concat
            )
            roms = sorted(n for n in bundle.files if n.endswith(".hex"))
            n_banks = min(n_units, c)
            assert roms == sorted([BN_ROM_FILE] + [f"wbank_{u}.hex" for u in range(n_banks)])
            for u in range(n_banks):
                owned = list(range(u, c, n_units))
                expected = np.concatenate(
                    [conv1[owned].ravel(), conv2[owned].ravel()]
                )
                np.testing.assert_array_equal(
                    _rom_words(bundle.files[f"wbank_{u}.hex"], qf.word_length), expected
                )
            np.testing.assert_array_equal(
                _rom_words(bundle.files[BN_ROM_FILE], qf.word_length), bn
            )


def _weights_from_roms(bundle, qf):
    """The float weights a reader rebuilds from a bundle's ROM files and
    their manifest entries alone (banks scattered back to channel order)."""

    roms = bundle.manifest["roms"]
    conv1, conv2 = {}, {}
    for name, info in roms.items():
        if info["kind"] != "conv_weights":
            continue
        words = qf.to_float(_rom_words(bundle.files[name], qf.word_length))
        n1 = info["conv1_words"]
        per_channel = n1 // len(info["channels"])
        for i, ch in enumerate(info["channels"]):
            conv1[ch] = words[i * per_channel:(i + 1) * per_channel]
            conv2[ch] = words[n1 + i * per_channel:n1 + (i + 1) * per_channel]
    c = len(conv1)
    shape = (c, per_channel // (KERNEL * KERNEL), KERNEL, KERNEL)
    bn = qf.to_float(_rom_words(bundle.files[BN_ROM_FILE], qf.word_length)).reshape(8, c)
    return BlockWeights(
        conv1_weight=np.stack([conv1[ch] for ch in range(c)]).reshape(shape),
        bn1_gamma=bn[0], bn1_beta=bn[1], bn1_mean=bn[2], bn1_var=bn[3],
        conv2_weight=np.stack([conv2[ch] for ch in range(c)]).reshape(shape),
        bn2_gamma=bn[4], bn2_beta=bn[5], bn2_mean=bn[6], bn2_var=bn[7],
    )


_BLOCK_ARRAYS = ("conv1_weight", "conv2_weight", "bn1_gamma", "bn1_beta", "bn2_gamma", "bn2_beta")


@pytest.mark.parametrize(
    "qf", [Q20, Q16, QFormat(12, 6), QFormat(8, 4)], ids=["q32.20", "q16.8", "q12.6", "q8.4"]
)
def test_rom_words_within_half_lsb_of_weights(qf):
    # In-range weights lose at most half an LSB on their way into the ROMs.
    weights = BlockWeights.random(TINY, np.random.default_rng(3), scale=0.1)
    restored = _weights_from_roms(emit_odeblock(TINY, weights, qformat=qf, n_units=3), qf)
    for name in _BLOCK_ARRAYS:
        original, recovered = getattr(weights, name), getattr(restored, name)
        assert recovered.shape == original.shape, name
        assert np.max(np.abs(recovered - original)) <= qf.resolution / 2 + 1e-12, name


@settings(max_examples=40, deadline=None)
@given(
    word_length=st.sampled_from([4, 6, 8, 10, 12, 16, 18, 24, 32]),
    fraction_bits=st.integers(min_value=1, max_value=6),
    channels=st.integers(min_value=1, max_value=4),
    n_units=st.integers(min_value=1, max_value=6),
    time_concat=st.booleans(),
    with_stats=st.booleans(),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_rom_images_are_quantisation_exact(
    word_length, fraction_bits, channels, n_units, time_concat, with_stats, seed
):
    # Reading the ROMs back gives exactly to_float(to_fixed(w)) (missing
    # running statistics as mean 0, var to_fixed(1)), and emitting those
    # read-back weights reproduces every ROM file byte for byte.
    qf = QFormat(word_length, min(fraction_bits, word_length - 2))
    geometry = BlockGeometry(
        name="prop", in_channels=channels, out_channels=channels, height=3, width=3
    )
    rng = np.random.default_rng(seed)
    weights = BlockWeights.random(geometry, rng, scale=0.5, time_concat=time_concat)
    weights.bn1_gamma = rng.normal(1.0, 0.2, channels)
    weights.bn1_beta = rng.normal(0.0, 0.2, channels)
    if with_stats:
        weights.bn1_mean = rng.normal(0.0, 0.5, channels)
        weights.bn1_var = np.abs(rng.normal(1.0, 0.2, channels))
        weights.bn2_mean = rng.normal(0.0, 0.5, channels)
        weights.bn2_var = np.abs(rng.normal(1.0, 0.2, channels))
    bundle = emit_odeblock(
        geometry, weights, qformat=qf, n_units=n_units, time_concat=time_concat
    )
    restored = _weights_from_roms(bundle, qf)

    def exact(values):
        return qf.to_float(qf.to_fixed(values))

    for name in _BLOCK_ARRAYS:
        np.testing.assert_array_equal(getattr(restored, name), exact(getattr(weights, name)), err_msg=name)
    for name in ("bn1_mean", "bn1_var", "bn2_mean", "bn2_var"):
        if with_stats:
            expected = exact(getattr(weights, name))
        else:
            expected = exact(np.zeros(channels) if name.endswith("mean") else np.ones(channels))
        np.testing.assert_array_equal(getattr(restored, name), expected, err_msg=name)

    again = emit_odeblock(
        geometry, restored, qformat=qf, n_units=n_units, time_concat=time_concat
    )
    for name in bundle.manifest["roms"]:
        assert again.files[name] == bundle.files[name], name


@pytest.mark.parametrize(
    "qf",
    [QFormat(4, 2), QFormat(6, 4), QFormat(8, 4), QFormat(12, 6), Q16, QFormat(24, 12), Q20],
    ids=lambda qf: f"q{qf.word_length}.{qf.fraction_bits}",
)
def test_rom_lines_are_word_wide_twos_complement(qf):
    # Each ROM line is one word of ceil(word_length / 4) hex digits, so a
    # narrower format gives narrower ROMs; weights twice the range saturate
    # to both extremes, which read back as the signed min and max words.
    weights = BlockWeights.random(TINY, np.random.default_rng(5), scale=2 * qf.max_value)
    bundle = emit_odeblock(TINY, weights, qformat=qf, n_units=2)
    digits = (qf.word_length + 3) // 4
    words = []
    for name in bundle.manifest["roms"]:
        lines = bundle.files[name].split()
        assert {len(line) for line in lines} == {digits}, name
        assert all(int(line, 16) < 1 << qf.word_length for line in lines), name
        if name != BN_ROM_FILE:
            words.append(_rom_words(bundle.files[name], qf.word_length))
    words = np.concatenate(words)
    assert words.min() == qf.min_int and words.max() == qf.max_int


@pytest.mark.parametrize("name", sorted(OFFLOADABLE_BLOCKS))
def test_rom_words_fill_the_bram_weight_regions(name):
    # The emitted ROMs hold exactly the bytes the BRAM plan reserves for
    # the two convolutions and the eight BN vectors.
    geometry = block_geometry(name)
    c = geometry.out_channels
    bundle = _emit(name, qformat=Q20, n_units=4)
    roms = bundle.manifest["roms"].values()
    conv_words = sum(info["words"] for info in roms if info["kind"] == "conv_weights")
    bn_words = sum(info["words"] for info in roms if info["kind"] == "bn_parameters")
    assert conv_words == 2 * c * c * KERNEL * KERNEL
    assert bn_words == 8 * c
    plan = plan_block_allocation(geometry, n_units=4, qformat=Q20)
    bpv = Q20.bytes_per_value
    assert conv_words * bpv == (
        plan.region("conv1_weights").num_bytes + plan.region("conv2_weights").num_bytes
    )
    assert bn_words * bpv == plan.region("bn_parameters").num_bytes


@pytest.mark.parametrize("dynamic_bn_stats", [True, False], ids=["dynamic-bn", "running-bn"])
@pytest.mark.parametrize("time_concat", [False, True], ids=["plain", "time-concat"])
def test_rom_weights_reproduce_hardware_output(time_concat, dynamic_bn_stats):
    # A HardwareODEBlock loaded from the ROM contents alone computes the
    # same fixed-point Euler step as one loaded from the float weights.
    c = TINY.out_channels
    rng = np.random.default_rng(7)
    weights = BlockWeights.random(TINY, rng, scale=0.2, time_concat=time_concat)
    if not dynamic_bn_stats:
        weights.bn1_mean = rng.normal(0.0, 0.1, c)
        weights.bn1_var = rng.uniform(0.5, 2.0, c)
        weights.bn2_mean = rng.normal(0.0, 0.1, c)
        weights.bn2_var = rng.uniform(0.5, 2.0, c)
    bundle = emit_odeblock(TINY, weights, qformat=Q20, n_units=4, time_concat=time_concat)
    restored = _weights_from_roms(bundle, Q20)
    blocks = [
        HardwareODEBlock(
            TINY, w, dynamic_bn_stats=dynamic_bn_stats, time_concat=time_concat
        )
        for w in (weights, restored)
    ]
    z = rng.normal(0.0, 0.3, size=(2, c, TINY.height, TINY.width))
    outputs = [block.execute_batch(z, step_size=0.5, t=0.25) for block in blocks]
    np.testing.assert_array_equal(outputs[0], outputs[1])


def test_port_widths_track_qformat():
    for qf in (QFormat(8, 4), Q16, Q20):
        bundle = _emit(TINY, qformat=qf, n_units=1)
        top = bundle.files[TOP_FILE]
        assert f"input signed [{qf.word_length - 1}:0] in_data" in top
        assert f"input signed [{qf.word_length - 1}:0] t_fx" in top
        assert f"output reg signed [{qf.word_length - 1}:0] out_data" in top


def test_pe_instances_match_unit_count():
    for n in (1, 2, 4, 8):
        bundle = _emit(TINY, qformat=Q16, n_units=n)
        assert bundle.files[TOP_FILE].count("conv_pe #(") == n


def test_idle_pes_emitted_when_units_exceed_channels():
    bundle = _emit(TINY, qformat=Q16, n_units=8)
    top = bundle.files[TOP_FILE]
    assert top.count("conv_pe #(") == 8
    # Only 4 channels -> only 4 weight banks (+1 BN ROM).
    assert top.count("weight_rom #(") == 5
    assert ".N_CH(0)" in top


def test_bank_count_matches_bram_plan():
    for n in (1, 2, 3, 4, 8):
        bundle = _emit(TINY, qformat=Q16, n_units=n)
        plan = plan_block_allocation(TINY, n_units=n, qformat=Q16)
        expected_banks = plan.region("conv1_weights").banks
        assert bundle.manifest["n_banks"] == expected_banks


def test_dsp_model_agrees_with_instance_count():
    bundle = _emit(TINY, qformat=Q16, n_units=4)
    est = ResourceEstimator(Q16).estimate(TINY, n_units=4)
    assert (int(est.resources.dsp) - 4) // 4 == 4
    assert bundle.manifest["resources"]["dsp"] == int(est.resources.dsp)


def test_default_n_units_is_board_derived():
    n = default_n_units(PYNQ_Z2)
    assert n >= 1
    est = ResourceEstimator(Q20).estimate(block_geometry("layer3_2"), n_units=n)
    assert est.fits(PYNQ_Z2.fpga)
    # A board with a bigger FPGA can host at least as many units.
    zcu104 = get_board("ZCU104")
    assert default_n_units(zcu104) >= n


@pytest.mark.parametrize("name", sorted(OFFLOADABLE_BLOCKS))
def test_every_offloadable_block_emits_and_checks(tmp_path, name):
    bundle = _emit(name, qformat=Q16, n_units=4)
    out = tmp_path / name
    bundle.write(out)
    assert check_bundle(out)["ok"]


def test_two_board_qformat_points_pass_structural_check(tmp_path):
    # The acceptance-criteria pair: two distinct (board, qformat) points.
    points = [("PYNQ-Z2", Q20), ("ZCU104", QFormat(16, 8))]
    for board_name, qf in points:
        board = get_board(board_name)
        bundle = _emit(TINY, qformat=qf, board=board, n_units=2)
        out = tmp_path / f"{board_name}_{qf.word_length}"
        bundle.write(out)
        report = check_bundle(out)
        assert report["ok"]
        assert bundle.manifest["board"]["name"] == board_name


def test_time_concat_adds_input_channel_words(tmp_path):
    w = BlockWeights.random(TINY, np.random.default_rng(1), time_concat=True)
    bundle = emit_odeblock(TINY, w, qformat=Q16, n_units=2, time_concat=True)
    c, k = TINY.out_channels, KERNEL
    total = sum(
        info["words"] for info in bundle.manifest["roms"].values()
        if info["kind"] == "conv_weights"
    )
    assert total == 2 * c * (c + 1) * k * k
    out = tmp_path / "tc"
    bundle.write(out)
    assert check_bundle(out)["ok"]


def test_testbench_references_vector_files():
    bundle = _emit(TINY, qformat=Q16, n_units=2)
    tb = emit_testbench(bundle, 6, "stimulus.hex", "expected.hex")
    assert '"stimulus.hex"' in tb and '"expected.hex"' in tb
    assert "CONFORMANCE" in tb


@pytest.mark.parametrize(
    "kwargs, match",
    [
        (dict(qformat=QFormat(48, 24)), "word_length must be at most 32 bits"),
        (dict(qformat=Q16, n_units=0), "n_units"),
    ],
)
def test_emit_rejects_unsupported_configs(kwargs, match):
    with pytest.raises(ValueError, match=match):
        _emit(TINY, **kwargs)


def test_emit_rejects_strided_blocks():
    # The emitter serves stride-1 blocks only; the geometry has no stride to
    # set, and every manifest records the fixed one.
    with pytest.raises(TypeError, match="stride"):
        BlockGeometry(name="strided", in_channels=4, out_channels=4, height=4, width=4, stride=2)
    block = _emit(TINY, qformat=Q16, n_units=1).manifest["block"]
    assert (block["kernel"], block["stride"]) == (3, 1)


@pytest.mark.parametrize(
    "name, shape, time_concat",
    [
        ("conv1_weight", (4, 5, 3, 3), False),  # time-concat kernels, plain block
        ("conv1_weight", (4, 4, 3, 3), True),
        ("conv2_weight", (4, 5, 3, 3), False),
        ("conv2_weight", (4, 4, 1, 1), False),
        ("bn1_gamma", (3,), False),
        ("bn2_beta", (5,), False),
        ("bn1_mean", (3,), False),
        ("bn2_var", (4, 1), False),
    ],
)
def test_emit_rejects_weight_shape_mismatch(name, shape, time_concat):
    # Every tensor is checked against the block before anything is emitted,
    # and the error names the tensor.
    weights = BlockWeights.random(TINY, np.random.default_rng(0), time_concat=time_concat)
    setattr(weights, name, np.zeros(shape))
    with pytest.raises(ValueError, match=f"{name} shape"):
        emit_odeblock(TINY, weights, qformat=Q16, n_units=1, time_concat=time_concat)


def test_write_is_idempotent_and_deterministic(tmp_path):
    a = _emit(TINY, qformat=Q16, n_units=2, seed=5)
    b = _emit(TINY, qformat=Q16, n_units=2, seed=5)
    assert a.files == b.files
    out = tmp_path / "x"
    first = {p.name: p.read_text() for p in a.write(out)}
    second = {p.name: p.read_text() for p in b.write(out)}
    assert first == second
