"""RTL emission: bundle contents, manifest schema, model consistency."""

import json

import numpy as np
import pytest

from repro.fixedpoint import Q20, QFormat
from repro.fpga.bram import plan_block_allocation
from repro.fpga.geometry import KERNEL, OFFLOADABLE_BLOCKS, BlockGeometry, block_geometry
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
    random_block_weights,
)

TINY = BlockGeometry(name="tiny", in_channels=4, out_channels=4, height=4, width=4)
Q16 = QFormat(16, 8)


def test_bundle_contains_all_sources_and_roms():
    bundle = emit_odeblock(TINY, qformat=Q16, n_units=2)
    for name in SOURCE_FILES:
        assert name in bundle.files
    assert MANIFEST_FILE in bundle.files
    assert BN_ROM_FILE in bundle.files
    assert "wbank_0.hex" in bundle.files and "wbank_1.hex" in bundle.files


def test_manifest_schema_and_consistency():
    bundle = emit_odeblock(TINY, qformat=Q16, n_units=2)
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


def test_rom_words_match_weight_image_exactly():
    # ROM hex contents must equal the quantised export image words, not a
    # re-quantisation of the float weights.
    weights = random_block_weights(TINY, seed=11, scale=0.5)
    bundle = emit_odeblock(TINY, weights, qformat=Q16, n_units=1)
    raw1 = Q16.to_fixed(weights.conv1_weight)
    lines = bundle.files["wbank_0.hex"].strip().splitlines()
    conv1_words = [int(ln, 16) - (1 << 16 if int(ln, 16) >= 1 << 15 else 0) for ln in lines]
    np.testing.assert_array_equal(
        np.asarray(conv1_words[: raw1.size]), raw1.ravel()
    )


def test_port_widths_track_qformat():
    for qf in (QFormat(8, 4), Q16, Q20):
        bundle = emit_odeblock(TINY, qformat=qf, n_units=1)
        top = bundle.files[TOP_FILE]
        assert f"input signed [{qf.word_length - 1}:0] in_data" in top
        assert f"input signed [{qf.word_length - 1}:0] t_fx" in top
        assert f"output reg signed [{qf.word_length - 1}:0] out_data" in top


def test_pe_instances_match_unit_count():
    for n in (1, 2, 4, 8):
        bundle = emit_odeblock(TINY, qformat=Q16, n_units=n)
        assert bundle.files[TOP_FILE].count("conv_pe #(") == n


def test_idle_pes_emitted_when_units_exceed_channels():
    bundle = emit_odeblock(TINY, qformat=Q16, n_units=8)
    top = bundle.files[TOP_FILE]
    assert top.count("conv_pe #(") == 8
    # Only 4 channels -> only 4 weight banks (+1 BN ROM).
    assert top.count("weight_rom #(") == 5
    assert ".N_CH(0)" in top


def test_bank_count_matches_bram_plan():
    for n in (1, 2, 3, 4, 8):
        bundle = emit_odeblock(TINY, qformat=Q16, n_units=n)
        plan = plan_block_allocation(TINY, n_units=n, qformat=Q16)
        expected_banks = plan.region("conv1_weights").banks
        assert bundle.manifest["n_banks"] == expected_banks


def test_dsp_model_agrees_with_instance_count():
    bundle = emit_odeblock(TINY, qformat=Q16, n_units=4)
    est = ResourceEstimator(PYNQ_Z2.fpga, Q16).estimate(TINY, n_units=4)
    assert (int(est.resources.dsp) - 4) // 4 == 4
    assert bundle.manifest["resources"]["dsp"] == int(est.resources.dsp)


def test_default_n_units_is_board_derived():
    n = default_n_units(PYNQ_Z2)
    assert n >= 1
    est = ResourceEstimator(PYNQ_Z2.fpga, Q20).estimate(block_geometry("layer3_2"), n_units=n)
    assert est.fits(PYNQ_Z2.fpga)
    # A board with a bigger FPGA can host at least as many units.
    zcu104 = get_board("ZCU104")
    assert default_n_units(zcu104) >= n


@pytest.mark.parametrize("name", sorted(OFFLOADABLE_BLOCKS))
def test_every_offloadable_block_emits_and_checks(tmp_path, name):
    bundle = emit_odeblock(name, qformat=Q16, n_units=4)
    out = tmp_path / name
    bundle.write(out)
    assert check_bundle(out)["ok"]


def test_two_board_qformat_points_pass_structural_check(tmp_path):
    # The acceptance-criteria pair: two distinct (board, qformat) points.
    points = [("PYNQ-Z2", Q20), ("ZCU104", QFormat(16, 8))]
    for board_name, qf in points:
        board = get_board(board_name)
        bundle = emit_odeblock(TINY, qformat=qf, board=board, n_units=2)
        out = tmp_path / f"{board_name}_{qf.word_length}"
        bundle.write(out)
        report = check_bundle(out)
        assert report["ok"]
        assert bundle.manifest["board"]["name"] == board_name


def test_time_concat_adds_input_channel_words(tmp_path):
    w = random_block_weights(TINY, time_concat=True, seed=1)
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
    bundle = emit_odeblock(TINY, qformat=Q16, n_units=2)
    tb = emit_testbench(bundle, 6, "stimulus.hex", "expected.hex")
    assert '"stimulus.hex"' in tb and '"expected.hex"' in tb
    assert "CONFORMANCE" in tb


@pytest.mark.parametrize(
    "kwargs, match",
    [
        (dict(qformat=QFormat(48, 24)), "word lengths up to 32"),
        (dict(qformat=Q16, n_units=0), "n_units"),
    ],
)
def test_emit_rejects_unsupported_configs(kwargs, match):
    with pytest.raises(ValueError, match=match):
        emit_odeblock(TINY, **kwargs)


def test_emit_rejects_strided_blocks():
    # The emitter serves stride-1 blocks only; the geometry has no stride to
    # set, and every manifest records the fixed one.
    with pytest.raises(TypeError, match="stride"):
        BlockGeometry(name="strided", in_channels=4, out_channels=4, height=4, width=4, stride=2)
    block = emit_odeblock(TINY, qformat=Q16, n_units=1).manifest["block"]
    assert (block["kernel"], block["stride"]) == (3, 1)


def test_emit_rejects_weight_shape_mismatch():
    w = random_block_weights(TINY, time_concat=True, seed=0)  # 5 input channels
    with pytest.raises(ValueError, match="shape"):
        emit_odeblock(TINY, w, qformat=Q16, n_units=1, time_concat=False)


def test_write_is_idempotent_and_deterministic(tmp_path):
    a = emit_odeblock(TINY, qformat=Q16, n_units=2, seed=5)
    b = emit_odeblock(TINY, qformat=Q16, n_units=2, seed=5)
    assert a.files == b.files
    out = tmp_path / "x"
    first = {p.name: p.read_text() for p in a.write(out)}
    second = {p.name: p.read_text() for p in b.write(out)}
    assert first == second
