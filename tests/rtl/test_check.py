"""Adversarial fixtures: every tamper produces its own named failure."""

import json

import numpy as np
import pytest

from repro.fixedpoint import QFormat
from repro.fpga.geometry import BlockGeometry
from repro.fpga.odeblock_hw import BlockWeights
from repro.rtl import (
    InstanceCountError,
    ManifestError,
    PortWidthError,
    RomDepthError,
    StructuralCheckError,
    check_bundle,
    emit_odeblock,
)

TINY = BlockGeometry(name="tiny", in_channels=4, out_channels=4, height=4, width=4)
Q16 = QFormat(16, 8)


@pytest.fixture()
def bundle_dir(tmp_path):
    weights = BlockWeights.random(TINY, np.random.default_rng(3))
    emit_odeblock(TINY, weights, qformat=Q16, n_units=2).write(tmp_path)
    return tmp_path


def test_pristine_bundle_passes(bundle_dir):
    report = check_bundle(bundle_dir)
    assert report["ok"]
    assert [c["check"] for c in report["checks"]] == [
        "files_present",
        "port_widths",
        "rom_depths",
        "instance_counts",
    ]


def test_missing_manifest_is_manifest_error(tmp_path):
    with pytest.raises(ManifestError, match="rtl_manifest.json"):
        check_bundle(tmp_path)


def test_corrupt_manifest_is_manifest_error(bundle_dir):
    (bundle_dir / "rtl_manifest.json").write_text("{not json")
    with pytest.raises(ManifestError, match="not valid JSON"):
        check_bundle(bundle_dir)


def test_missing_listed_file_is_manifest_error(bundle_dir):
    (bundle_dir / "conv_pe.v").unlink()
    with pytest.raises(ManifestError, match="conv_pe.v"):
        check_bundle(bundle_dir)


def test_wrong_manifest_version_is_manifest_error(bundle_dir):
    manifest = json.loads((bundle_dir / "rtl_manifest.json").read_text())
    manifest["version"] = 99
    (bundle_dir / "rtl_manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(ManifestError, match="version 99"):
        check_bundle(bundle_dir)


@pytest.mark.parametrize("key, value", [("kernel", 5), ("stride", 2)])
def test_manifest_with_another_kernel_or_stride_is_manifest_error(bundle_dir, key, value):
    # Every offloaded block is the paper's 3x3 stride-1 block: a manifest
    # declaring another shape describes hardware the checker cannot model.
    manifest = json.loads((bundle_dir / "rtl_manifest.json").read_text())
    assert manifest["block"][key] in (3, 1)
    manifest["block"][key] = value
    (bundle_dir / "rtl_manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(ManifestError, match=f"{key}={value}"):
        check_bundle(bundle_dir)


def test_wrong_port_width_is_port_width_error(bundle_dir):
    top = bundle_dir / "odeblock_top.v"
    # Widen in_data from 16 to 32 bits: [15:0] -> [31:0].
    top.write_text(
        top.read_text().replace("input signed [15:0] in_data", "input signed [31:0] in_data")
    )
    with pytest.raises(PortWidthError, match="in_data.*32 bits.*expected.*16"):
        check_bundle(bundle_dir)


def test_missing_port_is_port_width_error(bundle_dir):
    top = bundle_dir / "odeblock_top.v"
    top.write_text(top.read_text().replace("input signed [15:0] t_fx", "input signed t_fx"))
    with pytest.raises(PortWidthError, match="t_fx"):
        check_bundle(bundle_dir)


def test_truncated_rom_init_is_rom_depth_error(bundle_dir):
    hex_path = bundle_dir / "wbank_0.hex"
    lines = hex_path.read_text().strip().splitlines()
    hex_path.write_text("\n".join(lines[:-5]) + "\n")
    with pytest.raises(RomDepthError, match="wbank_0.hex.*truncated"):
        check_bundle(bundle_dir)


def test_wrong_word_width_in_rom_is_rom_depth_error(bundle_dir):
    hex_path = bundle_dir / "bn_params.hex"
    lines = hex_path.read_text().strip().splitlines()
    lines[0] = lines[0] + "ff"  # 4 -> 6 hex digits
    hex_path.write_text("\n".join(lines) + "\n")
    with pytest.raises(RomDepthError, match="width"):
        check_bundle(bundle_dir)


def test_rom_depth_parameter_mismatch_is_rom_depth_error(bundle_dir):
    top = bundle_dir / "odeblock_top.v"
    manifest = json.loads((bundle_dir / "rtl_manifest.json").read_text())
    words = manifest["roms"]["wbank_0.hex"]["words"]
    top.write_text(top.read_text().replace(f".DEPTH({words})", f".DEPTH({words - 1})", 1))
    with pytest.raises(RomDepthError, match="DEPTH"):
        check_bundle(bundle_dir)


def test_missing_pe_instance_is_instance_count_error(bundle_dir):
    top = bundle_dir / "odeblock_top.v"
    text = top.read_text()
    # Drop PE 1 entirely: everything from its bank ROM to the end of its
    # conv_pe instantiation.
    start = text.index("weight_rom #(.WORD(16), .DEPTH")
    start = text.index("weight_rom #(.WORD(16), .DEPTH", start + 1)  # second bank
    end = text.index(");", text.index("conv_pe #(", start)) + 2
    top.write_text(text[:start] + text[end:])
    with pytest.raises(InstanceCountError, match="conv_pe"):
        check_bundle(bundle_dir)


def test_extra_bn_unit_is_instance_count_error(bundle_dir):
    top = bundle_dir / "odeblock_top.v"
    text = top.read_text()
    # A second bn_unit instantiation header is enough to trip the count.
    top.write_text(text + "\n// duplicated\n// bn_unit #(.WORD(16))\nbn_unit #( );\n")
    with pytest.raises(InstanceCountError, match="bn_unit"):
        check_bundle(bundle_dir)


def test_n_units_manifest_drift_is_instance_count_error(bundle_dir):
    manifest = json.loads((bundle_dir / "rtl_manifest.json").read_text())
    manifest["n_units"] = 3
    (bundle_dir / "rtl_manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(InstanceCountError, match="n_units is 3"):
        check_bundle(bundle_dir)


def test_all_errors_are_structural_check_errors():
    for exc in (ManifestError, PortWidthError, RomDepthError, InstanceCountError):
        assert issubclass(exc, StructuralCheckError)
        assert issubclass(exc, ValueError)  # CLI maps them to exit code 2
