"""Pure-Python structural checker for emitted RTL bundles.

No Verilog toolchain needed: the checker re-derives what the bundle *must*
look like from the same models that drove emission — the
:class:`~repro.fixedpoint.qformat.QFormat` (port widths), the BRAM plan of
:func:`~repro.fpga.bram.plan_block_allocation` (ROM depths) and the
:class:`~repro.fpga.resources.ResourceEstimator` DSP model (PE instance
counts) — and verifies the emitted text against them.

Every failure mode raises its own named exception (all subclasses of
:class:`StructuralCheckError`) so a regression pinpoints *what* drifted:

* :class:`ManifestError` — manifest missing/unreadable/inconsistent, or a
  listed file absent from the bundle;
* :class:`PortWidthError` — a top-level data port is not
  ``QFormat.word_length`` bits wide;
* :class:`RomDepthError` — a ROM init image does not hold exactly the words
  the BRAM plan (plus the time-concat input channel) requires;
* :class:`InstanceCountError` — the PE/ROM/BN instance counts disagree with
  the resource model.
"""

from __future__ import annotations

import json
import re
from pathlib import Path
from typing import Dict, List, Union

from ..fixedpoint import QFormat
from ..fpga.bram import plan_block_allocation
from ..fpga.geometry import KERNEL, STRIDE, BlockGeometry
from ..fpga.resources import ResourceEstimator
from .emit import BN_ROM_FILE, MANIFEST_FILE, MANIFEST_VERSION

__all__ = [
    "StructuralCheckError",
    "ManifestError",
    "PortWidthError",
    "RomDepthError",
    "InstanceCountError",
    "check_bundle",
]


class StructuralCheckError(ValueError):
    """Base class of every structural-checker failure.

    Subclasses ``ValueError`` so the CLI maps check failures onto its
    standard exit-code-2 error path.
    """


class ManifestError(StructuralCheckError):
    """The manifest is missing, unreadable, or lists files that are absent."""


class PortWidthError(StructuralCheckError):
    """A top-level port width disagrees with ``QFormat.word_length``."""


class RomDepthError(StructuralCheckError):
    """A ROM init image's depth disagrees with the BRAM plan."""


class InstanceCountError(StructuralCheckError):
    """Instance counts disagree with the resource model."""


#: Top-level ports that must be exactly ``word_length`` bits wide.
_DATA_PORTS = ("in_data", "t_fx", "out_data")

_PORT_RE = {
    "in_data": re.compile(r"input\s+signed\s+\[(\d+):0\]\s+in_data\b"),
    "t_fx": re.compile(r"input\s+signed\s+\[(\d+):0\]\s+t_fx\b"),
    "out_data": re.compile(r"output\s+reg\s+signed\s+\[(\d+):0\]\s+out_data\b"),
}

_WROM_INST_RE = re.compile(
    r"weight_rom\s*#\(\s*\.WORD\((\d+)\),\s*\.DEPTH\((\d+)\),\s*\.AW\(\d+\),"
    r"\s*\.INIT_FILE\(\"([^\"]+)\"\)\)",
)
_CONV_PE_RE = re.compile(r"\bconv_pe\s*#")
_BN_UNIT_RE = re.compile(r"\bbn_unit\s*#")


def _load_manifest(bundle: Path) -> Dict:
    path = bundle / MANIFEST_FILE
    if not path.is_file():
        raise ManifestError(f"bundle has no {MANIFEST_FILE} (looked in {bundle})")
    try:
        manifest = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ManifestError(f"{MANIFEST_FILE} is not valid JSON: {exc}") from exc
    for key in ("version", "block", "qformat", "n_units", "n_banks", "roms", "sources", "top"):
        if key not in manifest:
            raise ManifestError(f"{MANIFEST_FILE} is missing required key '{key}'")
    if manifest["version"] != MANIFEST_VERSION:
        raise ManifestError(
            f"unsupported manifest version {manifest['version']} "
            f"(this checker expects {MANIFEST_VERSION})"
        )
    return manifest


def _geometry_from(manifest: Dict) -> BlockGeometry:
    b = manifest["block"]
    for key, fixed in (("kernel", KERNEL), ("stride", STRIDE)):
        if b.get(key, fixed) != fixed:
            raise ManifestError(
                f"{MANIFEST_FILE} declares block {key}={b[key]!r}; "
                f"every offloaded block has {key}={fixed}"
            )
    return BlockGeometry(
        name=b["name"],
        in_channels=b["in_channels"],
        out_channels=b["out_channels"],
        height=b["height"],
        width=b["width"],
    )


def _hex_words(text: str) -> List[str]:
    return [line.strip() for line in text.splitlines() if line.strip()]


def check_bundle(bundle_dir: Union[str, Path]) -> Dict:
    """Structurally verify an emitted bundle against the analytic models.

    Returns ``{"ok": True, "checks": [...]}`` on success; raises a named
    :class:`StructuralCheckError` subclass on the first violation.
    """

    bundle = Path(bundle_dir)
    manifest = _load_manifest(bundle)
    checks: List[Dict] = []

    geometry = _geometry_from(manifest)
    qf = manifest["qformat"]
    qformat = QFormat(qf["word_length"], qf["fraction_bits"])
    n_units = int(manifest["n_units"])
    n_banks = int(manifest["n_banks"])
    time_concat = bool(manifest.get("time_concat", False))
    word = qformat.word_length
    digits = (word + 3) // 4

    # -- 1. every listed file exists -------------------------------------------
    listed = list(manifest["sources"]) + sorted(manifest["roms"])
    missing = [name for name in listed if not (bundle / name).is_file()]
    if missing:
        raise ManifestError(
            f"manifest lists files absent from the bundle: {', '.join(missing)}"
        )
    checks.append({"check": "files_present", "files": len(listed)})

    # -- 2. port widths match QFormat.word_length ------------------------------
    top_text = (bundle / manifest["top"]).read_text()
    for port in _DATA_PORTS:
        match = _PORT_RE[port].search(top_text)
        if match is None:
            raise PortWidthError(
                f"{manifest['top']} does not declare port '{port}' "
                f"with the expected signed [{word - 1}:0] shape"
            )
        declared = int(match.group(1)) + 1
        if declared != word:
            raise PortWidthError(
                f"port '{port}' is {declared} bits wide, "
                f"expected QFormat word_length {word}"
            )
    checks.append({"check": "port_widths", "word_length": word, "ports": list(_DATA_PORTS)})

    # -- 3. ROM depths match the BRAM plan (plus the time-concat channel) ------
    plan = plan_block_allocation(geometry, n_units=n_units, qformat=qformat)
    bpv = qformat.bytes_per_value
    plan_conv_words = (
        plan.region("conv1_weights").num_bytes + plan.region("conv2_weights").num_bytes
    ) // bpv
    # The BRAM plan sizes the geometry's own channels; time concat adds one
    # input channel (C*K*K extra words per conv layer) on top of the plan.
    extra = 2 * geometry.out_channels * KERNEL ** 2 if time_concat else 0
    expected_conv_words = plan_conv_words + extra
    expected_bn_words = plan.region("bn_parameters").num_bytes // bpv

    conv_total = 0
    for name, info in sorted(manifest["roms"].items()):
        lines = _hex_words((bundle / name).read_text())
        if len(lines) != info["words"]:
            raise RomDepthError(
                f"ROM init {name} holds {len(lines)} words, "
                f"manifest says {info['words']} (truncated or padded image)"
            )
        bad = [ln for ln in lines if len(ln) != digits]
        if bad:
            raise RomDepthError(
                f"ROM init {name} has words of width {len(bad[0])} hex digits, "
                f"expected {digits} for a {word}-bit Q-format"
            )
        if info["kind"] == "conv_weights":
            conv_total += info["words"]
    if conv_total != expected_conv_words:
        raise RomDepthError(
            f"conv weight ROMs hold {conv_total} words across banks, "
            f"the BRAM plan requires {expected_conv_words}"
        )
    bn_info = manifest["roms"].get(BN_ROM_FILE)
    if bn_info is None or bn_info["words"] != expected_bn_words:
        raise RomDepthError(
            f"BN parameter ROM holds {bn_info['words'] if bn_info else 0} words, "
            f"the BRAM plan requires {expected_bn_words} (8 per channel)"
        )
    # ROM instance DEPTH parameters in the top must match the init images.
    for word_p, depth, init_file in _WROM_INST_RE.findall(top_text):
        if init_file not in manifest["roms"]:
            raise RomDepthError(
                f"{manifest['top']} instantiates a ROM from '{init_file}' "
                f"which the manifest does not describe"
            )
        if int(depth) != manifest["roms"][init_file]["words"]:
            raise RomDepthError(
                f"ROM instance for '{init_file}' declares DEPTH={depth}, "
                f"its init image holds {manifest['roms'][init_file]['words']} words"
            )
        if int(word_p) != word:
            raise RomDepthError(
                f"ROM instance for '{init_file}' declares WORD={word_p}, expected {word}"
            )
    checks.append(
        {
            "check": "rom_depths",
            "conv_words": conv_total,
            "bn_words": expected_bn_words,
            "banks": n_banks,
        }
    )

    # -- 4. instance counts match the resource model ---------------------------
    n_conv_pe = len(_CONV_PE_RE.findall(top_text))
    if n_conv_pe != n_units:
        raise InstanceCountError(
            f"{manifest['top']} instantiates {n_conv_pe} conv_pe units, "
            f"manifest n_units is {n_units}"
        )
    estimate = ResourceEstimator(qformat).estimate(geometry, n_units=n_units)
    model_units = (int(estimate.resources.dsp) - 4) // 4
    if n_conv_pe != model_units:
        raise InstanceCountError(
            f"{n_conv_pe} conv_pe instances disagree with the DSP model "
            f"({int(estimate.resources.dsp)} DSPs -> {model_units} units)"
        )
    n_wrom = len(_WROM_INST_RE.findall(top_text))
    if n_wrom != n_banks + 1:
        raise InstanceCountError(
            f"{manifest['top']} instantiates {n_wrom} weight_rom blocks, "
            f"expected {n_banks} weight banks plus 1 BN parameter ROM"
        )
    n_bn = len(_BN_UNIT_RE.findall(top_text))
    if n_bn != 1:
        raise InstanceCountError(
            f"{manifest['top']} instantiates {n_bn} bn_unit blocks, expected exactly 1"
        )
    checks.append(
        {
            "check": "instance_counts",
            "conv_pe": n_conv_pe,
            "weight_rom": n_wrom,
            "bn_unit": n_bn,
            "dsp": int(estimate.resources.dsp),
        }
    )

    return {"ok": True, "checks": checks}
