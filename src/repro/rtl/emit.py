"""Template-based Verilog emission of the ODEBlock datapath.

:func:`emit_odeblock` turns the same specifications that drive the analytic
models — a :class:`~repro.fpga.geometry.BlockGeometry`, a
:class:`~repro.fixedpoint.qformat.QFormat` and the board's
:class:`~repro.platform.BoardSpec`-derived MAC-unit count — into a
self-contained RTL bundle:

* ``odeblock_top.v`` + ``conv_pe.v`` + ``bn_unit.v`` + ``weight_rom.v`` +
  ``fx_ops.vh`` — the datapath (one conv PE instance per MAC unit, weight
  words interleaved across the banks of the BRAM plan);
* ``wbank_<u>.hex`` / ``bn_params.hex`` — ROM images sliced from the
  :func:`repro.fpga.export.export_block_weights` byte image, so the RTL and
  the deployment format share one source of truth;
* ``rtl_manifest.json`` — machine-readable description of the bundle that
  the structural checker (:mod:`repro.rtl.check`) verifies against the BRAM
  plan and the resource estimator.

The unit count defaults to :func:`default_n_units`: the largest power-of-two
conv_xN configuration that both fits the board's FPGA and meets timing at
the board's PL clock — i.e. it is derived from the ``BoardSpec``, not a
constant.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from ..fixedpoint import Q20, QFormat
from ..fpga.bram import plan_block_allocation
from ..fpga.export import WeightImageHeader, _dtype_for, export_block_weights
from ..fpga.geometry import BlockGeometry, block_geometry
from ..fpga.odeblock_hw import BlockWeights
from ..fpga.resources import ResourceEstimator
from ..fpga.timing import TimingModel
from ..platform import PYNQ_Z2, BoardSpec
from . import templates

__all__ = [
    "RtlBundle",
    "emit_odeblock",
    "emit_testbench",
    "default_n_units",
    "random_block_weights",
    "SOURCE_FILES",
    "TOP_FILE",
    "TB_FILE",
    "MANIFEST_FILE",
    "BN_ROM_FILE",
    "MANIFEST_VERSION",
]

#: Verilog sources of every bundle, in compile order (testbench excluded).
TOP_FILE = "odeblock_top.v"
TB_FILE = "tb_odeblock.v"
MANIFEST_FILE = "rtl_manifest.json"
BN_ROM_FILE = "bn_params.hex"
SOURCE_FILES = ("fx_ops.vh", "weight_rom.v", "conv_pe.v", "bn_unit.v", TOP_FILE)

MANIFEST_VERSION = 1

#: conv_xN candidates for the board-derived default unit count.
_UNIT_CANDIDATES = (64, 32, 16, 8, 4, 2, 1)

#: The BN epsilon of repro.fpga.ops.hw_batch_norm.
_BN_EPS = 1e-5


def _aw(depth: int) -> int:
    """Address width covering ``depth`` words (at least 1 bit)."""

    return max(1, (max(int(depth), 1) - 1).bit_length()) if depth > 1 else 1


def _sv_int64(value: int) -> str:
    """A 64-bit signed Verilog literal (negative values need a real minus)."""

    v = int(value)
    return f"-64'sd{-v}" if v < 0 else f"64'sd{v}"


def _hex_lines(values: np.ndarray, word_length: int) -> str:
    """Two's-complement hex dump, one word per line (``$readmemh`` format)."""

    mask = (1 << word_length) - 1
    digits = (word_length + 3) // 4
    return "\n".join(format(int(v) & mask, f"0{digits}x") for v in np.asarray(values).ravel()) + "\n"


def _owned_channels(out_channels: int, n_units: int, unit: int) -> List[int]:
    """Output channels computed by PE ``unit`` (interleaved modulo n_units)."""

    return list(range(unit, out_channels, n_units))


def random_block_weights(
    geometry: BlockGeometry,
    *,
    time_concat: bool = False,
    seed: int = 0,
    scale: float = 0.1,
) -> BlockWeights:
    """Seeded random weights, with the extra time-concat input channel."""

    rng = np.random.default_rng(seed)
    c = geometry.out_channels
    k = geometry.kernel
    c_in = geometry.in_channels + (1 if time_concat else 0)
    shape = (c, c_in, k, k)
    return BlockWeights(
        conv1_weight=rng.normal(0.0, scale, size=shape),
        bn1_gamma=np.ones(c),
        bn1_beta=np.zeros(c),
        conv2_weight=rng.normal(0.0, scale, size=shape),
        bn2_gamma=np.ones(c),
        bn2_beta=np.zeros(c),
    )


def default_n_units(
    board: BoardSpec = PYNQ_Z2,
    geometry: Union[str, BlockGeometry] = "layer3_2",
    qformat: QFormat = Q20,
) -> int:
    """Board-derived MAC-unit count: the largest conv_xN that fits and closes.

    Walks the power-of-two candidates downward and returns the first one
    whose :class:`~repro.fpga.resources.ResourceEstimator` estimate fits the
    board's FPGA *and* whose :class:`~repro.fpga.timing.TimingModel` report
    meets timing at the board's PL clock.
    """

    geometry = geometry if isinstance(geometry, BlockGeometry) else block_geometry(geometry)
    estimator = ResourceEstimator(board.fpga, qformat)
    timing = TimingModel.for_board(board)
    for n in _UNIT_CANDIDATES:
        fits = estimator.estimate(geometry, n_units=n).fits(board.fpga)
        closes = timing.analyze(n, target_hz=board.pl_clock_hz).meets_timing
        if fits and closes:
            return n
    return 1


@dataclass(frozen=True)
class RtlBundle:
    """One emitted RTL design: sources, ROM images and the manifest."""

    geometry: BlockGeometry
    qformat: QFormat
    n_units: int
    board_name: str
    files: Mapping[str, str] = field(default_factory=dict)
    manifest: Dict = field(default_factory=dict)

    def write(self, out_dir: Union[str, Path]) -> List[Path]:
        """Write every bundle file under ``out_dir`` (created if missing)."""

        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        written = []
        for name, text in self.files.items():
            path = out / name
            path.write_text(text)
            written.append(path)
        return written

    @property
    def verilog_sources(self) -> List[str]:
        """The synthesisable sources in compile order (no testbench)."""

        return [n for n in SOURCE_FILES if n != "fx_ops.vh"]


def _rom_images(
    weights: BlockWeights, qformat: QFormat, n_units: int
) -> Tuple[Dict[str, str], Dict[str, Dict], WeightImageHeader, int]:
    """Slice the export image into per-bank weight ROMs and the BN ROM.

    Returns ``(hex_files, rom_manifest, header, n_banks)``.  The ROM words
    are read back from the :func:`export_block_weights` byte image — not
    re-quantised from the float weights — so the RTL initialisation and the
    deployment format cannot drift apart.
    """

    image = export_block_weights(weights, qformat)
    header = WeightImageHeader.unpack(image)
    dtype = _dtype_for(qformat)
    words = np.frombuffer(image, dtype=dtype, offset=header.size).astype(np.int64)

    c = header.out_channels
    c_inc = header.in_channels + (1 if header.time_concat else 0)
    k = header.kernel
    conv_count = c * c_inc * k * k
    conv1 = words[:conv_count].reshape(c, c_inc, k, k)
    conv2 = words[conv_count : 2 * conv_count].reshape(c, c_inc, k, k)
    bn = words[2 * conv_count : 2 * conv_count + 8 * c]

    n_banks = max(1, min(n_units, c))
    hex_files: Dict[str, str] = {}
    rom_manifest: Dict[str, Dict] = {}
    for u in range(n_banks):
        owned = _owned_channels(c, n_units, u)
        bank = np.concatenate(
            [conv1[co].ravel() for co in owned] + [conv2[co].ravel() for co in owned]
        )
        name = f"wbank_{u}.hex"
        hex_files[name] = _hex_lines(bank, qformat.word_length)
        rom_manifest[name] = {
            "kind": "conv_weights",
            "bank": u,
            "channels": owned,
            "words": int(bank.size),
            "conv1_words": int(len(owned) * c_inc * k * k),
            "conv2_words": int(len(owned) * c_inc * k * k),
        }
    hex_files[BN_ROM_FILE] = _hex_lines(bn, qformat.word_length)
    rom_manifest[BN_ROM_FILE] = {"kind": "bn_parameters", "words": int(bn.size)}
    return hex_files, rom_manifest, header, n_banks


def _cycle_guess(geometry: BlockGeometry, n_units: int, time_concat: bool) -> int:
    """Rough per-record cycle count (testbench watchdog sizing only)."""

    c = geometry.out_channels
    hw = geometry.height * geometry.width
    chw = c * hw
    c_inc = geometry.in_channels + (1 if time_concat else 0)
    conv = -(-c // min(n_units, c)) * hw * c_inc * geometry.kernel * geometry.kernel
    bn = c * (3 * hw + 8)
    return hw + 2 * (conv + chw + bn + 16) + 3 * chw + 64


def emit_odeblock(
    block: Union[str, BlockGeometry],
    weights: Optional[BlockWeights] = None,
    *,
    qformat: QFormat = Q20,
    n_units: Optional[int] = None,
    board: BoardSpec = PYNQ_Z2,
    time_concat: bool = False,
    step_size: float = 1.0,
    seed: int = 0,
    weight_scale: float = 0.1,
) -> RtlBundle:
    """Emit the Verilog bundle of one ODEBlock configuration.

    Parameters mirror :class:`~repro.fpga.odeblock_hw.HardwareODEBlock`;
    ``weights=None`` draws seeded random weights (tests/benches).  Raises
    :class:`ValueError` for configurations the emitter does not model
    (stride > 1, word lengths above 32 bits, non-square kernels).
    """

    geometry = block if isinstance(block, BlockGeometry) else block_geometry(block)
    if geometry.stride != 1:
        raise ValueError("RTL emission supports stride-1 blocks only (all offloadable blocks)")
    if geometry.in_channels != geometry.out_channels:
        raise ValueError("RTL emission requires in_channels == out_channels (residual block)")
    if geometry.kernel % 2 == 0:
        raise ValueError("RTL emission requires an odd kernel (same-size zero padding)")
    if qformat.word_length > 32:
        raise ValueError(
            "RTL emission supports word lengths up to 32 bits "
            "(the datapath accumulates in 64-bit registers)"
        )
    if n_units is None:
        n_units = default_n_units(board, geometry, qformat)
    if n_units < 1:
        raise ValueError("n_units must be at least 1")
    if not 0 < step_size < math.inf:
        raise ValueError(f"step_size must be positive and finite (got {step_size!r})")
    if weights is None:
        weights = random_block_weights(
            geometry, time_concat=time_concat, seed=seed, scale=weight_scale
        )

    c = geometry.out_channels
    k = geometry.kernel
    pad = (k - 1) // 2
    h, w = geometry.height, geometry.width
    hw = h * w
    chw = c * hw
    c_inc = geometry.in_channels + (1 if time_concat else 0)
    expected_shape = (c, c_inc, k, k)
    if weights.conv1_weight.shape != expected_shape:
        raise ValueError(
            f"conv1 weight shape {weights.conv1_weight.shape} does not match "
            f"the emitted datapath {expected_shape} (time_concat={time_concat})"
        )

    hex_files, rom_manifest, header, n_banks = _rom_images(weights, qformat, n_units)
    plan = plan_block_allocation(geometry, n_units=n_units, qformat=qformat)
    estimate = ResourceEstimator(board.fpga, qformat).estimate(geometry, n_units=n_units)

    word = qformat.word_length
    frac = qformat.fraction_bits
    in_words = c_inc * hw
    max_local = max(len(_owned_channels(c, n_units, u)) for u in range(n_banks))
    aw_in = _aw(in_words)
    aw_out = _aw(max_local * hw)
    aw_x = _aw(chw)
    aw_r = _aw(8 * c)
    h_fx = int(qformat.to_fixed(float(step_size)))
    eps_fx = int(qformat.to_fixed(_BN_EPS))
    h_is_one = 1 if step_size == 1.0 else 0

    common = dict(
        word=word,
        frac=frac,
        wm1=word - 1,
        c=c,
        c_inc=c_inc,
        h=h,
        w=w,
        k=k,
        pad=pad,
        hw=hw,
        chw=chw,
        chw_m1=chw - 1,
        in_words_m1=in_words - 1,
        aw_in=aw_in,
        aw_in_m1=aw_in - 1,
        aw_out=aw_out,
        aw_out_m1=aw_out - 1,
        aw_x=aw_x,
        aw_x_m1=aw_x - 1,
        aw_r=aw_r,
        aw_r_m1=aw_r - 1,
    )

    pe_blocks = []
    mux_cases = []
    for u in range(n_units):
        owned = _owned_channels(c, n_units, u)
        if owned:
            bank_words = rom_manifest[f"wbank_{u}.hex"]["words"]
            pe_blocks.append(
                templates.PE_BLOCK_TEMPLATE.format(
                    u=u,
                    owned=",".join(str(co) for co in owned),
                    n_ch=len(owned),
                    bank_words=bank_words,
                    aw_w=_aw(bank_words),
                    aw_w_m1=_aw(bank_words) - 1,
                    **common,
                )
            )
        else:
            pe_blocks.append(
                templates.PE_BLOCK_IDLE_TEMPLATE.format(
                    u=u, aw_w=1, aw_w_m1=0, **common
                )
            )
        mux_cases.append(f"            {u}: pe_rd_mux = pe{u}_rd_data;\n")

    top_text = templates.TOP_TEMPLATE.format(
        block_comment=(
            f"Block {geometry.name}: {c} channels, {h}x{w} feature map, "
            f"{k}x{k} kernel, conv_x{n_units}, Q{frac} ({word}-bit), "
            f"board {board.name}"
        ),
        n_pe=n_units,
        tc=1 if time_concat else 0,
        h_is_one=h_is_one,
        hfx=_sv_int64(h_fx),
        eps_fx=_sv_int64(eps_fx),
        bn_words=8 * c,
        bn_hex=BN_ROM_FILE,
        pe_blocks="\n".join(pe_blocks),
        all_pe_done_expr=" && ".join(f"pe{u}_done" for u in range(n_units)),
        pe_rd_mux_cases="".join(mux_cases),
        **common,
    )

    files: Dict[str, str] = {
        "fx_ops.vh": templates.FX_OPS_VH,
        "weight_rom.v": templates.WEIGHT_ROM_V,
        "conv_pe.v": templates.CONV_PE_V,
        "bn_unit.v": templates.BN_UNIT_V,
        TOP_FILE: top_text,
    }
    files.update(hex_files)

    manifest = {
        "generator": "repro.rtl",
        "version": MANIFEST_VERSION,
        "block": {
            "name": geometry.name,
            "in_channels": geometry.in_channels,
            "out_channels": geometry.out_channels,
            "height": h,
            "width": w,
            "kernel": k,
            "stride": geometry.stride,
        },
        "qformat": {"word_length": word, "fraction_bits": frac},
        "board": {"name": board.name, "pl_clock_hz": board.pl_clock_hz},
        "n_units": n_units,
        "n_banks": n_banks,
        "time_concat": time_concat,
        "bn_mode": "dynamic",
        "step_size": step_size,
        "h_fx": h_fx,
        "eps_fx": eps_fx,
        "sources": list(SOURCE_FILES),
        "top": TOP_FILE,
        "roms": rom_manifest,
        "weight_image": {
            "magic": "ODEW",
            "word_length": header.word_length,
            "fraction_bits": header.fraction_bits,
            "time_concat": header.time_concat,
        },
        "resources": {
            "dsp": int(estimate.resources.dsp),
            "bram_tiles": int(plan.total_tiles),
            "lut": float(estimate.resources.lut),
            "ff": float(estimate.resources.ff),
        },
        "bram_plan": [r.as_dict() for r in plan.regions],
        "cycle_guess": _cycle_guess(geometry, n_units, time_concat),
        "not_emitted": ["axi_dma_frontend", "replica_scheduling_fsm", "running_stats_bn"],
    }
    files[MANIFEST_FILE] = json.dumps(manifest, indent=2, sort_keys=True) + "\n"

    return RtlBundle(
        geometry=geometry,
        qformat=qformat,
        n_units=n_units,
        board_name=board.name,
        files=files,
        manifest=manifest,
    )


def emit_testbench(bundle: RtlBundle, n_records: int, stim_hex: str, exp_hex: str) -> str:
    """Emit the conformance testbench for ``n_records`` vector records."""

    geometry = bundle.geometry
    chw = geometry.out_channels * geometry.height * geometry.width
    guard = 4 * bundle.manifest["cycle_guess"] + 10000
    return templates.TB_TEMPLATE.format(
        word=bundle.qformat.word_length,
        chw=chw,
        nrec=n_records,
        stim_hex=stim_hex,
        exp_hex=exp_hex,
        guard_cycles=guard,
    )
