"""Template-based Verilog emission of the ODEBlock datapath.

:func:`emit_odeblock` turns the same specifications that drive the analytic
models — a :class:`~repro.fpga.geometry.BlockGeometry`, a
:class:`~repro.fixedpoint.qformat.QFormat` and the board's
:class:`~repro.platform.BoardSpec`-derived MAC-unit count — into a
self-contained RTL bundle:

* ``odeblock_top.v`` + ``conv_pe.v`` + ``bn_unit.v`` + ``weight_rom.v`` +
  ``fx_ops.vh`` — the datapath (one conv PE instance per MAC unit, weight
  words interleaved across the banks of the BRAM plan);
* ``wbank_<u>.hex`` / ``bn_params.hex`` — ROM images of the weights
  quantised with :meth:`~repro.fixedpoint.qformat.QFormat.to_fixed`, the
  BRAM initialisation of the offloaded block;
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
from typing import Dict, List, Mapping, Optional, Tuple, Union

import numpy as np

from .._checks import check_count
from ..fixedpoint import Q20, QFormat
from ..fpga.bram import plan_block_allocation
from ..fpga.geometry import KERNEL, STRIDE, BlockGeometry, block_geometry
from ..fpga.odeblock_hw import BlockWeights
from ..fpga.resources import ResourceEstimator
from ..fpga.timing import TimingModel
from ..nn.functional import BN_EPS
from ..platform import PYNQ_Z2, BoardSpec
from . import templates

__all__ = [
    "RtlBundle",
    "emit_odeblock",
    "emit_testbench",
    "default_n_units",
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
    estimator = ResourceEstimator(qformat)
    timing = TimingModel(board)
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


def _rom_images(
    weights: BlockWeights, qformat: QFormat, n_units: int
) -> Tuple[Dict[str, str], Dict[str, Dict], int]:
    """Quantise the weights into per-bank weight ROMs and the BN ROM.

    Returns ``(hex_files, rom_manifest, n_banks)``.  Each bank holds its
    owned channels' conv1 words, then their conv2 words; the BN ROM holds
    gamma1, beta1, mean1, var1, gamma2, beta2, mean2, var2 (running
    statistics the bundle does not carry read as mean 0, variance 1).
    """

    conv1 = qformat.to_fixed(weights.conv1_weight)
    conv2 = qformat.to_fixed(weights.conv2_weight)
    c = conv1.shape[0]
    zeros, ones = np.zeros(c), np.ones(c)
    bn = qformat.to_fixed(
        np.concatenate(
            [
                weights.bn1_gamma,
                weights.bn1_beta,
                zeros if weights.bn1_mean is None else weights.bn1_mean,
                ones if weights.bn1_var is None else weights.bn1_var,
                weights.bn2_gamma,
                weights.bn2_beta,
                zeros if weights.bn2_mean is None else weights.bn2_mean,
                ones if weights.bn2_var is None else weights.bn2_var,
            ]
        )
    )

    n_banks = max(1, min(n_units, c))
    hex_files: Dict[str, str] = {}
    rom_manifest: Dict[str, Dict] = {}
    for u in range(n_banks):
        owned = _owned_channels(c, n_units, u)
        w1, w2 = conv1[owned].ravel(), conv2[owned].ravel()
        bank = np.concatenate([w1, w2])
        name = f"wbank_{u}.hex"
        hex_files[name] = _hex_lines(bank, qformat.word_length)
        rom_manifest[name] = {
            "kind": "conv_weights",
            "bank": u,
            "channels": owned,
            "words": int(bank.size),
            "conv1_words": int(w1.size),
            "conv2_words": int(w2.size),
        }
    hex_files[BN_ROM_FILE] = _hex_lines(bn, qformat.word_length)
    rom_manifest[BN_ROM_FILE] = {"kind": "bn_parameters", "words": int(bn.size)}
    return hex_files, rom_manifest, n_banks


def _cycle_guess(geometry: BlockGeometry, n_units: int, time_concat: bool) -> int:
    """Rough per-record cycle count (testbench watchdog sizing only)."""

    c = geometry.out_channels
    hw = geometry.height * geometry.width
    chw = c * hw
    c_inc = geometry.in_channels + (1 if time_concat else 0)
    conv = -(-c // min(n_units, c)) * hw * c_inc * KERNEL * KERNEL
    bn = c * (3 * hw + 8)
    return hw + 2 * (conv + chw + bn + 16) + 3 * chw + 64


def emit_odeblock(
    block: Union[str, BlockGeometry],
    weights: BlockWeights,
    *,
    qformat: QFormat = Q20,
    n_units: Optional[int] = None,
    board: BoardSpec = PYNQ_Z2,
    time_concat: bool = False,
    step_size: float = 1.0,
) -> RtlBundle:
    """Emit the Verilog bundle of one ODEBlock configuration.

    ``weights``, ``qformat`` and ``time_concat`` mean what they mean for
    :class:`~repro.fpga.odeblock_hw.HardwareODEBlock`; random weights come
    from the caller's ``BlockWeights.random(geometry, default_rng(seed))``.
    ``n_units`` defaults to :func:`default_n_units` of ``board``.  Raises
    :class:`ValueError` for configurations the emitter does not model
    (``in_channels != out_channels``, word lengths above 32 bits) and for
    weights whose shapes do not fit the block
    (:meth:`~repro.fpga.odeblock_hw.BlockWeights.check_shapes`).
    """

    geometry = block if isinstance(block, BlockGeometry) else block_geometry(block)
    if geometry.in_channels != geometry.out_channels:
        raise ValueError("RTL emission requires in_channels == out_channels (residual block)")
    qformat.check_datapath()
    if n_units is None:
        n_units = default_n_units(board, geometry, qformat)
    n_units = check_count("n_units", n_units, 1)
    if not 0 < step_size < math.inf:
        raise ValueError(f"step_size must be positive and finite (got {step_size!r})")
    weights.check_shapes(geometry, time_concat)

    c = geometry.out_channels
    k = KERNEL
    pad = (k - 1) // 2
    h, w = geometry.height, geometry.width
    hw = h * w
    chw = c * hw
    c_inc = geometry.in_channels + (1 if time_concat else 0)

    hex_files, rom_manifest, n_banks = _rom_images(weights, qformat, n_units)
    plan = plan_block_allocation(geometry, n_units=n_units, qformat=qformat)
    estimate = ResourceEstimator(qformat).estimate(geometry, n_units=n_units)

    word = qformat.word_length
    frac = qformat.fraction_bits
    in_words = c_inc * hw
    max_local = max(len(_owned_channels(c, n_units, u)) for u in range(n_banks))
    aw_in = _aw(in_words)
    aw_out = _aw(max_local * hw)
    aw_x = _aw(chw)
    aw_r = _aw(8 * c)
    h_fx = int(qformat.to_fixed(float(step_size)))
    eps_fx = int(qformat.to_fixed(BN_EPS))
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
            "stride": STRIDE,
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
