"""One-call RTL export: emit, dump vectors, check, optionally simulate.

:func:`export_rtl` is the API surface of :mod:`repro.rtl` — it writes a
complete bundle (Verilog sources, ROM images, manifest, and optionally the
testbench + FxArray vector files) to a directory and returns a JSON-able
summary.  The structural check and the iverilog run are opt-in and the
simulation degrades to ``{"skipped": True}`` when no toolchain is present,
so the same call works in CI with or without iverilog installed.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, Optional, Tuple, Union

from ..fixedpoint import Q20, QFormat
from ..fpga.geometry import BlockGeometry
from ..platform import BoardSpec
from ..platform.registry import BOARDS, get_board
from ..rtl.check import check_bundle
from ..rtl.emit import TB_FILE, emit_odeblock, emit_testbench, random_block_weights
from ..rtl.simrun import iverilog_available, run_conformance
from ..rtl.vectors import generate_vectors, write_vector_files

__all__ = ["export_rtl"]


def _resolve_board(board: Union[str, BoardSpec]) -> BoardSpec:
    if isinstance(board, BoardSpec):
        return board
    try:
        return get_board(board)
    except KeyError:
        # Tolerate case and separator variants: "pynq_z2" -> "PYNQ-Z2".
        norm = str(board).lower().replace("_", "-")
        for name, spec in BOARDS.items():
            if name.lower().replace("_", "-") == norm:
                return spec
        raise ValueError(
            f"unknown board '{board}'; available boards: {', '.join(sorted(BOARDS))}"
        ) from None


def _resolve_qformat(qformat: Union[QFormat, Tuple[int, int], None]) -> QFormat:
    if qformat is None:
        return Q20
    if isinstance(qformat, QFormat):
        return qformat
    word, frac = qformat
    return QFormat(int(word), int(frac))


def export_rtl(
    out_dir: Union[str, Path],
    *,
    block: Union[str, BlockGeometry] = "layer3_2",
    board: Union[str, BoardSpec] = "pynq_z2",
    qformat: Union[QFormat, Tuple[int, int], None] = None,
    n_units: Optional[int] = None,
    time_concat: bool = False,
    step_size: float = 1.0,
    vectors: int = 0,
    iterations: int = 2,
    seed: int = 0,
    weight_scale: float = 0.1,
    input_scale: float = 0.5,
    check: bool = True,
    simulate: bool = False,
) -> Dict:
    """Emit an RTL bundle to ``out_dir`` and return a summary dict.

    ``vectors`` > 0 additionally dumps that many stimulus images per
    iteration from the batched FxArray engine plus the matching testbench;
    ``check=True`` runs the pure-Python structural checker; ``simulate=True``
    drives iverilog over the vectors when the toolchain exists (and reports
    a skip, not a failure, when it does not).
    """

    if vectors < 0:
        raise ValueError(f"vectors must be non-negative, 0 for none (got {vectors!r})")
    board_spec = _resolve_board(board)
    qf = _resolve_qformat(qformat)
    out = Path(out_dir)

    bundle = emit_odeblock(
        block,
        qformat=qf,
        n_units=n_units,
        board=board_spec,
        time_concat=time_concat,
        step_size=step_size,
        seed=seed,
        weight_scale=weight_scale,
    )
    written = bundle.write(out)

    summary: Dict = {
        "out_dir": str(out),
        "block": bundle.manifest["block"],
        "qformat": bundle.manifest["qformat"],
        "board": bundle.manifest["board"],
        "n_units": bundle.n_units,
        "n_banks": bundle.manifest["n_banks"],
        "time_concat": time_concat,
        "files": sorted(p.name for p in written),
        "resources": bundle.manifest["resources"],
        "cycle_guess": bundle.manifest["cycle_guess"],
        "vectors": None,
        "check": None,
        "simulation": None,
    }

    if vectors > 0:
        weights = random_block_weights(
            bundle.geometry, time_concat=time_concat, seed=seed, scale=weight_scale
        )
        vset = generate_vectors(
            bundle.geometry,
            weights,
            qformat=qf,
            images=vectors,
            iterations=iterations,
            seed=seed + 1,
            input_scale=input_scale,
            step_size=step_size,
            time_concat=time_concat,
            n_units=bundle.n_units,
        )
        vec_paths = write_vector_files(vset, out)
        tb = emit_testbench(bundle, len(vset.records), "stimulus.hex", "expected.hex")
        (out / TB_FILE).write_text(tb)
        summary["files"] = sorted(
            set(summary["files"]) | {p.name for p in vec_paths.values()} | {TB_FILE}
        )
        summary["vectors"] = {
            "records": len(vset.records),
            "words_per_map": vset.words_per_map,
            "images": vectors,
            "iterations": iterations,
        }

    if check:
        summary["check"] = check_bundle(out)

    if simulate:
        if vectors <= 0:
            raise ValueError("simulate=True requires vectors > 0 (nothing to replay)")
        if not iverilog_available():
            summary["simulation"] = {"skipped": True, "reason": "iverilog not on PATH"}
        else:
            result = run_conformance(out)
            summary["simulation"] = {
                "skipped": False,
                "passed": result.passed,
                "vectors": result.vectors,
                "words": result.words,
                "mismatches": result.mismatches,
            }
            if not result.passed:
                summary["simulation"]["stdout"] = result.stdout[-4000:]
    return summary
