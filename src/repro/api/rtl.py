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
from typing import Dict, Optional, Union

from .._checks import check_count
from ..fixedpoint.qformat import Q20, QFormat, QFormatLike
from ..fpga.geometry import BlockGeometry, block_geometry
from ..platform import BoardSpec
from ..rtl.check import check_bundle
from ..rtl.emit import TB_FILE, emit_odeblock, emit_testbench, random_block_weights
from ..rtl.simrun import iverilog_available, run_conformance
from ..rtl.vectors import generate_vectors, write_vector_files
from .scenario import check_board

__all__ = ["export_rtl"]


def export_rtl(
    out_dir: Union[str, Path],
    *,
    block: Union[str, BlockGeometry] = "layer3_2",
    board: Union[str, BoardSpec] = "pynq_z2",
    qformat: Optional[QFormatLike] = None,
    n_units: Optional[int] = None,
    time_concat: bool = False,
    step_size: float = 1.0,
    vectors: int = 0,
    iterations: int = 2,
    seed: int = 0,
    check: bool = True,
    simulate: bool = False,
) -> Dict:
    """Emit an RTL bundle to ``out_dir`` and return a summary dict.

    ``vectors`` > 0 additionally dumps that many stimulus images per
    iteration from the batched FxArray engine plus the matching testbench;
    ``check=True`` runs the pure-Python structural checker; ``simulate=True``
    drives iverilog over the vectors when the toolchain exists (and reports
    a skip, not a failure, when it does not).  ``qformat`` is anything
    :meth:`QFormat.parse` accepts (default: the paper's Q20).
    """

    vectors = check_count("vectors", vectors, 0, " (0 for none)")
    board_spec = board if isinstance(board, BoardSpec) else check_board(board)
    qf = Q20 if qformat is None else QFormat.parse(qformat)
    out = Path(out_dir)

    geometry = block if isinstance(block, BlockGeometry) else block_geometry(block)
    weights = random_block_weights(geometry, time_concat=time_concat, seed=seed)
    bundle = emit_odeblock(
        geometry,
        weights,
        qformat=qf,
        n_units=n_units,
        board=board_spec,
        time_concat=time_concat,
        step_size=step_size,
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
        vset = generate_vectors(
            bundle.geometry,
            weights,
            qformat=qf,
            images=vectors,
            iterations=iterations,
            seed=seed + 1,
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
