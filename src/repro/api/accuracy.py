"""Accuracy-vs-Q-format sweeps over the bit-accurate PL datapath.

The paper's central fixed-point design question (footnote 2: narrower words
fit more layers in BRAM — at what accuracy cost?) needs the *numerical* axis
the analytic models cannot provide: how far does the quantised conv/BN/ReLU
pipeline drift from the float mathematics at each word length?

:func:`accuracy_sweep` answers it at batch-engine throughput.  For every
requested Q-format it quantises one image batch **once**, runs the batched
:class:`~repro.fpga.odeblock_hw.HardwareODEBlock` forward pass (bit-identical
to N single-image invocations, enforced by
``tests/fpga/test_batched_odeblock.py``) and measures the deviation against a
float64 reference of the same mathematics.  Each row then carries the three
axes of the trade-off:

* **fidelity** — max/RMS error, SQNR, the saturation fraction, and the
  analytic worst-case bound of :mod:`repro.fixedpoint.errors` instantiated
  with the measured reference magnitudes;
* **cost** — per-image latency (cycle model + AXI transfer) and the BRAM
  plan at that word length (closed-form kernels);
* **feasibility** — device fit and timing closure of the conv_xN design.

:meth:`AccuracySweepResult.pareto_front` extracts the latency/error (or any
other two-column) frontier with the same :class:`repro.analysis.report.Report`
method as :class:`repro.api.batch.BatchResult`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from .._checks import check_count, check_seed
from .._pool import ordered_map
from ..analysis.report import Report, format_records
from ..fixedpoint.errors import odeblock_error_bound
from ..fixedpoint.qformat import QFormat, QFormatLike
from ..fpga.axi import AxiTransferModel
from ..fpga.bram import bram_fits_kernel, bram_tiles_kernel
from ..fpga.cycles import OdeBlockCycleModel
from ..platform import PYNQ_Z2
from ..fpga.geometry import BlockGeometry, block_geometry
from ..fpga.odeblock_hw import BlockWeights, HardwareODEBlock, image_groups
from ..fpga.ops import BN_EPS
from ..fpga.timing import TimingModel
from ..nn.im2col import conv_output_size, im2col

__all__ = ["AccuracyPoint", "AccuracySweepResult", "accuracy_sweep", "DEFAULT_FORMAT_LADDER"]


#: Word-length ladder swept by default: the paper's Q20 production format,
#: the footnote-2 reduced formats, and intermediate points that make the
#: accuracy/latency frontier visible.
DEFAULT_FORMAT_LADDER: Tuple[Tuple[int, int], ...] = (
    (32, 20), (24, 12), (20, 10), (16, 8), (12, 6), (10, 5), (8, 4),
)

# -- the float64 reference pipeline ------------------------------------------------------


def _float_conv(x: np.ndarray, weight: np.ndarray) -> np.ndarray:
    """Float64 batched convolution, stride 1 and zero padding 1 (the
    datapath's channel-last im2col lowering)."""

    n, _, h, w = x.shape
    c_out, _, kh, kw = weight.shape
    out_h = conv_output_size(h, kh, 1, 1)
    out_w = conv_output_size(w, kw, 1, 1)
    cols = im2col(x, kh, kw, 1, 1)
    out = cols @ weight.transpose(0, 2, 3, 1).reshape(c_out, -1).T
    return out.reshape(n, out_h, out_w, c_out).transpose(0, 3, 1, 2)


def _float_bn(x: np.ndarray, gamma: np.ndarray, beta: np.ndarray) -> Tuple[np.ndarray, ...]:
    """Float64 per-image batch normalisation (the board's dynamic statistics).

    Returns ``(output, centered, sigma)``.  The mean and the centred tensor
    are computed once, with the ``sum / m`` operations ``np.mean`` and
    ``np.var`` use, so every value is bit-identical to those calls.
    """

    m = x.shape[2] * x.shape[3]
    centered = x - x.sum(axis=(2, 3), keepdims=True) / m
    sigma = np.sqrt((centered * centered).sum(axis=(2, 3), keepdims=True) / m + BN_EPS)
    out = gamma[None, :, None, None] * (centered / sigma) + beta[None, :, None, None]
    return out, centered, sigma


def _float_forward(weights: BlockWeights, z: np.ndarray) -> Dict[str, np.ndarray]:
    """The float reference pipeline, stage by stage (for the analytic bound)."""

    bn1, centered1, sigma1 = _float_bn(
        _float_conv(z, weights.conv1_weight), weights.bn1_gamma, weights.bn1_beta
    )
    hidden = np.maximum(bn1, 0.0)
    bn2, centered2, sigma2 = _float_bn(
        _float_conv(hidden, weights.conv2_weight), weights.bn2_gamma, weights.bn2_beta
    )
    return {
        "centered1": centered1, "sigma1": sigma1, "hidden": hidden,
        "centered2": centered2, "sigma2": sigma2, "output": bn2,
    }


def _reference_stats(z: np.ndarray, stages: Dict) -> Dict[str, object]:
    """Reference magnitudes the analytic bound needs, from one image group.

    Every entry is a per-image max (or per-image min), so groups and chunks
    reduce exactly: max-of-max / min-of-min equals the whole-batch
    statistic regardless of how the batch was split.
    """

    return {
        "input_max": float(np.max(np.abs(z))),
        "hidden_max": float(np.max(np.abs(stages["hidden"]))),
        "centered1_max": np.abs(stages["centered1"]).max(axis=(0, 2, 3)),
        "sigma1_min": stages["sigma1"].min(axis=(0, 2, 3)),
        "centered2_max": np.abs(stages["centered2"]).max(axis=(0, 2, 3)),
        "sigma2_min": stages["sigma2"].min(axis=(0, 2, 3)),
    }


def _merge_reference_stats(chunks: Sequence[Dict[str, object]]) -> Dict[str, object]:
    """Exact reduction of per-chunk reference stats (order-independent)."""

    merged = dict(chunks[0])
    for stats in chunks[1:]:
        merged["input_max"] = max(merged["input_max"], stats["input_max"])
        merged["hidden_max"] = max(merged["hidden_max"], stats["hidden_max"])
        merged["centered1_max"] = np.maximum(merged["centered1_max"], stats["centered1_max"])
        merged["sigma1_min"] = np.minimum(merged["sigma1_min"], stats["sigma1_min"])
        merged["centered2_max"] = np.maximum(merged["centered2_max"], stats["centered2_max"])
        merged["sigma2_min"] = np.minimum(merged["sigma2_min"], stats["sigma2_min"])
    return merged


def _analytic_bound(fmt: QFormat, weights: BlockWeights, ref_stats: Dict[str, object]) -> float:
    """The composed worst-case bound, instantiated from reference magnitudes.

    Valid (and asserted by tests) only while the signal stays representable;
    under saturation the measured error may exceed it — the row's
    ``overflow_fraction`` says which regime a point is in.
    """

    k2 = weights.conv1_weight.shape[2] * weights.conv1_weight.shape[3]
    return odeblock_error_bound(
        fmt,
        fan_in1=weights.conv1_weight.shape[1] * k2,
        weight1_max=float(np.max(np.abs(weights.conv1_weight))),
        input_max=ref_stats["input_max"],
        centered1_max=ref_stats["centered1_max"],
        sigma1_min=ref_stats["sigma1_min"],
        fan_in2=weights.conv2_weight.shape[1] * k2,
        weight2_max=float(np.max(np.abs(weights.conv2_weight))),
        hidden_max=ref_stats["hidden_max"],
        centered2_max=ref_stats["centered2_max"],
        sigma2_min=ref_stats["sigma2_min"],
    ).total


# -- streaming accumulation ---------------------------------------------------------------


def _chunk_bounds(images: int, chunk_size: int) -> List[Tuple[int, int]]:
    """Image index ranges of each chunk (the last may be partial)."""

    return [(start, min(start + chunk_size, images)) for start in range(0, images, chunk_size)]


def _chunk_inputs(
    seed: int, chunk_index: int, n_images: int, geometry: BlockGeometry, input_scale: float
) -> np.ndarray:
    """Inputs of one chunk, from the chunk's own seeded stream.

    ``default_rng((seed, chunk))`` makes a chunk's contents a function of
    the chunk index alone — never of which worker drew it or how many
    workers exist — so sharded sweeps are worker-count-invariant (the same
    discipline as ``repro.opt``).
    """

    rng = np.random.default_rng((seed, chunk_index))
    return rng.normal(
        0.0, input_scale, size=(n_images, geometry.in_channels, geometry.height, geometry.width)
    )


def _measure_chunk(
    z: np.ndarray,
    geometry: BlockGeometry,
    weights: BlockWeights,
    formats: Sequence[QFormat],
) -> Tuple[Dict[str, object], List[Dict[str, object]]]:
    """Reference stats and one error accumulator per format, for one chunk.

    The float reference does not depend on the format, so it runs once and
    every format's datapath is measured against it.  Each accumulator holds
    running sums (count, Σerr², Σref², max |err|, the representable count)
    instead of finished metrics, so the parent can reduce chunks in a fixed
    order and finalise once — streaming accumulation with peak memory
    bounded by the chunk, not the sweep.
    """

    # The reference runs in the datapath's image groups, into one array laid
    # out channel-last like a whole-chunk conv output, so the error sums
    # below still reduce over the whole chunk in the same order.
    n, _, h, w = z.shape
    reference = np.empty((n, h, w, weights.conv2_weight.shape[0])).transpose(0, 3, 1, 2)
    group_stats = []
    for group in image_groups(n, z[0].size):
        stages = _float_forward(weights, z[group])
        reference[group] = stages["output"]
        group_stats.append(_reference_stats(z[group], stages))
    ssr = float(np.sum(np.square(reference)))
    accumulators: List[Dict[str, object]] = []
    for fmt in formats:
        hw = HardwareODEBlock(geometry, weights, qformat=fmt)
        error = hw.dynamics_batch(z) - reference
        accumulators.append(
            {
                "n": int(reference.size),
                "sse": float(np.sum(np.square(error))),
                "ssr": ssr,
                "max_abs": float(np.max(np.abs(error))),
                # The representable *count* (not the overflow fraction):
                # the ``error_report`` reference (tests/error_reference.py)
                # computes ``1.0 - representable.mean()`` and only the count
                # form reproduces it bit-for-bit after reduction.
                "repr_count": int(np.sum(fmt.representable(reference))),
            }
        )
    return _merge_reference_stats(group_stats), accumulators


def _measure_seeded_chunk(
    seed: int,
    input_scale: float,
    geometry: BlockGeometry,
    weights: BlockWeights,
    formats: Sequence[QFormat],
    chunk: Tuple[int, int],
) -> Tuple[Dict[str, object], List[Dict[str, object]]]:
    """Draw one ``(chunk index, n_images)`` chunk's inputs and measure them.

    A chunk's inputs are a pure function of ``(seed, chunk)``, so a pool
    worker draws its own and the parent never holds input arrays.
    """

    index, n_images = chunk
    z = _chunk_inputs(seed, index, n_images, geometry, input_scale)
    return _measure_chunk(z, geometry, weights, formats)


def _finalize_error_stats(acc: Dict[str, object]) -> Dict[str, float]:
    """Finished metrics from reduced accumulators, matching ``error_report``.

    ``np.mean`` is ``np.sum / n`` (same pairwise reduction), so on a single
    chunk these formulas are bit-identical to the whole-batch
    ``error_report`` reference in ``tests/error_reference.py``; the
    zero-power edge cases mirror its ``sqnr_db`` exactly.
    """

    n = acc["n"]
    noise_power = acc["sse"] / n
    signal_power = acc["ssr"] / n
    if noise_power == 0.0:
        sqnr = float("inf")
    elif signal_power == 0.0:
        sqnr = float("-inf")
    else:
        sqnr = float(10.0 * np.log10(signal_power / noise_power))
    return {
        "max_abs_error": acc["max_abs"],
        "rms_error": float(np.sqrt(noise_power)),
        "sqnr_db": sqnr,
        "overflow_fraction": float(1.0 - acc["repr_count"] / n),
    }


def _reduce_error_stats(chunks: Sequence[Dict[str, object]]) -> Dict[str, object]:
    """Reduce per-chunk accumulators in the given (ascending-chunk) order."""

    total = {"n": 0, "sse": 0.0, "ssr": 0.0, "max_abs": 0.0, "repr_count": 0}
    for acc in chunks:
        total["n"] += acc["n"]
        total["sse"] += acc["sse"]
        total["ssr"] += acc["ssr"]
        total["max_abs"] = max(total["max_abs"], acc["max_abs"])
        total["repr_count"] += acc["repr_count"]
    return total


# -- result container --------------------------------------------------------------------


#: Flat column order of one sweep row (CSV header order).
COLUMNS: Tuple[str, ...] = (
    "block", "word_length", "fraction_bits", "qformat", "n_units",
    "max_abs_error", "rms_error", "sqnr_db", "error_bound", "overflow_fraction",
    "latency_s", "compute_s", "transfer_s", "images_per_s",
    "bram_tiles", "fits_device", "fmax_mhz", "meets_timing",
)


@dataclass(frozen=True)
class AccuracyPoint:
    """One (Q-format, n_units) point of the accuracy/latency trade-off."""

    block: str
    word_length: int
    fraction_bits: int
    qformat: str
    n_units: int
    max_abs_error: float
    rms_error: float
    sqnr_db: float
    error_bound: float
    overflow_fraction: float
    latency_s: float
    compute_s: float
    transfer_s: float
    images_per_s: float
    bram_tiles: int
    fits_device: bool
    fmax_mhz: float
    meets_timing: bool

    def as_dict(self) -> Dict[str, object]:
        return {key: getattr(self, key) for key in COLUMNS}


class AccuracySweepResult(Report):
    """Rows of an accuracy-vs-format sweep, with CSV/JSON/Pareto views."""

    def __init__(
        self,
        points: Sequence[AccuracyPoint],
        images: int,
        seed: int,
        workers: int = 1,
        chunk_size: Optional[int] = None,
        chunks: int = 1,
    ) -> None:
        self.points: List[AccuracyPoint] = list(points)
        self.images = images
        self.seed = seed
        self.workers = workers
        self.chunk_size = chunk_size
        self.chunks = chunks

    def __len__(self) -> int:
        return len(self.points)

    @property
    def reproducibility(self) -> Dict[str, object]:
        """What it takes to reproduce these rows bit-for-bit.

        In chunked mode the inputs come from per-chunk
        ``default_rng((seed, chunk))`` streams and the accumulators reduce
        in ascending chunk order, so only ``seed`` and ``chunk_size``
        matter — the worker count never does.
        """

        return {
            "seed": self.seed,
            "images": self.images,
            "chunk_size": self.chunk_size,
            "chunks": self.chunks,
            "workers": self.workers,
            "generator": (
                "per-chunk default_rng((seed, chunk))"
                if self.chunk_size is not None
                else "single-stream default_rng(seed)"
            ),
            "worker_count_invariant": True,
        }

    def records(self) -> List[Dict[str, object]]:
        return [p.as_dict() for p in self.points]

    def as_dict(self) -> Dict[str, object]:
        """Non-finite values (an error-free ``sqnr_db``) serialise as null."""

        return {"reproducibility": self.reproducibility, "points": self.records()}

    def render(self) -> str:
        """The points table, then the reproducibility line."""

        repro = ", ".join(f"{key}={value}" for key, value in self.reproducibility.items())
        return f"{format_records(self.records())}\nreproducibility: {repro}"

    def column(self, name: str) -> np.ndarray:
        if name not in COLUMNS:
            raise KeyError(f"unknown column '{name}'; known: {COLUMNS}")
        return np.asarray([getattr(p, name) for p in self.points])

    def take(self, indices: Sequence[int]) -> "AccuracySweepResult":
        """A new result holding the given points (in the given order)."""

        return AccuracySweepResult(
            [self.points[i] for i in indices],
            self.images,
            self.seed,
            workers=self.workers,
            chunk_size=self.chunk_size,
            chunks=self.chunks,
        )

    def pareto_front(self, x: str = "latency_s", y: str = "rms_error") -> "AccuracySweepResult":
        """Rows not dominated on two metric columns, both minimized (default:
        latency/error)."""

        return super().pareto_front(x, y)


# -- the sweep ---------------------------------------------------------------------------


def accuracy_sweep(
    block: Union[str, BlockGeometry] = "layer3_2",
    formats: Optional[Sequence[QFormatLike]] = None,
    n_units: Sequence[int] = (16,),
    images: int = 8,
    seed: int = 0,
    input_scale: float = 0.5,
    workers: int = 1,
    chunk_size: Optional[int] = None,
) -> AccuracySweepResult:
    """Sweep the fixed-point format axis of one PL block's datapath.

    Parameters
    ----------
    block:
        The offloadable block (name or geometry) whose datapath is swept.
    formats:
        Q-formats to evaluate — :class:`QFormat` instances,
        ``(word_length, fraction_bits)`` pairs or ``"WL:FB"`` strings (see
        :meth:`QFormat.parse`; default: :data:`DEFAULT_FORMAT_LADDER`).
    n_units:
        MAC-unit counts; they move the latency/feasibility columns, not the
        numerics (the datapath arithmetic is unit-count independent).
    images:
        Batch size of the forward pass each format is measured on.
    seed:
        Seed of the deterministic weight/input generator — the same seed
        always measures the same batch, so sweeps are reproducible.
    input_scale:
        Magnitude of the random inputs (weights are drawn at 0.1).  Raising it
        pushes narrow formats into saturation, which is exactly the regime
        the ``overflow_fraction`` column reports on.
    workers:
        Worker processes over the chunks (1 = inline).  ``workers > 1``
        requires ``chunk_size`` (chunking defines the work items); each
        worker draws its chunk's inputs from the chunk's seeded stream, so
        the numbers are **worker-count-invariant** — workers only move
        wall-clock time.
    chunk_size:
        Images per streamed chunk.  ``None`` (the default) keeps the legacy
        single-stream inputs, bit-identical to earlier releases: weights and
        the whole batch come from one ``default_rng(seed)`` stream and are
        measured as one chunk.  Setting it switches to streaming
        accumulation: inputs come from per-chunk ``default_rng((seed,
        chunk))`` streams, error statistics accumulate as running sums, and
        peak memory is bounded by the chunk size — dataset-scale sweeps fit
        in RAM.  ``images``, ``workers`` and ``chunk_size`` must be integers
        (NumPy integers included); anything else is a ``ValueError``.
    """

    images = check_count("images", images, 1)
    workers = check_count("workers", workers, 1)
    seed = check_seed("seed", seed)
    if chunk_size is not None:
        chunk_size = check_count("chunk_size", chunk_size, 1, " (or None for the legacy path)")
    if not 0 <= input_scale < math.inf:
        raise ValueError(f"input_scale must be non-negative and finite (got {input_scale!r})")
    if workers > 1 and chunk_size is None:
        raise ValueError(
            "workers > 1 requires chunk_size: the chunk grid defines the shards "
            "(and keeps results worker-count-invariant)"
        )
    geometry = block if isinstance(block, BlockGeometry) else block_geometry(block)
    if formats is None:
        formats = DEFAULT_FORMAT_LADDER
    elif not formats:
        raise ValueError("formats must be a non-empty sequence (or None for the default ladder)")
    format_list = [QFormat.parse(f) for f in formats]
    unit_list = [check_count("n_units", u, 1) for u in n_units]
    if not unit_list:
        raise ValueError("n_units must be a non-empty sequence of positive integers")

    if chunk_size is None:
        # Legacy single-stream inputs: weights, then the whole batch, from
        # one ``default_rng(seed)`` stream, measured as a single chunk.
        rng = np.random.default_rng(seed)
        weights = BlockWeights.random(geometry, rng)
        z = rng.normal(
            0.0, input_scale, size=(images, geometry.in_channels, geometry.height, geometry.width)
        )
        chunks = [_measure_chunk(z, geometry, weights, format_list)]
    else:
        weights = BlockWeights.random(geometry, np.random.default_rng(seed))
        task = partial(_measure_seeded_chunk, seed, input_scale, geometry, weights, format_list)
        items = [(c, hi - lo) for c, (lo, hi) in enumerate(_chunk_bounds(images, chunk_size))]
        # Results come back in ascending chunk order — the order the
        # accumulators reduce in — for any worker count.
        chunks = ordered_map(task, items, workers)
    n_chunks = len(chunks)
    ref_stats = _merge_reference_stats([ref for ref, _ in chunks])
    fmt_stats = [
        _finalize_error_stats(_reduce_error_stats([accs[i] for _, accs in chunks]))
        for i in range(len(format_list))
    ]

    # Cost/feasibility columns are closed-form kernels over the unit axis,
    # with every board-derived constant (AXI clock, fabric delay scale,
    # timing target) taken from the PYNQ-Z2's board spec.
    cycle_model = OdeBlockCycleModel()
    transfer_s = AxiTransferModel(PYNQ_Z2).block_round_trip(geometry).seconds
    timing = TimingModel(PYNQ_Z2).analyze_batch(unit_list, target_hz=PYNQ_Z2.pl_clock_hz)

    points: List[AccuracyPoint] = []
    for fmt, stats in zip(format_list, fmt_stats):
        bound = _analytic_bound(fmt, weights, ref_stats)
        tiles = int(bram_tiles_kernel(geometry, fmt.bytes_per_value))
        fits = bool(bram_fits_kernel(tiles))
        for j, units in enumerate(unit_list):
            compute_s = cycle_model.block_time_seconds(geometry, units)
            latency = compute_s + transfer_s
            points.append(
                AccuracyPoint(
                    block=geometry.name,
                    word_length=fmt.word_length,
                    fraction_bits=fmt.fraction_bits,
                    qformat=fmt.name,
                    n_units=units,
                    max_abs_error=stats["max_abs_error"],
                    rms_error=stats["rms_error"],
                    sqnr_db=stats["sqnr_db"],
                    error_bound=bound,
                    overflow_fraction=stats["overflow_fraction"],
                    latency_s=latency,
                    compute_s=compute_s,
                    transfer_s=transfer_s,
                    images_per_s=1.0 / latency,
                    bram_tiles=tiles,
                    fits_device=fits,
                    fmax_mhz=float(timing["fmax_hz"][j]) / 1e6,
                    meets_timing=bool(timing["meets_timing"][j]),
                )
            )
    return AccuracySweepResult(
        points,
        images=images,
        seed=seed,
        workers=workers,
        chunk_size=chunk_size,
        chunks=n_chunks,
    )
