"""Quantisation-error analysis utilities.

Used by the word-length ablation (EXPERIMENTS.md, E11) to quantify how the
choice of fixed-point format affects numerical fidelity of the ODEBlock
datapath, supporting the paper's footnote that 16-bit or smaller formats
would fit more layers into BRAM at some accuracy cost.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence

import numpy as np

from .qformat import QFormat

__all__ = [
    "QuantizationReport",
    "analyze_quantization",
    "error_report",
    "sweep_wordlengths",
    "sqnr_db",
    "conv_error_bound",
    "batch_norm_error_bound",
    "odeblock_error_bound",
    "OdeBlockErrorBound",
]


@dataclass(frozen=True)
class QuantizationReport:
    """Summary statistics of quantising a signal with a given format."""

    fmt: QFormat
    max_abs_error: float
    mean_abs_error: float
    rms_error: float
    sqnr_db: float
    overflow_fraction: float

    def as_dict(self) -> Dict[str, float]:
        return {
            "word_length": self.fmt.word_length,
            "fraction_bits": self.fmt.fraction_bits,
            "max_abs_error": self.max_abs_error,
            "mean_abs_error": self.mean_abs_error,
            "rms_error": self.rms_error,
            "sqnr_db": self.sqnr_db,
            "overflow_fraction": self.overflow_fraction,
        }


def sqnr_db(signal: np.ndarray, error: np.ndarray) -> float:
    """Signal-to-quantisation-noise ratio in decibels."""

    signal_power = float(np.mean(np.square(signal)))
    noise_power = float(np.mean(np.square(error)))
    if noise_power == 0.0:
        return float("inf")
    if signal_power == 0.0:
        return float("-inf")
    return 10.0 * np.log10(signal_power / noise_power)


def analyze_quantization(values: np.ndarray, fmt: QFormat) -> QuantizationReport:
    """Quantise ``values`` with ``fmt`` and report error statistics."""

    values = np.asarray(values, dtype=np.float64)
    quantized = fmt.quantize(values)
    error = quantized - values
    representable = fmt.representable(values)
    return QuantizationReport(
        fmt=fmt,
        max_abs_error=float(np.max(np.abs(error))) if values.size else 0.0,
        mean_abs_error=float(np.mean(np.abs(error))) if values.size else 0.0,
        rms_error=float(np.sqrt(np.mean(np.square(error)))) if values.size else 0.0,
        sqnr_db=sqnr_db(values, error),
        overflow_fraction=float(1.0 - representable.mean()) if values.size else 0.0,
    )


def error_report(reference: np.ndarray, actual: np.ndarray, fmt: QFormat) -> QuantizationReport:
    """Error statistics of an *already-computed* signal against a reference.

    Unlike :func:`analyze_quantization` (which quantises the input itself),
    this compares two given signals — e.g. a fixed-point datapath's output
    versus its float64 reference — and reports the same statistics.  The
    overflow fraction counts reference values outside the format's
    representable range (the saturation regime).  Used by the
    accuracy-vs-format sweep (:func:`repro.api.accuracy.accuracy_sweep`).
    """

    reference = np.asarray(reference, dtype=np.float64)
    actual = np.asarray(actual, dtype=np.float64)
    if reference.shape != actual.shape:
        raise ValueError(f"shape mismatch: {reference.shape} vs {actual.shape}")
    error = actual - reference
    representable = fmt.representable(reference)
    return QuantizationReport(
        fmt=fmt,
        max_abs_error=float(np.max(np.abs(error))) if reference.size else 0.0,
        mean_abs_error=float(np.mean(np.abs(error))) if reference.size else 0.0,
        rms_error=float(np.sqrt(np.mean(np.square(error)))) if reference.size else 0.0,
        sqnr_db=sqnr_db(reference, error),
        overflow_fraction=float(1.0 - representable.mean()) if reference.size else 0.0,
    )


def sweep_wordlengths(
    values: np.ndarray,
    formats: Sequence[QFormat],
) -> Dict[str, QuantizationReport]:
    """Analyse quantisation of the same signal under several formats."""

    return {fmt.name: analyze_quantization(values, fmt) for fmt in formats}


# -- analytic error bounds of the ODEBlock datapath --------------------------------------
#
# These bound the deviation of the bit-accurate fixed-point pipeline
# (:mod:`repro.fpga.ops` / :class:`repro.fpga.odeblock_hw.HardwareODEBlock`)
# from an exact floating-point execution of the same mathematics, by
# propagating worst-case per-stage errors (interval arithmetic, first order
# in the format resolution, with a 2x safety factor on the division terms).
# The bounds are parameterised by magnitudes of the *float reference* signal
# — max |input|, max |weight|, the per-channel sigma floor — which the
# differential test (``tests/fpga/test_odeblock_differential.py``) measures
# from the reference run.  They assume the signal stays inside the
# representable range (no saturation) and that the sigma error is small
# against ``sigma_min`` (true whenever ``sigma_min >> resolution``, the
# regime of every practical Q-format here).


def conv_error_bound(
    fmt: QFormat,
    fan_in: int,
    weight_max: float,
    input_max: float,
    input_error: float,
) -> float:
    """Worst-case output error of one fixed-point convolution.

    ``fan_in`` is the number of accumulated products per output element
    (``C_in * K * K``).  Each product contributes the cross terms of the
    weight and input quantisation errors; the wide accumulator adds no error
    and the single renormalising right-shift truncates by at most one LSB.
    """

    weight_error = fmt.resolution / 2.0  # weights are quantised by rounding
    per_term = (
        weight_max * input_error + input_max * weight_error + weight_error * input_error
    )
    return fan_in * per_term + fmt.resolution


def batch_norm_error_bound(
    fmt: QFormat,
    input_error: float,
    centered_max,
    sigma_min,
    gamma_max: float = 1.0,
) -> float:
    """Worst-case output error of one fixed-point batch-normalisation.

    Propagates the input error through the dynamic-statistics datapath: mean
    (truncating divide), variance (truncating multiply + divide), sigma
    (floor integer square root, error <= one resolution step), the
    normalising division and the gamma/beta affine step.  ``centered_max``
    bounds ``|x - mean|`` and ``sigma_min`` is a lower bound on the true
    ``sqrt(var + eps)``; both may be *per-channel arrays* — pairing each
    channel's amplitude with its own sigma floor gives a much tighter bound
    than the global worst pair, and the result is the max over channels.
    """

    r = fmt.resolution
    centered_max = np.asarray(centered_max, dtype=np.float64)
    sigma_min = np.asarray(sigma_min, dtype=np.float64)
    mean_error = input_error + r
    centered_error = input_error + mean_error
    square_error = 2.0 * centered_max * centered_error + centered_error**2 + r
    var_error = square_error + r
    # var + eps: quantising eps adds at most half a resolution step.
    sigma_error = (var_error + r / 2.0) / (2.0 * sigma_min) + r
    normalized_max = centered_max / sigma_min
    normalized_error = (
        2.0 * centered_error / sigma_min
        + 2.0 * normalized_max * sigma_error / sigma_min
        + r
    )
    gamma_error = r / 2.0
    scaled_error = (
        gamma_max * normalized_error
        + normalized_max * gamma_error
        + gamma_error * normalized_error
        + r
    )
    beta_error = r / 2.0
    return float(np.max(scaled_error + beta_error))


@dataclass(frozen=True)
class OdeBlockErrorBound:
    """Per-stage cumulative error bounds of the five-step ODEBlock pipeline."""

    fmt: QFormat
    input_error: float
    conv1_error: float
    bn1_error: float
    conv2_error: float
    bn2_error: float

    @property
    def total(self) -> float:
        """Bound on the final output error (ReLU is non-expansive)."""

        return self.bn2_error


def odeblock_error_bound(
    fmt: QFormat,
    fan_in1: int,
    weight1_max: float,
    input_max: float,
    centered1_max: float,
    sigma1_min: float,
    fan_in2: int,
    weight2_max: float,
    hidden_max: float,
    centered2_max: float,
    sigma2_min: float,
    gamma1_max: float = 1.0,
    gamma2_max: float = 1.0,
) -> OdeBlockErrorBound:
    """Analytic error bound of one ODEBlock dynamics evaluation.

    Composes :func:`conv_error_bound` and :func:`batch_norm_error_bound`
    along the conv -> BN -> ReLU -> conv -> BN pipeline.  ``hidden_max``
    bounds the float reference after the ReLU (the second convolution's
    input); the remaining magnitude parameters follow the per-stage
    functions.  The bound scales with ``2**-fraction_bits``, making explicit
    how word-length choices trade BRAM against fidelity (the paper's
    footnote 2).
    """

    input_error = fmt.resolution / 2.0
    conv1 = conv_error_bound(fmt, fan_in1, weight1_max, input_max, input_error)
    bn1 = batch_norm_error_bound(fmt, conv1, centered1_max, sigma1_min, gamma1_max)
    # ReLU is 1-Lipschitz: the error entering conv2 is at most bn1's.
    conv2 = conv_error_bound(fmt, fan_in2, weight2_max, hidden_max, bn1)
    bn2 = batch_norm_error_bound(fmt, conv2, centered2_max, sigma2_min, gamma2_max)
    return OdeBlockErrorBound(
        fmt=fmt,
        input_error=input_error,
        conv1_error=conv1,
        bn1_error=bn1,
        conv2_error=conv2,
        bn2_error=bn2,
    )
