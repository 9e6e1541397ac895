"""Whole-batch quantisation-error statistics: the reference for accuracy sweeps.

``repro.api.accuracy._finalize_error_stats`` computes these metrics from
streamed per-chunk accumulators; on a single chunk it must reproduce
:func:`error_report` bit for bit (``tests/api/test_accuracy_stream.py``).
:func:`analyze_quantization` and :func:`sweep_wordlengths` apply the same
statistics to a signal quantised by the format itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence

import numpy as np

from repro.fixedpoint import QFormat


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


def error_report(reference: np.ndarray, actual: np.ndarray, fmt: QFormat) -> QuantizationReport:
    """Error statistics of a computed signal (e.g. the datapath's output) vs a reference.

    The overflow fraction counts reference values outside the format's
    representable range (the saturation regime).
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


def analyze_quantization(values: np.ndarray, fmt: QFormat) -> QuantizationReport:
    """Quantise ``values`` with ``fmt`` and report the error statistics."""

    values = np.asarray(values, dtype=np.float64)
    return error_report(values, fmt.to_float(fmt.to_fixed(values)), fmt)


def sweep_wordlengths(
    values: np.ndarray,
    formats: Sequence[QFormat],
) -> Dict[str, QuantizationReport]:
    """Analyse quantisation of the same signal under several formats."""

    return {fmt.name: analyze_quantization(values, fmt) for fmt in formats}
