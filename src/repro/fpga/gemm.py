"""Exact integer GEMM at BLAS speed: the split-limb kernel.

NumPy has no BLAS backend for integer matrix multiplication, so the
``int64`` matmul at the heart of the bit-accurate forward path
(:func:`repro.fpga.ops.hw_conv2d`) runs through a slow generic inner loop.
This module reaches BLAS speed without sacrificing a single bit by
decomposing the right-hand (weight) operand into two's-complement limbs
sized so that every partial product *and* its whole K-term accumulation is
an integer below ``2**FLOAT_MANTISSA_BITS`` — i.e. exactly representable in
a float64 mantissa.  Each limb GEMM then runs
through float64 BLAS, is converted back to ``int64`` (exact, no rounding),
shifted into place and accumulated with ordinary wrapping ``int64``
arithmetic.

Why the result is bit-identical to ``a @ b`` on ``int64``:

* Let ``lb`` be the limb width and ``s = 53 - a_bits - k_bits`` the mantissa
  headroom (``a_bits`` bounds the left operand's magnitudes, ``k_bits =
  ceil(log2 K)`` the reduction depth).  With ``lb <= s`` every partial sum of
  ``K`` products ``|a_ik| * |limb_kj| < 2**(a_bits + lb)`` stays strictly
  below ``2**53``, so float64 addition is exact **in any order** — the
  result does not depend on BLAS blocking or threading.
* The limbs reconstruct the weights exactly (``x = sum_j limb_j << (j*lb)``
  with unsigned low limbs and an arithmetic-shifted, sign-carrying top
  limb), and the recombination shift/add wraps modulo ``2**64`` exactly as
  NumPy's ``int64`` matmul does, so even deliberately-overflowing inputs
  (the RTL testbench's wrapping accumulators) recombine bit-identically.

When no weight split satisfies the bound within :data:`MAX_LIMBS` limb
GEMMs — wide operands, e.g. both near 64 bits in the public
:func:`~repro.fpga.ops.hw_conv2d` — :func:`plan_gemm` returns the ``int64``
fallback and the kernel degrades to the original exact-but-slow matmul.
The plan is computed per call from the operands' **actual** magnitudes (not
their storage width), so e.g. Q20 weights drawn at scale 0.1 occupy ~17
bits and often need just one or two limbs.

:class:`PlannedGemm` is the hot-loop interface: plan once against a fixed
right-hand operand (a conv weight matrix), then run left-hand operands
through it — :func:`repro.fpga.ops.hw_conv2d` plans once per call (one
image group of the forward pass) and feeds it the group's channel-last
``im2col`` matrix (columns ordered ``(KH, KW, C)``) written directly in the
dtype the plan wants (float64 for the BLAS path), so the expanded patch
matrix is materialised exactly once per group.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from ..fixedpoint.arithmetic import _magnitude

__all__ = [
    "FLOAT_MANTISSA_BITS",
    "MAX_LIMBS",
    "GemmPlan",
    "plan_gemm",
    "PlannedGemm",
]

#: float64 mantissa width: integers of magnitude < 2**53 are exact.
FLOAT_MANTISSA_BITS = 53

#: Largest number of limb GEMMs worth running before the BLAS advantage is
#: eaten by the decomposition; beyond this the int64 fallback wins.
MAX_LIMBS = 4


@dataclass(frozen=True)
class GemmPlan:
    """How one exact GEMM will run.

    ``split`` is ``"b"`` (the right-hand weight operand is decomposed) or
    ``"int64"`` (no feasible split — exact fallback matmul).  For a split
    plan, ``n_limbs`` float64 GEMMs of ``limb_bits``-wide limbs run and
    recombine; ``n_limbs == 1`` is the pure float64 fast path (the whole
    operand already fits the mantissa headroom).
    """

    split: str
    limb_bits: int
    n_limbs: int
    a_bits: int
    b_bits: int
    k_bits: int

    @property
    def a_dtype(self) -> np.dtype:
        """The dtype the left operand should be materialised in: float64
        for a weight split (it flows straight into BLAS), int64 for the
        fallback integer matmul."""

        return np.dtype(np.float64) if self.split == "b" else np.dtype(np.int64)


def plan_gemm(a_max: int, b_max: int, k: int) -> GemmPlan:
    """Choose the exact split for ``a @ b`` from actual operand magnitudes.

    Parameters
    ----------
    a_max, b_max:
        Largest absolute values of the left/right operand (exact ints).
    k:
        Reduction depth (the shared dimension, ``KH*KW*C`` for im2col conv).

    Splitting ``b`` (the small, reusable weight operand of the conv
    lowering) into ``lb``-bit limbs is exact iff ``a_bits + lb + k_bits <=
    53``, because every float64 partial sum is then an integer strictly
    below ``2**53``.  A split needing more than :data:`MAX_LIMBS` limbs, or
    with no headroom at all, falls back to the int64 matmul.
    """

    a_bits = int(a_max).bit_length()
    b_bits = int(b_max).bit_length()
    k_bits = (max(int(k), 1) - 1).bit_length()

    headroom = FLOAT_MANTISSA_BITS - a_bits - k_bits
    if headroom >= 1:
        limb_bits = min(headroom, max(b_bits, 1))
        n_limbs = max(1, -(-b_bits // limb_bits))
        if n_limbs <= MAX_LIMBS:
            return GemmPlan("b", limb_bits, n_limbs, a_bits, b_bits, k_bits)
    return GemmPlan("int64", 0, 0, a_bits, b_bits, k_bits)


def _split_limbs(x: np.ndarray, limb_bits: int, n_limbs: int) -> List[np.ndarray]:
    """Two's-complement limb decomposition, each limb as exact float64.

    Low limbs are unsigned ``limb_bits``-bit fields; the top limb is the
    arithmetic-shifted remainder and carries the sign, so
    ``x == sum_j limbs[j] << (j * limb_bits)`` exactly.
    """

    mask = np.int64((1 << limb_bits) - 1)
    limbs = [
        ((x >> np.int64(j * limb_bits)) & mask).astype(np.float64)
        for j in range(n_limbs - 1)
    ]
    limbs.append((x >> np.int64((n_limbs - 1) * limb_bits)).astype(np.float64))
    return limbs


class PlannedGemm:
    """Exact GEMM against a fixed right-hand ``(K, N)`` operand.

    Plans once (from ``a_max``, the guaranteed magnitude bound of every
    future left operand) and pre-decomposes the right operand, so the hot
    loop pays only the limb GEMM and the recombination.  The limbs are
    *stacked* as columns ``[limb0 | limb1 | ...]``, so all limbs run as
    **one** BLAS call that streams the large left operand through memory
    once instead of once per limb.  Feed left chunks materialised as
    :attr:`a_dtype` (:func:`repro.nn.im2col.im2col` can write them
    directly).
    """

    def __init__(self, b: np.ndarray, a_max: int) -> None:
        b = np.asarray(b)
        if b.ndim != 2:
            raise ValueError(f"right operand must be 2-D, got shape {b.shape}")
        if b.dtype != np.int64:
            raise ValueError(f"right operand must be int64, got {b.dtype}")
        self.plan = plan_gemm(a_max, _magnitude(b), b.shape[0])
        self._b = b if self.plan.split == "int64" else None
        self._b_stack = (
            np.concatenate(_split_limbs(b, self.plan.limb_bits, self.plan.n_limbs), axis=1)
            if self.plan.split == "b"
            else None
        )
        self.shape = b.shape

    @property
    def a_dtype(self) -> np.dtype:
        return self.plan.a_dtype

    def __call__(self, a: np.ndarray) -> np.ndarray:
        """``a @ b`` as wrapping int64, bit-identical to the int64 matmul."""

        if a.ndim != 2 or a.shape[1] != self.shape[0]:
            raise ValueError(f"left operand shape {a.shape} incompatible with {self.shape}")
        plan = self.plan
        n = self.shape[1]
        if plan.split == "b":
            if a.dtype != np.float64:
                a = a.astype(np.float64)
            parts = a @ self._b_stack  # (M, n_limbs * N), exact integers
            acc = parts[:, :n].astype(np.int64)
            for j in range(1, plan.n_limbs):
                # Partials are integers < 2**53, exact in int64; shift and
                # addition wrap modulo 2**64 exactly like the int64 matmul.
                acc += parts[:, j * n : (j + 1) * n].astype(np.int64) << np.int64(
                    j * plan.limb_bits
                )
            return acc
        return np.asarray(a, dtype=np.int64) @ self._b
