"""Exact integer GEMM at BLAS speed: the split-limb kernel.

NumPy has no BLAS backend for integer matrix multiplication, so the
``int64`` matmul at the heart of the bit-accurate forward path
(:func:`repro.fpga.ops.hw_conv2d`) runs through a slow generic inner loop.
This module reaches BLAS speed without sacrificing a single bit by
decomposing **one** operand into
two's-complement limbs sized so that every partial product *and* its whole
K-term accumulation is an integer below :data:`FLOAT_MANTISSA_LIMIT` — i.e.
exactly representable in a float64 mantissa.  Each limb GEMM then runs
through float64 BLAS, is converted back to ``int64`` (exact, no rounding),
shifted into place and accumulated with ordinary wrapping ``int64``
arithmetic.

Why the result is bit-identical to ``a @ b`` on ``int64``:

* Let ``lb`` be the limb width and ``s = 53 - a_bits - k_bits`` the mantissa
  headroom (``a_bits`` bounds the un-split operand's magnitudes, ``k_bits =
  ceil(log2 K)`` the reduction depth).  With ``lb <= s`` every partial sum of
  ``K`` products ``|a_ik| * |limb_kj| < 2**(a_bits + lb)`` stays strictly
  below ``2**53``, so float64 addition is exact **in any order** — the
  result does not depend on BLAS blocking or threading.
* The limbs reconstruct the operand exactly (``x = sum_j limb_j << (j*lb)``
  with unsigned low limbs and an arithmetic-shifted, sign-carrying top
  limb), and the recombination shift/add wraps modulo ``2**64`` exactly as
  NumPy's ``int64`` matmul does, so even deliberately-overflowing inputs
  (the RTL testbench's wrapping accumulators) recombine bit-identically.

When no single-operand split satisfies the bound within
:data:`MAX_LIMBS` limb GEMMs — very wide word lengths, e.g. both operands
near 64 bits — :func:`plan_gemm` returns the ``int64`` fallback and the
kernel degrades to the original exact-but-slow matmul.  The plan is
computed per call from the operands' **actual** magnitudes (not their
storage width), so e.g. Q20 weights drawn at scale 0.1 occupy ~17 bits and
often need just one or two limbs.

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
from typing import List, Optional

import numpy as np

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


def _magnitude(x: np.ndarray) -> int:
    """Largest absolute value of an int64 array, as an exact Python int.

    ``np.abs`` wraps on ``-2**63``; taking the two extrema separately and
    negating in Python-int arithmetic is exact for the whole int64 range.
    """

    if x.size == 0:
        return 0
    return max(int(x.max()), -int(x.min()))


@dataclass(frozen=True)
class GemmPlan:
    """How one exact GEMM will run.

    ``split`` names the decomposed operand: ``"a"`` (left), ``"b"`` (right)
    or ``"int64"`` (no feasible split — exact fallback matmul).  For a split
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
        """The dtype the left operand should be materialised in.

        float64 when the *right* operand is the one split (the left flows
        straight into BLAS); int64 otherwise (it is decomposed, or the plan
        fell back to the integer matmul).
        """

        return np.dtype(np.float64) if self.split == "b" else np.dtype(np.int64)


def plan_gemm(a_max: int, b_max: int, k: int) -> GemmPlan:
    """Choose the exact split for ``a @ b`` from actual operand magnitudes.

    Parameters
    ----------
    a_max, b_max:
        Largest absolute values of the left/right operand (exact ints).
    k:
        Reduction depth (the shared dimension, ``KH*KW*C`` for im2col conv).

    The exactness bound per candidate: splitting ``b`` into ``lb``-bit limbs
    is exact iff ``a_bits + lb + k_bits <= 53`` (and symmetrically for
    ``a``), because every float64 partial sum is then an integer strictly
    below ``2**53``.  Between feasible candidates the one with fewer limb
    GEMMs wins; ties prefer splitting ``b`` (the small, reusable weight
    operand in the conv lowering).  A split needing more than
    :data:`MAX_LIMBS` limbs falls back to the int64 matmul.
    """

    a_bits = int(a_max).bit_length()
    b_bits = int(b_max).bit_length()
    k_bits = (max(int(k), 1) - 1).bit_length()

    def candidate(split: str, fixed_bits: int, split_bits: int) -> Optional[GemmPlan]:
        headroom = FLOAT_MANTISSA_BITS - fixed_bits - k_bits
        if headroom < 1:
            return None
        limb_bits = min(headroom, max(split_bits, 1))
        n_limbs = max(1, -(-split_bits // limb_bits))
        if n_limbs > MAX_LIMBS:
            return None
        return GemmPlan(split, limb_bits, n_limbs, a_bits, b_bits, k_bits)

    options = [
        plan
        for plan in (candidate("b", a_bits, b_bits), candidate("a", b_bits, a_bits))
        if plan is not None
    ]
    if not options:
        return GemmPlan("int64", 0, 0, a_bits, b_bits, k_bits)
    # Fewest limb GEMMs wins; the listed order makes "b" the tie-break.
    return min(options, key=lambda p: p.n_limbs)


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
    *stacked* — columns ``[limb0 | limb1 | ...]`` for a ``b`` split, rows
    for an ``a`` split — so all limbs run as **one** BLAS call that streams
    the large operand through memory once instead of once per limb.  Feed
    left chunks materialised as :attr:`a_dtype`
    (:func:`repro.nn.im2col.im2col` can write them directly).
    """

    def __init__(self, b: np.ndarray, a_max: int) -> None:
        b = np.asarray(b)
        if b.ndim != 2:
            raise ValueError(f"right operand must be 2-D, got shape {b.shape}")
        if b.dtype != np.int64:
            raise ValueError(f"right operand must be int64, got {b.dtype}")
        self.plan = plan_gemm(a_max, _magnitude(b), b.shape[0])
        self._b = b if self.plan.split == "int64" else None
        self._b_float = b.astype(np.float64) if self.plan.split == "a" else None
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
        if plan.split == "a":
            limbs = _split_limbs(np.asarray(a, dtype=np.int64), plan.limb_bits, plan.n_limbs)
            parts = np.concatenate(limbs, axis=0) @ self._b_float  # (n_limbs * M, N)
            m = a.shape[0]
            acc = parts[:m].astype(np.int64)
            for j in range(1, plan.n_limbs):
                acc += parts[j * m : (j + 1) * m].astype(np.int64) << np.int64(
                    j * plan.limb_bits
                )
            return acc
        return np.asarray(a, dtype=np.int64) @ self._b
