"""Property tests of the exact split-limb GEMM (`repro.fpga.gemm`).

The kernel's whole contract is one sentence — ``gemm_exact(a, b)`` (a
:class:`PlannedGemm` planned from both operands, as ``hw_conv2d`` runs it) is
bit-for-bit equal to NumPy's ``int64`` matmul for *every* input, it only
arrives faster — so these tests are a single property instantiated many
ways: random Q-format word lengths from 4 to 64 bits, random geometry
grids, adversarial all-rails operands (every entry at the format's
saturation rail), deliberately wrapping int64 inputs, and the fallback
trigger boundary where no limb decomposition fits the float64 mantissa.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fpga.gemm import (
    FLOAT_MANTISSA_BITS,
    MAX_LIMBS,
    PlannedGemm,
    plan_gemm,
)
from repro.fpga.gemm import _magnitude, _split_limbs


def gemm_exact(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a @ b`` through a :class:`PlannedGemm` planned from ``a``'s magnitudes."""

    planned = PlannedGemm(b, a_max=_magnitude(a))
    return planned(a.astype(planned.a_dtype))


def rand_ints(rng: np.random.Generator, bits: int, shape) -> np.ndarray:
    """Uniform int64 values of at most ``bits`` magnitude bits (signed)."""

    hi = 1 << (bits - 1) if bits < 64 else (1 << 63) - 1
    return rng.integers(-hi, hi, size=shape, dtype=np.int64, endpoint=True)


class TestPlanGemm:
    def test_small_operands_take_single_limb_blas(self):
        plan = plan_gemm(a_max=2**20, b_max=2**15, k=577)
        assert plan.split != "int64" and plan.n_limbs == 1

    def test_q20_conv_shape_splits_b_in_two(self):
        # Q20 activations (~31 bits) x Q20 weights at scale 0.1 (~17 bits),
        # K = 577: headroom 53 - 32 - 10 = 11 -> two 11-bit limbs of b.
        plan = plan_gemm(a_max=2**31 - 1, b_max=2**17 - 1, k=577)
        assert plan.split == "b"
        assert plan.n_limbs == 2

    def test_fallback_when_both_operands_are_wide(self):
        plan = plan_gemm(a_max=2**62, b_max=2**62, k=577)
        assert plan.split == "int64"

    def test_fallback_boundary_is_exactly_the_limb_budget(self):
        # Symmetric widths, k_bits = 6: w bits split into limbs of
        # (53 - w - 6) bits is feasible iff ceil(w / (47 - w)) <= MAX_LIMBS,
        # i.e. w <= 37.  One more bit on both sides and neither candidate
        # fits the limb budget -> the plan must fall back.
        k = 64  # k_bits = 6
        feasible = plan_gemm(2**37 - 1, 2**37 - 1, k)
        infeasible = plan_gemm(2**38 - 1, 2**38 - 1, k)
        assert feasible.split != "int64" and feasible.n_limbs == MAX_LIMBS
        assert feasible.split == "b"  # the tie-break side
        assert infeasible.split == "int64"

    def test_splits_the_wide_left_operand_when_cheaper(self):
        # a wide (46 bits), b narrow (8 bits), k_bits = 4: splitting b only
        # gets 3-bit limbs (3 of them); splitting a gets 41-bit limbs (2).
        plan = plan_gemm(a_max=2**45, b_max=2**7, k=16)
        assert plan.split == "a"
        assert plan.n_limbs == 2

    @given(
        a_bits=st.integers(1, 63),
        b_bits=st.integers(1, 63),
        k=st.integers(1, 10_000),
    )
    @settings(max_examples=200, deadline=None)
    def test_every_plan_respects_the_mantissa_bound(self, a_bits, b_bits, k):
        plan = plan_gemm(2**a_bits - 1, 2**b_bits - 1, k)
        if plan.split == "int64":
            return
        fixed_bits = plan.a_bits if plan.split == "b" else plan.b_bits
        assert fixed_bits + plan.limb_bits + plan.k_bits <= FLOAT_MANTISSA_BITS
        assert 1 <= plan.n_limbs <= MAX_LIMBS


class TestSplitLimbs:
    @given(bits=st.integers(1, 63), limb_bits=st.integers(1, 52))
    @settings(max_examples=100, deadline=None)
    def test_limbs_reconstruct_the_operand(self, bits, limb_bits):
        rng = np.random.default_rng((bits, limb_bits))
        x = rand_ints(rng, bits, (7, 5))
        n_limbs = max(1, -(-bits // limb_bits))
        limbs = _split_limbs(x, limb_bits, n_limbs)
        back = np.zeros_like(x)
        for j, limb in enumerate(limbs):
            back += limb.astype(np.int64) << np.int64(j * limb_bits)
        np.testing.assert_array_equal(back, x)

    def test_magnitude_handles_int64_min(self):
        assert _magnitude(np.array([np.iinfo(np.int64).min], dtype=np.int64)) == 2**63
        assert _magnitude(np.array([], dtype=np.int64)) == 0


class TestGemmExactBitIdentity:
    @given(
        a_word=st.integers(4, 64),
        b_word=st.integers(4, 64),
        m=st.integers(1, 24),
        k=st.integers(1, 96),
        n=st.integers(1, 24),
        seed=st.integers(0, 2**31),
    )
    @settings(max_examples=150, deadline=None)
    def test_random_wordlength_and_geometry_grid(self, a_word, b_word, m, k, n, seed):
        """The headline property: exact for any widths, any shapes."""

        rng = np.random.default_rng(seed)
        a = rand_ints(rng, min(a_word, 63), (m, k))
        b = rand_ints(rng, min(b_word, 63), (k, n))
        np.testing.assert_array_equal(gemm_exact(a, b), a @ b)

    @pytest.mark.parametrize("word_length", [4, 8, 16, 20, 32, 48, 64])
    def test_all_rails_adversarial_inputs(self, word_length):
        """Every entry at the signed rails of the word length (incl. wrap)."""

        lo = -(1 << (word_length - 1))
        hi = (1 << (word_length - 1)) - 1
        if word_length == 64:
            lo, hi = np.iinfo(np.int64).min, np.iinfo(np.int64).max
        rng = np.random.default_rng(word_length)
        a = rng.choice(np.array([lo, hi], dtype=np.int64), size=(16, 129))
        b = rng.choice(np.array([lo, hi], dtype=np.int64), size=(129, 8))
        # At wide word lengths the int64 accumulator wraps; NumPy's matmul
        # wraps modulo 2**64 and so must the recombination.
        np.testing.assert_array_equal(gemm_exact(a, b), a @ b)

    def test_zero_and_empty_operands(self):
        a = np.zeros((3, 4), dtype=np.int64)
        b = np.zeros((4, 2), dtype=np.int64)
        np.testing.assert_array_equal(gemm_exact(a, b), a @ b)
        a = np.empty((0, 4), dtype=np.int64)
        np.testing.assert_array_equal(gemm_exact(a, b), a @ b)

    @given(limbs=st.integers(1, MAX_LIMBS), seed=st.integers(0, 2**31))
    @settings(max_examples=60, deadline=None)
    def test_every_limb_count_is_exercised_and_exact(self, limbs, seed):
        """Drive the planner to each limb count and check bit-identity."""

        k = 32  # k_bits = 5
        a_bits = 30
        headroom = FLOAT_MANTISSA_BITS - a_bits - 5
        b_bits = min(headroom * limbs, 63)
        rng = np.random.default_rng(seed)
        a = rand_ints(rng, a_bits, (9, k))
        b = rand_ints(rng, b_bits, (k, 7))
        planned = PlannedGemm(b, a_max=_magnitude(a))
        if _magnitude(b).bit_length() > headroom * (limbs - 1):
            assert planned.plan.n_limbs == limbs
        np.testing.assert_array_equal(gemm_exact(a, b), a @ b)

    def test_fallback_path_is_the_plain_matmul(self):
        rng = np.random.default_rng(0)
        a = rand_ints(rng, 63, (5, 17))
        b = rand_ints(rng, 63, (17, 3))
        planned = PlannedGemm(b, a_max=_magnitude(a))
        assert planned.plan.split == "int64"
        np.testing.assert_array_equal(planned(a), a @ b)

    def test_planned_gemm_accepts_prematerialised_float64(self):
        """The hw_conv2d hot path feeds float64 im2col chunks directly."""

        rng = np.random.default_rng(1)
        a = rand_ints(rng, 30, (11, 145))
        b = rand_ints(rng, 17, (145, 16))
        planned = PlannedGemm(b, a_max=_magnitude(a))
        assert planned.plan.split == "b"
        assert planned.a_dtype == np.float64
        np.testing.assert_array_equal(planned(a.astype(np.float64)), a @ b)

    def test_shape_and_dtype_validation(self):
        a = np.zeros((2, 3), dtype=np.int64)
        with pytest.raises(ValueError, match="2-D"):
            PlannedGemm(np.zeros(3, dtype=np.int64), a_max=1)
        with pytest.raises(ValueError, match="int64"):
            PlannedGemm(np.zeros((3, 2), dtype=np.float64), a_max=1)
        with pytest.raises(ValueError, match="incompatible"):
            PlannedGemm(np.zeros((4, 2), dtype=np.int64), a_max=1)(a)
