"""Tests for the im2col / col2im convolution lowering."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn.im2col import col2im, conv_output_size, im2col


class TestConvOutputSize:
    @pytest.mark.parametrize(
        "size,kernel,stride,padding,expected",
        [
            (32, 3, 1, 1, 32),
            (32, 3, 2, 1, 16),
            (8, 3, 1, 1, 8),
            (8, 3, 1, 0, 6),
            (5, 5, 1, 0, 1),
            (7, 3, 2, 0, 3),
        ],
    )
    def test_known_sizes(self, size, kernel, stride, padding, expected):
        assert conv_output_size(size, kernel, stride, padding) == expected


class TestIm2Col:
    def test_output_shape(self):
        x = np.arange(2 * 3 * 5 * 5, dtype=np.float64).reshape(2, 3, 5, 5)
        cols = im2col(x, 3, 3, stride=1, padding=1)
        assert cols.shape == (2 * 5 * 5, 3 * 9)

    def test_identity_kernel_recovers_input(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(1, 2, 4, 4))
        cols = im2col(x, 1, 1, stride=1, padding=0)
        np.testing.assert_allclose(cols.reshape(4, 4, 2).transpose(2, 0, 1), x[0])

    def test_manual_patch_values(self):
        x = np.arange(16, dtype=np.float64).reshape(1, 1, 4, 4)
        cols = im2col(x, 3, 3, stride=1, padding=0)
        # First patch is the top-left 3x3 window.
        np.testing.assert_allclose(cols[0], x[0, 0, :3, :3].reshape(-1))
        # Last patch is the bottom-right window.
        np.testing.assert_allclose(cols[-1], x[0, 0, 1:, 1:].reshape(-1))

    def test_padding_adds_zeros(self):
        x = np.ones((1, 1, 2, 2))
        cols = im2col(x, 3, 3, stride=1, padding=1)
        # The corner patch should contain 5 zeros (padded area) and 4 ones.
        assert cols[0].sum() == 4

    def test_strided_patches(self):
        x = np.arange(36, dtype=np.float64).reshape(1, 1, 6, 6)
        cols = im2col(x, 2, 2, stride=2, padding=0)
        assert cols.shape == (9, 4)
        np.testing.assert_allclose(cols[0], [0, 1, 6, 7])
        np.testing.assert_allclose(cols[1], [2, 3, 8, 9])

    def test_conv_via_im2col_matches_direct(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(2, 3, 6, 6))
        w = rng.normal(size=(4, 3, 3, 3))
        cols = im2col(x, 3, 3, stride=1, padding=1)
        # Columns are channel-last (KH, KW, C): the kernel is reordered to match.
        w_mat = w.transpose(0, 2, 3, 1).reshape(4, -1)
        out = (cols @ w_mat.T).reshape(2, 6, 6, 4).transpose(0, 3, 1, 2)
        # Direct (slow) convolution for reference.
        padded = np.pad(x, ((0, 0), (0, 0), (1, 1), (1, 1)))
        ref = np.zeros_like(out)
        for n in range(2):
            for o in range(4):
                for i in range(6):
                    for j in range(6):
                        ref[n, o, i, j] = np.sum(padded[n, :, i : i + 3, j : j + 3] * w[o])
        np.testing.assert_allclose(out, ref, rtol=1e-10, atol=1e-10)


class TestIm2ColDtypeOut:
    """The gather+cast path feeding the split-limb GEMM."""

    def test_out_buffer_is_filled_and_returned(self):
        x = np.arange(1 * 2 * 4 * 4, dtype=np.int64).reshape(1, 2, 4, 4)
        buf = np.full((16, 18), -1, dtype=np.float64)
        cols = im2col(x, 3, 3, stride=1, padding=1, out=buf)
        assert cols is buf
        np.testing.assert_array_equal(buf, im2col(x, 3, 3, stride=1, padding=1))

    def test_out_reuse_across_chunks_matches_fresh_allocation(self):
        rng = np.random.default_rng(2)
        buf = np.empty((16, 18), dtype=np.float64)
        for _ in range(3):
            x = rng.normal(size=(1, 2, 4, 4))
            got = im2col(x, 3, 3, stride=1, padding=1, out=buf)
            np.testing.assert_array_equal(got, im2col(x, 3, 3, stride=1, padding=1))

    def test_out_shape_mismatch_raises(self):
        x = np.zeros((1, 2, 4, 4))
        with pytest.raises(ValueError, match="shape"):
            im2col(x, 3, 3, stride=1, padding=1, out=np.empty((15, 18)))

    def test_non_contiguous_out_raises(self):
        x = np.zeros((1, 2, 4, 4))
        buf = np.empty((16, 36), dtype=np.float64)[:, ::2]
        with pytest.raises(ValueError, match="contiguous"):
            im2col(x, 3, 3, stride=1, padding=1, out=buf)

    def test_float_into_integer_out_raises(self):
        x = np.ones((1, 2, 4, 4))
        with pytest.raises(TypeError, match="same_kind"):
            im2col(x, 3, 3, stride=1, padding=1, out=np.empty((16, 18), dtype=np.int64))

    def test_default_path_unchanged(self):
        x = np.arange(16, dtype=np.float32).reshape(1, 1, 4, 4)
        cols = im2col(x, 3, 3, stride=1, padding=0)
        assert cols.dtype == np.float32


class TestPaddedBufferReuse:
    """The padded copy is allocated uninitialised; its border must be zeroed."""

    @pytest.mark.parametrize("padding", [0, 1, 2])
    def test_border_is_zero_after_a_dirty_free(self, padding):
        rng = np.random.default_rng(padding)
        n, c, h, w = 1, 2, 3, 3
        x = rng.normal(size=(n, c, h, w))
        padded = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
        out_h = conv_output_size(h, 3, 1, padding)
        out_w = conv_output_size(w, 3, 1, padding)
        want = np.array([
            padded[i, :, r : r + 3, s : s + 3].transpose(1, 2, 0).ravel()
            for i in range(n) for r in range(out_h) for s in range(out_w)
        ])
        # NumPy caches freed blocks this small and hands the same block to
        # the next allocation of its size: im2col's padded NHWC buffer.
        junk = np.full((n, h + 2 * padding, w + 2 * padding, c), np.nan)
        del junk
        np.testing.assert_array_equal(im2col(x, 3, 3, stride=1, padding=padding), want)


class TestCol2Im:
    def test_roundtrip_counts_overlaps(self):
        # col2im(im2col(x)) multiplies each pixel by the number of windows
        # covering it; for a kernel of 1 the round trip is exact.
        x = np.arange(8.0).reshape(1, 2, 2, 2)
        cols = im2col(x, 1, 1, stride=1, padding=0)
        back = col2im(cols, (1, 2, 2, 2), 1, 1, stride=1, padding=0)
        np.testing.assert_allclose(back, x)

    def test_overlap_accumulation(self):
        x = np.ones((1, 1, 3, 3))
        cols = im2col(x, 3, 3, stride=1, padding=1)
        back = col2im(cols, (1, 1, 3, 3), 3, 3, stride=1, padding=1)
        # The centre pixel is covered by all 9 windows.
        assert back[0, 0, 1, 1] == pytest.approx(9.0)
        # A corner pixel is covered by 4 windows.
        assert back[0, 0, 0, 0] == pytest.approx(4.0)

    @given(st.integers(1, 3), st.integers(3, 6), st.integers(0, 1), st.integers(1, 2))
    @settings(max_examples=20, deadline=None)
    def test_shapes_consistent(self, channels, size, padding, stride):
        x = np.random.default_rng(0).normal(size=(1, channels, size, size))
        out_size = conv_output_size(size, 3, stride, padding)
        if out_size <= 0:
            return
        cols = im2col(x, 3, 3, stride=stride, padding=padding)
        assert cols.shape == (out_size * out_size, channels * 9)
        back = col2im(cols, x.shape, 3, 3, stride=stride, padding=padding)
        assert back.shape == x.shape
