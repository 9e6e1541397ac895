"""Unit and property tests for the autograd Tensor."""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.nn import Tensor, as_tensor, no_grad


# ---------------------------------------------------------------------------
# Construction / basic properties
# ---------------------------------------------------------------------------


class TestTensorBasics:
    def test_construction_from_list(self):
        t = Tensor([[1.0, 2.0], [3.0, 4.0]])
        assert t.shape == (2, 2)
        assert t.data.dtype == np.float64
        assert not t.requires_grad

    def test_construction_from_tensor_shares_data(self):
        a = Tensor(np.arange(4.0))
        b = Tensor(a)
        assert np.shares_memory(a.data, b.data)

    def test_as_tensor_passthrough(self):
        a = Tensor([1.0])
        assert as_tensor(a) is a

    def test_as_tensor_from_scalar(self):
        t = as_tensor(3.5)
        assert t.data.shape == ()
        assert t.item() == 3.5

    def test_zero_grad(self):
        a = Tensor([1.0], requires_grad=True)
        (a * 2).backward()
        assert a.grad is not None
        a.zero_grad()
        assert a.grad is None

    def test_len_and_size(self):
        t = Tensor(np.zeros((3, 4)))
        assert t.shape == (3, 4)
        assert t.size == 12


class TestNoGrad:
    def test_no_grad_disables_graph(self):
        a = Tensor([1.0], requires_grad=True)
        with no_grad():
            b = a * 2
        assert not b.requires_grad
        assert (a * 2).requires_grad

    def test_no_grad_nesting_restores_state(self):
        a = Tensor([1.0], requires_grad=True)
        with no_grad():
            with no_grad():
                assert not (a * 2).requires_grad
            assert not (a * 2).requires_grad
        assert (a * 2).requires_grad

    def test_new_tensor_inside_no_grad_never_requires_grad(self):
        with no_grad():
            t = Tensor([1.0], requires_grad=True)
        assert not t.requires_grad


# ---------------------------------------------------------------------------
# Arithmetic forward values
# ---------------------------------------------------------------------------


class TestArithmeticValues:
    def test_add_sub_mul_div(self):
        a = Tensor([2.0, 4.0])
        b = Tensor([1.0, 2.0])
        assert np.allclose((a + b).data, [3, 6])
        assert np.allclose((a - b).data, [1, 2])
        assert np.allclose((a * b).data, [2, 8])

    def test_scalar_broadcasting(self):
        a = Tensor([1.0, 2.0])
        assert np.allclose((a + 1).data, [2, 3])
        assert np.allclose((1 + a).data, [2, 3])
        assert np.allclose((2 * a).data, [2, 4])

    def test_neg_and_pow(self):
        a = Tensor([2.0, -3.0])
        assert np.allclose((-a).data, [-2, 3])

    def test_matmul_2d(self):
        a = Tensor(np.arange(6.0).reshape(2, 3))
        b = Tensor(np.arange(12.0).reshape(3, 4))
        assert np.allclose((a @ b).data, a.data @ b.data)

# ---------------------------------------------------------------------------
# Gradients
# ---------------------------------------------------------------------------


class TestGradients:
    def test_add_gradient_broadcast(self):
        a = Tensor(np.ones((2, 3)), requires_grad=True)
        b = Tensor(np.ones(3), requires_grad=True)
        (a + b).sum().backward()
        assert np.allclose(a.grad, np.ones((2, 3)))
        assert np.allclose(b.grad, [2.0, 2.0, 2.0])

    def test_mul_gradient(self):
        a = Tensor([2.0, 3.0], requires_grad=True)
        b = Tensor([5.0, 7.0], requires_grad=True)
        (a * b).sum().backward()
        assert np.allclose(a.grad, [5.0, 7.0])
        assert np.allclose(b.grad, [2.0, 3.0])

    def test_matmul_gradient_matches_numeric(self, gradcheck):
        rng = np.random.default_rng(0)
        a = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        b = Tensor(rng.normal(size=(4, 2)), requires_grad=True)

        def loss_value():
            return float(((a.data @ b.data) ** 2).sum())

        product = a @ b
        (product * product).sum().backward()
        idx = [(0, 1), (2, 3), (1, 0)]
        numeric = gradcheck(loss_value, a.data, idx)
        analytic = np.array([a.grad[i] for i in idx])
        np.testing.assert_allclose(analytic, numeric, rtol=1e-5, atol=1e-7)

    def test_gradient_accumulates_over_multiple_uses(self):
        a = Tensor([1.0], requires_grad=True)
        b = a * 2 + a * 3
        b.backward()
        assert np.allclose(a.grad, [5.0])

    def test_backward_with_explicit_grad(self):
        a = Tensor([1.0, 2.0], requires_grad=True)
        (a * 3).backward(np.array([1.0, 10.0]))
        assert np.allclose(a.grad, [3.0, 30.0])

    def test_sum_axis_keepdims_gradient(self):
        a = Tensor(np.ones((2, 3)), requires_grad=True)
        a.sum(axis=1, keepdims=True).sum().backward()
        assert np.allclose(a.grad, np.ones((2, 3)))

    def test_mean_gradient(self):
        a = Tensor(np.ones((4,)), requires_grad=True)
        a.mean().backward()
        assert np.allclose(a.grad, np.full(4, 0.25))

    def test_exp_log_sqrt_tanh_sigmoid_gradients(self, gradcheck):
        rng = np.random.default_rng(1)
        x_data = rng.uniform(0.5, 2.0, size=5)
        for op_name in ("exp", "log", "tanh"):
            x = Tensor(x_data.copy(), requires_grad=True)
            getattr(x, op_name)().sum().backward()

            def value():
                return float(getattr(np, op_name)(x.data).sum())

            numeric = gradcheck(value, x.data, [(2,)])
            np.testing.assert_allclose(x.grad[2], numeric[0], rtol=1e-4)

    def test_relu_gradient_mask(self):
        a = Tensor([-1.0, 0.5], requires_grad=True)
        a.relu().sum().backward()
        assert np.allclose(a.grad, [0.0, 1.0])

    def test_getitem_gradient_scatter(self):
        a = Tensor(np.arange(6.0), requires_grad=True)
        a[np.array([0, 0, 3])].sum().backward()
        expected = np.zeros(6)
        expected[0] = 2.0
        expected[3] = 1.0
        assert np.allclose(a.grad, expected)

    def test_pad_gradient(self):
        a = Tensor(np.ones((1, 2, 2, 2)), requires_grad=True)
        padded = a.pad(((0, 0), (1, 1), (0, 0), (0, 0)))
        assert padded.shape == (1, 4, 2, 2)
        padded.sum().backward()
        assert np.allclose(a.grad, np.ones((1, 2, 2, 2)))

    def test_reshape_transpose_gradient(self):
        a = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        weights = np.arange(6.0).reshape(3, 2)
        (a.T * weights).sum().backward()
        np.testing.assert_allclose(a.grad, weights.T)

    def test_stack_and_concatenate_gradients(self):
        a = Tensor([1.0, 2.0], requires_grad=True)
        b = Tensor([3.0, 4.0], requires_grad=True)
        Tensor.concatenate([a, b], axis=0).sum().backward()
        assert np.allclose(a.grad, [1, 1]) and np.allclose(b.grad, [1, 1])

    def test_deep_chain_does_not_recurse(self):
        # A 3000-op chain exercises the iterative topological sort.
        x = Tensor([1.0], requires_grad=True)
        y = x
        for _ in range(3000):
            y = y * 1.0001
        y.backward()
        assert x.grad is not None and x.grad[0] > 1.0


# ---------------------------------------------------------------------------
# Property-based tests
# ---------------------------------------------------------------------------

_arrays = hnp.arrays(
    dtype=np.float64,
    shape=hnp.array_shapes(min_dims=1, max_dims=3, min_side=1, max_side=4),
    elements=st.floats(-10, 10, allow_nan=False),
)


class TestTensorProperties:
    @given(_arrays)
    @settings(max_examples=30, deadline=None)
    def test_add_commutative(self, values):
        a = Tensor(values)
        b = Tensor(values[::-1].copy().reshape(values.shape))
        np.testing.assert_allclose((a + b).data, (b + a).data)

    @given(_arrays)
    @settings(max_examples=30, deadline=None)
    def test_sum_of_ones_gradient(self, values):
        t = Tensor(values, requires_grad=True)
        (t * 1.0).sum().backward()
        np.testing.assert_allclose(t.grad, np.ones_like(values))

    @given(_arrays)
    @settings(max_examples=30, deadline=None)
    def test_relu_idempotent(self, values):
        t = Tensor(values)
        once = t.relu().data
        twice = t.relu().relu().data
        np.testing.assert_allclose(once, twice)

    @given(_arrays, st.floats(-5, 5, allow_nan=False))
    @settings(max_examples=30, deadline=None)
    def test_scalar_mul_linearity_of_grad(self, values, scale):
        t = Tensor(values, requires_grad=True)
        (t * scale).sum().backward()
        np.testing.assert_allclose(t.grad, np.full_like(values, scale))
