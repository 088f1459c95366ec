import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aigmdet.tensor import Tensor, concat, no_grad

from util import div, finite_diff_check, softmax, sqrt, sub


def randt(rng, *shape):
    return Tensor(rng.normal(size=shape), requires_grad=True)


def test_sum_gradient_is_ones():
    theta = Tensor(np.arange(5.0), requires_grad=True)
    theta.sum().backward()
    assert np.array_equal(theta.grad, np.ones(5))


def test_quadratic_gradient():
    theta = Tensor(np.array([1.0, -2.0, 3.0]), requires_grad=True)
    (theta * theta).sum().backward()
    assert np.allclose(theta.grad, 2 * theta.data)


def test_backward_accumulates_without_zeroing():
    theta = Tensor(np.ones(3), requires_grad=True)
    theta.sum().backward()
    theta.sum().backward()
    assert np.array_equal(theta.grad, 2 * np.ones(3))


def test_backward_requires_scalar():
    t = Tensor(np.zeros(3), requires_grad=True)
    with pytest.raises(ValueError, match=r"backward\(\) needs a scalar, got shape \(3,\)"):
        t.backward()


def test_backward_requires_graph():
    with pytest.raises(ValueError, match="tensor has no grad-requiring ancestors"):
        Tensor(np.array(1.0)).backward()


def test_no_grad_blocks_taping():
    t = Tensor(np.ones(3), requires_grad=True)
    with no_grad():
        out = (t * 2).sum()
    assert not out.requires_grad


@pytest.mark.parametrize("op", [
    lambda a, b: a + b,
    lambda a, b: sub(a, b),
    lambda a, b: a * b,
    lambda a, b: div(a, b + 3.0),
    lambda a, b: a @ b.transpose(1, 0),
])
def test_binary_op_gradients(op):
    rng = np.random.default_rng(1)
    a, b = randt(rng, 4, 3), randt(rng, 4, 3)
    finite_diff_check(lambda: (op(a, b) * op(a, b)).sum(), [a, b])


@pytest.mark.parametrize("op", [
    lambda a: sqrt(a * a + 0.5),
    lambda a: a.sigmoid(),
    lambda a: a.softplus(),
    lambda a: a.gelu(),
    lambda a: softmax(a, -1),
    lambda a: a ** 3,
    lambda a: a.mean(axis=0),
    lambda a: a.reshape(12),
    lambda a: a[1:3],
    lambda a: a.reshape(2, 2, 3).transpose(2, 0, 1),
])
def test_unary_op_gradients(op):
    rng = np.random.default_rng(2)
    a = randt(rng, 4, 3)
    w = Tensor(rng.normal(size=op(Tensor(a.data)).shape))
    finite_diff_check(lambda: (op(a) * w * op(a)).sum(), [a])


def test_broadcast_add_gradient():
    rng = np.random.default_rng(3)
    a, b = randt(rng, 4, 3), randt(rng, 3)
    finite_diff_check(lambda: ((a + b) * (a + b)).sum(), [a, b])


def test_batched_matmul_gradient():
    rng = np.random.default_rng(4)
    a, b = randt(rng, 2, 3, 4), randt(rng, 2, 4, 3)
    finite_diff_check(lambda: ((a @ b) * (a @ b)).sum(), [a, b])


@pytest.mark.parametrize("a_shape,b_shape", [((3,), (3, 2)), ((2, 3), (3,)), ((3,), (3,))])
def test_matmul_refuses_1d_operands(a_shape, b_shape):
    rng = np.random.default_rng(6)
    with pytest.raises(ValueError, match="matmul needs operands with >= 2 dims"):
        randt(rng, *a_shape) @ randt(rng, *b_shape)


def test_concat_gradient():
    rng = np.random.default_rng(5)
    a, b = randt(rng, 2, 3), randt(rng, 4, 3)
    finite_diff_check(lambda: (concat([a, b], axis=0) ** 2).sum(), [a, b])


def test_softmax_uniform_and_analytic():
    assert np.allclose(softmax(Tensor([0.0, 0.0, 0.0])).data, [1 / 3] * 3)
    assert np.allclose(softmax(Tensor([np.log(1.0), np.log(3.0)])).data, [0.25, 0.75])


def test_softmax_overflow_stability():
    out = softmax(Tensor([1000.0, 1001.0])).data
    expected = np.array([1.0, np.e]) / (1.0 + np.e)
    assert np.allclose(out, expected, atol=1e-12)
    assert np.isfinite(out).all()


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(-50, 50), min_size=2, max_size=8))
def test_softmax_rows_sum_to_one(values):
    out = softmax(Tensor(values)).data
    assert abs(out.sum() - 1.0) < 1e-9
    assert (out >= 0).all()


def test_pow_zero_detaches():
    a = Tensor(np.array([0.0, 2.0]), requires_grad=True)
    out = a ** 0
    assert np.array_equal(out.data, [1.0, 1.0])
    assert not out.requires_grad
