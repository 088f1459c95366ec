"""Reverse-mode autograd over float64 numpy arrays.

Everything downstream (attention blocks, losses, the three detectors) is
built on the tape here: the primitives below, plus nn's fused layer nodes
(Linear, layer_norm, the attention core), each made with `node` and a
hand-written backward rule.  The primitives are the ones the models and
the losses run, and no more; any other op is built on `node` the same
way.  matmul takes only operands with two or more dims.  Gradients are
checked against central finite differences in the test suite, so keep
backward rules exact.

Gradients are read-only.  A backward rule may hand one array to several
parents (x + y gives x and y the same incoming gradient), and the first
gradient a tensor receives is stored without a copy, so two tensors can
share one .grad array.  Nothing may write into a .grad in place; the
optimizer reads them only.
"""

from __future__ import annotations

import numpy as np
from scipy.special import erf as _erf


class AutogradError(Exception):
    pass


class NotScalar(AutogradError):
    """backward() called on a non-scalar tensor."""


class DetachedGraph(AutogradError):
    """backward() called on a tensor with no grad-requiring ancestors."""


_GRAD_ENABLED = True


class no_grad:
    """Context manager disabling tape recording (inference mode)."""

    def __enter__(self):
        global _GRAD_ENABLED
        self._prev = _GRAD_ENABLED
        _GRAD_ENABLED = False
        return self

    def __exit__(self, *exc):
        global _GRAD_ENABLED
        _GRAD_ENABLED = self._prev
        return False


def node(data, parents, backward) -> "Tensor":
    """A tensor holding `data` computed from `parents`.  When taping is on
    and a parent requires grad it joins the tape, and backward(out) adds
    each parent's share of out.grad with parent._accumulate."""
    out = Tensor(data)
    if _GRAD_ENABLED and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._prev = tuple(parents)
        out._backward = backward
    return out


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum `grad` down to `shape` (reverses numpy broadcasting)."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for ax, size in enumerate(shape):
        if size == 1 and grad.shape[ax] != 1:
            grad = grad.sum(axis=ax, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    __slots__ = ("data", "requires_grad", "grad", "_backward", "_prev")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad) and _GRAD_ENABLED
        self.grad = None
        self._backward = None
        self._prev = ()

    # ------------------------------------------------------------------
    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    def _accumulate(self, g: np.ndarray):
        if self.grad is None:
            self.grad = g  # shared, not copied: see the module docstring
        else:
            self.grad = self.grad + g

    def zero_grad(self):
        self.grad = None

    # ------------------------------------------------------------------
    @staticmethod
    def _lift(x) -> "Tensor":
        return x if isinstance(x, Tensor) else Tensor(x)

    # -- arithmetic ----------------------------------------------------
    def __add__(self, other):
        other = self._lift(other)
        out_data = self.data + other.data

        def backward(out):
            if self.requires_grad:
                self._accumulate(_unbroadcast(out.grad, self.data.shape))
            if other.requires_grad:
                other._accumulate(_unbroadcast(out.grad, other.data.shape))

        return node(out_data, (self, other), backward)

    def __mul__(self, other):
        other = self._lift(other)
        out_data = self.data * other.data

        def backward(out):
            if self.requires_grad:
                self._accumulate(_unbroadcast(out.grad * other.data, self.data.shape))
            if other.requires_grad:
                other._accumulate(_unbroadcast(out.grad * self.data, other.data.shape))

        return node(out_data, (self, other), backward)

    def __pow__(self, exponent: float):
        if not np.isscalar(exponent):
            raise TypeError("only scalar exponents are supported")
        if exponent == 0:
            # derivative is identically zero; detach
            return Tensor(np.ones_like(self.data))
        out_data = self.data**exponent

        def backward(out):
            if self.requires_grad:
                self._accumulate(out.grad * exponent * self.data ** (exponent - 1))

        return node(out_data, (self,), backward)

    def __matmul__(self, other):
        """Matrix product of operands with >= 2 dims (stacks broadcast)."""
        other = self._lift(other)
        if self.data.ndim < 2 or other.data.ndim < 2:
            raise AutogradError(f"matmul needs operands with >= 2 dims, got "
                                f"{self.data.shape} @ {other.data.shape}")
        out_data = np.matmul(self.data, other.data)

        def backward(out):
            if self.requires_grad:
                g = np.matmul(out.grad, np.swapaxes(other.data, -1, -2))
                self._accumulate(_unbroadcast(g, self.data.shape))
            if other.requires_grad:
                g = np.matmul(np.swapaxes(self.data, -1, -2), out.grad)
                other._accumulate(_unbroadcast(g, other.data.shape))

        return node(out_data, (self, other), backward)

    # -- elementwise nonlinearities -------------------------------------
    def sigmoid(self):
        x = self.data
        out_data = np.where(x >= 0, 1.0 / (1.0 + np.exp(-np.abs(x))),
                            np.exp(-np.abs(x)) / (1.0 + np.exp(-np.abs(x))))

        def backward(out):
            if self.requires_grad:
                self._accumulate(out.grad * out.data * (1.0 - out.data))

        return node(out_data, (self,), backward)

    def softplus(self):
        """ln(1 + e^x), overflow-safe."""
        out_data = np.logaddexp(0.0, self.data)

        def backward(out):
            x = self.data
            sig = np.where(x >= 0, 1.0 / (1.0 + np.exp(-np.abs(x))),
                           np.exp(-np.abs(x)) / (1.0 + np.exp(-np.abs(x))))
            if self.requires_grad:
                self._accumulate(out.grad * sig)

        return node(out_data, (self,), backward)

    def gelu(self):
        """Exact (erf-based) GELU."""
        x = self.data
        e = _erf(x / np.sqrt(2.0))
        out_data = 0.5 * x * (1.0 + e)

        def backward(out):
            if self.requires_grad:
                cdf = 0.5 * (1.0 + e)
                pdf = np.exp(-0.5 * x * x) / np.sqrt(2.0 * np.pi)
                self._accumulate(out.grad * (cdf + x * pdf))

        return node(out_data, (self,), backward)

    # -- reductions / reshaping -----------------------------------------
    def sum(self, axis=None, keepdims: bool = False):
        out_data = self.data.sum(axis=axis, keepdims=keepdims)

        def backward(out):
            if self.requires_grad:
                g = out.grad
                if axis is not None and not keepdims:
                    g = np.expand_dims(g, axis)
                self._accumulate(np.broadcast_to(g, self.data.shape).copy())

        return node(out_data, (self,), backward)

    def mean(self, axis=None, keepdims: bool = False):
        count = self.data.size if axis is None else self.data.shape[axis]
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        out_data = self.data.reshape(shape)

        def backward(out):
            if self.requires_grad:
                self._accumulate(out.grad.reshape(self.data.shape))

        return node(out_data, (self,), backward)

    def __getitem__(self, idx):
        out_data = self.data[idx]

        def backward(out):
            if self.requires_grad:
                g = np.zeros_like(self.data)
                np.add.at(g, idx, out.grad)
                self._accumulate(g)

        return node(out_data, (self,), backward)

    # ------------------------------------------------------------------
    def backward(self):
        """Reverse-mode sweep from a scalar; accumulates into .grad."""
        if self.data.size != 1:
            raise NotScalar(f"backward() needs a scalar, got shape {self.data.shape}")
        if not self.requires_grad:
            raise DetachedGraph("tensor has no grad-requiring ancestors")

        topo: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._prev:
                if id(parent) not in visited:
                    stack.append((parent, False))

        self._accumulate(np.ones_like(self.data))
        for node in reversed(topo):
            if node._backward is not None:
                node._backward(node)


def concat(tensors, axis: int = 0) -> Tensor:
    tensors = [Tensor._lift(t) for t in tensors]
    out_data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.data.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def backward(out):
        for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
            if t.requires_grad:
                sl = [slice(None)] * out.grad.ndim
                sl[axis] = slice(lo, hi)
                t._accumulate(out.grad[tuple(sl)])

    return node(out_data, tuple(tensors), backward)
