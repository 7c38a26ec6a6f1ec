"""Minimal reverse-mode automatic differentiation over float64 numpy arrays.

Every operation records its parents and a closure that routes the incoming
gradient; ``backward`` walks the recorded graph in reverse topological order.
Gradients accumulate into ``Tensor.grad`` slots of the leaves that were
created with ``requires_grad=True``, such as the input features. Inside ``no_grad()`` nothing is recorded, so inference keeps no
tape. All data is promoted to float64.

Besides ``matmul`` and the shape ops ``reshape`` and ``concat``, the module
holds the numpy kernels that the encoder's fused sublayer ops share (see
``encoder``); the losses are fused ops too (see ``losses``). A fused op
records one tape node whose parents are its activations only; its backward
returns their gradients, and ``backward`` drops those of constant leaves.
The encoder's weights are not on the tape: each op adds their gradients
into its ``ParamStore``'s gradient buffer itself. The kernels' backward
formulas:

- softmax along one axis, P = softmax(S):
  dS = P * (dP - sum(dP * P)) with the sum along that axis (Dao et al.
  2022, FlashAttention, Alg. 2). Over the last axis the sum is a row sum;
  the encoder's attention keeps P key-major, (keys, queries), so there it
  is dS = P * (dP - colsum(dP * P)) over axis -2;
- layer norm, y = g * xhat + b with xhat = (x - mean) / std:
  dx = (dxhat - mean(dxhat) - xhat * mean(dxhat * xhat)) / std,
  where dxhat = g * dy; every row mean is one matmul against a 1/width
  column;
- tanh-form GELU, x * (1 + t) / 2 with t = tanh(c (x + 0.044715 x^3)):
  d/dx = (1 + t) / 2 + x (1 - t^2) c (1 + 3 * 0.044715 x^2) / 2.

``softmax``, ``layer_norm`` and ``gelu`` wrap the same kernels as single ops.
"""

from __future__ import annotations

import contextlib
import functools
import math

import numpy as np

from .errors import ValidationError


_grad_enabled = True


@contextlib.contextmanager
def no_grad():
    """Record no tape: tensors created inside keep no parents and no backward
    closure. Nests, and restores the previous mode on exit or exception."""
    global _grad_enabled
    previous, _grad_enabled = _grad_enabled, False
    try:
        yield
    finally:
        _grad_enabled = previous


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad=False, _parents=(), _backward=None):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = requires_grad
        self.grad = np.zeros_like(self.data) if requires_grad else None
        self._parents, self._backward = (
            (_parents, _backward) if _grad_enabled else ((), None))

    @property
    def shape(self):
        return self.data.shape

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    def item(self) -> float:
        return float(self.data)

    def backward(self, seed=None):
        """Accumulate gradients of this tensor w.r.t. every grad-enabled leaf.

        ``seed`` defaults to ones; a scalar loss therefore needs no argument.
        Raises if no forward computation was recorded through this tensor.
        Only recorded nodes are ordered and buffered; a leaf's contributions
        go straight into its ``grad`` slot.
        """
        if not self._parents:
            raise ValidationError("backward called on a tensor with no recorded forward")
        order = []
        visited = set()
        stack = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                order.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if parent._parents and id(parent) not in visited:
                    stack.append((parent, False))

        grads = {id(self): np.ones_like(self.data) if seed is None
                 else np.asarray(seed, dtype=np.float64)}
        for node in reversed(order):
            grad = grads.pop(id(node), None)
            if grad is None:
                continue
            for parent, contribution in node._backward(grad):
                if parent._parents:
                    existing = grads.get(id(parent))
                    if existing is None:
                        grads[id(parent)] = contribution.copy()
                    else:
                        existing += contribution
                elif parent.requires_grad:      # a leaf: accumulate in place
                    parent.grad += contribution
            # Else the last contribution, already copied into ``grads`` when
            # it is an activation's, stays alive through the next backward.
            contribution = existing = None


def as_tensor(value) -> Tensor:
    return value if isinstance(value, Tensor) else Tensor(value)


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Reduce a broadcasted gradient back to the operand's shape."""
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, dim in enumerate(shape) if dim == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


def _swap_last(x: np.ndarray) -> np.ndarray:
    return np.swapaxes(x, -1, -2)


def matmul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    if a.data.ndim < 2 or b.data.ndim < 2:
        raise ValidationError("matmul requires operands with ndim >= 2")

    def backward(grad):
        da = _unbroadcast(np.matmul(grad, _swap_last(b.data)), a.data.shape)
        db = _unbroadcast(np.matmul(_swap_last(a.data), grad), b.data.shape)
        return ((a, da), (b, db))

    return Tensor(np.matmul(a.data, b.data), _parents=(a, b), _backward=backward)


def reshape(a, shape) -> Tensor:
    a = as_tensor(a)

    def backward(grad):
        return ((a, grad.reshape(a.data.shape)),)

    return Tensor(a.data.reshape(shape), _parents=(a,), _backward=backward)


def concat(tensors, axis) -> Tensor:
    tensors = [as_tensor(t) for t in tensors]
    sizes = [t.data.shape[axis] for t in tensors]
    splits = np.cumsum(sizes)[:-1]

    def backward(grad):
        pieces = np.split(grad, splits, axis=axis)
        return tuple((t, np.ascontiguousarray(p)) for t, p in zip(tensors, pieces))

    return Tensor(np.concatenate([t.data for t in tensors], axis=axis),
                  _parents=tuple(tensors), _backward=backward)


_GELU_C = math.sqrt(2.0 / math.pi)


def gelu_forward(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Tanh-form GELU of ``x`` and its tanh term, which the slope reuses."""
    t = np.tanh(_GELU_C * (x + 0.044715 * (x * x * x)))
    return 0.5 * x * (1.0 + t), t


def gelu_slope(x: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Derivative of GELU at ``x``, given its tanh term ``t``."""
    dinner = _GELU_C * (1.0 + 3 * 0.044715 * x ** 2)
    return 0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * dinner


def gelu(a) -> Tensor:
    """Tanh-form GELU; smooth everywhere, which keeps finite differences honest."""
    a = as_tensor(a)
    out_data, t = gelu_forward(a.data)

    def backward(grad):
        return ((a, grad * gelu_slope(a.data, t)),)

    return Tensor(out_data, _parents=(a,), _backward=backward)


def softmax_forward(x: np.ndarray, axis: int = -1, out: np.ndarray | None = None) -> np.ndarray:
    """Softmax over ``axis``, stabilized by a max shift; -inf entries get
    probability 0. The shift, exp and normalization run in place on ``out``
    (a new array by default; ``out=x`` overwrites the scores)."""
    e = np.subtract(x, x.max(axis=axis, keepdims=True), out=out)
    np.exp(e, out=e)
    e /= e.sum(axis=axis, keepdims=True)
    return e


def softmax_backward(probs: np.ndarray, grad: np.ndarray, axis: int = -1) -> np.ndarray:
    """Gradient w.r.t. the softmax input, P * (dP - sum(dP * P)) with the sum
    over ``axis``, the axis the forward normalized."""
    out = grad - (grad * probs).sum(axis=axis, keepdims=True)
    out *= probs
    return out


def softmax(a) -> Tensor:
    """Softmax over the last axis, stabilized by a detached max shift."""
    a = as_tensor(a)
    out_data = softmax_forward(a.data)

    def backward(grad):
        return ((a, softmax_backward(out_data, grad)),)

    return Tensor(out_data, _parents=(a,), _backward=backward)


@functools.cache
def _mean_column(width: int) -> np.ndarray:
    """The read-only (width, 1) column of 1/width, built once per width."""
    column = np.full((width, 1), 1.0 / width)
    column.flags.writeable = False
    return column


def _row_mean(x: np.ndarray) -> np.ndarray:
    """Mean over the last axis, kept as a size-1 axis: one matmul of all rows
    against a 1/width column."""
    width = x.shape[-1]
    return (x.reshape(-1, width) @ _mean_column(width)).reshape(x.shape[:-1] + (1,))


def layer_norm_forward(x: np.ndarray, gain: np.ndarray, bias: np.ndarray,
                       eps: float = 1e-5) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Layer norm over the last axis: (output, xhat, std)."""
    centered = x - _row_mean(x)
    std = np.sqrt(_row_mean(centered * centered) + eps)
    normed = centered / std
    return normed * gain + bias, normed, std


def layer_norm_backward(grad: np.ndarray, normed: np.ndarray, std: np.ndarray,
                        gain: np.ndarray) -> np.ndarray:
    """Gradient w.r.t. the layer-norm input, from the forward's xhat and std."""
    dnormed = grad * gain
    return (dnormed - _row_mean(dnormed) - normed * _row_mean(dnormed * normed)) / std


def layer_norm(x, gain, bias, eps=1e-5) -> Tensor:
    """Row-wise layer normalization over the last axis with learned affine."""
    x, gain, bias = as_tensor(x), as_tensor(gain), as_tensor(bias)
    out_data, normed, std = layer_norm_forward(x.data, gain.data, bias.data, eps)

    def backward(grad):
        return ((x, layer_norm_backward(grad, normed, std, gain.data)),
                (gain, _unbroadcast(grad * normed, gain.data.shape)),
                (bias, _unbroadcast(grad, bias.data.shape)))

    return Tensor(out_data, _parents=(x, gain, bias), _backward=backward)
