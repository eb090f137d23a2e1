"""Minimal reverse-mode automatic differentiation engine.

Tensors wrap numpy arrays and record the ops (which take only ``Tensor``
operands) applied to them; calling ``backward()`` on a scalar result walks
the recorded graph in reverse topological order and accumulates gradients
into every tensor with ``requires_grad`` that participated. Gradients
accumulate additively across fan-out; ``AdamState.step`` zeroes them.

A tensor holds float32 data as float32 and any other data as float64; ops
keep the dtype of their operands, so a model built in float32 computes in
float32 throughout. :data:`PRECISIONS` names the two dtypes.
"""

from __future__ import annotations

import math
from typing import Callable, Iterable, Sequence

import numpy as np


class AutodiffError(Exception):
    """Misuse of the engine (double backward, missing gradient, ...)."""


class NumericalError(AutodiffError):
    """A forward op produced NaN or Inf from finite inputs."""


PRECISIONS = {"f64": np.float64, "f32": np.float32}


class Tensor:
    """An n-dimensional array participating in the differentiation graph."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward",
                 "_backward_done", "name")

    def __init__(self, data, requires_grad: bool = False, name: str | None = None):
        data = np.asarray(data)
        self.data = data if data.dtype == np.float32 else data.astype(np.float64, copy=False)
        self.requires_grad = requires_grad
        self.grad = np.zeros_like(self.data) if requires_grad else None
        self._parents: tuple[Tensor, ...] = ()
        self._backward: Callable[[np.ndarray], None] | None = None
        self._backward_done = False
        self.name = name

    @property
    def shape(self):
        return self.data.shape

    def item(self) -> float:
        return float(self.data)

    def backward(self) -> None:
        """Backpropagate from this scalar through the recorded graph.

        One backward pass per forward pass: calling this twice on the same
        result is an error.

        The walk keeps each node's pending gradient terms in arrival order,
        a rank-one term ``u v^T`` unformed; terms for constants are dropped.
        An inner node's gradient is ``(t1 + t2) + ...``. A parameter gets
        ``grad += ((t1 + t2) + ...)``, added up one row block at a time with
        the same additions in the same order: the same bits, without a
        temporary the size of the parameter.
        """
        if self.data.ndim != 0 and self.data.size != 1:
            raise AutodiffError("backward() requires a scalar tensor")
        if self._backward_done:
            raise AutodiffError("backward() already ran on this graph; re-run the forward pass first")
        self._backward_done = True

        pending: dict[int, list] = {id(self): [np.ones_like(self.data)]}
        scratch = _Scratch()
        for node in _toposort(self):
            terms = pending.pop(id(node), None)
            if terms is None:
                continue
            if node._backward is None:
                if node.requires_grad:  # not a constant root
                    _add_sum(node.grad, terms, scratch)
                continue
            for parent, local in zip(node._parents, node._backward(_fold(terms))):
                if local is not None and (parent._backward is not None or parent.requires_grad):
                    pending.setdefault(id(parent), []).append(local)


# A parameter's gradient is summed, and Adam updates it, over blocks of rows
# of at most this many elements (256 KB in f64): each block stays in L2
# cache, and the two scratch buffers a block needs are small enough to be
# reused rather than faulted in afresh.
_BLOCK = 1 << 15


class _Outer:
    """The rank-one gradient term ``u[:, None] * v``, formed block by block."""

    __slots__ = ("u", "v", "dtype")

    def __init__(self, u: np.ndarray, v: np.ndarray):
        self.u, self.v = u, v
        self.dtype = np.result_type(u.dtype, v.dtype)

    def dense(self) -> np.ndarray:
        return self.u[:, None] * self.v


class _Scratch:
    """Two reusable flat buffers per dtype, grown to the largest block asked for."""

    def __init__(self):
        self._bufs: dict[np.dtype, tuple[np.ndarray, np.ndarray]] = {}

    def pair(self, dtype, shape) -> tuple[np.ndarray, np.ndarray]:
        n = math.prod(shape)
        bufs = self._bufs.get(dtype)
        if bufs is None or bufs[0].size < n:
            bufs = self._bufs[dtype] = (np.empty(n, dtype), np.empty(n, dtype))
        return bufs[0][:n].reshape(shape), bufs[1][:n].reshape(shape)


def _row_blocks(shape) -> list:
    """Index blocks over the first axis of at most ``_BLOCK`` elements each
    (one row at least); a 0-d array is one block."""
    if not shape:
        return [...]
    rows = max(1, _BLOCK // max(1, math.prod(shape[1:])))
    return [slice(i, i + rows) for i in range(0, shape[0], rows)]


def _add_sum(grad: np.ndarray, terms: list, scratch: _Scratch) -> None:
    """``grad += ((t1 + t2) + ...)``, bit for bit, one row block at a time."""
    first, *rest = terms
    if len({t.dtype for t in terms}) > 1:
        # numpy promotes mixed dtypes pair by pair: sum whole arrays as it does
        grad += _fold(terms)
        return
    for blk in _row_blocks(grad.shape):
        acc, part = scratch.pair(first.dtype, grad[blk].shape)
        if isinstance(first, _Outer):
            np.multiply(first.u[blk, None], first.v, out=acc)
        else:
            np.copyto(acc, first[blk])
        for t in rest:
            if isinstance(t, _Outer):
                np.multiply(t.u[blk, None], t.v, out=part)
                acc += part
            else:
                acc += t[blk]
        grad[blk] += acc


def _dense(term) -> np.ndarray:
    return term.dense() if isinstance(term, _Outer) else term


def _fold(terms: list) -> np.ndarray:
    """``(t1 + t2) + ...`` over whole arrays, each rank-one term formed."""
    total = _dense(terms[0])
    for t in terms[1:]:
        total = total + _dense(t)
    return total


def _toposort(root: Tensor) -> list[Tensor]:
    """Reverse topological order; iterative so deep graphs don't overflow."""
    order: list[Tensor] = []
    visited: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            order.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if id(p) not in visited:
                stack.append((p, False))
    order.reverse()
    return order


def _finite(data: np.ndarray) -> np.ndarray:
    # single reduction instead of np.all(np.isfinite(...)): any NaN/Inf in
    # the array leaves the sum non-finite
    if not np.isfinite(data.sum()):
        raise NumericalError("forward op produced non-finite values")
    return data


def _result(data: np.ndarray, parents: Sequence[Tensor],
            backward: Callable[[np.ndarray], list]) -> Tensor:
    out = Tensor(_finite(data))
    out._parents = tuple(parents)
    out._backward = backward
    return out


# ---------------------------------------------------------------------------
# core ops


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product: 2-D @ 2-D, matrix @ vector or vector @ matrix."""
    if (a.data.ndim, b.data.ndim) not in ((2, 2), (2, 1), (1, 2)):
        raise ValueError(f"matmul: needs 2-D @ 2-D, 2-D @ 1-D or 1-D @ 2-D, "
                         f"got shapes {a.shape} and {b.shape}")
    if a.shape[-1] != b.shape[0]:
        raise ValueError(f"matmul: inner dimensions disagree: {a.shape} vs {b.shape}")
    data = a.data @ b.data

    if b.data.ndim == 1:
        def backward(g):
            return [_Outer(g, b.data), a.data.T @ g]
    elif a.data.ndim == 1:
        def backward(g):
            return [g @ b.data.T, _Outer(a.data, g)]
    else:
        def backward(g):
            return [g @ b.data.T, a.data.T @ g]
    return _result(data, (a, b), backward)


def add(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise ValueError(f"add: shape mismatch {a.shape} vs {b.shape}")

    def backward(g):
        return [g, g]
    return _result(a.data + b.data, (a, b), backward)


def mul(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise ValueError(f"mul: shape mismatch {a.shape} vs {b.shape}")

    def backward(g):
        return [g * b.data, g * a.data]
    return _result(a.data * b.data, (a, b), backward)


def _sigmoid(z: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-z))


def sigmoid(x: Tensor) -> Tensor:
    s = _sigmoid(x.data)

    def backward(g):
        return [g * s * (1.0 - s)]
    return _result(s, (x,), backward)


def tanh(x: Tensor) -> Tensor:
    t = np.tanh(x.data)

    def backward(g):
        return [g * (1.0 - t * t)]
    return _result(t, (x,), backward)


def concat(parts: Sequence[Tensor]) -> Tensor:
    """Concatenate 1-D tensors."""
    for p in parts:
        if p.data.ndim != 1:
            raise ValueError("concat: all inputs must be 1-D")
    sizes = [p.data.size for p in parts]
    offsets = np.cumsum([0] + sizes)

    def backward(g):
        return [g[offsets[i]:offsets[i + 1]] for i in range(len(parts))]
    return _result(np.concatenate([p.data for p in parts]), parts, backward)


def slice_(x: Tensor, start: int, stop: int) -> Tensor:
    """Contiguous slice of a 1-D tensor."""
    if x.data.ndim != 1:
        raise ValueError("slice_: input must be 1-D")

    def backward(g):
        full = np.zeros_like(x.data)
        full[start:stop] = g
        return [full]
    return _result(x.data[start:stop].copy(), (x,), backward)


def add_colvec(m: Tensor, v: Tensor) -> Tensor:
    """Add a column vector to every column of a 2-D tensor."""
    if m.data.ndim != 2 or v.data.ndim != 1 or m.shape[0] != v.shape[0]:
        raise ValueError(f"add_colvec: incompatible shapes {m.shape} and {v.shape}")

    def backward(g):
        return [g, g.sum(axis=1)]
    return _result(m.data + v.data[:, None], (m, v), backward)


def scale(x: Tensor, k: float) -> Tensor:
    def backward(g):
        return [g * k]
    return _result(x.data * k, (x,), backward)


def lstm_cell(x: Tensor, state: Tensor, w_x: Tensor, w_h: Tensor, b: Tensor) -> Tensor:
    """One LSTM layer-step as one graph node: from the previous ``[h; c]``
    node ``state`` to the next ``[h; c]``.

    The gates are packed (input, forget, output, candidate) along the rows
    of ``w_x`` (4n, in), ``w_h`` (4n, n) and ``b`` (4n,). The forward
    evaluates the NumPy expressions of the same cell built from ``slice_``,
    ``matmul``, ``add``, ``sigmoid``, ``tanh``, ``mul`` and ``concat``, in the
    same order, and the backward writes out that graph's chain rule term by
    term, so values and gradients are bit-identical to it. The topological
    sort explores the parents last to first, so it walks a step's history
    before its input ``x``, as it does in that graph; this keeps the order in
    which gradients are summed over time steps.
    """
    n = state.data.size // 2
    if (x.data.ndim != 1 or state.shape != (2 * n,) or b.shape != (4 * n,)
            or w_h.shape != (4 * n, n) or w_x.shape != (4 * n, x.data.size)):
        raise ValueError(f"lstm_cell: incompatible shapes x {x.shape}, state {state.shape}, "
                         f"w_x {w_x.shape}, w_h {w_h.shape}, b {b.shape}")
    h_prev, c_prev = state.data[:n], state.data[n:]
    z = _finite(_finite(_finite(w_x.data @ x.data) + _finite(w_h.data @ h_prev)) + b.data)
    i = _sigmoid(z[:n].copy())
    f = _sigmoid(z[n:2 * n].copy())
    o = _sigmoid(z[2 * n:3 * n].copy())
    g = np.tanh(z[3 * n:].copy())
    c = f * c_prev + i * g
    tc = np.tanh(c)

    def backward(grad):
        gh, gc = grad[:n], grad[n:]
        dc = gc + (gh * o) * (1.0 - tc * tc)
        dz = np.empty(4 * n, grad.dtype)
        dz[:n] = (dc * g) * i * (1.0 - i)
        dz[n:2 * n] = (dc * c_prev) * f * (1.0 - f)
        dz[2 * n:3 * n] = (gh * tc) * o * (1.0 - o)
        dz[3 * n:] = (dc * i) * (1.0 - g * g)
        return [w_x.data.T @ dz, np.concatenate([w_h.data.T @ dz, dc * f]),
                _Outer(dz, x.data), _Outer(dz, h_prev), dz]
    return _result(np.concatenate([o * tc, c]), (x, state, w_x, w_h, b), backward)


# ---------------------------------------------------------------------------
# losses and heads


def softmax(logits: Tensor) -> Tensor:
    """Stable softmax over a 1-D logits vector (max subtraction)."""
    if logits.data.ndim != 1:
        raise ValueError("softmax: input must be 1-D")
    z = logits.data - logits.data.max()
    e = np.exp(z)
    s = e / e.sum()

    def backward(g):
        return [s * (g - np.dot(g, s))]
    return _result(s, (logits,), backward)


def cross_entropy(logits: Tensor, target_index: int) -> Tensor:
    """Softmax cross entropy -log(S_y) against an integer class index."""
    n = logits.data.size
    if not 0 <= target_index < n:
        raise IndexError(f"target index {target_index} out of range for {n} classes")
    z = logits.data - logits.data.max()
    log_z = np.log(np.exp(z).sum())
    loss = log_z - z[target_index]
    s = np.exp(z - log_z)

    def backward(g):
        d = s.copy()
        d[target_index] -= 1.0
        return [d * float(g)]
    return _result(np.asarray(loss), (logits,), backward)


def mse(prediction: Tensor, target: Tensor) -> Tensor:
    """Mean of squared componentwise differences."""
    if prediction.shape != target.shape:
        raise ValueError(f"mse: shape mismatch {prediction.shape} vs {target.shape}")
    diff = prediction.data - target.data
    n = diff.size

    def backward(g):
        d = 2.0 * diff / n * float(g)
        return [d, -d]
    return _result(np.asarray(np.mean(diff * diff)), (prediction, target), backward)


# ---------------------------------------------------------------------------
# optimizer


ADAM_BETA_1 = 0.9
ADAM_BETA_2 = 0.999
ADAM_EPS = 1e-8


class AdamState:
    """Adam optimizer with bias correction over a fixed parameter list."""

    def __init__(self, params: Iterable[Tensor], lr: float = 0.001):
        self.params = list(params)
        for p in self.params:
            if not p.requires_grad:
                raise AutodiffError("Adam over a tensor without requires_grad")
        self.lr = lr
        self.t = 0
        self.m = [np.zeros_like(p.data) for p in self.params]
        self.v = [np.zeros_like(p.data) for p in self.params]
        self._scratch = _Scratch()

    def step(self) -> None:
        """Apply one update from the accumulated gradients, then zero them.

        The update is ``p -= lr * m_hat / (sqrt(v_hat) + eps)``, evaluated
        one row block at a time into two reused buffers, in the order the
        whole-array expression evaluates it.
        """
        self.t += 1
        b1, b2 = ADAM_BETA_1, ADAM_BETA_2
        c1, c2 = 1 - b1 ** self.t, 1 - b2 ** self.t
        for p, m, v in zip(self.params, self.m, self.v):
            if p.grad is None:
                raise AutodiffError("adam step with missing gradient")
            for blk in _row_blocks(p.data.shape):
                g, mb, vb, x = p.grad[blk], m[blk], v[blk], p.data[blk]
                t1, t2 = self._scratch.pair(x.dtype, x.shape)
                mb *= b1
                np.multiply(1 - b1, g, out=t1)    # m += (1 - b1) * g
                mb += t1
                vb *= b2
                np.multiply(1 - b2, g, out=t1)    # v += (1 - b2) * g * g
                t1 *= g
                vb += t1
                np.divide(mb, c1, out=t1)         # m_hat
                np.divide(vb, c2, out=t2)         # v_hat
                np.multiply(self.lr, t1, out=t1)
                np.sqrt(t2, out=t2)
                t2 += ADAM_EPS
                t1 /= t2
                x -= t1
                g.fill(0.0)


def xavier_uniform(rng: np.random.Generator, fan_in: int, fan_out: int,
                   shape, dtype=np.float64) -> np.ndarray:
    bound = math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=shape).astype(dtype, copy=False)
