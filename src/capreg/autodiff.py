"""Minimal reverse-mode automatic differentiation engine.

Tensors wrap numpy arrays and record the operations applied to them; calling
``backward()`` on a scalar result walks the recorded graph in reverse
topological order and accumulates gradients into every tensor that
participated. Gradients accumulate additively across fan-out; callers zero
them between optimizer steps.

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

    def zero_grad(self) -> None:
        if self.grad is not None:
            self.grad.fill(0.0)

    def item(self) -> float:
        return float(self.data)

    def __repr__(self):
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    def backward(self) -> None:
        """Backpropagate from this scalar through the recorded graph.

        One backward pass per forward pass: calling this twice on the same
        result is an error.
        """
        if self.data.ndim != 0 and self.data.size != 1:
            raise AutodiffError("backward() requires a scalar tensor")
        if self._backward_done:
            raise AutodiffError("backward() already ran on this graph; re-run the forward pass first")
        self._backward_done = True

        order = _toposort(self)
        grads: dict[int, np.ndarray] = {id(self): np.ones_like(self.data)}
        for node in order:
            g = grads.pop(id(node), None)
            if g is None:
                continue
            if node.requires_grad:
                node.grad += g
            if node._backward is not None:
                for parent, local in zip(node._parents, node._backward(g)):
                    if local is None:
                        continue
                    key = id(parent)
                    if key in grads:
                        grads[key] = grads[key] + local
                    else:
                        grads[key] = local


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


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


# ---------------------------------------------------------------------------
# core ops


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product. Supports 2-D @ 2-D and 2-D @ 1-D."""
    a, b = _as_tensor(a), _as_tensor(b)
    if a.data.ndim != 2:
        raise ValueError(f"matmul: left operand must be 2-D, got shape {a.shape}")
    if b.data.ndim not in (1, 2):
        raise ValueError(f"matmul: right operand must be 1-D or 2-D, got shape {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise ValueError(f"matmul: inner dimensions disagree: {a.shape} vs {b.shape}")
    data = a.data @ b.data

    if b.data.ndim == 1:
        def backward(g):
            return [g[:, None] * b.data, a.data.T @ g]
    else:
        def backward(g):
            return [g @ b.data.T, a.data.T @ g]
    return _result(data, (a, b), backward)


def add(a: Tensor, b: Tensor) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    if a.shape != b.shape:
        raise ValueError(f"add: shape mismatch {a.shape} vs {b.shape}")

    def backward(g):
        return [g, g]
    return _result(a.data + b.data, (a, b), backward)


def mul(a: Tensor, b: Tensor) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    if a.shape != b.shape:
        raise ValueError(f"mul: shape mismatch {a.shape} vs {b.shape}")

    def backward(g):
        return [g * b.data, g * a.data]
    return _result(a.data * b.data, (a, b), backward)


def _sigmoid(z: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-z))


def sigmoid(x: Tensor) -> Tensor:
    x = _as_tensor(x)
    s = _sigmoid(x.data)

    def backward(g):
        return [g * s * (1.0 - s)]
    return _result(s, (x,), backward)


def tanh(x: Tensor) -> Tensor:
    x = _as_tensor(x)
    t = np.tanh(x.data)

    def backward(g):
        return [g * (1.0 - t * t)]
    return _result(t, (x,), backward)


def concat(parts: Sequence[Tensor]) -> Tensor:
    """Concatenate 1-D tensors."""
    parts = [_as_tensor(p) for p in parts]
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
    x = _as_tensor(x)
    if x.data.ndim != 1:
        raise ValueError("slice_: input must be 1-D")

    def backward(g):
        full = np.zeros_like(x.data)
        full[start:stop] = g
        return [full]
    return _result(x.data[start:stop].copy(), (x,), backward)


def transpose(x: Tensor) -> Tensor:
    x = _as_tensor(x)
    if x.data.ndim != 2:
        raise ValueError("transpose: input must be 2-D")

    def backward(g):
        return [g.T]
    return _result(x.data.T.copy(), (x,), backward)


def add_colvec(m: Tensor, v: Tensor) -> Tensor:
    """Add a column vector to every column of a 2-D tensor."""
    m, v = _as_tensor(m), _as_tensor(v)
    if m.data.ndim != 2 or v.data.ndim != 1 or m.shape[0] != v.shape[0]:
        raise ValueError(f"add_colvec: incompatible shapes {m.shape} and {v.shape}")

    def backward(g):
        return [g, g.sum(axis=1)]
    return _result(m.data + v.data[:, None], (m, v), backward)


def reshape(x: Tensor, shape) -> Tensor:
    """The same values in a new shape (numpy rules, one -1 allowed)."""
    x = _as_tensor(x)

    def backward(g):
        return [g.reshape(x.data.shape)]
    return _result(x.data.reshape(shape), (x,), backward)


def scale(x: Tensor, k: float) -> Tensor:
    x = _as_tensor(x)

    def backward(g):
        return [g * k]
    return _result(x.data * k, (x,), backward)


def lstm_cell(x: Tensor, h_prev: Tensor, c_prev: Tensor,
              w_x: Tensor, w_h: Tensor, b: Tensor) -> Tensor:
    """One LSTM layer-step as one graph node whose output is ``[h; c]``.

    The gates are packed (input, forget, output, candidate) along the rows
    of ``w_x`` (4n, in), ``w_h`` (4n, n) and ``b`` (4n,). The forward
    evaluates the NumPy expressions of the same cell built from ``matmul``,
    ``add``, ``slice_``, ``sigmoid``, ``tanh`` and ``mul``, in the same order,
    and the backward writes out that graph's chain rule term by term, so
    values and gradients are bit-identical to it. The topological sort
    explores the parents last to first, so it walks a step's history before
    its input ``x``, as it does in that graph; this keeps the order in which
    gradients are summed over time steps.
    """
    x, h_prev, c_prev, w_x, w_h, b = map(_as_tensor, (x, h_prev, c_prev, w_x, w_h, b))
    n = h_prev.data.size
    if (x.data.ndim != 1 or h_prev.data.ndim != 1 or c_prev.shape != (n,)
            or b.shape != (4 * n,) or w_h.shape != (4 * n, n)
            or w_x.shape != (4 * n, x.data.size)):
        raise ValueError(f"lstm_cell: incompatible shapes x {x.shape}, h {h_prev.shape}, "
                         f"c {c_prev.shape}, w_x {w_x.shape}, w_h {w_h.shape}, b {b.shape}")
    z = _finite(_finite(_finite(w_x.data @ x.data) + _finite(w_h.data @ h_prev.data))
                + b.data)
    i = _sigmoid(z[:n].copy())
    f = _sigmoid(z[n:2 * n].copy())
    o = _sigmoid(z[2 * n:3 * n].copy())
    g = np.tanh(z[3 * n:].copy())
    c = f * c_prev.data + i * g
    tc = np.tanh(c)

    def backward(grad):
        gh, gc = grad[:n], grad[n:]
        dc = gc + (gh * o) * (1.0 - tc * tc)
        dz = np.empty(4 * n, grad.dtype)
        dz[:n] = (dc * g) * i * (1.0 - i)
        dz[n:2 * n] = (dc * c_prev.data) * f * (1.0 - f)
        dz[2 * n:3 * n] = (gh * tc) * o * (1.0 - o)
        dz[3 * n:] = (dc * i) * (1.0 - g * g)
        return [w_x.data.T @ dz, w_h.data.T @ dz, dc * f,
                dz[:, None] * x.data, dz[:, None] * h_prev.data, dz]
    return _result(np.concatenate([o * tc, c]), (x, h_prev, c_prev, w_x, w_h, b), backward)


# ---------------------------------------------------------------------------
# losses and heads


def softmax(logits: Tensor) -> Tensor:
    """Stable softmax over a 1-D logits vector (max subtraction)."""
    logits = _as_tensor(logits)
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
    logits = _as_tensor(logits)
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
    prediction, target = _as_tensor(prediction), _as_tensor(target)
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

    def step(self) -> None:
        """Apply one update from the accumulated gradients, then zero them."""
        self.t += 1
        b1, b2 = ADAM_BETA_1, ADAM_BETA_2
        for p, m, v in zip(self.params, self.m, self.v):
            if p.grad is None:
                raise AutodiffError("adam step with missing gradient")
            g = p.grad
            m *= b1
            m += (1 - b1) * g
            v *= b2
            v += (1 - b2) * g * g
            m_hat = m / (1 - b1 ** self.t)
            v_hat = v / (1 - b2 ** self.t)
            p.data -= self.lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
            p.zero_grad()


# ---------------------------------------------------------------------------
# verification


FD_ZERO_TOL = 1e-9


def finite_difference_check(f: Callable[[Tensor], Tensor], x: Tensor,
                            h: float = 1e-5,
                            max_components: int | None = None,
                            rng: np.random.Generator | None = None) -> float:
    """Compare backward() gradients of scalar f against central differences.

    Returns the worst componentwise relative error, with denominator
    max(|analytic|, |numeric|, 1e-8). When the input is large,
    ``max_components`` caps the number of randomly sampled components
    checked (all components by default).

    Components where both values fall below ``FD_ZERO_TOL`` count as
    agreeing: for a parameter whose true gradient is exactly zero (e.g. a
    direction the loss is invariant under), the central-difference estimate
    carries roundoff noise of order eps*|f|/h, which would otherwise dominate
    the floored denominator.
    """
    if not x.requires_grad:
        raise AutodiffError("finite_difference_check needs a requires_grad input")
    x.zero_grad()
    out = f(x)
    if out.data.size != 1:
        raise AutodiffError("finite_difference_check requires a scalar-valued function")
    out.backward()
    analytic = x.grad.copy()
    x.zero_grad()

    flat = x.data.reshape(-1)
    indices = np.arange(flat.size)
    if max_components is not None and flat.size > max_components:
        rng = rng or np.random.default_rng(0)
        indices = rng.choice(flat.size, size=max_components, replace=False)

    worst = 0.0
    a_flat = analytic.reshape(-1)
    for i in indices:
        orig = flat[i]
        flat[i] = orig + h
        fp = float(f(x).data)
        flat[i] = orig - h
        fm = float(f(x).data)
        flat[i] = orig
        numeric = (fp - fm) / (2 * h)
        if max(abs(a_flat[i]), abs(numeric)) < FD_ZERO_TOL:
            continue
        denom = max(abs(a_flat[i]), abs(numeric), 1e-8)
        worst = max(worst, abs(a_flat[i] - numeric) / denom)
    return worst


def xavier_uniform(rng: np.random.Generator, fan_in: int, fan_out: int,
                   shape, dtype=np.float64) -> np.ndarray:
    bound = math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=shape).astype(dtype, copy=False)
