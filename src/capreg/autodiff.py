"""Minimal reverse-mode automatic differentiation engine.

Tensors wrap numpy arrays and record the ops applied to them; calling
``backward()`` on a scalar result walks the recorded graph down from it and
adds every gradient term that reaches a tensor with ``requires_grad`` to
its ``.grad``. The graph must be a tree above its leaves: each op result
feeds one op. A leaf may feed several, and its terms add up.
``AdamState.step`` zeroes the gradients.

The ops (``attention``, ``lstm``, ``linear``, ``concat``, ``mse``,
``cross_entropy``) each cover all T time steps of a caption in one node.
They take the caption's constants (annotations, previous-word rows,
targets, dropout masks, a starting state) as plain arrays, which are not
graph nodes, so the walk forms no gradient term for them.

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
    """A forward op produced NaN, Inf or values too large to sum."""


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
        self._backward: Callable[[np.ndarray], list] | None = None
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

        The walk hands each op result the one gradient its one consumer
        sends, and raises :class:`AutodiffError` if it reaches an op result
        a second time: a second consumer would re-walk the whole subgraph
        below it. A parameter adds each term it receives to ``.grad`` as it
        arrives (:func:`_add_term`), so one that feeds two ops gets the sum;
        terms for constants are dropped. A weight-gradient term arrives as
        an unformed product ``U^T V`` (:class:`_Outer`). In the caption
        model every parameter gets exactly one term: ``dZ^T X`` over the
        caption's T rows, or a sum over them.

        Because the caption-level ops batch what the per-step graph computed
        one step at a time (a GEMM in place of T matrix-vector products),
        their results match that graph's within round-off, not bit for bit:
        the tests hold f64 gradients to 1e-12 of it (relative, normalised by
        the largest magnitude) and f32 to 1e-4.
        """
        if self.data.ndim != 0 and self.data.size != 1:
            raise AutodiffError("backward() requires a scalar tensor")
        if self._backward_done:
            raise AutodiffError("backward() already ran on this graph; re-run the forward pass first")
        self._backward_done = True

        scratch = _Scratch()
        stack = [(self, np.ones_like(self.data))]
        while stack:
            node, grad = stack.pop()
            if node._backward is None:
                if node.requires_grad:  # not a constant root
                    _add_term(node.grad, grad, scratch)
                continue
            for parent, term in zip(node._parents, node._backward(grad)):
                if parent._backward is not None:
                    if parent._backward_done:
                        raise AutodiffError("an op result feeds more than one op, or an "
                                            "earlier backward() ran through it")
                    parent._backward_done = True
                elif not parent.requires_grad:
                    continue
                stack.append((parent, term))


# A parameter's gradient is formed, and Adam updates it, over blocks of rows
# of at most this many elements (256 KB in f64): each block stays in L2
# cache, and the scratch buffers a block needs are small enough to be
# reused rather than faulted in afresh.
_BLOCK = 1 << 15


class _Outer:
    """The weight-gradient term ``u^T v`` of T-row factors ``u`` (T, m) and
    ``v`` (T, k), such as ``dZ^T X``, left unformed: a parameter's gradient
    forms it one row block at a time, so the (m, k) product never exists
    whole. A vector factor is one row, so T = 1 is the rank-one ``u v^T``.
    The ops send it only to their weights, which are parameters."""

    __slots__ = ("u", "v")

    def __init__(self, u: np.ndarray, v: np.ndarray):
        self.u, self.v = np.atleast_2d(u), np.atleast_2d(v)

    def block(self, rows, out: np.ndarray) -> np.ndarray:
        return np.matmul(self.u[:, rows].T, self.v, out=out)


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
    """Index blocks over the first axis of at most ``_BLOCK`` elements each,
    but of two rows at least: a last single row joins the block before it.
    A product term's block is then a GEMM, as the whole product is; BLAS
    sends a one-row product to a matrix-vector kernel, which rounds its sums
    differently. A 0-d array is one block."""
    if not shape:
        return [...]
    rows = max(2, _BLOCK // max(1, math.prod(shape[1:])))
    edges = [*range(0, shape[0], rows), shape[0]]
    if len(edges) > 2 and edges[-1] - edges[-2] == 1:
        del edges[-2]
    return [slice(a, b) for a, b in zip(edges, edges[1:])]


def _add_term(grad: np.ndarray, term, scratch: _Scratch) -> None:
    """``grad += term`` in place. A product term is formed one row block at
    a time into a reused buffer, so no temporary the size of ``grad`` is
    made; each block is bitwise the matching rows of the whole product."""
    if not isinstance(term, _Outer):
        grad += term
        return
    for blk in _row_blocks(grad.shape):
        grad[blk] += term.block(blk, scratch.pair(grad.dtype, grad[blk].shape)[0])


def _finite(op: str, data: np.ndarray) -> np.ndarray:
    # one reduction on the fast path: any NaN/Inf in the array leaves the
    # sum non-finite, and so do finite values too large to sum; both abort
    if not np.isfinite(data.sum()):
        what = ("finite values whose sum overflows" if np.isfinite(data).all()
                else "non-finite values")
        raise NumericalError(f"{op}: {what} in a {data.shape} array, "
                             f"largest |x| {np.abs(data).max():.3g}")
    return data


def _result(op: str, data: np.ndarray, parents: Sequence[Tensor],
            backward: Callable[[np.ndarray], list]) -> Tensor:
    out = Tensor(_finite(op, data))
    out._parents = tuple(parents)
    out._backward = backward
    return out


# ---------------------------------------------------------------------------
# core ops


def _sigmoid(z: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-z))


def concat(parts: Sequence) -> Tensor:
    """Join tensors, and arrays taken as constants, along their last axis."""
    arrays = [p.data if isinstance(p, Tensor) else np.asarray(p) for p in parts]
    if len({(a.ndim, a.shape[:-1]) for a in arrays}) != 1 or arrays[0].ndim not in (1, 2):
        raise ValueError(f"concat: needs 1-D or 2-D parts that agree but in the last axis, "
                         f"got shapes {[a.shape for a in arrays]}")
    offsets = np.cumsum([0] + [a.shape[-1] for a in arrays])
    blocks = [(p, offsets[i], offsets[i + 1]) for i, p in enumerate(parts)
              if isinstance(p, Tensor)]

    def backward(g):
        return [g[..., lo:hi] for _, lo, hi in blocks]
    return _result("concat", np.concatenate(arrays, axis=-1), [p for p, _, _ in blocks], backward)


def attention(annotations: np.ndarray, words: np.ndarray, w_annot: Tensor,
              w_word: Tensor, b: Tensor, w_out: Tensor) -> tuple[Tensor, np.ndarray]:
    """Soft attention of T query rows over the L columns ``a_l`` of a (D, L)
    annotation matrix, as one graph node.

    Row t scores column l as ``w_out . tanh(w_annot a_l + w_word v_t + b)``,
    with ``v_t`` row t of ``words`` (T, d), and its context is the
    softmax-weighted sum of the columns. The annotations and the words are
    constants. Returns the (T, D) context node and the (T, L) weights.
    """
    if (annotations.ndim != 2 or words.ndim != 2 or w_annot.shape[1] != annotations.shape[0]
            or w_word.shape[1] != words.shape[1] or w_word.shape[0] != w_annot.shape[0]
            or b.shape != w_annot.shape[:1] or w_out.shape != b.shape):
        raise ValueError(f"attention: incompatible shapes annotations {annotations.shape}, "
                         f"words {words.shape}, w_annot {w_annot.shape}, w_word {w_word.shape}, "
                         f"b {b.shape}, w_out {w_out.shape}")
    proj = _finite("attention", w_annot.data @ annotations)       # (k, L)
    bias = words @ w_word.data.T
    bias += b.data
    hidden = np.tanh(_finite("attention", bias)[:, :, None] + proj)  # (T, k, L)
    scores = w_out.data @ hidden                                  # (T, L)
    scores -= scores.max(axis=1, keepdims=True)
    alphas = np.exp(scores)
    alphas /= alphas.sum(axis=1, keepdims=True)

    def backward(g):
        d_alpha = g @ annotations
        d_score = alphas * (d_alpha - (d_alpha * alphas).sum(axis=1, keepdims=True))
        d_pre = w_out.data[:, None] * d_score[:, None, :]
        d_pre *= 1.0 - hidden * hidden
        d_bias = d_pre.sum(axis=2)                                # (T, k)
        return [d_pre.sum(axis=0) @ annotations.T, _Outer(d_bias, words),
                d_bias.sum(axis=0), np.einsum("tkl,tl->k", hidden, d_score)]
    context = _result("attention", alphas @ annotations.T, (w_annot, w_word, b, w_out), backward)
    return context, alphas


def lstm(x: Tensor, state: np.ndarray, w_x: Tensor, w_h: Tensor, b: Tensor,
         mask: np.ndarray | None = None) -> tuple[Tensor, np.ndarray]:
    """One LSTM layer over the T input rows of ``x`` (T, in), as one node.

    The gates are packed (input, forget, output, candidate) along the rows
    of ``w_x`` (4n, in), ``w_h`` (4n, n) and ``b`` (4n,). ``x @ w_x^T + b``
    is one GEMM over all T steps; only ``w_h h_{t-1}`` runs step by step.
    ``state`` is the constant ``[h; c]`` (2n,) before the first step, and the
    optional constant ``mask`` (T, n) scales each step's hidden output, as
    inverted dropout does; the recurrence reads the unscaled ``h``. Returns
    the node of the T hidden rows and the ``[h; c]`` after the last step.

    The backward runs the steps in reverse for the pre-activation gradient
    ``dZ`` (T, 4n), then hands each weight one term: ``dZ^T X``,
    ``dZ^T H_prev`` and ``sum_t dZ_t``.
    """
    n = w_h.shape[1]
    steps = x.shape[0]
    if (x.data.ndim != 2 or state.shape != (2 * n,) or b.shape != (4 * n,)
            or w_h.shape != (4 * n, n) or w_x.shape != (4 * n, x.shape[1])
            or (mask is not None and mask.shape != (steps, n))):
        raise ValueError(f"lstm: incompatible shapes x {x.shape}, state {state.shape}, "
                         f"w_x {w_x.shape}, w_h {w_h.shape}, b {b.shape}, "
                         f"mask {None if mask is None else mask.shape}")
    w_hd = w_h.data
    z = x.data @ w_x.data.T
    z += b.data
    gates = np.empty_like(z)                 # i, f, o, g after their activations
    hs = np.empty((steps + 1, n), z.dtype)   # h_0 .. h_T
    cs = np.empty((steps + 1, n), z.dtype)   # c_0 .. c_T
    tcs = np.empty((steps, n), z.dtype)      # tanh(c_1) .. tanh(c_T)
    hs[0], cs[0] = state[:n], state[n:]
    for t in range(steps):
        zt, gt = z[t], gates[t]
        zt += w_hd @ hs[t]
        gt[:3 * n] = _sigmoid(zt[:3 * n])
        np.tanh(zt[3 * n:], out=gt[3 * n:])
        np.multiply(gt[n:2 * n], cs[t], out=cs[t + 1])
        cs[t + 1] += gt[:n] * gt[3 * n:]
        np.tanh(cs[t + 1], out=tcs[t])
        np.multiply(gt[2 * n:3 * n], tcs[t], out=hs[t + 1])
    # tanh and the sigmoid saturate an overflow into finite values: check
    # the pre-activations, not only the output
    _finite("lstm", z)

    def backward(grad):
        gh_out = grad * mask if mask is not None else grad
        i, f, o, g = (gates[:, k * n:(k + 1) * n] for k in range(4))
        dc_dh = o * (1.0 - tcs * tcs)
        # d z / d c for the input, forget and candidate rows; d z / d h for the output row
        local = np.concatenate([g * i * (1.0 - i), cs[:-1] * f * (1.0 - f),
                                tcs * o * (1.0 - o), i * (1.0 - g * g)], axis=1)
        dz = np.empty_like(z)
        carry_h = carry_c = 0.0
        for t in range(steps - 1, -1, -1):
            gh = gh_out[t] + carry_h
            dc = gh * dc_dh[t] + carry_c
            dzt, lt = dz[t], local[t]
            np.multiply(dc, lt[:n], out=dzt[:n])
            np.multiply(dc, lt[n:2 * n], out=dzt[n:2 * n])
            np.multiply(gh, lt[2 * n:3 * n], out=dzt[2 * n:3 * n])
            np.multiply(dc, lt[3 * n:], out=dzt[3 * n:])
            if t:
                carry_h = dzt @ w_hd
                carry_c = dc * f[t]
        return [dz @ w_x.data, _Outer(dz, x.data), _Outer(dz, hs[:-1]), dz.sum(axis=0)]
    hidden = hs[1:] * mask if mask is not None else hs[1:]
    out = _result("lstm", hidden, (x, w_x, w_h, b), backward)
    return out, np.concatenate([hs[-1], cs[-1]])


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """The rows ``x @ w^T + b`` of a (T, in) input, as one node."""
    if x.data.ndim != 2 or w.data.ndim != 2 or w.shape[1] != x.shape[1] or b.shape != w.shape[:1]:
        raise ValueError(f"linear: incompatible shapes x {x.shape}, w {w.shape}, b {b.shape}")
    data = x.data @ w.data.T
    data += b.data

    def backward(g):
        return [g @ w.data, _Outer(g, x.data), g.sum(axis=0)]
    return _result("linear", data, (x, w, b), backward)


# ---------------------------------------------------------------------------
# losses


def cross_entropy(logits: Tensor, target) -> Tensor:
    """Softmax cross entropy ``-log S_y``: of a logits vector against one
    class index, or the mean over the rows of a (T, V) logits matrix against
    T class indices."""
    rows = np.atleast_2d(logits.data)
    y = np.atleast_1d(np.asarray(target))
    count, n = rows.shape
    if logits.data.ndim > 2 or y.shape != (count,):
        raise ValueError(f"cross_entropy: {y.size} targets for logits of shape {logits.shape}")
    if np.any((y < 0) | (y >= n)):
        raise IndexError(f"target index {target} out of range for {n} classes")
    r = np.arange(count)
    z = rows - rows.max(axis=1, keepdims=True)
    log_z = np.log(np.exp(z).sum(axis=1))
    loss = np.mean(log_z - z[r, y])

    def backward(g):
        d = np.exp(z - log_z[:, None])
        d[r, y] -= 1.0
        d *= float(g) / count
        return [d.reshape(logits.shape)]
    return _result("cross_entropy", np.asarray(loss, dtype=rows.dtype), (logits,), backward)


def mse(prediction: Tensor, target: np.ndarray) -> Tensor:
    """Mean of squared componentwise differences from a constant target.
    Over T rows of one width it is the mean of the T per-row losses."""
    target = np.asarray(target)
    if prediction.shape != target.shape:
        raise ValueError(f"mse: shape mismatch {prediction.shape} vs {target.shape}")
    diff = prediction.data - target
    n = diff.size

    def backward(g):
        return [2.0 * diff / n * float(g)]
    return _result("mse", np.asarray(np.mean(diff * diff)), (prediction,), backward)


# ---------------------------------------------------------------------------
# optimizer


ADAM_BETA_1 = 0.9
ADAM_BETA_2 = 0.999
ADAM_EPS = 1e-8


class AdamState:
    """Adam with bias correction over a fixed parameter list. ``m[i]`` and ``v[i]``
    hold Kingma and Ba's moments pre-divided: ``m / (1 - beta1)``, ``v / (1 - beta2)``."""

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
        """Apply one update from the accumulated gradients, then zero them:
        ``p -= lr m_hat / (sqrt(v_hat) + eps)`` with the bias corrections
        ``c = 1 - beta^t`` folded in (Kingma and Ba 2015, section 2), as
        ``p -= alpha m / (sqrt(v) + eps / k)`` with ``k = sqrt((1 - beta2) / c2)``
        and ``alpha = lr (1 - beta1) / (c1 k)``: 11 passes and one divide per row
        block, in two reused buffers. The tests hold it to the textbook form."""
        self.t += 1
        b1, b2 = ADAM_BETA_1, ADAM_BETA_2
        c1, c2 = 1 - b1 ** self.t, 1 - b2 ** self.t
        k = math.sqrt((1 - b2) / c2)
        alpha, eps = self.lr * (1 - b1) / (c1 * k), ADAM_EPS / k
        for p, m, v in zip(self.params, self.m, self.v):
            if p.grad is None:
                raise AutodiffError("adam step with missing gradient")
            for blk in _row_blocks(p.data.shape):
                g, mb, vb, x = p.grad[blk], m[blk], v[blk], p.data[blk]
                t1, t2 = self._scratch.pair(x.dtype, x.shape)
                mb *= b1
                mb += g
                np.multiply(g, g, out=t1)
                vb *= b2
                vb += t1
                np.sqrt(vb, out=t2)
                t2 += eps
                np.divide(mb, t2, out=t1)
                t1 *= alpha
                x -= t1
                g.fill(0.0)


def xavier_uniform(rng: np.random.Generator, fan_in: int, fan_out: int,
                   shape, dtype=np.float64) -> np.ndarray:
    bound = math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=shape).astype(dtype, copy=False)
