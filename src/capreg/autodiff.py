"""Minimal reverse-mode automatic differentiation engine.

A tensor is a parameter, a leaf that collects gradient terms in ``.terms``,
or an op result, which records its parents and backward and has no terms
(``None``). ``backward()`` on a scalar result walks the recorded graph down
from it and appends every gradient term that reaches a parameter to its
``.terms``, unsummed. The graph must be a tree above its leaves: each op
result feeds one op. A parameter may feed several, and its terms add up.
No parameter holds a dense gradient: ``AdamState.step`` forms each row
block of a parameter's gradient from its terms in a reused buffer, updates
the parameter from it and empties the list. ``Tensor.gradient()`` forms
the whole sum the same way, for a reader such as a logged norm.

The five ops (``attention``, ``lstm``, ``linear``, ``mse``,
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
import os
import threading
from collections import deque
from typing import Callable, Iterable, Sequence

import numpy as np


class AutodiffError(Exception):
    """Misuse of the engine (double backward, missing gradient, ...)."""


class NumericalError(AutodiffError):
    """A forward op produced NaN, Inf or values too large to sum."""


PRECISIONS = {"f64": np.float64, "f32": np.float32}


class Tensor:
    """A parameter, or an op result (:func:`_result`). A parameter's
    ``terms`` lists the gradient terms ``backward()`` has sent it since the
    last step, in arrival order, each a dense array of its shape or an
    unformed product (:class:`_Outer`); an op result's is ``None``."""

    __slots__ = ("data", "terms", "_parents", "_backward", "_backward_done")

    def __init__(self, data):
        data = np.asarray(data)
        self.data = data if data.dtype == np.float32 else data.astype(np.float64, copy=False)
        self.terms: list | None = []
        self._parents: tuple[Tensor, ...] = ()
        self._backward: Callable[[np.ndarray], list] | None = None
        self._backward_done = False

    @property
    def shape(self):
        return self.data.shape

    def item(self) -> float:
        return float(self.data)

    def gradient(self) -> np.ndarray:
        """The sum of this parameter's terms, formed whole and block by
        block as ``AdamState.step`` forms it: zeros if it has none."""
        if self.terms is None:
            raise AutodiffError("an op result has no gradient; only a parameter collects terms")
        out = np.empty_like(self.data)
        for rows in _row_blocks(out):
            _form(self.terms, rows, out[rows], np.empty_like(out[rows]))
        return out

    def backward(self) -> None:
        """Backpropagate from this scalar through the recorded graph.

        One backward pass per forward pass: calling this twice on the same
        result is an error.

        The walk hands each op result the one gradient its one consumer
        sends, and raises :class:`AutodiffError` if it reaches an op result
        a second time: a second consumer would re-walk the whole subgraph
        below it. A parameter appends each term it receives to ``.terms``
        as it arrives, so one that feeds two ops, or two walks before a
        step, gets the sum. A weight-gradient term arrives as an unformed
        product ``U^T V`` (:class:`_Outer`). In the caption model every
        parameter gets exactly one term: ``dZ^T X`` over the caption's T
        rows, or a sum over them.

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

        stack = [(self, np.ones_like(self.data))]
        while stack:
            node, grad = stack.pop()
            if node._backward is None:
                node.terms.append(grad)
                continue
            for parent, term in zip(node._parents, node._backward(grad)):
                if parent._backward is not None:
                    if parent._backward_done:
                        raise AutodiffError("an op result feeds more than one op, or an "
                                            "earlier backward() ran through it")
                    parent._backward_done = True
                stack.append((parent, term))


# A parameter's gradient is formed, and Adam updates it, over blocks of rows
# of at most this many bytes (256 KB) in either dtype: each block stays in
# L2 cache, and the buffers a block needs are small enough to be allocated
# once and reused rather than faulted in afresh.
_BLOCK_BYTES = 1 << 18


class _Outer:
    """The weight-gradient term ``u^T v`` of T-row factors ``u`` (T, m) and
    ``v`` (T, k), such as ``dZ^T X``, left unformed: a parameter's gradient
    forms it one row block at a time, so the (m, k) product never exists
    whole. A vector factor is one row, so T = 1 is the rank-one ``u v^T``.
    The ops send it only to their weights, which are parameters. It is
    formed when the step runs, so its factors must not be a parameter's
    data, which the step may already have updated; the caption model's are
    activations and constants."""

    __slots__ = ("u", "v")

    def __init__(self, u: np.ndarray, v: np.ndarray):
        self.u, self.v = np.atleast_2d(u), np.atleast_2d(v)

    def block(self, rows, out: np.ndarray) -> np.ndarray:
        return np.matmul(self.u[:, rows].T, self.v, out=out)


def _row_blocks(a: np.ndarray) -> list:
    """Index blocks over the first axis of ``a`` of at most ``_BLOCK_BYTES``
    each, but of two rows at least: a last single row joins the block before
    it. A product term's block is then a GEMM, as the whole product is; BLAS
    sends a one-row product to a matrix-vector kernel, which rounds its sums
    differently. A 0-d array is one block."""
    if not a.ndim:
        return [...]
    rows = max(2, _BLOCK_BYTES // max(1, a.itemsize * math.prod(a.shape[1:])))
    edges = [*range(0, len(a), rows), len(a)]
    if len(edges) > 2 and edges[-1] - edges[-2] == 1:
        del edges[-2]
    return [slice(lo, hi) for lo, hi in zip(edges, edges[1:])]


def _form(terms: list, rows, out: np.ndarray, tmp: np.ndarray) -> None:
    """Rows ``rows`` of the sum of ``terms`` into ``out``, zeros if there
    are none. The first term is written there and each later one added in
    arrival order, which gives the bits of adding each in turn to zeros,
    but for the sign of a zero. A product term's block, bitwise the
    matching rows of the whole product, is formed in place or, after the
    first term, in ``tmp`` of ``out``'s shape."""
    if not terms:
        out.fill(0.0)
    for i, term in enumerate(terms):
        block = term.block(rows, tmp if i else out) if isinstance(term, _Outer) else term[rows]
        if i:
            out += block
        elif block is not out:
            np.copyto(out, block)


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
    out = Tensor.__new__(Tensor)
    out.data, out.terms = _finite(op, data), None
    out._parents, out._backward, out._backward_done = tuple(parents), backward, False
    return out


# ---------------------------------------------------------------------------
# core ops


def attention(annotations: np.ndarray, words: np.ndarray, w_annot: Tensor,
              w_word: Tensor, b: Tensor, w_out: Tensor) -> tuple[Tensor, np.ndarray]:
    """Soft attention of T query rows over the L columns ``a_l`` of a (D, L)
    annotation matrix, as one graph node.

    Row t scores column l as ``w_out . tanh(w_annot a_l + w_word v_t + b)``,
    with ``v_t`` row t of ``words`` (T, d), and its context is the
    softmax-weighted sum of the columns. The annotations and the words are
    constants. Returns the node of the (T, d + D) rows ``[v_t; context_t]``
    that the first LSTM layer reads, and the (T, L) weights. The backward
    drops the first d columns of its gradient: the words are constants.
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
    d = words.shape[1]

    def backward(g):
        d_alpha = g[:, d:] @ annotations
        d_score = alphas * (d_alpha - (d_alpha * alphas).sum(axis=1, keepdims=True))
        d_pre = w_out.data[:, None] * d_score[:, None, :]
        d_pre *= 1.0 - hidden * hidden
        d_bias = d_pre.sum(axis=2)                                # (T, k)
        return [d_pre.sum(axis=0) @ annotations.T, _Outer(d_bias, words),
                d_bias.sum(axis=0), np.einsum("tkl,tl->k", hidden, d_score)]
    rows = np.concatenate([words, alphas @ annotations.T], axis=1)
    return _result("attention", rows, (w_annot, w_word, b, w_out), backward), alphas


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
    scratch = np.empty(4 * n, z.dtype)       # w_h h_{t-1}, then i * g
    hs[0], cs[0] = state[:n], state[n:]
    for t in range(steps):
        zt, gt = z[t], gates[t]
        np.matmul(w_hd, hs[t], out=scratch)
        zt += scratch
        # the sigmoid 1 / (1 + exp(-z)), in place in the gate rows
        sig = gt[:3 * n]
        np.negative(zt[:3 * n], out=sig)
        np.exp(sig, out=sig)
        sig += 1.0
        np.divide(1.0, sig, out=sig)
        np.tanh(zt[3 * n:], out=gt[3 * n:])
        np.multiply(gt[n:2 * n], cs[t], out=cs[t + 1])
        np.multiply(gt[:n], gt[3 * n:], out=scratch[:n])
        cs[t + 1] += scratch[:n]
        np.tanh(cs[t + 1], out=tcs[t])
        np.multiply(gt[2 * n:3 * n], tcs[t], out=hs[t + 1])
    # tanh and the sigmoid saturate an overflow into finite values: check
    # the pre-activations, not only the output
    _finite("lstm", z)

    def backward(grad):
        gh_out = grad * mask if mask is not None else grad
        i, f, o, g = (gates[:, k * n:(k + 1) * n] for k in range(4))
        dc_dh = o * (1.0 - tcs * tcs)
        # d z / d c for the input, forget and candidate rows and d z / d h for
        # the output row, which each step then scales in place by dc or by gh
        dz = np.concatenate([g * i * (1.0 - i), cs[:-1] * f * (1.0 - f),
                             tcs * o * (1.0 - o), i * (1.0 - g * g)], axis=1)
        gate_rows = dz.reshape(steps, 4, n)
        carry_h = carry_c = 0.0
        for t in range(steps - 1, -1, -1):
            gh = gh_out[t] + carry_h
            dc = gh * dc_dh[t] + carry_c
            rows = gate_rows[t]
            rows[:2] *= dc
            rows[2] *= gh
            rows[3] *= dc
            if t:
                carry_h = dz[t] @ w_hd
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


def _usable_cpus() -> int:
    """The CPUs this process may run on: its affinity set where the
    platform has one, else every CPU."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _adam_blocks(items: deque, buffers: dict, failures: dict, b1: float, b2: float,
                 alpha: float, eps: float) -> None:
    """Take (index, (parameter, m, v, row block)) items from the left of
    ``items`` until none is left, and apply the folded update to each: the
    block's gradient formed from the terms (:func:`_form`), then 10 passes,
    one of them a divide, over ``m``, ``v`` and the parameter, in the three
    flat buffers ``buffers`` holds for the block's dtype. An error is kept
    in ``failures`` under its item's index, and ends the loop."""
    while True:
        try:
            i, (p, m, v, blk) = items.popleft()
        except IndexError:
            return
        try:
            mb, vb, x = m[blk], v[blk], p.data[blk]
            g, t1, t2 = (b[:x.size].reshape(x.shape) for b in buffers[x.dtype])
            _form(p.terms, blk, g, t1)
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
        except BaseException as e:  # raised again after the join
            failures[i] = e
            return


class AdamState:
    """Adam with bias correction over a fixed parameter list. ``m[i]`` and ``v[i]``
    hold Kingma and Ba's moments pre-divided: ``m / (1 - beta1)``, ``v / (1 - beta2)``.
    No gradient is stored: a step forms each row block of a parameter's
    gradient from its terms, uses it and reuses the buffer for the next.

    The plan of a step is built here, once: the (parameter, m, v, row
    block) items in parameter order, and for each taker of items three
    flat buffers per dtype, of that dtype's largest block. There are two
    takers where the process may run on two CPUs or more and the plan has
    more than one block, and one otherwise."""

    def __init__(self, params: Iterable[Tensor], lr: float = 0.001):
        self.params = list(params)
        if any(p.terms is None for p in self.params):
            raise AutodiffError("Adam over an op result; only a parameter collects gradient terms")
        self.lr = lr
        self.t = 0
        self.m = [np.zeros_like(p.data) for p in self.params]
        self.v = [np.zeros_like(p.data) for p in self.params]
        self._plan = [(p, m, v, blk) for p, m, v in zip(self.params, self.m, self.v)
                      for blk in _row_blocks(p.data)]
        largest: dict[np.dtype, int] = {}
        for _, m, _, blk in self._plan:
            largest[m.dtype] = max(largest.get(m.dtype, 0), m[blk].size)
        takers = 2 if _usable_cpus() > 1 and len(self._plan) > 1 else 1
        self._buffers = [{dt: tuple(np.empty(n, dt) for _ in range(3))
                          for dt, n in largest.items()} for _ in range(takers)]

    def step(self) -> None:
        """Apply one update from each parameter's gradient terms, then empty
        them: ``p -= lr m_hat / (sqrt(v_hat) + eps)`` with the bias
        corrections ``c = 1 - beta^t`` folded in (Kingma and Ba 2015,
        section 2), as ``p -= alpha m / (sqrt(v) + eps / k)`` with
        ``k = sqrt((1 - beta2) / c2)`` and ``alpha = lr (1 - beta1) / (c1 k)``.
        Per row block the gradient is formed from the terms (:func:`_form`),
        then 10 passes, one of them a divide, update ``m``, ``v`` and ``p``,
        in three reused buffers. A parameter with no terms steps with a zero
        gradient. The tests hold it to the textbook form.

        Adam updates each element on its own, so the plan's items may run
        in any order, on any thread, with the same bits: each block runs the
        same GEMM and the same passes. The step puts the plan in one deque;
        the caller takes items from it, each with its own buffers, and so
        does a thread started here where the plan has two takers. If that
        thread waits for a CPU, the caller takes the rest. The step joins
        it, raises the error of the lowest-indexed failing item, which is
        the one a single taker stops at, and only then empties the terms:
        a failed step leaves every parameter's terms in place."""
        self.t += 1
        b1, b2 = ADAM_BETA_1, ADAM_BETA_2
        c1, c2 = 1 - b1 ** self.t, 1 - b2 ** self.t
        k = math.sqrt((1 - b2) / c2)
        alpha, eps = self.lr * (1 - b1) / (c1 * k), ADAM_EPS / k
        items, failures = deque(enumerate(self._plan)), {}
        workers = [threading.Thread(target=_adam_blocks, name="adam-step",
                                    args=(items, bufs, failures, b1, b2, alpha, eps))
                   for bufs in self._buffers[1:]]
        for w in workers:
            w.start()
        _adam_blocks(items, self._buffers[0], failures, b1, b2, alpha, eps)
        for w in workers:
            w.join()
        if failures:
            raise failures[min(failures)]
        for p in self.params:
            p.terms.clear()


def xavier_uniform(rng: np.random.Generator, fan_in: int, fan_out: int,
                   shape, dtype=np.float64) -> np.ndarray:
    bound = math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=shape).astype(dtype, copy=False)
