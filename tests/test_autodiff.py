import ast
import inspect
import math
from pathlib import Path
from typing import Callable

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from capreg import autodiff as ad
from capreg.autodiff import AdamState, AutodiffError, Tensor
from capreg.decoder import REGRESSION, SOFTMAX, CaptionModel, teacher_forced_loss
from capreg.embedding import RESERVED, EmbeddingTable, Vocabulary
from capreg.encoder import AnnotationSet


# ---------------------------------------------------------------------------
# per-step ops: graph ops of the tests' own. The per-step oracle of the
# caption graph (tests/test_decoder.py), its 17-op LSTM cell and the gradient
# checks build from them; the model's ops fuse them.


def _reshape(x, shape):
    """The same values in a new shape."""
    return ad._result("reshape", x.data.reshape(shape), (x,),
                      lambda g: [g.reshape(x.data.shape)])


def sigmoid(x):
    s = ad._sigmoid(x.data)
    return ad._result("sigmoid", s, (x,), lambda g: [g * s * (1.0 - s)])


def matmul(a, b):
    """Matrix product: 2-D @ 2-D, matrix @ vector or vector @ matrix."""
    if (a.data.ndim, b.data.ndim) not in ((2, 2), (2, 1), (1, 2)):
        raise ValueError(f"matmul: needs 2-D @ 2-D, 2-D @ 1-D or 1-D @ 2-D, "
                         f"got shapes {a.shape} and {b.shape}")
    if a.shape[-1] != b.shape[0]:
        raise ValueError(f"matmul: inner dimensions disagree: {a.shape} vs {b.shape}")
    if b.data.ndim == 1:
        def backward(g):
            return [ad._Outer(g, b.data), a.data.T @ g]
    elif a.data.ndim == 1:
        def backward(g):
            return [g @ b.data.T, ad._Outer(a.data, g)]
    else:
        def backward(g):
            return [g @ b.data.T, a.data.T @ g]
    return ad._result("matmul", a.data @ b.data, (a, b), backward)


def add(a, b):
    if a.shape != b.shape:
        raise ValueError(f"add: shape mismatch {a.shape} vs {b.shape}")
    return ad._result("add", a.data + b.data, (a, b), lambda g: [g, g])


def mul(a, b):
    if a.shape != b.shape:
        raise ValueError(f"mul: shape mismatch {a.shape} vs {b.shape}")
    return ad._result("mul", a.data * b.data, (a, b), lambda g: [g * b.data, g * a.data])


def tanh(x):
    t = np.tanh(x.data)
    return ad._result("tanh", t, (x,), lambda g: [g * (1.0 - t * t)])


def slice_(x, start, stop):
    """Contiguous slice of a 1-D tensor."""
    if x.data.ndim != 1:
        raise ValueError("slice_: input must be 1-D")

    def backward(g):
        full = np.zeros_like(x.data)
        full[start:stop] = g
        return [full]
    return ad._result("slice_", x.data[start:stop].copy(), (x,), backward)


def add_colvec(m, v):
    """Add a column vector to every column of a 2-D tensor."""
    if m.data.ndim != 2 or v.data.ndim != 1 or m.shape[0] != v.shape[0]:
        raise ValueError(f"add_colvec: incompatible shapes {m.shape} and {v.shape}")
    return ad._result("add_colvec", m.data + v.data[:, None], (m, v),
                      lambda g: [g, g.sum(axis=1)])


def scale(x, k):
    return ad._result("scale", x.data * k, (x,), lambda g: [g * k])


def softmax(logits):
    """Stable softmax over a 1-D logits vector (max subtraction)."""
    if logits.data.ndim != 1:
        raise ValueError("softmax: input must be 1-D")
    e = np.exp(logits.data - logits.data.max())
    s = e / e.sum()
    return ad._result("softmax", s, (logits,), lambda g: [s * (g - np.dot(g, s))])


def _total(x):
    """Sum of every entry as graph ops: a row of ones times the flattened tensor."""
    flat = _reshape(x, (-1,))
    return _reshape(matmul(Tensor(np.ones((1, flat.data.size))), flat), ())


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
    x.grad[...] = 0.0
    out = f(x)
    if out.data.size != 1:
        raise AutodiffError("finite_difference_check requires a scalar-valued function")
    out.backward()
    analytic = x.grad.copy()
    x.grad[...] = 0.0

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


class TestMatmul:
    def test_identity(self):
        a = Tensor(np.eye(2))
        b = Tensor([[1.0, 2.0], [3.0, 4.0]])
        np.testing.assert_array_equal(matmul(a, b).data, [[1, 2], [3, 4]])

    def test_zero_row_selection(self):
        out = matmul(Tensor([[1.0, 0.0]]), Tensor([[0.0], [5.0]]))
        np.testing.assert_array_equal(out.data, [[0.0]])

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3))))

    def test_gradients_vs_finite_differences(self):
        rng = np.random.default_rng(0)
        b = rng.normal(0, 1, (4, 2))
        w = rng.normal(0, 1, (3, 2))
        a = Tensor(rng.normal(0, 1, (3, 4)), requires_grad=True)

        def f(t):
            return ad.mse(matmul(t, Tensor(b)), w)
        assert finite_difference_check(f, a) < 1e-6

    def test_matvec_gradients(self):
        rng = np.random.default_rng(1)
        a = rng.normal(0, 1, (5, 7))
        x = Tensor(rng.normal(0, 1, 7), requires_grad=True)

        def f(t):
            return _total(matmul(Tensor(a), t))
        assert finite_difference_check(f, x) < 1e-8

    def test_vecmat(self):
        out = matmul(Tensor([1.0, 2.0]), Tensor([[1.0, 0.0, 3.0], [0.0, 1.0, 1.0]]))
        np.testing.assert_array_equal(out.data, [1.0, 2.0, 5.0])

    def test_vecmat_gradients(self):
        rng = np.random.default_rng(2)
        x = Tensor(rng.normal(0, 1, 5), requires_grad=True)
        m = Tensor(rng.normal(0, 1, (5, 7)), requires_grad=True)
        w = Tensor(rng.normal(0, 1, 7))

        def f(_):
            return _total(mul(tanh(matmul(x, m)), w))
        assert finite_difference_check(f, x) < 1e-7
        assert finite_difference_check(f, m) < 1e-7

    def test_vector_times_vector_rejected(self):
        with pytest.raises(ValueError):
            matmul(Tensor(np.ones(3)), Tensor(np.ones(3)))
        with pytest.raises(ValueError):
            matmul(Tensor(np.ones(3)), Tensor(np.ones((2, 4))))


class TestSoftmax:
    def test_uniform(self):
        out = softmax(Tensor(np.zeros(4)))
        np.testing.assert_allclose(out.data, 0.25)

    def test_uniform_20000(self):
        out = softmax(Tensor(np.zeros(20000)))
        np.testing.assert_allclose(out.data, 5e-5, atol=1e-18)

    def test_hand_evaluated(self):
        out = softmax(Tensor([math.log(1), math.log(3)]))
        np.testing.assert_allclose(out.data, [0.25, 0.75], atol=1e-12)

    def test_simplex_property(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            s = softmax(Tensor(rng.normal(0, 5, 17))).data
            assert np.all(s >= 0)
            assert abs(s.sum() - 1.0) < 1e-9

    def test_stability_at_large_logits(self):
        s = softmax(Tensor([1000.0, 1000.0])).data
        np.testing.assert_allclose(s, 0.5)


class TestCrossEntropy:
    def test_uniform_loss_and_grad(self):
        logits = Tensor(np.zeros(4), requires_grad=True)
        loss = ad.cross_entropy(logits, 0)
        assert abs(loss.item() - math.log(4)) < 1e-12
        loss.backward()
        np.testing.assert_allclose(logits.grad, [-0.75, 0.25, 0.25, 0.25])

    def test_uniform_20000_nontarget_components(self):
        logits = Tensor(np.zeros(20000), requires_grad=True)
        ad.cross_entropy(logits, 7).backward()
        np.testing.assert_allclose(logits.grad[:7], 5e-5, atol=1e-15)
        np.testing.assert_allclose(logits.grad[8:], 5e-5, atol=1e-15)

    def test_out_of_range_index(self):
        with pytest.raises(IndexError):
            ad.cross_entropy(Tensor(np.zeros(3)), 3)

    def test_gradient_vs_finite_differences(self):
        rng = np.random.default_rng(3)
        x = Tensor(rng.normal(0, 1, 10), requires_grad=True)
        assert finite_difference_check(lambda t: ad.cross_entropy(t, 4), x) < 1e-6

    def test_rows_give_the_mean_of_row_losses(self):
        rng = np.random.default_rng(12)
        rows = Tensor(rng.normal(0, 2, (3, 6)), requires_grad=True)
        labels = [4, 0, 4]
        loss = ad.cross_entropy(rows, labels)
        singles = [ad.cross_entropy(Tensor(r), y).item() for r, y in zip(rows.data, labels)]
        assert loss.item() == pytest.approx(np.mean(singles), rel=1e-15)
        assert finite_difference_check(lambda t: ad.cross_entropy(t, labels), rows) < 1e-6
        with pytest.raises(ValueError):
            ad.cross_entropy(rows, [1, 2])
        with pytest.raises(IndexError):
            ad.cross_entropy(rows, [1, 2, 6])

    def test_gradient_rows_sum_to_zero(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            logits = Tensor(rng.normal(0, 2, 9), requires_grad=True)
            ad.cross_entropy(logits, int(rng.integers(9))).backward()
            assert abs(logits.grad.sum()) < 1e-9


class TestMse:
    def test_zero_residual(self):
        v = np.arange(5.0)
        assert ad.mse(Tensor(v), v).item() == 0.0

    def test_constant_offset(self):
        v = np.arange(5.0)
        c = 0.7
        assert abs(ad.mse(Tensor(v + c), v).item() - c * c) < 1e-12

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            ad.mse(Tensor(np.zeros(3)), np.zeros(4))

    def test_gradient_vs_finite_differences(self):
        rng = np.random.default_rng(5)
        t = rng.normal(0, 1, 16)
        x = Tensor(rng.normal(0, 1, 16), requires_grad=True)
        assert finite_difference_check(lambda p: ad.mse(p, t), x) < 1e-6


class TestElementwise:
    def test_sigmoid_at_zero(self):
        assert sigmoid(Tensor(np.zeros(3))).data[0] == 0.5

    def test_tanh_at_zero(self):
        assert tanh(Tensor(np.zeros(3))).data[0] == 0.0

    def test_concat(self):
        out = ad.concat([Tensor([1.0, 2.0]), Tensor([3.0])])
        np.testing.assert_array_equal(out.data, [1, 2, 3])

    def test_concat_rows_with_a_constant_block(self):
        # the constant array is no graph node and gets no gradient term
        words = np.arange(6.0).reshape(3, 2)
        x = Tensor(np.ones((3, 1)), requires_grad=True)
        out = ad.concat([words, x])
        np.testing.assert_array_equal(out.data, np.hstack([words, np.ones((3, 1))]))
        assert out._parents == (x,)
        _total(mul(out, Tensor(np.arange(9.0).reshape(3, 3)))).backward()
        np.testing.assert_array_equal(x.grad, [[2.0], [5.0], [8.0]])
        with pytest.raises(ValueError):
            ad.concat([words, Tensor(np.ones((2, 1)))])

    def test_concat_gradients(self):
        a = Tensor([1.0, 2.0], requires_grad=True)
        b = Tensor([3.0], requires_grad=True)
        _total(mul(ad.concat([a, b]), Tensor([1.0, 2.0, 3.0]))).backward()
        np.testing.assert_array_equal(a.grad, [1.0, 2.0])
        np.testing.assert_array_equal(b.grad, [3.0])

    def test_slice_gradients(self):
        x = Tensor(np.arange(6.0), requires_grad=True)
        _total(slice_(x, 2, 5)).backward()
        np.testing.assert_array_equal(x.grad, [0, 0, 1, 1, 1, 0])

    @pytest.mark.parametrize("op", [sigmoid, tanh], ids=["sigmoid", "tanh"])
    def test_activation_gradients(self, op):
        rng = np.random.default_rng(6)
        for _ in range(5):
            x = Tensor(rng.normal(0, 2, 8), requires_grad=True)
            assert finite_difference_check(lambda t: _total(op(t)), x) < 1e-7


class TestBackward:
    def test_identity(self):
        x = Tensor(np.asarray(3.0), requires_grad=True)
        x.backward()
        assert x.grad == 1.0

    def test_sum_of_squares(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        _total(mul(x, x)).backward()
        np.testing.assert_array_equal(x.grad, [2.0, 4.0])

    def test_three_layer_mlp_vs_finite_differences(self):
        rng = np.random.default_rng(7)
        w1 = rng.normal(0, 0.5, (6, 4))
        w2 = rng.normal(0, 0.5, (5, 6))
        w3 = rng.normal(0, 0.5, (3, 5))
        x = Tensor(rng.normal(0, 1, 4), requires_grad=True)

        def f(t):
            h1 = tanh(matmul(Tensor(w1), t))
            h2 = sigmoid(matmul(Tensor(w2), h1))
            return ad.mse(matmul(Tensor(w3), h2), np.ones(3))
        assert finite_difference_check(f, x) < 1e-4

    def test_non_scalar_rejected(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(AutodiffError):
            mul(x, x).backward()

    def test_double_backward_rejected(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        loss = _total(x)
        loss.backward()
        with pytest.raises(AutodiffError):
            loss.backward()

    def test_fanout_accumulates(self):
        x = Tensor(np.asarray(2.0), requires_grad=True)
        y = mul(x, x)  # x used twice
        add(y, x).backward()
        assert x.grad == 5.0  # 2x + 1

    def test_deep_chain_no_recursion_limit(self):
        x = Tensor(np.asarray(0.1), requires_grad=True)
        out = x
        for _ in range(5000):
            out = mul(out, Tensor(np.asarray(1.0)))
        out.backward()
        assert x.grad == 1.0

    @pytest.mark.parametrize("consumers", ["one op twice", "two ops"])
    def test_op_result_feeding_two_ops_rejected(self, consumers):
        # the walk hands each op result one gradient; a second consumer
        # would re-walk the whole subgraph below it
        rng = np.random.default_rng(13)
        w = Tensor(rng.normal(0, 1, (3, 2)), requires_grad=True)
        h = ad.linear(Tensor(rng.normal(0, 1, (4, 2))), w, Tensor(np.zeros(3)))
        if consumers == "one op twice":
            out = ad.concat([h, h])
        else:
            out = ad.concat([ad.linear(h, Tensor(np.ones((2, 3))), Tensor(np.zeros(2))), h])
        with pytest.raises(AutodiffError, match="more than one op"):
            ad.mse(out, np.zeros(out.shape)).backward()

    def test_backward_through_an_earlier_walk_rejected(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        y = tanh(x)
        _total(y).backward()
        with pytest.raises(AutodiffError):
            _total(y).backward()

    def test_parameter_feeding_two_ops_gets_both_terms(self):
        rng = np.random.default_rng(14)
        w = Tensor(rng.normal(0, 1, (3, 2)), requires_grad=True)
        b = Tensor(rng.normal(0, 1, 3), requires_grad=True)
        xs = rng.normal(0, 1, (2, 4, 2))
        target = rng.normal(0, 1, (4, 6))

        def build():
            return ad.mse(ad.concat([ad.linear(Tensor(x), w, b) for x in xs]), target)
        oracle, walked = _grads_both_ways(build, [w, b])
        _assert_grads_equal(oracle, walked)
        # d loss / d out is 2 (out - target) / 24, split into each op's rows
        g = np.split(2.0 * (np.hstack([x @ w.data.T + b.data for x in xs]) - target) / 24, 2,
                     axis=1)
        np.testing.assert_allclose(w.grad, g[0].T @ xs[0] + g[1].T @ xs[1], rtol=1e-13)
        np.testing.assert_allclose(b.grad, g[0].sum(axis=0) + g[1].sum(axis=0), rtol=1e-13)


class TestAdam:
    def test_zero_gradient_no_move(self):
        p = Tensor([1.0, -2.0], requires_grad=True)
        opt = AdamState([p])
        opt.step()
        np.testing.assert_array_equal(p.data, [1.0, -2.0])

    def test_constant_gradient_moves_against_sign(self):
        p = Tensor([0.0], requires_grad=True)
        opt = AdamState([p], lr=0.01)
        for _ in range(50):
            p.grad[:] = 3.0
            opt.step()
        assert p.data[0] < 0

    def test_quadratic_loss_decreases(self):
        p = Tensor([5.0], requires_grad=True)
        opt = AdamState([p], lr=0.001)
        losses = []
        for _ in range(100):
            loss = ad.mse(p, np.zeros(1))
            losses.append(loss.item())
            loss.backward()
            opt.step()
        assert all(b < a for a, b in zip(losses, losses[1:]))

    def test_requires_grad_enforced(self):
        with pytest.raises(AutodiffError):
            AdamState([Tensor([1.0])])

    def test_three_steps_match_whole_array_oracle(self, block):
        for scale in (1e-8, 1.0, 1e3):
            _assert_adam_contract(*_adam_both_ways(3, scale))

    @pytest.mark.parametrize("scale", [1e-8, 1e-6, 1.0, 1e3])
    def test_200_steps_match_whole_array_oracle(self, scale):
        # at 1e-8 eps is about half of each denominator, so an eps that
        # misses the bias correction's scale moves every update
        _assert_adam_contract(*_adam_both_ways(200, scale))

    def test_rate_changed_between_steps_matches_oracle(self, block):
        # plateau decay multiplies opt.lr between steps; each step reads it
        lrs = [0.01 * 0.1 ** (t // 4) for t in range(12)]
        _assert_adam_contract(*_adam_both_ways(12, 1.0, lrs))


_ADAM_SHAPES = [((300, 130), np.float32), ((70,), np.float64), ((260, 128), np.float64),
                ((), np.float64), ((5, 3), np.float32), ((40000,), np.float32)]


def _adam_both_ways(steps, scale, lrs=None):
    """``AdamState`` and ``_OracleAdam`` run from the same parameters over
    the same gradients, ``scale`` times standard normal; step t runs at
    rate ``lrs[t]`` (0.01 throughout by default). Also returns the sum of
    the rates, and the oracle's first moment of ``|g|`` in f64."""
    rng = np.random.default_rng(10)
    inits = [rng.normal(0, 1, shape).astype(dt) for shape, dt in _ADAM_SHAPES]
    assert max(a.size for a in inits) > ad._BLOCK
    params = [Tensor(a.copy(), requires_grad=True) for a in inits]
    o_params = [Tensor(a.copy(), requires_grad=True) for a in inits]
    opt, oracle = AdamState(params, lr=0.01), _OracleAdam(o_params, 0.01)
    lrs = [0.01] * steps if lrs is None else lrs
    abs_m = [np.zeros(a.shape) for a in inits]
    b1 = ad.ADAM_BETA_1
    grad_rng = np.random.default_rng(11)
    for lr in lrs:
        opt.lr = oracle.lr = lr
        for p, q, a in zip(params, o_params, abs_m):
            p.grad[...] = scale * grad_rng.normal(0, 1, p.shape)
            q.grad[...] = p.grad
            a *= b1
            a += (1 - b1) * np.abs(p.grad)
        opt.step()
        oracle.step()
    return params, opt, o_params, oracle, sum(lrs), abs_m


def _assert_adam_contract(params, opt, o_params, oracle, lr_sum, abs_m):
    """The folded update is the whole-array one in exact arithmetic; each
    step moves a parameter by about lr at most, so the two stay within
    ``4 eps (|q| + lr t)``. A moment is rounded at most three times a step
    on either side, and an error decays by beta as the moment does, so the
    un-scaled moments agree within ``4 eps t`` times the moment of ``|g|``."""
    b1, b2, t = ad.ADAM_BETA_1, ad.ADAM_BETA_2, oracle.t
    for i, (p, q) in enumerate(zip(params, o_params)):
        assert p.data.dtype == q.data.dtype
        eps = np.finfo(q.data.dtype).eps
        got, want = p.data.astype(np.float64), q.data.astype(np.float64)
        assert np.all(np.abs(got - want) <= 4 * eps * (np.abs(want) + lr_sum)), \
            f"parameter {i} differs"
        assert np.all(np.abs(opt.m[i] * (1 - b1) - oracle.m[i]) <= 4 * eps * t * abs_m[i])
        assert np.all(np.abs(opt.v[i] * (1 - b2) - oracle.v[i]) <= 4 * eps * t * oracle.v[i])
        assert not p.grad.any()


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


def _oracle_backward(root: Tensor) -> None:
    """The walk over any graph, in reverse topological order, with every
    local dense: each node's terms are summed whole, as they arrive, and a
    parameter's sum is added to ``.grad`` when the walk reaches it. An op
    result may feed several ops, as in the per-step oracle of the caption
    graph, which runs on it."""
    grads = {id(root): np.ones_like(root.data)}
    for node in _toposort(root):
        g = grads.pop(id(node), None)
        if g is None:
            continue
        if node.requires_grad:
            node.grad += g
        if node._backward is not None:
            for parent, local in zip(node._parents, node._backward(g)):
                if isinstance(local, ad._Outer):
                    local = local.u.T @ local.v
                key = id(parent)
                if key in grads:
                    grads[key] = grads[key] + local
                else:
                    grads[key] = local


class _OracleAdam:
    """Adam as whole-array expressions, one temporary per operation."""

    def __init__(self, params, lr):
        self.params, self.lr, self.t = params, lr, 0
        self.m = [np.zeros_like(p.data) for p in params]
        self.v = [np.zeros_like(p.data) for p in params]

    def step(self):
        self.t += 1
        b1, b2 = ad.ADAM_BETA_1, ad.ADAM_BETA_2
        for p, m, v in zip(self.params, self.m, self.v):
            g = p.grad
            m *= b1
            m += (1 - b1) * g
            v *= b2
            v += (1 - b2) * g * g
            m_hat = m / (1 - b1 ** self.t)
            v_hat = v / (1 - b2 ** self.t)
            p.data -= self.lr * m_hat / (np.sqrt(v_hat) + ad.ADAM_EPS)
            p.grad[...] = 0.0


def _grads_both_ways(build, params, prior=None):
    """Gradients from the oracle walk and from backward() on one graph,
    each added to ``prior`` (zeros by default)."""
    loss = build()
    out = []
    for walk in (_oracle_backward, Tensor.backward):
        for i, p in enumerate(params):
            p.grad[...] = 0.0 if prior is None else prior[i]
        walk(loss)
        out.append([p.grad.copy() for p in params])
    return out


def _assert_grads_equal(oracle, blocked):
    assert len(oracle) == len(blocked)
    for i, (a, b) in enumerate(zip(oracle, blocked)):
        assert a.dtype == b.dtype and np.array_equal(a, b), f"parameter {i} differs"


@pytest.fixture(params=["default", "tiny"])
def block(request, monkeypatch):
    """The default block, and one smaller than a row, so every parameter
    is summed and updated over many blocks and a ragged last one."""
    if request.param == "tiny":
        monkeypatch.setattr(ad, "_BLOCK", 5)
    return request.param


class TestBlockedGradientSums:
    """backward() forms a parameter's product term one row block at a time;
    where a parameter gets one term, the bits must be the oracle walk's,
    which forms it whole."""

    @pytest.mark.parametrize("head", [REGRESSION, SOFTMAX])
    @pytest.mark.parametrize("precision", ["f64", "f32"])
    def test_depth8_model_every_gradient(self, block, head, precision):
        rng = np.random.default_rng(3)
        vocab = Vocabulary(list(RESERVED) + [f"w{i}" for i in range(300)])
        table = EmbeddingTable(vocab, rng.normal(0, 1, (len(vocab), 16)))
        annots = AnnotationSet(rng.normal(0, 1, (4, 16)), 2, 2)
        model = CaptionModel.init(table, depth=8, hidden=96, annot_dim=16,
                                  attention_k=8, head_kind=head, dropout_rate=0.5,
                                  seed=5, precision=precision)
        params = model.parameters()
        # w_h (384 x 96) and the softmax head (303 x 96) span two default blocks
        assert max(p.data.size for p in params) > ad._BLOCK

        def build():
            return teacher_forced_loss(model, annots, ["w1", "w7", "w1", "w250"],
                                       train_mode=True, rng=np.random.default_rng(9))
        _assert_grads_equal(*_grads_both_ways(build, params))

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_leaf_with_dense_and_rank_one_terms(self, block, dtype):
        rng = np.random.default_rng(4)
        w = Tensor(rng.normal(0, 1, (37, 11)).astype(dtype), requires_grad=True)
        xs = [Tensor(rng.normal(0, 1, 11).astype(dtype)) for _ in range(3)]
        c = Tensor(rng.normal(0, 1, (37, 11)).astype(dtype))

        def build():
            dense = _total(mul(w, c))               # g * c: dense
            outer = [_total(matmul(w, x)) for x in xs]  # g u^T: rank one
            return add(add(outer[0], dense), add(outer[1], outer[2]))
        (oracle,), (walked,) = _grads_both_ways(build, [w])
        # the walk adds the four terms to .grad as they arrive, the oracle
        # sums them first: each order is within 3 roundings of the exact sum
        # of c and the rows x_i
        bound = 4 * np.finfo(dtype).eps * (np.abs(c.data) + sum(np.abs(x.data) for x in xs))
        assert walked.dtype == oracle.dtype == dtype
        assert np.all(np.abs(walked - oracle) <= bound)

    def test_second_backward_adds_to_gradient(self, block):
        model = CaptionModel.init(
            EmbeddingTable(Vocabulary(list(RESERVED) + ["a", "b"]),
                           np.random.default_rng(6).normal(0, 1, (5, 8))),
            depth=2, hidden=12, annot_dim=8, attention_k=4, head_kind=SOFTMAX, seed=1)
        annots = AnnotationSet(np.random.default_rng(7).normal(0, 1, (4, 8)), 2, 2)
        params = model.parameters()
        first = _grads_both_ways(lambda: teacher_forced_loss(model, annots, ["a", "b"]),
                                 params)
        oracle, blocked = _grads_both_ways(
            lambda: teacher_forced_loss(model, annots, ["b", "b", "a"]), params,
            prior=first[0])
        assert not np.array_equal(oracle[0], first[0][0])
        _assert_grads_equal(oracle, blocked)

    def test_constant_leaves_get_no_gradient(self):
        w = Tensor(np.ones((3, 2)))
        x = Tensor(np.ones(2), requires_grad=True)
        _total(matmul(w, x)).backward()
        assert w.grad is None
        np.testing.assert_array_equal(x.grad, [3.0, 3.0])


class TestFiniteDifferenceCheck:
    def test_linear_function_exact(self):
        rng = np.random.default_rng(8)
        x = Tensor(rng.normal(0, 1, 9), requires_grad=True)
        assert finite_difference_check(_total, x) < 1e-10

    def test_non_scalar_function_rejected(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(AutodiffError):
            finite_difference_check(lambda t: mul(t, t), x)

    def test_sampled_components(self):
        rng = np.random.default_rng(9)
        x = Tensor(rng.normal(0, 1, 100), requires_grad=True)
        err = finite_difference_check(lambda t: ad.mse(t, np.zeros(100)),
                                      x, max_components=10, rng=rng)
        assert err < 1e-6


def _param(value):
    return Tensor(value, requires_grad=True)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("op, message", [
    ("lstm", "lstm: non-finite values in a (7, 512) array, largest |x| inf"),
    ("attention", "attention: non-finite values in a (4, 6) array, largest |x| inf"),
    ("linear", "linear: non-finite values in a (3, 2) array, largest |x| inf"),
    ("concat", "concat: non-finite values in a (3,) array, largest |x| inf"),
    ("mse", "mse: non-finite values in a () array, largest |x| inf"),
    ("cross_entropy", "cross_entropy: non-finite values in a () array, largest |x| inf")])
def test_numerical_error_names_the_op(op, message):
    """A forward op whose result, or an array it checks, holds NaN or Inf
    raises a NumericalError naming the op, that array's shape and its
    largest magnitude. Weights of 1e308 times inputs of ones overflow every
    sum of two or more products; concat can only pass on a non-finite
    constant part."""
    huge = np.full((512, 5), 1e308)
    calls = {
        "lstm": lambda: ad.lstm(_param(np.ones((7, 5))), np.zeros(256), _param(huge),
                                _param(np.zeros((512, 128))), _param(np.zeros(512))),
        "attention": lambda: ad.attention(np.ones((5, 6)), np.ones((2, 3)), _param(huge[:4]),
                                          *map(_param, (np.ones((4, 3)), np.ones(4),
                                                        np.ones(4)))),
        "linear": lambda: ad.linear(_param(np.ones((3, 5))), _param(huge[:2]),
                                    _param(np.zeros(2))),
        "concat": lambda: ad.concat([np.array([np.inf]), _param(np.ones(2))]),
        "mse": lambda: ad.mse(_param(np.full(4, 1e200)), np.zeros(4)),
        "cross_entropy": lambda: ad.cross_entropy(_param([1e308, -1e308]), 1)}
    with pytest.raises(ad.NumericalError) as info:
        calls[op]()
    assert str(info.value) == message


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_numerical_error_tells_overflowing_sum_from_non_finite():
    """Finite pre-activations too large to sum still abort, and the message
    says that they are finite: a (7, 512) array of 1e305."""
    with pytest.raises(ad.NumericalError) as info:
        ad.lstm(_param(np.ones((7, 1))), np.zeros(256), _param(np.full((512, 1), 1e305)),
                _param(np.zeros((512, 128))), _param(np.zeros(512)))
    assert str(info.value) == ("lstm: finite values whose sum overflows in a (7, 512) "
                               "array, largest |x| 1e+305")
    nan = np.ones((2, 3))
    nan[1, 2] = np.nan
    with pytest.raises(ad.NumericalError, match=r"non-finite values .* largest \|x\| nan"):
        ad.linear(_param(nan), _param(np.ones((4, 3))), _param(np.zeros(4)))


class TestInvariants:
    def test_all_ops_gradient_correct_20_seeds(self):
        """Every differentiable op stays under 1e-4 at h=1e-5 over 20 seeds."""
        for seed in range(20):
            rng = np.random.default_rng(seed)
            x = Tensor(rng.normal(0, 1, 8), requires_grad=True)
            cases = [
                lambda t: ad.mse(tanh(t), np.zeros(8)),
                lambda t: ad.mse(sigmoid(t), np.ones(8)),
                lambda t: ad.cross_entropy(t, 3),
                lambda t: _total(mul(softmax(t), Tensor(np.arange(8.0)))),
                lambda t: _total(scale(mul(t, t), 1 / 8)),
                lambda t: _total(slice_(ad.concat([t, t]), 3, 12)),
            ]
            for f in cases:
                assert finite_difference_check(f, x, h=1e-5) < 1e-4

    def test_determinism(self):
        def run():
            rng = np.random.default_rng(42)
            x = Tensor(rng.normal(0, 1, 20))
            return softmax(tanh(x)).data.copy()
        np.testing.assert_array_equal(run(), run())

    @given(st.lists(st.floats(-30, 30), min_size=2, max_size=40))
    @settings(max_examples=50, deadline=None)
    def test_softmax_simplex_hypothesis(self, vals):
        s = softmax(Tensor(np.asarray(vals))).data
        assert np.all(s >= 0)
        assert abs(s.sum() - 1.0) < 1e-9


class TestPrecisionModes:
    def test_f32_mode(self):
        assert Tensor(np.ones(2, np.float32)).data.dtype == np.float32
        assert Tensor([1.0]).data.dtype == np.float64
        assert Tensor(np.ones(2, np.float16)).data.dtype == np.float64
        assert Tensor(np.arange(3)).data.dtype == np.float64
        x = Tensor(np.linspace(-1, 1, 8).astype(np.float32), requires_grad=True)
        loss = ad.cross_entropy(tanh(matmul(x, Tensor(np.ones((8, 8), np.float32)))), 2)
        loss.backward()
        assert loss.data.dtype == x.grad.dtype == np.float32

    def test_unknown_mode_rejected(self):
        table = EmbeddingTable(Vocabulary(list(RESERVED)), np.zeros((3, 4)))
        with pytest.raises(ValueError):
            CaptionModel.init(table, depth=1, hidden=4, annot_dim=4,
                              attention_k=2, head_kind="regression",
                              precision="f16")

    def test_no_process_global_state(self):
        src = Path(ad.__file__).parent
        assert not [line for path in src.glob("*.py")
                    for line in path.read_text(encoding="utf-8").splitlines()
                    if line.strip().startswith("global ")]


def _autodiff_calls(path: Path) -> set[str]:
    """Names of ``capreg.autodiff`` functions that a module of the package
    calls, as ``ad.f(...)`` or as ``f(...)`` after ``from .autodiff import f``."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    modules, names = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module is None:
                modules |= {a.asname or a.name for a in node.names if a.name == "autodiff"}
            elif node.module == "autodiff":
                names |= {a.asname or a.name for a in node.names}
    calls = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            f = node.func
            if (isinstance(f, ast.Attribute) and isinstance(f.value, ast.Name)
                    and f.value.id in modules):
                calls.add(f.attr)
            elif isinstance(f, ast.Name) and f.id in names:
                calls.add(f.id)
    return calls


def test_every_public_function_has_a_caller_in_src():
    """No public autodiff function is there for the tests alone; the
    benchmark's tracer also counts each one as a graph op."""
    public = {name for name, fn in vars(ad).items() if inspect.isfunction(fn)
              and fn.__module__ == ad.__name__ and not name.startswith("_")}
    called = set().union(*(_autodiff_calls(path) for path in Path(ad.__file__).parent.glob("*.py")
                           if path.name != "autodiff.py"))
    assert public and not public - called, sorted(public - called)
