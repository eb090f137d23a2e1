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


def _reshape(x, shape):
    """The same values in a new shape, as a graph op of the tests' own."""
    return ad._result(x.data.reshape(shape), (x,), lambda g: [g.reshape(x.data.shape)])


def sigmoid(x):
    """The logistic function as a graph op of the tests' own: the per-op
    LSTM cell and the gradient checks use it; ``ad.lstm`` fuses it."""
    s = ad._sigmoid(x.data)
    return ad._result(s, (x,), lambda g: [g * s * (1.0 - s)])


def _total(x):
    """Sum of every entry as graph ops: a row of ones times the flattened tensor."""
    flat = _reshape(x, (-1,))
    return _reshape(ad.matmul(Tensor(np.ones((1, flat.data.size))), flat), ())


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
        np.testing.assert_array_equal(ad.matmul(a, b).data, [[1, 2], [3, 4]])

    def test_zero_row_selection(self):
        out = ad.matmul(Tensor([[1.0, 0.0]]), Tensor([[0.0], [5.0]]))
        np.testing.assert_array_equal(out.data, [[0.0]])

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            ad.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3))))

    def test_gradients_vs_finite_differences(self):
        rng = np.random.default_rng(0)
        b = rng.normal(0, 1, (4, 2))
        w = rng.normal(0, 1, (3, 2))
        a = Tensor(rng.normal(0, 1, (3, 4)), requires_grad=True)

        def f(t):
            return ad.mse(ad.matmul(t, Tensor(b)), w)
        assert finite_difference_check(f, a) < 1e-6

    def test_matvec_gradients(self):
        rng = np.random.default_rng(1)
        a = rng.normal(0, 1, (5, 7))
        x = Tensor(rng.normal(0, 1, 7), requires_grad=True)

        def f(t):
            return _total(ad.matmul(Tensor(a), t))
        assert finite_difference_check(f, x) < 1e-8

    def test_vecmat(self):
        out = ad.matmul(Tensor([1.0, 2.0]), Tensor([[1.0, 0.0, 3.0], [0.0, 1.0, 1.0]]))
        np.testing.assert_array_equal(out.data, [1.0, 2.0, 5.0])

    def test_vecmat_gradients(self):
        rng = np.random.default_rng(2)
        x = Tensor(rng.normal(0, 1, 5), requires_grad=True)
        m = Tensor(rng.normal(0, 1, (5, 7)), requires_grad=True)
        w = Tensor(rng.normal(0, 1, 7))

        def f(_):
            return _total(ad.mul(ad.tanh(ad.matmul(x, m)), w))
        assert finite_difference_check(f, x) < 1e-7
        assert finite_difference_check(f, m) < 1e-7

    def test_vector_times_vector_rejected(self):
        with pytest.raises(ValueError):
            ad.matmul(Tensor(np.ones(3)), Tensor(np.ones(3)))
        with pytest.raises(ValueError):
            ad.matmul(Tensor(np.ones(3)), Tensor(np.ones((2, 4))))


class TestSoftmax:
    def test_uniform(self):
        out = ad.softmax(Tensor(np.zeros(4)))
        np.testing.assert_allclose(out.data, 0.25)

    def test_uniform_20000(self):
        out = ad.softmax(Tensor(np.zeros(20000)))
        np.testing.assert_allclose(out.data, 5e-5, atol=1e-18)

    def test_hand_evaluated(self):
        out = ad.softmax(Tensor([math.log(1), math.log(3)]))
        np.testing.assert_allclose(out.data, [0.25, 0.75], atol=1e-12)

    def test_simplex_property(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            s = ad.softmax(Tensor(rng.normal(0, 5, 17))).data
            assert np.all(s >= 0)
            assert abs(s.sum() - 1.0) < 1e-9

    def test_stability_at_large_logits(self):
        s = ad.softmax(Tensor([1000.0, 1000.0])).data
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
        assert ad.tanh(Tensor(np.zeros(3))).data[0] == 0.0

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
        _total(ad.mul(out, Tensor(np.arange(9.0).reshape(3, 3)))).backward()
        np.testing.assert_array_equal(x.grad, [[2.0], [5.0], [8.0]])
        with pytest.raises(ValueError):
            ad.concat([words, Tensor(np.ones((2, 1)))])

    def test_concat_gradients(self):
        a = Tensor([1.0, 2.0], requires_grad=True)
        b = Tensor([3.0], requires_grad=True)
        _total(ad.mul(ad.concat([a, b]), Tensor([1.0, 2.0, 3.0]))).backward()
        np.testing.assert_array_equal(a.grad, [1.0, 2.0])
        np.testing.assert_array_equal(b.grad, [3.0])

    def test_slice_gradients(self):
        x = Tensor(np.arange(6.0), requires_grad=True)
        _total(ad.slice_(x, 2, 5)).backward()
        np.testing.assert_array_equal(x.grad, [0, 0, 1, 1, 1, 0])

    @pytest.mark.parametrize("op", [sigmoid, ad.tanh], ids=["sigmoid", "tanh"])
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
        _total(ad.mul(x, x)).backward()
        np.testing.assert_array_equal(x.grad, [2.0, 4.0])

    def test_three_layer_mlp_vs_finite_differences(self):
        rng = np.random.default_rng(7)
        w1 = rng.normal(0, 0.5, (6, 4))
        w2 = rng.normal(0, 0.5, (5, 6))
        w3 = rng.normal(0, 0.5, (3, 5))
        x = Tensor(rng.normal(0, 1, 4), requires_grad=True)

        def f(t):
            h1 = ad.tanh(ad.matmul(Tensor(w1), t))
            h2 = sigmoid(ad.matmul(Tensor(w2), h1))
            return ad.mse(ad.matmul(Tensor(w3), h2), np.ones(3))
        assert finite_difference_check(f, x) < 1e-4

    def test_non_scalar_rejected(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(AutodiffError):
            ad.mul(x, x).backward()

    def test_double_backward_rejected(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        loss = _total(x)
        loss.backward()
        with pytest.raises(AutodiffError):
            loss.backward()

    def test_fanout_accumulates(self):
        x = Tensor(np.asarray(2.0), requires_grad=True)
        y = ad.mul(x, x)  # x used twice
        ad.add(y, x).backward()
        assert x.grad == 5.0  # 2x + 1

    def test_deep_chain_no_recursion_limit(self):
        x = Tensor(np.asarray(0.1), requires_grad=True)
        out = x
        for _ in range(5000):
            out = ad.mul(out, Tensor(np.asarray(1.0)))
        out.backward()
        assert x.grad == 1.0


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
        rng = np.random.default_rng(10)
        shapes = [((300, 130), np.float32), ((70,), np.float64), ((260, 128), np.float64),
                  ((), np.float64), ((5, 3), np.float32), ((40000,), np.float32)]
        inits = [rng.normal(0, 1, shape).astype(dt) for shape, dt in shapes]
        assert max(a.size for a in inits) > ad._BLOCK
        sides = []
        for make in (lambda ps: AdamState(ps, lr=0.01), lambda ps: _OracleAdam(ps, 0.01)):
            params = [Tensor(a.copy(), requires_grad=True) for a in inits]
            opt = make(params)
            grad_rng = np.random.default_rng(11)
            for _ in range(3):
                for p in params:
                    p.grad[...] = grad_rng.normal(0, 1, p.shape)
                opt.step()
            sides.append((params, opt))
        (params, opt), (o_params, oracle) = sides
        for i, (p, q) in enumerate(zip(params, o_params)):
            assert p.data.dtype == q.data.dtype
            assert np.array_equal(p.data, q.data), f"parameter {i} differs"
            assert np.array_equal(opt.m[i], oracle.m[i]) and np.array_equal(opt.v[i], oracle.v[i])
            assert not p.grad.any()


def _oracle_backward(root: Tensor) -> None:
    """The walk with every local dense: each parameter's terms are summed
    whole, as they arrive, then added to ``.grad`` when the walk reaches it."""
    grads = {id(root): np.ones_like(root.data)}
    for node in ad._toposort(root):
        g = grads.pop(id(node), None)
        if g is None:
            continue
        if node.requires_grad:
            node.grad += g
        if node._backward is not None:
            for parent, local in zip(node._parents, node._backward(g)):
                if local is None:
                    continue
                if isinstance(local, ad._Outer):
                    local = local.dense()
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
    """backward() sums each parameter's terms in row blocks when the walk
    reaches it; the bits must be the oracle walk's."""

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

    @pytest.mark.parametrize("dtypes", [(np.float64, np.float64), (np.float32, np.float32),
                                        (np.float32, np.float64)])
    def test_leaf_with_dense_and_rank_one_terms(self, block, dtypes):
        w_dtype, c_dtype = dtypes
        rng = np.random.default_rng(4)
        w = Tensor(rng.normal(0, 1, (37, 11)).astype(w_dtype), requires_grad=True)
        xs = [Tensor(rng.normal(0, 1, 11).astype(w_dtype)) for _ in range(3)]
        c = Tensor(rng.normal(0, 1, (37, 11)).astype(c_dtype))

        def build():
            dense = _total(ad.mul(w, c))               # g * c: dense
            outer = [_total(ad.matmul(w, x)) for x in xs]  # g u^T: rank one
            return ad.add(ad.add(outer[0], dense), ad.add(outer[1], outer[2]))
        _assert_grads_equal(*_grads_both_ways(build, [w]))

    def test_rank_one_term_into_non_leaf(self, block):
        rng = np.random.default_rng(5)
        w = Tensor(rng.normal(0, 1, (9, 13)), requires_grad=True)
        v = Tensor(rng.normal(0, 1, 13), requires_grad=True)

        def build():
            wt = ad.tanh(w)
            return _total(ad.tanh(ad.add(ad.matmul(wt, v), ad.matmul(wt, ad.tanh(v)))))
        _assert_grads_equal(*_grads_both_ways(build, [w, v]))

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
        _total(ad.matmul(w, x)).backward()
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
            finite_difference_check(lambda t: ad.mul(t, t), x)

    def test_sampled_components(self):
        rng = np.random.default_rng(9)
        x = Tensor(rng.normal(0, 1, 100), requires_grad=True)
        err = finite_difference_check(lambda t: ad.mse(t, np.zeros(100)),
                                      x, max_components=10, rng=rng)
        assert err < 1e-6


class TestInvariants:
    def test_all_ops_gradient_correct_20_seeds(self):
        """Every differentiable op stays under 1e-4 at h=1e-5 over 20 seeds."""
        for seed in range(20):
            rng = np.random.default_rng(seed)
            x = Tensor(rng.normal(0, 1, 8), requires_grad=True)
            cases = [
                lambda t: ad.mse(ad.tanh(t), np.zeros(8)),
                lambda t: ad.mse(sigmoid(t), np.ones(8)),
                lambda t: ad.cross_entropy(t, 3),
                lambda t: _total(ad.mul(ad.softmax(t), Tensor(np.arange(8.0)))),
                lambda t: _total(ad.scale(ad.mul(t, t), 1 / 8)),
                lambda t: _total(ad.slice_(ad.concat([t, t]), 3, 12)),
            ]
            for f in cases:
                assert finite_difference_check(f, x, h=1e-5) < 1e-4

    def test_determinism(self):
        def run():
            rng = np.random.default_rng(42)
            x = Tensor(rng.normal(0, 1, 20))
            return ad.softmax(ad.tanh(x)).data.copy()
        np.testing.assert_array_equal(run(), run())

    @given(st.lists(st.floats(-30, 30), min_size=2, max_size=40))
    @settings(max_examples=50, deadline=None)
    def test_softmax_simplex_hypothesis(self, vals):
        s = ad.softmax(Tensor(np.asarray(vals))).data
        assert np.all(s >= 0)
        assert abs(s.sum() - 1.0) < 1e-9


class TestPrecisionModes:
    def test_f32_mode(self):
        assert Tensor(np.ones(2, np.float32)).data.dtype == np.float32
        assert Tensor([1.0]).data.dtype == np.float64
        assert Tensor(np.ones(2, np.float16)).data.dtype == np.float64
        assert Tensor(np.arange(3)).data.dtype == np.float64
        x = Tensor(np.linspace(-1, 1, 8).astype(np.float32), requires_grad=True)
        loss = ad.cross_entropy(ad.tanh(ad.matmul(x, Tensor(np.ones((8, 8), np.float32)))), 2)
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
