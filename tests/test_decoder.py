import hashlib
import math

import numpy as np
import pytest

from capreg import autodiff as ad
from capreg import decoder, harness
from capreg.autodiff import NumericalError, Tensor
from capreg.decoder import (REGRESSION, SOFTMAX, CaptionModel, LSTMLayerParams,
                            greedy_decode, lstm_step, param_count, param_layout, stacked_step,
                            teacher_forced_loss)
from capreg.embedding import END, RESERVED, START, EmbeddingTable, Vocabulary, nearest_word
from capreg.encoder import AnnotationSet
from capreg.harness import DatasetRecord, TrainConfig

from test_autodiff import (_oracle_backward, _sigmoid, _toposort, _total, add, add_colvec, concat,
                           finite_difference_check, matmul, mul, scale, sigmoid, slice_,
                           softmax, tanh)


# ---------------------------------------------------------------------------
# the per-step path: the oracle of the per-caption graph
#
# It builds the graph the decoder built before it batched a caption's steps:
# per step an 8-op attention, the input concat, one fused cell and an h slice
# per layer (times a dropout mask in train mode), the head's matmul and add,
# the step loss and its add into the total. Its fused cell in turn has the
# 17-op cell as its oracle, bit for bit. A step's [h; c] node feeds both the
# next layer and the next step, so its gradients come from the tests' oracle
# walk, ``_oracle_backward``, which sums the terms of any node: backward()
# walks a tree and refuses such a graph.


def named_params(model):
    """(name, parameter) pairs of ``model``, named by its ``param_layout``."""
    layout = param_layout(model.depth, model.hidden, model.embedding.dim,
                          len(model.embedding.vocab), model.annot_dim,
                          model.attention.b_hidden.shape[0], model.head.kind)
    return [(name, p) for (name, _, _), p in zip(layout, model.parameters(), strict=True)]


def lstm_cell(x, state, w_x, w_h, b):
    """One LSTM layer-step as one graph node, from the previous ``[h; c]``
    node ``state`` to the next: the 17-op cell's NumPy expressions in its
    order, and its chain rule term by term."""
    n = state.data.size // 2
    if (x.data.ndim != 1 or state.shape != (2 * n,) or b.shape != (4 * n,)
            or w_h.shape != (4 * n, n) or w_x.shape != (4 * n, x.data.size)):
        raise ValueError("lstm_cell: incompatible shapes")
    h_prev, c_prev = state.data[:n], state.data[n:]
    op = "lstm_cell"
    z = ad._finite(op, ad._finite(op, ad._finite(op, w_x.data @ x.data)
                                  + ad._finite(op, w_h.data @ h_prev)) + b.data)
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
                ad._Outer(dz, x.data), ad._Outer(dz, h_prev), dz]
    return ad._result("lstm_cell", np.concatenate([o * tc, c]), (x, state, w_x, w_h, b), backward)


def lstm_step_ops(x, state, w_x, w_h, b):
    """The LSTM cell built from 17 graph ops, reading ``state`` through two
    ``slice_`` and returning ``concat([h, c])``."""
    n = w_h.shape[1]
    h_prev, c_prev = slice_(state, 0, n), slice_(state, n, 2 * n)
    gates = add(add(matmul(w_x, x), matmul(w_h, h_prev)), b)
    i = sigmoid(slice_(gates, 0, n))
    f = sigmoid(slice_(gates, n, 2 * n))
    o = sigmoid(slice_(gates, 2 * n, 3 * n))
    g = tanh(slice_(gates, 3 * n, 4 * n))
    c = add(mul(f, c_prev), mul(i, g))
    h = mul(o, tanh(c))
    return concat([h, c])


def per_step_attend(h_t, v_prev, params):
    """(context, weights) of one previous word over a (D, L) annotation
    matrix, as 8 graph ops."""
    word_bias = add(matmul(params.w_hidden_word, v_prev), params.b_hidden)
    hidden = tanh(add_colvec(matmul(params.w_hidden_annot, h_t), word_bias))
    alphas = softmax(matmul(params.w_out, hidden))
    return matmul(h_t, alphas), alphas


def per_step_stack(model, v_prev, context, state, cell=lstm_cell, rng=None):
    """One step through the stack: (head output, each layer's ``[h; c]`` node)."""
    n, rate = model.hidden, model.dropout_rate
    x = concat([v_prev, context])
    new_state = []
    for layer, hc in zip(model.layers, state):
        hc = cell(x, hc, layer.w_x, layer.w_h, layer.b)
        x = slice_(hc, 0, n)
        if rng is not None and rate > 0.0:
            mask = (rng.random(n) >= rate) / (1.0 - rate)
            x = mul(x, Tensor(mask.astype(model.dtype)))
        new_state.append(hc)
    return add(matmul(model.head.w, x), model.head.b), new_state


def per_step_loss(model, annotations, caption, train_mode=False, rng=None, cell=lstm_cell):
    """``teacher_forced_loss`` built step by step."""
    seq = [START] + list(caption) + [END]
    vocab = model.embedding.vocab
    h_matrix = Tensor(model.annotation_matrix(annotations))
    state = [Tensor(s) for s in model.zero_state()]
    total = None
    for t in range(1, len(seq)):
        v_prev = Tensor(model.embed_rows([seq[t - 1]])[0])
        context, _ = per_step_attend(h_matrix, v_prev, model.attention)
        out, state = per_step_stack(model, v_prev, context, state, cell,
                                    rng if train_mode else None)
        if model.head.kind == REGRESSION:
            step_loss = ad.mse(out, model.embed_rows([seq[t]])[0])
        else:
            step_loss = ad.cross_entropy(out, vocab.encode(seq[t]))
        total = step_loss if total is None else add(total, step_loss)
    return scale(total, 1.0 / (len(seq) - 1))


def per_step_decode(model, annotations, max_len, cell=lstm_cell):
    """``greedy_decode`` built step by step."""
    vocab = model.embedding.vocab
    h_matrix = Tensor(model.annotation_matrix(annotations))
    state = [Tensor(s) for s in model.zero_state()]
    word, tokens = START, []
    for _ in range(max_len):
        v_prev = Tensor(model.embed_rows([word])[0])
        context, _ = per_step_attend(h_matrix, v_prev, model.attention)
        out, state = per_step_stack(model, v_prev, context, state, cell)
        if model.head.kind == REGRESSION:
            word = nearest_word(out.data, model.embedding)
        else:
            word = vocab.decode(1 + int(np.argmax(out.data[1:])))
        if word == END:
            break
        tokens.append(word)
    return tokens


def _table(num_words=12, d=8, seed=0):
    rng = np.random.default_rng(seed)
    vocab = Vocabulary(list(RESERVED) + [f"w{i}" for i in range(num_words)])
    return EmbeddingTable(vocab, rng.normal(0, 1, (len(vocab), d)))


def _annots(count=4, dim=8, seed=1):
    rng = np.random.default_rng(seed)
    return AnnotationSet(rng.normal(0, 1, (count, dim)), 2, count // 2)


def _model(depth=2, hidden=16, d=8, annot_dim=8, k=8, head=REGRESSION,
           seed=0, dropout=0.0, table=None):
    table = table or _table(d=d, seed=seed)
    return CaptionModel.init(table, depth=depth, hidden=hidden,
                             annot_dim=annot_dim, attention_k=k,
                             head_kind=head, dropout_rate=dropout, seed=seed)


def _state(h, c):
    return np.concatenate([h, c])


def _layer(input_dim, hidden, rng):
    """One layer's weights, drawn as ``CaptionModel.init`` draws them."""
    return LSTMLayerParams(
        w_x=Tensor(ad.xavier_uniform(rng, input_dim, hidden, (4 * hidden, input_dim))),
        w_h=Tensor(ad.xavier_uniform(rng, hidden, hidden, (4 * hidden, hidden))),
        b=Tensor(np.repeat([0.0, 1.0, 0.0, 0.0], hidden)))


class TestLstmStep:
    def test_zero_weights_zero_state(self):
        params = LSTMLayerParams(
            w_x=Tensor(np.zeros((16, 3))),
            w_h=Tensor(np.zeros((16, 4))),
            b=Tensor(np.zeros(16)))
        h, _ = lstm_step(Tensor(np.ones((2, 3))), np.zeros(8), params)
        np.testing.assert_array_equal(h.data, 0.0)

    def test_hidden_is_the_width_of_w_h(self):
        params = LSTMLayerParams(
            w_x=Tensor(np.zeros((12, 3))),
            w_h=Tensor(np.zeros((12, 3))),
            b=Tensor(np.zeros(12)))
        assert params.hidden == 3
        with pytest.raises(AttributeError):
            params.hidden = 4

    def test_saturated_forget_gate_preserves_cell(self):
        hidden = 4
        b = np.full(4 * hidden, -50.0)       # shut input/output/candidate
        b[hidden:2 * hidden] = 50.0          # saturate the forget gate
        params = LSTMLayerParams(
            w_x=Tensor(np.zeros((16, 3))),
            w_h=Tensor(np.zeros((16, 4))),
            b=Tensor(b))
        c0 = np.array([1.0, -2.0, 3.0, 0.5])
        _, hc = lstm_step(Tensor(np.ones((5, 3))), _state(np.zeros(4), c0), params)
        np.testing.assert_allclose(hc[hidden:], c0, atol=1e-12)

    def test_matches_hand_rolled_lstm(self):
        # three steps from a nonzero state, against the cell's textbook form
        rng = np.random.default_rng(2)
        hidden, inp = 5, 3
        params = _layer(inp, hidden, rng)
        xs = rng.normal(0, 1, (3, inp))
        h_ref, c_ref = rng.normal(0, 1, hidden), rng.normal(0, 1, hidden)
        hs, hc = lstm_step(Tensor(xs), _state(h_ref, c_ref), params)

        def sig(z):
            return 1 / (1 + np.exp(-z))
        for t, x in enumerate(xs):
            gates = params.w_x.data @ x + params.w_h.data @ h_ref + params.b.data
            i, f, o, g = (gates[k * hidden:(k + 1) * hidden] for k in range(4))
            c_ref = sig(f) * c_ref + sig(i) * np.tanh(g)
            h_ref = sig(o) * np.tanh(c_ref)
            np.testing.assert_allclose(hs.data[t], h_ref, atol=1e-12)
        np.testing.assert_allclose(hc[hidden:], c_ref, atol=1e-12)
        np.testing.assert_array_equal(hc[:hidden], hs.data[-1])

    def test_one_call_equals_steps_carrying_the_state(self):
        # decoding runs the op one row at a time; training runs all rows
        rng = np.random.default_rng(3)
        params = _layer(3, 5, rng)
        xs, state = rng.normal(0, 1, (4, 3)), rng.normal(0, 1, 10)
        whole, last = lstm_step(Tensor(xs), state, params)
        for t in range(4):
            row, state = lstm_step(Tensor(xs[t:t + 1]), state, params)
            np.testing.assert_allclose(row.data[0], whole.data[t], rtol=1e-13, atol=1e-15)
        np.testing.assert_allclose(state, last, rtol=1e-13, atol=1e-15)

    def test_mask_scales_the_output_not_the_recurrence(self):
        rng = np.random.default_rng(4)
        params = _layer(3, 5, rng)
        xs = Tensor(rng.normal(0, 1, (4, 3)))
        mask = (rng.random((4, 5)) >= 0.5) * 2.0
        plain, last = lstm_step(xs, np.zeros(10), params)
        masked, masked_last = lstm_step(xs, np.zeros(10), params, mask)
        np.testing.assert_array_equal(masked.data, plain.data * mask)
        np.testing.assert_array_equal(masked_last, last)


class TestFusedCell:
    """The oracle's fused cell against the 17-op cell: equal bits, not a
    tolerance."""

    CAPTION = ["w1", "w5", "w2", "w7", "w0", "w3"]

    @staticmethod
    def _run(cell, head, precision):
        model = CaptionModel.init(_table(), depth=8, hidden=16, annot_dim=8,
                                  attention_k=8, head_kind=head, dropout_rate=0.5,
                                  seed=16, precision=precision)
        loss = per_step_loss(model, _annots(seed=16), TestFusedCell.CAPTION,
                             train_mode=True, rng=np.random.default_rng(16), cell=cell)
        _oracle_backward(loss)
        # an untrained regression head's outputs all lie nearest one word;
        # scaled up, they spread over the table
        model.head.w.data *= 30.0
        tokens = [per_step_decode(model, _annots(seed=s), 8, cell) for s in range(5)]
        return loss.data, [p.gradient() for p in model.parameters()], tokens

    @pytest.mark.parametrize("precision", ["f64", "f32"])
    @pytest.mark.parametrize("head", [REGRESSION, SOFTMAX])
    def test_depth8_bit_identical_to_per_op_cell(self, head, precision):
        loss, grads, tokens = self._run(lstm_cell, head, precision)
        ref_loss, ref_grads, ref_tokens = self._run(lstm_step_ops, head, precision)
        assert np.array_equal(loss, ref_loss)
        assert len(grads) == len(ref_grads)
        for g, ref in zip(grads, ref_grads):
            assert g.dtype == ref.dtype
            assert np.array_equal(g, ref)
        assert any(np.any(g != 0) for g in grads)
        assert tokens == ref_tokens

    @pytest.mark.parametrize("which", range(5))
    def test_gradients_vs_finite_differences(self, which):
        rng = np.random.default_rng(17 + which)
        hidden, inp = 5, 3
        args = [rng.normal(0, 1, inp), rng.normal(0, 1, 2 * hidden),
                rng.normal(0, 0.7, (4 * hidden, inp)), rng.normal(0, 0.7, (4 * hidden, hidden)),
                rng.normal(0, 0.5, 4 * hidden)]
        tensors = [Tensor(a) for a in args]
        weights = Tensor(rng.normal(0, 1, 2 * hidden))  # weighs both h and c

        def f(t):
            parts = tensors[:which] + [t] + tensors[which + 1:]
            return _total(mul(lstm_cell(*parts), weights))
        assert finite_difference_check(f, tensors[which]) < 1e-6

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    @pytest.mark.parametrize("step", [
        lambda x, params: lstm_step(Tensor(x[None]), np.zeros(8), params),
        lambda x, params: lstm_step_ops(Tensor(x), Tensor(np.zeros(8)), *params.tensors()),
    ], ids=["lstm_step", "lstm_step_ops"])
    def test_huge_input_weights_raise(self, step):
        params = _layer(3, 4, np.random.default_rng(18))
        params.w_x.data[...] = 1e308
        with pytest.raises(NumericalError):
            step(np.ones(3), params)

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_huge_recurrent_weights_raise(self):
        # the overflow is in w_h h, after the first step; the sigmoid and
        # tanh would saturate it into finite values
        params = _layer(3, 4, np.random.default_rng(18))
        params.w_h.data[...] = 1e308
        with pytest.raises(NumericalError):
            lstm_step(Tensor(np.ones((3, 3))), np.zeros(8), params)

    def test_shape_mismatch(self):
        params = _layer(3, 4, np.random.default_rng(19))
        with pytest.raises(ValueError):
            lstm_step(Tensor(np.ones((2, 5))), np.zeros(8), params)
        with pytest.raises(ValueError):
            lstm_step(Tensor(np.ones((2, 3))), np.zeros(6), params)
        with pytest.raises(ValueError):
            lstm_step(Tensor(np.ones(3)), np.zeros(8), params)
        with pytest.raises(ValueError):
            lstm_step(Tensor(np.ones((2, 3))), np.zeros(8), params, np.ones((3, 4)))


class TestStackedStep:
    def test_dropout_disabled_train_eq_eval(self):
        model = _model(dropout=0.0)
        rng = np.random.default_rng(3)
        x = Tensor(rng.normal(0, 1, (3, 16)))
        out_train, _ = stacked_step(model, x, model.zero_state(), train_mode=True,
                                    rng=np.random.default_rng(0))
        out_eval, _ = stacked_step(model, x, model.zero_state(), train_mode=False)
        np.testing.assert_array_equal(out_train.data, out_eval.data)

    def test_dropout_mask_scales_hidden(self):
        # inverted dropout: the head sees h * (u >= rate) / (1 - rate), with
        # the masks drawn step-major, layer-minor
        model = _model(depth=1, dropout=0.25)
        rng = np.random.default_rng(4)
        x = rng.normal(0, 1, (2, 16))
        out, _ = stacked_step(model, Tensor(x), model.zero_state(),
                              train_mode=True, rng=np.random.default_rng(0))
        h, _ = lstm_step(Tensor(x), np.zeros(32), model.layers[0])
        draws = np.random.default_rng(0)
        mask = np.stack([draws.random(16) for _ in range(2)]) >= 0.25
        assert 0 < np.count_nonzero(mask) < 32
        expected = (h.data * mask / 0.75) @ model.head.w.data.T + model.head.b.data
        np.testing.assert_allclose(out.data, expected, atol=1e-12)

    def test_depth_one_reduces_to_lstm_step_plus_head(self):
        model = _model(depth=1)
        rng = np.random.default_rng(5)
        x = rng.normal(0, 1, (3, 16))
        out, _ = stacked_step(model, Tensor(x), model.zero_state())
        h, _ = lstm_step(Tensor(x), np.zeros(32), model.layers[0])
        expected = h.data @ model.head.w.data.T + model.head.b.data
        np.testing.assert_allclose(out.data, expected, atol=1e-12)

    def test_state_depth_mismatch(self):
        model = _model(depth=2)
        with pytest.raises(ValueError):
            stacked_step(model, Tensor(np.zeros((1, 16))), model.zero_state()[:1])


class TestTeacherForcedLoss:
    def test_forced_head_output_gives_zero_loss(self):
        table = _table(d=4, seed=6)
        model = _model(d=4, annot_dim=4, table=table, seed=6)
        # zero the trunk-to-head map and plant each target in the head bias:
        # with a one-word caption the bias is the whole output
        model.head.w.data[...] = 0.0
        w3 = table.vectors[table.vocab.encode("w3")]
        model.head.b.data[...] = w3
        loss = teacher_forced_loss(model, _annots(dim=4), ["w3"])
        # the first step's loss is exactly zero; the second regresses <end>.
        # The loss sums the 2 x d squares in another order than the mean of
        # the second row does: equal to round-off
        end_loss = ad.mse(Tensor(w3), table.vectors[table.vocab.encode(END)]).item()
        assert end_loss > 0
        assert loss.item() == pytest.approx(end_loss * 0.5, rel=1e-15)

    def test_zero_loss_iff_exact_match(self):
        # <end> shares w3's row, so one head output matches both steps
        base = _table(d=4, seed=6)
        shared = base.vectors[base.vocab.encode("w3")]
        vectors = base.vectors.copy()
        vectors[base.vocab.encode("<end>")] = shared
        table = EmbeddingTable(base.vocab, vectors)
        model = _model(d=4, annot_dim=4, table=table, seed=6)
        model.head.w.data[...] = 0.0
        model.head.b.data[...] = shared
        loss = teacher_forced_loss(model, _annots(dim=4), ["w3"])
        assert loss.item() == 0.0

    def test_empty_caption_rejected(self):
        with pytest.raises(ValueError):
            teacher_forced_loss(_model(), _annots(), [])

    def test_one_word_caption_is_mean_of_two_steps(self):
        # caption [w] scores two steps: <start>->w and w-><end>; run one
        # step at a time, carrying the state, as decoding does
        model = _model(seed=7)
        loss = teacher_forced_loss(model, _annots(), ["w1"])
        annots = model.annotation_matrix(_annots())
        state = model.zero_state()
        steps = []
        for prev, target in ((START, "w1"), ("w1", END)):
            inputs, _ = ad.attention(annots, model.embed_rows([prev]),
                                     *model.attention.tensors())
            out, state = stacked_step(model, inputs, state)
            steps.append(ad.mse(out, model.embed_rows([target])).item())
        assert steps[0] != steps[1]
        assert loss.item() == (steps[0] + steps[1]) * 0.5

    def test_loss_nonnegative(self):
        rng = np.random.default_rng(8)
        for seed in range(5):
            model = _model(seed=seed)
            cap = [f"w{rng.integers(12)}" for _ in range(4)]
            assert teacher_forced_loss(model, _annots(seed=seed), cap).item() >= 0

    @pytest.mark.parametrize("head", [REGRESSION, SOFTMAX])
    def test_gradients_vs_finite_differences(self, head):
        model = _model(depth=2, hidden=8, d=6, annot_dim=6, k=4, head=head, seed=9)
        annots = _annots(dim=6, seed=9)
        cap = ["w1", "w5", "w2"]
        rng = np.random.default_rng(9)

        def f(_):
            return teacher_forced_loss(model, annots, cap)
        for name, param in named_params(model):
            err = finite_difference_check(f, param, max_components=10, rng=rng)
            assert err < 1e-4, name

    @pytest.mark.parametrize("head", [REGRESSION, SOFTMAX])
    def test_f32_model_stays_f32(self, head):
        model = CaptionModel.init(_table(), depth=2, hidden=16, annot_dim=8,
                                  attention_k=8, head_kind=head, dropout_rate=0.5,
                                  precision="f32")
        assert {p.data.dtype for p in model.parameters()} == {np.dtype(np.float32)}
        loss = teacher_forced_loss(model, _annots(), ["w1", "w2"], train_mode=True,
                                   rng=np.random.default_rng(0))
        loss.backward()
        assert loss.data.dtype == np.float32
        assert {p.gradient().dtype for p in model.parameters()} == {np.dtype(np.float32)}
        assert greedy_decode(model, _annots(), max_len=3) is not None

    def test_determinism(self):
        def run():
            model = _model(seed=10, dropout=0.5)
            rng = np.random.default_rng(10)
            return teacher_forced_loss(model, _annots(seed=10), ["w1", "w2"],
                                       train_mode=True, rng=rng).item()
        assert run() == run()


def _ops(loss):
    return [node for node in _toposort(loss) if node._backward is not None]


class TestGraphSize:
    @pytest.mark.parametrize("head", [REGRESSION, SOFTMAX])
    @pytest.mark.parametrize("dropout", [0.0, 0.5])
    def test_depth8_caption_builds_11_ops(self, head, dropout):
        # one attention op, which returns layer 0's [word; context] rows, one
        # op per layer, the head and the loss, whatever the caption's length
        model = _model(depth=8, head=head, dropout=dropout)
        for caption in (["w1"], ["w1", "w5", "w2", "w7"], ["w3"] * 12):
            loss = teacher_forced_loss(model, _annots(), caption, train_mode=True,
                                       rng=np.random.default_rng(0))
            assert len(_ops(loss)) == 11

    def test_depth8_decoded_token_builds_10_ops(self):
        # a greedy step: the attention op, one op per layer and the head
        model = _model(depth=8)
        inputs, _ = ad.attention(model.annotation_matrix(_annots()), model.embed_rows([START]),
                                 *model.attention.tensors())
        out, _ = stacked_step(model, inputs, model.zero_state())
        assert len(_ops(out)) == 10


def _terms_sent(loss, params, walk=Tensor.backward):
    """(gradient terms the walk sends, those sent to leaves other than
    ``params``) when ``walk`` runs from ``loss``."""
    params = {id(p) for p in params}
    sent = [0, 0]
    for node in _ops(loss):
        def counted(g, node=node, local_terms=node._backward):
            terms = local_terms(g)
            for parent, term in zip(node._parents, terms):
                if term is not None:
                    sent[0] += 1
                    sent[1] += parent._backward is None and id(parent) not in params
            return terms
        node._backward = counted
    walk(loss)
    return tuple(sent)


def _relative_error(values, reference):
    """max |values - reference| over max |reference|."""
    scale = np.max(np.abs(reference))
    return float(np.max(np.abs(np.asarray(values, np.float64) - reference)) / scale)


# f64 and f32 bounds on the per-caption graph's departure from the per-step
# oracle: the batched products round differently, nothing else differs
TOLERANCE = {"f64": 1e-12, "f32": 1e-4}


class TestPerCaptionContract:
    """The per-caption graph against the per-step oracle, at depth 8."""

    CAPTION = TestFusedCell.CAPTION

    @staticmethod
    def _grads(build, model, walk=Tensor.backward):
        loss = build()
        walk(loss)
        grads = [p.gradient() for p in model.parameters()]
        for p in model.parameters():
            p.terms.clear()
        return loss.item(), grads

    @pytest.mark.parametrize("precision", ["f64", "f32"])
    @pytest.mark.parametrize("dropout", [0.0, 0.5])
    @pytest.mark.parametrize("head,words", [(REGRESSION, 150), (SOFTMAX, 150),
                                            (SOFTMAX, 20000)])
    def test_depth8_gradients_match_per_step_oracle(self, head, words, dropout, precision):
        model = CaptionModel.init(_table(num_words=words), depth=8, hidden=16, annot_dim=8,
                                  attention_k=8, head_kind=head, dropout_rate=dropout,
                                  seed=16, precision=precision)
        annots = _annots(seed=16)
        loss, grads = self._grads(lambda: teacher_forced_loss(
            model, annots, self.CAPTION, train_mode=True, rng=np.random.default_rng(5)), model)
        ref_loss, ref_grads = self._grads(lambda: per_step_loss(
            model, annots, self.CAPTION, train_mode=True, rng=np.random.default_rng(5)), model,
            _oracle_backward)
        tol = TOLERANCE[precision]
        assert abs(loss - ref_loss) <= tol * abs(ref_loss)
        for (name, _), g, ref in zip(named_params(model), grads, ref_grads):
            assert g.dtype == ref.dtype
            assert np.any(ref != 0), name
            assert _relative_error(g, ref) <= tol, name

    @pytest.mark.parametrize("precision", ["f64", "f32"])
    @pytest.mark.parametrize("dropout", [0.0, 0.5])
    @pytest.mark.parametrize("head", [REGRESSION, SOFTMAX])
    def test_five_epoch_losses_match_per_step_oracle(self, monkeypatch, head, dropout,
                                                      precision):
        rng = np.random.default_rng(21)
        records = [DatasetRecord(f"img{i}", None,
                                 [[f"w{j}" for j in rng.integers(12, size=3 + i % 3)]],
                                 annotations=_annots(seed=30 + i)) for i in range(4)]
        config = TrainConfig(depth=8, hidden=16, annot_dim=8, attention_k=8, head_kind=head,
                             dropout_rate=dropout, epochs=5, lr=0.01, seed=3,
                             precision=precision)
        _, log = harness.train(config, records, _table())
        monkeypatch.setattr(harness, "teacher_forced_loss", per_step_loss)
        monkeypatch.setattr(Tensor, "backward", _oracle_backward)
        _, ref_log = harness.train(config, records, _table())
        losses = [row["loss"] for row in log.epochs]
        ref_losses = [row["loss"] for row in ref_log.epochs]
        assert len(losses) == 5 and ref_losses[-1] < ref_losses[0]
        bound = 1e-9 if precision == "f64" else TOLERANCE["f32"]
        for got, ref in zip(losses, ref_losses):
            assert abs(got - ref) <= bound * abs(ref)

    @pytest.mark.parametrize("precision", ["f64", "f32"])
    @pytest.mark.parametrize("head", [REGRESSION, SOFTMAX])
    def test_decoded_tokens_match_per_step_oracle(self, head, precision):
        model = CaptionModel.init(_table(), depth=8, hidden=16, annot_dim=8, attention_k=8,
                                  head_kind=head, seed=16, precision=precision)
        model.head.w.data *= 30.0  # spread the untrained outputs over the table
        decoded = [greedy_decode(model, _annots(seed=s), max_len=8) for s in range(10)]
        assert len({tuple(t) for t in decoded}) > 1
        assert decoded == [per_step_decode(model, _annots(seed=s), 8) for s in range(10)]

    @pytest.mark.parametrize("dropout", [0.0, 0.5])
    def test_no_gradient_terms_for_constants(self, dropout):
        # a 6-word depth-8 sample: the per-step graph sends terms to its
        # zero states, word vectors, annotation matrix and dropout masks;
        # the per-caption ops take those as arrays and form no term for them
        model = _model(depth=8, dropout=dropout)
        params = model.parameters()
        sent = _terms_sent(teacher_forced_loss(model, _annots(), self.CAPTION, train_mode=True,
                                               rng=np.random.default_rng(0)), params)
        ref_sent = _terms_sent(per_step_loss(model, _annots(), self.CAPTION, train_mode=True,
                                             rng=np.random.default_rng(0)), params,
                               _oracle_backward)
        assert ref_sent[1] > 0
        assert sent[1] == 0
        # one per parameter, and one into each op's input: the loss's, the
        # head's and each layer's (layer 0's is the attention's rows)
        assert sent[0] == len(model.parameters()) + model.depth + 2


class TestGradientReach:
    def test_depth8_layer0_gradient_nonzero(self):
        model = _model(depth=8, hidden=12, d=6, annot_dim=6, k=4, seed=15)
        annots = _annots(dim=6, seed=15)
        loss = teacher_forced_loss(model, annots, ["w1", "w2", "w3", "w4"])
        loss.backward()
        norms = [float(np.linalg.norm(layer.w_x.gradient())) for layer in model.layers]
        assert norms[0] > 0
        # profile is reported for comparison with the softmax head
        soft = _model(depth=8, hidden=12, d=6, annot_dim=6, k=4,
                      head=SOFTMAX, seed=15)
        loss = teacher_forced_loss(soft, annots, ["w1", "w2", "w3", "w4"])
        loss.backward()
        soft_norms = [float(np.linalg.norm(layer.w_x.gradient())) for layer in soft.layers]
        assert len(soft_norms) == len(norms) == 8


class TestGreedyDecode:
    def test_max_len_one(self):
        model = _model(seed=11)
        tokens = greedy_decode(model, _annots(seed=11), max_len=1)
        assert len(tokens) <= 1

    def test_max_len_validated(self):
        with pytest.raises(ValueError):
            greedy_decode(_model(), _annots(), max_len=0)

    def test_deterministic(self):
        model = _model(seed=12)
        annots = _annots(seed=12)
        assert greedy_decode(model, annots, 8) == greedy_decode(model, annots, 8)

    def test_softmax_head_decodes(self):
        model = _model(head=SOFTMAX, seed=13)
        tokens = greedy_decode(model, _annots(seed=13), max_len=5)
        assert all(t in model.embedding.vocab for t in tokens)

    def test_regression_head_never_emits_start(self):
        # untrained, this model's outputs all lie nearest <start>'s row
        model = CaptionModel.init(_table(), depth=8, hidden=16, annot_dim=8,
                                  attention_k=8, head_kind=REGRESSION, seed=16)
        for s in range(5):
            tokens = greedy_decode(model, _annots(seed=s), max_len=8)
            assert tokens and START not in tokens

    def test_softmax_head_never_emits_start(self):
        model = _model(head=SOFTMAX, seed=13)
        model.head.b.data[0] = 1e3  # <start>'s logit dominates every step
        tokens = greedy_decode(model, _annots(seed=13), max_len=5)
        assert tokens and START not in tokens

    def test_attention_trace_shape(self):
        model = _model(seed=14)
        tokens, trace = greedy_decode(model, _annots(seed=14), max_len=6,
                                      return_attention=True)
        assert len(trace) >= max(1, len(tokens))
        for alphas in trace:
            assert alphas.shape == (4,)
            assert abs(alphas.sum() - 1.0) < 1e-6


class TestParamCount:
    def test_minimal_hand_enumeration(self):
        # depth 1, every dimension 1; layer0 input = d + D = 2
        # lstm: 4*(1*2 + 1*1 + 1) = 16
        # attention: k*D + k*d + b1 + w_out = 1+1+1+1 = 4
        # regression head: 1*1 + 1 = 2
        assert param_count(1, 1, 1, 1, 1, 1, REGRESSION) == 22

    def test_count_matches_actual_tensors(self):
        for head in (REGRESSION, SOFTMAX):
            model = _model(depth=3, hidden=16, d=8, annot_dim=8, k=8, head=head)
            actual = sum(p.data.size for p in model.parameters())
            assert param_count(3, 16, 8, len(model.embedding.vocab), 8, 8,
                               head) == actual

    def test_regression_head_smaller_with_exact_gap(self):
        hidden, d, vocab = 32, 8, 100
        for depth in (1, 2, 5, 8, 10):
            reg = param_count(depth, hidden, d, vocab, 16, 8, REGRESSION)
            soft = param_count(depth, hidden, d, vocab, 16, 8, SOFTMAX)
            assert reg < soft
            assert soft - reg == (hidden + 1) * (vocab - d)

    def test_depth_additivity(self):
        for depth in (1, 2, 5):
            a = param_count(depth, 16, 8, 50, 8, 8, REGRESSION)
            b = param_count(depth + 1, 16, 8, 50, 8, 8, REGRESSION)
            layer_block = 4 * (16 * 16 + 16 * 16 + 16)
            assert b - a == layer_block

    def test_positive_dimensions_required(self):
        with pytest.raises(ValueError):
            param_count(0, 16, 8, 50, 8, 8, REGRESSION)

    def test_huge_depth_counted_at_once(self, monkeypatch):
        # a checkpoint header or ``param-report --depths`` may name this
        # depth: enumerating its layers would never end, so the spy fails
        # the test instead of letting it hang
        def spy(depth, *args):
            assert depth <= 2, f"a layout of {depth} layers was enumerated"
            return param_layout(depth, *args)
        monkeypatch.setattr(decoder, "param_layout", spy)
        layer_block = 4 * (16 * 16 + 16 * 16 + 16)
        huge = param_count(2**40, 16, 8, 50, 8, 8, REGRESSION)
        assert huge == param_count(2, 16, 8, 50, 8, 8, REGRESSION) + (2**40 - 2) * layer_block


class TestParamLayout:
    @pytest.mark.parametrize("precision", ["f64", "f32"])
    @pytest.mark.parametrize("head", [REGRESSION, SOFTMAX])
    @pytest.mark.parametrize("depth", [1, 2, 3, 8])
    def test_init_builds_and_count_sums_the_layout(self, depth, head, precision):
        model = CaptionModel.init(_table(), depth=depth, hidden=6, annot_dim=5, attention_k=4,
                                  head_kind=head, precision=precision)
        layout = param_layout(depth, 6, 8, len(model.embedding.vocab), 5, 4, head)
        assert [(name, p.shape) for name, p in named_params(model)] == [
            (name, shape) for name, shape, _ in layout]
        assert {p.data.dtype for p in model.parameters()} == {np.dtype(ad.PRECISIONS[precision])}
        assert param_count(depth, 6, 8, len(model.embedding.vocab), 5, 4, head) == sum(
            math.prod(shape) for _, shape, _ in layout)

    # sha256 of a seed-0 model's parameter bytes in parameters() order: a seed
    # keeps its weights, so a reordered or changed draw fails
    @pytest.mark.parametrize("head, precision, digest", [
        (REGRESSION, "f64", "92d897ac035a06bac1fdac4c91d64542d3dab728c276d2da7187acbec57656e7"),
        (REGRESSION, "f32", "ef6da4811e50c810a206170f1f83eb1cc99b11d8a11b16d71a923dcd625a9790"),
        (SOFTMAX, "f64", "0b1704570702b7df0b2ccb5cf9e13868bb0ac944db30b01a3cc8143c56d97440"),
        (SOFTMAX, "f32", "5dd5a1ef5a06468872a49d458830b6d1efc6ac6b63502dd84af0098a0f41cced")])
    def test_seed0_weights_pinned(self, head, precision, digest):
        model = CaptionModel.init(_table(), depth=3, hidden=6, annot_dim=5, attention_k=4,
                                  head_kind=head, seed=0, precision=precision)
        blob = b"".join(p.data.tobytes() for p in model.parameters())
        assert hashlib.sha256(blob).hexdigest() == digest
        forget = model.layers[1].b.data.reshape(4, 6)
        assert np.all(forget[1] == 1.0) and np.all(forget[[0, 2, 3]] == 0.0)

    def test_unknown_head_kind_refused(self):
        with pytest.raises(ValueError, match="unknown head kind 'beam'"):
            param_layout(1, 4, 4, 10, 4, 4, "beam")
        with pytest.raises(ValueError, match="unknown head kind 'beam'"):
            CaptionModel.init(_table(), depth=1, hidden=4, annot_dim=4, attention_k=4,
                              head_kind="beam")
