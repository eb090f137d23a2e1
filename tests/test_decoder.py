import numpy as np
import pytest

from capreg import autodiff as ad
from capreg import decoder
from capreg.autodiff import NumericalError, Tensor
from capreg.decoder import (REGRESSION, SOFTMAX, CaptionModel, LSTMLayerParams,
                            greedy_decode, lstm_step, param_count, stacked_step,
                            teacher_forced_loss)
from capreg.attention import attend_matrix
from capreg.embedding import END, RESERVED, START, EmbeddingTable, Vocabulary
from capreg.encoder import AnnotationSet

from test_autodiff import _total, finite_difference_check


# ---------------------------------------------------------------------------
# per-op reference for the fused cell


def lstm_step_ops(x, state, params):
    """The LSTM cell built from 17 graph ops, reading ``state`` through two
    ``slice_`` and returning (hidden, ``concat([h, c])``)."""
    n = params.hidden
    h_prev, c_prev = ad.slice_(state, 0, n), ad.slice_(state, n, 2 * n)
    gates = ad.add(ad.add(ad.matmul(params.w_x, x), ad.matmul(params.w_h, h_prev)),
                   params.b)
    i = ad.sigmoid(ad.slice_(gates, 0, n))
    f = ad.sigmoid(ad.slice_(gates, n, 2 * n))
    o = ad.sigmoid(ad.slice_(gates, 2 * n, 3 * n))
    g = ad.tanh(ad.slice_(gates, 3 * n, 4 * n))
    c = ad.add(ad.mul(f, c_prev), ad.mul(i, g))
    h = ad.mul(o, ad.tanh(c))
    return h, ad.concat([h, c])


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


class TestLstmStep:
    def test_zero_weights_zero_state(self):
        params = LSTMLayerParams(
            w_x=Tensor(np.zeros((16, 3)), requires_grad=True),
            w_h=Tensor(np.zeros((16, 4)), requires_grad=True),
            b=Tensor(np.zeros(16), requires_grad=True))
        h, _ = lstm_step(Tensor(np.ones(3)), Tensor(np.zeros(8)), params)
        np.testing.assert_array_equal(h.data, 0.0)

    def test_hidden_is_the_width_of_w_h(self):
        params = LSTMLayerParams(
            w_x=Tensor(np.zeros((12, 3)), requires_grad=True),
            w_h=Tensor(np.zeros((12, 3)), requires_grad=True),
            b=Tensor(np.zeros(12), requires_grad=True))
        assert params.hidden == 3
        with pytest.raises(AttributeError):
            params.hidden = 4

    def test_saturated_forget_gate_preserves_cell(self):
        hidden = 4
        b = np.full(4 * hidden, -50.0)       # shut input/output/candidate
        b[hidden:2 * hidden] = 50.0          # saturate the forget gate
        params = LSTMLayerParams(
            w_x=Tensor(np.zeros((16, 3)), requires_grad=True),
            w_h=Tensor(np.zeros((16, 4)), requires_grad=True),
            b=Tensor(b, requires_grad=True))
        c0 = np.array([1.0, -2.0, 3.0, 0.5])
        _, hc = lstm_step(Tensor(np.ones(3)), Tensor(np.concatenate([np.zeros(4), c0])),
                          params)
        np.testing.assert_allclose(hc.data[hidden:], c0, atol=1e-12)

    def test_matches_hand_rolled_lstm(self):
        rng = np.random.default_rng(2)
        hidden, inp = 5, 3
        params = LSTMLayerParams.init(inp, hidden, rng)
        x = rng.normal(0, 1, inp)
        h0 = rng.normal(0, 1, hidden)
        c0 = rng.normal(0, 1, hidden)
        h, hc = lstm_step(Tensor(x), Tensor(np.concatenate([h0, c0])), params)

        def sig(z):
            return 1 / (1 + np.exp(-z))
        gates = params.w_x.data @ x + params.w_h.data @ h0 + params.b.data
        i, f, o, g = (gates[k * hidden:(k + 1) * hidden] for k in range(4))
        c_ref = sig(f) * c0 + sig(i) * np.tanh(g)
        h_ref = sig(o) * np.tanh(c_ref)
        np.testing.assert_allclose(hc.data[hidden:], c_ref, atol=1e-12)
        np.testing.assert_allclose(h.data, h_ref, atol=1e-12)
        np.testing.assert_array_equal(hc.data[:hidden], h.data)


class TestFusedCell:
    """``ad.lstm_cell`` against the per-op cell: equal bits, not a tolerance."""

    CAPTION = ["w1", "w5", "w2", "w7", "w0", "w3"]

    @staticmethod
    def _run(monkeypatch, step, head, precision):
        monkeypatch.setattr(decoder, "lstm_step", step)
        model = CaptionModel.init(_table(), depth=8, hidden=16, annot_dim=8,
                                  attention_k=8, head_kind=head, dropout_rate=0.5,
                                  seed=16, precision=precision)
        loss = teacher_forced_loss(model, _annots(seed=16), TestFusedCell.CAPTION,
                                   train_mode=True, rng=np.random.default_rng(16))
        loss.backward()
        # an untrained regression head's outputs all lie nearest one word;
        # scaled up, they spread over the table
        model.head.w.data *= 30.0
        tokens = [greedy_decode(model, _annots(seed=s), max_len=8) for s in range(5)]
        return loss.data, [p.grad for p in model.parameters()], tokens

    @pytest.mark.parametrize("precision", ["f64", "f32"])
    @pytest.mark.parametrize("head", [REGRESSION, SOFTMAX])
    def test_depth8_bit_identical_to_per_op_cell(self, monkeypatch, head, precision):
        loss, grads, tokens = self._run(monkeypatch, lstm_step, head, precision)
        ref_loss, ref_grads, ref_tokens = self._run(monkeypatch, lstm_step_ops,
                                                    head, precision)
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
        tensors = [Tensor(a, requires_grad=k == which) for k, a in enumerate(args)]
        weights = Tensor(rng.normal(0, 1, 2 * hidden))  # weighs both h and c

        def f(t):
            parts = tensors[:which] + [t] + tensors[which + 1:]
            return _total(ad.mul(ad.lstm_cell(*parts), weights))
        assert finite_difference_check(f, tensors[which]) < 1e-6

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    @pytest.mark.parametrize("step", [lstm_step, lstm_step_ops])
    def test_huge_input_weights_raise(self, step):
        params = LSTMLayerParams.init(3, 4, np.random.default_rng(18))
        params.w_x.data[...] = 1e308
        with pytest.raises(NumericalError):
            step(Tensor(np.ones(3)), Tensor(np.zeros(8)), params)

    def test_shape_mismatch(self):
        params = LSTMLayerParams.init(3, 4, np.random.default_rng(19))
        with pytest.raises(ValueError):
            lstm_step(Tensor(np.ones(5)), Tensor(np.zeros(8)), params)
        with pytest.raises(ValueError):
            lstm_step(Tensor(np.ones(3)), Tensor(np.zeros(6)), params)


class TestStackedStep:
    def test_dropout_disabled_train_eq_eval(self):
        model = _model(dropout=0.0)
        rng = np.random.default_rng(3)
        v = Tensor(rng.normal(0, 1, 8))
        c = Tensor(rng.normal(0, 1, 8))
        state = model.zero_state()
        out_train, _ = stacked_step(model, v, c, state, train_mode=True,
                                    rng=np.random.default_rng(0))
        out_eval, _ = stacked_step(model, v, c, model.zero_state(), train_mode=False)
        np.testing.assert_array_equal(out_train.data, out_eval.data)

    def test_dropout_mask_scales_hidden(self):
        # inverted dropout: the head sees h * (u >= rate) / (1 - rate)
        model = _model(depth=1, dropout=0.25)
        rng = np.random.default_rng(4)
        v, c = rng.normal(0, 1, 8), rng.normal(0, 1, 8)
        out, _ = stacked_step(model, Tensor(v), Tensor(c), model.zero_state(),
                              train_mode=True, rng=np.random.default_rng(0))
        h, _ = lstm_step(Tensor(np.concatenate([v, c])), Tensor(np.zeros(32)),
                         model.layers[0])
        mask = (np.random.default_rng(0).random(16) >= 0.25) / 0.75
        assert 0 < np.count_nonzero(mask) < 16
        expected = model.head.w.data @ (h.data * mask) + model.head.b.data
        np.testing.assert_allclose(out.data, expected, atol=1e-12)

    def test_depth_one_reduces_to_lstm_step_plus_head(self):
        model = _model(depth=1)
        rng = np.random.default_rng(5)
        v = rng.normal(0, 1, 8)
        c = rng.normal(0, 1, 8)
        out, _ = stacked_step(model, Tensor(v), Tensor(c), model.zero_state())
        h, _ = lstm_step(Tensor(np.concatenate([v, c])), Tensor(np.zeros(32)),
                         model.layers[0])
        expected = model.head.w.data @ h.data + model.head.b.data
        np.testing.assert_allclose(out.data, expected, atol=1e-12)

    def test_state_depth_mismatch(self):
        model = _model(depth=2)
        with pytest.raises(ValueError):
            stacked_step(model, Tensor(np.zeros(8)), Tensor(np.zeros(8)),
                         model.zero_state()[:1])


class TestTeacherForcedLoss:
    def test_forced_head_output_gives_zero_loss(self):
        table = _table(d=4, seed=6)
        model = _model(d=4, annot_dim=4, table=table, seed=6)
        # zero the trunk-to-head map and plant each target in the head bias:
        # with a one-word caption the bias is the whole output
        model.head.w.data[...] = 0.0
        model.head.b.data[...] = table.lookup("w3")
        loss = teacher_forced_loss(model, _annots(dim=4), ["w3"])
        # the first step's loss is exactly zero; the second regresses <end>
        end_loss = ad.mse(model.embed("w3"), model.embed(END)).item()
        assert end_loss > 0
        assert loss.item() == end_loss * 0.5

    def test_zero_loss_iff_exact_match(self):
        # <end> shares w3's row, so one head output matches both steps
        base = _table(d=4, seed=6)
        shared = base.lookup("w3")
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
        # caption [w] scores two steps: <start>->w and w-><end>
        model = _model(seed=7)
        loss = teacher_forced_loss(model, _annots(), ["w1"])
        h_matrix = model.annotation_matrix(_annots())
        state = model.zero_state()
        steps = []
        for prev, target in ((START, "w1"), ("w1", END)):
            v_prev = model.embed(prev)
            att = attend_matrix(h_matrix, v_prev, model.attention)
            out, state = stacked_step(model, v_prev, att.context, state)
            steps.append(ad.mse(out, model.embed(target)).item())
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
        for param in model.parameters():
            err = finite_difference_check(f, param, max_components=10, rng=rng)
            assert err < 1e-4, param.name

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
        assert {p.grad.dtype for p in model.parameters()} == {np.dtype(np.float32)}
        assert greedy_decode(model, _annots(), max_len=3) is not None

    def test_determinism(self):
        def run():
            model = _model(seed=10, dropout=0.5)
            rng = np.random.default_rng(10)
            return teacher_forced_loss(model, _annots(seed=10), ["w1", "w2"],
                                       train_mode=True, rng=rng).item()
        assert run() == run()


class TestGraphSize:
    def test_depth8_step_builds_29_ops(self):
        # per step: 8 attention ops, the input concat, a cell and an h slice
        # per layer, the head's matmul and add, the step loss and the add
        # into the total (the first step adds nothing, the final scale one)
        model = _model(depth=8)
        caption = ["w1", "w5", "w2", "w7"]
        loss = teacher_forced_loss(model, _annots(), caption)
        ops = [node for node in ad._toposort(loss) if node._backward is not None]
        assert len(ops) == 29 * (len(caption) + 1)


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


class TestGradientReach:
    def test_depth8_layer0_gradient_nonzero(self):
        model = _model(depth=8, hidden=12, d=6, annot_dim=6, k=4, seed=15)
        annots = _annots(dim=6, seed=15)
        loss = teacher_forced_loss(model, annots, ["w1", "w2", "w3", "w4"])
        loss.backward()
        norms = [float(np.linalg.norm(layer.w_x.grad)) for layer in model.layers]
        assert norms[0] > 0
        # profile is reported for comparison with the softmax head
        soft = _model(depth=8, hidden=12, d=6, annot_dim=6, k=4,
                      head=SOFTMAX, seed=15)
        loss = teacher_forced_loss(soft, annots, ["w1", "w2", "w3", "w4"])
        loss.backward()
        soft_norms = [float(np.linalg.norm(layer.w_x.grad)) for layer in soft.layers]
        assert len(soft_norms) == len(norms) == 8
