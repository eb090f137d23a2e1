import numpy as np
import pytest

from capreg import autodiff as ad
from capreg.attention import AttentionParams, attend_matrix

from test_autodiff import finite_difference_check


# ---------------------------------------------------------------------------
# per-vector reference for attend_matrix


def score(h_j, v_prev, params, shift=0.0):
    """Relevance of one annotation vector given the previous word, plus an
    optional term shared by every annotation."""
    hidden = np.tanh(params.w_hidden_annot.data @ h_j
                     + params.w_hidden_word.data @ v_prev + params.b_hidden.data)
    return float(params.w_out.data @ hidden) + shift


def attend(hs, v_prev, params, shift=0.0):
    """(weights, context) with one score per annotation vector."""
    scores = np.array([score(h, v_prev, params, shift) for h in hs])
    e = np.exp(scores - scores.max())
    alpha = e / e.sum()
    return alpha, sum(a * h for a, h in zip(alpha, hs))


def _context(rows):
    """The context columns of attend_matrix's rows ``[word; context]``: the
    last D = 6 of the tests' annotation vectors."""
    return rows.data[:, -6:]


def _params(annot_dim=6, word_dim=4, k=3, seed=0):
    rng = np.random.default_rng(seed)
    return AttentionParams(
        w_hidden_annot=ad.Tensor(ad.xavier_uniform(rng, annot_dim, k, (k, annot_dim))),
        w_hidden_word=ad.Tensor(ad.xavier_uniform(rng, word_dim, k, (k, word_dim))),
        b_hidden=ad.Tensor(np.zeros(k)),
        w_out=ad.Tensor(ad.xavier_uniform(rng, k, 1, (k,))))


def _zero_params(annot_dim=6, word_dim=4, k=3):
    p = _params(annot_dim, word_dim, k)
    for t in p.tensors():
        t.data[...] = 0.0
    return p


class TestScore:
    def test_zero_params_score_zero(self):
        rng = np.random.default_rng(1)
        assert score(rng.normal(0, 1, 6), rng.normal(0, 1, 4), _zero_params()) == 0.0

    def test_output_bias_passthrough(self):
        assert score(np.ones(6), np.ones(4), _zero_params(), shift=1.0) == 1.0

    def test_matches_hand_rolled_arithmetic(self):
        p = _params(seed=2)
        rng = np.random.default_rng(3)
        h, v = rng.normal(0, 1, 6), rng.normal(0, 1, 4)
        hidden = [np.tanh(sum(p.w_hidden_annot.data[i, j] * h[j] for j in range(6))
                          + sum(p.w_hidden_word.data[i, j] * v[j] for j in range(4))
                          + p.b_hidden.data[i]) for i in range(3)]
        expected = sum(p.w_out.data[i] * hidden[i] for i in range(3))
        assert abs(score(h, v, p) - expected) < 1e-12


class TestAttend:
    def test_single_annotation(self):
        p = _params(seed=6)
        rng = np.random.default_rng(7)
        h = rng.normal(0, 1, 6)
        rows, weights = attend_matrix(h[:, None], rng.normal(0, 1, (3, 4)), p)
        np.testing.assert_allclose(weights, 1.0)
        np.testing.assert_allclose(_context(rows), np.tile(h, (3, 1)), atol=1e-12)

    def test_equal_scores_give_uniform_weights(self):
        rng = np.random.default_rng(8)
        hs = rng.normal(0, 1, (5, 6))
        rows, weights = attend_matrix(hs.T, np.zeros((1, 4)), _zero_params())
        np.testing.assert_allclose(weights, 0.2)
        np.testing.assert_allclose(_context(rows)[0], hs.mean(axis=0), atol=1e-12)

    def test_empty_annotations_rejected(self):
        with pytest.raises(ValueError):
            attend_matrix(np.zeros((6, 0)), np.zeros((1, 4)), _params())

    def test_matches_brute_force(self):
        p = _params(seed=9)
        rng = np.random.default_rng(10)
        hs = rng.normal(0, 1, (5, 6))
        vs = rng.normal(0, 1, (3, 4))
        rows, weights = attend_matrix(hs.T, vs, p)
        # the rows layer 0 reads: each previous word, then its context
        assert rows.shape == (3, 10)
        np.testing.assert_array_equal(rows.data[:, :4], vs)
        for t, v in enumerate(vs):
            scores = np.array([p.w_out.data @ np.tanh(p.w_hidden_annot.data @ h
                                                      + p.w_hidden_word.data @ v
                                                      + p.b_hidden.data) for h in hs])
            e = np.exp(scores - scores.max())
            alpha = e / e.sum()
            np.testing.assert_allclose(weights[t], alpha, atol=1e-12)
            np.testing.assert_allclose(_context(rows)[t], alpha @ hs, atol=1e-12)

    def test_weights_form_simplex(self):
        p = _params(seed=11)
        rng = np.random.default_rng(12)
        for _ in range(20):
            _, weights = attend_matrix(rng.normal(0, 2, (7, 6)).T, rng.normal(0, 2, (3, 4)), p)
            assert np.all(weights >= 0)
            np.testing.assert_allclose(weights.sum(axis=1), 1.0, atol=1e-6)

    def test_score_shift_invariance(self):
        # adding a constant to every reference score must not change the
        # weights attend_matrix computes without it
        p = _params(seed=13)
        rng = np.random.default_rng(14)
        hs = rng.normal(0, 1, (4, 6))
        v = rng.normal(0, 1, 4)
        _, fast = attend_matrix(hs.T, v[None], p)
        shifted, _ = attend(hs, v, p, shift=123.45)
        np.testing.assert_allclose(fast[0], shifted, atol=1e-9)

    def test_state_term_cancels(self):
        # the decoder-state term w_state.s + b_out that scores once carried
        # is shared by every annotation; with it the weights and context
        # equal attend_matrix's, so dropping it changes no output
        rng = np.random.default_rng(19)
        for seed in range(10):
            p = _params(seed=20 + seed)
            hs = rng.normal(0, 1, (5, 6))
            v = rng.normal(0, 1, 4)
            w_state, s, b_out = rng.normal(0, 1, 5), rng.normal(0, 1, 5), rng.normal(0, 1)
            alpha, context = attend(hs, v, p, shift=w_state @ s + b_out)
            fast_rows, fast_weights = attend_matrix(hs.T, v[None], p)
            np.testing.assert_allclose(fast_weights[0], alpha, atol=1e-12)
            np.testing.assert_allclose(_context(fast_rows)[0], context, atol=1e-12)

    def test_previous_word_changes_weights(self):
        p = _params(seed=15)
        rng = np.random.default_rng(16)
        hs = rng.normal(0, 1, (4, 6)).T
        _, w = attend_matrix(hs, rng.normal(0, 1, (2, 4)), p)
        assert np.max(np.abs(w[0] - w[1])) > 1e-3

    def test_gradients_vs_finite_differences(self):
        # gradients reach every parameter through all T rows; the
        # annotations and the previous words are constants and get none
        rng = np.random.default_rng(17)
        hs = rng.normal(0, 1, (3, 6)).T.copy()
        vs = rng.normal(0, 1, (4, 4))
        p = _params(seed=18)
        target = np.hstack([vs, rng.normal(0, 1, (4, 6))])

        def f(_):
            return ad.mse(attend_matrix(hs, vs, p)[0], target)
        for param in p.tensors():
            assert finite_difference_check(f, param) < 1e-4
            assert np.linalg.norm(param.gradient()) == 0.0
            f(param).backward()
            assert np.linalg.norm(param.gradient()) > 1e-6
            param.terms.clear()

    def test_matrix_form_agrees_with_reference(self):
        rng = np.random.default_rng(21)
        p = _params(seed=22)
        for _ in range(5):
            hs = rng.normal(0, 1, (5, 6))
            vs = rng.normal(0, 1, (3, 4))
            fast_rows, fast_weights = attend_matrix(hs.T, vs, p)
            for t, v in enumerate(vs):
                alpha, context = attend(hs, v, p)
                np.testing.assert_allclose(fast_weights[t], alpha, atol=1e-12)
                np.testing.assert_allclose(_context(fast_rows)[t], context, atol=1e-12)

    def test_matrix_form_gradients(self):
        # one row, as decoding runs it
        rng = np.random.default_rng(23)
        p = _params(seed=24)
        h_data = rng.normal(0, 1, (4, 6))
        v_data = rng.normal(0, 1, (1, 4))
        target = np.hstack([v_data, rng.normal(0, 1, (1, 6))])

        def loss(_):
            rows, _ = attend_matrix(h_data.T, v_data, p)
            return ad.mse(rows, target)
        for param in p.tensors():
            assert finite_difference_check(loss, param) < 1e-4

    def test_batched_rows_equal_one_row_calls(self):
        rng = np.random.default_rng(25)
        p = _params(seed=26)
        hs = rng.normal(0, 1, (5, 6)).T.copy()
        vs = rng.normal(0, 1, (7, 4))
        whole_rows, whole_weights = attend_matrix(hs, vs, p)
        for t in range(7):
            rows, row_weights = attend_matrix(hs, vs[t:t + 1], p)
            np.testing.assert_allclose(row_weights[0], whole_weights[t], rtol=1e-13)
            np.testing.assert_allclose(rows.data[0], whole_rows.data[t], rtol=1e-13)
