"""Acceptance suite: one test per criterion, each printing a PASS line with
its measured values. Run with ``pytest tests/test_acceptance.py -v``;
each criterion reports its PASS line directly to the terminal.

The two training-based criteria (deep-stack trainability and overfit
fidelity) dominate the runtime; both stay well inside their stated budgets
on a desktop CPU.
"""

import random
import time
from pathlib import Path

import numpy as np
import pytest

from capreg import autodiff as ad
from capreg.autodiff import Tensor
from capreg.decoder import (REGRESSION, SOFTMAX, CaptionModel, greedy_decode,
                            param_count, teacher_forced_loss)
from capreg.embedding import RESERVED, EmbeddingTable, Vocabulary
from capreg.encoder import AnnotationSet
from capreg.harness import (DatasetRecord, TrainConfig, depth_study,
                            grad_experiment, train)
from capreg.metrics import EvalCorpus, bleu, cider, rouge_l
from capreg.attention import attend_matrix

from test_attention import attend as reference_attend
from test_autodiff import (_total, concat, finite_difference_check, matmul, mul, scale,
                           sigmoid, slice_, softmax, tanh)
from test_metrics import (_oracle_bleu, _oracle_cider, _oracle_rouge_l,
                          _random_corpus)


def _toy_table(num_words, d, seed):
    rng = np.random.default_rng(seed)
    vocab = Vocabulary(list(RESERVED) + [f"w{i}" for i in range(num_words)])
    return EmbeddingTable(vocab, rng.normal(0, 1, (len(vocab), d)))


def _toy_records(n, annot_count, annot_dim, num_words, cap_lens, seed):
    rng = np.random.default_rng(seed)
    records = []
    for i in range(n):
        annots = AnnotationSet(rng.normal(0, 1, (annot_count, annot_dim)),
                               annot_count // 4 if annot_count % 4 == 0 else 1,
                               4 if annot_count % 4 == 0 else annot_count)
        length = int(rng.integers(cap_lens[0], cap_lens[1] + 1))
        cap = [f"w{rng.integers(num_words)}" for _ in range(length)]
        records.append(DatasetRecord(f"img{i}", None, [cap], annotations=annots))
    return records


@pytest.fixture(scope="module")
def overfit_depth2():
    """Depth-2 model trained to convergence on its tiny dataset."""
    table = _toy_table(30, 16, seed=7)
    records = _toy_records(8, 4, 16, 30, (5, 7), seed=7)
    cfg = TrainConfig(depth=2, hidden=64, embed_dim=16, annot_dim=16,
                      attention_k=16, dropout_rate=0.0, epochs=500, seed=0)
    model, log = train(cfg, records, table, stop_loss_ratio=2e-4)
    return model, records, log


def _caption_op_cases(rng):
    """(f, input) pairs that check each caption-level op through every
    operand a gradient reaches, over T = 4 rows: attention, the LSTM layer
    (from a nonzero state, under a dropout mask), the row concat with a
    constant block, the head, and both losses."""
    def param(*shape, scale=0.5):
        return Tensor(rng.normal(0, scale, shape))
    annots, words = rng.normal(0, 1, (6, 3)), rng.normal(0, 1, (4, 5))
    att = [param(7, 6), param(7, 5), param(7), param(7)]
    x, lstm = param(4, 2, scale=1.0), [param(12, 2), param(12, 3), param(12)]
    state, mask = rng.normal(0, 1, 6), (rng.random((4, 3)) >= 0.5) * 2.0
    head = [param(6, 4), param(6)]
    context, target = rng.normal(0, 1, (4, 6)), rng.normal(0, 1, (4, 6))
    labels = rng.integers(6, size=4)

    def attention(_):
        return ad.mse(ad.attention(annots, words, *att)[0], np.hstack([words, context]))

    def outputs():
        hidden = ad.lstm(x, state, *lstm, mask)[0]
        return ad.linear(concat([words[:, :1], hidden]), *head)

    def regression_head(_):
        return ad.mse(outputs(), target)

    def softmax_head(_):
        return ad.cross_entropy(outputs(), labels)
    return ([(attention, t) for t in att]
            + [(f, t) for f in (regression_head, softmax_head) for t in (x, *lstm, *head)])


def test_criterion_1_gradient_correctness(capsys):
    """Finite differences agree with backward() over every op and over the
    full teacher-forced loss of a depth-2/hidden-16/d-8/L-4 model, 20 seeds,
    max rel. err < 1e-4, under 2 minutes."""
    start = time.monotonic()
    worst = 0.0
    for seed in range(20):
        rng = np.random.default_rng(seed)
        x = Tensor(rng.normal(0, 1, 8))
        w = Tensor(rng.normal(0, 1, (5, 8)))
        target8 = rng.normal(0, 1, 8)
        label = int(rng.integers(8))
        mix = Tensor(np.linspace(-1, 1, 64).reshape(8, 8))
        op_cases = [
            lambda t: ad.mse(matmul(w, t), np.zeros(5)),
            lambda t: ad.cross_entropy(t, label),
            lambda t: ad.mse(t, target8),
            lambda t: _total(mul(softmax(t), Tensor(np.arange(8.0)))),
            lambda t: _total(tanh(sigmoid(t))),
            lambda t: _total(scale(mul(t, t), 1 / 8)),
            lambda t: _total(slice_(concat([t, t]), 2, 13)),
            lambda t: ad.cross_entropy(matmul(t, mix), label),
        ]
        for f in op_cases:
            worst = max(worst, finite_difference_check(f, x, h=1e-5))
        for f, operand in _caption_op_cases(np.random.default_rng(100 + seed)):
            worst = max(worst, finite_difference_check(f, operand, h=1e-5))

        table = _toy_table(12, 8, seed)
        model = CaptionModel.init(table, depth=2, hidden=16, annot_dim=8,
                                  attention_k=8, head_kind=REGRESSION,
                                  dropout_rate=0.0, seed=seed)
        annots = AnnotationSet(rng.normal(0, 1, (4, 8)), 2, 2)
        cap = [f"w{rng.integers(12)}" for _ in range(3)]

        def loss(_):
            return teacher_forced_loss(model, annots, cap)
        for param in model.parameters():
            worst = max(worst, finite_difference_check(
                loss, param, h=1e-5, max_components=5, rng=rng))
    elapsed = time.monotonic() - start
    assert worst < 1e-4
    assert elapsed < 120
    with capsys.disabled():
        print(f"\nPASS criterion 1: gradient correctness, worst rel. err "
              f"{worst:.3g} over 20 seeds in {elapsed:.1f}s")


def test_criterion_2_gradient_magnitude_claim(capsys):
    """Softmax non-target gradients at |V|=20000 sit at 5e-5; the regression
    head's per-component gradient at unit residual (d=64) is 0.03125, three
    orders of magnitude larger."""
    report = grad_experiment(20000, 64, trials=30, seed=0)
    assert abs(report["softmax_nontarget_uniform"] - 5.0e-5) < 1e-12
    assert 1e-5 <= report["softmax_nontarget_mean"] <= 1e-4
    assert report["regression_unit_residual"] == 0.03125
    ratio = report["regression_unit_residual"] / report["softmax_nontarget_uniform"]
    assert ratio > 100
    with capsys.disabled():
        print(f"\nPASS criterion 2: softmax non-target 5e-5 exact; random-logit "
              f"mean {report['softmax_nontarget_mean']:.3g}; regression unit-residual "
              f"0.03125 ({ratio:.0f}x larger)")


def test_criterion_3_depth8_trainability(capsys):
    """A depth-8 regression model on a 20-sample toy set reaches <10% of its
    initial loss within 500 epochs with live layer-0 gradients throughout."""
    start = time.monotonic()
    table = _toy_table(150, 64, seed=11)
    records = _toy_records(20, 16, 64, 150, (4, 6), seed=11)
    cfg = TrainConfig(depth=8, hidden=128, embed_dim=64, annot_dim=64,
                      attention_k=32, dropout_rate=0.0, epochs=500, seed=0)
    model, log = train(cfg, records, table, stop_loss_ratio=0.1)
    elapsed = time.monotonic() - start
    assert len(log.epochs) <= 500
    initial = log.epochs[0]["loss"]
    final = log.epochs[-1]["loss"]
    assert final < 0.10 * initial
    layer0_min = min(row["grad_norm_layer0"] for row in log.epochs)
    assert layer0_min > 1e-8
    assert elapsed < 900
    phases = {k: sum(row[k] for row in log.epochs)
              for k in ("forward_s", "backward_s", "optimizer_s", "validation_s")}
    with capsys.disabled():
        print(f"\nPASS criterion 3: depth-8 loss {initial:.4f} -> {final:.4f} "
              f"({final / initial:.1%}) in {len(log.epochs)} epochs / {elapsed:.0f}s; "
              f"min layer-0 grad norm {layer0_min:.3g}; "
              + ", ".join(f"{k} {v:.1f}" for k, v in phases.items())
              + f" (optimizer {phases['optimizer_s'] / sum(phases.values()):.0%})")


def test_criterion_4_overfit_fidelity(overfit_depth2, capsys):
    """The converged depth-2 model greedy-decodes its training captions with
    corpus BLEU-4 >= 90."""
    model, records, log = overfit_depth2
    pairs = []
    for rec in records:
        decoded = greedy_decode(model, rec.annotations, max_len=12)
        pairs.append((decoded, rec.captions))
    score = bleu(EvalCorpus(pairs), 4)
    assert score >= 90.0
    with capsys.disabled():
        print(f"\nPASS criterion 4: overfit BLEU-4 {score:.1f} "
              f"(final training loss {log.epochs[-1]['loss']:.2e})")


def test_criterion_5_attention_properties(overfit_depth2, capsys):
    """Across 1000 decode steps the attention weights form a simplex;
    scores are shift-invariant; and the previous word changes the weights."""
    model, records, _ = overfit_depth2
    rng = np.random.default_rng(99)
    steps = 0
    worst_sum = 0.0
    while steps < 1000:
        annots = AnnotationSet(rng.normal(0, 1, (4, 16)), 2, 2)
        _, trace = greedy_decode(model, annots, max_len=12, return_attention=True)
        for alphas in trace:
            assert np.all(alphas >= 0)
            worst_sum = max(worst_sum, abs(alphas.sum() - 1.0))
            assert worst_sum < 1e-6
            steps += 1

    # shift invariance: a constant added to every score of the per-vector
    # reference scorer leaves attend_matrix's weights
    hs = rng.normal(0, 1, (4, 16))
    h = np.ascontiguousarray(hs.T)  # the (D, L) layout attend_matrix reads
    rng.normal(0, 1, 64)  # the decoder state scores once took; keeps v's draw
    v = rng.normal(0, 1, 16)
    _, base = attend_matrix(h, v[None], model.attention)
    shifted, _ = reference_attend(hs, v, model.attention, shift=57.0)
    shift_dev = float(np.max(np.abs(shifted - base[0])))
    assert shift_dev < 1e-9

    # conditioning on the previous word: two embeddings, all else fixed
    best_dev = 0.0
    for w1 in model.embedding.vocab.index_to_token[:10]:
        for w2 in model.embedding.vocab.index_to_token[:10]:
            _, a1 = attend_matrix(h, model.embed_rows([w1]), model.attention)
            _, a2 = attend_matrix(h, model.embed_rows([w2]), model.attention)
            best_dev = max(best_dev, float(np.max(np.abs(a1[0] - a2[0]))))
    assert best_dev > 1e-3
    with capsys.disabled():
        print(f"\nPASS criterion 5: {steps} decode steps, worst |sum(alpha)-1| "
              f"{worst_sum:.2g}; shift deviation {shift_dev:.2g}; max weight change "
              f"under word swap {best_dev:.3f}")


def test_criterion_6_metric_oracles(capsys):
    """BLEU/ROUGE-L/CIDEr agree with independent brute-force implementations
    on 50 randomized corpora; trivial cases are exact."""
    perfect = EvalCorpus([(["a", "b", "c", "d"], [["a", "b", "c", "d"]])])
    for n in (1, 2, 3, 4):
        assert bleu(perfect, n) == 100.0
    assert rouge_l(perfect) == 100.0
    disjoint = EvalCorpus([(["x", "y"], [["a", "b"]])])
    assert bleu(disjoint, 1) == 0.0
    assert rouge_l(disjoint) == 0.0

    rng = random.Random(0)
    worst_bleu = worst_rouge = worst_cider = 0.0
    for _ in range(50):
        pairs = _random_corpus(rng)
        corpus = EvalCorpus(pairs)
        for n in (1, 2, 3, 4):
            worst_bleu = max(worst_bleu, abs(bleu(corpus, n) - _oracle_bleu(pairs, n)))
        worst_rouge = max(worst_rouge, abs(rouge_l(corpus) - _oracle_rouge_l(pairs)))
        worst_cider = max(worst_cider, abs(cider(corpus) - _oracle_cider(pairs)))
    assert worst_bleu < 1e-9
    assert worst_rouge < 1e-9
    assert worst_cider < 1e-6
    with capsys.disabled():
        print(f"\nPASS criterion 6: oracle deviations BLEU {worst_bleu:.2g}, "
              f"ROUGE-L {worst_rouge:.2g}, CIDEr {worst_cider:.2g}")


def test_criterion_7_parameter_count_direction(capsys):
    """Regression heads are strictly smaller whenever |V| > d, with the gap
    exactly (hidden+1)(|V|-d), at every studied depth."""
    hidden, d, vocab, annot, k = 128, 64, 5000, 64, 32
    for depth in (1, 2, 5, 8, 10):
        reg = param_count(depth, hidden, d, vocab, annot, k, REGRESSION)
        soft = param_count(depth, hidden, d, vocab, annot, k, SOFTMAX)
        assert reg < soft
        assert soft - reg == (hidden + 1) * (vocab - d)
    with capsys.disabled():
        print(f"\nPASS criterion 7: regression head smaller at depths 1,2,5,8,10; "
              f"gap = (hidden+1)(|V|-d) = {(hidden + 1) * (vocab - d)}")


def test_criterion_8_non_reproducibility_statement(capsys):
    """Full MS-COCO scores are explicitly out of scope; the README carries
    the statement, and the depth study runs as a soft check only."""
    readme_path = Path(__file__).resolve().parents[1] / "README.md"
    readme = readme_path.read_text(encoding="utf-8")
    for needle in ("125.0", "50.5", "64.9", "34.7", "not reproducible"):
        assert needle.lower() in readme.lower()

    # soft check: tiny-scale depth study; ordering is reported, never gated
    table = _toy_table(20, 16, seed=3)
    records = _toy_records(6, 4, 16, 20, (4, 6), seed=3)
    base = TrainConfig(depth=1, hidden=32, embed_dim=16, annot_dim=16,
                       attention_k=8, dropout_rate=0.0, epochs=40, seed=0)
    rows = depth_study(base, [5, 8, 10], records, table)
    assert [r["depth"] for r in rows] == [5, 8, 10]
    assert rows[0]["params_regression"] < rows[1]["params_regression"] \
        < rows[2]["params_regression"]
    by_depth = {r["depth"]: r["bleu1"] for r in rows}
    shape_holds = by_depth[8] >= by_depth[5] and by_depth[8] >= by_depth[10]
    with capsys.disabled():
        print(f"\nPASS criterion 8: non-reproducibility statement present; "
              f"depth-study soft check BLEU-1 {by_depth} "
              f"(depth-8-best shape {'holds' if shape_holds else 'does not hold'} "
              f"at this scale; informational only)")
