import math
import random

import pytest

from capreg.metrics import EvalCorpus, bleu, cider, rouge_l, tokenize


# ---------------------------------------------------------------------------
# independent oracles: written with plain loops and lists, no shared helpers
# with the implementation under test


def _oracle_ngrams(seq, k):
    out = []
    for i in range(len(seq) - k + 1):
        out.append(tuple(seq[i:i + k]))
    return out


def _oracle_bleu(pairs, n):
    matched = [0.0] * n
    total = [0.0] * n
    c_len, r_len = 0, 0
    for cand, refs in pairs:
        c_len += len(cand)
        best = None
        for r in refs:
            key = (abs(len(r) - len(cand)), len(r))
            if best is None or key < best:
                best = key
        r_len += best[1]
        for k in range(1, n + 1):
            grams = _oracle_ngrams(cand, k)
            total[k - 1] += len(grams)
            for gram in set(grams):
                cand_count = grams.count(gram)
                ref_max = 0
                for r in refs:
                    ref_max = max(ref_max, _oracle_ngrams(r, k).count(gram))
                matched[k - 1] += min(cand_count, ref_max)
    if c_len == 0:
        return 0.0
    prec = []
    for m, t in zip(matched, total):
        if t == 0 or m == 0:
            return 0.0
        prec.append(m / t)
    geo = math.exp(sum(math.log(p) for p in prec) / n)
    bp = 1.0 if c_len > r_len else math.exp(1 - r_len / c_len)
    return 100.0 * bp * geo


def _oracle_lcs(a, b):
    table = [[0] * (len(b) + 1) for _ in range(len(a) + 1)]
    for i in range(1, len(a) + 1):
        for j in range(1, len(b) + 1):
            if a[i - 1] == b[j - 1]:
                table[i][j] = table[i - 1][j - 1] + 1
            else:
                table[i][j] = max(table[i - 1][j], table[i][j - 1])
    return table[len(a)][len(b)]


def _oracle_rouge_l(pairs, beta=1.2):
    acc = 0.0
    for cand, refs in pairs:
        best = 0.0
        for r in refs:
            l = _oracle_lcs(cand, r)
            if l == 0 or not cand or not r:
                continue
            p = l / len(cand)
            q = l / len(r)
            f = (1 + beta * beta) * p * q / (q + beta * beta * p)
            if f > best:
                best = f
        acc += best
    return 100.0 * acc / len(pairs)


def _oracle_cider(pairs):
    n_img = len(pairs)
    sigma = 6.0
    score_total = 0.0
    for k in range(1, 5):
        df = {}
        for _, refs in pairs:
            grams = set()
            for r in refs:
                grams.update(_oracle_ngrams(r, k))
            for g in grams:
                df[g] = df.get(g, 0) + 1

        def vec(seq):
            v = {}
            for g in _oracle_ngrams(seq, k):
                v[g] = v.get(g, 0) + 1
            for g in v:
                v[g] *= math.log(n_img) - math.log(max(1.0, df.get(g, 0)))
            norm = math.sqrt(sum(x * x for x in v.values()))
            return v, norm

        order_total = 0.0
        for cand, refs in pairs:
            cv, cn = vec(cand)
            s = 0.0
            for r in refs:
                rv, rn = vec(r)
                if cn == 0 or rn == 0:
                    continue
                dot = 0.0
                for g, x in cv.items():
                    if g in rv:
                        dot += min(x, rv[g]) * rv[g]
                pen = math.exp(-((len(cand) - len(r)) ** 2) / (2 * sigma * sigma))
                s += pen * dot / (cn * rn)
            order_total += 10.0 * s / len(refs)
        score_total += order_total / n_img
    return score_total / 4.0


def _random_corpus(rng, entries=6, vocab=("a", "b", "c", "d", "e", "f")):
    pairs = []
    for _ in range(entries):
        cand = [rng.choice(vocab) for _ in range(rng.randint(1, 8))]
        refs = [[rng.choice(vocab) for _ in range(rng.randint(1, 8))]
                for _ in range(rng.randint(1, 3))]
        pairs.append((cand, refs))
    return pairs


class TestTokenize:
    def test_lowercase_and_punct(self):
        assert tokenize("A man, on a Surf-board!") == \
            ["a", "man", "on", "a", "surfboard"]

    def test_whitespace_split(self):
        assert tokenize("  two   words ") == ["two", "words"]


class TestBleu:
    def test_perfect_match_all_orders(self):
        pairs = [(["a", "b", "c", "d"], [["a", "b", "c", "d"]])]
        corpus = EvalCorpus(pairs)
        for n in (1, 2, 3, 4):
            assert bleu(corpus, n) == 100.0

    def test_disjoint_is_zero(self):
        corpus = EvalCorpus([(["x", "y"], [["a", "b"]])])
        assert bleu(corpus, 1) == 0.0

    def test_invalid_order(self):
        corpus = EvalCorpus([(["a"], [["a"]])])
        with pytest.raises(ValueError):
            bleu(corpus, 5)

    def test_matches_oracle_on_50_random_corpora(self):
        rng = random.Random(0)
        for trial in range(50):
            pairs = _random_corpus(rng)
            corpus = EvalCorpus(pairs)
            for n in (1, 2, 3, 4):
                assert abs(bleu(corpus, n) - _oracle_bleu(pairs, n)) < 1e-9

    def test_duplicating_perfect_pair_never_lowers_score(self):
        rng = random.Random(1)
        for _ in range(10):
            pairs = _random_corpus(rng, entries=4)
            base = bleu(EvalCorpus(pairs), 2)
            perfect = (["a", "b", "c"], [["a", "b", "c"]])
            extended = bleu(EvalCorpus(pairs + [perfect]), 2)
            assert extended >= base - 1e-12

    def test_permutation_invariance(self):
        rng = random.Random(2)
        pairs = _random_corpus(rng)
        shuffled = pairs[::-1]
        for n in (1, 4):
            assert bleu(EvalCorpus(pairs), n) == bleu(EvalCorpus(shuffled), n)

    def test_empty_candidate_scored_not_rejected(self):
        corpus = EvalCorpus([([], [["a", "b"]])])
        assert bleu(corpus, 1) == 0.0


class TestRougeL:
    def test_identical(self):
        corpus = EvalCorpus([(["a", "b", "c"], [["a", "b", "c"]])])
        assert rouge_l(corpus) == 100.0

    def test_disjoint(self):
        corpus = EvalCorpus([(["x"], [["a", "b"]])])
        assert rouge_l(corpus) == 0.0

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError, match="non-empty corpus"):
            rouge_l(EvalCorpus([]))

    def test_matches_dp_oracle_on_random_pairs(self):
        rng = random.Random(3)
        for _ in range(50):
            pairs = _random_corpus(rng)
            got = rouge_l(EvalCorpus(pairs))
            assert abs(got - _oracle_rouge_l(pairs)) < 1e-9

    def test_bounded_by_100_equality_iff_exact(self):
        rng = random.Random(4)
        for _ in range(20):
            pairs = _random_corpus(rng, entries=1)
            score = rouge_l(EvalCorpus(pairs))
            assert score <= 100.0 + 1e-12
            cand, refs = pairs[0]
            if score == 100.0:
                assert cand in refs


class TestCider:
    def test_minimum_corpus_size(self):
        with pytest.raises(ValueError):
            cider(EvalCorpus([(["a"], [["a"]])]))

    def test_identical_candidate_maximal_for_entry(self):
        pairs = [(["a", "b", "c"], [["a", "b", "c"]]),
                 (["x", "y"], [["p", "q"]])]
        base = cider(EvalCorpus(pairs))
        worse = cider(EvalCorpus([(["a", "z", "c"], pairs[0][1]), pairs[1]]))
        assert base > worse

    def test_no_shared_ngrams_contributes_zero(self):
        pairs = [(["x", "y"], [["a", "b"]]),
                 (["c", "d"], [["c", "d"]])]
        only_second = [(["q", "r"], [["a", "b"]]),
                       (["c", "d"], [["c", "d"]])]
        assert abs(cider(EvalCorpus(pairs)) - cider(EvalCorpus(only_second))) < 1e-12

    def test_matches_brute_force_on_20_random_corpora(self):
        rng = random.Random(5)
        for _ in range(20):
            pairs = _random_corpus(rng)
            got = cider(EvalCorpus(pairs))
            assert abs(got - _oracle_cider(pairs)) < 1e-6

    def test_permutation_invariance(self):
        rng = random.Random(6)
        pairs = _random_corpus(rng)
        assert abs(cider(EvalCorpus(pairs)) - cider(EvalCorpus(pairs[::-1]))) < 1e-12


class TestEvalCorpus:
    def test_requires_references(self):
        with pytest.raises(ValueError):
            EvalCorpus([(["a"], [])])

    def test_from_strings(self):
        corpus = EvalCorpus.from_strings([("A dog.", ["a dog", "the dog"])])
        assert corpus.pairs[0][0] == ["a", "dog"]
        assert len(corpus.pairs[0][1]) == 2
