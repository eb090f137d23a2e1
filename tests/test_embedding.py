from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from capreg.embedding import (END, RESERVED, START, UNK, EmbeddingError,
                              EmbeddingTable, Vocabulary, build_vocab,
                              nearest_word, skipgram_pairs, train_skipgram)


class TestBuildVocab:
    def test_min_count_threshold(self):
        vocab = build_vocab([["a", "a", "b"]], min_count=2)
        assert "a" in vocab
        assert "b" not in vocab
        assert vocab.encode("b") == vocab.token_to_index[UNK]

    def test_all_tokens_kept(self):
        vocab = build_vocab([["x", "y"], ["y", "z"]], min_count=1)
        assert set(vocab.index_to_token) == set(RESERVED) | {"x", "y", "z"}

    def test_reserved_at_fixed_indices(self):
        vocab = build_vocab([["a"]], min_count=1)
        assert vocab.index_to_token[:3] == [START, END, UNK]

    def test_empty_corpus_rejected(self):
        with pytest.raises(EmbeddingError):
            build_vocab([], min_count=1)

    def test_size_matches_frequency_oracle(self):
        # caption-style corpus; vocabulary size must agree with a direct
        # frequency count at the same threshold
        rng = np.random.default_rng(0)
        base = [f"tok{i}" for i in range(80)]
        corpus = [[base[rng.integers(80)] for _ in range(8)] for _ in range(1000)]
        min_count = 5
        vocab = build_vocab(corpus, min_count=min_count)
        counts = Counter(t for s in corpus for t in s)
        expected = sum(1 for c in counts.values() if c >= min_count)
        assert len(vocab) == expected + len(RESERVED)

    def test_roundtrip(self):
        vocab = build_vocab([["x", "y", "z"]], min_count=1)
        for tok in vocab.index_to_token:
            assert vocab.decode(vocab.encode(tok)) == tok


class TestSkipgramPairs:
    def test_window_one(self):
        assert skipgram_pairs(["a", "b", "c"], 1) == [
            ("a", "b"), ("b", "a"), ("b", "c"), ("c", "b")]

    def test_single_token(self):
        assert skipgram_pairs(["a"], 2) == []

    def test_matches_brute_force(self):
        rng = np.random.default_rng(1)
        tokens = [f"t{rng.integers(4)}" for _ in range(10)]
        window = 2
        expected = [(tokens[i], tokens[j])
                    for i in range(10) for j in range(10)
                    if i != j and abs(i - j) <= window]
        assert skipgram_pairs(tokens, window) == expected

    @given(st.integers(0, 30), st.integers(1, 5))
    @settings(max_examples=50, deadline=None)
    def test_pair_count_identity(self, n, window):
        tokens = list(range(n))
        count = sum(1 for i in range(n) for j in range(n)
                    if i != j and abs(i - j) <= window)
        assert len(skipgram_pairs(tokens, window)) == count


def _orthonormal_table(words, d):
    vocab = Vocabulary(list(RESERVED) + words)
    vecs = np.eye(len(vocab), d)
    return EmbeddingTable(vocab, vecs)


class TestNearestWord:
    def test_exact_hit(self):
        table = _orthonormal_table(["a", "b", "c"], 6)
        assert nearest_word(table.lookup("b"), table) == "b"

    def test_dominant_component(self):
        table = _orthonormal_table(["w1", "w2", "w3"], 6)
        v = table.lookup("w2") + 0.01 * table.lookup("w1")
        assert nearest_word(v, table) == "w2"

    def test_dimension_mismatch(self):
        table = _orthonormal_table(["a"], 4)
        with pytest.raises(EmbeddingError):
            nearest_word(np.zeros(5), table)

    def test_matches_linear_scan_oracle(self):
        rng = np.random.default_rng(2)
        vocab = Vocabulary(list(RESERVED) + [f"w{i}" for i in range(40)])
        table = EmbeddingTable(vocab, rng.normal(0, 1, (len(vocab), 8)))
        for _ in range(100):
            v = rng.normal(0, 1, 8)
            dists = [((row - v) ** 2).sum() for row in table.vectors]
            expected = vocab.decode(int(np.argmin(dists)))
            assert nearest_word(v, table) == expected

    def test_permutation_invariance(self):
        rng = np.random.default_rng(3)
        words = [f"w{i}" for i in range(10)]
        vocab = Vocabulary(list(RESERVED) + words)
        vecs = rng.normal(0, 1, (len(vocab), 5))
        table = EmbeddingTable(vocab, vecs)
        # permute the non-reserved block and relabel accordingly
        perm = rng.permutation(10)
        vocab2 = Vocabulary(list(RESERVED) + [words[p] for p in perm])
        vecs2 = np.vstack([vecs[:3], vecs[3 + perm]])
        table2 = EmbeddingTable(vocab2, vecs2)
        for _ in range(20):
            v = rng.normal(0, 1, 5)
            assert nearest_word(v, table) == nearest_word(v, table2)


def _full_scan(v, table):
    """Oracle: the exhaustive L2 scan over every row, first minimum wins."""
    d = ((table.vectors - np.asarray(v, dtype=np.float64)) ** 2).sum(axis=1)
    return table.vocab.decode(int(np.argmin(d)))


@pytest.fixture(scope="module")
def wide_table():
    """A 20,003 x 64 table, the size of the paper's vocabulary."""
    rng = np.random.default_rng(11)
    vocab = Vocabulary(list(RESERVED) + [f"w{i}" for i in range(20000)])
    return EmbeddingTable(vocab, rng.normal(0, 1, (len(vocab), 64)))


class TestNearestWordMatchesFullScan:
    def _check(self, table, queries):
        for v in queries:
            assert nearest_word(v, table) == _full_scan(v, table)

    def test_random_queries(self, wide_table):
        rng = np.random.default_rng(12)
        self._check(wide_table, rng.normal(0, 1, (1000, 64)))

    def test_midpoints_between_rows(self, wide_table):
        rng = np.random.default_rng(13)
        pairs = rng.integers(0, len(wide_table.vocab), (300, 2))
        vecs = wide_table.vectors
        self._check(wide_table, (vecs[pairs[:, 0]] + vecs[pairs[:, 1]]) / 2)

    def test_queries_equal_to_rows(self, wide_table):
        rng = np.random.default_rng(14)
        rows = rng.choice(len(wide_table.vocab), 300, replace=False)
        self._check(wide_table, wide_table.vectors[rows])

    def test_duplicate_rows_tie_to_lowest_index(self, wide_table):
        # every row repeats one of the first 103, so each query has at least
        # 194 rows at exactly its nearest distance
        vecs = wide_table.vectors[np.arange(len(wide_table.vocab)) % 103]
        table = EmbeddingTable(wide_table.vocab, vecs)
        rng = np.random.default_rng(15)
        self._check(table, rng.normal(0, 1, (100, 64)))
        self._check(table, vecs[rng.integers(0, len(vecs), 100)])
        for i in range(103):
            assert nearest_word(vecs[i + 103 * 7], table) == table.vocab.decode(i)

    @pytest.mark.parametrize("scale", [1e-160, 1e-150, 1e150],
                             ids=["subnormal", "underflow", "overflow"])
    def test_scaled_tables(self, wide_table, scale):
        table = EmbeddingTable(wide_table.vocab, wide_table.vectors * scale)
        rng = np.random.default_rng(16)
        rows = table.vectors[rng.integers(0, len(table.vectors), 50)]
        midpoints = (rows[:25] + rows[25:]) / 2
        self._check(table, rng.normal(0, 1, (100, 64)) * scale)
        self._check(table, rows)
        self._check(table, midpoints)

    @pytest.mark.parametrize("norm", [1e154, 1e200])
    def test_huge_query_falls_back_to_full_scan(self, wide_table, norm):
        # 4 (max ||e|| + ||v||)^2 leaves the f64 range, so every row is re-ranked
        rng = np.random.default_rng(17)
        with np.errstate(over="ignore"):
            for _ in range(5):
                v = rng.normal(0, 1, 64)
                self._check(wide_table, [v * (norm / np.linalg.norm(v))])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_query_rejected(self, bad):
        table = _orthonormal_table(["a", "b"], 4)
        v = np.zeros(4)
        v[2] = bad
        with pytest.raises(EmbeddingError, match="non-finite"):
            nearest_word(v, table)

    def test_vectors_read_only(self):
        table = _orthonormal_table(["a", "b"], 4)
        nearest_word(table.lookup("a"), table)
        with pytest.raises(ValueError):
            table.vectors[3] = 0.0


class TestTrainSkipgram:
    def test_shared_contexts_cluster(self):
        # "cat" and "dog" appear in identical contexts; "stone" never does
        rng = np.random.default_rng(4)
        contexts = [["the", "furry", "ANIMAL", "sat", "here"],
                    ["a", "small", "ANIMAL", "ran", "fast"],
                    ["my", "ANIMAL", "slept", "well", "today"]]
        corpus = []
        for _ in range(60):
            for animal in ("cat", "dog"):
                tpl = contexts[rng.integers(3)]
                corpus.append([animal if t == "ANIMAL" else t for t in tpl])
            corpus.append(["heavy", "grey", "stone", "lay", "there"])
        vocab = build_vocab(corpus, min_count=1)
        table = train_skipgram(corpus, vocab, d=16, window=2, epochs=10, seed=4)

        def cos(a, b):
            return np.dot(a, b) / (np.linalg.norm(a) * np.linalg.norm(b))
        cat, dog, stone = (table.lookup(w) for w in ("cat", "dog", "stone"))
        assert cos(cat, dog) > cos(cat, stone)

    def test_zero_lr_keeps_initialization(self):
        corpus = [["a", "b", "c", "d"]]
        vocab = build_vocab(corpus, min_count=1)
        table = train_skipgram(corpus, vocab, d=8, epochs=1, lr=0.0, seed=7)
        rng = np.random.default_rng(7)
        expected = (rng.random((len(vocab), 8)) - 0.5) / 8
        np.testing.assert_array_equal(table.vectors, expected)

    def test_loss_decreases(self):
        rng = np.random.default_rng(5)
        corpus = [[f"w{rng.integers(12)}" for _ in range(6)] for _ in range(30)]
        vocab = build_vocab(corpus, min_count=1)
        table = train_skipgram(corpus, vocab, d=8, epochs=20, seed=5)
        assert table.training_losses[-1] < table.training_losses[0]

    def test_small_dimension_rejected(self):
        vocab = build_vocab([["a"]], min_count=1)
        with pytest.raises(ValueError):
            train_skipgram([["a"]], vocab, d=1)


class TestPersistence:
    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(6)
        vocab = Vocabulary(list(RESERVED) + ["alpha", "beta"])
        vecs = rng.normal(0, 1, (5, 4)).astype(np.float32).astype(np.float64)
        table = EmbeddingTable(vocab, vecs)
        path = tmp_path / "emb.bin"
        table.save(path)
        loaded = EmbeddingTable.load(path)
        assert loaded.vocab.index_to_token == vocab.index_to_token
        np.testing.assert_array_equal(loaded.vectors, vecs)

    def test_sidecar_written(self, tmp_path):
        vocab = Vocabulary(list(RESERVED) + ["x"])
        table = EmbeddingTable(vocab, np.zeros((4, 3)))
        path = tmp_path / "emb.bin"
        table.save(path)
        sidecar = tmp_path / "emb.bin.txt"
        assert sidecar.exists()
        assert sidecar.read_text().startswith(START)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"NOPE" + b"\x00" * 40)
        with pytest.raises(EmbeddingError):
            EmbeddingTable.load(path)

    @pytest.mark.parametrize("cut, match", [(6, "truncated header"),
                                            (30, "truncated token list"),
                                            (-1, "truncated embedding payload")])
    def test_truncated_file_rejected(self, tmp_path, cut, match):
        path = tmp_path / "emb.bin"
        EmbeddingTable(Vocabulary(list(RESERVED) + ["x"]), np.ones((4, 3))).save(path)
        path.write_bytes(path.read_bytes()[:cut])
        with pytest.raises(EmbeddingError, match=match):
            EmbeddingTable.load(path)

    def test_bad_utf8_rejected(self, tmp_path):
        path = tmp_path / "emb.bin"
        EmbeddingTable(Vocabulary(list(RESERVED) + ["x"]), np.ones((4, 3))).save(path)
        raw = bytearray(path.read_bytes())
        raw[-3 * 4 * 4 - 1] = 0xFF  # the last byte of the token "x"
        path.write_bytes(bytes(raw))
        with pytest.raises(EmbeddingError, match="not UTF-8"):
            EmbeddingTable.load(path)

    def test_missing_reserved_tokens_rejected(self):
        with pytest.raises(EmbeddingError, match="reserved tokens"):
            Vocabulary([START])
