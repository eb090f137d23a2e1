import dataclasses
import functools
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from capreg.embedding import (END, RESERVED, START, UNK, EmbeddingTable,
                              Vocabulary, _screen, build_vocab, nearest_word,
                              skipgram_pairs, train_skipgram)
from capreg.encoder import DataError

from test_encoder import _SIZES, _f4, framed_bytes, framing_corruptions


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
        with pytest.raises(DataError):
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
        assert nearest_word(table.vectors[table.vocab.encode("b")], table) == "b"

    def test_dominant_component(self):
        table = _orthonormal_table(["w1", "w2", "w3"], 6)
        w1, w2 = (table.vectors[table.vocab.encode(w)] for w in ("w1", "w2"))
        v = w2 + 0.01 * w1
        assert nearest_word(v, table) == "w2"

    def test_dimension_mismatch(self):
        table = _orthonormal_table(["a"], 4)
        with pytest.raises(ValueError, match="query dimension"):
            nearest_word(np.zeros(5), table)

    def test_matches_linear_scan_oracle(self):
        rng = np.random.default_rng(2)
        vocab = Vocabulary(list(RESERVED) + [f"w{i}" for i in range(40)])
        table = EmbeddingTable(vocab, rng.normal(0, 1, (len(vocab), 8)))
        for _ in range(100):
            v = rng.normal(0, 1, 8)
            # every row but <start>'s, which is never a decoding target
            dists = [((row - v) ** 2).sum() for row in table.vectors[1:]]
            expected = vocab.decode(1 + int(np.argmin(dists)))
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
    """Oracle: the exhaustive L2 scan over every row but <start>'s (row 0),
    first minimum wins."""
    d = ((table.vectors[1:] - np.asarray(v, dtype=np.float64)) ** 2).sum(axis=1)
    return table.vocab.decode(1 + int(np.argmin(d)))


@functools.cache
def _wide_table(dtype):
    """A 20,003 x 64 table, the size of the paper's vocabulary."""
    rng = np.random.default_rng(11)
    vocab = Vocabulary(list(RESERVED) + [f"w{i}" for i in range(20000)])
    return EmbeddingTable(vocab, rng.normal(0, 1, (len(vocab), 64)).astype(dtype))


@pytest.fixture(scope="module", params=[np.float64, np.float32],
                ids=["float64", "float32"])
def wide_table(request):
    """The wide table in float64 and in float32, the dtype a loaded table keeps."""
    return _wide_table(request.param)


# per dtype: r^2 subnormal; rows (float32) or the tolerance's eps r^2
# (float64) subnormal; 4 r^2 near (float64) or past (float32) the largest value
_SCALES = {np.float64: {"subnormal": 1e-160, "underflow": 1e-150, "overflow": 1e150},
           np.float32: {"subnormal": 1e-20, "underflow": 1e-40, "overflow": 1e18}}


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
            # row 0 (<start>) is skipped, so its first copy, row 103, wins
            assert nearest_word(vecs[i + 103 * 7], table) == table.vocab.decode(i or 103)

    @pytest.mark.parametrize("scale", ["subnormal", "underflow", "overflow"])
    def test_scaled_tables(self, wide_table, scale):
        scale = _SCALES[wide_table.vectors.dtype.type][scale]
        table = EmbeddingTable(wide_table.vocab, wide_table.vectors * scale)
        assert table.vectors.dtype == wide_table.vectors.dtype
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
        with pytest.raises(ValueError, match="non-finite query"):
            nearest_word(v, table)

    def test_vectors_read_only(self):
        table = _orthonormal_table(["a", "b"], 4)
        nearest_word(table.vectors[table.vocab.encode("a")], table)
        with pytest.raises(ValueError):
            table.vectors[3] = 0.0

    def test_screen_narrows_the_search(self, wide_table):
        rng = np.random.default_rng(18)
        counts = [len(_screen(v, wide_table)) for v in rng.normal(0, 1, (300, 64))]
        assert max(counts) <= 3


class TestFloat32Screen:
    """Edge cases of a float32 table, where the screen's rounding is float32's."""

    def test_rows_one_ulp_apart(self):
        # each pair (i, j) differs in one component by one float32 ulp; the
        # float64 midpoint ties to i, and one float64 ulp either way decides it
        rng = np.random.default_rng(19)
        vecs = _wide_table(np.float32).vectors.copy()
        pairs = rng.choice(np.arange(1, len(vecs)), (40, 2), replace=False)
        pairs.sort(axis=1)
        ks = rng.integers(0, 64, len(pairs))
        for (i, j), k in zip(pairs, ks):
            vecs[j] = vecs[i]
            vecs[j, k] = np.nextafter(vecs[i, k], np.float32(np.inf))
        table = EmbeddingTable(_wide_table(np.float32).vocab, vecs)
        for (i, j), k in zip(pairs, ks):
            mid = (vecs[i].astype(np.float64) + vecs[j]) / 2
            above, below = mid.copy(), mid.copy()
            above[k] = np.nextafter(mid[k], np.inf)
            below[k] = np.nextafter(mid[k], -np.inf)
            for v, row in ((mid, i), (above, j), (below, i)):
                assert nearest_word(v, table) == _full_scan(v, table) == table.vocab.decode(row)

    @pytest.mark.parametrize("norm", [1e20, 1e39])
    def test_huge_query_falls_back_to_full_scan(self, norm):
        # 4 r^2 leaves the float32 range though the query is a finite float64
        table = _wide_table(np.float32)
        rng = np.random.default_rng(20)
        for _ in range(5):
            v = rng.normal(0, 1, 64)
            v *= norm / np.linalg.norm(v)
            assert len(_screen(v, table)) == len(table.vocab) - 1
            assert nearest_word(v, table) == _full_scan(v, table)

    def test_overflowing_table_falls_back_to_full_scan(self):
        wide = _wide_table(np.float32)
        table = EmbeddingTable(wide.vocab, wide.vectors * 1e18)
        v = table.vectors[7].astype(np.float64)
        assert len(_screen(v, table)) == len(table.vocab) - 1
        assert nearest_word(v, table) == table.vocab.decode(7)

    def test_float32_kept_other_inputs_become_float64(self):
        vocab = Vocabulary(list(RESERVED) + ["x"])
        rows = np.arange(8).reshape(4, 2)
        assert EmbeddingTable(vocab, rows.astype(np.float32)).vectors.dtype == np.float32
        for other in (rows, rows.astype(np.float16), rows.tolist(), rows.astype(">f4")):
            table = EmbeddingTable(vocab, other)
            assert table.vectors.dtype == np.float64
            np.testing.assert_array_equal(table.vectors, rows)


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
        cat, dog, stone = (table.vectors[table.vocab.encode(w)]
                           for w in ("cat", "dog", "stone"))
        assert cos(cat, dog) > cos(cat, stone)

    def test_zero_epochs_keeps_initialization(self):
        corpus = [["a", "b", "c", "d"]]
        vocab = build_vocab(corpus, min_count=1)
        table = train_skipgram(corpus, vocab, d=8, epochs=0, seed=7)
        rng = np.random.default_rng(7)
        expected = (rng.random((len(vocab), 8)) - 0.5) / 8
        np.testing.assert_array_equal(table.vectors, expected)

    def test_loss_decreases(self):
        rng = np.random.default_rng(5)
        corpus = [[f"w{rng.integers(12)}" for _ in range(6)] for _ in range(30)]
        vocab = build_vocab(corpus, min_count=1)
        table = train_skipgram(corpus, vocab, d=8, epochs=20, seed=5)
        assert table.training_losses[-1] < table.training_losses[0]

    def test_training_losses_a_declared_field(self, tmp_path):
        # one loss per epoch where train_skipgram built the table; a table
        # built any other way has none
        vocab = build_vocab([["a", "b"]], min_count=1)
        assert "training_losses" in {f.name for f in dataclasses.fields(EmbeddingTable)}
        table = train_skipgram([["a", "b"]], vocab, d=4, epochs=3, seed=1)
        assert len(table.training_losses) == 3
        table.save(tmp_path / "e.bin")
        assert EmbeddingTable.load(tmp_path / "e.bin").training_losses == []
        assert EmbeddingTable(vocab, table.vectors).training_losses == []

    def test_small_dimension_rejected(self):
        vocab = build_vocab([["a"]], min_count=1)
        with pytest.raises(ValueError):
            train_skipgram([["a"]], vocab, d=1)

    def test_negatives_as_generator_choice_draws_them(self):
        # a Zipf corpus, so the noise distribution is far from uniform
        rng = np.random.default_rng(11)
        corpus = [[f"w{min(int(z), 60)}" for z in rng.zipf(1.3, rng.integers(3, 9))]
                  for _ in range(60)]
        vocab = build_vocab(corpus, min_count=1)
        kwargs = dict(d=16, window=2, epochs=2, negatives=5, seed=3)
        table = train_skipgram(corpus, vocab, **kwargs)
        vectors, losses = _skipgram_choice_oracle(corpus, vocab, **kwargs)
        assert np.array_equal(table.vectors, vectors)
        assert table.training_losses == losses

    def test_dense_pair_gradient_matches_finite_differences(self):
        # the targets repeat the context and each other
        rng = np.random.default_rng(12)
        w_in, w_out = rng.normal(0, 1, (5, 3)), rng.normal(0, 1, (5, 3))
        targets = np.array([2, 2, 4, 2, 4, 1])

        def loss(w_in, w_out):
            return _sgns_pair_loss(w_in, w_out, 3, targets)
        g_in, g_out = _sgns_dense_grads(w_in, w_out, 3, targets)
        for w, g in ((w_in, g_in), (w_out, g_out)):
            fd = np.zeros_like(w)
            for idx in np.ndindex(w.shape):
                old = w[idx]
                w[idx] = old + 1e-6
                up = loss(w_in, w_out)
                w[idx] = old - 1e-6
                fd[idx] = (up - loss(w_in, w_out)) / 2e-6
                w[idx] = old
            np.testing.assert_allclose(g, fd, atol=1e-8)

    def test_repeated_targets_get_every_term(self):
        # four words of noise and five negatives: every pair's negatives
        # repeat each other, and many repeat the pair's context
        corpus = [["a", "b"]]
        vocab = build_vocab(corpus, min_count=1)
        kwargs = dict(d=8, window=2, epochs=3, negatives=5, seed=6)
        table = train_skipgram(corpus, vocab, **kwargs)
        seen = []

        def dense_step(w_in, w_out, center, targets):
            seen.append(targets)
            g_in, g_out = _sgns_dense_grads(w_in, w_out, center, targets)
            w_in -= SKIPGRAM_LR * g_in
            w_out -= SKIPGRAM_LR * g_out
        vectors, losses = _skipgram_choice_oracle(corpus, vocab, step=dense_step, **kwargs)
        assert any(t[0] in t[1:] for t in seen)
        assert all(len(set(t[1:])) < len(t) - 1 for t in seen)
        np.testing.assert_allclose(table.vectors, vectors, rtol=0, atol=1e-15)
        np.testing.assert_allclose(table.training_losses, losses, rtol=1e-13)

        def last_row_wins(w_in, w_out, center, targets):
            # a fancy-index update keeps one term per repeated target
            ds = _sgns_score_grads(w_in, w_out, center, targets)
            grad_h = ds @ w_out[targets]
            w_out[targets] -= SKIPGRAM_LR * np.outer(ds, w_in[center])
            w_in[center] -= SKIPGRAM_LR * grad_h
        dropped, _ = _skipgram_choice_oracle(corpus, vocab, step=last_row_wins, **kwargs)
        assert np.max(np.abs(dropped - vectors)) > 1e-6


SKIPGRAM_LR = 0.025


def _sgns_score_grads(w_in, w_out, center, targets):
    """d loss / d score of each target, the first being the positive."""
    sign = np.where(np.arange(len(targets)) == 0, 1.0, -1.0)
    scores = w_out[targets] @ w_in[center]
    return -sign / (1.0 + np.exp(sign * scores))


def _sgns_pair_loss(w_in, w_out, center, targets):
    """-log s(u_c . h) - sum_n log s(-u_n . h) of one pair, h = w_in[center]."""
    sign = np.where(np.arange(len(targets)) == 0, 1.0, -1.0)
    return float(np.log1p(np.exp(-sign * (w_out[targets] @ w_in[center]))).sum())


def _sgns_dense_grads(w_in, w_out, center, targets):
    """One pair's loss gradients over the whole of ``w_in`` and ``w_out``,
    through one-hot selection matrices: a target drawn k times gets the sum
    of its k terms."""
    pick_out = np.eye(len(w_out))[targets]            # (targets, |V|)
    pick_in = np.eye(len(w_in))[[center]]             # (1, |V|)
    ds = _sgns_score_grads(w_in, w_out, center, targets)
    h = pick_in @ w_in                                # (1, d)
    return pick_in.T @ (ds @ pick_out @ w_out)[None], pick_out.T @ (ds[:, None] * h)


def _skipgram_choice_oracle(corpus, vocab, d, window, epochs, negatives, seed, step=None):
    """``train_skipgram`` drawing each pair's negatives with
    ``rng.choice(nv, size=negatives, p=noise)``, which rebuilds the noise
    CDF on every call. ``step(w_in, w_out, center, targets)``, if given,
    updates the two matrices in place of the pair's SGD step."""
    rng = np.random.default_rng(seed)
    nv = len(vocab)
    encoded = [[vocab.token_to_index[START]] + vocab.encode_sequence(s)
               + [vocab.token_to_index[END]] for s in corpus]
    pairs = np.asarray([p for sent in encoded for p in skipgram_pairs(sent, window)],
                       dtype=np.int64)
    freq = np.bincount(np.concatenate(encoded), minlength=nv).astype(np.float64)
    noise = freq ** 0.75
    noise /= noise.sum()
    w_in = (rng.random((nv, d)) - 0.5) / d
    w_out = np.zeros((nv, d))
    losses = []
    for _ in range(epochs):
        epoch_loss = 0.0
        for center, context in pairs[rng.permutation(len(pairs))]:
            targets = np.concatenate(([context], rng.choice(nv, size=negatives, p=noise)))
            labels = np.zeros(negatives + 1)
            labels[0] = 1.0
            h = w_in[center]
            p = 1.0 / (1.0 + np.exp(-(w_out[targets] @ h)))
            epoch_loss += -np.log(np.clip(np.where(labels == 1, p, 1 - p), 1e-12, None)).sum()
            if step is not None:
                step(w_in, w_out, center, targets)
                continue
            err = p - labels
            grad_h = err @ w_out[targets]
            np.subtract.at(w_out, targets, SKIPGRAM_LR * np.outer(err, h))
            w_in[center] -= SKIPGRAM_LR * grad_h
        losses.append(epoch_loss / len(pairs))
    return w_in, losses


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
        # the file's float32 rows, in an aligned array numpy allocated (a
        # view of the reader's payload), not a view of the file's bytes
        owner = loaded.vectors if loaded.vectors.base is None else loaded.vectors.base
        assert loaded.vectors.dtype == np.float32
        assert owner.flags.owndata and loaded.vectors.flags.aligned
        assert loaded.vectors.ctypes.data % loaded.vectors.itemsize == 0
        assert not loaded.vectors.flags.writeable

    def test_save_writes_one_file(self, tmp_path):
        vocab = Vocabulary(list(RESERVED) + ["x"])
        table = EmbeddingTable(vocab, np.zeros((4, 3)))
        table.save(tmp_path / "emb.bin")
        assert [p.name for p in tmp_path.iterdir()] == ["emb.bin"]

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"NOPE" + b"\x00" * 40)
        with pytest.raises(DataError):
            EmbeddingTable.load(path)

    @pytest.mark.parametrize("cut, match", [(6, "no GEMB header"), (30, "truncated header"),
                                            (-1, "truncated or padded payload"),
                                            (-4, "checksum mismatch")])
    def test_truncated_file_rejected(self, tmp_path, cut, match):
        path = tmp_path / "emb.bin"
        EmbeddingTable(Vocabulary(list(RESERVED) + ["x"]), np.ones((4, 3))).save(path)
        path.write_bytes(path.read_bytes()[:cut])
        with pytest.raises(DataError, match=match):
            EmbeddingTable.load(path)

    def test_bad_utf8_rejected(self, tmp_path):
        path = tmp_path / "emb.bin"
        path.write_bytes(framed_bytes(b"GEMB", b'{"dim": 1, "tokens": ["\xff"]}'))
        with pytest.raises(DataError, match="emb.bin: header: not UTF-8"):
            EmbeddingTable.load(path)

    def test_payload_larger_than_file_rejected(self, tmp_path):
        path = tmp_path / "emb.bin"
        path.write_bytes(framed_bytes(b"GEMB", {"dim": 2**30, "tokens": [*RESERVED, "x"]},
                                      bytes(64)))
        with pytest.raises(DataError, match="truncated payload: the header declares"):
            EmbeddingTable.load(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        path = tmp_path / "emb.bin"
        path.write_bytes(framed_bytes(b"GEMB", {"dim": 3, "tokens": [*RESERVED, "x"]},
                                      bytes(4 * 3 * 4 + 12)))
        with pytest.raises(DataError, match="emb.bin: 12 bytes after"):
            EmbeddingTable.load(path)

    def test_header_longer_than_file_rejected(self, tmp_path):
        path = tmp_path / "emb.bin"
        raw = bytearray(framed_bytes(b"GEMB", {"dim": 1, "tokens": list(RESERVED)}, bytes(12)))
        raw[8:12] = (2**32 - 1).to_bytes(4, "little")
        path.write_bytes(bytes(raw))
        with pytest.raises(DataError, match="truncated header"):
            EmbeddingTable.load(path)

    def test_zero_dimension_rejected(self, tmp_path):
        with pytest.raises(DataError, match="d >= 1"):
            EmbeddingTable(Vocabulary(list(RESERVED)), np.zeros((3, 0)))
        path = tmp_path / "emb.bin"
        path.write_bytes(framed_bytes(b"GEMB", {"dim": 0, "tokens": [*RESERVED, "x"]}))
        with pytest.raises(DataError, match="emb.bin: .*d >= 1"):
            EmbeddingTable.load(path)

    @pytest.mark.parametrize("tokens, match", [
        ("<start><end><unk>", "tokens must be a list"), (None, "tokens must be a list"),
        ([*RESERVED, 5], "expected str instance"), ([*RESERVED, "a", "a"], "duplicate"),
        ([*RESERVED, "a\x00b"], "holds a NUL"), ([*RESERVED, "a\ud800"], "holds a surrogate")],
        ids=["string", "none", "number", "duplicate", "nul", "surrogate"])
    def test_bad_token_list_rejected(self, tmp_path, tokens, match):
        # a NUL token would hash as two, a surrogate not at all
        path = tmp_path / "emb.bin"
        n = len(tokens) if isinstance(tokens, list) else 0
        path.write_bytes(framed_bytes(b"GEMB", {"dim": 1, "tokens": tokens}, bytes(4 * n)))
        with pytest.raises(DataError, match=f"emb.bin: .*{match}"):
            EmbeddingTable.load(path)

    def test_missing_reserved_tokens_rejected(self):
        with pytest.raises(DataError, match="reserved tokens"):
            Vocabulary([START])


@st.composite
def _embedding_files(draw):
    """A valid embedding file, then one corruption of its framing or header."""
    words = draw(st.lists(st.text("abcxyz", min_size=1, max_size=4), max_size=4,
                          unique=True))
    header = {"dim": draw(st.integers(1, 4)), "tokens": list(RESERVED) + words}
    n = len(header["tokens"]) * header["dim"]
    values = draw(st.lists(st.floats(-1e3, 1e3, width=32), min_size=n, max_size=n))
    kind = draw(st.sampled_from(["none", "framing", "framing", "dim", "tokens",
                                 "token_count", "non-finite"]))
    if kind == "framing":
        return draw(framing_corruptions(framed_bytes(b"GEMB", header, _f4(values))))
    if kind == "dim":
        header["dim"] = draw(st.one_of(_SIZES, st.sampled_from([-1, True, 1.5, "2", None])))
    elif kind == "tokens":
        header["tokens"] = draw(st.one_of(
            st.sampled_from([None, 3, "abc", {}, [], list(RESERVED[:2])]),
            st.builds(lambda t: [*RESERVED, t], st.one_of(
                st.sampled_from([1, None, ["a"], "a\x00b", "\ud800", RESERVED[0]]),
                st.text(max_size=3)))))
    elif kind == "token_count":
        # one token more or fewer than the payload's rows
        extra = draw(st.booleans())
        header["tokens"] = header["tokens"] + ["extra"] if extra else header["tokens"][:-1]
    elif kind == "non-finite":
        values[draw(st.integers(0, n - 1))] = draw(st.sampled_from([np.nan, np.inf, -np.inf]))
    return framed_bytes(b"GEMB", header, _f4(values))


@given(raw=_embedding_files())
@settings(max_examples=400, derandomize=True, deadline=None)
def test_load_fuzz(tmp_path_factory, raw):
    """A corrupt embedding file only ever raises DataError."""
    path = tmp_path_factory.getbasetemp() / "fuzz.bin"
    path.write_bytes(raw)
    try:
        table = EmbeddingTable.load(path)
    except DataError:
        return
    assert table.vectors.shape == (len(table.vocab), table.dim)
    assert table.dim >= 1
    assert np.all(np.isfinite(table.vectors))
