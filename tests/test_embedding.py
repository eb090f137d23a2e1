import struct
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
            # row 0 (<start>) is skipped, so its first copy, row 103, wins
            assert nearest_word(vecs[i + 103 * 7], table) == table.vocab.decode(i or 103)

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

    def test_save_writes_one_file(self, tmp_path):
        vocab = Vocabulary(list(RESERVED) + ["x"])
        table = EmbeddingTable(vocab, np.zeros((4, 3)))
        table.save(tmp_path / "emb.bin")
        assert [p.name for p in tmp_path.iterdir()] == ["emb.bin"]

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

    def test_payload_larger_than_file_rejected(self, tmp_path):
        path = tmp_path / "emb.bin"
        raw = emb_bytes(list(RESERVED) + ["x"], d=2**30, values=[])
        path.write_bytes(raw + bytes(64 - len(raw)))
        assert path.stat().st_size == 64
        with pytest.raises(EmbeddingError, match="truncated embedding payload"):
            EmbeddingTable.load(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        path = tmp_path / "emb.bin"
        EmbeddingTable(Vocabulary(list(RESERVED) + ["x"]), np.ones((4, 3))).save(path)
        path.write_bytes(path.read_bytes() + b"\x00" * 12)
        with pytest.raises(EmbeddingError, match="emb.bin: 12 bytes after the embedding payload"):
            EmbeddingTable.load(path)

    def test_token_list_longer_than_file_rejected(self, tmp_path):
        path = tmp_path / "emb.bin"
        path.write_bytes(emb_bytes(list(RESERVED), d=1, blob_len=2**32 - 1))
        with pytest.raises(EmbeddingError, match="truncated token list"):
            EmbeddingTable.load(path)

    def test_zero_dimension_rejected(self, tmp_path):
        with pytest.raises(EmbeddingError, match="d >= 1"):
            EmbeddingTable(Vocabulary(list(RESERVED)), np.zeros((3, 0)))
        path = tmp_path / "emb.bin"
        path.write_bytes(emb_bytes(list(RESERVED) + ["x"], d=0))
        with pytest.raises(EmbeddingError, match="emb.bin: .*d >= 1"):
            EmbeddingTable.load(path)

    def test_missing_reserved_tokens_rejected(self):
        with pytest.raises(EmbeddingError, match="reserved tokens"):
            Vocabulary([START])


def emb_bytes(tokens, d, values=None, nv=None, blob_len=None, version=1,
              magic=b"GEMB") -> bytes:
    """An embedding ``.bin`` as ``EmbeddingTable.save`` lays it out, with
    header fields that may disagree with the token list and the values."""
    blob = b"\x00".join(t.encode("utf-8") for t in tokens)
    if values is None:
        values = np.arange(len(tokens) * d, dtype=np.float64)
    return (magic + struct.pack("<IIII", version, len(tokens) if nv is None else nv, d,
                                len(blob) if blob_len is None else blob_len)
            + blob + np.asarray(values, "<f4").tobytes())


_HEADER_SIZES = st.sampled_from([0, 1, 2, 3, 5, 2**16, 2**30, 2**31, 2**32 - 1])


@st.composite
def _embedding_files(draw):
    """A valid embedding file, then one corruption."""
    words = draw(st.lists(st.text("abcxyz", min_size=1, max_size=4), max_size=4,
                          unique=True))
    tokens = list(RESERVED) + words
    d = draw(st.integers(1, 4))
    values = draw(st.lists(st.floats(-1e3, 1e3, width=32), min_size=len(tokens) * d,
                           max_size=len(tokens) * d))
    raw = emb_bytes(tokens, d, values)
    kind = draw(st.sampled_from(["none", "truncate", "flip", "magic", "version", "nv",
                                 "d", "blob_len", "token_count", "non_utf8",
                                 "trailing"]))
    if kind == "truncate":
        return raw[:draw(st.integers(0, len(raw) - 1))]
    if kind == "flip":
        bit = draw(st.integers(0, 8 * len(raw) - 1))
        blob = bytearray(raw)
        blob[bit // 8] ^= 1 << (bit % 8)
        return bytes(blob)
    if kind == "magic":
        magic = draw(st.binary(min_size=4, max_size=4).filter(lambda m: m != b"GEMB"))
        return magic + raw[4:]
    if kind == "version":
        version = draw(st.integers(0, 2**32 - 1).filter(lambda v: v != 1))
        return emb_bytes(tokens, d, values, version=version)
    if kind == "nv":
        return emb_bytes(tokens, d, values, nv=draw(_HEADER_SIZES))
    if kind == "d":
        return emb_bytes(tokens, draw(_HEADER_SIZES), values)
    if kind == "blob_len":
        return emb_bytes(tokens, d, values, blob_len=draw(_HEADER_SIZES))
    if kind == "token_count":
        # one token more or fewer than the header's |V|, the header otherwise valid
        extra = draw(st.booleans())
        listed = tokens + ["extra"] if extra else tokens[:-1]
        return emb_bytes(listed, d, values, nv=len(tokens))
    if kind == "non_utf8":
        blob = bytearray(raw)
        at = draw(st.integers(20, 20 + len(b"\x00".join(t.encode() for t in tokens)) - 1))
        blob[at] = draw(st.sampled_from([0x80, 0xC3, 0xFF]))
        return bytes(blob)
    if kind == "trailing":
        return raw + draw(st.binary(min_size=1, max_size=16))
    return raw


@given(raw=_embedding_files())
@settings(max_examples=400, derandomize=True, deadline=None)
def test_load_fuzz(tmp_path_factory, raw):
    """A corrupt embedding file only ever raises EmbeddingError."""
    path = tmp_path_factory.getbasetemp() / "fuzz.bin"
    path.write_bytes(raw)
    try:
        table = EmbeddingTable.load(path)
    except EmbeddingError:
        return
    assert table.vectors.shape == (len(table.vocab), table.dim)
    assert table.dim >= 1
    assert np.all(np.isfinite(table.vectors))
