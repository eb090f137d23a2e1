"""Vocabulary construction and skip-gram word embeddings.

The embedding table is trained once on the caption corpus with skip-gram
plus negative sampling; the decoder later regresses onto its rows and maps
regressed vectors back to words by nearest-neighbor lookup.
"""

from __future__ import annotations

import math
import os
import struct
import zlib
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .encoder import DataError

START = "<start>"
END = "<end>"
UNK = "<unk>"
RESERVED = (START, END, UNK)

_MAGIC = b"GEMB"
_VERSION = 1

_SKIPGRAM_LR = 0.025

_EPS = float(np.finfo(np.float64).eps)
_TINY = float(np.finfo(np.float64).smallest_subnormal)


@dataclass
class Vocabulary:
    """Bijective token <-> index mapping with reserved control tokens."""

    index_to_token: list[str]
    token_to_index: dict[str, int] = field(init=False)

    def __post_init__(self):
        self.token_to_index = {t: i for i, t in enumerate(self.index_to_token)}
        if len(self.token_to_index) != len(self.index_to_token):
            raise DataError("duplicate tokens in vocabulary")
        if self.index_to_token[:len(RESERVED)] != list(RESERVED):
            raise DataError(f"reserved tokens {RESERVED} must sit at indices "
                            f"0..{len(RESERVED) - 1}")

    def __len__(self):
        return len(self.index_to_token)

    def __contains__(self, token: str) -> bool:
        return token in self.token_to_index

    def encode(self, token: str) -> int:
        return self.token_to_index.get(token, self.token_to_index[UNK])

    def decode(self, index: int) -> str:
        return self.index_to_token[index]

    def encode_sequence(self, tokens: list[str]) -> list[int]:
        return [self.encode(t) for t in tokens]

    def content_hash(self) -> int:
        """Stable hash of the token list, for checkpoint compatibility checks."""
        return zlib.crc32("\x00".join(self.index_to_token).encode("utf-8"))


def build_vocab(corpus: list[list[str]], min_count: int = 1) -> Vocabulary:
    """Build a vocabulary from tokenized sentences.

    Tokens seen fewer than ``min_count`` times collapse to <unk>. Reserved
    tokens always occupy indices 0..2. A kept token may hold neither a NUL,
    which separates a saved table's tokens, nor a surrogate UTF-8 refuses.
    """
    if not corpus:
        raise DataError("empty corpus")
    counts = Counter()
    for sentence in corpus:
        counts.update(sentence)
    kept = sorted(t for t, c in counts.items()
                  if c >= min_count and t not in RESERVED)
    for t in kept:
        if "\x00" in t:
            raise DataError(f"token {t!r} holds a NUL, which a saved table cannot store")
        try:
            t.encode("utf-8")
        except UnicodeEncodeError:
            raise DataError(f"token {t!r} holds a surrogate, which UTF-8 cannot encode") from None
    return Vocabulary(list(RESERVED) + kept)


def skipgram_pairs(tokens: list, window: int) -> list[tuple]:
    """All (center, context) pairs within the window, clipped at boundaries."""
    if window < 1:
        raise ValueError("window must be >= 1")
    pairs = []
    n = len(tokens)
    for i in range(n):
        for j in range(max(0, i - window), min(n, i + window + 1)):
            if j != i:
                pairs.append((tokens[i], tokens[j]))
    return pairs


@dataclass
class EmbeddingTable:
    """|V| x d matrix of word vectors plus the vocabulary indexing it."""

    vocab: Vocabulary
    vectors: np.ndarray

    def __post_init__(self):
        # f64, which nearest_word's rounding bound assumes
        self.vectors = np.asarray(self.vectors, dtype=np.float64)
        if self.vectors.ndim != 2 or self.vectors.shape[1] < 1:
            raise DataError(f"embedding table must be |V| x d with d >= 1, "
                            f"got shape {self.vectors.shape}")
        if self.vectors.shape[0] != len(self.vocab):
            raise DataError("row count does not match vocabulary size")
        if not np.all(np.isfinite(self.vectors)):
            raise DataError("non-finite embedding values")
        # read-only, so the cached row norms always describe these rows
        self.vectors.setflags(write=False)

    @cached_property
    def sq_norms(self) -> np.ndarray:
        """Squared L2 norm of each row, computed on first use."""
        return np.einsum("ij,ij->i", self.vectors, self.vectors)

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]

    def save(self, path) -> None:
        """Binary layout: magic, version, |V|, d, token list, f32 rows."""
        tokens_blob = b"\x00".join(t.encode("utf-8") for t in self.vocab.index_to_token)
        with open(path, "wb") as fh:
            fh.write(_MAGIC)
            fh.write(struct.pack("<III", _VERSION, len(self.vocab), self.dim))
            fh.write(struct.pack("<I", len(tokens_blob)))
            fh.write(tokens_blob)
            fh.write(self.vectors.astype("<f4").tobytes())

    @classmethod
    def load(cls, path) -> "EmbeddingTable":
        """Read a table ``save`` wrote; any defect is a ``DataError``.

        Lengths the header declares are checked against the bytes left in
        the file before anything that size is read, and the payload must
        end the file.
        """
        with open(path, "rb") as fh:
            size = os.fstat(fh.fileno()).st_size
            if fh.read(4) != _MAGIC:
                raise DataError(f"{path}: bad magic in embedding file")
            header = fh.read(16)
            if len(header) != 16:
                raise DataError(f"{path}: truncated header")
            version, nv, d, blob_len = struct.unpack("<IIII", header)
            if version != _VERSION:
                raise DataError(f"{path}: unsupported embedding file version {version}")
            if d < 1:
                raise DataError(f"{path}: header declares d = {d}; a table needs d >= 1")
            if blob_len > size - fh.tell():
                raise DataError(f"{path}: truncated token list")
            blob = fh.read(blob_len)
            try:
                tokens = blob.decode("utf-8").split("\x00")
            except UnicodeDecodeError as e:
                raise DataError(f"{path}: token list is not UTF-8") from e
            if len(tokens) != nv:
                raise DataError(f"{path}: token list length disagrees with header")
            extra = size - fh.tell() - nv * d * 4
            if extra < 0:
                raise DataError(f"{path}: truncated embedding payload")
            if extra > 0:
                raise DataError(f"{path}: {extra} bytes after the embedding payload")
            payload = fh.read(nv * d * 4)
            vectors = np.frombuffer(payload, dtype="<f4").reshape(nv, d).astype(np.float64)
        try:
            return cls(Vocabulary(tokens), vectors)
        except DataError as e:
            raise DataError(f"{path}: {e}") from e


def nearest_word(v: np.ndarray, table: EmbeddingTable) -> str:
    """Token whose embedding row is closest to v in L2; ties break to lowest
    index. ``<start>`` (row 0) is never a decoding target and is skipped.

    One matrix-vector product against the cached squared row norms screens
    the table; only the rows it cannot separate from the best are scored by
    the exhaustive scan's expression, so the answer is that scan's.
    """
    v = np.asarray(v, dtype=np.float64)
    if v.shape != (table.dim,):
        raise ValueError(f"query dimension {v.shape} does not match table dim {table.dim}")
    if not np.all(np.isfinite(v)):
        raise ValueError("non-finite query vector")
    vectors = table.vectors
    # The screen ||e||^2 - 2 e.v is ||e - v||^2 - ||v||^2. It and the exact
    # expression each round to within (d + 2) eps r^2 / 2 of their true value,
    # r = max ||e|| + ||v||, plus at most 3d underflows of 2^-1075, in any
    # summation order. So a row the exact expression ranks first screens at
    # most 2 (d + 2) eps r^2 + 4d 2^-1074 above the screened minimum: tol is
    # twice that or more. With 4 r^2 finite no sum can overflow; past that,
    # every row is a candidate.
    r = math.sqrt(table.sq_norms.max()) + math.sqrt(v @ v)
    if math.isfinite(4 * r * r):
        tol = 8 * (table.dim + 2) * (_EPS * r * r + _TINY)
        s = vectors @ v
        s *= -2.0
        s += table.sq_norms
        s[0] = np.inf
        cand = np.flatnonzero(s <= s.min() + tol)
    else:
        cand = np.arange(1, len(vectors))
    d = ((vectors[cand] - v) ** 2).sum(axis=1)
    return table.vocab.decode(int(cand[np.argmin(d)]))


def train_skipgram(corpus: list[list[str]], vocab: Vocabulary, d: int = 64,
                   window: int = 2, epochs: int = 5, negatives: int = 5,
                   seed: int = 0) -> EmbeddingTable:
    """Skip-gram with negative sampling; returns the input matrix as the table.

    Sentences get <start>/<end> wrapped before pair extraction so both
    control tokens receive trained vectors. Each pair takes one SGD step of
    rate 0.025 on its loss; a target drawn twice gets both terms.
    """
    if d < 2:
        raise ValueError("embedding dimension must be >= 2")
    for name, value in (("negatives", negatives), ("epochs", epochs)):
        if value < 0:
            raise ValueError(f"{name} must be >= 0, got {value}")
    rng = np.random.default_rng(seed)
    nv = len(vocab)

    encoded = [[vocab.token_to_index[START]] + vocab.encode_sequence(s)
               + [vocab.token_to_index[END]] for s in corpus]
    pairs = []
    for sent in encoded:
        pairs.extend(skipgram_pairs(sent, window))
    if not pairs:
        raise DataError("no training pairs (corpus too short for the window)")
    pairs = np.asarray(pairs, dtype=np.int64)

    # unigram^0.75 noise as the CDF that rng.choice(nv, negatives, p=noise)
    # rebuilds per call; searching it draws the same negatives from the same stream
    freq = np.bincount(np.concatenate(encoded), minlength=nv).astype(np.float64)
    noise = freq ** 0.75
    noise /= noise.sum()
    cdf = noise.cumsum()
    cdf /= cdf[-1]

    w_in = (rng.random((nv, d)) - 0.5) / d
    w_out = np.zeros((nv, d))

    labels = np.zeros(negatives + 1)
    labels[0] = 1.0
    losses = []
    for _ in range(epochs):
        order = rng.permutation(len(pairs))
        # each pair's context, then its negatives: one draw of the whole
        # epoch's uniforms is the stream of one rng.random(negatives) per pair
        targets = np.empty((len(pairs), negatives + 1), np.int64)
        targets[:, 0] = pairs[order, 1]
        targets[:, 1:] = cdf.searchsorted(rng.random((len(pairs), negatives)), side="right")
        epoch_loss = 0.0
        for center, tgt in zip(pairs[order, 0], targets):
            h = w_in[center]
            rows = w_out[tgt]
            p = 1.0 / (1.0 + np.exp(-(rows @ h)))
            epoch_loss += -np.log(np.clip(np.where(labels == 1, p, 1 - p), 1e-12, None)).sum()
            err = p - labels
            grad_h = err @ rows
            np.subtract.at(w_out, tgt, _SKIPGRAM_LR * np.outer(err, h))
            w_in[center] -= _SKIPGRAM_LR * grad_h
        losses.append(epoch_loss / len(pairs))

    table = EmbeddingTable(vocab, w_in)
    table.training_losses = losses
    return table
