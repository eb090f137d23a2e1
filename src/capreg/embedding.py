"""Vocabulary construction and skip-gram word embeddings.

The embedding table is trained once on the caption corpus with skip-gram
plus negative sampling; the decoder later regresses onto its rows and maps
regressed vectors back to words by nearest-neighbor lookup.
"""

from __future__ import annotations

import math
import zlib
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .encoder import DataError, check_count, read_framed, write_framed

START = "<start>"
END = "<end>"
UNK = "<unk>"
RESERVED = (START, END, UNK)

_MAGIC = b"GEMB"

_SKIPGRAM_LR = 0.025

# eps, smallest subnormal and largest value of each dtype a table may hold
_ROUNDING = {np.dtype(t): (float(f.eps), float(f.smallest_subnormal), float(f.max))
             for t in (np.float32, np.float64) for f in [np.finfo(t)]}


@dataclass
class Vocabulary:
    """Bijective token <-> index mapping with reserved control tokens."""

    index_to_token: list[str]
    token_to_index: dict[str, int] = field(init=False)

    def __post_init__(self):
        if self.index_to_token[:len(RESERVED)] != list(RESERVED):
            raise DataError(f"reserved tokens {RESERVED} must sit at indices "
                            f"0..{len(RESERVED) - 1}")
        joined = "\x00".join(self.index_to_token)  # as content_hash joins them
        if joined.count("\x00") >= len(self.index_to_token):
            t = next(t for t in self.index_to_token if "\x00" in t)
            raise DataError(f"token {t!r} holds a NUL, on which the vocabulary hash joins tokens")
        try:
            joined.encode("utf-8")
        except UnicodeEncodeError as e:
            t = self.index_to_token[joined.count("\x00", 0, e.start)]
            raise DataError(f"token {t!r} holds a surrogate, which UTF-8 cannot encode") from None
        self.token_to_index = dict(zip(self.index_to_token, range(len(self.index_to_token))))
        if len(self.token_to_index) != len(self.index_to_token):
            raise DataError("duplicate tokens in vocabulary")

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
    tokens always occupy indices 0..2. A kept token may hold neither a NUL
    nor a surrogate UTF-8 refuses: ``Vocabulary.content_hash`` joins the
    tokens on NUL, so ``[..., "a\\x00b"]`` would hash as ``[..., "a", "b"]``.
    """
    if not corpus:
        raise DataError("empty corpus")
    counts = Counter()
    for sentence in corpus:
        counts.update(sentence)
    kept = sorted(t for t, c in counts.items()
                  if c >= min_count and t not in RESERVED)
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
    """|V| x d matrix of word vectors plus the vocabulary indexing it.

    float32 rows stay float32, as a loaded table's do; any other input
    becomes float64.
    """

    vocab: Vocabulary
    vectors: np.ndarray
    # the mean loss per pair of each epoch, where train_skipgram built the table
    training_losses: list[float] = field(default_factory=list)

    def __post_init__(self):
        self.vectors = np.asarray(self.vectors)
        if self.vectors.dtype != np.float32:
            self.vectors = self.vectors.astype(np.float64, copy=False)
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
    def _screen_norms(self) -> tuple[np.ndarray, float]:
        """Each row's squared L2 norm, computed in float64 and rounded to the
        table's dtype, and the largest row norm; computed on first use."""
        sq_norms = np.einsum("ij,ij->i", self.vectors, self.vectors, dtype=np.float64)
        return sq_norms.astype(self.vectors.dtype), math.sqrt(sq_norms.max())

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]

    def save(self, path) -> None:
        """The header holds ``dim`` and ``tokens``, the token list; the payload
        is the |V| x d rows as float32."""
        write_framed(path, _MAGIC, {"dim": self.dim, "tokens": self.vocab.index_to_token},
                     "<f4", [self.vectors])

    @classmethod
    def load(cls, path) -> "EmbeddingTable":
        """Read a table ``save`` wrote; any defect is a ``DataError``. The
        rows are the file's float32 values, in an aligned array of their own."""
        header, payload = read_framed(path, _MAGIC, "<f4", DataError)
        d, tokens = header.get("dim"), header.get("tokens")
        if type(d) is not int or d < 1:
            raise DataError(f"{path}: header declares d = {d!r}; a table needs d >= 1")
        if not isinstance(tokens, list):
            raise DataError(f"{path}: header tokens must be a list of strings")
        check_count(path, payload, len(tokens) * d, DataError)
        try:
            return cls(Vocabulary(tokens), payload.reshape(len(tokens), d))
        except (DataError, TypeError) as e:  # a TypeError: a token that is not a string
            raise DataError(f"{path}: {e}") from e


def nearest_word(v: np.ndarray, table: EmbeddingTable) -> str:
    """Token whose embedding row is closest to v in L2; ties break to lowest
    index. ``<start>`` (row 0) is never a decoding target and is skipped.

    One matrix-vector product in the table's dtype screens the table
    (``_screen``); only the rows it cannot separate from the best are scored
    by the exhaustive float64 scan's expression, so the answer is that scan's.
    """
    v = np.asarray(v, dtype=np.float64)
    if v.shape != (table.dim,):
        raise ValueError(f"query dimension {v.shape} does not match table dim {table.dim}")
    if not np.all(np.isfinite(v)):
        raise ValueError("non-finite query vector")
    cand = _screen(v, table)
    d = ((table.vectors[cand] - v) ** 2).sum(axis=1)
    return table.vocab.decode(int(cand[np.argmin(d)]))


def _screen(v: np.ndarray, table: EmbeddingTable) -> np.ndarray:
    """Indices, ascending, of the rows past row 0 that may lie nearest to
    the finite float64 query v: every row the exact expression ranks first
    is among them."""
    vectors = table.vectors
    sq_norms, max_norm = table._screen_norms
    eps, tiny, largest = _ROUNDING[vectors.dtype]
    # The screen s = ||e||^2 + e.u, where u is -2v rounded to the table's
    # dtype T, is ||e - v||^2 - ||v||^2 up to rounding. Let r = max ||e|| +
    # ||v||, and eps and tiny be T's eps and smallest subnormal. With 4 r^2
    # below T's largest value no step overflows, and in any summation order:
    # - the float64 ||e||^2 and the dot product in T round within d eps / 2 of
    #   ||e||^2 + 2 ||e|| ||v|| <= r^2; the sum, and for a float32 table the
    #   rounding of ||e||^2 to T, add eps r^2 / 2 each: (d + 2) eps r^2 / 2;
    # - the rounding of -2v, q = u + 2v (exact, and 0 for float64), moves
    #   e.u by at most ||e|| ||q|| (1 + d eps) <= 2 r ||q||;
    # - underflow adds at most d + 1 halves of tiny and d of float64's;
    # - the exact expression rounds within (d + 2) eps_64 r^2 / 2 plus d
    #   halves of float64's subnormal.
    # So a row the exact expression ranks first screens at most
    # 2 (d + 2) eps r^2 + 4 r ||q|| + (3d + 1) tiny above the screened
    # minimum: tol is twice that or more, which also covers the rounding of
    # the threshold to T (eps r^2 / 2). Past 4 r^2, every row is a candidate.
    r = max_norm + math.sqrt(v @ v)
    if not 4 * r * r < largest:
        return np.arange(1, len(vectors))
    w = -2.0 * v
    u = w.astype(vectors.dtype, copy=False)
    q = u - w
    tol = 8 * (table.dim + 2) * (eps * r * r + tiny) + 8 * r * math.sqrt(q @ q)
    s = vectors @ u
    s += sq_norms
    s[0] = np.inf
    return np.flatnonzero(s <= s.min() + tol)


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

    freq = np.bincount(np.concatenate(encoded), minlength=nv).astype(np.float64)
    noise = freq ** 0.75
    noise /= noise.sum()

    w_in = (rng.random((nv, d)) - 0.5) / d
    w_out = np.zeros((nv, d))

    labels = np.zeros(negatives + 1)
    labels[0] = 1.0
    losses = []
    for _ in range(epochs):
        order = rng.permutation(len(pairs))
        targets = np.empty((len(pairs), negatives + 1), np.int64)
        targets[:, 0] = pairs[order, 1]
        targets[:, 1:] = rng.choice(nv, (len(pairs), negatives), p=noise)
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

    return EmbeddingTable(vocab, w_in, losses)
