"""Stacked LSTM caption decoder.

Layer 0 consumes the concatenation of the previous word embedding and the
attention context; each deeper layer consumes the hidden output of the layer
below. The output head is either a linear regression onto the word embedding
space or a softmax layer over the vocabulary. Dropout (inverted) is applied
to every layer's hidden output in training mode only.

Training runs each caption layer by layer over all of its T steps: one
attention node, one node per LSTM layer, one head node and one loss node.
Decoding runs the same ops one step (T = 1) at a time, carrying each layer's
``[h; c]``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .attention import AttentionParams, attend_matrix
from .embedding import EmbeddingTable, START, END, nearest_word
from .encoder import AnnotationSet

REGRESSION = "regression"
SOFTMAX = "softmax"


@dataclass
class LSTMLayerParams:
    """One layer's gate weights, packed (input, forget, output, candidate)."""

    w_x: Tensor  # (4*hidden, input_dim)
    w_h: Tensor  # (4*hidden, hidden)
    b: Tensor    # (4*hidden,)

    @classmethod
    def init(cls, input_dim: int, hidden: int, rng: np.random.Generator,
             layer_index: int = 0, dtype=np.float64) -> "LSTMLayerParams":
        b = np.zeros(4 * hidden, dtype)
        b[hidden:2 * hidden] = 1.0  # forget-gate bias opens the cell path early
        return cls(
            w_x=Tensor(ad.xavier_uniform(rng, input_dim, hidden, (4 * hidden, input_dim), dtype),
                       requires_grad=True, name=f"lstm{layer_index}.w_x"),
            w_h=Tensor(ad.xavier_uniform(rng, hidden, hidden, (4 * hidden, hidden), dtype),
                       requires_grad=True, name=f"lstm{layer_index}.w_h"),
            b=Tensor(b, requires_grad=True, name=f"lstm{layer_index}.b"),
        )

    @property
    def hidden(self) -> int:
        return self.w_h.shape[1]

    def tensors(self) -> list[Tensor]:
        return [self.w_x, self.w_h, self.b]


@dataclass
class OutputHead:
    kind: str       # REGRESSION or SOFTMAX
    w: Tensor       # (out_dim, hidden)
    b: Tensor       # (out_dim,)

    @classmethod
    def init(cls, kind: str, hidden: int, out_dim: int,
             rng: np.random.Generator, dtype=np.float64) -> "OutputHead":
        if kind not in (REGRESSION, SOFTMAX):
            raise ValueError(f"unknown head kind {kind!r}")
        return cls(kind,
                   w=Tensor(ad.xavier_uniform(rng, hidden, out_dim, (out_dim, hidden), dtype),
                            requires_grad=True, name="head.w"),
                   b=Tensor(np.zeros(out_dim, dtype), requires_grad=True, name="head.b"))

    def apply(self, hidden: Tensor) -> Tensor:
        """The head's outputs for the (T, hidden) rows of the top layer."""
        return ad.linear(hidden, self.w, self.b)

    def tensors(self) -> list[Tensor]:
        return [self.w, self.b]


def lstm_step(x: Tensor, state: np.ndarray, params: LSTMLayerParams,
              mask: np.ndarray | None = None) -> tuple[Tensor, np.ndarray]:
    """Standard LSTM layer over the T input rows of ``x``, as one ``ad.lstm``
    node: training calls it once per layer per caption, decoding once per
    layer per token. ``state`` is the layer's ``[h; c]`` before the first
    row and ``mask`` an optional (T, hidden) dropout mask on the output.
    Returns (the T hidden rows, the ``[h; c]`` after the last row)."""
    return ad.lstm(x, state, params.w_x, params.w_h, params.b, mask)


@dataclass
class CaptionModel:
    """Full trainable decoder: stacked LSTM trunk, attention, output head.

    The parameters are built in one dtype (``precision`` "f64" or "f32"),
    and the model casts every array it feeds the graph to that dtype.
    """

    layers: list[LSTMLayerParams]
    attention: AttentionParams
    head: OutputHead
    embedding: EmbeddingTable
    dropout_rate: float = 0.0

    @classmethod
    def init(cls, embedding: EmbeddingTable, depth: int, hidden: int,
             annot_dim: int, attention_k: int, head_kind: str,
             dropout_rate: float = 0.0, seed: int = 0,
             precision: str = "f64") -> "CaptionModel":
        if not 0.0 <= dropout_rate < 1.0:
            raise ValueError("dropout rate must lie in [0, 1)")
        if precision not in ad.PRECISIONS:
            raise ValueError(f"unknown precision {precision!r}")
        dtype = ad.PRECISIONS[precision]
        rng = np.random.default_rng(seed)
        d = embedding.dim
        layers = []
        for ell in range(depth):
            in_dim = d + annot_dim if ell == 0 else hidden
            layers.append(LSTMLayerParams.init(in_dim, hidden, rng, ell, dtype))
        attn = AttentionParams.init(annot_dim, d, attention_k, rng, dtype)
        rng.random(hidden)  # draw of the removed attention state row: seeds keep their weights
        out_dim = d if head_kind == REGRESSION else len(embedding.vocab)
        head = OutputHead.init(head_kind, hidden, out_dim, rng, dtype)
        return cls(layers, attn, head, embedding, dropout_rate=dropout_rate)

    @property
    def depth(self) -> int:
        return len(self.layers)

    @property
    def hidden(self) -> int:
        return self.layers[0].hidden

    @property
    def annot_dim(self) -> int:
        return self.attention.w_hidden_annot.shape[1]

    @property
    def dtype(self):
        return self.head.b.data.dtype

    def parameters(self) -> list[Tensor]:
        out = []
        for layer in self.layers:
            out.extend(layer.tensors())
        out.extend(self.attention.tensors())
        out.extend(self.head.tensors())
        return out

    def zero_state(self) -> list[np.ndarray]:
        """Per-layer ``[h; c]`` states, all zero."""
        zeros = np.zeros(2 * self.hidden, self.dtype)
        return [zeros] * self.depth

    def embed_rows(self, tokens: list[str]) -> np.ndarray:
        """The (T, d) embedding rows of ``tokens``, in the model's dtype."""
        rows = self.embedding.vectors[self.embedding.vocab.encode_sequence(tokens)]
        return rows.astype(self.dtype, copy=False)

    def annotation_matrix(self, annotations: AnnotationSet) -> np.ndarray:
        """The (D, L) constant ``attend_matrix`` reads: one column per vector."""
        return np.ascontiguousarray(annotations.vectors.T, dtype=self.dtype)


def stacked_step(model: CaptionModel, words: np.ndarray, context: Tensor,
                 state: list[np.ndarray], train_mode: bool = False,
                 rng: np.random.Generator | None = None
                 ) -> tuple[Tensor, list[np.ndarray]]:
    """T time steps through the full stack, layer by layer: layer 0 reads the
    rows ``[word; context]``, each deeper layer the hidden rows below.
    ``state`` holds each layer's ``[h; c]`` before the first step. Returns
    (the T rows of head outputs, each layer's ``[h; c]`` after the last).

    In train mode with dropout the masks are drawn in one call, step-major
    and layer-minor: the draws a step-by-step stack makes in that order.
    """
    if len(state) != model.depth:
        raise ValueError("decoder state depth does not match model depth")
    masks = None
    rate = model.dropout_rate
    if train_mode and rate > 0.0:
        if rng is None:
            raise ValueError("train-mode dropout needs an RNG")
        draws = rng.random((len(words), model.depth, model.hidden))
        masks = ((draws >= rate) / (1.0 - rate)).astype(model.dtype, copy=False)
    x = ad.concat([words, context])
    new_state = []
    for ell, (layer, layer_state) in enumerate(zip(model.layers, state)):
        x, layer_state = lstm_step(x, layer_state, layer,
                                   None if masks is None else masks[:, ell])
        new_state.append(layer_state)
    return model.head.apply(x), new_state


def teacher_forced_loss(model: CaptionModel, annotations: AnnotationSet,
                        caption: list[str], train_mode: bool = False,
                        rng: np.random.Generator | None = None) -> Tensor:
    """Mean per-step loss with ground-truth previous words fed back, over
    the T = len(caption) + 1 steps from ``<start>`` to ``<end>``, built as
    one graph of a dozen nodes whatever T is."""
    if not caption:
        raise ValueError("empty caption")
    seq = [START] + list(caption) + [END]
    words = model.embed_rows(seq[:-1])
    context, _ = attend_matrix(model.annotation_matrix(annotations), words, model.attention)
    out, _ = stacked_step(model, words, context, model.zero_state(),
                          train_mode=train_mode, rng=rng)
    if model.head.kind == REGRESSION:
        return ad.mse(out, model.embed_rows(seq[1:]))
    return ad.cross_entropy(out, model.embedding.vocab.encode_sequence(seq[1:]))


def greedy_decode(model: CaptionModel, annotations: AnnotationSet,
                  max_len: int = 20, return_attention: bool = False):
    """Autoregressive decode; deterministic for a fixed model.

    Each token runs the training ops over one step (T = 1), carrying every
    layer's ``[h; c]``. Regression head: each output vector maps to its
    nearest vocabulary embedding. Softmax head: argmax over logits. Neither
    emits <start>, which is never a training target. Stops at <end> or
    max_len.
    """
    if max_len < 1:
        raise ValueError("max_len must be >= 1")
    vocab = model.embedding.vocab
    annots = model.annotation_matrix(annotations)
    state = model.zero_state()
    word = START
    tokens: list[str] = []
    attention_trace: list[np.ndarray] = []
    for _ in range(max_len):
        words = model.embed_rows([word])
        context, weights = attend_matrix(annots, words, model.attention)
        out, state = stacked_step(model, words, context, state)
        if model.head.kind == REGRESSION:
            word = nearest_word(out.data[0], model.embedding)
        else:
            word = vocab.decode(1 + int(np.argmax(out.data[0, 1:])))
        attention_trace.append(weights[0])
        if word == END:
            break
        tokens.append(word)
    if return_attention:
        return tokens, attention_trace
    return tokens


def param_count(depth: int, hidden: int, embed_dim: int, vocab_size: int,
                annot_dim: int, attention_k: int, head_kind: str) -> int:
    """Closed-form trainable-parameter count for a configured model."""
    for v in (depth, hidden, embed_dim, vocab_size, annot_dim, attention_k):
        if v <= 0:
            raise ValueError("all model dimensions must be positive")
    # layer 0 reads [word; context], each deeper layer the hidden state below
    total = 4 * hidden * (embed_dim + annot_dim + hidden + 1)
    total += (depth - 1) * 4 * hidden * (2 * hidden + 1)
    # attention MLP: two hidden-layer matrices, hidden bias, shared output row
    total += attention_k * (annot_dim + embed_dim + 2)
    out_dim = embed_dim if head_kind == REGRESSION else vocab_size
    total += out_dim * hidden + out_dim
    return total
