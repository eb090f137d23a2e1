"""Stacked LSTM caption decoder.

Layer 0 consumes the concatenation of the previous word embedding and the
attention context; each deeper layer consumes the hidden output of the layer
below. The output head is either a linear regression onto the word embedding
space or a softmax layer over the vocabulary. Dropout (inverted) is applied
to every layer's hidden output in training mode only.
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
    hidden: int

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
            hidden=hidden,
        )

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
        return ad.add(ad.matmul(self.w, hidden), self.b)

    def tensors(self) -> list[Tensor]:
        return [self.w, self.b]


def lstm_step(x: Tensor, layer_state: tuple[Tensor, Tensor],
              params: LSTMLayerParams) -> tuple[Tensor, tuple[Tensor, Tensor]]:
    """Standard LSTM cell, one fused graph op; returns (hidden, (hidden, cell))."""
    h_prev, c_prev = layer_state
    n = params.hidden
    hc = ad.lstm_cell(x, h_prev, c_prev, params.w_x, params.w_h, params.b)
    h = ad.slice_(hc, 0, n)
    return h, (h, ad.slice_(hc, n, 2 * n))


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

    def tensor(self, array) -> Tensor:
        """A graph constant in the model's dtype."""
        return Tensor(np.asarray(array, dtype=self.dtype))

    def zero_state(self) -> list[tuple[Tensor, Tensor]]:
        """Per-layer (hidden, cell) pairs, all zero."""
        zeros = np.zeros(self.hidden, self.dtype)
        return [(Tensor(zeros), Tensor(zeros)) for _ in range(self.depth)]

    def embed(self, token: str) -> Tensor:
        return self.tensor(self.embedding.lookup(token))

    def annotation_matrix(self, annotations: AnnotationSet) -> Tensor:
        return self.tensor(annotations.vectors)


def stacked_step(model: CaptionModel, v_prev: Tensor, context: Tensor,
                 state: list[tuple[Tensor, Tensor]], train_mode: bool = False,
                 rng: np.random.Generator | None = None
                 ) -> tuple[Tensor, list[tuple[Tensor, Tensor]]]:
    """One time step through the full stack; ``state`` holds each layer's
    (hidden, cell) pair. Returns (head output, new state)."""
    if len(state) != model.depth:
        raise ValueError("decoder state depth does not match model depth")
    rate = model.dropout_rate
    x = ad.concat([v_prev, context])
    new_layers = []
    for layer, layer_state in zip(model.layers, state):
        h, new_state = lstm_step(x, layer_state, layer)
        if train_mode and rate > 0.0:
            if rng is None:
                raise ValueError("train-mode dropout needs an RNG")
            mask = (rng.random(h.data.shape) >= rate) / (1.0 - rate)
            h = ad.mul(h, model.tensor(mask))
        new_layers.append(new_state)
        x = h
    return model.head.apply(x), new_layers


def teacher_forced_loss(model: CaptionModel, annotations: AnnotationSet,
                        caption: list[str], train_mode: bool = False,
                        rng: np.random.Generator | None = None) -> Tensor:
    """Mean per-step loss with ground-truth previous words fed back."""
    if not caption:
        raise ValueError("empty caption")
    vocab = model.embedding.vocab
    seq = [START] + list(caption) + [END]
    h_matrix = model.annotation_matrix(annotations)
    state = model.zero_state()
    total = None
    steps = 0
    for t in range(1, len(seq)):
        v_prev = model.embed(seq[t - 1])
        att = attend_matrix(h_matrix, v_prev, model.attention)
        out, state = stacked_step(model, v_prev, att.context, state,
                                  train_mode=train_mode, rng=rng)
        if model.head.kind == REGRESSION:
            step_loss = ad.mse(out, model.embed(seq[t]))
        else:
            step_loss = ad.cross_entropy(out, vocab.encode(seq[t]))
        total = step_loss if total is None else ad.add(total, step_loss)
        steps += 1
    return ad.scale(total, 1.0 / steps)


def greedy_decode(model: CaptionModel, annotations: AnnotationSet,
                  max_len: int = 20, return_attention: bool = False):
    """Autoregressive decode; deterministic for a fixed model.

    Regression head: each output vector maps to its nearest vocabulary
    embedding. Softmax head: argmax over logits. Stops at <end> or max_len.
    """
    if max_len < 1:
        raise ValueError("max_len must be >= 1")
    vocab = model.embedding.vocab
    h_matrix = model.annotation_matrix(annotations)
    state = model.zero_state()
    word = START
    tokens: list[str] = []
    attention_trace: list[np.ndarray] = []
    for _ in range(max_len):
        v_prev = model.embed(word)
        att = attend_matrix(h_matrix, v_prev, model.attention)
        out, state = stacked_step(model, v_prev, att.context, state, train_mode=False)
        if model.head.kind == REGRESSION:
            word = nearest_word(out.data, model.embedding)
        else:
            word = vocab.decode(int(np.argmax(out.data)))
        attention_trace.append(att.weights.data.copy())
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
    total = 0
    for ell in range(depth):
        in_dim = embed_dim + annot_dim if ell == 0 else hidden
        total += 4 * (hidden * in_dim + hidden * hidden + hidden)
    # attention MLP: two hidden-layer matrices, hidden bias, shared output row
    total += attention_k * (annot_dim + embed_dim + 2)
    out_dim = embed_dim if head_kind == REGRESSION else vocab_size
    total += out_dim * hidden + out_dim
    return total
