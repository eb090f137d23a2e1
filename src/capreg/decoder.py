"""Stacked LSTM caption decoder.

Layer 0 consumes the rows ``[word; context]`` of the previous word embedding
and its attention context, which the attention node returns; each deeper
layer consumes the hidden output of the layer below. The output head is
either a linear regression onto the word embedding space or a softmax layer
over the vocabulary. Dropout (inverted) is applied to every layer's hidden
output in training mode only.

Training runs each caption layer by layer over all of its T steps: one
attention node, one node per LSTM layer, one head node and one loss node.
Decoding runs the same ops one step (T = 1) at a time, carrying each layer's
``[h; c]``.
"""

from __future__ import annotations

import math
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
        tensors = []
        for name, shape, init in param_layout(depth, hidden, embedding.dim, len(embedding.vocab),
                                              annot_dim, attention_k, head_kind):
            if name == "head.w":
                rng.random(hidden)  # draw of the removed attention state row: seeds keep their weights
            data = (ad.xavier_uniform(rng, shape[-1], init, shape, dtype) if isinstance(init, int)
                    else np.repeat(np.array(init, dtype), shape[0] // len(init)))
            tensors.append(Tensor(data))
        return cls.from_tensors(embedding, head_kind, tensors, dropout_rate)

    @classmethod
    def from_tensors(cls, embedding: EmbeddingTable, head_kind: str, tensors: list[Tensor],
                     dropout_rate: float = 0.0) -> "CaptionModel":
        """The model whose parameters, in ``parameters()`` order, are ``tensors``."""
        *trunk, w_annot, w_word, b_hidden, w_out, w, b = tensors
        layers = [LSTMLayerParams(*trunk[i:i + 3]) for i in range(0, len(trunk), 3)]
        return cls(layers, AttentionParams(w_annot, w_word, b_hidden, w_out),
                   OutputHead(head_kind, w, b), embedding, dropout_rate=dropout_rate)

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


def stacked_step(model: CaptionModel, inputs: Tensor, state: list[np.ndarray],
                 train_mode: bool = False, rng: np.random.Generator | None = None
                 ) -> tuple[Tensor, list[np.ndarray]]:
    """T time steps through the full stack, layer by layer: layer 0 reads the
    T rows ``[word; context]`` of ``inputs``, the node ``attend_matrix``
    returns, and each deeper layer the hidden rows below.
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
        draws = rng.random((inputs.shape[0], model.depth, model.hidden))
        masks = ((draws >= rate) / (1.0 - rate)).astype(model.dtype, copy=False)
    x = inputs
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
    one graph of depth + 3 nodes whatever T is."""
    if not caption:
        raise ValueError("empty caption")
    seq = [START] + list(caption) + [END]
    inputs, _ = attend_matrix(model.annotation_matrix(annotations),
                              model.embed_rows(seq[:-1]), model.attention)
    out, _ = stacked_step(model, inputs, model.zero_state(), train_mode=train_mode, rng=rng)
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
        inputs, weights = attend_matrix(annots, model.embed_rows([word]), model.attention)
        out, state = stacked_step(model, inputs, state)
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


def param_layout(depth: int, hidden: int, embed_dim: int, vocab_size: int,
                 annot_dim: int, attention_k: int, head_kind: str) -> list[tuple]:
    """Each parameter of a configured model as ``(name, shape, init)`` in
    ``CaptionModel.parameters()`` order, which builds, counts and loads it:
    ``init`` is a weight's Xavier-uniform fan-out (its fan-in is the last
    axis), or a bias's constant for each of its equal blocks."""
    for v in (depth, hidden, embed_dim, vocab_size, annot_dim, attention_k):
        if v <= 0:
            raise ValueError("all model dimensions must be positive")
    if head_kind not in (REGRESSION, SOFTMAX):
        raise ValueError(f"unknown head kind {head_kind!r}")
    h, k = hidden, attention_k
    layout = []
    # layer 0 reads [word; context], each deeper layer the hidden state below; of
    # the gates (input, forget, output, candidate), a forget bias of 1 opens the cell path
    for ell in range(depth):
        in_dim = embed_dim + annot_dim if ell == 0 else h
        layout += [(f"lstm{ell}.w_x", (4 * h, in_dim), h),
                   (f"lstm{ell}.w_h", (4 * h, h), h),
                   (f"lstm{ell}.b", (4 * h,), (0.0, 1.0, 0.0, 0.0))]
    # attention MLP: two hidden-layer matrices, hidden bias, shared output row
    layout += [("att.w_hidden_annot", (k, annot_dim), k),
               ("att.w_hidden_word", (k, embed_dim), k),
               ("att.b_hidden", (k,), (0.0,)),
               ("att.w_out", (k,), 1)]
    out_dim = embed_dim if head_kind == REGRESSION else vocab_size
    return layout + [("head.w", (out_dim, h), out_dim), ("head.b", (out_dim,), (0.0,))]


def param_count(depth: int, hidden: int, embed_dim: int, vocab_size: int,
                annot_dim: int, attention_k: int, head_kind: str) -> int:
    """Trainable-parameter count of a configured model: its layout at depth
    min(depth, 2) plus depth - 2 copies of layer 1, so a depth too large to
    enumerate, as a checkpoint header may declare, costs nothing."""
    sizes = {name: math.prod(shape) for name, shape, _ in param_layout(
        min(depth, 2), hidden, embed_dim, vocab_size, annot_dim, attention_k, head_kind)}
    layer1 = sum(n for name, n in sizes.items() if name.startswith("lstm1."))
    return sum(sizes.values()) + max(depth - 2, 0) * layer1
