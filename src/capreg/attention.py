"""Semantic attention: context vectors computed from the annotation set and
the embedding of the previously generated word.

Scoring runs a one-hidden-layer tanh MLP over each annotation vector with
the previous word embedding mixed into the hidden layer. The decoder state
does not enter the scores: a term shared by every annotation cancels in the
softmax, so conditioning on the state would have to go inside the tanh.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor


@dataclass
class AttentionParams:
    """Trainable weights of the scoring MLP.

    Dimensions: D = annotation dim, d = word embedding dim, k = MLP hidden
    width.
    """

    w_hidden_annot: Tensor   # (k, D)
    w_hidden_word: Tensor    # (k, d)
    b_hidden: Tensor         # (k,)
    w_out: Tensor            # (k,) second-layer row, shared across annotations

    @classmethod
    def init(cls, annot_dim: int, word_dim: int, k: int,
             rng: np.random.Generator, dtype=np.float64) -> "AttentionParams":
        return cls(
            w_hidden_annot=Tensor(ad.xavier_uniform(rng, annot_dim, k, (k, annot_dim), dtype), requires_grad=True, name="att.w_hidden_annot"),
            w_hidden_word=Tensor(ad.xavier_uniform(rng, word_dim, k, (k, word_dim), dtype), requires_grad=True, name="att.w_hidden_word"),
            b_hidden=Tensor(np.zeros(k, dtype), requires_grad=True, name="att.b_hidden"),
            w_out=Tensor(ad.xavier_uniform(rng, k, 1, (k,), dtype), requires_grad=True, name="att.w_out"),
        )

    def tensors(self) -> list[Tensor]:
        return [self.w_hidden_annot, self.w_hidden_word, self.b_hidden, self.w_out]


@dataclass
class AttentionOutput:
    context: Tensor   # (D,)
    weights: Tensor   # (L,)


def attend_matrix(h_t: Tensor, v_prev: Tensor,
                  params: AttentionParams) -> AttentionOutput:
    """Softmax-normalized mixture of the columns of a (D, L) annotation
    matrix, scored with one matmul per stage; the last, ``w_out @ hidden``,
    is a vector-matrix product. The matrix is a constant of the caption,
    laid out once by ``CaptionModel.annotation_matrix``."""
    if h_t.data.ndim != 2 or h_t.shape[1] == 0:
        raise ValueError("attend over an empty annotation set")
    word_bias = ad.add(ad.matmul(params.w_hidden_word, v_prev), params.b_hidden)
    hidden = ad.tanh(ad.add_colvec(ad.matmul(params.w_hidden_annot, h_t), word_bias))
    alphas = ad.softmax(ad.matmul(params.w_out, hidden))
    context = ad.matmul(h_t, alphas)
    return AttentionOutput(context=context, weights=alphas)
