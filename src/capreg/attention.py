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

    def tensors(self) -> list[Tensor]:
        return [self.w_hidden_annot, self.w_hidden_word, self.b_hidden, self.w_out]


def attend_matrix(annotations: np.ndarray, words: np.ndarray,
                  params: AttentionParams) -> tuple[Tensor, np.ndarray]:
    """Attention of each of T previous words (the rows of ``words``) over
    the columns of a (D, L) annotation matrix, as one ``ad.attention`` node:
    the (T, d + D) rows ``[word; context]`` and the (T, L) weights.
    Scores use no decoder state, so a caption's T contexts are known before
    its first LSTM step. Both arrays are constants of the caption; the matrix
    is laid out once by ``CaptionModel.annotation_matrix``."""
    if annotations.ndim != 2 or annotations.shape[1] == 0:
        raise ValueError("attend over an empty annotation set")
    return ad.attention(annotations, words, *params.tensors())
