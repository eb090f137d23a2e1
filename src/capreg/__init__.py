"""capreg: a desk-scale caption-decoder toolkit.

Trains stacked LSTM caption decoders under two objectives -- softmax cross
entropy over the vocabulary, and regression onto skip-gram word embeddings --
with a previous-word-conditioned attention mechanism, on top of a small
reverse-mode autodiff engine.
"""

from . import autodiff, attention, decoder, embedding, encoder, harness, metrics

__version__ = "0.1.0"

__all__ = ["autodiff", "attention", "decoder", "embedding", "encoder",
           "harness", "metrics"]
