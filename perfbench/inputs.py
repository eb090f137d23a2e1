"""Seeded input generation for the capreg benchmark.

``python3 perfbench/inputs.py --workload W --seed N --workdir DIR`` writes
the workload's inputs into DIR, in the formats a capreg user hands the
program: a JSON-lines manifest, ``.annv`` feature files, an embedding
``.bin`` and, for ``caption_eval``, a checkpoint written by
``save_checkpoint`` plus evaluate-style candidate and reference files. It
also writes ``spec.json``, which tells the measuring process where the
inputs are and how the workload is configured. The same seed gives the
same files.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

# Shapes of each workload. The model trunk is the criterion-3 setup of the
# acceptance suite: depth 8, hidden 128, d 64, 4x4 grid of 64-dim
# annotations, attention width 32.
TRUNK = dict(depth=8, hidden=128, embed_dim=64, annot_dim=64, attention_k=32)
GRID = (4, 4)

WORKLOADS = {
    "train_deep_regression": dict(
        kind="train", vocab_words=150, images=20, caption_len=(4, 6),
        config=dict(TRUNK, head_kind="regression", dropout_rate=0.0,
                    precision="f64", epochs=2)),
    "train_wide_softmax": dict(
        kind="train", vocab_words=20000, images=20, caption_len=(8, 12),
        config=dict(TRUNK, head_kind="softmax", dropout_rate=0.5,
                    precision="f32", epochs=2)),
    "caption_eval": dict(
        kind="caption_eval", vocab_words=20000, images=12, max_len=20,
        corpus_sentences=200, corpus_len=(8, 12), skipgram_epochs=2,
        eval_pairs=200, eval_refs=5, eval_len=(8, 12), zipf_a=1.1,
        substitute_p=0.3),
}


def _word_table(rng, words: int, dim: int):
    from capreg.embedding import RESERVED, EmbeddingTable, Vocabulary

    vocab = Vocabulary(list(RESERVED) + [f"w{i}" for i in range(words)])
    return EmbeddingTable(vocab, rng.normal(0.0, 1.0, (len(vocab), dim)))


def _write_images(rng, workdir: Path, count: int, captions) -> Path:
    """Feature files plus a manifest; ``captions(i)`` gives image i's list."""
    from capreg.encoder import AnnotationSet, save_features

    rows, cols = GRID
    manifest = workdir / "images.jsonl"
    with open(manifest, "w", encoding="utf-8") as fh:
        for i in range(count):
            vectors = rng.normal(0.0, 1.0, (rows * cols, TRUNK["annot_dim"]))
            save_features(AnnotationSet(vectors, rows, cols), workdir / f"img{i}.annv")
            fh.write(json.dumps({"id": f"img{i}", "features": f"img{i}.annv",
                                 "captions": captions(i)}) + "\n")
    return manifest


def _lengths(rng, count: int, lo: int, hi: int) -> list[int]:
    """Lengths lo..hi in equal shares, shuffled: every seed gives the same
    total work, so rates differ between seeds only by what is measured."""
    return [int(n) for n in rng.permutation([lo + i % (hi - lo + 1) for i in range(count)])]


def _zipf_sentence(rng, words: int, n: int, a: float) -> list[str]:
    ranks = rng.zipf(a, size=n)
    ranks = [int(r) if r <= words else int(rng.integers(1, words + 1)) for r in ranks]
    return [f"w{r - 1}" for r in ranks]


def _gen_train(rng, w: dict, workdir: Path, seed: int) -> dict:
    table = _word_table(rng, w["vocab_words"], TRUNK["embed_dim"])
    table.save(workdir / "embeddings.bin")
    lengths = _lengths(rng, w["images"], *w["caption_len"])

    def caption(i):
        return [" ".join(f"w{rng.integers(w['vocab_words'])}" for _ in range(lengths[i]))]

    manifest = _write_images(rng, workdir, w["images"], caption)
    return {"manifest": manifest.name, "embeddings": "embeddings.bin",
            "config": dict(w["config"], seed=seed)}


def _gen_caption_eval(rng, w: dict, workdir: Path, seed: int) -> dict:
    from capreg.decoder import CaptionModel
    from capreg.harness import save_checkpoint

    words, a = w["vocab_words"], w["zipf_a"]
    table = _word_table(rng, words, TRUNK["embed_dim"])
    table.save(workdir / "embeddings.bin")
    # An untrained checkpoint: decode does a trained model's work per token.
    model = CaptionModel.init(table, depth=TRUNK["depth"], hidden=TRUNK["hidden"],
                              annot_dim=TRUNK["annot_dim"],
                              attention_k=TRUNK["attention_k"],
                              head_kind="regression", seed=seed)
    save_checkpoint(model, workdir / "model.ckpt")
    manifest = _write_images(rng, workdir, w["images"], lambda i: [f"w{i}"])

    corpus = workdir / "corpus.jsonl"
    with open(corpus, "w", encoding="utf-8") as fh:
        for i, n in enumerate(_lengths(rng, w["corpus_sentences"], *w["corpus_len"])):
            sentence = _zipf_sentence(rng, words, n, a)
            fh.write(json.dumps({"id": f"s{i}", "captions": [" ".join(sentence)]}) + "\n")

    # Candidates perturb their first reference, so n-gram overlap is non-zero.
    cands, refs = workdir / "candidates.jsonl", workdir / "references.jsonl"
    with open(cands, "w", encoding="utf-8") as fc, open(refs, "w", encoding="utf-8") as fr:
        lo, hi = w["eval_len"]
        for i in range(w["eval_pairs"]):
            references = [_zipf_sentence(rng, words, int(rng.integers(lo, hi + 1)), a)
                          for _ in range(w["eval_refs"])]
            candidate = [_zipf_sentence(rng, words, 1, a)[0]
                         if rng.random() < w["substitute_p"] else tok
                         for tok in references[0]]
            fc.write(json.dumps({"id": f"e{i}", "candidate": " ".join(candidate)}) + "\n")
            fr.write(json.dumps({"id": f"e{i}",
                                 "references": [" ".join(r) for r in references]}) + "\n")
    return {"manifest": manifest.name, "embeddings": "embeddings.bin",
            "checkpoint": "model.ckpt", "corpus": corpus.name,
            "candidates": cands.name, "references": refs.name,
            "max_len": w["max_len"], "skipgram": dict(d=TRUNK["embed_dim"], window=2,
                                                      epochs=w["skipgram_epochs"], seed=seed)}


def generate(workload: str, seed: int, workdir: Path) -> dict:
    import numpy as np

    w = WORKLOADS[workload]
    workdir.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng([seed, list(WORKLOADS).index(workload)])
    gen = _gen_train if w["kind"] == "train" else _gen_caption_eval
    spec = dict(gen(rng, w, workdir, seed), workload=workload, kind=w["kind"], seed=seed)
    (workdir / "spec.json").write_text(json.dumps(spec, indent=1), encoding="utf-8")
    return spec


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--workdir", type=Path, required=True)
    args = p.parse_args(argv)
    generate(args.workload, args.seed, args.workdir)
    return 0


if __name__ == "__main__":
    sys.exit(main())
