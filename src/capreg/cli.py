"""Command-line interface.

Exit codes: 0 success; 1 usage error, a ``ValueError`` (``CheckpointError``
is one), an argument argparse refuses or a ``MemoryError``; 2 data error, a
``DataError`` or an ``OSError``; 3 numerical abort, a ``NumericalError``
(``TrainingAborted`` is one, and adds a JSON dump).
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .autodiff import NumericalError
from .decoder import REGRESSION, SOFTMAX, greedy_decode, param_count
from .embedding import EmbeddingTable, build_vocab, train_skipgram
from .encoder import DataError, load_features
from .harness import (TrainConfig, TrainingAborted, load_dataset, read_jsonl,
                      train, grad_experiment, depth_study,
                      save_checkpoint, load_checkpoint, check_annotation_dim)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERICAL = 3


def _build_config(args) -> TrainConfig:
    return TrainConfig.from_file(args.config, **{
        k: v for k, v in vars(args).items() if k in TrainConfig.__dataclass_fields__})


def cmd_train_embeddings(args) -> int:
    records = load_dataset(args.manifest)
    corpus = [cap for rec in records for cap in rec.captions]
    vocab = build_vocab(corpus, min_count=args.min_count)
    table = train_skipgram(corpus, vocab, d=args.dim, window=args.window,
                           epochs=args.epochs, negatives=args.negatives,
                           seed=args.seed or 0)
    table.save(args.output)
    print(f"trained {len(vocab)}-word embedding table (d={args.dim}) -> {args.output}")
    return EXIT_OK


def _write_log(path, rows: list[dict]) -> None:
    """The ``train --log`` format: one JSON object per line."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(json.dumps(row) + "\n" for row in rows)


def cmd_train(args) -> int:
    config = _build_config(args)
    records = load_dataset(args.manifest)
    table = EmbeddingTable.load(args.embeddings)
    try:
        model, log = train(config, records, table)
    except TrainingAborted as e:  # the completed epochs, then the dump
        if args.log:
            _write_log(args.log, [*e.log.epochs, {"aborted": str(e), **e.dump}])
        raise
    save_checkpoint(model, args.output)
    if args.log:
        _write_log(args.log, log.epochs)
    final = log.epochs[-1]["loss"] if log.epochs else float("nan")
    print(f"trained depth-{config.depth} {config.head_kind} model, "
          f"final loss {final:.6g} -> {args.output}")
    return EXIT_OK


def cmd_caption(args) -> int:
    if args.max_len < 1:
        raise ValueError("--max-len must be >= 1")
    table = EmbeddingTable.load(args.embeddings)
    model = load_checkpoint(args.checkpoint, table, precision=args.precision or "f64")
    annots = load_features(args.features)
    check_annotation_dim(args.features, annots, model.annot_dim)
    tokens, trace = greedy_decode(model, annots, max_len=args.max_len,
                                  return_attention=True)
    print(" ".join(tokens))
    if args.attention_csv:
        steps = np.arange(len(trace))
        np.savetxt(args.attention_csv, np.column_stack([steps, trace]),
                   fmt="%.8g", delimiter=",")
    return EXIT_OK


def _read_by_id(path, key: str, valid, expected: str) -> dict:
    """{id: obj[key]} over the JSON lines of ``path``; ``valid`` checks each
    value, and an id may appear on one line only."""
    out, lines = {}, {}
    for lineno, obj in read_jsonl(path, "id", key):
        if obj["id"] is None or isinstance(obj["id"], (bool, list, dict)):
            raise DataError(f"{path}:{lineno}: 'id' must be a string or a number")
        if not valid(obj[key]):
            raise DataError(f"{path}:{lineno}: {key!r} must be {expected}")
        if obj["id"] in lines:
            raise DataError(f"{path}:{lineno}: id {obj['id']!r} repeats line {lines[obj['id']]}")
        lines[obj["id"]] = lineno
        out[obj["id"]] = obj[key]
    return out


def cmd_evaluate(args) -> int:
    from .metrics import EvalCorpus, bleu, rouge_l, cider

    cands = _read_by_id(args.candidates, "candidate", lambda c: isinstance(c, str), "a string")
    if not cands:
        raise DataError(f"{args.candidates}: no candidates")
    refs = _read_by_id(args.references, "references",
                       lambda rs: isinstance(rs, list) and rs
                       and all(isinstance(r, str) for r in rs),
                       "a non-empty list of strings")
    missing = set(cands) - set(refs)
    if missing:
        raise DataError(f"candidates without references: {sorted(missing)[:5]}")
    corpus = EvalCorpus.from_strings([(cands[i], refs[i]) for i in cands])
    report = {f"bleu{n}": bleu(corpus, n) for n in (1, 2, 3, 4)}
    report["rouge_l"] = rouge_l(corpus)
    if len(corpus) >= 2:
        report["cider"] = cider(corpus)
    print(json.dumps(report, indent=2))
    return EXIT_OK


def cmd_grad_experiment(args) -> int:
    report = grad_experiment(args.vocab_size, args.dim,
                             trials=args.trials, seed=args.seed or 0)
    print(json.dumps(report, indent=2))
    return EXIT_OK


def cmd_depth_study(args) -> int:
    config = _build_config(args)
    records = load_dataset(args.manifest)
    table = EmbeddingTable.load(args.embeddings)
    rows = depth_study(config, args.depths, records, table)
    print(json.dumps(rows, indent=2))
    return EXIT_OK


def cmd_param_report(args) -> int:
    rows = []
    for depth in args.depths:
        row = {"depth": depth}
        for kind in (REGRESSION, SOFTMAX):
            row[kind] = param_count(depth, args.hidden, args.dim,
                                    args.vocab_size, args.annot_dim,
                                    args.attention_k, kind)
        rows.append(row)
    print(json.dumps(rows, indent=2))
    return EXIT_OK


def _seed(text: str) -> int:
    """A ``--seed``: numpy's generators take non-negative integers only."""
    try:
        seed = int(text)
    except ValueError:
        seed = -1
    if seed < 0:
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {text!r}")
    return seed


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="capreg", description="Caption decoder toolkit")
    seed, config, precision = (argparse.ArgumentParser(add_help=False) for _ in range(3))
    seed.add_argument("--seed", type=_seed)
    config.add_argument("--config")
    precision.add_argument("--precision", choices=("f32", "f64"))
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, text, *parents):
        return sub.add_parser(name, help=text, parents=parents)

    p = command("train-embeddings", "train skip-gram embeddings on caption corpus", seed)
    p.add_argument("manifest")
    p.add_argument("output")
    p.add_argument("--dim", type=int, default=64)
    p.add_argument("--window", type=int, default=2)
    p.add_argument("--epochs", type=int, default=5)
    p.add_argument("--negatives", type=int, default=5)
    p.add_argument("--min-count", type=int, default=1, dest="min_count")
    p.set_defaults(func=cmd_train_embeddings)

    p = command("train", "train a caption decoder", config, seed, precision)
    p.add_argument("manifest")
    p.add_argument("embeddings")
    p.add_argument("output")
    p.add_argument("--log", type=str, default=None)
    p.add_argument("--depth", type=int, default=None)
    p.add_argument("--hidden", type=int, default=None)
    p.add_argument("--head-kind", choices=(REGRESSION, SOFTMAX), default=None, dest="head_kind")
    p.add_argument("--epochs", type=int, default=None)
    p.add_argument("--lr", type=float, default=None)
    p.add_argument("--dropout-rate", type=float, default=None, dest="dropout_rate")
    p.set_defaults(func=cmd_train)

    p = command("caption", "greedy-decode a caption for a feature file", precision)
    p.add_argument("checkpoint")
    p.add_argument("embeddings")
    p.add_argument("features")
    p.add_argument("--max-len", type=int, default=20, dest="max_len")
    p.add_argument("--attention-csv", type=str, default=None, dest="attention_csv")
    p.set_defaults(func=cmd_caption)

    p = command("evaluate", "score candidate captions against references")
    p.add_argument("candidates")
    p.add_argument("references")
    p.set_defaults(func=cmd_evaluate)

    p = command("grad-experiment", "output-layer gradient magnitude study", seed)
    p.add_argument("--vocab-size", type=int, default=20000, dest="vocab_size")
    p.add_argument("--dim", type=int, default=64)
    p.add_argument("--trials", type=int, default=50)
    p.set_defaults(func=cmd_grad_experiment)

    p = command("depth-study", "train and score at multiple depths", config, seed, precision)
    p.add_argument("manifest")
    p.add_argument("embeddings")
    p.add_argument("--depths", type=int, nargs="+", default=[1, 2, 5, 8, 10])
    p.add_argument("--epochs", type=int, default=None)
    p.set_defaults(func=cmd_depth_study)

    p = command("param-report", "parameter counts per depth, both heads")
    p.add_argument("--depths", type=int, nargs="+", default=[1, 2, 5, 8, 10])
    p.add_argument("--hidden", type=int, default=128)
    p.add_argument("--dim", type=int, default=64)
    p.add_argument("--vocab-size", type=int, default=20000, dest="vocab_size")
    p.add_argument("--annot-dim", type=int, default=64, dest="annot_dim")
    p.add_argument("--attention-k", type=int, default=32, dest="attention_k")
    p.set_defaults(func=cmd_param_report)

    return parser


# the flags some commands take, which argparse would read as a command name
_COMMAND_FLAGS = ("--seed", "--config", "--precision")


def main(argv=None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else argv
    try:
        flag = argv[0].split("=", 1)[0] if argv else None
        if flag in _COMMAND_FLAGS:
            parser.error(f"{flag} goes after the command name: capreg COMMAND ... {flag} VALUE")
        args = parser.parse_args(argv)
    except SystemExit as e:
        return EXIT_USAGE if e.code not in (0, None) else EXIT_OK
    try:
        # an op's own check reports an overflow or NaN, in one line: numpy's
        # RuntimeWarning would repeat it first
        with np.errstate(over="ignore", invalid="ignore"):
            return args.func(args)
    except (ValueError, MemoryError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except (DataError, OSError) as e:
        print(f"data error: {e}", file=sys.stderr)
        return EXIT_DATA
    except NumericalError as e:
        print(f"numerical abort: {e}", file=sys.stderr)
        if isinstance(e, TrainingAborted):
            print(json.dumps(e.dump, indent=2), file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
