"""Measuring process of the capreg benchmark: one workload in one process.

``python3 perfbench/measure.py --workdir DIR --seconds S --trace 0|1
--results FILE`` reads ``DIR/spec.json`` (written by ``inputs.py``), times
calls into capreg's public API, checks every output, writes everything it
measured to FILE and prints, as its last line, the result object
``{"correct", "attempted", "failed", "metrics"}``. The lines before it name
each of the workload's own metrics with its unit, the output digests and
the environment.

With ``--trace 1`` the run measures untraced for S seconds, then installs
the span hooks of ``tracing.py`` and makes one traced pass over a fixed unit
of work (one set-up, then one ``train()`` call, or one skip-gram call, one
decode of every image and one scoring of the evaluation corpus). The
per-layer metrics come from that pass; the tracing overhead compares its
token rate with the untraced one.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 15
SETUP_WARMUPS = 3
# caption_eval splits its time: skip-gram, greedy decode, scoring
CAPTION_EVAL_SHARES = (1 / 6, 2 / 3, 1 / 6)

now = time.perf_counter


class Checks:
    """Operations attempted and the problems found in their outputs."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.extend(problems)

    def timed(self, fn, *args, **kwargs):
        """(seconds, result) of one call; a call that raises counts as a
        failed operation and gives (seconds, None) instead of ending the run."""
        t0 = now()
        try:
            result = fn(*args, **kwargs)
        except Exception as e:
            self.record([f"{getattr(fn, '__name__', fn)} raised {e!r}"])
            result = None
        return now() - t0, result


def _median_setup(setup):
    """SETUP_WARMUPS untimed set-ups, then the median of SETUP_REPEATS timed ones."""
    times = []
    for _ in range(SETUP_WARMUPS + SETUP_REPEATS):
        state = None  # free the last set-up first, as a fresh process would have
        t0 = now()
        state = setup()
        times.append(now() - t0)
    times = times[SETUP_WARMUPS:]
    return statistics.median(times), times, state


def _run_for(seconds: float, op, at_least: int = 1) -> None:
    """Call op(n) for n = 0, 1, ... until ``seconds`` have passed and it ran
    ``at_least`` times."""
    deadline = now() + seconds
    n = 0
    while n < at_least or now() < deadline:
        op(n)
        n += 1


def _digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj).encode("utf-8")).hexdigest()[:16]


# ---------------------------------------------------------------------------
# training workloads


def _train_setup(spec, wd):
    from capreg import decoder, embedding, harness

    records = harness.load_dataset(wd / spec["manifest"])
    for rec in records:
        rec.load_annotations()
    table = embedding.EmbeddingTable.load(wd / spec["embeddings"])
    c = spec["config"]
    decoder.CaptionModel.init(table, depth=c["depth"], hidden=c["hidden"],
                              annot_dim=c["annot_dim"], attention_k=c["attention_k"],
                              head_kind=c["head_kind"], dropout_rate=c["dropout_rate"],
                              seed=c["seed"])
    return records, table


def _check_training(log, config, reference) -> tuple[list[str], list[float]]:
    rows = log.epochs
    losses = [row["loss"] for row in rows]
    values = losses + [row["val_loss"] for row in rows if row.get("val_loss") is not None]
    problems = []
    if len(rows) != config.epochs:
        problems.append(f"train ran {len(rows)} of {config.epochs} epochs")
    if not all(math.isfinite(v) for v in values):
        problems.append("non-finite training or validation loss")
    elif not losses[-1] < losses[0]:
        problems.append(f"final loss {losses[-1]} not below first epoch's {losses[0]}")
    if reference is not None and config.precision == "f64" and losses != reference:
        problems.append("f64 loss trajectory differs between runs at one seed")
    return problems, losses


def measure_train(spec, wd, seconds, tracer):
    from capreg import harness

    setup_s, setup_times, (records, table) = _median_setup(lambda: _train_setup(spec, wd))
    config = harness.TrainConfig(**spec["config"])
    steps = config.epochs * sum(len(c) + 1 for rec in records for c in rec.captions)
    checks = Checks()
    durations, trajectories = [], []

    def op(_):
        dt, out = checks.timed(harness.train, config, records, table)
        if out is None:
            return
        durations.append(dt)
        problems, losses = _check_training(out[1], config,
                                           trajectories[0] if trajectories else None)
        trajectories.append(losses)
        checks.record(problems)

    _run_for(seconds, op)
    tokens_per_s = steps * len(durations) / sum(durations)
    named = {
        "train_tokens_per_s": (tokens_per_s, "1/s"),
        "train_loss_final": (trajectories[0][-1], "loss"),
        "setup_s": (setup_s, "s"),
    }
    info = {"train_calls": len(durations), "epochs_per_call": config.epochs,
            "steps_per_call": steps, "train_call_s": durations,
            "setup_samples_s": setup_times, "loss_trajectory": trajectories[0],
            "loss_digest": _digest(trajectories[0]), "precision": config.precision}
    layers = None
    if tracer is not None:
        tracer.install()
        try:
            traced_s, out = checks.timed(harness.train, config, *_train_setup(spec, wd))
        finally:
            tracer.uninstall()
        if out is not None:
            checks.record(_check_training(out[1], config, trajectories[0])[0])
        layers = dict(tokens=steps, end_stop_share=0.0,
                      overhead_pct=100.0 * (traced_s / statistics.median(durations) - 1.0))
    return tokens_per_s, setup_s, named, info, checks, layers


# ---------------------------------------------------------------------------
# caption_eval


def _caption_setup(spec, wd):
    from capreg import embedding, harness

    records = harness.load_dataset(wd / spec["manifest"])
    annotations = [rec.load_annotations() for rec in records]
    corpus = [cap for rec in harness.load_dataset(wd / spec["corpus"]) for cap in rec.captions]
    table = embedding.EmbeddingTable.load(wd / spec["embeddings"])
    model = harness.load_checkpoint(wd / spec["checkpoint"], table)
    return annotations, corpus, table, model


def _eval_corpus(spec, wd):
    from capreg import metrics

    def read(name):
        with open(wd / spec[name], encoding="utf-8") as fh:
            return [json.loads(line) for line in fh if line.strip()]

    refs = {r["id"]: r["references"] for r in read("references")}
    return metrics.EvalCorpus([(metrics.tokenize(c["candidate"]),
                                [metrics.tokenize(r) for r in refs[c["id"]]])
                               for c in read("candidates")])


def _skipgram_pairs(lengths, window) -> int:
    """(center, context) pairs of sentences wrapped in <start> ... <end>."""
    total = 0
    for n in lengths:
        m = n + 2
        total += sum(min(m, i + window + 1) - max(0, i - window) - 1 for i in range(m))
    return total


def _check_scores(scores, reference) -> list[str]:
    problems = []
    for name, value in scores.items():
        high = 10.0 if name == "cider" else 100.0
        if not (math.isfinite(value) and 0.0 <= value <= high):
            problems.append(f"{name} = {value} outside [0, {high}]")
    if scores["bleu1"] <= 0.0:
        problems.append("BLEU-1 is 0 on candidates that overlap their references")
    if reference is not None and scores != reference:
        problems.append("scores differ between runs on one corpus")
    return problems


def measure_caption_eval(spec, wd, seconds, tracer):
    import numpy as np
    from capreg import decoder, embedding, metrics

    setup_s, setup_times, state = _median_setup(lambda: _caption_setup(spec, wd))
    annotations, corpus, table, model = state
    corpus_eval = _eval_corpus(spec, wd)
    vocab = embedding.build_vocab(corpus)
    sg = spec["skipgram"]
    pairs = sg["epochs"] * _skipgram_pairs([len(s) for s in corpus], sg["window"])
    max_len = spec["max_len"]
    checks = Checks()
    share_sg, share_dec, share_score = CAPTION_EVAL_SHARES

    sg_times, sg_losses = [], []

    def skipgram_op(_):
        dt, tab = checks.timed(embedding.train_skipgram, corpus, vocab, **sg)
        if tab is None:
            return
        sg_times.append(dt)
        losses = [float(x) for x in getattr(tab, "training_losses", [])]
        problems = []
        if tab.vectors.shape != (len(vocab), sg["d"]) or not np.isfinite(tab.vectors).all():
            problems.append("skip-gram table has the wrong shape or non-finite values")
        if len(losses) >= 2 and not (all(map(math.isfinite, losses)) and losses[-1] < losses[0]):
            problems.append(f"skip-gram losses {losses} are not finite and falling")
        if sg_losses and losses != sg_losses[0]:
            problems.append("skip-gram losses differ between runs at one seed")
        sg_losses.append(losses)
        checks.record(problems)

    first_tokens: dict[int, list[str]] = {}
    caption_s, caption_steps = [], []

    def decode_one(i, model, annotations):
        dt, tokens = checks.timed(decoder.greedy_decode, model, annotations[i], max_len=max_len)
        if tokens is None:
            return None
        problems = []
        if len(tokens) > max_len:
            problems.append(f"caption of {len(tokens)} tokens exceeds max_len {max_len}")
        if not all(tok in table.vocab for tok in tokens):
            problems.append("decoded token outside the vocabulary")
        if i in first_tokens and tokens != first_tokens[i]:
            problems.append(f"image {i} decoded to different tokens on a repeat")
        first_tokens.setdefault(i, tokens)
        checks.record(problems)
        return dt, (len(tokens) + 1 if len(tokens) < max_len else max_len), tokens

    def decode_op(n):
        decoded = decode_one(n % len(annotations), model, annotations)
        if decoded is not None:
            caption_s.append(decoded[0])
            caption_steps.append(decoded[1])

    score_times, score_ref = [], []

    def score(corpus_eval):
        scores = {f"bleu{n}": metrics.bleu(corpus_eval, n) for n in (1, 2, 3, 4)}
        scores["rouge_l"] = metrics.rouge_l(corpus_eval)
        scores["cider"] = metrics.cider(corpus_eval)
        return scores

    def score_op(_):
        dt, scores = checks.timed(score, corpus_eval)
        if scores is None:
            return
        score_times.append(dt)
        checks.record(_check_scores(scores, score_ref[0] if score_ref else None))
        score_ref.append(scores)

    _run_for(seconds * share_sg, skipgram_op)
    _run_for(seconds * share_dec, decode_op, at_least=len(annotations))
    _run_for(seconds * share_score, score_op)
    self_refs = metrics.EvalCorpus([(refs[0], [refs[0]]) for _, refs in corpus_eval.pairs])
    self_bleu = metrics.bleu(self_refs, 4)
    checks.record([] if abs(self_bleu - 100.0) < 1e-9 else
                  [f"a reference scored against itself gives BLEU-4 {self_bleu}"])

    decode_tps = sum(caption_steps) / sum(caption_s)
    deciles = statistics.quantiles(caption_s, n=10, method="inclusive")
    first_pass = [first_tokens[i] for i in range(len(annotations))]
    named = {
        "decode_tokens_per_s": (decode_tps, "1/s"),
        "caption_ms_p50": (1e3 * statistics.median(caption_s), "ms"),
        "caption_ms_p90": (1e3 * deciles[8], "ms"),
        "score_captions_per_s": (len(corpus_eval) * len(score_times) / sum(score_times), "1/s"),
        "skipgram_pairs_per_s": (pairs * len(sg_times) / sum(sg_times), "1/s"),
        "setup_s": (setup_s, "s"),
    }
    info = {"captions_decoded": len(caption_s), "images": len(annotations),
            "max_len": max_len, "caption_s": caption_s, "caption_steps": caption_steps,
            "skipgram_calls": len(sg_times), "skipgram_pairs_per_call": pairs,
            "skipgram_call_s": sg_times, "scoring_calls": len(score_times),
            "scoring_call_s": score_times, "eval_pairs": len(corpus_eval),
            "scores": score_ref[0],
            "decode_digest": _digest(first_pass), "setup_samples_s": setup_times,
            "end_stop_share": sum(len(t) < max_len for t in first_pass) / len(first_pass)}
    layers = None
    if tracer is not None:
        tracer.install()
        try:
            t_ann, _, _, t_model = _caption_setup(spec, wd)
            tracer.remember_model(t_model)
            skipgram_op(0)
            traced = [decode_one(i, t_model, t_ann) for i in range(len(t_ann))]
            score_op(0)
        finally:
            tracer.uninstall()
        traced = [t for t in traced if t is not None]
        traced_steps = sum(steps for _, steps, _ in traced)
        traced_rate = statistics.median(steps / dt for dt, steps, _ in traced)
        untraced_rate = statistics.median(n / dt for n, dt in zip(caption_steps, caption_s))
        stops = sum(len(tokens) < max_len for _, _, tokens in traced)
        layers = dict(tokens=traced_steps, end_stop_share=stops / len(traced),
                      overhead_pct=100.0 * (untraced_rate / traced_rate - 1.0))
    return decode_tps, setup_s, named, info, checks, layers


# ---------------------------------------------------------------------------
# environment and output


def _git_sha() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _environment(spec) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = "unknown"
    source = hashlib.sha256()
    for path in sorted((ROOT / "src" / "capreg").rglob("*.py")):
        source.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "workload": spec["workload"], "seed": spec["seed"],
        "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
        "blas": blas,
        "blas_threads_pinned": {v: os.environ.get(v) for v in
                                ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "python": platform.python_version(), "numpy": np.__version__,
        "platform": platform.platform(), "git_sha": _git_sha(),
        "source_sha256": source.hexdigest(),
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workdir", type=Path, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--results", type=Path, required=True)
    args = p.parse_args(argv)

    import capreg

    if not Path(capreg.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"capreg imported from {capreg.__file__}, not from this checkout's src/",
              file=sys.stderr)
        return 2
    spec = json.loads((args.workdir / "spec.json").read_text(encoding="utf-8"))
    tracer = None
    if args.trace:
        from tracing import Tracer, layer_metrics
        tracer = Tracer()
    measure = measure_train if spec["kind"] == "train" else measure_caption_eval
    tokens_per_s, setup_s, named, info, checks, layers = measure(
        spec, args.workdir, args.seconds, tracer)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    named["peak_rss_mb"] = (peak_rss_mb, "MB")

    if tracer is None:
        metrics = {"tokens_per_s": {"value": tokens_per_s, "unit": "1/s"},
                   "setup_s": {"value": setup_s, "unit": "s"},
                   "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"}}
    else:
        metrics = layer_metrics(tracer, **layers)
        tracer.write(args.results.with_suffix(".spans.json"))
    result = {"correct": checks.failed == 0 and checks.attempted > 0,
              "attempted": checks.attempted, "failed": checks.failed, "metrics": metrics}
    env = _environment(spec)
    args.results.write_text(json.dumps(
        {"environment": env, "workload_metrics": named, "info": info,
         "problems": checks.problems, "result": result}, indent=1), encoding="utf-8")

    print("environment " + json.dumps(env))
    for name, (value, unit) in named.items():
        print(f"metric {spec['workload']} {name} {value!r} {unit}")
    print("info " + json.dumps(info))
    for problem in checks.problems:
        print("check failed: " + problem)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
