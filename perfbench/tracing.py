"""Span tracing for the benchmark's traced run.

Hooks wrap capreg's public callables from outside the package: each hooked
call records a span (name, start, end, parent) in memory, and every public
autodiff op call bumps a counter. Spans are written out once, when the run
ends. A hook replaces every attribute inside ``capreg`` that refers to the
target object, so a name a module imported with ``from ... import`` is
hooked as well as the defining module's own. A target that no longer exists
records zero calls instead of failing, so the benchmark keeps running when
a later change deletes or fuses a hooked function.

Nothing in capreg queues or waits on another worker, so no layer has a
"time waited" metric; the tracer records busy time and counts only.
"""

from __future__ import annotations

import json
import os
import sys
import time
from collections import Counter, defaultdict

# autodiff module-level functions that are not graph ops
_NOT_OPS = {"set_precision", "default_dtype", "adam_step",
            "finite_difference_check", "xavier_uniform"}

LAYER_COUNT = 8


class Tracer:
    def __init__(self):
        self.spans: list[list] = []       # [name, start, end, parent index]
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._undo: list[tuple] = []
        self._layer_of: dict[int, int] = {}
        self._models: list = []           # keeps ids in _layer_of valid

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        import capreg  # noqa: F401  (loads every submodule)

        ad = sys.modules["capreg.autodiff"]
        numerical = getattr(ad, "NumericalError", None)
        for name, fn in sorted(vars(ad).items()):
            if (callable(fn) and not isinstance(fn, type) and not name.startswith("_")
                    and name not in _NOT_OPS and getattr(fn, "__module__", "") == ad.__name__):
                self._hook("capreg.autodiff", name, self._count(numerical))

        span = self._span
        self._hook("capreg.autodiff", "Tensor.backward", span("autodiff.backward"))
        self._hook("capreg.autodiff", "AdamState.step",
                   span("autodiff.adam_step", before=self._adam_bytes))
        self._hook("capreg.attention", "attend_matrix", span("attention.attend_matrix"))
        self._hook("capreg.decoder", "lstm_step", span(self._lstm_name))
        for target in ("capreg.decoder:OutputHead.apply", "capreg.autodiff:mse",
                       "capreg.autodiff:cross_entropy"):
            module, attr = target.split(":")
            self._hook(module, attr, span("decoder.head_loss"))
        self._hook("capreg.decoder", "teacher_forced_loss", span(self._loss_name))
        self._hook("capreg.decoder", "greedy_decode", span("decoder.greedy_decode"))
        self._hook("capreg.decoder", "CaptionModel.init",
                   span("decoder.model_init", after=self.remember_model))
        self._hook("capreg.embedding", "nearest_word", span("embedding.nearest_word"))
        self._hook("capreg.embedding", "train_skipgram", span("embedding.train_skipgram"))
        self._hook("capreg.embedding", "EmbeddingTable.load", span("embedding.load"))
        self._hook("capreg.encoder", "load_features",
                   span("encoder.load_features", before=self._feature_bytes))
        for name in ("bleu", "rouge_l", "cider"):
            self._hook("capreg.metrics", name, span(f"metrics.{name}"))
        for name in ("load_dataset", "load_checkpoint", "train"):
            self._hook("capreg.harness", name, span(f"harness.{name}"))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, old = self._undo.pop()
            setattr(owner, attr, old)

    def _hook(self, module_name: str, path: str, make_wrapper) -> None:
        module = sys.modules.get(module_name)
        owner_name, _, attr = path.rpartition(".")
        owner = getattr(module, owner_name, None) if owner_name else module
        if owner is None:
            return
        if owner_name:  # method on a class: patch the class attribute
            raw = owner.__dict__.get(attr)
            if raw is None:
                return
            if isinstance(raw, (classmethod, staticmethod)):
                new = type(raw)(make_wrapper(raw.__func__))
            else:
                new = make_wrapper(raw)
            self._undo.append((owner, attr, raw))
            setattr(owner, attr, new)
            return
        target = getattr(module, attr, None)
        if target is None:
            return
        wrapper = make_wrapper(target)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "capreg" or mod_name.startswith("capreg.")):
                continue
            for name, value in list(vars(mod).items()):
                if value is target:
                    self._undo.append((mod, name, value))
                    setattr(mod, name, wrapper)

    # -- wrappers -----------------------------------------------------------

    def _count(self, numerical):
        counts = self.counts

        def make(fn):
            def counted(*args, **kwargs):
                counts["autodiff.op_calls"] += 1
                try:
                    return fn(*args, **kwargs)
                except Exception as e:
                    if numerical is not None and isinstance(e, numerical):
                        counts["autodiff.numerical_errors"] += 1
                    raise
            return counted
        return make

    def _span(self, name, before=None, after=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def make(fn):
            def wrapper(*args, **kwargs):
                if before is not None:
                    before(args, kwargs)
                label = name(args, kwargs) if callable(name) else name
                rec = [label, clock(), 0.0, stack[-1] if stack else -1]
                stack.append(len(spans))
                spans.append(rec)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    rec[2] = clock()
                    stack.pop()
                if after is not None:
                    after(result)
                return result
            return wrapper
        return make

    def _lstm_name(self, args, kwargs) -> str:
        params = kwargs.get("params", args[2] if len(args) > 2 else None)
        layer = self._layer_of.get(id(params))
        return "decoder.lstm_step.unknown" if layer is None else f"decoder.lstm_step.layer{layer}"

    def _loss_name(self, args, kwargs) -> str:
        training = kwargs.get("train_mode", args[3] if len(args) > 3 else False)
        parent = self.spans[self._stack[-1]][0] if self._stack else ""
        if parent == "harness.train" and not training:
            return "harness.validation"
        return "decoder.teacher_forced_loss"

    def remember_model(self, model) -> None:
        """Map the model's layer parameters to layer indices for lstm_step."""
        self._models.append(model)
        for i, layer in enumerate(getattr(model, "layers", [])):
            self._layer_of[id(layer)] = i

    def _adam_bytes(self, args, kwargs) -> None:
        # Adam reads parameter, gradient and both moments and writes all four
        # (the gradient is zeroed): 8 passes over the parameter bytes.
        params = getattr(args[0], "params", []) if args else []
        self.counts["autodiff.adam_step.bytes"] += 8 * sum(
            getattr(getattr(p, "data", None), "nbytes", 0) for p in params)

    def _feature_bytes(self, args, kwargs) -> None:
        path = kwargs.get("path", args[0] if args else None)
        try:
            self.counts["encoder.load_features.bytes"] += os.path.getsize(path)
        except (OSError, TypeError):
            pass

    # -- results ------------------------------------------------------------

    def totals(self) -> dict:
        """Per span name: outermost inclusive seconds, self seconds, calls."""
        child = defaultdict(float)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        inclusive, self_s, calls = defaultdict(float), defaultdict(float), Counter()
        for i, (name, start, end, parent) in enumerate(self.spans):
            calls[name] += 1
            self_s[name] += (end - start) - child[i]
            ancestor, nested = parent, False
            while ancestor >= 0:
                if self.spans[ancestor][0] == name:
                    nested = True
                    break
                ancestor = self.spans[ancestor][3]
            if not nested:
                inclusive[name] += end - start
        return {"s": inclusive, "self_s": self_s, "calls": calls}

    def write(self, path) -> None:
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": names, "fields": ["name", "start", "end", "parent"],
                       "spans": [[index[n], a, b, p] for n, a, b, p in self.spans],
                       "counts": dict(self.counts)}, fh)


def layer_metrics(tracer: Tracer, tokens: int, end_stop_share: float,
                  overhead_pct: float) -> dict:
    """The per-layer metric set of BENCHMARK.json from one traced pass."""
    t = tracer.totals()
    s, self_s, calls = t["s"], t["self_s"], t["calls"]
    c = tracer.counts
    out = {
        "autodiff.backward.s": (s["autodiff.backward"], "s"),
        "autodiff.adam_step.s": (s["autodiff.adam_step"], "s"),
        "autodiff.adam_step.bytes": (c["autodiff.adam_step.bytes"], "bytes"),
        "autodiff.ops_per_token": (c["autodiff.op_calls"] / tokens if tokens else 0.0,
                                   "ops/token"),
        "autodiff.numerical_errors": (c["autodiff.numerical_errors"], "count"),
        "attention.attend_matrix.s": (s["attention.attend_matrix"], "s"),
        "attention.attend_matrix.calls": (calls["attention.attend_matrix"], "count"),
    }
    for i in range(LAYER_COUNT):
        out[f"decoder.lstm_step.layer{i}.s"] = (s[f"decoder.lstm_step.layer{i}"], "s")
    out.update({
        "decoder.head_loss.s": (s["decoder.head_loss"], "s"),
        "decoder.teacher_forced_loss.self_s": (self_s["decoder.teacher_forced_loss"], "s"),
        "decoder.greedy_decode.self_s": (self_s["decoder.greedy_decode"], "s"),
        "decoder.end_stop_share": (end_stop_share, "ratio"),
        "embedding.nearest_word.s": (s["embedding.nearest_word"], "s"),
        "embedding.nearest_word.calls": (calls["embedding.nearest_word"], "count"),
        "embedding.train_skipgram.s": (s["embedding.train_skipgram"], "s"),
        "embedding.load.s": (s["embedding.load"], "s"),
        "encoder.load_features.s": (s["encoder.load_features"], "s"),
        "encoder.load_features.bytes": (c["encoder.load_features.bytes"], "bytes"),
        "metrics.bleu.s": (s["metrics.bleu"], "s"),
        "metrics.rouge_l.s": (s["metrics.rouge_l"], "s"),
        "metrics.cider.s": (s["metrics.cider"], "s"),
        "harness.load_dataset.s": (s["harness.load_dataset"], "s"),
        "harness.load_checkpoint.s": (s["harness.load_checkpoint"], "s"),
        "harness.train.self_s": (self_s["harness.train"], "s"),
        "harness.validation.s": (s["harness.validation"], "s"),
        "trace.overhead_pct": (overhead_pct, "%"),
    })
    return {k: {"value": v, "unit": u} for k, (v, u) in out.items()}
