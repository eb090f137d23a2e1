"""Training harness: dataset ingestion, the training loop, gradient and
depth experiments, and checkpoint persistence."""

from __future__ import annotations

import math
import sys
import time
import zlib
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor, AdamState, NumericalError
from .decoder import (CaptionModel, REGRESSION, SOFTMAX, teacher_forced_loss,
                      greedy_decode, param_count, param_layout)
from .embedding import EmbeddingTable
from .encoder import (AnnotationSet, DataError, _parse_json, check_count, load_features,
                      read_framed, write_framed)


class TrainingAborted(NumericalError):
    """Numerical failure during training; carries a diagnostic dump and the
    log of the epochs completed before it."""

    def __init__(self, message: str, dump: dict, log: "TrainLog"):
        super().__init__(message)
        self.dump = dump
        self.log = log


_DECAY_FACTOR = 0.1   # plateau decay: lr *= 0.1 after 50 epochs in a row
_DECAY_PATIENCE = 50  # without a 1% improvement on the best epoch loss

# accepted value types per TrainConfig annotation; an int is a valid float
_FIELD_TYPES = {"int": (int,), "float": (int, float), "str": (str,)}


@dataclass(frozen=True)
class TrainConfig:
    """Training settings, checked when built: a bad value raises ValueError."""

    depth: int = 2
    hidden: int = 128
    embed_dim: int = 64
    annot_dim: int = 64
    attention_k: int = 32
    head_kind: str = REGRESSION
    dropout_rate: float = 0.5
    lr: float = 0.001
    epochs: int = 100
    seed: int = 0
    precision: str = "f64"

    def __post_init__(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, bool) or not isinstance(value, _FIELD_TYPES[f.type]):
                raise ValueError(f"config {f.name} must be {f.type}, got {value!r}")
            if f.type == "float" and isinstance(value, int) and abs(value) > sys.float_info.max:
                raise ValueError(f"config {f.name} is beyond the float range")
        if self.head_kind not in (REGRESSION, SOFTMAX):
            raise ValueError(f"unsupported head kind {self.head_kind!r}")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ValueError("dropout rate must lie in [0, 1)")
        if not (math.isfinite(self.lr) and self.lr >= 0.0):
            raise ValueError(f"lr must be finite and >= 0, got {self.lr!r}")
        for name in ("depth", "hidden", "embed_dim", "annot_dim", "attention_k"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be positive")
        for name in ("epochs", "seed"):  # numpy refuses a negative seed only once training starts
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        if self.precision not in ad.PRECISIONS:
            raise ValueError("precision must be f32 or f64")

    @classmethod
    def from_file(cls, path, **overrides) -> "TrainConfig":
        """The defaults, then the JSON object in ``path`` (if given), then
        every override that is not None."""
        data = {}
        if path is not None:
            with open(path, "rb") as fh:
                data = _parse_json(fh.read(), path, ValueError)
            if not isinstance(data, dict):
                raise ValueError(f"{path}: config must be a JSON object")
        data.update({k: v for k, v in overrides.items() if v is not None})
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        return cls(**data)


@dataclass
class DatasetRecord:
    image_id: str
    feature_path: str | None
    captions: list[list[str]]
    annotations: AnnotationSet | None = None

    def load_annotations(self) -> AnnotationSet:
        if self.annotations is None:
            if self.feature_path is None:
                raise DataError(f"image {self.image_id}: the manifest gives no features")
            self.annotations = load_features(self.feature_path)
        return self.annotations


def read_jsonl(path, *keys):
    """Yield (line number, object) for each non-blank line of a JSON-lines
    file. Every line must be a JSON object holding each of ``keys``; where
    one of them is ``"id"``, its value must be a string or a number."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            for lineno, line in enumerate(fh, start=1):
                line = line.strip()
                if not line:
                    continue
                obj = _parse_json(line, f"{path}:{lineno}", DataError)
                if not isinstance(obj, dict):
                    raise DataError(f"{path}:{lineno}: expected a JSON object")
                for key in keys:
                    if key not in obj:
                        raise DataError(f"{path}:{lineno}: missing key {key!r}")
                if "id" in keys and (obj["id"] is None
                                     or isinstance(obj["id"], (bool, list, dict))):
                    raise DataError(f"{path}:{lineno}: 'id' must be a string or a number")
                yield lineno, obj
        except UnicodeDecodeError as e:
            raise DataError(f"{path}: not UTF-8: {e}") from e


def _is_caption(c) -> bool:
    return isinstance(c, str) or (isinstance(c, list) and all(isinstance(t, str) for t in c))


def load_dataset(manifest_path) -> list[DatasetRecord]:
    """Read a JSON-lines manifest: one {"id", "features", "captions"} per line.

    Captions may be strings (whitespace split) or token lists; an empty
    caption is a data error. Every caption is kept, however many an image
    has. "features" may be left out where no annotations are needed
    (embedding training).
    """
    records = []
    root = Path(manifest_path).parent
    for lineno, obj in read_jsonl(manifest_path, "id", "captions"):
        image_id = obj["id"]
        if not (isinstance(obj["captions"], list) and all(map(_is_caption, obj["captions"]))):
            raise DataError(f"{manifest_path}:{lineno}: record {image_id}: captions must "
                            f"be a list of strings or of token lists")
        captions = [c.split() if isinstance(c, str) else c for c in obj["captions"]]
        if not captions:
            raise DataError(f"{manifest_path}:{lineno}: record {image_id} has no captions")
        if not all(captions):
            raise DataError(f"{manifest_path}:{lineno}: record {image_id} has an empty caption")
        feature_path = obj.get("features")
        if feature_path is not None:
            if not isinstance(feature_path, str):
                raise DataError(f"{manifest_path}:{lineno}: record {image_id}: features "
                                f"must be a string")
            feature_path = str(root / feature_path)
            if not Path(feature_path).is_file():
                raise DataError(f"{manifest_path}:{lineno}: missing feature file "
                                f"{feature_path} for image {image_id}")
        records.append(DatasetRecord(str(image_id), feature_path, captions))
    return records


def check_annotation_dim(image: str, annotations: AnnotationSet, annot_dim: int) -> None:
    """Raise DataError unless the annotation vectors have ``annot_dim`` components."""
    if annotations.dim != annot_dim:
        raise DataError(f"image {image}: annotation dimension {annotations.dim} "
                        f"differs from annot_dim {annot_dim}")


def split_validation(records: list[DatasetRecord]) -> tuple[list, list]:
    """Deterministic ~10% validation split by hash of the image id."""
    train, val = [], []
    for rec in records:
        (val if zlib.crc32(rec.image_id.encode()) % 10 == 0 else train).append(rec)
    return train, val


@dataclass
class TrainLog:
    """One row per epoch: ``epoch``, ``loss``, ``lr``, ``val_loss`` (None
    without a validation split); ``forward_s``, ``backward_s`` and
    ``optimizer_s``, each summed over the epoch's samples, and
    ``validation_s``, in seconds; ``samples_per_s`` over the wall time of
    the epoch's training loop; and ``grad_norm_w_x``, the last sample's
    ``||dW_x||`` of each LSTM layer, bottom layer first."""
    epochs: list[dict] = field(default_factory=list)


def _layer_grad_norms(model: CaptionModel) -> list[float]:
    return [float(np.linalg.norm(layer.w_x.gradient())) for layer in model.layers]


def train(config: TrainConfig, records: list[DatasetRecord],
          embedding: EmbeddingTable,
          stop_loss_ratio: float | None = None) -> tuple[CaptionModel, TrainLog]:
    """Shuffled teacher-forced training with Adam and plateau LR decay.

    ``stop_loss_ratio`` optionally stops early once the epoch loss falls
    below that fraction of the initial epoch loss. The model is built in
    ``config.precision``.
    """
    train_set, val_set = split_validation(records)
    if not train_set:
        train_set, val_set = records, []
    samples = [(rec, cap) for rec in train_set for cap in rec.captions]
    if not samples:
        raise DataError("no training captions")
    for rec in records:
        check_annotation_dim(rec.image_id, rec.load_annotations(), config.annot_dim)
    model = CaptionModel.init(
        embedding, depth=config.depth, hidden=config.hidden,
        annot_dim=config.annot_dim, attention_k=config.attention_k,
        head_kind=config.head_kind, dropout_rate=config.dropout_rate,
        seed=config.seed, precision=config.precision)
    rng = np.random.default_rng(config.seed)
    opt = AdamState(model.parameters(), lr=config.lr)
    log = TrainLog()
    initial_loss = None
    best_loss = math.inf
    stale = 0
    for epoch in range(config.epochs):
        order = rng.permutation(len(samples))
        epoch_loss = 0.0
        grad_norms = None
        forward_s = backward_s = optimizer_s = 0.0
        start = time.perf_counter()
        try:
            for idx in order:
                rec, cap = samples[idx]
                t0 = time.perf_counter()
                loss = teacher_forced_loss(model, rec.load_annotations(), cap,
                                           train_mode=True, rng=rng)
                t1 = time.perf_counter()
                loss.backward()
                epoch_loss += loss.item()
                if idx == order[-1]:  # the logged norms are the last sample's
                    grad_norms = _layer_grad_norms(model)
                t2 = time.perf_counter()
                opt.step()
                t3 = time.perf_counter()
                forward_s += t1 - t0
                backward_s += t2 - t1
                optimizer_s += t3 - t2
            samples_per_s = len(samples) / (time.perf_counter() - start)
            val_loss = None
            t0 = time.perf_counter()
            if val_set:
                val_loss = float(np.mean([
                    teacher_forced_loss(model, rec.load_annotations(), cap).item()
                    for rec in val_set for cap in rec.captions]))
        except NumericalError as e:
            raise TrainingAborted(
                f"non-finite values at epoch {epoch}",
                dump={"epoch": epoch, "lr": opt.lr, "error": str(e),
                      "epoch_loss_so_far": epoch_loss}, log=log) from e
        epoch_loss /= len(samples)
        log.epochs.append({
            "epoch": epoch, "loss": epoch_loss, "lr": opt.lr, "val_loss": val_loss,
            "forward_s": forward_s, "backward_s": backward_s, "optimizer_s": optimizer_s,
            "validation_s": time.perf_counter() - t0, "samples_per_s": samples_per_s,
            "grad_norm_w_x": grad_norms})
        if initial_loss is None:
            initial_loss = epoch_loss
        if epoch_loss < best_loss * 0.99:
            best_loss = epoch_loss
            stale = 0
        else:
            stale += 1
            if stale >= _DECAY_PATIENCE:
                opt.lr *= _DECAY_FACTOR
                stale = 0
        if stop_loss_ratio is not None and epoch_loss < stop_loss_ratio * initial_loss:
            break
    return model, log


# ---------------------------------------------------------------------------
# experiments


def grad_experiment(vocab_size: int, embed_dim: int,
                    trials: int = 50, seed: int = 0) -> dict:
    """Measure output-layer gradient magnitudes for both heads.

    Reports (a) the mean absolute non-target gradient component of the
    softmax cross-entropy head over random and uniform logits, and (b) the
    mean absolute per-component gradient of the regression head at random
    and at unit residual. Every value is a scalar.
    """
    if vocab_size < 2:
        raise ValueError("vocab_size must be >= 2: the softmax head needs a non-target class")
    if embed_dim < 1 or trials < 1:
        raise ValueError("embed_dim and trials must be positive")
    rng = np.random.default_rng(seed)

    def abs_gradient(values, loss):
        """|d loss(x) / d x| at the vector ``values``."""
        x = Tensor(values)
        loss(x).backward()
        return np.abs(x.gradient())

    uniform = abs_gradient(np.zeros(vocab_size), lambda x: ad.cross_entropy(x, 0))
    nontarget_means = []
    for _ in range(trials):
        logits, y = rng.normal(0, 1, vocab_size), int(rng.integers(vocab_size))
        g = abs_gradient(logits, lambda x: ad.cross_entropy(x, y))
        nontarget_means.append((g.sum() - g[y]) / (vocab_size - 1))
    unit = abs_gradient(np.ones(embed_dim), lambda x: ad.mse(x, np.zeros(embed_dim)))
    reg_means = []
    for _ in range(trials):
        pred, target = rng.normal(0, 1, embed_dim), rng.normal(0, 1, embed_dim)
        reg_means.append(abs_gradient(pred, lambda x: ad.mse(x, target)).mean())
    return {
        "vocab_size": vocab_size,
        "embed_dim": embed_dim,
        "softmax_nontarget_uniform": float(uniform[1:].mean()),
        "softmax_nontarget_mean": float(np.mean(nontarget_means)),
        "regression_unit_residual": float(unit.mean()),
        "regression_mean": float(np.mean(reg_means)),
    }


def depth_study(config_base: TrainConfig, depths: list[int],
                records: list[DatasetRecord], embedding: EmbeddingTable) -> list[dict]:
    """Train at each depth and report parameter counts plus toy-scale metrics."""
    from .metrics import EvalCorpus, bleu, rouge_l

    if not depths:
        raise ValueError("depth list is empty")
    rows = []
    for depth in depths:
        cfg = replace(config_base, depth=depth)
        model, log = train(cfg, records, embedding)
        counts = {
            kind: param_count(depth, cfg.hidden, embedding.dim, len(embedding.vocab),
                              cfg.annot_dim, cfg.attention_k, kind)
            for kind in (REGRESSION, SOFTMAX)
        }
        # scored as `capreg evaluate` scores the same captions
        corpus = EvalCorpus.from_strings(
            [(" ".join(greedy_decode(model, rec.load_annotations())),
              [" ".join(c) for c in rec.captions]) for rec in records])
        rows.append({
            "depth": depth,
            "params_regression": counts[REGRESSION],
            "params_softmax": counts[SOFTMAX],
            "final_loss": log.epochs[-1]["loss"] if log.epochs else None,
            "bleu4": bleu(corpus, 4),
            "bleu1": bleu(corpus, 1),
            "rouge_l": rouge_l(corpus),
        })
    return rows


# ---------------------------------------------------------------------------
# checkpointing

_CKPT_MAGIC = b"CKPT"


class CheckpointError(ValueError):
    """A checkpoint that cannot be loaded; a ValueError, so the CLI exits 1."""


# other header keys, such as a "dropout_rate" some files hold, are not read
_MODEL_KEYS = ("depth", "hidden", "embed_dim", "annot_dim", "attention_k", "head_kind")


def save_checkpoint(model: CaptionModel, path) -> None:
    """The header holds the hyperparameters, the vocabulary hash and
    ``params``, each parameter's name and shape in ``model.parameters()``
    order, the payload's; the payload is their values as float64."""
    params = model.parameters()
    dims = dict(zip(_MODEL_KEYS, (model.depth, model.hidden, model.embedding.dim, model.annot_dim,
                                  model.attention.b_hidden.shape[0], model.head.kind)))
    layout = param_layout(**dims, vocab_size=len(model.embedding.vocab))
    write_framed(path, _CKPT_MAGIC, {
        **dims,
        "vocab_hash": model.embedding.vocab.content_hash(),
        "params": [[name, list(p.shape)] for (name, _, _), p in zip(layout, params, strict=True)],
    }, "<f8", (p.data for p in params))


def load_checkpoint(path, embedding: EmbeddingTable,
                    precision: str = "f64") -> CaptionModel:
    """Rebuild a saved model, without dropout, with its parameters in
    ``precision``: views of the one array the file is read into (in f32, of
    its one cast)."""
    if precision not in ad.PRECISIONS:
        raise ValueError(f"unknown precision {precision!r}")
    header, payload = read_framed(path, _CKPT_MAGIC, "<f8", CheckpointError)
    for key in (*_MODEL_KEYS, "vocab_hash", "params"):
        if key not in header:
            raise CheckpointError(f"{path}: header lacks {key!r}")
    for key in _MODEL_KEYS:
        try:
            TrainConfig(**{key: header[key]})
        except ValueError as e:
            raise CheckpointError(f"{path}: header {key}: {e}") from e
    vocab_hash = header["vocab_hash"]
    if isinstance(vocab_hash, bool) or not isinstance(vocab_hash, int):
        raise CheckpointError(f"{path}: header vocab_hash: must be int, got {vocab_hash!r}")
    if header["vocab_hash"] != embedding.vocab.content_hash():
        raise CheckpointError(f"{path}: checkpoint vocabulary does not match the "
                              f"embedding table")
    if header["embed_dim"] != embedding.dim:
        raise CheckpointError(f"{path}: checkpoint embedding dimension mismatch")
    dims = (header["depth"], header["hidden"], header["embed_dim"], len(embedding.vocab),
            header["annot_dim"], header["attention_k"], header["head_kind"])
    # before the layout: a header may declare far more weights than the file
    # holds, or than memory can, or more layers than can be enumerated
    check_count(path, payload, param_count(*dims), CheckpointError)
    layout = param_layout(*dims)
    if header["params"] != [[name, list(shape)] for name, shape, _ in layout]:
        raise CheckpointError(f"{path}: header params do not match the model's names and shapes")
    parts = np.split(payload.astype(ad.PRECISIONS[precision], copy=False),
                     np.cumsum([math.prod(shape) for _, shape, _ in layout[:-1]]))
    return CaptionModel.from_tensors(embedding, header["head_kind"], [
        Tensor(part.reshape(shape)) for (_, shape, _), part in zip(layout, parts)])
