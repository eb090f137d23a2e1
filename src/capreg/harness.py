"""Training harness: dataset ingestion, the training loop, gradient and
depth experiments, and checkpoint persistence."""

from __future__ import annotations

import json
import logging
import math
import struct
import sys
import time
import zlib
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor, AdamState, NumericalError
from .decoder import (CaptionModel, REGRESSION, SOFTMAX, teacher_forced_loss,
                      greedy_decode, param_count)
from .embedding import EmbeddingTable
from .encoder import AnnotationSet, DataError, load_features

logger = logging.getLogger(__name__)


class TrainingAborted(NumericalError):
    """Numerical failure during training; carries a diagnostic dump."""

    def __init__(self, message: str, dump: dict):
        super().__init__(message)
        self.dump = dump


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


def _parse_json(text: str | bytes, where, error: type[Exception]):
    """``json.loads(text)``, bytes as UTF-8; a refusal raises ``error`` naming ``where``."""
    try:
        return json.loads(text.decode("utf-8") if isinstance(text, bytes) else text)
    except UnicodeDecodeError as e:
        raise error(f"{where}: not UTF-8: {e}") from e
    except RecursionError:
        raise error(f"{where}: JSON nests too deeply") from None
    except json.JSONDecodeError as e:
        raise error(f"{where}: parse error: {e}") from e
    except ValueError as e:  # the one other refusal: an int past Python's digit limit
        raise error(f"{where}: integer too long (more than "
                    f"{sys.get_int_max_str_digits()} digits)") from e


def read_jsonl(path, *keys):
    """Yield (line number, object) for each non-blank line of a JSON-lines
    file. Every line must be a JSON object holding each of ``keys``."""
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
                yield lineno, obj
        except UnicodeDecodeError as e:
            raise DataError(f"{path}: not UTF-8: {e}") from e


def _is_caption(c) -> bool:
    return isinstance(c, str) or (isinstance(c, list) and all(isinstance(t, str) for t in c))


def load_dataset(manifest_path) -> list[DatasetRecord]:
    """Read a JSON-lines manifest: one {"id", "features", "captions"} per line.

    Captions may be strings (whitespace split) or token lists; an empty
    caption is a data error. More than five captions per image is accepted
    with a logged warning; data is never discarded. "features" may be left
    out where no annotations are needed (embedding training).
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
        if len(captions) > 5:
            logger.warning("image %s has %d captions (> 5); keeping all",
                           image_id, len(captions))
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
    the epoch's training loop; and ``grad_norm_layer{i}``, the last
    sample's ``||dW_x||`` of each LSTM layer."""
    epochs: list[dict] = field(default_factory=list)


def write_csv(rows: list[dict], path) -> None:
    """Write dict rows as CSV, the first row's keys as the header. No rows,
    no file."""
    if not rows:
        return
    keys = list(rows[0].keys())
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(keys) + "\n")
        for row in rows:
            fh.write(",".join("" if row[k] is None else str(row[k]) for k in keys) + "\n")


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
        except NumericalError as e:
            raise TrainingAborted(
                f"non-finite values at epoch {epoch}",
                dump={"epoch": epoch, "lr": opt.lr, "error": str(e),
                      "epoch_loss_so_far": epoch_loss}) from e
        samples_per_s = len(samples) / (time.perf_counter() - start)
        epoch_loss /= len(samples)
        val_loss = None
        t0 = time.perf_counter()
        if val_set:
            val_loss = float(np.mean([
                teacher_forced_loss(model, rec.load_annotations(), cap).item()
                for rec in val_set for cap in rec.captions]))
        row = {"epoch": epoch, "loss": epoch_loss, "lr": opt.lr, "val_loss": val_loss,
               "forward_s": forward_s, "backward_s": backward_s, "optimizer_s": optimizer_s,
               "validation_s": time.perf_counter() - t0, "samples_per_s": samples_per_s}
        for i, g in enumerate(grad_norms or []):
            row[f"grad_norm_layer{i}"] = g
        log.epochs.append(row)
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

    uniform = Tensor(np.zeros(vocab_size))
    ad.cross_entropy(uniform, 0).backward()
    uniform_nontarget = float(np.abs(uniform.gradient()[1:]).mean())

    nontarget_means = []
    for _ in range(trials):
        logits = Tensor(rng.normal(0, 1, vocab_size))
        y = int(rng.integers(vocab_size))
        ad.cross_entropy(logits, y).backward()
        g = np.abs(logits.gradient())
        nontarget_means.append((g.sum() - g[y]) / (vocab_size - 1))
    softmax_mean = float(np.mean(nontarget_means))

    unit_pred = Tensor(np.ones(embed_dim))
    ad.mse(unit_pred, np.zeros(embed_dim)).backward()
    regression_unit = float(np.abs(unit_pred.gradient()).mean())

    reg_means = []
    for _ in range(trials):
        pred = Tensor(rng.normal(0, 1, embed_dim))
        ad.mse(pred, rng.normal(0, 1, embed_dim)).backward()
        reg_means.append(float(np.abs(pred.gradient()).mean()))
    regression_mean = float(np.mean(reg_means))

    return {
        "vocab_size": vocab_size,
        "embed_dim": embed_dim,
        "softmax_nontarget_uniform": uniform_nontarget,
        "softmax_nontarget_mean": softmax_mean,
        "regression_unit_residual": regression_unit,
        "regression_mean": regression_mean,
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
        pairs = [(greedy_decode(model, rec.load_annotations()), rec.captions)
                 for rec in records]
        corpus = EvalCorpus(pairs)
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
_CKPT_VERSION = 3


class CheckpointError(ValueError):
    """A checkpoint that cannot be loaded; a ValueError, so the CLI exits 1."""


def save_checkpoint(model: CaptionModel, path) -> None:
    """Format v3: ``CKPT``, version, header length, a JSON header, every
    parameter's little-endian float64 values back to back, and a CRC32. The
    header holds the hyperparameters, the vocabulary hash and ``params``, each
    parameter's name and shape in ``model.parameters()`` order, the payload's."""
    params = model.parameters()
    header = json.dumps({
        "depth": model.depth,
        "hidden": model.hidden,
        "embed_dim": model.embedding.dim,
        "annot_dim": model.annot_dim,
        "attention_k": model.attention.b_hidden.shape[0],
        "head_kind": model.head.kind,
        "vocab_hash": model.embedding.vocab.content_hash(),
        "params": [[p.name, list(p.shape)] for p in params],
    }, sort_keys=True).encode("utf-8")
    crc = 0
    with open(path, "wb") as fh:  # streamed: no blob of the whole file is built
        for chunk in (_CKPT_MAGIC + struct.pack("<II", _CKPT_VERSION, len(header)) + header,
                      *(np.ascontiguousarray(p.data, "<f8") for p in params)):
            crc = zlib.crc32(chunk, crc)
            fh.write(chunk)
        fh.write(struct.pack("<I", crc))


# other header keys, such as a "dropout_rate" some files hold, are not read
_MODEL_KEYS = ("depth", "hidden", "embed_dim", "annot_dim", "attention_k", "head_kind")


def _checkpoint_header(path, blob: bytes) -> dict:
    header = _parse_json(blob, f"{path}: header", CheckpointError)
    if not isinstance(header, dict):
        raise CheckpointError(f"{path}: header must be a JSON object")
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
    return header


def load_checkpoint(path, embedding: EmbeddingTable,
                    precision: str = "f64") -> CaptionModel:
    """Rebuild a saved model, without dropout, with its parameters in ``precision``."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < 12 or raw[:4] != _CKPT_MAGIC:
        raise CheckpointError(f"{path}: not a checkpoint file")
    body = memoryview(raw)[:-4]  # check and parse the checksummed bytes, without a copy
    if zlib.crc32(body) != struct.unpack("<I", raw[-4:])[0]:
        raise CheckpointError(f"{path}: checksum mismatch")
    version, = struct.unpack_from("<I", body, 4)
    if version != _CKPT_VERSION:
        raise CheckpointError(f"{path}: unsupported version {version}")
    start = 12 + int.from_bytes(body[8:12], "little")  # past the header
    if len(body) < 12 or start > len(body):
        raise CheckpointError(f"{path}: truncated header")
    header = _checkpoint_header(path, bytes(body[12:start]))
    if header["vocab_hash"] != embedding.vocab.content_hash():
        raise CheckpointError(f"{path}: checkpoint vocabulary does not match the "
                              f"embedding table")
    if header["embed_dim"] != embedding.dim:
        raise CheckpointError(f"{path}: checkpoint embedding dimension mismatch")
    # before building the model: a header may declare far more weights than
    # the file holds, or than memory can
    count = param_count(header["depth"], header["hidden"], header["embed_dim"],
                        len(embedding.vocab), header["annot_dim"], header["attention_k"],
                        header["head_kind"])
    left = len(body) - start
    if 8 * count > left:
        raise CheckpointError(f"{path}: truncated payload: the header declares {count} "
                              f"parameters, {left} bytes are left")
    if 8 * count < left:
        raise CheckpointError(f"{path}: {left - 8 * count} bytes after the last parameter")
    model = CaptionModel.init(
        embedding, depth=header["depth"], hidden=header["hidden"],
        annot_dim=header["annot_dim"], attention_k=header["attention_k"],
        head_kind=header["head_kind"], precision=precision)
    params = model.parameters()
    if header["params"] != [[p.name, list(p.shape)] for p in params]:
        raise CheckpointError(f"{path}: header params do not match the model's names and shapes")
    values = np.frombuffer(body, "<f8", count, start)
    for p in params:  # one at a time, replacing init's array: no second model in memory
        n = p.data.size
        p.data, values = values[:n].reshape(p.shape).astype(model.dtype), values[n:]
    return model
