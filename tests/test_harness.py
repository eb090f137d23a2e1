import dataclasses
import json
import logging
import math
import time
import zlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from capreg import decoder, harness
from capreg.autodiff import NumericalError, Tensor
from capreg.cli import EXIT_OK, EXIT_USAGE, main
from capreg.decoder import (REGRESSION, SOFTMAX, CaptionModel, greedy_decode,
                            teacher_forced_loss)
from capreg.embedding import RESERVED, EmbeddingTable, Vocabulary
from capreg.encoder import AnnotationSet, read_framed, save_features
from capreg.harness import (CheckpointError, DataError, DatasetRecord,
                            TrainConfig, depth_study, grad_experiment,
                            load_checkpoint, load_dataset, save_checkpoint,
                            TrainingAborted, split_validation, train)

from test_decoder import named_params
from test_encoder import framed_bytes, framing_corruptions


def _table(num_words=20, d=8, seed=0):
    rng = np.random.default_rng(seed)
    vocab = Vocabulary(list(RESERVED) + [f"w{i}" for i in range(num_words)])
    return EmbeddingTable(vocab, rng.normal(0, 1, (len(vocab), d)))


def _records(n=4, dim=8, seed=0):
    rng = np.random.default_rng(seed)
    out = []
    for i in range(n):
        annots = AnnotationSet(rng.normal(0, 1, (4, dim)), 2, 2)
        cap = [f"w{rng.integers(20)}" for _ in range(4)]
        out.append(DatasetRecord(f"img{i}", None, [cap], annotations=annots))
    return out


def _toy_config(**kw):
    base = dict(depth=1, hidden=12, embed_dim=8, annot_dim=8, attention_k=6,
                dropout_rate=0.0, epochs=2, seed=0)
    base.update(kw)
    return TrainConfig(**base)


class TestTrainConfig:
    def test_defaults_valid(self):
        TrainConfig()

    def test_bad_head_kind(self):
        with pytest.raises(ValueError):
            TrainConfig(head_kind="beam")

    def test_dropout_range(self):
        with pytest.raises(ValueError):
            TrainConfig(dropout_rate=1.0)

    @pytest.mark.parametrize("field, value", [
        ("depth", "8"), ("depth", 8.0), ("depth", True), ("lr", "0.1"),
        ("lr", False), ("head_kind", 1)])
    def test_field_types_checked(self, field, value):
        with pytest.raises(ValueError, match=f"config {field} must be"):
            TrainConfig(**{field: value})

    @pytest.mark.parametrize("lr", [float("nan"), float("inf"), float("-inf"), -1e-3])
    def test_lr_finite_and_non_negative(self, lr):
        with pytest.raises(ValueError, match="lr must be finite"):
            TrainConfig(lr=lr)

    @pytest.mark.parametrize("field", ["epochs", "seed"])
    def test_counts_non_negative(self, field):
        with pytest.raises(ValueError, match=f"{field} must be >= 0"):
            TrainConfig(**{field: -1})

    def test_int_is_a_valid_float(self):
        TrainConfig(lr=0, dropout_rate=0)

    def test_frozen_once_built(self):
        # checked when built, so a later assignment cannot make it invalid
        with pytest.raises(dataclasses.FrozenInstanceError):
            TrainConfig().dropout_rate = 1.5

    def test_file_value_checked_when_read(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text('{"dropout_rate": 1.5}')
        with pytest.raises(ValueError, match="dropout rate"):
            TrainConfig.from_file(path)

    def test_no_file_gives_defaults_and_overrides(self):
        cfg = TrainConfig.from_file(None, depth=3, hidden=None)
        assert cfg == TrainConfig(depth=3)

    def test_from_file_with_overrides(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"depth": 5, "hidden": 32}))
        cfg = TrainConfig.from_file(path, depth=3)
        assert cfg.depth == 3 and cfg.hidden == 32

    # a misspelling, and the keys that plateau decay and decoding no longer read
    @pytest.mark.parametrize("key, value", [
        ("dpeth", 5), ("decay_factor", 0.5), ("decay_patience", 10), ("max_decode_len", 20)])
    def test_unknown_keys_rejected(self, tmp_path, key, value):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({key: value}))
        with pytest.raises(ValueError, match=f"unknown config keys: \\['{key}'\\]"):
            TrainConfig.from_file(path)


class TestLoadDataset:
    def test_empty_manifest(self, tmp_path):
        path = tmp_path / "m.jsonl"
        path.write_text("")
        assert load_dataset(path) == []

    def test_order_preserved(self, tmp_path):
        path = tmp_path / "m.jsonl"
        lines = [json.dumps({"id": f"i{k}", "captions": [f"a b c{k}"]})
                 for k in range(3)]
        path.write_text("\n".join(lines) + "\n")
        records = load_dataset(path)
        assert [r.image_id for r in records] == ["i0", "i1", "i2"]
        assert records[2].captions == [["a", "b", "c2"]]

    def test_six_captions_kept(self, tmp_path, capsys, caplog):
        path = tmp_path / "m.jsonl"
        path.write_text(json.dumps({"id": "x", "captions": [f"a{i}" for i in range(6)]}) + "\n")
        with caplog.at_level(logging.DEBUG):
            records = load_dataset(path)
        assert records[0].captions == [[f"a{i}"] for i in range(6)]
        assert caplog.records == []
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("caption", ["", "   ", []], ids=["empty", "blank", "no-tokens"])
    def test_empty_caption_rejected(self, tmp_path, caption):
        path = tmp_path / "m.jsonl"
        path.write_text(json.dumps({"id": "x", "captions": ["a b", caption]}) + "\n")
        with pytest.raises(DataError, match=":1: .*empty caption"):
            load_dataset(path)

    def test_parse_error_reports_line(self, tmp_path):
        path = tmp_path / "m.jsonl"
        path.write_text('{"id": "a", "captions": ["x"]}\n{broken\n')
        with pytest.raises(DataError, match=":2:"):
            load_dataset(path)

    def test_non_object_line(self, tmp_path):
        path = tmp_path / "m.jsonl"
        path.write_text('{"id": "a", "captions": ["x"]}\n[1, 2]\n')
        with pytest.raises(DataError, match=":2: expected a JSON object"):
            load_dataset(path)

    def test_missing_key_named(self, tmp_path):
        path = tmp_path / "m.jsonl"
        path.write_text('{"id": "a"}\n')
        with pytest.raises(DataError, match=":1: missing key 'captions'"):
            load_dataset(path)

    def test_no_features_refused_when_needed(self, tmp_path):
        path = tmp_path / "m.jsonl"
        path.write_text(json.dumps({"id": "a", "captions": ["x"]}) + "\n")
        rec = load_dataset(path)[0]
        with pytest.raises(DataError, match="image a: the manifest gives no features"):
            rec.load_annotations()

    def test_dangling_feature_path(self, tmp_path):
        path = tmp_path / "m.jsonl"
        path.write_text(json.dumps(
            {"id": "a", "captions": ["x"], "features": "missing.annv"}) + "\n")
        with pytest.raises(DataError, match="missing feature file"):
            load_dataset(path)

    @pytest.mark.parametrize("features", ["", ".", "sub"])
    def test_directory_feature_path(self, tmp_path, features):
        (tmp_path / "sub").mkdir()
        path = tmp_path / "m.jsonl"
        path.write_text(json.dumps(
            {"id": "a", "captions": ["x"], "features": features}) + "\n")
        with pytest.raises(DataError, match="missing feature file"):
            load_dataset(path)

    def test_feature_path_resolved_and_loaded(self, tmp_path):
        annots = AnnotationSet(np.ones((4, 3)), 2, 2)
        save_features(annots, tmp_path / "f.annv")
        path = tmp_path / "m.jsonl"
        path.write_text(json.dumps(
            {"id": "a", "captions": ["x y"], "features": "f.annv"}) + "\n")
        rec = load_dataset(path)[0]
        loaded = rec.load_annotations()
        np.testing.assert_array_equal(loaded.vectors, 1.0)


class TestSplitValidation:
    def test_deterministic_and_disjoint(self):
        records = _records(n=40)
        t1, v1 = split_validation(records)
        t2, v2 = split_validation(records)
        assert [r.image_id for r in t1] == [r.image_id for r in t2]
        assert len(t1) + len(v1) == 40
        assert not {r.image_id for r in t1} & {r.image_id for r in v1}


class TestLoadedTableBitIdentical:
    """A loaded table keeps the file's float32 rows. The model reads from it
    exactly what it reads from the same rows as float64."""

    @pytest.fixture
    def tables(self, tmp_path):
        _table(num_words=400, d=8).save(tmp_path / "e.bin")
        loaded = EmbeddingTable.load(tmp_path / "e.bin")
        assert loaded.vectors.dtype == np.float32
        return loaded, EmbeddingTable(loaded.vocab, loaded.vectors.astype(np.float64))

    @staticmethod
    def _model(table, seed=0, precision="f64"):
        return CaptionModel.init(table, depth=2, hidden=12, annot_dim=8, attention_k=6,
                                 head_kind=REGRESSION, seed=seed, precision=precision)

    @pytest.mark.parametrize("precision", ["f64", "f32"])
    def test_embed_rows(self, tables, precision):
        tokens = tables[0].vocab.index_to_token
        rows, ref = (self._model(t, precision=precision).embed_rows(tokens) for t in tables)
        assert rows.dtype == ref.dtype
        assert np.array_equal(rows, ref)

    def test_greedy_decode(self, tables):
        rng = np.random.default_rng(21)
        decoded = []
        for seed in range(5):
            annots = AnnotationSet(rng.normal(0, 1, (4, 8)), 2, 2)
            models = [self._model(t, seed=seed) for t in tables]
            for model in models:
                # spread an untrained head's outputs over the table
                model.head.w.data *= 30.0
            tokens, ref = (greedy_decode(m, annots, max_len=8) for m in models)
            assert tokens == ref
            decoded.extend(tokens)
        assert len(set(decoded)) > 5

    def test_two_epoch_f64_train(self, tables):
        losses, ref = ([row["loss"] for row in train(_toy_config(), _records(), t)[1].epochs]
                       for t in tables)
        assert len(losses) == 2
        assert losses == ref


class TestTrain:
    def test_zero_epochs_keeps_initialization(self):
        table = _table()
        cfg = _toy_config(epochs=0)
        model, log = train(cfg, _records(), table)
        fresh = CaptionModel.init(table, depth=cfg.depth, hidden=cfg.hidden,
                                  annot_dim=cfg.annot_dim,
                                  attention_k=cfg.attention_k,
                                  head_kind=cfg.head_kind,
                                  dropout_rate=cfg.dropout_rate, seed=cfg.seed)
        for a, b in zip(model.parameters(), fresh.parameters()):
            np.testing.assert_array_equal(a.data, b.data)
        assert log.epochs == []

    def test_zero_lr_constant_loss(self):
        model, log = train(_toy_config(lr=0.0, epochs=4), _records(), _table())
        losses = [row["loss"] for row in log.epochs]
        assert max(losses) - min(losses) < 1e-12

    def test_plateau_decay(self):
        # at lr 1e-9 the loss never improves by 1% on epoch 0's, so the rate
        # drops tenfold once, after epoch 50
        _, log = train(_toy_config(lr=1e-9, epochs=52), _records(), _table())
        lrs = [row["lr"] for row in log.epochs]
        assert lrs[:51] == [1e-9] * 51
        assert lrs[51] == pytest.approx(1e-10, rel=1e-15)

    def test_loss_decreases(self):
        model, log = train(_toy_config(epochs=30), _records(), _table())
        assert log.epochs[-1]["loss"] < log.epochs[0]["loss"]

    def test_deterministic_trajectory(self):
        def run():
            _, log = train(_toy_config(epochs=5, dropout_rate=0.3),
                           _records(), _table())
            return [row["loss"] for row in log.epochs]
        assert run() == run()

    def test_grad_norms_logged_per_layer(self):
        _, log = train(_toy_config(depth=3, epochs=1), _records(), _table())
        norms = log.epochs[0]["grad_norm_w_x"]
        assert len(norms) == 3 and all(isinstance(g, float) and g > 0 for g in norms)

    def test_empty_records_rejected(self):
        with pytest.raises(DataError, match="no training captions"):
            train(_toy_config(), [], _table())

    def test_annotation_dimension_checked_up_front(self):
        records = _records(dim=8) + _records(n=1, dim=6, seed=1)
        with pytest.raises(DataError, match="annotation dimension 6"):
            train(_toy_config(annot_dim=8), records, _table())

    def test_f32_training_leaves_default_dtype(self):
        model, log = train(_toy_config(precision="f32"), _records(), _table())
        assert all(p.data.dtype == np.float32 for p in model.parameters())
        assert np.isfinite(log.epochs[-1]["loss"])
        assert Tensor([1.0]).data.dtype == np.float64

    def test_overflow_in_validation_aborts_training(self):
        # img11 is the validation split; at lr 1e300 the first Adam step
        # makes the weights about 1e300, and the validation loss overflows
        records = [_records(n=1)[0], _records(n=12)[11]]
        assert [len(part) for part in split_validation(records)] == [1, 1]
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(TrainingAborted, match="at epoch 0") as info:
                train(_toy_config(lr=1e300), records, _table())
        assert info.value.dump["epoch"] == 0
        assert info.value.dump["error"].startswith("mse: non-finite values")
        assert info.value.log.epochs == []

    def test_abort_carries_the_completed_epochs(self, monkeypatch):
        # four training samples an epoch: the fifth loss is epoch 1's first
        calls = []

        def failing_loss(*args, **kwargs):
            calls.append(1)
            if len(calls) == 5:
                raise NumericalError("lstm: non-finite values")
            return teacher_forced_loss(*args, **kwargs)
        _, ref = train(_toy_config(epochs=1), _records(), _table())
        monkeypatch.setattr(harness, "teacher_forced_loss", failing_loss)
        with pytest.raises(TrainingAborted, match="at epoch 1") as info:
            train(_toy_config(epochs=3), _records(), _table())
        assert info.value.dump["epoch"] == 1
        rows = info.value.log.epochs
        assert [row["loss"] for row in rows] == [row["loss"] for row in ref.epochs]

    def test_phase_times_logged(self):
        phases = ("forward_s", "backward_s", "optimizer_s", "validation_s")
        records = _records(n=12)  # img11 is in the validation split
        start = time.perf_counter()
        _, log = train(_toy_config(epochs=3), records, _table())
        elapsed = time.perf_counter() - start
        for row in log.epochs:
            assert all(row[k] >= 0 for k in phases) and row["validation_s"] > 0
            # samples_per_s counts the 11 training samples over the training
            # loop's wall time, which holds its three phases
            assert row["samples_per_s"] > 0
            train_s = row["forward_s"] + row["backward_s"] + row["optimizer_s"]
            assert train_s <= 11 / row["samples_per_s"] * (1 + 1e-9)
        assert sum(row[k] for row in log.epochs for k in phases) <= elapsed


class TestGradExperiment:
    def test_uniform_logits_exact(self):
        report = grad_experiment(20000, 64, trials=3)
        assert abs(report["softmax_nontarget_uniform"] - 5.0e-5) < 1e-12

    def test_small_vocab_uniform(self):
        report = grad_experiment(4, 8, trials=3)
        assert abs(report["softmax_nontarget_uniform"] - 0.25) < 1e-12

    def test_regression_unit_residual(self):
        report = grad_experiment(100, 64, trials=3)
        assert report["regression_unit_residual"] == 2.0 / 64

    def test_random_logits_mean_in_expected_band(self):
        report = grad_experiment(20000, 64, trials=20)
        assert 1e-5 <= report["softmax_nontarget_mean"] <= 1e-4

    def test_softmax_scales_inverse_vocab_regression_does_not(self):
        sizes = [100, 1000, 20000]
        soft, reg = [], []
        for v in sizes:
            report = grad_experiment(v, 64, trials=20)
            soft.append(report["softmax_nontarget_mean"])
            reg.append(report["regression_mean"])
        slope = np.polyfit(np.log(sizes), np.log(soft), 1)[0]
        assert abs(slope + 1.0) < 0.1
        assert max(reg) / min(reg) < 1.5

    @pytest.mark.parametrize("vocab_size, dim, seed, trials, match", [
        (1, 8, 1, 2, "vocab_size"), (0, 8, 1, 2, "vocab_size"),
        (4, 0, 1, 2, "positive"), (4, 8, 1, 0, "positive")])
    def test_degenerate_arguments_rejected(self, vocab_size, dim, seed, trials, match):
        with pytest.raises(ValueError, match=match):
            grad_experiment(vocab_size, dim, trials=trials, seed=seed)

    def test_report_is_json_and_csv_refused(self, tmp_path, capsys):
        argv = ["grad-experiment", "--vocab-size", "100", "--dim", "8", "--trials", "2"]
        assert main(argv) == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert report == grad_experiment(100, 8, trials=2)
        assert main([*argv, "--csv", str(tmp_path / "grad.csv")]) == EXIT_USAGE
        assert "unrecognized arguments: --csv" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())


class TestDepthStudy:
    @pytest.mark.parametrize("head_kind", [REGRESSION, SOFTMAX])
    def test_param_counts_match_trained_model(self, monkeypatch, head_kind):
        # the config's embed_dim differs from the table's: the model is
        # built from the table, and so must its count be
        models = []

        def recording_train(*args, **kwargs):
            model, log = train(*args, **kwargs)
            models.append(model)
            return model, log
        monkeypatch.setattr(harness, "train", recording_train)
        config = _toy_config(embed_dim=64, head_kind=head_kind, epochs=1)
        rows = depth_study(config, [1, 2], _records(), _table(d=8))
        for row, model in zip(rows, models, strict=True):
            assert row[f"params_{head_kind}"] == sum(p.data.size
                                                     for p in model.parameters())


class TestCheckpoint:
    def test_roundtrip_bit_identical_evaluation(self, tmp_path):
        table = _table()
        model, _ = train(_toy_config(epochs=3), _records(), table)
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, path)
        loaded = load_checkpoint(path, table)
        records = _records(seed=5)
        for rec in records:
            a = teacher_forced_loss(model, rec.annotations, rec.captions[0]).item()
            b = teacher_forced_loss(loaded, rec.annotations, rec.captions[0]).item()
            assert a == b

    def test_vocab_hash_mismatch_refused(self, tmp_path):
        table = _table()
        model, _ = train(_toy_config(epochs=1), _records(), table)
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, path)
        other = _table(num_words=21)
        with pytest.raises(CheckpointError, match="vocabulary"):
            load_checkpoint(path, other)

    def test_precision_on_load(self, tmp_path):
        table = _table()
        model, _ = train(_toy_config(epochs=1), _records(), table)
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, path)
        loaded = load_checkpoint(path, table, precision="f32")
        for a, b in zip(model.parameters(), loaded.parameters()):
            assert b.data.dtype == np.float32
            np.testing.assert_array_equal(b.data, a.data.astype(np.float32))

    def test_corrupted_file_refused(self, tmp_path):
        table = _table()
        model, _ = train(_toy_config(epochs=1), _records(), table)
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, path)
        raw = bytearray(path.read_bytes())
        raw[40] ^= 0x01
        path.write_bytes(bytes(raw))
        with pytest.raises(CheckpointError, match="checksum"):
            load_checkpoint(path, table)

    @pytest.fixture
    def saved(self, tmp_path):
        table = _table()
        model, _ = train(_toy_config(epochs=0), _records(), table)
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, path)
        return (path, table, *read_framed(path, b"CKPT", "<f8", CheckpointError))

    @pytest.mark.parametrize("key", ["depth", "annot_dim", "head_kind", "vocab_hash", "params"])
    def test_missing_header_key_refused(self, saved, key):
        path, table, header, payload = saved
        del header[key]
        path.write_bytes(framed_bytes(b"CKPT", header, payload))
        with pytest.raises(CheckpointError, match=f"model.ckpt: header lacks '{key}'"):
            load_checkpoint(path, table)

    @pytest.mark.parametrize("key, value", [
        ("depth", "1"), ("depth", 1.0), ("depth", True), ("depth", 0), ("hidden", -3),
        ("head_kind", 1), ("vocab_hash", None)])
    def test_bad_header_value_refused(self, saved, key, value):
        path, table, header, payload = saved
        header[key] = value
        path.write_bytes(framed_bytes(b"CKPT", header, payload))
        with pytest.raises(CheckpointError, match=f"model.ckpt: header {key}: "):
            load_checkpoint(path, table)

    @pytest.mark.parametrize("key, value", [("head_kind", "beam")])
    def test_header_value_out_of_range_refused(self, saved, key, value):
        # building a TrainConfig refuses these at the header, before
        # param_count or param_layout sees them
        path, table, header, payload = saved
        header[key] = value
        path.write_bytes(framed_bytes(b"CKPT", header, payload))
        with pytest.raises(CheckpointError, match=f"model.ckpt: header {key}: "):
            load_checkpoint(path, table)

    @pytest.mark.parametrize("blob, match", [
        (b'{"depth": 1', "header: parse error"), (b"[1, 2]", "header must be a JSON object"),
        (b"\xff\xfe", "header: not UTF-8"),
        (b"[" * 100_000 + b"]" * 100_000, "header: JSON nests too deeply"),
        (b'{"depth": ' + b"1" * 5000 + b"}", "header: integer too long")],
        ids=["malformed-json", "not-an-object", "not-utf8", "deep-nesting", "huge-int"])
    def test_malformed_header_refused(self, saved, blob, match):
        path, table, header, payload = saved
        path.write_bytes(framed_bytes(b"CKPT", blob, payload))
        with pytest.raises(CheckpointError, match=f"model.ckpt: {match}"):
            load_checkpoint(path, table)

    @pytest.mark.parametrize("cut", [1, 8, 100, 1000])
    def test_truncated_payload_refused(self, saved, cut):
        path, table, header, payload = saved
        path.write_bytes(framed_bytes(b"CKPT", header, bytes(payload)[:-cut]))
        with pytest.raises(CheckpointError, match="model.ckpt: truncated"):
            load_checkpoint(path, table)

    def test_truncated_header_refused(self, saved):
        path, table, header, payload = saved
        raw = path.read_bytes()[:20]
        path.write_bytes(raw + zlib.crc32(raw).to_bytes(4, "little"))
        with pytest.raises(CheckpointError, match="model.ckpt: truncated header"):
            load_checkpoint(path, table)

    def test_trailing_bytes_refused(self, saved):
        path, table, header, payload = saved
        path.write_bytes(framed_bytes(b"CKPT", header, bytes(payload) + bytes(8)))
        with pytest.raises(CheckpointError, match="model.ckpt: 8 bytes after"):
            load_checkpoint(path, table)

    @pytest.mark.parametrize("key", ["depth", "hidden", "annot_dim", "attention_k"])
    def test_header_dims_beyond_the_payload_refused(self, saved, key, monkeypatch):
        # sizes the allocator refuses at once, and a depth whose layout would
        # never end: the check against the payload refuses them first, and
        # counts no more than two layers of the layout
        path, table, header, payload = saved
        header[key] = 2**40
        path.write_bytes(framed_bytes(b"CKPT", header, payload))
        depths, layout = [], decoder.param_layout

        def spy(depth, *args):
            depths.append(depth)
            assert depth <= 2, f"a layout of {depth} layers was enumerated"
            return layout(depth, *args)
        monkeypatch.setattr(decoder, "param_layout", spy)
        monkeypatch.setattr(harness, "param_layout", spy)
        with pytest.raises(CheckpointError,
                           match="model.ckpt: truncated payload: the header declares"):
            load_checkpoint(path, table)
        assert depths == [min(header["depth"], 2)]  # param_count's only

    def test_header_stores_no_dropout(self, tmp_path):
        table = _table()
        model, _ = train(_toy_config(epochs=1, dropout_rate=0.3), _records(), table)
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, path)
        assert "dropout_rate" not in read_framed(path, b"CKPT", "<f8", CheckpointError)[0]
        loaded = load_checkpoint(path, table)
        for a, b in zip(model.parameters(), loaded.parameters()):
            np.testing.assert_array_equal(a.data, b.data)

    def test_header_holding_dropout_still_loads(self, tmp_path):
        # the loader ignores header keys it does not read; decoding never reads this one
        table = _table()
        model, _ = train(_toy_config(epochs=3, dropout_rate=0.3), _records(), table)
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, path)
        records = _records()
        tokens = [greedy_decode(model, r.annotations) for r in records]
        header, payload = read_framed(path, b"CKPT", "<f8", CheckpointError)
        path.write_bytes(framed_bytes(b"CKPT", {**header, "dropout_rate": 0.5}, payload))
        loaded = load_checkpoint(path, table)
        assert [greedy_decode(loaded, r.annotations) for r in records] == tokens

    def test_payload_is_the_parameters_in_header_order(self, tmp_path):
        table = _table()
        model, _ = train(_toy_config(depth=2, epochs=1), _records(), table)
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, path)
        params = model.parameters()
        header, payload = read_framed(path, b"CKPT", "<f8", CheckpointError)
        assert header["params"] == [[name, list(p.shape)] for name, p in named_params(model)]
        assert payload.tobytes() == b"".join(p.data.astype("<f8").tobytes() for p in params)

    @pytest.mark.parametrize("change", ["rename", "reshape", "swap"])
    def test_header_params_unlike_the_model_refused(self, saved, change):
        path, table, header, payload = saved
        params = header["params"]
        if change == "rename":
            params[0][0] = "lstm0.w_y"
        elif change == "reshape":
            params[0][1] = params[0][1][::-1]
        else:  # two entries of one shape: the payload's size is unchanged
            assert params[3][1] == params[4][1]
            params[3], params[4] = params[4], params[3]
        path.write_bytes(framed_bytes(b"CKPT", header, payload))
        with pytest.raises(CheckpointError, match="model.ckpt: header params do not match"):
            load_checkpoint(path, table)

    @pytest.mark.parametrize("precision", ["f64", "f32"])
    def test_load_builds_no_random_model(self, tmp_path, monkeypatch, precision):
        table = _table()
        model, _ = train(_toy_config(depth=2, epochs=1), _records(), table)
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, path)
        payloads = []

        def recording_read(*args):
            header, payload = read_framed(*args)
            payloads.append(payload)
            return header, payload

        def no_init(*args, **kwargs):
            raise AssertionError("load_checkpoint built a random model")
        monkeypatch.setattr(harness, "read_framed", recording_read)
        monkeypatch.setattr(CaptionModel, "init", no_init)
        loaded = load_checkpoint(path, table, precision=precision)
        params = loaded.parameters()
        assert [(name, p.shape) for name, p in named_params(loaded)] == [
            (name, p.shape) for name, p in named_params(model)]
        for a, b in zip(model.parameters(), params):
            np.testing.assert_array_equal(b.data, a.data.astype(b.data.dtype))
        if precision == "f64":  # views of the one array the file is read into
            assert all(np.shares_memory(p.data, payloads[0]) for p in params)
        else:  # views of its one cast
            assert {p.data.dtype for p in params} == {np.dtype(np.float32)}
            assert not any(np.shares_memory(p.data, payloads[0]) for p in params)
            assert all(np.shares_memory(p.data, params[0].data.base) for p in params)

    def test_unknown_precision_refused_before_the_file_is_read(self, tmp_path):
        with pytest.raises(ValueError, match="unknown precision 'f16'"):
            load_checkpoint(tmp_path / "missing.ckpt", _table(), precision="f16")

    def test_hand_framed_file_loads(self, saved):
        path, table, header, payload = saved
        path.write_bytes(framed_bytes(b"CKPT", header, payload))
        load_checkpoint(path, table)


_CKPT_KEYS = ["depth", "hidden", "embed_dim", "annot_dim", "attention_k", "head_kind",
              "vocab_hash", "params"]
# A huge depth is left out: were the size check lost, it would build layer
# after layer instead of failing at once as these sizes do.
_HUGE_DIMS = ["hidden", "embed_dim", "annot_dim", "attention_k"]


@pytest.fixture(scope="module")
def small_checkpoint(tmp_path_factory):
    """The bytes of a saved depth-2 checkpoint and the table it needs."""
    table = _table()
    model = CaptionModel.init(table, depth=2, hidden=4, annot_dim=8, attention_k=3,
                              head_kind=REGRESSION)
    path = tmp_path_factory.mktemp("ckpt") / "model.ckpt"
    save_checkpoint(model, path)
    return path.read_bytes(), table


@st.composite
def _checkpoint_corruptions(draw, raw):
    """A valid checkpoint, then one corruption of its framing or header."""
    kind = draw(st.sampled_from(["none", "framing", "framing", "missing", "type", "zero",
                                 "huge", "dropout"]))
    if kind == "framing":
        return draw(framing_corruptions(raw))
    header_len = int.from_bytes(raw[8:12], "little")
    header, payload = json.loads(raw[12:12 + header_len]), raw[12 + header_len:-4]
    if kind == "missing":
        del header[draw(st.sampled_from(_CKPT_KEYS))]
    elif kind == "type":
        header[draw(st.sampled_from(_CKPT_KEYS))] = draw(
            st.sampled_from(["1", 1.5, True, None, [1], {}, 10**400]))
    elif kind == "zero":
        header[draw(st.sampled_from(_CKPT_KEYS[:5]))] = draw(st.sampled_from([0, -1]))
    elif kind == "huge":
        header[draw(st.sampled_from(_HUGE_DIMS))] = draw(st.sampled_from([2**31, 2**40]))
    elif kind == "dropout":
        header["dropout_rate"] = draw(st.sampled_from([math.nan, math.inf, -math.inf,
                                                       1.0, -0.5]))
    return framed_bytes(b"CKPT", header, payload)


_CONFIG_KEYS = [f.name for f in dataclasses.fields(TrainConfig)]
_CONFIG_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(), st.sampled_from([10**400, -10**400, 2**63]),
    st.floats(), st.text(max_size=6), st.lists(st.integers(), max_size=2),
    st.dictionaries(st.text(max_size=3), st.integers(), max_size=2))


@st.composite
def _config_files(draw):
    """Config file bytes: a valid config with some keys changed, an object
    of any keys, other JSON, nesting past the parser's recursion limit, or
    raw bytes."""
    kind = draw(st.sampled_from(["changed", "object", "json", "nested", "bytes"]))
    if kind == "changed":
        config = dataclasses.asdict(TrainConfig())
        config.update(draw(st.dictionaries(st.sampled_from(_CONFIG_KEYS), _CONFIG_VALUES,
                                           min_size=1, max_size=3)))
        return json.dumps(config).encode()
    if kind == "object":
        keys = st.one_of(st.sampled_from(_CONFIG_KEYS), st.text(max_size=8))
        return json.dumps(draw(st.dictionaries(keys, _CONFIG_VALUES, max_size=4))).encode()
    if kind == "json":
        return json.dumps(draw(st.one_of(_CONFIG_VALUES, st.lists(_CONFIG_VALUES,
                                                                  max_size=3)))).encode()
    if kind == "nested":
        depth = draw(st.sampled_from([3, 100_000]))
        return b'{"depth": ' + b"[" * depth + b"]" * depth + b"}"
    return draw(st.one_of(st.binary(max_size=32), st.just(b'{"lr": ' + b"1" * 5000 + b"}")))


@given(blob=_config_files())
@settings(max_examples=300, derandomize=True, deadline=None)
def test_config_file_fuzz(tmp_path_factory, blob):
    """A config file that ``from_file`` refuses only ever
    raises ValueError, which the CLI reports as a usage error."""
    path = tmp_path_factory.getbasetemp() / "fuzz_config.json"
    path.write_bytes(blob)
    try:
        TrainConfig.from_file(path)
    except ValueError:
        pass


@given(data=st.data())
@settings(max_examples=400, derandomize=True, deadline=None)
def test_load_checkpoint_fuzz(tmp_path_factory, small_checkpoint, data):
    """A corrupt checkpoint only ever raises CheckpointError."""
    raw, table = small_checkpoint
    path = tmp_path_factory.getbasetemp() / "fuzz.ckpt"
    path.write_bytes(data.draw(_checkpoint_corruptions(raw)))
    try:
        model = load_checkpoint(path, table)
    except CheckpointError:
        return
    assert model.embedding is table


_JSON_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=6),
    st.lists(st.one_of(st.text(max_size=6), st.integers()), max_size=3),
    st.lists(st.lists(st.text(max_size=4), max_size=2), max_size=2),
    st.dictionaries(st.text(max_size=3), st.integers(), max_size=2))


@st.composite
def jsonl_files(draw, good: dict):
    """JSON-lines bytes of one to three lines, each: an object of the keys
    of ``good`` (a value strategy per key) with some values changed, keys
    dropped or keys added; other JSON; nesting past the parser's recursion
    limit; an integer past Python's digit limit; or raw bytes."""
    lines = []
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["object", "object", "json", "nested", "huge_int", "bytes"]))
        if kind == "object":
            obj = {key: draw(values) for key, values in good.items()}
            for key in draw(st.lists(st.sampled_from(sorted(good)), max_size=2)):
                if draw(st.booleans()):
                    obj[key] = draw(_JSON_VALUES)
                else:
                    obj.pop(key, None)
            obj.update(draw(st.dictionaries(st.text(max_size=4), _JSON_VALUES, max_size=1)))
            line = json.dumps(obj).encode()
        elif kind == "json":
            line = json.dumps(draw(_JSON_VALUES)).encode()
        elif kind == "nested":
            depth = draw(st.sampled_from([3, 100_000]))
            line = b'{"id": ' + b"[" * depth + b"]" * depth + b"}"
        elif kind == "huge_int":
            line = b'{"id": ' + b"1" * 5000 + b"}"
        else:
            line = draw(st.binary(max_size=24))
        lines.append(line)
    return b"\n".join(lines) + b"\n"


_CAPTIONS = st.lists(st.one_of(st.text(max_size=12), st.lists(st.text(max_size=4), max_size=3)),
                     max_size=3)
MANIFEST_LINE = {"id": st.one_of(st.text(max_size=4), st.integers()), "captions": _CAPTIONS,
                 "features": st.sampled_from(["f.annv", "missing.annv", "", "."])}


@given(blob=jsonl_files(MANIFEST_LINE))
@settings(max_examples=200, derandomize=True, deadline=None)
def test_load_dataset_fuzz(tmp_path_factory, blob):
    """A malformed manifest only ever raises DataError, which the CLI
    reports as a data error."""
    root = tmp_path_factory.getbasetemp() / "fuzz_manifest"
    root.mkdir(exist_ok=True)
    (root / "f.annv").touch()
    path = root / "train.jsonl"
    path.write_bytes(blob)
    try:
        records = load_dataset(path)
    except DataError:
        return
    assert all(rec.captions and all(rec.captions) for rec in records)
