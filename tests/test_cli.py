import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from capreg import cli, decoder, embedding, encoder, harness
from capreg.autodiff import NumericalError
from capreg.cli import (EXIT_DATA, EXIT_NUMERICAL, EXIT_OK, EXIT_USAGE, main)
from capreg.embedding import EmbeddingTable
from capreg.encoder import AnnotationSet, read_framed, save_features
from capreg.harness import CheckpointError, load_checkpoint, save_checkpoint

from test_encoder import framed_bytes
from test_harness import jsonl_files


@pytest.fixture
def workspace(tmp_path):
    """Manifest with three records, feature files, and a small config."""
    rng = np.random.default_rng(0)
    lines = []
    captions = [["a", "dog", "runs", "fast"],
                ["the", "cat", "sits", "down"],
                ["a", "bird", "flies", "high"]]
    for i, cap in enumerate(captions):
        feat = tmp_path / f"img{i}.annv"
        save_features(AnnotationSet(rng.normal(0, 1, (4, 8)), 2, 2), feat)
        lines.append(json.dumps({"id": f"img{i}", "captions": [" ".join(cap)],
                                 "features": feat.name}))
    manifest = tmp_path / "train.jsonl"
    manifest.write_text("\n".join(lines) + "\n")
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"depth": 1, "hidden": 8, "annot_dim": 8,
                                  "attention_k": 4, "dropout_rate": 0.0,
                                  "epochs": 3}))
    return tmp_path, manifest, config


@pytest.fixture
def trained(workspace):
    """The workspace plus an embedding table and a checkpoint trained on it."""
    tmp, manifest, config = workspace
    emb, ckpt = tmp / "e.bin", tmp / "m.ckpt"
    assert main(["train-embeddings", str(manifest), str(emb), "--dim", "8",
                 "--epochs", "1"]) == EXIT_OK
    assert main(["train", "--config", str(config), str(manifest), str(emb),
                 str(ckpt)]) == EXIT_OK
    return tmp, emb, ckpt


class TestPipeline:
    def test_embeddings_train_caption_evaluate(self, workspace, capsys):
        tmp, manifest, config = workspace
        emb = tmp / "emb.bin"
        ckpt = tmp / "model.ckpt"
        log = tmp / "log.jsonl"

        assert main(["train-embeddings", str(manifest), str(emb),
                     "--dim", "8", "--epochs", "1"]) == EXIT_OK
        assert emb.exists()

        assert main(["train", "--config", str(config), str(manifest),
                     str(emb), str(ckpt), "--log", str(log)]) == EXIT_OK
        assert ckpt.exists()
        row = json.loads(log.read_text().splitlines()[0])
        assert row["epoch"] == 0 and {"forward_s", "backward_s", "optimizer_s",
                                      "validation_s", "samples_per_s"} <= set(row)
        capsys.readouterr()

        assert main(["caption", str(ckpt), str(emb), str(tmp / "img0.annv"),
                     "--max-len", "5",
                     "--attention-csv", str(tmp / "alpha.csv")]) == EXIT_OK
        caption_line = capsys.readouterr().out.strip().splitlines()[-1]
        assert len(caption_line.split()) <= 5
        # every attention row: step index + 4 weights summing to 1
        for row in (tmp / "alpha.csv").read_text().splitlines():
            vals = [float(v) for v in row.split(",")]
            assert len(vals) == 5
            assert abs(sum(vals[1:]) - 1.0) < 1e-6

        cands = tmp / "cands.jsonl"
        refs = tmp / "refs.jsonl"
        cands.write_text(json.dumps({"id": "x", "candidate": "a dog runs"}) + "\n"
                         + json.dumps({"id": "y", "candidate": "the cat sits"}) + "\n")
        refs.write_text(json.dumps({"id": "x", "references": ["a dog runs"]}) + "\n"
                        + json.dumps({"id": "y", "references": ["the cat sits"]}) + "\n")
        assert main(["evaluate", str(cands), str(refs)]) == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert report["bleu1"] == pytest.approx(100.0)
        assert "cider" in report

    def test_caption_is_deterministic(self, workspace, capsys):
        tmp, manifest, config = workspace
        emb, ckpt = tmp / "e.bin", tmp / "m.ckpt"
        main(["train-embeddings", str(manifest), str(emb), "--dim", "8",
              "--epochs", "1"])
        main(["train", "--config", str(config), str(manifest), str(emb), str(ckpt)])
        capsys.readouterr()
        outs = []
        for _ in range(2):
            main(["caption", str(ckpt), str(emb), str(tmp / "img1.annv")])
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1]


class TestReports:
    def test_grad_experiment_prints_json(self, capsys):
        assert main(["grad-experiment", "--vocab-size", "1000", "--dim", "16",
                     "--trials", "3"]) == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert report["softmax_nontarget_uniform"] == pytest.approx(1 / 1000)

    @pytest.mark.parametrize("command", ["grad-experiment", "depth-study"])
    def test_csv_flag_refused_before_any_file_is_written(self, tmp_path, capsys,
                                                         monkeypatch, command):
        monkeypatch.chdir(tmp_path)
        assert main([command, *_ARGS[command][0], "--csv", "r.csv"]) == EXIT_USAGE
        assert "capreg: error: unrecognized arguments: --csv r.csv\n" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    def test_param_report(self, capsys):
        assert main(["param-report", "--depths", "1", "2"]) == EXIT_OK
        rows = json.loads(capsys.readouterr().out)
        assert [r["depth"] for r in rows] == [1, 2]
        assert all(r["regression"] < r["softmax"] for r in rows)


def _train_argv(tmp, emb, *extra):
    return ["train", "--config", str(tmp / "config.json"), str(tmp / "train.jsonl"),
            str(emb), str(tmp / "n.ckpt"), *extra]


class TestTrainLog:
    def test_rows_round_trip(self, trained, monkeypatch):
        # each line reads back as its row of the log train() returned, every
        # float bit for bit; three records make no validation split
        tmp, emb, _ = trained
        logs = []

        def recording_train(*args, **kwargs):
            model, log = harness.train(*args, **kwargs)
            logs.append(log)
            return model, log
        monkeypatch.setattr(cli, "train", recording_train)
        path = tmp / "log.jsonl"
        assert main(_train_argv(tmp, emb, "--log", str(path))) == EXIT_OK
        lines = path.read_text(encoding="utf-8").splitlines()
        assert [json.loads(line) for line in lines] == logs[0].epochs
        assert len(lines) == 3 and all('"val_loss": null' in line for line in lines)
        assert all(len(json.loads(line)["grad_norm_w_x"]) == 1 for line in lines)

    def test_no_epochs_an_empty_log(self, trained):
        tmp, emb, _ = trained
        path = tmp / "log.jsonl"
        assert main(_train_argv(tmp, emb, "--epochs", "0", "--log", str(path))) == EXIT_OK
        assert path.read_bytes() == b""

    def test_abort_logs_the_completed_epochs_then_the_dump(self, trained, capsys,
                                                           monkeypatch):
        # three training samples an epoch: the fourth loss is epoch 1's first
        tmp, emb, _ = trained
        calls = []

        def failing_loss(*args, **kwargs):
            calls.append(1)
            if len(calls) == 4:
                raise NumericalError("lstm: non-finite values in a (4, 32) array, "
                                     "largest |x| inf")
            return decoder.teacher_forced_loss(*args, **kwargs)
        monkeypatch.setattr(harness, "teacher_forced_loss", failing_loss)
        path = tmp / "log.jsonl"
        capsys.readouterr()
        assert main(_train_argv(tmp, emb, "--log", str(path))) == EXIT_NUMERICAL
        err = capsys.readouterr().err
        dump = json.loads(err[err.index("{"):])
        first, last = map(json.loads, path.read_text().splitlines())
        assert first["epoch"] == 0 and first["grad_norm_w_x"][0] > 0
        assert last == {"aborted": "non-finite values at epoch 1", **dump}
        assert last["epoch"] == 1 and last["error"].startswith("lstm: ")
        assert not (tmp / "n.ckpt").exists()


# each command's arguments other than --seed, --config and --precision, and
# its exit code with them: every input is missing, or every size is small
_ARGS = {"train-embeddings": (["m.jsonl", "e.bin"], EXIT_DATA),
         "train": (["m.jsonl", "e.bin", "m.ckpt"], EXIT_DATA),
         "caption": (["m.ckpt", "e.bin", "f.annv"], EXIT_DATA),
         "evaluate": (["c.jsonl", "r.jsonl"], EXIT_DATA),
         "grad-experiment": (["--vocab-size", "10", "--trials", "1"], EXIT_OK),
         "depth-study": (["m.jsonl", "e.bin", "--depths", "1"], EXIT_DATA),
         "param-report": (["--depths", "1"], EXIT_OK)}
# each flag, a value it accepts and the commands that read it
_FLAGS = {"--seed": ("1", {"train-embeddings", "train", "grad-experiment", "depth-study"}),
          "--config": ("c.json", {"train", "depth-study"}),
          "--precision": ("f32", {"train", "caption", "depth-study"})}


class TestExitCodes:
    def test_one_exception_type_per_exit_code(self):
        assert harness.DataError is encoder.DataError is embedding.DataError
        assert issubclass(harness.CheckpointError, ValueError)
        assert issubclass(harness.TrainingAborted, NumericalError)

    def test_missing_manifest_is_data_error(self, tmp_path):
        assert main(["train-embeddings", str(tmp_path / "nope.jsonl"),
                     str(tmp_path / "e.bin")]) == EXIT_DATA

    def test_unknown_command_is_usage_error(self):
        assert main(["frobnicate"]) == EXIT_USAGE

    def test_bad_max_len_is_usage_error(self, workspace):
        tmp, manifest, config = workspace
        assert main(["caption", "x", "y", "z", "--max-len", "0"]) == EXIT_USAGE

    @pytest.mark.parametrize("option", ["--negatives", "--epochs"])
    def test_negative_skipgram_count_is_usage_error(self, workspace, capsys, option):
        tmp, manifest, _ = workspace
        out = tmp / "neg.bin"
        assert main(["train-embeddings", str(manifest), str(out), option, "-1"]) == EXIT_USAGE
        assert capsys.readouterr().err == f"error: {option[2:]} must be >= 0, got -1\n"
        assert not out.exists()

    def test_corrupt_manifest_is_data_error(self, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("{not json\n")
        assert main(["train-embeddings", str(bad), str(tmp_path / "e.bin")]) == EXIT_DATA

    def test_checkpoint_embedding_mismatch_is_usage_error(self, workspace):
        tmp, manifest, config = workspace
        emb, ckpt = tmp / "e.bin", tmp / "m.ckpt"
        main(["train-embeddings", str(manifest), str(emb), "--dim", "8",
              "--epochs", "1"])
        main(["train", "--config", str(config), str(manifest), str(emb), str(ckpt)])
        other = tmp / "other.bin"
        main(["train-embeddings", str(manifest), str(other), "--dim", "8",
              "--epochs", "1", "--min-count", "2"])
        assert main(["caption", str(ckpt), str(other),
                     str(tmp / "img0.annv")]) == EXIT_USAGE

    @pytest.mark.parametrize("cand_line, ref_line", [
        ('{"id": "x", "caption": "a dog"}', '{"id": "x", "references": ["a dog"]}'),
        ('{"id": "x", "candidate": "a dog"', '{"id": "x", "references": ["a dog"]}'),
        ('["x", "a dog"]', '{"id": "x", "references": ["a dog"]}'),
        ('{"id": "x", "candidate": "a dog"}', '{"id": "x", "refs": ["a dog"]}'),
        ('{"id": "x", "candidate": "a dog"}', '{"id": "x", "references": "a dog"}'),
        ('{"id": "x", "candidate": "a dog"}', '{"id": "x", "references": []}'),
        ('{"id": "x", "candidate": "a dog"}', '{"id": "x", "references": ["a dog", 3]}'),
        ('{"id": "x", "candidate": ["a", "dog"]}', '{"id": "x", "references": ["a dog"]}'),
        ('{"id": ["x"], "candidate": "a dog"}', '{"id": "x", "references": ["a dog"]}'),
        # true is the same dict key as 1, so these would match and score 100
        ('{"id": true, "candidate": "a dog"}', '{"id": 1, "references": ["a dog"]}'),
        ('{"id": false, "candidate": "a dog"}', '{"id": 0, "references": ["a dog"]}'),
        ('{"id": null, "candidate": "a dog"}', '{"id": null, "references": ["a dog"]}'),
        ('{"id": 1, "candidate": "a dog"}', '{"id": true, "references": ["a dog"]}'),
        ('{"id": "x", "candidate": "a dog"}\n{"id": "x", "candidate": "a cat"}',
         '{"id": "x", "references": ["a dog"]}'),
        ('{"id": "x", "candidate": "a dog"}',
         '{"id": "x", "references": ["a dog"]}\n{"id": "x", "references": ["a cat"]}'),
    ], ids=["no-candidate-key", "malformed-json", "not-an-object", "no-references-key",
            "references-a-string", "references-empty", "reference-not-a-string",
            "candidate-not-a-string", "id-a-list", "id-true", "id-false", "id-null",
            "reference-id-true", "candidate-id-repeated",
            "reference-id-repeated"])
    def test_bad_evaluate_input_is_data_error(self, tmp_path, cand_line, ref_line):
        cands, refs = tmp_path / "c.jsonl", tmp_path / "r.jsonl"
        cands.write_text(cand_line + "\n")
        refs.write_text(ref_line + "\n")
        assert main(["evaluate", str(cands), str(refs)]) == EXIT_DATA

    def test_repeated_evaluate_id_names_both_lines(self, tmp_path, capsys):
        # the first line is an exact match; keeping only the last would
        # score 0 and exit 0
        cands, refs = tmp_path / "c.jsonl", tmp_path / "r.jsonl"
        cands.write_text('{"id": "e0", "candidate": "a dog runs"}\n'
                         '{"id": "e1", "candidate": "a cat"}\n'
                         '{"id": "e0", "candidate": "zzz"}\n')
        refs.write_text('{"id": "e0", "references": ["a dog runs"]}\n'
                        '{"id": "e1", "references": ["a cat"]}\n')
        assert main(["evaluate", str(cands), str(refs)]) == EXIT_DATA
        assert f"{cands}:3: id 'e0' repeats line 1" in capsys.readouterr().err

    @pytest.mark.parametrize("bad_line, match", [
        ("[" * 100_000, "nests too deeply"),
        ('{"id": ' + "1" * 5000 + ', "x": 0}', "integer too long")],
        ids=["deep-nesting", "huge-int"])
    @pytest.mark.parametrize("which", ["manifest", "candidates", "references"])
    def test_line_the_json_parser_refuses_is_data_error(self, tmp_path, capsys, which,
                                                        bad_line, match):
        # the parser raises RecursionError or a plain ValueError, not a
        # JSONDecodeError, for these
        files = {"manifest": '{"id": "a", "captions": ["a dog"]}',
                 "candidates": '{"id": "a", "candidate": "a dog"}',
                 "references": '{"id": "a", "references": ["a dog"]}'}
        for name, line in files.items():
            (tmp_path / f"{name}.jsonl").write_text(
                line + "\n" + (bad_line + "\n" if name == which else ""))
        argv = (["train-embeddings", str(tmp_path / "manifest.jsonl"), str(tmp_path / "e.bin")]
                if which == "manifest" else
                ["evaluate", str(tmp_path / "candidates.jsonl"), str(tmp_path / "references.jsonl")])
        assert main(argv) == EXIT_DATA
        err = capsys.readouterr().err
        assert f"{which}.jsonl:2: " in err and match in err
        assert "set_int_max_str_digits" not in err

    @pytest.mark.parametrize("text", ["", "\n  \n\n"], ids=["empty", "blank-lines"])
    def test_no_candidates_is_data_error(self, tmp_path, capsys, text):
        cands, refs = tmp_path / "c.jsonl", tmp_path / "r.jsonl"
        cands.write_text(text)
        refs.write_text('{"id": "x", "references": ["a dog"]}\n')
        assert main(["evaluate", str(cands), str(refs)]) == EXIT_DATA
        assert "c.jsonl: no candidates" in capsys.readouterr().err

    def test_directory_candidates_is_data_error(self, tmp_path, capsys):
        refs = tmp_path / "r.jsonl"
        refs.write_text('{"id": "x", "references": ["a dog"]}\n')
        (tmp_path / "c.jsonl").mkdir()
        assert main(["evaluate", str(tmp_path / "c.jsonl"), str(refs)]) == EXIT_DATA
        assert "c.jsonl" in capsys.readouterr().err

    @pytest.mark.parametrize("features", ["", ".", "sub"])
    def test_directory_feature_path_in_manifest_is_data_error(self, workspace, capsys,
                                                               features):
        tmp, manifest, config = workspace
        emb = tmp / "e.bin"
        main(["train-embeddings", str(manifest), str(emb), "--dim", "8", "--epochs", "1"])
        (tmp / "sub").mkdir()
        manifest.write_text(manifest.read_text().replace('"img1.annv"', json.dumps(features)))
        capsys.readouterr()
        assert main(["train", "--config", str(config), str(manifest), str(emb),
                     str(tmp / "m.ckpt")]) == EXIT_DATA
        assert "missing feature file" in capsys.readouterr().err

    @pytest.mark.parametrize("which", ["embeddings", "features"])
    def test_directory_caption_input_is_data_error(self, trained, capsys, which):
        tmp, emb, ckpt = trained
        folder = tmp / "folder"
        folder.mkdir()
        args = {"embeddings": str(emb), "features": str(tmp / "img0.annv"), which: str(folder)}
        capsys.readouterr()
        assert main(["caption", str(ckpt), args["embeddings"], args["features"]]) == EXIT_DATA
        assert "folder" in capsys.readouterr().err

    def test_empty_manifest_caption_is_data_error(self, workspace):
        tmp, manifest, config = workspace
        emb = tmp / "e.bin"
        main(["train-embeddings", str(manifest), str(emb), "--dim", "8", "--epochs", "1"])
        manifest.write_text(manifest.read_text().replace('"captions": ["a dog runs fast"]',
                                                         '"captions": ["a dog runs fast", ""]'))
        assert main(["train", "--config", str(config), str(manifest), str(emb),
                     str(tmp / "m.ckpt")]) == EXIT_DATA

    def test_nul_in_a_caption_token_is_data_error(self, workspace, capsys):
        # a saved table separates its tokens with NUL, so a token holding
        # one would write a file that EmbeddingTable.load refuses
        tmp, manifest, config = workspace
        manifest.write_text(manifest.read_text().replace("a dog runs", "a dog\\u0000x runs"))
        emb = tmp / "e.bin"
        assert main(["train-embeddings", str(manifest), str(emb), "--dim", "8",
                     "--epochs", "1"]) == EXIT_DATA
        assert not emb.exists()
        assert "token 'dog\\x00x' holds a NUL" in capsys.readouterr().err

    def test_lone_surrogate_in_a_caption_token_is_data_error(self, workspace, capsys):
        # valid JSON, but the saved table's UTF-8 token list cannot hold it;
        # refused before skip-gram trains, so nothing is written
        tmp, manifest, config = workspace
        manifest.write_text(manifest.read_text().replace("a dog runs", "a dog\\ud800 runs"))
        emb = tmp / "e.bin"
        assert main(["train-embeddings", str(manifest), str(emb), "--dim", "8",
                     "--epochs", "1"]) == EXIT_DATA
        assert not emb.exists()
        assert "token 'dog\\ud800' holds a surrogate" in capsys.readouterr().err

    @pytest.mark.parametrize("command, options, config_text", [
        ("train", ["--dropout-rate", "1.5"], None),
        ("train", [], '{"depth": "8"}'),
        ("depth-study", [], '{"lr": -1}')], ids=["flag", "config-train", "config-depth-study"])
    def test_bad_config_is_usage_error_before_any_input_is_read(self, tmp_path, capsys,
                                                                 command, options, config_text):
        # the manifest is missing, a data error, but the config is checked first
        argv = [command, str(tmp_path / "missing.jsonl"), str(tmp_path / "e.bin"), *options]
        if command == "train":
            argv.append(str(tmp_path / "m.ckpt"))
        if config_text is not None:
            (tmp_path / "c.json").write_text(config_text)
            argv += ["--config", str(tmp_path / "c.json")]
        assert main(argv) == EXIT_USAGE
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("seed", ["-1", "x"])
    @pytest.mark.parametrize("command", sorted(_FLAGS["--seed"][1]))
    def test_bad_seed_is_usage_error_before_any_input_is_read(self, tmp_path, capsys,
                                                              monkeypatch, command, seed):
        # every input path is missing, a data error, but the parser refuses
        # the seed first; numpy's generators take non-negative integers only
        monkeypatch.chdir(tmp_path)
        assert main([command, *_ARGS[command][0], "--seed", seed]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert f"argument --seed: must be a non-negative integer, got '{seed}'" in err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("seed", ["-1", "x"])
    @pytest.mark.parametrize("command", ["caption", "evaluate", "param-report"])
    def test_seed_on_a_command_without_one_is_usage_error(self, tmp_path, capsys,
                                                          monkeypatch, command, seed):
        monkeypatch.chdir(tmp_path)
        assert main([command, *_ARGS[command][0], "--seed", seed]) == EXIT_USAGE
        assert f"capreg: error: unrecognized arguments: --seed {seed}\n" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("where", ["before", "after"])
    @pytest.mark.parametrize("flag", _FLAGS)
    @pytest.mark.parametrize("command", _ARGS)
    def test_command_takes_only_the_flags_it_reads(self, tmp_path, capsys, monkeypatch,
                                                   command, flag, where):
        # a command that reads the flag takes it after its name and ends as
        # it would without it; any other placement is refused before any input is read
        monkeypatch.chdir(tmp_path)
        (tmp_path / "c.json").write_text("{}")
        args, code = _ARGS[command]
        value, readers = _FLAGS[flag]
        if where == "before":
            assert main([flag, value, command, *args]) == EXIT_USAGE
            message = f"{flag} goes after the command name: capreg COMMAND ... {flag} VALUE"
            assert capsys.readouterr().err.endswith(f"capreg: error: {message}\n")
            assert main([f"{flag}={value}", command, *args]) == EXIT_USAGE
            assert f"capreg: error: {flag} goes after" in capsys.readouterr().err
        elif command in readers:
            assert main([command, *args, flag, value]) == code
        else:
            assert main([command, *args, flag, value]) == EXIT_USAGE
            assert (f"capreg: error: unrecognized arguments: {flag} {value}\n"
                    in capsys.readouterr().err)
        assert [p.name for p in tmp_path.iterdir()] == ["c.json"]

    def test_size_too_large_to_allocate_is_usage_error(self, capsys):
        # 8 PB in one array: numpy refuses it on any host without allocating it
        assert main(["grad-experiment", "--vocab-size", str(10**15)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error: Unable to allocate") and err.count("\n") == 1

    @pytest.mark.parametrize("command, field", [("train", "depth"), ("depth-study", "hidden")])
    def test_mistyped_config_value_is_usage_error(self, workspace, capsys, command, field):
        tmp, manifest, config = workspace
        emb = tmp / "e.bin"
        main(["train-embeddings", str(manifest), str(emb), "--dim", "8", "--epochs", "1"])
        config.write_text(json.dumps({field: "8"}))
        extra = [str(tmp / "m.ckpt")] if command == "train" else ["--depths", "1"]
        assert main([command, "--config", str(config), str(manifest), str(emb),
                     *extra]) == EXIT_USAGE
        assert f"config {field} must be int" in capsys.readouterr().err

    @pytest.mark.parametrize("blob", [b"GEMB\x01\x00", b"XXXX" + bytes(16)],
                             ids=["short-header", "bad-magic"])
    def test_bad_embedding_file_is_data_error(self, workspace, blob):
        tmp, manifest, config = workspace
        emb, ckpt = tmp / "e.bin", tmp / "m.ckpt"
        main(["train-embeddings", str(manifest), str(emb), "--dim", "8", "--epochs", "1"])
        main(["train", "--config", str(config), str(manifest), str(emb), str(ckpt)])
        emb.write_bytes(blob)
        assert main(["caption", str(ckpt), str(emb), str(tmp / "img0.annv")]) == EXIT_DATA

    @pytest.mark.parametrize("d, match", [(2**30, "truncated payload: the header declares"),
                                          (0, "d >= 1")], ids=["huge-dim", "zero-dim"])
    def test_embedding_header_is_checked_before_training(self, workspace, capsys, d, match):
        tmp, manifest, config = workspace
        emb = tmp / "e.bin"
        tokens = ["<start>", "<end>", "<unk>", "a", "dog"]
        emb.write_bytes(framed_bytes(b"GEMB", {"dim": d, "tokens": tokens}, bytes(64)))
        assert main(["train", "--config", str(config), str(manifest), str(emb),
                     str(tmp / "m.ckpt")]) == EXIT_DATA
        assert match in capsys.readouterr().err

    def test_manifest_without_features_is_data_error(self, workspace, capsys):
        tmp, manifest, config = workspace
        emb = tmp / "e.bin"
        main(["train-embeddings", str(manifest), str(emb), "--dim", "8", "--epochs", "1"])
        manifest.write_text(manifest.read_text().replace(', "features": "img1.annv"', ""))
        assert main(["train", "--config", str(config), str(manifest), str(emb),
                     str(tmp / "m.ckpt")]) == EXIT_DATA
        assert "image img1" in capsys.readouterr().err

    def test_non_object_manifest_line_is_data_error(self, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("[1, 2]\n")
        assert main(["train-embeddings", str(bad), str(tmp_path / "e.bin")]) == EXIT_DATA

    @pytest.mark.parametrize("record", [
        {"id": "a", "captions": 5},
        {"id": "a", "captions": "a dog"},
        {"id": "a", "captions": ["a dog", 3]},
        {"id": "a", "captions": [["a", 3]]},
        {"id": "a", "captions": ["a dog"], "features": 5},
    ], ids=["captions-a-number", "captions-a-string", "caption-a-number",
            "token-a-number", "features-a-number"])
    def test_mistyped_manifest_value_is_data_error(self, tmp_path, capsys, record):
        bad = tmp_path / "bad.jsonl"
        bad.write_text(json.dumps(record) + "\n")
        assert main(["train-embeddings", str(bad), str(tmp_path / "e.bin")]) == EXIT_DATA
        assert "record a" in capsys.readouterr().err

    def test_non_utf8_manifest_is_data_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_bytes(b'{"id": "a", "captions": ["a \xff dog"]}\n')
        assert main(["train-embeddings", str(bad), str(tmp_path / "e.bin")]) == EXIT_DATA
        assert "bad.jsonl: not UTF-8" in capsys.readouterr().err

    # CRC-valid files that the parser accepts but no model can attend over
    BAD_FEATURES = [framed_bytes(b"ANNV", {"rows": 2, "cols": 2, "dim": 8},
                                 np.asarray([np.nan] + [0.0] * 31, "<f4")),
                    framed_bytes(b"ANNV", {"rows": 0, "cols": 0, "dim": 8})]

    @pytest.mark.parametrize("blob", BAD_FEATURES, ids=["nan", "no-cells"])
    def test_bad_feature_file_in_train_is_data_error(self, workspace, capsys, blob):
        tmp, manifest, config = workspace
        emb = tmp / "e.bin"
        main(["train-embeddings", str(manifest), str(emb), "--dim", "8", "--epochs", "1"])
        (tmp / "img1.annv").write_bytes(blob)
        capsys.readouterr()
        assert main(["train", "--config", str(config), str(manifest), str(emb),
                     str(tmp / "m.ckpt")]) == EXIT_DATA
        assert "img1.annv" in capsys.readouterr().err

    @pytest.mark.parametrize("blob", BAD_FEATURES, ids=["nan", "no-cells"])
    def test_bad_feature_file_in_caption_is_data_error(self, trained, capsys, blob):
        tmp, emb, ckpt = trained
        feat = tmp / "bad.annv"
        feat.write_bytes(blob)
        capsys.readouterr()
        assert main(["caption", str(ckpt), str(emb), str(feat)]) == EXIT_DATA
        assert "bad.annv" in capsys.readouterr().err

    def test_caption_feature_dimension_is_data_error(self, trained, capsys):
        tmp, emb, ckpt = trained
        feat = tmp / "narrow.annv"
        save_features(AnnotationSet(np.ones((4, 6)), 2, 2), feat)
        capsys.readouterr()
        assert main(["caption", str(ckpt), str(emb), str(feat)]) == EXIT_DATA
        assert "annotation dimension 6 differs from annot_dim 8" in capsys.readouterr().err

    def test_bad_checkpoint_header_is_usage_error(self, trained, capsys):
        tmp, emb, ckpt = trained
        header, payload = read_framed(ckpt, b"CKPT", "<f8", CheckpointError)
        del header["depth"]
        ckpt.write_bytes(framed_bytes(b"CKPT", header, payload))
        capsys.readouterr()
        assert main(["caption", str(ckpt), str(emb), str(tmp / "img0.annv")]) == EXIT_USAGE
        assert "m.ckpt: header lacks 'depth'" in capsys.readouterr().err

    def test_checkpoint_header_nested_too_deeply_is_usage_error(self, trained, capsys):
        tmp, emb, ckpt = trained
        payload = read_framed(ckpt, b"CKPT", "<f8", CheckpointError)[1]
        ckpt.write_bytes(framed_bytes(b"CKPT", b"[" * 100_000 + b"]" * 100_000, payload))
        capsys.readouterr()
        assert main(["caption", str(ckpt), str(emb), str(tmp / "img0.annv")]) == EXIT_USAGE
        assert "m.ckpt: header: JSON nests too deeply" in capsys.readouterr().err

    def test_checkpoint_header_beyond_its_payload_is_usage_error(self, trained, capsys):
        # the allocator refuses 2^40 hidden units at once: were the header
        # not checked against the file first, this would be a MemoryError
        tmp, emb, ckpt = trained
        header, payload = read_framed(ckpt, b"CKPT", "<f8", CheckpointError)
        header["hidden"] = 2**40
        ckpt.write_bytes(framed_bytes(b"CKPT", header, payload))
        capsys.readouterr()
        assert main(["caption", str(ckpt), str(emb), str(tmp / "img0.annv")]) == EXIT_USAGE
        assert "m.ckpt: truncated payload: the header declares" in capsys.readouterr().err

    def test_relative_input_paths_are_cwd_relative(self, trained, capsys, monkeypatch):
        # the inputs sit in tmp, which CAPREG_DATA_ROOT names: a relative path
        # is still taken from the working directory, tmp's parent
        tmp, _, _ = trained
        monkeypatch.setenv("CAPREG_DATA_ROOT", str(tmp))
        monkeypatch.chdir(tmp.parent)
        inputs = ["m.ckpt", "e.bin", "img0.annv"]
        for i, name in enumerate(inputs):
            args = [n if j == i else str(tmp / n) for j, n in enumerate(inputs)]
            capsys.readouterr()
            assert main(["caption", *args]) == EXIT_DATA
            captured = capsys.readouterr()
            assert name in captured.err and captured.out == ""
        assert main(["train", "--config", str(tmp / "config.json"), "train.jsonl", "e.bin",
                     str(tmp / "n.ckpt")]) == EXIT_DATA
        assert "train.jsonl" in capsys.readouterr().err
        assert not (tmp / "n.ckpt").exists()

    @pytest.mark.parametrize("lr", ["nan", "inf", "-0.5"])
    def test_bad_lr_is_usage_error(self, trained, capsys, lr):
        tmp, emb, _ = trained
        capsys.readouterr()
        assert main(["train", "--config", str(tmp / "config.json"), str(tmp / "train.jsonl"),
                     str(emb), str(tmp / "n.ckpt"), "--lr", lr]) == EXIT_USAGE
        assert "lr must be finite" in capsys.readouterr().err

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_finite_diverging_lr_is_numerical_abort(self, trained, capsys):
        # 1e308 is a finite lr: the first Adam step moves every weight by
        # about 1e308, and the next forward pass overflows
        tmp, emb, _ = trained
        log = tmp / "log.jsonl"
        capsys.readouterr()
        assert main(_train_argv(tmp, emb, "--lr", "1e308", "--log", str(log))) == EXIT_NUMERICAL
        err = capsys.readouterr().err
        assert err.startswith("numerical abort: non-finite values at epoch 0")
        dump = json.loads(err[err.index("{"):])
        assert dump["epoch"] == 0 and dump["lr"] == 1e308
        assert "non-finite" in dump["error"]
        assert not (tmp / "n.ckpt").exists()
        # no epoch completed: the log is the abort line, which names the op and the epoch
        [line] = log.read_text().splitlines()
        assert json.loads(line) == {"aborted": "non-finite values at epoch 0", **dump}
        assert dump["error"] == "attention: non-finite values in a (4, 4) array, largest |x| inf"

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflow_in_validation_is_numerical_abort(self, trained, capsys):
        # img11 is the validation split: the first Adam step at lr 1e300 makes
        # the weights about 1e300, and the validation loss overflows
        tmp, emb, _ = trained
        images = [("img0", "a dog runs fast"), ("img11", "the cat sits down")]
        (tmp / "train.jsonl").write_text("".join(
            json.dumps({"id": image, "captions": [caption], "features": f"img{i}.annv"}) + "\n"
            for i, (image, caption) in enumerate(images)))
        capsys.readouterr()
        assert main(_train_argv(tmp, emb, "--lr", "1e300")) == EXIT_NUMERICAL
        err = capsys.readouterr().err
        assert err.startswith("numerical abort: non-finite values at epoch 0\n")
        dump = json.loads(err[err.index("{"):])
        assert dump["epoch"] == 0 and dump["error"].startswith("mse: non-finite values")
        assert not (tmp / "n.ckpt").exists()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflow_while_decoding_is_numerical_abort(self, trained, capsys):
        # a NumericalError outside training: attention weights near the float
        # maximum over all-ones features overflow the first projection
        tmp, emb, ckpt = trained
        model = load_checkpoint(ckpt, EmbeddingTable.load(emb))
        model.attention.w_hidden_annot.data[...] = 1.5e308
        save_checkpoint(model, ckpt)
        feat = tmp / "ones.annv"
        save_features(AnnotationSet(np.ones((4, 8)), 2, 2), feat)
        capsys.readouterr()
        assert main(["caption", str(ckpt), str(emb), str(feat)]) == EXIT_NUMERICAL
        # the error names the op and the (attention_k, L) projection it checked
        assert capsys.readouterr().err == ("numerical abort: attention: non-finite values "
                                           "in a (4, 4) array, largest |x| inf\n")

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_finite_sum_overflow_while_decoding_is_one_line(self, trained, capsys):
        # a finite layer-0 bias near the float maximum: each of the 32 gate
        # pre-activations stays finite, and the op's check finds their sum overflows
        tmp, emb, ckpt = trained
        model = load_checkpoint(ckpt, EmbeddingTable.load(emb))
        model.layers[0].b.data[...] = 1e307
        save_checkpoint(model, ckpt)
        capsys.readouterr()
        assert main(["caption", str(ckpt), str(emb), str(tmp / "img0.annv")]) == EXIT_NUMERICAL
        err = capsys.readouterr().err
        assert err.startswith("numerical abort: lstm: finite values whose sum overflows")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("blob, match", [
        (b'{"lr": 1,}', "parse error: Expecting property name"),
        (b'{"lr": ' + b"1" * 5000 + b"}", "integer too long"),
        (b'{"head_kind": "\xff"}', "not UTF-8")], ids=["trailing-comma", "huge-int", "not-utf8"])
    def test_config_file_the_parser_refuses_is_named(self, workspace, capsys, blob, match):
        tmp, manifest, _ = workspace
        config = tmp / "c.json"
        config.write_bytes(blob)
        assert main(["train", "--config", str(config), str(manifest), str(tmp / "e.bin"),
                     str(tmp / "m.ckpt")]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith(f"error: {config}: {match}")
        assert "set_int_max_str_digits" not in err

    @pytest.mark.parametrize("text, match", [
        ('{"lr": ' + "1" * 400 + "}", "lr is beyond the float range"),
        ('{"depth": ' + "[" * 100_000 + "]" * 100_000 + "}", "nests too deeply")],
        ids=["huge_int_lr", "deep_nesting"])
    def test_config_file_found_by_fuzz_is_usage_error(self, trained, capsys, text, match):
        tmp, emb, _ = trained
        config = tmp / "bad.json"
        config.write_text(text)
        capsys.readouterr()
        assert main(["train", "--config", str(config), str(tmp / "train.jsonl"), str(emb),
                     str(tmp / "n.ckpt")]) == EXIT_USAGE
        assert match in capsys.readouterr().err

    @pytest.mark.parametrize("key, value", [
        ("decay_factor", 0.5), ("decay_patience", 10), ("max_decode_len", 20)])
    def test_retired_config_key_is_usage_error(self, workspace, capsys, key, value):
        # refused before any input is read: the embedding file does not exist
        tmp, manifest, _ = workspace
        config = tmp / "c.json"
        config.write_text(json.dumps({key: value}))
        assert main(["train", "--config", str(config), str(manifest), str(tmp / "e.bin"),
                     str(tmp / "m.ckpt")]) == EXIT_USAGE
        assert capsys.readouterr().err == f"error: unknown config keys: ['{key}']\n"

    def test_grad_experiment_one_word_vocab_is_usage_error(self, capsys):
        assert main(["grad-experiment", "--vocab-size", "1", "--trials", "2"]) == EXIT_USAGE
        assert "vocab_size must be >= 2" in capsys.readouterr().err


_IDS = st.one_of(st.sampled_from(["a", "b"]), st.integers(0, 2))
_SENTENCES = st.one_of(st.sampled_from(["a dog runs", "a cat", ""]), st.text(max_size=12))


@given(cands=jsonl_files({"id": _IDS, "candidate": _SENTENCES}),
       refs=jsonl_files({"id": _IDS, "references": st.lists(_SENTENCES, max_size=3)}))
@settings(max_examples=150, derandomize=True, deadline=None)
def test_evaluate_fuzz(tmp_path_factory, cands, refs):
    """Malformed candidates or references only ever end in exit 2."""
    root = tmp_path_factory.getbasetemp()
    cand_path, ref_path = root / "fuzz_cands.jsonl", root / "fuzz_refs.jsonl"
    cand_path.write_bytes(cands)
    ref_path.write_bytes(refs)
    assert main(["evaluate", str(cand_path), str(ref_path)]) in (EXIT_OK, EXIT_DATA)
