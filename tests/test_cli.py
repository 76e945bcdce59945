import argparse
import hashlib
import importlib
import inspect
import json
import math
import os
import shlex
import shutil
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from simrec import cli, distill, evalkit, tensorcore as tc
from simrec.__main__ import BLAS_THREAD_VARIABLES
from simrec.cli import RunConfig, _given_flags, build_parser, load_run_config, main
from simrec.corpus import (
    DEFAULT_NOUN_TAGS,
    AnnotatedSentence,
    SyntheticConfig,
    TokenAnn,
    build_vocab,
    canonical_sentence,
    generate_synthetic,
    load_corpus,
    save_corpus,
    sentence_to_record,
)
from simrec.distill import TrainConfig, build_bundle
from simrec.encoder import EncoderConfig
from simrec.heads import PREDICT_CHUNK, predict
from simrec.hetgraph import GraphOptions, build_graph

TINY_FLAGS = [
    "--d-model", "8", "--n-selfattn-layers", "1", "--n-gat-layers", "1",
    "--edge-emb-dim", "4", "--label-emb-dim", "6",
    "--epochs", "2", "--batch-size", "4", "--seed", "0",
]


@pytest.fixture(scope="module")
def corpora(tmp_path_factory):
    root = tmp_path_factory.mktemp("corpora")
    sents = generate_synthetic(SyntheticConfig(n_sentences=12, seed=3))
    train, dev = root / "train.jsonl", root / "dev.jsonl"
    save_corpus(train, sents[:8])
    save_corpus(dev, sents[8:])
    return str(train), str(dev)


@pytest.fixture(scope="module")
def trained_dir(tmp_path_factory, corpora):
    train, dev = corpora
    out = tmp_path_factory.mktemp("model")
    rc = main(["train", "--train", train, "--dev", dev,
               "--out-dir", str(out), *TINY_FLAGS])
    assert rc == 0
    return str(out)


class TestGenerateData:
    def test_writes_loadable_corpus_and_summary(self, tmp_path, capsys):
        out = tmp_path / "corpus.jsonl"
        rc = main(["generate-data", "--out", str(out), "--n", "30", "--seed", "1"])
        assert rc == 0
        info = json.loads(capsys.readouterr().out)
        assert info["sentences"] == 30
        assert info["similes"] + info["literals"] == 30
        assert len(load_corpus(out)) == 30

    def test_same_seed_same_bytes(self, tmp_path, capsys):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        assert main(["generate-data", "--out", str(a), "--n", "15", "--seed", "4"]) == 0
        assert main(["generate-data", "--out", str(b), "--n", "15", "--seed", "4"]) == 0
        capsys.readouterr()
        assert a.read_bytes() == b.read_bytes()

    def test_different_seeds_differ(self, tmp_path, capsys):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        main(["generate-data", "--out", str(a), "--n", "15", "--seed", "4"])
        main(["generate-data", "--out", str(b), "--n", "15", "--seed", "5"])
        capsys.readouterr()
        assert a.read_bytes() != b.read_bytes()

    def test_seed_from_environment(self, tmp_path, capsys, monkeypatch):
        flagged, env_based = tmp_path / "f.jsonl", tmp_path / "e.jsonl"
        main(["generate-data", "--out", str(flagged), "--n", "10", "--seed", "6"])
        monkeypatch.setenv("SIMREC_SEED", "6")
        main(["generate-data", "--out", str(env_based), "--n", "10"])
        capsys.readouterr()
        assert flagged.read_bytes() == env_based.read_bytes()

    def test_non_integer_env_seed_is_named(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("SIMREC_SEED", "soon")
        rc = main(["generate-data", "--out", str(tmp_path / "x.jsonl"), "--n", "5"])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("error: SIMREC_SEED must be an integer") and err.count("\n") == 1
        assert not (tmp_path / "x.jsonl").exists()

    @pytest.mark.parametrize("flag, env, message", [
        (["--seed", "-1"], None, "--seed must be non-negative, got -1"),
        ([], "-2", "SIMREC_SEED must be non-negative, got -2"),
    ])
    def test_negative_seed_is_named(self, tmp_path, capsys, monkeypatch, flag, env, message):
        if env is not None:
            monkeypatch.setenv("SIMREC_SEED", env)
        rc = main(["generate-data", "--out", str(tmp_path / "x.jsonl"), "--n", "5", *flag])
        assert (rc, capsys.readouterr().err) == (1, f"error: {message}\n")
        assert not (tmp_path / "x.jsonl").exists()

    @pytest.mark.parametrize("noise", ["3", "-0.1", "nan"])
    def test_noise_outside_unit_interval_rejected(self, tmp_path, capsys, noise):
        rc = main(["generate-data", "--out", str(tmp_path / "x.jsonl"), "--n", "5",
                   "--noise", noise])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("error: noise_rate must lie in [0, 1]") and err.count("\n") == 1
        assert not (tmp_path / "x.jsonl").exists()

    def test_single_sentence_rejected_naming_the_flag(self, tmp_path, capsys):
        # generate_synthetic needs two sentences; the error names the flag.
        rc = main(["generate-data", "--out", str(tmp_path / "x.jsonl"), "--n", "1"])
        err = capsys.readouterr().err
        assert rc == 1
        assert err == "error: --n must be >= 2, got 1\n"
        assert not (tmp_path / "x.jsonl").exists()

    def test_rejects_empty_request(self, tmp_path, capsys):
        rc = main(["generate-data", "--out", str(tmp_path / "x.jsonl"), "--n", "0"])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error:")
        assert not (tmp_path / "x.jsonl").exists()


def _readme_model_dir_files():
    """The files of the README "Model directory" table, for the models p, t and v."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    table = readme.split("## Model directory", 1)[1].split("| file |", 1)[1].split("\n\n")[0]
    files = [row.split("`")[1] for row in table.splitlines()[2:]]
    return {f.replace("<name>", name) for f in files for name in "ptv"}


class TestTrain:
    def test_output_directory_contents(self, trained_dir, capsys):
        import os

        files = set(os.listdir(trained_dir))
        expected = {"bundle.json", "train_log.jsonl", "model_p.npy", "model_t.npy", "model_v.npy"}
        assert files == expected

    def test_readme_lists_the_files_it_writes(self, trained_dir):
        assert _readme_model_dir_files() == set(os.listdir(trained_dir))

    def test_log_has_one_line_per_epoch(self, trained_dir):
        with open(os.path.join(trained_dir, "train_log.jsonl")) as f:
            lines = f.read().splitlines()
        assert len(lines) == 2
        for line in lines:
            record = json.loads(line)
            assert {"epoch", "lambda", "losses", "dev"} <= set(record)

    def test_summary_names_selected_model(self, corpora, tmp_path, capsys):
        train, dev = corpora
        rc = main(["train", "--train", train, "--dev", dev,
                   "--out-dir", str(tmp_path / "m"), *TINY_FLAGS])
        assert rc == 0
        info = json.loads(capsys.readouterr().out)
        assert info["selected"] in ("p", "t", "v")
        assert info["epochs"] == 2
        assert set(info["dev"]) == {"p", "t", "v"}

    def test_saves_and_prints_the_selection_of_training(self, corpora, tmp_path, capsys,
                                                        monkeypatch):
        # Dev scoring runs once per model and epoch, inside training; the
        # saved and printed selection is what select_best makes of the models.
        train, dev = corpora
        scored = []
        evaluate_model = distill.evaluate_model
        monkeypatch.setattr(distill, "evaluate_model",
                            lambda *args: scored.append(len(args[0])) or evaluate_model(*args))
        out = tmp_path / "m"
        assert main(["train", "--train", train, "--dev", dev,
                     "--out-dir", str(out), *TINY_FLAGS]) == 0
        assert scored == [len(load_corpus(dev))] * (2 * 3)
        info = json.loads(capsys.readouterr().out)
        meta = json.loads((out / "bundle.json").read_text(encoding="utf-8"))
        bundle = distill.load_bundle(out)
        selected, scores = distill.select_best(bundle, load_corpus(dev))
        want = {name: evalkit.report_record(tasks) for name, tasks in scores.items()}
        assert info["selected"] == meta["selected"] == selected
        assert info["dev"] == meta["scores"] == want

    def test_out_dir_from_environment(self, corpora, tmp_path, capsys, monkeypatch):
        train, dev = corpora
        target = tmp_path / "env_model"
        monkeypatch.setenv("SIMREC_OUT_DIR", str(target))
        rc = main(["train", "--train", train, "--dev", dev, *TINY_FLAGS,
                   "--epochs", "1"])
        capsys.readouterr()
        assert rc == 0
        assert "selected" in json.loads((target / "bundle.json").read_text())

    def test_missing_out_dir_fails(self, corpora, capsys, monkeypatch):
        monkeypatch.delenv("SIMREC_OUT_DIR", raising=False)
        train, dev = corpora
        rc = main(["train", "--train", train, "--dev", dev, *TINY_FLAGS])
        assert rc == 1
        assert "output directory" in capsys.readouterr().err

    def test_empty_dev_corpus_fails_before_training(self, corpora, tmp_path, capsys):
        train, _ = corpora
        empty = tmp_path / "empty.jsonl"
        empty.write_text("", encoding="utf-8")
        out = tmp_path / "m"
        rc = main(["train", "--train", train, "--dev", str(empty),
                   "--out-dir", str(out), *TINY_FLAGS])
        assert rc == 1
        assert "empty dev corpus" in capsys.readouterr().err
        assert not out.exists()

    def test_config_file_with_flag_override(self, corpora, tmp_path, capsys):
        train, dev = corpora
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "d_model": 8, "n_selfattn_layers": 1, "n_gat_layers": 1,
            "edge_emb_dim": 4, "label_emb_dim": 6,
            "epochs": 1, "batch_size": 4, "seed": 0,
        }), encoding="utf-8")
        out = tmp_path / "m"
        rc = main(["train", "--train", train, "--dev", dev,
                   "--out-dir", str(out), "--config", str(config),
                   "--epochs", "2"])
        capsys.readouterr()
        assert rc == 0
        lines = (out / "train_log.jsonl").read_text().splitlines()
        assert len(lines) == 2  # the flag beat the file's epochs: 1

    def test_unknown_config_key_rejected(self, corpora, tmp_path, capsys):
        train, dev = corpora
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"d_model": 8, "dmodel": 9}), encoding="utf-8")
        rc = main(["train", "--train", train, "--dev", dev,
                   "--out-dir", str(tmp_path / "m"), "--config", str(config)])
        assert rc == 1
        assert "dmodel" in capsys.readouterr().err

    def test_disable_model_shrinks_bundle(self, corpora, tmp_path, capsys):
        train, dev = corpora
        out = tmp_path / "m"
        rc = main(["train", "--train", train, "--dev", dev,
                   "--out-dir", str(out), *TINY_FLAGS,
                   "--epochs", "1", "--disable-model", "v"])
        capsys.readouterr()
        assert rc == 0
        meta = json.loads((out / "bundle.json").read_text())
        assert set(meta["layouts"]) == {"p", "t"}
        assert not (out / "model_v.npy").exists()

    def test_retrain_removes_retired_records(self, trained_dir, corpora, tmp_path, capsys):
        # A directory written before bundle.json held the vocabulary and the
        # selection also holds vocab.json and selected.json.
        train, dev = corpora
        out = tmp_path / "m"
        shutil.copytree(trained_dir, out)
        (out / "vocab.json").write_text("{}", encoding="utf-8")
        (out / "selected.json").write_text('{"selected": "v"}', encoding="utf-8")
        rc = main(["train", "--train", train, "--dev", dev,
                   "--out-dir", str(out), *TINY_FLAGS, "--epochs", "1"])
        capsys.readouterr()
        assert rc == 0
        assert {p.name for p in out.iterdir()} == _readme_model_dir_files()

    def test_retrain_removes_checkpoints_of_dropped_models(
        self, trained_dir, corpora, tmp_path, capsys
    ):
        train, dev = corpora
        out = tmp_path / "m"
        shutil.copytree(trained_dir, out)
        rc = main(["train", "--train", train, "--dev", dev,
                   "--out-dir", str(out), *TINY_FLAGS,
                   "--epochs", "1", "--disable-model", "v"])
        capsys.readouterr()
        assert rc == 0
        assert {p.name for p in out.iterdir()} == {
            "bundle.json", "train_log.jsonl", "model_p.npy", "model_t.npy",
        }

    @pytest.mark.parametrize("setting, message", [
        ({"disable_model": ["q"]}, "unknown model names ['q']"),
        ({"alpha": 2.0}, "alpha must lie in [0, 1]"),
        ({"max_tokens": 0}, "max_tokens must be positive"),
    ])
    def test_bad_value_fails_before_output(
        self, corpora, tmp_path, capsys, setting, message
    ):
        train, dev = corpora
        config = tmp_path / "c.json"
        config.write_text(json.dumps(setting), encoding="utf-8")
        out = tmp_path / "m"
        rc = main(["train", "--train", train, "--dev", dev, "--out-dir", str(out),
                   "--config", str(config), *TINY_FLAGS])
        assert rc == 1
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_model_names_are_checked_before_the_corpora_load(self, tmp_path, capsys):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"disable_model": ["x"]}), encoding="utf-8")
        missing = str(tmp_path / "missing.jsonl")
        rc = main(["train", "--train", missing, "--dev", missing,
                   "--out-dir", str(tmp_path / "m"), "--config", str(config)])
        assert rc == 1
        assert capsys.readouterr().err == (
            f"error: {config}: disable_model has unknown model names ['x']; "
            f"the models are ['p', 't', 'v']\n")
        assert not (tmp_path / "m").exists()

    def test_meaningless_flag_value_is_not_blamed_on_the_config_file(
        self, corpora, tmp_path, capsys
    ):
        train, dev = corpora
        config = tmp_path / "c.json"
        config.write_text(json.dumps({"learning_rate": float("nan"), "epochs": 1}),
                          encoding="utf-8")
        out = tmp_path / "m"
        argv = ["train", "--train", train, "--dev", dev, "--out-dir", str(out),
                "--config", str(config), *TINY_FLAGS]
        assert main([*argv, "--aux-weight", "-1"]) == 1
        assert capsys.readouterr().err == (
            "error: TrainConfig: aux_weight must be finite and non-negative, got -1.0\n")
        assert main(argv) == 1
        assert capsys.readouterr().err == (
            f"error: {config}: TrainConfig: learning_rate must be finite and positive, "
            f"got nan\n")
        assert not out.exists()
        assert main([*argv, "--learning-rate", "0.01"]) == 0  # the flag beats the file
        capsys.readouterr()

    def test_share_encoder_trains_and_writes_the_bundle(self, corpora, tmp_path, capsys):
        # A shared-encoder run rolls back to its leader's best epoch like any
        # other run; it must finish and write the bundle.
        train, dev = corpora
        out = tmp_path / "m"
        rc = main(["train", "--train", train, "--dev", dev,
                   "--out-dir", str(out), *TINY_FLAGS,
                   "--epochs", "1", "--share-encoder"])
        capsys.readouterr()
        assert rc == 0
        assert (out / "bundle.json").exists()

    def test_interrupted_retrain_leaves_no_loadable_model(
        self, trained_dir, corpora, tmp_path, capsys, monkeypatch
    ):
        # A re-train into a finished model directory that fails in epoch 2
        # (8 sentences in batches of 4: the third step) must not leave the
        # old model loadable next to the new run's partial log.
        train, dev = corpora
        out = tmp_path / "m"
        shutil.copytree(trained_dir, out)
        batch_step = distill._batch_step
        steps = []

        def failing_in_epoch_2(*args):
            steps.append(1)
            if len(steps) == 3:
                raise RuntimeError("interrupted")
            return batch_step(*args)

        monkeypatch.setattr(distill, "_batch_step", failing_in_epoch_2)
        rc = main(["train", "--train", train, "--dev", dev, "--out-dir", str(out),
                   *TINY_FLAGS])
        assert rc == 1 and capsys.readouterr().err == "error: interrupted\n"
        monkeypatch.undo()
        log = (out / "train_log.jsonl").read_text(encoding="utf-8").splitlines()
        assert [json.loads(line)["epoch"] for line in log] == [1]
        _assert_one_error_line(out, dev, tmp_path, capsys, "bundle.json")

    def test_bad_flag_value_is_an_argparse_error(self, corpora):
        train, dev = corpora
        with pytest.raises(SystemExit):
            main(["train", "--train", train, "--dev", dev,
                  "--lambda-mode", "wavy"])


class TestEvaluate:
    def test_report_json_and_table(self, trained_dir, corpora, capsys):
        _, dev = corpora
        rc = main(["evaluate", "--model-dir", trained_dir, "--data", dev])
        assert rc == 0
        out = capsys.readouterr().out.splitlines()
        info = json.loads(out[0])
        assert info["model"] in ("p", "t", "v")
        assert set(info["scores"]) == {"classification", "extraction"}
        assert out[1].startswith("task")
        assert len(out) >= 4

    def test_fold_aggregation(self, trained_dir, corpora, capsys):
        _, dev = corpora
        rc = main(["evaluate", "--model-dir", trained_dir, "--data", dev,
                   "--folds", "2", "--seed", "0"])
        assert rc == 0
        out = capsys.readouterr().out.splitlines()
        info = json.loads(out[0])
        assert info["folds"] == 2
        assert len(info["per_fold"]) == 2
        for task in ("classification", "extraction"):
            assert set(info["aggregate"][task]) == {"precision", "recall", "f1"}
            for stats in info["aggregate"][task].values():
                assert set(stats) == {"mean", "std"}

    def test_fold_seed_from_environment(self, trained_dir, corpora, capsys, monkeypatch):
        train, _ = corpora

        def folds(*extra):
            rc = main(["evaluate", "--model-dir", trained_dir, "--data", train,
                       "--folds", "5", *extra])
            captured = capsys.readouterr()
            assert rc == 0, captured.err
            return captured.out

        flagged = folds("--seed", "3")
        assert flagged != folds("--seed", "0")
        monkeypatch.setenv("SIMREC_SEED", "3")
        assert folds() == flagged
        assert folds("--seed", "0") != flagged  # the flag still wins
        monkeypatch.setenv("SIMREC_SEED", "soon")
        rc = main(["evaluate", "--model-dir", trained_dir, "--data", train, "--folds", "5"])
        captured = capsys.readouterr()
        assert rc == 1 and captured.out == ""
        assert captured.err.startswith("error: SIMREC_SEED must be an integer")
        assert captured.err.count("\n") == 1

    def test_single_fold_rejected(self, trained_dir, corpora, capsys):
        _, dev = corpora
        rc = main(["evaluate", "--model-dir", trained_dir, "--data", dev,
                   "--folds", "1"])
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    def test_zero_folds_rejected(self, trained_dir, corpora, capsys):
        _, dev = corpora
        rc = main(["evaluate", "--model-dir", trained_dir, "--data", dev, "--folds", "0"])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.err == "error: k must be >= 2\n"
        assert captured.out == ""

    def test_missing_model_dir(self, corpora, tmp_path, capsys):
        _, dev = corpora
        rc = main(["evaluate", "--model-dir", str(tmp_path / "nowhere"),
                   "--data", dev])
        assert rc == 1
        assert "error:" in capsys.readouterr().err


def _edit_copy(trained_dir, tmp_path, file, key_path, edit):
    """A copy of ``trained_dir`` whose ``file`` has the record at ``key_path``
    passed to ``edit(parent, last_key)``; ``SELECTED`` in the key path stands
    for the selected model's name, and a key path descends through nested
    records at each dot.  Returns the copy and the edited file's name."""
    model_dir = tmp_path / "model"
    shutil.copytree(trained_dir, model_dir)
    selected = json.loads((model_dir / "bundle.json").read_text())["selected"]
    key_path = key_path.replace("SELECTED", selected)
    path = model_dir / file
    record = json.loads(path.read_text(encoding="utf-8"))
    *parents, last = key_path.split(".")
    parent = record
    for key in parents:
        parent = parent[key]
    edit(parent, last)
    path.write_text(json.dumps(record), encoding="utf-8")
    return model_dir, file


def _assert_one_error_line(model_dir, dev, tmp_path, capsys, needle):
    for argv in (["predict", "--input", dev, "--out", str(tmp_path / "p.jsonl")],
                 ["evaluate", "--data", dev]):
        rc = main([argv[0], "--model-dir", str(model_dir), *argv[1:]])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert needle in err and "Traceback" not in err


class TestDamagedModelDir:
    """A damaged model directory fails with one line, never a traceback."""

    @pytest.mark.parametrize("file, key_path", [
        ("bundle.json", "encoder"),
        ("bundle.json", "encoder.d_model"),
        ("bundle.json", "label_emb_dim"),
        ("bundle.json", "graph_options.no_pos"),
        ("bundle.json", "graph_options.top_k_deprels"),
        ("bundle.json", "vocab.token_to_id"),
        ("bundle.json", "vocab.deprel_ranking"),
        ("bundle.json", "selected"),
        ("bundle.json", "layouts"),
        ("bundle.json", "layouts.SELECTED"),
    ])
    def test_missing_key_is_one_error_line(
        self, trained_dir, corpora, tmp_path, capsys, file, key_path
    ):
        _, dev = corpora

        def drop(parent, key):
            del parent[key]

        model_dir, file = _edit_copy(trained_dir, tmp_path, file, key_path, drop)
        _assert_one_error_line(model_dir, dev, tmp_path, capsys, file)

    @pytest.mark.parametrize("key_path, value, message", [
        ("graph_options.colour", "red", "bundle.json: graph_options has unknown keys ['colour']"),
        ("encoder.depth", 3, "bundle.json: encoder has unknown keys ['depth']"),
        ("graph_options.top_k_deprels", 2,
         "bundle.json: layout of model '{selected}' disagrees at parameter 7: "
         "recorded ['enc/edge_emb', [11, 4]], expected ['enc/edge_emb', [6, 4]]"),
        # older files recorded the noun tags, which are fixed
        ("graph_options.noun_tags", sorted(DEFAULT_NOUN_TAGS),
         "bundle.json: graph_options has unknown keys ['noun_tags']"),
        ("layouts.x", [], "bundle.json: layouts has unknown model names ['x']; "
                          "the models are ['p', 't', 'v']\n"),
        ("selected", "q", "bundle.json: selected model 'q' is not in layouts\n"),
        ("layouts", {}, "bundle.json: layouts names no model\n"),
    ], ids=["unknown-graph-option", "unknown-encoder-field", "edited-top-k",
            "edited-noun-tags", "unknown-name", "unknown-selection", "no-model"])
    def test_wrong_meaning_is_one_error_line(
        self, trained_dir, corpora, tmp_path, capsys, key_path, value, message
    ):
        _, dev = corpora

        def assign(parent, key):
            parent[key] = value

        model_dir, _ = _edit_copy(trained_dir, tmp_path, "bundle.json", key_path, assign)
        selected = json.loads((model_dir / "bundle.json").read_text())["selected"]
        message = message.format(selected=selected)
        _assert_one_error_line(model_dir, dev, tmp_path, capsys, message)

    @pytest.mark.parametrize("flags, index, entries, expected", [
        (["--no-definitions"], 5, [["enc/gloss/w", [8, 8]], ["enc/gloss/b", [8]]],
         "['enc/edge_emb', [11, 4]]"),
        (["--n-gat-layers", "0"], 7, [["enc/edge_emb", [11, 4]]], "['head/cls/w', [24, 6]]"),
    ], ids=["no-definitions", "gat-0"])
    def test_directory_of_the_older_layout_is_one_error_line(
        self, corpora, tmp_path, capsys, flags, index, entries, expected
    ):
        # Before a layout listed only what the forward reads, a model without
        # definitions kept the gloss projection, and one without a GAT layer
        # the edge table, in its layout and its checkpoint.
        train, dev = corpora
        model_dir = tmp_path / "model"
        assert main(["train", "--train", train, "--dev", dev, "--out-dir", str(model_dir),
                     *TINY_FLAGS, *flags]) == 0
        meta_path = model_dir / "bundle.json"
        meta = json.loads(meta_path.read_text(encoding="utf-8"))
        for name, layout in meta["layouts"].items():
            path = model_dir / f"model_{name}.npy"
            weights = np.load(path)
            at = sum(math.prod(shape) for _, shape in layout[:index])
            n = sum(math.prod(shape) for _, shape in entries)
            np.save(path, np.concatenate([weights[:at], np.zeros(n), weights[at:]]))
            layout[index:index] = entries
        meta_path.write_text(json.dumps(meta), encoding="utf-8")
        capsys.readouterr()
        _assert_one_error_line(
            model_dir, dev, tmp_path, capsys,
            f"error: {meta_path}: layout of model '{meta['selected']}' disagrees at parameter "
            f"{index}: recorded {entries[0]}, expected {expected}\n")

    @pytest.mark.parametrize("edit, message", [
        (lambda ids, last: ids.update({last: None}),
         'token_to_id["{last}"] must be an integer, got null'),
        (lambda ids, last: ids.update({last: "5"}),
         'token_to_id["{last}"] must be an integer, got "5"'),
        (lambda ids, last: ids.update({last: 5.5}),
         'token_to_id["{last}"] must be an integer, got 5.5'),
        (lambda ids, last: ids.update({last: True}),
         'token_to_id["{last}"] must be an integer, got true'),
        (lambda ids, last: ids.update({last: -1}), "token_to_id ids must be 0..{top}, each once"),
        (lambda ids, last: ids.update({last: 10000}), "token_to_id ids must be 0..{top}, each once"),
        (lambda ids, last: ids.update({last: 4}), "token_to_id ids must be 0..{top}, each once"),
        (lambda ids, last: ids.pop("<cls>"), "token_to_id ids must be 0..{top}, each once"),
        (lambda ids, last: ids.update({"<cls>": 3, "<sep>": 2}),
         "token_to_id must give ['<pad>', '<unk>', '<cls>', '<sep>'] the ids 0-3, "
         "not [0, 1, 3, 2]"),
    ], ids=["null", "string", "float", "bool", "negative", "too-large", "duplicate",
            "missing-cls", "swapped-reserved"])
    def test_bad_token_id_is_one_error_line_before_any_output(
        self, trained_dir, corpora, tmp_path, capsys, edit, message
    ):
        _, dev = corpora
        edited = {}

        def edit_ids(parent, key):
            ids = parent[key]
            edited["last"] = max(ids, key=ids.get)
            edit(ids, edited["last"])
            edited["top"] = len(ids) - 1

        model_dir, _ = _edit_copy(trained_dir, tmp_path, "bundle.json", "vocab.token_to_id",
                                  edit_ids)
        _assert_one_error_line(model_dir, dev, tmp_path, capsys,
                               f"bundle.json: vocab.{message.format(**edited)}\n")
        assert not (tmp_path / "p.jsonl").exists()

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_weight_is_one_error_line_before_any_output(
        self, trained_dir, corpora, tmp_path, capsys, value
    ):
        # A .npy file holds any float64; the checkpoint loader refuses NaN and
        # infinity, naming the parameter that holds one.
        _, dev = corpora
        model_dir, file, weights, layout = _selected_checkpoint(trained_dir, tmp_path)
        names = [pname for pname, _ in layout]
        weights[sum(math.prod(shape) for _, shape in layout[:names.index("head/cls/w")]) + 3] = value
        np.save(model_dir / file, weights)
        _assert_one_error_line(model_dir, dev, tmp_path, capsys,
                               f"{file}: non-finite value in parameter 'head/cls/w'")
        assert not (tmp_path / "p.jsonl").exists()

    @pytest.mark.parametrize("damage, message", [
        (lambda path, w: path.write_bytes(path.read_bytes()[:-100]), "not a .npy checkpoint"),
        (lambda path, w: path.write_bytes(b""), "not a .npy checkpoint"),
        (lambda path, w: path.write_text(json.dumps(w.tolist())), "not a .npy checkpoint"),
        (lambda path, w: np.save(path, np.array(list(w), dtype=object), allow_pickle=True),
         "not a .npy checkpoint"),
        (lambda path, w: np.savez(path.with_suffix(""), weights=w)
         or path.with_suffix(".npz").replace(path), "a .npz archive"),
        (lambda path, w: np.save(path, w.astype(np.float32)), "holds float32"),
        (lambda path, w: np.save(path, w.astype(">f8")), "holds >f8"),
        (lambda path, w: np.save(path, w.reshape(1, -1)), "holds float64 of shape (1, "),
        (lambda path, w: np.save(path, w[:-1]),
         "holds float64 of shape ({short},), expected float64 of shape ({n},)"),
        (lambda path, w: np.save(path, np.append(w, 0.0)),
         "holds float64 of shape ({long},), expected float64 of shape ({n},)"),
        (lambda path, w: _write_header(path, (10**15,)),
         "not a .npy checkpoint (mmap length is greater than file size)"),
    ], ids=["truncated", "empty", "json-text", "object-array", "npz", "float32",
            "big-endian", "2-d", "one-float-short", "one-float-long", "huge-header"])
    def test_damaged_checkpoint_is_one_error_line(
        self, trained_dir, corpora, tmp_path, capsys, damage, message
    ):
        _, dev = corpora
        model_dir, file, weights, _ = _selected_checkpoint(trained_dir, tmp_path)
        damage(model_dir / file, weights)
        n = len(weights)
        message = message.format(n=n, short=n - 1, long=n + 1)
        _assert_one_error_line(model_dir, dev, tmp_path, capsys, f"{file}: {message}")
        assert not (tmp_path / "p.jsonl").exists()

    @pytest.mark.parametrize("edit, message", [
        (lambda layout: layout.pop(1),
         "1: recorded ['enc/sa0/wq', [8, 8]], expected ['enc/pos_emb', [128, 8]]"),
        (lambda layout: layout[3][1].append(1),
         "3: recorded ['enc/sa0/wk', [8, 8, 1]], expected ['enc/sa0/wk', [8, 8]]"),
        (lambda layout: layout.pop(), "{last}: recorded nothing, expected {last_entry}"),
        (lambda layout: layout.append(["head/extra", [2]]),
         "{end}: recorded ['head/extra', [2]], expected nothing"),
    ], ids=["dropped-name", "changed-shape", "dropped-last", "extra-name"])
    def test_layout_edit_is_one_error_line(
        self, trained_dir, corpora, tmp_path, capsys, edit, message
    ):
        _, dev = corpora

        def apply(parent, key):
            edit(parent[key])

        model_dir, _ = _edit_copy(trained_dir, tmp_path, "bundle.json", "layouts.SELECTED", apply)
        selected = json.loads((model_dir / "bundle.json").read_text())["selected"]
        layout = json.loads((Path(trained_dir) / "bundle.json").read_text())["layouts"][selected]
        message = message.format(last=len(layout) - 1, last_entry=layout[-1], end=len(layout))
        _assert_one_error_line(model_dir, dev, tmp_path, capsys, f"bundle.json: layout of "
                               f"model '{selected}' disagrees at parameter {message}")
        assert not (tmp_path / "p.jsonl").exists()

    @pytest.mark.parametrize("file, key_path, value, message", [
        ("bundle.json", "encoder.d_model", 8.0, "encoder.d_model must be an integer, got 8.0"),
        ("bundle.json", "encoder.d_model", True, "encoder.d_model must be an integer, got true"),
        ("bundle.json", "encoder.n_gat_layers", 1.0,
         "encoder.n_gat_layers must be an integer, got 1.0"),
        ("bundle.json", "encoder.edge_emb_dim", "4",
         'encoder.edge_emb_dim must be an integer, got "4"'),
        ("bundle.json", "encoder.use_gloss_fusion", 1,
         "encoder.use_gloss_fusion must be true or false, got 1"),
        ("bundle.json", "encoder.leaky_slope", "0.01",
         'encoder.leaky_slope must be a number, got "0.01"'),
        ("bundle.json", "graph_options.top_k_deprels", 8.0,
         "graph_options.top_k_deprels must be an integer, got 8.0"),
        ("bundle.json", "graph_options.no_pos", None,
         "graph_options.no_pos must be true or false, got null"),
        ("bundle.json", "label_emb_dim", 4.9, "label_emb_dim must be an integer, got 4.9"),
        ("bundle.json", "label_emb_dim", False, "label_emb_dim must be an integer, got false"),
        ("bundle.json", "label_emb_dim", 0, "label_emb_dim must be positive, got 0"),
        ("bundle.json", "vocab.deprel_ranking.0", 7,
         "vocab.deprel_ranking[1] must be a string, got 7"),
        # list() once split this string into seven one-letter relations
        ("bundle.json", "vocab.deprel_ranking", "abcdefg",
         'vocab.deprel_ranking must be a list, got "abcdefg"'),
        # dict() once read lists of pairs
        ("bundle.json", "layouts", [["p", []]], 'layouts must be an object, got [["p", []]]'),
        ("bundle.json", "vocab.token_to_id", [["<pad>", 0], ["<unk>", 1]],
         'vocab.token_to_id must be an object, got [["<pad>", 0], ["<unk>", 1]]'),
        ("bundle.json", "layouts.p", {}, 'layouts["p"] must be a list, got {}'),
        ("bundle.json", "selected", ["p"], 'selected must be a string, got ["p"]'),
        ("bundle.json", "scores", [], "scores must be an object, got []"),
    ], ids=["float-d-model", "bool-d-model", "float-gat-layers", "string-edge-dim",
            "int-gloss-fusion", "string-slope", "float-top-k", "null-no-pos",
            "float-label-dim", "bool-label-dim", "zero-label-dim", "int-deprel",
            "string-deprels", "layouts-pairs", "token-pairs", "object-layout", "list-selected",
            "list-scores"])
    def test_wrong_type_is_one_error_line(
        self, trained_dir, corpora, tmp_path, capsys, file, key_path, value, message
    ):
        _, dev = corpora

        def assign(parent, key):
            parent[int(key) if isinstance(parent, list) else key] = value

        model_dir, _ = _edit_copy(trained_dir, tmp_path, file, key_path, assign)
        _assert_one_error_line(model_dir, dev, tmp_path, capsys, f"{file}: {message}\n")
        assert not (tmp_path / "p.jsonl").exists()

    def test_json_checkpoint_directory_is_refused(
        self, trained_dir, corpora, tmp_path, capsys
    ):
        # Older versions wrote each model as model_<name>.json; no .npy
        # checkpoint is there to load.
        _, dev = corpora
        model_dir = tmp_path / "model"
        shutil.copytree(trained_dir, model_dir)
        for name in "ptv":
            (model_dir / f"model_{name}.npy").unlink()
            (model_dir / f"model_{name}.json").write_text(
                '{"magic": "simrec-checkpoint", "version": 1, "params": {}}', encoding="utf-8")
        selected = json.loads((model_dir / "bundle.json").read_text())["selected"]
        _assert_one_error_line(model_dir, dev, tmp_path, capsys,
                               f"model_{selected}.npy: missing model checkpoint")
        assert not (tmp_path / "p.jsonl").exists()

    def test_three_record_directory_is_refused(self, trained_dir, corpora, tmp_path, capsys):
        # Older versions named each model's decoding order in a "models"
        # field and kept the vocabulary and the selection in vocab.json and
        # selected.json; such a directory must be trained again.
        _, dev = corpora
        model_dir = tmp_path / "model"
        shutil.copytree(trained_dir, model_dir)
        meta = json.loads((model_dir / "bundle.json").read_text())
        (model_dir / "vocab.json").write_text(json.dumps(meta.pop("vocab")))
        selection = {key: meta.pop(key) for key in ("selected", "scores")}
        (model_dir / "selected.json").write_text(json.dumps(selection))
        meta["models"] = {"p": "parallel", "t": "tenor_first", "v": "vehicle_first"}
        (model_dir / "bundle.json").write_text(json.dumps(meta))
        _assert_one_error_line(model_dir, dev, tmp_path, capsys,
                               "bundle.json: record has unknown keys ['models']\n")
        assert not (tmp_path / "p.jsonl").exists()

    def test_gat_query_key_layout_is_refused(self, trained_dir, corpora, tmp_path, capsys):
        # Older versions kept each GAT layer's score vectors as products of a
        # (d, d) query or key map, gat<l>/wq and gat<l>/wk, and the whole
        # (2d + edge_dim, 1) score map as gat<l>/wa; such a directory must be
        # trained again.
        _, dev = corpora

        def old_layout(layout, key):
            entries = layout[key]
            at = next(i for i, (name, _) in enumerate(entries) if name == "enc/gat0/u")
            d, de = entries[at][1][0], entries[at + 2][1][0]
            entries[at:at + 3] = [["enc/gat0/wq", [d, d]], ["enc/gat0/wk", [d, d]],
                                  ["enc/gat0/wv", [d, d]], ["enc/gat0/wa", [2 * d + de, 1]]]

        model_dir, _ = _edit_copy(trained_dir, tmp_path, "bundle.json", "layouts.SELECTED",
                                  old_layout)
        selected = json.loads((model_dir / "bundle.json").read_text())["selected"]
        _assert_one_error_line(model_dir, dev, tmp_path, capsys, (
            f"bundle.json: layout of model '{selected}' disagrees at parameter 8: "
            "recorded ['enc/gat0/wq', [8, 8]], expected ['enc/gat0/u', [8, 2]]"))
        assert not (tmp_path / "p.jsonl").exists()

    def test_interrupted_save_leaves_a_directory_that_fails_cleanly(
        self, trained_dir, corpora, tmp_path, capsys, monkeypatch
    ):
        # A second bundle of the same configuration saved over a trained
        # directory, with the write of the second checkpoint failing part-way.
        _, dev = corpora
        model_dir = tmp_path / "model"
        shutil.copytree(trained_dir, model_dir)
        bundle = distill.load_bundle(model_dir)
        again = distill.build_bundle(
            bundle.vocab, bundle.config, np.random.default_rng(1),
            label_emb_dim=bundle.label_emb_dim, graph_options=bundle.graph_options,
        )
        save = np.save
        partial = []

        def failing(file, arr, **kwargs):
            if file.name.endswith("model_t.npy.tmp"):
                file.write(b"\x93NUMPY\x01\x00")
                partial.append(file.name)
                raise OSError("no space left on device")
            save(file, arr, **kwargs)

        monkeypatch.setattr(np, "save", failing)
        with pytest.raises(OSError, match="no space left"):
            distill.save_bundle(again, model_dir, selected="p")
        monkeypatch.undo()
        assert partial
        assert not [p.name for p in model_dir.iterdir() if p.name.endswith(".tmp")]
        _assert_one_error_line(model_dir, dev, tmp_path, capsys, "bundle.json")


def _write_header(path, shape):
    """A .npy file at ``path`` whose header claims ``shape`` and which holds 8 bytes of data."""
    with open(path, "wb") as fh:
        np.lib.format.write_array_header_1_0(
            fh, {"descr": "<f8", "fortran_order": False, "shape": shape})
        fh.write(bytes(8))


def _selected_checkpoint(trained_dir, tmp_path):
    """A copy of ``trained_dir``, the selected model's checkpoint file name,
    its weights and its recorded layout."""
    model_dir = tmp_path / "model"
    shutil.copytree(trained_dir, model_dir)
    selected = json.loads((model_dir / "bundle.json").read_text())["selected"]
    file = f"model_{selected}.npy"
    layout = json.loads((model_dir / "bundle.json").read_text())["layouts"][selected]
    return model_dir, file, np.load(model_dir / file), layout


class TestCorpusErrorsNameTheFile:
    @pytest.fixture
    def bad_corpus(self, tmp_path):
        record = sentence_to_record(canonical_sentence())
        del record["comparator_index"]
        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps(record) + "\n", encoding="utf-8")
        return str(path)

    @pytest.mark.parametrize("command", ["train --train", "train --dev",
                                         "evaluate --data", "predict --input"])
    def test_malformed_record(self, trained_dir, corpora, bad_corpus, tmp_path, capsys,
                              command):
        _run_on_corpus(command, bad_corpus, trained_dir, corpora, tmp_path)
        assert capsys.readouterr().err == (
            f"error: {bad_corpus}: line 1: comparator_index is missing\n")
        assert not (tmp_path / "m").exists() and not (tmp_path / "p.jsonl").exists()

    @pytest.mark.parametrize("command", ["train --train", "predict --input"])
    @pytest.mark.parametrize("glosses", ["clouds", [["6", ["white"]]]], ids=["string", "list"])
    def test_glosses_not_an_object(self, trained_dir, corpora, tmp_path, capsys, command,
                                   glosses):
        record = {**sentence_to_record(canonical_sentence()), "glosses": glosses}
        bad = tmp_path / "bad.jsonl"
        bad.write_text(json.dumps(record) + "\n", encoding="utf-8")
        _run_on_corpus(command, str(bad), trained_dir, corpora, tmp_path)
        assert capsys.readouterr().err == (
            f"error: {bad}: line 1: glosses must be an object, got {json.dumps(glosses)}\n")
        assert not (tmp_path / "m").exists() and not (tmp_path / "p.jsonl").exists()

    @pytest.mark.parametrize("command", ["train --train", "predict --input",
                                         "inspect-graph --input"])
    def test_not_utf8(self, trained_dir, corpora, tmp_path, capsys, command):
        # A UTF-16 file starts with the byte order mark ff fe.
        record = json.dumps(sentence_to_record(canonical_sentence()))
        bad = tmp_path / "bad.jsonl"
        bad.write_bytes((record + "\n").encode("utf-16"))
        assert bad.read_bytes()[:2] == b"\xff\xfe"
        _run_on_corpus(command, str(bad), trained_dir, corpora, tmp_path)
        assert capsys.readouterr().err == (
            f"error: {bad}: not UTF-8 text ('utf-8' codec can't decode byte 0xff in "
            f"position 0: invalid start byte)\n")
        assert not any((tmp_path / made).exists() for made in ("m", "p.jsonl", "g.dot"))


def _run_on_corpus(command, bad_corpus, trained_dir, corpora, tmp_path):
    """Run ``command`` ("train --dev", say) with ``bad_corpus`` for its flag;
    it must exit 1."""
    train, dev = corpora
    name, flag = command.split()
    given = {"--train": train, "--dev": dev, "--data": dev, "--input": dev, flag: bad_corpus}
    if name == "train":
        argv = ["--train", given["--train"], "--dev", given["--dev"],
                "--out-dir", str(tmp_path / "m"), *TINY_FLAGS]
    elif name == "inspect-graph":
        argv = [flag, bad_corpus, "--dot-out", str(tmp_path / "g.dot")]
    else:
        argv = ["--model-dir", trained_dir, flag, bad_corpus]
        if name == "predict":
            argv += ["--out", str(tmp_path / "p.jsonl")]
    assert main([name, *argv]) == 1


def nine_token_sentence():
    words = [("the", "DT", 2, "other"), ("sheep", "NN", 3, "nsubj"), ("looks", "VV", 0, "root"),
             ("like", "CS", 3, "prep"), ("white", "JJ", 6, "amod"), ("clouds", "NN", 4, "pobj"),
             ("slowly", "AD", 3, "advmod"), ("today", "AD", 3, "advmod"),
             ("gently", "AD", 3, "advmod")]
    return AnnotatedSentence(tokens=tuple(TokenAnn(*w) for w in words), comparator_index=4,
                             tags=("O",) * len(words))


class TestOverLongSentence:
    """A sentence longer than the model's max_tokens fails before any output."""

    @pytest.fixture(scope="class")
    def short_model_dir(self, tmp_path_factory, corpora):
        train, dev = corpora
        out = tmp_path_factory.mktemp("short")
        assert main(["train", "--train", train, "--dev", dev, "--out-dir", str(out),
                     *TINY_FLAGS, "--max-tokens", "8"]) == 0
        return str(out)

    @pytest.fixture
    def long_corpus(self, tmp_path):
        sents = generate_synthetic(SyntheticConfig(n_sentences=20, seed=11))
        assert max(len(s.tokens) for s in sents) <= 8
        path = tmp_path / "long.jsonl"
        save_corpus(path, sents[:12] + [nine_token_sentence()] + sents[12:])
        return str(path)

    @pytest.mark.parametrize("command", ["train --train", "train --dev",
                                         "evaluate --data", "predict --input"])
    def test_rejected_naming_file_and_line(self, short_model_dir, corpora, long_corpus,
                                           tmp_path, capsys, command):
        train, dev = corpora
        name, flag = command.split()
        given = {"--train": train, "--dev": dev, flag: long_corpus}
        if name == "train":
            argv = ["--train", given["--train"], "--dev", given["--dev"],
                    "--out-dir", str(tmp_path / "m"), *TINY_FLAGS, "--max-tokens", "8"]
        else:
            argv = ["--model-dir", short_model_dir, flag, long_corpus]
            if name == "predict":
                argv += ["--out", str(tmp_path / "p.jsonl")]
        capsys.readouterr()
        assert main([name, *argv]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: {long_corpus}: line 13: token count 9 outside [1, 8]\n"
        assert captured.out == ""
        assert not (tmp_path / "m").exists() and not (tmp_path / "p.jsonl").exists()

    def test_failed_predict_leaves_the_old_output(self, trained_dir, corpora, tmp_path,
                                                  capsys, monkeypatch):
        _, dev = corpora
        out = tmp_path / "p.jsonl"
        out.write_text("old\n", encoding="utf-8")

        def failing(*args):
            raise RuntimeError("serving failed")

        monkeypatch.setattr(cli, "predict_batch", failing)
        assert main(["predict", "--model-dir", trained_dir, "--input", dev,
                     "--out", str(out)]) == 1
        assert capsys.readouterr().err == "error: serving failed\n"
        assert out.read_text(encoding="utf-8") == "old\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["p.jsonl"]


class TestPredict:
    def test_jsonl_schema(self, trained_dir, corpora, tmp_path, capsys):
        _, dev = corpora
        out = tmp_path / "preds.jsonl"
        rc = main(["predict", "--model-dir", trained_dir, "--input", dev,
                   "--out", str(out)])
        assert rc == 0
        info = json.loads(capsys.readouterr().out)
        lines = out.read_text(encoding="utf-8").splitlines()
        assert info["sentences"] == len(lines) == 4
        for line in lines:
            rec = json.loads(line)
            assert set(rec) == {"label", "p_simile", "spans"}
            assert rec["label"] in ("literal", "simile")
            assert 0.0 <= rec["p_simile"] <= 1.0
            if rec["label"] == "literal":
                assert rec["spans"] == []

    def test_reruns_are_identical(self, trained_dir, corpora, tmp_path, capsys):
        _, dev = corpora
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        main(["predict", "--model-dir", trained_dir, "--input", dev, "--out", str(a)])
        main(["predict", "--model-dir", trained_dir, "--input", dev, "--out", str(b)])
        capsys.readouterr()
        assert a.read_bytes() == b.read_bytes()

    def test_several_chunks_match_one_sentence_at_a_time(self, trained_dir, tmp_path, capsys):
        sents = generate_synthetic(SyntheticConfig(n_sentences=2 * PREDICT_CHUNK + 3, seed=9))
        path, out = tmp_path / "many.jsonl", tmp_path / "preds.jsonl"
        save_corpus(path, sents)
        assert main(["predict", "--model-dir", trained_dir, "--input", str(path),
                     "--out", str(out)]) == 0
        capsys.readouterr()
        _, model, vocab, opts = distill.load_selected(trained_dir)
        want = [predict(model, s, build_graph(s, vocab, opts), vocab).to_record() for s in sents]
        got = [json.loads(line) for line in out.read_text(encoding="utf-8").splitlines()]
        assert len(got) == len(want)
        for rec, ref in zip(got, want):
            np.testing.assert_allclose(rec["p_simile"], ref["p_simile"], rtol=0, atol=1e-12)
            assert (rec["label"], rec["spans"]) == (ref["label"], ref["spans"])


    def test_keeps_freed_pages_once(self, trained_dir, corpora, tmp_path, capsys, monkeypatch):
        calls = []
        monkeypatch.setattr(distill, "keep_freed_pages", lambda: calls.append(1))
        _, dev = corpora
        assert main(["predict", "--model-dir", trained_dir, "--input", dev,
                     "--out", str(tmp_path / "preds.jsonl")]) == 0
        capsys.readouterr()
        assert calls == [1]

    def test_served_records_keep_their_digest(self, trained_dir):
        # Every model of the trained fixture serves each sentence through
        # heads.predict; the digest of the records, floats at their exact repr
        # (numpy 2.4.6, BLAS at one thread), must not move a bit. It was first
        # recorded before the serving path was streamlined, and recorded again
        # when the GAT score was split into per-node logits, which moved
        # p_simile by at most 1.2e-16 and no label or span. Recorded again
        # when each GAT layer's score vectors became parameters of their own
        # (gat<l>/u, in place of products of two (d, d) maps): the fixture's
        # models draw and train other weights, so every record may move.
        bundle = distill.load_bundle(trained_dir)
        opts = bundle.graph_options
        sents = generate_synthetic(SyntheticConfig(n_sentences=40, seed=7))
        records = [repr(predict(model, s, build_graph(s, bundle.vocab, opts), bundle.vocab)
                        .to_record()) for model in bundle.models.values() for s in sents]
        assert sum("'simile'" in r for r in records) >= 10
        digest = hashlib.sha256("\n".join(records).encode()).hexdigest()
        assert digest == "e6af8b6505f6c9dd7cf24ed524819887213c69f3b5f3f72ab0493befc4b9bce7"

class TestInspectGraph:
    @pytest.fixture
    def canonical_file(self, tmp_path):
        path = tmp_path / "one.jsonl"
        save_corpus(path, [canonical_sentence()])
        return str(path)

    def test_summary_lines(self, canonical_file, capsys):
        rc = main(["inspect-graph", "--input", canonical_file, "--index", "0"])
        assert rc == 0
        out = capsys.readouterr().out.splitlines()
        info = json.loads(out[0])
        assert info["tokens"] == 6
        assert info["edges"] == 22
        assert out[1] == "noun:2 non-noun:4 subsentence:2"

    def test_edge_label_table(self, canonical_file, capsys):
        main(["inspect-graph", "--input", canonical_file])
        out = capsys.readouterr().out.splitlines()
        table = {line.split()[0]: int(line.split()[1]) for line in out[2:]}
        assert table["con"] == 2
        assert table["not-con"] == 2
        assert table["self"] == 8

    def test_dot_output(self, canonical_file, tmp_path, capsys):
        dot = tmp_path / "graph.dot"
        rc = main(["inspect-graph", "--input", canonical_file,
                   "--dot-out", str(dot)])
        capsys.readouterr()
        assert rc == 0
        text = dot.read_text(encoding="utf-8")
        assert text.startswith("digraph") and text.rstrip().endswith("}")

    def test_failed_dot_write_leaves_the_old_file(self, canonical_file, tmp_path, capsys,
                                                  monkeypatch):
        dot = tmp_path / "graph.dot"
        dot.write_text("old\n", encoding="utf-8")

        def failing(*args):
            raise RuntimeError("rendering failed")

        monkeypatch.setattr(cli, "to_dot", failing)
        assert main(["inspect-graph", "--input", canonical_file, "--dot-out", str(dot)]) == 1
        assert capsys.readouterr().err == "error: rendering failed\n"
        assert dot.read_text(encoding="utf-8") == "old\n"
        assert not list(tmp_path.glob("*.tmp"))

    def test_merged_graph_option(self, canonical_file, capsys):
        rc = main(["inspect-graph", "--input", canonical_file,
                   "--no-subsentence-nodes"])
        assert rc == 0
        out = capsys.readouterr().out.splitlines()
        assert out[1] == "noun:2 non-noun:4 subsentence:1"

    def test_index_out_of_range(self, canonical_file, capsys):
        rc = main(["inspect-graph", "--input", canonical_file, "--index", "9"])
        assert rc == 1
        assert "out of range" in capsys.readouterr().err

    def test_negative_top_k_is_refused(self, canonical_file, capsys):
        # A negative k would slice the rarest relation off the ranking.
        rc = main(["inspect-graph", "--input", canonical_file, "--top-k-deprels", "-1"])
        captured = capsys.readouterr()
        assert rc == 1 and captured.out == ""
        assert captured.err == "error: GraphOptions: top_k_deprels must be non-negative, got -1\n"


class TestRunConfig:
    def test_defaults(self):
        cfg = load_run_config(None, {}, env={})
        assert cfg.d_model == 300 and cfg.epochs == 30

    def test_defaults_match_the_library_defaults(self):
        # RunConfig declares each setting a second time for the command line.
        cfg = RunConfig()
        library = [(cls.__name__, f.name, f.default)
                   for cls in (EncoderConfig, TrainConfig, GraphOptions)
                   for f in fields(cls) if hasattr(cfg, f.name)]
        for fn, names in ((build_bundle, ("label_emb_dim", "share_encoder")),
                          (build_vocab, ("min_freq",))):
            params = inspect.signature(fn).parameters
            library += [(fn.__name__, name, params[name].default) for name in names]
        for where, name, default in library:
            assert getattr(cfg, name) == default, (where, name)
        assert (not cfg.no_definitions) == EncoderConfig().use_gloss_fusion
        params = inspect.signature(build_bundle).parameters
        assert cfg.disable_model == params["disabled_models"].default
        assert cfg.graph_options() == params["graph_options"].default == GraphOptions()
        checked = {name for _, name, _ in library} | {"no_definitions", "disable_model"}
        assert checked == {f.name for f in fields(RunConfig)}

    def test_file_then_env_then_flags(self, tmp_path):
        config = tmp_path / "c.json"
        config.write_text(json.dumps({"seed": 1, "epochs": 5}), encoding="utf-8")
        cfg = load_run_config(str(config), {}, env={})
        assert cfg.seed == 1 and cfg.epochs == 5
        cfg = load_run_config(str(config), {}, env={"SIMREC_SEED": "2"})
        assert cfg.seed == 2
        cfg = load_run_config(str(config), {"seed": 3}, env={"SIMREC_SEED": "2"})
        assert cfg.seed == 3

    def test_non_integer_env_seed(self, tmp_path):
        with pytest.raises(ValueError, match="SIMREC_SEED"):
            load_run_config(None, {}, env={"SIMREC_SEED": "soon"})

    def test_disable_model_becomes_tuple(self, tmp_path):
        config = tmp_path / "c.json"
        config.write_text(json.dumps({"disable_model": ["v"]}), encoding="utf-8")
        cfg = load_run_config(str(config), {}, env={})
        assert cfg.disable_model == ("v",)

    def test_unknown_key(self, tmp_path):
        config = tmp_path / "c.json"
        config.write_text(json.dumps({"depth": 2}), encoding="utf-8")
        with pytest.raises(ValueError, match="depth"):
            load_run_config(str(config), {}, env={})

    def test_invalid_json(self, tmp_path):
        config = tmp_path / "c.json"
        config.write_text("{not json", encoding="utf-8")
        with pytest.raises(ValueError, match="JSON"):
            load_run_config(str(config), {}, env={})

    @pytest.mark.parametrize("key, value, expected", [
        ("batch_size", "4", "an integer"),
        ("epochs", True, "an integer"),
        ("seed", 1.5, "an integer"),
        ("learning_rate", "0.1", "a number"),
        ("alpha", False, "a number"),
        ("no_pos", "false", "true or false"),
        ("share_encoder", 1, "true or false"),
        ("lambda_mode", 1, "a string"),
        ("disable_model", "v", "a list"),
        ("disable_model", ["v", 2], "a list"),
    ])
    def test_wrong_type_fails_before_training(
        self, corpora, tmp_path, capsys, key, value, expected
    ):
        train, dev = corpora
        config = tmp_path / "c.json"
        config.write_text(json.dumps({key: value}), encoding="utf-8")
        out = tmp_path / "m"
        rc = main(["train", "--train", train, "--dev", dev, "--out-dir", str(out),
                   "--config", str(config)])
        err = capsys.readouterr().err
        assert rc == 1
        if isinstance(value, list):  # the item at fault
            key, expected, value = f"{key}[2]", "a string", value[1]
        assert err == f"error: {config}: {key} must be {expected}, got {json.dumps(value)}\n"
        assert not out.exists()

    def test_float_field_accepts_integer(self, tmp_path):
        config = tmp_path / "c.json"
        config.write_text(json.dumps({"learning_rate": 1, "alpha": 0}), encoding="utf-8")
        cfg = load_run_config(str(config), {}, env={})
        assert cfg.learning_rate == 1 and cfg.alpha == 0

    def test_non_object_config(self, tmp_path):
        config = tmp_path / "c.json"
        config.write_text("[1, 2]", encoding="utf-8")
        with pytest.raises(ValueError, match=r"record must be an object, got \[1, 2\]"):
            load_run_config(str(config), {}, env={})


def _subcommands(parser):
    """Each subcommand's parser, by name."""
    return next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices


def _train_flag(name):
    """The action of ``simrec train``'s flag for RunConfig field ``name``."""
    return next(a for a in _subcommands(build_parser())["train"]._actions if a.dest == name)


def _train_run_config(config, flag_argv):
    args = build_parser().parse_args(
        ["train", "--train", "t.jsonl", "--dev", "d.jsonl", "--config", str(config), *flag_argv]
    )
    return load_run_config(args.config, _given_flags(args, RunConfig), env={})


def _as_field(value):
    return tuple(value) if isinstance(value, list) else value


# A file value and a flag value for each field whose default + 1 and + 2 the
# settings refuse.
_IN_RANGE = {"leaky_slope": (0.005, 0.0025), "max_tokens": (99, 98),
             "alpha": (0.05, 0.025), "lambda_fixed": (0.5, 0.25)}


@pytest.mark.parametrize("f", fields(RunConfig), ids=lambda f: f.name)
def test_every_field_is_a_flag_that_beats_the_file_that_beats_the_default(f, tmp_path):
    option = "--" + f.name.replace("_", "-")
    flag = _train_flag(f.name)
    assert flag.option_strings == [option]
    default = getattr(RunConfig(), f.name)
    if f.type == "bool":  # a switch can only turn a file's false on
        in_file, beaten, flag_argv, by_flag = True, False, [option], True
    else:
        if flag.choices:
            a, b, *_ = [c for c in flag.choices if c != default]
            in_file, by_flag = (a, b) if f.type == "str" else ([a], [b])
        else:
            in_file, by_flag = _IN_RANGE.get(f.name, (default + 1, default + 2))
        beaten = in_file
        values = by_flag if isinstance(by_flag, list) else [by_flag]
        flag_argv = [token for v in values for token in (option, str(v))]
    config = tmp_path / "c.json"
    config.write_text(json.dumps({f.name: in_file}), encoding="utf-8")
    assert getattr(_train_run_config(config, []), f.name) == _as_field(in_file) != default
    config.write_text(json.dumps({f.name: beaten}), encoding="utf-8")
    got = getattr(_train_run_config(config, flag_argv), f.name)
    assert got == _as_field(by_flag) != _as_field(beaten)


def test_readme_command_lines_parse():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Command line", 1)[1].split("```bash", 1)[1].split("```", 1)[0]
    lines = block.replace("\\\n", " ").splitlines()
    commands = [shlex.split(line)[1:] for line in lines if line.startswith("simrec ")]
    parser = build_parser()
    for argv in commands:
        parser.parse_args(argv)
    assert {argv[0] for argv in commands} == set(_subcommands(parser))


def test_readme_library_example_runs():
    # The example at 2 epochs in place of 30: the state that train returns
    # holds what select_best makes of the trained bundle.
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Library", 1)[1].split("```python", 1)[1].split("```", 1)[0]
    short = block.replace("epochs=30", "epochs=2")
    assert short.count("epochs=2") == 1 and "epochs=30" not in short
    scope = {}
    exec(short, scope)
    selected, scores = distill.select_best(scope["bundle"], scope["corpus"][400:])
    assert len(scope["state"].epoch_logs) == 2
    assert scope["name"] == selected
    assert scope["scores"] == {name: evalkit.report_record(tasks)
                               for name, tasks in scores.items()}


@pytest.mark.skipif(shutil.which("simrec") is None,
                    reason="console script not installed")
class TestConsoleScript:
    def test_entry_point_runs(self, tmp_path):
        out = tmp_path / "c.jsonl"
        proc = subprocess.run(
            ["simrec", "generate-data", "--out", str(out), "--n", "5"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["sentences"] == 5


def test_console_script_target_runs_without_an_install(tmp_path):
    """The ``[project.scripts]`` entry resolves, and runs ``generate-data`` in a
    fresh interpreter as the installed script would."""
    tomllib = pytest.importorskip("tomllib")
    root = Path(__file__).resolve().parents[1]
    project = tomllib.loads((root / "pyproject.toml").read_text(encoding="utf-8"))["project"]
    assert project["scripts"] == {"simrec": "simrec.__main__:main"}
    module, func = project["scripts"]["simrec"].split(":")
    assert callable(getattr(importlib.import_module(module), func))
    out = tmp_path / "c.jsonl"
    src = str(root / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    proc = subprocess.run(
        [sys.executable, "-c", f"import sys; from {module} import {func}; sys.exit({func}())",
         "generate-data", "--out", str(out), "--n", "5"],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["sentences"] == 5
    assert len(out.read_text(encoding="utf-8").splitlines()) == 5


def test_console_script_runs_blas_at_one_thread_unless_the_user_set_a_count(tmp_path):
    """The entry imports nothing numeric before it sets each BLAS thread
    variable the user left unset to 1; a preset one is kept."""
    out = tmp_path / "c.jsonl"
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARIABLES}
    env.update(OMP_NUM_THREADS="3",
               PYTHONPATH=os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")])))
    code = ("import json, os, sys\n"
            "from simrec.__main__ import BLAS_THREAD_VARIABLES, main\n"
            "before = ['numpy' in sys.modules, os.environ.get('OPENBLAS_NUM_THREADS')]\n"
            f"code = main(['generate-data', '--out', {str(out)!r}, '--n', '2'])\n"
            "print(json.dumps([before, {v: os.environ.get(v) for v in BLAS_THREAD_VARIABLES}]))\n"
            "sys.exit(code)\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    before, after = json.loads(proc.stdout.splitlines()[-1])
    assert before == [False, None]
    assert after == {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "3", "MKL_NUM_THREADS": "1"}
