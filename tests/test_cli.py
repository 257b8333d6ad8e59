import dataclasses
import json
import os
import re
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from kgdial import cli, detection, selector
from kgdial.cli import build_parser, main
from kgdial.corpus import SynthParams, load_corpus, write_corpus
from kgdial.detection import DetectorHyper, load_detector
from kgdial.embedding import FileVectors
from kgdial.fixtures import HOTEL_QUESTION, hotel_corpus
from kgdial.pipeline import result_to_payload, run_pipeline
from kgdial.selector import (
    SelectorHyper,
    SelectorModel,
    default_kernel_bank,
    load_selector,
    save_selector,
)

from helpers import as_array, count_calls, truncated, with_field, with_kernels, with_literal, without_field


def run_cli_process(argv, **env) -> subprocess.CompletedProcess:
    """Run ``python -m kgdial.cli argv`` in a new process, with ``env`` added to its environment."""
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "kgdial.cli", *argv],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path, **env}, timeout=60,
    )


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """Synthetic corpus plus trained detector/selector model files."""
    root = tmp_path_factory.mktemp("cli")
    corpus_dir = root / "corpus"
    assert main([
        "synth", "--out", str(corpus_dir), "--seed", "5",
        "--dialogs", "30", "--candidates", "4", "--vocab-size", "32",
    ]) == 0
    paths = {
        "knowledge": str(corpus_dir / "knowledge.json"),
        "logs": str(corpus_dir / "logs.json"),
        "labels": str(corpus_dir / "labels.json"),
        "selector": str(root / "selector.json"),
        "detector": str(root / "detector.json"),
        "root": root,
    }
    corpus_flags = [
        "--knowledge", paths["knowledge"], "--logs", paths["logs"], "--labels", paths["labels"],
    ]
    assert main(["train", "select", *corpus_flags, "--model", paths["selector"],
                 "--epochs", "40"]) == 0
    assert main(["train", "detect", *corpus_flags, "--model", paths["detector"],
                 "--epochs", "40"]) == 0
    paths["corpus_flags"] = corpus_flags
    return paths


class TestSynth:
    def test_writes_loadable_corpus(self, workdir):
        corpus = load_corpus(workdir["knowledge"], workdir["logs"], workdir["labels"])
        assert len(corpus.dialogs) == 30
        labels = json.loads(open(workdir["labels"]).read())
        assert len(labels) == 30

    def test_byte_identical_across_runs(self, tmp_path, capsys):
        args = ["synth", "--seed", "9", "--dialogs", "12", "--candidates", "4",
                "--vocab-size", "32"]
        assert main([*args, "--out", str(tmp_path / "a")]) == 0
        assert main([*args, "--out", str(tmp_path / "b")]) == 0
        for name in ("knowledge.json", "logs.json", "labels.json"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


class TestTrain:
    def test_select_prints_epochs_and_final_accuracy(self, workdir, capsys):
        capsys.readouterr()
        model_path = workdir["root"] / "selector_again.json"
        assert main(["train", "select", *workdir["corpus_flags"],
                     "--model", str(model_path), "--epochs", "40"]) == 0
        out = capsys.readouterr().out
        assert "epoch 0 loss 1.386294" in out
        assert "final Acc@1" in out
        model, provider = load_selector(model_path)
        assert model.readout_weights.shape == (11,)
        assert provider.dim == 32

    def test_select_repeat_invocation_identical_model(self, workdir):
        again = workdir["root"] / "selector_again.json"
        assert again.read_bytes() == open(workdir["selector"], "rb").read()

    def test_detect_zero_lr_reports_half_probability(self, workdir, capsys):
        capsys.readouterr()
        model_path = workdir["root"] / "det_lr0.json"
        assert main(["train", "detect", *workdir["corpus_flags"],
                     "--model", str(model_path), "--lr", "0", "--epochs", "3"]) == 0
        out = capsys.readouterr().out
        assert "mean probability 0.5000" in out
        assert np.all(load_detector(model_path).weights == 0.0)

    @pytest.mark.parametrize("kind, loss", [("select", "nan"), ("detect", "inf")])
    def test_diverging_fixed_step_ends_with_one_error_line(self, workdir, tmp_path, capsys, kind, loss):
        capsys.readouterr()
        model = tmp_path / "model.json"
        assert main(["train", kind, *workdir["corpus_flags"], "--model", str(model), "--lr", "1e308"]) == 1
        assert capsys.readouterr() == ("", (
            f"error: training diverged at epoch 1: the loss is {loss}; "
            "lower the learning rate (--lr) or turn on line search (--line-search)\n"
        ))
        assert not model.exists()

    def test_diverging_fixed_step_prints_no_numpy_warning(self, tmp_path):
        assert main(["synth", "--out", str(tmp_path), "--seed", "1", "--dialogs", "20", "--candidates", "4"]) == 0
        files = [f"--{name}={tmp_path / name}.json" for name in ("knowledge", "logs", "labels")]
        proc = run_cli_process(["train", "select", *files, "--model", str(tmp_path / "s.json"), "--lr", "1e308"])
        assert proc.returncode == 1
        assert proc.stderr.count("\n") == 1 and proc.stderr.startswith("error: training diverged at epoch 1: ")

    @pytest.mark.parametrize("kind, message", [
        ("detect", "line search rejected all 60 steps at epoch 1, down to lr / 2**59; lower the learning rate (--lr)"),
        ("select", "readout_weights too large to score candidates: 46.05 * sum |w| overflows (largest |w| 4.92e+306); "
                   "retrain with a lower learning rate (--lr)"),
    ])
    def test_line_search_that_cannot_train_ends_with_one_error_line(self, workdir, tmp_path, capsys, kind, message):
        capsys.readouterr()
        model = tmp_path / "model.json"
        argv = ["train", kind, *workdir["corpus_flags"], "--model", str(model), "--line-search", "--lr", "1e308"]
        assert main(argv) == 1
        assert capsys.readouterr() == ("", f"error: {message}\n")
        assert not model.exists()

    @pytest.mark.parametrize("kind", ["detect", "select"])
    def test_line_search_that_cannot_train_prints_no_numpy_warning(self, tmp_path, kind):
        assert main(["synth", "--out", str(tmp_path), "--seed", "1", "--dialogs", "20", "--candidates", "4"]) == 0
        files = [f"--{name}={tmp_path / name}.json" for name in ("knowledge", "logs", "labels")]
        proc = run_cli_process(["train", kind, *files, "--model", str(tmp_path / "m.json"), "--line-search", "--lr", "1e308"])
        assert proc.returncode == 1
        assert proc.stderr.count("\n") == 1 and proc.stderr.startswith("error: ")

    def test_detect_featurizes_each_dialog_once_to_train_and_once_to_score(
        self, workdir, monkeypatch, tmp_path, capsys
    ):
        corpus = load_corpus(workdir["knowledge"], workdir["logs"], workdir["labels"])
        dialogs = [(detection.serialize_dialog(d), len(d.turns), 4096, 16) for d in corpus.dialogs]
        calls = count_calls(monkeypatch, detection, "featurize")
        assert main(["train", "detect", *workdir["corpus_flags"],
                     "--model", str(tmp_path / "d.json"), "--epochs", "3"]) == 0
        assert len(dialogs) == 30 and calls == dialogs + dialogs
        assert "mean probability" in capsys.readouterr().out

    def test_select_extracts_features_once(self, workdir, monkeypatch, tmp_path, capsys):
        calls = count_calls(monkeypatch, selector, "selection_instances")
        assert main(["train", "select", *workdir["corpus_flags"],
                     "--model", str(tmp_path / "s.json"), "--epochs", "3"]) == 0
        assert len(calls) == 1
        assert "final Acc@1" in capsys.readouterr().out

    def test_detect_identical_across_processes_with_other_hash_seeds(self, workdir, tmp_path):
        """The n-gram hash must not be the salted built-in ``hash``."""
        paths = [tmp_path / "seed1.json", tmp_path / "seed2.json"]
        for seed, path in zip(["1", "2"], paths):
            proc = run_cli_process(["train", "detect", *workdir["corpus_flags"],
                                    "--model", str(path), "--epochs", "40"], PYTHONHASHSEED=seed)
            assert proc.returncode == 0, proc.stderr
        assert paths[0].read_bytes() == paths[1].read_bytes()
        assert paths[0].read_bytes() == Path(workdir["detector"]).read_bytes()

    def test_detect_writes_strong_model(self, workdir, capsys):
        capsys.readouterr()
        model = load_detector(workdir["detector"])
        assert model.hash_dim == 4096
        assert model.turn_buckets == 16

    def test_single_class_error_surfaces(self, workdir, tmp_path, capsys):
        assert main(["synth", "--out", str(tmp_path), "--seed", "3", "--dialogs", "8",
                     "--candidates", "4", "--vocab-size", "32", "--marker-rate", "0"]) == 0
        capsys.readouterr()
        rc = main(["train", "detect",
                   "--knowledge", str(tmp_path / "knowledge.json"),
                   "--logs", str(tmp_path / "logs.json"),
                   "--labels", str(tmp_path / "labels.json"),
                   "--model", str(tmp_path / "d.json")])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("error: ")
        assert "both target and non-target" in err


class TestEval:
    def test_markdown_report_with_tfidf_row(self, workdir, capsys):
        capsys.readouterr()
        assert main(["eval", *workdir["corpus_flags"], "--model", workdir["selector"],
                     "--detector", workdir["detector"], "--tfidf", "--format", "md"]) == 0
        out = capsys.readouterr().out
        assert "| Model | Recall | Precision | F1 |" in out
        assert "| Model | Acc@5 | Acc@1 | MRR@5 |" in out
        assert "| gks |" in out
        assert "| tfidf |" in out

    def test_json_report_parses(self, workdir, capsys):
        capsys.readouterr()
        assert main(["eval", *workdir["corpus_flags"], "--model", workdir["selector"],
                     "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload[0]["model"] == "gks"
        assert payload[0]["selection"]["n_instances"] > 0

    def test_byte_identical_across_runs(self, workdir, capsys):
        args = ["eval", *workdir["corpus_flags"], "--model", workdir["selector"],
                "--tfidf", "--format", "json"]
        capsys.readouterr()
        assert main(args) == 0
        first = capsys.readouterr().out
        assert main(args) == 0
        assert capsys.readouterr().out == first

    def test_stamp_opt_in(self, workdir, capsys):
        base = ["eval", *workdir["corpus_flags"], "--model", workdir["selector"],
                "--format", "md"]
        capsys.readouterr()
        assert main([*base, "--stamp", "run-7"]) == 0
        assert capsys.readouterr().out.startswith("<!-- run-7 -->")

    def test_nothing_to_evaluate_errors(self, workdir, capsys):
        capsys.readouterr()
        assert main(["eval", *workdir["corpus_flags"]]) == 1
        assert capsys.readouterr().err.startswith("error: nothing to evaluate")


@pytest.fixture(scope="module")
def hotel_files(tmp_path_factory, provider7):
    root = tmp_path_factory.mktemp("hotel")
    corpus = hotel_corpus()
    paths = (root / "knowledge.json", root / "logs.json", root / "labels.json")
    write_corpus(corpus, *paths)
    weights = np.zeros(11)
    weights[-1] = 1.0
    model_path = root / "exact.json"
    save_selector(SelectorModel(default_kernel_bank(11), weights), provider7, model_path)
    return {"knowledge": str(paths[0]), "model": str(model_path)}


class TestRank:
    def test_duplicate_title_ranks_first(self, hotel_files, capsys):
        capsys.readouterr()
        assert main(["rank", "--knowledge", hotel_files["knowledge"],
                     "--model", hotel_files["model"], "--question", HOTEL_QUESTION,
                     "--entity", "hotel/1"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 8
        assert lines[0].startswith("1. hotel/1/0 ")
        assert lines[0].endswith("Does the hotel offer accessible parking?")

    def test_top_limits_output(self, hotel_files, capsys):
        capsys.readouterr()
        assert main(["rank", "--knowledge", hotel_files["knowledge"],
                     "--model", hotel_files["model"], "--question", HOTEL_QUESTION,
                     "--entity", "hotel/1", "--top", "1"]) == 0
        assert len(capsys.readouterr().out.strip().splitlines()) == 1

    @pytest.mark.parametrize("top", ["0", "-1"])
    def test_top_below_one_is_an_argument_error(self, hotel_files, capsys, top):
        capsys.readouterr()
        with pytest.raises(SystemExit) as exit_info:
            main(["rank", "--knowledge", hotel_files["knowledge"],
                  "--model", hotel_files["model"], "--question", HOTEL_QUESTION,
                  "--entity", "hotel/1", "--top", top])
        assert exit_info.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--top: must be >= 1" in captured.err

    def test_probabilities_sum_to_one_at_display_precision(self, hotel_files, capsys):
        capsys.readouterr()
        assert main(["rank", "--knowledge", hotel_files["knowledge"],
                     "--model", hotel_files["model"], "--question", "is there parking",
                     "--entity", "hotel/1"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        total = sum(float(line.split()[2]) for line in lines)
        assert abs(total - 1.0) < 5e-4

    def test_unknown_entity_errors(self, hotel_files, capsys):
        capsys.readouterr()
        assert main(["rank", "--knowledge", hotel_files["knowledge"],
                     "--model", hotel_files["model"], "--question", "q",
                     "--entity", "hotel/404"]) == 1
        assert capsys.readouterr().err.startswith("error: unknown entity")

    def test_bad_entity_format_exits_nonzero(self, hotel_files, capsys):
        with pytest.raises(SystemExit):
            main(["rank", "--knowledge", hotel_files["knowledge"],
                  "--model", hotel_files["model"], "--question", "q", "--entity", "hotel"])


class TestPipelineCommand:
    def target_dialog(self, workdir):
        labels = json.loads(open(workdir["labels"]).read())
        index = next(i for i, label in enumerate(labels) if label["target"])
        return f"d{index:04d}", f"synth/e{index:04d}"

    def chitchat_dialog(self, workdir):
        labels = json.loads(open(workdir["labels"]).read())
        index = next(i for i, label in enumerate(labels) if not label["target"])
        return f"d{index:04d}", f"synth/e{index:04d}"

    def test_triggered_dialog_emits_generation_input(self, workdir, capsys):
        dialog_id, entity = self.target_dialog(workdir)
        capsys.readouterr()
        assert main(["pipeline", *workdir["corpus_flags"],
                     "--detector", workdir["detector"], "--model", workdir["selector"],
                     "--dialog", dialog_id, "--entity", entity]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["triggered"] is True
        assert payload["generation_input"].startswith("<BOS>")
        assert payload["generation_input"].endswith("<EOS>")

    def test_untriggered_dialog_omits_selection(self, workdir, capsys):
        dialog_id, entity = self.chitchat_dialog(workdir)
        capsys.readouterr()
        assert main(["pipeline", *workdir["corpus_flags"],
                     "--detector", workdir["detector"], "--model", workdir["selector"],
                     "--dialog", dialog_id, "--entity", entity]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["triggered"] is False
        assert payload["selection"] is None

    def test_matches_in_process_run(self, workdir, capsys):
        dialog_id, entity = self.target_dialog(workdir)
        capsys.readouterr()
        assert main(["pipeline", *workdir["corpus_flags"],
                     "--detector", workdir["detector"], "--model", workdir["selector"],
                     "--dialog", dialog_id, "--entity", entity]) == 0
        cli_payload = json.loads(capsys.readouterr().out)

        corpus = load_corpus(workdir["knowledge"], workdir["logs"], workdir["labels"])
        detector = load_detector(workdir["detector"])
        selector_model, provider = load_selector(workdir["selector"])
        dialog = next(d for d in corpus.dialogs if d.id == dialog_id)
        domain, entity_id = entity.split("/")
        result = run_pipeline(detector, selector_model, provider, corpus, dialog,
                              (domain, entity_id))
        assert cli_payload == json.loads(json.dumps(result_to_payload(result)))

    def test_a_system_first_dialog_is_formatted(self, workdir, tmp_path, capsys):
        # The loader takes a dialog whose first turn is the system's; the pipeline tags each turn by its speaker.
        dialog_id, entity = self.target_dialog(workdir)
        logs = json.loads(Path(workdir["logs"]).read_text())
        index = int(dialog_id[1:])
        logs[index].insert(0, {"speaker": "S", "text": "welcome back"})
        logs_path = tmp_path / "logs.json"
        logs_path.write_text(json.dumps(logs))
        capsys.readouterr()
        assert main(["pipeline", "--knowledge", workdir["knowledge"], "--logs", str(logs_path),
                     "--labels", workdir["labels"], "--detector", workdir["detector"], "--model", workdir["selector"],
                     "--dialog", dialog_id, "--entity", entity]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["triggered"] is True
        snippet_text, history = payload["generation_input"].split("<sp2>", 1)
        assert "<sp1>" not in snippet_text and history.startswith("welcome back<sp1>")

    def test_unknown_dialog_errors(self, workdir, capsys):
        capsys.readouterr()
        assert main(["pipeline", *workdir["corpus_flags"],
                     "--detector", workdir["detector"], "--model", workdir["selector"],
                     "--dialog", "d9999", "--entity", "synth/e0000"]) == 1
        assert capsys.readouterr().err.startswith("error: unknown dialog id")


class TestErrorHandling:
    def test_warning_raised_as_error_reports_single_line_error(self, tmp_path, capsys):
        # Scores of this corpus under these vectors tie with a golden score, which evaluation warns of.
        assert main(["synth", "--out", str(tmp_path), "--seed", "8001", "--dialogs", "100", "--candidates", "8"]) == 0
        vectors = tmp_path / "vectors.txt"
        vectors.write_text("".join(f"w{j:02d} {1 + j % 5} {j % 7 - 3} {j % 3 - 1}\n" for j in range(0, 64, 2)))
        files = [f"--{name}={tmp_path / name}.json" for name in ("knowledge", "logs", "labels")]
        model = tmp_path / "s.json"
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["train", "select", *files, "--model", str(model), "--vectors", str(vectors)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: selector evaluation: ") and "tied with a golden score" in err
        assert err.count("\n") == 1
        assert not model.exists()

    def test_missing_file_reports_single_line_error(self, capsys):
        assert main(["eval", "--knowledge", "/nonexistent/k.json",
                     "--logs", "/nonexistent/l.json", "--labels", "/nonexistent/lb.json",
                     "--model", "/nonexistent/m.json"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert len(err.strip().splitlines()) == 1

    def test_non_array_label_knowledge_reports_single_line_error(self, workdir, tmp_path, capsys):
        labels = json.loads(open(workdir["labels"]).read())
        index = next(i for i, label in enumerate(labels) if label["target"])
        labels[index]["knowledge"] = {"a": 1}
        path = tmp_path / "labels.json"
        path.write_text(json.dumps(labels))
        capsys.readouterr()
        assert main(["train", "detect", "--knowledge", workdir["knowledge"], "--logs", workdir["logs"],
                     "--labels", str(path), "--model", str(tmp_path / "d.json")]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: {path}: dialog d{index:04d}: 'knowledge' must be an array\n"

    def test_non_string_golden_reference_reports_single_line_error(self, workdir, tmp_path, capsys):
        labels = json.loads(open(workdir["labels"]).read())
        index = next(i for i, label in enumerate(labels) if label["target"])
        labels[index]["knowledge"][0]["entity_id"] = 1
        path = tmp_path / "labels.json"
        path.write_text(json.dumps(labels))
        capsys.readouterr()
        assert main(["train", "select", "--knowledge", workdir["knowledge"], "--logs", workdir["logs"],
                     "--labels", str(path), "--model", str(tmp_path / "m.json")]) == 1
        assert capsys.readouterr() == ("", f"error: {path}: dialog d{index:04d}: knowledge entry 'entity_id' must be a string\n")

    @pytest.mark.parametrize("kind, edit", [
        pytest.param("selector", with_field("attention_flag", "false"), id="selector-string-flag"),
        pytest.param("selector", as_array, id="selector-array"),
        pytest.param("selector", with_field("provider", "x"), id="selector-provider"),
        pytest.param("selector", truncated, id="selector-truncated"),
        pytest.param("selector", with_field("provider", {"kind": "hashed-gaussian", "seed": 2**64, "dim": 32}),
                     id="selector-65-bit-seed"),
        pytest.param("selector", with_field("provider", {"kind": "hashed-gaussian", "seed": 7, "dim": 4097}),
                     id="selector-dim-past-cap"),
        pytest.param("selector", with_kernels(selector.MAX_KERNELS + 1), id="selector-kernels-past-cap"),
        pytest.param("selector", with_field("readout_weights", [1e306] * 11), id="selector-unscorable"),
        pytest.param("detector", as_array, id="detector-array"),
        pytest.param("detector", with_field("turn_buckets", detection.MAX_TURN_BUCKETS + 1),
                     id="detector-turn-buckets-past-cap"),
        pytest.param("detector", with_field("hash_dim", None), id="detector-null"),
        pytest.param("detector", with_field("hash_dim", 4096.7), id="detector-fraction"),
        pytest.param("detector", truncated, id="detector-truncated"),
    ])
    def test_malformed_model_file_names_its_path(self, workdir, tmp_path, capsys, kind, edit):
        path = tmp_path / f"{kind}.json"
        path.write_text(edit(Path(workdir[kind]).read_text()))
        if kind == "selector":
            argv = ["rank", "--knowledge", workdir["knowledge"], "--model", str(path),
                    "--question", "w01 w02?", "--entity", "synth/e0000"]
        else:
            argv = ["eval", *workdir["corpus_flags"], "--detector", str(path)]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: ")
        assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("kind, key", [
        ("logs", "speaker"), ("labels", "target"), ("selector", "attention_flag"), ("detector", "threshold"),
    ])
    def test_repeated_key_names_its_path(self, workdir, tmp_path, capsys, kind, key):
        path = tmp_path / f"{kind}.json"
        # The repeat comes first, so the file's own value would win if repeats were allowed.
        path.write_text(Path(workdir[kind]).read_text().replace("{", f'{{"{key}": null, ', 1))
        files = {**workdir, kind: str(path)}
        assert main(["pipeline", "--knowledge", files["knowledge"], "--logs", files["logs"],
                     "--labels", files["labels"], "--detector", files["detector"], "--model", files["selector"],
                     "--dialog", "d0000", "--entity", "synth/e0000"]) == 1
        assert capsys.readouterr() == ("", f"error: {path}: duplicate key {key!r}\n")

    @pytest.mark.parametrize("kind", ["logs", "labels", "selector", "detector"])
    def test_deeply_nested_json_names_its_path(self, workdir, tmp_path, capsys, kind):
        path = tmp_path / f"{kind}.json"
        path.write_text("[" * 100000 + "]" * 100000)
        files = {**workdir, kind: str(path)}
        assert main(["pipeline", "--knowledge", files["knowledge"], "--logs", files["logs"],
                     "--labels", files["labels"], "--detector", files["detector"], "--model", files["selector"],
                     "--dialog", "d0000", "--entity", "synth/e0000"]) == 1
        assert capsys.readouterr() == ("", f"error: {path}: JSON nested too deeply to parse\n")

    @pytest.mark.parametrize("kind", ["labels", "selector", "vectors"])
    def test_non_utf8_file_names_its_path(self, workdir, tmp_path, capsys, kind):
        path = tmp_path / f"{kind}.txt"
        if kind == "vectors":
            path.write_bytes(b"w00 1 0\nw01 0 1\nw\xff02 1 1\n")
            argv = ["train", "select", *workdir["corpus_flags"], "--model", str(tmp_path / "s.json"),
                    "--vectors", str(path)]
            message = f"{path}:3: not UTF-8"
        else:
            path.write_bytes(b"\xff" + Path(workdir[kind]).read_bytes())
            files = {**workdir, kind: str(path)}
            argv = ["eval", "--knowledge", files["knowledge"], "--logs", files["logs"], "--labels", files["labels"],
                    "--model", files["selector"]]
            message = f"{path}: not UTF-8: invalid start byte at byte 0"
        capsys.readouterr()
        assert main(argv) == 1
        assert capsys.readouterr() == ("", f"error: {message}\n")

    def test_missing_vectors_file_names_the_selector_and_the_vectors(self, workdir, tmp_path, capsys):
        vectors = tmp_path / "vectors.txt"
        vectors.write_text("w01 1 0\nw02 0 1\n")
        path = tmp_path / "selector.json"
        save_selector(SelectorModel(default_kernel_bank(11), np.zeros(11)), FileVectors(vectors), path)
        vectors.unlink()
        capsys.readouterr()
        assert main(["rank", "--knowledge", workdir["knowledge"], "--model", str(path),
                     "--question", "w01 w02?", "--entity", "synth/e0000"]) == 1
        assert capsys.readouterr() == ("", f"error: {path}: {vectors}: No such file or directory\n")

    def test_infinite_kernel_width_is_rejected_at_load(self, workdir, tmp_path, capsys):
        path = tmp_path / "selector.json"
        path.write_text(with_literal("sigmas", 0, "1e400")(Path(workdir["selector"]).read_text()))
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: sigmas must be positive and finite"):
            load_selector(path)
        assert main(["rank", "--knowledge", workdir["knowledge"], "--model", str(path),
                     "--question", "w01 w02?", "--entity", "synth/e0000"]) == 1
        assert capsys.readouterr() == ("", f"error: {path}: sigmas must be positive and finite\n")

    @pytest.mark.parametrize("entry", ["0.1", True])
    def test_detector_weights_must_be_numbers(self, workdir, tmp_path, capsys, entry):
        path = tmp_path / "detector.json"
        payload = json.loads(Path(workdir["detector"]).read_text())
        path.write_text(json.dumps({**payload, "weights": [entry] * len(payload["weights"])}))
        capsys.readouterr()
        assert main(["eval", *workdir["corpus_flags"], "--detector", str(path)]) == 1
        assert capsys.readouterr() == ("", f"error: {path}: 'weights' must be an array of numbers\n")

    @pytest.mark.parametrize("command", ["eval", "pipeline"])
    @pytest.mark.parametrize("edit, message", [
        pytest.param(without_field("ngram_hash"), "no 'ngram_hash' field", id="unrecorded"),
        pytest.param(with_field("ngram_hash", "blake2b"), "'ngram_hash' is 'blake2b'", id="blake2b"),
    ])
    def test_detector_with_another_hash_must_be_retrained(self, workdir, tmp_path, capsys,
                                                          command, edit, message):
        path = tmp_path / "detector.json"
        path.write_text(edit(Path(workdir["detector"]).read_text()))
        argv = [command, *workdir["corpus_flags"], "--detector", str(path)]
        if command == "pipeline":
            argv += ["--model", workdir["selector"], "--dialog", "d0000", "--entity", "synth/e0000"]
        capsys.readouterr()
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: {message}")
        assert err.endswith(": retrain the detector\n")
        assert len(err.strip().splitlines()) == 1


def missing_corpus_flags(tmp_path) -> list[str]:
    missing = str(tmp_path / "missing.json")
    return ["--knowledge", missing, "--logs", missing, "--labels", missing]


class TestHyperparameterChecks:
    """Bad hyperparameters fail before any input file is read and write no model."""

    @pytest.mark.parametrize("argv, message", [
        (["detect", "--epochs", "-5", "--lr", "-3"], "epochs must be >= 0, got -5"),
        (["detect", "--lr", "-3"], "lr must be finite and >= 0, got -3.0"),
        (["detect", "--hash-dim", "8"], "hash_dim must be >= 16, got 8"),
        (["detect", "--turn-buckets", "0"], "turn_buckets must be >= 1, got 0"),
        (["detect", "--threshold", "1.5"], "threshold must lie in (0, 1), got 1.5"),
        (["detect", "--threshold", "0"], "threshold must lie in (0, 1), got 0.0"),
        (["select", "--epochs", "-1"], "epochs must be >= 0, got -1"),
        (["select", "--lr", "nan", "--epochs", "3"], "lr must be finite and >= 0, got nan"),
        (["select", "--kernels", "1"], "n_kernels must be >= 2, got 1"),
        (["select", "--embed-seed", "9223372036854775808"],
         "seed must lie in [-2**63, 2**63), got 9223372036854775808"),
        (["select", "--embed-dim", "1"], "dim must be >= 2, got 1"),
    ])
    def test_rejected_before_reading_input(self, tmp_path, capsys, argv, message):
        model = tmp_path / "model.json"
        rc = main(["train", *argv, *missing_corpus_flags(tmp_path), "--model", str(model)])
        assert rc == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not model.exists()

    @pytest.mark.parametrize("argv, message", [
        (["synth", "--dialogs", "100001"], "n_dialogs must be <= 100000, got 100001"),
        (["synth", "--candidates", "1001", "--vocab-size", "5000"], "n_candidates must be <= 1000, got 1001"),
        (["synth", "--vocab-size", "100001"], "vocab_size must be <= 100000, got 100001"),
        (["synth", "--dialogs", "1001", "--candidates", "1000", "--vocab-size", "4000"],
         "n_dialogs * n_candidates must be <= 1000000, got 1001000"),
        (["train", "detect", "--hash-dim", "1048577"], "hash_dim must be <= 1048576, got 1048577"),
        (["train", "select", "--embed-dim", "4097"], "dim must be <= 4096, got 4097"),
        (["train", "detect", "--turn-buckets", "1025"], "turn_buckets must be <= 1024, got 1025"),
        (["train", "select", "--kernels", "65"], "n_kernels must be <= 64, got 65"),
        (["train", "detect", "--epochs", str(10**12)], "epochs must be <= 1000000, got 1000000000000"),
        (["train", "select", "--epochs", str(10**12)], "epochs must be <= 1000000, got 1000000000000"),
    ])
    def test_size_past_its_cap_is_rejected_without_allocating(self, tmp_path, capsys, monkeypatch, argv, message):
        for consumer in ("synth_corpus", "load_corpus", "write_corpus"):
            monkeypatch.setattr(cli, consumer, lambda *args: pytest.fail(f"{consumer} reached"))
        out, model = tmp_path / "out", tmp_path / "model.json"
        if argv[0] == "synth":
            argv = [*argv, "--out", str(out)]
        else:
            argv = [*argv, *missing_corpus_flags(tmp_path), "--model", str(model)]
        tracemalloc.start()
        try:
            rc = main(argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rc == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert peak < 2**20
        assert not out.exists() and not model.exists()

    def test_bad_vectors_file_rejected_before_reading_input(self, tmp_path, capsys):
        vectors = tmp_path / "vectors.txt"
        vectors.write_text("cat 1.0\n")
        model = tmp_path / "model.json"
        rc = main(["train", "select", "--vectors", str(vectors), *missing_corpus_flags(tmp_path),
                   "--model", str(model)])
        assert rc == 1
        assert capsys.readouterr().err == f"error: {vectors}:1: expected 'token v_1 ... v_d' with d >= 2\n"
        assert not model.exists()

    @pytest.mark.parametrize("flags", [
        ["--embed-seed", "7"],
        ["--embed-dim", "32"],
        ["--embed-dim", "1", "--embed-seed", "-99999999999999999999999"],
    ])
    def test_embedding_flags_with_vectors_rejected_before_reading_input(self, tmp_path, capsys, monkeypatch, flags):
        monkeypatch.setattr(cli, "FileVectors", lambda path: pytest.fail("vectors file read"))
        model = tmp_path / "model.json"
        rc = main(["train", "select", "--vectors", str(tmp_path / "vectors.txt"), *flags,
                   *missing_corpus_flags(tmp_path), "--model", str(model)])
        assert rc == 1
        assert capsys.readouterr() == (
            "", "error: --embed-seed and --embed-dim apply to hashed embeddings, not to --vectors\n"
        )
        assert not model.exists()

    def test_process_exits_with_status_1(self, tmp_path):
        model = tmp_path / "model.json"
        proc = run_cli_process(["train", "detect", "--epochs", "-5",
                                *missing_corpus_flags(tmp_path), "--model", str(model)])
        assert proc.returncode == 1
        assert proc.stderr == "error: epochs must be >= 0, got -5\n"
        assert not model.exists()


TRAIN_FLAGS = ["--knowledge", "k", "--logs", "l", "--labels", "b", "--model", "m"]


class TestParserDefaults:
    @pytest.mark.parametrize("argv, hyper", [
        (["synth", "--out", "out"], SynthParams),
        (["train", "detect", *TRAIN_FLAGS], DetectorHyper),
        (["train", "select", *TRAIN_FLAGS], SelectorHyper),
    ])
    def test_every_hyperparameter_defaults_to_its_field(self, argv, hyper):
        args = build_parser().parse_args(argv)
        for field in dataclasses.fields(hyper):
            value = getattr(args, field.name)
            assert (value, type(value)) == (field.default, type(field.default)), field.name

    @pytest.mark.parametrize("argv, consumer, expected", [
        (["synth", "--out", "out", "--dialogs", "3", "--candidates", "3", "--vocab-size", "20",
          "--marker-rate", "0.25"], "synth_corpus",
         SynthParams(n_dialogs=3, n_candidates=3, vocab_size=20, detect_marker_rate=0.25)),
        (["train", "detect", *TRAIN_FLAGS, "--hash-dim", "64", "--turn-buckets", "4", "--lr", "0.3",
          "--epochs", "7", "--threshold", "0.25", "--line-search"], "train_detector",
         DetectorHyper(hash_dim=64, turn_buckets=4, lr=0.3, epochs=7, threshold=0.25, line_search=True)),
        (["train", "select", *TRAIN_FLAGS, "--lr", "0.3", "--epochs", "7", "--kernels", "5",
          "--attention", "--line-search"], "_fit",
         SelectorHyper(lr=0.3, epochs=7, attention_flag=True, n_kernels=5, line_search=True)),
    ])
    def test_every_field_is_read_from_its_flag(self, monkeypatch, capsys, argv, consumer, expected):
        assert all(getattr(expected, f.name) != f.default for f in dataclasses.fields(expected))
        built = []

        def capture(*args):
            built.append(args[-1])  # each consumer takes the built object last
            raise ValueError("captured")

        monkeypatch.setattr(cli, consumer, capture)
        monkeypatch.setattr(cli, "load_corpus", lambda *paths: None)
        monkeypatch.setattr(cli, "selection_instances", lambda *args: [])
        assert main(argv) == 1
        assert capsys.readouterr().err == "error: captured\n"
        assert built == [expected]
