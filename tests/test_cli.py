"""The CLI end to end at 2,000 slots, run in-process through ``cli.main``."""
import argparse
import dataclasses
import hashlib
import importlib.util
import json
import math
import os
import subprocess
import sys
import urllib.error
import urllib.request
from pathlib import Path

import numpy as np
import pytest

from collate import benchmark, cli, collab, data as data_mod, llm
from collate.core import LossVariant


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory):
    """gen-data, then every pipeline command, each expected to exit 0."""
    root = tmp_path_factory.mktemp("cli")
    cfg = root / "cfg.json"
    cfg.write_text(json.dumps({"epochs_tsadm": 2, "epochs_collab": 3, "window_len": 200}))
    data = root / "D"
    csv = str(data / "data.csv")
    steps = [
        ("D", "gen-data", "--length", "2000", "--contextual", "4", "--point", "4"),
        ("tsadm", "train-tsadm", "--data", csv),
        ("llm", "score-llm", "--data", csv),
        ("collab", "train-collab", "--data", csv, "--tsadm", str(root / "tsadm" / "tsadm.json"),
         "--llm-scores", str(root / "llm" / "llm_scores.jsonl")),
        ("detect", "detect", "--data", csv, "--pipeline", str(root / "collab" / "pipeline.json"),
         "--llm-scores", str(root / "llm" / "llm_scores.jsonl")),
        ("eval", "eval", "--data", csv, "--collated", str(root / "detect" / "collated.csv"),
         "--metadata", str(data / "metadata.json")),
    ]
    for out, *args in steps:
        assert cli.main(["--config", str(cfg), "--out", str(root / out), *args]) == 0, args[0]
    return root


class TestPipeline:
    def test_every_stage_writes_its_artifacts(self, run_dir):
        for rel in ("D/data.csv", "D/llm_fixture.jsonl", "tsadm/tsadm.json",
                    "llm/llm_scores.jsonl", "collab/pipeline.json", "collab/loss_curves.csv",
                    "detect/collated.csv", "eval/metrics.json", "eval/manifest.json"):
            assert (run_dir / rel).is_file(), rel
        metrics = json.loads((run_dir / "eval" / "metrics.json").read_text())
        assert 0.0 <= metrics["f1"] <= 1.0
        assert len(json.loads((run_dir / "collab" / "metrics.json").read_text())[
            "config_echo"]) > 0

    PINNED = {
        "tsadm/tsadm.json": "109bd76bc67028cc05c9503cb94e108c7d597670f4dc5fb9dc29cb19f1316d2c",
        "llm/llm_scores.jsonl": "58aa9b53386655f95a82b1349f0054bf40c4e0aed5ea39c41ec1dac32bebf28f",
        "collab/pipeline.json": "fedd0632c210716602ae598996d1d853c21e44229c9f0de8d2df2e06db3cd9a8",
        "collab/loss_curves.csv":
            "35d9091189a8c7c672672bee69a9f68ffddea659f3cff34a62ffcb2e8f49703a",
        "collab/kl_curve.csv": "b93797020ec8d6a22acd57c2b7ee5aa8a9ff1c358b053f23835de25059f84a95",
        "collab/metrics.json": "57e71581831c1227468cb379e90a6afb0eda5d1fcc25f7c967748c4ad12e758c",
        "detect/collated.csv": "aa01ecd5618a715279d915f73469dbcb6f980dfdee9698d977bf2099d9a8523a",
        "eval/metrics.json": "cf08c4b7afe6614c2dd88ecb95d216cc0686310f0f592433b986cc4580463e85",
        "eval/overlay.svg": "ea057236d8485597b8d192051e895cb3484273e9f6d23f219d64543cebc3c143",
    }

    def test_outputs_are_pinned(self, run_dir):
        """Every artifact of the 2,000-slot pipeline after gen-data (which
        ``test_data.py`` pins) keeps its bytes. The digests hold for the
        numpy and BLAS build they were taken with, as ``TestVerify``'s exact
        floats do: another build may round a training step differently."""
        digests = {rel: hashlib.sha256((run_dir / rel).read_bytes()).hexdigest()
                   for rel in self.PINNED}
        assert digests == self.PINNED

    def test_eval_manifest_lists_every_file_it_read(self, run_dir, tmp_path):
        data = run_dir / "D"
        read = [data / "data.csv", run_dir / "detect" / "collated.csv"]
        manifest = json.loads((run_dir / "eval" / "manifest.json").read_text())
        assert manifest["inputs"] == {
            str(p): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted([*read, data / "metadata.json"])
        }
        # without --metadata only the dataset and the collated scores are listed
        assert cli.main(["--config", str(run_dir / "cfg.json"), "--out", str(tmp_path), "eval",
                         "--data", str(read[0]), "--collated", str(read[1])]) == 0
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert sorted(manifest["inputs"]) == sorted(str(p) for p in read)

    def test_score_llm_finds_the_fixture_from_any_directory(
        self, run_dir, tmp_path, monkeypatch
    ):
        # the run_dir fixture scored from the test's working directory; score
        # again from inside the dataset's directory and compare
        monkeypatch.chdir(run_dir / "D")
        out = tmp_path / "inside"
        assert cli.main(["--out", str(out), "--config", str(run_dir / "cfg.json"),
                         "score-llm", "--data", "data.csv"]) == 0
        inside = (out / "llm_scores.jsonl").read_bytes()
        assert inside == (run_dir / "llm" / "llm_scores.jsonl").read_bytes()

        elsewhere = tmp_path / "elsewhere"
        elsewhere.mkdir()
        monkeypatch.chdir(elsewhere)
        assert cli.main(["--out", "out", "--config", str(run_dir / "cfg.json"),
                         "score-llm", "--data", str(run_dir / "D" / "data.csv")]) == 0
        assert (elsewhere / "out" / "llm_scores.jsonl").read_bytes() == inside

    def test_run_passes_the_benchmarks_output_checks(self, run_dir, tmp_path):
        # perfbench/checks.py, imported by path and left as the benchmark runs it
        path = Path(__file__).parents[1] / "perfbench" / "checks.py"
        spec = importlib.util.spec_from_file_location("perfbench_checks", path)
        checks = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(checks)
        data = run_dir / "D"
        checks.check_gen_data(data, 4, 4)
        checks.check_score_llm(data, run_dir / "llm")
        checks.check_train_tsadm(data, run_dir / "tsadm")
        checks.check_train_collab(run_dir / "collab")
        checks.check_detect(run_dir / "detect", 2000)
        checks.check_eval(data, run_dir / "detect", run_dir / "eval")
        checks.check_brute_force(0)
        # ablate and verify build their inputs from the seed; verify exits 1
        # while theorem2 fails, which the benchmark accepts too
        assert cli.main(["--out", str(tmp_path / "ablate"), "ablate"]) == 0
        checks.check_ablate(tmp_path / "ablate")
        assert cli.main(["--out", str(tmp_path / "verify"), "verify"]) in (0, 1)
        checks.check_verify(tmp_path / "verify")

    def test_train_collab_manifest_counts_steps_and_times_training(self, run_dir):
        manifest = json.loads((run_dir / "collab" / "manifest.json").read_text())
        series = data_mod.load_csv(run_dir / "D" / "data.csv")
        train = data_mod.split_windows(series, 200)["train"]
        # 100-slot blocks; a 1-slot tail block is skipped
        blocks = sum(-(-w.length // 100) - (w.length % 100 == 1) for w in train)
        counters = manifest["counters"]
        assert counters["epochs"] == 3 and counters["blocks"] == blocks
        assert counters["steps"] == counters["epochs"] * counters["blocks"]
        assert 0.0 < manifest["timings"]["train_s"] < 60.0

    def test_train_tsadm_manifest_counts_steps_and_times_training(self, run_dir):
        manifest = json.loads((run_dir / "tsadm" / "manifest.json").read_text())
        series = data_mod.load_csv(run_dir / "D" / "data.csv")
        windows = data_mod.split(series)[0].length // cli.RunConfig().winLen
        batches = -(-windows // cli.RunConfig().batchSize)
        assert manifest["counters"] == {"epochs": 2, "batches": batches, "steps": 2 * batches}
        assert 0.0 < manifest["timings"]["train_s"] < 60.0

    def test_gen_data_and_eval_manifests_count_and_time_each_phase(self, run_dir):
        for stage, phases in (("D", ["build_s", "write_s"]),
                              ("eval", ["read_s", "score_s", "write_s"])):
            manifest = json.loads((run_dir / stage / "manifest.json").read_text())
            # 4 contextual and 4 point anomalies, one span each
            assert manifest["counters"] == {"slots": 2000, "spans": 8}, stage
            assert sorted(manifest["timings"]) == phases, stage
            assert all(0.0 <= s < 60.0 for s in manifest["timings"].values()), stage

    @pytest.mark.parametrize("stage", ["llm", "detect"])
    def test_scoring_manifest_counts_windows_and_times_each_phase(self, run_dir, stage):
        manifest = json.loads((run_dir / stage / "manifest.json").read_text())
        windows = data_mod.split_windows(data_mod.load_csv(run_dir / "D" / "data.csv"), 200)
        assert manifest["counters"] == {
            "windows": sum(len(part) for part in windows.values()), "slots": 2000}
        assert sorted(manifest["timings"]) == ["score_s", "write_s"]
        assert all(0.0 <= s < 60.0 for s in manifest["timings"].values())

    def test_rerun_is_byte_identical(self, run_dir, tmp_path):
        """train-tsadm, train-collab and detect twice on the same inputs give
        the same bytes, training curves included; BLAS threads are left as the
        host sets them."""
        csv = str(run_dir / "D" / "data.csv")
        scores = str(run_dir / "llm" / "llm_scores.jsonl")
        for run in ("a", "b"):
            root = tmp_path / run
            steps = [
                ("tsadm", "train-tsadm", "--data", csv),
                ("collab", "train-collab", "--data", csv,
                 "--tsadm", str(root / "tsadm" / "tsadm.json"), "--llm-scores", scores),
                ("detect", "detect", "--data", csv,
                 "--pipeline", str(root / "collab" / "pipeline.json"), "--llm-scores", scores),
            ]
            for out, *args in steps:
                assert cli.main(["--config", str(run_dir / "cfg.json"),
                                 "--out", str(root / out), *args]) == 0, args[0]
        for rel in ("tsadm/tsadm.json", "collab/pipeline.json", "collab/loss_curves.csv",
                    "collab/kl_curve.csv", "detect/collated.csv"):
            assert (tmp_path / "a" / rel).read_bytes() == (tmp_path / "b" / rel).read_bytes(), rel


    @pytest.mark.parametrize("length", [10_010, 10_003])
    def test_parts_ending_in_a_window_shorter_than_winlen(self, tmp_path, length):
        """At 10,010 slots the train part's last window has 4 slots, at
        10,003 one: fewer than winLen, and at 10,003 fewer than patchSize."""
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"epochs_tsadm": 1, "epochs_collab": 1}))
        csv = str(tmp_path / "D" / "data.csv")
        scores = str(tmp_path / "llm" / "llm_scores.jsonl")
        steps = [
            ("D", "gen-data", "--length", str(length)),
            ("tsadm", "train-tsadm", "--data", csv),
            ("llm", "score-llm", "--data", csv),
            ("collab", "train-collab", "--data", csv,
             "--tsadm", str(tmp_path / "tsadm" / "tsadm.json"), "--llm-scores", scores),
            ("detect", "detect", "--data", csv,
             "--pipeline", str(tmp_path / "collab" / "pipeline.json"), "--llm-scores", scores),
            ("eval", "eval", "--data", csv,
             "--collated", str(tmp_path / "detect" / "collated.csv")),
        ]
        for out, *args in steps:
            code = cli.main(["--config", str(cfg), "--out", str(tmp_path / out), *args])
            assert code == 0, args[0]
        rows = (tmp_path / "detect" / "collated.csv").read_text().splitlines()[1:]
        assert [int(r.split(",")[0]) for r in rows] == list(range(length))

    def test_two_channel_series_runs_every_command(self, tmp_path):
        """A series of two channels, with an LLM fixture of its own, through
        train-tsadm to eval; the fusion net's input widens with the
        detector's representation, which holds embed features a channel."""
        rng = np.random.default_rng(0)
        length = 3000
        labels = np.zeros(length, dtype=np.int64)
        labels[rng.choice(length, 30, replace=False)] = 1
        values = np.column_stack([np.sin(np.arange(length) / 10.0), rng.normal(size=length)])
        series = data_mod.LabeledSeries(values + 3.0 * labels[:, None], labels)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"epochs_tsadm": 2, "epochs_collab": 2}))
        cfg = cli.load_config(cfg_path, {})
        (tmp_path / "D").mkdir()
        csv = str(tmp_path / "D" / "data.csv")
        data_mod.save_csv(series, csv)
        parts = data_mod.split_windows(series, cfg.window_len)
        llm.write_fixture(tmp_path / "D" / "llm_fixture.jsonl",
                          {w.window_id(): rng.uniform(0.0, 1.0, w.length)
                           for w in parts["train"] + parts["val"] + parts["test"]})
        scores = str(tmp_path / "llm" / "llm_scores.jsonl")
        steps = [
            ("tsadm", "train-tsadm", "--data", csv),
            ("llm", "score-llm", "--data", csv),
            ("collab", "train-collab", "--data", csv,
             "--tsadm", str(tmp_path / "tsadm" / "tsadm.json"), "--llm-scores", scores),
            ("detect", "detect", "--data", csv,
             "--pipeline", str(tmp_path / "collab" / "pipeline.json"), "--llm-scores", scores),
            ("eval", "eval", "--data", csv,
             "--collated", str(tmp_path / "detect" / "collated.csv")),
        ]
        for out, *args in steps:
            code = cli.main(["--config", str(cfg_path), "--out", str(tmp_path / out), *args])
            assert code == 0, args[0]
        pipeline = json.loads((tmp_path / "collab" / "pipeline.json").read_text())
        assert np.shape(pipeline["cond"]["w1"]) == (2 + 2 * cfg.embed, cfg.cond_hidden) == (10, 16)


class TestGenDataArguments:
    @pytest.mark.parametrize("args, code, message", [
        (["--contextual", "2"], 2, "need at least three anomalies of each kind to cover "
                                   "splits, got 2 contextual and 10 point"),
        (["--point", "0"], 2, "need at least three anomalies of each kind to cover "
                              "splits, got 10 contextual and 0 point"),
        (["--length", "-5"], 2, "length must exceed the delay 18, got -5"),
        (["--length", "200"], 1, "could not place a contextual span without overlap"),
        # the val region's inner part, less a margin on each side, is empty
        (["--length", "700"], 1, "could not place a contextual span without overlap"),
        (["--length", "845"], 1, "could not place a contextual span without overlap"),
    ], ids=["contextual 2", "point 0", "length -5", "length 200", "length 700", "length 845"])
    def test_exits_with_one_line(self, tmp_path, capsys, args, code, message):
        assert cli.main(["--out", str(tmp_path), "gen-data", *args]) == code
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "data.csv").exists()

    def test_builds_no_simulated_detector(self, tmp_path, monkeypatch):
        # gen-data writes no detector scores, so it must not build the detector
        def boom(values):
            raise AssertionError("gen-data built the simulated detector")

        monkeypatch.setattr(benchmark, "_representation", boom)
        assert cli.main(["--out", str(tmp_path), "gen-data", "--length", "2000"]) == 0


class TestDispatch:
    def test_every_subcommand_names_its_handler(self):
        sub = next(a for a in cli.build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        assert sorted(sub.choices) == ["ablate", "detect", "eval", "gen-data", "score-llm",
                                       "train-collab", "train-tsadm", "verify"]
        for name, parser in sub.choices.items():
            assert callable(parser.get_default("run")), name


def test_detector_config_has_no_defaults():
    from collate.tsadm import TsadmConfig

    fields = dataclasses.asdict(cli.RunConfig().tsadm_config())
    assert len(fields) == 8
    for name in fields:
        with pytest.raises(TypeError, match=f"missing 1 required positional argument: '{name}'"):
            TsadmConfig(**{k: v for k, v in fields.items() if k != name})


class TestExitCodes:
    def test_missing_detector_checkpoint_exits_2(self, run_dir, tmp_path, capsys):
        code = cli.main([
            "--config", str(run_dir / "cfg.json"), "--out", str(tmp_path / "c"),
            "train-collab", "--data", str(run_dir / "D" / "data.csv"),
            "--tsadm", str(tmp_path / "missing.json"),
            "--llm-scores", str(run_dir / "llm" / "llm_scores.jsonl"),
        ])
        assert code == 2
        assert "detector checkpoint not found" in capsys.readouterr().err

    def test_all_noise_llm_scores_train_and_exit_0(self, run_dir, tmp_path, capsys):
        # LLM scores that are all noise give a fit so narrow that the
        # untrained map's scores have no target density in float64; the
        # alignment loss takes its log in closed form and stays finite
        rng = np.random.default_rng(0)
        lines = []
        for line in (run_dir / "llm" / "llm_scores.jsonl").read_text().splitlines():
            entry = json.loads(line)
            entry["scores"] = np.abs(rng.normal(0.0, 0.005, len(entry["scores"]))).tolist()
            lines.append(json.dumps(entry))
        scores = tmp_path / "noise.jsonl"
        scores.write_text("\n".join(lines) + "\n")
        out = tmp_path / "out"
        code = cli.main(["--config", str(run_dir / "cfg.json"), "--out", str(out),
                         "train-collab", "--data", str(run_dir / "D" / "data.csv"),
                         "--tsadm", str(run_dir / "tsadm" / "tsadm.json"),
                         "--llm-scores", str(scores)])
        assert code == 0, capsys.readouterr().err
        pipeline = json.loads((out / "pipeline.json").read_text())
        assert pipeline["sigma"] < 0.006
        rows = (out / "loss_curves.csv").read_text().splitlines()
        assert rows[0] == "epoch,alignment_loss,pairwise_loss" and len(rows) == 4
        assert all(np.isfinite(float(v)) for row in rows[1:] for v in row.split(","))

    def test_unknown_config_key_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"epochs_collab": 3, "no_such_key": 1}))
        code = cli.main(["--config", str(cfg), "--out", str(tmp_path / "v"), "verify"])
        assert code == 2
        assert "no_such_key" in capsys.readouterr().err

    def test_fixture_without_a_window_exits_1(self, run_dir, tmp_path, capsys):
        fixture = tmp_path / "partial.jsonl"
        first = (run_dir / "D" / "llm_fixture.jsonl").read_text().splitlines()[0]
        fixture.write_text(first + "\n")
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"window_len": 200, "llm_mode": f"mock:{fixture}"}))
        code = cli.main(["--config", str(cfg), "--out", str(tmp_path / "l"),
                         "score-llm", "--data", str(run_dir / "D" / "data.csv")])
        assert code == 1
        assert "fixture has no entry" in capsys.readouterr().err


class TestMockScoring:
    """Mock ``score-llm`` reads its fixture once and builds no prompt."""

    @staticmethod
    def score(run_dir, out):
        return cli.main(["--config", str(run_dir / "cfg.json"), "--out", str(out),
                         "score-llm", "--data", str(run_dir / "D" / "data.csv")])

    def test_fixture_read_once_per_call(self, run_dir, tmp_path, monkeypatch):
        calls = []
        real = llm.load_fixture

        def counting(path, ws):
            calls.append(path)
            return real(path, ws)

        monkeypatch.setattr(llm, "load_fixture", counting)
        assert self.score(run_dir, tmp_path) == 0
        fixture = run_dir / "D" / "llm_fixture.jsonl"
        assert calls == [fixture]
        # every window's scores are its fixture entry, and every entry is scored
        assert (tmp_path / "llm_scores.jsonl").read_bytes() == fixture.read_bytes()

    def test_builds_no_prompts(self, run_dir, tmp_path, monkeypatch):
        def no_prompt(*args):
            raise AssertionError("mock scoring built a prompt")

        monkeypatch.setattr(llm, "build_prompt", no_prompt)
        assert self.score(run_dir, tmp_path) == 0


class TestBadConfig:
    """A config value of the wrong type exits 2 with one error line."""

    @pytest.mark.parametrize("config, message", [
        ({"moduleNum": True}, "moduleNum must be an integer in [1, 64], got True"),
        ({"d": True}, "d must be a positive real, got True"),
        ({"seed": False}, "seed must be a non-negative integer, got False"),
        ({"seed": -1}, "seed must be a non-negative integer, got -1"),
        ({"llm_mode": 5}, "llm_mode must look like 'mock:<fixture>' or 'live:<url>'"),
        ({"loss_variant": []},
         f"loss_variant must be one of {sorted(v.value for v in LossVariant)}, got []"),
        ({"window_len": 3, "patchSize": 4}, "patchSize must not exceed window_len 3, got 4"),
        ({"llm_mode": "live:not-a-url"},
         "llm_mode must look like 'mock:<fixture>' or 'live:<url>'"),
        ({"llm_mode": "live:"},
         "llm_mode must look like 'mock:<fixture>' or 'live:<url>'"),
        ({"llm_mode": "live:http://"},
         "llm_mode must look like 'mock:<fixture>' or 'live:<url>'"),
        ({"llm_mode": "live:https:///v1"},
         "llm_mode must look like 'mock:<fixture>' or 'live:<url>'"),
        # urlsplit raises on the unclosed bracket
        ({"llm_mode": "live:http://[::1"},
         "llm_mode must look like 'mock:<fixture>' or 'live:<url>'"),
        # ports that urlsplit parses but its .port rejects
        ({"llm_mode": "live:http://127.0.0.1:abc/x"},
         "llm_mode must look like 'mock:<fixture>' or 'live:<url>'"),
        ({"llm_mode": "live:http://127.0.0.1:99999/x"},
         "llm_mode must look like 'mock:<fixture>' or 'live:<url>'"),
    ])
    def test_exits_2_with_one_line(self, tmp_path, capsys, config, message):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        code = cli.main(["--config", str(cfg), "--out", str(tmp_path / "t"),
                         "train-tsadm", "--data", str(tmp_path / "missing.csv")])
        assert code == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("text, message", [
        ("{not json", "config is not valid JSON: Expecting property name enclosed in double "
                      "quotes: line 1 column 2 (char 1)"),
        ("[1, 2]", "config must be a JSON object"),
    ], ids=["not JSON", "a JSON array"])
    def test_config_file_not_an_object_exits_2(self, tmp_path, capsys, text, message):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(text)
        assert cli.main(["--config", str(cfg), "--out", str(tmp_path / "v"), "verify"]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "v").exists()


class TestDirectoryForAFile:
    """A directory where a command expects a file exits 2 with one error line."""

    @pytest.mark.parametrize("case", ["config", "eval data", "llm scores", "mock fixture",
                                      "missing metadata", "metadata dir"])
    def test_exits_2_with_one_line(self, run_dir, tmp_path, capsys, case):
        folder = tmp_path / "folder"
        folder.mkdir()
        mock_cfg = tmp_path / "cfg.json"
        mock_cfg.write_text(json.dumps({"window_len": 200, "llm_mode": "mock:"}))
        cfg, csv = str(run_dir / "cfg.json"), str(run_dir / "D" / "data.csv")
        collated = str(run_dir / "detect" / "collated.csv")
        nope = tmp_path / "nope.json"
        argv, message = {
            "config": (["--config", str(folder), "verify"], f"config file not found at {folder}"),
            "eval data": (["--config", cfg, "eval", "--data", str(folder),
                           "--collated", str(folder)], f"dataset CSV not found at {folder}"),
            "llm scores": (["--config", cfg, "train-collab", "--data", csv,
                            "--tsadm", str(run_dir / "tsadm" / "tsadm.json"),
                            "--llm-scores", str(folder)], f"LLM scores not found at {folder}"),
            # the fixture path resolves to the dataset's directory
            "mock fixture": (["--config", str(mock_cfg), "score-llm", "--data", csv],
                             f"mock fixture not found at {run_dir / 'D'}"),
            "missing metadata": (["--config", cfg, "eval", "--data", csv, "--collated", collated,
                                  "--metadata", str(nope)], f"metadata not found at {nope}"),
            "metadata dir": (["--config", cfg, "eval", "--data", csv, "--collated", collated,
                              "--metadata", str(folder)], f"metadata not found at {folder}"),
        }[case]
        code = cli.main(["--out", str(tmp_path / "out"), *argv])
        assert code == 2
        assert capsys.readouterr().err == f"error: {message}\n"


def _bad_score_file(run_dir, path, case):
    """The gen-data fixture with its first window (a training window) broken."""
    lines = (run_dir / "D" / "llm_fixture.jsonl").read_text().splitlines()
    first = json.loads(lines[0])
    if case == "missing window":
        lines = lines[1:]
    elif case == "one score short":
        first["scores"] = first["scores"][:-1]
    elif case == "score 1.5":
        first["scores"][0] = 1.5
    elif case == "score NaN":
        first["scores"][0] = float("nan")
    elif case == "scores not numbers":
        first["scores"] = "abc"
    elif case == "duplicate window":
        lines.append(json.dumps({**first, "scores": [0.0] * len(first["scores"])}))
    if case != "missing window":
        lines[0] = json.dumps(first)
    path.write_text("\n".join(lines) + "\n")


BAD_SCORE_MESSAGES = {
    "missing window": "fixture has no entry",
    "one score short": "scores, expected 200",
    "score 1.5": "outside [0, 1]",
    "score NaN": "fixture scores for 'w0' outside [0, 1]",
    "scores not numbers": "fixture line 1: scores are not numbers",
    "duplicate window": "both hold window",
}


class TestBadScoreFiles:
    """Every command that reads LLM scores exits 1 with one error line."""

    @pytest.mark.parametrize("case", sorted(BAD_SCORE_MESSAGES))
    @pytest.mark.parametrize("command", ["score-llm", "train-collab", "detect"])
    def test_exits_1_with_an_error_line(self, run_dir, tmp_path, capsys, command, case):
        bad = tmp_path / "bad.jsonl"
        _bad_score_file(run_dir, bad, case)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"epochs_collab": 1, "window_len": 200,
                                   "llm_mode": f"mock:{bad}"}))
        args = {
            "score-llm": [],
            "train-collab": ["--tsadm", str(run_dir / "tsadm" / "tsadm.json"),
                             "--llm-scores", str(bad)],
            "detect": ["--pipeline", str(run_dir / "collab" / "pipeline.json"),
                       "--llm-scores", str(bad)],
        }[command]
        code = cli.main(["--config", str(cfg), "--out", str(tmp_path / "out"), command,
                         "--data", str(run_dir / "D" / "data.csv"), *args])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert BAD_SCORE_MESSAGES[case] in err
        assert "Traceback" not in err


class TestBadCsv:
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_value_names_its_line(self, run_dir, tmp_path, capsys, value):
        lines = (run_dir / "D" / "data.csv").read_text().splitlines()
        t, _, label = lines[50].split(",")
        lines[50] = f"{t},{value},{label}"
        data = tmp_path / "data.csv"
        data.write_text("\n".join(lines) + "\n")
        code = cli.main(["--config", str(run_dir / "cfg.json"), "--out", str(tmp_path / "t"),
                         "train-tsadm", "--data", str(data)])
        err = capsys.readouterr().err
        assert code == 1
        assert err == "error: line 51: value is not finite\n"

    @pytest.mark.parametrize("command", ["train-tsadm", "eval"])
    def test_slot_out_of_sequence_names_its_line(self, run_dir, tmp_path, capsys, command):
        lines = (run_dir / "D" / "data.csv").read_text().splitlines()
        _, *fields = lines[701].split(",")
        lines[701] = ",".join(["1500", *fields])
        data = tmp_path / "data.csv"
        data.write_text("\n".join(lines) + "\n")
        args = {"train-tsadm": [],
                "eval": ["--collated", str(run_dir / "detect" / "collated.csv")]}[command]
        capsys.readouterr()
        code = cli.main(["--config", str(run_dir / "cfg.json"), "--out", str(tmp_path / "t"),
                         command, "--data", str(data), *args])
        assert code == 1
        assert capsys.readouterr().err == "error: line 702: slot 1500 does not follow slot 699\n"
        assert not (tmp_path / "t").exists() or not any((tmp_path / "t").iterdir())

    @pytest.mark.parametrize("command", ["train-collab", "detect"])
    def test_two_columns_for_a_one_column_detector_exit_1(self, run_dir, tmp_path, capsys,
                                                         command):
        series = data_mod.load_csv(run_dir / "D" / "data.csv")
        wide = dataclasses.replace(series, values=np.repeat(series.values, 2, axis=1))
        data = tmp_path / "data.csv"
        data_mod.save_csv(wide, data)
        args = {"train-collab": ["--tsadm", str(run_dir / "tsadm" / "tsadm.json")],
                "detect": ["--pipeline", str(run_dir / "collab" / "pipeline.json")]}[command]
        capsys.readouterr()
        code = cli.main(["--config", str(run_dir / "cfg.json"), "--out", str(tmp_path / "t"),
                         command, "--data", str(data), *args,
                         "--llm-scores", str(run_dir / "llm" / "llm_scores.jsonl")])
        assert code == 1
        assert capsys.readouterr().err == "error: window has 2 dims, model expects 1\n"

    def test_eval_without_labels_exits_2(self, run_dir, tmp_path, capsys):
        lines = (run_dir / "D" / "data.csv").read_text().splitlines()
        data = tmp_path / "data.csv"
        data.write_text("".join(line.rsplit(",", 1)[0] + "\n" for line in lines))
        capsys.readouterr()
        code = cli.main(["--config", str(run_dir / "cfg.json"), "--out", str(tmp_path / "e"),
                         "eval", "--data", str(data),
                         "--collated", str(run_dir / "detect" / "collated.csv")])
        assert code == 2
        assert capsys.readouterr().err == "error: evaluation needs a labeled dataset\n"


def test_train_tsadm_window_longer_than_train_split_exits_1(run_dir, tmp_path, capsys):
    # the 2,000-slot dataset's train split holds 800 slots
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"winLen": 801}))
    capsys.readouterr()
    code = cli.main(["--config", str(cfg), "--out", str(tmp_path / "t"),
                     "train-tsadm", "--data", str(run_dir / "D" / "data.csv")])
    assert code == 1
    assert capsys.readouterr().err == "error: series shorter than one window\n"


BAD_COLLATED = {
    "short row": (["t,score", "0,0.5", "1"], "error: line 3: expected 2 fields, got 1\n"),
    "header only": (["t,score"], "error: line 2: no data rows\n"),
    "empty file": ([], "error: line 1: empty file\n"),
    "score not a number": (
        ["t,score", "0,0.5", "1,high"],
        "error: line 3: could not convert string to float: 'high'\n",
    ),
    "score nan": (["t,score", "0,nan", "1,0.5"], "error: line 2: value is not finite\n"),
    "score inf": (["t,score", "0,0.5", "1,inf"], "error: line 3: value is not finite\n"),
    "t not an integer": (
        ["t,score", "0.5,0.5"],
        "error: line 2: invalid literal for int() with base 10: '0.5'\n",
    ),
    "slot listed twice": (
        ["t,score", "1,0.5", "0,0.5", "2,0.5", "1,0.25", "0,0.75"],
        "error: line 3: slot 0 does not follow slot 1\n",
    ),
    # the dataset has slots 0-1999
    "half the rows": (
        ["t,score", *(f"{t},0.5" for t in range(1000))],
        "error: slot 1000 has no collated score\n",
    ),
    "slot 7 missing": (
        ["t,score", *(f"{t},0.5" for t in range(2000) if t != 7)],
        "error: line 9: slot 8 does not follow slot 6\n",
    ),
    "slot past the end": (
        ["t,score", "2000,0.5", *(f"{t},0.5" for t in range(2000))],
        "error: line 3: slot 0 does not follow slot 2000\n",
    ),
    "a row past the end": (
        ["t,score", *(f"{t},0.5" for t in range(2001))],
        "error: line 2002: slot 2000 lies outside the dataset\n",
    ),
    "first slot not the dataset's": (
        ["t,score", *(f"{t},0.5" for t in range(1, 2001))],
        "error: line 2: slot 1 is not the dataset's first slot 0\n",
    ),
}


class TestBadCollated:
    """A malformed `collated.csv` makes eval exit 1 with one error line."""

    @pytest.mark.parametrize("case", sorted(BAD_COLLATED))
    def test_exits_1_with_the_line(self, run_dir, tmp_path, capsys, case):
        lines, message = BAD_COLLATED[case]
        collated = tmp_path / "collated.csv"
        collated.write_text("".join(f"{ln}\n" for ln in lines))
        capsys.readouterr()
        code = cli.main(["--config", str(run_dir / "cfg.json"), "--out", str(tmp_path / "e"),
                         "eval", "--data", str(run_dir / "D" / "data.csv"),
                         "--collated", str(collated)])
        assert code == 1
        assert capsys.readouterr().err == message


def _replaced(d, keys: list, edit):
    """A copy of the JSON object or array ``d`` whose entry at the key path
    ``keys`` (object keys and array indices) is ``edit`` of the old entry."""
    head, *rest = keys
    new = _replaced(d[head], rest, edit) if rest else edit(d[head])
    return [*d[:head], new, *d[head + 1:]] if isinstance(d, list) else {**d, head: new}


def _one_input_column_more(cond: dict) -> dict:
    """``cond`` reading one more representation column, with a row of
    weights and standardization statistics for it."""
    return {**cond, "w1": [*cond["w1"], cond["w1"][-1]],
            "in_mean": [*cond["in_mean"], 0.0], "in_std": [*cond["in_std"], 1.0]}


class TestBadCheckpoint:
    """A checkpoint that is not JSON, or that its loader rejects, exits 1
    with one error line naming the file."""

    CASES = {
        "pipeline without config_echo": ("pipeline", lambda d: {k: v for k, v in d.items()
                                                                if k != "config_echo"},
                                         "KeyError: 'config_echo'"),
        "tsadm without a layer": ("tsadm", lambda d: _replaced(d, ["layers"], lambda v: v[1:]),
                                  "ValueError: 2 layers, but moduleNum is 3"),
        "tsadm embed_b cut to 2": ("tsadm", lambda d: _replaced(d, ["embed_b"], lambda v: v[:2]),
                                   "ValueError: detector.embed_b has shape (2,), expected (4,)"),
        "tsadm winLen 0": ("tsadm", lambda d: _replaced(d, ["config", "winLen"], lambda v: 0),
                           "ValueError: winLen must be a positive integer, got 0"),
        "pipeline scorer winLen 0": (
            "pipeline", lambda d: _replaced(d, ["scorer", "state", "config", "winLen"],
                                            lambda v: 0),
            "ValueError: winLen must be a positive integer, got 0"),
        "score_divisor 0": ("pipeline", lambda d: {**d, "score_divisor": 0},
                            "ValueError: score_divisor must be finite and positive, got 0.0"),
        "cond.b1 cut to 3": ("pipeline", lambda d: _replaced(d, ["cond", "b1"], lambda v: v[:3]),
                             "ValueError: cond.w1 has shape (6, 16), expected (6, 3)"),
        "cond.in_std cut to 2": ("pipeline",
                                 lambda d: _replaced(d, ["cond", "in_std"], lambda v: v[:2]),
                                 "ValueError: cond.in_std has shape (2,), expected (6,)"),
        "mapping.a2 cut to 2": ("pipeline",
                                lambda d: _replaced(d, ["mapping", "a2"], lambda v: v[:2]),
                                "ValueError: mapping.a2 has shape (2,), expected (8,)"),
        "pipeline version 2": ("pipeline", lambda d: {**d, "version": 2},
                               "ValueError: unsupported checkpoint version 2"),
        "unknown scorer kind": ("pipeline",
                                lambda d: {**d, "scorer": {**d["scorer"], "kind": "knn"}},
                                "ValueError: unknown scorer kind 'knn'"),
        "pipeline without cond": ("pipeline", lambda d: {k: v for k, v in d.items()
                                                         if k != "cond"}, "KeyError: 'cond'"),
        "pipeline not JSON": ("pipeline", None,
                              "JSONDecodeError: Expecting value: line 1 column 1 (char 0)"),
        "pipeline a JSON array": ("pipeline", lambda d: [d],
                                  "AttributeError: 'list' object has no attribute 'get'"),
        "tsadm version 9": ("tsadm", lambda d: {**d, "version": 9},
                            "ValueError: unsupported checkpoint version 9"),
        "tsadm not JSON": ("tsadm", None,
                           "JSONDecodeError: Expecting value: line 1 column 1 (char 0)"),
        "mapping.hidden 3": ("pipeline",
                             lambda d: _replaced(d, ["mapping", "hidden"], lambda v: 3),
                             "ValueError: mapping.hidden must be mapping.a1's length 8, got 3"),
        "mapping without hidden": (
            "pipeline", lambda d: _replaced(d, ["mapping"], lambda m: {
                k: v for k, v in m.items() if k != "hidden"}),
            "ValueError: mapping.hidden must be mapping.a1's length 8, got None"),
        "mapping.b2 inf": ("pipeline",
                           lambda d: _replaced(d, ["mapping", "b2"], lambda v: math.inf),
                           "ValueError: mapping.b2 is not finite"),
        "cond.w1 NaN": ("pipeline",
                        lambda d: _replaced(d, ["cond", "w1", 0, 0], lambda v: math.nan),
                        "ValueError: cond.w1 is not finite"),
        "tsadm layer wq NaN": ("tsadm", lambda d: _replaced(d, ["layers", 1, "wq", 0, 2, 1],
                                                            lambda v: math.nan),
                               "ValueError: layer.wq is not finite"),
        "pipeline scorer embed_w NaN": (
            "pipeline", lambda d: _replaced(d, ["scorer", "state", "embed_w", 0, 0],
                                            lambda v: math.nan),
            "ValueError: detector.embed_w is not finite"),
        "precomputed scorer with a negative score": (
            "pipeline", lambda d: {**d, "scorer": {"kind": "precomputed", "state": {
                "raw": [-1.0] * 2000, "rep": [[0.0] * 4] * 2000, "base_index": 0}}},
            "ScoreOutOfRange: precomputed raw scores must be finite and nonnegative"),
        "cond.in_std 0": ("pipeline", lambda d: _replaced(d, ["cond", "in_std", 0], lambda v: 0.0),
                          "ValueError: cond.in_std has an entry that is not positive"),
        "cond.in_std -1": ("pipeline",
                           lambda d: _replaced(d, ["cond", "in_std", 0], lambda v: -1.0),
                           "ValueError: cond.in_std has an entry that is not positive"),
        "cond one input column too many": (
            "pipeline", lambda d: _replaced(d, ["cond"], _one_input_column_more),
            "ValueError: cond reads representations 5 wide, but the scorer's are 4 wide"),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_exits_1_with_one_line(self, run_dir, tmp_path, capsys, case):
        kind, edit, message = self.CASES[case]
        good = run_dir / ("collab/pipeline.json" if kind == "pipeline" else "tsadm/tsadm.json")
        bad = tmp_path / good.name
        bad.write_text("not json" if edit is None else json.dumps(edit(json.loads(
            good.read_text()))))
        csv, scores = str(run_dir / "D" / "data.csv"), str(run_dir / "llm" / "llm_scores.jsonl")
        argv = (["detect", "--data", csv, "--pipeline", str(bad), "--llm-scores", scores]
                if kind == "pipeline" else
                ["train-collab", "--data", csv, "--tsadm", str(bad), "--llm-scores", scores])
        capsys.readouterr()
        code = cli.main(["--config", str(run_dir / "cfg.json"), "--out", str(tmp_path / "out"),
                         *argv])
        assert code == 1
        assert capsys.readouterr().err == f"error: {bad}: {message}\n"


class TestOutNamingAFile:
    """An ``--out`` that cannot be made a directory exits 2 with one line."""

    @pytest.mark.parametrize("sub, reason", [("", "File exists"), ("sub", "Not a directory")])
    def test_exits_2_with_one_line(self, tmp_path, capsys, sub, reason):
        out = tmp_path / "file"
        out.write_text("")
        out = out / sub if sub else out
        assert cli.main(["--out", str(out), "verify"]) == 2
        assert capsys.readouterr().err == (
            f"error: cannot make output directory {out}: {reason}\n"
        )


class TestBadMetadata:
    """An ``eval --metadata`` file that is malformed, or whose spans are not
    the dataset's labels, exits 1 with one error line and writes no report."""

    @staticmethod
    def bad_metadata(run_dir, tmp_path, case):
        """The metadata text for ``case``, and the error it should raise."""
        meta = json.loads((run_dir / "D" / "metadata.json").read_text())
        first = meta["spans"][0]
        if case == "another seed":
            other = tmp_path / "other"
            assert cli.main(["--seed", "5", "--out", str(other), "gen-data", "--length", "2000",
                             "--contextual", "4", "--point", "4"]) == 0
            ours, theirs = (data_mod.load_csv(d / "data.csv").labels
                            for d in (run_dir / "D", other))
            slot = int(np.flatnonzero(ours != theirs)[0])
            return ((other / "metadata.json").read_text(),
                    f"metadata spans and the label column disagree at slot {slot}")
        if case == "not JSON":
            return "not json", ("metadata: JSONDecodeError: "
                                "Expecting value: line 1 column 1 (char 0)")
        if case == "span without end":
            return json.dumps({"spans": [{"start": 1}]}), "metadata: KeyError: 'end'"
        if case == "unknown kind":
            meta["spans"][0] = {**first, "kind": "trend"}
            message = "metadata: ValueError: 'trend' is not a valid AnomalyKind"
        elif case == "end before start":
            meta["spans"][0] = {**first, "start": first["end"], "end": first["start"]}
            message = "metadata: ValueError: a span needs integers 0 <= start < end"
        elif case == "span moved one slot":
            meta["spans"][0] = {**first, "start": first["start"] + 1, "end": first["end"] + 1}
            message = f"metadata spans and the label column disagree at slot {first['start']}"
        elif case == "span listed twice":
            meta["spans"].append(first)
            message = f"metadata spans and the label column disagree at slot {first['start']}"
        return json.dumps(meta), message

    @pytest.mark.parametrize("case", ["not JSON", "span without end", "unknown kind",
                                      "end before start", "span moved one slot",
                                      "span listed twice", "another seed"])
    def test_exits_1_with_one_line(self, run_dir, tmp_path, capsys, case):
        text, message = self.bad_metadata(run_dir, tmp_path, case)
        meta = tmp_path / "metadata.json"
        meta.write_text(text)
        capsys.readouterr()
        code = cli.main(["--config", str(run_dir / "cfg.json"), "--out", str(tmp_path / "e"),
                         "eval", "--data", str(run_dir / "D" / "data.csv"),
                         "--collated", str(run_dir / "detect" / "collated.csv"),
                         "--metadata", str(meta)])
        assert code == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "e" / "metrics.json").exists()


def _modules_after(code: str) -> set[str]:
    """The names in ``sys.modules`` after a fresh interpreter, with this
    package on its path, runs ``code``."""
    script = f"import sys\n{code}\nprint(' '.join(sys.modules))"
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                         check=True, env=env)
    return set(out.stdout.splitlines()[-1].split())


class TestImports:
    """Each command imports only the modules it runs."""

    NEVER_AT_IMPORT = {"urllib.request", "http.client", "ssl", "xml.sax",
                       "concurrent.futures", "collate.theory", "collate.benchmark"}

    def test_importing_the_cli_loads_no_command_specific_module(self):
        loaded = _modules_after("import collate.cli")
        assert "collate.cli" in loaded
        assert loaded & self.NEVER_AT_IMPORT == set()

    def test_eval_loads_neither_the_theory_nor_http(self, run_dir, tmp_path):
        argv = ["--config", str(run_dir / "cfg.json"), "--out", str(tmp_path),
                "eval", "--data", str(run_dir / "D" / "data.csv"),
                "--collated", str(run_dir / "detect" / "collated.csv"),
                "--metadata", str(run_dir / "D" / "metadata.json")]
        loaded = _modules_after(
            f"from collate import cli\nassert cli.main({argv!r}) == 0"
        )
        assert (tmp_path / "metrics.json").is_file()
        assert loaded & {"collate.theory", "urllib.request"} == set()
        assert loaded & {"collate.collab", "collate.tsadm", "collate.llm"} == set()

    def test_gen_data_loads_no_training_code(self, tmp_path):
        argv = ["--out", str(tmp_path), "gen-data", "--length", "2000"]
        loaded = _modules_after(f"from collate import cli\nassert cli.main({argv!r}) == 0")
        assert (tmp_path / "data.csv").is_file()
        training = {"collate.collab", "collate.tsadm", "collate.alignment", "collate.optim",
                    "collate.theory"}
        assert loaded & training == set()

    def test_loading_a_trained_pipeline_draws_no_random_numbers(self, run_dir):
        path = run_dir / "collab" / "pipeline.json"
        loaded = _modules_after(
            f"from collate.collab import FusionPipeline\nFusionPipeline.load({str(path)!r})"
        )
        assert "collate.tsadm" in loaded
        assert "numpy.random" not in loaded


class TestAblateGrid:
    def test_grid_point_trains_only_the_collaborative_variant(self, tmp_path, monkeypatch):
        stacks = []
        real = collab.train_collab

        def counting(windows, scorer, llm_scores, cfg, variants):
            stacks.append([v.value for v in variants])
            return real(windows, scorer, llm_scores, cfg, variants)

        monkeypatch.setattr(collab, "train_collab", counting)
        # the grid point repeats the table's own d and patchSize
        grid = json.dumps({"d": [1.0], "patchSize": [2]})
        assert cli.main(["--out", str(tmp_path), "ablate", "--grid", grid]) == 0
        # four table variants, the three mapping variants in one stack, then
        # one run for the grid point
        trained = [variant for stack in stacks for variant in stack]
        assert len(trained) == 5
        assert stacks == [["collaborative", "mse", "fixed_weights"], ["no_alignment"],
                          ["collaborative"]]
        rows = [ln.split(",") for ln in (tmp_path / "ablation.csv").read_text().splitlines()]
        collaborative = next(r for r in rows if r[0] == "collaborative")
        grid_rows = (tmp_path / "grid.csv").read_text().splitlines()
        assert grid_rows == ["d,patchSize,f1", f"1.0,2,{collaborative[3]}"]
        metrics = json.loads((tmp_path / "metrics.json").read_text())
        assert sorted(metrics) == ["config_echo", "grid", "seed", "variants"]
        # the settings the table was trained with, not the run config's
        assert metrics["config_echo"] == {
            "benchmark": dataclasses.asdict(benchmark.BenchmarkConfig(seed=0)),
            "run": dataclasses.asdict(cli.RunConfig(batchSize=benchmark.ABLATION_BATCH_SIZE)),
        }
        assert metrics["grid"] == [[1.0, 2, float(collaborative[3])]]
        assert metrics["variants"]["collaborative"]["f1"] == float(collaborative[3])
        # the thresholds carry the fused scores' bits, so this pins phase 2
        # on whole-window (500-slot) blocks, as PINNED does on 100-slot ones
        digest = hashlib.sha256((tmp_path / "metrics.json").read_bytes()).hexdigest()
        assert digest == "45dc145e034cc62e96262d3bed1c066d4e665de4d90a1fa673a863bc8848ef4a"
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["config"] == metrics["config_echo"]
        assert manifest["outputs"] == [str(tmp_path / name)
                                       for name in ("ablation.csv", "grid.csv", "metrics.json")]
        # 150 epochs of 8 window-long blocks per table variant; the three
        # mapping variants train as one stack, timed once; the grid point is
        # neither counted nor timed
        variants = sorted(v.value for v in LossVariant)
        assert manifest["counters"] == {v: {"steps": 1200, "blocks": 8} for v in variants}
        assert sorted(manifest["timings"]) == ["mapping_variants_train_s", "no_alignment_train_s"]
        assert all(0.0 < s < 60.0 for s in manifest["timings"].values())

    def test_config_echo_is_what_the_ablation_trains_with(self, run_dir, tmp_path,
                                                         monkeypatch):
        trained_with = []

        def recording(bench, cfg, counters, timings):
            trained_with.append(cfg)
            return {}

        monkeypatch.setattr(benchmark, "run_ablation", recording)
        # the run config's seed reaches the ablation, its training keys do not
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": 3, "colr": 0.5, "batchSize": 50}))
        assert cli.main(["--config", str(cfg), "--out", str(tmp_path / "a"), "ablate"]) == 0
        run = json.loads((tmp_path / "a" / "metrics.json").read_text())["config_echo"]["run"]
        assert trained_with == [cli.RunConfig(**run)]
        pipeline = json.loads((run_dir / "collab" / "pipeline.json").read_text())
        assert sorted(run) == sorted(pipeline["config_echo"])
        default = dataclasses.asdict(cli.RunConfig(seed=3))
        assert {key for key in run if run[key] != default[key]} == {"batchSize"}
        assert run["batchSize"] == benchmark.ABLATION_BATCH_SIZE

    def test_grid_d_past_the_float_range_exits_1(self, tmp_path, monkeypatch, capsys):
        # the table's training is skipped; at d = 0.001 a score range above
        # about 2.03 takes range ** 1000 past the largest float
        monkeypatch.setattr(benchmark, "run_ablation", lambda bench, cfg, *records: {})
        assert cli.main(["--out", str(tmp_path), "ablate", "--grid", '{"d": [0.001]}']) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: score divisor range**(1/d) = inf is not finite and "
                              "positive (range ") and err.endswith(", d=0.001)\n"), err
        assert err.count("\n") == 1
        assert not (tmp_path / "metrics.json").exists()

    @pytest.mark.parametrize("grid, message", [
        ("[1]", "--grid must be a JSON object"),
        ('{"D": [0.5]}', "--grid keys must be among ['d', 'patchSize'], got ['D']"),
        ('{"d": []}', "--grid d must be a nonempty list"),
        ('{"patchSize": 2}', "--grid patchSize must be a nonempty list"),
        ('{"d": [1.0, -0.5]}', "--grid: d must be a positive real, got -0.5"),
        ('{"patchSize": [2.5]}', "--grid: patchSize must be an integer in [2, 10000]"),
        ('{"d": [true]}', "--grid: d must be a positive real, got True"),
        ('{"patchSize": [600]}', "--grid: patchSize must not exceed window_len 500, got 600"),
        ("{d: 1}", "--grid must be JSON"),
    ])
    def test_bad_grid_exits_2_before_the_ablation(self, tmp_path, monkeypatch, capsys,
                                                 grid, message):
        def no_ablation(*args):
            raise AssertionError("the ablation ran")

        monkeypatch.setattr(benchmark, "run_ablation", no_ablation)
        assert cli.main(["--out", str(tmp_path), "ablate", "--grid", grid]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {message}") and err.count("\n") == 1, err


class TestLiveScoring:
    def test_window_over_prompt_budget_exits_2_before_any_request(
        self, tmp_path, monkeypatch, capsys
    ):
        def no_request(endpoint, prompt):
            raise AssertionError("a request was sent")

        monkeypatch.setattr(llm, "_default_transport", no_request)
        assert cli.main(["--out", str(tmp_path / "D"), "gen-data"]) == 0
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"llm_mode": "live:http://127.0.0.1:9/", "window_len": 2000}))
        capsys.readouterr()
        code = cli.main(["--config", str(cfg), "--out", str(tmp_path / "llm"),
                         "score-llm", "--data", str(tmp_path / "D" / "data.csv")])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: window 'w0' needs ") and err.count("\n") == 1, err
        assert f"over the prompt budget of {llm.MAX_DATA_CHARS}" in err

    def test_missing_api_key_exits_2_before_any_request(self, run_dir, tmp_path, monkeypatch,
                                                         capsys):
        def no_request(req, timeout):
            raise AssertionError("a request was sent")

        monkeypatch.setattr(urllib.request, "urlopen", no_request)
        monkeypatch.delenv(llm.API_KEY_VAR, raising=False)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"llm_mode": "live:http://127.0.0.1:9/", "window_len": 200}))
        capsys.readouterr()
        code = cli.main(["--config", str(cfg), "--out", str(tmp_path / "llm"),
                         "score-llm", "--data", str(run_dir / "D" / "data.csv")])
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: environment variable {llm.API_KEY_VAR} not set\n"
        )


    def test_http_401_exits_2_after_one_request(self, run_dir, tmp_path, monkeypatch,
                                                 capsys):
        requests = []

        def unauthorized(req, timeout):
            requests.append(req)
            raise urllib.error.HTTPError(req.full_url, 401, "Unauthorized", {}, None)

        monkeypatch.setattr(urllib.request, "urlopen", unauthorized)
        monkeypatch.setattr(llm, "MAX_IN_FLIGHT", 1)
        monkeypatch.setenv(llm.API_KEY_VAR, "key")
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"llm_mode": "live:http://127.0.0.1:9/", "window_len": 200}))
        capsys.readouterr()
        code = cli.main(["--config", str(cfg), "--out", str(tmp_path / "llm"),
                         "score-llm", "--data", str(run_dir / "D" / "data.csv")])
        assert code == 2
        assert capsys.readouterr().err == (
            "error: window 'w0': http://127.0.0.1:9/ answered HTTP 401\n"
        )
        assert len(requests) == 1

    def test_nan_score_exits_1_naming_its_window(self, run_dir, tmp_path, monkeypatch, capsys):
        def transport(endpoint, prompt):
            return "\n".join(["nan" if "Input data:\n0: " in prompt else "0.25"] * 200)

        monkeypatch.setattr(llm, "_default_transport", transport)
        monkeypatch.setenv(llm.API_KEY_VAR, "key")
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"llm_mode": "live:http://127.0.0.1:9/", "window_len": 200}))
        capsys.readouterr()
        code = cli.main(["--config", str(cfg), "--out", str(tmp_path / "llm"),
                         "score-llm", "--data", str(run_dir / "D" / "data.csv")])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: window 'w0': scores outside [0, 1]"), err
        assert err.count("\n") == 1, err


class TestNanWeight:
    """A checkpoint holding a NaN weight exits 1 with one error line."""

    def test_pipeline_weight_at_detect(self, run_dir, tmp_path, capsys):
        pipeline = json.loads((run_dir / "collab" / "pipeline.json").read_text())
        pipeline["cond"]["w1"][0][0] = float("nan")
        bad = tmp_path / "pipeline.json"
        bad.write_text(json.dumps(pipeline))
        capsys.readouterr()
        code = cli.main(["--config", str(run_dir / "cfg.json"), "--out", str(tmp_path / "out"),
                         "detect", "--data", str(run_dir / "D" / "data.csv"),
                         "--pipeline", str(bad),
                         "--llm-scores", str(run_dir / "llm" / "llm_scores.jsonl")])
        assert code == 1
        assert capsys.readouterr().err == f"error: {bad}: ValueError: cond.w1 is not finite\n"

    def test_detector_weight_at_train_collab(self, run_dir, tmp_path, capsys):
        model = json.loads((run_dir / "tsadm" / "tsadm.json").read_text())
        model["embed_w"][0][0] = float("nan")
        bad = tmp_path / "tsadm.json"
        bad.write_text(json.dumps(model))
        capsys.readouterr()
        code = cli.main(["--config", str(run_dir / "cfg.json"), "--out", str(tmp_path / "out"),
                         "train-collab", "--data", str(run_dir / "D" / "data.csv"),
                         "--tsadm", str(bad),
                         "--llm-scores", str(run_dir / "llm" / "llm_scores.jsonl")])
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: {bad}: ValueError: detector.embed_w is not finite\n"
        )


class TestVerify:
    def test_seed_0_fails_theorem2_only(self, tmp_path, capsys):
        assert cli.main(["--seed", "0", "--out", str(tmp_path), "verify"]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert [ln for ln in lines if ln.startswith("[FAIL]")] == [
            "[FAIL] theorem2: statistic=0.67 must reach bound=1"
        ]
        assert "[PASS] lemma1: statistic=6.55275e-05 must stay under bound=0.01" in lines
        assert sum(ln.startswith("[PASS]") for ln in lines) == 4
        reports = json.loads((tmp_path / "theory_reports.json").read_text())
        assert [r["theorem"] for r in reports] == [
            "theorem1", "theorem2", "lemma1", "lipschitz_probe", "alignment_equivalence"
        ]
        assert [r["bound_is_floor"] for r in reports] == [True, True, False, False, False]
        theorem2 = reports[1]
        assert theorem2["statistic"] == 0.67 and not theorem2["pass"]
        assert theorem2["details"] == {"p1_failures": 0, "p2_failures": 60}
        lemma1 = reports[2]
        assert lemma1["statistic"] == 6.552747472717197e-05
        assert lemma1["details"]["grad_norm_loglog_slope"] == -0.564046303270185
        assert lemma1["details"]["max_abs_mean_grad_diff"] == 8.899823494763691e-06
        assert lemma1["details"]["loss_trajectory_gap"] == 0.03204079341730903
        equivalence = reports[4]
        assert equivalence["statistic"] == 4.4065498932116326e-06
        assert equivalence["details"]["gaps"] == [
            0.02306939512768036, 0.0006933081589549639, 6.172004646909368e-05,
            7.666169302700254e-07,
        ]
        # the theory checks read the seed and no other setting
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["config"] == {"seed": 0}
        assert manifest["counters"] == {
            "lemma1": {"steps": 10_000, "update_rounds": 2879},
            "theorem2": {"trials": 100, "quadruples": 10_000},
        }
        assert sorted(manifest["timings"]) == sorted(f"{r['theorem']}_s" for r in reports)
        assert all(s >= 0.0 for s in manifest["timings"].values())
