"""The CLI end to end at 2,000 slots, run in-process through ``cli.main``."""
import dataclasses
import json

import pytest

from collate import benchmark, cli, llm


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


class TestAblateGrid:
    def test_grid_point_trains_only_the_collaborative_variant(self, tmp_path, monkeypatch):
        trained = []
        real = benchmark.train_collab

        def counting(windows, scorer, llm_scores, variant, *args, **kwargs):
            trained.append(variant.value)
            return real(windows, scorer, llm_scores, variant, *args, **kwargs)

        monkeypatch.setattr(benchmark, "train_collab", counting)
        # the grid point repeats the table's own d and patchSize
        grid = json.dumps({"d": [1.0], "patchSize": [2]})
        assert cli.main(["--out", str(tmp_path), "ablate", "--grid", grid]) == 0
        # four table variants, then one run for the grid point
        assert len(trained) == 5
        assert trained[-1] == "collaborative"
        rows = [ln.split(",") for ln in (tmp_path / "ablation.csv").read_text().splitlines()]
        collaborative = next(r for r in rows if r[0] == "collaborative")
        grid_rows = (tmp_path / "grid.csv").read_text().splitlines()
        assert grid_rows == ["d,patchSize,f1", f"1.0,2,{collaborative[3]}"]
        metrics = json.loads((tmp_path / "metrics.json").read_text())
        assert sorted(metrics) == ["config_echo", "grid", "seed", "variants"]
        # the settings the table was trained with, not the run config's
        assert metrics["config_echo"] == {
            "benchmark": dataclasses.asdict(benchmark.BenchmarkConfig(seed=0)),
            "collab": dataclasses.asdict(benchmark.default_collab_config(seed=0)),
        }
        assert metrics["grid"] == [[1.0, 2, float(collaborative[3])]]
        assert metrics["variants"]["collaborative"]["f1"] == float(collaborative[3])
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["config"] == metrics["config_echo"]
        assert manifest["outputs"] == [str(tmp_path / name)
                                       for name in ("ablation.csv", "grid.csv", "metrics.json")]

    @pytest.mark.parametrize("grid, message", [
        ("[1]", "--grid must be a JSON object"),
        ('{"D": [0.5]}', "--grid keys must be among ['d', 'patchSize'], got ['D']"),
        ('{"d": []}', "--grid d must be a nonempty list"),
        ('{"patchSize": 2}', "--grid patchSize must be a nonempty list"),
        ('{"d": [1.0, -0.5]}', "--grid: d must be a positive real, got -0.5"),
        ('{"patchSize": [2.5]}', "--grid: patchSize must be an integer in [2, 10000]"),
        ("{d: 1}", "--grid must be JSON"),
    ])
    def test_bad_grid_exits_2_before_the_ablation(self, tmp_path, monkeypatch, capsys,
                                                 grid, message):
        def no_ablation(*args):
            raise AssertionError("the ablation ran")

        monkeypatch.setattr(cli, "run_ablation", no_ablation)
        assert cli.main(["--out", str(tmp_path), "ablate", "--grid", grid]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {message}") and err.count("\n") == 1, err


class TestLiveScoring:
    def test_window_over_prompt_budget_exits_2_before_any_request(
        self, tmp_path, monkeypatch, capsys
    ):
        def no_request(cfg, prompt):
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

        monkeypatch.setattr(llm.urllib.request, "urlopen", no_request)
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
            raise llm.urllib.error.HTTPError(req.full_url, 401, "Unauthorized", {}, None)

        monkeypatch.setattr(llm.urllib.request, "urlopen", unauthorized)
        monkeypatch.setattr(llm, "MAX_IN_FLIGHT", 1)
        monkeypatch.setenv(llm.API_KEY_VAR, "key")
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"llm_mode": "live:http://127.0.0.1:9/", "window_len": 200}))
        capsys.readouterr()
        code = cli.main(["--config", str(cfg), "--out", str(tmp_path / "llm"),
                         "score-llm", "--data", str(run_dir / "D" / "data.csv")])
        assert code == 2
        assert capsys.readouterr().err == "error: http://127.0.0.1:9/ answered HTTP 401\n"
        assert len(requests) == 1


class TestVerify:
    def test_seed_0_fails_theorem2_only(self, tmp_path, capsys):
        assert cli.main(["--seed", "0", "--out", str(tmp_path), "verify"]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert [ln for ln in lines if ln.startswith("[FAIL]")] == [
            "[FAIL] theorem2: statistic=0.67 bound=1"
        ]
        assert sum(ln.startswith("[PASS]") for ln in lines) == 4
        reports = json.loads((tmp_path / "theory_reports.json").read_text())
        assert [r["theorem"] for r in reports] == [
            "theorem1", "theorem2", "lemma1", "lipschitz_probe", "alignment_equivalence"
        ]
        theorem2 = reports[1]
        assert theorem2["statistic"] == 0.67 and not theorem2["pass"]
        assert theorem2["details"] == {"p1_failures": 0, "p2_failures": 60}
        lemma1 = reports[2]
        assert lemma1["statistic"] == 5.5172153133856486e-05
        assert lemma1["details"]["grad_norm_loglog_slope"] == -0.5634741024570724
        assert lemma1["details"]["max_abs_mean_grad_diff"] == 8.66631103793089e-06
        assert lemma1["details"]["loss_trajectory_gap"] == 0.4624278067699379
        # the theory checks read the seed and no other setting
        assert json.loads((tmp_path / "manifest.json").read_text())["config"] == {"seed": 0}
