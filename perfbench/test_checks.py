"""Fast tests of the benchmark's own reference computations and checks.

    python3 -m pytest -q perfbench

They are outside `tests/`, so the repository's test run does not collect
them. Only `check_train_tsadm` and `check_brute_force` import `collate`;
these tests do not.
"""
from __future__ import annotations

import itertools
import json
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
from checks import CheckError  # noqa: E402


def brute_best_f1(scores, labels) -> float:
    """Every threshold `score > t` for t below the minimum and between each
    pair of neighbouring distinct scores, counted slot by slot."""
    distinct = sorted(set(scores))
    cuts = [distinct[0] - 1.0] + [(a + b) / 2 for a, b in zip(distinct, distinct[1:])]
    best = 0.0
    for t in cuts:
        tp = sum(1 for s, y in zip(scores, labels) if s > t and y == 1)
        fp = sum(1 for s, y in zip(scores, labels) if s > t and y == 0)
        fn = sum(1 for s, y in zip(scores, labels) if s <= t and y == 1)
        best = max(best, checks.counts_to_prf1(tp, fp, fn)[2])
    return best


@pytest.mark.parametrize("seed", range(40))
def test_best_f1_scan_matches_brute_force(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 30))
    # few distinct values, so ties are common
    scores = rng.integers(0, 6, n) / 5.0
    labels = rng.integers(0, 2, n)
    labels[rng.integers(0, n)] = 1
    assert checks.best_f1_scan(scores, labels) == brute_best_f1(scores.tolist(), labels.tolist())


def oracle_double_sum(s, y) -> float:
    return -sum((y[i] - y[j]) * (s[i] - s[j]) for i in range(len(y)) for j in range(len(y)))


@pytest.mark.parametrize("n", range(1, 7))
def test_box_vertex_minimum_matches_grid_brute_force(n):
    """A linear objective's minimum over [0, 1]^n: vertices against a grid
    of the box, evaluated with the literal double sum."""
    y = np.random.default_rng(n).uniform(0.0, 1.0, n)
    grid = itertools.product((0.0, 0.25, 0.5, 0.75, 1.0), repeat=n)
    brute = min(oracle_double_sum(s, y) for s in grid)
    assert checks.box_vertex_minimum(y) == pytest.approx(brute, rel=1e-12, abs=1e-12)


def test_monotone_map_is_nondecreasing_for_any_parameters():
    rng = np.random.default_rng(0)
    mapping = {k: rng.normal(0, 2, 8).tolist() for k in ("a1", "b1", "a2")} | {"b2": 0.3}
    out = checks.monotone_map(mapping, np.linspace(-3, 3, 1001))
    assert (np.diff(out) >= 0).all() and (out > 0).all() and (out < 1).all()


# ------------------------------------------------------- corrupted artifacts


def write_dataset(d: Path, labels) -> None:
    d.mkdir(parents=True, exist_ok=True)
    rows = ["t,dim_0,label"] + [f"{i},{0.1 * i!r},{y}" for i, y in enumerate(labels)]
    (d / "data.csv").write_text("\n".join(rows) + "\n")


def write_collated(d: Path, scores) -> None:
    d.mkdir(parents=True, exist_ok=True)
    rows = ["t,score"] + [f"{i},{s!r}" for i, s in enumerate(scores)]
    (d / "collated.csv").write_text("\n".join(rows) + "\n")


def write_jsonl(path: Path, table: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("".join(json.dumps({"window_id": k, "scores": v}) + "\n"
                            for k, v in table.items()))


def test_detect_rejects_a_score_of_exactly_one(tmp_path):
    write_collated(tmp_path, [0.2, 0.9, float(np.nextafter(1.0, 0.0))])
    checks.check_detect(tmp_path, 3)
    write_collated(tmp_path, [0.2, 0.9, 1.0])
    with pytest.raises(CheckError, match="closed interval"):
        checks.check_detect(tmp_path, 3)


def test_detect_rejects_missing_or_unordered_rows(tmp_path):
    write_collated(tmp_path, [0.2, 0.9])
    with pytest.raises(CheckError, match="in order"):
        checks.check_detect(tmp_path, 3)


def eval_fixture(tmp_path: Path, metrics: dict) -> tuple[Path, Path, Path]:
    labels = [0, 0, 1, 1, 0, 1]
    scores = [0.1, 0.4, 0.8, 0.35, 0.2, 0.9]
    data, det, ev = tmp_path / "data", tmp_path / "detect", tmp_path / "eval"
    write_dataset(data, labels)
    write_collated(det, scores)
    ev.mkdir()
    (ev / "metrics.json").write_text(json.dumps(metrics))
    return data, det, ev


def good_metrics() -> dict:
    # best cut: score >= 0.35 gives tp 3, fp 1, fn 0
    p, r, f = checks.counts_to_prf1(3, 1, 0)
    return {"threshold": 0.3, "tp": 3, "fp": 1, "fn": 0, "precision": p, "recall": r, "f1": f}


def test_eval_accepts_consistent_metrics(tmp_path):
    assert checks.check_eval(*eval_fixture(tmp_path, good_metrics())) == good_metrics()["f1"]


def test_eval_rejects_tp_off_by_one(tmp_path):
    m = good_metrics()
    m["tp"] += 1
    with pytest.raises(CheckError, match="tp/fp/fn"):
        checks.check_eval(*eval_fixture(tmp_path, m))


def test_eval_rejects_a_threshold_that_is_not_the_best(tmp_path):
    m = {"threshold": 0.85, "tp": 1, "fp": 0, "fn": 2}
    m.update(zip(("precision", "recall", "f1"), checks.counts_to_prf1(1, 0, 2)))
    with pytest.raises(CheckError, match="best F1"):
        checks.check_eval(*eval_fixture(tmp_path, m))


def score_llm_fixture(tmp_path: Path, scored: dict) -> tuple[Path, Path]:
    data, llm = tmp_path / "data", tmp_path / "llm"
    write_dataset(data, [0, 0, 0, 1])
    write_jsonl(data / "llm_fixture.jsonl", {"w0": [0.1, 0.2], "w2": [0.3, 0.9]})
    write_jsonl(llm / "llm_scores.jsonl", scored)
    return data, llm


def test_score_llm_accepts_the_fixture_lookup(tmp_path):
    checks.check_score_llm(*score_llm_fixture(tmp_path, {"w0": [0.1, 0.2], "w2": [0.3, 0.9]}))


def test_score_llm_rejects_a_window_that_differs_from_the_fixture(tmp_path):
    with pytest.raises(CheckError, match="w2 differs"):
        checks.check_score_llm(*score_llm_fixture(tmp_path, {"w0": [0.1, 0.2], "w2": [0.3, 0.8]}))


def test_score_llm_rejects_an_uncovered_slot(tmp_path):
    with pytest.raises(CheckError, match="series has 4"):
        checks.check_score_llm(*score_llm_fixture(tmp_path, {"w0": [0.1, 0.2]}))


def test_gen_data_rejects_labels_outside_the_spans(tmp_path):
    write_dataset(tmp_path, [0, 1, 1, 0, 1, 0])
    spans = [{"start": 1, "end": 3, "kind": "contextual"}, {"start": 4, "end": 5, "kind": "point"}]
    (tmp_path / "metadata.json").write_text(json.dumps({"spans": spans}))
    checks.check_gen_data(tmp_path, 1, 1)
    write_dataset(tmp_path, [1, 1, 1, 0, 1, 0])
    with pytest.raises(CheckError, match="union of spans"):
        checks.check_gen_data(tmp_path, 1, 1)


def test_ablate_rejects_a_row_whose_f1_disagrees_with_its_counts(tmp_path):
    rows = {}
    for name in checks.ABLATION_ROWS:
        p, r, f = checks.counts_to_prf1(8, 2, 2)
        rows[name] = {"tp": 8, "fp": 2, "fn": 2, "precision": p, "recall": r, "f1": f}
    (tmp_path / "metrics.json").write_text(json.dumps({"variants": rows}))
    checks.check_ablate(tmp_path)
    rows["mse"]["f1"] = 0.9
    (tmp_path / "metrics.json").write_text(json.dumps({"variants": rows}))
    with pytest.raises(CheckError, match="mse"):
        checks.check_ablate(tmp_path)
