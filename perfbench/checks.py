"""Output checks for the benchmark, one per `collate` command.

Each check reads a command's artifacts and raises CheckError when they are
wrong. The reference figures are computed here, apart from the program: the
labels from the metadata spans, the best-F1 scan by sort and cumulative sum,
the monotone map from its closed form, and the theorem-2 optimum by
enumerating the box vertices. Where a property of the method is the test (the
trained detector reconstructs better than an untrained one), the program's
own forward pass is used to evaluate it.
"""
from __future__ import annotations

import csv
import hashlib
import itertools
import json
import math
from pathlib import Path

import numpy as np

# The artifacts whose bytes must repeat for identical inputs.
FINGERPRINTED = {
    "tsadm": "tsadm/tsadm.json",
    "llm_scores": "llm/llm_scores.jsonl",
    "pipeline": "collab/pipeline.json",
    "collated": "detect/collated.csv",
    "metrics": "eval/metrics.json",
}

THEORY_REPORTS = ("theorem1", "theorem2", "lemma1", "lipschitz_probe", "alignment_equivalence")
ABLATION_ROWS = ("tsadm_only", "llm_only", "collaborative", "mse", "fixed_weights", "no_alignment")


class CheckError(Exception):
    """An artifact disagrees with what the benchmark computed itself."""


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise CheckError(msg)


def sha256(path: Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def fingerprints(run_dir: Path) -> dict[str, str]:
    return {name: sha256(run_dir / rel) for name, rel in FINGERPRINTED.items()}


def read_dataset(path: Path) -> tuple[np.ndarray, np.ndarray]:
    """Values (T, D) and labels (T,) of a `t,dim_0..,label` CSV."""
    with Path(path).open(newline="") as fh:
        rows = list(csv.reader(fh))
    header = rows[0]
    _require(header[0] == "t" and header[-1] == "label", f"{path}: unexpected header {header}")
    body = np.asarray(rows[1:], dtype=np.float64)
    _require(np.array_equal(body[:, 0], np.arange(len(body))), f"{path}: t is not 0..T-1")
    return body[:, 1:-1], body[:, -1].astype(np.int64)


def read_jsonl_scores(path: Path) -> dict[str, list[float]]:
    table = {}
    for line in Path(path).read_text().splitlines():
        if line.strip():
            obj = json.loads(line)
            table[obj["window_id"]] = obj["scores"]
    return table


def counts_to_prf1(tp: int, fp: int, fn: int) -> tuple[float, float, float]:
    """Precision, recall and F1 with the zero-division conventions of slot-wise
    scoring: 0 when a denominator is 0."""
    precision = tp / (tp + fp) if tp + fp > 0 else 0.0
    recall = tp / (tp + fn) if tp + fn > 0 else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall > 0 else 0.0
    return precision, recall, f1


def best_f1_scan(scores: np.ndarray, labels: np.ndarray) -> float:
    """Best F1 over every cut `score >= v` for a distinct score v, by one
    descending sort and cumulative sums of the labels."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    order = np.argsort(-scores, kind="stable")
    s, y = scores[order], labels[order]
    last_of_value = np.r_[s[1:] != s[:-1], True]
    tp = np.cumsum(y)[last_of_value]
    fp = np.cumsum(1 - y)[last_of_value]
    positives = int(labels.sum())
    return max(counts_to_prf1(a, b, positives - a)[2] for a, b in zip(tp.tolist(), fp.tolist()))


def oracle_loss_closed_form(s_hat: np.ndarray, y: np.ndarray) -> np.ndarray:
    """-sum_ij (y_i - y_j)(S_i - S_j) = -2 (n sum(y S) - sum(y) sum(S)), for
    one score vector or a stack of them."""
    n = y.size
    return -2.0 * (n * (s_hat @ y) - y.sum() * s_hat.sum(axis=-1))


def box_vertex_minimum(y: np.ndarray) -> float:
    """Exact minimum of the (linear) oracle objective over [0, 1]^n: it sits
    at one of the 2^n vertices."""
    y = np.asarray(y, dtype=np.float64)
    vertices = np.array(list(itertools.product((0.0, 1.0), repeat=y.size)))
    return float(oracle_loss_closed_form(vertices, y).min())


def monotone_map(mapping: dict, s: np.ndarray) -> np.ndarray:
    """M(s) = logistic(sum_k softplus(a2_k) tanh(softplus(a1_k) s + b1_k) + b2)."""
    a1, b1, a2 = (np.asarray(mapping[k], dtype=np.float64) for k in ("a1", "b1", "a2"))
    z = np.tanh(np.multiply.outer(s, np.logaddexp(0.0, a1)) + b1) @ np.logaddexp(0.0, a2)
    return 1.0 / (1.0 + np.exp(-(z + float(mapping["b2"]))))


# ---------------------------------------------------------------- commands


def check_gen_data(data_dir: Path, n_contextual: int, n_point: int) -> None:
    """Labels are the union of the metadata spans; spans do not overlap and
    their counts per kind are as requested."""
    _, labels = read_dataset(data_dir / "data.csv")
    spans = json.loads((data_dir / "metadata.json").read_text())["spans"]
    kinds = [s["kind"] for s in spans]
    _require(kinds.count("contextual") == n_contextual,
             f"{kinds.count('contextual')} contextual spans, asked {n_contextual}")
    _require(kinds.count("point") == n_point,
             f"{kinds.count('point')} point spans, asked {n_point}")
    ordered = sorted((s["start"], s["end"]) for s in spans)
    for (_, e1), (s2, _) in zip(ordered, ordered[1:]):
        _require(e1 <= s2, f"spans overlap at slot {s2}")
    union = np.zeros(labels.size, dtype=np.int64)
    for start, end in ordered:
        _require(0 <= start < end <= labels.size, f"span [{start}, {end}) out of range")
        union[start:end] = 1
    _require(np.array_equal(union, labels), "labels differ from the union of spans")


def check_score_llm(data_dir: Path, llm_dir: Path) -> None:
    """Mock scoring is a pure lookup: every window's scores equal its fixture
    entry, and the windows cover every slot once with scores in [0, 1]."""
    _, labels = read_dataset(data_dir / "data.csv")
    fixture = read_jsonl_scores(data_dir / "llm_fixture.jsonl")
    scored = read_jsonl_scores(llm_dir / "llm_scores.jsonl")
    _require(bool(scored), "no windows scored")
    spans = []
    for wid, scores in scored.items():
        _require(wid in fixture, f"window {wid} is not in the fixture")
        _require(scores == fixture[wid], f"window {wid} differs from its fixture entry")
        _require(all(0.0 <= v <= 1.0 for v in scores), f"window {wid} leaves [0, 1]")
        spans.append((int(wid[1:]), len(scores)))
    spans.sort()
    cursor = 0
    for start, n in spans:
        _require(start == cursor, f"slot {cursor} is covered {'twice' if start < cursor else 'never'}")
        cursor = start + n
    _require(cursor == labels.size, f"windows end at slot {cursor}, series has {labels.size}")


def check_train_tsadm(data_dir: Path, tsadm_dir: Path) -> None:
    """The trained detector reconstructs the training windows better than an
    untrained model of the same config and seed."""
    from collate.tsadm import TsadmConfig, TsadmModel

    values, _ = read_dataset(data_dir / "data.csv")
    ckpt = tsadm_dir / "tsadm.json"
    trained = TsadmModel.load(ckpt)
    cfg = TsadmConfig(**json.loads(ckpt.read_text())["config"])
    untrained = TsadmModel(trained.dims, cfg)
    train = values[: int(values.shape[0] * 0.4)]
    n_win = train.shape[0] // cfg.winLen
    batch = train[: n_win * cfg.winLen].reshape(n_win, cfg.winLen, train.shape[1])

    def loss(model) -> float:
        recon = model.forward(batch)[0]
        return float(np.mean((recon - batch) ** 2))

    after, before = loss(trained), loss(untrained)
    _require(math.isfinite(after) and after < before,
             f"reconstruction loss {after} is not below untrained {before}")


def check_train_collab(collab_dir: Path) -> None:
    """Finite loss curves, and a saved map that never decreases on a grid."""
    for name in ("loss_curves.csv", "kl_curve.csv"):
        rows = list(csv.reader((collab_dir / name).open()))[1:]
        _require(bool(rows), f"{name} is empty")
        vals = np.asarray(rows, dtype=np.float64)
        _require(bool(np.isfinite(vals).all()), f"{name} holds a non-finite value")
    mapping = json.loads((collab_dir / "pipeline.json").read_text())["mapping"]
    _require(mapping is not None, "the collaborative pipeline has no map")
    grid = np.linspace(-2.0, 4.0, 6001)
    mapped = monotone_map(mapping, grid)
    _require(bool(np.isfinite(mapped).all()), "map output is not finite")
    _require(bool((np.diff(mapped) >= 0).all()), "map decreases on a sorted grid")


def read_collated(path: Path) -> tuple[np.ndarray, np.ndarray]:
    lines = Path(path).read_text().splitlines()
    _require(lines[0] == "t,score", f"header {lines[0]!r}")
    t = np.array([int(ln.split(",")[0]) for ln in lines[1:]])
    s = np.array([float(ln.split(",")[1]) for ln in lines[1:]])
    return t, s


def check_detect(detect_dir: Path, length: int) -> None:
    """One row per slot, t in order, every score finite and inside (0, 1)."""
    t, s = read_collated(detect_dir / "collated.csv")
    _require(np.array_equal(t, np.arange(length)), "rows are not t = 0..T-1 in order")
    _require(bool(np.isfinite(s).all()), "a collated score is not finite")
    _require(bool(((s > 0.0) & (s < 1.0)).all()),
             f"scores reach the closed interval (min {float(s.min())!r}, max {float(s.max())!r})")


def check_eval(data_dir: Path, detect_dir: Path, eval_dir: Path) -> float:
    """Counts and P/R/F1 at the reported threshold, and the best F1 over all
    cut points, recomputed from collated.csv and the labels. Returns F1."""
    _, labels = read_dataset(data_dir / "data.csv")
    _, scores = read_collated(detect_dir / "collated.csv")
    m = json.loads((eval_dir / "metrics.json").read_text())
    pred = scores > m["threshold"]
    tp = int(np.sum(pred & (labels == 1)))
    fp = int(np.sum(pred & (labels == 0)))
    fn = int(np.sum(~pred & (labels == 1)))
    _require((tp, fp, fn) == (m["tp"], m["fp"], m["fn"]),
             f"tp/fp/fn {tp}/{fp}/{fn} at the threshold, metrics.json says "
             f"{m['tp']}/{m['fp']}/{m['fn']}")
    _require(counts_to_prf1(tp, fp, fn) == (m["precision"], m["recall"], m["f1"]),
             "P/R/F1 disagree with tp/fp/fn")
    best = best_f1_scan(scores, labels)
    _require(best == m["f1"], f"best F1 over all cuts is {best!r}, reported {m['f1']!r}")
    return float(m["f1"])


def check_ablate(ablate_dir: Path) -> dict[str, float]:
    """Every variant row's P/R/F1 follow from its counts, and every row
    scores the same positives. Returns F1 per row."""
    variants = json.loads((ablate_dir / "metrics.json").read_text())["variants"]
    _require(sorted(variants) == sorted(ABLATION_ROWS), f"rows {sorted(variants)}")
    positives = {r["tp"] + r["fn"] for r in variants.values()}
    _require(len(positives) == 1, f"rows disagree on tp+fn: {sorted(positives)}")
    for name, r in variants.items():
        _require(counts_to_prf1(r["tp"], r["fp"], r["fn"]) == (r["precision"], r["recall"], r["f1"]),
                 f"row {name} P/R/F1 disagree with its counts")
    return {name: r["f1"] for name, r in variants.items()}


def check_verify(verify_dir: Path) -> dict[str, bool]:
    """All five theory reports with finite statistics, and theorem1's exact
    value equal to its closed form. Returns the pass flag per report."""
    reports = json.loads((verify_dir / "theory_reports.json").read_text())
    by_name = {r["theorem"]: r for r in reports}
    _require(sorted(by_name) == sorted(THEORY_REPORTS), f"reports {sorted(by_name)}")
    for name, r in by_name.items():
        _require(math.isfinite(r["statistic"]) and math.isfinite(r["bound"]),
                 f"{name} has a non-finite statistic or bound")
    # NoiseModel defaults and lambda1 = 0.6, as run_all_checks sets them.
    mu_s, sigma_s, mu_llm, sigma_llm, lam1 = 0.1, 0.05, 0.2, 0.05, 0.6
    lam2 = 1.0 - lam1
    exact = (lam1 * mu_s + lam2 * mu_llm) ** 2 + lam1**2 * sigma_s**2 + lam2**2 * sigma_llm**2
    reported = by_name["theorem1"]["details"]["exact"]
    _require(math.isclose(reported, exact, rel_tol=1e-12),
             f"theorem1 exact {reported!r} differs from the closed form {exact!r}")
    return {name: bool(r["pass"]) for name, r in by_name.items()}


def check_brute_force(seed: int, instances: int = 6) -> None:
    """`theory.brute_force_optimal` reaches the exact box-vertex minimum on
    seeded instances with n = 3..8."""
    from collate.theory import brute_force_optimal

    rng = np.random.default_rng(seed)
    for i in range(instances):
        n = 3 + i % 6
        y = rng.uniform(0.0, 1.0, n)
        exact = box_vertex_minimum(y)
        got = brute_force_optimal(y, seed=seed + i).loss
        _require(abs(got - exact) <= 1e-9 * (1.0 + abs(exact)),
                 f"brute_force_optimal loss {got!r} misses the vertex minimum {exact!r} (n={n})")
