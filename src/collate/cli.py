"""Command-line entry point: generation, training, scoring, detection,
evaluation, theory verification, and ablations.

Each subparser names its handler (``set_defaults(run=cmd_x)``); every
handler takes ``(cfg, out_dir, args)``, and ``main`` calls it once. Every
run config, ``ablate``'s own included, comes from ``load_config``:
``RunConfig``'s defaults, then the ``--config`` JSON file (unknown keys
rejected), then ``--seed``, validated once. Every command is re-runnable
with identical outputs for identical inputs, and writes a manifest (inputs
with hashes, seed, version) next to its artifacts so a run can be replayed
exactly. Each manifest also holds the command's ``counters`` (its slots,
spans, windows, steps, blocks, batches or epochs) and, as ``timings``, the
wall seconds of its phases (``<phase>_s``: build, read, train, score,
write); ``verify`` keys both by report. ``ablate`` keys its counters by
variant and its timings by stack: the three variants that train the
mapping share one lockstep ``train_collab`` call, timed as
``mapping_variants_train_s``, and ``no_alignment`` trains in its own. Exit
codes: 0 success, 1 verification failure or bad input, 2 usage error or
missing artifact.
``main`` makes the ``--out`` directory once the config has loaded; a path
that cannot be made a directory (a file, or a path under one) exits 2.

``score-llm`` alone reads ``llm_mode``: ``mock:<fixture>`` reads LLM scores
from a file, ``live:<url>`` asks the endpoint through ``llm.score_windows``.
A live target that does not start with ``http://`` or ``https://``, names
no host, or names a port that is not an integer in [0, 65535], exits 2
before any request. ``eval --metadata`` exits 1 with one
``error:`` line when the file is not JSON, a span is malformed (a key
missing, an unknown kind, not 0 <= start < end), or the spans overlap or
differ from the label column. ``eval`` also exits 1 when ``collated.csv``
does not list the dataset's slots in order, one row each, as ``detect``
writes them. A checkpoint
(``tsadm.json``, ``pipeline.json``) that is not JSON, or that its loader
rejects, exits 1 with one ``error:`` line naming the file: a key missing,
an unknown version or scorer kind, a detector setting that is not a
positive integer, arrays whose shapes disagree, a mapping whose ``hidden``
is not its arrays' length, a value that is not finite, a fusion net whose
input width differs from its scorer's, or a range divisor that is not
finite and positive. ``collab.train_collab`` takes one run config and
the loss variants to train from it in lockstep: ``ablate`` passes a stack
of variants, and ``train-collab`` and each ``ablate --grid`` point pass
the config's own ``loss_variant`` alone.
LLM score files (the mock fixture, and ``--llm-scores`` of ``train-collab``
and ``detect``) go through one loader, ``llm.load_fixture``, so all three
commands treat a bad file alike: a window missing from it, a window with the
wrong number of scores, a score outside [0, 1], a score that is not finite,
or a line that is not a {"window_id": ..., "scores": [numbers]} object exits
1 with one ``error:`` line. An input file that does not exist, or is a
directory, exits 2.

Each command runs in a fresh interpreter, so a command imports only what it
runs. Importing this module loads numpy and what ``eval`` runs: ``data``,
``core``, ``errors`` and ``evaluate``. Every other module (``tsadm``,
``llm``, ``collab``, ``benchmark``, ``theory``, and live ``score-llm``'s
HTTP client and thread pool) is imported inside the commands that run it:
``gen-data`` adds only ``benchmark`` and ``llm``, and no training module.
"""
from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import sys
import time
import urllib.parse
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from . import __version__, data as data_mod
from .core import LossVariant
from .errors import CollateError, ConfigError, MissingArtifact, ParseError
from .evaluate import (
    best_f1_threshold,
    emit_report,
    per_kind_metrics,
    score_overlay_svg,
)

if TYPE_CHECKING:
    from .tsadm import TsadmConfig


@dataclass
class RunConfig:
    """Validated run settings; key names mirror the documented hyperparameter
    table, plus artifact knobs (epochs, widths, window length, modes)."""

    winLen: int = 16
    moduleNum: int = 3
    batchSize: int = 100
    trlr: float = 0.01
    colr: float = 0.01
    patchSize: int = 2
    kLen: int = 2
    d: float = 1.0
    lambda_hat: float = 1.0
    seed: int = 0
    embed: int = 4
    epochs_tsadm: int = 60
    epochs_collab: int = 150
    mapping_hidden: int = 8
    cond_hidden: int = 16
    window_len: int = 500
    llm_mode: str = "mock:llm_fixture.jsonl"
    loss_variant: str = "collaborative"

    _RANGES = {
        "winLen": (2, 10_000),
        "moduleNum": (1, 64),
        "batchSize": (2, 1_000_000),
        "patchSize": (2, 10_000),
        "kLen": (1, 256),
        "embed": (1, 256),
        "epochs_tsadm": (1, 100_000),
        "epochs_collab": (1, 100_000),
        "mapping_hidden": (1, 1024),
        "cond_hidden": (1, 4096),
        "window_len": (2, 10_000_000),
    }

    def validate(self) -> None:
        """Raise ConfigError on a bad field. JSON's true and false are not
        numbers here, though Python's bool is an int."""
        for name, (lo, hi) in self._RANGES.items():
            v = getattr(self, name)
            if isinstance(v, bool) or not isinstance(v, int) or not (lo <= v <= hi):
                raise ConfigError(f"{name} must be an integer in [{lo}, {hi}], got {v!r}")
        for name in ("trlr", "colr", "d", "lambda_hat"):
            v = getattr(self, name)
            if isinstance(v, bool) or not isinstance(v, (int, float)) or not 0 < v < 1e6:
                raise ConfigError(f"{name} must be a positive real, got {v!r}")
        if isinstance(self.seed, bool) or not isinstance(self.seed, int) or self.seed < 0:
            raise ConfigError(f"seed must be a non-negative integer, got {self.seed!r}")
        variants = sorted(v.value for v in LossVariant)
        if not isinstance(self.loss_variant, str) or self.loss_variant not in variants:
            raise ConfigError(f"loss_variant must be one of {variants}, got {self.loss_variant!r}")
        if self.patchSize > self.window_len:
            raise ConfigError(f"patchSize must not exceed window_len {self.window_len}, "
                              f"got {self.patchSize}")
        mode, _, target = (self.llm_mode if isinstance(self.llm_mode, str) else "").partition(":")
        try:
            url = urllib.parse.urlsplit(target)
            # reading the port raises on one that is not an integer in [0, 65535]
            _, host = url.port, url.hostname
        except ValueError:
            host = None
        live = target.startswith(("http://", "https://")) and host
        if not (mode == "mock" or mode == "live" and live):
            raise ConfigError("llm_mode must look like 'mock:<fixture>' or 'live:<url>'")

    def tsadm_config(self) -> TsadmConfig:
        from .tsadm import TsadmConfig

        return TsadmConfig(winLen=self.winLen, moduleNum=self.moduleNum, kLen=self.kLen,
                           embed=self.embed, trlr=self.trlr, epochs=self.epochs_tsadm,
                           batchSize=self.batchSize, seed=self.seed)


def load_config(path: str | Path | None, overrides: dict) -> RunConfig:
    """The validated run config: ``RunConfig``'s defaults, then the JSON
    object in the file at ``path`` (if any), then ``overrides``."""
    try:
        raw = {} if path is None else json.loads(_require(Path(path), "config file").read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from None
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    unknown = set(raw) - {f.name for f in dataclasses.fields(RunConfig)}
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    cfg = RunConfig(**{**raw, **overrides})
    cfg.validate()
    return cfg


def write_manifest(out_dir: Path, command: str, cfg: RunConfig, inputs: list[Path],
                   outputs: list[Path], counters: dict, timings: dict,
                   config: dict | None = None) -> None:
    """``config`` is what the command ran with; None means the whole run
    config."""
    manifest = {
        "command": command,
        "version": __version__,
        "seed": cfg.seed,
        "config": dataclasses.asdict(cfg) if config is None else config,
        "inputs": {str(p): hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(inputs)},
        "outputs": sorted(str(p) for p in outputs),
        "counters": counters,
        "timings": timings,
    }
    (out_dir / "manifest.json").write_text(json.dumps(manifest, sort_keys=True, indent=1))


def _require(path: Path, what: str) -> Path:
    """``path``, if it names a file; a directory counts as missing."""
    if not path.is_file():
        raise MissingArtifact(f"{what} not found at {path}")
    return path


def _read_spans(path: Path, series: data_mod.LabeledSeries) -> list[data_mod.AnomalySpan]:
    """The metadata's spans, checked against ``series``'s label column: spans
    that overlap, or whose union is not the labelled slots, raise ParseError
    naming the first slot where the two disagree."""
    _, spans = data_mod.read_metadata(_require(path, "metadata"))
    cover = np.bincount(data_mod.occupied_slots(spans), minlength=series.length)
    differ = np.flatnonzero(cover != np.pad(series.labels, (0, cover.size - series.length)))
    if differ.size:
        raise ParseError("metadata spans and the label column disagree at slot "
                         f"{series.start_index + differ[0]}")
    return spans


def _window_counts(windows: list[data_mod.TimeSeriesWindow]) -> dict:
    """The manifest counters of a command that scores every window."""
    return {"windows": len(windows), "slots": sum(w.length for w in windows)}


def cmd_gen_data(cfg: RunConfig, out_dir: Path, args: argparse.Namespace) -> int:
    """Generate the synthetic benchmark series, labels, metadata sidecar, and
    a mock LLM fixture covering its windows."""
    from .benchmark import BenchmarkConfig, build_benchmark

    start = time.perf_counter()
    bench = build_benchmark(BenchmarkConfig(
        length=args.length, seed=cfg.seed, n_contextual=args.contextual,
        n_point=args.point, window_len=cfg.window_len,
    ))
    built_at = time.perf_counter()
    data_path = out_dir / "data.csv"
    meta_path = out_dir / "metadata.json"
    fixture_path = out_dir / "llm_fixture.jsonl"
    data_mod.save_csv(bench.series, data_path)
    data_mod.write_metadata(meta_path, args.length, bench.series.spans, cfg.seed)
    bench.write_llm_fixture(fixture_path)
    timings = {"build_s": built_at - start, "write_s": time.perf_counter() - built_at}
    write_manifest(out_dir, "gen-data", cfg, [], [data_path, meta_path, fixture_path],
                   {"slots": args.length, "spans": len(bench.series.spans)}, timings)
    print(f"wrote {data_path}, {meta_path}, {fixture_path}")
    return 0


def cmd_train_tsadm(cfg: RunConfig, out_dir: Path, args: argparse.Namespace) -> int:
    from .tsadm import train_tsadm

    series = data_mod.load_csv(_require(args.data, "dataset CSV"))
    train, _val, _test = data_mod.split(series)
    counters: dict = {}
    start = time.perf_counter()
    model = train_tsadm(train.values, cfg.tsadm_config(), counters)
    train_s = time.perf_counter() - start
    ckpt = out_dir / "tsadm.json"
    model.save(ckpt)
    write_manifest(out_dir, "train-tsadm", cfg, [args.data], [ckpt], counters,
                   {"train_s": train_s})
    print(f"wrote {ckpt}")
    return 0


def cmd_score_llm(cfg: RunConfig, out_dir: Path, args: argparse.Namespace) -> int:
    """Request LLM scores for every window of the dataset, one zero-shot
    prompt per window in live mode.

    ``llm_mode`` is ``mock:<fixture>`` or ``live:<url>``. A relative mock
    fixture path names a file next to the dataset, where ``gen-data`` writes
    it, whatever the working directory; the fixture is read once and no
    prompt is built. A window too long for one prompt is a config error
    (exit 2).
    """
    from .llm import load_fixture, score_windows, write_fixture

    series = data_mod.load_csv(_require(args.data, "dataset CSV"))
    parts = data_mod.split_windows(series, cfg.window_len)
    windows = parts["train"] + parts["val"] + parts["test"]
    mode, _, target = cfg.llm_mode.partition(":")
    inputs = [args.data]
    start = time.perf_counter()
    if mode == "mock":
        fixture = _require(args.data.parent / target, "mock fixture")
        inputs.append(fixture)
        scored = load_fixture(fixture, windows)
    else:
        scored = score_windows(target, windows)
    scored_at = time.perf_counter()
    out_path = out_dir / "llm_scores.jsonl"
    write_fixture(out_path, scored)
    write_manifest(out_dir, "score-llm", cfg, inputs, [out_path], _window_counts(windows),
                   {"score_s": scored_at - start, "write_s": time.perf_counter() - scored_at})
    print(f"wrote {out_path}")
    return 0


def cmd_train_collab(cfg: RunConfig, out_dir: Path, args: argparse.Namespace) -> int:
    from .collab import train_collab
    from .llm import load_fixture
    from .tsadm import TsadmModel

    series = data_mod.load_csv(_require(args.data, "dataset CSV"))
    windows = data_mod.split_windows(series, cfg.window_len)["train"]
    model = TsadmModel.load(_require(args.tsadm, "detector checkpoint"))
    llm_scores = load_fixture(_require(args.llm_scores, "LLM scores"), windows)
    start = time.perf_counter()
    ((pipeline, curves),) = train_collab(windows, model, llm_scores, cfg,
                                         [LossVariant(cfg.loss_variant)])
    train_s = time.perf_counter() - start
    ckpt = out_dir / "pipeline.json"
    pipeline.save(ckpt)
    curve_rows = [
        [i, a, p] for i, (a, p) in enumerate(zip(curves.alignment_loss, curves.pairwise_loss))
    ]
    kl_rows = [[i, k, curves.kl_raw] for i, k in enumerate(curves.kl_aligned)]
    emit_report(
        out_dir,
        {"final_alignment_loss": curves.alignment_loss[-1],
         "final_pairwise_loss": curves.pairwise_loss[-1],
         "kl_raw": curves.kl_raw,
         "config_echo": dataclasses.asdict(cfg), "seed": cfg.seed},
        curves={
            "loss_curves": (["epoch", "alignment_loss", "pairwise_loss"], curve_rows),
            "kl_curve": (["iteration", "kl_aligned", "kl_raw"], kl_rows),
        },
    )
    counters = {"steps": curves.steps, "epochs": len(curves.pairwise_loss),
                "blocks": curves.blocks}
    write_manifest(out_dir, "train-collab", cfg, [args.data, args.tsadm, args.llm_scores],
                   [ckpt], counters, {"train_s": train_s})
    print(f"wrote {ckpt}")
    return 0


def cmd_detect(cfg: RunConfig, out_dir: Path, args: argparse.Namespace) -> int:
    from .collab import FusionPipeline, detect
    from .llm import load_fixture

    pipeline = FusionPipeline.load(_require(args.pipeline, "pipeline checkpoint"))
    series = data_mod.load_csv(_require(args.data, "dataset CSV"))
    parts = data_mod.split_windows(series, cfg.window_len)
    windows = parts["train"] + parts["val"] + parts["test"]
    llm_scores = load_fixture(_require(args.llm_scores, "LLM scores"), windows)
    start = time.perf_counter()
    fused = [detect(pipeline, w, llm_scores[w.window_id()]) for w in windows]
    scored_at = time.perf_counter()
    lines = ["t,score"]
    for w, scores in zip(windows, fused):
        slots = range(w.start_index, w.start_index + scores.size)
        lines += map("{},{!r}".format, slots, scores.tolist())
    out_path = out_dir / "collated.csv"
    out_path.write_text("\n".join(lines) + "\n")
    write_manifest(out_dir, "detect", cfg, [args.data, args.pipeline, args.llm_scores],
                   [out_path], _window_counts(windows),
                   {"score_s": scored_at - start, "write_s": time.perf_counter() - scored_at})
    print(f"wrote {out_path}")
    return 0


def _load_collated(path: Path, series: data_mod.LabeledSeries) -> np.ndarray:
    """The scores of ``detect``'s `t,score` file, one row per slot of
    ``series`` in order. A row that ``data.parse_rows`` rejects, a first slot
    other than the dataset's, or a row past its last slot raises ParseError
    with the line number; a file that ends early names its first missing
    slot."""
    lines = data_mod.read_lines(_require(path, "collated scores"))
    ts, scores, _ = data_mod.parse_rows(lines, 1, labelled=False)
    lo, n = series.start_index, series.length
    if ts[0] != lo:
        raise ParseError(f"slot {ts[0]} is not the dataset's first slot {lo}", line=2)
    if ts.size > n:
        raise ParseError(f"slot {ts[n]} lies outside the dataset", line=n + 2)
    if ts.size < n:
        raise ParseError(f"slot {lo + ts.size} has no collated score")
    return scores[:, 0]


def cmd_eval(cfg: RunConfig, out_dir: Path, args: argparse.Namespace) -> int:
    start = time.perf_counter()
    series = data_mod.load_csv(_require(args.data, "dataset CSV"))
    if series.labels is None:
        raise MissingArtifact("evaluation needs a labeled dataset")
    spans = [] if args.metadata is None else _read_spans(args.metadata, series)
    scores = _load_collated(args.collated, series)
    read_at = time.perf_counter()
    if spans:
        metrics = per_kind_metrics(scores, spans)
    else:
        _thr, metrics = best_f1_threshold(scores, series.labels)
    scored_at = time.perf_counter()
    payload = metrics.to_dict()
    payload["config_echo"] = dataclasses.asdict(cfg)
    payload["seed"] = cfg.seed
    svg = score_overlay_svg(
        series.values, scores, series.labels, metrics.threshold, title="collated scores"
    )
    written = emit_report(out_dir, payload, plots={"overlay": svg})
    timings = {"read_s": read_at - start, "score_s": scored_at - read_at,
               "write_s": time.perf_counter() - scored_at}
    inputs = [p for p in (args.data, args.collated, args.metadata) if p is not None]
    write_manifest(out_dir, "eval", cfg, inputs, written,
                   {"slots": series.length, "spans": len(spans)}, timings)
    print(f"wrote {written[0]}")
    print(json.dumps({k: payload[k] for k in ("precision", "recall", "f1")}))
    return 0


def cmd_verify(cfg: RunConfig, out_dir: Path, args: argparse.Namespace) -> int:
    """Run the full theory suite; nonzero exit if any report fails. Each
    printed line says whether the statistic must reach its bound or stay
    under it."""
    from .theory import run_all_checks

    counters: dict = {}
    timings: dict = {}
    reports = run_all_checks(seed=cfg.seed, counters=counters, timings=timings)
    out_path = out_dir / "theory_reports.json"
    out_path.write_text(
        "[\n" + ",\n".join(r.to_json() for r in reports) + "\n]\n"
    )
    all_pass = True
    for r in reports:
        status = "PASS" if r.passed else "FAIL"
        direction = "must reach" if r.bound_is_floor else "must stay under"
        print(f"[{status}] {r.theorem}: statistic={r.statistic:.6g} "
              f"{direction} bound={r.bound:.6g}")
        all_pass &= r.passed
    write_manifest(out_dir, "verify", cfg, [], [out_path], counters, timings,
                   config={"seed": cfg.seed})
    return 0 if all_pass else 1


def _grid_points(grid: str, cfg: RunConfig) -> list[RunConfig]:
    """``cfg`` at each (d, patchSize) point of an ``ablate --grid`` JSON
    object whose keys are among d and patchSize, each a nonempty list; a key
    left out keeps ``cfg``'s value. Every point must pass the config file's
    checks."""
    try:
        spec = json.loads(grid)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"--grid must be JSON: {exc}") from None
    if not isinstance(spec, dict):
        raise ConfigError("--grid must be a JSON object")
    unknown = set(spec) - {"d", "patchSize"}
    if unknown:
        raise ConfigError(f"--grid keys must be among ['d', 'patchSize'], got {sorted(unknown)}")
    for key, values in spec.items():
        if not isinstance(values, list) or not values:
            raise ConfigError(f"--grid {key} must be a nonempty list, got {values!r}")
    points = [dataclasses.replace(cfg, d=d, patchSize=ps) for d in spec.get("d", [cfg.d])
              for ps in spec.get("patchSize", [cfg.patchSize])]
    for point in points:
        try:
            point.validate()
        except ConfigError as exc:
            raise ConfigError(f"--grid: {exc}") from None
    return points


def cmd_ablate(cfg: RunConfig, out_dir: Path, args: argparse.Namespace) -> int:
    """Run the complementary-scorer benchmark over every fusion variant (plus
    single-model rows); optionally sweep a JSON grid of hyperparameters."""
    from .benchmark import (
        ABLATION_BATCH_SIZE, BenchmarkConfig, build_benchmark, run_ablation, run_variants,
    )

    # what the ablation runs with; the run config's training keys do not reach it
    run = load_config(None, {"seed": cfg.seed, "batchSize": ABLATION_BATCH_SIZE})
    points = _grid_points(args.grid, run) if args.grid else []
    bench = build_benchmark(BenchmarkConfig(seed=cfg.seed))
    counters, timings = {}, {}
    results = run_ablation(bench, run, counters, timings)
    for name, m in results.items():
        print(f"{name:15s} F1={m.f1:.4f}")
    echo = {"benchmark": dataclasses.asdict(bench.cfg), "run": dataclasses.asdict(run)}
    payload = {
        "variants": {n: m.to_dict() for n, m in results.items()},
        "config_echo": echo,
        "seed": cfg.seed,
    }
    rows = [[n, m.precision, m.recall, m.f1] for n, m in results.items()]
    curves = {"ablation": (["variant", "precision", "recall", "f1"], rows)}
    if points:
        grid_rows = []
        for point in points:
            f1 = run_variants(bench, point, [LossVariant(point.loss_variant)])[0][0].f1
            grid_rows.append([point.d, point.patchSize, f1])
            print(f"grid d={point.d} patchSize={point.patchSize}: F1={f1:.4f}")
        payload["grid"] = grid_rows
        curves["grid"] = (["d", "patchSize", "f1"], grid_rows)
    outputs = emit_report(out_dir, payload, curves=curves)
    write_manifest(out_dir, "ablate", cfg, [], outputs, counters, timings, config=echo)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="collate",
        description="Collaborative anomaly scoring: detector + LLM fusion.",
    )
    parser.add_argument("--config", type=Path, help="JSON run config")
    parser.add_argument("--seed", type=int, help="override config seed")
    parser.add_argument("--out", type=Path, default=Path("runs/latest"),
                        help="output directory")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="generate the synthetic benchmark")
    p.set_defaults(run=cmd_gen_data)
    p.add_argument("--length", type=int, default=10_000)
    p.add_argument("--contextual", type=int, default=10)
    p.add_argument("--point", type=int, default=10)

    p = sub.add_parser("train-tsadm", help="train the attention detector")
    p.set_defaults(run=cmd_train_tsadm)
    p.add_argument("--data", type=Path, required=True)

    p = sub.add_parser("score-llm", help="fetch LLM scores per window")
    p.set_defaults(run=cmd_score_llm)
    p.add_argument("--data", type=Path, required=True)

    p = sub.add_parser("train-collab", help="train mapping + fusion network")
    p.set_defaults(run=cmd_train_collab)
    p.add_argument("--data", type=Path, required=True)
    p.add_argument("--tsadm", type=Path, required=True)
    p.add_argument("--llm-scores", type=Path, required=True)

    p = sub.add_parser("detect", help="emit collated scores for a dataset")
    p.set_defaults(run=cmd_detect)
    p.add_argument("--data", type=Path, required=True)
    p.add_argument("--pipeline", type=Path, required=True)
    p.add_argument("--llm-scores", type=Path, required=True)

    p = sub.add_parser("eval", help="score detection output against labels")
    p.set_defaults(run=cmd_eval)
    p.add_argument("--data", type=Path, required=True)
    p.add_argument("--collated", type=Path, required=True)
    p.add_argument("--metadata", type=Path)

    p = sub.add_parser("verify", help="numerically verify the theory suite")
    p.set_defaults(run=cmd_verify)

    p = sub.add_parser("ablate", help="run fusion-variant comparison")
    p.set_defaults(run=cmd_ablate)
    p.add_argument("--grid", type=str, help='JSON grid, e.g. {"d": [0.5, 1.0]}')

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    overrides = {} if args.seed is None else {"seed": args.seed}
    try:
        cfg = load_config(args.config, overrides)
        out: Path = args.out
        try:
            out.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"cannot make output directory {out}: {exc.strerror}") from None
        return args.run(cfg, out, args)
    except (ConfigError, MissingArtifact) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CollateError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
