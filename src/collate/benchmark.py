"""Complementary-scorer benchmark on synthetic delayed-feedback series.

Builds a series with known contextual and point anomalies, a simulated
detector that excels on contextual anomalies, and a mock LLM that excels on
point anomalies, then trains and evaluates fusion variants. The simulated
detector replays its scores through PrecomputedScorer and the mock LLM's
pass the score file's checks, so both are checked as real scores are. Their
skill profiles mirror the observed complementarity of reconstruction
detectors (miss isolated spikes scored by context) and LLM scorers (miss
sustained statistical drifts, catch rule-breaking single slots).
"""
from __future__ import annotations

import time
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING

import numpy as np

from . import data as data_mod
from .core import LossVariant, PrecomputedScorer, TimeSeriesWindow
from .data import AnomalyKind, LabeledSeries
from .errors import ConfigError
from .evaluate import DetectionMetrics, labels_from_spans, per_kind_metrics
from .llm import fixture_scores, write_fixture

if TYPE_CHECKING:
    from .cli import RunConfig

# simulated detector (contextual expert)
DET_FLOOR = 0.5
DET_NOISE = 0.05
DET_GAIN = 2.0
DET_HIT_RATE = 1.0
# mock LLM (point expert; partial, noisy contextual skill)
LLM_NOISE = 0.005
LLM_POINT_LEVEL = 0.9
LLM_POINT_JITTER = 0.04
LLM_CTX_HIT = 0.4
LLM_CTX_LEVEL = 0.35
LLM_CTX_JITTER = 0.08
# Phase-2 batch size tuned for this benchmark: one whole window per batch so
# the pairwise terms compare anomalous spans against plenty of background,
# not mostly against themselves.
ABLATION_BATCH_SIZE = 500


@dataclass(frozen=True)
class BenchmarkConfig:
    length: int = 10_000
    seed: int = 7
    n_contextual: int = 10
    n_point: int = 10
    window_len: int = 500


@dataclass
class Benchmark:
    cfg: BenchmarkConfig
    series: LabeledSeries
    test: LabeledSeries
    # the simulated detector's raw scores, one per slot
    detector_raw: np.ndarray
    llm_by_slot: np.ndarray
    # the CLI's windows of each split part, keyed 'train'/'val'/'test'
    windows: dict[str, list[TimeSeriesWindow]]

    @cached_property
    def scorer(self) -> PrecomputedScorer:
        """The simulated detector, built on first read: gen-data never reads it."""
        return PrecomputedScorer(self.detector_raw, _representation(self.series.values))

    def llm_scores_for(self, windows: list[TimeSeriesWindow]) -> dict[str, np.ndarray]:
        """The mock LLM's scores for ``windows``, checked as a score file's are."""
        return fixture_scores(
            {w.window_id(): self.llm_by_slot[w.start_index : w.start_index + w.length]
             for w in windows},
            windows,
        )

    def write_llm_fixture(self, path) -> None:
        w = self.windows
        write_fixture(path, self.llm_scores_for(w["train"] + w["val"] + w["test"]))


def _rolling_mean(x: np.ndarray, half: int) -> np.ndarray:
    n = x.size
    pad = np.pad(x, half, mode="edge")
    kernel = np.ones(2 * half + 1) / (2 * half + 1)
    return np.convolve(pad, kernel, mode="valid")[:n]


def _representation(values: np.ndarray) -> np.ndarray:
    """Smooth local-context features standing in for detector hidden states:
    the value and two rolling means. Deliberately free of spike detectors; the
    fusion net should read anomaly evidence from the two score inputs, with
    the representation only situating them in the local signal regime."""
    x = values[:, 0]
    return np.stack([x, _rolling_mean(x, 2), _rolling_mean(x, 12)], axis=1)


def build_benchmark(cfg: BenchmarkConfig) -> Benchmark:
    """Series + splits + complementary scorers + per-slot mock LLM scores.

    Anomaly counts are allocated to the split regions (40/10/50) so every
    split contains both kinds: 4+4 train, 1+1 val, 5+5 test for the default
    ten of each. Fewer than three of a kind, or a series no longer than the
    generator's delay, raises ConfigError.
    """
    if cfg.n_contextual < 3 or cfg.n_point < 3:
        raise ConfigError("need at least three anomalies of each kind to cover splits, got "
                          f"{cfg.n_contextual} contextual and {cfg.n_point} point")
    if cfg.length <= data_mod.TAU:
        raise ConfigError(f"length must exceed the delay {data_mod.TAU}, got {cfg.length}")
    base = data_mod.gen_mackey_glass(cfg.length, cfg.seed)
    t = cfg.length
    a, b = data_mod.split_bounds(t)
    regions = [(0, a), (a, b), (b, t)]
    c_alloc = _allocate(cfg.n_contextual)
    p_alloc = _allocate(cfg.n_point)
    series = base
    margin = data_mod.SPAN_RANGE[1] + 2
    for i, (region, c_count, p_count) in enumerate(zip(regions, c_alloc, p_alloc)):
        lo, hi = region
        inner = (lo + margin, hi - margin)
        if c_count:
            series = data_mod.insert_contextual_anomalies(
                series, c_count, seed=cfg.seed + 11 + i, region=inner
            )
        if p_count:
            series = data_mod.insert_point_anomalies(
                series, p_count, seed=cfg.seed + 17 + i, region=inner
            )

    rng = np.random.default_rng(cfg.seed + 23)
    contextual = labels_from_spans(series.spans, t, AnomalyKind.CONTEXTUAL) == 1
    point = labels_from_spans(series.spans, t, AnomalyKind.POINT) == 1

    raw = DET_FLOOR + np.abs(rng.normal(0.0, DET_NOISE, t))
    hit = contextual & (rng.uniform(0.0, 1.0, t) < DET_HIT_RATE)
    raw = raw + hit * np.abs(DET_GAIN * (1.0 + rng.normal(0.0, 0.1, t)))

    llm = np.abs(rng.normal(0.0, LLM_NOISE, t))
    llm = np.where(point, LLM_POINT_LEVEL + rng.normal(0.0, LLM_POINT_JITTER, t), llm)
    ctx_hit = contextual & (rng.uniform(0.0, 1.0, t) < LLM_CTX_HIT)
    llm = np.where(ctx_hit, LLM_CTX_LEVEL + rng.normal(0.0, LLM_CTX_JITTER, t), llm)
    llm = np.clip(llm, 0.0, 1.0)

    _, _, test = data_mod.split(series)
    return Benchmark(
        cfg=cfg,
        series=series,
        test=test,
        detector_raw=raw,
        llm_by_slot=llm,
        windows=data_mod.split_windows(series, cfg.window_len),
    )


def _allocate(count: int) -> tuple[int, int, int]:
    """Distribute anomaly events over (train, val, test) regions: test gets
    half, validation one, training the rest."""
    test = count // 2
    val = 1
    train = count - test - val
    return train, val, test


def _test_metrics(bench: Benchmark, score_window) -> DetectionMetrics:
    """``per_kind_metrics`` of ``score_window(w)`` over the test windows, in order."""
    scores = np.concatenate([score_window(w) for w in bench.windows["test"]])
    return per_kind_metrics(scores, bench.test.spans)


def run_variants(bench: Benchmark, cfg: RunConfig, variants: list[LossVariant],
                 counters: dict | None = None) -> tuple[list[DetectionMetrics], float]:
    """Train ``variants`` from ``cfg`` on the train split in one lockstep
    ``train_collab`` call; each variant's metrics on the test split, and
    the training's wall seconds. ``counters``, if given, receives each
    variant's steps and blocks under its name."""
    from .collab import detect, train_collab  # here, so gen-data loads no training code

    llm_train = bench.llm_scores_for(bench.windows["train"])
    start = time.perf_counter()
    trained = train_collab(bench.windows["train"], bench.scorer, llm_train, cfg, variants)
    seconds = time.perf_counter() - start
    llm_test = bench.llm_scores_for(bench.windows["test"])
    metrics = []
    for v, (pipeline, curves) in zip(variants, trained):
        if counters is not None:
            counters[v.value] = {"steps": curves.steps, "blocks": curves.blocks}
        metrics.append(_test_metrics(
            bench, lambda w, p=pipeline: detect(p, w, llm_test[w.window_id()])))
    return metrics, seconds


def run_ablation(bench: Benchmark, cfg: RunConfig, counters: dict | None = None,
                 timings: dict | None = None) -> dict[str, DetectionMetrics]:
    """Full variant table: the detector-only and LLM-only test metrics (the
    fusion must beat the best of these; detector-only is the no-LLM
    ablation), then every loss variant, each trained from ``cfg``, whose
    ``loss_variant`` is ignored. The variants that train the mapping share
    one stack, ``mapping_variants``; NO_ALIGNMENT, which has none, trains in
    its own. Each stack is one ``run_variants(bench, cfg, variants)`` call,
    which counts each variant's steps and blocks into ``counters``;
    ``timings``, if given, receives each stack's training seconds as
    ``<stack>_train_s``."""
    llm_test = bench.llm_scores_for(bench.windows["test"])
    results = {
        "tsadm_only": _test_metrics(bench, lambda w: bench.scorer.score(w)[0]),
        "llm_only": _test_metrics(bench, lambda w: llm_test[w.window_id()]),
    }
    mapping_variants = [v for v in LossVariant if v is not LossVariant.NO_ALIGNMENT]
    stacks = {"mapping_variants": mapping_variants, "no_alignment": [LossVariant.NO_ALIGNMENT]}
    for stack, variants in stacks.items():
        metrics, seconds = run_variants(bench, cfg, variants, counters)
        if timings is not None:
            timings[f"{stack}_train_s"] = seconds
        results.update(zip((v.value for v in variants), metrics))
    return results
