"""Complementary-scorer benchmark on synthetic delayed-feedback series.

Builds a series with known contextual and point anomalies, a simulated
detector that excels on contextual anomalies, and a mock LLM that excels on
point anomalies, then trains and evaluates fusion variants. The simulated
scorers plug in through the Scorer protocol; their skill profiles mirror the
observed complementarity of reconstruction detectors (miss isolated spikes
scored by context) and LLM scorers (miss sustained statistical drifts, catch
rule-breaking single slots).
"""
from __future__ import annotations

from dataclasses import dataclass, field, asdict

import numpy as np

from . import data as data_mod
from .collab import CollabConfig, LossVariant, detect, train_collab
from .core import ScoreSeries, TimeSeriesWindow
from .data import AnomalyKind, LabeledSeries, MackeyGlassConfig
from .evaluate import DetectionMetrics, per_kind_metrics
from .llm import fixture_scores, write_fixture
from .tsadm import PrecomputedScorer


@dataclass(frozen=True)
class BenchmarkConfig:
    length: int = 10_000
    seed: int = 7
    n_contextual: int = 10
    n_point: int = 10
    span_range: tuple[int, int] = (20, 40)
    point_magnitude: float = 5.0
    window_len: int = 500
    # simulated detector (contextual expert)
    det_floor: float = 0.5
    det_noise: float = 0.05
    det_gain: float = 2.0
    det_hit_rate: float = 1.0
    # mock LLM (point expert; partial, noisy contextual skill)
    llm_noise: float = 0.005
    llm_point_level: float = 0.9
    llm_point_jitter: float = 0.04
    llm_ctx_hit: float = 0.4
    llm_ctx_level: float = 0.35
    llm_ctx_jitter: float = 0.08


def default_collab_config(seed: int = 0) -> CollabConfig:
    """Training settings tuned for this benchmark: one whole window per batch
    so the pairwise terms compare anomalous spans against plenty of
    background, not mostly against themselves."""
    return CollabConfig(
        colr=0.01, batch_size=500, epochs=150, seed=seed, patch_size=2, d=1.0
    )


@dataclass
class Benchmark:
    cfg: BenchmarkConfig
    series: LabeledSeries
    train: LabeledSeries
    val: LabeledSeries
    test: LabeledSeries
    scorer: PrecomputedScorer
    llm_by_slot: np.ndarray
    train_windows: list[TimeSeriesWindow] = field(default_factory=list)
    test_windows: list[TimeSeriesWindow] = field(default_factory=list)

    def llm_scores_for(self, windows: list[TimeSeriesWindow]) -> dict[str, ScoreSeries]:
        """The mock LLM's scores for ``windows``, checked as a score file's are."""
        return fixture_scores(
            {w.window_id(): self.llm_by_slot[w.start_index : w.start_index + w.length]
             for w in windows},
            windows,
        )

    def write_llm_fixture(self, path) -> None:
        val_windows = data_mod.to_windows(self.val, self.cfg.window_len)
        scored = self.llm_scores_for(self.train_windows + val_windows + self.test_windows)
        write_fixture(path, {wid: s.scores for wid, s in scored.items()})


def _kind_mask(series: LabeledSeries, kind: AnomalyKind) -> np.ndarray:
    mask = np.zeros(series.length, dtype=bool)
    for s in series.spans:
        if s.kind == kind:
            mask[s.start : s.end] = True
    return mask


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
    ten of each.
    """
    if cfg.n_contextual < 3 or cfg.n_point < 3:
        raise ValueError("need at least three anomalies of each kind to cover splits")
    base = data_mod.gen_mackey_glass(
        MackeyGlassConfig(length=cfg.length, seed=cfg.seed)
    )
    t = cfg.length
    regions = [(0, int(0.4 * t)), (int(0.4 * t), int(0.5 * t)), (int(0.5 * t), t)]
    c_alloc = _allocate(cfg.n_contextual)
    p_alloc = _allocate(cfg.n_point)
    series = base
    margin = cfg.span_range[1] + 2
    for i, (region, c_count, p_count) in enumerate(zip(regions, c_alloc, p_alloc)):
        lo, hi = region
        inner = (lo + margin, hi - margin)
        if c_count:
            series = data_mod.insert_contextual_anomalies(
                series, c_count, cfg.span_range, seed=cfg.seed + 11 + i, region=inner
            )
        if p_count:
            series = data_mod.insert_point_anomalies(
                series, p_count, cfg.point_magnitude, seed=cfg.seed + 17 + i, region=inner
            )

    train, val, test = data_mod.split([series])
    train, val, test = train[0], val[0], test[0]

    rng = np.random.default_rng(cfg.seed + 23)
    contextual = _kind_mask(series, AnomalyKind.CONTEXTUAL)
    point = _kind_mask(series, AnomalyKind.POINT)

    raw = cfg.det_floor + np.abs(rng.normal(0.0, cfg.det_noise, t))
    hit = contextual & (rng.uniform(0.0, 1.0, t) < cfg.det_hit_rate)
    raw = raw + hit * np.abs(cfg.det_gain * (1.0 + rng.normal(0.0, 0.1, t)))
    rep = _representation(series.values)
    scorer = PrecomputedScorer(raw, rep, base_index=0)

    llm = np.abs(rng.normal(0.0, cfg.llm_noise, t))
    llm = np.where(
        point, cfg.llm_point_level + rng.normal(0.0, cfg.llm_point_jitter, t), llm
    )
    ctx_hit = contextual & (rng.uniform(0.0, 1.0, t) < cfg.llm_ctx_hit)
    llm = np.where(
        ctx_hit, cfg.llm_ctx_level + rng.normal(0.0, cfg.llm_ctx_jitter, t), llm
    )
    llm = np.clip(llm, 0.0, 1.0)

    bench = Benchmark(
        cfg=cfg,
        series=series,
        train=train,
        val=val,
        test=test,
        scorer=scorer,
        llm_by_slot=llm,
        train_windows=data_mod.to_windows(train, cfg.window_len),
        test_windows=data_mod.to_windows(test, cfg.window_len),
    )
    return bench


def _allocate(count: int) -> tuple[int, int, int]:
    """Distribute anomaly events over (train, val, test) regions: test gets
    half, validation one, training the rest."""
    test = count // 2
    val = 1
    train = count - test - val
    return train, val, test


def baseline_metrics(bench: Benchmark) -> dict[str, DetectionMetrics]:
    """Detector-only and LLM-only test metrics (the fusion must beat the best
    of these; the detector-only row is the no-LLM ablation)."""
    test = bench.test
    raw_test = bench.scorer.score(test.window())[0].scores
    llm_test = bench.llm_by_slot[test.start_index : test.start_index + test.length]
    return {
        "tsadm_only": per_kind_metrics(raw_test, test.spans),
        "llm_only": per_kind_metrics(llm_test, test.spans),
    }


def run_variant(
    bench: Benchmark, variant: LossVariant, collab_cfg: CollabConfig
) -> DetectionMetrics:
    """Train the variant on the train split and evaluate on the test split."""
    llm_train = bench.llm_scores_for(bench.train_windows)
    pipeline, _ = train_collab(
        bench.train_windows, bench.scorer, llm_train, variant, collab_cfg,
        config_echo={"benchmark": asdict(bench.cfg), "variant": variant.value},
    )
    llm_test = bench.llm_scores_for(bench.test_windows)
    collated = np.concatenate(
        [detect(pipeline, w, llm_test[w.window_id()]).scores for w in bench.test_windows]
    )
    return per_kind_metrics(collated, bench.test.spans)


def run_ablation(
    bench: Benchmark, collab_cfg: CollabConfig
) -> dict[str, DetectionMetrics]:
    """Full variant table: every loss variant plus the two single-model rows."""
    results = baseline_metrics(bench)
    for variant in LossVariant:
        results[variant.value] = run_variant(bench, variant, collab_cfg)
    return results
