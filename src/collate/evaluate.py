"""Detection metrics, threshold selection, per-kind breakdowns, reports.

Precision, recall and F1 are counted slot by slot. There is no
point-adjustment (marking a whole labelled segment detected when one of its
slots is): it inflates results, so no path here offers it.
"""
from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import numpy as np

from .core import common_length
from .data import AnomalyKind, AnomalySpan
from .errors import NoPositives

SVG_WIDTH, SVG_HEIGHT = 900, 260  # pixel size of score_overlay_svg's drawing


@dataclass(frozen=True)
class DetectionMetrics:
    precision: float
    recall: float
    f1: float
    threshold: float
    tp: int
    fp: int
    fn: int
    per_kind: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        out = asdict(self)
        if not self.per_kind:
            del out["per_kind"]
        return out


def prf1(s: np.ndarray, y: np.ndarray, threshold: float) -> DetectionMetrics:
    """Slot-wise thresholding of the scores ``s`` against the 0/1 labels
    ``y``: score > threshold predicts anomalous. Unequal lengths raise
    LengthMismatch.

    Zero-division conventions: precision is 0 with no predicted positives,
    F1 is 0 when precision + recall is 0.
    """
    common_length(s, y)
    pred = s > threshold
    tp = int(np.sum(pred & (y == 1)))
    fp = int(np.sum(pred & (y == 0)))
    fn = int(np.sum(~pred & (y == 1)))
    precision = tp / (tp + fp) if tp + fp > 0 else 0.0
    recall = tp / (tp + fn) if tp + fn > 0 else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall > 0 else 0.0
    return DetectionMetrics(precision, recall, f1, float(threshold), tp, fp, fn)


def best_f1_threshold(s: np.ndarray, y: np.ndarray) -> tuple[float, DetectionMetrics]:
    """The threshold of best slot-wise F1, over the midpoints of the sorted
    unique scores plus a predict-everything threshold below the minimum
    (ties break toward the lower threshold, higher recall), and ``prf1``'s
    metrics there.

    One pass finds it: each slot's rank among the unique scores, positives
    and negatives counted per rank (bincount), and counts above every
    candidate from a reverse cumulative sum. A score count other than the
    label count raises LengthMismatch, and labels with no positive
    NoPositives.
    """
    common_length(s, y)
    pos = y == 1
    if not pos.any():
        raise NoPositives("threshold selection needs at least one positive label")
    uniq, rank = np.unique(s, return_inverse=True)
    candidates = np.concatenate([[uniq[0] - 1.0], (uniq[:-1] + uniq[1:]) / 2.0])
    # slots scored above a candidate are those of rank >= first, for
    # first = number of unique scores <= candidate (exact even when a
    # midpoint rounds onto one of its two scores)
    first = np.searchsorted(uniq, candidates, side="right")
    tp = _count_from_rank(rank[pos], uniq.size)[first]
    fp = _count_from_rank(rank[y == 0], uniq.size)[first]
    fn = int(pos.sum()) - tp
    predicted = tp + fp
    precision = np.divide(tp, predicted, out=np.zeros(tp.size), where=predicted > 0)
    recall = tp / (tp + fn)
    pr = precision + recall
    f1 = np.divide(2 * precision * recall, pr, out=np.zeros(tp.size), where=pr > 0)
    # candidates ascend, so the first maximum is the lowest tied threshold
    threshold = float(candidates[int(np.argmax(f1))])
    return threshold, prf1(s, y, threshold)


def _count_from_rank(rank: np.ndarray, u: int) -> np.ndarray:
    """For r = 0..u, how many of ``rank`` are >= r (a reverse cumulative sum
    of the per-rank counts; the entry for u is 0)."""
    return np.concatenate([np.cumsum(np.bincount(rank, minlength=u)[::-1])[::-1], [0]])


def labels_from_spans(spans: list[AnomalySpan], length: int, kind=None) -> np.ndarray:
    y = np.zeros(length, dtype=np.int64)
    for s in spans:
        if kind is None or s.kind == kind:
            y[s.start : s.end] = 1
    return y


def per_kind_metrics(s: np.ndarray, spans: list[AnomalySpan]) -> DetectionMetrics:
    """Overall best-F1 metrics of the scores ``s`` plus contextual-only and
    point-only breakdowns.

    The breakdowns reuse the overall operating threshold; each considers only
    its kind's positive slots together with the shared negatives (other-kind
    slots are excluded entirely). A kind with no spans is reported as
    'no_positives'.
    """
    y_all = labels_from_spans(spans, s.size)
    if not y_all.any():
        raise NoPositives("spans mark no slots")
    threshold, overall = best_f1_threshold(s, y_all)
    breakdown = {}
    for kind in AnomalyKind:
        y_kind = labels_from_spans(spans, s.size, kind)
        if not y_kind.any():
            breakdown[kind.value] = "no_positives"
            continue
        keep = (y_all == 0) | (y_kind == 1)
        breakdown[kind.value] = prf1(s[keep], y_kind[keep], threshold).to_dict()
    return replace(overall, per_kind=breakdown)


def score_overlay_svg(
    values: np.ndarray, scores: np.ndarray, labels: np.ndarray, threshold: float, title: str
) -> str:
    """Hand-rolled SVG of SVG_WIDTH x SVG_HEIGHT pixels: the first channel of
    the (T, D) series ``values`` and the scores as polylines, the slots
    labelled 1 shaded, a dashed line at ``threshold`` when it lies within the
    scores' range, and ``title``.

    Deterministic output (no timestamps, no font dependencies), so report
    artifacts are byte-stable across identical runs.
    """
    values = values[:, 0]
    n = values.size
    width, height = SVG_WIDTH, SVG_HEIGHT

    def scale(v: np.ndarray, lo_px: float, hi_px: float) -> np.ndarray:
        vmin, vmax = float(v.min()), float(v.max())
        if vmax == vmin:
            vmax = vmin + 1.0
        return hi_px - (v - vmin) / (vmax - vmin) * (hi_px - lo_px)

    xs = np.linspace(5, width - 5, n)
    half = height / 2.0
    y_vals = scale(values, 15, half - 5)
    y_scores = scale(scores, half + 10, height - 10)

    def polyline(ys: np.ndarray, color: str) -> str:
        # x, y pairs, interleaved and printed in one pass
        coords = np.column_stack([xs, ys]).ravel().tolist()
        pts = " ".join(["%.2f,%.2f"] * (len(coords) // 2)) % tuple(coords)
        return f'<polyline fill="none" stroke="{color}" stroke-width="1" points="{pts}"/>'

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
    ]
    # one rectangle per run of consecutive slots labelled 1
    edges = np.diff(np.concatenate([[0], labels == 1, [0]]))
    x0 = xs[np.flatnonzero(edges == 1)]
    x1 = xs[np.minimum(np.flatnonzero(edges == -1), n - 1)]
    rect = f'<rect x="{{:.2f}}" y="0" width="{{:.2f}}" height="{height}" fill="#fdd" />'
    parts += map(rect.format, x0.tolist(), np.maximum(x1 - x0, 1.0).tolist())
    parts.append(polyline(y_vals, "#1f77b4"))
    parts.append(polyline(y_scores, "#d62728"))
    if scores.max() > scores.min():
        frac = (threshold - scores.min()) / (scores.max() - scores.min())
        if 0.0 <= frac <= 1.0:
            ty = (height - 10) - frac * ((height - 10) - (half + 10))
            parts.append(
                f'<line x1="5" y1="{ty:.2f}" x2="{width - 5}" y2="{ty:.2f}" '
                'stroke="#888" stroke-dasharray="4,3" stroke-width="1"/>'
            )
    parts.append(
        f'<text x="8" y="12" font-size="11" font-family="monospace">{_escape(title)}</text>'
    )
    parts.append("</svg>")
    return "\n".join(parts)


def _escape(text: str) -> str:
    """``text`` with &, > and < replaced by XML entities, ampersands first."""
    return text.replace("&", "&amp;").replace(">", "&gt;").replace("<", "&lt;")


def write_csv_table(path: Path, header: list[str], rows: list[list]) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(repr(v) if isinstance(v, float) else str(v) for v in row))
    path.write_text("\n".join(lines) + "\n")


def emit_report(
    out_dir: str | Path,
    metrics: dict,
    curves: dict[str, tuple[list[str], list[list]]] | None = None,
    plots: dict[str, str] | None = None,
) -> list[Path]:
    """Write metrics.json, CSV curve tables, and SVG overlays; idempotent
    overwrite, deterministic bytes for identical inputs."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    written = []
    metrics_path = out_dir / "metrics.json"
    metrics_path.write_text(json.dumps(metrics, sort_keys=True, indent=1))
    written.append(metrics_path)
    for name, (header, rows) in (curves or {}).items():
        p = out_dir / f"{name}.csv"
        write_csv_table(p, header, rows)
        written.append(p)
    for name, svg in (plots or {}).items():
        p = out_dir / f"{name}.svg"
        p.write_text(svg)
        written.append(p)
    return written
