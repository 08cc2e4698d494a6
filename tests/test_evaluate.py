from xml.sax.saxutils import escape

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from collate.errors import LengthMismatch, NoPositives
from collate.evaluate import (
    SVG_HEIGHT,
    SVG_WIDTH,
    DetectionMetrics,
    best_f1_threshold,
    point_adjust,
    prf1,
    score_overlay_svg,
)


def brute_force_best_f1(scores, labels, adjust=False):
    """The scan as it was before the one-pass rewrite: one ``prf1`` per
    candidate threshold."""
    s = np.asarray(scores, dtype=np.float64).reshape(-1)
    y = np.asarray(labels, dtype=np.int64).reshape(-1)
    uniq = np.unique(s)
    candidates = [float(uniq[0]) - 1.0]
    candidates.extend(((uniq[:-1] + uniq[1:]) / 2.0).tolist())
    best: DetectionMetrics | None = None
    for t in candidates:
        m = prf1(s, y, t, adjust=adjust)
        if best is None or m.f1 > best.f1 or (m.f1 == best.f1 and t < best.threshold):
            best = m
    return best.threshold, best


def assert_same(fast, slow):
    (t_fast, m_fast), (t_slow, m_slow) = fast, slow
    assert t_fast == t_slow
    assert m_fast == m_slow
    assert type(m_fast.tp) is int and type(m_fast.precision) is float


# few distinct values, so most inputs carry many tied scores
tied = st.sampled_from([0.0, 0.1, 0.25, 0.5, 0.5000000000000001, 0.75, 0.9, 1.0])
anyscore = st.floats(-1e6, 1e6, allow_nan=False)


@st.composite
def scored_labels(draw):
    n = draw(st.integers(1, 60))
    scores = draw(st.lists(st.one_of(tied, anyscore) if draw(st.booleans()) else tied,
                           min_size=n, max_size=n))
    labels = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    if not any(labels):
        labels[draw(st.integers(0, n - 1))] = 1
    return np.array(scores), np.array(labels)


class TestBestF1:
    @given(scored_labels(), st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_equals_brute_force(self, data, adjust):
        scores, labels = data
        assert_same(best_f1_threshold(scores, labels, adjust=adjust),
                    brute_force_best_f1(scores, labels, adjust=adjust))

    def test_adjacent_floats_whose_midpoint_rounds_onto_a_score(self):
        a = 0.3
        b = np.nextafter(a, 1.0)
        c = np.nextafter(b, 1.0)
        scores = np.array([a, b, c, b, a, c])
        for labels in ([0, 1, 1, 0, 0, 1], [1, 0, 0, 0, 0, 1], [0, 0, 1, 1, 0, 0]):
            for adjust in (False, True):
                assert_same(best_f1_threshold(scores, labels, adjust=adjust),
                            brute_force_best_f1(scores, labels, adjust=adjust))

    def test_adjust_scores_segment_by_its_maximum(self):
        scores = np.array([0.1, 0.9, 0.2, 0.1, 0.3, 0.1])
        labels = np.array([0, 1, 1, 0, 1, 1])
        thr, m = best_f1_threshold(scores, labels, adjust=True)
        assert (m.tp, m.fp, m.fn) == (4, 0, 0)
        assert thr == pytest.approx(0.15)
        pred = point_adjust(scores > thr, labels)
        np.testing.assert_array_equal(pred, labels == 1)

    def test_ties_break_toward_lower_threshold(self):
        # predicting everything (P 1/2, R 1) and only the top slot (P 1, R 1/2)
        # both give F1 = 2/3
        scores, labels = np.array([0.1, 0.2, 0.3, 0.4]), np.array([1, 0, 0, 1])
        assert prf1(scores, labels, 0.35).f1 == prf1(scores, labels, -0.9).f1
        thr, m = best_f1_threshold(scores, labels)
        assert thr == 0.1 - 1.0
        assert (m.tp, m.fp, m.fn) == (2, 2, 0)

    def test_errors(self):
        with pytest.raises(LengthMismatch):
            best_f1_threshold(np.ones(3), np.ones(2))
        with pytest.raises(NoPositives):
            best_f1_threshold(np.ones(3), np.zeros(3))


def _reference_score_overlay_svg(values, scores, labels=None, threshold=None, title=""):
    """The drawing as it was before it was built from whole arrays: one
    f-string per point, one loop step per slot, ``saxutils.escape``."""
    values = np.asarray(values, dtype=np.float64)
    if values.ndim > 1:
        values = values[:, 0]
    scores = np.asarray(scores, dtype=np.float64).reshape(-1)
    n = values.size
    width, height = SVG_WIDTH, SVG_HEIGHT

    def scale(v, lo_px, hi_px):
        vmin, vmax = float(v.min()), float(v.max())
        if vmax == vmin:
            vmax = vmin + 1.0
        return hi_px - (v - vmin) / (vmax - vmin) * (hi_px - lo_px)

    xs = np.linspace(5, width - 5, n)
    half = height / 2.0
    y_vals = scale(values, 15, half - 5)
    y_scores = scale(scores, half + 10, height - 10)

    def polyline(ys, color):
        pts = " ".join(f"{x:.2f},{y:.2f}" for x, y in zip(xs, ys))
        return f'<polyline fill="none" stroke="{color}" stroke-width="1" points="{pts}"/>'

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
    ]
    if labels is not None:
        labels = np.asarray(labels).reshape(-1)
        i = 0
        while i < n:
            if labels[i] == 1:
                j = i
                while j < n and labels[j] == 1:
                    j += 1
                x0, x1 = xs[i], xs[min(j, n - 1)]
                parts.append(
                    f'<rect x="{x0:.2f}" y="0" width="{max(x1 - x0, 1.0):.2f}" '
                    f'height="{height}" fill="#fdd" />'
                )
                i = j
            else:
                i += 1
    parts.append(polyline(y_vals, "#1f77b4"))
    parts.append(polyline(y_scores, "#d62728"))
    if threshold is not None and scores.max() > scores.min():
        frac = (threshold - scores.min()) / (scores.max() - scores.min())
        if 0.0 <= frac <= 1.0:
            ty = (height - 10) - frac * ((height - 10) - (half + 10))
            parts.append(
                f'<line x1="5" y1="{ty:.2f}" x2="{width - 5}" y2="{ty:.2f}" '
                'stroke="#888" stroke-dasharray="4,3" stroke-width="1"/>'
            )
    if title:
        parts.append(
            f'<text x="8" y="12" font-size="11" font-family="monospace">'
            f"{escape(title)}</text>"
        )
    parts.append("</svg>")
    return "\n".join(parts)


class TestOverlaySvg:
    @pytest.mark.parametrize("n", [1, 2, 7, 500, 20_000])
    def test_matches_the_per_point_drawing(self, n):
        rng = np.random.default_rng(n)
        values = rng.normal(size=(n, 2)).cumsum(axis=0)
        scores = rng.uniform(size=n)
        # runs at both ends, a one-slot run and a run reaching the last slot
        labels = (rng.uniform(size=n) < 0.3).astype(np.int64)
        labels[:1] = labels[-1:] = 1
        for title in ("", "collated scores", "a < b & c > d"):
            new = score_overlay_svg(values, scores, labels, 0.5, title=title)
            assert new == _reference_score_overlay_svg(values, scores, labels, 0.5, title)
        assert score_overlay_svg(values, scores) == _reference_score_overlay_svg(values, scores)

    def test_constant_series_and_mismatched_lengths(self):
        values = np.full(50, 3.0)
        for scores in (np.linspace(0, 1, 40), np.zeros(50), np.linspace(0, 1, 60)):
            labels = np.zeros(50, dtype=np.int64)
            labels[5:9] = 1
            assert score_overlay_svg(values, scores, labels, 0.25, "t") == (
                _reference_score_overlay_svg(values, scores, labels, 0.25, "t")
            )
