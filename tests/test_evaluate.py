from xml.sax.saxutils import escape

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from collate.data import AnomalyKind, AnomalySpan
from collate.errors import LengthMismatch, NoPositives
from collate.evaluate import (
    SVG_HEIGHT,
    SVG_WIDTH,
    DetectionMetrics,
    best_f1_threshold,
    per_kind_metrics,
    prf1,
    score_overlay_svg,
)


def brute_force_best_f1(scores, labels):
    """The scan as it was before the one-pass rewrite: one ``prf1`` per
    candidate threshold."""
    s = np.asarray(scores, dtype=np.float64).reshape(-1)
    y = np.asarray(labels, dtype=np.int64).reshape(-1)
    uniq = np.unique(s)
    candidates = [float(uniq[0]) - 1.0]
    candidates.extend(((uniq[:-1] + uniq[1:]) / 2.0).tolist())
    best: DetectionMetrics | None = None
    for t in candidates:
        m = prf1(s, y, t)
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
    @given(scored_labels())
    @settings(max_examples=300, deadline=None)
    def test_equals_brute_force(self, data):
        scores, labels = data
        assert_same(best_f1_threshold(scores, labels), brute_force_best_f1(scores, labels))

    def test_adjacent_floats_whose_midpoint_rounds_onto_a_score(self):
        a = 0.3
        b = np.nextafter(a, 1.0)
        c = np.nextafter(b, 1.0)
        scores = np.array([a, b, c, b, a, c])
        for labels in ([0, 1, 1, 0, 0, 1], [1, 0, 0, 0, 0, 1], [0, 0, 1, 1, 0, 0]):
            assert_same(best_f1_threshold(scores, np.array(labels)),
                        brute_force_best_f1(scores, labels))

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


def span(start, end, kind):
    return AnomalySpan(start, end, AnomalyKind(kind))


class TestPerKindMetrics:
    # slots 2-4 contextual, slot 8 point; the point slot scores below two
    # normal slots, so the overall threshold misses it
    SCORES = np.array([0.1, 0.2, 0.9, 0.8, 0.7, 0.6, 0.65, 0.1, 0.55, 0.0])
    SPANS = [span(2, 5, "contextual"), span(8, 9, "point")]

    def test_overall_is_the_best_f1_over_every_span(self):
        labels = np.zeros(10, dtype=np.int64)
        labels[[2, 3, 4, 8]] = 1
        m = per_kind_metrics(self.SCORES, self.SPANS)
        thr, best = best_f1_threshold(self.SCORES, labels)
        assert m.threshold == thr == 0.675
        assert (m.precision, m.recall, m.f1, m.tp, m.fp, m.fn) == (
            best.precision, best.recall, best.f1, best.tp, best.fp, best.fn)
        assert m.to_dict() == {**best.to_dict(), "per_kind": m.per_kind}

    def test_each_kind_reuses_the_overall_threshold_without_the_other_kind(self):
        per_kind = per_kind_metrics(self.SCORES, self.SPANS).per_kind
        # contextual: slot 8 is left out, not counted a false negative or positive
        keep = np.array([0, 1, 2, 3, 4, 5, 6, 7, 9])
        ctx = np.array([0, 0, 1, 1, 1, 0, 0, 0, 0])
        assert per_kind["contextual"] == prf1(self.SCORES[keep], ctx, 0.675).to_dict()
        assert (per_kind["contextual"]["tp"], per_kind["contextual"]["fp"],
                per_kind["contextual"]["fn"]) == (3, 0, 0)
        # point: slots 2-4 are left out, so slot 8's miss is all that counts
        keep = np.array([0, 1, 5, 6, 7, 8, 9])
        point = np.array([0, 0, 0, 0, 0, 1, 0])
        assert per_kind["point"] == prf1(self.SCORES[keep], point, 0.675).to_dict()
        assert (per_kind["point"]["tp"], per_kind["point"]["fp"],
                per_kind["point"]["fn"]) == (0, 0, 1)

    def test_a_kind_without_spans_reads_no_positives(self):
        m = per_kind_metrics(self.SCORES, self.SPANS[:1])
        assert m.per_kind["point"] == "no_positives"
        assert m.per_kind["contextual"]["recall"] == 1.0

    def test_spans_that_mark_no_slot_raise(self):
        with pytest.raises(NoPositives):
            per_kind_metrics(self.SCORES, [])
        with pytest.raises(NoPositives):
            per_kind_metrics(self.SCORES, [span(12, 14, "contextual")])


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
        for title in ("collated scores", "a < b & c > d"):
            new = score_overlay_svg(values, scores, labels, 0.5, title=title)
            assert new == _reference_score_overlay_svg(values, scores, labels, 0.5, title)

    def test_constant_series(self):
        values, scores = np.full((50, 1), 3.0), np.zeros(50)
        labels = np.zeros(50, dtype=np.int64)
        labels[5:9] = 1
        assert score_overlay_svg(values, scores, labels, 0.25, "t") == (
            _reference_score_overlay_svg(values, scores, labels, 0.25, "t")
        )
