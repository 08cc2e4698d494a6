import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from collate.core import (
    PatchWeights,
    PrecomputedScorer,
    TimeSeriesWindow,
    column_sums,
    patch_weights,
    score_range_divisor,
    sigmoid,
)
from collate.data import LabeledSeries
from collate.errors import DegenerateRange, NonFiniteInput, ShapeMismatch, WindowTooShort
from collate.tsadm import sliding_windows


class TestSigmoid:
    def test_strictly_inside_unit_interval_at_extremes(self):
        x = np.array([40.0, -40.0, 1e3, -1e3, 1e308, -1e308])
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            out = sigmoid(x)
        assert (out > 0.0).all() and (out < 1.0).all()

    def test_zero_maps_to_half(self):
        assert sigmoid(0.0) == 0.5

    def test_symmetric_about_half(self):
        x = np.linspace(-30, 30, 6001)
        np.testing.assert_allclose(sigmoid(-x) + sigmoid(x), 1.0, rtol=0, atol=1e-15)

    def test_matches_textbook_form(self):
        x = np.linspace(-30, 30, 6001)
        np.testing.assert_allclose(sigmoid(x), 1.0 / (1.0 + np.exp(-x)), rtol=1e-15, atol=0)

    def test_matches_the_two_branch_reference(self):
        specials = [0.0, 5e-324, 36.7, 745.0, 1e308, np.inf, np.nan]
        x = np.concatenate([
            specials, np.negative(specials),
            np.random.default_rng(0).normal(0.0, 30.0, 100_000),
        ])
        with np.errstate(invalid="ignore"):
            got, want = sigmoid(x), _reference_sigmoid(x)
        # NaN-aware, and -0.0 must not compare equal to 0.0's bits
        np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(np.signbit(got), np.signbit(want))
        assert sigmoid(-0.0) == _reference_sigmoid(-0.0) == 0.5


_SIGMOID_LO = np.nextafter(0.0, 1.0)
_SIGMOID_HI = np.nextafter(1.0, 0.0)


def _reference_sigmoid(x):
    """``core.sigmoid`` as it was before its numerator became one
    ``np.maximum``: the oracle every frozen pass in the tests calls."""
    x = np.asarray(x, dtype=np.float64)
    e = np.exp(-np.abs(x))
    out = np.where(x >= 0, 1.0, e) / (1.0 + e)
    return np.minimum(np.maximum(out, _SIGMOID_LO), _SIGMOID_HI)


def _spread(rng, shape):
    """Signed values whose magnitudes span e^-12 to e^12."""
    return np.exp(rng.uniform(-12.0, 12.0, shape)) * rng.choice([-1.0, 1.0], shape)


class TestColumnSums:
    """The einsum forms phase 2 sums and multiplies with give numpy's own
    bits. They fail on a numpy build whose einsum fuses its multiply-add or
    reorders its sum; the recorded figures come from numpy 2.4.6."""

    @pytest.mark.parametrize("n,k", [(2, 2), (3, 1024), (7, 3), (100, 8), (500, 16),
                                     (1000, 1024), (8000, 17), (100_000, 2), (100_000, 16)])
    def test_einsum_adds_rows_in_numpys_order(self, n, k):
        rng = np.random.default_rng(n * k)
        x, s = _spread(rng, (n, k)), _spread(rng, n)
        plain, scaled = np.add.reduce(x, axis=0), np.add.reduce(x * s[:, None], axis=0)
        np.testing.assert_array_equal(np.einsum("ij->j", x), plain)
        np.testing.assert_array_equal(np.einsum("ij,i->j", x, s), scaled)
        # into a given array, as training's gradient views take them
        out = np.full(k + 2, np.nan)
        assert column_sums(x, out=out[1:-1]).base is out
        np.testing.assert_array_equal(out[1:-1], plain)
        np.testing.assert_array_equal(column_sums(x, s, out=np.empty(k)), scaled)

    @pytest.mark.parametrize("n", [100, 500, 100_000])
    def test_one_column_takes_the_reduce(self, n):
        rng = np.random.default_rng(n)
        x, s = _spread(rng, (n, 1)), _spread(rng, n)
        plain, scaled = np.add.reduce(x, axis=0), np.add.reduce(x * s[:, None], axis=0)
        # numpy sums a lone column pairwise and einsum in order, so here they differ
        assert not np.array_equal(np.einsum("ij->j", x), plain)
        assert not np.array_equal(np.einsum("ij,i->j", x, s), scaled)
        np.testing.assert_array_equal(column_sums(x, out=np.empty(1)), plain)
        np.testing.assert_array_equal(column_sums(x, s, out=np.empty(1)), scaled)

    @pytest.mark.parametrize("n,k", [(1, 1), (2, 8), (500, 16), (100_000, 16)])
    def test_einsum_outer_product_is_numpys(self, n, k):
        rng = np.random.default_rng(n + k)
        a, b = _spread(rng, n), _spread(rng, k)
        np.testing.assert_array_equal(np.einsum("i,j->ij", a, b), np.multiply.outer(a, b))
        stack = a.reshape(1, -1, 1)
        np.testing.assert_array_equal(np.einsum("...,j->...j", stack, b),
                                      np.multiply.outer(stack, b))


class TestNormalizeScores:
    """Range scaling as the pipeline applies it: raw / score_range_divisor."""

    def test_unit_root_divides_by_range(self):
        values = np.array([0.0, 2.0, 4.0])
        divisor = score_range_divisor(values, 1.0)
        assert divisor == 4.0
        np.testing.assert_allclose(values / divisor, [0.0, 0.5, 1.0])

    def test_square_root_can_exceed_one(self):
        values = np.array([0.0, 2.0, 4.0])
        divisor = score_range_divisor(values, 2.0)
        np.testing.assert_allclose(values / divisor, [0.0, 1.0, 2.0])

    def test_constant_scores_rejected(self):
        with pytest.raises(DegenerateRange):
            score_range_divisor(np.array([3.0, 3.0, 3.0]), 1.0)

    @given(
        st.lists(st.floats(0, 100), min_size=2, max_size=30).filter(
            lambda v: max(v) > min(v)
        ),
        st.floats(0.1, 50),
    )
    # c * values underflows to a zero range
    @example([0.0, 5e-324], 0.5)
    @settings(max_examples=50, deadline=None)
    def test_scale_invariant_at_unit_root(self, values, c):
        a = np.asarray(values)
        b = c * a
        if np.ptp(b) == 0.0:
            with pytest.raises(DegenerateRange):
                score_range_divisor(b, 1.0)
            return
        np.testing.assert_allclose(
            a / score_range_divisor(a, 1.0), b / score_range_divisor(b, 1.0), atol=1e-9
        )

    # 5 ** 1000 overflows a float; 0.5 ** 100000 underflows to 0
    @pytest.mark.parametrize("hi, d, divisor", [(5.0, 0.001, "inf"), (0.5, 1e-5, "0.0")])
    def test_divisor_outside_the_positive_floats_rejected(self, hi, d, divisor):
        with pytest.raises(DegenerateRange, match=rf"range\*\*\(1/d\) = {divisor} is not finite "
                                                 rf"and positive \(range {hi}, d={d}\)"):
            score_range_divisor(np.array([0.0, hi]), d)

    @pytest.mark.parametrize("d", [0.0, -1.0, float("nan"), float("inf")])
    def test_root_exponent_must_be_finite_and_positive(self, d):
        with pytest.raises(ValueError, match="d must be finite and positive"):
            score_range_divisor(np.array([0.0, 1.0]), d)


def _reference_patch_weights(window, patch_size):
    """The per-patch loop ``patch_weights`` replaced: each patch's distances
    on their own, a ragged tail of one slot merged into the patch before."""
    x, n = window.values, window.length
    slices = [slice(s, min(s + patch_size, n)) for s in range(0, n, patch_size)]
    if len(slices) > 1 and (slices[-1].stop - slices[-1].start) < 2:
        tail = slices.pop()
        prev = slices.pop()
        slices.append(slice(prev.start, tail.stop))
    centroids = np.stack([x[sl].mean(axis=0) for sl in slices])
    d_intra, d_inter = np.zeros(n), np.zeros(n)
    if len(slices) > 1:
        diff = centroids[:, None, :] - centroids[None, :, :]
        inter_per_patch = np.sqrt((diff**2).sum(axis=-1)).sum(axis=1) / (len(slices) - 1)
    else:
        inter_per_patch = np.zeros(1)
    for p, sl in enumerate(slices):
        block = x[sl]
        diff = block[:, None, :] - block[None, :, :]
        d_intra[sl] = np.sqrt((diff**2).sum(axis=-1)).sum(axis=1) / (block.shape[0] - 1)
        d_inter[sl] = inter_per_patch[p]
    denom = d_intra + d_inter
    lambda1 = np.where(denom > 0, np.divide(d_intra, np.where(denom > 0, denom, 1.0)), 0.5)
    return PatchWeights(lambda1)


class TestPatchWeights:
    @pytest.mark.parametrize("dims", [1, 2, 3])
    @pytest.mark.parametrize("patch", range(2, 8))
    def test_matches_the_per_patch_loop(self, patch, dims):
        rng = np.random.default_rng(100 * patch + dims)
        # no tail, a one-slot tail (merged backward), a longer tail, one
        # patch, one patch plus a merged slot, and a long window
        lengths = {patch, patch + 1, 3 * patch, 3 * patch + 1, 3 * patch + patch - 1, 500}
        for n in sorted(lengths):
            w = TimeSeriesWindow(rng.normal(size=(n, dims)) * 10.0 ** rng.integers(-3, 4))
            new, old = patch_weights(w, patch), _reference_patch_weights(w, patch)
            np.testing.assert_array_equal(new.lambda1, old.lambda1, err_msg=f"n={n}")
            np.testing.assert_array_equal(new.lambda2, old.lambda2, err_msg=f"n={n}")

    @pytest.mark.parametrize("patch", [8, 16, 50, 500])
    def test_matches_the_per_patch_loop_for_long_patches(self, patch):
        rng = np.random.default_rng(patch)
        for n in (patch, patch + 1, 501, 1000):
            if n < patch:
                continue
            w = TimeSeriesWindow(rng.normal(size=(n, 2)))
            new, old = patch_weights(w, patch), _reference_patch_weights(w, patch)
            np.testing.assert_array_equal(new.lambda1, old.lambda1, err_msg=f"n={n}")

    def test_hand_computed_example(self):
        w = TimeSeriesWindow(np.array([[0.0], [0.0], [10.0], [0.0]]))
        pw = patch_weights(w, 2)
        # slot 2: intra-patch distance 10 to slot 3; centroids 0 and 5 are 5 apart
        assert pw.lambda1[2] == 10.0 / (10.0 + 5.0)
        # slot 0: intra-patch distance 0 to slot 1, same inter-patch distance
        assert pw.lambda1[0] == 0.0 / (0.0 + 5.0)
        assert pw.lambda2[2] == pytest.approx(1.0 / 3.0)

    def test_constant_window_falls_back_to_equal_weights(self):
        w = TimeSeriesWindow(np.full((8, 2), 3.5))
        pw = patch_weights(w, 2)
        np.testing.assert_allclose(pw.lambda1, 0.5)
        np.testing.assert_allclose(pw.lambda2, 0.5)

    def test_isolated_spike_weights_intra(self):
        vals = np.zeros((20, 1))
        vals[9, 0] = 8.0
        pw = patch_weights(TimeSeriesWindow(vals), 2)
        assert pw.lambda1[9] > pw.lambda2[9]

    def test_shifted_patch_weights_inter(self):
        vals = np.zeros((20, 1))
        vals[8:12, 0] = 4.0  # one whole patch uniformly shifted
        pw = patch_weights(TimeSeriesWindow(vals), 4)
        for t in range(8, 12):
            assert pw.lambda2[t] > pw.lambda1[t]

    def test_ragged_tail_merged_backward(self):
        vals = np.arange(5, dtype=float).reshape(-1, 1)
        pw = patch_weights(TimeSeriesWindow(vals), 2)
        # final patch {4} is a single slot, so it merges into {2, 3}: slot 4's
        # intra-patch distance is (2 + 1) / 2, and centroids 0.5 and 3 are 2.5 apart
        assert pw.lambda1[4] == 1.5 / (1.5 + 2.5)

    def test_window_shorter_than_patch(self):
        with pytest.raises(WindowTooShort):
            patch_weights(TimeSeriesWindow(np.zeros((2, 1))), 3)

    @given(
        st.integers(2, 5),
        st.lists(st.floats(-5, 5), min_size=4, max_size=40),
    )
    @settings(max_examples=60, deadline=None)
    def test_weights_always_sum_to_one(self, patch, values):
        if len(values) < patch:
            return
        pw = patch_weights(TimeSeriesWindow(np.array(values)[:, None]), patch)
        assert np.abs(pw.lambda1 + pw.lambda2 - 1.0).max() <= 1e-12


class TestTypes:
    def test_window_rejects_nan(self):
        with pytest.raises(NonFiniteInput):
            TimeSeriesWindow(np.array([[np.nan]]))

    def test_a_vector_is_slots_of_one_channel_wherever_values_enter(self):
        x = np.arange(40.0)
        window, series = TimeSeriesWindow(x), LabeledSeries(values=x)
        assert (window.length, window.dims) == (series.length, series.dims) == (40, 1)
        np.testing.assert_array_equal(sliding_windows(x, 8), x.reshape(5, 8, 1))
        assert PrecomputedScorer(np.ones(40), x).rep_dim == 1
        for bad in (np.float64(1.0), np.zeros((4, 2, 1))):
            for read in (TimeSeriesWindow, LabeledSeries, lambda v: sliding_windows(v, 1),
                         lambda v: PrecomputedScorer(np.ones(4), v)):
                with pytest.raises(ShapeMismatch):
                    read(bad)
