import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad
from scipy.stats import halfnorm

from collate.alignment import (
    HalfGaussianFit,
    MonotoneMapping,
    alignment_loss_grad,
    discrete_alignment_objective,
    fit_half_gaussian,
    half_gaussian_density,
    kl_histogram,
)
from collate.errors import DegenerateScores, NonConvergence
from test_core import _reference_sigmoid


def empty_grads(net) -> dict:
    """Uninitialised gradient arrays for ``net``'s backward pass, keyed as
    its ``PARAMS`` and shaped as its parameters."""
    return {name: np.empty(np.shape(getattr(net, name))) for name in net.PARAMS}


def density_at(fit, x: float) -> float:
    """The target's density at one point, through a one-element array."""
    return float(half_gaussian_density(fit, np.array([x]))[0])


def train_mapping(scaled, fit, lambda_hat, epochs, learning_rate=0.05, seed=0):
    """Reference: full-batch gradient descent of the alignment loss over a
    mapping on its own. Training runs the mapping jointly with the fusion
    net (``collab.train_collab``); this checks what the alignment loss alone
    can reach. Deterministic under ``seed``."""
    s = np.asarray(scaled, float).reshape(-1)
    mapping = MonotoneMapping(8, seed=seed)
    for _ in range(epochs):
        mapped, cache = mapping.forward(s)
        loss, dm = alignment_loss_grad(mapped, fit, lambda_hat)
        if not np.isfinite(loss):
            raise NonConvergence("alignment loss became non-finite")
        grads = mapping.backward(dm, cache, empty_grads(mapping))
        mapping.a1 -= learning_rate * grads["a1"]
        mapping.b1 -= learning_rate * grads["b1"]
        mapping.a2 -= learning_rate * grads["a2"]
        mapping.b2 -= learning_rate * grads["b2"]
    return mapping


class TestFit:
    def test_mirror_set_algebra(self):
        fit = fit_half_gaussian(np.array([0.3, 0.4]))
        assert fit.sigma == pytest.approx(math.sqrt((0.09 + 0.16) / 2.0))

    def test_monte_carlo_recovery_within_one_percent(self):
        rng = np.random.default_rng(5)
        samples = np.abs(rng.normal(0.0, 0.3, 100_000))
        fit = fit_half_gaussian(samples)
        assert abs(fit.sigma - 0.3) / 0.3 < 0.01

    def test_all_zero_scores_rejected(self):
        with pytest.raises(DegenerateScores):
            fit_half_gaussian(np.zeros(10))

    def test_cdf_maps_empty_to_empty_and_keeps_bits(self):
        fit = HalfGaussianFit(0.37)
        out = fit.cdf(np.array([]))
        assert out.shape == (0,) and out.dtype == np.float64
        x = np.array([-1.0, 0.0, 1e-300, 0.2, 0.37, 5.0])
        expected = [0.0 if v <= 0 else math.erf(v / (0.37 * math.sqrt(2.0))) for v in x]
        np.testing.assert_array_equal(fit.cdf(x), expected)
        assert fit.cdf(np.array([0.2]))[0] == expected[3]

    def test_derived_moments_consistent(self):
        fit = HalfGaussianFit(0.37)
        assert fit.mu_hat == pytest.approx(0.37 * math.sqrt(2 / math.pi), abs=1e-12)
        assert fit.sigma_hat_sq == pytest.approx(0.37**2 * (1 - 2 / math.pi), abs=1e-12)


class TestDensity:
    def test_zero_below_origin(self):
        fit = HalfGaussianFit(0.5)
        assert density_at(fit, -0.1) == 0.0

    def test_peak_value_at_origin(self):
        fit = HalfGaussianFit(1.0)
        assert density_at(fit, 0.0) == pytest.approx(2.0 / math.sqrt(2 * math.pi))

    @pytest.mark.parametrize("sigma", [0.2, 0.7, 1.0, 2.5])
    def test_integrates_to_one(self, sigma):
        fit = HalfGaussianFit(sigma)
        total, _err = quad(lambda x: density_at(fit, x), 0.0, np.inf)
        assert total == pytest.approx(1.0, abs=1e-6)

    def test_printed_exponent_variant_differs(self):
        # the exponent's denominator is 2 sigma^2, not the printed 2 sigma
        fit = HalfGaussianFit(0.5)
        peak = 2.0 / (0.5 * math.sqrt(2 * math.pi))
        printed = peak * math.exp(-(0.4**2) / (2 * 0.5))
        assert density_at(fit, 0.4) != pytest.approx(printed)
        assert density_at(fit, 0.4) == pytest.approx(
            peak * math.exp(-(0.4**2) / (2 * 0.5**2)), rel=1e-15
        )


class TestAlignmentLoss:
    def test_reduces_to_log_density_without_penalties(self):
        fit = HalfGaussianFit(0.8)
        mapped = np.array([0.2, 0.4, 0.6])
        expected = -np.mean(np.log(half_gaussian_density(fit, mapped)))
        loss, grad = alignment_loss_grad(mapped, fit, 0.0)
        assert loss == pytest.approx(expected)
        # the gradient is then the log-density term's alone
        np.testing.assert_allclose(grad, mapped / (fit.sigma**2 * 3), rtol=1e-15)

    def test_constant_batch_variance_term(self):
        # a constant batch has zero variance: the variance penalty is
        # lambda * sigma_hat_sq^2 and the mean penalty lambda * (0.5 - mu_hat)^2
        fit = HalfGaussianFit(1.0)
        mapped = np.full(6, 0.5)
        base = alignment_loss_grad(mapped, fit, 0.0)[0]
        full = alignment_loss_grad(mapped, fit, 3.0)[0]
        assert full - base == pytest.approx(
            3.0 * (fit.sigma_hat_sq**2 + (0.5 - fit.mu_hat) ** 2)
        )

    def test_worked_example(self):
        # sigma=1, mapped=[0.5, 0.5], both penalties at weight 1
        fit = HalfGaussianFit(1.0)
        dens = 2.0 / math.sqrt(2 * math.pi) * math.exp(-0.125)
        expected = -math.log(dens) + (0.5 - fit.mu_hat) ** 2 + fit.sigma_hat_sq**2
        got = alignment_loss_grad(np.array([0.5, 0.5]), fit, 1.0)[0]
        assert got == pytest.approx(expected, abs=1e-12)
        assert got == pytest.approx(0.5720, abs=1e-3)

    def test_closed_form_is_finite_where_the_density_underflows(self):
        # past about 38.6 sigma the density underflows to zero, and the log
        # of it would be -inf; the closed form stays finite
        fit = HalfGaussianFit(0.005)
        mapped = np.array([0.9, 0.9123])
        assert (half_gaussian_density(fit, mapped) == 0.0).all()
        loss, grad = alignment_loss_grad(mapped, fit, 1.0)
        assert math.isfinite(loss) and np.isfinite(grad).all()
        # mean m^2 / (2 sigma^2) alone is about 16,420
        assert loss > 16_000

    @pytest.mark.parametrize("seed", range(4))
    def test_closed_form_equals_the_mean_log_density(self, seed):
        # where the density is positive, the closed form is the mean of the
        # log of the quad-tested density. The loss is the difference of two
        # terms, log of the peak and mean m^2 / (2 sigma^2), and where they
        # nearly cancel, both forms round to within an ulp of the terms, not
        # of their difference: the error is relative to the larger term
        rng = np.random.default_rng(seed)
        for _ in range(25):
            fit = HalfGaussianFit(rng.uniform(0.02, 1.5))
            size = rng.integers(2, 500)
            mapped = np.abs(rng.normal(0.0, fit.sigma * rng.uniform(0.1, 8.0), size))
            dens = half_gaussian_density(fit, mapped)
            assert (dens > 0.0).all()
            expected = -np.mean(np.log(dens))
            got = alignment_loss_grad(mapped, fit, 0.0)[0]
            log_peak = math.log(2.0 / (fit.sigma * math.sqrt(2.0 * math.pi)))
            scale = max(abs(log_peak), float(np.mean(mapped**2)) / (2.0 * fit.sigma**2))
            assert abs(got - expected) <= 1e-14 * scale

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(0)
        fit = HalfGaussianFit(0.6)
        for lambda_hat in rng.uniform(0.0, 2.0, 4):
            mapped = rng.uniform(0.05, 0.9, 12)
            grad = alignment_loss_grad(mapped, fit, lambda_hat)[1]
            h = 1e-6
            for i in (0, 5, 11):
                e = np.zeros_like(mapped)
                e[i] = h
                fd = (
                    alignment_loss_grad(mapped + e, fit, lambda_hat)[0]
                    - alignment_loss_grad(mapped - e, fit, lambda_hat)[0]
                ) / (2 * h)
                assert abs(fd - grad[i]) / abs(fd) < 1e-6


class TestDiscreteObjective:
    def test_single_bin_equals_log_total_mass(self):
        fit = HalfGaussianFit(1.0)
        got = discrete_alignment_objective(np.array([0.2, 0.8]), fit, 1)
        assert got == pytest.approx(-math.log(math.erf(1.0 / math.sqrt(2.0))), abs=1e-12)
        assert got == pytest.approx(0.38174, abs=1e-4)

    def test_empty_bins_contribute_nothing(self):
        fit = HalfGaussianFit(0.5)
        # both points in one bin of four; moving N up leaves empties silent
        v = discrete_alignment_objective(np.array([0.1, 0.12]), fit, 4)
        assert np.isfinite(v)

    def test_bin_masses_from_quadrature(self):
        # the objective's bin masses are the fit's CDF differences
        fit = HalfGaussianFit(0.45)
        edges = np.linspace(0.0, 1.0, 11)
        masses = fit.cdf(edges[1:]) - fit.cdf(edges[:-1])
        for lo, hi, got in zip(edges[:-1], edges[1:], masses):
            mass, _ = quad(lambda x: density_at(fit, x), lo, hi)
            assert got == pytest.approx(mass, abs=1e-9)
        # a sample inside one bin scores minus the log of its density there
        mass, _ = quad(lambda x: density_at(fit, x), 0.3, 0.4)
        assert discrete_alignment_objective(np.array([0.31, 0.35, 0.39]), fit, 10) == (
            pytest.approx(-math.log(mass * 10), abs=1e-9)
        )


    def test_no_scores_are_rejected(self):
        with pytest.raises(ValueError, match="^need at least one bin and one mapped score$"):
            discrete_alignment_objective(np.array([]), HalfGaussianFit(0.5), 10)

    def test_bin_with_zero_target_mass_is_rejected(self):
        # past about 8.3 sigma the fit's CDF rounds to 1 at both bin edges
        fit = HalfGaussianFit(0.005)
        with pytest.raises(ValueError, match="^bin 9 has zero target mass$"):
            discrete_alignment_objective(np.array([0.01, 0.95]), fit, 10)


class TestMonotoneMapping:
    def test_strictly_monotone_on_many_pairs(self):
        rng = np.random.default_rng(3)
        mapping = MonotoneMapping(hidden=8, seed=1)
        a = rng.uniform(-4, 4, 10_000)
        b = a + rng.uniform(1e-6, 2.0, 10_000)
        ma, mb = mapping(a), mapping(b)
        assert (ma <= mb).all()

    def test_output_in_open_unit_interval(self):
        mapping = MonotoneMapping(hidden=6, seed=2)
        out = mapping(np.linspace(-50, 50, 101))
        assert out.min() > 0.0 and out.max() < 1.0

    def test_saturated_logits_stay_inside_open_interval(self):
        # sum softplus(a2) ~ 48 drives the output logit past +-36.7, where
        # float64 rounds the exact logistic value to 0.0 or 1.0
        d = MonotoneMapping(hidden=8, seed=0).to_dict()
        d["a2"] = [6.0] * 8
        out = MonotoneMapping.from_dict(d)(np.linspace(-5, 5, 11))
        assert out.min() > 0.0 and out.max() < 1.0
        assert (np.diff(out) >= 0).all()

    def test_roundtrip_dict(self):
        mapping = MonotoneMapping(hidden=5, seed=4)
        clone = MonotoneMapping.from_dict(mapping.to_dict())
        x = np.linspace(-2, 2, 17)
        np.testing.assert_array_equal(mapping(x), clone(x))


class TestTrainMapping:
    def test_moments_match_when_penalties_dominate(self):
        # Stationarity of the loss puts the trained mean at
        # mu_hat * 2 lam sigma^2 / (1 + 2 lam sigma^2): the log-density term
        # pulls every mapped score toward the mode at zero, so the target
        # moments are only reachable when lam sigma^2 is large.
        rng = np.random.default_rng(11)
        scaled = rng.uniform(0.0, 1.0, 400)
        fit = HalfGaussianFit(0.3)
        mapping = train_mapping(scaled, fit, 1000.0, learning_rate=0.02, epochs=3000, seed=0)
        mapped = mapping(scaled)
        assert abs(mapped.mean() - fit.mu_hat) / fit.mu_hat < 0.10
        assert abs(mapped.std(ddof=1) - math.sqrt(fit.sigma_hat_sq)) / math.sqrt(
            fit.sigma_hat_sq
        ) < 0.10

    def test_density_term_pulls_mean_below_target_at_unit_penalty(self):
        # At lam = 1 the equilibrium mean is mu_hat * 2 sigma^2 / (1 + 2 sigma^2);
        # training lands there, far below the target for small sigma.
        rng = np.random.default_rng(11)
        scaled = rng.uniform(0.0, 1.0, 400)
        fit = HalfGaussianFit(0.3)
        mapped = train_mapping(scaled, fit, 1.0, learning_rate=0.05, epochs=1500, seed=0)(scaled)
        equilibrium = fit.mu_hat * (2 * fit.sigma**2) / (1 + 2 * fit.sigma**2)
        assert mapped.mean() == pytest.approx(equilibrium, rel=0.15)

    def test_deterministic_under_seed(self):
        rng = np.random.default_rng(12)
        scaled = rng.uniform(0.0, 1.0, 50)
        fit = HalfGaussianFit(0.4)
        m1 = train_mapping(scaled, fit, 1.0, epochs=50, seed=9)
        m2 = train_mapping(scaled, fit, 1.0, epochs=50, seed=9)
        assert m1.to_dict() == m2.to_dict()

    def test_kl_drops_against_target(self):
        rng = np.random.default_rng(13)
        scaled = rng.uniform(0.2, 0.9, 600)
        fit = HalfGaussianFit(0.25)
        mapping = train_mapping(scaled, fit, 1.0, learning_rate=0.05, epochs=600, seed=0)
        assert kl_histogram(mapping(scaled), fit, 40) < kl_histogram(scaled, fit, 40)


class TestKlHistogram:
    def test_sample_at_the_fits_quantiles_near_zero(self):
        # a stratified sample of the fit: each bin's share is within 1/n of
        # its mass, so the divergence is O(bins / n^2 / smallest mass)
        n = 100_000
        a = halfnorm.ppf((np.arange(n) + 0.5) / n, scale=0.3)
        assert kl_histogram(a, HalfGaussianFit(0.3), 20) < 1e-6

    def test_two_bin_closed_form(self):
        # every sample in [0, 0.5): KL = -log of the fit's mass share there
        fit = HalfGaussianFit(0.5)
        low, high = np.diff(fit.cdf(np.array([0.0, 0.5, 1.0])))
        assert kl_histogram(np.full(100, 0.25), fit, 2) == pytest.approx(
            -math.log(low / (low + high)), abs=1e-6
        )

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_nonnegative(self, seed):
        rng = np.random.default_rng(seed)
        a = rng.uniform(0, 1.5, 100)
        assert kl_histogram(a, HalfGaussianFit(rng.uniform(0.05, 1.0)), 10) >= 0.0


class TestMatchesReference:
    """The in-place, wrapper-free alignment math equals its earlier
    out-of-place form bit for bit."""

    @pytest.mark.parametrize("seed", range(6))
    def test_alignment_loss_grad(self, seed):
        rng = np.random.default_rng(seed)
        fit = HalfGaussianFit(rng.uniform(0.02, 1.5))
        lambda_hat = rng.uniform(0, 2)
        for n in (2, 3, 100, 1001):
            mapped = np.abs(rng.normal(0.0, rng.uniform(0.001, 0.5), n))
            loss, grad = alignment_loss_grad(mapped, fit, lambda_hat)
            ref_loss, ref_grad = _reference_alignment_loss_grad(mapped, fit, lambda_hat)
            assert loss == ref_loss
            np.testing.assert_array_equal(grad, ref_grad)

    @pytest.mark.parametrize("shape", [(1,), (2,), (100,)], ids=str)
    def test_mapping_forward_and_backward(self, shape):
        rng = np.random.default_rng(len(shape) * 10 + sum(shape))
        for hidden in (1, 8):
            mapping = MonotoneMapping(hidden, seed=hidden)
            mapping.b2 = np.array(rng.normal())
            s = rng.normal(0.0, 2.0, shape)
            dm = rng.normal(size=shape)
            m, cache = mapping.forward(s)
            ref_m, ref_cache = _reference_mapping_forward(mapping, s)
            assert np.shape(m) == shape
            np.testing.assert_array_equal(m, ref_m)
            grads = mapping.backward(dm, cache, empty_grads(mapping))
            ref = _reference_mapping_backward(mapping, dm, ref_cache)
            assert set(grads) == set(ref)
            # into given arrays, as training's gradient views take them
            given = {name: np.full(np.shape(grads[name]), np.nan) for name in grads}
            assert mapping.backward(dm, cache, given) is given
            for name, value in given.items():
                np.testing.assert_array_equal(value, grads[name])
            for name in ("a1", "b1", "a2", "b2"):
                np.testing.assert_array_equal(grads[name], ref[name])
            assert np.shape(grads["a2"]) == (hidden,)


# --- Oracles: the alignment math as it was before the in-place rewrite ---


def _reference_alignment_loss_grad(mapped, fit, lambda_hat):
    """The loss with its log-density in closed form, and its gradient, out
    of place."""
    m = np.asarray(mapped, dtype=np.float64).reshape(-1)
    n = m.size
    mean = float(m.mean())
    var = float(m.var(ddof=1))
    log_peak = math.log(2.0 / (fit.sigma * math.sqrt(2.0 * math.pi)))
    loss = (
        float(np.dot(m, m)) / (2.0 * fit.sigma**2 * n) - log_peak
        + lambda_hat * (mean - fit.mu_hat) ** 2
        + lambda_hat * (var - fit.sigma_hat_sq) ** 2
    )
    grad = m / (fit.sigma**2 * n)
    grad += lambda_hat * 2.0 * (mean - fit.mu_hat) / n
    grad += lambda_hat * 2.0 * (var - fit.sigma_hat_sq) * 2.0 * (m - mean) / (n - 1)
    return float(loss), grad


def _reference_mapping_forward(mapping, s):
    s = np.asarray(s, dtype=np.float64)
    w1 = np.logaddexp(0.0, mapping.a1)
    w2 = np.logaddexp(0.0, mapping.a2)
    pre = np.multiply.outer(s, w1) + mapping.b1
    h = np.tanh(pre)
    z = h @ w2 + mapping.b2
    m = _reference_sigmoid(z)
    return m, (s, w1, w2, pre, h, z, m)


def _reference_mapping_backward(mapping, dm, cache):
    """Two ``sigmoid`` calls, ``.sum`` over the slots, out of place."""
    s, w1, w2, pre, h, z, m = cache
    dz = dm * m * (1.0 - m)
    dh = np.multiply.outer(dz, w2)
    dw2 = dz @ h
    dpre = dh * (1.0 - h**2)
    dw1 = (dpre * s[:, None]).sum(axis=0)
    db1 = dpre.sum(axis=0)
    return {
        "a1": dw1 * _reference_sigmoid(mapping.a1),
        "b1": db1,
        "a2": dw2 * _reference_sigmoid(mapping.a2),
        "b2": float(np.sum(dz)),
    }
