import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from collate import theory
from collate.collab import collaborative_loss_grad
from collate.core import sigmoid
from collate.theory import (
    LEMMA1_BATCH,
    LEMMA1_LR,
    NoiseModel,
    TheoryReport,
    brute_force_optimal,
    check_alignment_equivalence,
    check_lemma1,
    check_theorem1,
    check_theorem2,
    lipschitz_report,
    oracle_loss,
)
from collate.theory import _pairwise_sgd


def oracle_loss_grad(s_hat: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Reference: d/dS^_t of the oracle objective, -2(n y_t - sum(y));
    constant in S^."""
    y = np.asarray(y, dtype=np.float64).reshape(-1)
    return -2.0 * (y.size * y - y.sum()) * np.ones_like(y)


def perturbation_gain(
    y: np.ndarray, s_hat: np.ndarray, r: int, r_prime: int, delta: float
) -> tuple[float, float]:
    """Reference: loss decrease from raising S^_r by delta and lowering S^_r'
    by delta.

    Returns (observed decrease, analytic value 2 n delta (y_r - y_r')); the
    two agree identically, which is the local exchange argument behind the
    ordering properties of the oracle optimum.
    """
    y = np.asarray(y, dtype=np.float64).reshape(-1)
    s_hat = np.asarray(s_hat, dtype=np.float64).reshape(-1)
    before = oracle_loss(s_hat, y)
    moved = s_hat.copy()
    moved[r] += delta
    moved[r_prime] -= delta
    after = oracle_loss(moved, y)
    analytic = 2.0 * y.size * delta * (y[r] - y[r_prime])
    return before - after, analytic


class TestOracleLoss:
    def test_constant_truth_gives_zero(self):
        rng = np.random.default_rng(0)
        assert oracle_loss(rng.uniform(0, 1, 6), np.full(6, 0.4)) == pytest.approx(0.0)

    def test_aligned_pair(self):
        assert oracle_loss(np.array([0.0, 1.0]), np.array([0.0, 1.0])) == pytest.approx(-2.0)

    def test_anti_aligned_pair(self):
        assert oracle_loss(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == pytest.approx(2.0)

    @given(st.lists(st.floats(0, 1), min_size=2, max_size=10),
           st.lists(st.floats(0, 1), min_size=2, max_size=10))
    @settings(max_examples=50, deadline=None)
    def test_matches_vectorized_identity(self, s_hat, y):
        n = min(len(s_hat), len(y))
        if n < 2:
            return
        s_hat, y = np.asarray(s_hat[:n]), np.asarray(y[:n])
        identity = -2.0 * (n * float(y @ s_hat) - y.sum() * s_hat.sum())
        assert oracle_loss(s_hat, y) == pytest.approx(identity, abs=1e-9)

    def test_gradient_is_constant_in_scores(self):
        y = np.array([0.1, 0.9, 0.5])
        g = oracle_loss_grad(np.zeros(3), y)
        np.testing.assert_allclose(g, -2.0 * (3 * y - y.sum()))


class TestBruteForce:
    def test_two_point_instance(self):
        res = brute_force_optimal(np.array([0.0, 1.0]), seed=0)
        np.testing.assert_allclose(res.best, [0.0, 1.0], atol=1e-12)
        assert res.loss == pytest.approx(-2.0)
        assert not res.degenerate

    def test_constant_truth_flagged_degenerate(self):
        res = brute_force_optimal(np.full(4, 0.5), seed=0)
        assert res.degenerate
        # every vertex reaches the minimum 0, so their mean is the centre
        assert res.loss == pytest.approx(0.0, abs=1e-12)
        np.testing.assert_allclose(res.best, 0.5, atol=1e-12)

    def test_order_matches_truth_order(self):
        # n y_2 = 1.5 = sum(y): S*_2 = 0 and 1 reach the same minimum, so the
        # tied coordinate sits at 0.5
        res = brute_force_optimal(np.array([0.2, 0.8, 0.5]), seed=1)
        np.testing.assert_array_equal(res.best, [0.0, 1.0, 0.5])
        assert res.degenerate

    def test_agrees_with_exhaustive_grid_n2(self):
        y = np.array([0.3, 0.7])
        res = brute_force_optimal(y, seed=0)
        grid = np.linspace(0.0, 1.0, 1001)
        a, b = np.meshgrid(grid, grid, indexing="ij")
        losses = -2.0 * (2 * (y[0] * a + y[1] * b) - y.sum() * (a + b))
        i, j = np.unravel_index(np.argmin(losses), losses.shape)
        assert abs(res.best[0] - grid[i]) <= 1e-3
        assert abs(res.best[1] - grid[j]) <= 1e-3

    def test_size_cap(self):
        with pytest.raises(ValueError):
            brute_force_optimal(np.zeros(9))

    @pytest.mark.parametrize("n", range(2, 9))
    def test_optimum_is_the_sign_rule(self, n):
        # the gradient is -2(n y_i - sum(y)), so S*_i = 1 exactly where
        # n y_i exceeds sum(y)
        for seed in range(5):
            y = np.random.default_rng(100 * n + seed).uniform(0, 1, n)
            res = brute_force_optimal(y)
            np.testing.assert_array_equal(res.best, (n * y > y.sum()).astype(float))
            assert not res.degenerate
            vertices = itertools.product((0.0, 1.0), repeat=n)
            assert res.loss == min(oracle_loss(np.array(v), y) for v in vertices)


class TestPerturbation:
    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=30, deadline=None)
    def test_exchange_gain_matches_analytic(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(3, 8))
        y = rng.uniform(0, 1, n)
        s_hat = rng.uniform(0.2, 0.8, n)
        r, rp = rng.choice(n, 2, replace=False)
        delta = float(rng.uniform(0.01, 0.1))
        observed, analytic = perturbation_gain(y, s_hat, int(r), int(rp), delta)
        assert observed == pytest.approx(analytic, abs=1e-9)


class TestTheorem1:
    def test_default_instance_passes(self):
        r = check_theorem1(NoiseModel(0.1, 0.05, 0.2, 0.05), 0.6, trials=20_000, seed=0)
        assert r.passed
        assert r.bound == pytest.approx(0.0196)
        assert r.details["exact"] == pytest.approx(0.0209)

    def test_single_model_limit(self):
        r = check_theorem1(NoiseModel(0.1, 0.02, 0.5, 0.3), 1.0, trials=5_000, seed=1)
        assert r.bound == pytest.approx(0.1**2)

    def test_zero_bias_flagged_degenerate(self):
        r = check_theorem1(NoiseModel(0.0, 0.05, 0.0, 0.05), 0.5, trials=5_000, seed=2)
        assert r.details["degenerate_bias"]
        assert r.bound == pytest.approx(0.0)

    def test_requires_enough_trials(self):
        with pytest.raises(ValueError):
            check_theorem1(NoiseModel(), 0.5, trials=10)


class TestTheorem2:
    def test_report_structure_and_p1(self):
        # At the box optimum the first ordering property holds up to ties;
        # the second fails on straddling-versus-same-side quadruples, which
        # the report exposes rather than hiding.
        r = check_theorem2(trials=20, n=5, seed=0)
        assert r.details["p1_failures"] == 0
        assert 0.0 <= r.statistic <= 1.0
        assert r.passed == (r.statistic >= 1.0)

    def test_json_serialization_keys(self):
        import json

        r = check_theorem2(trials=3, n=4, seed=1)
        payload = json.loads(r.to_json())
        assert set(payload) >= {"theorem", "trials", "statistic", "bound", "bound_is_floor",
                                "pass", "seed"}
        assert payload["bound_is_floor"] is True

    @pytest.mark.parametrize("kw,match", [
        (dict(trials=0), "trials must be at least 1"),
        (dict(trials=-1), "trials must be at least 1"),
        (dict(n=0), "n must lie in"),
        (dict(n=1), "n must lie in"),
        (dict(n=9), "n must lie in"),
    ])
    def test_invalid_arguments_are_named(self, kw, match):
        with pytest.raises(ValueError, match=match):
            check_theorem2(**{"trials": 5, **kw})

    @pytest.mark.parametrize("n", [2, 3, 5, 8])
    @pytest.mark.parametrize("seed", range(10))
    def test_matches_one_draw_per_quadruple(self, seed, n):
        assert (check_theorem2(trials=20, n=n, seed=seed).to_json()
                == _reference_check_theorem2(trials=20, n=n, seed=seed).to_json())


def _reference_check_theorem2(trials, n, seed):
    """Reference: theorem2 with one ``rng.integers`` call and one Python
    comparison per quadruple."""
    rng = np.random.default_rng(seed)
    passed_trials = 0
    p1_failures = 0
    p2_failures = 0
    for _ in range(trials):
        y = rng.uniform(0.0, 1.0, n)
        while np.unique(y).size < n:
            y = rng.uniform(0.0, 1.0, n)
        s_star, y = brute_force_optimal(y).best.tolist(), y.tolist()
        ok = True
        for r in range(n):
            for k in range(n):
                if y[r] > y[k] and not (s_star[r] > s_star[k] - theory.TIE_TOL):
                    ok = False
                    p1_failures += 1
        for _ in range(100):
            r, k, rp, kp = rng.integers(0, n, 4).tolist()
            if y[r] - y[k] > y[rp] - y[kp]:
                if not ((s_star[r] - s_star[k]) > (s_star[rp] - s_star[kp]) - theory.TIE_TOL):
                    ok = False
                    p2_failures += 1
        if ok:
            passed_trials += 1
    frac = passed_trials / trials
    return TheoryReport(
        theorem="theorem2", trials=trials, statistic=frac, bound=1.0,
        passed=frac >= 1.0, seed=seed,
        details={"p1_failures": p1_failures, "p2_failures": p2_failures}, bound_is_floor=True,
    )


def _reference_pairwise_sgd(y, noise, steps, batch, lr, seed):
    """Reference: the clean (noise=None) or noisy SGD run alone, keeping
    every step's gradient and iterate."""
    n = y.size
    rng_batch = np.random.default_rng(seed)
    rng_noise = np.random.default_rng(seed + 1)
    theta = np.zeros(n)
    lam = np.full(batch, 0.5)
    grads = np.empty((steps, n))
    thetas = np.empty((steps, n))
    for t in range(steps):
        idx = rng_batch.permutation(n)[:batch]
        if noise is None:
            s_obs = y[idx]
            llm_obs = y[idx]
        else:
            s_obs = y[idx] + rng_noise.normal(noise.mu_s, noise.sigma_s, batch)
            llm_obs = y[idx] + rng_noise.normal(noise.mu_S, noise.sigma_S, batch)
        s_hat = sigmoid(theta[idx])
        _, dhat = collaborative_loss_grad(s_hat, s_obs, llm_obs, lam, lam)
        g = np.zeros(n)
        g[idx] = dhat * s_hat * (1.0 - s_hat)
        grads[t] = g
        thetas[t] = theta
        theta = theta - lr * g
    return grads, thetas


def _reference_stepwise_sgd(y, noise, steps, tail_rows, batch, lr, seed):
    """Reference: ``_pairwise_sgd`` stepping through the batches one by one,
    each step updating its batch's (clean, noisy) logits."""
    n = y.size
    rng_batch = np.random.default_rng(seed)
    rng_noise = np.random.default_rng(seed + 1)
    chunk = theory._LEMMA1_CHUNK
    theta = np.zeros((2, n))
    lam = np.full(batch, 0.5)
    idx = np.empty((chunk, batch), dtype=np.intp)
    obs = np.empty((chunk, 2, 2, batch))
    g = np.empty((chunk, 2, batch))
    rows = np.arange(chunk)[:, None]
    tail = np.zeros((tail_rows, n))
    tail_start = steps - tail_rows
    grad_norms = np.empty(steps)
    noisy_grads = np.empty((chunk, n))
    theta_mid = theta_last = None
    for c0 in range(0, steps, chunk):
        m = min(chunk, steps - c0)
        for k in range(m):
            idx[k] = rng_batch.permutation(n)[:batch]
        y_b = y[idx[:m, None]]
        obs[:m, :, 0] = y_b
        np.add(y_b, noise.sample_pair(rng_noise, (m, 2, batch)), out=obs[:m, :, 1])
        dhat = theory.CollaborativeTerm(obs[:m, 0], obs[:m, 1], lam, lam).grad
        for k in range(m):
            t = c0 + k
            if t == steps // 2:
                theta_mid = theta[1].copy()
            if t == steps - 1:
                theta_last = theta.copy()
            cols = idx[k]
            theta_b = theta[:, cols]
            s_hat = sigmoid(theta_b)
            np.multiply(dhat[k] * s_hat, 1.0 - s_hat, out=g[k])
            theta_b -= lr * g[k]
            theta[:, cols] = theta_b
        noisy_grads[:m].fill(0.0)
        noisy_grads[rows[:m], idx[:m]] = g[:m, 1]
        grad_norms[c0 : c0 + m] = np.linalg.norm(noisy_grads[:m], axis=1)
        k0 = max(tail_start - c0, 0)
        if k0 < m:
            tail[rows[k0:m] + (c0 - tail_start), idx[k0:m]] = g[k0:m, 1] - g[k0:m, 0]
    return tail, grad_norms, theta_mid, theta_last


def _reference_check_lemma1(noise, y, steps=10_000, seed=0, window=500, resamples=10_000):
    """Reference: lemma1 from two separate SGD runs held in full and one
    noise resample per loop iteration."""
    y = np.asarray(y, dtype=np.float64).reshape(-1)
    noisy_grads, noisy_thetas = _reference_pairwise_sgd(
        y, noise, steps, LEMMA1_BATCH, LEMMA1_LR, seed)
    clean_grads, clean_thetas = _reference_pairwise_sgd(
        y, None, steps, LEMMA1_BATCH, LEMMA1_LR, seed)

    kernel = np.ones(window) / window
    gap = np.linalg.norm(
        np.apply_along_axis(lambda c: np.convolve(c, kernel, mode="valid"), 0,
                            noisy_grads - clean_grads),
        axis=1,
    )
    final_gap = float(gap[-1])

    norms = np.linalg.norm(noisy_grads, axis=1)
    smooth = np.convolve(norms, kernel, mode="valid")
    ts = np.arange(smooth.size) + window / 2.0
    keep = smooth > 0
    slope = float(np.polyfit(np.log(ts[keep]), np.log(smooth[keep]), 1)[0])

    loss_gap = abs(
        oracle_loss(sigmoid(noisy_thetas[-1]), y)
        - oracle_loss(sigmoid(clean_thetas[-1]), y)
    )

    theta0 = noisy_thetas[steps // 2]
    rng = np.random.default_rng(seed + 7)
    n = y.size
    lam = np.full(LEMMA1_BATCH, 0.5)
    diffs = np.empty((resamples, n))
    idx = rng.choice(n, size=LEMMA1_BATCH, replace=False)
    s_hat = sigmoid(theta0[idx])
    chain = s_hat * (1.0 - s_hat)
    _, clean_dhat = collaborative_loss_grad(s_hat, y[idx], y[idx], lam, lam)
    for r in range(resamples):
        s_obs = y[idx] + rng.normal(noise.mu_s, noise.sigma_s, LEMMA1_BATCH)
        llm_obs = y[idx] + rng.normal(noise.mu_S, noise.sigma_S, LEMMA1_BATCH)
        _, dhat = collaborative_loss_grad(s_hat, s_obs, llm_obs, lam, lam)
        row = np.zeros(n)
        row[idx] = (dhat - clean_dhat) * chain
        diffs[r] = row
    mean_diff = diffs.mean(axis=0)
    se = diffs.std(axis=0, ddof=1) / np.sqrt(resamples)
    unbiased = bool((np.abs(mean_diff) <= 3.0 * np.maximum(se, 1e-15)).all())

    passed = final_gap < 1e-2 and slope <= -0.15 and unbiased
    return TheoryReport(
        theorem="lemma1",
        trials=steps,
        statistic=final_gap,
        bound=1e-2,
        passed=bool(passed),
        seed=seed,
        details={
            "grad_norm_loglog_slope": slope,
            "slope_bound": -0.15,
            "loss_trajectory_gap": float(loss_gap),
            "unbiased_within_3se": unbiased,
            "max_abs_mean_grad_diff": float(np.abs(mean_diff).max()),
        },
    )


class TestLemma1MatchesReference:
    """The fused streaming run gives byte-identical reports."""

    def test_default_sizes(self):
        y = np.random.default_rng(0).uniform(0, 1, 128)
        assert (check_lemma1(NoiseModel(), y).to_json()
                == _reference_check_lemma1(NoiseModel(), y).to_json())

    # (steps, window, resamples, slots): an odd step count that crosses a
    # noise chunk, the widest window (two moving averages for the slope), the
    # fewest resamples, one-step windows and several resample chunks
    @pytest.mark.parametrize("steps,window,resamples,n", [
        (1001, 37, 2, 96), (1001, 1000, 2, 32), (1200, 1, 1500, 128),
    ])
    @pytest.mark.parametrize("seed", range(5))
    def test_small_sizes(self, seed, steps, window, resamples, n):
        y = np.random.default_rng(seed).uniform(0, 1, n)
        kw = dict(steps=steps, seed=seed, window=window, resamples=resamples)
        assert (check_lemma1(NoiseModel(), y, **kw).to_json()
                == _reference_check_lemma1(NoiseModel(), y, **kw).to_json())


class TestSlotwiseSgdMatchesStepwise:
    """Every field of the slot-wise trace equals the step-wise one, bit for
    bit, signed zeros included."""

    # (n, steps, tail_rows, batch, noise): steps // 2 on a chunk start,
    # steps - 1 on a chunk start, every slot in every batch, the smallest
    # batch the pairwise loss takes, and no noise
    @pytest.mark.parametrize("n,steps,tail_rows,batch,noise", [
        (64, 2000, 10, 16, NoiseModel()),
        (64, 1001, 300, 16, NoiseModel()),
        (32, 1200, 50, 32, NoiseModel()),
        (40, 1200, 50, 2, NoiseModel()),
        (48, 1500, 120, 8, NoiseModel(0.0, 0.0, 0.0, 0.0)),
    ])
    @pytest.mark.parametrize("seed", range(2))
    def test_trace_fields(self, seed, n, steps, tail_rows, batch, noise):
        y = np.random.default_rng(seed).uniform(0, 1, n)
        trace = _pairwise_sgd(y, noise, steps, tail_rows, batch, 0.5, seed)
        expected = _reference_stepwise_sgd(y, noise, steps, tail_rows, batch, 0.5, seed)
        got = (trace.tail, trace.grad_norms, trace.theta_mid, trace.theta_last)
        for field, want in zip(got, expected):
            np.testing.assert_array_equal(field, want)
            np.testing.assert_array_equal(np.signbit(field), np.signbit(want))
        if batch == n:
            assert trace.update_rounds == steps

    def test_one_slot_batches_are_rejected(self):
        y = np.random.default_rng(0).uniform(0, 1, 8)
        with pytest.raises(ValueError, match="at least two slots"):
            _pairwise_sgd(y, NoiseModel(), 1000, 10, 1, 0.5, 0)


def _drawn_batches(n, steps, batch, seed):
    """Every step's batch, in step order, as ``_pairwise_sgd`` hands them to
    its slot-wise rounds, with the trace."""
    seen = []
    real = theory._slot_rounds

    def recording(theta, cols, *rest):
        seen.append(cols.copy())
        return real(theta, cols, *rest)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(theory, "_slot_rounds", recording)
        y = np.random.default_rng(seed).uniform(0, 1, n)
        trace = _pairwise_sgd(y, NoiseModel(), steps, 10, batch, 0.5, seed)
    return np.concatenate(seen), trace


class TestBatchDraw:
    def test_a_batch_holds_distinct_slots(self):
        batches, _ = _drawn_batches(128, 2001, 32, 0)
        assert batches.shape == (2001, 32)
        assert batches.min() >= 0 and batches.max() < 128
        assert (np.diff(np.sort(batches, axis=1), axis=1) > 0).all()

    def test_stream_does_not_depend_on_the_chunk(self, monkeypatch):
        monkeypatch.setattr(theory, "_LEMMA1_CHUNK", 2001)
        one, one_trace = _drawn_batches(64, 2001, 16, 5)
        monkeypatch.setattr(theory, "_LEMMA1_CHUNK", 1001)
        two, two_trace = _drawn_batches(64, 2001, 16, 5)
        np.testing.assert_array_equal(one, two)
        np.testing.assert_array_equal(one_trace.tail, two_trace.tail)
        np.testing.assert_array_equal(one_trace.grad_norms, two_trace.grad_norms)

    def test_each_slot_is_drawn_at_the_binomial_rate(self):
        # each slot's count is Binomial(10,000, 1/4): mean 2,500, sd 43.3;
        # five sd on either side
        n, batch, steps = 128, 32, 10_000
        batches, _ = _drawn_batches(n, steps, batch, 0)
        p = batch / n
        counts = np.bincount(batches.ravel(), minlength=n)
        assert np.abs(counts - steps * p).max() <= 5.0 * math.sqrt(steps * p * (1 - p))


class TestLemma1:
    def test_zero_noise_trajectories_coincide(self):
        rng = np.random.default_rng(0)
        y = rng.uniform(0, 1, 64)
        trace = _pairwise_sgd(y, NoiseModel(0.0, 0.0, 0.0, 0.0), 300, 300, 16, 0.5, 11)
        np.testing.assert_array_equal(trace.tail, np.zeros((300, 64)))
        np.testing.assert_array_equal(trace.theta_last[0], trace.theta_last[1])
        assert (trace.grad_norms > 0).all()

    def test_noise_shows_at_every_streamed_step(self):
        rng = np.random.default_rng(0)
        y = rng.uniform(0, 1, 64)
        trace = _pairwise_sgd(y, NoiseModel(), 300, 300, 16, 0.5, 11)
        assert (np.abs(trace.tail).sum(axis=1) > 0).all()
        assert not np.array_equal(trace.theta_last[0], trace.theta_last[1])

    # under one chunk, one step past a chunk, and two whole chunks
    @pytest.mark.parametrize("steps", [300, 1001, 2000])
    def test_one_collaborative_term_per_chunk(self, monkeypatch, steps):
        built = []

        def counting(*args):
            built.append(args)
            return real(*args)

        real = theory.CollaborativeTerm
        monkeypatch.setattr(theory, "CollaborativeTerm", counting)
        y = np.random.default_rng(0).uniform(0, 1, 64)
        _pairwise_sgd(y, NoiseModel(), steps, 10, 16, 0.5, 3)
        assert len(built) == math.ceil(steps / theory._LEMMA1_CHUNK)

    def test_memory_stays_flat_at_default_sizes(self):
        # holding both runs' (steps, n) gradients and iterates peaked at 59 MB
        y = np.random.default_rng(0).uniform(0, 1, 128)
        tracemalloc.start()
        try:
            check_lemma1(NoiseModel(), y)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10e6

    def test_desk_scale_run_passes(self):
        rng = np.random.default_rng(1)
        y = rng.uniform(0, 1, 96)
        r = check_lemma1(NoiseModel(0.1, 0.05, 0.2, 0.05), y, steps=3000, seed=0,
                         window=200, resamples=2000)
        assert r.passed, r.details

    def test_requires_enough_steps(self):
        with pytest.raises(ValueError):
            check_lemma1(NoiseModel(), np.linspace(0, 1, 8), steps=10)

    @pytest.mark.parametrize("kw,n,match", [
        (dict(window=0), 64, "window must lie in"),
        (dict(window=1500), 64, "window must lie in"),
        (dict(resamples=1), 64, "at least 2 resamples"),
        (dict(), 31, "at least 32 slots"),
        # one moving average: the slope would be fitted through a single point
        (dict(window=1000), 64, "window must lie in"),
    ])
    def test_invalid_arguments_are_named(self, kw, n, match):
        with pytest.raises(ValueError, match=match):
            check_lemma1(NoiseModel(), np.linspace(0, 1, n), steps=1000, **kw)


class TestLipschitz:
    def test_estimate_finite_positive(self):
        rng = np.random.default_rng(2)
        est = lipschitz_report(rng.uniform(0, 1, 30), param_pairs=120, seed=0).statistic
        assert np.isfinite(est) and est > 0.0

    def test_probe_report(self):
        rng = np.random.default_rng(3)
        r = lipschitz_report(rng.uniform(0, 1, 30), param_pairs=120, seed=0)
        assert r.lipschitz == r.statistic
        assert r.bound == 280.0

    def test_requires_enough_pairs(self):
        with pytest.raises(ValueError):
            lipschitz_report(np.linspace(0, 1, 8), param_pairs=10)


class TestEquivalence:
    def test_canonical_sweep_passes(self):
        r = check_alignment_equivalence()
        assert r.passed
        gaps = r.details["gaps"]
        assert all(b < a for a, b in zip(gaps, gaps[1:]))
        assert r.statistic < 0.01
