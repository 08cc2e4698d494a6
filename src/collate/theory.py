"""Numerical verification of the fusion theory via brute force and Monte Carlo.

Each check produces a TheoryReport whose pass flag is a pure function of the
observed statistic against its analytic bound or target. Trials are
independent and derive their own seeds, so they can run concurrently.
"""
from __future__ import annotations

import itertools
import json
import time
from dataclasses import dataclass, field

import numpy as np

from . import alignment as align_mod
from .alignment import HalfGaussianFit
from .collab import CollaborativeTerm, ConditionalNetParams, collaborative_loss_grad
from .core import sigmoid
from .errors import LengthMismatch
from .optim import FlatParams

# Scores (theorem2's ordering checks) or vertex losses (its optimum) this
# close count as tied.
TIE_TOL = 1e-6
# theorem2's P2 checks: random quadruples per trial.
THEOREM2_QUADRUPLES = 100
# lemma1's SGD: slots per batch and step size on the per-slot logits.
LEMMA1_BATCH = 32
LEMMA1_LR = 0.5
# The Lipschitz probe's fusion net: representation width, hidden width, and
# the sd of its drawn output bias; the published probe value it must stay under.
LIPSCHITZ_REP_DIM = 4
LIPSCHITZ_HIDDEN = 8
LIPSCHITZ_B2_SCALE = 1.0
LIPSCHITZ_PROBE_BOUND = 280.0
# The alignment-equivalence sweep: bin counts, and the size of its fixed set.
EQUIVALENCE_BIN_COUNTS = (10, 100, 1000, 10_000)
EQUIVALENCE_N_SCORES = 64


@dataclass(frozen=True)
class NoiseModel:
    """Score-error model for the two scorers; both biases must be nonzero for
    the accumulation bound to be informative."""

    mu_s: float = 0.1
    sigma_s: float = 0.05
    mu_S: float = 0.2
    sigma_S: float = 0.05

    def sample_pair(self, rng: np.random.Generator, shape) -> np.ndarray:
        """Both scorers' errors in one draw of ``shape`` (..., 2, batch):
        index 0 of the second-last axis is the detector's, 1 the LLM's. The
        values equal alternating ``rng.normal(mu_s, sigma_s, batch)`` and
        ``rng.normal(mu_S, sigma_S, batch)`` calls."""
        loc = np.array([[self.mu_s], [self.mu_S]])
        scale = np.array([[self.sigma_s], [self.sigma_S]])
        return rng.normal(loc, scale, shape)


@dataclass
class TheoryReport:
    """One check's outcome. ``bound_is_floor`` says which way the bound
    points: the check passes when the statistic reaches the bound (True) or
    stays under it (False)."""

    theorem: str
    trials: int
    statistic: float
    bound: float
    passed: bool
    seed: int
    lipschitz: float | None = None
    details: dict = field(default_factory=dict)
    bound_is_floor: bool = False

    def to_json(self) -> str:
        payload = {
            "theorem": self.theorem,
            "trials": self.trials,
            "statistic": self.statistic,
            "bound": self.bound,
            "bound_is_floor": self.bound_is_floor,
            "pass": self.passed,
            "seed": self.seed,
        }
        if self.lipschitz is not None:
            payload["lipschitz"] = self.lipschitz
        if self.details:
            payload["details"] = self.details
        return json.dumps(payload, sort_keys=True)


def oracle_loss(s_hat: np.ndarray, y: np.ndarray) -> float | np.ndarray:
    """Difference-correlation objective: -sum_ij (y_i - y_j)(S^_i - S^_j), of
    one score vector (a float) or of each in a stack along the last axis.

    Implemented as the literal double sum over outer differences; tests
    cross-check it against the closed form -2(n * sum(y S^) - sum(y) sum(S^)).
    """
    s_hat = np.asarray(s_hat, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64).reshape(-1)
    if s_hat.shape[-1:] != y.shape:
        raise LengthMismatch("score vectors must share one length")
    dy = y[:, None] - y[None, :]
    ds = s_hat[..., :, None] - s_hat[..., None, :]
    # each vector's n * n terms summed as one flat run, as .sum() of one (n, n) array
    losses = -(dy * ds).reshape(*s_hat.shape[:-1], -1).sum(axis=-1)
    return float(losses) if s_hat.ndim == 1 else losses


@dataclass
class BruteForceResult:
    best: np.ndarray
    loss: float
    degenerate: bool


def brute_force_optimal(y: np.ndarray, seed: int = 0) -> BruteForceResult:
    """Minimize the oracle objective over the unit box by evaluating it at
    each of the 2^n box vertices (n <= 8).

    The objective is linear in the scores, so a vertex reaches its minimum.
    Vertex losses within TIE_TOL of the minimum count as reaching it;
    ``best`` is their mean, so a coordinate whose gradient vanishes sits at
    0.5, and ``degenerate`` flags more than one such vertex. ``seed`` has no
    effect; the enumeration draws nothing at random.
    """
    y = np.asarray(y, dtype=np.float64).reshape(-1)
    if y.size > 8:
        raise ValueError("brute force is for small instances (n <= 8)")
    vertices = np.array(list(itertools.product((0.0, 1.0), repeat=y.size)))
    losses = oracle_loss(vertices, y)
    minimal = losses <= losses.min() + TIE_TOL
    return BruteForceResult(
        best=vertices[minimal].mean(axis=0),
        loss=float(losses.min()),
        degenerate=bool(minimal.sum() > 1),
    )


def check_theorem2(trials: int, n: int = 5, seed: int = 0,
                   counters: dict | None = None) -> TheoryReport:
    """Ordering properties of the oracle optimum on random instances.

    Per trial: draw y with distinct entries, brute-force the optimum, then
    require (P1) y_r > y_k implies S*_r > S*_k - TIE_TOL for every pair, and
    (P2) y_r - y_k > y_r' - y_k' implies (S*_r - S*_k) > (S*_r' - S*_k') - TIE_TOL on
    THEOREM2_QUADRUPLES random quadruples. The statistic is the fraction of
    trials where both hold; the target is every trial passing.

    A trial's quadruples come from one ``rng.integers`` call. numpy's
    bounded draws read the generator's 32-bit stream and buffer nothing
    between calls, so they equal one call per quadruple. A ``counters``
    dict receives ``trials`` and ``quadruples``.
    """
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    if not 2 <= n <= 8:
        raise ValueError(f"n must lie in [2, 8] for the brute force, got {n}")
    rng = np.random.default_rng(seed)
    passed_trials = 0
    p1_failures = 0
    p2_failures = 0
    for _ in range(trials):
        y = rng.uniform(0.0, 1.0, n)
        while np.unique(y).size < n:
            y = rng.uniform(0.0, 1.0, n)
        s_star = brute_force_optimal(y).best
        p1 = int(np.count_nonzero(
            (y[:, None] > y[None, :]) & ~(s_star[:, None] > s_star[None, :] - TIE_TOL)
        ))
        r, k, rp, kp = rng.integers(0, n, (THEOREM2_QUADRUPLES, 4)).T
        p2 = int(np.count_nonzero(
            (y[r] - y[k] > y[rp] - y[kp])
            & ~((s_star[r] - s_star[k]) > (s_star[rp] - s_star[kp]) - TIE_TOL)
        ))
        p1_failures += p1
        p2_failures += p2
        if p1 == p2 == 0:
            passed_trials += 1
    if counters is not None:
        counters.update(trials=trials, quadruples=trials * THEOREM2_QUADRUPLES)
    frac = passed_trials / trials
    return TheoryReport(
        theorem="theorem2",
        trials=trials,
        statistic=frac,
        bound=1.0,
        passed=frac >= 1.0,
        seed=seed,
        bound_is_floor=True,
        details={"p1_failures": p1_failures, "p2_failures": p2_failures},
    )


def check_theorem1(
    noise: NoiseModel, lambda1: float, trials: int = 100_000, seed: int = 0
) -> TheoryReport:
    """Error-accumulation bound for squared-error fusion.

    The per-slot optimum under the weighted squared loss is
    y + lambda1 eps_s + lambda2 eps_S; its Monte Carlo mean squared deviation
    from y must stay above (lambda1 mu_s + lambda2 mu_S)^2 and match the
    closed-form value bound + lambda1^2 sigma_s^2 + lambda2^2 sigma_S^2
    within 5% relative.
    """
    if trials < 1000:
        raise ValueError("need at least 1e3 trials for a stable estimate")
    lambda2 = 1.0 - lambda1
    rng = np.random.default_rng(seed)
    eps_s, eps_llm = noise.sample_pair(rng, (2, trials))
    sq_err = (lambda1 * eps_s + lambda2 * eps_llm) ** 2
    estimate = float(sq_err.mean())
    bound = (lambda1 * noise.mu_s + lambda2 * noise.mu_S) ** 2
    exact = bound + lambda1**2 * noise.sigma_s**2 + lambda2**2 * noise.sigma_S**2
    degenerate = noise.mu_s == 0.0 and noise.mu_S == 0.0
    rel = abs(estimate - exact) / exact if exact > 0 else 0.0
    passed = estimate >= bound and rel <= 0.05
    return TheoryReport(
        theorem="theorem1",
        trials=trials,
        statistic=estimate,
        bound=bound,
        passed=bool(passed),
        seed=seed,
        bound_is_floor=True,
        details={"exact": exact, "rel_err_vs_exact": rel, "degenerate_bias": degenerate},
    )


@dataclass
class _SgdTrace:
    """What lemma1's statistics read from the two SGD runs.

    ``tail`` holds the last ``tail_rows`` rows of the noisy minus the clean
    gradient; ``grad_norms`` the noisy gradient's norm at every step;
    ``theta_mid`` the noisy iterate at step ``steps // 2``; ``theta_last``
    the (clean, noisy) iterates at the last step. Each iterate is taken
    before that step's update. ``update_rounds`` counts the slot-wise
    rounds that ran the steps.
    """

    tail: np.ndarray
    grad_norms: np.ndarray
    theta_mid: np.ndarray
    theta_last: np.ndarray
    update_rounds: int


# lemma1 draws batches and noise, computes the collaborative gradients and
# takes gradient norms this many SGD steps at a time, and vectorises its
# noise resamples in blocks of this many.
_LEMMA1_CHUNK = 1000


def _slot_rounds(theta: np.ndarray, cols: np.ndarray, dhat: np.ndarray, lr: float,
                 g: np.ndarray) -> int:
    """Run the SGD steps whose batches are the rows of ``cols`` on ``theta``
    (run, slot), in slot-wise rounds: round r applies every slot's r-th
    update at once. ``dhat`` holds each step's collaborative gradient and
    ``g`` receives its logit gradient, both (step, run, batch). Returns the
    number of rounds."""
    runs, n = theta.shape
    # each (step, slot) entry's rank among its slot's entries, in step order;
    # on the narrowest integer type numpy's stable sort is a radix sort
    slots = cols.ravel()
    order = np.argsort(slots.astype(np.min_scalar_type(n - 1)), kind="stable")
    counts = np.bincount(slots, minlength=n)
    rank = np.empty_like(slots)
    rank[order] = np.arange(slots.size) - np.repeat(np.cumsum(counts) - counts, counts)
    rank = rank.reshape(cols.shape)
    rounds = int(counts.max())
    upd = np.zeros((rounds, runs, n))
    for run in range(runs):
        upd[rank, run, cols] = dhat[:, run]
    for r in range(rounds):
        s_hat = sigmoid(theta)
        np.multiply(upd[r] * s_hat, 1.0 - s_hat, out=upd[r])
        theta -= lr * upd[r]
    for run in range(runs):
        g[:, run] = upd[rank, run, cols]
    return rounds


def _pairwise_sgd(
    y: np.ndarray,
    noise: NoiseModel,
    steps: int,
    tail_rows: int,
    batch: int,
    lr: float,
    seed: int,
) -> _SgdTrace:
    """SGD on the pairwise loss over per-slot logits, run clean and noisy at
    once as the two rows of one theta.

    Both rows see the same batch, drawn from one stream; the noisy row's
    noise comes from a second stream. Both are drawn a chunk of steps at a
    time, in the order of one batch per step and of one noise draw per
    scorer per step. A step's batch is the first ``batch`` slots of a fresh
    permutation of the n slots, and one ``Generator.permuted`` call draws a
    chunk's permutations, bit-equal to one ``permutation(n)[:batch]`` per
    step whatever the chunk size. So each batch is a uniform ordered subset
    drawn without replacement, the law of ``choice(n, batch,
    replace=False)``, though not its stream. The collaborative gradient does
    not read theta, so a chunk's gradients come from one
    ``CollaborativeTerm`` on its stacked (clean, noisy) observations, each
    row bit-equal to a term built on that step alone.

    The steps then run by slot. A step changes only its batch's logits, and
    each update, ``theta -= lr * (d * s) * (1 - s)`` with ``s = sigmoid(theta)``,
    is elementwise, so each slot follows its own recurrence through the
    steps that batch it. Round r applies every slot's r-th update of a
    piece at once, on the whole (2, n) theta. A slot with fewer updates gets
    a zero gradient, which leaves its logit unchanged bit for bit: ``s``
    lies strictly inside (0, 1), so the padded ``(0 * s) * (1 - s)`` is +0,
    and ``x - lr * +0`` is x for every x, -0 included. Each logit thus goes
    through the step-wise operations in the step-wise order, and the
    iterates and gradients are bit-equal to running the steps one by one.
    Pieces end at chunk ends and at steps ``steps // 2`` and
    ``steps - 1``, so ``theta_mid`` and ``theta_last`` are taken before
    those steps.

    Only what ``_SgdTrace`` names is kept, and the buffers are sized by a
    chunk, so memory does not grow with ``steps``; the rounds' buffers live
    only inside ``_slot_rounds``, so none is held while the next chunk's
    gradients are formed. The gradient norms are
    taken over full n-slot rows, a chunk of rows at a time: numpy groups a
    row's pairwise sum by slot position, so a norm over the batch's slots
    alone could differ in the last bit.
    """
    n = y.size
    rng_batch = np.random.default_rng(seed)
    rng_noise = np.random.default_rng(seed + 1)
    theta = np.zeros((2, n))
    lam = np.full(batch, 0.5)
    slots = np.broadcast_to(np.arange(n), (_LEMMA1_CHUNK, n))
    idx = np.empty((_LEMMA1_CHUNK, batch), dtype=np.intp)
    obs = np.empty((_LEMMA1_CHUNK, 2, 2, batch))  # (step, scorer, run); run 0 is clean
    g = np.empty((_LEMMA1_CHUNK, 2, batch))  # (step, run)
    rows = np.arange(_LEMMA1_CHUNK)[:, None]
    tail = np.zeros((tail_rows, n))
    tail_start = steps - tail_rows
    grad_norms = np.empty(steps)
    noisy_grads = np.empty((_LEMMA1_CHUNK, n))
    theta_mid = theta_last = None
    update_rounds = 0
    for c0 in range(0, steps, _LEMMA1_CHUNK):
        m = min(_LEMMA1_CHUNK, steps - c0)
        idx[:m] = rng_batch.permuted(slots[:m], axis=1)[:, :batch]
        y_b = y[idx[:m, None]]  # (step, 1, slot): both scorers see y in the clean run
        obs[:m, :, 0] = y_b
        np.add(y_b, noise.sample_pair(rng_noise, (m, 2, batch)), out=obs[:m, :, 1])
        dhat = CollaborativeTerm(obs[:m, 0], obs[:m, 1], lam, lam).grad
        cuts = sorted({0, m} | {t - c0 for t in (steps // 2, steps - 1) if c0 < t < c0 + m})
        for a, b in zip(cuts, cuts[1:]):
            if c0 + a == steps // 2:
                theta_mid = theta[1].copy()
            if c0 + a == steps - 1:
                theta_last = theta.copy()
            update_rounds += _slot_rounds(theta, idx[a:b], dhat[a:b], lr, g[a:b])
        # each (step, slot) is written once: a batch holds no slot twice
        noisy_grads[:m].fill(0.0)
        noisy_grads[rows[:m], idx[:m]] = g[:m, 1]
        grad_norms[c0 : c0 + m] = np.linalg.norm(noisy_grads[:m], axis=1)
        k0 = max(tail_start - c0, 0)
        if k0 < m:
            tail[rows[k0:m] + (c0 - tail_start), idx[k0:m]] = g[k0:m, 1] - g[k0:m, 0]
    return _SgdTrace(tail, grad_norms, theta_mid, theta_last, update_rounds)


def check_lemma1(
    noise: NoiseModel,
    y: np.ndarray,
    steps: int = 10_000,
    seed: int = 0,
    window: int = 500,
    resamples: int = 10_000,
    counters: dict | None = None,
) -> TheoryReport:
    """SGD on the noisy pairwise loss tracks SGD on the clean oracle loss.

    Three sub-checks: (a) the sliding-window mean gradient gap between the
    noisy and clean runs ends below 1e-2; (b) the log-log slope of the noisy
    run's gradient-norm trajectory is at most -0.15; (c) at a fixed parameter
    point, the mean of (noisy - clean) gradients over many noise resamples is
    zero within three standard errors, coordinatewise. The loss gap between
    the two runs' last iterates is reported alongside.

    Each SGD step's batch is the first ``LEMMA1_BATCH`` slots of a fresh
    uniform permutation of the slots, so it follows the law of
    ``Generator.choice(n, LEMMA1_BATCH, replace=False)`` (``_pairwise_sgd``
    draws a chunk of them in one call). Both runs advance in slot-wise
    rounds (``_pairwise_sgd``): round r
    applies each slot's r-th update, which reads only that slot's logit, so
    every iterate and gradient is bit-equal to stepping through the batches
    one by one, and so is the report. A ``counters`` dict receives
    ``steps`` and ``update_rounds``, the rounds that ran them.

    (a) reads only the last moving average of the gradient differences, so
    only their last window + 1 rows are kept. The per-column moving averages
    then form a column-major array of two rows, as over the whole run, and
    numpy sums each row's squares for its norm in order; a lone row it would
    sum pairwise, which can move the statistic by an ulp. (c) keeps only the
    batch's slots: the gradient is zero elsewhere, and a zero column passes
    its test whatever its mean.
    """
    y = np.asarray(y, dtype=np.float64).reshape(-1)
    if steps < 1000:
        raise ValueError("need at least 1e3 steps")
    # (b) fits a slope through steps - window + 1 moving averages: it needs two
    if not 1 <= window < steps:
        raise ValueError(f"window must lie in [1, {steps - 1}] for {steps} steps, got {window}")
    if resamples < 2:
        raise ValueError(f"need at least 2 resamples for a standard error, got {resamples}")
    if y.size < LEMMA1_BATCH:
        raise ValueError(f"need at least {LEMMA1_BATCH} slots for one batch, got {y.size}")
    trace = _pairwise_sgd(y, noise, steps, window + 1, LEMMA1_BATCH, LEMMA1_LR, seed)
    if counters is not None:
        counters.update(steps=steps, update_rounds=trace.update_rounds)

    kernel = np.ones(window) / window
    gap = np.linalg.norm(
        np.apply_along_axis(lambda c: np.convolve(c, kernel, mode="valid"), 0, trace.tail),
        axis=1,
    )
    final_gap = float(gap[-1])

    smooth = np.convolve(trace.grad_norms, kernel, mode="valid")
    ts = np.arange(smooth.size) + window / 2.0
    keep = smooth > 0
    slope = float(np.polyfit(np.log(ts[keep]), np.log(smooth[keep]), 1)[0])

    clean_last, noisy_last = trace.theta_last
    loss_gap = abs(oracle_loss(sigmoid(noisy_last), y) - oracle_loss(sigmoid(clean_last), y))

    # unbiasedness at a fixed mid-run parameter point
    rng = np.random.default_rng(seed + 7)
    lam = np.full(LEMMA1_BATCH, 0.5)
    idx = rng.choice(y.size, size=LEMMA1_BATCH, replace=False)
    y_b = y[idx]
    s_hat = sigmoid(trace.theta_mid[idx])
    chain = s_hat * (1.0 - s_hat)
    _, clean_dhat = collaborative_loss_grad(s_hat, y_b, y_b, lam, lam)
    diffs = np.empty((resamples, LEMMA1_BATCH))
    for r0 in range(0, resamples, _LEMMA1_CHUNK):
        r1 = min(r0 + _LEMMA1_CHUNK, resamples)
        eps = noise.sample_pair(rng, (r1 - r0, 2, LEMMA1_BATCH))
        dhat = CollaborativeTerm(y_b + eps[:, 0], y_b + eps[:, 1], lam, lam).grad
        diffs[r0:r1] = (dhat - clean_dhat) * chain
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


def lipschitz_report(y: np.ndarray, param_pairs: int = 200, seed: int = 0) -> TheoryReport:
    """Largest observed |L*(theta1) - L*(theta2)| / ||theta1 - theta2|| over
    random parameter pairs of the fusion network on fixed inputs, against
    the published probe value; the artifact claims only that its own
    estimate stays below that probe. theta is the net's ``FlatParams``
    vector, the layout phase-2 training steps."""
    if param_pairs < 100:
        raise ValueError("need at least 100 parameter pairs")
    y = np.asarray(y, dtype=np.float64).reshape(-1)
    n = y.size
    rng = np.random.default_rng(seed)
    llm = np.clip(y + rng.normal(0, 0.05, n), 0, 1)
    aligned = np.clip(y + rng.normal(0, 0.05, n), 0, 1)
    rep = rng.normal(0, 1.0, (n, LIPSCHITZ_REP_DIM))

    def loss_of(net: ConditionalNetParams) -> float:
        out, _ = net.forward(llm, aligned, rep)
        return oracle_loss(out, y)

    estimate = 0.0
    for pair in range(param_pairs):
        n1 = ConditionalNetParams(LIPSCHITZ_REP_DIM, LIPSCHITZ_HIDDEN, seed=seed + 2 * pair)
        n2 = ConditionalNetParams(LIPSCHITZ_REP_DIM, LIPSCHITZ_HIDDEN, seed=seed + 2 * pair + 1)
        n1.b2 = float(rng.normal(0, LIPSCHITZ_B2_SCALE))
        n2.b2 = float(rng.normal(0, LIPSCHITZ_B2_SCALE))
        dist = float(np.linalg.norm(FlatParams([n1]).theta - FlatParams([n2]).theta))
        if dist == 0.0:
            continue
        estimate = max(estimate, abs(loss_of(n1) - loss_of(n2)) / dist)
    return TheoryReport(
        theorem="lipschitz_probe",
        trials=param_pairs,
        statistic=estimate,
        bound=LIPSCHITZ_PROBE_BOUND,
        passed=bool(np.isfinite(estimate) and 0.0 < estimate <= LIPSCHITZ_PROBE_BOUND),
        seed=seed,
        lipschitz=estimate,
    )


def check_alignment_equivalence(seed: int = 1) -> TheoryReport:
    """Binned objective converges to the differentiable alignment loss.

    On a fixed mapped set with densities bounded away from zero, the absolute
    gap between the binned cross-entropy term and the continuous term must
    decrease strictly along the bin sweep and end below 1% relative. The
    default seed pins the canonical fixed set; at coarse bin counts the signed
    per-bin errors of an arbitrary set can cancel by accident, which would
    mask the generic O(1/N) decay this check certifies.
    """
    rng = np.random.default_rng(seed)
    mapped = rng.uniform(0.05, 0.9, EQUIVALENCE_N_SCORES)
    fit = HalfGaussianFit(sigma=0.45)
    assert align_mod.half_gaussian_density(fit, mapped).min() > 0.01
    # lambda_hat 0 leaves the log-density term, which the binned objective discretizes
    continuous = align_mod.alignment_loss_grad(mapped, fit, 0.0)[0]
    gaps = [
        abs(align_mod.discrete_alignment_objective(mapped, fit, nb) - continuous)
        for nb in EQUIVALENCE_BIN_COUNTS
    ]
    decreasing = all(g2 < g1 for g1, g2 in zip(gaps, gaps[1:]))
    rel = gaps[-1] / abs(continuous)
    return TheoryReport(
        theorem="alignment_equivalence",
        trials=len(EQUIVALENCE_BIN_COUNTS),
        statistic=rel,
        bound=0.01,
        passed=bool(decreasing and rel < 0.01),
        seed=seed,
        details={"gaps": gaps, "strictly_decreasing": decreasing},
    )


def run_all_checks(seed: int = 0, counters: dict | None = None,
                   timings: dict | None = None) -> list[TheoryReport]:
    """The full verification suite with default desk-scale settings.

    ``counters`` receives lemma1's and theorem2's work counts, each under
    its report's name; ``timings`` the wall seconds of each report, under
    ``<name>_s``.
    """
    counters = {} if counters is None else counters
    timings = {} if timings is None else timings
    rng = np.random.default_rng(seed)
    y = rng.uniform(0.0, 1.0, 128)
    checks = (
        lambda: check_theorem1(NoiseModel(), lambda1=0.6, trials=100_000, seed=seed),
        lambda: check_theorem2(trials=100, n=5, seed=seed,
                               counters=counters.setdefault("theorem2", {})),
        lambda: check_lemma1(NoiseModel(), y, steps=10_000, seed=seed,
                             counters=counters.setdefault("lemma1", {})),
        lambda: lipschitz_report(rng.uniform(0.0, 1.0, 40), param_pairs=200, seed=seed),
        lambda: check_alignment_equivalence(seed=seed + 1),
    )
    reports = []
    for check in checks:
        start = time.perf_counter()
        report = check()
        timings[f"{report.theorem}_s"] = time.perf_counter() - start
        reports.append(report)
    return reports
