"""Score-distribution alignment.

Fits a half-Gaussian to the LLM's score histogram, then trains a strictly
monotone scalar map that pulls the detector's scaled scores onto that target
distribution. Monotonicity matters: alignment recalibrates severity without
reordering the detector's anomaly ranking. The alignment loss takes the
target's log-density in closed form, so a mapped score far out in the tail,
where the density itself underflows to zero, still gives a finite loss.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .core import column_sums, sigmoid
from .errors import DegenerateScores
from .optim import load_state, state_dict

_SQRT2 = math.sqrt(2.0)
_TWO_OVER_PI = 2.0 / math.pi
# additive smoothing of both histograms in kl_histogram
KL_EPS = 1e-9
_erf = np.vectorize(math.erf, otypes=[np.float64])  # size 0 in, size 0 out


@dataclass(frozen=True)
class HalfGaussianFit:
    """Scale of the half-Gaussian target; moments are derived from it when first read."""

    sigma: float

    def __post_init__(self):
        if not np.isfinite(self.sigma) or self.sigma <= 0.0:
            raise ValueError("sigma must be finite and positive")

    @functools.cached_property
    def mu_hat(self) -> float:
        return self.sigma * math.sqrt(_TWO_OVER_PI)

    @functools.cached_property
    def sigma_hat_sq(self) -> float:
        return self.sigma**2 * (1.0 - _TWO_OVER_PI)

    def cdf(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        return np.where(x <= 0.0, 0.0, _erf(x / (self.sigma * _SQRT2)))


def fit_half_gaussian(scores) -> HalfGaussianFit:
    """Estimate the half-Gaussian scale from nonnegative scores.

    The scores are mirrored across zero and merged with the originals; the
    population standard deviation of that symmetric set is sqrt(mean(s^2)).
    """
    s = np.asarray(scores, float).reshape(-1)
    if s.size == 0:
        raise ValueError("scores must be nonempty")
    if (s < 0).any():
        raise ValueError("scores must be nonnegative")
    second_moment = float(np.mean(s**2))
    if second_moment == 0.0:
        raise DegenerateScores("all scores are zero; half-Gaussian scale undefined")
    return HalfGaussianFit(sigma=math.sqrt(second_moment))


def half_gaussian_density(fit: HalfGaussianFit, x):
    """Density of the half-Gaussian target; zero below the origin."""
    x = np.asarray(x, dtype=np.float64)
    dens = (2.0 / (fit.sigma * math.sqrt(2.0 * math.pi))) * np.exp(
        (x * x) / -(2.0 * fit.sigma**2)
    )
    out = np.where(x < 0.0, 0.0, dens)
    return float(out) if out.ndim == 0 else out


def _moments(m: np.ndarray) -> tuple[float, np.ndarray, float]:
    """Mean, centred scores and (n-1)-variance of one vector: the
    reductions m.mean() and m.var(ddof=1) make, without their wrappers."""
    n = m.size
    if n < 2:
        raise ValueError("need at least two mapped scores")
    mean = float(np.add.reduce(m) / n)
    centred = m - mean
    var = float(np.add.reduce(centred * centred) / (n - 1))
    return mean, centred, var


def alignment_loss_grad(
    mapped: np.ndarray, fit: HalfGaussianFit, lambda_hat: float
) -> tuple[float, np.ndarray]:
    """Alignment loss of one vector of mapped scores, and its gradient with
    respect to them.

    The loss is the negative mean log-density of the mapped scores under the
    target, plus squared penalties, both weighted by ``lambda_hat``, steering
    the mean and (n-1)-variance onto the target moments. The log-density is
    taken in closed form, log(2 / (sigma sqrt(2 pi))) - m^2 / (2 sigma^2), so
    the loss stays finite where the density itself underflows to zero. Mapped
    scores are nonnegative, as the mapping's sigmoid makes them.
    """
    m = np.asarray(mapped, dtype=np.float64)
    n = m.size
    mean, centred, var = _moments(m)
    neg_log_density = float(m @ m) / (2.0 * fit.sigma**2 * n) - math.log(
        2.0 / (fit.sigma * math.sqrt(2.0 * math.pi))
    )
    loss = (
        neg_log_density
        + lambda_hat * (mean - fit.mu_hat) ** 2
        + lambda_hat * (var - fit.sigma_hat_sq) ** 2
    )
    # -log density has derivative m / sigma^2; the centered-variance term's
    # mean-dependence cancels because sum(m - mean) = 0.
    grad = m / (fit.sigma**2 * n)
    grad += lambda_hat * 2.0 * (mean - fit.mu_hat) / n
    centred *= lambda_hat * 2.0 * (var - fit.sigma_hat_sq) * 2.0
    centred /= n - 1
    grad += centred
    return loss, grad


def discrete_alignment_objective(mapped: np.ndarray, fit: HalfGaussianFit, n_bins: int) -> float:
    """Histogram form of the alignment loss's log-density term over n_bins
    bins of [0, 1]: a cross-entropy that weights each occupied bin by its
    count and scores it by the log of the bin-averaged target density (the
    fit's CDF difference over the bin, divided by the bin width); empty bins
    add nothing. With one bin this reduces to the log of the total mass on
    [0, 1]. Serves as the discretization oracle for the differentiable loss
    and is never used in training.
    """
    m = np.asarray(mapped, dtype=np.float64).reshape(-1)
    if n_bins < 1 or m.size == 0:
        raise ValueError("need at least one bin and one mapped score")
    if (m < 0).any() or (m > 1).any():
        raise ValueError("mapped scores must lie in [0, 1] for the binned objective")
    idx = np.minimum((m * n_bins).astype(int), n_bins - 1)
    counts = np.bincount(idx, minlength=n_bins)
    occupied = np.nonzero(counts)[0]
    masses = fit.cdf((occupied + 1) / n_bins) - fit.cdf(occupied / n_bins)
    ce = 0.0
    for i, mass in zip(occupied, masses):
        if mass <= 0.0:
            raise ValueError(f"bin {i} has zero target mass")
        ce -= counts[i] / m.size * math.log(mass * n_bins)
    return ce


def _softplus(x: np.ndarray) -> np.ndarray:
    return np.logaddexp(0.0, x)


class MonotoneMapping:
    """Strictly non-decreasing scalar network with output in (0, 1).

    M(s) = sigmoid(sum_k softplus(a2_k) * tanh(softplus(a1_k) * s + b1_k) + b2).
    Every factor in dM/ds is positive, so monotonicity holds for all reachable
    parameters, not just trained ones.

    The parameters may carry a leading run axis, as ``FlatParams`` lays out
    a stack of runs: ``a1``, ``b1`` and ``a2`` of shape (runs, hidden) and
    ``b2`` of shape (runs,). The input is then shared by every run, and each
    run's outputs and gradients have the bits it gets alone.
    """

    PARAMS = ("a1", "b1", "a2", "b2")

    def __init__(self, hidden: int, seed: int):
        rng = np.random.default_rng(seed)
        self.a1 = rng.normal(0.0, 1.0, hidden)
        self.b1 = rng.normal(0.0, 1.0, hidden)
        self.a2 = rng.normal(-1.0, 0.5, hidden)
        self.b2 = 0.0

    @property
    def hidden(self) -> int:
        return self.a1.size

    def __call__(self, s) -> np.ndarray:
        return self.forward(np.asarray(s, dtype=np.float64))[0]

    def forward(self, s: np.ndarray):
        """Mapped scores of the float64 score vector ``s``, of shape (n,),
        and the cache ``backward`` reads; with a run axis, every run maps
        the same ``s``, and the mapped scores have shape (runs, n)."""
        w1 = _softplus(self.a1)
        w2 = _softplus(self.a2)
        # rows of (slot, hidden unit) per run
        pre = np.einsum("...j,i->...ij", w1, s)
        pre += self.b1[..., None, :]
        h = np.tanh(pre, out=pre)
        # one matrix-vector product per run, as h @ w2 makes them: gemv
        # rounds the last rows of a call otherwise
        z = h @ w2[..., None]
        # transposed, the run axis comes last, where b2 broadcasts along it
        z_t = z.T
        z_t += self.b2
        # one sigmoid call gives the mapped scores and, for the backward
        # pass, softplus' derivative at a1 and a2
        sig = sigmoid(np.concatenate((z.ravel(), self.a1.ravel(), self.a2.ravel())))
        m = sig[: z.size].reshape(z.shape[:-1])
        return m, (s, w2, h, m, sig[z.size :])

    def backward(self, dm: np.ndarray, cache, grads: dict | None = None) -> dict:
        """Gradients of a scalar objective wrt the parameters, given its
        gradient ``dm`` wrt the mapped scores. They are written into the
        arrays of ``grads`` (keyed as ``PARAMS``, a 0-d array for ``b2``
        without a run axis), as ``FlatParams.grads`` holds them, or into new
        ones if it is None. Sums over slots add rows in numpy's own order
        (``column_sums``)."""
        s, w2, h, m, dsoftplus = cache
        dsoftplus = dsoftplus.reshape((2, *w2.shape))
        dz = dm * m
        dz *= 1.0 - m
        dpre = np.einsum("...i,...j->...ij", dz, w2)
        if grads is None:
            grads = {name: np.empty(np.shape(getattr(self, name))) for name in self.PARAMS}
        np.matmul(dz[..., None, :], h, out=grads["a2"][..., None, :])
        grads["a2"] *= dsoftplus[1]
        dpre *= 1.0 - h * h
        column_sums(dpre, out=grads["b1"])
        column_sums(dpre, s, out=grads["a1"])
        grads["a1"] *= dsoftplus[0]
        np.add.reduce(dz, axis=-1, out=grads["b2"])
        return grads

    def to_dict(self) -> dict:
        return {"hidden": int(self.hidden), **state_dict(self, self.PARAMS)}

    @classmethod
    def from_dict(cls, d: dict) -> "MonotoneMapping":
        h = (np.size(d["a1"]),)
        mapping = load_state(cls, d, "mapping", {"a1": h, "b1": h, "a2": h, "b2": ()})
        hidden = d.get("hidden")
        if isinstance(hidden, bool) or not isinstance(hidden, int) or hidden != h[0]:
            raise ValueError(f"mapping.hidden must be mapping.a1's length {h[0]}, "
                             f"got {hidden!r}")
        return mapping


def kl_histogram(a: np.ndarray, fit: HalfGaussianFit, bins: int) -> float:
    """KL divergence from the bin histogram of ``a`` to a half-Gaussian fit.

    ``bins`` equal bins span [min(0, min a), max(1, max a)]; the fit's bin
    masses come from its CDF. Both sides receive additive smoothing KL_EPS
    and are renormalized, so the result is finite and nonnegative even with
    empty bins.
    """
    a = np.asarray(a, dtype=np.float64).reshape(-1)
    if bins < 2:
        raise ValueError("need at least two bins")
    if a.size == 0:
        raise ValueError("empty sample")
    edges = np.linspace(min(0.0, float(a.min())), max(1.0, float(a.max())), bins + 1)
    q = np.diff(fit.cdf(edges))
    p = np.histogram(a, bins=edges)[0] / a.size
    p = (p + KL_EPS) / (p + KL_EPS).sum()
    q = (q + KL_EPS) / (q + KL_EPS).sum()
    return float(np.sum(p * np.log(p / q)))
