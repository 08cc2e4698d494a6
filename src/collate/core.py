"""Shared numeric types, score scaling, patching, and adaptive loss weights.

Scores pass between modules as plain 1-D float64 arrays, each checked once
where it enters: LLM scores in ``llm``, replayed detector scores by
``PrecomputedScorer``, collated scores by ``collab.detect``. The scorer lives
here because ``benchmark``, which ``gen-data`` imports, must load no training
module.
``PatchWeights`` stores lambda1 alone and derives lambda2 as ``1 - lambda1``.

All operations here are pure functions over immutable inputs; nothing holds
shared mutable state, so concurrent use across windows is safe.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property

import numpy as np

from .errors import DegenerateRange, NonFiniteInput, ScoreOutOfRange, ShapeMismatch, WindowTooShort


class LossVariant(Enum):
    COLLABORATIVE = "collaborative"
    MSE_VARIANT = "mse"
    FIXED_WEIGHTS = "fixed_weights"
    NO_ALIGNMENT = "no_alignment"


_SIGMOID_LO = np.nextafter(0.0, 1.0)
_SIGMOID_HI = np.nextafter(1.0, 0.0)


def sigmoid(x) -> np.ndarray:
    """Logistic function, elementwise, strictly inside (0, 1) for any finite x.

    The two-branch form 1/(1+e^-x) for x >= 0 and e^x/(1+e^x) for x < 0 only
    ever exponentiates a nonpositive number, so it cannot overflow. In float64
    the exact value rounds to 1.0 above x ~ 36.7 and to 0.0 below x ~ -745;
    the result is bounded to [smallest positive float, nextafter(1, 0)] so a
    saturated logit still yields a value inside the open interval. Monotone
    non-decreasing; the derivative is out * (1 - out).
    """
    x = np.asarray(x, dtype=np.float64)
    # e = e^-|x| <= 1, so max(e, x >= 0) is the numerator: 1 where x >= 0, else e
    e = np.exp(np.copysign(x, -1.0))
    out = np.maximum(e, x >= 0) / (1.0 + e)
    # the same values as np.clip, without its per-call overhead
    return np.minimum(np.maximum(out, _SIGMOID_LO), _SIGMOID_HI)


def column_sums(x: np.ndarray, weights: np.ndarray | None = None, out=None) -> np.ndarray:
    """Column sums of an (..., n, k) array, each row first scaled by the
    (n,) ``weights`` if given, bit for bit as ``np.add.reduce(x *
    weights[:, None], axis=-2)``: over any leading run axes, each (n, k)
    slab gets the sums it gets alone. For k >= 2 einsum adds the rows in
    that order, 2-4x faster; numpy sums a lone column pairwise, so it keeps
    the reduce. ``optimize`` stays off: it may hand the sum to BLAS, which
    adds in another order."""
    if x.shape[-1] == 1:
        return np.add.reduce(x if weights is None else x * weights[:, None], axis=-2, out=out)
    if weights is None:
        return np.einsum("...ij->...j", x, out=out)
    return np.einsum("...ij,i->...j", x, weights, out=out)


@dataclass(frozen=True)
class TimeSeriesWindow:
    """A T x D slice of a multivariate series, the unit every scorer consumes.

    ``start_index`` is the absolute slot offset of the first row, used to key
    per-window artifacts (LLM fixtures, detection output) back to the series.
    """

    values: np.ndarray
    start_index: int = 0

    def __post_init__(self):
        values = np.atleast_2d(np.asarray(self.values, dtype=np.float64))
        if values.ndim != 2 or values.shape[0] < 1 or values.shape[1] < 1:
            raise ShapeMismatch("window values must be a T x D matrix with T, D >= 1")
        if not np.isfinite(values).all():
            raise NonFiniteInput("window values must be finite")
        object.__setattr__(self, "values", values)

    @property
    def length(self) -> int:
        return self.values.shape[0]

    @property
    def dims(self) -> int:
        return self.values.shape[1]

    def window_id(self) -> str:
        return f"w{self.start_index}"


class PrecomputedScorer:
    """Replays per-slot scores and representations computed elsewhere.

    Covers slots [base_index, base_index + T); score() slices by the window's
    absolute start index. Raw scores that are negative or not finite raise
    ScoreOutOfRange when the scorer is built, and a representation entry
    that is not finite raises NonFiniteInput.
    """

    KIND = "precomputed"

    def __init__(self, raw: np.ndarray, rep: np.ndarray, base_index: int = 0):
        self.raw = np.asarray(raw, dtype=np.float64).reshape(-1)
        self.rep = np.atleast_2d(np.asarray(rep, dtype=np.float64))
        if self.rep.shape[0] != self.raw.size:
            raise ShapeMismatch("raw scores and representation must cover the same slots")
        if not ((self.raw >= 0.0) & (self.raw < np.inf)).all():
            raise ScoreOutOfRange("precomputed raw scores must be finite and nonnegative")
        if not np.isfinite(self.rep).all():
            raise NonFiniteInput("precomputed representations must be finite")
        self.base_index = int(base_index)

    @property
    def rep_dim(self) -> int:
        return self.rep.shape[1]

    def score(self, window: TimeSeriesWindow) -> tuple[np.ndarray, np.ndarray]:
        lo = window.start_index - self.base_index
        hi = lo + window.length
        if lo < 0 or hi > self.raw.size:
            raise ShapeMismatch(
                f"window [{window.start_index}, {window.start_index + window.length}) "
                "outside precomputed score coverage"
            )
        return self.raw[lo:hi], self.rep[lo:hi]

    def to_dict(self) -> dict:
        return {
            "raw": self.raw.tolist(),
            "rep": self.rep.tolist(),
            "base_index": self.base_index,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "PrecomputedScorer":
        return cls(np.asarray(d["raw"]), np.asarray(d["rep"]), d["base_index"])


@dataclass(frozen=True)
class PatchWeights:
    """Per-slot adaptive weights of the collaborative loss, induced by
    intra/inter patch distances. Only ``lambda1`` is stored; ``lambda2`` is
    its complement ``1 - lambda1``, so the two sum to 1 by construction."""

    lambda1: np.ndarray

    @cached_property
    def lambda2(self) -> np.ndarray:
        return 1.0 - self.lambda1


def score_range_divisor(raw: np.ndarray, d: float) -> float:
    """range**(1/d) of the raw detector scores, for a finite root exponent
    d > 0; frozen into pipelines.

    Scaled scores raw / divisor are deliberately not clamped to [0, 1]; the
    learned monotone mapping downstream re-bounds them, and clamping would
    distort the distribution that mapping must reshape.

    Raises DegenerateRange when all raw scores are equal (a constant scorer
    cannot be aligned and the caller must not proceed), or when range**(1/d)
    overflows or is not a finite positive float: a small d takes a range
    above 1 past the largest float and one below 1 down to 0.
    """
    if not np.isfinite(d) or d <= 0.0:
        raise ValueError("d must be finite and positive")
    lo, hi = float(np.min(raw)), float(np.max(raw))
    if hi == lo:
        raise DegenerateRange(f"score range is zero (all values {lo})")
    try:
        divisor = (hi - lo) ** (1.0 / d)
    except OverflowError:
        divisor = math.inf
    if not 0.0 < divisor < math.inf:
        raise DegenerateRange(f"score divisor range**(1/d) = {divisor!r} is not finite and "
                              f"positive (range {hi - lo!r}, d={d!r})")
    return divisor


def _mean_distances(blocks: np.ndarray) -> np.ndarray:
    """(K, m, D) point sets -> (K, m): each point's mean Euclidean distance
    to the other m - 1 points of its set."""
    diff = blocks[:, :, None, :] - blocks[:, None, :, :]
    return np.sqrt((diff**2).sum(axis=-1)).sum(axis=2) / (blocks.shape[1] - 1)


def patch_weights(window: TimeSeriesWindow, patch_size: int) -> PatchWeights:
    """Adaptive per-slot weights from intra-patch and inter-patch distances.

    The window is cut into patches of ``patch_size`` slots; a ragged tail of
    one slot is merged into the patch before it, so every patch has at least
    two slots. For slot t: d_intra is the mean Euclidean distance between
    slot t's vector and every other slot in its patch; d_inter is the mean
    Euclidean distance between the centroid of t's patch and the centroids of
    all other patches. lambda1 = d_intra / (d_intra + d_inter) when the
    denominator is positive, else 0.5 (constant windows carry no kind
    information, so both models are weighted equally).

    The full patches are computed together as one (P, patch_size, D) array,
    the tail on its own; each patch's sums run in the order a per-patch loop
    would use, so the weights are the same to the bit.
    """
    if patch_size < 2:
        raise ValueError("patch_size must be at least 2")
    n = window.length
    if n < patch_size:
        raise WindowTooShort(f"window has {n} slots, need at least {patch_size}")
    x = window.values
    n_full = n // patch_size
    if n - n_full * patch_size == 1:
        n_full -= 1
    full = x[: n_full * patch_size].reshape(n_full, patch_size, window.dims)
    tail = x[n_full * patch_size :][None]
    centroids = full.mean(axis=1)
    d_intra = _mean_distances(full).reshape(-1)
    sizes = [patch_size] * n_full
    if tail.shape[1]:
        centroids = np.concatenate([centroids, tail.mean(axis=1)])
        d_intra = np.concatenate([d_intra, _mean_distances(tail)[0]])
        sizes.append(tail.shape[1])

    # each patch's mean centroid distance to the other patches
    inter_per_patch = _mean_distances(centroids[None])[0] if len(sizes) > 1 else np.zeros(1)
    d_inter = np.repeat(inter_per_patch, sizes)

    denom = d_intra + d_inter
    lambda1 = np.where(denom > 0, np.divide(d_intra, np.where(denom > 0, denom, 1.0)), 0.5)
    return PatchWeights(lambda1)
