"""Conditional fusion network, collaborative loss, training, and inference.

The fusion network reads (LLM score, aligned detector score, detector
representation) per slot and emits a collated score in (0, 1). Training is
two-phase: the detector is trained first and frozen, then the monotone
mapping and the fusion network are optimized jointly on the alignment loss
plus a pairwise loss chosen by the ablation variant.
"""
from __future__ import annotations

import functools
import json
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path

import numpy as np

from . import alignment as align_mod
from .alignment import AlignmentConfig, HalfGaussianFit, MonotoneMapping
from .core import (
    ScoreKind,
    ScoreSeries,
    TimeSeriesWindow,
    patch_weights,
    score_range_divisor,
    sigmoid,
)
from .errors import LengthMismatch, NonConvergence, ShapeMismatch
from .optim import Adam

_LEAKY_SLOPE = 0.01


class LossVariant(Enum):
    COLLABORATIVE = "collaborative"
    MSE_VARIANT = "mse"
    FIXED_WEIGHTS = "fixed_weights"
    NO_ALIGNMENT = "no_alignment"


class ConditionalNetParams:
    """Two-layer perceptron: leaky-rectified hidden layer, sigmoid output.

    Input is the per-slot concatenation (llm, aligned, representation), so the
    first weight matrix has 2 + h rows for representation width h. Inputs are
    standardized by stored per-channel statistics before the first layer; this
    is an affine reparameterization of (w1, b1) that keeps the network
    trainable when the alignment stage compresses its input's scale.
    """

    def __init__(self, rep_dim: int, hidden: int = 16, seed: int = 0):
        rng = np.random.default_rng(seed)
        d_in = 2 + rep_dim
        self.w1 = rng.normal(0.0, 1.0 / np.sqrt(d_in), (d_in, hidden))
        self.b1 = np.zeros(hidden)
        self.w2 = rng.normal(0.0, 0.5 / np.sqrt(hidden), hidden)
        self.b2 = 0.0
        self.in_mean = np.zeros(d_in)
        self.in_std = np.ones(d_in)

    @property
    def rep_dim(self) -> int:
        return self.w1.shape[0] - 2

    def set_input_stats(self, mean: np.ndarray, std: np.ndarray) -> None:
        self.in_mean = np.asarray(mean, dtype=np.float64).reshape(-1)
        self.in_std = np.maximum(np.asarray(std, dtype=np.float64).reshape(-1), 1e-12)

    def _stack(self, llm: np.ndarray, aligned: np.ndarray, rep: np.ndarray) -> np.ndarray:
        llm = np.asarray(llm, dtype=np.float64).reshape(-1)
        aligned = np.asarray(aligned, dtype=np.float64).reshape(-1)
        rep = np.asarray(rep, dtype=np.float64)
        if rep.ndim == 1:
            rep = rep.reshape(1, -1) if llm.size == 1 else rep.reshape(-1, 1)
        if not (llm.size == aligned.size == rep.shape[0]):
            raise ShapeMismatch("per-slot inputs must share one length")
        if rep.shape[1] != self.rep_dim:
            raise ShapeMismatch(
                f"representation width {rep.shape[1]} != expected {self.rep_dim}"
            )
        return np.concatenate([llm[:, None], aligned[:, None], rep], axis=1)

    def forward(self, llm: np.ndarray, aligned: np.ndarray, rep: np.ndarray):
        return self.forward_stacked(self._stack(llm, aligned, rep))

    def forward_stacked(self, raw: np.ndarray):
        """Forward pass on an already stacked (n, 2 + h) input, as built by
        ``_stack``: columns llm, aligned, then the representation."""
        z = raw - self.in_mean
        z /= self.in_std
        pre = z @ self.w1
        pre += self.b1
        # leaky ReLU; equal to where(pre > 0, pre, slope * pre), signed zeros too
        h = np.maximum(pre, _LEAKY_SLOPE * pre)
        logits = h @ self.w2
        logits += self.b2
        out = sigmoid(logits)
        return out, (z, pre, h, out)

    def backward(self, dout: np.ndarray, cache):
        """Gradients wrt parameters and the (llm, aligned, rep) inputs.
        ``dout`` is only read: training passes a block's shared constant."""
        z, pre, h, out = cache
        dlogits = dout * out
        dlogits *= 1.0 - out
        dw2 = h.T @ dlogits
        db2 = float(np.add.reduce(dlogits))
        dpre = np.multiply.outer(dlogits, self.w2)
        dpre *= np.where(pre > 0, 1.0, _LEAKY_SLOPE)
        dw1 = z.T @ dpre
        db1 = np.add.reduce(dpre, axis=0)
        draw = dpre @ self.w1.T
        draw /= self.in_std
        grads = {"w1": dw1, "b1": db1, "w2": dw2, "b2": db2}
        return grads, draw[:, 0], draw[:, 1], draw[:, 2:]

    def to_dict(self) -> dict:
        return {
            "w1": self.w1.tolist(),
            "b1": self.b1.tolist(),
            "w2": self.w2.tolist(),
            "b2": float(self.b2),
            "in_mean": self.in_mean.tolist(),
            "in_std": self.in_std.tolist(),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "ConditionalNetParams":
        obj = cls.__new__(cls)
        obj.w1 = np.asarray(d["w1"], dtype=np.float64)
        obj.b1 = np.asarray(d["b1"], dtype=np.float64)
        obj.w2 = np.asarray(d["w2"], dtype=np.float64)
        obj.b2 = float(d["b2"])
        obj.in_mean = np.asarray(d["in_mean"], dtype=np.float64)
        obj.in_std = np.asarray(d["in_std"], dtype=np.float64)
        return obj


def _check_lengths(*vecs):
    """The common slot count: the last axis of every vector, or of every
    stack of rows."""
    n = vecs[0].shape[-1]
    if any(v.shape[-1] != n for v in vecs[1:]):
        raise LengthMismatch("score vectors must share one length")
    return n


def _pairwise_weighted_excess(
    lam: np.ndarray, ref: np.ndarray, n: int
) -> np.ndarray:
    """For each t: sum_j (lam_t + lam_j)/2 * (ref_t - ref_j), in O(n).

    The sums run over the last axis, so a stack of rows gives each row's
    excess; a 1-D input gets the same bits as a plain sum.
    """
    lam_sum = np.add.reduce(lam, axis=-1, keepdims=True)
    ref_sum = np.add.reduce(ref, axis=-1, keepdims=True)
    lamref_sum = np.add.reduce(lam * ref, axis=-1, keepdims=True)
    return 0.5 * (lam * (n * ref - ref_sum) + (ref * lam_sum - lamref_sum))


class CollaborativeTerm:
    """The collaborative loss with the two scorers' scores and weights fixed.

    The loss is linear in the collated scores, so its gradient
    -(2/n^2) * (excess(lam1, s) + excess(lam2, llm)) does not depend on them:
    it is computed once here, and each call only takes its dot product with
    the collated scores. Phase-2 training builds one term per block.

    ``s`` and ``llm`` may also be stacks of rows of shape (k, n): ``grad``
    then holds each row's gradient, bit-equal to a term built on that row
    alone, and only ``grad`` is defined for such a term.
    """

    def __init__(self, s: np.ndarray, llm: np.ndarray, lam1: np.ndarray, lam2: np.ndarray):
        s = np.atleast_1d(np.asarray(s, dtype=np.float64))
        llm = np.atleast_1d(np.asarray(llm, dtype=np.float64))
        n = _check_lengths(s, llm, lam1, lam2)
        if n < 2:
            raise ValueError("need at least two slots")
        # sum_ij lam(i,j)(a_i - a_j)(b_i - b_j) = 2 * sum_t b_t * excess_t(a)
        self.excess = (
            _pairwise_weighted_excess(lam1, s, n) + _pairwise_weighted_excess(lam2, llm, n)
        )
        self.scale = -(2.0 / n**2)
        self.grad = self.scale * self.excess

    def __call__(self, s_hat: np.ndarray) -> tuple[float, np.ndarray]:
        """Loss at the collated scores and its (constant) gradient."""
        s_hat = np.asarray(s_hat, dtype=np.float64).reshape(-1)
        _check_lengths(s_hat, self.excess)
        return self.scale * float(s_hat @ self.excess), self.grad


def collaborative_loss_grad(
    s_hat: np.ndarray, s: np.ndarray, llm: np.ndarray, lam1: np.ndarray, lam2: np.ndarray
) -> tuple[float, np.ndarray]:
    """Pairwise difference-correlation loss and its gradient wrt the
    collated scores.

    -(1/n^2) * sum_ij [ lam1(i,j)(s_i - s_j)(S^_i - S^_j)
                      + lam2(i,j)(S_i - S_j)(S^_i - S^_j) ]
    with pair weights symmetrized as lam(i,j) = (lam(i) + lam(j)) / 2. Depends
    on the collated scores only through their differences. lam1 and lam2 are
    per-slot weight arrays: patch weights, or constants for the ablation and
    the theory checks.
    """
    return CollaborativeTerm(s, llm, lam1, lam2)(s_hat)


def mse_variant_loss_grad(
    s_hat: np.ndarray, s: np.ndarray, llm: np.ndarray, lam1: np.ndarray, lam2: np.ndarray
) -> tuple[float, np.ndarray]:
    """Per-slot weighted squared error against both scorers (ablation), and
    its gradient wrt the collated scores."""
    s_hat = np.asarray(s_hat, dtype=np.float64).reshape(-1)
    s = np.asarray(s, dtype=np.float64).reshape(-1)
    llm = np.asarray(llm, dtype=np.float64).reshape(-1)
    n = _check_lengths(s_hat, s, llm, lam1, lam2)
    loss = float(np.mean(lam1 * (s - s_hat) ** 2 + lam2 * (llm - s_hat) ** 2))
    grad = (2.0 / n) * (lam1 * (s_hat - s) + lam2 * (s_hat - llm))
    return loss, grad


@dataclass
class CollabConfig:
    """Phase-2 training knobs (the detector is already frozen)."""

    colr: float = 0.01
    batch_size: int = 100
    epochs: int = 60
    seed: int = 0
    patch_size: int = 2
    d: float = 1.0
    lambda_hat_1: float = 1.0
    lambda_hat_2: float = 1.0
    mapping_hidden: int = 8
    cond_hidden: int = 16


@dataclass
class TrainingCurves:
    """Per-epoch diagnostics emitted as CSV by the reporting layer."""

    alignment_loss: list[float] = field(default_factory=list)
    pairwise_loss: list[float] = field(default_factory=list)
    kl_aligned: list[float] = field(default_factory=list)
    kl_raw: float = float("nan")


class FusionPipeline:
    """Frozen scorer + trained mapping + trained fusion net; the deployable detector."""

    CHECKPOINT_VERSION = 1

    def __init__(
        self,
        scorer,
        mapping: MonotoneMapping | None,
        cond: ConditionalNetParams,
        d: float,
        score_divisor: float,
        patch_size: int,
        variant: LossVariant,
        fit: HalfGaussianFit,
        config_echo: dict | None = None,
    ):
        self.scorer = scorer
        self.mapping = mapping
        self.cond = cond
        self.d = d
        self.score_divisor = float(score_divisor)
        self.patch_size = int(patch_size)
        self.variant = variant
        self.fit = fit
        self.config_echo = dict(config_echo or {})

    def aligned_scores(self, scaled: np.ndarray) -> np.ndarray:
        if self.mapping is None:
            return np.asarray(scaled, dtype=np.float64)
        return self.mapping(scaled)

    def to_dict(self) -> dict:
        from .tsadm import scorer_to_dict

        return {
            "version": self.CHECKPOINT_VERSION,
            "scorer": scorer_to_dict(self.scorer),
            "mapping": None if self.mapping is None else self.mapping.to_dict(),
            "cond": self.cond.to_dict(),
            "d": self.d,
            "score_divisor": self.score_divisor,
            "patch_size": self.patch_size,
            "variant": self.variant.value,
            "sigma": self.fit.sigma,
            "config_echo": self.config_echo,
        }

    def save(self, path: str | Path) -> None:
        Path(path).write_text(json.dumps(self.to_dict(), sort_keys=True))

    @classmethod
    def from_dict(cls, d: dict) -> "FusionPipeline":
        from .tsadm import scorer_from_dict

        if d.get("version") != cls.CHECKPOINT_VERSION:
            raise ValueError(f"unsupported checkpoint version {d.get('version')}")
        return cls(
            scorer=scorer_from_dict(d["scorer"]),
            mapping=None if d["mapping"] is None else MonotoneMapping.from_dict(d["mapping"]),
            cond=ConditionalNetParams.from_dict(d["cond"]),
            d=d["d"],
            score_divisor=d["score_divisor"],
            patch_size=d["patch_size"],
            variant=LossVariant(d["variant"]),
            fit=HalfGaussianFit(d["sigma"]),
            config_echo=d.get("config_echo", {}),
        )

    @classmethod
    def load(cls, path: str | Path) -> "FusionPipeline":
        return cls.from_dict(json.loads(Path(path).read_text()))


_COND_PARAMS = ("w1", "b1", "w2", "b2")
_MAPPING_PARAMS = ("a1", "b1", "a2", "b2")


class _FlatParams:
    """Every trainable array of some owners, held in one float64 vector.

    ``owners`` pairs each object with its parameter attribute names. Each
    attribute is rebound to its view of ``theta`` (a 0-d view for a scalar
    bias), so one optimizer step on ``theta`` updates them all in place; Adam
    is elementwise, so that gives bit for bit the values that stepping each
    array separately would. ``grad`` has the same layout.
    """

    def __init__(self, owners: list[tuple[object, tuple[str, ...]]]):
        arrays = [
            (i, name, np.asarray(getattr(obj, name), dtype=np.float64))
            for i, (obj, names) in enumerate(owners)
            for name in names
        ]
        self.theta = np.concatenate([a.reshape(-1) for _, _, a in arrays])
        self.grad = np.empty_like(self.theta)
        self._grad_views = []
        start = 0
        for i, name, a in arrays:
            stop = start + a.size
            setattr(owners[i][0], name, self.theta[start:stop].reshape(a.shape))
            self._grad_views.append((i, name, self.grad[start:stop].reshape(a.shape)))
            start = stop

    def gather(self, grads: list[dict]) -> np.ndarray:
        """The flat gradient from one gradient dict per owner, keyed by
        attribute name as the backward passes return them."""
        for i, name, view in self._grad_views:
            view[...] = grads[i][name]
        return self.grad


def _pairwise_term(variant: LossVariant, scaled, llm, lam1, lam2):
    """The variant's pairwise loss on one block, as a function of the
    collated scores returning (loss, gradient)."""
    if variant in (LossVariant.COLLABORATIVE, LossVariant.NO_ALIGNMENT):
        return CollaborativeTerm(scaled, llm, lam1, lam2)
    if variant is LossVariant.FIXED_WEIGHTS:
        ones = np.ones(len(scaled))
        return CollaborativeTerm(scaled, llm, ones, ones)
    if variant is LossVariant.MSE_VARIANT:
        return functools.partial(
            mse_variant_loss_grad, s=scaled, llm=llm, lam1=lam1, lam2=lam2
        )
    raise ValueError(f"unknown variant {variant}")


def train_collab(
    windows: list[TimeSeriesWindow],
    scorer,
    llm_scores: dict[str, ScoreSeries],
    variant: LossVariant,
    cfg: CollabConfig,
    config_echo: dict | None = None,
) -> tuple[FusionPipeline, TrainingCurves]:
    """Joint minibatch SGD over the monotone mapping and the fusion network.

    ``llm_scores`` holds every window's scores at the window's length, as
    ``llm.load_fixture`` returns them. The scorer stays frozen. Batches are
    contiguous blocks of ``batch_size`` slots inside one window, so the
    pairwise terms see both near and far slots; block order is reshuffled
    each epoch under the run seed. The NO_ALIGNMENT variant feeds scaled
    scores straight into the network and skips both the mapping and the
    alignment term.

    Everything a block's step needs that does not depend on the parameters
    (its scaled and LLM scores, representation, patch weights and, for the
    pairwise variants, the loss gradient) is built once before the first
    epoch; each window is scored once. One mapping pass over all slots per
    epoch boundary gives both that epoch's ``kl_aligned`` and the next
    epoch's input statistics. A step writes in place only the parameters and
    the aligned column of its block's fusion input.
    """
    if not windows:
        raise ValueError("no training windows")
    scored = []
    for w in windows:
        raw, rep = scorer.score(w)
        scored.append((w, raw.scores, llm_scores[w.window_id()].scores, rep))
    divisor = score_range_divisor(
        np.concatenate([raw for _, raw, _, _ in scored]), cfg.d
    )

    all_llm = np.concatenate([llm for _, _, llm, _ in scored])
    fit = align_mod.fit_half_gaussian(all_llm)
    acfg = AlignmentConfig(cfg.lambda_hat_1, cfg.lambda_hat_2)

    use_mapping = variant is not LossVariant.NO_ALIGNMENT
    mapping = MonotoneMapping(cfg.mapping_hidden, seed=cfg.seed) if use_mapping else None
    rep_dim = scored[0][3].shape[1]
    cond = ConditionalNetParams(rep_dim, hidden=cfg.cond_hidden, seed=cfg.seed + 1)

    # per block: (scaled scores, fusion input, pairwise term). The fusion
    # input is a view of its window's stacked (llm, aligned, rep) rows whose
    # aligned column each step overwrites with the block's mapped scores.
    blocks = []
    scaled_parts = []
    stacked_parts = []
    for w, raw, llm, rep in scored:
        scaled = raw / divisor
        stacked = cond._stack(llm, scaled, rep)
        pw = patch_weights(w, cfg.patch_size)
        for start in range(0, len(scaled), cfg.batch_size):
            stop = min(start + cfg.batch_size, len(scaled))
            if stop - start < 2:
                continue
            sb = scaled[start:stop]
            term = _pairwise_term(variant, sb, llm[start:stop],
                                  pw.lambda1[start:stop], pw.lambda2[start:stop])
            blocks.append((sb, stacked[start:stop], term))
        scaled_parts.append(scaled)
        stacked_parts.append(stacked)

    all_scaled = np.concatenate(scaled_parts)
    all_stacked = np.concatenate(stacked_parts)
    curves = TrainingCurves()
    curves.kl_raw = align_mod.kl_histogram(all_scaled, fit, bins=50)

    # Adam keeps the two loss terms trainable together: the pairwise term's
    # 1/n^2 scale is orders of magnitude below the alignment term's per-slot
    # log-density gradients, so raw SGD would starve the fusion net.
    opt = Adam(cfg.colr)
    owners = [(cond, _COND_PARAMS)]
    if use_mapping:
        owners.append((mapping, _MAPPING_PARAMS))
    flat = _FlatParams(owners)
    params = {"theta": flat.theta}

    rng = np.random.default_rng(cfg.seed)
    all_aligned = mapping(all_scaled) if use_mapping else all_scaled
    for _epoch in range(cfg.epochs):
        # the mapping reshapes its output distribution as it trains, so the
        # standardization constants track it once per epoch
        all_stacked[:, 1] = all_aligned
        cond.set_input_stats(all_stacked.mean(axis=0), all_stacked.std(axis=0))
        order = rng.permutation(len(blocks))
        ep_align = 0.0
        ep_pair = 0.0
        for bi in order:
            sb, stacked, pairwise = blocks[bi]
            if use_mapping:
                mapped, mcache = mapping.forward(sb)
            else:
                mapped = sb
            stacked[:, 1] = mapped
            s_hat, ccache = cond.forward_stacked(stacked)
            pair_loss, ds_hat = pairwise(s_hat)
            cgrads, _dllm, dmapped, _drep = cond.backward(ds_hat, ccache)
            grads = [cgrads]
            if use_mapping:
                a_loss, da_mapped = align_mod.alignment_loss_grad(mapped, fit, acfg)
                grads.append(mapping.backward(dmapped + da_mapped, mcache))
            else:
                a_loss = 0.0
            opt.step(params, {"theta": flat.gather(grads)})
            if not (np.isfinite(pair_loss) and np.isfinite(a_loss)):
                raise NonConvergence("phase-2 loss became non-finite")
            ep_align += a_loss
            ep_pair += pair_loss
        curves.alignment_loss.append(ep_align / len(blocks))
        curves.pairwise_loss.append(ep_pair / len(blocks))
        if use_mapping:
            all_aligned = mapping(all_scaled)
            curves.kl_aligned.append(align_mod.kl_histogram(all_aligned, fit, bins=50))

    pipeline = FusionPipeline(
        scorer=scorer,
        mapping=mapping,
        cond=cond,
        d=cfg.d,
        score_divisor=divisor,
        patch_size=cfg.patch_size,
        variant=variant,
        fit=fit,
        config_echo=config_echo,
    )
    return pipeline, curves


def detect(
    pipeline: FusionPipeline, window: TimeSeriesWindow, llm_scores: ScoreSeries
) -> ScoreSeries:
    """Collated scores for one window.

    Pure given (pipeline, window, scores): the detector scores the window, the
    frozen training divisor rescales, the mapping aligns, and the fusion net
    emits per-slot collated scores. Every score lies strictly inside (0, 1);
    slots whose fusion logit is above about 36.7 all get nextafter(1, 0),
    since float64 cannot tell such logits apart.
    """
    if llm_scores.kind is not ScoreKind.LLM:
        raise ValueError("detect expects LLM-kind scores")
    if len(llm_scores) != window.length:
        raise LengthMismatch("LLM scores must cover every slot of the window")
    raw, rep = pipeline.scorer.score(window)
    scaled = raw.scores / pipeline.score_divisor
    aligned = pipeline.aligned_scores(scaled)
    out, _ = pipeline.cond.forward(llm_scores.scores, aligned, rep)
    return ScoreSeries(out, ScoreKind.COLLATED)
