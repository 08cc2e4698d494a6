"""Conditional fusion network, collaborative loss, training, and inference.

The fusion network reads (LLM score, aligned detector score, detector
representation) per slot and emits a collated score in (0, 1). Training is
two-phase: the detector is trained first and frozen, then the monotone
mapping and the fusion network are optimized jointly on the alignment loss
plus a pairwise loss chosen by the ablation variant. The alignment loss is
finite wherever the mapped scores are, so training also runs on windows
whose LLM scores are all noise.
"""
from __future__ import annotations

import functools
import json
import math
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from . import alignment as align_mod
from .alignment import HalfGaussianFit, MonotoneMapping
from .core import (
    LossVariant,
    PrecomputedScorer,
    TimeSeriesWindow,
    column_sums,
    patch_weights,
    score_range_divisor,
    sigmoid,
)
from .errors import LengthMismatch, NonConvergence, NonFiniteInput, WindowTooShort
from .optim import Adam, FlatParams, load_checkpoint, load_state, run_state, state_dict

if TYPE_CHECKING:
    from .cli import RunConfig

_LEAKY_SLOPE = 0.01


class ConditionalNetParams:
    """Two-layer perceptron: leaky-rectified hidden layer, sigmoid output.

    Input is the per-slot concatenation (llm, aligned, representation), so the
    first weight matrix has 2 + h rows for representation width h. Inputs are
    standardized by stored per-channel statistics before the first layer; this
    is an affine reparameterization of (w1, b1) that keeps the network
    trainable when the alignment stage compresses its input's scale.

    Every parameter and statistic may carry a leading run axis, as
    ``FlatParams`` lays out a stack of runs; inputs and outputs then carry
    it too, and each run's values have the bits it gets alone.
    """

    PARAMS = ("w1", "b1", "w2", "b2")
    # a checkpoint also keeps the input statistics, which are not trained
    STATE = PARAMS + ("in_mean", "in_std")

    def __init__(self, rep_dim: int, hidden: int, seed: int):
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
        return self.w1.shape[-2] - 2

    def set_input_stats(self, mean: np.ndarray, std: np.ndarray) -> None:
        """Per-column statistics, (2 + h,) or with a leading run axis."""
        self.in_mean = np.asarray(mean, dtype=np.float64)
        self.in_std = np.maximum(np.asarray(std, dtype=np.float64), 1e-12)

    def _stack(self, llm: np.ndarray, aligned: np.ndarray, rep: np.ndarray) -> np.ndarray:
        llm = np.asarray(llm, dtype=np.float64).reshape(-1)
        aligned = np.asarray(aligned, dtype=np.float64).reshape(-1)
        rep = np.asarray(rep, dtype=np.float64)
        if not (llm.size == aligned.size == rep.shape[0]):
            raise LengthMismatch("per-slot inputs must share one length")
        return np.concatenate([llm[:, None], aligned[:, None], rep], axis=1)

    def standardize(self, raw: np.ndarray) -> np.ndarray:
        """A stacked input, as built by ``_stack``, standardized by the
        stored statistics: one (n, 2 + h) array per run."""
        z = raw - self.in_mean[..., None, :]
        z /= self.in_std[..., None, :]
        return z

    def forward(self, llm: np.ndarray, aligned: np.ndarray, rep: np.ndarray):
        return self.forward_stacked(self.standardize(self._stack(llm, aligned, rep)))

    def forward_stacked(self, z: np.ndarray):
        """Forward pass on a stacked (..., n, 2 + h) input already
        standardized by ``standardize``: columns llm, aligned, then the
        representation."""
        pre = z @ self.w1
        pre += self.b1[..., None, :]
        # leaky ReLU; equal to where(pre > 0, pre, slope * pre), signed zeros too
        h = np.multiply(pre, _LEAKY_SLOPE)
        np.maximum(pre, h, out=h)
        logits = (h @ self.w2[..., None])[..., 0]
        # transposed, the run axis comes last, where b2 broadcasts along it
        logits_t = logits.T
        logits_t += self.b2
        out = sigmoid(logits)
        return out, (z, pre, h, out)

    def backward(self, dout: np.ndarray, cache, grads: dict | None = None):
        """Gradients wrt the parameters and the aligned input, the one input
        training updates; slot sums as ``column_sums``. ``dout`` is only
        read: training passes a block's shared constant.
        The parameter gradients are written into the arrays of ``grads``
        (keyed as ``PARAMS``, a 0-d array for ``b2`` without a run axis), as
        ``FlatParams.grads`` holds them, or into new ones if it is None."""
        z, pre, h, out = cache
        if grads is None:
            grads = {name: np.empty(np.shape(getattr(self, name))) for name in self.PARAMS}
        dlogits = dout * out
        dlogits *= 1.0 - out
        np.matmul(h.swapaxes(-1, -2), dlogits[..., None], out=grads["w2"][..., None])
        np.add.reduce(dlogits, axis=-1, out=grads["b2"])
        dpre = np.einsum("...i,...j->...ij", dlogits, self.w2)
        # 1.0 where pre > 0, else the slope; NaN and -0.0 get the slope
        dpre *= np.maximum(pre > 0, _LEAKY_SLOPE)
        np.matmul(z.swapaxes(-1, -2), dpre, out=grads["w1"])
        column_sums(dpre, out=grads["b1"])
        # a column of the whole product: one column alone (gemv, a one-column
        # gemm, einsum) rounds otherwise; a contiguous w1^T is faster, same bits
        w1_t = np.ascontiguousarray(self.w1.swapaxes(-1, -2))
        return grads, (dpre @ w1_t)[..., 1] / self.in_std[..., 1, None]

    def to_dict(self) -> dict:
        return state_dict(self, self.STATE)

    @classmethod
    def from_dict(cls, d: dict) -> "ConditionalNetParams":
        # every shape must agree with in_mean's and b1's widths
        n, h = np.size(d["in_mean"]), np.size(d["b1"])
        cond = load_state(cls, d, "cond", {"w1": (n, h), "b1": (h,), "w2": (h,), "b2": (),
                                           "in_mean": (n,), "in_std": (n,)})
        if not (cond.in_std > 0.0).all():
            raise ValueError("cond.in_std has an entry that is not positive")
        return cond


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

    ``s`` and ``llm`` may also be stacks of rows of any leading shape
    (..., n): ``grad`` then holds each row's gradient, bit-equal to a term
    built on that row alone, and only ``grad`` is defined for such a term.
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
        """Loss at the collated scores, a float64 vector of the term's
        length, and its (constant) gradient."""
        if s_hat.shape != self.excess.shape:
            raise LengthMismatch("score vectors must share one length")
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
    s_hat = np.asarray(s_hat, dtype=np.float64).reshape(-1)
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
class TrainingCurves:
    """Per-epoch diagnostics emitted as CSV by the reporting layer, and the
    run's counts of blocks and steps."""

    alignment_loss: list[float] = field(default_factory=list)
    pairwise_loss: list[float] = field(default_factory=list)
    kl_aligned: list[float] = field(default_factory=list)
    kl_raw: float = float("nan")
    # training blocks per epoch, and optimizer steps taken
    blocks: int = 0
    steps: int = 0


@dataclass
class FusionPipeline:
    """The deployable detector, which ``detect`` reads: the frozen scorer,
    the trained mapping (None without alignment) and fusion net, and the
    training range divisor; ``config_echo`` is the run config it was trained
    with, as ``asdict``. The checkpoint also writes its ``d``, ``patchSize``
    and ``loss_variant`` as ``d``, ``patch_size`` and ``variant``, which
    loading does not read. A saved scorer has ``score``, ``rep_dim``, a
    ``KIND``, ``to_dict`` and ``from_dict``, and is written as ``{"kind":
    KIND, "state": to_dict()}``; loading checks the fusion net's input width
    against the scorer's ``rep_dim``."""

    CHECKPOINT_VERSION = 1

    scorer: object
    mapping: MonotoneMapping | None
    cond: ConditionalNetParams
    score_divisor: float
    fit: HalfGaussianFit
    config_echo: dict

    def to_dict(self) -> dict:
        return {
            "version": self.CHECKPOINT_VERSION,
            "scorer": {"kind": self.scorer.KIND, "state": self.scorer.to_dict()},
            "mapping": None if self.mapping is None else self.mapping.to_dict(),
            "cond": self.cond.to_dict(),
            "d": self.config_echo["d"],
            "score_divisor": self.score_divisor,
            "patch_size": self.config_echo["patchSize"],
            "variant": self.config_echo["loss_variant"],
            "sigma": self.fit.sigma,
            "config_echo": self.config_echo,
        }

    def save(self, path: str | Path) -> None:
        Path(path).write_text(json.dumps(self.to_dict(), sort_keys=True))

    @classmethod
    def from_dict(cls, d: dict) -> "FusionPipeline":
        from .tsadm import TsadmModel

        if d.get("version") != cls.CHECKPOINT_VERSION:
            raise ValueError(f"unsupported checkpoint version {d.get('version')}")
        divisor = float(d["score_divisor"])
        if not 0.0 < divisor < math.inf:
            raise ValueError(f"score_divisor must be finite and positive, got {divisor!r}")
        scorers = {c.KIND: c for c in (TsadmModel, PrecomputedScorer)}
        if (kind := d["scorer"]["kind"]) not in scorers:
            raise ValueError(f"unknown scorer kind {kind!r}")
        scorer = scorers[kind].from_dict(d["scorer"]["state"])
        mapping = None if d["mapping"] is None else MonotoneMapping.from_dict(d["mapping"])
        cond = ConditionalNetParams.from_dict(d["cond"])
        if cond.rep_dim != scorer.rep_dim:
            raise ValueError(f"cond reads representations {cond.rep_dim} wide, "
                             f"but the scorer's are {scorer.rep_dim} wide")
        return cls(scorer, mapping, cond, divisor, HalfGaussianFit(d["sigma"]), d["config_echo"])

    @classmethod
    def load(cls, path: str | Path) -> "FusionPipeline":
        return load_checkpoint(path, cls.from_dict)


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


def _column_stats(cols: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Mean and population standard deviation of each row of ``cols``, one
    column of a stacked input per run, bit-equal to its entries of that
    input's ``mean(axis=0)`` and ``std(axis=0)``: numpy sums each column of
    that C-ordered array row by row, in order, which is the order of
    ``np.add.accumulate``."""
    n = cols.shape[-1]
    mean = np.add.accumulate(cols, axis=-1)[..., -1] / n
    dev = cols - mean[..., None]
    dev *= dev
    return mean, np.sqrt(np.add.accumulate(dev, axis=-1)[..., -1] / n)


def _uses_mapping(variants: list[LossVariant]) -> bool:
    """Whether a stack of loss variants trains the mapping; ValueError for
    a stack that cannot share one loop."""
    if not variants:
        raise ValueError("a stack of runs needs at least one loss variant")
    mapped = {v is not LossVariant.NO_ALIGNMENT for v in variants}
    if len(mapped) > 1:
        raise ValueError("the runs of a stack cannot mix loss_variant no_alignment "
                         "with a mapping variant")
    return mapped.pop()


def train_collab(
    windows: list[TimeSeriesWindow],
    scorer,
    llm_scores: dict[str, np.ndarray],
    cfg: RunConfig,
    variants: list[LossVariant],
) -> list[tuple[FusionPipeline, TrainingCurves]]:
    """Joint minibatch SGD over the monotone mapping and the fusion network,
    for a stack of runs trained in lockstep: one (pipeline, curves) per loss
    variant in ``variants``, each with the bits that run gets in a stack alone.

    Every run trains with the run config ``cfg``, whose ``loss_variant`` is
    ignored; this reads its ``colr``, ``batchSize``, ``epochs_collab``,
    ``patchSize``, ``d``, ``lambda_hat`` (the weight of both alignment
    penalties), ``mapping_hidden``, ``cond_hidden`` and ``seed``, and each
    pipeline echoes ``cfg`` with its run's variant. Either all or none of
    the variants may be NO_ALIGNMENT; an empty stack, or one that mixes
    them, raises ValueError before any training.

    ``llm_scores`` holds every window's scores at the window's length, as
    ``llm.load_fixture`` returns them. The scorer stays frozen. Batches are
    contiguous blocks of ``batchSize`` slots inside one window, so the
    pairwise terms see both near and far slots; block order is reshuffled
    each epoch under the run seed. The NO_ALIGNMENT variant feeds scaled
    scores straight into the network and skips both the mapping and the
    alignment term. A window shorter than ``patchSize`` has no patch
    weights, so it is left out.

    The runs share the seed, and so the initial weights, the scoring, range
    divisor, fit, patch weights, blocks and every epoch's block order; all
    of that is built once. Per run there are only the standardized fusion
    input, each block's pairwise term, the curves, the aligned column's
    statistics and ``kl_aligned``. The parameters of every run are one
    (runs, P) ``FlatParams`` array, stepped by one Adam, and every pass
    carries the leading run axis: stacked matmuls, einsums and reductions
    give each run the bits of its own call. A stack of one has no run axis,
    so the CLI's lone run makes a lone run's numpy calls. The losses stay
    one call per run, each run's gradients copied into its row of the
    block's gathered gradients: the pairwise terms differ by variant, and a
    stacked alignment loss, though a batched matmul dot keeps each run's
    bits, slows a lone run by moving its arithmetic onto numpy scalars.

    Each kept window is scored once, into one scaled-score array and one
    stacked (llm, aligned, rep) fusion input over all of them; a block's are
    views of those. Its patch weights and, for the pairwise variants, its
    loss gradient are built once before the first epoch. One mapping pass
    over all slots per epoch boundary gives both that epoch's ``kl_aligned``
    and the aligned column's input statistics for the next epoch. The other
    columns never change, so they are standardized once, before the first
    epoch. A step writes in place only the parameters, the optimizer's
    gradient array (the backward passes write into it), its block's
    gradient rows and the aligned column of its block's standardized rows.

    A step takes the alignment loss with its gradient, and an epoch's curve
    values are the means of its steps' losses. A step whose pairwise or
    alignment loss is not finite in any run raises NonConvergence, after its
    update and before that epoch's curves are appended.
    """
    use_mapping = _uses_mapping(variants)
    runs = len(variants)
    # a stack of one carries no run axis: its arrays, and so its calls, are
    # those of a run trained alone
    lead = (runs,) if runs > 1 else ()
    windows = [w for w in windows if w.length >= cfg.patchSize]
    if not windows:
        raise WindowTooShort(f"no training window has at least patchSize={cfg.patchSize} slots")
    raws, reps = zip(*(scorer.score(w) for w in windows))
    raw, rep = np.concatenate(raws), np.concatenate(reps)
    llm = np.concatenate([llm_scores[w.window_id()] for w in windows])
    divisor = score_range_divisor(raw, cfg.d)
    all_scaled = raw / divisor
    fit = align_mod.fit_half_gaussian(llm)

    mapping = MonotoneMapping(cfg.mapping_hidden, seed=cfg.seed) if use_mapping else None
    cond = ConditionalNetParams(rep.shape[1], hidden=cfg.cond_hidden, seed=cfg.seed + 1)
    all_stacked = cond._stack(llm, all_scaled, rep)
    # training changes the aligned column alone, and so only its statistics:
    # the other columns are standardized once, here, one copy per run
    in_mean = np.tile(all_stacked.mean(axis=0), lead + (1,))
    in_std = np.tile(all_stacked.std(axis=0), lead + (1,))
    cond.set_input_stats(in_mean, in_std)
    all_z = cond.standardize(all_stacked)

    # per block: scaled scores, the runs' standardized fusion input and its
    # aligned column, slot-major so that each run's statistic broadcasts
    # along it, each run's pairwise term, and the arrays that gather the
    # runs' pairwise and alignment gradients, with a view of each run's row
    blocks = []
    offset = 0
    for w in windows:
        pw = patch_weights(w, cfg.patchSize)
        for start in range(0, w.length, cfg.batchSize):
            stop = min(start + cfg.batchSize, w.length)
            if stop - start < 2:
                continue
            rows = slice(offset + start, offset + stop)
            ds_hat = np.empty(lead + (stop - start,))
            dm = np.empty_like(ds_hat) if use_mapping else None
            dm_rows = [None] * runs if dm is None else dm.reshape(runs, -1)
            per_run = [(_pairwise_term(v, all_scaled[rows], llm[rows], pw.lambda1[start:stop],
                                       pw.lambda2[start:stop]), ds_r, dm_r)
                       for v, ds_r, dm_r in zip(variants, ds_hat.reshape(runs, -1), dm_rows)]
            blocks.append((all_scaled[rows], all_z[..., rows, :], all_z[..., rows, 1].T,
                           ds_hat, dm, per_run))
        offset += w.length

    kl_raw = align_mod.kl_histogram(all_scaled, fit, bins=50)
    curves = [TrainingCurves(kl_raw=kl_raw, blocks=len(blocks)) for _ in variants]

    flat = FlatParams([cond, mapping] if use_mapping else [cond], lead)
    cond_grads = flat.grads[0]
    mapping_grads = flat.grads[1] if use_mapping else None
    # Adam keeps the two loss terms trainable together: the pairwise term's
    # 1/n^2 scale is orders of magnitude below the alignment term's per-slot
    # log-density gradients, so raw SGD would starve the fusion net.
    opt = Adam(cfg.colr, flat.theta.shape)

    alignment_loss_grad, lambda_hat = align_mod.alignment_loss_grad, cfg.lambda_hat
    rng = np.random.default_rng(cfg.seed)
    all_aligned = mapping(all_scaled) if use_mapping else all_scaled
    for _epoch in range(cfg.epochs_collab):
        # the mapping reshapes its output distribution as it trains, so the
        # aligned column's standardization constants track it once per epoch
        in_mean[..., 1], in_std[..., 1] = _column_stats(all_aligned)
        cond.set_input_stats(in_mean, in_std)
        aligned_mean, aligned_std = cond.in_mean[..., 1], cond.in_std[..., 1]
        ep_align, ep_pair = [0.0] * runs, [0.0] * runs
        for bi in rng.permutation(len(blocks)):
            sb, z, z_aligned, ds_hat, dm, per_run = blocks[bi]
            if use_mapping:
                mapped, mcache = mapping.forward(sb)
                np.subtract(mapped.T, aligned_mean, out=z_aligned)
                z_aligned /= aligned_std
                mapped_rows = mapped.reshape(runs, -1)
            s_hat, ccache = cond.forward_stacked(z)
            s_rows = s_hat.reshape(runs, -1)
            # the losses, with their dot products, one run at a time
            finite = True
            for r, (term, ds_r, dm_r) in enumerate(per_run):
                pair_loss, ds_r[...] = term(s_rows[r])
                align_loss = 0.0
                if use_mapping:
                    align_loss, dm_r[...] = alignment_loss_grad(mapped_rows[r], fit, lambda_hat)
                finite = finite and math.isfinite(pair_loss) and math.isfinite(align_loss)
                ep_align[r] += align_loss
                ep_pair[r] += pair_loss
            _, dmapped = cond.backward(ds_hat, ccache, cond_grads)
            if use_mapping:
                dm += dmapped
                mapping.backward(dm, mcache, mapping_grads)
            opt.step(flat.theta, flat.grad)
            if not finite:
                raise NonConvergence("phase-2 loss became non-finite")
            for c in curves:
                c.steps += 1
        for c, a, p in zip(curves, ep_align, ep_pair):
            c.alignment_loss.append(a / len(blocks))
            c.pairwise_loss.append(p / len(blocks))
        if use_mapping:
            all_aligned = mapping(all_scaled)
            for c, aligned in zip(curves, all_aligned.reshape(runs, -1)):
                c.kl_aligned.append(align_mod.kl_histogram(aligned, fit, bins=50))

    # each run's pipeline holds views of its own parameters and statistics
    picks = [(r, ...) for r in range(runs)] if lead else [...]
    return [
        (FusionPipeline(scorer,
                        run_state(mapping, mapping.PARAMS, at) if use_mapping else None,
                        run_state(cond, cond.STATE, at), divisor, fit,
                        asdict(replace(cfg, loss_variant=v.value))), curve)
        for at, v, curve in zip(picks, variants, curves)
    ]


def detect(
    pipeline: FusionPipeline, window: TimeSeriesWindow, llm_scores: np.ndarray
) -> np.ndarray:
    """Collated scores for one window.

    Pure given (pipeline, window, scores): the detector scores the window, the
    frozen training divisor rescales, the mapping aligns, and the fusion net
    emits per-slot collated scores. Every score lies strictly inside (0, 1);
    slots whose fusion logit is above about 36.7 all get nextafter(1, 0),
    since float64 cannot tell such logits apart. A score that is not finite
    (a NaN weight, which loading rejects) raises NonFiniteInput.
    """
    raw, rep = pipeline.scorer.score(window)
    scaled = raw / pipeline.score_divisor
    aligned = scaled if pipeline.mapping is None else pipeline.mapping(scaled)
    out, _ = pipeline.cond.forward(llm_scores, aligned, rep)
    if not np.isfinite(out).all():
        raise NonFiniteInput(f"collated scores for window {window.window_id()!r} are not finite")
    return out
