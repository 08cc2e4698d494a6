"""Task-specific detector: anomaly-attention reconstruction network.

A small per-channel attention autoencoder. Each layer computes attention
logits q k^T, multiplies them by a distance mask G[i, j] = 1 - exp(-(i-j)^2 /
sigma^2) that suppresses self- and near-neighbour links, row-softmaxes, and
mixes values; layers are stacked with plain residual connections. The raw
anomaly score of a slot is its reconstruction error summed over channels.

The attention math has one implementation: ``_attention_forward`` and
``_attention_backward`` work on (B, D, T, e) arrays and give the output, a
cache, and (dq, dk, dv, dsigma). ``TsadmModel.forward`` and
``loss_and_grads`` call them once per layer, so the kernel the tests check
by finite differences is the one training runs. Every contraction of the
layers is ``np.matmul`` over the leading (B, D) axes: on these tiny
per-channel matrices ``np.einsum`` without ``optimize`` never reaches BLAS
and took half the training time.

The slow reductions and contractions read contiguous operands; each gives
the bits it gave on the strided form. Measured at the CLI's shape (100
windows of 16 slots, e = 4, one channel) on one pinned CPU with BLAS threads
1, numpy 2.4.6 and OpenBLAS 0.3.31:

- The row max of the (B, D, T, T) logits copies them into T contiguous
  column planes and takes ``np.maximum.reduce`` across the planes: about
  25 + 8 µs, against 140 µs for ``max(axis=-1)``, which runs one short
  reduction per 16-wide row. A max is exact and ``np.maximum`` propagates
  NaN, as ``max`` does; ``np.fmax`` would drop it. Row sums keep
  ``sum(axis=-1)``, whose pairwise order sets their bits.
- ``q k^T`` and the backward's ``dout v^T`` multiply by a contiguous copy of
  k^T or v^T: 13 µs plus 6 µs for the copy, where a ``swapaxes`` view took
  27 µs.
- The backward branch ``dq wq^T + dk wk^T + dv wv^T`` multiplies by
  contiguous transposes of the (D, e, e) weights: 8 µs a term against 19 µs.

The layers write every array whose size grows with the batch into a
``_Workspace``, which keeps one buffer per name: each layer's q, k and v, its
(B, D, T, T) logits and attention rows, the softmax and backward scratch
(dp, dm, da), the contiguous k^T or v^T, the layer output, and the backward
pass's dq, dk, dv and dx.
``train_tsadm`` passes one workspace to every step, so a run allocates these
arrays once, not once per step. At the default batch of 100 windows each
(B, D, T, T) array is 205 KB; allocating and freeing a dozen of them a step
let glibc hand the memory back to the system, and the next step faulted it
in again, about 800 minor page faults a step. A ragged last batch writes
into the start of the full batches' buffers: arrays of its own landed on the
heap where each full step then grew and trimmed the heap top again.

A step overwrites what the previous step left, so a layer cache is valid
only until the next call given the same workspace. Only ``forward`` and
``score`` make their own workspace: ``score`` always, and ``forward`` when
given none, so scoring stays pure and re-entrant. ``loss_and_grads`` writes
into the workspace and gradient arrays its caller passes. The
reconstructions, representations and scores returned are new arrays; only
``forward``'s layer caches point into the workspace it used.

Anything with ``score(window) -> (raw, rep)`` and ``rep_dim`` can stand in
for the attention model, as ``core.PrecomputedScorer`` does with scores
computed elsewhere; the scores are plain float64 arrays. A pipeline
checkpoint also needs the scorer's ``KIND``, ``to_dict`` and ``from_dict``,
and ``collab.FusionPipeline`` lists the classes it reads by kind.
"""
from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .core import TimeSeriesWindow, as_matrix
from .errors import NonConvergence, ShapeMismatch
from .optim import Adam, FlatParams, load_checkpoint, load_state, state_dict


class _Workspace:
    """Flat buffers the attention kernel writes into, one per name.

    ``take(name, shape)`` returns a C-ordered view of the start of the
    buffer, which is allocated again only when a larger shape is asked for.
    So a ragged last batch writes into part of the full batches' memory,
    and its contents are whatever the last user left. Every buffer starts on
    a 64-byte boundary, so the kernel's vector loops meet the same alignment
    in every run; the heap alone gives 16 bytes, at offsets that moved with
    unrelated changes to the program.
    """

    ALIGN = 64

    def __init__(self):
        self.buffers: dict[str, np.ndarray] = {}

    def take(self, name: str, shape: tuple[int, ...]) -> np.ndarray:
        size = math.prod(shape)
        buf = self.buffers.get(name)
        if buf is None or buf.size < size:
            raw = np.empty(size + self.ALIGN // 8)
            start = -raw.ctypes.data % self.ALIGN // 8
            buf = self.buffers[name] = raw[start : start + size]
        return buf[:size].reshape(shape)


def _softmax_rows(m: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Row softmax of m, written into out; m is left holding its shifted rows.

    The row max is taken across m's columns, staged in out as contiguous
    planes, before ``exp`` overwrites them.
    """
    cols = out.reshape(m.shape[-1], *m.shape[:-1])
    np.copyto(cols, np.moveaxis(m, -1, 0))
    m -= np.maximum.reduce(cols, axis=0)[..., None]
    np.exp(m, out=out)
    out /= out.sum(axis=-1, keepdims=True)
    return out


def _sq_distances(length: int) -> np.ndarray:
    """(i - j)^2 for every pair of slots in a window of ``length``."""
    idx = np.arange(length, dtype=np.float64)
    return (idx[:, None] - idx[None, :]) ** 2


class _AttentionCache(NamedTuple):
    q: np.ndarray
    k: np.ndarray
    v: np.ndarray
    a: np.ndarray  # logits q k^T
    p: np.ndarray  # attention rows
    g: np.ndarray  # distance mask 1 - expo
    expo: np.ndarray
    d2: np.ndarray
    sigma: float


def _transposed(x: np.ndarray, ws: _Workspace) -> np.ndarray:
    """A contiguous copy of x with its last two axes swapped, in ``ws``'s
    "operand_t", which the next call overwrites."""
    xt = ws.take("operand_t", (*x.shape[:-2], x.shape[-1], x.shape[-2]))
    np.copyto(xt, x.swapaxes(-1, -2))
    return xt


def _attention_forward(
    q: np.ndarray, k: np.ndarray, v: np.ndarray, sigma: float, d2: np.ndarray,
    ws: _Workspace, layer: int,
) -> tuple[np.ndarray, _AttentionCache]:
    """Masked attention softmax((q k^T) * G) v on (B, D, T, e) arrays.

    G = 1 - exp(-(i-j)^2 / sigma^2) is one (T, T) mask shared by every batch
    row and channel, built from d2 = ``_sq_distances(T)``; it is zero on the
    diagonal, so no slot attends to itself. The cache's logits and attention
    rows are ``ws``'s arrays for ``layer``; the output is ``ws``'s "out",
    which the next layer overwrites.
    """
    expo = np.exp(-d2 / sigma**2)
    g = 1.0 - expo
    shape = (*q.shape[:-1], q.shape[-2])
    a = np.matmul(q, _transposed(k, ws), out=ws.take(f"a{layer}", shape))
    p = _softmax_rows(np.multiply(a, g, out=ws.take("scratch", shape)),
                      ws.take(f"p{layer}", shape))
    out = np.matmul(p, v, out=ws.take("out", v.shape))
    return out, _AttentionCache(q, k, v, a, p, g, expo, d2, sigma)


def _attention_backward(dout: np.ndarray, cache: _AttentionCache, ws: _Workspace):
    """(dq, dk, dv, dsigma) for an upstream gradient dout of the output;
    dq, dk and dv are ``ws``'s arrays, which the next layer overwrites."""
    q, k, v, a, p, g, expo, d2, sigma = cache
    scratch = ws.take("scratch", p.shape)
    dm = np.matmul(dout, _transposed(v, ws), out=ws.take("dm", p.shape))  # dp
    dv = np.matmul(p.swapaxes(-1, -2), dout, out=ws.take("dv", dout.shape))
    # dm = (dp - rowsum(dp * p)) * p, in place
    dm -= np.multiply(dm, p, out=scratch).sum(axis=-1, keepdims=True)
    dm *= p
    dg = np.multiply(dm, a, out=scratch).sum(axis=(0, 1))
    da = np.multiply(dm, g, out=scratch)
    dsigma = float(-(dg * expo * 2.0 * d2 / sigma**3).sum())
    dq = np.matmul(da, k, out=ws.take("dq", dout.shape))
    dk = np.matmul(da.swapaxes(-1, -2), q, out=ws.take("dk", dout.shape))
    return dq, dk, dv, dsigma


def _sum_over_bt(x: np.ndarray, y: np.ndarray, out: np.ndarray) -> np.ndarray:
    """(D, e, f) sum over b and t of x[b, d, t, :]^T y[b, d, t, :], as one
    (D, e, B*T) @ (D, B*T, f) matmul, written into ``out``."""
    b, d, t, e = x.shape
    xs = x.transpose(1, 3, 0, 2).reshape(d, e, b * t)
    return np.matmul(xs, y.transpose(1, 0, 2, 3).reshape(d, b * t, y.shape[-1]), out=out)


@dataclass
class TsadmConfig:
    """The detector's settings; ``RunConfig`` holds their defaults."""

    winLen: int
    moduleNum: int
    kLen: int
    embed: int
    trlr: float
    epochs: int
    batchSize: int
    seed: int


class AttentionLayerParams:
    """Per-channel q/k/v projections and one shared mask scale per layer.

    sigma is optimized through its logarithm, so positivity survives every
    update.
    """

    PARAMS = ("wq", "wk", "wv", "log_sigma")

    def __init__(self, dims: int, embed: int, rng: np.random.Generator):
        scale = 1.0 / np.sqrt(embed)
        self.wq = rng.normal(0.0, scale, (dims, embed, embed))
        self.wk = rng.normal(0.0, scale, (dims, embed, embed))
        self.wv = rng.normal(0.0, scale, (dims, embed, embed))
        self.log_sigma = 0.0

    @property
    def sigma(self) -> float:
        return float(np.exp(self.log_sigma))


class TsadmModel:
    """Attention reconstruction model; immutable once trained, scoring is pure.

    Its parameters are the attributes named in ``PARAMS``, and each layer's
    in ``AttentionLayerParams.PARAMS``; ``loss_and_grads`` keys its
    gradients by the same names, as the fusion net's backward passes do, and
    the checkpoint stores them under those names.

    The model holds no scratch memory. ``train_tsadm`` keeps one
    ``_Workspace`` for its run and passes it, with its gradient arrays, to
    every ``loss_and_grads`` step; only ``score`` and a ``forward`` called
    without one allocate their own.
    """

    CHECKPOINT_VERSION = 1
    KIND = "attention"
    PARAMS = ("embed_w", "embed_b", "out_w", "out_b")

    def __init__(self, dims: int, cfg: TsadmConfig):
        rng = np.random.default_rng(cfg.seed)
        self.cfg = cfg
        self.dims = dims
        e, kl = cfg.embed, cfg.kLen
        self.embed_w = rng.normal(0.0, 1.0 / np.sqrt(kl), (kl, e))
        self.embed_b = np.zeros(e)
        self.layers = [AttentionLayerParams(dims, e, rng) for _ in range(cfg.moduleNum)]
        self.out_w = rng.normal(0.0, 1.0 / np.sqrt(dims * e), (dims * e, dims))
        self.out_b = np.zeros(dims)

    @property
    def rep_dim(self) -> int:
        return self.dims * self.cfg.embed

    def _embed(self, xb: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        b, t, d = xb.shape
        kl = self.cfg.kLen
        pad = np.concatenate([np.repeat(xb[:, :1, :], kl - 1, axis=1), xb], axis=1)
        xwin = np.stack([pad[:, j : j + t, :] for j in range(kl)], axis=-1)  # (B,T,D,kl)
        u = np.einsum("btdj,je->btde", xwin, self.embed_w) + self.embed_b
        return u.transpose(0, 2, 1, 3), xwin  # (B,D,T,e)

    def forward(self, xb: np.ndarray, workspace: _Workspace | None = None):
        """Reconstruction, representation, and caches for one batch (B, T, D).

        The caches' q, k, v, logits and attention rows live in
        ``workspace``, a fresh one unless the caller passes one to reuse.
        """
        if xb.ndim != 3 or xb.shape[2] != self.dims:
            raise ShapeMismatch(f"expected (B, T, {self.dims}) input")
        ws = _Workspace() if workspace is None else workspace
        t = xb.shape[1]
        d2 = _sq_distances(t)
        x, xwin = self._embed(xb)
        layer_caches = []
        for i, layer in enumerate(self.layers):
            q = np.matmul(x, layer.wq, out=ws.take(f"q{i}", x.shape))
            k = np.matmul(x, layer.wk, out=ws.take(f"k{i}", x.shape))
            v = np.matmul(x, layer.wv, out=ws.take(f"v{i}", x.shape))
            o, cache = _attention_forward(q, k, v, layer.sigma, d2, ws, i)
            layer_caches.append((x, cache))
            x = x + o
        rep = x.transpose(0, 2, 1, 3).reshape(xb.shape[0], t, self.rep_dim)
        recon = rep @ self.out_w + self.out_b
        return recon, rep, (xb, xwin, layer_caches)

    def loss_and_grads(self, xb: np.ndarray, workspace: _Workspace, grads: dict):
        """Mean squared reconstruction error, and its gradient for every
        parameter written into the arrays of ``grads``.

        ``grads`` is keyed by attribute name, and its ``"layers"`` holds one
        {wq, wk, wv, log_sigma} dict per layer (a 0-d array for
        ``log_sigma``), as ``FlatParams.grads`` lays them out. The attention
        arrays of both passes go to ``workspace``.
        """
        recon, rep, (xb, xwin, layer_caches) = self.forward(xb, workspace)
        resid = recon - xb
        loss = float(np.mean(resid**2))
        drecon = 2.0 * resid / resid.size
        np.einsum("bth,btd->hd", rep, drecon, out=grads["out_w"])
        drecon.sum(axis=(0, 1), out=grads["out_b"])
        drep = drecon @ self.out_w.T
        b, t = xb.shape[0], xb.shape[1]
        dx = drep.reshape(b, t, self.dims, self.cfg.embed).transpose(0, 2, 1, 3)
        for i in reversed(range(len(self.layers))):
            layer, lg = self.layers[i], grads["layers"][i]
            x, cache = layer_caches[i]
            # residual: dx flows to both the branch and the skip
            dq, dk, dv, dsigma = _attention_backward(dx, cache, workspace)
            _sum_over_bt(x, dq, lg["wq"])
            _sum_over_bt(x, dk, lg["wk"])
            _sum_over_bt(x, dv, lg["wv"])
            np.multiply(dsigma, cache.sigma, out=lg["log_sigma"])
            # dx + (dq wq^T + dk wk^T + dv wv^T), summed in that order, each
            # weight transposed into a contiguous copy
            branch = np.matmul(dq, layer.wq.transpose(0, 2, 1).copy(),
                               out=workspace.take("branch", dx.shape))
            branch += np.matmul(dk, layer.wk.transpose(0, 2, 1).copy(),
                                out=workspace.take("term", dx.shape))
            branch += np.matmul(dv, layer.wv.transpose(0, 2, 1).copy(),
                                out=workspace.take("term", dx.shape))
            dx = np.add(dx, branch, out=workspace.take("dx", dx.shape))
        du = dx.transpose(0, 2, 1, 3)  # (B,T,D,e)
        np.einsum("btdj,btde->je", xwin, du, out=grads["embed_w"])
        du.sum(axis=(0, 1, 2), out=grads["embed_b"])
        return loss, grads

    def score(self, window: TimeSeriesWindow) -> tuple[np.ndarray, np.ndarray]:
        """Raw per-slot reconstruction errors and the final attention features.

        Windows longer than winLen are scored in non-overlapping tiles, with
        an end-aligned tile covering the remainder; all tiles go through one
        ``forward`` call, and every slot is scored once. A window shorter
        than winLen is front-padded to one tile with copies of its first row,
        as ``_embed`` pads, and only its own slots are kept.
        """
        t = window.length
        w = self.cfg.winLen
        if window.dims != self.dims:
            raise ShapeMismatch(f"window has {window.dims} dims, model expects {self.dims}")
        values = window.values
        if t < w:
            values = np.concatenate([np.repeat(values[:1], w - t, axis=0), values])
        n_full, tail = divmod(t, w)
        tiles = values[: n_full * w].reshape(n_full, w, self.dims)
        if tail:
            tiles = np.concatenate([tiles, values[None, -w:]])
        recon, rep, _ = self.forward(tiles)
        err = ((recon - tiles) ** 2).sum(axis=2).reshape(-1)
        # the end-aligned tile gives only the slots past the last full tile
        keep = np.r_[: n_full * w, err.size - tail : err.size]
        return err[keep], rep.reshape(-1, self.rep_dim)[keep]

    def to_dict(self) -> dict:
        return {
            "version": self.CHECKPOINT_VERSION,
            "config": asdict(self.cfg),
            "dims": self.dims,
            **state_dict(self, self.PARAMS),
            "layers": [state_dict(layer, layer.PARAMS) for layer in self.layers],
        }

    def save(self, path: str | Path) -> None:
        Path(path).write_text(json.dumps(self.to_dict(), sort_keys=True))

    @classmethod
    def from_dict(cls, d: dict) -> "TsadmModel":
        if d.get("version") != cls.CHECKPOINT_VERSION:
            raise ValueError(f"unsupported checkpoint version {d.get('version')}")
        cfg = TsadmConfig(**d["config"])
        dims = d["dims"]
        sizes = {"dims": dims, **asdict(cfg)}
        for name in ("dims", "winLen", "moduleNum", "kLen", "embed", "epochs", "batchSize"):
            if not (type(sizes[name]) is int and sizes[name] > 0):
                raise ValueError(f"{name} must be a positive integer, got {sizes[name]!r}")
        if len(d["layers"]) != cfg.moduleNum:
            raise ValueError(f"{len(d['layers'])} layers, but moduleNum is {cfg.moduleNum}")
        e, w = cfg.embed, (dims, cfg.embed, cfg.embed)
        model = load_state(cls, d, "detector", {"embed_w": (cfg.kLen, e), "embed_b": (e,),
                                                "out_w": (dims * e, dims), "out_b": (dims,)})
        model.cfg, model.dims = cfg, dims
        model.layers = [load_state(AttentionLayerParams, ld, "layer",
                                   {"wq": w, "wk": w, "wv": w, "log_sigma": ()})
                        for ld in d["layers"]]
        return model

    @classmethod
    def load(cls, path: str | Path) -> "TsadmModel":
        return load_checkpoint(path, cls.from_dict)


def sliding_windows(values: np.ndarray, win_len: int) -> np.ndarray:
    """Non-overlapping training windows (B, winLen, D) of the series
    ``values``, read by ``core.as_matrix``; the tail is dropped."""
    values = as_matrix(values)
    if values.shape[0] < win_len:
        raise ShapeMismatch("series shorter than one window")
    n_win = values.shape[0] // win_len
    return values[: n_win * win_len].reshape(n_win, win_len, values.shape[1])


def train_tsadm(values: np.ndarray, cfg: TsadmConfig,
                counters: dict | None = None) -> TsadmModel:
    """Minibatch Adam on mean squared reconstruction error.

    Deterministic under cfg.seed: init, batch shuffling, and updates all flow
    from one generator. Every step writes its attention arrays into one
    workspace, so they are allocated once per run, not once per step. The
    model's and each layer's parameters are bound to one ``FlatParams``
    vector, which each step updates in place, and each step writes its
    gradients into ``FlatParams``' views; so while training, and in the
    model returned, every ``log_sigma`` is a 0-d array. A ``counters`` dict
    gets the run's ``epochs``, ``batches`` (per epoch) and ``steps``.
    """
    windows = sliding_windows(values, cfg.winLen)
    dims = windows.shape[2]
    model = TsadmModel(dims, cfg)
    rng = np.random.default_rng(cfg.seed + 1)
    flat = FlatParams([model, *model.layers])
    opt = Adam(cfg.trlr, flat.theta.size)
    workspace = _Workspace()
    grads = {**flat.grads[0], "layers": flat.grads[1:]}
    for _epoch in range(cfg.epochs):
        order = rng.permutation(windows.shape[0])
        for start in range(0, order.size, cfg.batchSize):
            batch = windows[order[start : start + cfg.batchSize]]
            loss, _ = model.loss_and_grads(batch, workspace, grads)
            if not np.isfinite(loss):
                raise NonConvergence(f"reconstruction loss became {loss}")
            opt.step(flat.theta, flat.grad)
    if counters is not None:
        counters.update(epochs=cfg.epochs, batches=-(-windows.shape[0] // cfg.batchSize),
                        steps=opt.t)
    return model

