import dataclasses
import itertools
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import collate
from collate.cli import RunConfig
from collate.core import PrecomputedScorer, TimeSeriesWindow
from collate.errors import NonConvergence, NonFiniteInput, ScoreOutOfRange, ShapeMismatch
from collate.tsadm import (
    AttentionLayerParams,
    TsadmModel,
    _AttentionCache,
    _attention_backward,
    _attention_forward,
    _softmax_rows,
    _sq_distances,
    _sum_over_bt,
    _Workspace,
    sliding_windows,
    train_tsadm,
)
from test_alignment import empty_grads
from test_optim import _reference_adam_step


def tsadm_config(**fields):
    """The run config's detector settings, with ``fields`` changed."""
    return dataclasses.replace(RunConfig().tsadm_config(), **fields)


def detector_grads(model) -> dict:
    """Uninitialised gradient arrays for ``model.loss_and_grads``: keyed and
    shaped as the model's parameters, with one dict per layer under
    ``"layers"``."""
    return {**empty_grads(model), "layers": [empty_grads(layer) for layer in model.layers]}


def step(model, xb):
    """Loss and gradients of one step on a fresh workspace."""
    return model.loss_and_grads(xb, _Workspace(), detector_grads(model))


def qkv(rng, b, d, t, e):
    """Random (B, D, T, e) query, key and value arrays."""
    return rng.normal(size=(3, b, d, t, e))


def attend(q, k, v, sigma):
    """One layer's forward pass through the kernel, with a fresh workspace."""
    return _attention_forward(q, k, v, sigma, _sq_distances(q.shape[-2]), _Workspace(), 0)


class TestMask:
    def test_diagonal_fully_masked(self):
        _, cache = attend(*qkv(np.random.default_rng(0), 2, 3, 6, 2), 1.7)
        np.testing.assert_allclose(np.diag(cache.g), 0.0)

    def test_symmetric_and_bounded(self):
        _, cache = attend(*qkv(np.random.default_rng(0), 1, 2, 8, 3), 2.5)
        g = cache.g
        np.testing.assert_allclose(g, g.T)
        assert g.min() >= 0.0
        # strictly below one wherever the exponential is representable
        assert g.max() < 1.0

    def test_adjacent_value_at_unit_scale(self):
        _, cache = attend(*qkv(np.random.default_rng(0), 1, 1, 2, 2), 1.0)
        assert cache.g[0, 1] == pytest.approx(1.0 - np.exp(-1.0), abs=1e-9)
        assert cache.g[0, 1] == pytest.approx(0.63212, abs=1e-5)

    def test_infinite_scale_limit_gives_uniform_rows(self):
        rng = np.random.default_rng(0)
        q, k, v = qkv(rng, 2, 3, 5, 4)
        out, _ = attend(q, k, v, 1e9)
        np.testing.assert_allclose(
            out, np.broadcast_to(v.mean(axis=2, keepdims=True), v.shape), atol=1e-6
        )


class TestAttention:
    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(1)
        q, k, _ = qkv(rng, 2, 3, 6, 3)
        # probe the attention row sums through all-ones values
        ones, cache = attend(q, k, np.ones((2, 3, 6, 1)), 1.2)
        np.testing.assert_allclose(ones, 1.0, atol=1e-9)
        np.testing.assert_allclose(cache.p.sum(axis=-1), 1.0, atol=1e-12)

    @pytest.mark.parametrize("seed", range(5))
    def test_vjp_matches_finite_differences(self, seed):
        rng = np.random.default_rng(seed)
        b, d = rng.integers(1, 4, size=2)
        t, e = rng.integers(2, 7), rng.integers(1, 5)
        q, k, v = qkv(rng, b, d, t, e)
        sigma = float(rng.uniform(0.5, 2.0))
        probe = rng.normal(size=(b, d, t, e))
        _, cache = attend(q, k, v, sigma)
        dq, dk, dv, dsig = _attention_backward(probe, cache, _Workspace())

        def val(q_, k_, v_, s_):
            return float((attend(q_, k_, v_, s_)[0] * probe).sum())

        h = 1e-6
        for arr, grad in ((q, dq), (k, dk), (v, dv)):
            idx = tuple(rng.integers(0, s) for s in arr.shape)
            step = np.zeros_like(arr)
            step[idx] = h
            args_p = [a + step if a is arr else a for a in (q, k, v)]
            args_m = [a - step if a is arr else a for a in (q, k, v)]
            fd = (val(*args_p, sigma) - val(*args_m, sigma)) / (2 * h)
            assert abs(fd - grad[idx]) / max(abs(fd), 1e-8) < 1e-4
        fd = (val(q, k, v, sigma + h) - val(q, k, v, sigma - h)) / (2 * h)
        assert abs(fd - dsig) / max(abs(fd), 1e-8) < 1e-4


# D, T and e of the shapes the matmul kernel is checked on against the oracle
ORACLE_SHAPES = list(itertools.product((1, 3), (2, 7), (1, 4)))


def assert_close_to_reference(got, ref, name=""):
    """rtol 1e-12 per element, with an absolute floor of 1e-14 of the array's
    largest entry: BLAS sums in another order than einsum, and an entry whose
    terms cancel to near zero carries an error relative to the terms, not to
    itself."""
    ref = np.asarray(ref)
    np.testing.assert_allclose(got, ref, rtol=1e-12, atol=1e-14 * np.abs(ref).max(),
                               err_msg=name)


class TestMatchesEinsumReference:
    """The matmul kernel equals the einsum forms it replaced, to rounding."""

    @pytest.mark.parametrize("d, t, e", ORACLE_SHAPES)
    def test_attention_kernel(self, d, t, e):
        rng = np.random.default_rng(100 * d + 10 * t + e)
        q, k, v = qkv(rng, 3, d, t, e)
        sigma = float(rng.uniform(0.5, 2.0))
        probe = rng.normal(size=(3, d, t, e))
        out, cache = attend(q, k, v, sigma)
        ref_out, ref_cache = _einsum_attention_forward(q, k, v, sigma)
        assert_close_to_reference(out, ref_out)
        assert_close_to_reference(cache.a, ref_cache.a)
        assert_close_to_reference(cache.p, ref_cache.p)
        for got, ref, name in zip(_attention_backward(probe, cache, _Workspace()),
                                  _einsum_attention_backward(probe, ref_cache),
                                  ("dq", "dk", "dv", "dsigma")):
            assert_close_to_reference(got, ref, name)

    @pytest.mark.parametrize("d, t, e", ORACLE_SHAPES)
    def test_loss_and_grads(self, d, t, e):
        rng = np.random.default_rng(100 * d + 10 * t + e)
        model = TsadmModel(d, tsadm_config(winLen=t, moduleNum=2, kLen=2, embed=e, seed=3))
        for layer in model.layers:
            layer.log_sigma = float(rng.uniform(-0.5, 1.0))
        xb = rng.normal(size=(4, t, d))
        loss, grads = step(model, xb)
        ref_loss, ref_grads = _einsum_loss_and_grads(model, xb)
        assert loss == pytest.approx(ref_loss, rel=1e-12)
        assert grads.keys() == ref_grads.keys()
        assert len(grads["layers"]) == len(ref_grads["layers"])
        pairs = [(grads, ref_grads, ""), *(
            (layer, ref, f"layer {i} ")
            for i, (layer, ref) in enumerate(zip(grads["layers"], ref_grads["layers"])))]
        for got, want, where in pairs:
            assert got.keys() == want.keys()
            for name, ref in want.items():
                if name != "layers":
                    assert_close_to_reference(got[name], ref, where + name)


# B, D and T of the shapes the workspace kernel is checked on bit for bit;
# T = 58 covers the generator's delay (18) plus its longest anomaly (40)
KERNEL_SHAPES = list(itertools.product((1, 50, 100), (1, 2, 3), (2, 16, 58)))


def arrays_of(*objs):
    """Every ndarray in objs, looking into tuples, lists and dicts."""
    for obj in objs:
        if isinstance(obj, np.ndarray):
            yield obj
        elif isinstance(obj, (tuple, list)):
            yield from arrays_of(*obj)
        elif isinstance(obj, dict):
            yield from arrays_of(*obj.values())


class TestMatchesAllocatingReference:
    """The workspace kernel gives the bits of the kernel that allocated every
    array, on a workspace a larger batch has already written into."""

    @pytest.mark.parametrize("b, d, t", KERNEL_SHAPES)
    def test_attention_kernel(self, b, d, t):
        rng = np.random.default_rng(1000 * b + 100 * d + t)
        self.assert_kernel_matches(rng, *qkv(rng, b, d, t, 4))

    def test_nan_logits_land_where_they_land_in_the_reference(self):
        rng = np.random.default_rng(5)
        q, k, v = qkv(rng, 20, 2, 16, 4)
        # a NaN query fills its logit row, a NaN key its logit column
        q[3, 1, 5, 2] = np.nan
        k[11, 0, 9, 0] = np.nan
        cache = self.assert_kernel_matches(rng, q, k, v)
        assert np.isnan(cache.a).sum() == 16 + 16
        assert np.isnan(cache.p).sum() == 16 + 16 * 16

    def test_softmax_keeps_nan_in_the_row_max(self):
        m = np.random.default_rng(6).normal(size=(4, 2, 5, 5))
        m[1, 0, 2, 3] = np.nan
        m[2, 1, 4] = -np.inf
        m[3, 1, 0, 0] = np.inf
        with np.errstate(invalid="ignore"):
            want = m - m.max(axis=-1, keepdims=True)
            ref = _reference_softmax_rows(m)
            got = _softmax_rows(m, np.empty_like(m))
        np.testing.assert_array_equal(got, ref)
        # the NaN row shifts to all NaN, as under max(axis=-1); the -inf row
        # too, and the +inf row at its inf
        np.testing.assert_array_equal(m, want)
        assert np.isnan(m).sum() == 5 + 5 + 1

    def assert_kernel_matches(self, rng, q, k, v):
        """Forward and backward on a warm workspace equal the reference bit
        for bit, NaNs in the same places; returns the forward's cache."""
        b, d, t, e = q.shape
        ws = _Workspace()
        d2 = _sq_distances(t)
        warm, warm_cache = _attention_forward(*qkv(rng, b + 1, d, t, e), 1.3, d2, ws, 0)
        _attention_backward(rng.normal(size=warm.shape), warm_cache, ws)
        sigma = float(rng.uniform(0.5, 2.0))
        probe = rng.normal(size=(b, d, t, e))
        out, cache = _attention_forward(q, k, v, sigma, d2, ws, 0)
        ref_out, ref_cache = _reference_attention_forward(q, k, v, sigma)
        np.testing.assert_array_equal(out, ref_out)
        np.testing.assert_array_equal(cache.a, ref_cache.a)
        np.testing.assert_array_equal(cache.p, ref_cache.p)
        for got, ref in zip(_attention_backward(probe, cache, ws),
                            _reference_attention_backward(probe, ref_cache)):
            np.testing.assert_array_equal(got, ref)
        return cache

    def test_training_run(self):
        # 62 windows of 8 slots in batches of 16: the last batch holds 14
        cfg = tsadm_config(winLen=8, moduleNum=2, kLen=2, embed=3, epochs=6,
                           batchSize=16, seed=4)
        values = np.random.default_rng(9).normal(size=(62 * 8 + 5, 2))
        model = train_tsadm(values, cfg, {})
        assert model.to_dict() == _reference_train_tsadm(values, cfg).to_dict()

    def test_training_run_at_the_cli_shape(self):
        # the CLI's detector; 230 windows in batches of 100: the last holds 30
        cfg = tsadm_config(winLen=16, moduleNum=3, kLen=2, embed=4, epochs=2,
                           batchSize=100, seed=0)
        values = np.random.default_rng(3).normal(size=(230 * 16 + 7, 1))
        counters = {}
        model = train_tsadm(values, cfg, counters)
        assert model.to_dict() == _reference_train_tsadm(values, cfg).to_dict()
        assert counters == {"epochs": 2, "batches": 3, "steps": 6}


# 30 training steps at the CLI's batch of 100 windows of 16 slots, after three
# to warm up; prints the minor page faults the 30 steps took
CHURN_PROBE = """
import resource
import numpy as np
from collate.optim import FlatParams
from collate.tsadm import TsadmConfig, TsadmModel, _Workspace
model = TsadmModel(1, TsadmConfig(winLen=16, moduleNum=3, kLen=2, embed=4, trlr=0.01,
                                  epochs=60, batchSize=100, seed=0))
flat = FlatParams([model, *model.layers])
grads = {**flat.grads[0], "layers": flat.grads[1:]}
xb = np.random.default_rng(7).normal(size=(100, 16, 1))
ws = _Workspace()
for _ in range(3):
    model.loss_and_grads(xb, ws, grads)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(30):
    model.loss_and_grads(xb, ws, grads)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


class TestWorkspace:
    def model_and_batch(self):
        """The CLI's detector and a batch of 100 windows of 16 slots."""
        model = TsadmModel(1, tsadm_config(winLen=16, moduleNum=3, kLen=2, embed=4, seed=0))
        return model, np.random.default_rng(7).normal(size=(100, 16, 1))

    def test_steps_reuse_their_memory(self):
        model, xb = self.model_and_batch()
        ws, grads = _Workspace(), detector_grads(model)
        model.loss_and_grads(xb, ws, grads)
        first = dict(ws.buffers)
        square = {name for name, buf in first.items() if buf.size == 100 * 16 * 16}
        assert square == {"a0", "a1", "a2", "p0", "p1", "p2", "dm", "scratch"}
        model.loss_and_grads(xb, ws, grads)
        # and a ragged batch writes into the full batch's memory
        model.loss_and_grads(xb[:37], ws, grads)
        assert ws.buffers.keys() == first.keys()
        for name, buf in ws.buffers.items():
            assert buf is first[name] and np.shares_memory(buf, first[name])

    def test_every_view_starts_on_a_64_byte_boundary(self, monkeypatch):
        model, xb = self.model_and_batch()
        views = []
        take = _Workspace.take

        def recording_take(self, name, shape):
            views.append(take(self, name, shape))
            return views[-1]

        monkeypatch.setattr(_Workspace, "take", recording_take)
        ws, grads = _Workspace(), detector_grads(model)
        model.loss_and_grads(xb, ws, grads)
        model.loss_and_grads(xb[:37], ws, grads)
        assert len(views) > 40
        assert all(view.ctypes.data % 64 == 0 for view in views)

    def test_one_training_run_uses_one_workspace(self, monkeypatch):
        seen = []
        step = TsadmModel.loss_and_grads

        def recording_step(self, xb, workspace, grads):
            seen.append(workspace)
            return step(self, xb, workspace, grads)

        monkeypatch.setattr(TsadmModel, "loss_and_grads", recording_step)
        cfg = tsadm_config(winLen=8, moduleNum=1, kLen=2, embed=2, epochs=3,
                           batchSize=4, seed=0)
        train_tsadm(np.random.default_rng(1).normal(size=(80, 1)), cfg, {})
        assert len(seen) == 9 and isinstance(seen[0], _Workspace)
        assert all(ws is seen[0] for ws in seen)

    def test_nothing_returned_aliases_the_workspace(self):
        model, xb = self.model_and_batch()
        ws = _Workspace()
        _, grads = model.loss_and_grads(xb, ws, detector_grads(model))
        raw, rep = model.score(TimeSeriesWindow(xb.reshape(-1, 1)))
        returned = [*arrays_of(grads, model.forward(xb)), raw, rep]
        assert len(returned) > 30
        for arr in returned:
            for buf in ws.buffers.values():
                assert not np.shares_memory(arr, buf)

    def test_scores_survive_a_training_step(self):
        model, xb = self.model_and_batch()
        window = TimeSeriesWindow(xb[:10].reshape(-1, 1))
        ws, grads = _Workspace(), detector_grads(model)
        model.loss_and_grads(xb, ws, grads)
        raw, rep = model.score(window)
        kept = raw.copy(), rep.copy()
        model.loss_and_grads(xb[::-1], ws, grads)
        np.testing.assert_array_equal(raw, kept[0])
        np.testing.assert_array_equal(rep, kept[1])
        again, rep_again = model.score(window)
        np.testing.assert_array_equal(again, kept[0])
        np.testing.assert_array_equal(rep_again, kept[1])

    @pytest.mark.skipif(not sys.platform.startswith("linux"),
                        reason="reads Linux's count of minor page faults")
    def test_training_steps_do_not_page_fault(self):
        # Run in a fresh interpreter, as the CLI runs. In this one, earlier
        # tests have moved glibc's mmap and trim thresholds, and steps that
        # allocate every array fault no more than steps that reuse them. A
        # fresh interpreter took ~800 faults a step when every step allocated
        # its (100, 1, 16, 16) attention arrays.
        env = dict(os.environ, PYTHONPATH=str(Path(collate.__file__).parents[1]),
                   OPENBLAS_NUM_THREADS="1")
        run = subprocess.run([sys.executable, "-c", CHURN_PROBE], env=env,
                             capture_output=True, text=True, check=True)
        assert int(run.stdout) < 50 * 30


class TestModel:
    def test_full_backprop_matches_finite_differences(self):
        rng = np.random.default_rng(2)
        cfg = tsadm_config(winLen=6, moduleNum=2, kLen=2, embed=3, seed=0)
        model = TsadmModel(2, cfg)
        xb = rng.normal(size=(3, 6, 2))
        loss, grads = step(model, xb)
        h = 1e-6
        layer0, layer1 = model.layers
        for owner, owner_grads, name in [
            (model, grads, "embed_w"), (layer0, grads["layers"][0], "wq"),
            (layer1, grads["layers"][1], "wk"), (layer0, grads["layers"][0], "wv"),
            (model, grads, "out_w"), (model, grads, "out_b"),
        ]:
            arr = getattr(owner, name)
            idx = tuple(rng.integers(0, s) for s in arr.shape)
            orig = arr[idx]
            arr[idx] = orig + h
            lp = step(model, xb)[0]
            arr[idx] = orig - h
            lm = step(model, xb)[0]
            arr[idx] = orig
            fd = (lp - lm) / (2 * h)
            assert abs(fd - owner_grads[name][idx]) / max(abs(fd), 1e-9) < 1e-4

    @pytest.mark.parametrize("seed", range(4))
    def test_log_sigma_gradient_matches_finite_differences(self, seed):
        rng = np.random.default_rng(seed)
        cfg = tsadm_config(winLen=6, moduleNum=2, kLen=2, embed=3, seed=seed)
        model = TsadmModel(2, cfg)
        for layer in model.layers:
            layer.log_sigma = float(rng.uniform(-0.5, 1.0))
        xb = rng.normal(size=(3, 6, 2))
        _, grads = step(model, xb)
        h = 1e-6
        for i, layer in enumerate(model.layers):
            orig = layer.log_sigma
            layer.log_sigma = orig + h
            lp = step(model, xb)[0]
            layer.log_sigma = orig - h
            lm = step(model, xb)[0]
            layer.log_sigma = orig
            fd = (lp - lm) / (2 * h)
            assert abs(fd - grads["layers"][i]["log_sigma"]) / max(abs(fd), 1e-9) < 1e-4

    def test_nan_in_series_raises_nonconvergence(self):
        cfg = tsadm_config(winLen=8, moduleNum=1, kLen=2, embed=2, epochs=1, seed=0)
        values = np.ones((64, 1))
        values[37, 0] = np.nan
        with pytest.raises(NonConvergence):
            train_tsadm(values, cfg, {})

    def test_constant_series_reconstructed(self):
        cfg = tsadm_config(winLen=8, moduleNum=2, kLen=2, embed=3, trlr=0.02,
                           epochs=200, seed=0)
        values = np.full((400, 1), 2.3)
        model = train_tsadm(values, cfg, {})
        loss, _ = step(model, values[:80].reshape(10, 8, 1))
        assert loss < 1e-4
        raw, _rep = model.score(TimeSeriesWindow(values[:80]))
        assert raw.max() < 1e-3

    def test_sine_reconstruction_regression(self):
        cfg = tsadm_config(winLen=16, moduleNum=2, kLen=2, embed=4, trlr=0.01,
                           epochs=150, seed=0)
        t = np.arange(2000)
        values = np.sin(2 * np.pi * t / 50.0)[:, None]
        model = train_tsadm(values[:1600], cfg, {})
        held = values[1600:]
        raw, _rep = model.score(TimeSeriesWindow(held))
        # per-slot scores are squared errors summed over the one dimension
        assert raw.mean() < 0.1 * held.var()

    def test_spike_is_argmax(self):
        cfg = tsadm_config(winLen=16, moduleNum=2, kLen=2, embed=4, trlr=0.01,
                           epochs=150, seed=0)
        t = np.arange(2000)
        values = np.sin(2 * np.pi * t / 50.0)[:, None]
        model = train_tsadm(values[:1600], cfg, {})
        test = values[1600:].copy()
        spike_slot = 123
        test[spike_slot, 0] += 10.0 * values.std()
        raw, _ = model.score(TimeSeriesWindow(test))
        assert int(np.argmax(raw)) == spike_slot

    def test_scores_nonnegative_and_rep_shape(self):
        cfg = tsadm_config(winLen=8, moduleNum=2, kLen=2, embed=3, epochs=5, seed=1)
        rng = np.random.default_rng(3)
        values = rng.normal(size=(200, 2))
        model = train_tsadm(values, cfg, {})
        window = TimeSeriesWindow(values[:50])
        raw, rep = model.score(window)
        assert raw.min() >= 0.0
        assert rep.shape == (50, model.rep_dim)

    def test_uneven_window_fully_scored(self):
        cfg = tsadm_config(winLen=8, moduleNum=1, kLen=2, embed=2, epochs=2, seed=0)
        rng = np.random.default_rng(4)
        values = rng.normal(size=(100, 1))
        model = train_tsadm(values, cfg, {})
        raw, rep = model.score(TimeSeriesWindow(values[:21]))
        assert len(raw) == 21 and rep.shape[0] == 21

    @pytest.mark.parametrize("length", [24, 29])
    def test_score_equals_each_tile_scored_alone(self, length):
        cfg = tsadm_config(winLen=8, moduleNum=2, kLen=2, embed=3, seed=0)
        model = TsadmModel(2, cfg)
        values = np.random.default_rng(8).normal(size=(length, 2))
        raw, rep = model.score(TimeSeriesWindow(values))
        w = cfg.winLen
        expected_raw = np.empty(length)
        expected_rep = np.empty((length, model.rep_dim))
        # the end-aligned tile first, so the full tiles overwrite the slots it shares
        for start in [length - w, *range(0, length - w + 1, w)]:
            tile = values[None, start : start + w]
            recon, r, _ = model.forward(tile)
            expected_raw[start : start + w] = ((recon[0] - tile[0]) ** 2).sum(axis=1)
            expected_rep[start : start + w] = r[0]
        np.testing.assert_array_equal(raw, expected_raw)
        np.testing.assert_array_equal(rep, expected_rep)

    @pytest.mark.parametrize("length", [1, 4, 7])
    def test_window_shorter_than_winlen_scored_in_one_padded_tile(self, length):
        cfg = tsadm_config(winLen=8, moduleNum=1, kLen=2, embed=2, epochs=2, seed=0)
        model = train_tsadm(np.random.default_rng(1).normal(size=(64, 2)), cfg, {})
        values = np.random.default_rng(2).normal(size=(length, 2))
        raw, rep = model.score(TimeSeriesWindow(values))
        # the tile is the window behind copies of its first row
        tile = np.concatenate([np.repeat(values[:1], 8 - length, axis=0), values])[None]
        recon, r, _ = model.forward(tile)
        expected = ((recon[0] - tile[0]) ** 2).sum(axis=1)
        np.testing.assert_array_equal(raw, expected[8 - length :])
        np.testing.assert_array_equal(rep, r[0, 8 - length :])

    def test_training_deterministic(self):
        cfg = tsadm_config(winLen=8, moduleNum=2, kLen=2, embed=3, epochs=10, seed=7)
        rng = np.random.default_rng(5)
        values = rng.normal(size=(240, 1))
        m1 = train_tsadm(values, cfg, {})
        m2 = train_tsadm(values, cfg, {})
        for name in TsadmModel.PARAMS:
            np.testing.assert_array_equal(getattr(m1, name), getattr(m2, name))
        for l1, l2 in zip(m1.layers, m2.layers, strict=True):
            for name in AttentionLayerParams.PARAMS:
                np.testing.assert_array_equal(getattr(l1, name), getattr(l2, name))

    def test_checkpoint_roundtrip_bit_exact(self, tmp_path):
        cfg = tsadm_config(winLen=8, moduleNum=2, kLen=3, embed=3, epochs=5, seed=2)
        rng = np.random.default_rng(6)
        model = train_tsadm(rng.normal(size=(160, 2)), cfg, {})
        p1 = tmp_path / "a.json"
        p2 = tmp_path / "b.json"
        model.save(p1)
        TsadmModel.load(p1).save(p2)
        assert p1.read_bytes() == p2.read_bytes()


class TestPrecomputedScorer:
    def test_slices_by_absolute_index(self):
        raw = np.arange(10, dtype=float)
        rep = np.stack([raw, raw * 2], axis=1)
        scorer = PrecomputedScorer(raw, rep, base_index=100)
        w = TimeSeriesWindow(np.zeros((3, 1)), start_index=104)
        scores, r = scorer.score(w)
        np.testing.assert_array_equal(scores, [4.0, 5.0, 6.0])
        np.testing.assert_array_equal(r[:, 0], [4.0, 5.0, 6.0])

    @pytest.mark.parametrize("bad", [-0.1, np.nan, np.inf])
    def test_negative_or_non_finite_raw_rejected_when_built(self, bad):
        raw = np.ones(5)
        raw[2] = bad
        state = {"raw": raw.tolist(), "rep": np.ones((5, 2)).tolist(), "base_index": 0}
        for build in (lambda: PrecomputedScorer(raw, np.ones((5, 2))),
                      lambda: PrecomputedScorer.from_dict(state)):
            with pytest.raises(ScoreOutOfRange, match="must be finite and nonnegative"):
                build()

    def test_out_of_coverage_rejected(self):
        scorer = PrecomputedScorer(np.ones(5), np.ones((5, 2)))
        with pytest.raises(ShapeMismatch):
            scorer.score(TimeSeriesWindow(np.zeros((3, 1)), start_index=4))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_rep_rejected_when_built(self, bad):
        rep = np.ones((5, 2))
        rep[3, 1] = bad
        state = {"raw": np.ones(5).tolist(), "rep": rep.tolist(), "base_index": 0}
        for build in (lambda: PrecomputedScorer(np.ones(5), rep),
                      lambda: PrecomputedScorer.from_dict(state)):
            with pytest.raises(NonFiniteInput, match="representations must be finite"):
                build()


# --- Oracle: the matmul kernel as it was before it wrote into a workspace ---


def _reference_softmax_rows(m):
    shifted = m - m.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def _reference_attention_forward(q, k, v, sigma):
    d2 = _sq_distances(q.shape[-2])
    expo = np.exp(-d2 / sigma**2)
    g = 1.0 - expo
    a = q @ k.swapaxes(-1, -2)
    p = _reference_softmax_rows(a * g)
    out = p @ v
    return out, _AttentionCache(q, k, v, a, p, g, expo, d2, sigma)


def _reference_attention_backward(dout, cache):
    q, k, v, a, p, g, expo, d2, sigma = cache
    dp = dout @ v.swapaxes(-1, -2)
    dv = p.swapaxes(-1, -2) @ dout
    dm = (dp - (dp * p).sum(axis=-1, keepdims=True)) * p
    da = dm * g
    dg = (dm * a).sum(axis=(0, 1))
    dsigma = float(-(dg * expo * 2.0 * d2 / sigma**3).sum())
    dq = da @ k
    dk = da.swapaxes(-1, -2) @ q
    return dq, dk, dv, dsigma


def _reference_loss_and_grads(model, xb):
    """``TsadmModel.loss_and_grads`` on the allocating kernel."""
    b, t, _ = xb.shape
    x, xwin = model._embed(xb)
    layer_caches = []
    for layer in model.layers:
        o, cache = _reference_attention_forward(x @ layer.wq, x @ layer.wk, x @ layer.wv,
                                                layer.sigma)
        layer_caches.append((x, cache))
        x = x + o
    rep = x.transpose(0, 2, 1, 3).reshape(b, t, model.rep_dim)
    recon = rep @ model.out_w + model.out_b
    resid = recon - xb
    loss = float(np.mean(resid**2))
    drecon = 2.0 * resid / resid.size
    grads = {
        "out_w": np.einsum("bth,btd->hd", rep, drecon),
        "out_b": drecon.sum(axis=(0, 1)),
    }
    drep = drecon @ model.out_w.T
    dx = drep.reshape(b, t, model.dims, model.cfg.embed).transpose(0, 2, 1, 3)
    grads["layers"] = [{} for _ in model.layers]
    for i in reversed(range(len(model.layers))):
        layer = model.layers[i]
        x, cache = layer_caches[i]
        dq, dk, dv, dsigma = _reference_attention_backward(dx, cache)
        grads["layers"][i] = {
            "wq": _sum_over_bt(x, dq, np.empty(layer.wq.shape)),
            "wk": _sum_over_bt(x, dk, np.empty(layer.wk.shape)),
            "wv": _sum_over_bt(x, dv, np.empty(layer.wv.shape)),
            "log_sigma": dsigma * cache.sigma,
        }
        dx = dx + (
            dq @ layer.wq.swapaxes(-1, -2)
            + dk @ layer.wk.swapaxes(-1, -2)
            + dv @ layer.wv.swapaxes(-1, -2)
        )
    du = dx.transpose(0, 2, 1, 3)
    grads["embed_w"] = np.einsum("btdj,btde->je", xwin, du)
    grads["embed_b"] = du.sum(axis=(0, 1, 2))
    return loss, grads


def _reference_train_tsadm(values, cfg):
    """``train_tsadm`` with every step on ``_reference_loss_and_grads``, and
    Adam stepping each named array apart; each layer's log_sigma is stepped
    in a 0-d array and stored back as a float."""
    windows = sliding_windows(values, cfg.winLen)
    model = TsadmModel(windows.shape[2], cfg)
    rng = np.random.default_rng(cfg.seed + 1)
    m, v, t = {}, {}, 0
    for _epoch in range(cfg.epochs):
        order = rng.permutation(windows.shape[0])
        for start in range(0, order.size, cfg.batchSize):
            batch = windows[order[start : start + cfg.batchSize]]
            _, grads = _reference_loss_and_grads(model, batch)
            params = {name: getattr(model, name) for name in TsadmModel.PARAMS}
            named = {name: grads[name] for name in TsadmModel.PARAMS}
            for i, (layer, layer_grads) in enumerate(zip(model.layers, grads["layers"])):
                params.update({f"{name}{i}": getattr(layer, name) for name in ("wq", "wk", "wv")})
                params[f"log_sigma{i}"] = np.array(layer.log_sigma)
                named.update({f"{name}{i}": layer_grads[name]
                              for name in AttentionLayerParams.PARAMS})
            t += 1
            _reference_adam_step(params, named, m, v, t, cfg.trlr)
            for i, layer in enumerate(model.layers):
                layer.log_sigma = float(params[f"log_sigma{i}"])
    return model


# --- Oracle: the detector's contractions as np.einsum, before the matmul rewrite ---


def _einsum_attention_forward(q, k, v, sigma):
    d2 = _sq_distances(q.shape[-2])
    expo = np.exp(-d2 / sigma**2)
    g = 1.0 - expo
    a = np.einsum("bdtf,bdsf->bdts", q, k)
    p = _reference_softmax_rows(a * g)
    out = np.einsum("bdts,bdse->bdte", p, v)
    return out, _AttentionCache(q, k, v, a, p, g, expo, d2, sigma)


def _einsum_attention_backward(dout, cache):
    q, k, v, a, p, g, expo, d2, sigma = cache
    dp = np.einsum("bdte,bdse->bdts", dout, v)
    dv = np.einsum("bdts,bdte->bdse", p, dout)
    dm = (dp - (dp * p).sum(axis=-1, keepdims=True)) * p
    da = dm * g
    dg = (dm * a).sum(axis=(0, 1))
    dsigma = float(-(dg * expo * 2.0 * d2 / sigma**3).sum())
    dq = np.einsum("bdts,bdsf->bdtf", da, k)
    dk = np.einsum("bdts,bdtf->bdsf", da, q)
    return dq, dk, dv, dsigma


def _einsum_loss_and_grads(model, xb):
    """Forward pass and full backprop of ``TsadmModel.loss_and_grads``."""
    b, t, _ = xb.shape
    x, xwin = model._embed(xb)
    layer_caches = []
    for layer in model.layers:
        q = np.einsum("bdte,def->bdtf", x, layer.wq)
        k = np.einsum("bdte,def->bdtf", x, layer.wk)
        v = np.einsum("bdte,def->bdtf", x, layer.wv)
        o, cache = _einsum_attention_forward(q, k, v, layer.sigma)
        layer_caches.append((x, cache))
        x = x + o
    rep = x.transpose(0, 2, 1, 3).reshape(b, t, model.rep_dim)
    recon = rep @ model.out_w + model.out_b
    resid = recon - xb
    loss = float(np.mean(resid**2))
    drecon = 2.0 * resid / resid.size
    grads = {
        "out_w": np.einsum("bth,btd->hd", rep, drecon),
        "out_b": drecon.sum(axis=(0, 1)),
    }
    drep = drecon @ model.out_w.T
    dx = drep.reshape(b, t, model.dims, model.cfg.embed).transpose(0, 2, 1, 3)
    grads["layers"] = [{} for _ in model.layers]
    for i in reversed(range(len(model.layers))):
        layer = model.layers[i]
        x, cache = layer_caches[i]
        dq, dk, dv, dsigma = _einsum_attention_backward(dx, cache)
        grads["layers"][i] = {
            "wq": np.einsum("bdte,bdtf->def", x, dq),
            "wk": np.einsum("bdte,bdtf->def", x, dk),
            "wv": np.einsum("bdte,bdtf->def", x, dv),
            "log_sigma": dsigma * cache.sigma,
        }
        dx = dx + (
            np.einsum("bdtf,def->bdte", dq, layer.wq)
            + np.einsum("bdtf,def->bdte", dk, layer.wk)
            + np.einsum("bdtf,def->bdte", dv, layer.wv)
        )
    du = dx.transpose(0, 2, 1, 3)
    grads["embed_w"] = np.einsum("btdj,btde->je", xwin, du)
    grads["embed_b"] = du.sum(axis=(0, 1, 2))
    return loss, grads
