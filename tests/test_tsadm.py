import numpy as np
import pytest

from collate.core import ScoreKind, TimeSeriesWindow
from collate.errors import NonConvergence, ShapeMismatch
from collate.tsadm import (
    PrecomputedScorer,
    TsadmConfig,
    TsadmModel,
    _attention_backward,
    _attention_forward,
    scorer_from_dict,
    scorer_to_dict,
    train_tsadm,
)


def qkv(rng, b, d, t, e):
    """Random (B, D, T, e) query, key and value arrays."""
    return rng.normal(size=(3, b, d, t, e))


class TestMask:
    def test_diagonal_fully_masked(self):
        _, cache = _attention_forward(*qkv(np.random.default_rng(0), 2, 3, 6, 2), 1.7)
        np.testing.assert_allclose(np.diag(cache.g), 0.0)

    def test_symmetric_and_bounded(self):
        _, cache = _attention_forward(*qkv(np.random.default_rng(0), 1, 2, 8, 3), 2.5)
        g = cache.g
        np.testing.assert_allclose(g, g.T)
        assert g.min() >= 0.0
        # strictly below one wherever the exponential is representable
        assert g.max() < 1.0

    def test_adjacent_value_at_unit_scale(self):
        _, cache = _attention_forward(*qkv(np.random.default_rng(0), 1, 1, 2, 2), 1.0)
        assert cache.g[0, 1] == pytest.approx(1.0 - np.exp(-1.0), abs=1e-9)
        assert cache.g[0, 1] == pytest.approx(0.63212, abs=1e-5)

    def test_infinite_scale_limit_gives_uniform_rows(self):
        rng = np.random.default_rng(0)
        q, k, v = qkv(rng, 2, 3, 5, 4)
        out, _ = _attention_forward(q, k, v, sigma=1e9)
        np.testing.assert_allclose(
            out, np.broadcast_to(v.mean(axis=2, keepdims=True), v.shape), atol=1e-6
        )


class TestAttention:
    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(1)
        q, k, _ = qkv(rng, 2, 3, 6, 3)
        # probe the attention row sums through all-ones values
        ones, cache = _attention_forward(q, k, np.ones((2, 3, 6, 1)), 1.2)
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
        _, cache = _attention_forward(q, k, v, sigma)
        dq, dk, dv, dsig = _attention_backward(probe, cache)

        def val(q_, k_, v_, s_):
            return float((_attention_forward(q_, k_, v_, s_)[0] * probe).sum())

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


class TestModel:
    def test_full_backprop_matches_finite_differences(self):
        rng = np.random.default_rng(2)
        cfg = TsadmConfig(winLen=6, moduleNum=2, kLen=2, embed=3, seed=0)
        model = TsadmModel(2, cfg)
        xb = rng.normal(size=(3, 6, 2))
        loss, grads = model.loss_and_grads(xb)
        h = 1e-6
        for name in ("embed_w", "wq0", "wk1", "wv0", "out_w", "out_b"):
            arr = model.parameters()[name]
            idx = tuple(rng.integers(0, s) for s in arr.shape)
            orig = arr[idx]
            arr[idx] = orig + h
            lp = model.loss_and_grads(xb)[0]
            arr[idx] = orig - h
            lm = model.loss_and_grads(xb)[0]
            arr[idx] = orig
            fd = (lp - lm) / (2 * h)
            assert abs(fd - grads[name][idx]) / max(abs(fd), 1e-9) < 1e-4

    @pytest.mark.parametrize("seed", range(4))
    def test_log_sigma_gradient_matches_finite_differences(self, seed):
        rng = np.random.default_rng(seed)
        cfg = TsadmConfig(winLen=6, moduleNum=2, kLen=2, embed=3, seed=seed)
        model = TsadmModel(2, cfg)
        for layer in model.layers:
            layer.log_sigma = float(rng.uniform(-0.5, 1.0))
        xb = rng.normal(size=(3, 6, 2))
        _, grads = model.loss_and_grads(xb)
        h = 1e-6
        for i, layer in enumerate(model.layers):
            orig = layer.log_sigma
            layer.log_sigma = orig + h
            lp = model.loss_and_grads(xb)[0]
            layer.log_sigma = orig - h
            lm = model.loss_and_grads(xb)[0]
            layer.log_sigma = orig
            fd = (lp - lm) / (2 * h)
            assert abs(fd - grads["log_sigma"][i]) / max(abs(fd), 1e-9) < 1e-4

    def test_nan_in_series_raises_nonconvergence(self):
        cfg = TsadmConfig(winLen=8, moduleNum=1, kLen=2, embed=2, epochs=1, seed=0)
        values = np.ones((64, 1))
        values[37, 0] = np.nan
        with pytest.raises(NonConvergence):
            train_tsadm(values, cfg)

    def test_constant_series_reconstructed(self):
        cfg = TsadmConfig(winLen=8, moduleNum=2, kLen=2, embed=3, trlr=0.02,
                          epochs=200, seed=0)
        values = np.full((400, 1), 2.3)
        model = train_tsadm(values, cfg)
        loss, _ = model.loss_and_grads(values[:80].reshape(10, 8, 1))
        assert loss < 1e-4
        raw, _rep = model.score(TimeSeriesWindow(values[:80]))
        assert raw.scores.max() < 1e-3

    def test_sine_reconstruction_regression(self):
        cfg = TsadmConfig(winLen=16, moduleNum=2, kLen=2, embed=4, trlr=0.01,
                          epochs=150, seed=0)
        t = np.arange(2000)
        values = np.sin(2 * np.pi * t / 50.0)[:, None]
        model = train_tsadm(values[:1600], cfg)
        held = values[1600:]
        raw, _rep = model.score(TimeSeriesWindow(held))
        # per-slot scores are squared errors summed over the one dimension
        assert raw.scores.mean() < 0.1 * held.var()

    def test_spike_is_argmax(self):
        cfg = TsadmConfig(winLen=16, moduleNum=2, kLen=2, embed=4, trlr=0.01,
                          epochs=150, seed=0)
        t = np.arange(2000)
        values = np.sin(2 * np.pi * t / 50.0)[:, None]
        model = train_tsadm(values[:1600], cfg)
        test = values[1600:].copy()
        spike_slot = 123
        test[spike_slot, 0] += 10.0 * values.std()
        raw, _ = model.score(TimeSeriesWindow(test))
        assert int(np.argmax(raw.scores)) == spike_slot

    def test_scores_nonnegative_and_rep_shape(self):
        cfg = TsadmConfig(winLen=8, moduleNum=2, kLen=2, embed=3, epochs=5, seed=1)
        rng = np.random.default_rng(3)
        values = rng.normal(size=(200, 2))
        model = train_tsadm(values, cfg)
        window = TimeSeriesWindow(values[:50])
        raw, rep = model.score(window)
        assert raw.kind is ScoreKind.RAW_TSADM
        assert raw.scores.min() >= 0.0
        assert rep.shape == (50, model.rep_dim)

    def test_uneven_window_fully_scored(self):
        cfg = TsadmConfig(winLen=8, moduleNum=1, kLen=2, embed=2, epochs=2, seed=0)
        rng = np.random.default_rng(4)
        values = rng.normal(size=(100, 1))
        model = train_tsadm(values, cfg)
        raw, rep = model.score(TimeSeriesWindow(values[:21]))
        assert len(raw) == 21 and rep.shape[0] == 21

    def test_window_shorter_than_winlen_rejected(self):
        cfg = TsadmConfig(winLen=8, moduleNum=1, kLen=2, embed=2, epochs=2, seed=0)
        model = train_tsadm(np.zeros((64, 1)) + 1.0, cfg)
        with pytest.raises(ShapeMismatch):
            model.score(TimeSeriesWindow(np.ones((4, 1))))

    def test_training_deterministic(self):
        cfg = TsadmConfig(winLen=8, moduleNum=2, kLen=2, embed=3, epochs=10, seed=7)
        rng = np.random.default_rng(5)
        values = rng.normal(size=(240, 1))
        m1 = train_tsadm(values, cfg)
        m2 = train_tsadm(values, cfg)
        for k, v in m1.parameters().items():
            np.testing.assert_array_equal(v, m2.parameters()[k])
        assert [l.log_sigma for l in m1.layers] == [l.log_sigma for l in m2.layers]

    def test_checkpoint_roundtrip_bit_exact(self, tmp_path):
        cfg = TsadmConfig(winLen=8, moduleNum=2, kLen=3, embed=3, epochs=5, seed=2)
        rng = np.random.default_rng(6)
        model = train_tsadm(rng.normal(size=(160, 2)), cfg)
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
        np.testing.assert_array_equal(scores.scores, [4.0, 5.0, 6.0])
        np.testing.assert_array_equal(r[:, 0], [4.0, 5.0, 6.0])

    def test_out_of_coverage_rejected(self):
        scorer = PrecomputedScorer(np.ones(5), np.ones((5, 2)))
        with pytest.raises(ShapeMismatch):
            scorer.score(TimeSeriesWindow(np.zeros((3, 1)), start_index=4))

    def test_serialization_dispatch(self):
        scorer = PrecomputedScorer(np.ones(4), np.zeros((4, 2)), base_index=9)
        clone = scorer_from_dict(scorer_to_dict(scorer))
        assert isinstance(clone, PrecomputedScorer)
        assert clone.base_index == 9
