import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from collate import alignment as align_mod
from collate import collab as collab_mod
from collate.alignment import MonotoneMapping
from collate.benchmark import BenchmarkConfig, build_benchmark
from collate.collab import (
    _check_lengths,
    _pairwise_weighted_excess,
    CollabConfig,
    CollaborativeTerm,
    ConditionalNetParams,
    FusionPipeline,
    LossVariant,
    TrainingCurves,
    collaborative_loss_grad,
    detect,
    mse_variant_loss_grad,
    train_collab,
)
from collate.core import (
    ScoreKind,
    ScoreSeries,
    TimeSeriesWindow,
    patch_weights,
    score_range_divisor,
    sigmoid,
)
from collate.errors import LengthMismatch, NonConvergence
from collate.optim import Adam


def weights(lam1):
    """(lam1, lam2) with lam2 the complement, as patch weights give them."""
    lam1 = np.asarray(lam1, float)
    return lam1, 1.0 - lam1


def collaborative_loss_naive(s_hat, s, llm, lam1, lam2):
    """Reference: the collaborative loss as the literal double sum."""
    s_hat = np.asarray(s_hat, float).reshape(-1)
    s = np.asarray(s, float).reshape(-1)
    llm = np.asarray(llm, float).reshape(-1)
    n = _check_lengths(s_hat, s, llm)
    total = 0.0
    for i in range(n):
        for j in range(n):
            pair1 = 0.5 * (lam1[i] + lam1[j])
            pair2 = 0.5 * (lam2[i] + lam2[j])
            d_hat = s_hat[i] - s_hat[j]
            total += pair1 * (s[i] - s[j]) * d_hat + pair2 * (llm[i] - llm[j]) * d_hat
    return -total / n**2


score_vec = st.lists(st.floats(0, 1), min_size=2, max_size=12)


class TestConditionalNet:
    def test_zero_parameters_emit_half(self):
        net = ConditionalNetParams(rep_dim=3, hidden=4, seed=0)
        net.w1[:] = 0.0
        net.w2[:] = 0.0
        net.b1[:] = 0.0
        net.b2 = 0.0
        out, _ = net.forward(np.array([0.2]), np.array([0.7]), np.ones((1, 3)))
        assert out[0] == pytest.approx(0.5)

    def test_output_strictly_inside_unit_interval(self):
        rng = np.random.default_rng(1)
        net = ConditionalNetParams(rep_dim=2, hidden=8, seed=1)
        out, _ = net.forward(rng.uniform(0, 1, 50), rng.uniform(0, 1, 50),
                             rng.normal(size=(50, 2)) * 100)
        assert out.min() > 0.0 and out.max() < 1.0

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(2)
        net = ConditionalNetParams(rep_dim=3, hidden=5, seed=2)
        llm = rng.uniform(0, 1, 7)
        aligned = rng.uniform(0, 1, 7)
        rep = rng.normal(size=(7, 3))
        probe = rng.normal(size=7)
        out, cache = net.forward(llm, aligned, rep)
        grads, dllm, dal, drep = net.backward(probe, cache)
        h = 1e-6

        def value():
            return float(net.forward(llm, aligned, rep)[0] @ probe)

        for name in ("w1", "b1", "w2"):
            arr = getattr(net, name)
            idx = tuple(rng.integers(0, s) for s in arr.shape)
            orig = arr[idx]
            arr[idx] = orig + h
            vp = value()
            arr[idx] = orig - h
            vm = value()
            arr[idx] = orig
            fd = (vp - vm) / (2 * h)
            assert abs(fd - grads[name][idx]) / max(abs(fd), 1e-9) < 1e-4
        # input gradients
        e = np.zeros(7)
        e[3] = h
        fd = (float(net.forward(llm, aligned + e, rep)[0] @ probe)
              - float(net.forward(llm, aligned - e, rep)[0] @ probe)) / (2 * h)
        assert abs(fd - dal[3]) / max(abs(fd), 1e-9) < 1e-4

    def test_roundtrip(self):
        net = ConditionalNetParams(rep_dim=2, hidden=3, seed=5)
        net.set_input_stats(np.arange(4.0), np.arange(1.0, 5.0))
        clone = ConditionalNetParams.from_dict(net.to_dict())
        rng = np.random.default_rng(0)
        args = (rng.uniform(0, 1, 5), rng.uniform(0, 1, 5), rng.normal(size=(5, 2)))
        np.testing.assert_array_equal(net.forward(*args)[0], clone.forward(*args)[0])


class TestCollaborativeLoss:
    def test_two_slot_example(self):
        s = np.array([0.0, 1.0])
        loss = collaborative_loss_grad(s, s, s, *weights(np.array([0.5, 0.5])))[0]
        assert loss == pytest.approx(-0.5)

    def test_constant_output_zero_loss(self):
        rng = np.random.default_rng(0)
        s, llm = rng.uniform(0, 1, 9), rng.uniform(0, 1, 9)
        lam = rng.uniform(0, 1, 9)
        loss = collaborative_loss_grad(np.full(9, 0.4), s, llm, *weights(lam))[0]
        assert loss == pytest.approx(0.0, abs=1e-15)

    def test_reversal_flips_sign(self):
        rng = np.random.default_rng(1)
        s, llm = rng.uniform(0, 1, 8), rng.uniform(0, 1, 8)
        s_hat = rng.uniform(0, 1, 8)
        lam = weights(rng.uniform(0, 1, 8))
        assert collaborative_loss_grad(1.0 - s_hat, s, llm, *lam)[0] == pytest.approx(
            -collaborative_loss_grad(s_hat, s, llm, *lam)[0]
        )

    def test_self_alignment_is_negative_spread(self):
        rng = np.random.default_rng(2)
        s = rng.uniform(0, 1, 7)
        lam = weights(np.ones(7))
        loss = collaborative_loss_grad(s, s, np.zeros(7), *lam)[0]
        expected = -np.sum((s[:, None] - s[None, :]) ** 2) / 49.0
        assert loss == pytest.approx(expected)
        assert loss <= 0.0
        const = collaborative_loss_grad(np.full(7, 0.3), np.full(7, 0.3), np.zeros(7), *lam)[0]
        assert const == pytest.approx(0.0, abs=1e-15)

    @given(score_vec, score_vec, score_vec, score_vec)
    @settings(max_examples=40, deadline=None)
    def test_vectorized_equals_naive(self, s_hat, s, llm, lam):
        n = min(len(s_hat), len(s), len(llm), len(lam))
        if n < 2:
            return
        pw = weights(np.asarray(lam[:n]))
        fast = collaborative_loss_grad(np.asarray(s_hat[:n]), np.asarray(s[:n]),
                                       np.asarray(llm[:n]), *pw)[0]
        slow = collaborative_loss_naive(np.asarray(s_hat[:n]), np.asarray(s[:n]),
                                        np.asarray(llm[:n]), *pw)
        assert fast == pytest.approx(slow, abs=1e-12)

    @given(score_vec, st.floats(-0.5, 0.5))
    @settings(max_examples=40, deadline=None)
    def test_invariant_to_constant_shift(self, s_hat, c):
        if len(s_hat) < 2:
            return
        rng = np.random.default_rng(0)
        n = len(s_hat)
        s, llm = rng.uniform(0, 1, n), rng.uniform(0, 1, n)
        pw = weights(rng.uniform(0, 1, n))
        a = collaborative_loss_grad(np.asarray(s_hat), s, llm, *pw)[0]
        b = collaborative_loss_grad(np.asarray(s_hat) + c, s, llm, *pw)[0]
        assert a == pytest.approx(b, abs=1e-10)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(3)
        n = 9
        s, llm, s_hat = rng.uniform(0, 1, (3, n))
        pw = weights(rng.uniform(0, 1, n))
        _, grad = collaborative_loss_grad(s_hat, s, llm, *pw)
        h = 1e-6
        for i in (0, 4, 8):
            e = np.zeros(n)
            e[i] = h
            fd = (collaborative_loss_grad(s_hat + e, s, llm, *pw)[0]
                  - collaborative_loss_grad(s_hat - e, s, llm, *pw)[0]) / (2 * h)
            assert abs(fd - grad[i]) / max(abs(fd), 1e-9) < 1e-6

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            collaborative_loss_grad(np.ones(3), np.ones(4), np.ones(3), *weights(np.ones(3)))


class TestMseVariant:
    def test_direct_example(self):
        loss = mse_variant_loss_grad(np.array([0.5]), np.array([1.0]), np.array([0.0]),
                                     *weights(np.array([0.5])))[0]
        assert loss == pytest.approx(0.25)

    def test_zero_at_agreement(self):
        v = np.array([0.3, 0.6, 0.9])
        assert mse_variant_loss_grad(v, v, v, *weights(np.full(3, 0.4)))[0] == pytest.approx(0.0)

    def test_weighted_mean_is_stationary(self):
        rng = np.random.default_rng(4)
        n = 6
        s, llm = rng.uniform(0, 1, (2, n))
        lam = rng.uniform(0, 1, n)
        pw = weights(lam)
        s_hat = lam * s + (1 - lam) * llm
        _, grad = mse_variant_loss_grad(s_hat, s, llm, *pw)
        np.testing.assert_allclose(grad, 0.0, atol=1e-12)


@pytest.fixture(scope="module")
def small_bench():
    return build_benchmark(BenchmarkConfig(length=2000, seed=3, n_contextual=4,
                                           n_point=4, window_len=200))


def small_cfg(seed=0, variant_epochs=25):
    return CollabConfig(colr=0.01, batch_size=200, epochs=variant_epochs, seed=seed,
                        patch_size=2, d=1.0)


class TestTrainCollab:
    def test_deterministic_checkpoints(self, small_bench, tmp_path):
        llm = small_bench.llm_scores_for(small_bench.windows["train"])
        outs = []
        for run in range(2):
            pipeline, _ = train_collab(
                small_bench.windows["train"], small_bench.scorer, llm,
                LossVariant.COLLABORATIVE, small_cfg(seed=5),
            )
            path = tmp_path / f"p{run}.json"
            pipeline.save(path)
            outs.append(path.read_bytes())
        assert outs[0] == outs[1]

    def test_no_alignment_variant_skips_mapping(self, small_bench):
        llm = small_bench.llm_scores_for(small_bench.windows["train"])
        pipeline, curves = train_collab(
            small_bench.windows["train"], small_bench.scorer, llm,
            LossVariant.NO_ALIGNMENT, small_cfg(),
        )
        assert pipeline.mapping is None
        assert curves.kl_aligned == []
        w = small_bench.windows["test"][0]
        out = detect(pipeline, w, small_bench.llm_scores_for([w])[w.window_id()])
        assert len(out) == w.length

    def test_pipeline_roundtrip_bit_exact(self, small_bench, tmp_path):
        llm = small_bench.llm_scores_for(small_bench.windows["train"])
        pipeline, _ = train_collab(
            small_bench.windows["train"], small_bench.scorer, llm,
            LossVariant.COLLABORATIVE, small_cfg(),
        )
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        pipeline.save(p1)
        FusionPipeline.load(p1).save(p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_detect_pure_and_bounded(self, small_bench):
        llm = small_bench.llm_scores_for(small_bench.windows["train"])
        pipeline, _ = train_collab(
            small_bench.windows["train"], small_bench.scorer, llm,
            LossVariant.COLLABORATIVE, small_cfg(),
        )
        w = small_bench.windows["test"][0]
        scores = small_bench.llm_scores_for([w])[w.window_id()]
        out1 = detect(pipeline, w, scores)
        out2 = detect(pipeline, w, scores)
        np.testing.assert_array_equal(out1.scores, out2.scores)
        assert out1.kind is ScoreKind.COLLATED
        assert out1.scores.min() > 0.0 and out1.scores.max() < 1.0

    def test_detect_requires_llm_kind_and_length(self, small_bench):
        llm = small_bench.llm_scores_for(small_bench.windows["train"])
        pipeline, _ = train_collab(
            small_bench.windows["train"], small_bench.scorer, llm,
            LossVariant.COLLABORATIVE, small_cfg(),
        )
        w = small_bench.windows["test"][0]
        with pytest.raises(LengthMismatch):
            detect(pipeline, w, ScoreSeries(np.array([0.5]), ScoreKind.LLM))


class TestCollaborativeTerm:
    @pytest.mark.parametrize("fixed", [False, True])
    def test_precomputed_gradient_equals_per_call(self, small_bench, fixed):
        w = small_bench.windows["train"][0]
        n = 100
        s = small_bench.scorer.score(w)[0].scores[:n] / 3.0
        llm = small_bench.llm_scores_for([w])[w.window_id()].scores[:n]
        pw = (np.ones(n), np.ones(n)) if fixed else weights(
            patch_weights(w, 2).lambda1[:n]
        )
        term = CollaborativeTerm(s, llm, *pw)
        rng = np.random.default_rng(11)
        for _ in range(3):
            s_hat = rng.uniform(0, 1, n)
            loss, grad = term(s_hat)
            for ref in (collaborative_loss_grad, _reference_collaborative_loss_grad):
                ref_loss, ref_grad = ref(s_hat, s, llm, *pw)
                assert loss == ref_loss
                np.testing.assert_array_equal(grad, ref_grad)
            assert loss == pytest.approx(
                collaborative_loss_naive(s_hat, s, llm, *pw), abs=1e-12
            )

    @pytest.mark.parametrize("rows", [(2,), (5,), (3, 2)])
    def test_stacked_rows_match_each_row_alone(self, rows):
        n = 32
        rng = np.random.default_rng(sum(rows))
        s = rng.uniform(0, 1, (*rows, n))
        llm = rng.uniform(0, 1, (*rows, n))
        pw = weights(rng.uniform(0.1, 1.0, n))
        stacked = CollaborativeTerm(s, llm, *pw).grad
        assert stacked.shape == s.shape
        for i in np.ndindex(*rows):
            np.testing.assert_array_equal(stacked[i], CollaborativeTerm(s[i], llm[i], *pw).grad)

    def test_length_mismatch(self):
        term = CollaborativeTerm(np.ones(4), np.ones(4), *weights(np.full(4, 0.5)))
        with pytest.raises(LengthMismatch):
            term(np.ones(3))


class TestTrainCollabMatchesReference:
    """The flat-parameter loop gives bit-identical checkpoints and curves."""

    @pytest.mark.parametrize("variant", list(LossVariant))
    def test_bit_identical(self, small_bench, variant):
        llm = small_bench.llm_scores_for(small_bench.windows["train"])
        cfg = CollabConfig(colr=0.01, batch_size=100, epochs=5, seed=2,
                           patch_size=2, d=1.0)
        echo = {"variant": variant.value}
        new, new_curves = train_collab(
            small_bench.windows["train"], small_bench.scorer, llm, variant, cfg, echo
        )
        ref, ref_curves = _reference_train_collab(
            small_bench.windows["train"], small_bench.scorer, llm, variant, cfg, echo
        )
        assert json.dumps(new.to_dict(), sort_keys=True) == json.dumps(
            ref.to_dict(), sort_keys=True
        )
        for f in dataclasses.fields(TrainingCurves):
            a, b = getattr(new_curves, f.name), getattr(ref_curves, f.name)
            assert a == b, f.name
        assert len(new_curves.alignment_loss) == 5

    def test_parameters_are_views_of_one_vector(self, small_bench):
        llm = small_bench.llm_scores_for(small_bench.windows["train"])
        pipeline, _ = train_collab(
            small_bench.windows["train"], small_bench.scorer, llm,
            LossVariant.COLLABORATIVE, small_cfg(variant_epochs=1),
        )
        arrays = [pipeline.cond.w1, pipeline.cond.b1, pipeline.cond.w2,
                  pipeline.cond.b2, pipeline.mapping.a1, pipeline.mapping.b1,
                  pipeline.mapping.a2, pipeline.mapping.b2]
        base = arrays[0].base
        assert base is not None and base.ndim == 1
        assert all(a.base is base for a in arrays)
        assert base.size == sum(a.size for a in arrays)


class TestConditionalNetMatchesReference:
    """The in-place fusion net, with its leaky ReLU as ``np.maximum``, equals
    the earlier out-of-place ``np.where`` form bit for bit, signed zeros too."""

    @staticmethod
    def assert_matches(net, raw, dout):
        out, cache = net.forward_stacked(raw)
        ref_out, ref_cache = _reference_forward_stacked(net, raw)
        np.testing.assert_array_equal(out, ref_out)
        np.testing.assert_array_equal(cache[2], ref_cache[2])
        np.testing.assert_array_equal(np.signbit(cache[2]), np.signbit(ref_cache[2]))
        dout_before = dout.copy()
        grads, *draw = net.backward(dout, cache)
        ref_grads, *ref_draw = _reference_backward(net, dout, ref_cache)
        np.testing.assert_array_equal(dout, dout_before)
        assert set(grads) == set(ref_grads)
        for name, value in grads.items():
            np.testing.assert_array_equal(value, ref_grads[name])
        for got, want in zip(draw, ref_draw, strict=True):
            np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("n,rep_dim,hidden", [(1, 1, 1), (2, 3, 5), (100, 4, 16)])
    def test_random_inputs(self, n, rep_dim, hidden):
        rng = np.random.default_rng(n + rep_dim + hidden)
        net = ConditionalNetParams(rep_dim, hidden, seed=n)
        net.b1[:] = rng.normal(size=hidden)
        net.b2 = np.array(rng.normal())
        net.set_input_stats(rng.normal(size=2 + rep_dim), rng.uniform(0.1, 2.0, 2 + rep_dim))
        self.assert_matches(net, rng.normal(size=(n, 2 + rep_dim)), rng.normal(size=n))

    def test_pre_activations_at_zero_and_below(self):
        # with an identity first layer, pre is the stacked input exactly; a
        # negative subnormal leaks to -0.0
        net = ConditionalNetParams(rep_dim=4, hidden=6, seed=0)
        net.w1 = np.eye(6)
        row = [0.0, -0.0, -1.5, 2.0, -5e-324, 5e-324]
        raw = np.array([row, row[::-1], [-x for x in row]])
        out, cache = net.forward_stacked(raw)
        np.testing.assert_array_equal(cache[1], raw)
        assert np.signbit(cache[2]).any()
        self.assert_matches(net, raw, np.array([0.3, -2.0, 1e-3]))

    def test_backward_at_signed_zero(self):
        # a matmul never yields -0.0, so hand the backward one directly
        rng = np.random.default_rng(4)
        net = ConditionalNetParams(rep_dim=4, hidden=6, seed=1)
        pre = np.array([[0.0, -0.0, -1.5, 2.0, -5e-324, 5e-324]] * 3)
        h = np.where(pre > 0, pre, 0.01 * pre)
        z, out = rng.normal(size=(3, 6)), rng.uniform(0.01, 0.99, 3)
        dout = rng.normal(size=3)
        grads, *draw = net.backward(dout, (z, pre, h, out))
        ref_grads, *ref_draw = _reference_backward(net, dout, (z, pre, h, None, out))
        for name, value in grads.items():
            np.testing.assert_array_equal(value, ref_grads[name])
        for got, want in zip(draw, ref_draw, strict=True):
            np.testing.assert_array_equal(got, want)


class TestTrainCollabWritesNoSharedInput:
    """A phase-2 step writes in place only into arrays it owns."""

    def test_one_epoch(self, small_bench, monkeypatch):
        terms, stacks, steps = [], [], []

        class RecordingTerm(CollaborativeTerm):
            def __init__(self, *args):
                super().__init__(*args)
                terms.append((self, self.grad.copy(), self.excess.copy()))

        def recording_stack(self, *args):
            out = stack(self, *args)
            stacks.append((out, out.copy()))
            return out

        def recording_step(self, params, grads):
            before = {name: np.array(g, copy=True) for name, g in grads.items()}
            step(self, params, grads)
            steps.append(all(np.array_equal(grads[k], before[k]) for k in grads))

        stack, step = ConditionalNetParams._stack, Adam.step
        monkeypatch.setattr(collab_mod, "CollaborativeTerm", RecordingTerm)
        monkeypatch.setattr(ConditionalNetParams, "_stack", recording_stack)
        monkeypatch.setattr(Adam, "step", recording_step)
        llm = small_bench.llm_scores_for(small_bench.windows["train"])
        train_collab(small_bench.windows["train"], small_bench.scorer, llm,
                     LossVariant.COLLABORATIVE, small_cfg(variant_epochs=1))
        assert terms and stacks and steps
        for term, grad, excess in terms:
            np.testing.assert_array_equal(term.grad, grad)
            np.testing.assert_array_equal(term.excess, excess)
        for live, copy in stacks:
            np.testing.assert_array_equal(live[:, 0], copy[:, 0])
            np.testing.assert_array_equal(live[:, 2:], copy[:, 2:])
        assert all(steps)


# --- Oracle: the phase-2 loop as it was before the flat-parameter rewrite ---
# One Adam entry per named array, patch weights sliced per step, the pairwise
# gradient recomputed per step by the per-call formula, and every window
# scored twice. Training must match it bit for bit.


def _reference_slot_streams(
    windows: list[TimeSeriesWindow],
    scorer,
    llm_scores: dict[str, ScoreSeries],
    divisor: float,
    patch_size: int,
):
    """Per-window (scaled, llm, rep, weights) streams for phase-2 training."""
    streams = []
    for w in windows:
        raw, rep = scorer.score(w)
        scaled = raw.scores / divisor
        pw = patch_weights(w, patch_size)
        streams.append((scaled, llm_scores[w.window_id()].scores, rep, pw))
    return streams


def _reference_collaborative_loss_grad(s_hat, s, llm, lam1, lam2):
    s_hat = np.asarray(s_hat, dtype=np.float64).reshape(-1)
    s = np.asarray(s, dtype=np.float64).reshape(-1)
    llm = np.asarray(llm, dtype=np.float64).reshape(-1)
    n = _check_lengths(s_hat, s, llm, lam1, lam2)
    if n < 2:
        raise ValueError("need at least two slots")
    # sum_ij lam(i,j)(a_i - a_j)(b_i - b_j) = 2 * sum_t b_t * excess_t(a)
    exc1 = _pairwise_weighted_excess(lam1, s, n)
    exc2 = _pairwise_weighted_excess(lam2, llm, n)
    loss = -(2.0 / n**2) * float(s_hat @ (exc1 + exc2))
    grad = -(2.0 / n**2) * (exc1 + exc2)
    return loss, grad


def _reference_pairwise_grad(variant, s_hat, scaled, llm, lam1, lam2):
    if variant in (LossVariant.COLLABORATIVE, LossVariant.NO_ALIGNMENT):
        return _reference_collaborative_loss_grad(s_hat, scaled, llm, lam1, lam2)
    if variant is LossVariant.FIXED_WEIGHTS:
        ones = np.full(len(s_hat), 1.0)
        return _reference_collaborative_loss_grad(s_hat, scaled, llm, ones, ones)
    if variant is LossVariant.MSE_VARIANT:
        return mse_variant_loss_grad(s_hat, scaled, llm, lam1, lam2)
    raise ValueError(f"unknown variant {variant}")


def _reference_train_collab(
    windows: list[TimeSeriesWindow],
    scorer,
    llm_scores: dict[str, ScoreSeries],
    variant: LossVariant,
    cfg: CollabConfig,
    config_echo: dict | None = None,
) -> tuple[FusionPipeline, TrainingCurves]:
    """Joint minibatch SGD over the monotone mapping and the fusion network.

    The scorer stays frozen. Batches are contiguous blocks of ``batch_size``
    slots inside one window, so the pairwise terms see both near and far slots;
    block order is reshuffled each epoch under the run seed. The NO_ALIGNMENT
    variant feeds scaled scores straight into the network and skips both the
    mapping and the alignment term.
    """
    if not windows:
        raise ValueError("no training windows")
    raws = [scorer.score(w)[0].scores for w in windows]
    divisor = score_range_divisor(np.concatenate(raws), cfg.d)
    streams = _reference_slot_streams(windows, scorer, llm_scores, divisor, cfg.patch_size)

    all_llm = np.concatenate([st[1] for st in streams])
    fit = align_mod.fit_half_gaussian(all_llm)
    acfg = align_mod.AlignmentConfig(cfg.lambda_hat_1, cfg.lambda_hat_2)

    use_mapping = variant is not LossVariant.NO_ALIGNMENT
    mapping = MonotoneMapping(cfg.mapping_hidden, seed=cfg.seed) if use_mapping else None
    rep_dim = streams[0][2].shape[1]
    cond = ConditionalNetParams(rep_dim, hidden=cfg.cond_hidden, seed=cfg.seed + 1)

    blocks = []
    for wi, (scaled, _, _, _) in enumerate(streams):
        for start in range(0, len(scaled), cfg.batch_size):
            stop = min(start + cfg.batch_size, len(scaled))
            if stop - start >= 2:
                blocks.append((wi, start, stop))

    all_scaled = np.concatenate([st[0] for st in streams])
    curves = TrainingCurves()
    curves.kl_raw = align_mod.kl_histogram(all_scaled, fit, bins=50)

    # Adam keeps the two loss terms trainable together: the pairwise term's
    # 1/n^2 scale is orders of magnitude below the alignment term's per-slot
    # log-density gradients, so raw SGD would starve the fusion net.
    opt = Adam(cfg.colr)
    cond_params = {"w1": cond.w1, "b1": cond.b1, "w2": cond.w2}
    b2_box = np.array([cond.b2])

    all_llm_flat = np.concatenate([st[1] for st in streams])
    all_rep = np.concatenate([st[2] for st in streams])

    def refresh_input_stats():
        mapped_all = mapping(all_scaled) if use_mapping else all_scaled
        stacked = np.concatenate(
            [all_llm_flat[:, None], mapped_all[:, None], all_rep], axis=1
        )
        cond.set_input_stats(stacked.mean(axis=0), stacked.std(axis=0))

    rng = np.random.default_rng(cfg.seed)
    for _epoch in range(cfg.epochs):
        # the mapping reshapes its output distribution as it trains, so the
        # standardization constants track it once per epoch
        refresh_input_stats()
        order = rng.permutation(len(blocks))
        ep_align = 0.0
        ep_pair = 0.0
        for bi in order:
            wi, start, stop = blocks[bi]
            scaled, llm, rep, pw = streams[wi]
            sb = scaled[start:stop]
            lb = llm[start:stop]
            rb = rep[start:stop]
            if use_mapping:
                mapped, mcache = mapping.forward(sb)
            else:
                mapped = sb
            s_hat, ccache = cond.forward(lb, mapped, rb)
            pair_loss, ds_hat = _reference_pairwise_grad(
                variant, s_hat, sb, lb, pw.lambda1[start:stop], pw.lambda2[start:stop]
            )
            cgrads, _dllm, dmapped, _drep = cond.backward(ds_hat, ccache)
            params = dict(cond_params)
            b2_box[0] = cond.b2
            params["b2"] = b2_box
            cgrads["b2"] = np.array([cgrads["b2"]])
            grads = cgrads
            if use_mapping:
                a_loss, da_mapped = align_mod.alignment_loss_grad(mapped, fit, acfg)
                mgrads = mapping.backward(dmapped + da_mapped, mcache)
                params.update(
                    {"m_a1": mapping.a1, "m_b1": mapping.b1, "m_a2": mapping.a2}
                )
                mb2_box = np.array([mapping.b2])
                params["m_b2"] = mb2_box
                grads.update(
                    {
                        "m_a1": mgrads["a1"],
                        "m_b1": mgrads["b1"],
                        "m_a2": mgrads["a2"],
                        "m_b2": np.array([mgrads["b2"]]),
                    }
                )
            else:
                a_loss = 0.0
            opt.step(params, grads)
            cond.b2 = float(b2_box[0])
            if use_mapping:
                mapping.b2 = float(mb2_box[0])
            if not (np.isfinite(pair_loss) and np.isfinite(a_loss)):
                raise NonConvergence("phase-2 loss became non-finite")
            ep_align += a_loss
            ep_pair += pair_loss
        curves.alignment_loss.append(ep_align / len(blocks))
        curves.pairwise_loss.append(ep_pair / len(blocks))
        if use_mapping:
            curves.kl_aligned.append(
                align_mod.kl_histogram(mapping(all_scaled), fit, bins=50)
            )

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


# --- Oracle: the fusion net's passes before the in-place rewrite ---


def _reference_forward_stacked(net, raw):
    z = (raw - net.in_mean) / net.in_std
    pre = z @ net.w1 + net.b1
    h = np.where(pre > 0, pre, 0.01 * pre)
    logits = h @ net.w2 + net.b2
    out = sigmoid(logits)
    return out, (z, pre, h, logits, out)


def _reference_backward(net, dout, cache):
    z, pre, h, logits, out = cache
    dlogits = dout * out * (1.0 - out)
    dw2 = h.T @ dlogits
    db2 = float(dlogits.sum())
    dh = np.outer(dlogits, net.w2)
    dpre = dh * np.where(pre > 0, 1.0, 0.01)
    dw1 = z.T @ dpre
    db1 = dpre.sum(axis=0)
    draw = (dpre @ net.w1.T) / net.in_std
    grads = {"w1": dw1, "b1": db1, "w2": dw2, "b2": db2}
    return grads, draw[:, 0], draw[:, 1], draw[:, 2:]
