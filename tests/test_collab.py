import dataclasses
import json
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from collate import alignment as align_mod
from collate import collab as collab_mod
from collate.alignment import MonotoneMapping
from collate.benchmark import BenchmarkConfig, build_benchmark, run_ablation
from collate.cli import RunConfig
from collate.collab import (
    _check_lengths,
    _pairwise_weighted_excess,
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
    TimeSeriesWindow,
    patch_weights,
    score_range_divisor,
)
from collate.errors import LengthMismatch, NonConvergence, NonFiniteInput, WindowTooShort
from collate.evaluate import per_kind_metrics
from collate.optim import Adam
from test_alignment import _reference_alignment_loss_grad
from test_core import _reference_sigmoid
from test_optim import _reference_adam_step


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
        grads, dal = net.backward(probe, cache)
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


def small_cfg(seed=0, variant_epochs=25, variant=LossVariant.COLLABORATIVE):
    return RunConfig(colr=0.01, batchSize=200, epochs_collab=variant_epochs, seed=seed,
                     patchSize=2, d=1.0, loss_variant=variant.value)


MAPPING_VARIANTS = [v for v in LossVariant if v is not LossVariant.NO_ALIGNMENT]


def train_alone(windows, scorer, llm_scores, cfg):
    """``train_collab`` on a stack of one run: its pipeline and curves."""
    ((pipeline, curves),) = train_collab(windows, scorer, llm_scores, cfg,
                                         [LossVariant(cfg.loss_variant)])
    return pipeline, curves


class TestTrainCollab:
    def test_deterministic_checkpoints(self, small_bench, tmp_path):
        llm = small_bench.llm_scores_for(small_bench.windows["train"])
        outs = []
        for run in range(2):
            pipeline, _ = train_alone(
                small_bench.windows["train"], small_bench.scorer, llm, small_cfg(seed=5),
            )
            path = tmp_path / f"p{run}.json"
            pipeline.save(path)
            outs.append(path.read_bytes())
        assert outs[0] == outs[1]

    def test_pipeline_echoes_the_run_config(self, small_bench, tmp_path):
        llm = small_bench.llm_scores_for(small_bench.windows["train"])
        for variant in LossVariant:
            cfg = small_cfg(seed=4, variant_epochs=1, variant=variant)
            pipeline, _ = train_alone(small_bench.windows["train"], small_bench.scorer, llm,
                                      cfg)
            assert pipeline.config_echo == dataclasses.asdict(cfg)
            path = tmp_path / f"{variant.value}.json"
            pipeline.save(path)
            assert FusionPipeline.load(path).config_echo == dataclasses.asdict(cfg)
            # the checkpoint's d, patch_size and variant are the echo's
            saved = json.loads(path.read_text())
            echo = saved["config_echo"]
            assert (saved["d"], saved["patch_size"], saved["variant"]) == (
                echo["d"], echo["patchSize"], echo["loss_variant"]), variant
            assert saved["variant"] == variant.value

    def test_window_shorter_than_patch_is_left_out(self, small_bench):
        train = small_bench.windows["train"]
        # the val part's first slot, as a window of its own
        start = train[-1].start_index + train[-1].length
        short = TimeSeriesWindow(small_bench.series.values[start : start + 1], start_index=start)
        llm = small_bench.llm_scores_for([*train, short])
        cfg = small_cfg(variant_epochs=2)
        without, without_curves = train_alone(train, small_bench.scorer, llm, cfg)
        pipeline, curves = train_alone([*train, short], small_bench.scorer, llm, cfg)
        assert pipeline.to_dict() == without.to_dict()
        assert curves == without_curves
        with pytest.raises(WindowTooShort, match="patchSize=2"):
            train_alone([short], small_bench.scorer, llm, cfg)

    def test_no_alignment_variant_skips_mapping(self, small_bench):
        llm = small_bench.llm_scores_for(small_bench.windows["train"])
        pipeline, curves = train_alone(
            small_bench.windows["train"], small_bench.scorer, llm,
            small_cfg(variant=LossVariant.NO_ALIGNMENT),
        )
        assert pipeline.mapping is None
        assert curves.kl_aligned == []
        w = small_bench.windows["test"][0]
        out = detect(pipeline, w, small_bench.llm_scores_for([w])[w.window_id()])
        assert len(out) == w.length

    def test_pipeline_roundtrip_bit_exact(self, small_bench, tmp_path):
        llm = small_bench.llm_scores_for(small_bench.windows["train"])
        pipeline, _ = train_alone(
            small_bench.windows["train"], small_bench.scorer, llm, small_cfg(),
        )
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        pipeline.save(p1)
        FusionPipeline.load(p1).save(p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_detect_pure_and_bounded(self, small_bench):
        llm = small_bench.llm_scores_for(small_bench.windows["train"])
        pipeline, _ = train_alone(
            small_bench.windows["train"], small_bench.scorer, llm, small_cfg(),
        )
        w = small_bench.windows["test"][0]
        scores = small_bench.llm_scores_for([w])[w.window_id()]
        out1 = detect(pipeline, w, scores)
        out2 = detect(pipeline, w, scores)
        np.testing.assert_array_equal(out1, out2)
        assert out1.min() > 0.0 and out1.max() < 1.0

    def test_detect_requires_llm_length(self, small_bench):
        llm = small_bench.llm_scores_for(small_bench.windows["train"])
        pipeline, _ = train_alone(
            small_bench.windows["train"], small_bench.scorer, llm, small_cfg(),
        )
        w = small_bench.windows["test"][0]
        with pytest.raises(LengthMismatch):
            detect(pipeline, w, np.array([0.5]))

    def test_detect_rejects_scores_that_are_not_finite(self, small_bench):
        # loading rejects a NaN weight, so only an in-memory pipeline holds one
        llm = small_bench.llm_scores_for(small_bench.windows["train"])
        pipeline, _ = train_alone(small_bench.windows["train"], small_bench.scorer, llm,
                                  small_cfg(variant_epochs=1))
        pipeline.cond.b2 = np.nan
        w = small_bench.windows["test"][0]
        with pytest.raises(NonFiniteInput, match=(
            f"^collated scores for window {re.escape(repr(w.window_id()))} are not finite$"
        )):
            detect(pipeline, w, small_bench.llm_scores_for([w])[w.window_id()])


class TestRunAblation:
    def test_single_model_rows_score_the_test_split(self, small_bench):
        rows = run_ablation(small_bench, small_cfg(variant_epochs=1))
        assert list(rows) == ["tsadm_only", "llm_only", *(v.value for v in LossVariant)]
        test = small_bench.test
        lo, hi = test.start_index, test.start_index + test.length
        assert rows["tsadm_only"] == per_kind_metrics(small_bench.scorer.raw[lo:hi], test.spans)
        assert rows["llm_only"] == per_kind_metrics(small_bench.llm_by_slot[lo:hi], test.spans)


class TestCollaborativeTerm:
    @pytest.mark.parametrize("fixed", [False, True])
    def test_precomputed_gradient_equals_per_call(self, small_bench, fixed):
        w = small_bench.windows["train"][0]
        n = 100
        s = small_bench.scorer.score(w)[0][:n] / 3.0
        llm = small_bench.llm_scores_for([w])[w.window_id()][:n]
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


def assert_same_checkpoint(new, ref):
    """Two pipelines' checkpoints have the same JSON, compared field by field
    and naming the first field that differs: pytest's diff of the two whole
    checkpoint strings takes minutes to print."""
    new_state, ref_state = new.to_dict(), ref.to_dict()
    assert new_state.keys() == ref_state.keys()
    for key, value in new_state.items():
        want = ref_state[key]
        if isinstance(value, dict):
            assert value.keys() == want.keys(), key
            pairs = [(f"{key}.{name}", got, want[name]) for name, got in value.items()]
        else:
            pairs = [(key, value, want)]
        for label, got, expected in pairs:
            if json.dumps(got) != json.dumps(expected):
                np.testing.assert_array_equal(got, expected, err_msg=label)
                pytest.fail(f"{label}: the values differ only in the sign of a zero")


class TestTrainCollabMatchesReference:
    """The flat-parameter loop gives bit-identical checkpoints and curves."""

    @pytest.mark.parametrize("variant", list(LossVariant))
    def test_bit_identical(self, small_bench, variant):
        # the benchmark's 200-slot train windows; windows of 200, 200, 129
        # and 1 slots in 64-slot blocks: a ragged block, a skipped 1-slot
        # block, and a window shorter than patchSize; and slots 0-529, which
        # hold no anomaly, so the LLM's fit is too narrow for the untrained
        # mapping's outputs to have a positive density in float64
        values = small_bench.series.values
        ragged = [TimeSeriesWindow(values[a:b], start_index=a)
                  for a, b in [(200, 400), (400, 600), (600, 729), (729, 730)]]
        noise = [TimeSeriesWindow(values[a:b], start_index=a)
                 for a, b in [(0, 200), (200, 400), (400, 530)]]
        for windows, batch in [(small_bench.windows["train"], 100), (ragged, 64),
                               (noise, 100)]:
            llm = small_bench.llm_scores_for(windows)
            cfg = RunConfig(colr=0.01, batchSize=batch, epochs_collab=5, seed=2,
                            patchSize=2, d=1.0, loss_variant=variant.value)
            new, new_curves = train_alone(windows, small_bench.scorer, llm, cfg)
            ref, ref_curves = _reference_train_collab(windows, small_bench.scorer, llm, cfg)
            assert_same_checkpoint(new, ref)
            for f in dataclasses.fields(TrainingCurves):
                a, b = getattr(new_curves, f.name), getattr(ref_curves, f.name)
                assert a == b, f.name
            assert len(new_curves.alignment_loss) == 5

    def test_parameters_are_views_of_one_array(self, small_bench):
        # one (runs, P) array holds every run's parameters, a row per run
        llm = small_bench.llm_scores_for(small_bench.windows["train"])
        trained = train_collab(small_bench.windows["train"], small_bench.scorer, llm,
                               small_cfg(variant_epochs=1), MAPPING_VARIANTS)
        for run, (pipeline, _) in enumerate(trained):
            arrays = [pipeline.cond.w1, pipeline.cond.b1, pipeline.cond.w2,
                      pipeline.cond.b2, pipeline.mapping.a1, pipeline.mapping.b1,
                      pipeline.mapping.a2, pipeline.mapping.b2]
            base = arrays[0].base
            assert base is not None and base.shape == (3, sum(a.size for a in arrays))
            assert base.flags.c_contiguous
            assert all(a.base is base for a in arrays)
            for other in range(3):
                assert all(np.shares_memory(a, base[other]) == (other == run) for a in arrays)

    def test_a_stack_of_one_has_no_run_axis(self, small_bench, monkeypatch):
        # a lone run trains on arrays of its own shapes, views of one vector,
        # so its passes make a lone run's calls
        seen = []
        forward_stacked = ConditionalNetParams.forward_stacked

        def recording(net, z):
            out, cache = forward_stacked(net, z)
            seen.append((net.w1.shape, net.b2.shape, net.in_mean.shape, z.ndim, out.ndim))
            return out, cache

        monkeypatch.setattr(ConditionalNetParams, "forward_stacked", recording)
        llm = small_bench.llm_scores_for(small_bench.windows["train"])
        pipeline, _ = train_alone(small_bench.windows["train"], small_bench.scorer, llm,
                                  small_cfg(variant_epochs=1))
        k = 2 + pipeline.cond.rep_dim
        assert seen and set(seen) == {((k, 16), (), (k,), 2, 1)}
        arrays = [pipeline.cond.w1, pipeline.cond.b1, pipeline.cond.w2, pipeline.cond.b2,
                  pipeline.mapping.a1, pipeline.mapping.b1, pipeline.mapping.a2,
                  pipeline.mapping.b2]
        base = arrays[0].base
        assert base is not None and base.shape == (sum(a.size for a in arrays),)
        assert all(a.base is base for a in arrays)


class TestTrainCollabStack:
    """Runs trained in lockstep get, bit for bit, the checkpoint and curves
    each gets in a stack of its own; a stack whose runs cannot share one
    loop is rejected before any window is scored."""

    @pytest.mark.parametrize("hidden", [1, None], ids=["hidden-1", "default-widths"])
    def test_lockstep_equals_separate_runs(self, small_bench, hidden):
        # the benchmark's train windows in 100-slot blocks; and windows of
        # 200, 200, 129 and 1 slots in 64-slot blocks: a ragged block, a
        # skipped 1-slot block, and a window shorter than patchSize.
        # Hidden width 1 takes column_sums' one-column reduce.
        values = small_bench.series.values
        ragged = [TimeSeriesWindow(values[a:b], start_index=a)
                  for a, b in [(200, 400), (400, 600), (600, 729), (729, 730)]]
        widths = {} if hidden is None else {"mapping_hidden": hidden, "cond_hidden": hidden}
        for windows, batch in [(small_bench.windows["train"], 100), (ragged, 64)]:
            llm = small_bench.llm_scores_for(windows)
            base = RunConfig(colr=0.01, batchSize=batch, epochs_collab=5, seed=2, patchSize=2,
                             d=1.0, **widths)
            cfgs = [dataclasses.replace(base, loss_variant=v.value) for v in MAPPING_VARIANTS]
            stacked = train_collab(windows, small_bench.scorer, llm, base, MAPPING_VARIANTS)
            assert len(stacked) == 3
            for cfg, (pipeline, curves) in zip(cfgs, stacked):
                alone, alone_curves = train_alone(windows, small_bench.scorer, llm, cfg)
                assert pipeline.config_echo == dataclasses.asdict(cfg)
                same = (json.dumps(pipeline.to_dict(), sort_keys=True)
                        == json.dumps(alone.to_dict(), sort_keys=True))
                assert same, cfg.loss_variant
                for f in dataclasses.fields(TrainingCurves):
                    assert getattr(curves, f.name) == getattr(alone_curves, f.name), (
                        cfg.loss_variant, f.name)

    class NoScorer:
        def score(self, window):
            raise AssertionError("a window was scored")

    def test_no_alignment_beside_a_mapping_variant_is_rejected(self, small_bench):
        variants = [LossVariant.COLLABORATIVE, LossVariant.NO_ALIGNMENT]
        with pytest.raises(ValueError, match="^the runs of a stack cannot mix loss_variant "
                                             "no_alignment with a mapping variant$"):
            train_collab(small_bench.windows["train"], self.NoScorer(), {}, small_cfg(),
                         variants)

    def test_an_empty_stack_is_rejected(self, small_bench):
        with pytest.raises(ValueError, match="^a stack of runs needs at least one loss variant$"):
            train_collab(small_bench.windows["train"], self.NoScorer(), {}, small_cfg(), [])

    def test_a_stack_of_one_variant_twice_trains_it_twice(self, small_bench):
        llm = small_bench.llm_scores_for(small_bench.windows["train"])
        cfg = small_cfg(variant_epochs=2)
        (a, a_curves), (b, b_curves) = train_collab(small_bench.windows["train"],
                                                    small_bench.scorer, llm, cfg,
                                                    [LossVariant.COLLABORATIVE] * 2)
        assert a.to_dict() == b.to_dict() and a_curves == b_curves


class TestTrainCollabChecksEachStep:
    """Each step adds its alignment loss to the epoch's total: a step whose
    loss is not finite raises there, before that epoch's curves go in."""

    @staticmethod
    def recording_curves(monkeypatch):
        made = []

        class RecordingCurves(TrainingCurves):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                made.append(self)

        monkeypatch.setattr(collab_mod, "TrainingCurves", RecordingCurves)
        return made

    def test_all_noise_windows_train_with_finite_curves(self, small_bench):
        # slots 0-529 hold no anomaly: there the LLM fit has sigma 0.0050,
        # and the untrained map puts every slot at 0.90-0.92, where the
        # target density underflows to zero but its log does not
        values = small_bench.series.values
        windows = [TimeSeriesWindow(values[a:b], start_index=a)
                   for a, b in [(0, 200), (200, 400), (400, 530)]]
        llm = small_bench.llm_scores_for(windows)
        cfg = small_cfg(variant_epochs=25)
        pipeline, curves = train_alone(windows, small_bench.scorer, llm, cfg)
        assert pipeline.fit.sigma < 0.0051
        assert curves.blocks == 3 and curves.steps == 75
        for name in ("alignment_loss", "pairwise_loss", "kl_aligned"):
            curve = getattr(curves, name)
            assert len(curve) == 25 and np.isfinite(curve).all(), name
        # far out in the tail, the alignment term pulls the mapped scores in
        assert curves.alignment_loss[-1] < curves.alignment_loss[0] / 10
        assert np.isfinite(detect(pipeline, windows[0], llm[windows[0].window_id()])).all()

    def test_nan_injected_in_the_second_epoch(self, small_bench, monkeypatch):
        windows = small_bench.windows["train"]
        llm = small_bench.llm_scores_for(windows)
        cfg = small_cfg(variant_epochs=3)
        forward, block_calls = MonotoneMapping.forward, []

        def nan_in_one_block(self, s):
            mapped, cache = forward(self, s)
            if s.size <= cfg.batchSize:
                block_calls.append(s.size)
                if len(block_calls) == len(windows) + 2:
                    mapped = mapped.copy()
                    mapped[..., 3] = np.nan
            return mapped, cache

        monkeypatch.setattr(MonotoneMapping, "forward", nan_in_one_block)
        made = self.recording_curves(monkeypatch)
        with pytest.raises(NonConvergence, match="^phase-2 loss became non-finite$"):
            train_alone(windows, small_bench.scorer, llm, cfg)
        (curves,) = made
        assert curves.steps == len(windows) + 1
        assert len(curves.alignment_loss) == len(curves.pairwise_loss) == 1


class TestConditionalNetMatchesReference:
    """The in-place fusion net, with its leaky ReLU as ``np.maximum``, equals
    the earlier out-of-place ``np.where`` form bit for bit, signed zeros too."""

    @staticmethod
    def assert_matches(net, raw, dout):
        out, cache = net.forward_stacked(net.standardize(raw))
        ref_out, ref_cache = _reference_forward_stacked(net, raw)
        np.testing.assert_array_equal(out, ref_out)
        np.testing.assert_array_equal(cache[2], ref_cache[2])
        np.testing.assert_array_equal(np.signbit(cache[2]), np.signbit(ref_cache[2]))
        dout_before = dout.copy()
        grads, daligned = net.backward(dout, cache)
        ref_grads, ref_daligned = _reference_backward(net, dout, ref_cache)
        np.testing.assert_array_equal(dout, dout_before)
        assert set(grads) == set(ref_grads)
        for name, value in grads.items():
            np.testing.assert_array_equal(value, ref_grads[name])
        np.testing.assert_array_equal(daligned, ref_daligned)
        # into given arrays, as training's gradient views take them
        given = {name: np.full(np.shape(value), np.nan) for name, value in grads.items()}
        assert net.backward(dout, cache, given)[0] is given
        for name, value in given.items():
            np.testing.assert_array_equal(value, ref_grads[name])

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
        grads, daligned = net.backward(dout, (z, pre, h, out))
        ref_grads, ref_daligned = _reference_backward(net, dout, (z, pre, h, None, out))
        for name, value in grads.items():
            np.testing.assert_array_equal(value, ref_grads[name])
        np.testing.assert_array_equal(daligned, ref_daligned)


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

        def recording_step(self, theta, grad):
            before = grad.copy()
            step(self, theta, grad)
            steps.append(np.array_equal(grad, before))

        stack, step = ConditionalNetParams._stack, Adam.step
        monkeypatch.setattr(collab_mod, "CollaborativeTerm", RecordingTerm)
        monkeypatch.setattr(ConditionalNetParams, "_stack", recording_stack)
        monkeypatch.setattr(Adam, "step", recording_step)
        llm = small_bench.llm_scores_for(small_bench.windows["train"])
        train_collab(small_bench.windows["train"], small_bench.scorer, llm,
                     small_cfg(variant_epochs=1), MAPPING_VARIANTS)
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
    llm_scores: dict[str, np.ndarray],
    divisor: float,
    patch_size: int,
):
    """Per-window (scaled, llm, rep, weights) streams for phase-2 training."""
    streams = []
    for w in windows:
        raw, rep = scorer.score(w)
        scaled = raw / divisor
        pw = patch_weights(w, patch_size)
        streams.append((scaled, llm_scores[w.window_id()], rep, pw))
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
    llm_scores: dict[str, np.ndarray],
    cfg: RunConfig,
) -> tuple[FusionPipeline, TrainingCurves]:
    """Joint minibatch SGD over the monotone mapping and the fusion network.

    The scorer stays frozen. Batches are contiguous blocks of ``batchSize``
    slots inside one window, so the pairwise terms see both near and far slots;
    block order is reshuffled each epoch under the run seed. The NO_ALIGNMENT
    variant feeds scaled scores straight into the network and skips both the
    mapping and the alignment term. A window shorter than ``patchSize`` is
    left out.
    """
    windows = [w for w in windows if w.length >= cfg.patchSize]
    if not windows:
        raise ValueError("no training windows")
    raws = [scorer.score(w)[0] for w in windows]
    divisor = score_range_divisor(np.concatenate(raws), cfg.d)
    streams = _reference_slot_streams(windows, scorer, llm_scores, divisor, cfg.patchSize)

    all_llm = np.concatenate([st[1] for st in streams])
    fit = align_mod.fit_half_gaussian(all_llm)

    variant = LossVariant(cfg.loss_variant)
    use_mapping = variant is not LossVariant.NO_ALIGNMENT
    mapping = MonotoneMapping(cfg.mapping_hidden, seed=cfg.seed) if use_mapping else None
    rep_dim = streams[0][2].shape[1]
    cond = ConditionalNetParams(rep_dim, hidden=cfg.cond_hidden, seed=cfg.seed + 1)

    blocks = []
    for wi, (scaled, _, _, _) in enumerate(streams):
        for start in range(0, len(scaled), cfg.batchSize):
            stop = min(start + cfg.batchSize, len(scaled))
            if stop - start >= 2:
                blocks.append((wi, start, stop))

    all_scaled = np.concatenate([st[0] for st in streams])
    curves = TrainingCurves(blocks=len(blocks))
    curves.kl_raw = align_mod.kl_histogram(all_scaled, fit, bins=50)

    # Adam keeps the two loss terms trainable together: the pairwise term's
    # 1/n^2 scale is orders of magnitude below the alignment term's per-slot
    # log-density gradients, so raw SGD would starve the fusion net.
    m, v, t = {}, {}, 0
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
    for _epoch in range(cfg.epochs_collab):
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
            cgrads, dmapped = cond.backward(ds_hat, ccache)
            params = dict(cond_params)
            b2_box[0] = cond.b2
            params["b2"] = b2_box
            cgrads["b2"] = np.array([cgrads["b2"]])
            grads = cgrads
            if use_mapping:
                a_loss, da_mapped = _reference_alignment_loss_grad(mapped, fit, cfg.lambda_hat)
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
            t += 1
            _reference_adam_step(params, grads, m, v, t, cfg.colr)
            cond.b2 = float(b2_box[0])
            if use_mapping:
                mapping.b2 = float(mb2_box[0])
            if not (np.isfinite(pair_loss) and np.isfinite(a_loss)):
                raise NonConvergence("phase-2 loss became non-finite")
            ep_align += a_loss
            ep_pair += pair_loss
            curves.steps += 1
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
        score_divisor=divisor,
        fit=fit,
        config_echo=dataclasses.asdict(cfg),
    )
    return pipeline, curves


# --- Oracle: the fusion net's passes before the in-place rewrite ---


def _reference_forward_stacked(net, raw):
    z = (raw - net.in_mean) / net.in_std
    pre = z @ net.w1 + net.b1
    h = np.where(pre > 0, pre, 0.01 * pre)
    logits = h @ net.w2 + net.b2
    out = _reference_sigmoid(logits)
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
    return grads, draw[:, 1]
