import dataclasses
import json

import numpy as np
import pytest

from collate.alignment import MonotoneMapping
from collate.cli import RunConfig
from collate.collab import ConditionalNetParams
from collate.optim import BETA1, BETA2, EPS, Adam, FlatParams
from collate.tsadm import AttentionLayerParams, TsadmModel


def flat(arrays):
    """The arrays of a name -> array dict, laid end to end."""
    return np.concatenate([a.reshape(-1) for a in arrays.values()])


class TestAdamMatchesReference:
    """Adam on one flat vector equals the per-array out-of-place step bit for
    bit, on the parameters and on both moments, and never writes a gradient."""

    def test_sixty_steps_with_a_0d_parameter(self):
        rng = np.random.default_rng(0)
        params = {"w": rng.normal(size=(3, 4)), "b": rng.normal(size=5), "c": np.array(0.7)}
        theta = flat(params)
        opt = Adam(0.01, theta.size)
        ref_m, ref_v = {}, {}
        for t in range(1, 61):
            # spread the gradients' scales so vhat spans many binades
            grads = {name: rng.normal(size=value.shape) * 10.0 ** rng.integers(-6, 3)
                     for name, value in params.items()}
            grad = flat(grads)
            before = grad.copy()
            opt.step(theta, grad)
            _reference_adam_step(params, grads, ref_m, ref_v, t, 0.01)
            np.testing.assert_array_equal(grad, before)
            np.testing.assert_array_equal(theta, flat(params))
            np.testing.assert_array_equal(opt.m, flat(ref_m))
            np.testing.assert_array_equal(opt.v, flat(ref_v))
        assert opt.t == 60
        assert params["c"].shape == ()


def _reference_adam_step(params, grads, m, v, t, lr):
    """One Adam step on each named array, with new moment arrays per step."""
    for name, g in grads.items():
        g = np.asarray(g, dtype=np.float64)
        if name not in m:
            m[name] = np.zeros_like(g)
            v[name] = np.zeros_like(g)
        m[name] = BETA1 * m[name] + (1 - BETA1) * g
        v[name] = BETA2 * v[name] + (1 - BETA2) * g**2
        mhat = m[name] / (1 - BETA1**t)
        vhat = v[name] / (1 - BETA2**t)
        params[name] -= lr * mhat / (np.sqrt(vhat) + EPS)


def _small_detector() -> TsadmModel:
    """An untrained two-channel detector with two layers."""
    cfg = dataclasses.replace(RunConfig().tsadm_config(), moduleNum=2, kLen=3, embed=3, seed=3)
    return TsadmModel(2, cfg)


def _instances(name):
    """A fresh instance of the class ``name``, its serialised state, the keys
    the checkpoint writes besides the instance's arrays and floats, and the
    instance the checkpoint loads back."""
    if name == "ConditionalNetParams":
        net = ConditionalNetParams(3, hidden=5, seed=1)
        return net, net.to_dict(), set(), ConditionalNetParams.from_dict(net.to_dict())
    if name == "MonotoneMapping":
        mapping = MonotoneMapping(hidden=4, seed=2)
        return mapping, mapping.to_dict(), {"hidden"}, MonotoneMapping.from_dict(mapping.to_dict())
    model = _small_detector()
    state = model.to_dict()
    loaded = TsadmModel.from_dict(json.loads(json.dumps(state)))
    if name == "TsadmModel":
        return model, state, {"version", "config", "dims", "layers"}, loaded
    return model.layers[1], state["layers"][1], set(), loaded.layers[1]


@pytest.mark.parametrize(
    "name", ["ConditionalNetParams", "MonotoneMapping", "TsadmModel", "AttentionLayerParams"]
)
class TestParamsNameEveryArray:
    """Each model class names its trainable arrays once, in ``PARAMS``; the
    checkpoint and the optimiser's layout both follow that list."""

    def test_state_holds_every_array_and_float(self, name):
        obj, state, extras, _ = _instances(name)
        numeric = {k for k, v in vars(obj).items() if isinstance(v, (np.ndarray, float))}
        assert set(type(obj).PARAMS) <= numeric
        assert set(state) == numeric | extras
        assert json.loads(json.dumps(state)) == state

    def test_load_keeps_each_type(self, name):
        obj, _, _, loaded = _instances(name)
        for key, value in vars(obj).items():
            if isinstance(value, (np.ndarray, float)):
                assert type(getattr(loaded, key)) is type(value), key
                assert np.asarray(getattr(loaded, key)).dtype == np.float64, key
                np.testing.assert_array_equal(getattr(loaded, key), value)

    def test_flat_layout_is_the_state_in_params_order(self, name):
        obj, state, _, _ = _instances(name)
        expected = np.concatenate([np.ravel(state[key]) for key in type(obj).PARAMS])
        np.testing.assert_array_equal(FlatParams([obj]).theta, expected)


# each reader: the name its errors give, the arrays it reads, a checkpoint,
# the key path of the reader's state in it, and the checkpoint's loader
_READERS = {
    "cond": (ConditionalNetParams.STATE, lambda: ConditionalNetParams(3, hidden=5, seed=1),
             [], ConditionalNetParams.from_dict),
    "mapping": (MonotoneMapping.PARAMS, lambda: MonotoneMapping(hidden=4, seed=2),
                [], MonotoneMapping.from_dict),
    "detector": (TsadmModel.PARAMS, _small_detector, [], TsadmModel.from_dict),
    "layer": (AttentionLayerParams.PARAMS, _small_detector, ["layers", 1], TsadmModel.from_dict),
}


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("what, array", [(what, array) for what, (arrays, *_) in _READERS.items()
                                         for array in arrays])
def test_a_non_finite_entry_names_its_array(what, array, bad):
    """Every array each checkpoint reader reads is checked for finiteness:
    one bad entry, the last, raises ValueError naming the reader and array."""
    _, build, path, from_dict = _READERS[what]
    checkpoint = build().to_dict()
    state = checkpoint
    for key in path:
        state = state[key]
    value = np.array(state[array], dtype=np.float64)
    value.reshape(-1)[-1] = bad
    state[array] = value.tolist()
    with pytest.raises(ValueError, match=rf"^{what}\.{array} is not finite$"):
        from_dict(json.loads(json.dumps(checkpoint)))
