import numpy as np

from collate.optim import BETA1, BETA2, EPS, Adam


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
