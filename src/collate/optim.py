"""Minimal optimizers over named parameter arrays (scalars allowed)."""
from __future__ import annotations

import numpy as np

BETA1, BETA2, EPS = 0.9, 0.999, 1e-8


class Adam:
    """Standard Adam; state is keyed by parameter name.

    Works on dicts mapping names to ndarrays updated in place; scalar
    parameters must be passed as 0-d or length-1 arrays by the caller.
    """

    def __init__(self, lr: float):
        self.lr = lr
        self.m: dict[str, np.ndarray] = {}
        self.v: dict[str, np.ndarray] = {}
        self.t = 0

    def step(self, params: dict[str, np.ndarray], grads: dict[str, np.ndarray]) -> None:
        self.t += 1
        for name, g in grads.items():
            g = np.asarray(g, dtype=np.float64)
            if name not in self.m:
                self.m[name] = np.zeros_like(g)
                self.v[name] = np.zeros_like(g)
            # in place, in the operation order of m = BETA1 * m + (1 - BETA1) * g
            # and params -= lr * mhat / (sqrt(vhat) + EPS); g is only read
            m, v = self.m[name], self.v[name]
            m *= BETA1
            m += (1 - BETA1) * g
            v *= BETA2
            v += (1 - BETA2) * g**2
            step = m / (1 - BETA1**self.t)
            step *= self.lr
            step /= np.sqrt(v / (1 - BETA2**self.t)) + EPS
            params[name] -= step
