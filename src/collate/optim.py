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
            self.m[name] = BETA1 * self.m[name] + (1 - BETA1) * g
            self.v[name] = BETA2 * self.v[name] + (1 - BETA2) * g**2
            mhat = self.m[name] / (1 - BETA1**self.t)
            vhat = self.v[name] / (1 - BETA2**self.t)
            params[name] -= self.lr * mhat / (np.sqrt(vhat) + EPS)
