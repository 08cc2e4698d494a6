"""Adam over one float64 vector, the layout that puts every trainable array
of some models into such a vector, and the checkpoint helpers for the same
arrays.

Each model class names its trainable attributes once, in a ``PARAMS``
tuple. Both trainers lay their parameters out with ``FlatParams``, which
reads those tuples, and step the vector with ``Adam``. Adam is elementwise,
so one step on the vector gives bit for bit the values that stepping each
array separately would. ``state_dict`` writes named attributes as JSON
values, and ``load_state`` reads them back into a new object, checking each
value's shape and that every entry is finite. The checkpoints pass them
``PARAMS`` and whatever else a model keeps, and read their files through
``load_checkpoint``.
"""
from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .errors import CollateError, ParseError

BETA1, BETA2, EPS = 0.9, 0.999, 1e-8


def state_dict(obj, names) -> dict:
    """Each named attribute of ``obj`` as JSON: an array as nested lists of
    floats, a float or a 0-d array as a float."""
    return {name: np.asarray(getattr(obj, name)).tolist() for name in names}


def load_state(cls, d: dict, what: str, shapes: dict):
    """A new ``cls`` whose attributes are ``d``'s values for the names in
    ``shapes``: a float64 array, or a float where the shape is ``()``. A
    value whose shape differs from its entry in ``shapes``, or with an entry
    that is not finite, raises ValueError naming ``{what}.{name}``."""
    obj = cls.__new__(cls)
    for name, shape in shapes.items():
        v = np.asarray(d[name], dtype=np.float64)
        if v.shape != shape:
            raise ValueError(f"{what}.{name} has shape {v.shape}, expected {shape}")
        if not np.isfinite(v).all():
            raise ValueError(f"{what}.{name} is not finite")
        setattr(obj, name, float(v) if shape == () else v)
    return obj


def load_checkpoint(path: str | Path, from_dict):
    """``from_dict`` of the JSON in the file at ``path``. Text that is not
    JSON, or a payload that ``from_dict`` rejects with a ValueError,
    KeyError, TypeError, AttributeError or CollateError (a key missing, a
    wrong version, an array where an object belongs, a replayed score out of
    range), raises ParseError naming the file."""
    try:
        return from_dict(json.loads(Path(path).read_text()))
    except (ValueError, KeyError, TypeError, AttributeError, CollateError) as exc:
        raise ParseError(f"{path}: {type(exc).__name__}: {exc}") from None


class FlatParams:
    """Every trainable array of some models, held in one float64 vector, or
    in one (runs, P) array for a stack of runs trained in lockstep.

    The layout follows ``owners`` and, within each, its class's ``PARAMS``.
    Each attribute is rebound to its view of ``theta`` (a 0-d view for a
    scalar); with ``lead`` = (runs,), every view gains that leading run axis
    and each run starts from the owners' values. One optimizer step on
    ``theta`` then updates them all in place. ``grad`` has the same layout,
    and ``grads`` holds, per owner, its views of ``grad`` keyed by attribute
    name: a backward pass writes into those. ``run_state`` cuts one run's
    views out of a stack.
    """

    def __init__(self, owners: list, lead: tuple = ()):
        arrays = [
            (i, name, np.asarray(getattr(obj, name), dtype=np.float64))
            for i, obj in enumerate(owners)
            for name in type(obj).PARAMS
        ]
        # a C-ordered row per run: each run's views are then laid out as a
        # lone run's arrays are, and BLAS gives them the same bits; a
        # column-major stack rounds its products otherwise
        self.theta = np.tile(np.concatenate([a.reshape(-1) for _, _, a in arrays]), lead + (1,))
        self.grad = np.empty_like(self.theta)
        self.grads: list[dict[str, np.ndarray]] = [{} for _ in owners]
        start = 0
        for i, name, a in arrays:
            stop = start + a.size
            shape = lead + a.shape
            setattr(owners[i], name, self.theta[..., start:stop].reshape(shape))
            self.grads[i][name] = self.grad[..., start:stop].reshape(shape)
            start = stop


def run_state(obj, names, at):
    """A new object of ``obj``'s class whose attributes ``names`` are the
    views ``getattr(obj, name)[at]``: one run's, for ``at`` = (run, ...)."""
    one = type(obj).__new__(type(obj))
    for name in names:
        setattr(one, name, getattr(obj, name)[at])
    return one


class Adam:
    """Standard Adam on one float64 array of ``shape``."""

    def __init__(self, lr: float, shape):
        self.lr = lr
        self.m = np.zeros(shape)
        self.v = np.zeros(shape)
        self.t = 0

    def step(self, theta: np.ndarray, grad: np.ndarray) -> None:
        """One update of ``theta`` in place; ``grad`` is only read. Every
        operation is elementwise, so each entry, and each run of a stack,
        gets the bits it gets alone."""
        self.t += 1
        # in place, in the operation order of m = BETA1 * m + (1 - BETA1) * g
        # and theta -= lr * mhat / (sqrt(vhat) + EPS)
        m, v = self.m, self.v
        m *= BETA1
        m += (1 - BETA1) * grad
        v *= BETA2
        v += (1 - BETA2) * grad**2
        step = m / (1 - BETA1**self.t)
        step *= self.lr
        step /= np.sqrt(v / (1 - BETA2**self.t)) + EPS
        theta -= step
