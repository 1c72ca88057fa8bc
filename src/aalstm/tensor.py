"""Dense vector/matrix kernels shared by every other module.

Vectors are 1-D float64 numpy arrays, matrices are 2-D row-major (C-order)
float64 arrays. All functions here are pure: they validate shapes, never
mutate their inputs, and return freshly allocated arrays, so values can be
shared read-only across threads. `ParamSet` is the base of the parameter
sets: `empty` or `init`, then a fill through `to_arrays()`, is the one way
to make one. A parameter set only declares its shapes; its constructor
checks nothing, because `assemble_model` checks the dims every set is made
from. `ShapeError` and `ConfigError` are the errors every module shares.
"""

from __future__ import annotations

from dataclasses import fields

import numpy as np

# Nearest doubles inside the open intervals (0, 1) and (-1, 1). Saturating
# activations are clamped to these so gate/probability range invariants hold
# for arbitrarily large finite inputs.
_SIGMOID_LO = np.nextafter(0.0, 1.0)
_SIGMOID_HI = np.nextafter(1.0, 0.0)
_TANH_HI = np.nextafter(1.0, 0.0)


class ShapeError(ValueError):
    """Operands have incompatible shapes."""


class ConfigError(ValueError):
    """Inconsistent model configuration (e.g. aspect dim != hidden dim)."""


def as_matrix(data) -> np.ndarray:
    """Coerce to a 2-D row-major float64 matrix."""
    m = np.ascontiguousarray(data, dtype=np.float64)
    if m.ndim != 2:
        raise ShapeError(f"expected a 2-D matrix, got shape {m.shape}")
    return m


def sigmoid(v: np.ndarray) -> np.ndarray:
    """Logistic function, stable for large |x| and clamped into open (0, 1).

    With e = exp(-|x|) it is 1/(1+e) for x >= 0 and e/(1+e) for x < 0, the
    two-branch form in one expression: no exponent is positive, so there is
    no overflow; deep saturation that would round to exactly 0.0 or 1.0 is
    clamped to the nearest representable interior double instead.
    """
    v = np.asarray(v, dtype=np.float64)
    e = np.exp(np.copysign(v, -1.0))
    out = np.where(v >= 0, 1.0, e)
    out /= 1.0 + e
    np.maximum(out, _SIGMOID_LO, out=out)
    return np.minimum(out, _SIGMOID_HI, out=out)


def tanh_v(v: np.ndarray) -> np.ndarray:
    """Hyperbolic tangent clamped into open (-1, 1)."""
    v = np.asarray(v, dtype=np.float64)
    out = np.tanh(v, out=np.empty_like(v))
    np.maximum(out, -_TANH_HI, out=out)
    return np.minimum(out, _TANH_HI, out=out)


def make_rng(seed) -> np.random.Generator:
    """Seeded generator on the counter-based Philox algorithm.

    Philox streams are reproducible across platforms for a fixed seed; `seed`
    may be an int or a sequence of ints (stream key).
    """
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))


def uniform_init(rows: int, cols: int, lo: float, hi: float, seed) -> np.ndarray:
    """Matrix with i.i.d. entries from U(lo, hi), deterministic per seed."""
    if not lo < hi:
        raise ValueError(f"uniform_init: need lo < hi, got lo={lo!r}, hi={hi!r}")
    return make_rng(seed).uniform(lo, hi, size=(rows, cols))


class ParamSet:
    """Base of the parameter dataclasses: storage comes from dims in one place.

    A subclass gives ``_shapes(*dims)`` (field -> shape) and ``_INIT_STREAM``
    (array name -> seed stream of each array drawn at init; the others start
    at zero). Its arrays are its fields unless it overrides ``to_arrays``.
    The dataclass constructor stores what it is given and checks nothing.
    """

    _INIT_STREAM: dict[str, int]

    def to_arrays(self) -> dict[str, np.ndarray]:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def empty(cls, *dims):
        """Uninitialized storage for the given dims."""
        return cls(**{name: np.empty(shape) for name, shape in cls._shapes(*dims).items()})

    @classmethod
    def init(cls, *dims, lo: float = -0.1, hi: float = 0.1, seed=0):
        """Arrays named in `_INIT_STREAM` from U(lo, hi) seeded [seed, stream],
        the others zero."""
        p = cls.empty(*dims)
        for name, out in p.to_arrays().items():
            if name in cls._INIT_STREAM:
                out.flat = uniform_init(1, out.size, lo, hi, seed=[seed, cls._INIT_STREAM[name]])
            else:
                out[...] = 0.0
        return p
