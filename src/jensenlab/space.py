"""Finite-dimensional complex coordinate spaces and seeded point sampling.

Vectors are plain ``numpy`` arrays of ``complex128`` with shape ``(dim,)``.
"""

from __future__ import annotations

from functools import reduce

import numpy as np

from .errors import ArityError, DimensionError

NORM_KINDS = ("l1", "l2", "linf")

#: Inner-radius floor used when a plan does not exclude the origin: sampled
#: norms are log-uniform, which needs a positive lower edge.
ORIGIN_FLOOR = 2.0 ** -20


def fold(op, columns) -> np.ndarray:
    """``op`` folded left to right over a sequence of equal-shape arrays c0, c1, ...:
    op(op(c0, c1), c2) and so on (``a.T`` gives the columns of an N x dim array).
    Each step is one ufunc call on whole columns. numpy reduces a short axis one
    row at a time, which is far slower, and for fewer than 8 columns its sum is
    left to right too, so the bits are the same as ``op.reduce``."""
    return reduce(op, columns)


class ValueRecord:
    """A record that compares by value: equal to a record of its own class with an
    equal ``_key()``, and hashed by that key. Subclasses define ``_key`` alone."""

    def __eq__(self, other):
        return self._key() == other._key() if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self):
        return hash(self._key())


class NormedSpace(ValueRecord):
    """A complex coordinate space C^dim with an l1, l2 or linf norm; equal and
    hashed by (dim, norm_kind)."""

    def __init__(self, dim: int, norm_kind: str = "l2"):
        self.dim, self.norm_kind = dim, norm_kind
        if not isinstance(self.dim, int) or self.dim < 1:
            raise ValueError(f"dim must be a positive integer, got {self.dim!r}")
        if self.norm_kind not in NORM_KINDS:
            raise ValueError(f"norm_kind must be one of {NORM_KINDS}, got {self.norm_kind!r}")

    def _key(self) -> tuple:
        return self.dim, self.norm_kind

    def as_vectors(self, vs) -> np.ndarray:
        """Coerce a sequence of vectors to an N x dim complex array, checking the
        dimension; ``[v]`` is a batch of one."""
        arr = np.asarray(vs if isinstance(vs, np.ndarray) else list(vs), dtype=np.complex128)
        arr = arr.reshape(0, self.dim) if arr.size == 0 else arr
        if arr.ndim != 2 or arr.shape[1] != self.dim:
            raise DimensionError(
                f"dimension: expected vectors of length {self.dim}, got shape {arr.shape}"
            )
        return arr

    def norms(self, vs) -> np.ndarray:
        """Norm of each row of an N x dim array; row i does not depend on the others.
        The max, the l1 sum and the l2 sum of squares are folds over the components
        in index order (``fold``), so the order is the same for every dim."""
        mags = np.abs(self.as_vectors(vs))
        if self.norm_kind == "l1":
            return fold(np.add, mags.T)
        m = fold(np.maximum, mags.T)
        if self.norm_kind == "linf":
            return m
        # scaled by the row max so that tiny entries do not underflow when squared;
        # by 1 where that max is 0 or +inf, so that a row with an infinite entry is +inf
        scale = np.where((m == 0.0) | (m == np.inf), 1.0, m)
        return m * np.sqrt(fold(np.add, (mags.T / scale) ** 2))

    def norm(self, v) -> float:
        return float(self.norms([v])[0])

    def zero(self) -> np.ndarray:
        return np.zeros(self.dim, dtype=np.complex128)


class SamplePlan(ValueRecord):
    """Seeded sampling plan: ``count`` draws in the norm shell
    ``(exclude_origin_below, radius]``; equal and hashed by its four fields."""

    def __init__(self, seed: int, count: int, radius: float, exclude_origin_below: float = 0.0):
        self.seed, self.count, self.radius = seed, count, radius
        self.exclude_origin_below = exclude_origin_below
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed}")
        if self.count < 0:
            raise ValueError(f"count must be nonnegative, got {self.count}")
        if not (0 <= self.exclude_origin_below < self.radius):
            raise ValueError(
                f"need radius > exclude_origin_below >= 0, got radius={self.radius}, "
                f"exclude_origin_below={self.exclude_origin_below}"
            )

    def _key(self) -> tuple:
        return self.seed, self.count, self.radius, self.exclude_origin_below

    def inner_radius(self) -> float:
        """Positive lower edge of the sampled norm range."""
        if self.exclude_origin_below > 0:
            return self.exclude_origin_below
        return self.radius * ORIGIN_FLOOR


def draw_samples(space: NormedSpace, plan: SamplePlan, arity: int) -> np.ndarray:
    """Deterministic points, a ``(count, dim)`` array, or triples, ``(count, 3, dim)``.

    Each vector has a uniform (Gaussian-normalized) direction and a norm
    log-uniform in ``(lo, hi]``, so that samples cover several dyadic shells,
    which is where the series bounds are probed. Directions and norms are one
    bulk draw each from two PCG64 streams spawned from ``plan.seed``: the
    first k vectors do not depend on ``count``, and triples are the points of
    ``3 * count`` vectors in threes.
    """
    if arity not in (1, 3):
        raise ArityError(f"arity: expected 1 or 3, got {arity}")
    directions, radii = map(np.random.default_rng, np.random.SeedSequence(plan.seed).spawn(2))
    lo, hi = plan.inner_radius(), plan.radius
    g = directions.standard_normal((plan.count * arity, 2 * space.dim))
    while (zero := ~fold(np.logical_or, g.T)).any():  # a zero row has no direction: redraw it
        g[zero] = directions.standard_normal((zero.sum(), 2 * space.dim))
    # (1 - random()) lies in (0, 1], so the target norm lies in (lo, hi].
    u = 1.0 - radii.random(len(g))
    vec = g[:, : space.dim] + 1j * g[:, space.dim :]
    target = np.exp(np.log(lo) + u * (np.log(hi) - np.log(lo)))
    vec = vec * (target / space.norms(vec))[:, None]
    # Guard the open/closed endpoints against rounding of the rescaled norm.
    norms = space.norms(vec)
    vec[norms > hi] *= 1.0 - 1e-12
    vec[norms <= lo] *= 1.0 + 1e-12
    return vec.reshape(plan.count, 3, space.dim) if arity == 3 else vec
