"""Finite-dimensional complex coordinate spaces and seeded point sampling.

Vectors are plain ``numpy`` arrays of ``complex128`` with shape ``(dim,)``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ArityError, DimensionError

NORM_KINDS = ("l1", "l2", "linf")

#: Inner-radius floor used when a plan does not exclude the origin: sampled
#: norms are log-uniform, which needs a positive lower edge.
ORIGIN_FLOOR = 2.0 ** -20


@dataclass(frozen=True)
class NormedSpace:
    """A complex coordinate space C^dim with an l1, l2 or linf norm."""

    dim: int
    norm_kind: str = "l2"

    def __post_init__(self):
        if not isinstance(self.dim, int) or self.dim < 1:
            raise ValueError(f"dim must be a positive integer, got {self.dim!r}")
        if self.norm_kind not in NORM_KINDS:
            raise ValueError(f"norm_kind must be one of {NORM_KINDS}, got {self.norm_kind!r}")

    def as_vector(self, v) -> np.ndarray:
        """Coerce to a complex vector of this space, checking the dimension."""
        arr = np.asarray(v, dtype=np.complex128)
        if arr.shape != (self.dim,):
            raise DimensionError(
                f"dimension: expected a vector of length {self.dim}, got shape {arr.shape}"
            )
        return arr

    def norm(self, v) -> float:
        arr = self.as_vector(v)
        mags = np.abs(arr)
        if self.norm_kind == "l1":
            return float(mags.sum())
        if self.norm_kind == "l2":
            # scaled so that tiny entries do not underflow when squared
            m = float(mags.max())
            if m == 0.0:
                return 0.0
            return m * float(np.sqrt(((mags / m) ** 2).sum()))
        return float(mags.max())

    def zero(self) -> np.ndarray:
        return np.zeros(self.dim, dtype=np.complex128)


@dataclass(frozen=True)
class SamplePlan:
    """Seeded sampling plan: ``count`` draws in the norm shell
    ``(exclude_origin_below, radius]``."""

    seed: int
    count: int
    radius: float
    exclude_origin_below: float = 0.0

    def __post_init__(self):
        if self.count < 0:
            raise ValueError(f"count must be nonnegative, got {self.count}")
        if not (0 <= self.exclude_origin_below < self.radius):
            raise ValueError(
                f"need radius > exclude_origin_below >= 0, got radius={self.radius}, "
                f"exclude_origin_below={self.exclude_origin_below}"
            )

    def inner_radius(self) -> float:
        """Positive lower edge of the sampled norm range."""
        if self.exclude_origin_below > 0:
            return self.exclude_origin_below
        return self.radius * ORIGIN_FLOOR


def _one_sample(space: NormedSpace, rng: np.random.Generator, lo: float, hi: float) -> np.ndarray:
    """One vector with uniform (Gaussian-normalized) direction and log-uniform norm.

    Norms are log-uniform in ``(lo, hi]`` so that samples cover several dyadic
    shells, which is where the series bounds are probed.
    """
    while True:
        g = rng.standard_normal(2 * space.dim)
        vec = g[: space.dim] + 1j * g[space.dim :]
        ng = space.norm(vec)
        if ng > 0:
            break
    # (1 - random()) lies in (0, 1], so the target norm lies in (lo, hi].
    u = 1.0 - rng.random()
    target = float(np.exp(np.log(lo) + u * (np.log(hi) - np.log(lo))))
    vec = vec * (target / ng)
    # Guard the open/closed endpoints against rounding of the rescaled norm.
    n = space.norm(vec)
    if n > hi:
        vec = vec * (1.0 - 1e-12)
    elif n <= lo:
        vec = vec * (1.0 + 1e-12)
    return vec


def draw_samples(space: NormedSpace, plan: SamplePlan, arity: int):
    """Deterministic sample points (``arity=1``) or triples (``arity=3``).

    The stream is a pure function of ``(space, plan, arity)``; parallel
    consumers must partition the returned list by index rather than share a
    generator.
    """
    if arity not in (1, 3):
        raise ArityError(f"arity: expected 1 or 3, got {arity}")
    rng = np.random.default_rng(plan.seed)
    lo = plan.inner_radius()
    hi = plan.radius
    vectors = [_one_sample(space, rng, lo, hi) for _ in range(plan.count * arity)]
    if arity == 1:
        return vectors
    return [tuple(vectors[3 * i : 3 * i + 3]) for i in range(plan.count)]
