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
        """Norm of each row of an N x dim array; row i does not depend on the others."""
        mags = np.abs(self.as_vectors(vs))
        if self.norm_kind == "l1":
            return mags.sum(axis=1)
        m = mags.max(axis=1)
        if self.norm_kind == "linf":
            return m
        # scaled so that tiny entries do not underflow when squared
        scale = np.where(m == 0.0, 1.0, m)[:, None]
        return m * np.sqrt(((mags / scale) ** 2).sum(axis=1))

    def norm(self, v) -> float:
        return float(self.norms([v])[0])

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


def draw_samples(space: NormedSpace, plan: SamplePlan, arity: int):
    """Deterministic sample points (``arity=1``) or triples (``arity=3``).

    Each vector has a uniform (Gaussian-normalized) direction and a norm
    log-uniform in ``(lo, hi]``, so that samples cover several dyadic shells,
    which is where the series bounds are probed. The stream is a pure
    function of ``(space, plan, arity)``.
    """
    if arity not in (1, 3):
        raise ArityError(f"arity: expected 1 or 3, got {arity}")
    rng = np.random.default_rng(plan.seed)
    lo = plan.inner_radius()
    hi = plan.radius
    n = plan.count * arity
    g = np.empty((n, 2 * space.dim))
    u = np.empty(n)
    for i in range(n):
        g[i] = rng.standard_normal(2 * space.dim)
        while not g[i].any():
            g[i] = rng.standard_normal(2 * space.dim)
        # (1 - random()) lies in (0, 1], so the target norm lies in (lo, hi].
        u[i] = 1.0 - rng.random()
    vec = g[:, : space.dim] + 1j * g[:, space.dim :]
    target = np.exp(np.log(lo) + u * (np.log(hi) - np.log(lo)))
    vec = vec * (target / space.norms(vec))[:, None]
    # Guard the open/closed endpoints against rounding of the rescaled norm.
    norms = space.norms(vec)
    vec[norms > hi] *= 1.0 - 1e-12
    vec[norms <= lo] *= 1.0 + 1e-12
    vectors = list(vec)
    if arity == 1:
        return vectors
    return [tuple(vectors[3 * i : 3 * i + 3]) for i in range(plan.count)]
