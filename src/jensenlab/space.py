"""Finite-dimensional complex coordinate spaces, seeded point sampling and the counter hash.

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


_GAMMA = np.uint64(0x9E3779B97F4A7C15)  # SplitMix64 (Steele, Lea & Flood, OOPSLA 2014)


def check_seed(name: str, seed: int) -> None:
    """Raise ValueError unless ``seed`` is a 64-bit word, so that no two seeds alias."""
    if not 0 <= seed < 1 << 64:
        raise ValueError(f"{name} must be {'nonnegative' if seed < 0 else '< 2^64'}, got {seed}")


def _mix64(z: np.ndarray) -> np.ndarray:
    """SplitMix64's mix of each word of ``z``, in place, its shifts into one scratch array."""
    scratch = np.empty_like(z)
    z ^= np.right_shift(z, np.uint64(30), out=scratch)
    z *= np.uint64(0xBF58476D1CE4E5B9)
    z ^= np.right_shift(z, np.uint64(27), out=scratch)
    z *= np.uint64(0x94D049BB133111EB)
    z ^= np.right_shift(z, np.uint64(31), out=scratch)
    return z


def _hash_words(seed: int, keys: np.ndarray, count: int, first: int = 1) -> np.ndarray:
    """Words ``first`` .. ``count`` per row of an int64 key array, ``mix(state + j gamma)``:
    a counter-based stream (Salmon et al., SC 2011) of the row's key and ``seed``, mixed in
    place: the N x words view of a words x N array; uint64 arithmetic wraps. ``keys`` is only
    read. Every sample point, random core and hashed direction of the package reads these."""
    check_seed("seed", seed)
    state = np.full(len(keys), seed, dtype=np.uint64)
    for k in keys.view(np.uint64).T:
        state += _GAMMA
        state ^= k
        _mix64(state)
    return _mix64((_GAMMA * np.arange(first, count + 1, dtype=np.uint64))[:, None] + state).T


def _word_vectors(words: np.ndarray, dim: int) -> np.ndarray:
    """N x dim vectors of a words x N array: word j gives part (2 k + 1) / 2^52 - 1 (real parts,
    then imaginary) for its top 52 bits k, an odd multiple of 2^-52 in (-1, 1), never zero."""
    parts = (words[: 2 * dim] >> np.uint64(12)) * 2.0 ** -51 + (2.0 ** -52 - 1.0)
    v = np.empty((words.shape[1], dim), dtype=np.complex128)
    v.real, v.imag = parts[:dim].T, parts[dim:].T
    return v


class ValueRecord:
    """A record that compares by value: equal to a record of its own class with an
    equal ``_key()``, and hashed by that key. Subclasses define ``_key`` alone."""

    def __eq__(self, other):
        return self._key() == other._key() if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self):
        return hash(self._key())


class Verdict(ValueRecord):
    """A judged condition and its diagnostic, truthy when it holds; equal and hashed by
    (ok, detail). ``inequality.admissible`` and ``bounds.convergence_predicate`` give one."""

    def __init__(self, ok: bool, detail: str):
        self.ok, self.detail = ok, detail

    def _key(self) -> tuple:
        return self.ok, self.detail

    def __bool__(self) -> bool:
        return self.ok


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
                f"dimension: expected vectors of length {self.dim}, got shape {arr.shape}")
        return arr

    def norms(self, vs) -> np.ndarray:
        """Norm of each row of an N x dim array; row i does not depend on the others.
        The max, the l1 sum and the l2 sum of squares are folds over the components
        in index order (``fold``), so the order is the same for every dim."""
        mags = np.abs(self.as_vectors(vs)).T.copy()  # each component's moduli contiguous
        if self.norm_kind == "l1":
            return fold(np.add, mags)
        m = fold(np.maximum, mags)
        if self.norm_kind == "linf":
            return m
        # scaled by the row max so that tiny entries do not underflow when squared;
        # by 1 where that max is 0 or +inf, so that a row with an infinite entry is +inf
        usual = 0.0 < m.min(initial=np.inf) and m.max(initial=0.0) < np.inf  # no 0, inf or NaN
        scale = m if usual else np.where((m == 0.0) | (m == np.inf), 1.0, m)
        return m * np.sqrt(fold(np.add, (mags / scale) ** 2))

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
        check_seed("seed", self.seed)
        if self.count < 0:
            raise ValueError(f"count must be nonnegative, got {self.count}")
        if not (0 <= self.exclude_origin_below < self.radius):
            raise ValueError(
                f"need radius > exclude_origin_below >= 0, got radius={self.radius}, "
                f"exclude_origin_below={self.exclude_origin_below}")

    def _key(self) -> tuple:
        return self.seed, self.count, self.radius, self.exclude_origin_below

    def inner_radius(self) -> float:
        """Positive lower edge of the sampled norm range."""
        return self.exclude_origin_below or self.radius * ORIGIN_FLOOR


def draw_samples(space: NormedSpace, plan: SamplePlan, arity: int) -> np.ndarray:
    """Deterministic points, a ``(count, dim)`` array, or triples, ``(count, 3, dim)``.

    Vector i reads the words of ``(plan.seed, i)``: words 1..2 dim a direction uniform in
    the realified cube (``_word_vectors``), word 2 dim + 1 a norm log-uniform in ``(lo, hi]``,
    so that samples cover the dyadic shells where the series bounds are probed. So the first
    k vectors do not depend on ``count``; triples are the points of ``3 * count`` in threes.
    """
    if arity not in (1, 3):
        raise ArityError(f"arity: expected 1 or 3, got {arity}")
    keys = np.arange(plan.count * arity, dtype=np.int64)[:, None]  # vector i's key is i
    words = _hash_words(plan.seed, keys, 2 * space.dim + 1).T
    vec = _word_vectors(words, space.dim)
    # (k + 1) / 2^53 for the top 53 bits k of the last word is in (0, 1], the norm in (lo, hi]
    u = ((words[-1] >> np.uint64(11)) + np.uint64(1)) * 2.0 ** -53
    lo, hi = plan.inner_radius(), plan.radius
    target = np.exp(np.log(lo) + u * (np.log(hi) - np.log(lo)))
    vec *= (target / space.norms(vec))[:, None]
    # Guard the open/closed endpoints against rounding of the rescaled norm.
    norms = space.norms(vec)
    vec[norms > hi] *= 1.0 - 1e-12
    vec[norms <= lo] *= 1.0 + 1e-12
    return vec.reshape(plan.count, 3, space.dim) if arity == 3 else vec
