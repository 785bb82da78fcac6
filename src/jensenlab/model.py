"""Test functions: an exactly-additive core plus a parametrized perturbation.

A test function models f = core + p where the core is a (real- or
complex-)linear operator, hence exactly additive, and p supplies a controlled
departure from additivity. Perturbations are deterministic: their direction is
either radial (x / ||x||) or hashed from the quantized input point together
with a seed, so repeated evaluation never needs stored tables.

``evaluate_many`` maps the rows of an N x dim array; every step works row by
row, so a row's bits never depend on its batch.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .errors import DimensionError
from .space import NormedSpace, fold

#: Quantization step for hashing / tabulated lookups; coarse enough that
#: floating-point noise below ~1e-7 cannot move a point across grid cells.
QUANT_STEP = 2.0 ** -20

_MASK64 = (1 << 64) - 1

#: Row budget of one ``evaluate_many`` call of the orbit pass or the defect.
ROWS = 2048

CORE_KINDS = ("complex_linear", "real_linear")
PERTURBATION_KINDS = ("none", "bounded", "power", "tabulated")
DIRECTION_KINDS = ("hashed", "radial")


#: Quantized coordinates are capped at +/- 2^53 (exactly representable as
#: floats) so that orbit points with huge arguments still hash deterministically
#: instead of overflowing the integer cast.
_QUANT_CAP = float(1 << 53)


def _quantized(xs: np.ndarray, step: float) -> np.ndarray:
    """Quantized int64 keys of the rows of an N x dim array (real parts, then imaginary);
    the steps after the first copy write into that copy, not into ``xs``."""
    parts = np.concatenate([xs.real, xs.imag], axis=1)
    parts /= step
    return np.clip(np.round(parts, out=parts), -_QUANT_CAP, _QUANT_CAP, out=parts).astype(np.int64)


def quantize(x: np.ndarray, step: float = QUANT_STEP) -> tuple:
    """Quantized integer key for a complex vector (real parts then imaginary)."""
    return tuple(_quantized(np.asarray(x, dtype=np.complex128)[None], step)[0].tolist())


# SplitMix64 (Steele, Lea & Flood, OOPSLA 2014); uint64 arithmetic wraps.
_GAMMA = np.uint64(0x9E3779B97F4A7C15)


def _mix64(z: np.ndarray) -> np.ndarray:
    """SplitMix64's mix of each word, into a new array updated in place; ``z`` is only read."""
    z = z ^ (z >> np.uint64(30))
    z *= np.uint64(0xBF58476D1CE4E5B9)
    z ^= z >> np.uint64(27)
    z *= np.uint64(0x94D049BB133111EB)
    z ^= z >> np.uint64(31)
    return z


def _hash_words(seed: int, keys: np.ndarray, count: int, first: int = 1) -> np.ndarray:
    """Words ``first`` .. ``count`` per row of an int64 key array, ``mix(state + j gamma)``:
    a counter-based stream (Salmon et al., SC 2011) of the row's key and ``seed``. The
    state is its own array, updated in place; ``keys`` is only read."""
    state = np.full(len(keys), seed & _MASK64, dtype=np.uint64)
    for k in keys.view(np.uint64).T:
        state += _GAMMA
        state ^= k
        state = _mix64(state)
    return _mix64(state[:, None] + _GAMMA * np.arange(first, count + 1, dtype=np.uint64))


class AdditiveCore:
    """Linear operator on the space; additive by construction.

    ``complex_linear`` applies a dim x dim complex matrix. ``real_linear``
    applies a 2*dim x 2*dim real matrix to the realified coordinates
    (real parts stacked on imaginary parts); such maps are additive and
    R-homogeneous without being C-linear.
    """

    def __init__(self, kind: str, matrix: np.ndarray):
        self.kind, self.matrix = kind, matrix
        if self.kind not in CORE_KINDS:
            raise ValueError(f"core kind must be one of {CORE_KINDS}, got {self.kind!r}")

    @classmethod
    def identity(cls, dim: int) -> "AdditiveCore":
        return cls("complex_linear", np.eye(dim, dtype=np.complex128))

    @classmethod
    def random(cls, dim: int, seed: int, kind: str = "complex_linear") -> "AdditiveCore":
        rng = np.random.default_rng(seed)
        if kind == "complex_linear":
            m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        else:
            m = rng.standard_normal((2 * dim, 2 * dim))
        return cls(kind, m / np.sqrt(2 * dim))

    def apply(self, x: np.ndarray) -> np.ndarray:
        return self.apply_many(np.asarray(x)[None])[0]

    @cached_property
    def _real_matrix(self) -> np.ndarray:
        """The matrix acting on (Re x, Im x): [[A, -B], [B, A]] for A + iB."""
        m = self.matrix
        return m if self.kind == "real_linear" else np.block([[m.real, -m.imag],
                                                               [m.imag, m.real]])

    @cached_property
    def _kept(self) -> list:
        """Per output part (Re y0, Im y0, Re y1, ...: a complex row's memory order), the
        (column, entry) pairs of its nonzero ``_real_matrix`` entries, or of its first if none."""
        m, d = self._real_matrix, len(self._real_matrix) // 2
        return [[(j, v) for j, v in enumerate(m[i]) if v] or [(0, m[i, 0])]
                for k in range(d) for i in (k, k + d)]

    def apply_many(self, xs: np.ndarray) -> np.ndarray:
        """The core at each row of an N x dim array, in real arithmetic summed
        column by column in a fixed order: not BLAS, and no complex product,
        whose rounding can depend on the numpy loop (fused or not) that runs
        it, so a row's bits never depend on the batch. An output part sums only
        its ``_kept`` products (an entry of 1.0 adds its input unmultiplied) into
        the complex result. A skipped product of a finite part is +-0, which moves
        only a zero sum's sign, so a batch with a non-finite part or output part,
        or a zero output part, is summed over every entry, into the complex result
        too: all of it, since which NaN a numpy loop keeps depends on the array's
        length."""
        d, m = xs.shape[1], self._real_matrix
        if m.shape != (2 * d, 2 * d):
            raise DimensionError(
                f"dimension: {self.kind} core matrix {self.matrix.shape} does not act on C^{d}")
        # the 2d real input columns (real parts, then imaginary), each contiguous
        x2 = np.concatenate([xs.real.T, xs.imag.T], out=np.empty((2 * d, len(xs))))
        y = np.stack([fold(np.add, (x2[j] if v == 1.0 else x2[j] * v for j, v in kept))
                      for kept in self._kept], axis=1)
        if (np.isfinite(x2) & np.isfinite(y.T) & (y.T != 0.0)).all():
            return y.view(np.complex128)
        x2 = np.concatenate([xs.real.T, xs.imag.T])  # the full fold's own layout and loops
        return np.stack([fold(np.add, map(np.multiply, x2, m[i])) for k in range(d)
                         for i in (k, k + d)], axis=1).view(np.complex128)


class Perturbation:
    """Deterministic perturbation p with a selectable magnitude law.

    kinds:
      none       p = 0
      bounded    ||p(x)|| <= epsilon everywhere
      power      ||p(x)|| = theta * ||x||^r at every evaluated point, p(0) = 0
                 for r > 0 and NaN (undefined) for r < 0
      tabulated  a map from quantized points to vectors, with an optional
                 default used for points outside the table (a constant offset
                 model is ``tabulated`` with an empty table and a default)

    direction 'hashed' normalizes a complex Gaussian vector drawn by
    Box-Muller from the SplitMix64 words of (direction_seed, quantized
    point): words 1..dim give the radii, dim+1..2dim the angles, and word
    2dim+1 the magnitude scale of a bounded perturbation; 'radial' uses
    x / ||x||.
    """

    def __init__(self, kind: str = "none", epsilon: float = 0.0, theta: float = 0.0,
                 r: float = 1.0, direction: str = "hashed", direction_seed: int = 0,
                 table: dict | None = None, default: np.ndarray | None = None,
                 quant_step: float = QUANT_STEP):
        self.kind, self.epsilon, self.theta, self.r = kind, epsilon, theta, r
        self.direction, self.direction_seed = direction, direction_seed
        self.table = {} if table is None else table  # a new dict per perturbation
        self.default, self.quant_step = default, quant_step
        if self.kind not in PERTURBATION_KINDS:
            raise ValueError(f"perturbation kind must be one of {PERTURBATION_KINDS}")
        if self.direction not in DIRECTION_KINDS:
            raise ValueError(f"direction must be one of {DIRECTION_KINDS}")

    @classmethod
    def none(cls) -> "Perturbation":
        return cls("none")

    @classmethod
    def bounded(cls, epsilon: float, direction_seed: int = 0,
                direction: str = "hashed") -> "Perturbation":
        return cls("bounded", epsilon=float(epsilon), direction_seed=direction_seed,
                   direction=direction)

    @classmethod
    def power(cls, theta: float, r: float, direction_seed: int = 0,
              direction: str = "hashed") -> "Perturbation":
        return cls("power", theta=float(theta), r=float(r),
                   direction_seed=direction_seed, direction=direction)

    @classmethod
    def tabulated(cls, table: dict | None = None, default=None,
                  quant_step: float = QUANT_STEP) -> "Perturbation":
        tab = {} if table is None else dict(table)
        dflt = None if default is None else np.asarray(default, dtype=np.complex128)
        return cls("tabulated", table=tab, default=dflt, quant_step=quant_step)

    def evaluate_many(self, space: NormedSpace, xs: np.ndarray) -> np.ndarray:
        """p at each row of an N x dim complex array."""
        if self.kind == "none":
            return np.zeros_like(xs)
        if self.kind == "tabulated":
            default = space.zero() if self.default is None else self.default
            keys = map(tuple, _quantized(xs, self.quant_step).tolist())
            return np.array([self.table.get(k, default) for k in keys], dtype=np.complex128
                            ).reshape(xs.shape)
        d, nx = space.dim, space.norms(xs)
        if self.direction == "hashed" or self.kind == "bounded":  # radial: word 2d + 1 alone
            first = 1 if self.direction == "hashed" else 2 * d + 1
            words = _hash_words(self.direction_seed, _quantized(xs, self.quant_step),
                                2 * d + (self.kind == "bounded"), first)
        if self.direction == "radial":
            # per part: complex / real would multiply by 1 / ||x||, inf for a subnormal ||x||
            n = np.where(nx == 0.0, 1.0, nx)[:, None]
            u = xs.real / n + 1j * (xs.imag / n)
        else:
            # Box-Muller with u1 = (k + 1/2) / 2^52 in (0, 1) for the top 52 bits
            # k of a word: every radius is positive, so no vector is zero.
            radius = np.sqrt(-2.0 * np.log(((words[:, :d] >> np.uint64(12)) + 0.5) * 2.0 ** -52))
            angle = 2.0 * np.pi * ((words[:, d : 2 * d] >> np.uint64(11)) * 2.0 ** -53)
            u = np.empty(radius.shape, dtype=np.complex128)
            np.multiply(radius, np.cos(angle), out=u.real)
            np.multiply(radius, np.sin(angle), out=u.imag)
            u /= space.norms(u)[:, None]
        if self.kind == "bounded":
            # Magnitude scale in [0, 1) hashed from the same point key.
            return (self.epsilon * ((words[:, -1] >> np.uint64(11)) * 2.0 ** -53))[:, None] * u
        if self.r >= 0:  # power, defined everywhere
            return (self.theta * nx ** self.r)[:, None] * u
        # with r < 0, p(0) is undefined: a NaN row, which the callers report
        undefined = nx == 0.0
        magnitude = self.theta * np.where(undefined, 1.0, nx) ** self.r
        return np.where(undefined, np.nan, magnitude)[:, None] * u


class TestFunction:
    """f = core + perturbation on a normed space."""

    __test__ = False  # not a pytest collection target

    def __init__(self, space: NormedSpace, core: AdditiveCore, perturbation: Perturbation,
                 force_zero_at_origin: bool = False):
        self.space, self.core, self.perturbation = space, core, perturbation
        self.force_zero_at_origin = force_zero_at_origin


def evaluate_many(f: TestFunction, xs) -> np.ndarray:
    """f(x) = core(x) + p(x) at each row x of an N x dim array, exactly zero at
    the origin when forced; row i is ``evaluate_many(f, [xs[i]])[0]`` bit for bit,
    whatever the other rows are."""
    xs = f.space.as_vectors(xs)
    out = f.core.apply_many(xs) + f.perturbation.evaluate_many(f.space, xs)
    if f.force_zero_at_origin:
        out[~fold(np.logical_or, (xs != 0).T)] = 0.0
    return out


# --- JSON encoding ----------------------------------------------------------
#
# Complex scalars are encoded as [re, im] pairs; vectors as lists of pairs;
# complex matrices as nested lists of pairs.

def complex_from_pair(pair) -> complex:
    if isinstance(pair, (int, float)):
        return complex(pair, 0.0)
    re, im = pair
    return complex(re, im)


def vector_from_pairs(pairs) -> np.ndarray:
    return np.array([complex_from_pair(p) for p in pairs], dtype=np.complex128)


def pairs_from_vector(v) -> list:
    return [[float(np.real(z)), float(np.imag(z))] for z in np.asarray(v)]


def scalar_offset_function(offset: complex, dim: int = 1,
                           norm_kind: str = "l2") -> TestFunction:
    """The constant-offset model f(x) = x + c (identity core, tabulated default)."""
    space = NormedSpace(dim, norm_kind)
    default = np.full(dim, complex(offset), dtype=np.complex128)
    return TestFunction(space=space, core=AdditiveCore.identity(dim),
                        perturbation=Perturbation.tabulated(default=default))
