"""Test functions: an exactly-additive core plus a parametrized perturbation.

A test function models f = core + p where the core is a (real- or
complex-)linear operator, hence exactly additive, and p supplies a controlled
departure from additivity. Perturbations are deterministic: their direction is
either radial (x / ||x||) or obtained by hashing the quantized input point
together with a seed, so repeated evaluation never needs stored tables.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionError
from .space import NormedSpace

#: Quantization step for hashing / tabulated lookups; coarse enough that
#: floating-point noise below ~1e-7 cannot move a point across grid cells.
QUANT_STEP = 2.0 ** -20

_MASK64 = (1 << 64) - 1

CORE_KINDS = ("complex_linear", "real_linear")
PERTURBATION_KINDS = ("none", "bounded", "power", "tabulated")
DIRECTION_KINDS = ("hashed", "radial")


#: Quantized coordinates are capped at +/- 2^53 (exactly representable as
#: floats) so that orbit points with huge arguments still hash deterministically
#: instead of overflowing the integer cast.
_QUANT_CAP = float(1 << 53)


def quantize(x: np.ndarray, step: float = QUANT_STEP) -> tuple:
    """Quantized integer key for a complex vector (real parts then imaginary)."""
    parts = np.concatenate([np.asarray(x).real, np.asarray(x).imag])
    scaled = np.clip(np.round(parts / step), -_QUANT_CAP, _QUANT_CAP)
    return tuple(int(k) for k in scaled.astype(np.int64))


@dataclass(frozen=True, eq=False)
class AdditiveCore:
    """Linear operator on the space; additive by construction.

    ``complex_linear`` applies a dim x dim complex matrix. ``real_linear``
    applies a 2*dim x 2*dim real matrix to the realified coordinates
    (real parts stacked on imaginary parts); such maps are additive and
    R-homogeneous without being C-linear.
    """

    kind: str
    matrix: np.ndarray

    def __post_init__(self):
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
        if self.kind == "complex_linear":
            if self.matrix.shape != (x.shape[0], x.shape[0]):
                raise DimensionError(
                    f"dimension: core matrix {self.matrix.shape} does not act on C^{x.shape[0]}"
                )
            return self.matrix @ x
        d = x.shape[0]
        if self.matrix.shape != (2 * d, 2 * d):
            raise DimensionError(
                f"dimension: real core matrix {self.matrix.shape} does not act on R^{2 * d}"
            )
        x2 = np.concatenate([x.real, x.imag])
        y2 = self.matrix @ x2
        return y2[:d] + 1j * y2[d:]


@dataclass(frozen=True, eq=False)
class Perturbation:
    """Deterministic perturbation p with a selectable magnitude law.

    kinds:
      none       p = 0
      bounded    ||p(x)|| <= epsilon everywhere
      power      ||p(x)|| = theta * ||x||^r at every evaluated point, p(0) = 0
                 for r > 0
      tabulated  a map from quantized points to vectors, with an optional
                 default used for points outside the table (a constant offset
                 model is ``tabulated`` with an empty table and a default)

    direction 'hashed' draws a unit vector from a generator seeded by
    (direction_seed, quantized point); 'radial' uses x / ||x||.
    """

    kind: str = "none"
    epsilon: float = 0.0
    theta: float = 0.0
    r: float = 1.0
    direction: str = "hashed"
    direction_seed: int = 0
    table: dict = field(default_factory=dict)
    default: np.ndarray | None = None
    quant_step: float = QUANT_STEP

    def __post_init__(self):
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

    def _unit_direction(self, space: NormedSpace, x: np.ndarray) -> np.ndarray:
        if self.direction == "radial":
            nx = space.norm(x)
            if nx == 0.0:
                return space.zero()
            return x / nx
        key = quantize(x, self.quant_step)
        entropy = [self.direction_seed & _MASK64] + [k & _MASK64 for k in key]
        rng = np.random.default_rng(np.random.SeedSequence(entropy))
        while True:
            g = rng.standard_normal(2 * space.dim)
            vec = g[: space.dim] + 1j * g[space.dim :]
            ng = space.norm(vec)
            if ng > 0:
                return vec / ng

    def evaluate(self, space: NormedSpace, x: np.ndarray) -> np.ndarray:
        if self.kind == "none":
            return space.zero()
        if self.kind == "tabulated":
            key = quantize(x, self.quant_step)
            if key in self.table:
                return np.asarray(self.table[key], dtype=np.complex128)
            if self.default is not None:
                return self.default.copy()
            return space.zero()
        if self.kind == "bounded":
            u = self._unit_direction(space, x)
            # Magnitude scale in [0, 1) hashed from the same point key.
            key = quantize(x, self.quant_step)
            entropy = [(self.direction_seed + 1) & _MASK64] + [k & _MASK64 for k in key]
            w = float(np.random.default_rng(np.random.SeedSequence(entropy)).random())
            return self.epsilon * w * u
        # power
        nx = space.norm(x)
        if nx == 0.0:
            if self.r > 0:
                return space.zero()
            if self.r == 0:
                return self.theta * self._unit_direction(space, x)
            raise ZeroDivisionError("power perturbation with r < 0 evaluated at 0")
        return (self.theta * nx**self.r) * self._unit_direction(space, x)


@dataclass(frozen=True, eq=False)
class TestFunction:
    """f = core + perturbation on a normed space."""

    __test__ = False  # not a pytest collection target

    space: NormedSpace
    core: AdditiveCore
    perturbation: Perturbation
    force_zero_at_origin: bool = False

    def __call__(self, x) -> np.ndarray:
        return evaluate(self, x)


def evaluate(f: TestFunction, x) -> np.ndarray:
    """f(x) = core(x) + p(x); exactly zero at the origin when forced."""
    arr = f.space.as_vector(x)
    if f.force_zero_at_origin and not arr.any():
        return f.space.zero()
    return f.core.apply(arr) + f.perturbation.evaluate(f.space, arr)


def additivity_defect(f: TestFunction, x, y) -> float:
    """||f(x+y) - f(x) - f(y)|| in the function's own space."""
    ax = f.space.as_vector(x)
    ay = f.space.as_vector(y)
    return f.space.norm(evaluate(f, ax + ay) - evaluate(f, ax) - evaluate(f, ay))


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
