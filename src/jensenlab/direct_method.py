"""Direct-method iteration: scaled orbits, Cauchy detection, cross-checks.

A scheme is described by a direction and a real scale lambda (|lambda| != 1):

  forward   term_n(x) = f(lambda^n x) / lambda^n
  backward  term_n(x) = lambda^n f(x / lambda^n)

A backward scheme with |lambda| < 1 has growing arguments and is the same
sequence as the forward scheme with scale 1/lambda (and vice versa), so every
scheme normalizes to an expanding-argument form with |scale| > 1; ``label()``
records the scheme as written. The additive approximant A(x) is the detected
limit of the orbit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateScaleError, NotConvergedError, NumericError, ScaleOverflowError
from .model import TestFunction, evaluate

DIRECTIONS = ("forward", "backward")

#: Hard cap on the orbit index; lambda^n is screened in log space before use.
MAX_ORBIT_INDEX = 512
_LOG2_DOUBLE_MAX = 1023.0


@dataclass(frozen=True)
class Scheme:
    direction: str
    scale: float

    def __post_init__(self):
        if self.direction not in DIRECTIONS:
            raise ValueError(f"direction must be one of {DIRECTIONS}, got {self.direction!r}")
        s = float(self.scale)
        if not math.isfinite(s) or s == 0.0 or abs(s) == 1.0:
            raise DegenerateScaleError(
                f"degenerate-scale: scale must be finite with |scale| not in {{0, 1}}, got {s}"
            )

    def normalized(self) -> "Scheme":
        """Equivalent scheme with |scale| > 1 (same term sequence)."""
        if abs(self.scale) > 1.0:
            return self
        flipped = "backward" if self.direction == "forward" else "forward"
        return Scheme(flipped, 1.0 / self.scale)

    def label(self) -> str:
        base = f"{self.direction} scale={self.scale:g}"
        if abs(self.scale) < 1.0:
            norm = self.normalized()
            return f"{base} (runs as {norm.direction} scale={norm.scale:g})"
        return base


def forward(scale: float) -> Scheme:
    return Scheme("forward", scale)


def backward(scale: float) -> Scheme:
    return Scheme("backward", scale)


def _scale_power(scheme: Scheme, n: int) -> float:
    """lambda^n with overflow screening in log space."""
    if n < 0:
        raise ValueError(f"orbit index must be nonnegative, got {n}")
    if n > MAX_ORBIT_INDEX:
        raise ScaleOverflowError(f"scale-overflow: orbit index {n} exceeds cap {MAX_ORBIT_INDEX}")
    if n * abs(math.log2(abs(scheme.scale))) > _LOG2_DOUBLE_MAX:
        raise ScaleOverflowError(
            f"scale-overflow: |{scheme.scale:g}|^{n} leaves the double range"
        )
    return float(scheme.scale) ** n


def orbit_term(f: TestFunction, x, scheme: Scheme, n: int) -> np.ndarray:
    """The n-th orbit term; n = 0 returns f(x)."""
    arr = f.space.as_vector(x)
    p = _scale_power(scheme, n)
    if scheme.direction == "forward":
        return evaluate(f, p * arr) / p
    return p * evaluate(f, arr / p)


@dataclass(frozen=True, eq=False)
class ConvergenceReport:
    """Per-point iteration outcome.

    ``residuals[k]`` is ||term_{k+1} - term_k||; ``iterations`` equals
    ``len(residuals)``. ``tail_bound`` estimates the remaining distance to the
    limit from the trailing geometric decay (None when no ratio is available).
    """

    point: np.ndarray
    value: np.ndarray
    iterations: int
    residuals: list
    tail_bound: float | None
    converged: bool

    def to_json_dict(self) -> dict:
        from .model import pairs_from_vector

        return {
            "point": pairs_from_vector(self.point),
            "value": pairs_from_vector(self.value),
            "iterations": self.iterations,
            "residuals": list(self.residuals),
            "tail_bound": "unavailable" if self.tail_bound is None else self.tail_bound,
            "converged": self.converged,
        }


def _tail_estimate(residuals: list) -> float | None:
    if not residuals:
        return None
    last = residuals[-1]
    if last == 0.0:
        return 0.0
    if len(residuals) >= 2 and residuals[-2] > 0.0:
        q = last / residuals[-2]
        if q < 1.0:
            return last * q / (1.0 - q)
    return None


def approximate(f: TestFunction, x, scheme: Scheme, tol: float,
                max_n: int = 200) -> ConvergenceReport:
    """Iterate orbit terms until Cauchy within tol, confirmed twice in a row.

    Two consecutive residuals <= tol are required before declaring
    convergence (guards against accidental small steps of oscillatory
    perturbations); an exactly-zero residual short-circuits, since identical
    consecutive terms cannot refine further. Hitting ``max_n`` yields
    ``converged=False`` rather than an error.
    """
    if tol <= 0:
        raise ValueError(f"tol must be positive, got {tol}")
    arr = f.space.as_vector(x)
    prev = evaluate(f, arr)
    if not np.isfinite(prev).all():
        raise NumericError("numeric: f(x) is not finite")
    residuals: list[float] = []
    hits = 0
    for n in range(1, max_n + 1):
        cur = orbit_term(f, arr, scheme, n)
        if not np.isfinite(cur).all():
            raise NumericError(f"numeric: orbit term {n} is not finite")
        r = f.space.norm(cur - prev)
        residuals.append(r)
        prev = cur
        if r == 0.0:
            return ConvergenceReport(arr, cur, n, residuals, 0.0, True)
        hits = hits + 1 if r <= tol else 0
        if hits >= 2:
            return ConvergenceReport(arr, cur, n, residuals, _tail_estimate(residuals), True)
    return ConvergenceReport(arr, prev, max_n, residuals, _tail_estimate(residuals), False)


def approximate_points(f: TestFunction, points, scheme: Scheme, tol: float,
                       max_n: int = 200, strict: bool = True):
    """The approximation pass: yields ``(report, ||f(x) - A(x)||)`` per point,
    in order, with A(x) = ``report.value``. The first point that does not
    converge within ``max_n`` raises NotConvergedError; with ``strict=False``
    it is yielded with deviation None instead.
    """
    for i, x in enumerate(points):
        rep = approximate(f, x, scheme, tol, max_n=max_n)
        if rep.converged:
            yield rep, f.space.norm(evaluate(f, rep.point) - rep.value)
        elif strict:
            raise NotConvergedError(f"not-converged: point {i} did not converge within "
                                    f"max_n under {scheme.label()}")
        else:
            yield rep, None


def additive_limit_check(f: TestFunction, scheme: Scheme, tol: float, pairs) -> float:
    """Max additivity defect ||A(x+y) - A(x) - A(y)|| of the approximant."""
    worst = 0.0
    for x, y in pairs:
        ax, ay = f.space.as_vector(x), f.space.as_vector(y)
        (rx, _), (ry, _), (rxy, _) = approximate_points(f, (ax, ay, ax + ay), scheme, tol)
        worst = max(worst, f.space.norm(rxy.value - rx.value - ry.value))
    return worst


def uniqueness_crosscheck(f: TestFunction, scheme1: Scheme, scheme2: Scheme,
                          points, tol: float) -> float:
    """Max pointwise disagreement between the two schemes' approximants."""
    worst = 0.0
    for (rep1, _), (rep2, _) in zip(approximate_points(f, points, scheme1, tol),
                                    approximate_points(f, points, scheme2, tol)):
        worst = max(worst, f.space.norm(rep1.value - rep2.value))
    return worst
