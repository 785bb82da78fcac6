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
from .model import TestFunction, evaluate_many

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
    return orbit_terms(f, f.space.as_vectors([x]), scheme, n)[0]


def orbit_terms(f: TestFunction, xs: np.ndarray, scheme: Scheme, n: int) -> np.ndarray:
    """The n-th orbit term at each row of an N x dim array."""
    p = _scale_power(scheme, n)
    if scheme.direction == "forward":
        return evaluate_many(f, p * xs) / p
    return p * evaluate_many(f, xs / p)


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
    ``converged=False`` rather than an error; a batch of one of ``approximate_points``.
    """
    rep, _ = next(approximate_points(f, [x], scheme, tol, max_n=max_n, strict=False))
    return rep


def approximate_points(f: TestFunction, points, scheme: Scheme, tol: float,
                       max_n: int = 200, strict: bool = True):
    """The approximation pass: yields ``(report, ||f(x) - A(x)||)`` per point,
    in order, with A(x) = ``report.value``. The first point that does not
    converge within ``max_n`` raises NotConvergedError; with ``strict=False``
    it is yielded with deviation None instead. A NumericError or
    ScaleOverflowError is raised at the point whose orbit has it.

    The orbits run in lockstep, one batched term per step over the points
    still iterating, so each report is what ``approximate`` gives alone.
    """
    if tol <= 0:
        raise ValueError(f"tol must be positive, got {tol}")
    xs = f.space.as_vectors(points)
    values, deviations, residuals, converged, errors = _orbits(f, xs, scheme, tol, max_n)
    for i, x in enumerate(xs):
        if errors[i] is not None:
            raise errors[i]
        res = residuals[i].tolist()
        rep = ConvergenceReport(x, values[i], len(res), res, _tail_estimate(res), converged[i])
        if rep.converged:
            yield rep, deviations[i]
        elif strict:
            raise NotConvergedError(f"not-converged: point {i} did not converge within "
                                    f"max_n under {scheme.label()}")
        else:
            yield rep, None


@np.errstate(over="ignore", invalid="ignore")  # a non-finite term is a NumericError
def _orbits(f: TestFunction, xs: np.ndarray, scheme: Scheme, tol: float, max_n: int):
    """Per point: the last term, ||f(x) - term|| (0 unless converged), the
    residuals (an array), whether it converged, and its error (or None)."""
    f0 = evaluate_many(f, xs)
    prev = f0.copy()
    running = np.isfinite(f0).all(axis=1)
    errors = np.where(running, None, NumericError("numeric: f(x) is not finite"))
    converged = np.zeros(len(xs), dtype=bool)
    hits = np.zeros(len(xs), dtype=int)
    steps = [(np.zeros(0, dtype=np.intp), np.zeros(0))]  # (points, residuals) of each step
    for n in range(1, max_n + 1):
        idx = np.flatnonzero(running)
        if not idx.size:
            break
        try:
            cur = orbit_terms(f, xs[idx], scheme, n)
        except ScaleOverflowError as e:
            errors[idx] = e
            break
        finite = np.isfinite(cur).all(axis=1)
        errors[idx[~finite]] = NumericError(f"numeric: orbit term {n} is not finite")
        running[idx[~finite]] = False
        idx, cur = idx[finite], cur[finite]
        r = f.space.norms(cur - prev[idx])
        steps.append((idx, r))
        prev[idx] = cur
        hits[idx] = np.where(r <= tol, hits[idx] + 1, 0)
        done = idx[(r == 0.0) | (hits[idx] >= 2)]
        converged[done] = True
        running[done] = False
    deviations = f.space.norms(f0 - prev)  # read at converged points only
    # each point's residuals in step order: a stable sort of all steps by point
    points, res = (np.concatenate(c) for c in zip(*steps))
    residuals = np.split(res[np.argsort(points, kind="stable")],
                         np.cumsum(np.bincount(points, minlength=len(xs)))[:-1])
    return prev, deviations.tolist(), residuals, converged.tolist(), errors


def additive_limit_check(f: TestFunction, scheme: Scheme, tol: float, pairs) -> float:
    """Max additivity defect ||A(x+y) - A(x) - A(y)|| of the approximant."""
    x, y = (f.space.as_vectors([p[k] for p in pairs]) for k in range(2))
    # x, y and x+y of each pair in turn, so that a failure is raised at its pair
    xs = np.stack([x, y, x + y], axis=1).reshape(-1, f.space.dim)
    a = f.space.as_vectors([rep.value for rep, _ in approximate_points(f, xs, scheme, tol)])
    return float(f.space.norms(a[2::3] - a[0::3] - a[1::3]).max(initial=0.0))


def uniqueness_crosscheck(f: TestFunction, scheme1: Scheme, scheme2: Scheme,
                          points, tol: float) -> float:
    """Max pointwise disagreement between the two schemes' approximants."""
    xs = f.space.as_vectors(points)
    a = f.space.as_vectors([rep.value for pair in zip(approximate_points(f, xs, scheme1, tol),
                                                      approximate_points(f, xs, scheme2, tol))
                            for rep, _ in pair])
    return float(f.space.norms(a[0::2] - a[1::2]).max(initial=0.0))
