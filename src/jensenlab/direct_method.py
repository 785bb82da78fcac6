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

#: Row budget of one orbit block: with m points still running, one
#: ``evaluate_many`` call evaluates ROWS // m consecutive orbit steps (at least one).
ROWS = 2048


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
    return _orbit_block(f, xs, scheme, [_scale_power(scheme, n)])[0]


def _orbit_block(f: TestFunction, xs: np.ndarray, scheme: Scheme, powers: list) -> np.ndarray:
    """The orbit terms with scale powers ``powers`` at each row of xs, from one
    ``evaluate_many`` call: a len(powers) x N x dim array. Each step is scaled
    by its Python float power as a term alone is, so a row's bits are the same."""
    fwd = scheme.direction == "forward"
    vals = evaluate_many(f, np.concatenate([p * xs if fwd else xs / p for p in powers]))
    return np.stack([v / p if fwd else p * v
                     for p, v in zip(powers, vals.reshape(len(powers), *xs.shape))])


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

    The orbits run in blocks (``_orbits``): one ``evaluate_many`` call gives
    several orbit steps of every point still iterating, about ``ROWS`` rows.
    Each report is still what ``approximate`` gives alone: ``evaluate_many``
    is row-local, each term is scaled as a term alone is, and rows past a
    point's stop are never read.
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
    residuals (an array), whether it converged, and its error (or None).

    Blocked: one ``evaluate_many`` call gives the next k orbit terms of every
    point still running, k = max(1, min(steps left, ROWS // points running)),
    and each point's stop is found in the block's residual matrix, with its
    count of residuals <= tol carried between blocks. Terms past a point's
    stop are evaluated and discarded: ``evaluate_many`` is row-local and makes
    a term it cannot evaluate non-finite rather than raise, and the scale
    powers are screened before the call, so a discarded row cannot change a
    report."""
    f0 = evaluate_many(f, xs)
    prev = f0.copy()
    running = np.isfinite(f0).all(axis=1)
    errors = np.where(running, None, NumericError("numeric: f(x) is not finite"))
    converged = np.zeros(len(xs), dtype=bool)
    hit = np.zeros(len(xs), dtype=bool)  # the point's last residual is <= tol
    steps = [(np.zeros(0, dtype=np.intp), np.zeros(0))]  # (points, residuals) of each block
    n = 1
    while n <= max_n and running.any():
        idx = np.flatnonzero(running)
        powers = []
        try:
            for step in range(n, n + max(1, min(max_n - n + 1, ROWS // idx.size))):
                powers.append(_scale_power(scheme, step))
        except ScaleOverflowError as e:  # the block ends before it; the next one starts there
            if not powers:
                errors[idx] = e
                break
        k, m, cols = len(powers), idx.size, np.arange(idx.size)
        terms = _orbit_block(f, xs[idx], scheme, powers)  # k x m x dim
        finite = np.isfinite(terms).all(axis=2)
        diffs = terms - np.concatenate([prev[idx][None], terms[:-1]])
        r = f.space.norms(diffs.reshape(k * m, -1)).reshape(k, m)
        small = r <= tol
        # a point stops at a non-finite term, a zero residual or a second residual <= tol in a row
        stop = ~finite | (r == 0.0) | (small & np.concatenate([hit[idx][None], small[:-1]]))
        stopped = stop.any(axis=0)
        last = np.where(stopped, stop.argmax(axis=0), k - 1)
        bad = ~finite[last, cols]
        kept = np.arange(k)[:, None] <= last  # the steps each point takes (an error's go unread)
        steps.append((np.broadcast_to(idx, (k, m))[kept], r[kept]))
        prev[idx] = terms[last, cols]
        hit[idx] = small[last, cols]
        for i, j in zip(idx[bad], last[bad]):
            errors[i] = NumericError(f"numeric: orbit term {n + j} is not finite")
        converged[idx[stopped & ~bad]] = True
        running[idx[stopped]] = False
        n += k
    deviations = f.space.norms(f0 - prev)  # read at converged points only
    # each point's residuals in step order: a stable sort of all blocks by point
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
