"""Direct-method iteration: scaled orbits, Cauchy detection, cross-checks.

A scheme is described by a direction and a real scale lambda (|lambda| != 1):

  forward   term_n(x) = f(lambda^n x) / lambda^n
  backward  term_n(x) = lambda^n f(x / lambda^n)

Every scheme runs as written, and ``label()`` names it so. A backward scheme
with |lambda| < 1 has growing arguments, and its terms equal those of the
forward scheme with scale 1/lambda in exact arithmetic only: the orbit divides
where the other multiplies, so the two round apart. The additive approximant
A(x) is the detected limit of the orbit.
"""

from __future__ import annotations

import math
from functools import cached_property

import numpy as np

from .errors import DegenerateScaleError, NotConvergedError, NumericError, ScaleOverflowError
from .model import ROWS, TestFunction, evaluate_many, pairs_from_vector
from .space import ValueRecord, fold

DIRECTIONS = ("forward", "backward")

#: lambda^n is screened in log space before use: log2 of the largest power kept.
_LOG2_DOUBLE_MAX = 1023.0


class Scheme(ValueRecord):
    """An orbit scheme, equal and hashed by (direction, scale)."""

    def __init__(self, direction: str, scale: float):
        self.direction, self.scale = direction, scale
        if self.direction not in DIRECTIONS:
            raise ValueError(f"direction must be one of {DIRECTIONS}, got {self.direction!r}")
        s = float(self.scale)
        if not math.isfinite(s) or s == 0.0 or abs(s) == 1.0:
            raise DegenerateScaleError(
                f"degenerate-scale: scale must be finite with |scale| not in {{0, 1}}, got {s}"
            )

    def _key(self) -> tuple:
        return self.direction, self.scale

    def label(self) -> str:
        return f"{self.direction} scale={self.scale:g}"


def forward(scale: float) -> Scheme:
    return Scheme("forward", scale)


def backward(scale: float) -> Scheme:
    return Scheme("backward", scale)


def _scale_power(scheme: Scheme, n: int) -> float:
    """lambda^n with overflow screening in log space."""
    if n < 0:
        raise ValueError(f"orbit index must be nonnegative, got {n}")
    if n * abs(math.log2(abs(scheme.scale))) > _LOG2_DOUBLE_MAX:
        raise ScaleOverflowError(
            f"scale-overflow: |{scheme.scale:g}|^{n} leaves the double range"
        )
    return float(scheme.scale) ** n


def _orbit_block(f: TestFunction, xs: np.ndarray, scheme: Scheme, powers: list) -> np.ndarray:
    """The orbit terms with scale powers ``powers`` at each row of xs, from one
    ``evaluate_many`` call: a len(powers) x N x dim array, scaled by one broadcast
    complex product (or quotient) with the complex power column, the loop a Python
    float power runs, so a row's bits are a term's alone. Step 0's rows are xs and its
    terms f(x), unscaled: a complex product with 1.0 can flip a zero part's sign."""
    fwd, p = scheme.direction == "forward", np.array(powers, dtype=complex)[:, None, None]
    step0 = slice(int(powers[0] == 1.0))  # lambda^n = 1 only at n = 0
    rows = p * xs if fwd else xs / p
    rows[step0] = xs
    vals = evaluate_many(f, rows.reshape(-1, xs.shape[1])).reshape(rows.shape)
    terms = vals / p if fwd else p * vals
    terms[step0] = vals[step0]
    return terms


class ConvergenceReport:
    """Per-point iteration outcome.

    ``residuals[k]`` is ||term_{k+1} - term_k||; ``iterations`` equals
    ``len(residuals)``. ``tail_bound`` estimates the remaining distance to the
    limit from the trailing geometric decay (None when no ratio is available).
    """

    def __init__(self, point: np.ndarray, value: np.ndarray, iterations: int, residuals: list,
                 tail_bound: float | None, converged: bool):
        self.point, self.value, self.iterations = point, value, iterations
        self.residuals, self.tail_bound, self.converged = residuals, tail_bound, converged

    def to_json_dict(self) -> dict:
        tail = "unavailable" if self.tail_bound is None else self.tail_bound
        return {"point": pairs_from_vector(self.point), "value": pairs_from_vector(self.value),
                "iterations": self.iterations, "residuals": list(self.residuals),
                "tail_bound": tail, "converged": self.converged}


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


class Approximants:
    """The approximation pass over N points as columns: A(x) (N x dim), ||f(x) - A(x)||
    (NaN where a point did not converge), residual counts, converged flags, each
    failing orbit's error by point, and each block's (points, residuals, last read) steps."""

    def __init__(self, values: np.ndarray, deviations: np.ndarray, iterations: np.ndarray,
                 converged: np.ndarray, errors: dict, steps: list):
        self.values, self.deviations, self.iterations = values, deviations, iterations
        self.converged, self.errors, self.steps = converged, errors, steps

    @cached_property
    def residuals(self) -> list:
        """Each point's residual array in step order, split out on first use."""
        kept = [(idx, r, np.arange(len(r))[:, None] <= last) for idx, r, last in self.steps]
        points = np.concatenate([np.zeros(0, np.intp), *(np.broadcast_to(i, r.shape)[k]
                                                         for i, r, k in kept)])
        res = np.concatenate([np.zeros(0), *(r[k] for _, r, k in kept)])
        return np.split(res[np.argsort(points, kind="stable")], np.cumsum(self.iterations)[:-1])

    def failure(self, scheme: Scheme, strict: bool = True) -> tuple:
        """(index, error) of the first point in input order whose orbit has an error
        or, when ``strict``, that did not converge; (N, None) when there is none."""
        failed = np.flatnonzero(~self.converged).tolist() if strict else sorted(self.errors)
        if not failed:
            return len(self.converged), None
        i = failed[0]
        return i, self.errors.get(i) or NotConvergedError(
            f"not-converged: point {i} did not converge within max_n under {scheme.label()}")

    def report(self, i: int, point) -> ConvergenceReport:
        """Point i's ConvergenceReport."""
        res = self.residuals[i].tolist()
        return ConvergenceReport(point, self.values[i], len(res), res, _tail_estimate(res),
                                 bool(self.converged[i]))


def approximate(f: TestFunction, x, scheme: Scheme, tol: float,
                max_n: int = 200) -> ConvergenceReport:
    """Iterate orbit terms until Cauchy within tol, confirmed twice in a row.

    Two consecutive residuals <= tol are required before declaring
    convergence (guards against accidental small steps of oscillatory
    perturbations); an exactly-zero residual short-circuits, since identical
    consecutive terms cannot refine further. Hitting ``max_n`` yields
    ``converged=False`` rather than an error; a batch of one of ``approximate_points``.
    """
    xs = f.space.as_vectors([x])
    return approximate_points(f, xs, scheme, tol, max_n=max_n, strict=False).report(0, xs[0])


def approximate_points(f: TestFunction, points, scheme: Scheme, tol: float,
                       max_n: int = 200, strict: bool = True) -> Approximants:
    """The approximation pass over ``points`` as columns, raising the first failure
    in input order (see ``Approximants.failure``). The orbits run in blocks
    (``_orbits``), and each point's columns are what ``approximate`` gives alone:
    ``evaluate_many`` is row-local, each term is scaled as a term alone is, and
    rows past a point's stop are never read."""
    out = _orbits(f, f.space.as_vectors(points), scheme, tol, max_n)
    _, err = out.failure(scheme, strict)
    if err:
        raise err
    return out


def _predicted_stop(r: np.ndarray, tol: float) -> int:
    """Steps until the slowest point of a block's residuals r (steps x running points)
    has two in a row <= tol at its mean contraction; ROWS if one shows no contraction."""
    log_first, log_last = np.log(r[0]), np.log(r[-1])
    log_q = (log_last - log_first) / max(1, len(r) - 1)  # 0 for a single residual
    if not log_q.max(initial=-np.inf) < 0.0:  # NaN where a residual is +inf
        return ROWS
    # ceil and max(0, .) are monotone: the slowest point's count is that of the max
    need = np.ceil(((math.log(tol) - log_last) / log_q).max(initial=0.0))
    return int(min(ROWS, need + 1.0))


@np.errstate(over="ignore", invalid="ignore")  # a non-finite term is a NumericError
def _orbits(f: TestFunction, xs: np.ndarray, scheme: Scheme, tol: float,
            max_n: int) -> Approximants:
    """The approximation pass over the rows of xs, keeping every point's error.
    Blocked: one ``evaluate_many`` call gives the next k orbit terms of every point
    still running, f(x) (step 0) first. k = max(1, min(steps left, ROWS // points
    running, the ``_predicted_stop`` of the last block)), and each point's stop is
    found in the block's residual matrix, unless every residual is finite and > tol.
    Only the running points are carried, as compact columns (point index, point, last
    term, whether its last residual was <= tol; all share the step count n), shrunk by
    one mask in a block where some stop. A point's value, residual count and
    convergence are written once, at its stop or when ``max_n`` runs out, so a block
    in which none stops only keeps its last row.
    Terms past a point's stop are evaluated and discarded: ``evaluate_many`` is
    row-local and makes a term it cannot evaluate non-finite rather than raise, and
    the scale powers are screened before the call, so neither a discarded row nor
    the block sizes can change a point's columns."""
    if tol <= 0:
        raise ValueError(f"tol must be positive, got {tol}")
    f0 = values = prev = np.zeros_like(xs)
    idx, pts, hit = np.arange(len(xs)), xs, np.zeros(len(xs), dtype=bool)  # hit: last r <= tol
    errors = {}
    converged = np.zeros(len(xs), dtype=bool)
    iterations = np.zeros(len(xs), dtype=np.intp)
    steps = []  # (points, residuals, last row read) of each block
    n, predicted = 0, ROWS
    while idx.size and n <= max(max_n, 0):
        powers = []
        try:
            for step in range(n, n + max(1, min(max_n - n + 1, ROWS // idx.size, predicted))):
                powers.append(_scale_power(scheme, step))
        except ScaleOverflowError as e:  # the block ends before it; the next one starts there
            if not powers:
                errors.update(dict.fromkeys(idx.tolist(), e))
                break
        terms = _orbit_block(f, pts, scheme, powers)  # steps n .. n + len(powers) - 1
        if n == 0:  # every point's f(x), then its steps from 1
            f0, values, n = terms[0], terms[0].copy(), 1
            ok = fold(np.logical_and, np.isfinite(f0).T)
            errors.update(dict.fromkeys(np.flatnonzero(~ok).tolist(),
                                        NumericError("numeric: f(x) is not finite")))
            prev, terms = f0, terms[1:]
            if not ok.all():
                idx, pts, prev, hit, terms = idx[ok], pts[ok], prev[ok], hit[ok], terms[:, ok]
            if not terms.size:  # f(x) alone, or no f(x) finite
                continue
        k, m = len(terms), idx.size
        diffs = np.empty(terms.shape, terms.dtype)
        np.subtract(terms[0], prev, out=diffs[0])
        np.subtract(terms[1:], terms[:-1], out=diffs[1:])
        r = f.space.norms(diffs.reshape(k * m, -1)).reshape(k, m)
        small = r <= tol
        # a point stops at a non-finite term, a zero residual or a second residual <= tol in
        # a row: none where every residual is finite and > tol (a non-finite term's is not)
        stops = small.any() or not r.max() < np.inf
        if stops:
            finite = fold(np.logical_and, np.isfinite(terms).transpose(2, 0, 1))
            stop = ~finite | (r == 0.0) | (small & np.concatenate([hit[None], small[:-1]]))
            stops = stop.any()
        if stops:
            stopped = stop.any(axis=0)
            last = np.where(stopped, stop.argmax(axis=0), k - 1)
            cols = np.flatnonzero(stopped)
            at, j = idx[cols], last[cols]
            values[at], iterations[at] = terms[j, cols], n + j  # an error's steps go unread
            bad = ~finite[j, cols]
            for i, step in zip(at[bad].tolist(), (n + j)[bad].tolist()):
                errors[i] = NumericError(f"numeric: orbit term {step} is not finite")
            converged[at[~bad]] = True
            steps.append((idx, r, last))
            keep = np.flatnonzero(~stopped)  # taken by index: five mask selections cost 4x
            idx, pts, prev, hit = (idx.take(keep), pts.take(keep, axis=0),
                                   terms[-1].take(keep, axis=0), small[-1].take(keep))
            r = r.take(keep, axis=1)
        else:  # no point stopped: the running columns are the block's last row
            steps.append((idx, r, np.full(m, k - 1)))
            prev, hit = terms[-1], small[-1]
        predicted = _predicted_stop(r, tol)
        n += k
    values[idx], iterations[idx] = prev, n - 1  # still running: out of max_n or of scale powers
    deviations = np.where(converged, f.space.norms(f0 - values), np.nan)
    return Approximants(values, deviations, iterations, converged, errors, steps)


def additive_limit_check(f: TestFunction, scheme: Scheme, tol: float, pairs,
                         max_n: int = 200) -> float:
    """Max additivity defect ||A(x+y) - A(x) - A(y)|| of the approximant."""
    x, y = (f.space.as_vectors([p[k] for p in pairs]) for k in range(2))
    # x, y and x+y of each pair in turn, so that a failure is raised at its pair
    xs = np.stack([x, y, x + y], axis=1).reshape(-1, f.space.dim)
    a = approximate_points(f, xs, scheme, tol, max_n=max_n).values
    return float(f.space.norms(a[2::3] - a[0::3] - a[1::3]).max(initial=0.0))


def uniqueness_crosscheck(f: TestFunction, scheme1: Scheme, scheme2: Scheme,
                          points, tol: float, max_n: int = 200) -> float:
    """Max pointwise disagreement between the two schemes' approximants. The first
    failing point raises, scheme1's failure before scheme2's at the same point."""
    xs = f.space.as_vectors(points)
    a1, a2 = outs = [_orbits(f, xs, s, tol, max_n) for s in (scheme1, scheme2)]
    _, err = min((o.failure(s) for o, s in zip(outs, (scheme1, scheme2))), key=lambda e: e[0])
    if err:
        raise err
    return float(f.space.norms(a1.values - a2.values).max(initial=0.0))
