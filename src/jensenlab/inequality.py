"""Parameter admissibility, defect evaluation, and empirical control envelopes.

Two inequality families are supported. Writing E = f for brevity, the
evaluated expressions are

  family A:  ||f(x+y+az) + f(x+y-az) - 2f(x) - 2f(y)||
             <= |rho1| ||f(x+y+az) - f(x+y) - f(az)||
              + |rho2| ||f(x+y-az) + f(-x) + f(az-y)||

  family B:  ||f(x+by+az) - f(x-az) - b f(y) - 2 f(az)||
             <= |rho1| ||f(x+az) - f(x) - f(az)||
              + |rho2| ||f(x+by-az) - f(x) - b f(y) + f(az)||

with a = alpha, b = beta real and nonzero. The defect of a triple is the
signed value lhs_norm - rhs_norm: the inequality holds with control phi
exactly when defect <= phi(x, y, z). Admissibility is strict, as printed:

  family A:  |rho1| + 3 |rho2| < 2
  family B:  |rho2| < 1  and  |beta + 2| >= |rho1| + |rho2 (1 - beta)|
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateParameterError,
    EmptySampleError,
    FamilyError,
    InadmissibleError,
    NumericError,
)
from .model import ROWS, TestFunction, evaluate_many
from .space import SamplePlan, draw_samples, fold

FAMILIES = ("A", "B")

#: Floats in one array of a blocked pass: the power-law fit's exponent grid and
#: the series' term matrix (``bounds``) are evaluated in blocks of about this
#: many elements, so their peak memory does not grow with the grid or the sample.
CHUNK_ELEMENTS = 1 << 15

#: The exponents the power-law fit tries before refining the best of them.
FIT_GRID = np.linspace(-2.0, 6.0, 161)


@dataclass(frozen=True)
class RhoParams:
    """Inequality parameters: complex rho1/rho2, real alpha (both families),
    real beta (family B only; ignored by family A)."""

    family: str
    rho1: complex
    rho2: complex
    alpha: float
    beta: float | None = None

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise FamilyError(f"family: expected one of {FAMILIES}, got {self.family!r}")

    def check_degenerate(self):
        if self.alpha == 0:
            raise DegenerateParameterError("degenerate-parameter: alpha = 0")
        if self.family == "B" and not self.beta:
            raise DegenerateParameterError("degenerate-parameter: family B requires beta != 0")


@dataclass(frozen=True)
class Admissibility:
    ok: bool
    detail: str

    def __bool__(self) -> bool:
        return self.ok


def admissible(params: RhoParams) -> Admissibility:
    """Strict admissibility check with a diagnostic naming the violated condition.

    |rho2| is surfaced separately in the family-A diagnostic because the
    oddness step of the additivity argument relies on |rho2| < 1 (implied by
    the main condition, since 3 |rho2| < 2).
    """
    params.check_degenerate()
    r1 = abs(params.rho1)
    r2 = abs(params.rho2)
    if params.family == "A":
        lhs = r1 + 3 * r2
        detail = f"family A: |rho1| + 3|rho2| = {lhs:.6g} (need < 2); |rho2| = {r2:.6g}"
        return Admissibility(lhs < 2.0, detail)
    b = float(params.beta)
    cond1 = r2 < 1.0
    lhs = abs(b + 2.0)
    rhs = r1 + r2 * abs(1.0 - b)
    cond2 = lhs >= rhs
    detail = (f"family B: |rho2| = {r2:.6g} (need < 1); "
              f"|beta+2| = {lhs:.6g} vs |rho1| + |rho2(1-beta)| = {rhs:.6g} (need >=)")
    return Admissibility(cond1 and cond2, detail)


def require_admissible(params: RhoParams):
    """Raise InadmissibleError, naming the violated condition, unless ``params`` is admissible."""
    adm = admissible(params)
    if not adm:
        raise InadmissibleError(f"inadmissible: {adm.detail}")


#: Each family's lhs, e1 and e2 as (coefficient, argument) terms, summed left
#: to right as the module docstring prints them; "-b" stands for -beta. An
#: argument gives the coefficients of (x, y, beta y, alpha z), also combined
#: left to right (az - y as -y + az, which rounds the same).
FAMILY_TERMS = {
    "A": {
        "lhs": ((1, (1, 1, 0, 1)), (1, (1, 1, 0, -1)), (-2, (1, 0, 0, 0)), (-2, (0, 1, 0, 0))),
        "e1": ((1, (1, 1, 0, 1)), (-1, (1, 1, 0, 0)), (-1, (0, 0, 0, 1))),
        "e2": ((1, (1, 1, 0, -1)), (1, (-1, 0, 0, 0)), (1, (0, -1, 0, 1))),
    },
    "B": {
        "lhs": ((1, (1, 0, 1, 1)), (-1, (1, 0, 0, -1)), ("-b", (0, 1, 0, 0)), (-2, (0, 0, 0, 1))),
        "e1": ((1, (1, 0, 0, 1)), (-1, (1, 0, 0, 0)), (-1, (0, 0, 0, 1))),
        "e2": ((1, (1, 0, 1, -1)), (-1, (1, 0, 0, 0)), ("-b", (0, 1, 0, 0)), (1, (0, 0, 0, 1))),
    },
}


def _combine(terms):
    """Left-to-right sum of (coefficient, value) terms: a negative coefficient
    subtracts, a zero one is skipped and a unit one does not multiply."""
    total = None
    for c, v in terms:
        if c == 0:
            continue
        v = v if abs(c) == 1 else abs(c) * v
        total = (v if c > 0 else -v) if total is None else (total + v if c > 0 else total - v)
    return total


@np.errstate(over="ignore", invalid="ignore")  # a non-finite defect is a NumericError
def defect_many(f: TestFunction, triples, params: RhoParams) -> tuple:
    """The defects of (x, y, z) triples, an ``(N, 3, dim)`` array or a sequence, as
    the columns (x_norm, y_norm, z_norm, lhs_norm, rhs_norm, defect), where
    defect = lhs_norm - rhs_norm exactly as computed. ``f`` is evaluated once per
    distinct argument of the family (8 for family A, 7 for family B), on every
    triple at once. A triple whose defect is not finite raises NumericError."""
    params.check_degenerate()
    sp = f.space
    xyz = (triples.swapaxes(0, 1) if isinstance(triples, np.ndarray)
           else [[t[k] for t in triples] for k in range(3)])
    x, y, z = map(sp.as_vectors, xyz)
    beta = float(params.beta) if params.family == "B" else 0.0
    basis = (x, y, beta * y, params.alpha * z)
    exprs = FAMILY_TERMS[params.family]
    args = list(dict.fromkeys(arg for terms in exprs.values() for _, arg in terms))
    values, per = {}, max(1, ROWS // max(1, len(x)))  # distinct arguments per evaluate_many call
    for group in (args[i:i + per] for i in range(0, len(args), per)):
        rows = evaluate_many(f, np.concatenate([_combine(zip(arg, basis)) for arg in group]))
        values.update(zip(group, np.split(rows, len(group))))
    lhs, e1, e2 = (_combine((-beta if c == "-b" else c, values[arg]) for c, arg in exprs[name])
                   for name in ("lhs", "e1", "e2"))
    lhs_norm = sp.norms(lhs)
    rhs_norm = abs(params.rho1) * sp.norms(e1) + abs(params.rho2) * sp.norms(e2)
    defects = lhs_norm - rhs_norm
    bad = np.flatnonzero(~np.isfinite(defects))
    if bad.size:
        raise NumericError(f"numeric: the defect of triple {bad[0]} is not finite")
    return sp.norms(x), sp.norms(y), sp.norms(z), lhs_norm, rhs_norm, defects


# --- measured control envelopes ---------------------------------------------


@dataclass(frozen=True, eq=False)
class MeasuredEnvelope:
    """Shell-wise empirical envelope of the clamped defect.

    Each sampled triple contributes max(0, defect) to the shell containing its
    largest component norm; ``cum_max`` is the running max of that table, the
    table e of ``bounds.ControlFunction.measured``. ``fit_theta`` / ``fit_r`` is
    a least-squares power-law fit defect ~ theta (||x||^r + ||y||^r + ||z||^r)
    over the same samples.
    """

    edges: np.ndarray
    shell_max: np.ndarray
    cum_max: np.ndarray
    fit_theta: float
    fit_r: float
    sample_count: int


def _golden_section(fn, lo: float, hi: float) -> float:
    """A minimizer of ``fn`` on [lo, hi]: the better inner point of the bracket
    that a golden-section search (Kiefer, Proc. AMS 4, 1953) narrows to 1e-5."""
    g = (5.0 ** 0.5 - 1.0) / 2.0
    x1, x2 = hi - g * (hi - lo), lo + g * (hi - lo)
    f1, f2 = fn(x1), fn(x2)
    while hi - lo > 1e-5:
        if f1 < f2:  # the minimum is in [lo, x2]
            hi, x2, f2, x1 = x2, x1, f1, x2 - g * (x2 - lo)
            f1 = fn(x1)
        else:  # in [x1, hi]
            lo, x1, f1, x2 = x1, x2, f2, x1 + g * (hi - x1)
            f2 = fn(x2)
    return x1 if f1 < f2 else x2


def _grid_sse(norms: np.ndarray, d: np.ndarray, rs: np.ndarray = FIT_GRID) -> tuple:
    """(theta, SSE): the least-squares theta >= 0 of defect ~ theta (a^r + b^r + c^r)
    and its sum of squared errors at each exponent r of ``rs``, in blocks of about
    CHUNK_ELEMENTS powers; an exponent's values do not depend on the others."""
    thetas, sses = [], []
    step = max(1, CHUNK_ELEMENTS // norms.size)
    for lo in range(0, rs.size, step):
        block = rs[lo:lo + step]
        p = np.empty((block.size,) + norms.shape)  # filled row by row: stacking a list doubles it
        for k, r in enumerate(block):
            # ``**`` with one exponent: at r = -1, 0.5 and 2 numpy takes an exact
            # reciprocal, sqrt or square, not pow as on an exponent array
            p[k] = norms ** r
        g = p[..., 0] + p[..., 1] + p[..., 2]
        denom = np.matmul(g[:, None], g[..., None])[:, 0, 0]  # each row's g @ g
        gd = np.matmul(g[:, None], d[:, None])[:, 0, 0]
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):  # as float division
            theta = np.where(denom != 0.0, np.maximum(gd / denom, 0.0), 0.0)
        thetas.append(theta)
        sses.append(((theta[:, None] * g - d) ** 2).sum(axis=1))
    return np.concatenate(thetas), np.concatenate(sses)


def _fit_power_law(norms: np.ndarray, defects: np.ndarray) -> tuple[float, float]:
    """Least squares for defect ~ theta (a^r + b^r + c^r); theta >= 0: the best
    exponent of FIT_GRID, refined by golden section."""
    d = np.clip(defects, 0.0, None)
    if d.max(initial=0.0) <= 1e-14:
        return 0.0, 0.0
    _, sse = _grid_sse(norms, d)
    # the first smallest SSE, as min() over the grid: a NaN wins only in first place
    best = float(FIT_GRID[0 if np.isnan(sse[0]) else np.nanargmin(sse)])
    r_hat = _golden_section(lambda r: _grid_sse(norms, d, np.array([r]))[1][0],
                            best - 0.1, best + 0.1)
    return float(_grid_sse(norms, d, np.array([r_hat]))[0][0]), r_hat


def measure_envelope(f: TestFunction, params: RhoParams, plan: SamplePlan,
                     shells: int = 8) -> MeasuredEnvelope:
    """Sample triples, bucket clamped defects into log-spaced norm shells."""
    require_admissible(params)
    triples = draw_samples(f.space, plan, arity=3)
    if not len(triples):
        raise EmptySampleError("empty-sample: envelope needs at least one triple")
    if shells < 1:
        raise ValueError(f"shells must be positive, got {shells}")

    lo = plan.inner_radius()
    edges = np.geomspace(lo, plan.radius, shells + 1)
    nx, ny, nz, _, _, defects = defect_many(f, triples, params)
    shell_max = np.zeros(shells)
    # the shell (edges[i], edges[i+1]] of the largest norm, clamped to the table
    shell = np.clip(np.searchsorted(edges, fold(np.maximum, (nx, ny, nz))) - 1, 0, shells - 1)
    np.maximum.at(shell_max, shell, np.maximum(defects, 0.0))

    theta_hat, r_hat = _fit_power_law(np.stack([nx, ny, nz], axis=1), defects)
    return MeasuredEnvelope(edges=edges, shell_max=shell_max,
                            cum_max=np.maximum.accumulate(shell_max),
                            fit_theta=theta_hat, fit_r=r_hat,
                            sample_count=len(triples))
