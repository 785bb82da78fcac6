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


class RhoParams:
    """Inequality parameters: complex rho1/rho2, real alpha (both families),
    real beta (family B only; ignored by family A); equal and hashed by all five."""

    def __init__(self, family: str, rho1: complex, rho2: complex, alpha: float,
                 beta: float | None = None):
        self.family, self.rho1, self.rho2, self.alpha, self.beta = family, rho1, rho2, alpha, beta
        if self.family not in FAMILIES:
            raise FamilyError(f"family: expected one of {FAMILIES}, got {self.family!r}")

    def _key(self) -> tuple:
        return self.family, self.rho1, self.rho2, self.alpha, self.beta

    def __eq__(self, other):
        return self._key() == other._key() if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self):
        return hash(self._key())

    def check_degenerate(self):
        if self.alpha == 0:
            raise DegenerateParameterError("degenerate-parameter: alpha = 0")
        if self.family == "B" and not self.beta:
            raise DegenerateParameterError(f"degenerate-parameter: family B, beta = {self.beta}")


class Admissibility:
    """An admissibility verdict and its diagnostic, equal and hashed by (ok, detail)."""

    def __init__(self, ok: bool, detail: str):
        self.ok, self.detail = ok, detail

    def _key(self) -> tuple:
        return self.ok, self.detail

    def __eq__(self, other):
        return self._key() == other._key() if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self):
        return hash(self._key())

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
    defect = lhs_norm - rhs_norm exactly as computed. Only an expression of nonzero
    weight (lhs 1, e1 |rho1|, e2 |rho2|) is evaluated, ``f`` once per distinct argument
    on every triple at once: 8 for family A, 7 for B, 6 with one rho zero, 4 with
    both. A triple whose defect is not finite raises NumericError."""
    params.check_degenerate()
    sp = f.space
    xyz = (triples.swapaxes(0, 1) if isinstance(triples, np.ndarray)
           else [[t[k] for t in triples] for k in range(3)])
    x, y, z = map(sp.as_vectors, xyz)
    beta = float(params.beta) if params.family == "B" else 0.0
    basis = (x, y, beta * y, params.alpha * z)
    weights = {"lhs": 1.0, "e1": abs(params.rho1), "e2": abs(params.rho2)}
    exprs = {name: terms for name, terms in FAMILY_TERMS[params.family].items() if weights[name]}
    args = list(dict.fromkeys(arg for terms in exprs.values() for _, arg in terms))
    values, per = {}, max(1, ROWS // max(1, len(x)))  # distinct arguments per evaluate_many call
    for group in (args[i:i + per] for i in range(0, len(args), per)):
        rows = evaluate_many(f, np.concatenate([_combine(zip(arg, basis)) for arg in group]))
        values.update(zip(group, np.split(rows, len(group))))
    norms = {name: sp.norms(_combine((-beta if c == "-b" else c, values[arg]) for c, arg in terms))
             for name, terms in exprs.items()}
    lhs_norm = norms.pop("lhs")
    rhs_norm = sum((weights[name] * n for name, n in norms.items()), np.zeros_like(lhs_norm))
    defects = lhs_norm - rhs_norm
    bad = np.flatnonzero(~np.isfinite(defects))
    if bad.size:
        raise NumericError(f"numeric: the defect of triple {bad[0]} is not finite")
    return sp.norms(x), sp.norms(y), sp.norms(z), lhs_norm, rhs_norm, defects


# --- measured control envelopes ---------------------------------------------


class MeasuredEnvelope:
    """Shell-wise empirical envelope of the clamped defect.

    Each sampled triple contributes max(0, defect) to the shell containing its
    largest component norm; ``cum_max`` is the running max of that table, the
    table e of ``bounds.ControlFunction.measured``.
    """

    def __init__(self, edges: np.ndarray, shell_max: np.ndarray, cum_max: np.ndarray):
        self.edges, self.shell_max, self.cum_max = edges, shell_max, cum_max


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
    return MeasuredEnvelope(edges=edges, shell_max=shell_max,
                            cum_max=np.maximum.accumulate(shell_max))
