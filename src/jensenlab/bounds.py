"""Control functions, stability series, closed-form constants, audit.

The stability bound for each scheme is a weighted series over the control
phi, assembled from the one-step contraction inequality of that scheme. With
p2 = |rho2| and L = |scale|, the derivation-consistent forms are

  family A, forward (L = 2):
      sum_i 2^-(i+1) (2-p2)^-1 [phi(2^i x, 2^i x, 0)
                                + 2 p2/(1-p2) phi(0, 0, 2^i x / alpha)]
  family A, backward (L = 2):
      sum_i 2^i (2-p2)^-1 [phi(x/2^(i+1), x/2^(i+1), 0)
                           + 2 p2/(1-p2) phi(0, 0, x/(2^(i+1) alpha))]
  family B, forward:
      sum_i L^-(i+1) (1-p2)^-1 phi(s^i x, s^i x, 0)          (s = scale)
  family B, backward:
      sum_i L^i (1-p2)^-1 phi(x/s^(i+1), x/s^(i+1), 0)

``printed_display=True`` reproduces the published display forms instead,
which differ at exactly two audited points: the family-A forward series
drops the /alpha in the third argument, and the family-B forward prefactor
uses (1-|rho1|) in place of (1-|rho2|). The defaults are the forms that the
telescoping argument actually guarantees to dominate ||f - A||.

Every control is phi(x, y, z) = theta (e(||x||) + e(||y||) + e(||z||)), e(0) = 0,
and the series reads it only as phi(s, s, 0) and phi(0, 0, t). A power control
has e(s) = s^r; its series is geometric and summed in closed form (a zero
control has theta = 0). Tabulated and measured controls have theta = 1 and e a
shell table, extended past its edges by NaN (which ends a sum) or by its first
and last value; they are summed term by term, up to ``trunc_terms`` terms, with
no tail: each point adds the rows of one terms x points matrix left to right
until a term is not covered.

``phi_tilde_norms`` alone decides whether a series diverges, by one rule: terms
that behave as theta ||x||^r diverge where theta > 0, some ||x|| > 0 and
``convergence_predicate(scheme, r)`` fails. A power control is judged on its
own (theta, r); a table control on (e below its first edge, 0): a measured
control keeps its first value there, and a tabulated one has none (NaN is not
> 0), so its series ends where its coverage does.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .direct_method import Scheme, approximate_points
from .errors import (
    ConfigError,
    DegenerateScaleError,
    DivergentSeriesError,
    FamilyError,
    InadmissibleError,
    NumericError,
    OutOfRegimeError,
    SingularPointError,
)
from .inequality import CHUNK_ELEMENTS, RhoParams
from .model import TestFunction

CONTROL_KINDS = ("zero", "power", "tabulated", "measured")

#: Closed-form constant tags: forward/backward dyadic (family A) and
#: forward/backward general-scale (family B) regimes.
CONSTANT_TAGS = ("c24", "c26", "c34", "c36")

DEFAULT_TRUNC_TERMS = 64


def _power(base: float, exponent: float) -> float:
    """base ** exponent for base > 0, with a power that overflows counted as +inf."""
    try:
        return base ** exponent
    except OverflowError:
        return math.inf


def _require_finite(what: str, value: float) -> float:
    if not math.isfinite(value):
        raise NumericError(f"numeric: {what} is not finite")
    return value


def _pw(n, r: float):
    """n^r elementwise, with the zero-norm-contributes-0 convention."""
    return np.power(n, r, out=np.zeros_like(n, dtype=float), where=n != 0.0)


@dataclass(frozen=True, eq=False)
class ControlFunction:
    """Nonnegative control phi(x, y, z) = theta (e(||x||) + e(||y||) + e(||z||)), e(0) = 0.

    kinds: zero (theta = 0) and power, with e(s) = s^r; tabulated and measured,
    with theta = 1 and e the value of the shell (edges[i], edges[i+1]] holding s.
    Past its edges a tabulated table is NaN, so a series sum stops rather than
    extrapolate; a measured one (a MeasuredEnvelope's cum_max) keeps its first and
    last value. A config's measured control has no table until its envelope is
    measured, and raises if evaluated.
    """

    kind: str
    theta: float = 0.0
    r: float = 0.0
    edges: np.ndarray | None = None
    values: np.ndarray | None = None

    def __post_init__(self):
        if self.kind not in CONTROL_KINDS:
            raise ValueError(f"control kind must be one of {CONTROL_KINDS}")
        if self.kind == "power" and self.theta < 0:
            raise ValueError("power control needs theta >= 0")

    @classmethod
    def zero(cls) -> "ControlFunction":
        return cls("zero")

    @classmethod
    def power(cls, theta: float, r: float) -> "ControlFunction":
        return cls("power", theta=float(theta), r=float(r))

    @classmethod
    def tabulated(cls, edges, values) -> "ControlFunction":
        edges = np.asarray(edges, dtype=float)
        values = np.asarray(values, dtype=float)
        if len(edges) != len(values) + 1 or len(values) < 1:
            raise ValueError("tabulated control needs len(edges) == len(values) + 1 >= 2")
        if not np.isfinite(values).all():  # NaN marks a norm the table does not cover
            raise ValueError("control values must be finite")
        if (values < 0).any():
            raise ValueError("control values must be nonnegative")
        if not (np.diff(edges) > 0).all():
            raise ValueError("tabulated control edges must be strictly increasing")
        return cls("tabulated", theta=1.0, edges=edges, values=values)

    @classmethod
    def measured(cls, envelope) -> "ControlFunction":
        """The control of a MeasuredEnvelope: its edges and cum_max table."""
        return cls("measured", theta=1.0, edges=envelope.edges, values=envelope.cum_max)

    def table(self) -> np.ndarray:
        """The shell values with e below the first edge in front and above the last behind."""
        if self.values is None:
            raise ValueError(f"a {self.kind} control has no table (is its envelope measured?)")
        v = self.values
        return np.r_[np.nan, v, np.nan] if self.kind == "tabulated" else np.r_[v[:1], v, v[-1:]]

    def component(self, s):
        """e at each norm in ``s``."""
        if self.kind in ("zero", "power"):
            return _pw(s, self.r)
        return np.where(s == 0.0, 0.0, self.table()[np.searchsorted(self.edges, s)])

    def evaluate_norms(self, nx, ny, nz):
        """phi on the three norms, elementwise over arrays of norms. A
        tabulated control has no value (NaN) at a norm outside its coverage."""
        return self.theta * (self.component(nx) + self.component(ny) + self.component(nz))


@dataclass(frozen=True)
class SeriesSpec:
    """Which series to sum, and how far.

    ``family`` selects the series form ('A' dyadic two-term, 'B' single-term);
    it cannot be inferred from the scale alone since 1+beta = +/-2 collides
    with the dyadic scale. ``rho1_abs`` is only consulted by the
    printed-display variant of the family-B forward series.
    """

    scheme: Scheme
    family: str
    rho2_abs: float
    alpha: float
    trunc_terms: int = DEFAULT_TRUNC_TERMS
    printed_display: bool = False
    rho1_abs: float = 0.0

    def __post_init__(self):
        if self.family not in ("A", "B"):
            raise FamilyError(f"family: expected A or B, got {self.family!r}")
        if self.family == "A" and abs(self.scheme.scale) != 2.0:
            raise FamilyError(
                f"family: family-A series are dyadic (|scale| = 2), got scale {self.scheme.scale}"
            )
        if self.trunc_terms < 1:
            raise ValueError("trunc_terms must be >= 1")
        if self.alpha == 0:
            raise ValueError("alpha must be nonzero")
        if self.rho2_abs < 0 or self.rho1_abs < 0:
            raise ValueError("rho moduli must be nonnegative")


def _series_terms(control: ControlFunction, nx: np.ndarray, spec: SeriesSpec, steps: range):
    """Terms ``steps`` of the series at each query norm in nx, one row per term.
    Row i is scaled and weighted by the Python float powers of L that term i
    uses alone. e is evaluated once per argument pattern on the matrix, and
    phi(s, s, 0) = theta (e(s) + e(s)), phi(0, 0, t) = theta e(t) as e(0) = +0.0."""
    p2 = spec.rho2_abs
    L = abs(spec.scheme.scale)
    forward = spec.scheme.direction == "forward"
    printed = spec.printed_display and forward
    if forward:
        s = np.array([_power(L, i) for i in steps])[:, None] * nx
        weight = [_power(L, -(i + 1)) for i in steps]
    else:
        with np.errstate(divide="ignore"):  # L^(i+1) underflowed to 0: +inf, as an overflow is
            s = nx / np.array([_power(L, i + 1) for i in steps])[:, None]
        weight = [_power(L, i) for i in steps]
    e_s = control.component(s)
    phi_ss0 = control.theta * (e_s + e_s)
    if spec.family == "A":  # phi(0, 0, t) with t = s, or s / |alpha|
        e_t = e_s if printed else control.component(s / abs(spec.alpha))
        return (np.array([w / (2.0 - p2) for w in weight])[:, None]
                * (phi_ss0 + 2.0 * p2 / (1.0 - p2) * (control.theta * e_t)))
    pref = 1.0 / (1.0 - (spec.rho1_abs if printed else p2))
    return np.array([w * pref for w in weight])[:, None] * phi_ss0


def _term_ratio(scheme: Scheme, r: float) -> float:
    """Ratio of consecutive power-control series terms."""
    L = abs(scheme.scale)
    return _power(L, r - 1.0 if scheme.direction == "forward" else 1.0 - r)


def _check_prefactors(spec: SeriesSpec):
    if spec.rho2_abs >= 1.0:
        raise InadmissibleError(
            f"inadmissible: series prefactor needs |rho2| < 1, got {spec.rho2_abs}"
        )
    if (spec.printed_display and spec.family == "B"
            and spec.scheme.direction == "forward" and spec.rho1_abs >= 1.0):
        raise InadmissibleError(
            f"inadmissible: printed display needs |rho1| < 1, got {spec.rho1_abs}"
        )


def _check_convergence(theta: float, r: float, nx: np.ndarray, scheme: Scheme) -> float:
    """The term ratio of a series whose terms behave as theta ||x||^r; a
    DivergentSeriesError where theta > 0, some ||x|| > 0 and the ratio is not below 1."""
    verdict = convergence_predicate(scheme, r)
    if theta > 0.0 and not verdict and (nx > 0.0).any():
        raise DivergentSeriesError(
            f"divergent: {verdict.condition} fails for terms {theta:.6g} ||x||^{r:g}")
    return verdict.ratio


@np.errstate(over="ignore", invalid="ignore")  # a non-finite value is a NumericError
def phi_tilde_norms(control: ControlFunction, norms, spec: SeriesSpec) -> tuple:
    """The stability series phi~ at each norm of a vector as (values, tail, terms).
    ``tail`` is one for all points: 0.0 for a closed form (zero and power controls),
    None for a term-by-term sum. ``terms`` counts the terms each point added, fewer
    than ``trunc_terms`` where coverage ran out (``trunc_terms`` for a closed form).
    Each value rounds as it does alone; one point's error is the vector's, and a
    divergent series is a DivergentSeriesError (see the module docstring). A
    tabulated or measured control's terms are a terms x points matrix, in blocks
    of about CHUNK_ELEMENTS, summed left to right until no point is covered."""
    nx = np.asarray(norms, dtype=float)
    if not nx.size:
        return nx, None, np.zeros(0, dtype=int)
    _check_prefactors(spec)
    n_terms = spec.trunc_terms
    value = np.zeros(nx.size)
    if control.kind in ("zero", "power"):
        if control.r < 0 and (nx == 0.0).any():
            raise SingularPointError("singular-point: ||x|| = 0 with r < 0")
        ratio = _check_convergence(control.theta, control.r, nx, spec.scheme)
        # phi is r-homogeneous and step i scales the weight by a fixed power of L
        # and every argument by L^(+-1), so term i is term 0 times ratio^i: the
        # series is geometric. A ratio >= 1 gets here only with every term 0.
        if ratio < 1.0:
            value = _series_terms(control, nx, spec, range(1))[0] / (1.0 - ratio)
        terms, tail = np.full(nx.size, n_terms), 0.0
    else:  # tabulated / measured: sum until coverage runs out; no closed tail.
        _check_convergence(control.table()[0], 0.0, nx, spec.scheme)
        terms, tail = np.zeros(nx.size, dtype=int), None
        rows = max(1, CHUNK_ELEMENTS // nx.size)
        for lo in range(0, n_terms, rows):
            if not (terms == lo).any():  # every point has left coverage
                break
            block = _series_terms(control, nx, spec, range(lo, min(lo + rows, n_terms)))
            # a point adds term i while terms 0 .. i are all covered (not NaN)
            covered = np.logical_and.accumulate(~np.isnan(block), axis=0) & (terms == lo)
            terms += covered.sum(axis=0)
            for term in np.where(covered, block, 0.0):  # left to right, term by term
                value = value + term
    _require_finite("phi~", value.max())
    return value, tail, terms


def corollary_constant(which: str, theta: float, r: float, rho2_abs: float,
                       beta: float | None = None) -> float:
    """The printed closed-form stability constants, exactly as published.

    c24 / c26: forward / backward dyadic regimes,
        2 theta / ((2 - 2^r)(1 - p2)(2 - p2))   and
        2^(1+r) theta / ((2^r - 1)(1 - p2)(2 - p2)).
    c34 / c36: forward / backward general-scale regimes with L = |1 + beta|,
        2 theta / ((L - L^r)(1 - p2))           and
        2 theta / ((L^r - L)(1 - p2)).

    A power of r that overflows counts as +inf, and where the printed c26
    overflows it is evaluated as 2 theta / ((1 - 2^-r)(1 - p2)(2 - p2)). Raises
    OutOfRegimeError when a printed denominator is not positive, naming the
    violated inequality, and NumericError when the constant is not finite.
    """
    if which not in CONSTANT_TAGS:
        raise ValueError(f"which must be one of {CONSTANT_TAGS}, got {which!r}")
    if theta < 0 or rho2_abs < 0:
        raise ValueError("theta and rho2_abs must be nonnegative")
    p2 = rho2_abs
    if p2 >= 1.0:
        raise OutOfRegimeError(f"out-of-regime: needs |rho2| < 1, got {p2}")
    if which in ("c24", "c26"):
        num, denom, need = ((2.0, 2.0 - _power(2.0, r), "2 - 2^r > 0 (r < 1)") if which == "c24"
                            else (_power(2.0, 1.0 + r), _power(2.0, r) - 1.0,
                                  "2^r - 1 > 0 (r > 0)"))
        if denom <= 0:
            raise OutOfRegimeError(f"out-of-regime: {which} needs {need}, got r = {r}")
        value = num * theta / (denom * (1.0 - p2) * (2.0 - p2))
        if which == "c26" and not math.isfinite(value):  # 2^(1+r) theta overflowed
            value = 2.0 * theta / ((1.0 - 2.0 ** -r) * (1.0 - p2) * (2.0 - p2))
        return _require_finite(which, value)
    if beta is None:
        raise ValueError(f"{which} needs beta")
    L = abs(1.0 + beta)
    if L == 0.0 or L == 1.0:
        raise DegenerateScaleError(f"degenerate-scale: |1 + beta| = {L}")
    denom, need = ((L - _power(L, r), "|1+beta| - |1+beta|^r") if which == "c34"
                   else (_power(L, r) - L, "|1+beta|^r - |1+beta|"))
    if denom <= 0:
        raise OutOfRegimeError(f"out-of-regime: {which} needs {need} > 0, got L = {L}, r = {r}")
    return _require_finite(which, 2.0 * theta / (denom * (1.0 - p2)))


@dataclass(frozen=True)
class ConvergenceVerdict:
    converges: bool
    ratio: float
    condition: str

    def __bool__(self) -> bool:
        return self.converges


def convergence_predicate(scheme: Scheme, r: float) -> ConvergenceVerdict:
    """Analytic convergence of the power-control series: term ratio < 1.

    forward: |scale|^(r-1) < 1; backward: |scale|^(1-r) < 1. The evaluated
    ratio is returned alongside the verdict; a boundary ratio of exactly 1
    counts as divergent.
    """
    ratio = _term_ratio(scheme, r)
    exponent = "r-1" if scheme.direction == "forward" else "1-r"
    return ConvergenceVerdict(ratio < 1.0, ratio, f"|scale|^({exponent}) = {ratio:.6g} < 1")


@dataclass(frozen=True, eq=False)
class BoundAudit:
    """Reconciliation of the published constant, the derivation-consistent
    series constant, and the empirical supremum of ||f - A|| / ||x||^r.

    Constants are floats or the string 'divergent'. Verdicts:
      empirical_le_derived / empirical_le_paper: bool or None (constant divergent)
      derived_matches_paper: 'consistent' | 'mismatched' | None
    """

    which: str
    theta: float
    r: float
    rho2_abs: float
    alpha: float
    beta: float | None
    paper_constant: float | str
    derived_constant: float | str
    empirical_sup: float
    verdicts: dict
    points: int

    def to_json_dict(self) -> dict:
        return {
            "which": self.which,
            "theta": self.theta,
            "r": self.r,
            "rho2": self.rho2_abs,
            "alpha": self.alpha,
            "beta": self.beta,
            "paper_constant": self.paper_constant,
            "derived_constant": self.derived_constant,
            "empirical_sup": self.empirical_sup,
            "verdicts": dict(self.verdicts),
        }


AUDIT_REL_TOL = 1e-6


def constant_tag(family: str, direction: str) -> str:
    """Regime tag for a (family, as-written direction) pair."""
    table = {("A", "forward"): "c24", ("A", "backward"): "c26",
             ("B", "forward"): "c34", ("B", "backward"): "c36"}
    try:
        return table[(family, direction)]
    except KeyError:
        raise FamilyError(f"family: no constant for family={family!r}, direction={direction!r}")


def audit(f: TestFunction, params: RhoParams, scheme: Scheme,
          control: ControlFunction, points, tol: float = 1e-9,
          trunc_terms: int = DEFAULT_TRUNC_TERMS, max_n: int = 200) -> BoundAudit:
    """Cross-validate the closed-form constant against the series and data.

    Requires a power control; ``empirical_sup`` is max ||f(x) - A(x)|| /
    ||x||^r over the supplied points, with A from ``approximate_points``.
    """
    xs = f.space.as_vectors(points)

    def deviations():  # the pass runs once audit_deviations has checked the parameters
        devs = approximate_points(f, xs, scheme, tol, max_n=max_n).deviations
        yield from zip(f.space.norms(xs).tolist(), devs.tolist())
    return audit_deviations(params, scheme, control, deviations(), trunc_terms=trunc_terms)


def require_power_control(control: ControlFunction):
    """An audit needs a power control: its constants are closed forms in theta and r."""
    if control.kind != "power":
        raise ConfigError(f"config: an audit needs control.kind power, got {control.kind}")


def paper_constant(params: RhoParams, scheme: Scheme, control: ControlFunction) -> float | str:
    """The published closed-form constant of the regime, or 'divergent' when
    its printed denominator is not positive."""
    try:
        return corollary_constant(constant_tag(params.family, scheme.direction), control.theta,
                                  control.r, abs(params.rho2), beta=params.beta)
    except OutOfRegimeError:
        return "divergent"


def derived_constant(params: RhoParams, scheme: Scheme, control: ControlFunction,
                     trunc_terms: int = DEFAULT_TRUNC_TERMS) -> float | str:
    """The derivation-consistent series constant phi~(1), or 'divergent' when
    the series diverges or its prefactor is inadmissible."""
    spec = SeriesSpec(scheme=scheme, family=params.family, rho2_abs=abs(params.rho2),
                      alpha=params.alpha, trunc_terms=trunc_terms)
    try:
        value, tail, _ = phi_tilde_norms(control, [1.0], spec)
        return float(value[0]) + (tail or 0.0)
    except (DivergentSeriesError, InadmissibleError):
        return "divergent"


def empirical_sup(r: float, deviations) -> tuple[float, int]:
    """max ||f(x) - A(x)|| / ||x||^r over ``(||x||, ||f(x) - A(x)||)`` pairs
    with ||x|| > 0 (0 when there are none), and the number of such pairs; a
    sup that is not finite (||x||^r underflows to 0, say) is a NumericError."""
    powers = [(dev, _power(nx, r)) for nx, dev in deviations if nx != 0.0]
    ratios = [dev / p if p else math.inf for dev, p in powers]
    return _require_finite("empirical_sup", max(ratios, default=0.0)), len(ratios)


def audit_deviations(params: RhoParams, scheme: Scheme, control: ControlFunction,
                     deviations, trunc_terms: int = DEFAULT_TRUNC_TERMS) -> BoundAudit:
    """``audit`` on ``(||x||, ||f(x) - A(x)||)`` pairs already computed.

    The parameters are checked and the constants evaluated before ``deviations`` is iterated.
    """
    require_power_control(control)
    params.check_degenerate()
    which = constant_tag(params.family, scheme.direction)
    paper = paper_constant(params, scheme, control)
    derived = derived_constant(params, scheme, control, trunc_terms)
    sup, count = empirical_sup(control.r, deviations)

    def le(bound):
        if isinstance(bound, str):
            return None
        return bool(sup <= bound * (1.0 + AUDIT_REL_TOL) + 1e-12)

    if isinstance(paper, str) or isinstance(derived, str):
        match = None
    else:
        match = ("consistent"
                 if abs(paper - derived) <= AUDIT_REL_TOL * max(abs(paper), abs(derived), 1e-300)
                 else "mismatched")
    verdicts = {
        "empirical_le_derived": le(derived),
        "empirical_le_paper": le(paper),
        "derived_matches_paper": match,
    }
    return BoundAudit(which=which, theta=control.theta, r=control.r, rho2_abs=abs(params.rho2),
                      alpha=params.alpha, beta=params.beta, paper_constant=paper,
                      derived_constant=derived, empirical_sup=sup, verdicts=verdicts,
                      points=count)
