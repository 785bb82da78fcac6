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

Power controls evaluate as theta (||x||^r + ||y||^r + ||z||^r) with the
convention that a zero norm contributes 0 for every r (the substituted
series above rely on it, e.g. phi(x, x, 0) = 2 theta ||x||^r); their series
is geometric and summed in closed form. Tabulated and measured controls are
summed term by term, up to ``trunc_terms`` terms, with no tail: each point adds
the rows of one terms x points matrix left to right until a term is not
covered. A measured control whose first shell is positive diverges where the
series arguments shrink.
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
from .inequality import CHUNK_ELEMENTS, MeasuredEnvelope, RhoParams, shell_index
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
    """Nonnegative control phi(x, y, z), evaluated on the three norms.

    kinds:
      zero       phi = 0
      power      theta (||x||^r + ||y||^r + ||z||^r)
      tabulated  user shell table: value of the shell containing each norm,
                 summed over the three arguments; norms outside coverage stop
                 a series sum rather than extrapolate
      measured   a MeasuredEnvelope (monotone extension covers all norms)
    """

    kind: str
    theta: float = 0.0
    r: float = 0.0
    edges: np.ndarray | None = None
    values: np.ndarray | None = None
    envelope: MeasuredEnvelope | None = None

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
        if (values < 0).any():
            raise ValueError("control values must be nonnegative")
        if not (np.diff(edges) > 0).all():
            raise ValueError("tabulated control edges must be strictly increasing")
        return cls("tabulated", edges=edges, values=values)

    @classmethod
    def measured(cls, envelope: MeasuredEnvelope) -> "ControlFunction":
        return cls("measured", envelope=envelope)

    def _component(self, s):
        if self.kind == "measured":
            return self.envelope.component_value(s)
        covered = (s > self.edges[0]) & (s <= self.edges[-1])
        return np.where(s == 0.0, 0.0,
                        np.where(covered, self.values[shell_index(self.edges, s)], np.nan))

    def evaluate_norms(self, nx, ny, nz):
        """phi on the three norms, elementwise over arrays of norms. A
        tabulated control has no value (NaN) at a norm outside its coverage."""
        if self.kind == "zero":
            return 0.0
        if self.kind == "power":
            return self.theta * (_pw(nx, self.r) + _pw(ny, self.r) + _pw(nz, self.r))
        return self._component(nx) + self._component(ny) + self._component(nz)


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


@dataclass(frozen=True)
class PhiTilde:
    """A series value plus tail: 0.0 for a closed form (zero and power controls),
    None when unavailable. ``terms``: how many terms a term-by-term sum added (fewer
    than ``trunc_terms`` once coverage ran out); ``trunc_terms`` for a closed form."""

    value: float
    tail: float | None
    terms: int
    coverage_truncated: bool = False

    def total(self) -> float:
        return self.value + (self.tail or 0.0)


def _series_terms(control: ControlFunction, nx: np.ndarray, spec: SeriesSpec, steps: range):
    """Terms ``steps`` of the series at each query norm in nx, one row per term.
    Row i is scaled and weighted by the Python float powers of L that term i
    uses alone, and phi is evaluated once per argument pattern on the matrix."""
    p2 = spec.rho2_abs
    L = abs(spec.scheme.scale)
    forward = spec.scheme.direction == "forward"
    printed = spec.printed_display and forward
    if forward:
        s, weight = np.array([L ** i for i in steps])[:, None] * nx, [L ** -(i + 1) for i in steps]
    else:
        s, weight = nx / np.array([L ** (i + 1) for i in steps])[:, None], [L ** i for i in steps]
    if spec.family == "A":
        third = s if printed else s / abs(spec.alpha)
        return (np.array([w / (2.0 - p2) for w in weight])[:, None]
                * (control.evaluate_norms(s, s, 0.0)
                   + 2.0 * p2 / (1.0 - p2) * control.evaluate_norms(0.0, 0.0, third)))
    pref = 1.0 / (1.0 - (spec.rho1_abs if printed else p2))
    return np.array([w * pref for w in weight])[:, None] * control.evaluate_norms(s, s, 0.0)


def _series_term(control: ControlFunction, nx: np.ndarray, spec: SeriesSpec, i: int):
    """The i-th series term at each query norm in nx."""
    return _series_terms(control, nx, spec, range(i, i + 1))[0]


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


def _check_measured_convergence(control: ControlFunction, nx: np.ndarray, spec: SeriesSpec):
    """A measured control keeps the value cum_max[0] below its first edge. Where the
    series arguments shrink (backward with |scale| > 1, forward with |scale| < 1) the
    weights grow geometrically, so with cum_max[0] > 0 the terms at ||x|| > 0 do too."""
    if control.kind != "measured" or not (nx > 0.0).any():
        return
    floor = control.envelope.cum_max[0]
    shrinking = (abs(spec.scheme.scale) > 1.0) == (spec.scheme.direction == "backward")
    if floor > 0.0 and shrinking:
        raise DivergentSeriesError(
            f"divergent: the measured control is {floor:.6g} > 0 below its first shell edge "
            f"and the {spec.scheme.direction} series arguments shrink"
        )


def phi_tilde_norm(control: ControlFunction, nx: float, spec: SeriesSpec) -> PhiTilde:
    """The stability series phi~ for a query point of norm ``nx``."""
    return phi_tilde_norms(control, [nx], spec)[0]


@np.errstate(over="ignore", invalid="ignore")  # a non-finite value is a NumericError
def phi_tilde_norms(control: ControlFunction, norms, spec: SeriesSpec) -> list:
    """``phi_tilde_norm`` at each norm of a vector, each value rounding as it
    does alone; one point's error is the vector's. A tabulated or measured
    control's terms are a terms x points matrix, in blocks of about
    CHUNK_ELEMENTS, summed left to right; see ``_check_measured_convergence``."""
    nx = np.asarray(norms, dtype=float)
    if not nx.size:
        return []
    _check_prefactors(spec)
    n_terms = spec.trunc_terms
    if control.kind == "zero":
        return [PhiTilde(0.0, 0.0, n_terms)] * nx.size
    value = np.zeros(nx.size)
    if control.kind == "power":
        if control.r < 0 and (nx == 0.0).any():
            raise SingularPointError("singular-point: ||x|| = 0 with r < 0")
        ratio = _term_ratio(spec.scheme, control.r)
        if control.theta > 0.0 and not ratio < 1.0 and (nx > 0.0).any():
            raise DivergentSeriesError(
                f"divergent: series term ratio {ratio:.6g} >= 1 for r = {control.r}"
            )
        # phi is r-homogeneous and step i scales the weight by a fixed power of L
        # and every argument by L^(+-1), so term i is term 0 times ratio^i: the
        # series is geometric. A ratio >= 1 gets here only with every term 0.
        if ratio < 1.0:
            value = _series_term(control, nx, spec, 0) / (1.0 - ratio)
        terms, tail = np.full(nx.size, n_terms), 0.0
    else:  # tabulated / measured: sum until coverage runs out; no closed tail.
        _check_measured_convergence(control, nx, spec)
        terms, tail = np.zeros(nx.size, dtype=int), None
        rows = max(1, CHUNK_ELEMENTS // nx.size)
        for lo in range(0, n_terms, rows):
            block = _series_terms(control, nx, spec, range(lo, min(lo + rows, n_terms)))
            # a point adds term i while terms 0 .. i are all covered (not NaN)
            covered = np.logical_and.accumulate(~np.isnan(block), axis=0) & (terms == lo)
            terms += covered.sum(axis=0)
            for term in np.where(covered, block, 0.0):  # left to right, term by term
                value = value + term
    _require_finite("phi~", value.max())
    return [PhiTilde(v, tail, k, coverage_truncated=k < n_terms)
            for v, k in zip(value.tolist(), terms.tolist())]


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
    if abs(scheme.scale) == 1.0:
        raise DegenerateScaleError("degenerate-scale: |scale| = 1")
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
    deviations = zip(f.space.norms(xs).tolist(),
                     (dev for _, dev in approximate_points(f, xs, scheme, tol, max_n=max_n)))
    return audit_deviations(params, scheme, control, deviations, trunc_terms=trunc_terms)


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
        return phi_tilde_norm(control, 1.0, spec).total()
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
