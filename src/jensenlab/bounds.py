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

``phi_tilde_cells`` alone decides whether a series diverges, by one rule: terms
that behave as theta ||x||^r diverge where theta > 0, some ||x|| > 0 and
``convergence_predicate(scheme, r)`` fails. A power control is judged on its
own (theta, r); a table control on (e below its first edge, 0): a measured
control keeps its first value there, and a tabulated one has none (NaN is not
> 0), so its series ends where its coverage does.

``run_cells`` is the one path of a ``(params, scheme, control)`` cell for ``verify``, the
sweep and ``audit``, in these stages: admissibility (the parameters, then a family-A
scheme's scale), audit (an audit needs a power control), envelope (a measured control's),
phi-tilde (phi~ at every norm), approximate, and audit (the published constant, phi~(1),
then the empirical sup). ``phi_tilde_cells`` and ``derived_constants`` take the same cells.
"""

from __future__ import annotations

import math

import numpy as np

from . import direct_method, inequality
from .direct_method import Scheme
from .errors import (
    ConfigError,
    DegenerateScaleError,
    DivergentSeriesError,
    FamilyError,
    InadmissibleError,
    JensenLabError,
    NumericError,
    OutOfRegimeError,
    SingularPointError,
)
from .inequality import RhoParams
from .model import TestFunction
from .space import ValueRecord

CONTROL_KINDS = ("zero", "power", "tabulated", "measured")

#: Closed-form constant tags: forward/backward dyadic (family A) and
#: forward/backward general-scale (family B) regimes.
CONSTANT_TAGS = ("c24", "c26", "c34", "c36")

DEFAULT_TRUNC_TERMS = 64

#: Floats in one block of the series' term matrix: a tabulated or measured
#: control's terms are summed in blocks of about this many elements, so peak
#: memory does not grow with ``trunc_terms`` or the sample.
CHUNK_ELEMENTS = 1 << 15


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


class ControlFunction:
    """Nonnegative control phi(x, y, z) = theta (e(||x||) + e(||y||) + e(||z||)), e(0) = 0.

    kinds: zero (theta = 0) and power, with e(s) = s^r; tabulated and measured,
    with theta = 1 and e the value of the shell (edges[i], edges[i+1]] holding s.
    Past its edges a tabulated table is NaN, so a series sum stops rather than
    extrapolate; a measured one (a MeasuredEnvelope's cum_max) keeps its first and
    last value. A config's measured control has no table until its envelope is
    measured, and raises if evaluated.
    """

    def __init__(self, kind: str, theta: float = 0.0, r: float = 0.0,
                 edges: np.ndarray | None = None, values: np.ndarray | None = None):
        self.kind, self.theta, self.r, self.edges, self.values = kind, theta, r, edges, values
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


def _term_rows(rows: list, nx: np.ndarray, printed_display: bool):
    """Term ``step`` of each ``(params, scheme, control, step)`` row's series at each norm in
    nx (cells of one direction and family, whose controls share e), scaled and weighted by
    the Python float powers of its L, with theta a column of the rows' controls. e is the
    first row's, evaluated once per argument pattern, and phi(s, s, 0) = theta (e(s) + e(s)),
    phi(0, 0, t) = theta e(t), e(0) = +0.0."""
    family, forward = rows[0][0].family, rows[0][1].direction == "forward"
    printed, e = printed_display and forward, rows[0][2].component
    Ls = [(abs(scheme.scale), i) for _, scheme, _, i in rows]
    if forward:
        s = np.array([_power(L, i) for L, i in Ls])[:, None] * nx
        weight = [_power(L, -(i + 1)) for L, i in Ls]
    else:
        with np.errstate(divide="ignore"):  # L^(i+1) underflowed to 0: +inf, as an overflow is
            s = nx / np.array([_power(L, i + 1) for L, i in Ls])[:, None]
        weight = [_power(L, i) for L, i in Ls]
    theta = np.array([control.theta for _, _, control, _ in rows])[:, None]
    e_s = e(s)
    phi_ss0 = theta * (e_s + e_s)
    if family == "A":  # phi(0, 0, t) with t = s, or s / |alpha|
        e_t = e_s if printed else e(s / np.array([abs(p.alpha) for p, *_ in rows])[:, None])
        p2 = [abs(p.rho2) for p, *_ in rows]
        return (np.array([w / (2.0 - p) for w, p in zip(weight, p2)])[:, None]
                * (phi_ss0 + np.array([2.0 * p / (1.0 - p) for p in p2])[:, None] * (theta * e_t)))
    pref = [1.0 / (1.0 - abs(p.rho1 if printed else p.rho2)) for p, *_ in rows]
    return np.array([w * p for w, p in zip(weight, pref)])[:, None] * phi_ss0


def _term_ratio(scheme: Scheme, r: float) -> float:
    """Ratio of consecutive power-control series terms."""
    L = abs(scheme.scale)
    return _power(L, r - 1.0 if scheme.direction == "forward" else 1.0 - r)


def _require_dyadic(params: RhoParams, scheme: Scheme):
    """A family-A series sums the dyadic steps of its scheme: it needs |scale| = 2."""
    if params.family == "A" and abs(scheme.scale) != 2.0:
        raise FamilyError(
            f"family: family-A series are dyadic (|scale| = 2), got scale {scheme.scale}")


def _check_series(params: RhoParams, scheme: Scheme, printed_display: bool):
    """The checks of a cell's series before it is summed, each the cell's own error."""
    params.check_degenerate()
    _require_dyadic(params, scheme)
    if abs(params.rho2) >= 1.0:
        raise InadmissibleError(
            f"inadmissible: series prefactor needs |rho2| < 1, got {abs(params.rho2)}")
    if (printed_display and params.family == "B"
            and scheme.direction == "forward" and abs(params.rho1) >= 1.0):
        raise OutOfRegimeError(
            f"out-of-regime: printed display needs |rho1| < 1, got {abs(params.rho1)}")


@np.errstate(over="ignore", invalid="ignore")  # a non-finite value is a NumericError
def phi_tilde_cells(cells: list, norms, trunc_terms: int = DEFAULT_TRUNC_TERMS,
                    printed_display: bool = False) -> tuple:
    """phi~ of each ``(params, scheme, control)`` cell at the norms of one vector as
    (values, tails, terms, errors): cells x points values; each cell's tail, 0.0 for a
    closed form (zero and power controls), None for a term-by-term sum; the terms each
    point added, fewer than ``trunc_terms`` where coverage ran out; each cell's error or
    None. Entries round as they do alone. A table control is judged on r = 0, and its
    terms x points matrix is summed in blocks of about CHUNK_ELEMENTS, left to right
    until no point is covered."""
    if trunc_terms < 1:
        raise ValueError("trunc_terms must be >= 1")
    nx = np.asarray(norms, dtype=float)
    values, terms = np.zeros((len(cells), nx.size)), np.zeros((len(cells), nx.size), dtype=int)
    tails, errors, closed = [None] * len(cells), [None] * len(cells), {}  # layout -> cells
    for k, (params, scheme, control) in enumerate(cells if nx.size else []):  # no norms, no checks
        power = control.kind in ("zero", "power")
        try:
            _check_series(params, scheme, printed_display)
            if power and control.r < 0 and (nx == 0.0).any():
                raise SingularPointError("singular-point: ||x|| = 0 with r < 0")
            theta, r = (control.theta, control.r) if power else (control.table()[0], 0.0)
            ratio = _term_ratio(scheme, r)
            if theta > 0.0 and not ratio < 1.0 and (nx > 0.0).any():
                verdict = convergence_predicate(scheme, r)  # for its condition's text
                raise DivergentSeriesError(
                    f"divergent: {verdict.condition} fails for terms {theta:.6g} ||x||^{r:g}")
        except JensenLabError as e:
            errors[k] = e.with_traceback(None)
            continue
        if power:
            terms[k], tails[k] = trunc_terms, 0.0
            # phi is r-homogeneous and step i scales the weight by a fixed power of L
            # and every argument by L^(+-1), so term i is term 0 times ratio^i: the
            # series is geometric. A ratio >= 1 gets here only with every term 0.
            # numpy's power loop takes its exact shortcuts (x * x for r = 2, sqrt, 1 / x)
            # only for an exponent that is one scalar, so each r is its own matrix
            if ratio < 1.0:
                closed.setdefault((scheme.direction, params.family, r), []).append((k, ratio))
            continue
        block = max(1, CHUNK_ELEMENTS // nx.size)
        for lo in range(0, trunc_terms, block):  # sum until coverage runs out
            if not (terms[k] == lo).any():  # every point has left coverage
                break
            rows = _term_rows([(params, scheme, control, i)
                               for i in range(lo, min(lo + block, trunc_terms))],
                              nx, printed_display)
            # a point adds term i while terms 0 .. i are all covered (not NaN)
            covered = np.logical_and.accumulate(~np.isnan(rows), axis=0) & (terms[k] == lo)
            terms[k] += covered.sum(axis=0)
            for term in np.where(covered, rows, 0.0):  # left to right, term by term
                values[k] = values[k] + term
    for group in closed.values():
        ks = [k for k, _ in group]
        first = _term_rows([(*cells[k], 0) for k in ks], nx, printed_display)
        values[ks] = first / np.array([1.0 - ratio for _, ratio in group])[:, None]
    for k, top in enumerate(values.max(axis=1, initial=0.0).tolist()):
        if errors[k] is None and not math.isfinite(top):
            errors[k] = NumericError("numeric: phi~ is not finite")
    return values, tails, terms, errors


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


class ConvergenceVerdict(ValueRecord):
    """A series' convergence verdict, equal and hashed by (converges, ratio, condition)."""

    def __init__(self, converges: bool, ratio: float, condition: str):
        self.converges, self.ratio, self.condition = converges, ratio, condition

    def _key(self) -> tuple:
        return self.converges, self.ratio, self.condition

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


class BoundAudit:
    """Reconciliation of the published constant, the derivation-consistent
    series constant, and the empirical supremum of ||f - A|| / ||x||^r.

    ``rho2`` is |rho2|. Constants are floats or the string 'divergent'. Verdicts:
      empirical_le_derived / empirical_le_paper: bool or None (constant divergent)
      derived_matches_paper: 'consistent' | 'mismatched' | None
    """

    def __init__(self, which: str, theta: float, r: float, rho2: float, alpha: float,
                 beta: float | None, paper_constant: float | str, derived_constant: float | str,
                 empirical_sup: float, verdicts: dict, points: int):
        self.which, self.theta, self.r, self.rho2, self.alpha = which, theta, r, rho2, alpha
        self.beta, self.paper_constant = beta, paper_constant
        self.derived_constant, self.empirical_sup = derived_constant, empirical_sup
        self.verdicts, self.points = verdicts, points

    def to_json_dict(self) -> dict:
        """Every field but ``points``, in field order (a CSV's column order)."""
        return {"which": self.which, "theta": self.theta, "r": self.r, "rho2": self.rho2,
                "alpha": self.alpha, "beta": self.beta, "paper_constant": self.paper_constant,
                "derived_constant": self.derived_constant, "empirical_sup": self.empirical_sup,
                "verdicts": dict(self.verdicts)}


AUDIT_REL_TOL = 1e-6


def constant_tag(family: str, direction: str) -> str:
    """Regime tag for a (family, as-written direction) pair."""
    table = {("A", "forward"): "c24", ("A", "backward"): "c26",
             ("B", "forward"): "c34", ("B", "backward"): "c36"}
    try:
        return table[(family, direction)]
    except KeyError:
        raise FamilyError(f"family: no constant for family={family!r}, direction={direction!r}")


def require_power_control(control: ControlFunction):
    """An audit needs a power control: its constants are closed forms in theta and r."""
    if control.kind != "power":
        raise ConfigError(f"config: an audit needs control.kind power, got {control.kind}")


def derived_constants(cells: list, trunc_terms: int = DEFAULT_TRUNC_TERMS) -> list:
    """phi~(1) of each ``(params, scheme, control)`` cell's derivation-consistent series
    (printed_display off): a float, 'divergent', or the cell's other error."""
    values, tails, _, errors = phi_tilde_cells(cells, [1.0], trunc_terms, False)
    return [value + (tail or 0.0) if error is None
            else "divergent" if isinstance(error, DivergentSeriesError) else error
            for value, tail, error in zip(values[:, 0].tolist(), tails, errors)]


def empirical_sup(r: float, deviations) -> tuple[float, int]:
    """max ||f(x) - A(x)|| / ||x||^r over ``(||x||, ||f(x) - A(x)||)`` pairs
    with ||x|| > 0 (0 when there are none), and the number of such pairs; a
    sup that is not finite (||x||^r underflows to 0, say) is a NumericError."""
    powers = [(dev, _power(nx, r)) for nx, dev in deviations if nx != 0.0]
    ratios = [dev / p if p else math.inf for dev, p in powers]
    return _require_finite("empirical_sup", max(ratios, default=0.0)), len(ratios)


def _once(cache: dict, key, compute):
    """cache[key], computed on first use; a failure is kept, and raised on every use."""
    if key not in cache:
        try:
            cache[key] = compute()
        except JensenLabError as e:  # kept without the traceback that holds this frame
            cache[key] = e.with_traceback(None)
    if isinstance(value := cache[key], JensenLabError):
        raise value
    return value


def bound_audit(params: RhoParams, scheme: Scheme, control: ControlFunction, cols: dict):
    """The BoundAudit of one cell from its audit columns (``run_cells``)."""
    paper, derived, sup = cols["paper_constant"], cols["derived_constant"], cols["empirical_sup"]

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
    return BoundAudit(which=constant_tag(params.family, scheme.direction), theta=control.theta,
                      r=control.r, rho2=abs(params.rho2), alpha=params.alpha, beta=params.beta,
                      paper_constant=paper, derived_constant=derived, empirical_sup=sup,
                      verdicts=verdicts, points=cols["points"])


def run_cells(f: TestFunction, xs, cells: list, tol: float, max_n: int, trunc_terms: int,
              printed_display: bool, bound: bool, audit: bool, envelope) -> list:
    """The stages of each ``(params, scheme, control)`` cell on the points xs, as one
    ``[columns, fault]`` per cell: fault is the cell's first ``(stage, error)`` in stage
    order, or None. ``bound`` asks for the phi-tilde stage and ``audit`` for both audit
    stages; a measured control is measured on ``envelope`` = (plan, shells). The columns:
    admissible, converges; control_fit; bound (phi~ + tail), tail, terms; x_norm,
    approximants, max_violation; paper_constant, derived_constant, empirical_sup and its
    points, which ``bound_audit`` reads. A column is written whenever it was computed
    without a fault: the published constant once the parameters are not degenerate, the
    derived one past the envelope. The convergence verdict is computed once per cell, for
    converges; the series are two batches, the derived constants and the bounds, and each
    reads its cells' term ratio. A cell whose phi~ fails reads no pass; a pass runs once
    per scheme and a sup once per scheme and r, failed or not.
    """
    norms = f.space.norms(xs)
    out, live = [[{}, None] for _ in cells], []  # live: the cells past the envelope
    for cell, (params, scheme, control) in zip(out, cells):
        stage, late = "admissibility", None  # late: a fault of the published constant
        try:
            adm = inequality.admissible(params)
            verdict = convergence_predicate(scheme, control.r)
            cell[0]["admissible"], cell[0]["converges"] = bool(adm), bool(verdict)
            if audit and control.kind == "power":
                try:  # the published constant, divergent where its denominator is not positive
                    cell[0]["paper_constant"] = corollary_constant(
                        constant_tag(params.family, scheme.direction), control.theta, control.r,
                        abs(params.rho2), beta=params.beta)
                except OutOfRegimeError:
                    cell[0]["paper_constant"] = "divergent"
                except JensenLabError as e:  # a fault of the audit stage
                    late = e.with_traceback(None)
            if not adm:
                raise InadmissibleError(f"inadmissible: {adm.detail}")
            _require_dyadic(params, scheme)
            if audit:
                stage = "audit"
                require_power_control(control)
            stage = "envelope"
            if control.kind == "measured":
                env = inequality.measure_envelope(f, params, *envelope)
                cell[0]["control_fit"] = {"shell_edges": env.edges.tolist(),
                                          "shell_max": env.shell_max.tolist()}
                control = ControlFunction.measured(env)
        except JensenLabError as e:  # a kept traceback would hold this frame in a cycle
            cell[1] = stage, e.with_traceback(None)
            continue
        live.append((cell, (params, scheme, control), late))
    series = [c[1] for c in live]
    derived = derived_constants(series, trunc_terms) if audit else [None] * len(live)
    if bound:
        values, tails, terms, errors = phi_tilde_cells(series, norms, trunc_terms, printed_display)
    norms, passes, sups = norms.tolist(), {}, {}  # scheme -> pass, (scheme, r) -> sup
    for i, (cell, (_, scheme, control), late) in enumerate(live):
        cols, constant, stage = cell[0], derived[i], "phi-tilde"
        if audit and not isinstance(constant, JensenLabError):
            cols["derived_constant"] = constant
        try:
            if bound:
                if errors[i] is not None:
                    raise errors[i]
                cols.update(bound=values[i] + (tails[i] or 0.0), tail=tails[i], terms=terms[i])
            stage = "approximate"
            approximated = _once(passes, scheme, lambda: direct_method.approximate_points(
                f, xs, scheme, tol, max_n=max_n))
            cols.update(x_norm=norms, approximants=approximated)
            if bound:
                cols["max_violation"] = max((approximated.deviations - cols["bound"]).tolist())
            stage = "audit"
            if audit:
                for error in (late, constant):  # the published constant's fault first
                    if isinstance(error, JensenLabError):
                        raise error
                cols["empirical_sup"], cols["points"] = _once(sups, (scheme, control.r), lambda: (
                    empirical_sup(control.r, zip(norms, approximated.deviations.tolist()))))
        except JensenLabError as e:
            cell[1] = stage, e.with_traceback(None)
    return out


def audit(f: TestFunction, params: RhoParams, scheme: Scheme,
          control: ControlFunction, points, tol: float = 1e-9,
          trunc_terms: int = DEFAULT_TRUNC_TERMS, max_n: int = 200) -> BoundAudit:
    """Cross-validate the closed-form constant against the series and data.

    Requires a power control, checked before the parameters, then runs the one
    cell's stages (``run_cells``) with no per-point bound, raising its first fault;
    ``empirical_sup`` is max ||f(x) - A(x)|| / ||x||^r over the supplied points,
    with A from ``approximate_points``.
    """
    require_power_control(control)
    [(cols, fault)] = run_cells(f, points, [(params, scheme, control)], tol, max_n, trunc_terms,
                                False, bound=False, audit=True, envelope=None)
    if fault is not None:
        raise fault[1]
    return bound_audit(params, scheme, control, cols)
