"""Experiment orchestration: configs, verification runs, sweeps, report files.

Configs are JSON documents; complex numbers are [re, im] pairs and every
default is echoed back into the report for provenance. Report serialization
is bit-stable: keys sorted, floats printed with 17 significant digits, and no
volatile fields (wall-clock runtime is kept on the in-memory report only, so
identical configs produce byte-identical files).
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass

import numpy as np

from . import bounds, direct_method, inequality, model
from .direct_method import Scheme, approximate  # noqa: F401 - harness.approximate stays public
from .errors import (
    DivergentSeriesError,
    InadmissibleError,
    JensenLabError,
    NotConvergedError,
    PairingError,
    StageFailure,
    UnknownKeyError,
)
from .space import NormedSpace, SamplePlan, draw_samples

# --- stable serialization ----------------------------------------------------


def format_float(x: float) -> str:
    if isinstance(x, bool):  # bools are ints; keep them out of the float path
        raise TypeError("bool is not a float")
    if x != x or x in (float("inf"), float("-inf")):
        raise ValueError(f"non-finite value {x} cannot be serialized")
    return f"{x:.17g}"


def stable_json(obj) -> str:
    """Deterministic JSON: sorted keys, %.17g floats, no whitespace variance."""
    import json as _json

    def emit(o) -> str:
        if o is None:
            return "null"
        if isinstance(o, bool):
            return "true" if o else "false"
        if isinstance(o, (int, np.integer)):
            return str(int(o))
        if isinstance(o, (float, np.floating)):
            return format_float(float(o))
        if isinstance(o, str):
            return _json.dumps(o)
        if isinstance(o, (list, tuple)):
            return "[" + ",".join(emit(v) for v in o) + "]"
        if isinstance(o, dict):
            items = sorted(o.items(), key=lambda kv: kv[0])
            return "{" + ",".join(f"{_json.dumps(k)}:{emit(v)}" for k, v in items) + "}"
        if isinstance(o, np.ndarray):
            return emit(o.tolist())
        raise TypeError(f"cannot serialize {type(o).__name__}")

    return emit(obj) + "\n"


def _csv_cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, (float, np.floating)):
        return format_float(float(v))
    return str(v)


def csv_table(header: list, rows: list) -> str:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_csv_cell(row[k]) for k in header))
    return "\n".join(lines) + "\n"


# --- configuration ------------------------------------------------------------

CONFIG_DEFAULTS = {
    "space": {"dim": 2, "norm": "l2"},
    "function": {"core": {"kind": "identity"}, "perturbation": {"kind": "none"},
                 "force_zero_at_origin": False},
    "params": {"family": "A", "rho1": [0.0, 0.0], "rho2": [0.0, 0.0],
               "alpha": 1.0, "beta": None},
    "scheme": {"direction": "forward", "scale": None},
    "control": {"kind": "zero"},
    "plan": {"seed": 0, "count": 100, "radius": 2.0, "exclude_origin_below": 0.1},
    "envelope": {"count": 1000, "shells": 8, "seed": None},
    "tolerances": {"tol": 1e-9, "atol": 1e-12, "rtol": 1e-9},
    "trunc_terms": bounds.DEFAULT_TRUNC_TERMS,
    "max_n": 200,
    "printed_display": False,
    "audit": False,
    "force": False,
}


#: Sections whose keys depend on a ``kind``; keys beyond the defaults pass
#: through unchecked. Everywhere else an unknown key is rejected, except the
#: top-level ``grid`` that sweeps read.
_OPEN_SECTIONS = ("function", "control")


def _merge(defaults, given, path=()):
    if not isinstance(defaults, dict):
        return given if given is not None else defaults
    given = given if isinstance(given, dict) else {}
    out = {k: _merge(v, given.get(k), path + (k,)) for k, v in defaults.items()}
    open_section = bool(path) and path[0] in _OPEN_SECTIONS
    for k in given:
        if k not in out and not (open_section or (not path and k == "grid")):
            raise UnknownKeyError(f"unknown-key: {'.'.join(path + (k,))} is not a config key")
    return {**given, **out}


def normalize_config(doc: dict) -> dict:
    """Fill defaults and echo-ready config (pure data, JSON-serializable)."""
    cfg = _merge(CONFIG_DEFAULTS, doc or {})
    fam = cfg["params"]["family"]
    if cfg["scheme"]["scale"] is None:
        if fam == "A":
            cfg["scheme"]["scale"] = 2.0
        else:
            beta = cfg["params"]["beta"]
            if beta is None:
                raise PairingError("pairing: family B needs beta to derive the scheme scale")
            cfg["scheme"]["scale"] = 1.0 + float(beta)
    if cfg["envelope"]["seed"] is None:
        cfg["envelope"]["seed"] = cfg["plan"]["seed"]
    return cfg


@dataclass(eq=False)
class Experiment:
    """Materialized config: live objects ready to run."""

    config: dict
    space: NormedSpace
    f: model.TestFunction
    params: inequality.RhoParams
    scheme: Scheme
    plan: SamplePlan
    tol: float
    atol: float
    forced_pairing: bool


def _check_pairing(cfg: dict) -> bool:
    """Enforce family A <-> dyadic, family B <-> scale 1+beta; --force overrides."""
    fam = cfg["params"]["family"]
    scale = float(cfg["scheme"]["scale"])
    if fam == "A":
        ok = abs(scale) == 2.0
        why = f"family A pairs with dyadic schemes (|scale| = 2), got {scale}"
    else:
        beta = cfg["params"]["beta"]
        ok = beta is not None and abs(scale - (1.0 + float(beta))) <= 1e-12
        why = f"family B pairs with scale 1 + beta = {None if beta is None else 1 + float(beta)}, got {scale}"
    if ok:
        return False
    if cfg["force"]:
        return True
    raise PairingError(f"pairing: {why} (use --force to override)")


def rho_params(cfg: dict) -> inequality.RhoParams:
    """Inequality parameters of a normalized config."""
    p = cfg["params"]
    return inequality.RhoParams(
        family=p["family"],
        rho1=model.complex_from_pair(p["rho1"]),
        rho2=model.complex_from_pair(p["rho2"]),
        alpha=float(p["alpha"]),
        beta=None if p["beta"] is None else float(p["beta"]),
    )


def build_experiment(doc: dict) -> Experiment:
    cfg = normalize_config(doc)
    forced = _check_pairing(cfg)
    space = model.load_space(cfg["space"])
    f = model.load_test_function(cfg["function"], space=space)
    params = rho_params(cfg)
    scheme = Scheme(cfg["scheme"]["direction"], float(cfg["scheme"]["scale"]))
    plan = SamplePlan(seed=int(cfg["plan"]["seed"]), count=int(cfg["plan"]["count"]),
                      radius=float(cfg["plan"]["radius"]),
                      exclude_origin_below=float(cfg["plan"]["exclude_origin_below"]))
    tols = cfg["tolerances"]
    return Experiment(config=cfg, space=space, f=f, params=params, scheme=scheme,
                      plan=plan, tol=float(tols["tol"]), atol=float(tols["atol"]),
                      forced_pairing=forced)


def _build_control(exp: Experiment):
    """Control function from the config; measures an envelope when asked to.

    Returns (control, fit_info | None).
    """
    cfg = exp.config["control"]
    kind = cfg["kind"]
    if kind == "zero":
        return bounds.ControlFunction.zero(), None
    if kind == "power":
        return bounds.ControlFunction.power(cfg["theta"], cfg["r"]), None
    if kind == "tabulated":
        return bounds.ControlFunction.tabulated(cfg["edges"], cfg["values"]), None
    if kind == "measured":
        env_cfg = exp.config["envelope"]
        env_plan = SamplePlan(seed=int(env_cfg["seed"]), count=int(env_cfg["count"]),
                              radius=exp.plan.radius,
                              exclude_origin_below=exp.plan.exclude_origin_below)
        env = inequality.measure_envelope(exp.f, exp.params, env_plan,
                                          shells=int(env_cfg["shells"]))
        fit = {"theta": env.fit_theta, "r": env.fit_r,
               "shell_edges": env.edges.tolist(), "shell_max": env.shell_max.tolist()}
        return bounds.ControlFunction.measured(env), fit
    raise ValueError(f"unknown control kind {kind!r}")


def _series_spec(exp: Experiment) -> bounds.SeriesSpec:
    return bounds.SeriesSpec(
        scheme=exp.scheme, family=exp.params.family, rho2_abs=abs(exp.params.rho2),
        alpha=exp.params.alpha, trunc_terms=int(exp.config["trunc_terms"]),
        printed_display=bool(exp.config["printed_display"]),
        rho1_abs=abs(exp.params.rho1),
    )


def _stage(name: str, fn):
    try:
        return fn()
    except JensenLabError as e:
        raise StageFailure(name, e) from e


def _approximants(exp: Experiment, points) -> tuple[list, StageFailure | None]:
    """The approximation pass over ``points``: the approximants before the
    first failure, and that failure as the 'approximate' stage (None if there
    is none). A point that does not converge makes the run divergent."""
    done = []
    try:
        for a in direct_method.approximate_points(exp.f, points, exp.scheme, exp.tol,
                                                  max_n=int(exp.config["max_n"])):
            done.append(a)
    except NotConvergedError as e:
        return done, StageFailure("approximate", DivergentSeriesError(f"divergent: {e}"))
    except JensenLabError as e:
        return done, StageFailure("approximate", e)
    return done, None


def _check_points(exp: Experiment, control, spec: bounds.SeriesSpec, approximated: tuple):
    """Per-point records of ||f - A|| against phi~ + tail, and the largest
    violation ||f - A|| - phi~ - tail (0 when there are no points).

    ``approximated`` comes from ``_approximants``; its failure is raised after
    the points before it: phi~ fails at all points or none, so the stage that
    fails is the one a point-by-point run would name.
    """
    approximants, failure = approximated
    records = []
    max_violation = float("-inf")
    for rep, dev in approximants:
        nx = exp.space.norm(rep.point)
        pt = _stage("phi-tilde", lambda: bounds.phi_tilde_norm(control, nx, spec))
        bound_total = pt.total()
        records.append({
            "x": model.pairs_from_vector(rep.point),
            "x_norm": nx,
            "deviation": dev,
            "bound": bound_total,
            "tail": "unavailable" if pt.tail is None else pt.tail,
            "margin": bound_total - dev,
            "iterations": rep.iterations,
        })
        max_violation = max(max_violation, dev - bound_total)
    if failure is not None:
        raise failure
    return records, (max_violation if records else 0.0)


def _audit(exp: Experiment, control, records: list) -> bounds.BoundAudit:
    """The constant audit over the deviations that ``_check_points`` recorded."""
    return bounds.audit_deviations(exp.params, exp.scheme, control,
                                   [(p["x_norm"], p["deviation"]) for p in records],
                                   trunc_terms=int(exp.config["trunc_terms"]))


@dataclass(eq=False)
class RunReport:
    """In-memory verification outcome; ``runtime_seconds`` never hits the file."""

    config: dict
    points: list
    summary: dict
    audit: dict | None
    control_fit: dict | None
    runtime_seconds: float

    def passed(self) -> bool:
        return bool(self.summary["passed"])

    def to_json_dict(self) -> dict:
        out = {"config": self.config, "points": self.points, "summary": self.summary}
        if self.audit is not None:
            out["audit"] = self.audit
        if self.control_fit is not None:
            out["control_fit"] = self.control_fit
        return out


def run_verify(doc: dict) -> RunReport:
    """Full verification: A at every sample point, series bound, margins.

    Pipeline stages (each failure aborts naming the stage): admissibility,
    control construction (envelope measurement for measured controls), the
    convergence predicate for the declared control, per-point approximation,
    and the series evaluation. Pass iff
    max over points of (||f - A|| - phi_tilde - tail) <= tol.
    """
    t0 = time.perf_counter()
    exp = build_experiment(doc)

    def check_admissible():
        adm = inequality.admissible(exp.params)
        if not adm:
            raise InadmissibleError(f"inadmissible: {adm.detail}")
        return adm

    _stage("admissibility", check_admissible)
    control, fit = _stage("envelope", lambda: _build_control(exp))

    def check_predicate():
        if control.kind == "power":
            r_eff = control.r
        elif control.kind == "measured":
            r_eff = control.envelope.fit_r
        else:
            return None
        verdict = bounds.convergence_predicate(exp.scheme, r_eff)
        if not verdict:
            raise DivergentSeriesError(
                f"divergent: {verdict.condition} fails for the declared control"
            )
        return verdict

    _stage("convergence-predicate", check_predicate)

    spec = _series_spec(exp)
    pts = draw_samples(exp.space, exp.plan, arity=1)
    records, max_violation = _check_points(exp, control, spec, _approximants(exp, pts))

    audit_block = None
    if exp.config["audit"]:
        if control.kind != "power":
            raise StageFailure("audit", JensenLabError(
                "audit blocks need a power-type control in the config"))
        audit_block = _stage("audit", lambda: _audit(exp, control, records)).to_json_dict()

    summary = {
        "count": len(records),
        "max_violation": max_violation,
        "passed": bool(max_violation <= exp.tol),
        "scheme": exp.scheme.label(),
        "forced_pairing": exp.forced_pairing,
    }
    return RunReport(config=exp.config, points=records, summary=summary,
                     audit=audit_block, control_fit=fit,
                     runtime_seconds=time.perf_counter() - t0)


VERIFY_CSV_HEADER = ["index", "x_norm", "deviation", "bound", "margin"]


def render_report(report: RunReport, fmt: str = "json") -> str:
    if fmt == "json":
        return stable_json(report.to_json_dict())
    if fmt == "csv":
        rows = [{"index": i, "x_norm": rec["x_norm"], "deviation": rec["deviation"],
                 "bound": rec["bound"], "margin": rec["margin"]}
                for i, rec in enumerate(report.points)]
        return csv_table(VERIFY_CSV_HEADER, rows)
    raise ValueError(f"format must be json or csv, got {fmt!r}")


def write_report(report: RunReport, fmt: str, path) -> str:
    """Serialize and write; returns the rendered text. Byte-stable per config."""
    text = render_report(report, fmt)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)
    return text


# --- sweep --------------------------------------------------------------------

SWEEP_COLUMNS = [
    "family", "rho1_re", "rho1_im", "rho2_re", "rho2_im", "alpha", "beta",
    "theta", "r", "admissible", "converges", "max_violation",
    "paper_constant", "derived_constant", "empirical_sup", "status",
]

#: Grid axes in deterministic (lexicographic) iteration order.
SWEEP_AXES = ("rho1", "rho2", "alpha", "beta", "theta", "r")


def _axis_values(cfg: dict, axis: str):
    grid = cfg.get("grid", {})
    if axis in grid:
        return list(grid[axis])
    if axis in ("rho1", "rho2", "alpha", "beta"):
        return [cfg["params"][axis]]
    ctrl = cfg["control"]
    return [ctrl.get(axis if axis == "r" else "theta", 0.0 if axis == "theta" else 1.0)]


def run_sweep(doc: dict) -> list:
    """One row per grid cell; cell failures are encoded in-row, never raised.

    The grid spans rho1, rho2 (complex as [re, im]), alpha, beta, theta, r;
    unspecified axes are pinned at the base config's value. Cells use a power
    control built from (theta, r). The approximants depend on a cell only
    through its scheme, so they are computed once per distinct scheme.
    """
    cfg = normalize_config(doc)
    axes = [_axis_values(cfg, a) for a in SWEEP_AXES]
    approximated = {}  # Scheme -> _approximants(...) of the cells' shared points
    rows = []
    for rho1, rho2, alpha, beta, theta, r in itertools.product(*axes):
        cell = {k: None for k in SWEEP_COLUMNS}
        z1 = model.complex_from_pair(rho1)
        z2 = model.complex_from_pair(rho2)
        cell.update({
            "family": cfg["params"]["family"],
            "rho1_re": z1.real, "rho1_im": z1.imag,
            "rho2_re": z2.real, "rho2_im": z2.imag,
            "alpha": float(alpha), "beta": None if beta is None else float(beta),
            "theta": float(theta), "r": float(r),
            "status": "ok",
        })
        rows.append(cell)
        cell_doc = {
            **{k: v for k, v in cfg.items() if k != "grid"},
            "params": {**cfg["params"], "rho1": [z1.real, z1.imag],
                       "rho2": [z2.real, z2.imag], "alpha": float(alpha),
                       "beta": None if beta is None else float(beta)},
            "control": {"kind": "power", "theta": float(theta), "r": float(r)},
            "scheme": {**cfg["scheme"]},
        }
        if cfg["params"]["family"] == "B" and beta is not None and "scale" not in (doc.get("scheme") or {}):
            cell_doc["scheme"]["scale"] = 1.0 + float(beta)
        try:
            exp = build_experiment(cell_doc)
            adm = inequality.admissible(exp.params)
            cell["admissible"] = bool(adm)
            verdict = bounds.convergence_predicate(exp.scheme, float(r))
            cell["converges"] = bool(verdict)
            try:
                cell["paper_constant"] = bounds.corollary_constant(
                    bounds.constant_tag(exp.params.family, exp.scheme.direction),
                    float(theta), float(r), abs(exp.params.rho2), beta=exp.params.beta)
            except JensenLabError:
                cell["paper_constant"] = "divergent"
            if not adm:
                cell["status"] = "inadmissible"
                continue
            spec = _series_spec(exp)
            control = bounds.ControlFunction.power(float(theta), float(r))
            try:
                cell["derived_constant"] = bounds.phi_tilde_norm(control, 1.0, spec).total()
            except JensenLabError:
                cell["derived_constant"] = "divergent"
            if not verdict:
                cell["status"] = "divergent"
                continue
            if exp.scheme not in approximated:
                approximated[exp.scheme] = _approximants(
                    exp, draw_samples(exp.space, exp.plan, arity=1))
            records, cell["max_violation"] = _check_points(exp, control, spec,
                                                           approximated[exp.scheme])
            cell["empirical_sup"] = _audit(exp, control, records).empirical_sup
        except JensenLabError as e:
            cell["status"] = e.code
    return rows


def render_sweep(rows: list, fmt: str = "csv") -> str:
    if fmt == "csv":
        return csv_table(SWEEP_COLUMNS, rows)
    if fmt == "json":
        return stable_json(rows)
    raise ValueError(f"format must be json or csv, got {fmt!r}")
