"""Experiment orchestration: configs, verification runs, sweeps, report files.

Configs are JSON documents; complex numbers are [re, im] pairs and every
default is echoed back into the report for provenance. Report serialization
is bit-stable: keys sorted, floats printed with 17 significant digits, and no
volatile fields (wall-clock runtime is kept on the in-memory report only, so
identical configs produce byte-identical files).
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass, replace

import numpy as np

from . import bounds, direct_method, inequality, model
# harness.approximate stays while the benchmark's traced-run self-test reads it
from .direct_method import Scheme, approximate  # noqa: F401
from .errors import (
    ConfigError,
    DivergentSeriesError,
    JensenLabError,
    NotConvergedError,
    PairingError,
    StageFailure,
    UnknownKeyError,
)
from .space import NORM_KINDS, NormedSpace, SamplePlan, draw_samples

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
    """A CSV cell: empty for None, a string as it is, any other value as in JSON."""
    if v is None:
        return ""
    return v if isinstance(v, str) else stable_json(v)[:-1]


def csv_table(header: list, rows: list) -> str:
    lines = [",".join(header)] + [",".join(_csv_cell(row[k]) for k in header) for row in rows]
    return "\n".join(lines) + "\n"


# --- configuration ------------------------------------------------------------

#: Defaults of a field that must be given, and of one left out when not given.
REQUIRED, OPTIONAL = object(), object()
NONE = type(None)


class Kinds(dict):
    """A section whose fields depend on its kind: kind -> fields; the first is the default."""


_DIRECTION = {"direction": (model.DIRECTION_KINDS, "hashed"), "direction_seed": (int, 0)}
_CORE_MATRIX = {"matrix": ((list, NONE), None), "seed": (int, 0)}

#: Every config field as ``(accepted, default)``. ``accepted`` is a type or a
#: tuple of types (a float field also takes an int and stores a float; a bool
#: is not a number), ``complex`` for [re, im] or a real number, a tuple of
#: allowed strings, ``[accepted]`` for a list of such values, or a section:
#: a dict of fields, or ``Kinds``. ``default`` is a value (``{}`` for a
#: section), ``REQUIRED`` or ``OPTIONAL``. ``normalize_config`` derives
#: ``scheme.scale`` and ``envelope.seed`` when they are null.
CONFIG_SCHEMA = {
    "space": ({"dim": (int, 2), "norm": (NORM_KINDS, "l2")}, {}),
    "function": ({
        "core": (Kinds(identity={}, complex_linear=_CORE_MATRIX, real_linear=_CORE_MATRIX), {}),
        "perturbation": (Kinds(
            none={},
            bounded={"epsilon": (float, REQUIRED), **_DIRECTION},
            power={"theta": (float, REQUIRED), "r": (float, REQUIRED), **_DIRECTION},
            tabulated={"table": ([{"point": (list, REQUIRED), "value": (list, REQUIRED)}], []),
                       "default": ((list, NONE), None),
                       "quant_step": (float, model.QUANT_STEP)},
        ), {}),
        "force_zero_at_origin": (bool, False),
    }, {}),
    "params": ({"family": (inequality.FAMILIES, "A"), "rho1": (complex, [0.0, 0.0]),
                "rho2": (complex, [0.0, 0.0]), "alpha": (float, 1.0),
                "beta": ((float, NONE), None)}, {}),
    "scheme": ({"direction": (direct_method.DIRECTIONS, "forward"),
                "scale": ((float, NONE), None)}, {}),
    "control": (Kinds(zero={}, power={"theta": (float, REQUIRED), "r": (float, REQUIRED)},
                      tabulated={"edges": ([float], REQUIRED), "values": ([float], REQUIRED)},
                      measured={}), {}),
    "plan": ({"seed": (int, 0), "count": (int, 100), "radius": (float, 2.0),
              "exclude_origin_below": (float, 0.1)}, {}),
    "envelope": ({"count": (int, 1000), "shells": (int, 8), "seed": ((int, NONE), None)}, {}),
    # atol and rtol are echoed into the report but read by nothing
    "tolerances": ({"tol": (float, 1e-9), "atol": (float, 1e-12), "rtol": (float, 1e-9)}, {}),
    # terms summed one by one for tabulated and measured controls; power controls sum in closed form
    "trunc_terms": (int, bounds.DEFAULT_TRUNC_TERMS),
    "max_n": (int, 200),
    "printed_display": (bool, False),
    "audit": (bool, False),
    "force": (bool, False),
    # sweep axes; an axis not given is pinned at the base config's value
    "grid": ({"rho1": ([complex], OPTIONAL), "rho2": ([complex], OPTIONAL),
              "alpha": ([float], OPTIONAL), "beta": ([(float, NONE)], OPTIONAL),
              "theta": ([float], OPTIONAL), "r": ([float], OPTIONAL)}, OPTIONAL),
}


def _finite(value, path: str) -> float:
    """A JSON number as a finite float; NaN, an infinity or an int past the
    float range raises ConfigError naming ``path``."""
    try:
        number = float(value)
    except OverflowError:
        number = math.inf
    if not math.isfinite(number):
        raise ConfigError(f"config: {path} must be a finite number, got {value!r}")
    return number


def _checked(accepted, value, path: str):
    """``value`` checked against ``accepted`` (see CONFIG_SCHEMA), with the
    defaults of a section filled in; a fault raises ConfigError naming ``path``."""
    if isinstance(accepted, dict):
        if not isinstance(value, dict):
            raise ConfigError(f"config: {path or 'the config'} must be an object, got {value!r}")
        if isinstance(accepted, Kinds):
            kinds = tuple(accepted)
            kind = _checked(kinds, value.get("kind", kinds[0]), f"{path}.kind")
            accepted = {"kind": (kinds, kinds[0]), **accepted[kind]}
        prefix = f"{path}." if path else ""
        out = {}
        for key, (field, default) in accepted.items():
            if key not in value and default is REQUIRED:
                raise ConfigError(f"config: {prefix}{key} is required")
            if key in value or default is not OPTIONAL:
                out[key] = _checked(field, value.get(key, default), prefix + key)
        for key in value:
            if key not in accepted:
                raise UnknownKeyError(f"unknown-key: {prefix}{key} is not a config key")
        return out
    if isinstance(accepted, list):
        if not isinstance(value, list):
            raise ConfigError(f"config: {path} must be a list, got {value!r}")
        return [_checked(accepted[0], v, f"{path}[{i}]") for i, v in enumerate(value)]
    if accepted is complex:
        parts = value if isinstance(value, list) and len(value) == 2 else [value]
        if all(isinstance(p, (int, float)) and not isinstance(p, bool) for p in parts):
            return [_finite(p, path) for p in parts] if parts is value else _finite(value, path)
        raise ConfigError(f"config: {path} must be [re, im] or a number, got {value!r}")
    accepted = accepted if isinstance(accepted, tuple) else (accepted,)
    if isinstance(accepted[0], str):
        if value in accepted:
            return value
        raise ConfigError(f"config: {path} must be one of {', '.join(accepted)}, got {value!r}")
    types = accepted + (int,) if float in accepted else accepted
    if not isinstance(value, types) or (isinstance(value, bool) and bool not in accepted):
        need = " or ".join("null" if t is NONE else t.__name__ for t in accepted)
        raise ConfigError(f"config: {path} must be {need}, got {value!r}")
    return _finite(value, path) if float in accepted and value is not None else value


def normalize_config(doc: dict) -> dict:
    """The config checked against CONFIG_SCHEMA with every default filled in
    (pure data, JSON-serializable, echoed into reports)."""
    cfg = _filled(doc)
    return {**cfg, "scheme": _scheme_section(cfg["scheme"], cfg["params"])}


def _filled(doc: dict) -> dict:
    """The config checked with its defaults filled in, ``scheme.scale`` left as given."""
    cfg = _checked(CONFIG_SCHEMA, doc, "")
    if cfg["envelope"]["seed"] is None:
        cfg["envelope"]["seed"] = cfg["plan"]["seed"]
    return cfg


def _scheme_section(scheme: dict, params: dict) -> dict:
    """``scheme`` with a null scale derived: 2 for family A, 1 + beta for family B."""
    if scheme["scale"] is None:
        if params["family"] == "B" and params["beta"] is None:
            raise PairingError("pairing: family B needs beta to derive the scheme scale")
        scheme = {**scheme, "scale": 2.0 if params["family"] == "A" else 1.0 + params["beta"]}
    return scheme


@dataclass(eq=False)
class Experiment:
    """Materialized config: live objects ready to run. A measured control has no
    envelope until ``_build_control`` measures one on ``envelope_plan``."""

    config: dict
    space: NormedSpace
    f: model.TestFunction
    params: inequality.RhoParams
    scheme: Scheme
    plan: SamplePlan
    envelope_plan: SamplePlan
    control: bounds.ControlFunction
    tol: float
    forced_pairing: bool


def _check_pairing(cfg: dict) -> bool:
    """Enforce family A <-> dyadic, family B <-> scale 1+beta; --force overrides."""
    scale, beta = cfg["scheme"]["scale"], cfg["params"]["beta"]
    if cfg["params"]["family"] == "A":
        ok = abs(scale) == 2.0
        why = f"family A pairs with dyadic schemes (|scale| = 2), got {scale}"
    else:
        ok = beta is not None and abs(scale - (1.0 + beta)) <= 1e-12
        why = f"family B pairs with scale 1 + beta = {None if beta is None else 1 + beta}, got {scale}"
    if ok:
        return False
    if cfg["force"]:
        return True
    raise PairingError(f"pairing: {why} (use --force to override)")


def _built(section: str, build):
    """``build()``, with a ValueError or TypeError named as the config ``section``'s."""
    try:
        return build()
    except (ValueError, TypeError) as e:
        raise ConfigError(f"config: {section}: {e}") from e


def rho_params(cfg: dict) -> inequality.RhoParams:
    """Inequality parameters of a normalized config."""
    p = cfg["params"]
    return inequality.RhoParams(p["family"], model.complex_from_pair(p["rho1"]),
                                model.complex_from_pair(p["rho2"]), p["alpha"], p["beta"])


def _core(cfg: dict, dim: int) -> model.AdditiveCore:
    if cfg["kind"] == "identity":
        return model.AdditiveCore.identity(dim)
    if cfg["matrix"] is None:
        return model.AdditiveCore.random(dim, seed=cfg["seed"], kind=cfg["kind"])
    if cfg["kind"] == "complex_linear":
        return model.AdditiveCore(cfg["kind"], np.array(
            [model.vector_from_pairs(row) for row in cfg["matrix"]], dtype=np.complex128))
    return model.AdditiveCore(cfg["kind"], np.array(cfg["matrix"], dtype=float))


def _perturbation(cfg: dict) -> model.Perturbation:
    if cfg["kind"] != "tabulated":
        return model.Perturbation(**cfg)
    step = cfg["quant_step"]
    table = {model.quantize(model.vector_from_pairs(e["point"]), step):
             model.vector_from_pairs(e["value"]) for e in cfg["table"]}
    default = None if cfg["default"] is None else model.vector_from_pairs(cfg["default"])
    return model.Perturbation.tabulated(table=table, default=default, quant_step=step)


def _shared(cfg: dict) -> tuple:
    """(f, plan, envelope plan) of a normalized config, which no sweep axis changes."""
    fn = cfg["function"]
    space = _built("space", lambda: NormedSpace(cfg["space"]["dim"], cfg["space"]["norm"]))
    core = _built("function.core", lambda: _core(fn["core"], space.dim))
    perturbation = _built("function.perturbation", lambda: _perturbation(fn["perturbation"]))
    f = model.TestFunction(space, core, perturbation, fn["force_zero_at_origin"])
    plan = _built("plan", lambda: SamplePlan(**cfg["plan"]))
    env = cfg["envelope"]
    for path, value in (("tolerances.tol", cfg["tolerances"]["tol"]), ("plan.count", plan.count),
                        ("envelope.count", env["count"]), ("envelope.shells", env["shells"]),
                        ("trunc_terms", cfg["trunc_terms"]), ("max_n", cfg["max_n"])):
        if not value > 0:
            raise ConfigError(f"config: {path} must be positive, got {value}")
    return f, plan, _built("envelope", lambda: replace(plan, seed=env["seed"], count=env["count"]))


def _experiment(cfg: dict, f, plan, envelope_plan) -> Experiment:
    """A normalized config's Experiment on ``_shared``'s parts: pairing check, control, params."""
    forced = _check_pairing(cfg)
    ctrl = cfg["control"]
    control = _built("control", lambda: (
        bounds.ControlFunction.tabulated(ctrl["edges"], ctrl["values"])
        if ctrl["kind"] == "tabulated" else bounds.ControlFunction(**ctrl)))
    return Experiment(config=cfg, space=f.space, f=f, params=rho_params(cfg),
                      scheme=Scheme(cfg["scheme"]["direction"], cfg["scheme"]["scale"]),
                      plan=plan, envelope_plan=envelope_plan, control=control,
                      tol=cfg["tolerances"]["tol"], forced_pairing=forced)


def build_experiment(doc: dict) -> Experiment:
    """The one place a config becomes objects, after it is checked against
    CONFIG_SCHEMA; a fault raises ConfigError naming the field, or PairingError."""
    cfg = normalize_config(doc)
    return _experiment(cfg, *_shared(cfg))


def _build_control(exp: Experiment):
    """(control, fit_info | None), measuring the envelope of a measured control."""
    if exp.control.kind != "measured":
        return exp.control, None
    env = inequality.measure_envelope(exp.f, exp.params, exp.envelope_plan,
                                      shells=exp.config["envelope"]["shells"])
    fit = {"theta": env.fit_theta, "r": env.fit_r,
           "shell_edges": env.edges.tolist(), "shell_max": env.shell_max.tolist()}
    return bounds.ControlFunction.measured(env), fit


def _series_spec(exp: Experiment) -> bounds.SeriesSpec:
    return bounds.SeriesSpec(
        scheme=exp.scheme, family=exp.params.family, rho2_abs=abs(exp.params.rho2),
        alpha=exp.params.alpha, trunc_terms=exp.config["trunc_terms"],
        printed_display=exp.config["printed_display"], rho1_abs=abs(exp.params.rho1),
    )


def _stage(name: str, fn):
    try:
        return fn()
    except JensenLabError as e:
        raise StageFailure(name, e) from e


def _approximants(exp: Experiment, points) -> direct_method.Approximants:
    """The approximation pass over ``points``; a point that does not converge is divergent."""
    try:
        return direct_method.approximate_points(exp.f, points, exp.scheme, exp.tol,
                                                max_n=exp.config["max_n"])
    except NotConvergedError as e:
        raise DivergentSeriesError(f"divergent: {e}") from e


def _bound(control, spec: bounds.SeriesSpec, norms: np.ndarray) -> tuple:
    """phi~'s columns at ``norms`` and the bound column phi~ + tail: the 'phi-tilde' stage."""
    phi = _stage("phi-tilde", lambda: bounds.phi_tilde_norms(control, norms, spec))
    return phi, phi[0] + (phi[1] or 0.0)


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
        out = {"config": self.config, "points": self.points, "summary": self.summary,
               "audit": self.audit, "control_fit": self.control_fit}
        return {k: v for k, v in out.items() if v is not None}


def run_verify(doc: dict) -> RunReport:
    """Full verification: A at every sample point, series bound, margins.

    Pipeline stages, run in this order (each failure aborts naming the stage):
    admissibility, the control kind an audit needs (when one is asked for),
    control construction (envelope measurement for measured controls), the
    series phi~ at every sampled norm, which names a divergent series before
    any orbit is run, the approximation pass, and the audit (when one is asked
    for). A measured control's power-law fit is echoed as ``control_fit`` and
    decides nothing. Pass iff max over points of (||f - A|| - phi_tilde - tail)
    <= tol; a plan needs at least one point.
    """
    t0 = time.perf_counter()
    exp = build_experiment(doc)

    _stage("admissibility", lambda: inequality.require_admissible(exp.params))
    if exp.config["audit"]:
        _stage("audit", lambda: bounds.require_power_control(exp.control))
    control, fit = _stage("envelope", lambda: _build_control(exp))

    spec = _series_spec(exp)
    pts = draw_samples(exp.space, exp.plan, arity=1)
    norms = exp.space.norms(pts)
    (_, tail, terms), bound = _bound(control, spec, norms)
    approximated = _stage("approximate", lambda: _approximants(exp, pts))
    max_violation = max((approximated.deviations - bound).tolist())
    norms, devs = norms.tolist(), approximated.deviations.tolist()
    # one record per point; a series that ran out of coverage also gives its term count
    records = [{"x": [list(z) for z in zip(re, im)], "x_norm": nx, "deviation": dev, "bound": b,
                "tail": "unavailable" if tail is None else tail, "margin": b - dev, "iterations": k,
                **({"terms": t, "coverage_truncated": True} if t < spec.trunc_terms else {})}
               for re, im, nx, dev, b, k, t in zip(
                   pts.real.tolist(), pts.imag.tolist(), norms, devs, bound.tolist(),
                   approximated.iterations.tolist(), terms.tolist())]

    audit_block = None
    if exp.config["audit"]:
        audit_block = _stage("audit", lambda: bounds.audit_deviations(
            exp.params, exp.scheme, control, zip(norms, devs),
            trunc_terms=exp.config["trunc_terms"])).to_json_dict()

    summary = {"count": len(records), "max_violation": max_violation,
               "passed": bool(max_violation <= exp.tol), "scheme": exp.scheme.label(),
               "forced_pairing": exp.forced_pairing}
    return RunReport(config=exp.config, points=records, summary=summary,
                     audit=audit_block, control_fit=fit,
                     runtime_seconds=time.perf_counter() - t0)


VERIFY_CSV_HEADER = ["index", "x_norm", "deviation", "bound", "margin"]


def render_report(report: RunReport, fmt: str = "json") -> str:
    if fmt == "json":
        return stable_json(report.to_json_dict())
    if fmt == "csv":
        rows = [{"index": i, **rec} for i, rec in enumerate(report.points)]
        return csv_table(VERIFY_CSV_HEADER, rows)
    raise ValueError(f"format must be json or csv, got {fmt!r}")


# --- sweep --------------------------------------------------------------------

SWEEP_COLUMNS = [
    "family", "rho1_re", "rho1_im", "rho2_re", "rho2_im", "alpha", "beta",
    "theta", "r", "admissible", "converges", "max_violation",
    "paper_constant", "derived_constant", "empirical_sup", "status",
]

#: Grid axes in deterministic (lexicographic) iteration order: the schema's order.
SWEEP_AXES = tuple(CONFIG_SCHEMA["grid"][0])


def run_sweep(doc: dict) -> list:
    """One row per grid cell. A fault that no cell changes fails the sweep as it
    fails ``verify``; a fault that depends on the cell is encoded in its row.

    The grid spans rho1, rho2 (complex as [re, im]), alpha, beta, theta, r;
    unspecified axes are pinned at the base config's value. The function, the
    plans and the sample points (at least one) are built once. Each cell builds
    its params, its scheme (a scale not given derives from the cell's beta) and
    its power control from (theta, r), sums phi~, then reads its scheme's
    approximation pass.
    """
    cfg = _filled(doc)
    grid = {**{k: [v] for k, v in {**cfg["params"], **cfg["control"]}.items()},
            **cfg.get("grid", {})}
    for axis in SWEEP_AXES:
        if axis not in grid:
            raise ConfigError(f"config: a sweep needs grid.{axis} or a power control")
    shared = _shared(cfg)
    f, plan, _ = shared
    pts = draw_samples(f.space, plan, arity=1)
    norms = f.space.norms(pts)
    passes = {}  # Scheme -> its approximation pass over pts, or the pass's error
    rows = []
    for rho1, rho2, alpha, beta, theta, r in itertools.product(*(grid[a] for a in SWEEP_AXES)):
        z1, z2 = model.complex_from_pair(rho1), model.complex_from_pair(rho2)
        cell = {**dict.fromkeys(SWEEP_COLUMNS), "family": cfg["params"]["family"],
                "rho1_re": z1.real, "rho1_im": z1.imag, "rho2_re": z2.real, "rho2_im": z2.imag,
                "alpha": alpha, "beta": beta, "theta": theta, "r": r, "status": "ok"}
        rows.append(cell)
        params = {**cfg["params"], "rho1": rho1, "rho2": rho2, "alpha": alpha, "beta": beta}
        try:
            exp = _experiment({**cfg, "params": params,
                               "scheme": _scheme_section(cfg["scheme"], params),
                               "control": {"kind": "power", "theta": theta, "r": r}}, *shared)
            adm = inequality.admissible(exp.params)
            cell["admissible"] = bool(adm)
            verdict = bounds.convergence_predicate(exp.scheme, r)
            cell["converges"] = bool(verdict)
            cell["paper_constant"] = bounds.paper_constant(exp.params, exp.scheme, exp.control)
            if not adm:
                cell["status"] = "inadmissible"
                continue
            cell["derived_constant"] = bounds.derived_constant(
                exp.params, exp.scheme, exp.control, exp.config["trunc_terms"])
            if not verdict:
                cell["status"] = "divergent"
                continue
            _, bound = _bound(exp.control, _series_spec(exp), norms)
            if exp.scheme not in passes:  # a failed pass is kept, so it runs once too
                try:
                    passes[exp.scheme] = _approximants(exp, pts)
                except JensenLabError as e:
                    passes[exp.scheme] = e
            approximated = passes[exp.scheme]
            if isinstance(approximated, JensenLabError):
                raise approximated
            cell["max_violation"] = max((approximated.deviations - bound).tolist())
            cell["empirical_sup"], _ = bounds.empirical_sup(
                r, zip(norms.tolist(), approximated.deviations.tolist()))
        except JensenLabError as e:
            cell["status"] = e.code
    return rows


def render_sweep(rows: list, fmt: str = "csv") -> str:
    if fmt == "csv":
        return csv_table(SWEEP_COLUMNS, rows)
    if fmt == "json":
        return stable_json(rows)
    raise ValueError(f"format must be json or csv, got {fmt!r}")
