"""Experiment orchestration: configs, verification runs, sweeps, report files.

Configs are JSON documents; complex numbers are [re, im] pairs and every
default is echoed back into the report for provenance. Report serialization
is bit-stable: keys sorted, floats printed with 17 significant digits, and no
volatile fields (wall-clock runtime is kept on the in-memory report only, so
identical configs produce byte-identical files).
"""

from __future__ import annotations

import itertools
import json
import math
import time

import numpy as np

from . import bounds, direct_method, inequality, model
# harness.approximate stays while the benchmark's traced-run self-test reads it
from .direct_method import Scheme, approximate  # noqa: F401
from .errors import (
    ConfigError,
    JensenLabError,
    PairingError,
    StageFailure,
    UnknownKeyError,
)
from .space import NORM_KINDS, NormedSpace, SamplePlan, draw_samples

# --- stable serialization ----------------------------------------------------


def format_float(x: float) -> str:
    if isinstance(x, bool):  # bools are ints; keep them out of the float path
        raise TypeError("bool is not a float")
    if not math.isfinite(x):
        raise ValueError(f"non-finite value {x} cannot be serialized")
    return f"{x:.17g}"


def _emit(o) -> str:
    """JSON of a JSON-native value: floats as ``format_float``, dict keys sorted; a
    value ``json.dumps`` cannot write (a numpy scalar or array, say) is a TypeError."""
    if isinstance(o, float):
        return format_float(o)
    if isinstance(o, dict):
        return "{" + ",".join([f"{json.dumps(k)}:{_emit(o[k])}" for k in sorted(o)]) + "}"
    if isinstance(o, (list, tuple)):
        return "[" + ",".join([_emit(v) for v in o]) + "]"
    if o is None:
        return "null"
    if o is True or o is False:
        return "true" if o else "false"
    if isinstance(o, int):  # bools are caught above; json.dumps writes an int so too
        return int.__repr__(o)
    return json.dumps(o)


def stable_json(obj) -> str:
    """Deterministic JSON: sorted keys, %.17g floats, no whitespace variance."""
    return _emit(obj) + "\n"


def csv_table(header: list, rows: list) -> str:
    """One line per row: a cell is empty for None, a string as it is, any other value as in JSON."""
    lines = [",".join(header)] + [
        ",".join(["" if v is None else v if isinstance(v, str) else _emit(v)
                  for v in [row[k] for k in header]]) for row in rows]
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
#: section), ``REQUIRED`` or ``OPTIONAL``. A null ``envelope.seed`` is derived
#: by ``normalize_config``, and a null ``scheme.scale`` by ``_experiment``.
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
    """The config checked against CONFIG_SCHEMA with every default filled in but a
    null ``scheme.scale`` (pure data, JSON-serializable, echoed into reports). A null
    ``envelope.seed`` is the plan seed with its top bit flipped, never the plan seed, so a
    measured control's triples are not drawn from the points that ``verify`` checks."""
    cfg = _checked(CONFIG_SCHEMA, doc, "")
    if cfg["envelope"]["seed"] is None:
        cfg["envelope"]["seed"] = cfg["plan"]["seed"] ^ (1 << 63)
    return cfg


class Experiment:
    """Materialized config: live objects ready to run. A measured control has no
    envelope until ``bounds.run_cells`` measures one on ``envelope_plan``."""

    def __init__(self, config: dict, space: NormedSpace, f: model.TestFunction,
                 params: inequality.RhoParams, scheme: Scheme, plan: SamplePlan,
                 envelope_plan: SamplePlan, control: bounds.ControlFunction, tol: float,
                 forced_pairing: bool):
        self.config, self.space, self.f, self.params, self.scheme = config, space, f, params, scheme
        self.plan, self.envelope_plan, self.control = plan, envelope_plan, control
        self.tol, self.forced_pairing = tol, forced_pairing


def _scheme(cfg: dict) -> tuple:
    """(the scheme section with a null scale derived, forced): the derived scale is 2
    for family A and 1 + beta for family B. Family A pairs with dyadic schemes and
    family B with scale 1 + beta; --force runs any other pairing."""
    scheme, beta = cfg["scheme"], cfg["params"]["beta"]
    family_a = cfg["params"]["family"] == "A"
    if scheme["scale"] is None:
        if not family_a and beta is None:
            raise PairingError("pairing: family B needs beta to derive the scheme scale")
        scheme = {**scheme, "scale": 2.0 if family_a else 1.0 + beta}
    scale = scheme["scale"]
    if family_a:
        ok = abs(scale) == 2.0
        why = (f"family A pairs with dyadic schemes (|scale| = 2), got {scale} (--force runs "
               "only defect and approximate: a family-A series needs |scale| = 2)")
    else:
        ok = beta is not None and abs(scale - (1.0 + beta)) <= 1e-12
        why = (f"family B pairs with scale 1 + beta = {None if beta is None else 1 + beta}, "
               f"got {scale} (use --force to override)")
    if ok or cfg["force"]:
        return scheme, not ok
    raise PairingError(f"pairing: {why}")


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
    kind, rows = cfg["kind"], cfg.get("matrix")  # identity has no matrix
    if kind == "identity":
        return model.AdditiveCore.identity(dim)
    if rows is None:
        return model.AdditiveCore.random(dim, seed=cfg["seed"], kind=kind)
    n = dim if kind == "complex_linear" else 2 * dim
    matrix = (np.array([model.vector_from_pairs(row) for row in rows], dtype=np.complex128)
              if kind == "complex_linear" else np.array(rows, dtype=float))
    if matrix.shape != (n, n):
        raise ValueError(f"{kind} matrix {matrix.shape} does not act on C^{dim}: need ({n}, {n})")
    return model.AdditiveCore(kind, matrix)


def _perturbation(cfg: dict, dim: int) -> model.Perturbation:
    if cfg["kind"] != "tabulated":
        return model.Perturbation(**cfg)
    vectors = {f"table[{i}].{k}": e[k]
               for i, e in enumerate(cfg["table"]) for k in ("point", "value")}
    for field, pairs in {**vectors, "default": cfg["default"]}.items():
        if pairs is not None and len(pairs) != dim:
            raise ValueError(f"{field} has length {len(pairs)}, need space.dim {dim}")
    table = {model.quantize(model.vector_from_pairs(e["point"]), cfg["quant_step"]):
             model.vector_from_pairs(e["value"]) for e in cfg["table"]}
    default = None if cfg["default"] is None else model.vector_from_pairs(cfg["default"])
    return model.Perturbation.tabulated(table=table, default=default, quant_step=cfg["quant_step"])


def _shared(cfg: dict) -> tuple:
    """(f, plan, envelope plan) of a normalized config, which no sweep axis changes."""
    fn, env = cfg["function"], cfg["envelope"]
    space = _built("space", lambda: NormedSpace(cfg["space"]["dim"], cfg["space"]["norm"]))
    core = _built("function.core", lambda: _core(fn["core"], space.dim))
    plan = _built("plan", lambda: SamplePlan(**cfg["plan"]))
    step = fn["perturbation"].get("quant_step", model.QUANT_STEP)  # a field of tabulated only
    # (field, value, largest value): a count's bound caps its run's time and memory, which
    # the README's schema block states
    for path, value, most in (("tolerances.tol", cfg["tolerances"]["tol"], math.inf),
                              ("plan.count", plan.count, 10 ** 6),
                              ("envelope.count", env["count"], 10 ** 6),
                              ("envelope.shells", env["shells"], 10 ** 5),
                              ("trunc_terms", cfg["trunc_terms"], 10 ** 5),
                              ("max_n", cfg["max_n"], 10 ** 5),
                              ("function.perturbation.quant_step", step, math.inf)):
        if not value > 0:
            raise ConfigError(f"config: {path} must be positive, got {value}")
        if value > most:
            raise ConfigError(f"config: {path} must be at most {most}, got {value}")
    perturbation = _built("function.perturbation",
                          lambda: _perturbation(fn["perturbation"], space.dim))
    f = model.TestFunction(space, core, perturbation, fn["force_zero_at_origin"])
    return f, plan, _built("envelope", lambda: SamplePlan(
        env["seed"], env["count"], plan.radius, plan.exclude_origin_below))


def _experiment(cfg: dict, f, plan, envelope_plan) -> Experiment:
    """A normalized config's Experiment on ``_shared``'s parts: the one place a
    scheme is derived and paired, for ``verify`` and every sweep cell."""
    scheme, forced = _scheme(cfg)
    cfg = {**cfg, "scheme": scheme}
    ctrl = cfg["control"]
    control = _built("control", lambda: (
        bounds.ControlFunction.tabulated(ctrl["edges"], ctrl["values"])
        if ctrl["kind"] == "tabulated" else bounds.ControlFunction(**ctrl)))
    return Experiment(config=cfg, space=f.space, f=f, params=rho_params(cfg),
                      scheme=Scheme(scheme["direction"], scheme["scale"]),
                      plan=plan, envelope_plan=envelope_plan, control=control,
                      tol=cfg["tolerances"]["tol"], forced_pairing=forced)


def build_experiment(doc: dict) -> Experiment:
    """The one place a config becomes objects, after it is checked against
    CONFIG_SCHEMA; a fault raises ConfigError naming the field, or PairingError."""
    cfg = normalize_config(doc)
    return _experiment(cfg, *_shared(cfg))


class RunReport:
    """In-memory verification result; ``outcome`` and ``runtime_seconds`` never hit the file."""

    def __init__(self, config: dict, points: list, summary: dict, audit: dict | None,
                 control_fit: dict | None, outcome: str, runtime_seconds: float):
        self.config, self.points, self.summary, self.audit = config, points, summary, audit
        self.control_fit, self.outcome, self.runtime_seconds = control_fit, outcome, runtime_seconds

    def to_json_dict(self) -> dict:
        out = {"config": self.config, "points": self.points, "summary": self.summary,
               "audit": self.audit, "control_fit": self.control_fit}
        return {k: v for k, v in out.items() if v is not None}


def run_verify(doc: dict) -> RunReport:
    """Full verification: A at every sample point, series bound, margins.

    The config's one cell through ``bounds.run_cells``'s stages, with the audit when the
    config asks for one; the first failure aborts naming its stage. A measured control's
    shell edges and shell_max are echoed as ``control_fit``; its phi reads the running max
    of the shell table. Pass iff the cell's outcome is ok: max over points of (||f - A|| -
    phi_tilde - tail) <= tol and, with the audit, ``empirical_le`` the derived constant; a
    plan needs at least one point.
    """
    t0 = time.perf_counter()
    exp = build_experiment(doc)
    cfg = exp.config
    pts = draw_samples(exp.space, exp.plan, arity=1)
    [(cols, fault)] = bounds.run_cells(
        exp.f, pts, [(exp.params, exp.scheme, exp.control)], exp.tol, cfg["max_n"],
        cfg["trunc_terms"], cfg["printed_display"], bound=True, audit=cfg["audit"],
        envelope=(exp.envelope_plan, cfg["envelope"]["shells"]))
    if fault is not None:
        raise StageFailure(*fault) from fault[1]
    tail, approximated = cols["tail"], cols["approximants"]
    # one record per point; a series that ran out of coverage also gives its term count
    records = [{"x": [list(z) for z in zip(re, im)], "x_norm": nx, "deviation": dev, "bound": b,
                "tail": "unavailable" if tail is None else tail, "margin": b - dev, "iterations": k,
                **({"terms": t, "coverage_truncated": True} if t < cfg["trunc_terms"] else {})}
               for re, im, nx, dev, b, k, t in zip(
                   pts.real.tolist(), pts.imag.tolist(), cols["x_norm"],
                   approximated.deviations.tolist(), cols["bound"].tolist(),
                   approximated.iterations.tolist(), cols["terms"].tolist())]
    audit = (bounds.bound_audit(exp.params, exp.scheme, exp.control, cols).to_json_dict()
             if cfg["audit"] else None)
    summary = {"count": len(records), "max_violation": cols["max_violation"],
               "passed": cols["outcome"] == "ok", "scheme": exp.scheme.label(),
               "forced_pairing": exp.forced_pairing}
    return RunReport(config=cfg, points=records, summary=summary, audit=audit,
                     control_fit=cols.get("control_fit"), outcome=cols["outcome"],
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
    plans and the sample points (at least one) are built once. Each cell's config,
    with its params and power control (theta, r), goes through ``_experiment``,
    which derives (from the cell's beta) and pairs its scheme. The cells then run
    ``verify``'s stages with the audit, together (``bounds.run_cells``): a row takes
    its cell's columns, and its status is the cell's outcome (a fault's code, divergent,
    violation or ok), or the code of the fault that built no cell.
    """
    cfg = normalize_config(doc)
    grid = {**{k: [v] for k, v in {**cfg["params"], **cfg["control"]}.items()},
            **cfg.get("grid", {})}
    for axis in SWEEP_AXES:
        if axis not in grid:
            raise ConfigError(f"config: a sweep needs grid.{axis} or a power control")
    shared = _shared(cfg)
    f, plan, _ = shared
    pts = draw_samples(f.space, plan, arity=1)
    rows, cells = [], []  # cells: (row, (params, scheme, control)) of each cell built
    for rho1, rho2, alpha, beta, theta, r in itertools.product(*(grid[a] for a in SWEEP_AXES)):
        z1, z2 = model.complex_from_pair(rho1), model.complex_from_pair(rho2)
        row = {**dict.fromkeys(SWEEP_COLUMNS), "family": cfg["params"]["family"],
               "rho1_re": z1.real, "rho1_im": z1.imag, "rho2_re": z2.real, "rho2_im": z2.imag,
               "alpha": alpha, "beta": beta, "theta": theta, "r": r}
        rows.append(row)
        params = {**cfg["params"], "rho1": rho1, "rho2": rho2, "alpha": alpha, "beta": beta}
        try:
            exp = _experiment({**cfg, "params": params,
                               "control": {"kind": "power", "theta": theta, "r": r}}, *shared)
        except JensenLabError as e:
            row["status"] = e.code
            continue
        cells.append((row, (exp.params, exp.scheme, exp.control)))
    results = bounds.run_cells(f, pts, [cell for _, cell in cells], cfg["tolerances"]["tol"],
                               cfg["max_n"], cfg["trunc_terms"], cfg["printed_display"],
                               bound=True, audit=True, envelope=None)
    for (row, _), (cols, _) in zip(cells, results):
        row.update({k: cols[k] for k in cols.keys() & row.keys()}, status=cols["outcome"])
    return rows


def render_sweep(rows: list, fmt: str = "csv") -> str:
    if fmt == "csv":
        return csv_table(SWEEP_COLUMNS, rows)
    if fmt == "json":
        return stable_json(rows)
    raise ValueError(f"format must be json or csv, got {fmt!r}")
