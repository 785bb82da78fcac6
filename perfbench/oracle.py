"""Correctness checks of workload outputs, without golden bytes.

The sampled function may change legitimately (for example a new direction
hash), so no check compares report bytes across versions. Instead:

* ``verify``: the summary says passed, and every point has
  ``deviation <= bound + tol``.
* ``audit``: the empirical supremum is within the derived constant, and the
  paper and derived constants equal their closed forms.
* ``sweep``: the analytic columns (``admissible``, ``converges``,
  ``paper_constant``, ``derived_constant``, ``status``) equal their closed
  forms, and ``max_violation <= tol`` in every ``ok`` cell.

Each check returns a list of failure messages, one per failed item (point or
cell); an empty list means the output is correct. The closed forms cover the
family-A dyadic regimes with power controls, which is what the workloads use.
"""

from __future__ import annotations

import itertools
import math

DIVERGENT = "divergent"

#: Relative tolerance for comparing a reported constant with its closed form.
CONSTANT_RTOL = 1e-9

#: Relative tolerance the program allows between the empirical supremum and a
#: constant (``bounds.AUDIT_REL_TOL``), restated so a change to it shows.
AUDIT_RTOL = 1e-6


def _abs_pair(pair) -> float:
    if isinstance(pair, (int, float)):
        return abs(float(pair))
    return abs(complex(pair[0], pair[1]))


def paper_constant(direction: str, theta: float, r: float, p2: float):
    """Published c24 (forward) / c26 (backward) dyadic constant, or 'divergent'."""
    if direction == "forward":
        denom = 2.0 - 2.0 ** r
        return 2.0 * theta / (denom * (1 - p2) * (2 - p2)) if denom > 0 else DIVERGENT
    denom = 2.0 ** r - 1.0
    return 2.0 ** (1 + r) * theta / (denom * (1 - p2) * (2 - p2)) if denom > 0 else DIVERGENT


def derived_constant(direction: str, theta: float, r: float, p2: float, alpha: float):
    """Closed sum of the family-A series at ||x|| = 1 with a power control.

    Forward: sum_i 2^-(i+1) (2-p2)^-1 theta (2 (2^i)^r + w (2^i/alpha)^r);
    backward: sum_i 2^i (2-p2)^-1 theta (2 s^r + w (s/alpha)^r), s = 2^-(i+1);
    with w = 2 p2 / (1 - p2). Both are geometric.
    """
    if p2 >= 1.0:
        return DIVERGENT
    weight = 2.0 + 2.0 * p2 / (1.0 - p2) * abs(alpha) ** -r
    if direction == "forward":
        if r >= 1.0:
            return DIVERGENT
        return theta * weight / (2.0 * (2.0 - p2) * (1.0 - 2.0 ** (r - 1.0)))
    if r <= 1.0:
        return DIVERGENT
    return theta * weight * 2.0 ** -r / ((2.0 - p2) * (1.0 - 2.0 ** (1.0 - r)))


def _same(got, want) -> bool:
    if isinstance(want, str) or want is None or isinstance(want, bool):
        return got == want
    if isinstance(got, (str, bool)) or got is None:
        return False
    return math.isclose(float(got), want, rel_tol=CONSTANT_RTOL, abs_tol=0.0)


def _require_family_a_power(doc: dict):
    params = doc["params"]
    if params.get("family", "A") != "A":
        raise ValueError("the oracle's closed forms cover family A only")
    if abs(float(doc.get("scheme", {}).get("scale") or 2.0)) != 2.0:
        raise ValueError("the oracle's closed forms cover dyadic schemes only")
    if doc.get("printed_display"):
        raise ValueError("the oracle's closed forms cover the derived series only")


def check_verify(data: dict, doc: dict) -> list:
    """``data`` is the verify report as a JSON dict."""
    tol = float(doc.get("tolerances", {}).get("tol", 1e-9))
    points = data["points"]
    failures = [f"point {i}: deviation {p['deviation']!r} > bound {p['bound']!r} + tol"
                for i, p in enumerate(points)
                if not p["deviation"] <= p["bound"] + tol]
    want = int(doc["plan"]["count"])
    if len(points) != want or data["summary"]["count"] != want:
        failures.append(f"report has {len(points)} points, config asks for {want}")
    points_pass = not failures
    if data["summary"]["passed"] is not points_pass:
        failures.append(f"summary.passed is {data['summary']['passed']!r}, "
                        f"but the points {'pass' if points_pass else 'fail'}")
    return failures


def check_audit(data: dict, doc: dict) -> list:
    """``data`` is the audit payload (``BoundAudit.to_json_dict``)."""
    _require_family_a_power(doc)
    ctrl = doc["control"]
    theta, r = float(ctrl["theta"]), float(ctrl["r"])
    p2 = _abs_pair(doc["params"]["rho2"])
    alpha = float(doc["params"]["alpha"])
    direction = doc["scheme"]["direction"]
    paper = paper_constant(direction, theta, r, p2)
    derived = derived_constant(direction, theta, r, p2, alpha)
    failures = []
    if not _same(data["paper_constant"], paper):
        failures.append(f"paper_constant {data['paper_constant']!r}, closed form {paper!r}")
    if not _same(data["derived_constant"], derived):
        failures.append(f"derived_constant {data['derived_constant']!r}, closed form {derived!r}")
    if isinstance(paper, str) or isinstance(derived, str):
        match = None
    else:
        match = ("consistent" if math.isclose(paper, derived, rel_tol=AUDIT_RTOL)
                 else "mismatched")
    verdicts = data["verdicts"]
    if verdicts["derived_matches_paper"] != match:
        failures.append(f"derived_matches_paper {verdicts['derived_matches_paper']!r}, "
                        f"expected {match!r}")
    if verdicts["empirical_le_derived"] is not True:
        failures.append(f"empirical_le_derived is {verdicts['empirical_le_derived']!r}")
    sup = data["empirical_sup"]
    if not isinstance(derived, str) and not sup <= derived * (1 + AUDIT_RTOL) + 1e-12:
        failures.append(f"empirical_sup {sup!r} exceeds derived constant {derived!r}")
    return failures


def _grid_axis(doc: dict, axis: str, default):
    return list(doc.get("grid", {}).get(axis, [default]))


def check_sweep(rows: list, doc: dict) -> list:
    """``rows`` are the sweep cells as dicts of column -> value."""
    _require_family_a_power(doc)
    tol = float(doc.get("tolerances", {}).get("tol", 1e-9))
    direction = doc["scheme"]["direction"]
    params, ctrl = doc["params"], doc["control"]
    cells = list(itertools.product(
        _grid_axis(doc, "rho1", params["rho1"]), _grid_axis(doc, "rho2", params["rho2"]),
        _grid_axis(doc, "alpha", params["alpha"]), _grid_axis(doc, "theta", ctrl["theta"]),
        _grid_axis(doc, "r", ctrl["r"])))
    if len(rows) != len(cells):
        return [f"sweep has {len(rows)} cells, grid has {len(cells)}"] * max(len(cells), 1)
    failures = []
    for i, ((rho1, rho2, alpha, theta, r), row) in enumerate(zip(cells, rows)):
        p1, p2 = _abs_pair(rho1), _abs_pair(rho2)
        admissible = p1 + 3 * p2 < 2
        converges = (2.0 ** (r - 1.0) if direction == "forward" else 2.0 ** (1.0 - r)) < 1.0
        want = {
            "admissible": admissible,
            "converges": converges,
            "paper_constant": paper_constant(direction, float(theta), float(r), p2),
            "derived_constant": (derived_constant(direction, float(theta), float(r), p2,
                                                  float(alpha)) if admissible else None),
            "status": "inadmissible" if not admissible else ("ok" if converges else "divergent"),
        }
        wrong = [k for k, v in want.items() if not _same(row[k], v)]
        if wrong:
            failures.append(f"cell {i}: {', '.join(f'{k}={row[k]!r} (want {want[k]!r})' for k in wrong)}")
        elif row["status"] == "ok" and not (isinstance(row["max_violation"], float)
                                            and row["max_violation"] <= tol):
            failures.append(f"cell {i}: max_violation {row['max_violation']!r} > tol {tol!r}")
    return failures


CHECKS = {
    "verify": check_verify,
    "audit": check_audit,
    "sweep": check_sweep,
}


def parse_csv(text: str) -> list:
    """Sweep CSV back to row dicts, with the types ``harness.csv_table`` wrote."""
    lines = text.splitlines()
    header = lines[0].split(",")

    def cell(v: str):
        if v == "":
            return None
        if v in ("true", "false"):
            return v == "true"
        try:
            return float(v)
        except ValueError:
            return v

    return [dict(zip(header, map(cell, line.split(",")))) for line in lines[1:]]
