"""Acceptance criteria, one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s``. Tolerances are pinned
here; expected values marked as oracle results were computed from independent
brute-force sums or hand arithmetic before the implementation was trusted.
"""

import json
import re
from pathlib import Path

import numpy as np
import pytest

from conftest import make_additive, make_power, phi_tilde_norms

import jensenlab
from jensenlab import (
    ControlFunction,
    RhoParams,
    SamplePlan,
    approximate,
    audit,
    backward,
    cli,
    corollary_constant,
    convergence_predicate,
    draw_samples,
    forward,
    uniqueness_crosscheck,
)
from jensenlab import errors, harness
from jensenlab.inequality import defect_many
from jensenlab.model import evaluate_many


def scale_of(f, points) -> float:
    """Rough magnitude of f over a point set, floored at 1; used to express
    'tiny relative to f' in tolerance checks."""
    return max(1.0, float(f.space.norms(evaluate_many(f, points)).max(initial=0.0)))


def report(n, ok, detail):
    print(f"criterion {n}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {n} failed: {detail}"


def test_criterion_1_additivity_oracle():
    """Exact-additive functions have vanishing defects and A = f."""
    params = {
        "A": RhoParams("A", 0.2, 0.3, 1.0),
        "B": RhoParams("B", 0.5, 0.5, 1.0, beta=1.0),
    }
    schemes = {"A": forward(2.0), "B": forward(2.0)}  # 1 + beta = 2
    worst_rel = 0.0
    worst_approx = 0.0
    for fam in ("A", "B"):
        for i in range(50):
            f = make_additive(dim=2, seed=1000 + i,
                              kind="complex_linear" if i % 2 == 0 else "real_linear")
            plan = SamplePlan(seed=2000 + i, count=20, radius=2.0,
                              exclude_origin_below=0.1)
            triples = draw_samples(f.space, plan, arity=3)
            scale = scale_of(f, [v for t in triples for v in t])
            worst_rel = max(worst_rel,
                            abs(defect_many(f, triples, params[fam])[-1]).max() / scale)
            for x in [t[0] for t in triples[:2]]:  # 2 points x 50 functions = 100
                rep = approximate(f, x, schemes[fam], tol=1e-10)
                worst_approx = max(
                    worst_approx,
                    f.space.norm(rep.value - evaluate_many(f, [x])[0]) / scale)
    ok = worst_rel <= 1e-10 and worst_approx <= 1e-10
    report(1, ok, f"max relative defect {worst_rel:.3g}, "
                  f"max |A - f| / scale {worst_approx:.3g}, both <= 1e-10")


def test_criterion_2_stability_bound_measured():
    """run_verify passes with a measured envelope for both reference models."""
    scalar_doc = {
        "space": {"dim": 1, "norm": "l2"},
        "function": {"perturbation": {"kind": "tabulated", "default": [[0.5, 0.0]]}},
        "params": {"family": "A", "rho1": [0, 0], "rho2": [0, 0], "alpha": 1.0},
        "control": {"kind": "measured"},
        "plan": {"seed": 1, "count": 100, "radius": 2.0, "exclude_origin_below": 0.1},
    }
    power_doc = {
        "space": {"dim": 2, "norm": "l2"},
        "function": {"perturbation": {"kind": "power", "theta": 0.1, "r": 0.5,
                                      "direction_seed": 5}},
        "params": {"family": "A", "rho1": [0, 0], "rho2": [0, 0], "alpha": 1.0},
        "control": {"kind": "measured"},
        "plan": {"seed": 2, "count": 100, "radius": 2.0, "exclude_origin_below": 0.1},
    }
    rep1 = harness.run_verify(scalar_doc)
    rep2 = harness.run_verify(power_doc)
    ok = (rep1.outcome == "ok" and rep1.summary["max_violation"] <= 1e-9
          and rep2.outcome == "ok" and rep2.summary["max_violation"] <= 1e-9)
    report(2, ok, f"scalar max_violation {rep1.summary['max_violation']:.3g}, "
                  f"power max_violation {rep2.summary['max_violation']:.3g}, both <= 1e-9")


def test_criterion_3_series_matches_closed_forms():
    """Truncated series equals the closed-form constants at |alpha| = 1.

    Spot values are from closed-form arithmetic: c24(1, 0.5, 0) =
    1.7071067811865475 (prints as 1.707107) and c24(1, 0.5, 0.5) =
    4.552284749830793, confirmed by an independent 300-term series sum.
    """
    worst = 0.0
    for r in (0.25, 0.5, 0.75):
        for p2 in (0.0, 0.3, 0.6):
            for theta in (0.5, 1.0):
                cell = (RhoParams("A", 0.0, p2, 1.0), forward(2.0),
                        ControlFunction.power(theta, r))
                value, tail, _ = phi_tilde_norms(cell, [1.3])
                got = value[0] + tail
                want = corollary_constant("c24", theta, r, p2) * 1.3 ** r
                worst = max(worst, abs(got - want) / want)
    for beta in (1.0, 2.0):
        for r in (0.25, 0.5):
            cell = (RhoParams("B", 0.0, 0.3, 1.0, beta), forward(1.0 + beta),
                    ControlFunction.power(1.0, r))
            value, tail, _ = phi_tilde_norms(cell, [1.3])
            got = value[0] + tail
            want = corollary_constant("c34", 1.0, r, 0.3, beta=beta) * 1.3 ** r
            worst = max(worst, abs(got - want) / want)
    spot1 = corollary_constant("c24", 1.0, 0.5, 0.0)
    spot2 = corollary_constant("c24", 1.0, 0.5, 0.5)
    ok = (worst <= 1e-9
          and abs(spot1 - 1.707107) <= 1e-6
          and abs(spot2 - 4.552284749830793) <= 1e-6)
    report(3, ok, f"max relative gap {worst:.3g} <= 1e-9; "
                  f"spots {spot1:.9f}, {spot2:.9f}")


def test_criterion_4_uniqueness():
    """Approximants from two expanding schemes agree pointwise."""
    f = make_power(dim=2, theta=0.1, r=0.5, seed=5)
    pts = draw_samples(f.space, SamplePlan(seed=9, count=100, radius=2.0,
                                           exclude_origin_below=0.1), arity=1)
    gap = uniqueness_crosscheck(f, forward(2.0), forward(3.0), pts, tol=1e-9)
    report(4, gap <= 2e-8, f"max disagreement {gap:.3g} <= 2e-8 over 100 points")


def test_criterion_5_convergence_rate():
    """Fitted log2-residual slope tracks r - 1 within 10 percent."""
    worst = 0.0
    for r in (0.25, 0.5, 0.75):
        f = make_power(dim=2, theta=1.0, r=r, direction="radial")
        rep = approximate(f, [1.0, 1.0], forward(2.0), tol=1e-300, max_n=40)
        res = np.array(rep.residuals)
        slope = np.polyfit(np.arange(1, len(res) + 1), np.log2(res), 1)[0]
        worst = max(worst, abs(slope - (r - 1)) / abs(r - 1))
    report(5, worst <= 0.10, f"max relative slope error {worst:.3g} <= 0.10")


def test_criterion_6_audit_detects_constant_discrepancy():
    """The published backward-dyadic constant disagrees with the telescoping sum.

    Independent oracle: sum_i 2^i psi(x / 2^(i+1)) with psi(u) =
    (2 - p2)^-1 [phi(u, u, 0) + 2 p2/(1-p2) phi(0, 0, u/alpha)] evaluated for
    theta = 1, r = 2, rho2 = 0, alpha = 1 at ||x|| = 1 gives exactly 0.5.
    """
    theta, r = 1.0, 2.0
    brute = sum(2.0 ** i * (2.0 * theta * (1.0 / 2.0 ** (i + 1)) ** r) / 2.0
                for i in range(200))
    assert brute == pytest.approx(0.5, abs=1e-12)

    f = make_power(dim=2, theta=0.1, r=2.0, seed=6)
    params = RhoParams("A", 0.0, 0.0, 1.0)
    pts = draw_samples(f.space, SamplePlan(seed=11, count=50, radius=2.0,
                                           exclude_origin_below=0.1), arity=1)
    out = audit(f, params, backward(2.0), ControlFunction.power(theta, r), pts,
                tol=1e-9)
    ok = (abs(out.paper_constant - 1.333333) <= 1e-6
          and abs(out.derived_constant - 0.5) <= 1e-6
          and out.verdicts["derived_matches_paper"] == "mismatched"
          and out.empirical_sup <= 0.5 + 1e-6)
    report(6, ok, f"paper {out.paper_constant:.7f}, derived {out.derived_constant:.7f}, "
                  f"verdict {out.verdicts['derived_matches_paper']}, "
                  f"empirical_sup {out.empirical_sup:.3g} <= 0.5")


def test_criterion_7_convergence_predicates():
    """Analytic term-ratio conditions, including the flagged general-scale case."""
    a = convergence_predicate(forward(2.0), 0.5)
    b = convergence_predicate(forward(2.0), 1.0)
    c = convergence_predicate(forward(2.0), 2.0)  # scale 1 + beta with beta = 1
    ok = bool(a) and not b and not c and c.detail == "|scale|^(r-1) = 2 < 1"
    report(7, ok, f"r=0.5 converges, r=1 ({b.detail}) diverges, "
                  f"forward scale-2 r=2 ({c.detail}) diverges")


def test_criterion_8_determinism(tmp_path):
    """Byte-identical verify and sweep outputs for identical configs."""
    verify_doc = {
        "space": {"dim": 2, "norm": "l2"},
        "function": {"perturbation": {"kind": "power", "theta": 0.1, "r": 0.5,
                                      "direction_seed": 5}},
        "params": {"family": "A", "rho1": [0, 0], "rho2": [0.3, 0], "alpha": 1.0},
        "control": {"kind": "measured"},
        "plan": {"seed": 3, "count": 60, "radius": 2.0, "exclude_origin_below": 0.1},
    }
    sweep_doc = {
        **verify_doc,
        "control": {"kind": "power", "theta": 1.0, "r": 0.5},
        "plan": {"seed": 3, "count": 15, "radius": 2.0, "exclude_origin_below": 0.1},
        "grid": {"rho2": [[0, 0], [0.3, 0], [0.66, 0]]},
    }
    cfg_v = tmp_path / "verify.json"
    cfg_v.write_text(json.dumps(verify_doc))
    cfg_s = tmp_path / "sweep.json"
    cfg_s.write_text(json.dumps(sweep_doc))
    outs = [tmp_path / n for n in ("v1.json", "v2.json", "s1.csv", "s2.csv")]
    assert cli.main(["verify", "--config", str(cfg_v), "--out", str(outs[0])]) == 0
    assert cli.main(["verify", "--config", str(cfg_v), "--out", str(outs[1])]) == 0
    assert cli.main(["sweep", "--config", str(cfg_s), "--out", str(outs[2])]) == 0
    assert cli.main(["sweep", "--config", str(cfg_s), "--out", str(outs[3])]) == 0
    ok = (outs[0].read_bytes() == outs[1].read_bytes()
          and outs[2].read_bytes() == outs[3].read_bytes())
    report(8, ok, f"verify bytes {len(outs[0].read_bytes())}, "
                  f"sweep bytes {len(outs[2].read_bytes())}, reruns identical")


def readme_section(heading: str) -> str:
    """The README's ``## <heading>`` section, up to the next heading."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    return readme.split(f"\n## {heading}\n", 1)[1].split("\n## ", 1)[0]


def test_readme_library_example_runs():
    """The fenced python block under the README's ``## Library`` heading runs
    against the package, so the documented API cannot drift from it."""
    block = readme_section("Library").split("```python\n", 1)[1].split("\n```", 1)[0]
    exec(compile(block, "README.md (Library)", "exec"), {})


def test_readme_library_names_every_export():
    """Every name in ``jensenlab.__all__`` is named in the README's Library section,
    in backticks or as ``jl.<name>`` in its example, so an export is a documented
    entry point or goes."""
    section = readme_section("Library")
    missing = [name for name in jensenlab.__all__
               if f"`{name}`" not in section and not re.search(rf"\bjl\.{name}\b", section)]
    assert missing == []


def schema_fields(fields: dict):
    """The names of ``fields``, a CONFIG_SCHEMA section, and of every section and
    every kind's fields below it, ``kind`` included."""
    for name, (accepted, _) in fields.items():
        yield name
        if isinstance(accepted, list):  # a list of sections, such as a perturbation table
            accepted = accepted[0]
        if isinstance(accepted, harness.Kinds):
            yield "kind"
            for kind_fields in accepted.values():
                yield from schema_fields(kind_fields)
        elif isinstance(accepted, dict):
            yield from schema_fields(accepted)


def test_readme_config_block_names_every_schema_field():
    """Every field of ``harness.CONFIG_SCHEMA``, in each section and under each kind,
    appears as ``"<field>":`` in the jsonc block of the README's Config schema
    section, so a field the schema gains is documented there."""
    block = readme_section("Config schema").split("```jsonc\n", 1)[1].split("\n```", 1)[0]
    missing = sorted({name for name in schema_fields(harness.CONFIG_SCHEMA)
                      if f'"{name}":' not in block})
    assert missing == []


def test_readme_exit_table_names_every_error_code():
    """Every error type of ``jensenlab.errors`` that has a code of its own (a
    ``StageFailure`` takes its error's) is named in a row of the CLI section's
    exit-code table, with the type's ``exit_code``, so a new outcome is documented."""
    exits = {code: int(exit_)  # a row: | `code`, `code` | exit | rule |
             for codes, exit_ in re.findall(r"^\| (`[^|]+`) \| (\d) \|", readme_section("CLI"),
                                            re.MULTILINE)
             for code in re.findall(r"`([^`]+)`", codes)}
    types = [c for c in vars(errors).values() if isinstance(c, type)
             and issubclass(c, errors.JensenLabError) and "code" in vars(c)
             and c not in (errors.JensenLabError, errors.StageFailure)]
    assert len(types) == 16
    assert {c.code: exits.get(c.code) for c in types} == {c.code: c.exit_code for c in types}
    # and the CLI maps an outcome named by one of those codes to that exit status
    assert errors.EXIT_CODES == {c.code: c.exit_code for c in types}
