import collections
import gc
import itertools
import json
from pathlib import Path

import numpy as np
import pytest

from conftest import phi_tilde_norms

from jensenlab import bounds, cli, direct_method, harness, inequality, model
from jensenlab.errors import (
    ConfigError,
    JensenLabError,
    NotConvergedError,
    OutOfRegimeError,
    PairingError,
    StageFailure,
    UnknownKeyError,
)
from jensenlab.space import draw_samples

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def scalar_verify_doc(control=None, **plan):
    return {
        "space": {"dim": 1, "norm": "l2"},
        "function": {"core": {"kind": "identity"},
                     "perturbation": {"kind": "tabulated", "default": [[0.5, 0.0]]}},
        "params": {"family": "A", "rho1": [0, 0], "rho2": [0, 0], "alpha": 1.0},
        "scheme": {"direction": "forward"},
        "control": control or {"kind": "measured"},
        "plan": {"seed": 1, "count": 50, "radius": 2.0, "exclude_origin_below": 0.1,
                 **plan},
    }


def power_verify_doc(r=0.5, control=None):
    return {
        "space": {"dim": 2, "norm": "l2"},
        "function": {"perturbation": {"kind": "power", "theta": 0.1, "r": r,
                                      "direction_seed": 5}},
        "params": {"family": "A", "rho1": [0, 0], "rho2": [0, 0], "alpha": 1.0},
        "control": control or {"kind": "measured"},
        "plan": {"seed": 2, "count": 50, "radius": 2.0, "exclude_origin_below": 0.1},
    }


# --- config handling ---------------------------------------------------------


def test_normalize_config_echoes_defaults():
    cfg = harness.normalize_config({"params": {"family": "A"}})
    assert harness.build_experiment({"params": {"family": "A"}}).config["scheme"]["scale"] == 2.0
    assert cfg["plan"]["count"] == 100
    assert cfg["tolerances"]["tol"] == 1e-9
    # a null envelope seed is the plan seed with its top bit flipped; a given one is kept
    assert cfg["envelope"]["seed"] == cfg["plan"]["seed"] ^ 2 ** 63 == 2 ** 63
    for seed in (0, 7, 2 ** 63, 2 ** 64 - 1):
        cfg = harness.normalize_config({"plan": {"seed": seed}})
        assert cfg["envelope"]["seed"] == seed ^ 2 ** 63 != seed
        assert harness.normalize_config({"plan": {"seed": seed}, "envelope": {
            "seed": seed}})["envelope"]["seed"] == seed


@pytest.mark.parametrize("name", ["verify_power_measured", "verify_radial_dim3"])
def test_envelope_triples_share_no_vector_with_the_plan(name):
    # a measured control is not measured at the very points that verify checks against it
    exp = harness.build_experiment(json.loads((CONFIGS / f"{name}.json").read_text()))
    assert exp.config["control"]["kind"] == "measured"
    points = draw_samples(exp.space, exp.plan, arity=1)
    triples = draw_samples(exp.space, exp.envelope_plan, arity=3)
    plan = {x.tobytes() for x in points}
    assert len(plan) == len(points) > 0
    assert not any(v.tobytes() in plan for v in triples.reshape(-1, exp.space.dim))


def test_unknown_config_keys_rejected(tmp_path, capsys):
    doc = {k: v for k, v in scalar_verify_doc().items() if k != "control"}
    doc["contrl"] = {"kind": "power", "theta": 1.0, "r": 0.5}
    doc["plan"] = {**doc["plan"], "cuont": 5}
    with pytest.raises(UnknownKeyError, match=r"plan\.cuont"):
        harness.run_verify(doc)
    del doc["plan"]["cuont"]
    with pytest.raises(UnknownKeyError, match="contrl"):
        harness.normalize_config(doc)
    for section in ("space", "params", "scheme", "envelope", "tolerances"):
        with pytest.raises(UnknownKeyError, match=rf"{section}\.typo"):
            harness.normalize_config({section: {"typo": 1}})
    assert cli.main(["verify", "--config", write_config(tmp_path, doc)]) == cli.EXIT_RUNTIME
    assert "error[unknown-key]" in capsys.readouterr().err


VERIFY_SAMPLE = json.loads((CONFIGS / "verify_power_measured.json").read_text())


def changed(path, value, doc=VERIFY_SAMPLE):
    """A deep copy of ``doc`` with the dotted ``path`` set to ``value``."""
    doc = json.loads(json.dumps(doc))
    *parents, last = path.split(".")
    section = doc
    for key in parents:
        section = section.setdefault(key, {})
    section[last] = value
    return doc


SWEEP_SAMPLE = json.loads((CONFIGS / "sweep_family_a.json").read_text())
AUDIT_SAMPLE = json.loads((CONFIGS / "audit_backward_dyadic.json").read_text())

#: (subcommand, config, extra flags, text the error line must name)
MALFORMED = {
    "count-not-int": ("verify", changed("plan.count", "many"), [], "plan.count"),
    "rho2-not-complex": ("verify", changed("params.rho2", "x"), [], "params.rho2"),
    "rho2-triple": ("verify", changed("params.rho2", [1, 2, 3]), [], "params.rho2"),
    "power-control-without-r": ("verify", changed("control", {"kind": "power", "theta": 1.0}),
                                [], "control.r"),
    "bounded-without-epsilon": ("verify", changed("function.perturbation", {"kind": "bounded"}),
                                [], "function.perturbation.epsilon"),
    "unknown-perturbation-kind": ("verify", changed("function.perturbation.kind", "wobbly"), [],
                                  "function.perturbation.kind"),
    "dim-zero": ("verify", changed("space.dim", 0), [], "space: dim"),
    "norm-l3": ("verify", changed("space.norm", "l3"), [], "space.norm"),
    "radius-not-above-exclusion": ("verify", changed("plan.radius", 0.1), [],
                                   "plan: need radius"),
    "direction-sideways": ("verify", changed("scheme.direction", "sideways"), [],
                           "scheme.direction"),
    "negative-points": ("verify", VERIFY_SAMPLE, ["--points", "-5"], "plan: count"),
    "points-past-bound": ("verify", VERIFY_SAMPLE, ["--points", "1000001"],
                          "plan.count must be at most 1000000, got 1000001"),
    "plan-not-object-with-seed": ("verify", changed("plan", 5), ["--seed", "3"], "plan must be"),
    "trunc-terms-zero": ("verify", changed("trunc_terms", 0), [], "trunc_terms"),
    "tol-zero": ("verify", changed("tolerances.tol", 0), [], "tolerances.tol"),
    "shells-zero": ("verify", changed("envelope.shells", 0), [], "envelope.shells"),
    "envelope-count-zero": ("verify", changed("envelope.count", 0), [],
                            "envelope.count must be positive"),
    "tabulated-control-lengths": ("verify", changed("control", {"kind": "tabulated",
                                                                "edges": [0.1, 1.0, 2.0],
                                                                "values": [1.0]}),
                                  [], "control: tabulated"),
    "plan-not-object": ("verify", changed("plan", 5), [], "plan must be"),
    "perturbation-typo": ("verify", changed("function.perturbation.thetta", 0.2), [],
                          "function.perturbation.thetta"),
    "control-typo": ("verify", changed("control", {"kind": "power", "theta": 1.0, "r": 0.5,
                                                    "rr": 0.5}), [], "control.rr"),
    "function-typo": ("verify", changed("function.typo", 1), [], "function.typo"),
    "grid-typo": ("sweep", changed("grid.rho_2", [[0.1, 0.0]], SWEEP_SAMPLE), [], "grid.rho_2"),
    "grid-value-not-number": ("sweep", changed("grid.r", [0.5, "x"], SWEEP_SAMPLE), [],
                              "grid.r[1]"),
    "dim-string": ("verify", changed("space.dim", "2"), [], "space.dim"),
    "dim-float": ("verify", changed("space.dim", 2.0), [], "space.dim"),
    "dim-bool": ("verify", changed("space.dim", True), [], "space.dim"),
    "config-not-object": ("verify", [1, 2], ["--seed", "3"], "the config must be"),
    "audit-without-power-control": ("audit", changed("control", {"kind": "zero"}), [],
                                    "control.kind"),
    "tabulated-control-edges-unsorted": ("verify", changed("control", {
        "kind": "tabulated", "edges": [0.1, 10.0, 1.0], "values": [2.0, 5.0]}), [],
        "control: tabulated control edges must be strictly increasing"),
    "negative-seed": ("verify", VERIFY_SAMPLE, ["--seed", "-1"], "plan: seed"),
    "negative-envelope-seed": ("verify", changed("envelope.seed", -5), [], "envelope: seed"),
    "seed-past-64-bits": ("verify", VERIFY_SAMPLE, ["--seed", str(2 ** 64)], "plan: seed"),
    "max-n-zero": ("verify", changed("max_n", 0), [], "max_n"),
    "tabulated-control-edge-infinite": ("verify", changed("control", {
        "kind": "tabulated", "edges": [0.01, 0.5, float("inf"), 4.0], "values": [0.3, 0.2, 0.5]}),
        [], "control.edges[2]"),
    "tabulated-control-value-nan": ("verify", changed("control", {
        "kind": "tabulated", "edges": [0.01, 0.5, 1.0, 4.0], "values": [0.3, float("nan"), 0.5]}),
        [], "control.values[1]"),
    "radius-infinite": ("verify", changed("plan.radius", float("inf")), [], "plan.radius"),
    "rho2-pair-nan": ("verify", changed("params.rho2", [float("nan"), 0.0]), [], "params.rho2"),
    "alpha-int-past-float-range": ("verify", changed("params.alpha", 10 ** 400), [],
                                   "params.alpha"),
    "grid-value-infinite": ("sweep", changed("grid.r", [0.5, float("-inf")], SWEEP_SAMPLE), [],
                            "grid.r[1]"),
    "grid-pair-nan": ("sweep", changed("grid.rho2", [[0.1, float("nan")]], SWEEP_SAMPLE), [],
                      "grid.rho2[0]"),
    # a run over no points checks nothing
    "count-zero": ("verify", changed("plan.count", 0), [], "plan.count must be positive"),
    "points-zero": ("verify", VERIFY_SAMPLE, ["--points", "0"], "plan.count must be positive"),
    "audit-points-zero": ("audit", AUDIT_SAMPLE, ["--points", "0"],
                          "plan.count must be positive"),
    "sweep-count-zero": ("sweep", changed("plan.count", 0, SWEEP_SAMPLE), [],
                         "plan.count must be positive"),
    # a fault no sweep cell changes fails the whole sweep, as it fails verify
    "sweep-radius-not-above-exclusion": ("sweep", changed("plan.radius", 0.05, SWEEP_SAMPLE), [],
                                         "plan: need radius"),
    "sweep-tol-zero": ("sweep", changed("tolerances.tol", 0, SWEEP_SAMPLE), [],
                       "tolerances.tol"),
    "sweep-max-n-zero": ("sweep", changed("max_n", 0, SWEEP_SAMPLE), [], "max_n"),
    "sweep-dim-zero": ("sweep", changed("space.dim", 0, SWEEP_SAMPLE), [], "space: dim"),
    "sweep-measured-control-without-theta-axis": ("sweep", changed("control", {"kind": "measured"},
                                                                   SWEEP_SAMPLE), [], "grid.theta"),
    # function fields that depend on space.dim are checked when the function is built
    "tabulated-default-wrong-dim": ("verify", changed("function.perturbation", {
        "kind": "tabulated", "default": [[0.1, 0.0]] * 3}), [], "function.perturbation: default"),
    "sweep-tabulated-default-wrong-dim": ("sweep", changed("function.perturbation", {
        "kind": "tabulated", "default": [[0.1, 0.0]] * 3}, SWEEP_SAMPLE), [],
        "function.perturbation: default"),
    "table-value-wrong-dim": ("verify", changed("function.perturbation", {
        "kind": "tabulated", "table": [{"point": [[1, 0], [0, 0]], "value": [[1, 0]]}]}), [],
        "function.perturbation: table[0].value"),
    "table-point-wrong-dim": ("verify", changed("function.perturbation", {
        "kind": "tabulated", "table": [{"point": [[1, 0]], "value": [[1, 0], [0, 0]]}]}), [],
        "function.perturbation: table[0].point"),
    "quant-step-zero": ("verify", changed("function.perturbation", {
        "kind": "tabulated", "quant_step": 0}), [], "function.perturbation.quant_step"),
    "core-matrix-wrong-dim": ("verify", changed("function.core", {
        "kind": "complex_linear", "matrix": [[[1, 0]] * 3] * 3}), [], "function.core"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_config_exits_3_naming_the_field(case, tmp_path, capsys):
    command, doc, flags, field = MALFORMED[case]
    cfg = write_config(tmp_path, doc)
    code = cli.main([command, "--config", cfg, "--out", str(tmp_path / "out")] + flags)
    err = capsys.readouterr().err
    assert code == cli.EXIT_RUNTIME, err
    assert err.startswith(("error[config]: ", "error[unknown-key]: ")), err
    assert field in err, err


#: each seed of a config and how its fault names it
SEED_FIELDS = {"plan.seed": "plan: seed", "envelope.seed": "envelope: seed",
               "function.core.seed": "function.core: seed",
               "function.perturbation.direction_seed": "function.perturbation: direction_seed"}


@pytest.mark.parametrize("seed", [-1, 2 ** 64])
@pytest.mark.parametrize("path", sorted(SEED_FIELDS))
def test_a_seed_outside_64_bits_is_a_config_error(path, seed):
    # a seed is hashed as a 64-bit word: 5 + 2^64 would read as 5, and -1 as 2^64 - 1
    doc = changed(path, seed, changed("function.core", {"kind": "complex_linear"}))
    with pytest.raises(ConfigError, match=f"config: {SEED_FIELDS[path]} must be "):
        harness.run_verify(doc)
    harness.run_verify(changed(path, 2 ** 64 - 1, doc))  # the largest seed is one


#: each count of a config and its largest value, as the README's schema block states it
COUNT_BOUNDS = {"plan.count": 10 ** 6, "envelope.count": 10 ** 6, "envelope.shells": 10 ** 5,
                "trunc_terms": 10 ** 5, "max_n": 10 ** 5}


@pytest.mark.parametrize("past", [1, 2 ** 63], ids=["bound+1", "2^63"])
@pytest.mark.parametrize("path", sorted(COUNT_BOUNDS))
def test_a_count_past_its_bound_is_a_config_error_before_any_stage(path, past, monkeypatch):
    # 2^63 summed terms forever or crashed in a stage, with no field named
    most = COUNT_BOUNDS[path]
    value = most + 1 if past == 1 else past
    monkeypatch.setattr(harness, "draw_samples", lambda *a, **kw: pytest.fail("a stage ran"))
    with pytest.raises(ConfigError, match=f"^config: {path} must be at most {most}, got {value}$"):
        harness.run_verify(changed(path, value))
    harness.build_experiment(changed(path, most))  # the bound itself is a count


def test_config_file_not_json_exits_3(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text('{"plan": ')
    assert cli.main(["verify", "--config", str(path)]) == cli.EXIT_RUNTIME
    assert capsys.readouterr().err.startswith("error[config]: config: ")


def missing_fields(section, echoed, path=""):
    """Dotted paths of the schema fields, for the echoed kinds, absent from ``echoed``."""
    if isinstance(section, harness.Kinds):
        section = section[echoed["kind"]]
    missing = []
    for key, (accepted, default) in section.items():
        if key not in echoed:
            missing += [] if default is harness.OPTIONAL else [path + key]
        elif isinstance(accepted, dict):
            missing += missing_fields(accepted, echoed[key], f"{path}{key}.")
    return missing


ECHO_CASES = {
    "sample": VERIFY_SAMPLE,
    "tabulated-perturbation": scalar_verify_doc(),
    "bounded-radial": changed("function.perturbation",
                              {"kind": "bounded", "epsilon": 0.1, "direction": "radial"}),
    "matrix-core": changed("function.core", {"kind": "complex_linear",
                                             "matrix": [[[1, 0], [0, 0.5]], [[0, 0], [2, 0]]]}),
}


@pytest.mark.parametrize("case", sorted(ECHO_CASES))
def test_echoed_config_is_complete_and_replayable(case, tmp_path):
    doc = changed("envelope", {"count": 200}, ECHO_CASES[case])
    first, again = tmp_path / "first.json", tmp_path / "again.json"
    cli.main(["verify", "--config", write_config(tmp_path, doc), "--points", "10",
              "--out", str(first)])
    echoed = json.loads(first.read_text())["config"]
    assert missing_fields(harness.CONFIG_SCHEMA, echoed) == []
    cli.main(["verify", "--config", write_config(tmp_path, echoed, "echo.json"),
              "--out", str(again)])
    assert again.read_bytes() == first.read_bytes()


#: sample configs whose run exits nonzero by design, and their exit code
SAMPLE_EXITS = {"audit_backward_divergent": cli.EXIT_INADMISSIBLE}


@pytest.mark.parametrize("path", sorted(CONFIGS.glob("*.json")), ids=lambda p: p.stem)
def test_sample_configs_run(path, tmp_path):
    command = path.stem.split("_")[0]
    assert cli.main([command, "--config", str(path), "--out", str(tmp_path / "out")]) == (
        SAMPLE_EXITS.get(path.stem, cli.EXIT_PASS))
    assert (tmp_path / "out").exists()


def ci_reports():
    """The (entry, subcommand, config) of each line of the CI workflow's ``REPORTS`` block."""
    lines = (CONFIGS.parent / ".github" / "workflows" / "tier1.yml").read_text().splitlines()
    start = next(i for i, line in enumerate(lines) if line.strip() == "REPORTS: |-")
    indent = len(lines[start]) - len(lines[start].lstrip())
    block = itertools.takewhile(lambda line: len(line) - len(line.lstrip()) > indent,
                                lines[start + 1 :])
    return [tuple(line.split()[:3]) for line in block]


@pytest.mark.parametrize("path", sorted(CONFIGS.glob("*.json")), ids=lambda p: p.stem)
def test_ci_byte_checks_each_sample_config_under_its_subcommand(path):
    command = path.stem.split("_")[0]
    exits = [int(entry.partition(":")[2] or 0) for entry, cmd, config in ci_reports()
             if cmd == command and config == path.stem]
    assert exits and set(exits) == {SAMPLE_EXITS.get(path.stem, cli.EXIT_PASS)}


def test_real_linear_matrix_core_runs_as_given():
    # the 6 x 6 real identity acts on (Re x, Im x) in C^3 as the identity core does
    linf = json.loads((CONFIGS / "verify_linf_dim3.json").read_text())
    rep = harness.run_verify(changed("function.core",
                                     {"kind": "real_linear", "matrix": np.eye(6).tolist()}, linf))
    assert rep.outcome == "ok"
    assert rep.points == harness.run_verify(changed("function.core", {"kind": "identity"},
                                                    linf)).points


def test_family_scheme_pairing():
    doc = scalar_verify_doc()
    doc["scheme"] = {"direction": "forward", "scale": 3.0}
    with pytest.raises(PairingError) as err:
        harness.build_experiment(doc)
    # a forced family-A series fails in admissibility as error[family], so --force runs less
    assert str(err.value) == (
        "pairing: family A pairs with dyadic schemes (|scale| = 2), got 3.0 (--force runs "
        "only defect and approximate: a family-A series needs |scale| = 2)")
    doc["force"] = True
    exp = harness.build_experiment(doc)
    assert exp.forced_pairing is True
    with pytest.raises(StageFailure) as err:
        harness.run_verify(doc)
    assert (err.value.stage, err.value.code) == ("admissibility", "family")
    doc = {**doc, "force": False, "params": {"family": "B", "rho1": [0, 0], "rho2": [0, 0],
                                             "alpha": 1.0, "beta": 1.0}}
    with pytest.raises(PairingError) as err:
        harness.build_experiment(doc)
    assert str(err.value) == (
        "pairing: family B pairs with scale 1 + beta = 2.0, got 3.0 (use --force to override)")


def test_family_b_scale_derived_from_beta():
    doc = {
        "params": {"family": "B", "rho1": [0, 0], "rho2": [0, 0], "alpha": 1.0,
                   "beta": 2.0},
        "scheme": {"direction": "forward"},
    }
    exp = harness.build_experiment(doc)
    assert exp.scheme.scale == 3.0


# --- run_verify --------------------------------------------------------------


def test_run_verify_exact_additive():
    doc = {
        "space": {"dim": 2, "norm": "l2"},
        "function": {"core": {"kind": "complex_linear", "seed": 3}},
        "params": {"family": "A", "rho1": [0.2, 0], "rho2": [0.3, 0], "alpha": 1.0},
        "control": {"kind": "power", "theta": 1.0, "r": 0.5},
        "plan": {"seed": 4, "count": 40, "radius": 2.0, "exclude_origin_below": 0.1},
    }
    rep = harness.run_verify(doc)
    assert rep.outcome == "ok"
    assert rep.summary["max_violation"] <= 1e-12
    assert all(p["margin"] >= 0 for p in rep.points)


def test_run_verify_scalar_measured():
    rep = harness.run_verify(scalar_verify_doc())
    assert rep.outcome == "ok"
    for p in rep.points:
        assert p["deviation"] == pytest.approx(0.5, abs=1e-8)
        assert p["bound"] == pytest.approx(1.0, rel=1e-9)
    assert rep.control_fit is not None


def test_control_fit_is_the_table_the_control_reads(monkeypatch):
    controls = []
    phi_tilde_cells = bounds.phi_tilde_cells
    monkeypatch.setattr(bounds, "phi_tilde_cells", lambda cells, *a: controls.extend(
        control for *_, control in cells) or phi_tilde_cells(cells, *a))
    fit = harness.run_verify(VERIFY_SAMPLE).control_fit
    [control] = controls
    assert control.kind == "measured"
    assert sorted(fit) == ["shell_edges", "shell_max"]
    assert fit["shell_edges"] == control.edges.tolist()
    assert np.maximum.accumulate(fit["shell_max"]).tolist() == control.values.tolist()


def test_run_verify_divergent_abort():
    doc = power_verify_doc(r=2.0, control={"kind": "power", "theta": 1.0, "r": 2.0})
    with pytest.raises(StageFailure) as err:
        harness.run_verify(doc)
    assert err.value.stage == "phi-tilde"
    assert err.value.code == "divergent"


def test_run_verify_measured_detects_non_convergence():
    # measured control on an r=2 perturbation: the forward orbit does not converge
    with pytest.raises(StageFailure) as err:
        harness.run_verify(power_verify_doc(r=2.0))
    assert (err.value.stage, err.value.code) == ("approximate", "not-converged")


def test_run_verify_zero_theta_power_control_runs_as_zero():
    # theta = 0 with a term ratio of 2: every term is 0, as for kind zero
    zero = harness.run_verify(changed("control", {"kind": "zero"}))
    power = harness.run_verify(changed("control", {"kind": "power", "theta": 0.0, "r": 2.0}))
    assert (power.points, power.summary) == (zero.points, zero.summary)
    assert all(p["bound"] == 0.0 for p in power.points)


@pytest.mark.parametrize("trunc_terms", [32, 64, 128])
def test_run_verify_divergent_measured_series(tmp_path, capsys, trunc_terms):
    # backward dyadic on an r = 2 perturbation: the fitted exponent (about 2.3) passes the
    # predicate, but the envelope is positive below its first edge while the arguments
    # x / 2^(i+1) shrink, so term i grows like 2^i; no bound of any size may PASS
    doc = changed("trunc_terms", trunc_terms, changed(
        "scheme.direction", "backward", changed("function.perturbation.r", 2)))
    with pytest.raises(StageFailure) as err:
        harness.run_verify(doc)
    assert (err.value.stage, err.value.code) == ("phi-tilde", "divergent")
    assert cli.main(["verify", "--config", write_config(tmp_path, doc)]) == 2
    assert capsys.readouterr().err.startswith("error[divergent]: phi-tilde: ")


def experiment_series(exp, norms):
    """phi_tilde_norms of an experiment's cell, with its config's trunc_terms and display."""
    return phi_tilde_norms((exp.params, exp.scheme, exp.control), norms,
                           exp.config["trunc_terms"], exp.config["printed_display"])


def test_run_verify_reports_coverage_truncation():
    # the forward series at ||x|| reaches 2^63 ||x||: past the last edge above ||x|| ~ 1.08
    doc = changed("control", {"kind": "tabulated", "edges": [0.01, 0.5, 1.0, 1e19],
                              "values": [0.3, 0.2, 0.5]})
    exp = harness.build_experiment(doc)
    keys = set(harness.run_verify(VERIFY_SAMPLE).points[0])
    points = harness.run_verify(doc).points
    truncated = [p for p in points if "terms" in p]
    assert 0 < len(truncated) < len(points)
    for p in points:
        _, _, (terms,) = experiment_series(exp, [p["x_norm"]])
        if terms < exp.config["trunc_terms"]:  # coverage-truncated
            assert set(p) == keys | {"terms", "coverage_truncated"}
            assert p["coverage_truncated"] is True and p["terms"] == terms < 64
        else:
            assert set(p) == keys


def test_run_verify_tabulated_series_stops_with_its_coverage(tmp_path, capsys):
    # forward scale 0.5: the weights 2^(i+1) overflow past term 1023, but every point
    # leaves coverage (arguments 2^-i ||x|| <= 0.01) within 8 terms
    doc = changed("trunc_terms", 2000, changed("control", {
        "kind": "tabulated", "edges": [0.01, 0.5, 1, 4], "values": [0.3, 0.2, 0.5]},
        changed("function.perturbation", {"kind": "none"}, changed("params", {
            "family": "B", "rho1": [0.0, 0.0], "rho2": [0.3, 0.0], "alpha": 1.0,
            "beta": -0.5}))))
    assert cli.main(["verify", "--config", write_config(tmp_path, doc),
                     "--out", str(tmp_path / "out")]) == 0
    points = json.loads((tmp_path / "out").read_text())["points"]
    assert all(p["coverage_truncated"] and 4 <= p["terms"] <= 8 for p in points)


def test_run_verify_backward_contracting_series_divides_to_infinity():
    # backward scale -0.5: the powers 0.5^(i+1) underflow to 0 past term 1074, and
    # ||x|| / 0 is +inf, as an overflowing power is; no divide warning (an error here)
    doc = changed("trunc_terms", 1100, changed("scheme.direction", "backward", changed(
        "params", {**VERIFY_SAMPLE["params"], "family": "B", "rho2": [0.0, 0.0], "beta": -1.5})))
    rep = harness.run_verify(doc)
    assert rep.outcome == "ok"
    assert len(rep.points) == 100
    assert all(np.isfinite(p["bound"]) and "terms" not in p for p in rep.points)


def test_run_verify_inadmissible_abort():
    doc = scalar_verify_doc()
    doc["params"]["rho2"] = [0.7, 0]
    with pytest.raises(StageFailure) as err:
        harness.run_verify(doc)
    assert err.value.stage == "admissibility"
    assert err.value.code == "inadmissible"


def test_run_verify_audit_block():
    doc = power_verify_doc(control={"kind": "power", "theta": 1.0, "r": 0.5})
    doc["audit"] = True
    rep = harness.run_verify(doc)
    assert rep.audit is not None
    assert rep.audit["which"] == "c24"
    assert rep.audit["verdicts"]["empirical_le_derived"] is True


def test_audit_block_with_wrong_control_fails_before_the_envelope(tmp_path, capsys, monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("measure_envelope called")

    monkeypatch.setattr(harness.inequality, "measure_envelope", never)
    doc = json.loads((CONFIGS / "verify_power_measured.json").read_text())
    doc["audit"] = True
    cfg = write_config(tmp_path, doc)
    assert cli.main(["verify", "--config", cfg, "--out", str(tmp_path / "out")]) == 3
    assert capsys.readouterr().err == (
        "error[config]: audit: config: an audit needs control.kind power, got measured\n")
    assert not (tmp_path / "out").exists()


def test_forced_off_dyadic_family_a_fails_in_admissibility(tmp_path, capsys, monkeypatch):
    # --force passes the pairing check; the family-A series refuses the scale before the envelope
    calls = []
    measure = harness.inequality.measure_envelope
    monkeypatch.setattr(harness.inequality, "measure_envelope",
                        lambda *a, **kw: calls.append(a) or measure(*a, **kw))
    doc = changed("scheme.scale", 3)
    with pytest.raises(StageFailure) as err:
        harness.run_verify(changed("force", True, doc))
    assert (err.value.stage, err.value.code, len(calls)) == ("admissibility", "family", 0)
    assert cli.main(["verify", "--force", "--config", write_config(tmp_path, doc)]) == 2
    assert capsys.readouterr().err.startswith("error[family]: admissibility: family: ")
    assert calls == []


def test_audit_block_uses_config_max_n():
    # r = 0.9 needs more than 200 orbit terms at some points; the audit block
    # must reuse the run's approximants rather than re-run them at max_n=200
    doc = power_verify_doc(r=0.9, control={"kind": "power", "theta": 1.0, "r": 0.9})
    doc["max_n"] = 400
    plain = harness.run_verify(doc)
    assert plain.outcome == "ok"
    assert max(p["iterations"] for p in plain.points) > 200
    doc["audit"] = True
    rep = harness.run_verify(doc)
    assert rep.points == plain.points
    exp = harness.build_experiment(doc)
    control = bounds.ControlFunction.power(1.0, 0.9)
    pts = draw_samples(exp.space, exp.plan, arity=1)
    direct = bounds.audit(exp.f, exp.params, exp.scheme, control, pts, tol=exp.tol, max_n=400)
    assert rep.audit == direct.to_json_dict()


def _orbit_rows(monkeypatch, name, count=None):
    """The approximation pass over a sample config's points (``count`` of them if
    given), and the row count of each ``evaluate_many`` call it made."""
    calls = []
    original = direct_method.evaluate_many

    def counting(f, xs):
        calls.append(len(xs))
        return original(f, xs)

    monkeypatch.setattr(direct_method, "evaluate_many", counting)
    doc = json.loads((CONFIGS / f"{name}.json").read_text())
    doc["plan"]["count"] = count or doc["plan"]["count"]
    exp = harness.build_experiment(doc)
    return direct_method.approximate_points(exp.f, draw_samples(exp.space, exp.plan, arity=1),
                                            exp.scheme, exp.tol, max_n=exp.config["max_n"]), calls


@pytest.mark.parametrize("name, count, calls, total", [("sweep_family_a", None, 1, 2025),
                                                       ("verify_power_measured", None, 3, 6000),
                                                       ("audit_backward_dyadic", 600, 10, 16703)],
                         ids=["sweep_family_a", "verify_power_measured",
                              "audit_backward_dyadic-600"])
def test_approximation_pass_evaluates_orbits_in_blocks(monkeypatch, name, count, calls, total):
    # f(x) and the first steps in one call, then blocks sized to the predicted stop;
    # one call per step made 54 on the sweep or verify config. The calls and rows are
    # pinned: how the pass keeps its running points must not move the block schedule
    approximated, rows = _orbit_rows(monkeypatch, name, count)
    assert approximated.converged.all()
    assert (len(rows), sum(rows)) == (calls, total)
    assert max(rows) <= direct_method.ROWS


def test_orbit_blocks_waste_few_rows(monkeypatch):
    # the rows the pass needs are each point's f(x) and one per residual; a tail
    # block of ROWS // points steps made 1.18 times that on this sample
    approximated, rows = _orbit_rows(monkeypatch, "audit_backward_dyadic", 600)
    assert sum(rows) <= 1.08 * (approximated.iterations.sum() + 600)


@pytest.mark.parametrize("run, name", [(harness.build_experiment, "verify_power_measured"),
                                       (harness.run_verify, "verify_power_measured"),
                                       (harness.run_sweep, "sweep_family_a")])
def test_a_run_checks_its_config_once(monkeypatch, run, name):
    # one schema pass over the whole config; the test function is built from its checked sections
    roots = []
    checked = harness._checked

    def counting(accepted, value, path):
        roots.extend([path] if path == "" else [])
        return checked(accepted, value, path)

    monkeypatch.setattr(harness, "_checked", counting)
    run(json.loads((CONFIGS / f"{name}.json").read_text()))
    assert roots == [""]


def test_series_evaluates_each_argument_pattern_once(monkeypatch):
    # two family-A batches on the sample sweep: the derived constants at ||x|| = 1 and the
    # bounds at the 25 sample norms, each one matrix per r (0.25, 0.5, 0.75) with a row per
    # admissible cell; each matrix evaluates e once at s and once at s / |alpha|
    calls = []
    pw = bounds._pw
    monkeypatch.setattr(bounds, "_pw", lambda n, r: calls.append((n.shape, r)) or pw(n, r))
    harness.run_sweep(json.loads((CONFIGS / "sweep_family_a.json").read_text()))
    assert calls == [((3, points), r) for points in (1, 25) for r in (0.25, 0.5, 0.75)
                     for _ in range(2)]


def test_unmeasured_control_raises_when_evaluated():
    # a config's measured control is a placeholder until run_verify measures its envelope
    control = harness.build_experiment(VERIFY_SAMPLE).control
    params = inequality.RhoParams("A", 0.0, 0.3, 1.0)
    with pytest.raises(ValueError, match="no table"):
        control.evaluate_norms(np.array([1.0]), 0.0, 0.0)
    with pytest.raises(ValueError, match="no table"):
        phi_tilde_norms((params, direct_method.forward(2.0), control), [1.0])


def test_max_n_is_the_only_orbit_limit():
    # r = 0.97 converges in 600 to 700 orbit steps; an index cap of 512 used to stop it
    doc = power_verify_doc(r=0.97, control={"kind": "power", "theta": 1.0, "r": 0.97})
    doc["plan"]["count"] = 5
    doc["max_n"] = 1000
    rep = harness.run_verify(doc)
    assert rep.outcome == "ok"
    assert min(p["iterations"] for p in rep.points) > 512


# --- reports -----------------------------------------------------------------


def test_write_report_byte_stable():
    doc = scalar_verify_doc()
    first, second = (harness.render_report(harness.run_verify(doc), "json") for _ in range(2))
    assert first.encode() == second.encode()


def test_report_shapes(tmp_path):
    doc = scalar_verify_doc(count=1)
    rep = harness.run_verify(doc)
    text = harness.render_report(rep, "json")
    parsed = json.loads(text)
    assert len(parsed["points"]) == 1
    assert "runtime" not in json.dumps(parsed)  # no volatile fields in the file
    csv_text = harness.render_report(rep, "csv")
    assert len(csv_text.strip().split("\n")) == 1 + 1  # header + one point


def test_report_float_format():
    assert harness.format_float(0.1) == "0.10000000000000001"
    assert harness.format_float(1.0) == "1"
    with pytest.raises(ValueError):
        harness.format_float(float("nan"))
    for value in (float("nan"), float("inf"), -float("inf")):
        with pytest.raises(ValueError):
            harness.stable_json({"x": [value]})


# --- sweep -------------------------------------------------------------------


def sweep_doc(grid):
    return {
        "space": {"dim": 2, "norm": "l2"},
        "function": {"perturbation": {"kind": "power", "theta": 0.1, "r": 0.5}},
        "params": {"family": "A", "rho1": [0, 0], "rho2": [0, 0], "alpha": 1.0},
        "control": {"kind": "power", "theta": 1.0, "r": 0.5},
        "plan": {"seed": 1, "count": 10, "radius": 2.0, "exclude_origin_below": 0.1},
        "grid": grid,
    }


def test_sweep_empty_grid_header_only():
    rows = harness.run_sweep(sweep_doc({"rho2": []}))
    assert rows == []
    text = harness.render_sweep(rows, "csv")
    assert text.strip() == ",".join(harness.SWEEP_COLUMNS)


def test_sweep_admissibility_flags():
    rows = harness.run_sweep(sweep_doc({"rho2": [[0, 0], [0.3, 0], [0.66, 0]]}))
    assert [r["admissible"] for r in rows] == [True, True, True]
    rows2 = harness.run_sweep(sweep_doc({"rho2": [[0.7, 0]]}))
    assert rows2[0]["admissible"] is False
    assert rows2[0]["status"] == "inadmissible"


def test_sweep_rows_never_nan():
    rows = harness.run_sweep(sweep_doc({"rho2": [[0, 0], [0.7, 0]], "r": [0.5, 2.0]}))
    text = harness.render_sweep(rows, "csv")
    assert "nan" not in text.lower()
    for row in rows:
        for v in row.values():
            if isinstance(v, float):
                assert np.isfinite(v)


def test_sweep_divergent_cell_recorded():
    rows = harness.run_sweep(sweep_doc({"r": [2.0]}))
    assert rows[0]["converges"] is False
    assert rows[0]["status"] == "divergent"
    assert rows[0]["max_violation"] is None


def test_sweep_deterministic_bytes():
    doc = sweep_doc({"rho2": [[0, 0], [0.3, 0]], "theta": [0.5, 1.0]})
    a = harness.render_sweep(harness.run_sweep(doc), "csv")
    b = harness.render_sweep(harness.run_sweep(doc), "csv")
    assert a == b
    assert len(a.strip().split("\n")) == 1 + 4  # header + 2x2 grid


def printed_family_b_doc(rho1=0.5, beta=2.0, max_n=200):
    """Family B, |rho2| = 0.2, forward, power control, printed display on."""
    return {
        "space": {"dim": 2, "norm": "l2"},
        "function": {"perturbation": {"kind": "power", "theta": 0.1, "r": 0.5}},
        "params": {"family": "B", "rho1": [rho1, 0], "rho2": [0.2, 0], "alpha": 1.0,
                   "beta": beta},
        "scheme": {"direction": "forward"},
        "control": {"kind": "power", "theta": 1.0, "r": 0.5},
        "plan": {"seed": 1, "count": 10, "radius": 2.0, "exclude_origin_below": 0.1},
        "printed_display": True,
        "max_n": max_n,
    }


def sweep_cell_doc(doc, row):
    """The config of a sweep row's cell alone."""
    cell = {k: v for k, v in doc.items() if k != "grid"}
    cell["params"] = {**doc["params"], "rho1": [row["rho1_re"], row["rho1_im"]],
                      "rho2": [row["rho2_re"], row["rho2_im"]], "alpha": row["alpha"],
                      "beta": row["beta"]}
    cell["control"] = {"kind": "power", "theta": row["theta"], "r": row["r"]}
    return cell


def test_sweep_cells_match_verify_and_audit(tmp_path):
    # theta = 0 makes every term 0 whatever the term ratio: the cell is not divergent
    # though the analytic predicate fails, and its phi~ = 0 fails the bound as verify's does
    zero_theta = changed("grid", {"rho2": [[0.0, 0.0]], "theta": [0.0], "r": [1.5]},
                         SWEEP_SAMPLE)
    docs = [json.loads(path.read_text()) for path in sorted(CONFIGS.glob("sweep_*.json"))]
    out, statuses = tmp_path / "out", set()
    for doc in docs + [printed_family_b_doc(), zero_theta]:
        for row in harness.run_sweep(doc):
            statuses.add(row["status"])
            cell = sweep_cell_doc(doc, row)
            # each row's status maps to the exit status of verify with the audit, and of
            # audit, on the row's cell alone; a cell with no fault writes the row's columns
            for command, cell_doc in (("verify", {**cell, "audit": True}), ("audit", cell)):
                out.unlink(missing_ok=True)
                code = cli.main([command, "--config", write_config(tmp_path, cell_doc),
                                 "--format", "json", "--out", str(out)])
                assert code == cli.exit_status(row["status"]), (command, row)
                if row["status"] not in ("ok", "violation"):
                    continue
                report = json.loads(out.read_text())
                if command == "verify":
                    assert row["max_violation"] == report["summary"]["max_violation"]
                    report = report["audit"]
                for key in ("paper_constant", "derived_constant", "empirical_sup"):
                    assert row[key] == report[key], (command, key, row)
    assert statuses == {"ok", "violation", "inadmissible", "divergent", "not-converged",
                        "out-of-regime"}


def test_a_sweep_row_whose_bound_fails_reads_violation(tmp_path):
    # at theta = 0.001 the control is too small for f's perturbation (theta 0.1): every
    # admissible cell's bound fails, and its empirical sup exceeds its derived constant
    doc = changed("grid.theta", [0.001, 1.0], SWEEP_SAMPLE)
    assert doc == json.loads((CONFIGS / "sweep_violation.json").read_text())
    rows = harness.run_sweep(doc)
    assert collections.Counter((row["theta"], row["status"]) for row in rows) == {
        (0.001, "violation"): 9, (1.0, "ok"): 9,
        (0.001, "inadmissible"): 3, (1.0, "inadmissible"): 3}
    for row in rows:
        assert (row["status"] == "inadmissible") == (row["admissible"] is False), row
        if row["status"] == "violation":
            assert row["max_violation"] > 0.1 and row["empirical_sup"] > row["derived_constant"]
    cell = write_config(tmp_path, sweep_cell_doc(doc, rows[0]))
    assert rows[0]["status"] == "violation"
    for command in ("verify", "audit"):
        assert cli.main([command, "--config", cell, "--out", str(tmp_path / "out")]) == (
            cli.EXIT_VIOLATION)


def test_sweep_computes_one_derived_series_per_admissible_cell(monkeypatch):
    calls, verdicts = [], []
    phi_tilde_cells, predicate = bounds.phi_tilde_cells, bounds.convergence_predicate
    monkeypatch.setattr(bounds, "phi_tilde_cells",
                        lambda *a: calls.append(a) or phi_tilde_cells(*a))
    monkeypatch.setattr(bounds, "convergence_predicate",
                        lambda *a: verdicts.append(a) or predicate(*a))
    rows = harness.run_sweep(json.loads((CONFIGS / "sweep_family_a.json").read_text()))
    # two batched series per sweep: the derived constants at ||x|| = 1, then the bounds
    derived, bound = calls
    assert np.array_equal(derived[1], [1.0]) and not np.array_equal(bound[1], [1.0])
    assert len(derived[0]) == len(bound[0]) == sum(row["admissible"] for row in rows) == 9
    assert sum(row["status"] == "ok" for row in rows) == 9
    # each cell's convergence verdict is computed once, for converges
    assert len(verdicts) == len(rows) == 12


def test_phi_tilde_failure_named_before_approximation_failure():
    # the printed family-B prefactor needs |rho1| < 1; with max_n 1 the
    # approximation fails too, and the failing stage must not depend on that
    for max_n in (1, 200):
        doc = printed_family_b_doc(rho1=1.5, beta=3.0, max_n=max_n)
        with pytest.raises(StageFailure) as err:
            harness.run_verify(doc)
        assert (err.value.stage, err.value.code) == ("phi-tilde", "out-of-regime")
        assert [row["status"] for row in harness.run_sweep(doc)] == ["out-of-regime"]


def test_sweep_family_b_beta_grid():
    # the scheme scale must track 1 + beta cell by cell
    doc = {
        "space": {"dim": 2, "norm": "l2"},
        "function": {"perturbation": {"kind": "power", "theta": 0.1, "r": 0.5}},
        "params": {"family": "B", "rho1": [0, 0], "rho2": [0, 0], "alpha": 1.0,
                   "beta": 1.0},
        "scheme": {"direction": "forward"},
        "control": {"kind": "power", "theta": 1.0, "r": 0.5},
        "plan": {"seed": 1, "count": 10, "radius": 2.0, "exclude_origin_below": 0.1},
        "grid": {"beta": [1.0, 2.0]},
    }
    rows = harness.run_sweep(doc)
    assert [r["status"] for r in rows] == ["ok", "ok"]
    for row, beta in zip(rows, (1.0, 2.0)):
        L = 1.0 + beta
        expected = 2.0 / (L - L ** 0.5)  # c34 at theta=1, r=0.5, rho2=0
        assert row["paper_constant"] == pytest.approx(expected, rel=1e-12)
        assert row["derived_constant"] == pytest.approx(expected, rel=1e-9)
    # each cell derives its scale from its own beta: the base config need not give one
    del doc["params"]["beta"]
    assert harness.render_sweep(harness.run_sweep(doc)) == harness.render_sweep(rows)


def reference_sweep(doc):
    """The sweep cell by cell: each cell's config through build_experiment, and
    each point through phi_tilde_norms and approximate alone. A fault that no
    cell changes is one of the config with neutral params and control and
    --force, and fails the sweep before its first cell. A cell's status is its
    first fault in verify's stage order, where a fault of the published or the
    derived constant comes after the pass; else violation where its bound fails or
    its empirical sup exceeds its derived constant, and ok."""
    cfg = harness.normalize_config(doc)
    grid = {**{k: [v] for k, v in {**cfg["params"], **cfg["control"]}.items()},
            **cfg.get("grid", {})}
    base = {k: v for k, v in cfg.items() if k != "grid"}
    harness.build_experiment({**base, "params": {"family": "A"}, "control": {"kind": "zero"},
                              "scheme": {"direction": "forward"}, "force": True})
    rows = []
    for rho1, rho2, alpha, beta, theta, r in itertools.product(
            *(grid[a] for a in harness.SWEEP_AXES)):
        z1, z2 = model.complex_from_pair(rho1), model.complex_from_pair(rho2)
        cell = dict.fromkeys(harness.SWEEP_COLUMNS)
        cell.update(family=cfg["params"]["family"], rho1_re=z1.real, rho1_im=z1.imag,
                    rho2_re=z2.real, rho2_im=z2.imag, alpha=alpha, beta=beta, theta=theta, r=r,
                    status="ok")
        rows.append(cell)
        cell_doc = {**base, "params": {**cfg["params"], "rho1": rho1, "rho2": rho2,
                                       "alpha": alpha, "beta": beta},
                    "control": {"kind": "power", "theta": theta, "r": r}}
        try:
            exp = harness.build_experiment(cell_doc)
            adm = inequality.admissible(exp.params)
            cell["admissible"] = bool(adm)
            cell["converges"] = bool(bounds.convergence_predicate(exp.scheme, r))
            late = None  # a fault of either constant ranks at the audit stage, after the pass
            try:
                cell["paper_constant"] = bounds.corollary_constant(
                    bounds.constant_tag(exp.params.family, exp.scheme.direction), theta, r,
                    abs(exp.params.rho2), beta=exp.params.beta)
            except OutOfRegimeError:
                cell["paper_constant"] = "divergent"
            except JensenLabError as e:
                late = e
            if not adm:
                cell["status"] = "inadmissible"
                continue
            [derived] = bounds.derived_constants([(exp.params, exp.scheme, exp.control)],
                                                 exp.config["trunc_terms"])
            if not isinstance(derived, JensenLabError):
                cell["derived_constant"] = derived
            elif late is None:
                late = derived
            pts = draw_samples(exp.space, exp.plan, arity=1)
            norms = [exp.space.norm(x) for x in pts]
            phis = [experiment_series(exp, [nx]) for nx in norms]
            devs = []
            for x in pts:
                rep = direct_method.approximate(exp.f, x, exp.scheme, exp.tol,
                                                max_n=exp.config["max_n"])
                if not rep.converged:
                    raise NotConvergedError("not-converged: a point did not converge")
                devs.append(exp.space.norm(model.evaluate_many(exp.f, [x])[0] - rep.value))
            cell["max_violation"] = max((d - (float(v[0]) + (t or 0.0))
                                         for d, (v, t, _) in zip(devs, phis)), default=0.0)
            if late is not None:
                raise late
            cell["empirical_sup"], _ = bounds.empirical_sup(r, zip(norms, devs))
            if not (cell["max_violation"] <= exp.tol and cell["empirical_sup"] <= (
                    cell["derived_constant"] * (1.0 + bounds.AUDIT_REL_TOL) + 1e-12)):
                cell["status"] = "violation"
        except JensenLabError as e:
            cell["status"] = e.code
    return rows


def _small_sweep(grid, **changes):
    doc = {**changed("plan.count", 8, SWEEP_SAMPLE), "grid": grid, **changes}
    return doc


_FAMILY_A_GRID = {"rho2": [[0.0, 0.0], [0.7, 0.0]], "alpha": [1.0, 0.0], "theta": [1.0, -1.0],
                  "r": [0.5, 1.5]}
_FAMILY_B_PARAMS = {"family": "B", "rho1": [0.0, 0.0], "rho2": [0.2, 0.0], "alpha": 1.0,
                    "beta": 1.0}
#: f with an r = 2 perturbation, which a backward scheme's orbits approximate
_BACKWARD_FUNCTION = {**SWEEP_SAMPLE["function"],
                      "perturbation": {**SWEEP_SAMPLE["function"]["perturbation"], "r": 2.0}}

#: (config, the statuses its cells take, or the field named by a fault no cell changes)
SWEEP_CASES = {
    # rho2 0.7 is inadmissible, alpha 0 degenerate, theta < 0 a config fault, r 1.5 divergent
    "family-a": (_small_sweep(_FAMILY_A_GRID),
                 {"ok", "inadmissible", "degenerate-parameter", "config", "divergent"}),
    # max_n 5 is too few orbit steps: every cell that reads the failed pass is not-converged
    "family-a-max-n-small": (_small_sweep({"rho2": [[0.0, 0.0], [0.3, 0.0], [0.7, 0.0]],
                                           "r": [0.5, 1.5]}, max_n=5),
                             {"not-converged", "divergent", "inadmissible"}),
    # a fault no cell changes fails the sweep
    "family-a-max-n-zero": (_small_sweep(_FAMILY_A_GRID, max_n=0), "max_n"),
    # a derived scale: beta null cannot derive one, and 1 + beta in {1, 0, -1} is degenerate
    "family-b": (_small_sweep({"beta": [None, 0.0, -1.0, -2.0, 1.0]}, params=_FAMILY_B_PARAMS),
                 {"pairing", "degenerate-scale", "ok"}),
    # the faults no cell changes come before any cell's pairing check
    "family-b-max-n-zero": (_small_sweep({"beta": [None, 1.0, 2.0]}, params=_FAMILY_B_PARAMS,
                                         scheme={"direction": "forward", "scale": 3.0},
                                         max_n=0), "max_n"),
    # backward with r 400 at norms in (0.1, 0.15]: ||x||^r <= 0.15^400 underflows to 0 at
    # every point, so the empirical sup is not finite; the error is kept for the (scheme, r)
    # and is each such cell's status
    "family-a-backward-sup-underflow": (
        _small_sweep({"rho1": [[0.0, 0.0], [0.1, 0.0]], "r": [2.0, 400.0]},
                     scheme={"direction": "backward"}, function=_BACKWARD_FUNCTION,
                     plan={**SWEEP_SAMPLE["plan"], "count": 8, "radius": 0.15}),
        {"ok", "numeric"}),
    # a given scale: beta 1 does not pair with scale 3
    "family-b-scale": (_small_sweep({"beta": [2.0, 1.0]}, params=_FAMILY_B_PARAMS,
                                    scheme={"direction": "forward", "scale": 3.0}),
                       {"ok", "pairing"}),
    # theta 1e308 makes c24 not finite: a fault of the audit stage, so the inadmissible
    # rho2 0.7 reads inadmissible there, and a divergent or non-finite phi~ comes first
    "family-a-huge-theta": (_small_sweep({"rho2": [[0.0, 0.0], [0.7, 0.0]],
                                          "theta": [1.0, 1e308], "r": [0.5, 1.5]}),
                            {"ok", "inadmissible", "divergent", "numeric"}),
    # beta -1 forced to scale 3: c34 reads |1 + beta| = 0, a degenerate scale that ranks
    # after the pass; rho1 5 is inadmissible and r 1.5 divergent before it
    "family-b-forced-degenerate-beta": (
        _small_sweep({"rho1": [[0.0, 0.0], [5.0, 0.0]], "r": [0.5, 1.5]}, force=True,
                     params={**_FAMILY_B_PARAMS, "beta": -1.0},
                     scheme={"direction": "forward", "scale": 3.0}),
        {"degenerate-scale", "divergent", "inadmissible"}),
}


@pytest.mark.parametrize("case", sorted(SWEEP_CASES))
def test_sweep_equals_the_cell_by_cell_reference(case):
    doc, statuses = SWEEP_CASES[case]
    if isinstance(statuses, str):
        for sweep in (harness.run_sweep, reference_sweep):
            with pytest.raises(ConfigError, match=statuses):
                sweep(doc)
        return
    rows = harness.run_sweep(doc)
    assert rows == reference_sweep(doc)
    assert {row["status"] for row in rows} == statuses
    # each status agrees with the row's own columns: one judge per status
    for row in rows:
        assert (row["status"] == "inadmissible") == (row["admissible"] is False), row
        assert row["status"] != "divergent" or row["converges"] is False, row


@pytest.mark.parametrize("doc, sups, cells", [
    # one scheme (forward dyadic) for every cell: 714 ok cells read 7 distinct r
    (json.loads((CONFIGS / "sweep_scale_family_a.json").read_text()),
     [0.1, 0.25, 0.4, 0.5, 0.6, 0.75, 0.9], 714),
    # a failed sup is kept too: 2 ok and 2 numeric cells read 2 distinct r
    (SWEEP_CASES["family-a-backward-sup-underflow"][0], [2.0, 400.0], 4),
])
def test_sweep_takes_one_empirical_sup_per_scheme_and_r(monkeypatch, doc, sups, cells):
    calls = []
    original = bounds.empirical_sup
    monkeypatch.setattr(bounds, "empirical_sup",
                        lambda r, devs: calls.append(r) or original(r, devs))
    rows = harness.run_sweep(doc)
    read = [row for row in rows if row["status"] in ("ok", "numeric")]
    assert len(read) == cells
    assert calls == sorted({row["r"] for row in read}) == sups


def test_sweep_builds_its_shared_parts_once(monkeypatch):
    calls = []
    for name in ("_shared", "draw_samples"):
        original = getattr(harness, name)
        monkeypatch.setattr(harness, name,
                            lambda *a, _f=original, _n=name, **kw: calls.append(_n) or _f(*a, **kw))
    rows = harness.run_sweep(SWEEP_SAMPLE)
    assert len(rows) == 12
    assert sorted(calls) == ["_shared", "draw_samples"]


def test_failing_sweep_cells_leave_no_reference_cycles():
    # a kept error holding its traceback holds the frame that keeps it: one cycle a
    # failing cell (178 unreachable objects per run of this sample at one time)
    doc = json.loads((CONFIGS / "sweep_outcomes.json").read_text())
    rows = harness.run_sweep(doc)
    assert {row["status"] for row in rows} - {"ok"}
    gc.collect()
    gc.disable()
    try:
        harness.run_sweep(doc)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_divergent_verify_makes_no_approximation_pass(monkeypatch):
    calls = []
    original = direct_method.approximate_points
    monkeypatch.setattr(direct_method, "approximate_points",
                        lambda *a, **kw: calls.append(a) or original(*a, **kw))
    doc = power_verify_doc(r=2.0, control={"kind": "power", "theta": 1.0, "r": 2.0})
    doc["plan"]["count"] = 2000
    with pytest.raises(StageFailure) as err:
        harness.run_verify(doc)
    assert (err.value.stage, err.value.code) == ("phi-tilde", "divergent")
    assert calls == []
    # the patch sees the pass of a converging run: the empty list above is no accident
    assert harness.run_verify(VERIFY_SAMPLE).outcome == "ok"
    assert len(calls) == 1


def test_each_run_takes_one_path_through_run_cells(monkeypatch):
    calls = []
    run_cells = bounds.run_cells
    monkeypatch.setattr(bounds, "run_cells", lambda *a, **kw: calls.append(len(a[2]))
                        or run_cells(*a, **kw))
    harness.run_verify(VERIFY_SAMPLE)
    harness.run_sweep(SWEEP_SAMPLE)
    exp = harness.build_experiment(AUDIT_SAMPLE)
    bounds.audit(exp.f, exp.params, exp.scheme, exp.control,
                 draw_samples(exp.space, exp.plan, arity=1), tol=exp.tol)
    assert calls == [1, 12, 1]  # one call each, with all of the run's cells


# --- CLI ---------------------------------------------------------------------


def write_config(tmp_path, doc, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def test_cli_verify_pass_and_violation(tmp_path):
    ok_cfg = write_config(tmp_path, scalar_verify_doc(), "ok.json")
    out = tmp_path / "rep.json"
    assert cli.main(["verify", "--config", ok_cfg, "--out", str(out)]) == 0
    assert out.exists()
    # zero control cannot dominate the 0.5 deviation: bound violation, exit 1
    bad_cfg = write_config(tmp_path, scalar_verify_doc(control={"kind": "zero"}),
                           "bad.json")
    assert cli.main(["verify", "--config", bad_cfg]) == 1


def test_cli_check_params(tmp_path, capsys):
    doc = scalar_verify_doc()
    assert cli.main(["check-params", "--config", write_config(tmp_path, doc)]) == 0
    doc["params"]["rho2"] = [0.7, 0]
    assert cli.main(["check-params", "--config",
                     write_config(tmp_path, doc, "bad.json")]) == 2
    assert "inadmissible" in capsys.readouterr().out
    # --out writes the line to a file; a flag check-params does not read is refused
    out = tmp_path / "cp.txt"
    assert cli.main(["check-params", "--config", str(tmp_path / "bad.json"),
                     "--out", str(out)]) == 2
    assert out.read_text().startswith("inadmissible: family A: ")
    assert capsys.readouterr().out == ""
    with pytest.raises(SystemExit) as exit_:
        cli.main(["check-params", "--config", str(tmp_path / "bad.json"), "--seed", "3"])
    assert exit_.value.code == cli.EXIT_RUNTIME  # a usage error is no parameter outcome


@pytest.mark.parametrize("beta, shown", [(None, "None"), (0, "0.0")])
def test_degenerate_beta_names_the_value_given(beta, shown, tmp_path, capsys):
    doc = changed("params", {**VERIFY_SAMPLE["params"], "family": "B", "beta": beta})
    assert cli.main(["check-params", "--config", write_config(tmp_path, doc)]) == 2
    assert capsys.readouterr().err == ("error[degenerate-parameter]: degenerate-parameter: "
                                       f"family B, beta = {shown}\n")


def test_cli_defect_csv(tmp_path):
    cfg = write_config(tmp_path, scalar_verify_doc())
    out = tmp_path / "defects.csv"
    assert cli.main(["defect", "--config", cfg, "--points", "7",
                     "--out", str(out)]) == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "family,x_norm,y_norm,z_norm,lhs,rhs,defect"
    assert len(lines) == 8


def test_cli_non_finite_defect_is_a_numeric_error(tmp_path, capsys):
    doc = power_verify_doc(r=2.0)
    doc["space"]["dim"] = 1
    doc["function"]["perturbation"]["theta"] = 1.0
    doc["plan"].update(radius=1e200, exclude_origin_below=1e190)
    cfg = write_config(tmp_path, doc)
    for fmt in ("csv", "json"):
        out = tmp_path / f"defects.{fmt}"
        assert cli.main(["defect", "--config", cfg, "--format", fmt,
                         "--out", str(out)]) == cli.EXIT_RUNTIME
        assert capsys.readouterr().err.startswith("error[numeric]: numeric: the defect of triple")
        assert not out.exists()
    with pytest.raises(StageFailure) as err:
        harness.run_verify(doc)
    assert (err.value.stage, err.value.code) == ("envelope", "numeric")


def test_cli_approximate(tmp_path):
    cfg = write_config(tmp_path, scalar_verify_doc())
    out = tmp_path / "approx.json"
    assert cli.main(["approximate", "--config", cfg, "--points", "3",
                     "--out", str(out)]) == 0
    reports = json.loads(out.read_text())
    assert len(reports) == 3
    assert all(r["converged"] for r in reports)
    assert all(len(r["residuals"]) == r["iterations"] for r in reports)
    # points that run out of orbit terms are still reported, with exit code 2
    short = write_config(tmp_path, {**scalar_verify_doc(), "max_n": 2}, "short.json")
    assert cli.main(["approximate", "--config", short, "--points", "3",
                     "--out", str(out)]) == cli.EXIT_INADMISSIBLE
    reports = json.loads(out.read_text())
    assert len(reports) == 3 and not any(r["converged"] for r in reports)


def test_cli_audit(tmp_path):
    doc = power_verify_doc(control={"kind": "power", "theta": 1.0, "r": 0.5})
    cfg = write_config(tmp_path, doc)
    out = tmp_path / "audit.json"
    assert cli.main(["audit", "--config", cfg, "--points", "10",
                     "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["which"] == "c24"
    assert payload["verdicts"]["derived_matches_paper"] == "consistent"
    # backward dyadic at r = 0.5: c26 is finite, the series diverges; exit 2, payload written
    doc = changed("control.r", 0.5, AUDIT_SAMPLE)
    assert cli.main(["audit", "--config", write_config(tmp_path, doc, "divergent.json"),
                     "--out", str(out)]) == 2
    payload = json.loads(out.read_text())
    assert payload["paper_constant"] == pytest.approx(2.0 + 2.0 ** 0.5, rel=1e-12)
    assert payload["derived_constant"] == "divergent"


def test_cli_exit_codes(tmp_path, capsys):
    # divergent config -> 2; missing file -> 3
    doc = power_verify_doc(r=2.0, control={"kind": "power", "theta": 1.0, "r": 2.0})
    assert cli.main(["verify", "--config", write_config(tmp_path, doc)]) == 2
    assert cli.main(["verify", "--config", str(tmp_path / "missing.json")]) == 3
    # an int literal past Python's int-conversion digit limit is a config fault, not a traceback
    huge_count = tmp_path / "huge.json"
    huge_count.write_text('{"plan": {"count": 1' + "0" * 4400 + "}}")
    capsys.readouterr()
    assert cli.main(["verify", "--config", str(huge_count)]) == 3
    assert capsys.readouterr().err.startswith("error[config]: config: ")
    # degenerate audit parameters -> 2, as verify and sweep report them
    alpha_zero = changed("params.alpha", 0, AUDIT_SAMPLE)
    beta_null = changed("params", {**AUDIT_SAMPLE["params"], "family": "B", "beta": None},
                        changed("scheme.scale", 3, AUDIT_SAMPLE))
    for doc, flags in ((alpha_zero, []), (beta_null, ["--force"])):
        capsys.readouterr()
        assert cli.main(["audit", "--config", write_config(tmp_path, doc)] + flags) == 2
        assert capsys.readouterr().err.startswith("error[degenerate-parameter]: ")
    # inadmissible audit parameters (|rho1| + 3|rho2| = 2.4) -> 2, as verify and sweep report them
    inadmissible = changed("params", {**AUDIT_SAMPLE["params"], "rho1": [1.5, 0], "rho2": [0.3, 0]},
                           AUDIT_SAMPLE)
    capsys.readouterr()
    assert cli.main(["audit", "--config", write_config(tmp_path, inadmissible)]) == 2
    assert capsys.readouterr().err.startswith("error[inadmissible]: ")
    # a control exponent whose powers leave the double range: divergent or numeric, never a
    # traceback, and no non-finite value in a row; on the audit sample's points ||x||^400
    # underflows to 0 and, at r = 330, ||f - A|| / ||x||^r overflows
    forward_r = changed("scheme.direction", "forward", changed("control.r", 2000, AUDIT_SAMPLE))
    huge = (("verify", forward_r, 2, "error[divergent]: "),
            ("audit", changed("control.r", 400, AUDIT_SAMPLE), 3, "error[numeric]: "),
            ("audit", changed("control.r", 330, AUDIT_SAMPLE), 3, "error[numeric]: "),
            # c26 is not finite at theta 1e308, a fault of the audit stage, which comes
            # after the pass that max_n 3 cuts short
            ("audit", changed("max_n", 3, changed("control.theta", 1e308, AUDIT_SAMPLE)), 2,
             "error[not-converged]: "),
            ("sweep", changed("grid.r", [2000], SWEEP_SAMPLE), 0, "divergent"),
            ("sweep", changed("grid.r", [-400], SWEEP_SAMPLE), 0, "numeric"))
    # a power perturbation with r < 0 is undefined at 0, which a backward orbit from a
    # point near 0 reaches: a numeric error at that term, not a traceback
    near_zero = changed("function.perturbation.r", -0.5, changed("space.dim", 1, AUDIT_SAMPLE))
    near_zero["plan"].update(radius=1e-300, exclude_origin_below=1e-301)
    huge += (("approximate", near_zero, 3, "error[numeric]: "),
             ("audit", near_zero, 3, "error[numeric]: "))
    out = tmp_path / "out"
    for command, doc, code, outcome in huge:
        capsys.readouterr()
        assert cli.main([command, "--config", write_config(tmp_path, doc), "--format", "json",
                         "--out", str(out)]) == code
        if command != "sweep":
            assert capsys.readouterr().err.startswith(outcome)
            continue
        rows = json.loads(out.read_text())
        assert {row["status"] for row in rows if row["admissible"]} == {outcome}
        assert all(np.isfinite(v) for row in rows for v in row.values()
                   if isinstance(v, float)), rows


#: the audit sample's family-B cell with beta -1 forced to forward scale 3, power control
#: and perturbation at r = 0.5: every stage passes, but c34 reads |1 + beta| = 0
_DEGENERATE_BETA = changed("control", {"kind": "power", "theta": 1.0, "r": 0.5}, changed(
    "params", {**AUDIT_SAMPLE["params"], "family": "B", "beta": -1.0}, changed(
        "scheme", {"direction": "forward", "scale": 3.0}, changed(
            "function.perturbation.r", 0.5, changed("force", True, AUDIT_SAMPLE)))))

#: (subcommand, config, exit code, stderr's first line or None) at the edges of the
#: stage order, each from the audit sample
STAGE_EDGES = {
    # no audit asked for: no published constant is evaluated, and the run passes
    "verify-without-audit": ("verify", _DEGENERATE_BETA, 0, None),
    # the published constant's fault is the audit stage's, after a pass that succeeds
    "verify-audit-degenerate-scale": ("verify", changed("audit", True, _DEGENERATE_BETA), 2,
                                      "error[degenerate-scale]: audit: degenerate-scale: "
                                      "|1 + beta| = 0.0"),
    # c26 is not finite at theta 1e308, and that fault ranks after the divergent phi~
    "verify-audit-divergent": ("verify", changed("audit", True, changed(
        "control", {"kind": "power", "theta": 1e308, "r": 0.5}, AUDIT_SAMPLE)), 2,
        "error[divergent]: phi-tilde: divergent: "),
    # the audit subcommand checks the control kind before the (inadmissible) parameters
    "audit-zero-control": ("audit", changed("control", {"kind": "zero"}, changed(
        "params", {**AUDIT_SAMPLE["params"], "rho1": [1.5, 0.0], "rho2": [0.3, 0.0]},
        AUDIT_SAMPLE)), 3, "error[config]: config: an audit needs control.kind power, got zero"),
}


@pytest.mark.parametrize("case", sorted(STAGE_EDGES))
def test_stage_order_edges(case, tmp_path, capsys, monkeypatch):
    command, doc, code, line = STAGE_EDGES[case]
    papers = []
    corollary_constant = bounds.corollary_constant
    monkeypatch.setattr(bounds, "corollary_constant",
                        lambda *a, **kw: papers.append(a) or corollary_constant(*a, **kw))
    assert cli.main([command, "--config", write_config(tmp_path, doc)]) == code
    err = capsys.readouterr().err
    if line is None:
        assert err.startswith("verify: PASS ") and papers == []
    else:
        assert err.startswith(line)


def test_cli_seed_override_changes_report(tmp_path):
    cfg = write_config(tmp_path, scalar_verify_doc())
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert cli.main(["verify", "--config", cfg, "--out", str(a)]) == 0
    assert cli.main(["verify", "--config", cfg, "--seed", "99", "--out", str(b)]) == 0
    assert a.read_bytes() != b.read_bytes()


def test_cli_sweep(tmp_path):
    doc = sweep_doc({"rho2": [[0, 0], [0.3, 0]]})
    cfg = write_config(tmp_path, doc)
    out = tmp_path / "sweep.csv"
    assert cli.main(["sweep", "--config", cfg, "--out", str(out)]) == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0].startswith("family,rho1_re")
    assert len(lines) == 3
