import json
from pathlib import Path

import numpy as np
import pytest

from jensenlab import bounds, cli, direct_method, harness
from jensenlab.errors import PairingError, StageFailure, UnknownKeyError
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
    assert cfg["scheme"]["scale"] == 2.0
    assert cfg["plan"]["count"] == 100
    assert cfg["tolerances"]["tol"] == 1e-9
    assert cfg["envelope"]["seed"] == cfg["plan"]["seed"]


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
    "plan-not-object-with-seed": ("verify", changed("plan", 5), ["--seed", "3"], "plan must be"),
    "trunc-terms-zero": ("verify", changed("trunc_terms", 0), [], "trunc_terms"),
    "tol-zero": ("verify", changed("tolerances.tol", 0), [], "tolerances.tol"),
    "shells-zero": ("verify", changed("envelope.shells", 0), [], "envelope.shells"),
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


@pytest.mark.parametrize("path", sorted(CONFIGS.glob("*.json")), ids=lambda p: p.stem)
def test_sample_configs_run(path, tmp_path):
    command = path.stem.split("_")[0]
    assert cli.main([command, "--config", str(path), "--out", str(tmp_path / "out")]) == 0


def test_family_scheme_pairing():
    doc = scalar_verify_doc()
    doc["scheme"] = {"direction": "forward", "scale": 3.0}
    with pytest.raises(PairingError):
        harness.build_experiment(doc)
    doc["force"] = True
    exp = harness.build_experiment(doc)
    assert exp.forced_pairing is True


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
    assert rep.passed()
    assert rep.summary["max_violation"] <= 1e-12
    assert all(p["margin"] >= 0 for p in rep.points)


def test_run_verify_scalar_measured():
    rep = harness.run_verify(scalar_verify_doc())
    assert rep.passed()
    for p in rep.points:
        assert p["deviation"] == pytest.approx(0.5, abs=1e-8)
        assert p["bound"] == pytest.approx(1.0, rel=1e-9)
    assert rep.control_fit is not None


def test_run_verify_divergent_abort():
    doc = power_verify_doc(r=2.0, control={"kind": "power", "theta": 1.0, "r": 2.0})
    with pytest.raises(StageFailure) as err:
        harness.run_verify(doc)
    assert err.value.stage == "convergence-predicate"
    assert err.value.code == "divergent"


def test_run_verify_measured_detects_divergence():
    # measured control on an r=2 perturbation: fitted exponent flags divergence
    with pytest.raises(StageFailure) as err:
        harness.run_verify(power_verify_doc(r=2.0))
    assert err.value.stage == "convergence-predicate"


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


def test_run_verify_reports_coverage_truncation():
    # the forward series at ||x|| reaches 2^63 ||x||: past the last edge above ||x|| ~ 1.08
    doc = changed("control", {"kind": "tabulated", "edges": [0.01, 0.5, 1.0, 1e19],
                              "values": [0.3, 0.2, 0.5]})
    exp = harness.build_experiment(doc)
    spec = harness._series_spec(exp)
    keys = set(harness.run_verify(VERIFY_SAMPLE).points[0])
    points = harness.run_verify(doc).points
    truncated = [p for p in points if "terms" in p]
    assert 0 < len(truncated) < len(points)
    for p in points:
        pt = bounds.phi_tilde_norm(exp.control, p["x_norm"], spec)
        if pt.coverage_truncated:
            assert set(p) == keys | {"terms", "coverage_truncated"}
            assert p["coverage_truncated"] is True and p["terms"] == pt.terms < 64
        else:
            assert set(p) == keys


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


def test_audit_block_uses_config_max_n():
    # r = 0.9 needs more than 200 orbit terms at some points; the audit block
    # must reuse the run's approximants rather than re-run them at max_n=200
    doc = power_verify_doc(r=0.9, control={"kind": "power", "theta": 1.0, "r": 0.9})
    doc["max_n"] = 400
    plain = harness.run_verify(doc)
    assert plain.passed()
    assert max(p["iterations"] for p in plain.points) > 200
    doc["audit"] = True
    rep = harness.run_verify(doc)
    assert rep.points == plain.points
    exp = harness.build_experiment(doc)
    control = bounds.ControlFunction.power(1.0, 0.9)
    pts = draw_samples(exp.space, exp.plan, arity=1)
    direct = bounds.audit(exp.f, exp.params, exp.scheme, control, pts, tol=exp.tol, max_n=400)
    assert rep.audit == direct.to_json_dict()


@pytest.mark.parametrize("name, most", [("sweep_family_a", 3), ("verify_power_measured", 5)])
def test_approximation_pass_evaluates_orbits_in_blocks(monkeypatch, name, most):
    # f(x), then a block of orbit steps per call: one call per step made 54 on either config
    calls = []
    original = direct_method.evaluate_many

    def counting(f, xs):
        calls.append(len(xs))
        return original(f, xs)

    monkeypatch.setattr(direct_method, "evaluate_many", counting)
    exp = harness.build_experiment(json.loads((CONFIGS / f"{name}.json").read_text()))
    approximated = harness._approximants(exp, draw_samples(exp.space, exp.plan, arity=1))
    assert all(rep.converged for rep, _ in approximated)
    assert 1 < len(calls) <= most
    assert max(calls) <= direct_method.ROWS


# --- reports -----------------------------------------------------------------


def test_write_report_byte_stable(tmp_path):
    doc = scalar_verify_doc()
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    harness.write_report(harness.run_verify(doc), "json", p1)
    harness.write_report(harness.run_verify(doc), "json", p2)
    assert p1.read_bytes() == p2.read_bytes()


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


def test_sweep_cells_match_verify_and_audit():
    sample = json.loads((CONFIGS / "sweep_family_a.json").read_text())
    for doc, ok_cells in ((sample, 9), (printed_family_b_doc(), 1)):
        rows = harness.run_sweep(doc)
        ok = [row for row in rows if row["status"] == "ok"]
        assert len(ok) == ok_cells
        for row in ok:
            cell = {k: v for k, v in doc.items() if k != "grid"}
            cell["params"] = {**doc["params"], "rho2": [row["rho2_re"], row["rho2_im"]]}
            cell["control"] = {"kind": "power", "theta": row["theta"], "r": row["r"]}
            cell["audit"] = True
            rep = harness.run_verify(cell)
            assert row["max_violation"] == rep.summary["max_violation"]
            exp = harness.build_experiment(cell)
            aud = bounds.audit(exp.f, exp.params, exp.scheme, exp.control,
                               draw_samples(exp.space, exp.plan, arity=1), tol=exp.tol)
            for key in ("paper_constant", "derived_constant", "empirical_sup"):
                assert row[key] == rep.audit[key] == getattr(aud, key), key


def test_sweep_computes_one_derived_series_per_admissible_cell(monkeypatch):
    calls = []
    phi_tilde_norm = bounds.phi_tilde_norm
    monkeypatch.setattr(bounds, "phi_tilde_norm", lambda *a: calls.append(a) or phi_tilde_norm(*a))
    rows = harness.run_sweep(json.loads((CONFIGS / "sweep_family_a.json").read_text()))
    assert len(calls) == sum(row["admissible"] for row in rows) == 9


def test_phi_tilde_failure_named_before_approximation_failure():
    # the printed family-B prefactor needs |rho1| < 1; with max_n 1 the
    # approximation fails too, and the failing stage must not depend on that
    for max_n in (1, 200):
        doc = printed_family_b_doc(rho1=1.5, beta=3.0, max_n=max_n)
        with pytest.raises(StageFailure) as err:
            harness.run_verify(doc)
        assert (err.value.stage, err.value.code) == ("phi-tilde", "inadmissible")
        assert [row["status"] for row in harness.run_sweep(doc)] == ["inadmissible"]


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


AUDIT_SAMPLE = json.loads((CONFIGS / "audit_backward_dyadic.json").read_text())


def test_cli_exit_codes(tmp_path, capsys):
    # divergent config -> 2; missing file -> 3
    doc = power_verify_doc(r=2.0, control={"kind": "power", "theta": 1.0, "r": 2.0})
    assert cli.main(["verify", "--config", write_config(tmp_path, doc)]) == 2
    assert cli.main(["verify", "--config", str(tmp_path / "missing.json")]) == 3
    # degenerate audit parameters -> 2, as verify and sweep report them
    alpha_zero = changed("params.alpha", 0, AUDIT_SAMPLE)
    beta_null = changed("params", {**AUDIT_SAMPLE["params"], "family": "B", "beta": None},
                        changed("scheme.scale", 3, AUDIT_SAMPLE))
    for doc, flags in ((alpha_zero, []), (beta_null, ["--force"])):
        capsys.readouterr()
        assert cli.main(["audit", "--config", write_config(tmp_path, doc)] + flags) == 2
        assert capsys.readouterr().err.startswith("error[degenerate-parameter]: ")
    # a control exponent whose powers leave the double range: divergent or numeric, never a
    # traceback, and no non-finite value in a row; on the audit sample's points ||x||^400
    # underflows to 0 and, at r = 330, ||f - A|| / ||x||^r overflows
    forward_r = changed("scheme.direction", "forward", changed("control.r", 2000, AUDIT_SAMPLE))
    huge = (("verify", forward_r, 2, "error[divergent]: "),
            ("audit", changed("control.r", 400, AUDIT_SAMPLE), 3, "error[numeric]: "),
            ("audit", changed("control.r", 330, AUDIT_SAMPLE), 3, "error[numeric]: "),
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
