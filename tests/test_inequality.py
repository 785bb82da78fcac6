import functools
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import additivity_defect, make_additive, make_power

from jensenlab import (
    ControlFunction,
    RhoParams,
    SamplePlan,
    admissible,
    cli,
    draw_samples,
    inequality,
    measure_envelope,
)
from jensenlab.errors import (
    DegenerateParameterError,
    DimensionError,
    EmptySampleError,
    FamilyError,
    InadmissibleError,
    NumericError,
)
from jensenlab.inequality import defect_many
from jensenlab.model import evaluate_many


# --- admissibility -----------------------------------------------------------


def test_admissible_family_a():
    assert admissible(RhoParams("A", 0, 0, 1.0))
    # |rho1| + 3 |rho2| = 1 + 0.9 = 1.9 < 2
    assert admissible(RhoParams("A", 1.0, 0.3, 1.0))
    # boundary is strict: 0.5 + 3 * 0.5 = 2
    res = admissible(RhoParams("A", 0.5, 0.5, 1.0))
    assert not res and "2" in res.detail


def test_admissible_family_b():
    assert not admissible(RhoParams("B", 0, 1.2, 1.0, beta=1.0))  # |rho2| >= 1
    assert admissible(RhoParams("B", 0.5, 0.5, 1.0, beta=1.0))
    # the >= side of the second condition is inclusive: |beta+2| = 3 = |rho1|
    assert admissible(RhoParams("B", 3.0, 0.0, 1.0, beta=1.0))
    assert not admissible(RhoParams("B", 3.0 + 1e-9, 0.0, 1.0, beta=1.0))


def test_degenerate_parameters(scalar_model):
    with pytest.raises(DegenerateParameterError):
        admissible(RhoParams("A", 0, 0, 0.0))
    with pytest.raises(DegenerateParameterError):
        defect_many(scalar_model, [([1.0], [2.0], [0.5])], RhoParams("A", 0, 0, 0.0))
    with pytest.raises(DegenerateParameterError):
        admissible(RhoParams("B", 0, 0, 1.0, beta=0.0))
    with pytest.raises(DegenerateParameterError):
        admissible(RhoParams("B", 0, 0, 1.0))  # beta missing


def test_family_tag_validation():
    with pytest.raises(FamilyError):
        RhoParams("C", 0, 0, 1.0)


# --- defect evaluators -------------------------------------------------------


def test_defect_a_constant_offset(scalar_model):
    # lhs collapses to |-2c| = 1.0 for f(x) = x + c with c = 0.5
    triple = [([1.0], [2.0], [0.5])]
    *_, lhs, _, d = defect_many(scalar_model, triple, RhoParams("A", 0, 0, 1.0))
    assert lhs[0] == pytest.approx(1.0, abs=1e-14)
    assert d[0] == pytest.approx(1.0, abs=1e-14)
    # rho1 term evaluates to -c, so rhs = 0.5 * 0.5 and defect = 0.75
    d1 = defect_many(scalar_model, triple, RhoParams("A", 0.5, 0, 1.0))[-1]
    assert d1[0] == pytest.approx(0.75, abs=1e-14)


def test_defect_wrong_dimension(scalar_model):
    with pytest.raises(DimensionError):
        defect_many(scalar_model, [([1, 2], [1], [1])], RhoParams("A", 0, 0, 1.0))


def test_defect_b_constant_offset(scalar_model):
    # lhs collapses to |-(beta+2) c| = 1.5 for beta = 1, c = 0.5
    triple = [([1.0], [2.0], [0.5])]
    lhs = defect_many(scalar_model, triple, RhoParams("B", 0, 0, 1.0, beta=1.0))[3]
    assert lhs[0] == pytest.approx(1.5, abs=1e-14)
    d1 = defect_many(scalar_model, triple, RhoParams("B", 0.5, 0, 1.0, beta=1.0))[-1]
    assert d1[0] == pytest.approx(1.25, abs=1e-14)


def test_defect_family_a_ignores_beta():
    f = make_power(dim=2, theta=0.2, r=0.5, seed=3)
    triple = [(np.array([1.0, 0.5j]), np.array([0.25, -1.0]), np.array([0.5, 0.5]))]
    base = [c.tolist() for c in defect_many(f, triple, RhoParams("A", 0.3, 0.2, 1.5))[3:]]
    for beta in (1.0, -2.5):
        p = RhoParams("A", 0.3, 0.2, 1.5, beta=beta)
        assert p.family == "A"
        assert [c.tolist() for c in defect_many(f, triple, p)[3:]] == base  # lhs, rhs, defect


def _reference_defect(f, x, y, z, params):
    """The module docstring's formulas, written out term by term on the rows of
    x, y and z: each f call evaluates one argument of every triple."""
    E = functools.partial(evaluate_many, f)
    a = params.alpha
    if params.family == "A":
        lhs = E(x + y + a * z) + E(x + y - a * z) - 2 * E(x) - 2 * E(y)
        e1 = E(x + y + a * z) - E(x + y) - E(a * z)
        e2 = E(x + y - a * z) + E(-x) + E(a * z - y)
    else:
        b = float(params.beta)
        lhs = E(x + b * y + a * z) - E(x - a * z) - b * E(y) - 2 * E(a * z)
        e1 = E(x + a * z) - E(x) - E(a * z)
        e2 = E(x + b * y - a * z) - E(x) - b * E(y) + E(a * z)
    sp = f.space
    lhs_norm = sp.norms(lhs)
    rhs_norm = abs(params.rho1) * sp.norms(e1) + abs(params.rho2) * sp.norms(e2)
    return lhs_norm.tolist(), rhs_norm.tolist(), (lhs_norm - rhs_norm).tolist()


@pytest.mark.parametrize("params", [
    RhoParams("A", 0.3 + 0.2j, -0.1 + 0.25j, -1.7),
    RhoParams("B", 0.4 - 0.3j, 0.2 + 0.5j, 0.6, beta=-2.3),
    # a zero rho skips its expression; the reference still multiplies its norm by 0.0
    RhoParams("A", 0, -0.1 + 0.25j, -1.7),
    RhoParams("A", 0.3 + 0.2j, 0, -1.7),
    RhoParams("A", 0, 0, -1.7),
    RhoParams("B", 0, 0.2 + 0.5j, 0.6, beta=-2.3),
    RhoParams("B", 0.4 - 0.3j, 0, 0.6, beta=-2.3),
    RhoParams("B", 0, 0, 0.6, beta=-2.3),
])
def test_defect_matches_docstring_formulas(params):
    f = make_power(dim=3, theta=0.2, r=0.5, seed=21)
    triples = draw_samples(f.space, SamplePlan(seed=17, count=60, radius=4.0), arity=3)
    lhs, rhs, d = (c.tolist() for c in defect_many(f, triples, params)[3:])
    assert (lhs, rhs, d) == _reference_defect(f, *triples.swapaxes(0, 1), params)
    if params.rho1 == params.rho2 == 0:  # +0.0, which == does not tell from -0.0
        assert all(math.copysign(1.0, v) == 1.0 and v == 0.0 for v in rhs)


@pytest.mark.parametrize("params, calls", [
    (RhoParams("A", 0.3, 0.2, 1.5), 8),
    (RhoParams("B", 0.3, 0.2, 1.5, beta=2.0), 7),
    # an expression of zero weight is not evaluated: its own arguments are skipped
    (RhoParams("A", 0, 0.2, 1.5), 6),  # x + y and alpha z
    (RhoParams("A", 0.3, 0, 1.5), 6),  # -x and alpha z - y
    (RhoParams("A", 0, 0, 1.5), 4),
    (RhoParams("B", 0, 0.2, 1.5, beta=2.0), 6),  # x + alpha z
    (RhoParams("B", 0.3, 0, 1.5, beta=2.0), 6),  # x + beta y - alpha z
    (RhoParams("B", 0, 0, 1.5, beta=2.0), 4),
])
def test_defect_evaluates_each_argument_once(monkeypatch, params, calls):
    # each distinct argument of a nonzero-weight expression once, max(1, ROWS // triples)
    # arguments per batched f call: all of them for 1 or 25 triples, 2 at a time for 1000
    f = make_power(dim=2, theta=0.2, r=0.5, seed=3)
    seen = []
    original = inequality.evaluate_many

    def counting(f, vs):
        seen.append(len(vs))
        return original(f, vs)

    monkeypatch.setattr(inequality, "evaluate_many", counting)
    defect_many(f, [(np.array([1.0, 0.5j]), np.array([0.25, -1.0]), np.array([0.5, 0.5]))],
                params)
    assert seen == [calls]
    for count, want in ((25, [25 * calls]), (1000, [2000] * (calls // 2) + [1000] * (calls % 2))):
        seen.clear()
        triples = draw_samples(f.space, SamplePlan(seed=4, count=count, radius=2.0), arity=3)
        defect_many(f, triples, params)
        assert seen == want


def test_defect_skips_an_argument_only_a_zero_weight_reads():
    # r < 0 leaves f(0) undefined (a NaN row); with y = -x, f(x + y) = f(0) is read by e1
    # alone, so with rho1 = 0 it is not in the inequality and the defect is finite
    f = make_power(dim=2, theta=0.2, r=-0.5, seed=3)
    x = np.array([1.0, 0.5j])
    triple = [(x, -x, np.array([0.5, 0.25]))]
    *_, rhs, d = defect_many(f, triple, RhoParams("A", 0, 0.2, 1.5))
    assert np.isfinite(d).all() and rhs[0] > 0.0
    with pytest.raises(NumericError, match="triple 0"):
        defect_many(f, triple, RhoParams("A", 0.1, 0.2, 1.5))


def test_exact_additive_defect_vanishes():
    f = make_additive(dim=2, seed=4)
    pa = RhoParams("A", 0.2, 0.3, 1.0)
    pb = RhoParams("B", 0.5, 0.5, 1.0, beta=1.0)
    triples = draw_samples(f.space, SamplePlan(seed=8, count=100, radius=2.0,
                                               exclude_origin_below=0.1), arity=3)
    for params in (pa, pb):
        assert (abs(defect_many(f, triples, params)[-1]) <= 1e-12).all()


def test_rho_scaling_unimodular_exact():
    # multiplying rho by a unit in {1, -1, i, -i} swaps/negates components,
    # which |.| ignores exactly
    f = make_power(dim=2, theta=0.2, r=0.5, seed=3)
    triple = [(np.array([1.0, 0.5j]), np.array([0.25, -1.0]), np.array([0.5, 0.5]))]
    *_, base_rhs, base = defect_many(f, triple, RhoParams("A", 0.3 + 0.1j, 0.2 - 0.05j, 1.0))
    for u1 in (1, -1, 1j, -1j):
        for u2 in (1, -1, 1j, -1j):
            p = RhoParams("A", u1 * (0.3 + 0.1j), u2 * (0.2 - 0.05j), 1.0)
            *_, rhs, d = defect_many(f, triple, p)
            assert rhs[0] == base_rhs[0]  # bitwise
            assert d[0] == base[0]


@settings(max_examples=40, deadline=None)
@given(phi1=st.floats(0, 2 * np.pi), phi2=st.floats(0, 2 * np.pi))
def test_rho_scaling_unimodular_property(phi1, phi2):
    f = make_power(dim=1, theta=0.3, r=0.5, seed=5)
    triple = [(np.array([1.0]), np.array([0.5]), np.array([0.25]))]
    base = defect_many(f, triple, RhoParams("A", 0.4, 0.3, 1.0))[4]
    p = RhoParams("A", 0.4 * np.exp(1j * phi1), 0.3 * np.exp(1j * phi2), 1.0)
    got = defect_many(f, triple, p)[4]
    assert got[0] == pytest.approx(base[0], rel=1e-12, abs=1e-12)


def test_defect_monotone_in_rho_modulus():
    f = make_power(dim=2, theta=0.2, r=0.5, seed=6)
    triples = draw_samples(f.space, SamplePlan(seed=9, count=50, radius=2.0,
                                               exclude_origin_below=0.1), arity=3)
    small = RhoParams("A", 0.1, 0.1, 1.0)
    large = RhoParams("A", 0.4, 0.3, 1.0)
    assert (defect_many(f, triples, large)[-1]
            <= defect_many(f, triples, small)[-1] + 1e-12).all()


def test_equality_case_oracle():
    # near-zero defect for admissible params implies a near-additive f
    atol = 1e-12
    f = make_additive(dim=2, seed=10)
    params = RhoParams("A", 0.2, 0.3, 1.0)
    plan = SamplePlan(seed=12, count=200, radius=2.0, exclude_origin_below=0.1)
    triples = draw_samples(f.space, plan, arity=3)
    assert abs(defect_many(f, triples, params)[-1]).max() <= atol
    assert max(additivity_defect(f, x, y) for x, y, _ in triples) <= 10 * atol


# --- envelopes ---------------------------------------------------------------


def test_envelope_constant_defect(scalar_model):
    params = RhoParams("A", 0, 0, 1.0)
    plan = SamplePlan(seed=3, count=1000, radius=2.0, exclude_origin_below=0.1)
    edges, shell_max = measure_envelope(scalar_model, params, plan)
    assert np.allclose(shell_max, 1.0, atol=1e-12)
    control = ControlFunction.measured(edges, shell_max)
    assert control.evaluate_norms(1.0, 1.0, 0.0) == pytest.approx(2.0, rel=1e-12)
    assert control.component(0.0) == 0.0


def test_envelope_zero_for_additive():
    f = make_additive(dim=2, seed=13)
    params = RhoParams("A", 0, 0, 1.0)
    plan = SamplePlan(seed=5, count=300, radius=2.0, exclude_origin_below=0.1)
    _, shell_max = measure_envelope(f, params, plan)
    assert (shell_max <= 1e-12).all()


def test_envelope_power_growth():
    # shell maxima of a theta ||x||^0.5 perturbation grow like radius^0.5
    f = make_power(dim=2, theta=0.1, r=0.5, seed=2)
    params = RhoParams("A", 0, 0, 1.0)
    plan = SamplePlan(seed=2, count=2000, radius=8.0, exclude_origin_below=2.0 ** -5)
    edges, shell_max = measure_envelope(f, params, plan)
    centers = np.sqrt(edges[:-1] * edges[1:])
    mask = shell_max > 0
    slope = np.polyfit(np.log(centers[mask]), np.log(shell_max[mask]), 1)[0]
    assert slope == pytest.approx(0.5, rel=0.15)


def test_envelope_monotone_extension():
    f = make_power(dim=2, theta=0.1, r=0.5, seed=2)
    params = RhoParams("A", 0, 0, 1.0)
    edges, shell_max = measure_envelope(f, params, SamplePlan(seed=4, count=500, radius=2.0,
                                                              exclude_origin_below=0.1))
    e = ControlFunction.measured(edges, shell_max).component
    values = [e(s) for s in (0.15, 0.5, 1.0, 2.0, 50.0)]
    assert all(a <= b + 1e-15 for a, b in zip(values, values[1:]))
    assert e(1e9) == shell_max.max()


def test_envelope_errors(scalar_model):
    inadmissible = RhoParams("A", 1.5, 0.3, 1.0)  # 1.5 + 0.9 = 2.4 >= 2
    plan = SamplePlan(seed=1, count=10, radius=2.0, exclude_origin_below=0.1)
    with pytest.raises(InadmissibleError):
        measure_envelope(scalar_model, inadmissible, plan)
    with pytest.raises(EmptySampleError):
        measure_envelope(scalar_model, RhoParams("A", 0, 0, 1.0),
                         SamplePlan(seed=1, count=0, radius=2.0, exclude_origin_below=0.1))


def test_defect_csv_export(tmp_path):
    # f(x) = x + 0.5 on C^1, as scalar_model, exported through the CLI `defect` CSV
    doc = {
        "space": {"dim": 1, "norm": "l2"},
        "function": {"core": {"kind": "identity"},
                     "perturbation": {"kind": "tabulated", "default": [[0.5, 0.0]]}},
        "params": {"family": "A", "rho1": [0, 0], "rho2": [0, 0], "alpha": 1.0},
        "plan": {"seed": 6, "count": 5, "radius": 2.0, "exclude_origin_below": 0.1},
    }
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    out = tmp_path / "defects.csv"
    assert cli.main(["defect", "--config", str(cfg), "--out", str(out)]) == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "family,x_norm,y_norm,z_norm,lhs,rhs,defect"
    assert len(lines) == 6
    first = lines[1].split(",")
    assert first[0] == "A"
    assert float(first[6]) == pytest.approx(1.0, abs=1e-12)  # |0.5 + 0.5 - 2 * 0.5 - 2 * 0.5|
