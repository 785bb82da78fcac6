import json
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import make_additive, make_power

from jensenlab import (
    ControlFunction,
    NormedSpace,
    RhoParams,
    SamplePlan,
    admissible,
    cli,
    defect,
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
)


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
        defect(scalar_model, [1.0], [2.0], [0.5], RhoParams("A", 0, 0, 0.0))
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
    p0 = RhoParams("A", 0, 0, 1.0)
    s = defect(scalar_model, [1.0], [2.0], [0.5], p0)
    assert s.lhs_norm == pytest.approx(1.0, abs=1e-14)
    assert s.defect == pytest.approx(1.0, abs=1e-14)
    # rho1 term evaluates to -c, so rhs = 0.5 * 0.5 and defect = 0.75
    p1 = RhoParams("A", 0.5, 0, 1.0)
    s1 = defect(scalar_model, [1.0], [2.0], [0.5], p1)
    assert s1.defect == pytest.approx(0.75, abs=1e-14)


def test_defect_wrong_dimension(scalar_model):
    with pytest.raises(DimensionError):
        defect(scalar_model, [1, 2], [1], [1], RhoParams("A", 0, 0, 1.0))


def test_defect_b_constant_offset(scalar_model):
    # lhs collapses to |-(beta+2) c| = 1.5 for beta = 1, c = 0.5
    p0 = RhoParams("B", 0, 0, 1.0, beta=1.0)
    s = defect(scalar_model, [1.0], [2.0], [0.5], p0)
    assert s.lhs_norm == pytest.approx(1.5, abs=1e-14)
    p1 = RhoParams("B", 0.5, 0, 1.0, beta=1.0)
    s1 = defect(scalar_model, [1.0], [2.0], [0.5], p1)
    assert s1.defect == pytest.approx(1.25, abs=1e-14)


def test_defect_family_a_ignores_beta():
    f = make_power(dim=2, theta=0.2, r=0.5, seed=3)
    x, y, z = (np.array([1.0, 0.5j]), np.array([0.25, -1.0]), np.array([0.5, 0.5]))
    base = defect(f, x, y, z, RhoParams("A", 0.3, 0.2, 1.5))
    for beta in (1.0, -2.5):
        s = defect(f, x, y, z, RhoParams("A", 0.3, 0.2, 1.5, beta=beta))
        assert s.family == "A"
        assert (s.lhs_norm, s.rhs_norm, s.defect) == (base.lhs_norm, base.rhs_norm, base.defect)


def _reference_defect(f, x, y, z, params):
    """The module docstring's formulas, written out term by term."""
    E = f
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
    lhs_norm = sp.norm(lhs)
    rhs_norm = abs(params.rho1) * sp.norm(e1) + abs(params.rho2) * sp.norm(e2)
    return lhs_norm, rhs_norm, lhs_norm - rhs_norm


@pytest.mark.parametrize("params", [
    RhoParams("A", 0.3 + 0.2j, -0.1 + 0.25j, -1.7),
    RhoParams("B", 0.4 - 0.3j, 0.2 + 0.5j, 0.6, beta=-2.3),
])
def test_defect_matches_docstring_formulas(params):
    f = make_power(dim=3, theta=0.2, r=0.5, seed=21)
    triples = draw_samples(f.space, SamplePlan(seed=17, count=60, radius=4.0), arity=3)
    for x, y, z in triples:
        s = defect(f, x, y, z, params)
        assert (s.lhs_norm, s.rhs_norm, s.defect) == _reference_defect(f, x, y, z, params)


@pytest.mark.parametrize("params, calls", [
    (RhoParams("A", 0.3, 0.2, 1.5), 8),
    (RhoParams("B", 0.3, 0.2, 1.5, beta=2.0), 7),
])
def test_defect_evaluates_each_argument_once(monkeypatch, params, calls):
    # each distinct argument once, max(1, ROWS // triples) arguments per batched f call:
    # all of them for 1 or 25 triples, 2 at a time for 1000
    f = make_power(dim=2, theta=0.2, r=0.5, seed=3)
    seen = []
    original = inequality.evaluate_many

    def counting(f, vs):
        seen.append(len(vs))
        return original(f, vs)

    monkeypatch.setattr(inequality, "evaluate_many", counting)
    defect(f, np.array([1.0, 0.5j]), np.array([0.25, -1.0]), np.array([0.5, 0.5]), params)
    assert seen == [calls]
    for count, want in ((25, [25 * calls]), (1000, [2000] * (calls // 2) + [1000] * (calls % 2))):
        seen.clear()
        triples = draw_samples(f.space, SamplePlan(seed=4, count=count, radius=2.0), arity=3)
        inequality.defect_many(f, triples, params)
        assert seen == want


def test_exact_additive_defect_vanishes():
    f = make_additive(dim=2, seed=4)
    pa = RhoParams("A", 0.2, 0.3, 1.0)
    pb = RhoParams("B", 0.5, 0.5, 1.0, beta=1.0)
    triples = draw_samples(f.space, SamplePlan(seed=8, count=100, radius=2.0,
                                               exclude_origin_below=0.1), arity=3)
    for x, y, z in triples:
        assert abs(defect(f, x, y, z, pa).defect) <= 1e-12
        assert abs(defect(f, x, y, z, pb).defect) <= 1e-12


def test_rho_scaling_unimodular_exact():
    # multiplying rho by a unit in {1, -1, i, -i} swaps/negates components,
    # which |.| ignores exactly
    f = make_power(dim=2, theta=0.2, r=0.5, seed=3)
    x, y, z = (np.array([1.0, 0.5j]), np.array([0.25, -1.0]), np.array([0.5, 0.5]))
    base = defect(f, x, y, z, RhoParams("A", 0.3 + 0.1j, 0.2 - 0.05j, 1.0))
    for u1 in (1, -1, 1j, -1j):
        for u2 in (1, -1, 1j, -1j):
            p = RhoParams("A", u1 * (0.3 + 0.1j), u2 * (0.2 - 0.05j), 1.0)
            s = defect(f, x, y, z, p)
            assert s.rhs_norm == base.rhs_norm  # bitwise
            assert s.defect == base.defect


@settings(max_examples=40, deadline=None)
@given(phi1=st.floats(0, 2 * np.pi), phi2=st.floats(0, 2 * np.pi))
def test_rho_scaling_unimodular_property(phi1, phi2):
    f = make_power(dim=1, theta=0.3, r=0.5, seed=5)
    x, y, z = np.array([1.0]), np.array([0.5]), np.array([0.25])
    base = defect(f, x, y, z, RhoParams("A", 0.4, 0.3, 1.0))
    p = RhoParams("A", 0.4 * np.exp(1j * phi1), 0.3 * np.exp(1j * phi2), 1.0)
    got = defect(f, x, y, z, p)
    assert got.rhs_norm == pytest.approx(base.rhs_norm, rel=1e-12, abs=1e-12)


def test_defect_monotone_in_rho_modulus():
    f = make_power(dim=2, theta=0.2, r=0.5, seed=6)
    triples = draw_samples(f.space, SamplePlan(seed=9, count=50, radius=2.0,
                                               exclude_origin_below=0.1), arity=3)
    small = RhoParams("A", 0.1, 0.1, 1.0)
    large = RhoParams("A", 0.4, 0.3, 1.0)
    for x, y, z in triples:
        assert defect(f, x, y, z, large).defect <= defect(f, x, y, z, small).defect + 1e-12


def test_equality_case_oracle():
    # near-zero defect for admissible params implies a near-additive f
    atol = 1e-12
    f = make_additive(dim=2, seed=10)
    params = RhoParams("A", 0.2, 0.3, 1.0)
    plan = SamplePlan(seed=12, count=200, radius=2.0, exclude_origin_below=0.1)
    triples = draw_samples(f.space, plan, arity=3)
    assert max(abs(defect(f, x, y, z, params).defect) for x, y, z in triples) <= atol
    from jensenlab import additivity_defect

    assert max(additivity_defect(f, x, y) for x, y, _ in triples) <= 10 * atol


# --- envelopes ---------------------------------------------------------------


def test_envelope_constant_defect(scalar_model):
    params = RhoParams("A", 0, 0, 1.0)
    plan = SamplePlan(seed=3, count=1000, radius=2.0, exclude_origin_below=0.1)
    env = measure_envelope(scalar_model, params, plan)
    assert np.allclose(env.shell_max, 1.0, atol=1e-12)
    assert ControlFunction.measured(env).evaluate_norms(1.0, 1.0, 0.0) == pytest.approx(2.0, rel=1e-12)
    assert ControlFunction.measured(env).component(0.0) == 0.0
    assert abs(env.fit_r) < 0.05  # constant defect fits r ~ 0
    assert env.fit_theta == pytest.approx(1.0 / 3.0, rel=1e-3)


@settings(max_examples=50, deadline=None)
@given(center=st.floats(-1.0, 1.0), lo=st.floats(-2.0, -1.0), hi=st.floats(1.0, 2.0))
def test_golden_section_brackets_a_unimodal_minimum(center, lo, hi):
    calls = []

    def fn(x):
        calls.append(x)
        return (x - center) ** 2

    x = inequality._golden_section(fn, lo, hi)
    assert lo <= x <= hi
    assert abs(x - center) <= 1e-5
    assert len(calls) <= 40


def test_power_law_fit_recovers_exact_exponent():
    rng = np.random.default_rng(0)
    norms = rng.uniform(0.1, 2.0, size=(500, 3))
    r_want, theta_want = 0.73, 0.2
    theta_hat, r_hat = inequality._fit_power_law(norms, theta_want * (norms ** r_want).sum(axis=1))
    assert type(r_hat) is float and type(theta_hat) is float
    assert r_hat == pytest.approx(r_want, abs=1e-5)
    assert theta_hat == pytest.approx(theta_want, rel=1e-4)


def fit_reference(norms, defects):
    """The power-law fit exponent by exponent: min over the grid by SSE, then
    the same golden section and the least-squares theta at its exponent."""
    d = np.clip(defects, 0.0, None)
    if d.max(initial=0.0) <= 1e-14:
        return 0.0, 0.0

    def fit(r):
        g = (norms ** r).sum(axis=1)
        denom = float(g @ g)
        theta = max(float(g @ d) / denom, 0.0) if denom != 0.0 else 0.0
        return theta, float(((theta * g - d) ** 2).sum())

    best = float(min(np.linspace(-2.0, 6.0, 161), key=lambda r: fit(r)[1]))
    r_hat = inequality._golden_section(lambda r: fit(r)[1], best - 0.1, best + 0.1)
    return fit(r_hat)[0], r_hat


@pytest.mark.parametrize("r", [0.37, 0.5, 1.234, 2.0])
def test_one_exponent_fit_equals_the_scalar_fit(r):
    rng = np.random.default_rng(7)
    norms, defects = rng.uniform(0.1, 2.0, size=(1000, 3)), rng.uniform(size=1000)
    g = (norms ** r).sum(axis=1)
    theta = max(float(g @ defects) / float(g @ g), 0.0)
    thetas, sses = inequality._grid_sse(norms, defects, np.array([r]))
    sse = float(((theta * g - defects) ** 2).sum())
    assert (thetas.tolist(), sses.tolist()) == ([theta], [sse])


@st.composite
def envelope_samples(draw):
    """Triple norms drawn as measure_envelope draws them, and defects around a power law."""
    lo = draw(st.floats(1e-3, 1.0))
    plan = SamplePlan(seed=draw(st.integers(0, 2 ** 32)), count=draw(st.integers(1, 400)),
                      radius=lo * draw(st.floats(1.01, 1e3)), exclude_origin_below=lo)
    space = NormedSpace(draw(st.integers(1, 3)))
    triples = draw_samples(space, plan, arity=3)
    norms = np.stack([space.norms(triples[:, k]) for k in range(3)], axis=1)
    if draw(st.booleans()):  # every norm the same: the SSE is flat up to rounding
        norms = np.full_like(norms, norms[0, 0])
    rng = np.random.default_rng(plan.seed)
    defects = (draw(st.floats(0.0, 10.0)) * (norms ** draw(st.floats(-2.0, 6.0))).sum(axis=1)
               + draw(st.floats(0.0, 1.0)) * rng.normal(size=len(norms)))
    return norms, defects, draw(st.sampled_from([1, 5, 3 * plan.count, inequality.CHUNK_ELEMENTS]))


@settings(max_examples=100, deadline=None)
@given(case=envelope_samples())
# equal norms leave the SSE flat up to rounding: powers over a whole exponent array
# round differently at r = 2 (where ``**`` with one exponent squares) and pick r = 2
# over the reference's -2
@example(case=(np.full((3, 3), 1.6), np.array([1.2, 0.3, 0.7]), inequality.CHUNK_ELEMENTS))
def test_power_law_fit_equals_exponent_by_exponent(case):
    norms, defects, budget = case
    with mock.patch.object(inequality, "CHUNK_ELEMENTS", budget):
        assert inequality._fit_power_law(norms, defects) == fit_reference(norms, defects)


def test_power_law_fit_ties_and_clamped_defects():
    rng = np.random.default_rng(4)
    norms = rng.uniform(0.1, 2.0, size=(50, 3))
    # every defect clamped to 0: theta = 0 and every grid SSE ties
    assert (inequality._grid_sse(norms, np.zeros(50))[1] == 0.0).all()
    assert inequality._fit_power_law(norms, -rng.uniform(size=50)) == (0.0, 0.0)
    # unit norms make every power 1, so every grid SSE ties: the first exponent wins
    ones, defects = np.ones((50, 3)), rng.uniform(size=50)
    _, sse = inequality._grid_sse(ones, defects)
    assert (sse == sse[0]).all()
    theta, r = inequality._fit_power_law(ones, defects)
    assert (theta, r) == fit_reference(ones, defects) and -2.1 <= r <= -1.9


def test_envelope_zero_for_additive():
    f = make_additive(dim=2, seed=13)
    params = RhoParams("A", 0, 0, 1.0)
    plan = SamplePlan(seed=5, count=300, radius=2.0, exclude_origin_below=0.1)
    env = measure_envelope(f, params, plan)
    assert env.fit_theta == 0.0
    assert (env.shell_max <= 1e-12).all()


def test_envelope_power_growth():
    # shell maxima of a theta ||x||^0.5 perturbation grow like radius^0.5
    f = make_power(dim=2, theta=0.1, r=0.5, seed=2)
    params = RhoParams("A", 0, 0, 1.0)
    plan = SamplePlan(seed=2, count=2000, radius=8.0, exclude_origin_below=2.0 ** -5)
    env = measure_envelope(f, params, plan)
    assert env.fit_r == pytest.approx(0.5, rel=0.15)
    centers = np.sqrt(env.edges[:-1] * env.edges[1:])
    mask = env.shell_max > 0
    slope = np.polyfit(np.log(centers[mask]), np.log(env.shell_max[mask]), 1)[0]
    assert slope == pytest.approx(0.5, rel=0.15)


def test_envelope_monotone_extension():
    f = make_power(dim=2, theta=0.1, r=0.5, seed=2)
    params = RhoParams("A", 0, 0, 1.0)
    env = measure_envelope(f, params, SamplePlan(seed=4, count=500, radius=2.0,
                                                 exclude_origin_below=0.1))
    e = ControlFunction.measured(env).component
    values = [e(s) for s in (0.15, 0.5, 1.0, 2.0, 50.0)]
    assert all(a <= b + 1e-15 for a, b in zip(values, values[1:]))
    assert e(1e9) == env.cum_max[-1]


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
