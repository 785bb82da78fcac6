import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_additive, make_power, phi_tilde_norms

from jensenlab import (
    ControlFunction,
    RhoParams,
    SamplePlan,
    Scheme,
    audit,
    backward,
    constant_tag,
    convergence_predicate,
    corollary_constant,
    draw_samples,
    forward,
    measure_envelope,
)
from jensenlab import bounds
from jensenlab.inequality import MeasuredEnvelope
from jensenlab.errors import (
    DegenerateParameterError,
    DivergentSeriesError,
    FamilyError,
    InadmissibleError,
    NumericError,
    OutOfRegimeError,
    SingularPointError,
)


def power_phi(theta, r):
    """Independent control evaluation for oracle sums (0^r contributes 0)."""
    def phi(a, b, c):
        return theta * sum(0.0 if s == 0 else s ** r for s in (a, b, c))
    return phi


def brute_forward_dyadic(theta, r, p2, alpha, nx, terms=300, display=False):
    phi = power_phi(theta, r)
    total = 0.0
    for i in range(terms):
        s = 2.0 ** i * nx
        third = s if display else s / abs(alpha)
        total += 2.0 ** -(i + 1) / (2 - p2) * (phi(s, s, 0) + 2 * p2 / (1 - p2) * phi(0, 0, third))
    return total


def brute_backward_dyadic(theta, r, p2, alpha, nx, terms=300):
    phi = power_phi(theta, r)
    total = 0.0
    for i in range(terms):
        s = nx / 2.0 ** (i + 1)
        total += 2.0 ** i / (2 - p2) * (phi(s, s, 0) + 2 * p2 / (1 - p2) * phi(0, 0, s / abs(alpha)))
    return total


def brute_family_b(theta, r, p2, scale, nx, direction, terms=300, pref_rho=None):
    phi = power_phi(theta, r)
    L = abs(scale)
    pref = 1.0 / (1.0 - (p2 if pref_rho is None else pref_rho))
    total = 0.0
    for i in range(terms):
        if direction == "forward":
            s = L ** i * nx
            total += L ** -(i + 1) * pref * phi(s, s, 0)
        else:
            s = nx / L ** (i + 1)
            total += L ** i * pref * phi(s, s, 0)
    return total


# --- controls ----------------------------------------------------------------


def test_control_evaluation():
    zero = ControlFunction.zero()
    assert zero.evaluate_norms(1.0, 2.0, 3.0) == 0.0
    pw = ControlFunction.power(0.5, 2.0)
    assert pw.evaluate_norms(1.0, 2.0, 0.0) == pytest.approx(0.5 * (1 + 4), rel=1e-15)
    # zero norms contribute nothing for any exponent
    neg = ControlFunction.power(1.0, -0.5)
    assert neg.evaluate_norms(4.0, 0.0, 0.0) == pytest.approx(0.5, rel=1e-15)


def test_tabulated_control_lookup():
    ctrl = ControlFunction.tabulated(edges=[0.1, 1.0, 10.0], values=[2.0, 5.0])
    assert ctrl.evaluate_norms(0.5, 0.0, 0.0) == 2.0
    assert ctrl.evaluate_norms(3.0, 0.5, 0.0) == 7.0


def test_tabulated_control_rejects_non_finite_values():
    # NaN marks a norm the table does not cover: as a value it would end every series at once
    for values in ([np.nan, 1.0], [1.0, np.inf]):
        with pytest.raises(ValueError, match="finite"):
            ControlFunction.tabulated([0.1, 1.0, 10.0], values)


def test_series_spec_validation():
    # a series is specified by its cell's params and scheme and the run-wide trunc_terms
    zero = ControlFunction.zero()
    with pytest.raises(FamilyError):
        phi_tilde_norms((RhoParams("A", 0.0, 0.0, 1.0), forward(3.0), zero), [1.0])
    with pytest.raises(DegenerateParameterError, match="^degenerate-parameter: alpha = 0$"):
        phi_tilde_norms((RhoParams("A", 0.0, 0.0, 0.0), forward(2.0), zero), [1.0])
    with pytest.raises(ValueError):
        phi_tilde_norms((RhoParams("A", 0.0, 0.0, 1.0), forward(2.0), zero), [1.0], 0)


# --- phi_tilde ---------------------------------------------------------------


def test_phi_tilde_zero_control():
    cell = (RhoParams("A", 0.0, 0.3, 1.0), forward(2.0), ControlFunction.zero())
    value, tail, _ = phi_tilde_norms(cell, [1.0])
    assert value[0] == 0.0 and tail == 0.0


def test_phi_tilde_spot_values():
    # theta=1, r=0.5, rho2=0, alpha=1, ||x||=1: 1/(2 - sqrt 2)
    control = ControlFunction.power(1.0, 0.5)
    value, tail, _ = phi_tilde_norms((RhoParams("A", 0.0, 0.0, 1.0), forward(2.0), control),
                                     [1.0])
    assert value[0] + tail == pytest.approx(1.7071067811865475, rel=1e-12)
    # rho2 = 0.5: brute-force series gives 4.552284749830793
    value2, tail2, _ = phi_tilde_norms((RhoParams("A", 0.0, 0.5, 1.0), forward(2.0), control),
                                       [1.0])
    oracle = brute_forward_dyadic(1.0, 0.5, 0.5, 1.0, 1.0)
    assert oracle == pytest.approx(4.552284749830793, rel=1e-12)
    assert value2[0] + tail2 == pytest.approx(oracle, rel=1e-9)


@pytest.mark.parametrize("r", [0.25, 0.5, 0.75])
@pytest.mark.parametrize("p2", [0.0, 0.3, 0.6, 0.9])
def test_phi_tilde_matches_c24_at_unit_alpha(r, p2):
    for alpha in (1.0, -1.0):
        cell = (RhoParams("A", 0.0, p2, alpha), forward(2.0), ControlFunction.power(1.0, r))
        value, tail, _ = phi_tilde_norms(cell, [1.5])
        expected = corollary_constant("c24", 1.0, r, p2) * 1.5 ** r
        assert value[0] + tail == pytest.approx(expected, rel=1e-9)


def test_phi_tilde_alpha_dependence():
    # away from |alpha| = 1 the series and the printed constant split
    cell = (RhoParams("A", 0.0, 0.5, 2.0), forward(2.0), ControlFunction.power(1.0, 0.5))
    value, tail, _ = phi_tilde_norms(cell, [1.0])
    oracle = brute_forward_dyadic(1.0, 0.5, 0.5, 2.0, 1.0)
    assert value[0] + tail == pytest.approx(oracle, rel=1e-9)
    assert value[0] + tail != pytest.approx(corollary_constant("c24", 1.0, 0.5, 0.5), rel=1e-3)


def test_phi_tilde_printed_display_forward_dyadic():
    # display form drops the /alpha in the third argument
    c = ControlFunction.power(1.0, 0.5)
    cell = (RhoParams("A", 0.0, 0.5, 2.0), forward(2.0), c)
    value, tail, _ = phi_tilde_norms(cell, [1.0], printed_display=True)
    assert value[0] + tail == pytest.approx(
        brute_forward_dyadic(1.0, 0.5, 0.5, 2.0, 1.0, display=True), rel=1e-9)
    # at |alpha| = 1 both forms agree
    cell = (RhoParams("A", 0.0, 0.5, 1.0), forward(2.0), c)
    (v1, t1, _), (v2, t2, _) = (phi_tilde_norms(cell, [1.0], printed_display=printed)
                                for printed in (False, True))
    assert v1[0] + t1 == pytest.approx(v2[0] + t2, rel=1e-12)


def test_phi_tilde_backward_dyadic_matches_telescoping():
    # derived constant 2 theta / ((2^r - 2)(1 - p2)(2 - p2)), not the printed c26
    cell = (RhoParams("A", 0.0, 0.0, 1.0), backward(2.0), ControlFunction.power(1.0, 2.0))
    value, tail, _ = phi_tilde_norms(cell, [1.0])
    assert value[0] + tail == pytest.approx(0.5, rel=1e-9)
    assert value[0] + tail == pytest.approx(brute_backward_dyadic(1.0, 2.0, 0.0, 1.0, 1.0),
                                            rel=1e-9)
    for r, p2 in ((1.5, 0.0), (2.0, 0.3), (3.0, 0.6)):
        cell = (RhoParams("A", 0.0, p2, 1.0), backward(2.0), ControlFunction.power(1.0, r))
        value, tail, _ = phi_tilde_norms(cell, [1.0])
        got = value[0] + tail
        derived = 2.0 / ((2.0 ** r - 2.0) * (1 - p2) * (2 - p2))
        assert got == pytest.approx(derived, rel=1e-9)
        assert got == pytest.approx(brute_backward_dyadic(1.0, r, p2, 1.0, 1.0), rel=1e-9)


@pytest.mark.parametrize("beta", [1.0, 2.0])
@pytest.mark.parametrize("r", [0.25, 0.5])
def test_phi_tilde_matches_c34(beta, r):
    scale = 1.0 + beta
    for p2 in (0.0, 0.3):
        cell = (RhoParams("B", 0.0, p2, 1.0, beta), forward(scale), ControlFunction.power(1.0, r))
        value, tail, _ = phi_tilde_norms(cell, [2.0])
        expected = corollary_constant("c34", 1.0, r, p2, beta=beta) * 2.0 ** r
        assert value[0] + tail == pytest.approx(expected, rel=1e-9)
        assert value[0] + tail == pytest.approx(
            brute_family_b(1.0, r, p2, scale, 2.0, "forward"), rel=1e-9)


def test_phi_tilde_matches_c36_contracting_scale():
    # backward scheme with |1 + beta| < 1 converges for r < 1
    beta = -1.5  # scale -0.5
    for r, p2 in ((0.5, 0.0), (0.25, 0.3)):
        cell = (RhoParams("B", 0.0, p2, 1.0, beta), backward(-0.5), ControlFunction.power(1.0, r))
        value, tail, _ = phi_tilde_norms(cell, [1.0])
        expected = corollary_constant("c36", 1.0, r, p2, beta=beta)
        assert value[0] + tail == pytest.approx(expected, rel=1e-9)
        assert value[0] + tail == pytest.approx(
            brute_family_b(1.0, r, p2, -0.5, 1.0, "backward"), rel=1e-9)


def test_phi_tilde_printed_display_family_b():
    # display prefactor swaps (1 - |rho2|) for (1 - |rho1|)
    cell = (RhoParams("B", 0.2, 0.5, 1.0, 1.0), forward(2.0), ControlFunction.power(1.0, 0.5))
    value, tail, _ = phi_tilde_norms(cell, [1.0], printed_display=True)
    assert value[0] + tail == pytest.approx(
        brute_family_b(1.0, 0.5, 0.5, 2.0, 1.0, "forward", pref_rho=0.2), rel=1e-9)


@settings(max_examples=40, deadline=None)
@given(c=st.floats(0.01, 100.0), r=st.floats(-0.5, 0.9))
def test_phi_tilde_homogeneity(c, r):
    cell = (RhoParams("A", 0.0, 0.3, 1.0), forward(2.0), ControlFunction.power(1.0, r))
    (base, scaled), tail, _ = phi_tilde_norms(cell, [1.0, c])
    base, scaled = base + tail, scaled + tail
    assert scaled == pytest.approx(c ** r * base, rel=1e-12)


def test_phi_tilde_partial_sums_monotone():
    # a tabulated control is summed term by term; its table covers all 64
    # forward-dyadic queries 2^i (i < 64), so every term is positive
    ctrl = ControlFunction.tabulated(edges=np.geomspace(0.5, 2.0 ** 64, 9), values=np.ones(8))
    values = []
    for n in (1, 2, 4, 8, 16, 64):
        value, _, terms = phi_tilde_norms((RhoParams("A", 0.0, 0.3, 1.0), forward(2.0), ctrl),
                                          [1.0], n)
        assert terms[0] == n and not terms[0] < n  # not coverage-truncated
        values.append(value[0])
    assert all(a <= b for a, b in zip(values, values[1:]))
    assert all(a < b for a, b in zip(values, values[1:]))


def test_power_phi_tilde_does_not_depend_on_trunc_terms():
    ctrl = ControlFunction.power(1.0, 0.5)
    pts = [phi_tilde_norms((RhoParams("A", 0.0, 0.3, 1.0), forward(2.0), ctrl), [1.3], n)
           for n in (1, 8, 64)]
    (v0, t0, _), (v1, t1, _), (v2, t2, _) = pts
    assert v0[0] + t0 == v1[0] + t1 == v2[0] + t2
    assert v0[0] == v1[0] == v2[0]
    assert all(tail == 0.0 for _, tail, _ in pts)


def series_term(cell, nx, i, printed_display):
    """Term i of a cell's series at each norm in nx."""
    return bounds._term_rows([(*cell, i)], nx, printed_display)[0]


def series_reference(cell, nx, printed_display, trunc_terms=bounds.DEFAULT_TRUNC_TERMS):
    """The term-by-term power series: ``trunc_terms`` terms summed left to right
    plus the geometric tail term_n / (1 - ratio)."""
    ratio = bounds._term_ratio(cell[1], cell[2].r)
    nx = np.asarray([nx], dtype=float)
    value = np.zeros(1)
    for i in range(trunc_terms):
        value = value + series_term(cell, nx, i, printed_display)
    tail = series_term(cell, nx, trunc_terms, printed_display) / (1.0 - ratio)
    return float(value[0] + tail[0])


@st.composite
def convergent_power_series(draw):
    family = draw(st.sampled_from("AB"))
    direction = draw(st.sampled_from(["forward", "backward"]))
    if family == "A":
        scale = draw(st.sampled_from([2.0, -2.0]))
    else:
        scale = draw(st.floats(0.25, 0.8) | st.floats(1.25, 4.0)) * draw(st.sampled_from([1, -1]))
    ratio = draw(st.floats(0.05, 0.95))
    # the r at which _term_ratio(scheme, r) == ratio
    log_ratio = np.log(ratio) / np.log(abs(scale))
    r = 1.0 + log_ratio if direction == "forward" else 1.0 - log_ratio
    params = RhoParams(family, draw(st.floats(0.0, 0.95)), draw(st.floats(0.0, 0.95)),
                       draw(st.floats(0.25, 4.0)) * draw(st.sampled_from([1, -1])),
                       scale - 1.0 if family == "B" else None)
    nx = draw(st.just(0.0) | st.floats(1e-3, 1e3))
    control = ControlFunction.power(draw(st.just(0.0) | st.floats(1e-3, 10.0)), r)
    return (params, Scheme(direction, scale), control), nx, draw(st.booleans())


@settings(max_examples=300, deadline=None)
@given(case=convergent_power_series())
def test_phi_tilde_power_closed_form_matches_term_sum(case):
    cell, nx, printed = case
    _, scheme, control = cell
    assert bounds._term_ratio(scheme, control.r) <= 0.95 + 1e-12
    if nx == 0.0 and control.r < 0:
        with pytest.raises(SingularPointError):
            phi_tilde_norms(cell, [nx], printed_display=printed)
        return
    value, tail, _ = phi_tilde_norms(cell, [nx], printed_display=printed)
    assert tail == 0.0
    assert value[0] == pytest.approx(series_reference(cell, nx, printed), rel=1e-12, abs=0.0)


def test_phi_tilde_power_degenerate_sums_are_positive_zero():
    params = RhoParams("A", 0.0, 0.3, 1.0)
    # theta = 0 with a divergent ratio (r = 2), and ||x|| = 0 with convergent
    # and divergent ratios
    for control, nx in ((ControlFunction.power(0.0, 2.0), 1.5),
                        (ControlFunction.power(1.0, 0.5), 0.0),
                        (ControlFunction.power(1.0, 2.0), 0.0)):
        value, tail, _ = phi_tilde_norms((params, forward(2.0), control), [nx])
        assert math.copysign(1.0, value[0]) == 1.0 and value[0] == 0.0
        assert math.copysign(1.0, value[0] + tail) == 1.0 and value[0] + tail == 0.0


def test_phi_tilde_errors():
    params = RhoParams("A", 0.0, 0.0, 1.0)
    with pytest.raises(DivergentSeriesError):
        phi_tilde_norms((params, forward(2.0), ControlFunction.power(1.0, 2.0)), [1.0])
    with pytest.raises(DivergentSeriesError):  # ratio exactly 1
        phi_tilde_norms((params, forward(2.0), ControlFunction.power(1.0, 1.0)), [1.0])
    with pytest.raises(SingularPointError):
        phi_tilde_norms((params, forward(2.0), ControlFunction.power(1.0, -0.5)), [0.0])
    bad = RhoParams("A", 0.0, 1.0, 1.0)
    with pytest.raises(InadmissibleError):
        phi_tilde_norms((bad, forward(2.0), ControlFunction.power(1.0, 0.5)), [1.0])


def test_phi_tilde_tabulated_coverage_stops():
    ctrl = ControlFunction.tabulated(edges=[0.1, 1.0, 8.0], values=[1.0, 1.0])
    value, tail, terms = phi_tilde_norms((RhoParams("A", 0.0, 0.0, 1.0), forward(2.0), ctrl),
                                         [1.0], 64)
    # queries at 2^i are covered for i <= 3 (2^3 = 8), then the sum stops
    assert terms[0] < 64  # coverage-truncated
    assert terms[0] == 4
    assert tail is None
    assert value[0] == pytest.approx(sum(2.0 ** -(i + 1) * 0.5 * 2.0 for i in range(4)), rel=1e-12)


def summed_reference(cell, nx, trunc_terms, printed_display):
    """The term-by-term sum of a tabulated or measured control: term i at every
    norm, scaled by one Python float power of L, added while terms 0 .. i are
    covered; the values and the term counts."""
    params, scheme, control = cell
    p2 = abs(params.rho2)
    L = abs(scheme.scale)
    forward = scheme.direction == "forward"
    printed = printed_display and forward
    value, terms = np.zeros(nx.size), np.zeros(nx.size, dtype=int)
    for i in range(trunc_terms):
        s, weight = ((L ** i) * nx, L ** -(i + 1)) if forward else (nx / L ** (i + 1), L ** i)
        if params.family == "A":
            third = s if printed else s / abs(params.alpha)
            term = weight / (2.0 - p2) * (control.evaluate_norms(s, s, 0.0) + 2.0 * p2 / (1.0 - p2)
                                          * control.evaluate_norms(0.0, 0.0, third))
        else:
            pref = 1.0 / (1.0 - (abs(params.rho1) if printed else p2))
            term = weight * pref * control.evaluate_norms(s, s, 0.0)
        covered = (terms == i) & ~np.isnan(term)
        value = np.where(covered, value + term, value)
        terms += covered
    return value, terms


@st.composite
def summed_series(draw):
    """A cell with a tabulated or measured control, query norms, trunc_terms, the display
    flag and a block budget."""
    family = draw(st.sampled_from("AB"))
    sign = draw(st.sampled_from([1, -1]))
    scale = sign * (2.0 if family == "A" else draw(st.floats(0.25, 0.8) | st.floats(1.25, 4.0)))
    scheme = Scheme(draw(st.sampled_from(["forward", "backward"])), scale)
    rho2 = draw(st.just(0.0) | st.floats(0.0, 0.95))
    alpha = draw(st.floats(0.25, 4.0)) * draw(st.sampled_from([1, -1]))
    trunc_terms, printed = draw(st.integers(1, 64)), draw(st.booleans())
    params = RhoParams(family, draw(st.floats(0.0, 0.95)), rho2, alpha,
                       scale - 1.0 if family == "B" else None)
    shells = draw(st.integers(1, 6))
    edges = np.geomspace(draw(st.floats(1e-3, 1.0)), draw(st.floats(1.5, 1e4)), shells + 1)
    values = np.array(draw(st.lists(st.just(0.0) | st.floats(0.0, 10.0),
                                    min_size=shells, max_size=shells)))
    if draw(st.booleans()):
        control = ControlFunction.tabulated(edges, values)
    else:
        control = ControlFunction.measured(MeasuredEnvelope(
            edges=edges, shell_max=values, cum_max=np.maximum.accumulate(values)))
    norms = draw(st.lists(st.just(0.0) | st.sampled_from(edges.tolist()) | st.floats(1e-4, 1e5),
                          min_size=1, max_size=12))
    budget = draw(st.sampled_from([1, 2, 7, 64, bounds.CHUNK_ELEMENTS]))
    return (params, scheme, control), np.array(norms), trunc_terms, printed, budget


@settings(max_examples=150, deadline=None)
@given(case=summed_series())
def test_term_matrix_sums_as_term_by_term(case):
    # every block budget gives the reference's values, term counts and coverage flags
    cell, nx, trunc_terms, printed, budget = case
    _, scheme, control = cell
    L, forward = abs(scheme.scale), scheme.direction == "forward"
    value, terms = summed_reference(cell, nx, trunc_terms, printed)
    with mock.patch.object(bounds, "CHUNK_ELEMENTS", budget):
        if (control.kind == "measured" and control.table()[0] > 0.0
                and (L < 1.0 if forward else L > 1.0) and (nx > 0.0).any()):
            # the arguments shrink below the first edge, where the control stays positive
            with pytest.raises(DivergentSeriesError):
                phi_tilde_norms(cell, nx, trunc_terms, printed)
            return
        got_value, tail, got_terms = phi_tilde_norms(cell, nx, trunc_terms, printed)
    got = zip(got_value.tolist(), got_terms.tolist())
    assert [(v, k, k < trunc_terms, tail) for v, k in got] == [
        (v, k, k < trunc_terms, None) for v, k in zip(value.tolist(), terms.tolist())]


@settings(max_examples=300, deadline=None)
@given(case=convergent_power_series(), zero=st.booleans())
def test_power_term_zero_is_the_three_argument_term_bit_for_bit(case, zero):
    # theta (e(s) + e(s)) and theta e(t) round as evaluate_norms(s, s, 0.0) and
    # evaluate_norms(0.0, 0.0, t); summed_reference over one term is that term plus +0.0
    (params, scheme, control), nx, printed = case
    control = ControlFunction.zero() if zero else control
    cell = (params, scheme, control)
    norms = np.array([0.0, nx])
    term, _ = summed_reference(cell, norms, 1, printed)
    assert series_term(cell, norms, 0, printed).tobytes() == term.tobytes()
    ratio = bounds._term_ratio(scheme, control.r)
    if control.r >= 0.0 and ratio < 1.0:
        value = phi_tilde_norms(cell, norms, printed_display=printed)[0]
        assert value.tobytes() == (term / (1.0 - ratio)).tobytes()


@settings(max_examples=200, deadline=None)
@given(direction=st.sampled_from(["forward", "backward"]),
       scale=st.sampled_from([0.5, -0.5, 1.5, -1.5, 3.0, -3.0]),
       floor=st.just(0.0) | st.floats(1e-3, 10.0),
       norms=st.lists(st.just(0.0), min_size=1, max_size=4)
       | st.lists(st.just(0.0) | st.floats(1e-3, 1e3), min_size=1, max_size=6))
def test_measured_divergence_rule_is_the_shrinking_argument_test(direction, scale, floor, norms):
    # the measured control is judged as the power law cum_max[0] ||x||^0; the test it
    # replaced: the series arguments shrink while the control is positive below its
    # first edge, at some ||x|| > 0
    old = ((abs(scale) > 1.0) == (direction == "backward") and floor > 0.0
           and any(n > 0.0 for n in norms))
    control = ControlFunction.measured(MeasuredEnvelope(
        edges=np.array([0.5, 1.0, 2.0]), shell_max=np.array([floor, floor + 1.0]),
        cum_max=np.array([floor, floor + 1.0])))
    cell = (RhoParams("B", 0.0, 0.3, 1.0, scale - 1.0), Scheme(direction, scale), control)
    if old:
        with pytest.raises(DivergentSeriesError):
            phi_tilde_norms(cell, norms, 16)
    else:
        assert len(phi_tilde_norms(cell, norms, 16)[0]) == len(norms)


def test_phi_tilde_overflowing_weight_is_numeric():
    # forward scale 0.5 weighs term i by 2^(i+1), past the float range at i = 1023;
    # the table covers every argument 2^-i down to 1e-320
    control = ControlFunction.tabulated([1e-320, 10.0], [1.0])
    with pytest.raises(NumericError):
        phi_tilde_norms((RhoParams("B", 0.0, 0.0, 1.0, -0.5), forward(0.5), control), [1.0], 1100)


def test_phi_tilde_measured_full_extension(scalar_model):
    env = measure_envelope(scalar_model, RhoParams("A", 0, 0, 1.0),
                           SamplePlan(seed=3, count=400, radius=2.0,
                                      exclude_origin_below=0.1))
    ctrl = ControlFunction.measured(env)
    value, _, terms = phi_tilde_norms((RhoParams("A", 0, 0, 1.0), forward(2.0), ctrl), [1.0])
    assert not terms[0] < 64  # not coverage-truncated
    assert terms[0] == 64
    assert value[0] == pytest.approx(1.0, rel=1e-9)


# --- closed-form constants ---------------------------------------------------


def test_corollary_constants():
    assert corollary_constant("c24", 1.0, 0.5, 0.0) == pytest.approx(1.7071067811865475, rel=1e-12)
    assert corollary_constant("c24", 0.0, 0.5, 0.3) == 0.0
    assert corollary_constant("c26", 1.0, 2.0, 0.0) == pytest.approx(8.0 / 6.0, rel=1e-12)
    assert corollary_constant("c34", 1.0, 0.5, 0.0, beta=1.0) == pytest.approx(
        3.414213562373095, rel=1e-12)
    assert corollary_constant("c36", 1.0, 0.5, 0.0, beta=-1.5) == pytest.approx(
        2.0 / (0.5 ** 0.5 - 0.5), rel=1e-12)


def test_corollary_out_of_regime():
    with pytest.raises(OutOfRegimeError, match="r < 1"):
        corollary_constant("c24", 1.0, 1.0, 0.0)
    with pytest.raises(OutOfRegimeError, match="r > 0"):
        corollary_constant("c26", 1.0, 0.0, 0.0)
    with pytest.raises(OutOfRegimeError, match="rho2"):
        corollary_constant("c24", 1.0, 0.5, 1.0)
    # printed r-range of the forward general-scale constant is unattainable:
    # for |1+beta| > 1 the denominator needs r < 1
    with pytest.raises(OutOfRegimeError):
        corollary_constant("c34", 1.0, 2.0, 0.0, beta=1.0)
    with pytest.raises(OutOfRegimeError):
        corollary_constant("c36", 1.0, 2.0, 0.0, beta=-1.5)
    with pytest.raises(ValueError):
        corollary_constant("c99", 1.0, 0.5, 0.0)


def test_c26_finite_where_its_printed_form_overflows():
    # 2^(1+r) theta / (2^r - 1) = 2 theta / (1 - 2^-r): about 2 theta for large r
    for r in (1022.0, 1023.5, 2000.0, 5000.0):
        assert corollary_constant("c26", 1.0, r, 0.0) == 1.0
        assert corollary_constant("c26", 2.5, r, 0.3) == pytest.approx(5.0 / (0.7 * 1.7),
                                                                         rel=1e-15)
    assert corollary_constant("c26", 0.0, 5000.0, 0.3) == 0.0


def test_overflowing_powers_are_inf_and_non_finite_results_numeric():
    # a power of r that overflows counts as +inf: out of regime, divergent
    for which, beta in (("c24", None), ("c34", 1.0)):
        with pytest.raises(OutOfRegimeError):
            corollary_constant(which, 1.0, 2000.0, 0.0, beta=beta)
    assert not convergence_predicate(forward(2.0), 2000.0)
    # a constant, phi~ value or empirical supremum that is still not finite is numeric
    with pytest.raises(NumericError):
        corollary_constant("c26", 1e308, 2.0, 0.0)  # 8e308 / 6
    cell = (RhoParams("A", 0.0, 0.0, 1.0), forward(2.0), ControlFunction.power(1.0, -400.0))
    with pytest.raises(NumericError):
        phi_tilde_norms(cell, [0.1])
    for r in (320.0, 400.0):  # the ratio overflows; the power underflows to 0
        with pytest.raises(NumericError):
            bounds.empirical_sup(r, [(0.1, 0.05)])
    assert bounds.empirical_sup(-400.0, [(0.1, 0.05)]) == (0.0, 1)


# --- convergence predicate ---------------------------------------------------


def test_convergence_predicate():
    v = convergence_predicate(forward(2.0), 0.5)
    assert v and v.ratio == pytest.approx(2.0 ** -0.5)
    assert not convergence_predicate(forward(2.0), 1.0)  # boundary diverges
    v2 = convergence_predicate(forward(2.0), 2.0)
    assert not v2 and v2.ratio == 2.0
    assert convergence_predicate(backward(2.0), 2.0)
    assert not convergence_predicate(backward(2.0), 0.5)
    assert convergence_predicate(backward(-0.5), 0.5)  # contracting backward, r < 1
    assert not convergence_predicate(backward(-0.5), 2.0)


# --- audit -------------------------------------------------------------------


def test_constant_tag():
    assert constant_tag("A", "forward") == "c24"
    assert constant_tag("A", "backward") == "c26"
    assert constant_tag("B", "forward") == "c34"
    assert constant_tag("B", "backward") == "c36"
    with pytest.raises(FamilyError):
        constant_tag("A", "sideways")


def test_audit_exact_additive():
    f = make_additive(dim=2, seed=8)
    params = RhoParams("A", 0.2, 0.3, 1.0)
    pts = draw_samples(f.space, SamplePlan(seed=5, count=30, radius=2.0,
                                           exclude_origin_below=0.1), arity=1)
    out = audit(f, params, forward(2.0), ControlFunction.power(1.0, 0.5), pts)
    assert out.which == "c24"
    assert out.empirical_sup <= 1e-10
    assert out.verdicts["empirical_le_derived"] is True
    assert out.verdicts["empirical_le_paper"] is True
    assert out.verdicts["derived_matches_paper"] == "consistent"


def test_audit_c24_regime_consistent():
    f = make_power(dim=2, theta=0.1, r=0.5, seed=14)
    params = RhoParams("A", 0.0, 0.5, 1.0)
    pts = draw_samples(f.space, SamplePlan(seed=6, count=30, radius=2.0,
                                           exclude_origin_below=0.1), arity=1)
    out = audit(f, params, forward(2.0), ControlFunction.power(1.0, 0.5), pts)
    assert out.paper_constant == pytest.approx(4.552284749830793, rel=1e-9)
    assert out.derived_constant == pytest.approx(4.552284749830793, rel=1e-9)
    assert out.verdicts["derived_matches_paper"] == "consistent"
    assert out.empirical_sup <= out.derived_constant


def test_audit_c26_regime_mismatched():
    f = make_power(dim=2, theta=0.1, r=2.0, seed=15)
    params = RhoParams("A", 0.0, 0.0, 1.0)
    pts = draw_samples(f.space, SamplePlan(seed=7, count=30, radius=2.0,
                                           exclude_origin_below=0.1), arity=1)
    out = audit(f, params, backward(2.0), ControlFunction.power(1.0, 2.0), pts)
    assert out.which == "c26"
    assert out.paper_constant == pytest.approx(8.0 / 6.0, abs=1e-6)
    assert out.derived_constant == pytest.approx(0.5, abs=1e-6)
    assert out.verdicts["derived_matches_paper"] == "mismatched"
    assert out.empirical_sup <= 0.5 + 1e-6
    assert out.verdicts["empirical_le_derived"] is True


def test_audit_divergent_constant():
    f = make_power(dim=1, theta=0.1, r=0.5, seed=16)
    params = RhoParams("A", 0.0, 0.0, 1.0)
    pts = draw_samples(f.space, SamplePlan(seed=8, count=5, radius=2.0,
                                           exclude_origin_below=0.1), arity=1)
    # backward scheme on a sublinear perturbation: series diverges, approximant
    # still converges pointwise is false here, so audit must fail loudly or
    # report the divergent constants; r=0.5 backward diverges in approximate
    out_err = None
    try:
        audit(f, params, backward(2.0), ControlFunction.power(1.0, 0.5), pts)
    except Exception as e:  # noqa: BLE001 - asserting the class below
        out_err = e
    from jensenlab.errors import NotConvergedError

    assert isinstance(out_err, NotConvergedError)


def test_audit_requires_power_control():
    f = make_additive(dim=1, seed=1)
    with pytest.raises(ValueError):
        audit(f, RhoParams("A", 0, 0, 1.0), forward(2.0), ControlFunction.zero(), [])
