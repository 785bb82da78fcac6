import numpy as np
import pytest

from conftest import make_additive, make_power

from jensenlab import (
    AdditiveCore,
    NormedSpace,
    Perturbation,
    TestFunction,
    additive_limit_check,
    approximate,
    backward,
    forward,
    uniqueness_crosscheck,
)
from jensenlab.direct_method import Scheme, _orbit_block, _scale_power
from jensenlab.errors import (
    DegenerateScaleError,
    NotConvergedError,
    NumericError,
    ScaleOverflowError,
)
from jensenlab.model import evaluate_many, quantize


# --- schemes -----------------------------------------------------------------


def test_scheme_validation():
    with pytest.raises(DegenerateScaleError):
        Scheme("forward", 1.0)
    with pytest.raises(DegenerateScaleError):
        Scheme("forward", -1.0)
    with pytest.raises(DegenerateScaleError):
        Scheme("backward", 0.0)
    with pytest.raises(ValueError):
        Scheme("sideways", 2.0)


def test_scheme_label_is_the_scheme_as_written():
    # every scheme runs as written, a contracting one too, and its label says so
    assert backward(0.5).label() == "backward scale=0.5"
    assert forward(-0.5).label() == "forward scale=-0.5"
    assert forward(2.0).label() == "forward scale=2"


def test_backward_small_scale_equals_forward_large():
    f = make_power(dim=1, theta=0.3, r=0.5, direction="radial")
    xs = np.array([[1.0 + 0j]])
    a, b = (_orbit_block(f, xs, s, [_scale_power(s, n) for n in range(6)])
            for s in (backward(0.5), forward(2.0)))
    for n in range(6):
        assert np.allclose(a[n, 0], b[n, 0], rtol=1e-12, atol=0)


# --- orbit terms -------------------------------------------------------------


def test_orbit_term_additive_invariant():
    f = make_additive(dim=2, seed=1)
    xs = np.array([[1.0 + 2j, -0.5]])
    base = evaluate_many(f, xs)[0]
    steps = (0, 1, 5, 20)
    terms = _orbit_block(f, xs, forward(2.0), [_scale_power(forward(2.0), n) for n in steps])
    for term in terms[:, 0]:
        assert (term == base).all()


def test_orbit_term_constant_offset_closed_form(scalar_model):
    # (2^10 x + c) / 2^10 = x + c / 1024, exactly (powers of two)
    t = _orbit_block(scalar_model, np.array([[3.0 + 0j]]), forward(2.0),
                     [_scale_power(forward(2.0), 10)])[0, 0]
    assert t[0] == 3.0 + 0.5 / 1024


def test_orbit_term_power_deviation():
    # ||term_n - x|| = theta ||x||^r lambda^{n(r-1)} = 2^{-n/2} at theta=1, r=0.5
    f = make_power(dim=1, theta=1.0, r=0.5)
    steps = (1, 4, 9)
    terms = _orbit_block(f, np.array([[1.0 + 0j]]), forward(2.0),
                         [_scale_power(forward(2.0), n) for n in steps])
    for n, term in zip(steps, terms[:, 0]):
        dev = f.space.norm(term - np.array([1.0]))
        assert dev == pytest.approx(2.0 ** (-n / 2), rel=1e-12)


def test_orbit_term_overflow():
    f = make_additive(dim=1, seed=0)
    xs = np.array([[1.0 + 0j]])
    with pytest.raises(ScaleOverflowError):
        _orbit_block(f, xs, forward(2.0), [_scale_power(forward(2.0), 1024)])  # 2^1024 overflows
    with pytest.raises(ScaleOverflowError):
        _orbit_block(f, xs, forward(4.0), [_scale_power(forward(4.0), 512)])  # 4^512 = 2^1024


def test_one_step_identity():
    # forward terms satisfy term_{n+1}(x) = term_n(lambda x) / lambda
    f = make_power(dim=2, theta=0.2, r=0.5, seed=7)
    x = np.array([0.75, -0.25j])
    steps = (0, 1, 3)
    for scale in (2.0, 3.0):
        s = forward(scale)
        lhs = _orbit_block(f, x[None], s, [_scale_power(s, n + 1) for n in steps])[:, 0]
        rhs = _orbit_block(f, scale * x[None], s, [_scale_power(s, n) for n in steps])[:, 0] / scale
        if scale == 2.0:
            assert (lhs == rhs).all()  # bitwise for dyadic scale
        else:
            assert np.allclose(lhs, rhs, rtol=1e-12, atol=1e-12)


# --- approximate -------------------------------------------------------------


def test_approximate_exact_additive():
    f = make_additive(dim=2, seed=2)
    x = [1.0, 2j]
    rep = approximate(f, x, forward(2.0), tol=1e-9)
    assert rep.converged
    assert rep.iterations == 1
    assert rep.residuals == [0.0]
    assert (rep.value == evaluate_many(f, [x])[0]).all()
    assert rep.tail_bound == 0.0


def test_approximate_constant_offset(scalar_model):
    rep = approximate(scalar_model, [1.0], forward(2.0), tol=1e-9)
    assert rep.converged
    assert abs(rep.value[0] - 1.0) <= 1e-9
    dev = scalar_model.space.norm(evaluate_many(scalar_model, [[1.0]])[0] - rep.value)
    assert dev == pytest.approx(0.5, abs=1e-9)
    assert len(rep.residuals) == rep.iterations
    assert rep.residuals[-1] <= 1e-9  # converged implies last residual <= tol


def test_approximate_divergent_power():
    # r = 2 with the forward scheme grows like 2^n; no convergence
    f = make_power(dim=1, theta=0.1, r=2.0)
    rep = approximate(f, [1.0], forward(2.0), tol=1e-9, max_n=60)
    assert not rep.converged
    assert rep.iterations == 60
    assert rep.residuals[-1] > rep.residuals[0]


def test_two_consecutive_hits_required():
    # orbit offsets d_n at x = 1: one small residual must not converge
    d = {0: 0.0, 1: 5e-10, 2: 0.5, 3: 0.5 + 4e-10, 4: 0.5 + 8e-10}
    space = NormedSpace(1)
    table = {}
    for n, dn in d.items():
        point = np.array([2.0 ** n], dtype=np.complex128)
        table[quantize(point)] = np.array([dn * 2.0 ** n], dtype=np.complex128)
    f = TestFunction(space, AdditiveCore.identity(1),
                     Perturbation.tabulated(table=table, default=np.array([0.0j])))
    rep = approximate(f, [1.0], forward(2.0), tol=1e-9, max_n=10)
    # residuals: 5e-10 (hit), ~0.5 (reset), 4e-10 (hit), 4e-10 (second hit)
    assert rep.converged
    assert rep.iterations == 4
    assert rep.residuals[0] <= 1e-9 < rep.residuals[1]


def test_approximate_numeric_error():
    f = make_power(dim=1, theta=1e300, r=2.0)
    with pytest.raises(NumericError):
        approximate(f, [1e80], forward(2.0), tol=1e-9, max_n=20)


def test_tail_bound_geometric():
    f = make_power(dim=1, theta=0.1, r=0.5, direction="radial")
    rep = approximate(f, [1.0], forward(2.0), tol=1e-9)
    assert rep.converged
    # limit is exactly the identity core; the tail estimate must cover the gap
    gap = abs(rep.value[0] - 1.0)
    assert rep.tail_bound is not None
    assert gap <= rep.tail_bound * (1 + 1e-6)


# --- derived checks ----------------------------------------------------------


def test_additive_limit_check(scalar_model):
    rng = np.random.default_rng(3)
    pairs = [(np.array([complex(a, b)]), np.array([complex(c, d)]))
             for a, b, c, d in rng.uniform(0.2, 1.8, size=(20, 4))]
    worst = additive_limit_check(scalar_model, forward(2.0), 1e-9, pairs)
    assert worst <= 1e-8  # A is exactly the identity in closed form

    f = make_power(dim=2, theta=0.1, r=0.5, seed=4)
    pts = rng.uniform(0.2, 1.8, size=(20, 2, 4))
    pairs2 = [(row[0, :2] + 1j * row[0, 2:], row[1, :2] + 1j * row[1, 2:]) for row in pts]
    assert additive_limit_check(f, forward(2.0), 1e-9, pairs2) <= 1e-8


def test_uniqueness_crosscheck(scalar_model):
    rng = np.random.default_rng(4)
    points = [np.array([complex(a, b)]) for a, b in rng.uniform(0.2, 1.8, size=(30, 2))]
    # forward lambda = 2 vs forward lambda = 3: both limits are the identity
    assert uniqueness_crosscheck(scalar_model, forward(2.0), forward(3.0),
                                 points, 1e-9) <= 2e-9

    f = make_power(dim=2, theta=0.1, r=0.5, seed=9)
    pts2 = [row[:2] + 1j * row[2:] for row in rng.uniform(0.2, 1.8, size=(30, 4))]
    assert uniqueness_crosscheck(f, forward(2.0), forward(3.0), pts2, 1e-9) <= 2e-8


def test_not_converged_propagates():
    f = make_power(dim=1, theta=0.1, r=2.0)
    with pytest.raises(NotConvergedError):
        uniqueness_crosscheck(f, forward(2.0), forward(3.0), [np.array([1.0])], 1e-9)
    with pytest.raises(NotConvergedError):
        additive_limit_check(f, forward(2.0), 1e-9,
                             [(np.array([1.0]), np.array([0.5]))])


def test_cross_checks_pass_max_n_to_the_pass():
    # r = 0.9 contracts each residual by 2^-0.1: about 264 steps to tol
    f = make_power(dim=2, theta=1.0, r=0.9, seed=5)
    tol = 1e-9
    x, y = np.array([0.6 + 0.8j, -0.5j]), np.array([1.0, 0.5j])
    with pytest.raises(NotConvergedError):
        uniqueness_crosscheck(f, forward(2.0), forward(3.0), [x, y], tol)
    with pytest.raises(NotConvergedError):
        additive_limit_check(f, forward(2.0), tol, [(x, y)])
    # each approximant is within about 13 tol of its exact limit, x itself
    assert uniqueness_crosscheck(f, forward(2.0), forward(3.0), [x, y], tol, max_n=400) <= 30 * tol
    assert additive_limit_check(f, forward(2.0), tol, [(x, y)], max_n=400) <= 45 * tol


def test_limit_homogeneity():
    # ||A(2x) - 2 A(x)|| stays within (|lambda| + 1) tol for converged reports
    f = make_power(dim=2, theta=0.1, r=0.5, seed=11)
    tol = 1e-9
    rng = np.random.default_rng(6)
    for _ in range(10):
        x = rng.uniform(0.3, 1.0, 2) + 1j * rng.uniform(0.3, 1.0, 2)
        a1 = approximate(f, 2.0 * x, forward(2.0), tol)
        a2 = approximate(f, x, forward(2.0), tol)
        assert a1.converged and a2.converged
        assert f.space.norm(a1.value - 2.0 * a2.value) <= 3 * tol


def test_residual_slope_matches_rate():
    # log2 residuals of a power perturbation decay with slope r - 1
    for r in (0.25, 0.5, 0.75):
        f = make_power(dim=2, theta=1.0, r=r, direction="radial")
        rep = approximate(f, [1.0, 1.0], forward(2.0), tol=1e-300, max_n=40)
        res = np.array(rep.residuals)
        ns = np.arange(1, len(res) + 1)
        slope = np.polyfit(ns, np.log2(res), 1)[0]
        assert slope == pytest.approx(r - 1, rel=0.10)
