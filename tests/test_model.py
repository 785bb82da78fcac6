import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import additivity_defect, make_additive, make_power

from jensenlab import (
    AdditiveCore,
    NormedSpace,
    Perturbation,
    TestFunction,
    build_experiment,
)
from jensenlab.errors import DimensionError
from jensenlab.model import _hash_words, _quantized, evaluate_many, quantize


def test_evaluate_identity_no_perturbation():
    sp = NormedSpace(2)
    f = TestFunction(sp, AdditiveCore.identity(2), Perturbation.none())
    out = evaluate_many(f, [[1.0, 2j]])[0]
    assert (out == np.array([1.0, 2j])).all()


def test_constant_offset_model(scalar_model):
    # tabulated p with default 0.5: f(x) = x + 0.5 at every queried point
    for x in (0.0, 1.0, -3.25, 2.5j, 100.0):
        assert evaluate_many(scalar_model, [[x]])[0][0] == x + 0.5


def test_power_magnitude_exact():
    # d=1, theta=1, r=0.5: ||f(4) - 4|| = 4^0.5 = 2
    f = make_power(dim=1, theta=1.0, r=0.5)
    dev = f.space.norm(evaluate_many(f, [[4.0]])[0] - np.array([4.0]))
    assert dev == pytest.approx(2.0, rel=1e-12)


def test_power_zero_at_origin():
    f = make_power(dim=2, theta=1.0, r=0.5)
    assert (evaluate_many(f, [[0, 0]])[0] == 0).all()


def test_additivity_defect_zero_for_additive():
    f = make_additive(dim=2, seed=3)
    rng = np.random.default_rng(5)
    for _ in range(200):
        x = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        y = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        assert additivity_defect(f, x, y) <= 1e-12


def test_additivity_defect_constant_offset(scalar_model):
    # (x+y+c) - (x+c) - (y+c) = -c
    assert additivity_defect(scalar_model, [0.7], [-2.3]) == pytest.approx(0.5, abs=1e-15)


def test_additivity_defect_power_radial():
    # p(x) = ||x||^0.5 along the radial direction; |p(2) - 2 p(1)| = |sqrt(2) - 2|
    f = make_power(dim=1, theta=1.0, r=0.5, direction="radial")
    got = additivity_defect(f, [1.0], [1.0])
    assert got == pytest.approx(0.5857864376269049, rel=1e-12)


def test_bounded_perturbation_bounds():
    eps = 0.25
    sp = NormedSpace(2)
    f = TestFunction(sp, AdditiveCore.identity(2), Perturbation.bounded(eps, direction_seed=9))
    rng = np.random.default_rng(1)
    for _ in range(300):
        x = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        y = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        assert sp.norm(f.perturbation.evaluate_many(sp, sp.as_vectors([x]))[0]) <= eps * (1 + 1e-12)
        # triangle inequality over the three perturbation evaluations
        assert additivity_defect(f, x, y) <= 3 * eps * (1 + 1e-12) + 1e-12


@settings(max_examples=60, deadline=None)
@given(data=st.data(), dim=st.integers(1, 3), seed=st.integers(0, 2 ** 64 - 1))
def test_radial_bounded_magnitude_is_the_last_word_of_the_full_row(data, dim, seed):
    # a radial direction hashes only the magnitude word 2 dim + 1 of the point's stream
    part = st.sampled_from([0.0, -0.0, 0.5]) | st.floats(-4.0, 4.0)
    xs = np.array([[complex(data.draw(part), data.draw(part)) for _ in range(dim)]
                   for _ in range(data.draw(st.integers(1, 6)))])
    p, space = Perturbation.bounded(0.3, direction_seed=seed, direction="radial"), NormedSpace(dim)
    word = _hash_words(seed, _quantized(xs, p.quant_step), 2 * dim + 1)[:, -1]
    n = space.norms(xs)
    n = np.where(n == 0.0, 1.0, n)[:, None]
    u = xs.real / n + 1j * (xs.imag / n)
    want = (0.3 * ((word >> np.uint64(11)) * 2.0 ** -53))[:, None] * u
    assert p.evaluate_many(space, xs).tobytes() == want.tobytes()


def test_real_linear_core_additive_not_complex_linear():
    f = make_additive(dim=2, seed=12, kind="real_linear")
    rng = np.random.default_rng(2)
    x = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    y = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    assert additivity_defect(f, x, y) <= 1e-12
    # generically not C-homogeneous: core(i x) != i core(x)
    cx = f.core.apply(1j * x)
    assert f.space.norm(cx - 1j * f.core.apply(x)) > 1e-6


def test_hashed_perturbation_deterministic():
    f = make_power(dim=2, theta=0.3, r=0.7, seed=21)
    x = np.array([0.5 + 0.25j, -1.5j])
    a = evaluate_many(f, [x])[0]
    b = evaluate_many(f, [x])[0]
    assert (a == b).all()
    # quantization keeps keys stable under sub-grid noise
    assert quantize(x) == quantize(x + 1e-9)


def test_force_zero_at_origin():
    sp = NormedSpace(1)
    pert = Perturbation.tabulated(default=np.array([0.5 + 0j]))
    f0 = TestFunction(sp, AdditiveCore.identity(1), pert, force_zero_at_origin=True)
    assert (evaluate_many(f0, [[0.0]])[0] == 0).all()
    f1 = TestFunction(sp, AdditiveCore.identity(1), pert, force_zero_at_origin=False)
    assert evaluate_many(f1, [[0.0]])[0][0] == 0.5


def test_dimension_mismatch():
    f = make_additive(dim=2)
    with pytest.raises(DimensionError):
        evaluate_many(f, [[1.0, 2.0, 3.0]])


def test_load_test_function_json():
    doc = {
        "space": {"dim": 1, "norm": "l2"},
        "function": {
            "core": {"kind": "complex_linear", "matrix": [[[2.0, 0.0]]]},
            "perturbation": {"kind": "tabulated",
                             "table": [{"point": [[1.0, 0.0]], "value": [[0.25, 0.0]]}],
                             "default": [[0.0, 0.0]]},
        },
    }
    f = build_experiment(doc).f
    assert evaluate_many(f, [[1.0]])[0][0] == 2.0 + 0.25  # matrix doubles, table adds 0.25
    assert evaluate_many(f, [[3.0]])[0][0] == 6.0         # off-table point takes the default


def test_load_power_json_matches_manual():
    doc = {
        "space": {"dim": 2, "norm": "linf"},
        "function": {"perturbation": {"kind": "power", "theta": 0.4, "r": 1.5,
                                      "direction": "hashed", "direction_seed": 17}},
    }
    f = build_experiment(doc).f
    g = TestFunction(NormedSpace(2, "linf"), AdditiveCore.identity(2),
                     Perturbation.power(0.4, 1.5, direction_seed=17))
    x = np.array([1.25 - 0.5j, 0.75j])
    assert (evaluate_many(f, [x])[0] == evaluate_many(g, [x])[0]).all()
