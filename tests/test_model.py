import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import additivity_defect, make_additive, make_power

from jensenlab import (
    AdditiveCore,
    NormedSpace,
    Perturbation,
    SamplePlan,
    TestFunction,
    build_experiment,
    draw_samples,
)
from jensenlab.errors import DimensionError
from jensenlab.model import _quantized, evaluate_many, quantize
from jensenlab.space import _hash_words, _word_vectors


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


@settings(max_examples=200, deadline=None)
@given(data=st.data(), dim=st.integers(1, 3), norm=st.sampled_from(["l1", "l2", "linf"]),
       r=st.sampled_from([2.0, 1.0, 0.5, 0.0, -0.5, -2.0]), seed=st.integers(0, 2 ** 64 - 1))
def test_hashed_perturbation_magnitude_at_every_dim_and_norm(data, dim, norm, r, seed):
    # the hashed direction has unit norm to within rounding, so ||p(x)|| = theta ||x||^r to
    # within 4 ulp for a power law and <= epsilon for a bounded one, and no part of a power
    # perturbation at x != 0 is zero
    part = st.sampled_from([0.0, -0.0, 1e-30, 1.0]) | st.floats(-1e30, 1e30)
    xs = np.array([[complex(data.draw(part), data.draw(part)) for _ in range(dim)]
                   for _ in range(data.draw(st.integers(1, 6)))])
    space = NormedSpace(dim, norm)
    nx = space.norms(xs)
    assert space.norms(Perturbation.bounded(0.3, direction_seed=seed).evaluate_many(
        space, xs)).max() <= 0.3
    live = nx > 1e-30  # the magnitude 0.3 ||x||^r and each part of p(x) stay normal
    p = Perturbation.power(0.3, r, direction_seed=seed).evaluate_many(space, xs[live])
    want = 0.3 * nx[live] ** r
    assert (np.abs(space.norms(p) - want) <= 4 * np.spacing(want)).all()
    assert (p.view(np.float64) != 0.0).all()


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
    # each part written into the complex result, so that a zero part keeps its sign
    magnitude = (0.3 * ((word >> np.uint64(11)) * 2.0 ** -53))[:, None]
    want = np.empty_like(xs)
    want.real, want.imag = xs.real / n * magnitude, xs.imag / n * magnitude
    assert p.evaluate_many(space, xs).tobytes() == want.tobytes()


def test_radial_direction_keeps_the_sign_of_a_zero_part():
    # x / ||x|| and the magnitude are written part by part: a join re + 1j * im, or a
    # complex product with the magnitude, made every zero part +0.0
    x = np.array([[complex(-0.0, 1.0), complex(2.0, -0.0)]])
    p = Perturbation.power(2.0, 0.0, direction="radial")
    parts = p.evaluate_many(NormedSpace(2, "linf"), x).view(np.float64)[0]
    assert parts.tolist() == [0.0, 1.0, 2.0, 0.0]
    assert np.signbit(parts).tolist() == [True, False, False, True]


def test_bounded_hashed_perturbation_takes_one_norm(monkeypatch):
    # ||x|| scales a power magnitude or a radial direction; a bounded hashed perturbation
    # reads only the norm that normalizes its hashed vector
    calls = []
    norms = NormedSpace.norms
    monkeypatch.setattr(NormedSpace, "norms", lambda self, vs: calls.append(1) or norms(self, vs))
    Perturbation.bounded(0.3, direction_seed=7).evaluate_many(NormedSpace(2), np.ones((5, 2)) + 0j)
    assert len(calls) == 1


def test_real_linear_core_additive_not_complex_linear():
    f = make_additive(dim=2, seed=12, kind="real_linear")
    rng = np.random.default_rng(2)
    x = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    y = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    assert additivity_defect(f, x, y) <= 1e-12
    # generically not C-homogeneous: core(i x) != i core(x)
    cx = f.core.apply(1j * x)
    assert f.space.norm(cx - 1j * f.core.apply(x)) > 1e-6


#: AdditiveCore.random(2, 4, kind).matrix as hex: a complex matrix's (re, im) entries, or
#: a real one's; exact, since a part is exact and 1 / sqrt(4) is a power of two
PINNED_CORES = {
    "complex_linear": [[("0x1.c4a8b2d593f62p-2", "-0x1.bfa34f860e3a2p-2"),
                        ("0x1.da8642ffd5e84p-3", "-0x1.ac92464fb6b50p-5")],
                       [("-0x1.fe7c4320c2932p-2", "0x1.db5ef26b1e4d4p-3"),
                        ("0x1.f4c4b1f20a888p-4", "0x1.972c331578694p-3")]],
    "real_linear": [["0x1.c4a8b2d593f62p-2", "-0x1.bfa34f860e3a2p-2",
                     "0x1.da8642ffd5e84p-3", "-0x1.ac92464fb6b50p-5"],
                    ["-0x1.fe7c4320c2932p-2", "0x1.db5ef26b1e4d4p-3",
                     "0x1.f4c4b1f20a888p-4", "0x1.972c331578694p-3"],
                    ["-0x1.a00cec03ce426p-2", "-0x1.d293e4c921918p-4",
                     "-0x1.70dc62bdba38cp-3", "-0x1.ea5d86913f46cp-3"],
                    ["0x1.25c5995b29424p-3", "0x1.a0ca05b0160d0p-5",
                     "-0x1.691093cd7a4f8p-4", "0x1.9b1011c6d2da8p-4"]],
}


@pytest.mark.parametrize("kind", sorted(PINNED_CORES))
def test_random_core_pinned(kind):
    # A change here moves every report of a random core: make it on purpose
    m = AdditiveCore.random(2, 4, kind).matrix
    if kind == "complex_linear":
        want = [[complex(float.fromhex(re), float.fromhex(im)) for re, im in row]
                for row in PINNED_CORES[kind]]
    else:
        want = [[float.fromhex(x) for x in row] for row in PINNED_CORES[kind]]
    assert m.dtype == np.asarray(want).dtype and m.tobytes() == np.array(want).tobytes()


@pytest.mark.parametrize("seed", [0, 4, 2 ** 64 - 1])
def test_a_core_and_a_plan_of_one_seed_share_no_words(seed):
    # a plan's vector i reads the words of (seed, i) and a core's row i those of (seed, -1 - i)
    dim, count = 2, 500
    plan_words = _hash_words(seed, np.arange(3 * count)[:, None], 2 * dim + 1)
    core_words = _hash_words(seed, -1 - np.arange(2 * dim)[:, None], 2 * dim)
    assert not set(plan_words.ravel().tolist()) & set(core_words.ravel().tolist())
    # ... which are the words they read: the core's rows are theirs, bit for bit (1 / sqrt(4)
    # is exact), and each sample point (an envelope's triples too) is parallel to its direction
    core = AdditiveCore.random(dim, seed, "real_linear").matrix
    assert (core * 2.0).tobytes() == _word_vectors(core_words.T, dim).view(np.float64).tobytes()
    points = draw_samples(NormedSpace(dim), SamplePlan(seed, count, 2.0, 0.1), arity=3)
    ratio = points.reshape(-1, dim) / _word_vectors(plan_words.T, dim)
    assert np.allclose(ratio, ratio[:, :1], rtol=1e-14, atol=0.0)
    assert (ratio.real > 0.0).all()


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
