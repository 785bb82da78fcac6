"""Batch invariance: every batched function gives each row exactly (bit for
bit) what the same function gives on that row alone, a batch of one, whatever
else is in the batch."""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jensenlab import (
    AdditiveCore,
    ControlFunction,
    NormedSpace,
    Perturbation,
    RhoParams,
    SamplePlan,
    TestFunction,
    approximate,
    approximate_points,
    draw_samples,
    forward,
    measure_envelope,
)
from jensenlab import direct_method
from jensenlab.bounds import phi_tilde_cells
from jensenlab.direct_method import Scheme, _orbit_block, _scale_power
from jensenlab.errors import DegenerateParameterError, JensenLabError, NotConvergedError
from jensenlab.inequality import defect_many
from jensenlab.model import _quantized, evaluate_many, quantize
from jensenlab.space import _hash_words

PERTURBATIONS = {
    "none": lambda dim: Perturbation.none(),
    "bounded-hashed": lambda dim: Perturbation.bounded(0.3, direction_seed=7),
    "bounded-radial": lambda dim: Perturbation.bounded(0.3, direction_seed=7, direction="radial"),
    "power-hashed": lambda dim: Perturbation.power(0.2, 0.5, direction_seed=3),
    "power-radial": lambda dim: Perturbation.power(0.2, 0.5, direction="radial"),
    "power-r0": lambda dim: Perturbation.power(0.2, 0.0, direction_seed=3),
    "tabulated": lambda dim: Perturbation.tabulated(
        table={quantize(np.full(dim, 0.5 + 0j)): np.full(dim, 2.0 - 1j)},
        default=np.full(dim, 0.25j)),
}


def sparse_core(dim):
    """A real_linear core with planted 0.0, -0.0 and 1.0 entries, whose products the
    core's fold skips or passes through unmultiplied."""
    m = AdditiveCore.random(dim, 4, "real_linear").matrix.copy()
    m[::2, 1::2], m[1::2, ::2] = 0.0, -0.0
    np.fill_diagonal(m, 1.0)
    return AdditiveCore("real_linear", m)


CORES = {
    "complex_linear": lambda dim: AdditiveCore.random(dim, 4, "complex_linear"),
    "real_linear": lambda dim: AdditiveCore.random(dim, 4, "real_linear"),
    "identity": AdditiveCore.identity,
    "sparse": sparse_core,
}

#: 0.0 gives rows with a zero output, whose batch the core's fold sums again in full
coords = st.sampled_from([0.0, 0.5, -1.0]) | st.floats(-4.0, 4.0, allow_nan=False)


@st.composite
def batches(draw, dim):
    n = draw(st.integers(1, 12))
    parts = draw(st.lists(st.tuples(coords, coords), min_size=n * dim, max_size=n * dim))
    return np.array([complex(a, b) for a, b in parts]).reshape(n, dim)


@settings(max_examples=60, deadline=None)
@given(data=st.data(), dim=st.integers(1, 3), kind=st.sampled_from(sorted(PERTURBATIONS)),
       core=st.sampled_from(sorted(CORES)),
       norm=st.sampled_from(["l1", "l2", "linf"]), forced=st.booleans())
def test_evaluate_many_rows_equal_a_batch_of_one(data, dim, kind, core, norm, forced):
    f = TestFunction(NormedSpace(dim, norm), CORES[core](dim),
                     PERTURBATIONS[kind](dim), force_zero_at_origin=forced)
    xs = data.draw(batches(dim))
    batch = evaluate_many(f, xs)
    for i, x in enumerate(xs):
        assert batch[i].tobytes() == evaluate_many(f, [x])[0].tobytes()
    order = data.draw(st.permutations(range(len(xs))))
    assert evaluate_many(f, xs[order]).tobytes() == batch[order].tobytes()


def test_hash_words_pinned():
    # A change here changes every hashed perturbation: make it on purpose.
    keys = _quantized(np.array([[0.5 + 0.25j, -1.5j]]), 2.0 ** -20)
    assert keys.tolist() == [[524288, 0, 262144, -1572864]]
    words = _hash_words(5, keys, 5)
    assert words.tolist() == [[
        16808093379816816940, 7236057026604705250, 386679925975467192,
        12703754952284879509, 10811273818751339629]]
    # words 1, 2 give the real parts and 3, 4 the imaginary parts; the norm reads np.abs of
    # complex parts, whose bits depend on the CPU's numpy loops: equal to within rounding
    f = TestFunction(NormedSpace(2), AdditiveCore.identity(2), Perturbation.power(1.0, 1.0, 5))
    x = np.array([0.5 + 0.25j, -1.5j])
    p = evaluate_many(f, [x])[0] - x
    want = [0.985849966982415 - 1.1485791279369522j, -0.2583080311917655 + 0.45237461300364323j]
    assert np.allclose(p, want, rtol=0.0, atol=1e-14)


def reference_hash_words(seed, keys, count, first=1):
    """``_hash_words`` as it was written before it updated its state in place."""
    def mix(z):
        z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        return z ^ (z >> np.uint64(31))
    gamma = np.uint64(0x9E3779B97F4A7C15)
    state = np.full(len(keys), seed & (2 ** 64 - 1), dtype=np.uint64)
    for k in keys.view(np.uint64).T:
        state = mix((state + gamma) ^ k)
    return mix(state[:, None] + gamma * np.arange(first, count + 1, dtype=np.uint64))


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 64 - 1), first=st.integers(1, 5), extra=st.integers(0, 5),
       keys=st.lists(st.lists(st.integers(-2 ** 63, 2 ** 63 - 1), min_size=4, max_size=4),
                     min_size=1, max_size=6))
def test_hash_words_match_the_out_of_place_formula(seed, first, extra, keys):
    keys = np.array(keys, dtype=np.int64)
    words = _hash_words(seed, keys, first + extra, first)
    assert words.tobytes() == reference_hash_words(seed, keys, first + extra, first).tobytes()


@pytest.mark.parametrize("core", sorted(CORES))
@pytest.mark.parametrize("kind", sorted(PERTURBATIONS))
def test_the_kernel_leaves_its_inputs_unchanged(kind, core):
    rng = np.random.default_rng(3)
    xs = rng.standard_normal((40, 2)) + 1j * rng.standard_normal((40, 2))
    xs[::7], xs[1::7, 0] = 0.0, -0.0  # origin rows and zero parts: fallback batches
    before = xs.tobytes()
    f = TestFunction(NormedSpace(2), CORES[core](2), PERTURBATIONS[kind](2))
    evaluate_many(f, xs)
    assert xs.tobytes() == before
    keys = _quantized(xs, 2.0 ** -20)
    assert xs.tobytes() == before
    kept = keys.tobytes()
    _hash_words(5, keys, 5)
    assert keys.tobytes() == kept


def _same_report(a, b):
    return (a.point.tobytes() == b.point.tobytes() and a.value.tobytes() == b.value.tobytes()
            and a.iterations == b.iterations and a.residuals == b.residuals
            and a.tail_bound == b.tail_bound and a.converged == b.converged)


@settings(max_examples=25, deadline=None)
@given(data=st.data(), seed=st.integers(0, 50), r=st.sampled_from([0.25, 0.5, 2.0]),
       direction=st.sampled_from(["forward", "backward"]))
def test_approximate_points_match_approximate(data, seed, r, direction):
    f = TestFunction(NormedSpace(2), AdditiveCore.random(2, seed, "real_linear"),
                     Perturbation.power(0.1, r, direction_seed=seed))
    scheme = Scheme(direction, 2.0)
    pts = draw_samples(f.space, SamplePlan(seed, 12, 2.0, 0.1), arity=1)
    alone = [approximate(f, x, scheme, 1e-9, max_n=60) for x in pts]
    order = data.draw(st.permutations(range(len(pts))))
    subset = data.draw(st.lists(st.sampled_from(order), min_size=1, max_size=len(pts)))
    for picked in (order, subset):
        xs = pts[picked]
        out = approximate_points(f, xs, scheme, 1e-9, max_n=60, strict=False)
        batch = [out.report(j, x) for j, x in enumerate(xs)]
        assert all(_same_report(rep, alone[i]) for rep, i in zip(batch, picked))
        assert len(out.iterations) == len(batch) == len(picked)
    out = approximate_points(f, pts, scheme, 1e-9, max_n=60, strict=False)
    assert "residuals" not in vars(out)  # split out only when read
    assert out.iterations.tolist() == [rep.iterations for rep in alone]
    for dev, value, converged, x in zip(out.deviations.tolist(), out.values, out.converged, pts):
        if converged:
            assert dev == f.space.norm(evaluate_many(f, [x])[0] - value)
        else:  # was None; NaN in a float column
            assert math.isnan(dev)


def _per_point_loop(f, pts, scheme, tol, max_n):
    """The reference: one approximation per point, in order, strict."""
    for i, x in enumerate(pts):
        rep = approximate(f, x, scheme, tol, max_n=max_n)
        if not rep.converged:
            raise NotConvergedError(f"not-converged: point {i} did not converge within "
                                    f"max_n under {scheme.label()}")
        yield rep


def _outcome(run):
    done = []
    try:
        for rep in run():
            done.append(rep)
    except JensenLabError as e:
        return done, (type(e), str(e))
    return done, None


def _pass_outcome(f, pts, scheme, tol, max_n, strict=True, rows=None):
    """The (report, deviation) of each point an approximation pass gets through
    before its first failure, and that failure (None without one), at a row
    budget: the pass raises the failure, and its columns (``_orbits``, which keeps
    every point's error) give the points before it."""
    xs = f.space.as_vectors(pts)
    with mock.patch.object(direct_method, "ROWS", rows or direct_method.ROWS):
        try:
            approximate_points(f, xs, scheme, tol, max_n=max_n, strict=strict)
            err = None
        except JensenLabError as e:
            err = (type(e), str(e))
        out = direct_method._orbits(f, xs, scheme, tol, max_n)
    done, fail = out.failure(scheme, strict)
    assert err == (None if fail is None else (type(fail), str(fail)))
    return [(out.report(i, xs[i]), out.deviations[i] if out.converged[i] else None)
            for i in range(done)], err


#: On C^1 with the identity core: 1 converges at once (its orbit has no
#: offsets), 3 never converges (offsets alternate), 5 overflows at term 2,
#: 7 has a non-finite f(x).
_MIXED_TABLE = {
    **{quantize(np.array([3.0 * 2 ** n + 0j])): np.array([(-1) ** n * 2.0 ** n + 0j])
       for n in range(1, 9)},
    quantize(np.array([10.0 + 0j])): np.array([1.0 + 0j]),
    quantize(np.array([20.0 + 0j])): np.array([np.inf + 0j]),
    quantize(np.array([7.0 + 0j])): np.array([np.nan + 0j]),
}


@settings(max_examples=40, deadline=None)
@given(kinds=st.lists(st.sampled_from([1.0, 3.0, 5.0, 7.0]), min_size=1, max_size=8),
       max_n=st.integers(1, 6))
def test_mixed_batch_fails_where_the_loop_fails(kinds, max_n):
    f = TestFunction(NormedSpace(1), AdditiveCore.identity(1),
                     Perturbation.tabulated(table=_MIXED_TABLE, default=np.array([0j])))
    pts = [np.array([complex(k)]) for k in kinds]
    scheme = forward(2.0)
    want_done, want_err = _outcome(lambda: _per_point_loop(f, pts, scheme, 1e-9, max_n))
    got, got_err = _pass_outcome(f, pts, scheme, 1e-9, max_n)
    got_done = [rep for rep, _ in got]
    assert got_err == want_err
    assert len(got_done) == len(want_done)
    assert all(_same_report(a, b) for a, b in zip(got_done, want_done))


#: (function, scheme, point kinds) whose orbits mix every outcome of a point: the
#: table above under scale 2 (converging, max_n-starved, a non-finite term, a
#: non-finite f(x)), and a radial power perturbation under scale 2^300, where 0
#: converges at once, 1 runs into the scale cap at term 4 (or is starved first)
#: and 2^40 overflows to a non-finite term 3.
MIXED_SETUPS = {
    "table": (lambda: TestFunction(NormedSpace(1), AdditiveCore.identity(1), Perturbation.tabulated(
        table=_MIXED_TABLE, default=np.array([0j]))), forward(2.0), [1.0, 3.0, 5.0, 7.0]),
    "scale-cap": (lambda: TestFunction(NormedSpace(1), AdditiveCore.identity(1), Perturbation.power(
        1.0, 1.1, direction="radial")), forward(2.0 ** 300), [0.0, 1.0, 2.0 ** 40]),
}


@settings(max_examples=80, deadline=None)
@given(data=st.data(), setup=st.sampled_from(sorted(MIXED_SETUPS)), max_n=st.integers(1, 6),
       strict=st.booleans())
def test_columnar_pass_equals_approximate_alone(data, setup, max_n, strict):
    make, scheme, kinds = MIXED_SETUPS[setup]
    f = make()
    xs = np.array([[complex(k)] for k in data.draw(st.lists(st.sampled_from(kinds), min_size=1,
                                                            max_size=8))])
    # the reference: approximate() on each point alone, and the first failure in input order
    alone, want_err = [], None
    for i, x in enumerate(xs):
        try:
            rep = approximate(f, x, scheme, 1e-9, max_n=max_n)
        except JensenLabError as e:
            alone.append(str(e))
            want_err = want_err or (type(e), str(e))
            continue
        alone.append(rep)
        if strict and not rep.converged:
            want_err = want_err or (NotConvergedError, f"not-converged: point {i} did not "
                                    f"converge within max_n under {scheme.label()}")
    try:
        out = approximate_points(f, xs, scheme, 1e-9, max_n=max_n, strict=strict)
        got_err = None
    except JensenLabError as e:  # every point's columns, with the errors kept
        got_err, out = (type(e), str(e)), direct_method._orbits(f, xs, scheme, 1e-9, max_n)
    assert got_err == want_err
    for i, (x, rep) in enumerate(zip(xs, alone)):
        if isinstance(rep, str):
            assert str(out.errors[i]) == rep and not out.converged[i]
            continue
        assert i not in out.errors
        assert out.values[i].tobytes() == rep.value.tobytes()
        assert (out.iterations[i], out.converged[i]) == (rep.iterations, rep.converged)
        if rep.converged:
            assert out.deviations[i] == f.space.norm(evaluate_many(f, [x])[0] - rep.value)
        else:
            assert math.isnan(out.deviations[i])


@settings(max_examples=30, deadline=None)
@given(kinds=st.lists(st.sampled_from([0.0, 1.0, 2.0 ** 40]), min_size=1, max_size=6),
       max_n=st.integers(2, 6))
def test_scale_overflow_in_a_batch_fails_where_the_loop_fails(kinds, max_n):
    # scale 2^300: 0 converges at once, 1 runs into the scale cap at term 4,
    # 2^40 overflows to a non-finite term 3 first
    f = TestFunction(NormedSpace(1), AdditiveCore.identity(1),
                     Perturbation.power(1.0, 1.1, direction="radial"))
    pts = [np.array([complex(k)]) for k in kinds]
    scheme = forward(2.0 ** 300)
    want = _outcome(lambda: _per_point_loop(f, pts, scheme, 1e-9, max_n))
    got = _pass_outcome(f, pts, scheme, 1e-9, max_n)
    assert got[1] == want[1]
    assert len(got[0]) == len(want[0])


def _flat_outcome(f, pts, scheme, tol, max_n, strict, rows):
    """``_pass_outcome`` with each report as a tuple of its fields."""
    done, err = _pass_outcome(f, pts, scheme, tol, max_n, strict, rows)
    return [(rep.point.tobytes(), rep.value.tobytes(), rep.iterations, rep.residuals,
             rep.tail_bound, rep.converged, dev) for rep, dev in done], err


@settings(max_examples=60, deadline=None)
@given(dim=st.integers(1, 2), r=st.sampled_from([-0.5, 0.5, 2.0]),
       direction=st.sampled_from(["hashed", "radial"]),
       scheme=st.sampled_from([Scheme("forward", 2.0), Scheme("backward", 2.0),
                               Scheme("backward", 1e10)]),
       sizes=st.lists(st.sampled_from([0.0, 1e-300, 1e-3, 1.0, 7.5, 1e5]), min_size=1,
                      max_size=8),
       max_n=st.integers(1, 60), tol=st.sampled_from([1e-9, 1e-3]), strict=st.booleans(),
       rows=st.sampled_from([None, 3, 7, 16, 40]))
def test_blocked_orbits_equal_one_step_lockstep(dim, r, direction, scheme, sizes, max_n, tol,
                                                 strict, rows):
    # ROWS = 1 is one orbit step per evaluate_many call; rows None is the module's own row
    # budget, which puts these orbits in one block. The batches mix points that converge,
    # run out of max_n, overflow (r = 0.5 under backward 1e10 runs into the scale cap at
    # term 31), reach 0 with r < 0 (a NaN term), or start at 0 with r < 0 (a NaN f(x)).
    f = TestFunction(NormedSpace(dim), AdditiveCore.random(dim, 2, "real_linear"),
                     Perturbation.power(0.1, r, direction_seed=5, direction=direction))
    unit = np.array([0.6 + 0.8j, -0.5j][:dim])
    pts = [s * unit for s in sizes]
    want = _flat_outcome(f, pts, scheme, tol, max_n, strict, 1)
    assert _flat_outcome(f, pts, scheme, tol, max_n, strict, rows) == want


#: On C^1 with the identity core under scale 2, offsets c_n of term_n = x + c_n:
#: 1 has none (a zero residual at step 1); 13 has 1, 2e-10, 1e-10, 0 (a second
#: residual <= 1e-9 at step 3, the first in an earlier block); 17 has 1, 1/2, 1/4,
#: 1/8, 0, 0 (a zero residual at step 5); 3 alternates 3 -/+ 1 and never stops.
_STOPS_TABLE = {
    **{quantize(np.array([3.0 * 2 ** n + 0j])): np.array([(-1) ** n * 2.0 ** n + 0j])
       for n in range(1, 12)},
    **{quantize(np.array([v + 0j])): np.array([p + 0j])
       for v, p in [(13.0, 1.0), (26.0, 4e-10), (52.0, 4e-10),
                    (17.0, 1.0), (34.0, 1.0), (68.0, 1.0), (136.0, 1.0)]},
    quantize(np.array([7.0 + 0j])): np.array([np.nan + 0j]),
}


def test_compact_pass_stops_in_three_blocks_and_runs_out_of_max_n():
    # ROWS = 3: f(x) of 5 points alone, then one step a block while 2 or more points
    # run, so 1, 13 and 17 stop in three blocks (13's hit carried over a block in
    # which none stops); then 3 alone in blocks of 3 and 2 steps, to max_n = 10
    f = TestFunction(NormedSpace(1), AdditiveCore.identity(1),
                     Perturbation.tabulated(table=_STOPS_TABLE, default=np.array([0j])))
    pts = [np.array([complex(v)]) for v in (1.0, 13.0, 17.0, 3.0, 7.0)]
    scheme, xs = forward(2.0), f.space.as_vectors(pts)
    with mock.patch.object(direct_method, "ROWS", 3):
        out = direct_method._orbits(f, xs, scheme, 1e-9, 10)
    assert [len(r) for _, r, _ in out.steps] == [1, 1, 1, 1, 1, 3, 2]
    assert out.iterations.tolist() == [1, 3, 5, 10, 0]
    assert out.converged.tolist() == [True, True, True, False, False]
    assert {i: str(e) for i, e in out.errors.items()} == {4: "numeric: f(x) is not finite"}
    assert out.values[3, 0] == 3.0 + (-1) ** 10 and np.isnan(out.values[4, 0])
    for strict in (False, True):
        want = _flat_outcome(f, pts, scheme, 1e-9, 10, strict, 1)
        assert _flat_outcome(f, pts, scheme, 1e-9, 10, strict, 3) == want
    with mock.patch.object(direct_method, "ROWS", 1):
        assert _columns(out) == _columns(direct_method._orbits(f, xs, scheme, 1e-9, 10))


def _columns(out):
    """An ``Approximants``' columns, residuals and errors, in comparable form."""
    return (out.values.tobytes(), out.deviations.tobytes(), out.iterations.tolist(),
            out.converged.tolist(), [r.tobytes() for r in out.residuals],
            {i: (type(e), str(e)) for i, e in out.errors.items()})


@settings(max_examples=60, deadline=None)
@given(dim=st.integers(1, 2), r=st.sampled_from([-0.5, 0.5, 2.0]),
       scheme=st.sampled_from([Scheme("forward", 2.0), Scheme("backward", 2.0),
                               Scheme("backward", 1e10)]),
       sizes=st.lists(st.sampled_from([0.0, 1e-300, 1e-3, 1.0, 7.5, 1e5]), min_size=1,
                      max_size=8),
       max_n=st.integers(1, 60), tol=st.sampled_from([1e-9, 1e-3]),
       predicted=st.sampled_from([1, direct_method.ROWS]), rows=st.sampled_from([None, 3, 16]))
def test_the_block_schedule_moves_no_column(dim, r, scheme, sizes, max_n, tol, predicted, rows):
    # the stop predictor only sizes blocks: answering one step, or the whole row
    # budget, gives the columns of the default schedule
    f = TestFunction(NormedSpace(dim), AdditiveCore.random(dim, 2, "real_linear"),
                     Perturbation.power(0.1, r, direction_seed=5))
    xs = np.array([s * np.array([0.6 + 0.8j, -0.5j][:dim]) for s in sizes])
    with mock.patch.object(direct_method, "ROWS", rows or direct_method.ROWS):
        want = _columns(direct_method._orbits(f, xs, scheme, tol, max_n))
        with mock.patch.object(direct_method, "_predicted_stop", lambda r, tol: predicted):
            assert _columns(direct_method._orbits(f, xs, scheme, tol, max_n)) == want


def per_step_block(f, xs, scheme, powers):
    """The rows and terms of an orbit block as each step was once scaled alone: by
    its Python float power, the steps joined for one call and stacked again."""
    fwd = scheme.direction == "forward"
    rows = np.concatenate([p * xs if fwd else xs / p for p in powers])
    vals = evaluate_many(f, rows).reshape(len(powers), *xs.shape)
    return rows, np.stack([v / p if fwd else p * v for p, v in zip(powers, vals)])


#: parts with zeros of either sign and subnormals, whose signs a product can flip
orbit_parts = (st.sampled_from([0.0, -0.0, 5e-324, -5e-324, -1e-310, 2.2e-308, 0.5])
               | st.floats(-4.0, 4.0))


@settings(max_examples=200, deadline=None)
@given(data=st.data(), dim=st.integers(1, 2), direction=st.sampled_from(["forward", "backward"]),
       scale=st.sampled_from([2.0, -2.0, 1.5, 3.0, 1e10]), first=st.integers(0, 3),
       k=st.integers(1, 12))
def test_block_scaling_equals_the_per_step_scaling(data, dim, direction, scale, first, k):
    # one broadcast product or quotient with the power column gives every step's bits;
    # step 0 is xs itself and f(x) unscaled
    f = TestFunction(NormedSpace(dim), AdditiveCore.random(dim, 2, "real_linear"),
                     Perturbation.power(0.1, 0.5, direction_seed=5))
    xs = np.array([[complex(data.draw(orbit_parts), data.draw(orbit_parts)) for _ in range(dim)]
                   for _ in range(data.draw(st.integers(1, 6)))])
    scheme = Scheme(direction, scale)
    powers = [_scale_power(scheme, n) for n in range(first, first + k)]
    seen = []

    def recording(f, rows):
        seen.append(rows.copy())
        return evaluate_many(f, rows)

    with mock.patch.object(direct_method, "evaluate_many", recording):
        terms = _orbit_block(f, xs, scheme, powers)
    want_rows, want_terms = per_step_block(f, xs, scheme, powers)
    skip = int(first == 0)
    if skip:
        assert seen[0][: len(xs)].tobytes() == xs.tobytes()
        assert terms[0].tobytes() == evaluate_many(f, xs).tobytes()
    assert len(seen) == 1
    assert seen[0][skip * len(xs):].tobytes() == want_rows[skip * len(xs):].tobytes()
    assert terms[skip:].tobytes() == want_terms[skip:].tobytes()


@pytest.mark.parametrize("params", [
    RhoParams("A", 0.3 + 0.2j, -0.1 + 0.25j, -1.7),
    RhoParams("B", 0.4 - 0.3j, 0.2 + 0.5j, 0.6, beta=-2.3),
])
def test_defect_many_equals_a_batch_of_one(params):
    f = TestFunction(NormedSpace(3), AdditiveCore.random(3, 2, "complex_linear"),
                     Perturbation.power(0.2, 0.5, direction_seed=21))
    triples = draw_samples(f.space, SamplePlan(seed=17, count=40, radius=4.0), arity=3)
    # rows of (x_norm, y_norm, z_norm, lhs_norm, rhs_norm, defect)
    for got, (x, y, z) in zip(zip(*defect_many(f, triples, params)), triples):
        want = tuple(c[0] for c in defect_many(f, [(x, y, z)], params))
        assert got == want


def _measured_control():
    f = TestFunction(NormedSpace(2), AdditiveCore.identity(2), Perturbation.power(0.1, 0.5, 5))
    env = measure_envelope(f, RhoParams("A", 0.0, 0.3, 1.0),
                           SamplePlan(seed=3, count=200, radius=2.0, exclude_origin_below=0.1))
    return ControlFunction.measured(*env)


CONTROLS = {
    "power": lambda: ControlFunction.power(0.7, 0.5),
    # covers (0.01, 4]: points above 4 miss at once, and every point misses
    # some term as the forward series walks outwards
    "tabulated": lambda: ControlFunction.tabulated([0.01, 0.5, 1.0, 4.0], [0.3, 0.2, 0.5]),
    "measured": _measured_control,
}


@settings(max_examples=30, deadline=None)
@given(norms=st.lists(st.floats(0.0, 8.0) | st.sampled_from([0.0, 0.5, 4.0, 5.0]),
                      min_size=1, max_size=10),
       kind=st.sampled_from(sorted(CONTROLS)), direction=st.sampled_from(["forward", "backward"]))
def test_phi_tilde_cells_equal_a_batch_of_one(norms, kind, direction):
    control = CONTROLS[kind]()
    r = 0.5 if direction == "forward" else 2.0
    if kind == "power":
        control = ControlFunction.power(0.7, r)
    cell = [(RhoParams("A", 0.0, 0.3, 1.5), Scheme(direction, 2.0), control)]
    (value,), (tail,), (terms,), (error,) = phi_tilde_cells(cell, norms, 20)
    assert error is None
    # (value, tail, terms, coverage truncated) per norm
    got = [(v, tail, k, k < 20) for v, k in zip(value.tolist(), terms.tolist())]
    want = []
    for nx in norms:
        (v,), (t,), (k,), (e,) = phi_tilde_cells(cell, [nx], 20)
        assert e is None
        want.append((v[0], t, k[0], k[0] < 20))
    assert got == want
    if kind == "tabulated" and 5.0 in norms:
        assert got[norms.index(5.0)][3]


@st.composite
def series_cells(draw, layouts):
    """One (params, scheme, control) cell of a (family, direction) from ``layouts``, with
    its own beta (family B), |rho2| and |rho1| up to past 1, theta 0 and r on both
    sides of 1, and at times alpha = 0 or a family-B beta of 0 or None: every error
    phi_tilde_cells gives occurs."""
    family, direction = draw(layouts)
    if family == "A":  # a forced scale of 3 is the cell's own family error
        scale = draw(st.sampled_from([2.0, -2.0, 2.0, -2.0, 3.0]))
    else:  # scale 1 + beta, away from the degenerate 0 and +-1
        scale = 1.0 + draw(st.sampled_from([-2.5, -0.5, 0.5, 1.0, 2.0]) | st.floats(-4.0, 4.0))
        if abs(scale) < 0.1 or abs(abs(scale) - 1.0) < 0.05:
            scale = 3.0
    rho2 = draw(st.floats(0.0, 0.95) | st.sampled_from([0.0, 0.3, 1.0, 1.2]))
    alpha = draw(st.floats(0.25, 4.0)) * draw(st.sampled_from([1, -1, 1, -1, 0]))
    rho1 = draw(st.sampled_from([0.5, 1.0, 1.5]) | st.floats(0.0, 1.5))
    beta = None if family == "A" else draw(st.sampled_from([scale - 1.0] * 4 + [0.0, None]))
    head = (RhoParams(family, rho1, rho2, alpha, beta), Scheme(direction, scale))
    kind = draw(st.sampled_from(["zero", "power", "power", "power", "tabulated"]))
    if kind == "zero":
        return (*head, ControlFunction.zero())
    if kind == "tabulated":
        return (*head, CONTROLS["tabulated"]())
    theta = draw(st.sampled_from([0.0, 0.5, 1.0, 2.0]) | st.floats(1e-3, 10.0))
    # mostly r on the convergent side of 1, below it where the series' arguments grow;
    # numpy's power loop has exact shortcuts for r = -1, 0.5 and 2, and r = -2000
    # overflows (numeric) at every norm below 1
    grows = (abs(scale) > 1.0) == (direction == "forward")
    below = st.floats(-2.0, 0.95) | st.sampled_from([-1.0, 0.5])
    above = st.floats(1.05, 3.0) | st.just(2.0)
    r = draw(st.sampled_from([below if grows else above] * 3 + [above if grows else below,
                                                                st.sampled_from([1.0, -2000.0])]))
    return (*head, ControlFunction.power(theta, draw(r)))


@st.composite
def cell_batches(draw):
    """2 to 12 cells of at most three layouts, so that closed forms share a matrix, with
    the run's trunc_terms and display flag."""
    layouts = draw(st.lists(st.tuples(st.sampled_from("AB"), st.sampled_from(
        ["forward", "backward"])), min_size=1, max_size=3))
    cells = draw(st.lists(series_cells(st.sampled_from(layouts)), min_size=2, max_size=12))
    return cells, draw(st.integers(1, 24)), draw(st.booleans())


def _cell_outcomes(cells, norms, trunc_terms, printed_display):
    """phi_tilde_cells' outcome per cell: value bytes, tail, terms and error (type, message)."""
    values, tails, terms, errors = phi_tilde_cells(cells, norms, trunc_terms, printed_display)
    return [(v.tobytes(), tail, k.tolist(), e and (type(e), str(e)))
            for v, tail, k, e in zip(values, tails, terms, errors)]


@settings(max_examples=150, deadline=None)
@given(batch=cell_batches(),
       norms=st.lists(st.sampled_from([0.0, 0.5, 1.0, 5.0]) | st.floats(1e-3, 8.0), max_size=8,
                      min_size=1))
def test_phi_tilde_cells_equal_each_cell_alone(batch, norms):
    cells, *run = batch
    got = _cell_outcomes(cells, norms, *run)
    assert got == [_cell_outcomes([cell], norms, *run)[0] for cell in cells]
    for cell, (values, _, terms, error) in zip(cells, got):
        params = cell[0]
        if params.alpha == 0 or (params.family == "B" and not params.beta):
            assert error[0] is DegenerateParameterError  # the cell's own, not the batch's
        if error is None:  # and each entry is that cell's at its one point
            alone = [_cell_outcomes([cell], [nx], *run)[0] for nx in norms]
            assert values == b"".join(v for v, *_ in alone)
            assert terms == [k for _, _, (k,), _ in alone]
