"""The per-component folds give the bits of the numpy reductions they replaced.

Each reference below is the formula the kernel used before its reductions over
a vector's components became left-to-right folds (``space.fold``). Below 8
components numpy sums left to right too, so every result must be equal bit for
bit; from 8 on, the fold keeps the same order where numpy sums pairwise.
"""

import operator
import warnings
from functools import reduce

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from jensenlab import AdditiveCore, NormedSpace, Perturbation, TestFunction
from jensenlab.model import _hash_words, evaluate_many


def reference_norms(space, vs):
    mags = np.abs(space.as_vectors(vs))
    if space.norm_kind == "l1":
        return mags.sum(axis=1)
    m = mags.max(axis=1)
    if space.norm_kind == "linf":
        return m
    scale = np.where(m == 0.0, 1.0, m)[:, None]
    return m * np.sqrt(((mags / scale) ** 2).sum(axis=1))


def reference_apply_many(core, xs):
    m, d = core._real_matrix, xs.shape[1]
    x2 = np.concatenate([xs.real, xs.imag], axis=1)
    y2 = x2[:, :1] * m[:, 0]
    for j in range(1, 2 * d):
        y2 = y2 + x2[:, j : j + 1] * m[:, j]
    return y2[:, :d] + 1j * y2[:, d:]


def reference_evaluate_many(f, xs):
    live = xs.any(axis=1) if f.force_zero_at_origin else slice(None)
    out = np.zeros_like(xs)
    out[live] = f.core.apply_many(xs[live]) + f.perturbation.evaluate_many(f.space, xs[live])
    return out


def same_bits(a, b):
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


#: finite parts with the edge cases of a norm: zeros, subnormals and entries near
#: the top of the double range
edge_parts = (st.sampled_from([0.0, -0.0, 5e-324, -1e-310, 1e308, -1e308, 1.0])
              | st.floats(allow_nan=False, allow_infinity=False))
modest_parts = st.sampled_from([0.0, -0.0, 5e-324, 1.0]) | st.floats(-1e100, 1e100)
#: parts of orbit points: a zero part often, so that rows are zero in some components
point_parts = st.sampled_from([0.0, -0.0, 0.5]) | st.floats(-4.0, 4.0)


@st.composite
def batches(draw, dim, parts):
    """An N x dim complex array, about a quarter of whose rows are the origin."""
    rows = []
    for _ in range(draw(st.integers(1, 8))):
        if draw(st.integers(0, 3)) == 0:
            rows.append([0j] * dim)
        else:
            rows.append([complex(draw(parts), draw(parts)) for _ in range(dim)])
    return np.array(rows, dtype=np.complex128)


@settings(max_examples=200, deadline=None)
@given(data=st.data(), dim=st.integers(1, 7), kind=st.sampled_from(["l1", "l2", "linf"]))
def test_norms_match_the_reductions_bit_for_bit(data, dim, kind):
    space, xs = NormedSpace(dim, kind), data.draw(batches(dim, edge_parts))
    with np.errstate(over="ignore", invalid="ignore"):  # sums and moduli past 1e308 are +inf
        norms, reference = space.norms(xs), reference_norms(space, xs)
        # where a modulus is +inf the reference l2 norm is inf / inf = NaN
        kept = np.isfinite(np.abs(xs)).all(axis=1)
    assert same_bits(norms[kept], reference[kept])
    assert (norms[~kept] == np.inf).all()


@settings(max_examples=100, deadline=None)
@given(data=st.data(), dim=st.integers(8, 11))
def test_l1_norm_sums_left_to_right_at_every_dim(data, dim):
    xs = data.draw(batches(dim, st.floats(-1e6, 1e6)))
    folded = [reduce(operator.add, np.abs(row).tolist()) for row in xs]
    assert NormedSpace(dim, "l1").norms(xs).tolist() == folded


def test_l2_norm_of_a_row_with_an_infinite_entry_is_inf():
    space = NormedSpace(2, "l2")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert space.norms([[np.inf, 1.0], [complex(0.0, -np.inf), 1e-300],
                            [np.inf, np.inf]]).tolist() == [np.inf] * 3
        assert np.isnan(space.norms([[np.nan, 1.0], [np.nan, np.inf]])).all()
        assert same_bits(space.norms([[3.0, 4.0], [0.0, 0.0]]), np.array([5.0, 0.0]))


@settings(max_examples=100, deadline=None)
@given(data=st.data(), dim=st.integers(1, 3), seed=st.integers(0, 50),
       kind=st.sampled_from(["complex_linear", "real_linear"]))
def test_apply_many_matches_the_column_sum_bit_for_bit(data, dim, seed, kind):
    core, xs = AdditiveCore.random(dim, seed, kind), data.draw(batches(dim, modest_parts))
    assert same_bits(core.apply_many(xs), reference_apply_many(core, xs))


@settings(max_examples=100, deadline=None)
@given(data=st.data(), dim=st.integers(1, 3), forced=st.booleans(),
       perturbation=st.sampled_from([Perturbation.power(0.2, 0.5, direction_seed=3),
                                     Perturbation.bounded(0.3, direction_seed=7),
                                     Perturbation.none()]))
def test_evaluate_many_matches_the_masked_fill_bit_for_bit(data, dim, forced, perturbation):
    f = TestFunction(NormedSpace(dim), AdditiveCore.random(dim, 1, "real_linear"),
                     perturbation, force_zero_at_origin=forced)
    xs = data.draw(batches(dim, point_parts))
    assert same_bits(evaluate_many(f, xs), reference_evaluate_many(f, xs))


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 64 - 1), count=st.integers(1, 9),
       keys=st.lists(st.lists(st.integers(-2 ** 53, 2 ** 53), min_size=4, max_size=4),
                     min_size=1, max_size=6))
def test_hash_words_of_a_shorter_count_are_a_prefix(seed, count, keys):
    keys = np.array(keys, dtype=np.int64)
    assert same_bits(_hash_words(seed, keys, count + 1)[:, :count],
                     _hash_words(seed, keys, count))
