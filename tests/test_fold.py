"""The per-component folds give the bits of the numpy reductions they replaced.

Each reference below is the formula the kernel used before its reductions over
a vector's components became left-to-right folds (``space.fold``). Below 8
components numpy sums left to right too, so every result must be equal bit for
bit; from 8 on, the fold keeps the same order where numpy sums pairwise.
``reference_apply_many`` is the core's full column sum, and ``sparse_apply_many``
the sum of its nonzero products alone, row by row in Python floats, which the core
gives bit for bit; both write a sum's parts straight into the complex result.
``reference_perturbation`` is the perturbation kernel row by row: hash words and
each hashed direction part computed alone in Python integers.
"""

import itertools
import operator
import warnings
from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jensenlab import AdditiveCore, NormedSpace, Perturbation, TestFunction
from jensenlab.model import evaluate_many
from jensenlab.space import _hash_words


def reference_norms(space, vs):
    mags = np.abs(space.as_vectors(vs))
    if space.norm_kind == "l1":
        return mags.sum(axis=1)
    m = mags.max(axis=1)
    if space.norm_kind == "linf":
        return m
    scale = np.where(m == 0.0, 1.0, m)[:, None]
    return m * np.sqrt(((mags / scale) ** 2).sum(axis=1))


def complex_parts(y2):
    """The N x d complex array of real parts y2[:, :d] and imaginary parts y2[:, d:],
    each written as it is: a join ``re + 1j * im`` would move zero signs and non-finite parts."""
    d = y2.shape[1] // 2
    out = np.empty((len(y2), d), dtype=np.complex128)
    out.real, out.imag = y2[:, :d], y2[:, d:]
    return out


def reference_apply_many(core, xs):
    m, d = core._real_matrix, xs.shape[1]
    x2 = np.concatenate([xs.real, xs.imag], axis=1)
    y2 = x2[:, :1] * m[:, 0]
    for j in range(1, 2 * d):
        y2 = y2 + x2[:, j : j + 1] * m[:, j]
    return complex_parts(y2)


def sparse_apply_many(core, xs):
    """``apply_many`` row by row: each output part the left-to-right sum of its products
    of nonzero entries (an entry of 1.0 adds its input part unmultiplied), or the product
    of its first entry where all are zero."""
    m, rows = core._real_matrix, []
    for x in np.concatenate([xs.real, xs.imag], axis=1).tolist():
        row = []
        for entries in m.tolist():
            terms = [x[j] if v == 1.0 else x[j] * v for j, v in enumerate(entries) if v]
            row.append(reduce(operator.add, terms or [x[0] * entries[0]]))
        rows.append(row)
    return complex_parts(np.array(rows).reshape(len(xs), 2 * xs.shape[1]))


def one_nan(a):
    """The parts of ``a`` with every NaN made the same NaN: which NaN operand a numpy
    loop keeps depends on the loop, so two formulas agree on where NaN is, not its sign."""
    parts = np.array(a).view(np.float64)
    parts[np.isnan(parts)] = np.nan
    return parts


def reference_evaluate_many(f, xs):
    live = xs.any(axis=1) if f.force_zero_at_origin else slice(None)
    out = np.zeros_like(xs)
    out[live] = f.core.apply_many(xs[live])
    if f.perturbation.kind != "none":
        out[live] += f.perturbation.evaluate_many(f.space, xs[live])
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


#: every part a product or a sum can turn into a zero of either sign, an infinity or NaN
special_parts = (st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1.0, -1.0, 1e308, -1e308,
                                  np.inf, -np.inf, np.nan])
                 | st.floats(-1e100, 1e100))


@st.composite
def cores(draw, dim, seed, kind):
    """A random core of ``kind``, or one whose skipped products the sparse fold must
    restore: the identity, a real diagonal, or planted 0.0, -0.0 and 1.0 entries."""
    if kind == "identity":
        return AdditiveCore.identity(dim)
    if kind == "diagonal":
        diagonal = draw(st.lists(st.sampled_from([1.0, -1.0, 2.0, -0.5, 0.0]),
                                 min_size=dim, max_size=dim))
        return AdditiveCore("complex_linear", np.diag(diagonal).astype(np.complex128))
    if kind == "planted":
        m = AdditiveCore.random(dim, seed, "real_linear").matrix.copy()
        planted = draw(st.lists(st.sampled_from([None, 0.0, -0.0, 1.0]),
                                min_size=m.size, max_size=m.size))
        for i, value in enumerate(planted):
            if value is not None:
                m.flat[i] = value
        return AdditiveCore("real_linear", m)
    return AdditiveCore.random(dim, seed, kind)


@settings(max_examples=300, deadline=None)
@given(data=st.data(), dim=st.integers(1, 3), seed=st.integers(0, 50),
       kind=st.sampled_from(["complex_linear", "real_linear", "identity", "diagonal",
                             "planted"]))
def test_apply_many_matches_the_column_sum_bit_for_bit(data, dim, seed, kind):
    core = data.draw(cores(dim, seed, kind))
    xs = data.draw(batches(dim, modest_parts))
    result = core.apply_many(xs)
    assert same_bits(result, sparse_apply_many(core, xs))
    # a skipped product of a finite part is +-0, which moves only a zero sum's sign
    assert (result == reference_apply_many(core, xs)).all()
    # a zero or non-finite part: the same bits but for which NaN a loop keeps
    xs = data.draw(batches(dim, special_parts))
    with np.errstate(over="ignore", invalid="ignore"):
        result = core.apply_many(xs)
        assert same_bits(one_nan(result), one_nan(sparse_apply_many(core, xs)))
        full = reference_apply_many(core, xs)
    finite = np.isfinite(xs).all(axis=1)
    assert np.array_equal(result[finite].view(np.float64), full[finite].view(np.float64),
                          equal_nan=True)


@pytest.mark.parametrize("core, row, expected", [
    (AdditiveCore.identity(2), [-0.0 - 0.0j, -1.0 + 3.0j], None),  # a zero output's sign
    (AdditiveCore.identity(2), [np.inf, 1.0 + 1.0j], None),  # a non-finite input
    (AdditiveCore("complex_linear", np.diag([2.0 + 0.0j])), [5.0 + 1e308j],
     [complex(10.0, np.inf)]),  # an overflow
    # a non-finite input that no entry reads
    (AdditiveCore("real_linear", np.array([[1.0, 0.0], [1.0, 0.0]])), [complex(3.0, np.inf)],
     [3.0 + 3.0j]),
    # a NaN in a column of zero entries, which the sum never reads: the full fold's parts
    # would all be NaN
    (AdditiveCore("complex_linear", np.array([[1.0, 0.0], [2.0, 0.0]], dtype=np.complex128)),
     [1.0 + 1.0j, complex(np.nan, 0.0)], [1.0 + 1.0j, 2.0 + 2.0j]),
    # the identity gives -0.0 and inf back, where the full fold's inf times the identity's
    # -0.0 entry would make Re NaN
    (AdditiveCore.identity(1), [complex(-0.0, 2.0)], None),
    (AdditiveCore.identity(1), [complex(1.0, np.inf)], None),
], ids=["zero-output", "non-finite-input", "overflow", "unread-input", "zero-column",
        "identity-negative-zero", "identity-infinite-part"])
def test_apply_many_sums_in_full_where_a_skipped_product_shows(core, row, expected):
    """Pins of the sparse sum where the full fold would differ; ``None``: the row itself."""
    xs = np.array([[0.5 + 0.25j] * len(row), row])
    with np.errstate(over="ignore"):
        result = core.apply_many(xs)
    assert same_bits(result[1], np.array(row if expected is None else expected))


#: NaN payloads of either sign, quiet and signalling, by their bits
NAN_PAYLOADS = np.array([0x7FF8000000000001, 0xFFF800000000BEEF, 0x7FF0000000000001,
                         0xFFF4000000000000], dtype=np.uint64).view(np.float64).tolist()
#: zeros of either sign, infinities, NaN of either sign and payload, and subnormals, which
#: an identity and a one-component norm give back as they are
EDGE_PARTS = [0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, *NAN_PAYLOADS, 5e-324, -5e-324,
              -1e-310]
identity_parts = st.sampled_from(EDGE_PARTS) | st.floats()


@settings(max_examples=200, deadline=None)
@given(data=st.data(), dim=st.integers(1, 3))
def test_identity_core_returns_its_input_bit_for_bit(data, dim):
    xs = data.draw(batches(dim, identity_parts))
    before = xs.tobytes()
    f = TestFunction(NormedSpace(dim), AdditiveCore.identity(dim), Perturbation.none())
    for out in AdditiveCore.identity(dim).apply_many(xs), evaluate_many(f, xs):
        assert same_bits(out, xs) and not np.shares_memory(out, xs)  # a new array
    # a perturbation's kernel reads the caller's rows and writes none of them
    f = TestFunction(NormedSpace(dim), AdditiveCore.identity(dim), Perturbation.power(0.1, 0.5))
    with np.errstate(all="ignore"):  # a NaN or infinite part makes NaN keys and magnitudes
        evaluate_many(f, xs)
    assert xs.tobytes() == before


@pytest.mark.parametrize("norm", ["l1", "l2", "linf"])
def test_a_one_component_norm_is_the_modulus_bit_for_bit(norm):
    # every (real, imaginary) pair of the edge parts and two normal ones, built from float
    # parts so that no complex arithmetic touches a NaN's payload
    parts = list(itertools.product([*EDGE_PARTS, 1.0, -3e300], repeat=2))
    zs = np.array(parts, dtype=np.float64).view(np.complex128)  # N x 1
    assert same_bits(NormedSpace(1, norm).norms(zs), np.abs(zs)[:, 0])


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


_MASK = 2 ** 64 - 1


def reference_words(seed, keys, count, first):
    """SplitMix64 words ``first`` .. ``count`` of each key row, in Python integers."""
    def mix(z):
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        return z ^ (z >> 31)
    gamma, rows = 0x9E3779B97F4A7C15, []
    for row in keys.tolist():
        state = seed & _MASK
        for k in row:
            state = mix(((state + gamma) & _MASK) ^ (k & _MASK))
        rows.append([mix((state + j * gamma) & _MASK) for j in range(first, count + 1)])
    return np.array(rows, dtype=np.uint64).reshape(len(keys), count - first + 1)


def reference_perturbation(p, space, xs):
    """``Perturbation.evaluate_many`` of a bounded or power perturbation, row-major: the
    N x words hash words, and part j of a hashed direction (2 k + 1) / 2^52 - 1 for the top
    52 bits k of word j, in Python integers. The direction is divided by its norm and scaled
    by its magnitude part by part, so that a zero part keeps its sign."""
    d, nx = space.dim, reference_norms(space, xs)
    if p.direction == "hashed" or p.kind == "bounded":
        keys = np.concatenate([xs.real, xs.imag], axis=1) / p.quant_step
        keys = np.clip(np.round(keys), -2.0 ** 53, 2.0 ** 53).astype(np.int64)
        first = 1 if p.direction == "hashed" else 2 * d + 1
        words = reference_words(p.direction_seed, keys, 2 * d + (p.kind == "bounded"), first)
    if p.kind == "bounded":
        magnitude = p.epsilon * ((words[:, -1] >> np.uint64(11)) * 2.0 ** -53)
    elif p.r >= 0:
        magnitude = p.theta * nx ** p.r
    else:
        undefined = nx == 0.0
        magnitude = np.where(undefined, np.nan, p.theta * np.where(undefined, 1.0, nx) ** p.r)
    if p.direction == "radial":
        u, n = xs, np.where(nx == 0.0, 1.0, nx)
    else:
        u = complex_parts(np.array([[float(2 * (w >> 12) + 1 - 2 ** 52) * 2.0 ** -52
                                     for w in row[: 2 * d]] for row in words.tolist()]))
        n = reference_norms(space, u)
    return complex_parts(np.concatenate([u.real, u.imag], axis=1) / n[:, None]
                         * magnitude[:, None])


#: zeros of either sign, subnormals and parts near the top of the double range, whose
#: moduli stay finite
kernel_parts = (st.sampled_from([0.0, -0.0, 5e-324, -5e-324, -1e-310, 1e308, -1e308, 1.0])
                | st.floats(-1e6, 1e6))


@settings(max_examples=300, deadline=None)
@given(data=st.data(), dim=st.integers(1, 3), norm=st.sampled_from(["l1", "l2", "linf"]),
       kind=st.sampled_from(["power", "bounded"]), r=st.sampled_from([2.0, 0.5, 0.0, -0.5, -2.0]),
       direction=st.sampled_from(["hashed", "radial"]), seed=st.integers(0, 2 ** 64 - 1))
def test_perturbation_matches_the_row_major_kernel_bit_for_bit(data, dim, norm, kind, r,
                                                               direction, seed):
    if kind == "power":
        p = Perturbation.power(0.3, r, direction_seed=seed, direction=direction)
    else:
        p = Perturbation.bounded(0.3, direction_seed=seed, direction=direction)
    space, xs = NormedSpace(dim, norm), data.draw(batches(dim, kernel_parts))
    # a huge part makes an l1 norm, a power of it and the parts it scales overflow
    with np.errstate(over="ignore", invalid="ignore"):
        assert same_bits(p.evaluate_many(space, xs), reference_perturbation(p, space, xs))
