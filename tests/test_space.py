import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jensenlab import NormedSpace, SamplePlan, draw_samples
from jensenlab.errors import ArityError, DimensionError


def test_norm_examples():
    l2 = NormedSpace(2, "l2")
    assert l2.norm([0, 0]) == 0.0
    # |3+4i| = 5, hand arithmetic
    assert l2.norm([3 + 4j, 0]) == pytest.approx(5.0, abs=0)
    l1 = NormedSpace(2, "l1")
    # |1+i| + |-2| = sqrt(2) + 2
    assert l1.norm([1 + 1j, -2]) == pytest.approx(3.414213562373095, rel=1e-15)
    linf = NormedSpace(2, "linf")
    assert linf.norm([1 + 1j, -2]) == pytest.approx(2.0, rel=1e-15)


def test_norm_zero_iff_zero():
    for kind in ("l1", "l2", "linf"):
        sp = NormedSpace(3, kind)
        assert sp.norm(sp.zero()) == 0.0
        assert sp.norm([1e-300, 0, 0]) > 0.0


def test_dimension_mismatch():
    sp = NormedSpace(2)
    with pytest.raises(DimensionError):
        sp.norm([1.0, 2.0, 3.0])


@pytest.mark.parametrize("kind", ["l1", "l2", "linf"])
def test_norm_axioms_bulk(kind):
    # homogeneity and triangle inequality on 10^4 random vectors
    sp = NormedSpace(3, kind)
    rng = np.random.default_rng(11)
    for _ in range(10_000):
        v = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        w = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        c = complex(rng.standard_normal(), rng.standard_normal())
        nv, nw = sp.norm(v), sp.norm(w)
        assert sp.norm(c * v) == pytest.approx(abs(c) * nv, rel=1e-12, abs=1e-12)
        assert sp.norm(v + w) <= (nv + nw) * (1 + 1e-12) + 1e-12


@settings(max_examples=50, deadline=None)
@given(re=st.floats(-10, 10), im=st.floats(-10, 10), kind=st.sampled_from(["l1", "l2", "linf"]))
def test_norm_homogeneity_property(re, im, kind):
    sp = NormedSpace(2, kind)
    v = np.array([0.3 - 1.1j, 2.4 + 0.25j])
    c = complex(re, im)
    assert sp.norm(c * v) == pytest.approx(abs(c) * sp.norm(v), rel=1e-12, abs=1e-12)


def test_draw_samples_deterministic():
    sp = NormedSpace(2)
    plan = SamplePlan(seed=1, count=5, radius=2.0, exclude_origin_below=0.1)
    a = draw_samples(sp, plan, arity=1)
    b = draw_samples(sp, plan, arity=1)
    assert a.shape == (5, 2) and a.dtype == np.complex128
    assert (a == b).all()  # bit-identical


def test_draw_samples_prefix_and_triples():
    # the first k vectors of a plan do not depend on its count, and a triple
    # sample is the point sample of three times as many vectors, taken in threes
    sp = NormedSpace(2)
    plan = SamplePlan(seed=3, count=40, radius=2.0, exclude_origin_below=0.1)
    short = SamplePlan(seed=3, count=7, radius=2.0, exclude_origin_below=0.1)
    for arity in (1, 3):
        assert (draw_samples(sp, plan, arity)[:7] == draw_samples(sp, short, arity)).all()
    points = draw_samples(sp, SamplePlan(seed=3, count=120, radius=2.0,
                                         exclude_origin_below=0.1), arity=1)
    assert (draw_samples(sp, plan, arity=3) == points.reshape(40, 3, 2)).all()


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2 ** 64 - 1), dim=st.integers(1, 3),
       norm=st.sampled_from(["l1", "l2", "linf"]), radius=st.sampled_from([2.0, 1e-300]))
def test_draw_samples_has_no_zero_part(seed, dim, norm, radius):
    # every part of a hashed direction is an odd multiple of 2^-52 in (-1, 1), and the
    # rescaled part stays nonzero even at norms near the bottom of the double range
    points = draw_samples(NormedSpace(dim, norm), SamplePlan(seed, 200, radius), arity=1)
    assert (points.view(np.float64) != 0.0).all()


def hex_vectors(rows):
    return np.array([[complex(float.fromhex(re), float.fromhex(im)) for re, im in row]
                     for row in rows])


#: the first 3 vectors of SamplePlan(4, count, 2.0, 0.1) at dim 1 and dim 3, as (re, im) hex
PINNED_POINTS = {
    1: [[("0x1.9f9bc4668769dp-1", "0x1.5f0aee87bd3d2p-1")],
        [("0x1.3da8666b25f10p-1", "0x1.f34af4864b68dp-3")],
        [("0x1.1277202f043b5p+0", "0x1.149d8cc0e77f6p+0")]],
    3: [[("0x1.007744f8717eap-5", "0x1.86eb44b38ae56p-5"),
         ("0x1.b13f2266d8758p-6", "0x1.b1be2d108441bp-4"),
         ("0x1.253f8386ccf03p-4", "0x1.a381a06dbde7cp-4")],
        [("0x1.af24c8acb4e88p-1", "0x1.0aa3b34b9879ap+0"),
         ("0x1.52d5aa6b87b57p-2", "0x1.0d33d49315d76p+0"),
         ("0x1.e3bac69b308a9p-2", "0x1.a78d71804c1a9p-2")],
        [("0x1.c3e088e745262p-4", "0x1.e91a4147b3c9cp-3"),
         ("0x1.c76abf6b19a40p-4", "-0x1.86959afb49b53p-4"),
         ("0x1.b730b4b78ed81p-3", "-0x1.08d43f56da501p-3")]],
}


@pytest.mark.parametrize("dim", sorted(PINNED_POINTS))
def test_draw_samples_pinned(dim):
    # A change here moves every report: make it on purpose. The direction is exact; the
    # norm's exp, log and np.abs may round by an ulp on another CPU's numpy loops, so
    # each part agrees to within 4 ulp, while a change of the law or the hash moves it far
    want = hex_vectors(PINNED_POINTS[dim]).view(np.float64)
    for count in (3, 50):  # the first vectors of a longer plan are the same
        got = draw_samples(NormedSpace(dim), SamplePlan(4, count, 2.0, 0.1), arity=1)[:3]
        assert (np.abs(got.view(np.float64) - want) <= 4 * np.spacing(np.abs(want))).all()


def test_draw_samples_empty_and_arity():
    sp = NormedSpace(2)
    assert draw_samples(sp, SamplePlan(seed=1, count=0, radius=1.0), arity=1).shape == (0, 2)
    assert draw_samples(sp, SamplePlan(seed=1, count=0, radius=1.0), arity=3).shape == (0, 3, 2)
    with pytest.raises(ArityError):
        draw_samples(sp, SamplePlan(seed=1, count=1, radius=1.0), arity=2)


def test_draw_samples_norm_range():
    sp = NormedSpace(2)
    plan = SamplePlan(seed=1, count=1000, radius=2.0, exclude_origin_below=0.1)
    triples = draw_samples(sp, plan, arity=3)
    assert triples.shape == (1000, 3, 2)
    norms = sp.norms(triples.reshape(-1, 2))
    assert min(norms) > 0.1
    assert max(norms) <= 2.0
    assert all(np.isfinite(n) for n in norms)


def test_draw_samples_spans_shells():
    # log-uniform norms should populate every dyadic shell of the range
    sp = NormedSpace(2)
    plan = SamplePlan(seed=7, count=500, radius=2.0, exclude_origin_below=2.0 ** -6)
    points = draw_samples(sp, plan, arity=1)
    assert points.shape == (500, 2)
    norms = sp.norms(points)
    occupied = {math.floor(math.log2(n)) for n in norms}
    assert {-6, -5, -4, -3, -2, -1, 0}.issubset(occupied)


def test_plan_validation():
    with pytest.raises(ValueError):
        SamplePlan(seed=0, count=1, radius=1.0, exclude_origin_below=1.0)
    with pytest.raises(ValueError):
        SamplePlan(seed=0, count=-1, radius=1.0)
    with pytest.raises(ValueError, match="seed"):
        SamplePlan(seed=-1, count=1, radius=1.0)
