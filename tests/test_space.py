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
    assert len(a) == 5
    for va, vb in zip(a, b):
        assert (va == vb).all()  # bit-identical


def test_draw_samples_empty_and_arity():
    sp = NormedSpace(2)
    assert draw_samples(sp, SamplePlan(seed=1, count=0, radius=1.0), arity=1) == []
    with pytest.raises(ArityError):
        draw_samples(sp, SamplePlan(seed=1, count=1, radius=1.0), arity=2)


def test_draw_samples_norm_range():
    sp = NormedSpace(2)
    plan = SamplePlan(seed=1, count=1000, radius=2.0, exclude_origin_below=0.1)
    triples = draw_samples(sp, plan, arity=3)
    assert len(triples) == 1000
    norms = [sp.norm(v) for t in triples for v in t]
    assert len(norms) == 3000
    assert min(norms) > 0.1
    assert max(norms) <= 2.0
    assert all(np.isfinite(n) for n in norms)


def test_draw_samples_spans_shells():
    # log-uniform norms should populate every dyadic shell of the range
    sp = NormedSpace(2)
    plan = SamplePlan(seed=7, count=500, radius=2.0, exclude_origin_below=2.0 ** -6)
    norms = [sp.norm(v) for v in draw_samples(sp, plan, arity=1)]
    occupied = {math.floor(math.log2(n)) for n in norms}
    assert {-6, -5, -4, -3, -2, -1, 0}.issubset(occupied)


def test_plan_validation():
    with pytest.raises(ValueError):
        SamplePlan(seed=0, count=1, radius=1.0, exclude_origin_below=1.0)
    with pytest.raises(ValueError):
        SamplePlan(seed=0, count=-1, radius=1.0)
