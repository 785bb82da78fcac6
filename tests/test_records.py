"""The package's 16 record types: their constructors, their checks and which of them
compare by value.

Six records are equal and hashed by their fields: a scheme is the sweep's pass key,
and the others are parameters and verdicts that callers compare. The rest (functions,
arrays of results, reports) compare by identity.
"""

import importlib
import inspect
import pkgutil

import numpy as np
import pytest

from conftest import phi_tilde_norms

import jensenlab
from jensenlab import bounds, direct_method, harness, inequality, model, space
from jensenlab.errors import DegenerateParameterError, DegenerateScaleError, FamilyError

REQUIRED = inspect.Parameter.empty
#: a default that is a new dict per instance (a shared ``{}`` would leak entries)
NEW_DICT = object()

#: each record's constructor parameters in order, with their defaults
SIGNATURES = {
    bounds.ControlFunction: [("kind", REQUIRED), ("theta", 0.0), ("r", 0.0), ("edges", None),
                             ("values", None)],
    bounds.ConvergenceVerdict: [("converges", REQUIRED), ("ratio", REQUIRED),
                                ("condition", REQUIRED)],
    bounds.BoundAudit: [(name, REQUIRED) for name in (
        "which", "theta", "r", "rho2", "alpha", "beta", "paper_constant", "derived_constant",
        "empirical_sup", "verdicts", "points")],
    direct_method.Scheme: [("direction", REQUIRED), ("scale", REQUIRED)],
    direct_method.ConvergenceReport: [(name, REQUIRED) for name in (
        "point", "value", "iterations", "residuals", "tail_bound", "converged")],
    direct_method.Approximants: [(name, REQUIRED) for name in (
        "values", "deviations", "iterations", "converged", "errors", "steps")],
    inequality.RhoParams: [("family", REQUIRED), ("rho1", REQUIRED), ("rho2", REQUIRED),
                           ("alpha", REQUIRED), ("beta", None)],
    inequality.Admissibility: [("ok", REQUIRED), ("detail", REQUIRED)],
    inequality.MeasuredEnvelope: [("edges", REQUIRED), ("shell_max", REQUIRED),
                                  ("cum_max", REQUIRED)],
    model.AdditiveCore: [("kind", REQUIRED), ("matrix", REQUIRED)],
    model.Perturbation: [("kind", "none"), ("epsilon", 0.0), ("theta", 0.0), ("r", 1.0),
                         ("direction", "hashed"), ("direction_seed", 0), ("table", NEW_DICT),
                         ("default", None), ("quant_step", 2.0 ** -20)],
    model.TestFunction: [("space", REQUIRED), ("core", REQUIRED), ("perturbation", REQUIRED),
                         ("force_zero_at_origin", False)],
    harness.Experiment: [(name, REQUIRED) for name in (
        "config", "space", "f", "params", "scheme", "plan", "envelope_plan", "control", "tol",
        "forced_pairing")],
    harness.RunReport: [(name, REQUIRED) for name in (
        "config", "points", "summary", "audit", "control_fit", "runtime_seconds")],
    space.NormedSpace: [("dim", REQUIRED), ("norm_kind", "l2")],
    space.SamplePlan: [("seed", REQUIRED), ("count", REQUIRED), ("radius", REQUIRED),
                       ("exclude_origin_below", 0.0)],
}


@pytest.mark.parametrize("record", SIGNATURES, ids=lambda c: c.__name__)
def test_constructor_parameters_keep_their_order_names_and_defaults(record):
    params = list(inspect.signature(record).parameters.values())
    assert all(p.kind is p.POSITIONAL_OR_KEYWORD for p in params)
    assert [p.name for p in params] == [name for name, _ in SIGNATURES[record]]
    for p, (_, default) in zip(params, SIGNATURES[record]):
        if default is not NEW_DICT:
            assert p.default == default and type(p.default) is type(default), p.name


def test_each_perturbation_has_its_own_table():
    a, b = model.Perturbation(), model.Perturbation("power", theta=0.1, r=0.5)
    assert a.table == {} and b.table == {} and a.table is not b.table


FWD2 = direct_method.Scheme("forward", 2.0)
ZERO = bounds.ControlFunction.zero()

#: per value record, the keyword arguments of one instance and another value for every field
VALUE_RECORDS = {
    direct_method.Scheme: ({"direction": "forward", "scale": 2.0},
                           {"direction": "backward", "scale": -2.0}),
    bounds.ConvergenceVerdict: ({"converges": True, "ratio": 0.5, "condition": "r < 1"},
                                {"converges": False, "ratio": 2.0, "condition": "r > 1"}),
    inequality.RhoParams: ({"family": "B", "rho1": 0.5j, "rho2": 0.25, "alpha": 1.0, "beta": 3.0},
                           {"family": "A", "rho1": 0.5, "rho2": 0.25j, "alpha": -1.0,
                            "beta": None}),
    inequality.Admissibility: ({"ok": True, "detail": "need < 2"},
                               {"ok": False, "detail": "need < 1"}),
    space.NormedSpace: ({"dim": 2, "norm_kind": "l2"}, {"dim": 3, "norm_kind": "linf"}),
    space.SamplePlan: ({"seed": 1, "count": 10, "radius": 2.0, "exclude_origin_below": 0.0},
                       {"seed": 2, "count": 20, "radius": 4.0, "exclude_origin_below": 0.5}),
}


@pytest.mark.parametrize("record", VALUE_RECORDS, ids=lambda c: c.__name__)
def test_value_records_compare_and_hash_by_every_field(record):
    fields, others = VALUE_RECORDS[record]
    a, b = record(**fields), record(**fields)
    assert a is not b and a == b and not a != b and hash(a) == hash(b)
    assert {a: 1}[b] == 1
    assert a != tuple(fields.values()) and a != object()
    for name, other in others.items():
        changed = record(**{**fields, name: other})
        assert changed != a and not changed == a, name


def test_value_equality_is_written_once():
    """Only ``space.ValueRecord`` defines ``__eq__`` or ``__hash__``, and the six value
    records, no more and no fewer, subclass it. A second copy of the rule fails here, and
    so does a subclass that defines ``__eq__`` alone, whose ``__hash__`` Python sets to
    None."""
    modules = [importlib.import_module(f"jensenlab.{m.name}")
               for m in pkgutil.iter_modules(jensenlab.__path__)]
    classes = {c for module in modules for c in vars(module).values()
               if inspect.isclass(c) and c.__module__ == module.__name__}
    assert space.ValueRecord in classes
    assert [c.__qualname__ for c in classes if c is not space.ValueRecord
            and {"__eq__", "__hash__"} & set(vars(c))] == []
    assert {c for c in classes if issubclass(c, space.ValueRecord)} - {space.ValueRecord} \
        == set(VALUE_RECORDS)


@pytest.mark.parametrize("build", [
    lambda: model.AdditiveCore.identity(2),
    lambda: model.Perturbation.power(0.1, 0.5),
    lambda: model.scalar_offset_function(0.5),
    lambda: bounds.ControlFunction.power(1.0, 0.5),
    lambda: inequality.MeasuredEnvelope(np.ones(2), np.zeros(1), np.zeros(1)),
], ids=["AdditiveCore", "Perturbation", "TestFunction", "ControlFunction", "MeasuredEnvelope"])
def test_other_records_compare_by_identity(build):
    a, b = build(), build()
    assert a == a and a != b and hash(a) != hash(b)


@pytest.mark.parametrize("build, error, message", [
    (lambda: space.NormedSpace(0), ValueError, "dim must be a positive integer, got 0"),
    (lambda: space.NormedSpace(2, "l3"), ValueError,
     "norm_kind must be one of ('l1', 'l2', 'linf'), got 'l3'"),
    (lambda: space.SamplePlan(-1, 1, 1.0), ValueError, "seed must be nonnegative, got -1"),
    (lambda: space.SamplePlan(2 ** 64, 1, 1.0), ValueError,
     "seed must be < 2^64, got 18446744073709551616"),
    (lambda: model.AdditiveCore.random(2, -1), ValueError, "seed must be nonnegative, got -1"),
    (lambda: model.Perturbation.power(1.0, 0.5, 2 ** 64), ValueError,
     "direction_seed must be < 2^64, got 18446744073709551616"),
    (lambda: space.SamplePlan(0, -1, 1.0), ValueError, "count must be nonnegative, got -1"),
    (lambda: space.SamplePlan(0, 1, 1.0, 1.0), ValueError,
     "need radius > exclude_origin_below >= 0, got radius=1.0, exclude_origin_below=1.0"),
    (lambda: model.AdditiveCore("diagonal", np.eye(1)), ValueError,
     "core kind must be one of ('complex_linear', 'real_linear'), got 'diagonal'"),
    (lambda: model.Perturbation("linear"), ValueError,
     "perturbation kind must be one of ('none', 'bounded', 'power', 'tabulated')"),
    (lambda: model.Perturbation(direction="axial"), ValueError,
     "direction must be one of ('hashed', 'radial')"),
    (lambda: direct_method.Scheme("sideways", 2.0), ValueError,
     "direction must be one of ('forward', 'backward'), got 'sideways'"),
    (lambda: direct_method.Scheme("forward", -1.0), DegenerateScaleError,
     "degenerate-scale: scale must be finite with |scale| not in {0, 1}, got -1.0"),
    (lambda: inequality.RhoParams("C", 0.0, 0.0, 1.0), FamilyError,
     "family: expected one of ('A', 'B'), got 'C'"),
    (lambda: bounds.ControlFunction("linear"), ValueError,
     "control kind must be one of ('zero', 'power', 'tabulated', 'measured')"),
    (lambda: bounds.ControlFunction("power", theta=-1.0), ValueError,
     "power control needs theta >= 0"),
    # a series' checks of its (params, scheme, control) cell and of the run's trunc_terms
    (lambda: phi_tilde_norms((inequality.RhoParams("A", 0.0, 0.0, 1.0),
                              direct_method.Scheme("forward", 3.0), ZERO), [1.0]), FamilyError,
     "family: family-A series are dyadic (|scale| = 2), got scale 3.0"),
    (lambda: phi_tilde_norms((inequality.RhoParams("A", 0.0, 0.0, 1.0), FWD2, ZERO), [1.0], 0),
     ValueError, "trunc_terms must be >= 1"),
    (lambda: phi_tilde_norms((inequality.RhoParams("A", 0.0, 0.0, 0.0), FWD2, ZERO), [1.0]),
     DegenerateParameterError, "degenerate-parameter: alpha = 0"),
])
def test_constructors_check_their_fields(build, error, message):
    with pytest.raises(error) as raised:
        build()
    assert type(raised.value) is error and str(raised.value) == message
