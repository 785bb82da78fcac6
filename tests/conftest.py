import numpy as np
import pytest

from jensenlab import (
    AdditiveCore,
    NormedSpace,
    Perturbation,
    TestFunction,
    scalar_offset_function,
)
from jensenlab.bounds import DEFAULT_TRUNC_TERMS, phi_tilde_cells
from jensenlab.model import evaluate_many


@pytest.fixture
def scalar_model():
    """f(x) = x + 0.5 on C^1 (identity core, constant tabulated offset)."""
    return scalar_offset_function(0.5)


def make_additive(dim=2, seed=0, kind="complex_linear", norm_kind="l2"):
    space = NormedSpace(dim, norm_kind)
    return TestFunction(space, AdditiveCore.random(dim, seed, kind), Perturbation.none())


def make_power(dim=2, theta=0.1, r=0.5, direction="hashed", seed=0, norm_kind="l2"):
    space = NormedSpace(dim, norm_kind)
    return TestFunction(space, AdditiveCore.identity(dim),
                        Perturbation.power(theta, r, direction_seed=seed,
                                           direction=direction))


def phi_tilde_norms(cell, norms, trunc_terms=DEFAULT_TRUNC_TERMS, printed_display=False):
    """phi_tilde_cells of one (params, scheme, control) cell as (values, tail, terms),
    raising its error."""
    values, (tail,), terms, (error,) = phi_tilde_cells([cell], norms, trunc_terms,
                                                       printed_display)
    if error is not None:
        raise error
    return values[0], tail, terms[0]


def additivity_defect(f, x, y):
    """||f(x+y) - f(x) - f(y)|| in the function's own space."""
    x, y = f.space.as_vectors([x, y])
    fxy, fx, fy = evaluate_many(f, [x + y, x, y])
    return f.space.norm(fxy - fx - fy)
