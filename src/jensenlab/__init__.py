"""jensenlab: desk-scale verification of Jensen rho-functional inequality stability.

The package builds additive approximants of perturbed test functions by the
direct method, evaluates inequality defects for two 3-variable families,
sums the series control bounds, and audits published closed-form constants
against derivation-consistent ones.
"""

from .bounds import (
    BoundAudit,
    ControlFunction,
    PhiTilde,
    SeriesSpec,
    audit,
    constant_tag,
    convergence_predicate,
    corollary_constant,
    phi_tilde_norm,
)
from .direct_method import (
    Approximants, ConvergenceReport,
    Scheme,
    additive_limit_check,
    approximate,
    approximate_points,
    backward,
    forward,
    orbit_term,
    uniqueness_crosscheck,
)
from .errors import JensenLabError
from .harness import (
    RunReport,
    build_experiment,
    load_test_function,
    run_sweep,
    run_verify,
    write_report,
)
from .inequality import (
    Admissibility,
    DefectSample,
    MeasuredEnvelope,
    RhoParams,
    admissible,
    defect,
    measure_envelope,
)
from .model import (
    AdditiveCore,
    Perturbation,
    TestFunction,
    additivity_defect,
    evaluate,
    scalar_offset_function,
)
from .space import NormedSpace, SamplePlan, draw_samples

__version__ = "0.1.0"

__all__ = [
    "AdditiveCore", "Admissibility", "Approximants", "BoundAudit", "ControlFunction",
    "ConvergenceReport", "DefectSample", "JensenLabError", "MeasuredEnvelope",
    "NormedSpace", "Perturbation", "PhiTilde", "RhoParams", "RunReport",
    "SamplePlan", "Scheme", "SeriesSpec", "TestFunction",
    "additive_limit_check", "additivity_defect", "admissible", "approximate",
    "approximate_points", "audit", "backward", "build_experiment", "constant_tag",
    "convergence_predicate", "corollary_constant", "defect", "draw_samples",
    "evaluate", "forward", "load_test_function", "measure_envelope",
    "orbit_term", "phi_tilde_norm",
    "run_sweep", "run_verify", "scalar_offset_function",
    "uniqueness_crosscheck", "write_report",
]
