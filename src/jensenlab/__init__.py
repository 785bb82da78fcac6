"""jensenlab: desk-scale verification of Jensen rho-functional inequality stability.

The package builds additive approximants of perturbed test functions by the
direct method, evaluates inequality defects for two 3-variable families,
sums the series control bounds, and audits published closed-form constants
against derivation-consistent ones.
"""

from .bounds import (BoundAudit, ControlFunction, audit, constant_tag, convergence_predicate,
                     corollary_constant)
from .direct_method import (Approximants, ConvergenceReport, Scheme, additive_limit_check,
                            approximate, approximate_points, backward, forward,
                            uniqueness_crosscheck)
from .errors import JensenLabError
from .harness import RunReport, build_experiment, run_sweep, run_verify
from .inequality import RhoParams, admissible, measure_envelope
from .model import AdditiveCore, Perturbation, TestFunction, scalar_offset_function
from .space import NormedSpace, SamplePlan, Verdict, draw_samples

__version__ = "0.1.0"

__all__ = [
    "AdditiveCore", "Approximants", "BoundAudit", "ControlFunction", "ConvergenceReport",
    "JensenLabError", "NormedSpace", "Perturbation", "RhoParams", "RunReport", "SamplePlan",
    "Scheme", "TestFunction", "Verdict", "additive_limit_check", "admissible",
    "approximate", "approximate_points", "audit", "backward", "build_experiment",
    "constant_tag", "convergence_predicate", "corollary_constant", "draw_samples", "forward",
    "measure_envelope", "run_sweep", "run_verify", "scalar_offset_function",
    "uniqueness_crosscheck",
]
