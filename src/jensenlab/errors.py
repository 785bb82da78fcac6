"""Exception types shared across the package.

Every error carries a short machine-readable ``code``, which the CLI prints as
``error[<code>]``, and the CLI's ``exit_code`` for it: 2 for a parameter or
convergence outcome (a ``ParameterError``), 3 for any other error.
"""

from __future__ import annotations

EXIT_CODES = {}  # each error type's code -> its exit status, for an outcome named by its code


class JensenLabError(Exception):
    """Base class; ``code`` is a short stable identifier, ``exit_code`` the CLI's exit status."""

    code = "error"
    exit_code = 3

    def __init_subclass__(cls):
        if "code" in vars(cls):  # a type with a code of its own names an outcome
            EXIT_CODES[cls.code] = cls.exit_code


class ParameterError(JensenLabError):
    """A parameter or convergence outcome rather than a crash."""

    exit_code = 2


class DimensionError(JensenLabError):
    code = "dimension"


class ArityError(JensenLabError):
    code = "arity"


class FamilyError(ParameterError):
    code = "family"


class DegenerateParameterError(ParameterError):
    code = "degenerate-parameter"


class EmptySampleError(JensenLabError):
    code = "empty-sample"


class ScaleOverflowError(JensenLabError):
    code = "scale-overflow"


class NumericError(JensenLabError):
    code = "numeric"


class NotConvergedError(ParameterError):
    code = "not-converged"


class DivergentSeriesError(ParameterError):
    code = "divergent"


class InadmissibleError(ParameterError):
    code = "inadmissible"


class OutOfRegimeError(ParameterError):
    code = "out-of-regime"


class DegenerateScaleError(ParameterError):
    code = "degenerate-scale"


class SingularPointError(JensenLabError):
    code = "singular-point"


class ConfigError(JensenLabError, ValueError):
    code = "config"


class UnknownKeyError(ConfigError):
    code = "unknown-key"


class PairingError(ParameterError):
    """Family/scheme combination that the harness refuses without --force."""

    code = "pairing"


class StageFailure(JensenLabError):
    """Wraps a constituent error with the name of the failing pipeline stage."""

    def __init__(self, stage: str, error: JensenLabError):
        self.stage = stage
        self.error = error
        self.code, self.exit_code = error.code, error.exit_code
        super().__init__(f"{stage}: {error}")
