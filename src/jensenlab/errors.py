"""Exception types shared across the package.

Every error carries a short machine-readable ``code`` used by the CLI to map
failures onto exit codes (see ``jensenlab.cli``).
"""

from __future__ import annotations


class JensenLabError(Exception):
    """Base class; ``code`` is a short stable identifier."""

    code = "error"


class DimensionError(JensenLabError):
    code = "dimension"


class ArityError(JensenLabError):
    code = "arity"


class FamilyError(JensenLabError):
    code = "family"


class DegenerateParameterError(JensenLabError):
    code = "degenerate-parameter"


class EmptySampleError(JensenLabError):
    code = "empty-sample"


class ScaleOverflowError(JensenLabError):
    code = "scale-overflow"


class NumericError(JensenLabError):
    code = "numeric"


class NotConvergedError(JensenLabError):
    code = "not-converged"


class DivergentSeriesError(JensenLabError):
    code = "divergent"


class InadmissibleError(JensenLabError):
    code = "inadmissible"


class OutOfRegimeError(JensenLabError):
    code = "out-of-regime"


class DegenerateScaleError(JensenLabError):
    code = "degenerate-scale"


class SingularPointError(JensenLabError):
    code = "singular-point"


class ConfigError(JensenLabError, ValueError):
    code = "config"


class UnknownKeyError(ConfigError):
    code = "unknown-key"


class PairingError(JensenLabError):
    """Family/scheme combination that the harness refuses without --force."""

    code = "pairing"


class StageFailure(JensenLabError):
    """Wraps a constituent error with the name of the failing pipeline stage."""

    def __init__(self, stage: str, error: JensenLabError):
        self.stage = stage
        self.error = error
        self.code = error.code
        super().__init__(f"{stage}: {error}")
