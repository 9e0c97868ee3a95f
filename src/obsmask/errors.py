"""Exception hierarchy for obsmask."""


class ObsMaskError(Exception):
    """Base class for all obsmask errors."""


class ValidationError(ObsMaskError, ValueError):
    """An input failed a precondition check."""


class NotHermitianError(ValidationError):
    """Matrix is not Hermitian within tolerance."""


class NotUnitTraceError(ValidationError):
    """Matrix trace differs from 1 beyond tolerance."""


class NotNormalizedError(ValidationError):
    """Vector norm differs from 1 beyond tolerance."""


class NotOrthonormalError(ValidationError):
    """Vector family is not orthonormal within tolerance."""


class NotUnitaryError(ValidationError):
    """Matrix is not unitary within tolerance."""


class NotUnitVectorError(ValidationError):
    """Real vector does not have unit length within tolerance."""


class DimensionMismatchError(ValidationError):
    """Operand dimensions are incompatible."""


class InconsistentDimensionsError(ValidationError):
    """Vector families disagree on dimension."""


class InvalidChannelError(ValidationError):
    """Kraus family violates trace preservation."""


class InvalidStateError(ValidationError):
    """Matrix is not a valid density matrix.

    Carries ``witness``: for a matrix refused for a negative eigenvalue, the
    unit eigenvector v of its least eigenvalue, so <v|rho|v> < 0 can be
    checked with one product; None for every other refusal.
    """

    def __init__(self, message: str, witness=None):
        super().__init__(message)
        self.witness = witness


class BadSpectrumError(ValidationError):
    """Probability vector is not nonnegative and normalized."""


class NumericalFailureError(ObsMaskError):
    """An underlying numerical routine did not converge."""


class NotMaskableError(ObsMaskError):
    """Requested a masker for an observable that has none."""


class InconsistentConstraintsError(ObsMaskError):
    """No single coefficient vector satisfies all masking constraints."""


class IdenticalPointsError(ValidationError):
    """The two points coincide within tolerance."""


class NoAffineSolutionError(ObsMaskError):
    """The linear masking constraints are mutually inconsistent."""


class InfeasibleError(ObsMaskError):
    """Feasibility search found no common output state.

    Carries ``residual``, the final distance between the constraint sets.
    """

    def __init__(self, message: str, residual: float):
        super().__init__(message)
        self.residual = residual


class ParseError(ObsMaskError, ValueError):
    """Malformed input file.

    Carries ``line`` and ``column`` (1-based) of the offending token, and
    ``source``, the name of the file read, which the message leads with once
    a reader that knows the file sets it.
    """

    source: str | None = None

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column

    def __str__(self) -> str:
        text = super().__str__()
        return text if self.source is None else f"{self.source}: {text}"
