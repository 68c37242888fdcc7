"""Exception types shared across the package."""


class SusimError(Exception):
    """Base class for package-specific errors."""


class DimensionMismatch(SusimError):
    """Matrix or block dimensions are inconsistent."""


class NotHermitian(SusimError):
    """Input expected to be Hermitian is not, beyond tolerance."""


class NotMultipleOfUnitary(SusimError):
    """Input expected to be a scalar multiple of a unitary is not."""


class NumericalFailure(SusimError):
    """A numerical routine failed to converge or to meet its postcondition."""


class InternalInconsistency(SusimError):
    """An invariant the solver relies on was observed to fail."""


class SpecInvalid(SusimError):
    """A requested instance or configuration is unsatisfiable."""


class OutOfScope(SusimError):
    """The small-case decider was asked about a case it does not cover."""


class FormatError(SusimError):
    """A JSON instance, result or feature file is malformed."""
