"""Exception types shared across the package."""

from __future__ import annotations


class MftnError(Exception):
    """Base class for all package errors."""


class LegError(MftnError):
    """Unknown, duplicate, or mismatched tensor leg."""


class DimensionMismatchError(MftnError):
    """Contracted or composed objects have incompatible dimensions."""


class NotPositiveError(MftnError):
    """A matrix required to be positive semidefinite and nonzero is not, beyond tolerance."""


class BasisError(MftnError):
    """A candidate measurement basis violates an MF-basis invariant."""


class NonGroupBasisError(MftnError):
    """Operation requires a group basis but closure fails."""


class InadmissibleMapError(MftnError):
    """A partial Clifford map violates commutation or order conditions."""


class NonPrimeDimensionError(MftnError):
    """Clifford synthesis is only implemented for prime qudit dimension."""


class SymmetryError(MftnError):
    """A tensor fails a required push-through symmetry."""


class DefectStuckError(MftnError):
    """A measurement defect cannot be routed to the boundary."""

    def __init__(self, message: str, site=None, operator=None):
        super().__init__(message)
        self.site = site
        self.operator = operator


class NumericalRangeError(MftnError):
    """A computed quantity under- or overflowed the floating-point range, or a
    factorization of it did not converge."""


class SizeGuardError(MftnError):
    """Requested exhaustive computation exceeds the desk-scale guard."""


class BoundaryError(MftnError):
    """Unsupported boundary condition for this operation."""
