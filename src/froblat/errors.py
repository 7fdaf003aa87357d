"""Exception types shared across the package.

The CLI maps these onto exit codes: parameter/validation problems exit
with status 1, and Indeterminate (a verdict blocked by precision rather
than by mathematics) exits with status 2.
"""


class FroblatError(Exception):
    """Base class for all package errors."""


class InvalidParameter(FroblatError):
    """A constructor or operation received inconsistent parameters."""


class ZeroPrecision(FroblatError):
    """A value is indistinguishable from zero at its tracked precision."""


class DivisionByZero(FroblatError):
    """Inversion of an exact zero."""


class NonConvergent(FroblatError):
    """An infinite product does not stabilize degree by degree."""


class NotGenericallyOrdinary(FroblatError):
    """The non-ordinary equation vanishes up to the truncation order."""


class ThresholdExceedsTruncation(FroblatError):
    """A decay threshold lies beyond the series truncation order."""


class Indeterminate(FroblatError):
    """A verdict depends on a coefficient whose precision was exhausted:
    level n, t^k, row and known bound, each None where not known."""

    def __init__(self, message, n=None, k=None, row=None, bound=None):
        super().__init__(message)
        self.n, self.k, self.row, self.bound = n, k, row, bound


class NotFound(FroblatError):
    """No decaying submodule was certified; carries the falsifying data."""

    def __init__(self, message, falsifier=None):
        super().__init__(message)
        self.falsifier = falsifier


class NotPositiveDefinite(FroblatError):
    """Enumeration requires a positive-definite Gram matrix."""


class BadDiscriminant(FroblatError):
    """Kronecker character needs D = 0, 1 mod 4 and D != 0."""


class ChainNotNested(FroblatError):
    """A lattice chain failed the nesting or index validation."""
