"""Exception hierarchy shared by all nseries modules."""

from __future__ import annotations


class NSeriesError(Exception):
    """Base class for every error raised by this package."""


class DimensionMismatchError(NSeriesError):
    """Operands live over different alphabets, contexts or bounds."""


class NotInIdealError(NSeriesError):
    """A substitution argument has a nonzero constant term."""


class WeightBoundError(NSeriesError):
    """A series term lies outside the truncation at N: an entry is negative or
    the weight exceeds N."""


class IncompleteTableError(NSeriesError):
    """An operator table's images do not match the basis: one is missing or extra."""


class WitnessError(NSeriesError):
    """A failed check that carries its counterexample as `witness`."""

    def __init__(self, message: str, witness=None):
        super().__init__(message)
        self.witness = witness


class NotAUnitError(WitnessError):
    """Inversion was requested for a non-invertible element or table."""


class NotContractingError(WitnessError):
    """A contracting operator was required; carries the offending pair."""


class NotUnitalEndomorphismError(WitnessError):
    """A unital endomorphism was required; carries "unit" or the failing pair."""


class ExtensivityError(WitnessError):
    """A choice operator produced a successor that is not strictly above."""


class TruncationOverflowError(NSeriesError):
    """An exponent relabeling sent a term outside the truncation at N: an entry
    became negative or the weight rose above N."""


class NotDecomposableError(WitnessError):
    """An operator table does not split into the three factor groups."""


class InconsistentExponentialError(NSeriesError):
    """Declared exponential values violate the homomorphism law."""


class ResourceLimitError(NSeriesError):
    """An exhaustive search exceeded its configured size cap."""


class ParseError(NSeriesError):
    """Syntax error in a series, table or context description."""

    def __init__(self, message: str, position: int | None = None):
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)
        self.position = position
