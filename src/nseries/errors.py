"""Exception hierarchy shared by all nseries modules.

Every value rejection of the package is an `NSeriesError`, which is itself a
`ValueError`: a caller that catches `ValueError` keeps working, and each
boundary (the command line, the table and context parsers, `decompose_vaut`)
catches this one class.  A value of the wrong type (a float coefficient, a
non-integral exponent, an operand of the wrong class) is a `TypeError`
instead, never an `NSeriesError`.

`json_fields` and `json_terms` are the two rejection rules of JSON input,
shared by the series readers and the factor reader of the command line: a
missing field and a repeated term key are each a `ParseError` that names it.
"""

from __future__ import annotations


class NSeriesError(ValueError):
    """Base class of every value rejection raised by this package.

    A subclass names the failure where one fits; a rejection that none names
    (a bound below 0, an unknown suite, a matrix that is no order
    automorphism) raises this class itself.  Wrong types are `TypeError`s."""


class DimensionMismatchError(NSeriesError):
    """Operands live over different alphabets, contexts or bounds."""


class NotInIdealError(NSeriesError):
    """A substitution argument has a nonzero constant term."""


class WeightBoundError(NSeriesError):
    """A series term lies outside the truncation at N: a free word longer than
    N, or a Hahn exponent with a negative entry or a weight above N."""


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


def json_fields(data, what: str, *names) -> list:
    """data[name] for each of `names`, in order; a name that the JSON object
    `data` lacks is a ParseError "<what> has no field <name>"."""
    for name in names:
        if name not in data:
            raise ParseError(f"{what} has no field {name!r}")
    return [data[name] for name in names]


def json_terms(terms, key: str) -> dict:
    """{tuple(term[key]): term["coeff"]} over the JSON `terms` of a series, in
    their order.  A term without either field, or a key that an earlier term
    has, is a ParseError: a series' JSON names each key once, as a table file
    names each basis line once."""
    out: dict = {}
    for term in terms:
        k, coeff = json_fields(term, "series JSON term", key, "coeff")
        k = tuple(k)
        if k in out:
            raise ParseError(f"series JSON repeats the {key} {list(k)}")
        out[k] = coeff
    return out
