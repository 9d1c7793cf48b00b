"""Exponential/logarithm correspondence between derivations and automorphisms.

For a contracting derivation d, exp(d) = sum d^[n]/n! is a unital algebra
endomorphism close to the identity; conversely log(s) = sum (-1)^(n+1)/n
(s - Id)^[n] recovers a contracting derivation, and the two maps invert one
another exactly at the truncation.  The induced group law on derivations is
computed as star(d1, d2) = log(exp d1 o exp d2); evaluating the BCH series at
(d1, d2) is its oracle in `verify` and the tests.  The fractional iterate
s^c = (1 + eps)^c, eps = s - Id, is the binomial series evaluated at eps,
which equals exp(c log s) at the truncation.  Every one of these is one
one-variable series summed at a nilpotent table by
`free_algebra.nilpotent_sum`, with the table's own identity and composition.

Each public entry checks its inputs once.  The unchecked bodies `_exp` and
`_log` then run on the tables that are contracting by construction, such as
exp d1 o exp d2 - Id.  `push_morphism` checks d and phi(d), since phi is
caller code.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .errors import NotContractingError, NotUnitalEndomorphismError
from .free_algebra import nilpotent_sum
from .operators import (
    OpTable,
    op_bracket,
    op_evaluate,
    op_geometric_inverse,
    op_is_contracting,
    op_is_unital_endomorphism,
)
from .series_calculus import series_binomial, series_E0, series_L0


def _require_contracting(table: OpTable, role: str) -> None:
    op_is_contracting(table).require(
        NotContractingError, role + " is not contracting at basis pair {}"
    )


def _exp(d: OpTable) -> OpTable:
    """The Taylor sum of `op_exp`, for a table its caller has checked is contracting."""
    return nilpotent_sum(series_E0(d.bound), d)


def op_exp(d: OpTable) -> OpTable:
    """Taylor exponential sum_{n <= N} d^[n] / n! of a contracting table."""
    _require_contracting(d, "exponential argument")
    return _exp(d)


def op_exp_via_series(d: OpTable) -> OpTable:
    """Exponential through series evaluation; must agree with op_exp."""
    return op_evaluate(series_E0(d.bound), (d,))


def _log(eps: OpTable) -> OpTable:
    """The Taylor sum of `op_log` at Id + eps, for an eps its caller has checked is contracting."""
    return nilpotent_sum(series_L0(eps.bound), eps)


def op_log(s: OpTable) -> OpTable:
    """Logarithm sum_{1 <= n <= N} (-1)^(n+1)/n (s - Id)^[n].

    Requires s - Id to be contracting; when s is moreover a unital
    endomorphism, the result satisfies the Leibniz rule.
    """
    eps = s - OpTable.identity(s.ctx, s.bound)
    _require_contracting(eps, "logarithm argument minus identity")
    return _log(eps)


def op_log_via_series(s: OpTable) -> OpTable:
    """Logarithm through series evaluation; must agree with op_log."""
    return op_evaluate(series_L0(s.bound), (s - OpTable.identity(s.ctx, s.bound),))


def star(d1: OpTable, d2: OpTable) -> OpTable:
    """Group law on contracting tables: log(exp d1 o exp d2).

    Equal to the oracle op_evaluate(bch_product(N), (d1, d2)) for any contracting
    tables: log(exp X0 . exp X1) is the BCH series modulo words longer than N,
    and those vanish on contracting tables.  Each argument is checked once;
    exp d1 o exp d2 - Id is contracting by construction."""
    d1._require_same(d2)
    _require_contracting(d1, "left star argument")
    _require_contracting(d2, "right star argument")
    return _log(_exp(d1) * _exp(d2) - OpTable.identity(d1.ctx, d1.bound))


def fractional_iterate(s: OpTable, c) -> OpTable:
    """The iterate s^c = exp(c log s) for any exact rational exponent c.

    Requires s to be a unital endomorphism, else NotUnitalEndomorphismError,
    with s - Id contracting, else NotContractingError; iterates compose
    additively in c and commute with s.  Evaluated as the binomial series
    (1 + X0)^c at eps = s - Id: exp(c log(1 + X0)) = (1 + X0)^c in Q[[X0]],
    and eps^(N+1) = 0 at the truncation, so the sum is exact.
    """
    op_is_unital_endomorphism(s).require(
        NotUnitalEndomorphismError,
        "fractional iteration needs a unital endomorphism; failed at {}",
    )
    eps = s - OpTable.identity(s.ctx, s.bound)
    _require_contracting(eps, "iterate argument minus identity")
    return nilpotent_sum(series_binomial(c, s.bound), eps)


@dataclass(frozen=True)
class DerAutPair:
    """A contracting derivation together with its exponential.

    Construction checks exp(derivation) = automorphism, else
    NotContractingError, and that the automorphism is a unital endomorphism,
    else NotUnitalEndomorphismError.  For a contracting d, exp(d) is one
    exactly when d is a derivation, and log(exp d) = d at the truncation, so
    a held pair is a derivation, its exponential and its logarithm back.
    """

    derivation: OpTable
    automorphism: OpTable

    def __post_init__(self):
        if op_exp(self.derivation) != self.automorphism:
            raise NotContractingError("automorphism is not the exponential of the derivation")
        op_is_unital_endomorphism(self.automorphism).require(
            NotUnitalEndomorphismError, "automorphism is not a unital endomorphism; failed at {}"
        )

    @classmethod
    def from_derivation(cls, d: OpTable) -> "DerAutPair":
        return cls(d, op_exp(d))

    @classmethod
    def from_automorphism(cls, s: OpTable) -> "DerAutPair":
        return cls(op_log(s), s)


def conjugation_morphism(rho: OpTable) -> Callable[[OpTable], OpTable]:
    """The Lie-algebra morphism d -> rho o d o rho^(-1)."""
    rho_inv = op_geometric_inverse(rho)
    return lambda d: rho * d * rho_inv


def lie_morphism_defect(
    phi: Callable[[OpTable], OpTable], d1: OpTable, d2: OpTable
) -> OpTable:
    """phi([d1, d2]) - [phi d1, phi d2]; zero exactly for Lie morphisms."""
    return phi(op_bracket(d1, d2)) - op_bracket(phi(d1), phi(d2))


def push_morphism(
    phi: Callable[[OpTable], OpTable], d: OpTable
) -> tuple[OpTable, OpTable]:
    """Push a contracting derivation through a Lie morphism at group level.

    Returns (exp d, exp phi(d)) after checking that d and phi(d) are
    contracting, with one call of phi; phi is caller code, so its image is
    checked.  Transporting exp d through log, phi and exp lands on exp phi(d)
    by construction, since log(exp d) = d exactly at the truncation; the
    tests and `verify`'s correspondence.lie-morphism-transport step check the
    group law of the pushed pair.
    """
    _require_contracting(d, "derivation")
    fd = phi(d)
    _require_contracting(fd, "morphism image")
    return _exp(d), _exp(fd)
