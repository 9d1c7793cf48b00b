"""Exponential/logarithm correspondence between derivations and automorphisms.

For a contracting derivation d, exp(d) = sum d^[n]/n! is a unital algebra
endomorphism close to the identity; conversely log(s) = sum (-1)^(n+1)/n
(s - Id)^[n] recovers a contracting derivation, and the two maps invert one
another exactly at the truncation.  The induced group law on derivations is
computed as star(d1, d2) = log(exp d1 o exp d2); evaluating the BCH series at
(d1, d2) is its oracle in `verify` and the tests.

Each public entry checks its inputs once.  The unchecked bodies `_exp` and
`_log` then run on the tables that are contracting by construction: sums and
compositions of contracting tables, their scalar multiples, and exp d - Id.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from .errors import NotContractingError
from .free_algebra import nilpotent_sum
from .operators import (
    OpTable,
    op_bracket,
    op_compose,
    op_evaluate,
    op_geometric_inverse,
    op_is_contracting,
    op_is_unital_endomorphism,
)
from .series_calculus import series_E0, series_L0


def _require_contracting(table: OpTable, role: str) -> None:
    chk = op_is_contracting(table)
    if not chk:
        raise NotContractingError(
            f"{role} is not contracting at basis pair {chk.witness}", witness=chk.witness
        )


def _exp(d: OpTable) -> OpTable:
    """The Taylor sum of `op_exp`, for a table its caller has checked is contracting."""
    return nilpotent_sum(series_E0(d.bound), d, OpTable.identity(d.ctx, d.bound), op_compose)


def op_exp(d: OpTable) -> OpTable:
    """Taylor exponential sum_{n <= N} d^[n] / n! of a contracting table."""
    _require_contracting(d, "exponential argument")
    return _exp(d)


def op_exp_via_series(d: OpTable) -> OpTable:
    """Exponential through series evaluation; must agree with op_exp."""
    return op_evaluate(series_E0(d.bound), (d,))


def _log(eps: OpTable) -> OpTable:
    """The Taylor sum of `op_log` at Id + eps, for an eps its caller has checked is contracting."""
    ident = OpTable.identity(eps.ctx, eps.bound)
    return nilpotent_sum(series_L0(eps.bound), eps, ident, op_compose)


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
    return _log(op_compose(_exp(d1), _exp(d2)) - OpTable.identity(d1.ctx, d1.bound))


def fractional_iterate(s: OpTable, c) -> OpTable:
    """The iterate exp(c log s) for any exact rational exponent c.

    Requires s to be a unital endomorphism with s - Id contracting; iterates
    compose additively in c and commute with s.  c log s is contracting by
    construction, so only s is checked.
    """
    chk = op_is_unital_endomorphism(s)
    if not chk:
        raise NotContractingError(
            f"fractional iteration needs a unital endomorphism; failed at {chk.witness}",
            witness=chk.witness,
        )
    return _exp(op_log(s).scale(Fraction(c)))


@dataclass(frozen=True)
class DerAutPair:
    """A contracting derivation together with its exponential.

    Construction validates both directions of the correspondence, so a held
    pair always satisfies exp(derivation) = automorphism and log back.
    """

    derivation: OpTable
    automorphism: OpTable

    def __post_init__(self):
        if op_exp(self.derivation) != self.automorphism:
            raise NotContractingError("automorphism is not the exponential of the derivation")
        if op_log(self.automorphism) != self.derivation:
            raise NotContractingError("derivation is not the logarithm of the automorphism")

    @classmethod
    def from_derivation(cls, d: OpTable) -> "DerAutPair":
        return cls(d, op_exp(d))

    @classmethod
    def from_automorphism(cls, s: OpTable) -> "DerAutPair":
        return cls(op_log(s), s)


def conjugation_morphism(rho: OpTable) -> Callable[[OpTable], OpTable]:
    """The Lie-algebra morphism d -> rho o d o rho^(-1)."""
    rho_inv = op_geometric_inverse(rho)
    return lambda d: op_compose(op_compose(rho, d), rho_inv)


def lie_morphism_defect(
    phi: Callable[[OpTable], OpTable], d1: OpTable, d2: OpTable
) -> OpTable:
    """phi([d1, d2]) - [phi d1, phi d2]; zero exactly for Lie morphisms."""
    return phi(op_bracket(d1, d2)) - op_bracket(phi(d1), phi(d2))


def push_morphism(
    phi: Callable[[OpTable], OpTable], d: OpTable
) -> tuple[OpTable, OpTable]:
    """Push a contracting derivation through a Lie morphism at group level.

    Returns (exp d, exp phi(d)) after verifying that phi(d) is contracting
    and that transporting exp d through log, phi and exp lands on the same
    automorphism.  d and both images under phi are checked, since phi is
    caller code; exp d - Id is contracting by construction.
    """
    _require_contracting(d, "derivation")
    fd = phi(d)
    _require_contracting(fd, "morphism image")
    sigma_in = _exp(d)
    sigma_out = _exp(fd)
    if op_exp(phi(_log(sigma_in - OpTable.identity(d.ctx, d.bound)))) != sigma_out:
        raise NotContractingError("morphism does not commute with the exponential")
    return sigma_in, sigma_out
