"""Truncated Hahn/Noetherian series over an ordered exponent monoid.

A series is a sparse map from exponent vectors to exact rationals; every
stored exponent lies in the truncation at N (`MonoidCtx.in_truncation`):
nonnegative entries and weight <= N, the basis of an operator table at N.
The truncation is closed under sums, and because the weight is additive and
nonnegative, multiplication is exact modulo the ideal of weights above N.
The arithmetic is the shared kernel of `nseries.sparse`, with exponents as
keys, the context weight as grade and vector addition as key product.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from typing import Iterable, Mapping

from .errors import NSeriesError, WeightBoundError, json_fields, json_terms
from .sparse import SparseSeries
from .support_order import ExpVec, MonoidCtx, vec_add


@dataclass(frozen=True, eq=False)
class HahnPoly(SparseSeries):
    ctx: MonoidCtx
    bound: int
    terms: dict = field(default_factory=dict)

    _MISMATCH = "series live over different contexts or bounds"
    _key_mul = staticmethod(vec_add)

    def __post_init__(self):
        object.__setattr__(self, "bound", operator.index(self.bound))
        if self.bound < 0:
            raise NSeriesError("weight bound must be >= 0")
        self._canonicalise()

    def _space(self) -> tuple[MonoidCtx, int]:
        return self.ctx, self.bound

    def _check_key(self, exp) -> ExpVec:
        exp = self.ctx.check_vec(exp)
        if not self.ctx.in_truncation(exp, self.bound):
            raise WeightBoundError(
                f"exponent {exp} of weight {self.ctx.weight(exp)} lies outside the truncation"
                f" at N={self.bound}: a negative entry, or a weight outside [0, {self.bound}]"
            )
        return exp

    @property
    def _grade(self):
        return self.ctx.weight

    # -- constructors -------------------------------------------------

    @classmethod
    def one(cls, ctx: MonoidCtx, bound: int) -> "HahnPoly":
        return cls.monomial(ctx, bound, (0,) * ctx.dim)

    @classmethod
    def monomial(cls, ctx: MonoidCtx, bound: int, exp: Iterable[int], coeff=1) -> "HahnPoly":
        return cls(ctx, bound, {tuple(exp): coeff})

    # -- structure ----------------------------------------------------

    @property
    def support(self) -> set[ExpVec]:
        return set(self.keys())

    # -- arithmetic ---------------------------------------------------

    def __mul__(self, other: "HahnPoly") -> "HahnPoly":
        """Convolution product; terms of weight above the bound are discarded."""
        return self._product(other)


def hp_add(a: HahnPoly, b: HahnPoly) -> HahnPoly:
    return a + b


def hp_scale(c, a: HahnPoly) -> HahnPoly:
    return a.scale(c)


def hp_mul(a: HahnPoly, b: HahnPoly) -> HahnPoly:
    return a * b


def hp_prec(v: HahnPoly, w: HahnPoly) -> dict | None:
    """Dominance witness for v strictly below w, or None.

    v is dominated by w when w is nonzero and every exponent in the support
    of v strictly exceeds some exponent in the support of w; the returned map
    assigns such a witness to each support element of v.  The zero series is
    dominated by every nonzero series (empty witness); nothing dominates the
    zero series, and no nonzero series dominates itself.
    """
    v._require_same(w)
    if w.is_zero():
        return None
    witness: dict[ExpVec, ExpVec] = {}
    less = v.ctx.less
    targets = [e for e, _ in w.sorted_terms()]
    for p in sorted(v.keys()):
        hit = next((q for q in targets if less(q, p)), None)
        if hit is None:
            return None
        witness[p] = hit
    return witness


def hahn_to_json(a: HahnPoly) -> dict:
    return {
        "ctx": {"kind": a.ctx.kind, "dim": a.ctx.dim, "weights": list(a.ctx.weights)},
        "bound": a.bound,
        "terms": [{"exps": list(e), "coeff": str(c)} for e, c in a.sorted_terms()],
    }


def hahn_from_json(data: Mapping) -> HahnPoly:
    """The series `hahn_to_json` writes; a missing field, in the series or in
    its context, or a repeated exponent is a ParseError (`json_fields`,
    `json_terms`)."""
    c, bound, terms = json_fields(data, "series JSON", "ctx", "bound", "terms")
    dim, kind, weights = json_fields(c, "context JSON", "dim", "kind", "weights")
    return HahnPoly(MonoidCtx(dim, kind, tuple(weights)), bound, json_terms(terms, "exps"))
