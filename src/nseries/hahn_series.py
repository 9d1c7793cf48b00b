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

from .errors import WeightBoundError
from .sparse import SparseSeries
from .support_order import Cmp, ExpVec, MonoidCtx, vec_add


@dataclass(frozen=True)
class HahnPoly(SparseSeries):
    ctx: MonoidCtx
    bound: int
    terms: dict = field(default_factory=dict)

    _MISMATCH = "series live over different contexts or bounds"

    def __post_init__(self):
        object.__setattr__(self, "bound", operator.index(self.bound))
        if self.bound < 0:
            raise ValueError("weight bound must be >= 0")
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
        return set(self.terms)

    # -- arithmetic ---------------------------------------------------

    def __mul__(self, other: "HahnPoly") -> "HahnPoly":
        """Convolution product; terms of weight above the bound are discarded."""
        return self._product(other, vec_add)


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
    targets = [e for e, _ in w.sorted_terms()]
    for p in sorted(v.terms):
        hit = next((q for q in targets if v.ctx.cmp(p, q) is Cmp.GREATER), None)
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
    c = data["ctx"]
    ctx = MonoidCtx(c["dim"], c["kind"], tuple(c["weights"]))
    terms = {tuple(t["exps"]): t["coeff"] for t in data["terms"]}
    return HahnPoly(ctx, data["bound"], terms)
