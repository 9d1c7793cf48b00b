"""Ordered exponent monoids and effective order utilities.

Exponents are integer tuples.  A context fixes the dimension, one of three
translation-invariant partial orders (lexicographic, componentwise product,
weight-then-lex) and an additive weight used for truncation bookkeeping.
`MonoidCtx.generators` gives the unit vectors e_i to every module, and
`operator.index` rejects a non-integral exponent, weight or dimension with
TypeError.
"""

from __future__ import annotations

import enum
import itertools
import operator
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from .errors import DimensionMismatchError, ExtensivityError, ResourceLimitError

ExpVec = tuple[int, ...]

LEX = "lex"
PRODUCT = "product"
WEIGHTED = "weighted"
_KINDS = (LEX, PRODUCT, WEIGHTED)

# Largest fragment `max_antichain` searches; the branch search is exponential.
ANTICHAIN_CAP = 64


class Cmp(enum.Enum):
    LESS = "less"
    GREATER = "greater"
    EQUAL = "equal"
    INCOMPARABLE = "incomparable"


def vec_add(a: ExpVec, b: ExpVec) -> ExpVec:
    return tuple(x + y for x, y in zip(a, b))


def vec_sub(a: ExpVec, b: ExpVec) -> ExpVec:
    return tuple(x - y for x, y in zip(a, b))


@dataclass(frozen=True)
class MonoidCtx:
    """Exponent monoid Z^dim with a fixed order and additive weight."""

    dim: int
    kind: str
    weights: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "dim", operator.index(self.dim))
        if self.dim < 1:
            raise ValueError("context dimension must be >= 1")
        if self.kind not in _KINDS:
            raise ValueError(f"unknown order kind {self.kind!r}")
        object.__setattr__(self, "weights", tuple(map(operator.index, self.weights)))
        if len(self.weights) != self.dim:
            raise DimensionMismatchError("weight vector length must match dimension")
        if any(w < 1 for w in self.weights):
            raise ValueError("weights must be positive integers")

    @classmethod
    def lex(cls, dim: int) -> "MonoidCtx":
        return cls(dim, LEX, (1,) * dim)

    @classmethod
    def product(cls, dim: int) -> "MonoidCtx":
        return cls(dim, PRODUCT, (1,) * dim)

    @classmethod
    def weighted(cls, *weights: int) -> "MonoidCtx":
        return cls(len(weights), WEIGHTED, tuple(weights))

    def generators(self) -> tuple[ExpVec, ...]:
        """The unit vectors e_0, .., e_(dim-1) of the lattice."""
        return tuple(tuple(int(i == j) for j in range(self.dim)) for i in range(self.dim))

    def check_vec(self, v: Sequence[int]) -> ExpVec:
        v = tuple(map(operator.index, v))
        if len(v) != self.dim:
            raise DimensionMismatchError(
                f"exponent {v} has dimension {len(v)}, context expects {self.dim}"
            )
        return v

    def weight(self, m: ExpVec) -> int:
        return sum(w * x for w, x in zip(self.weights, m))

    def cmp(self, a: ExpVec, b: ExpVec) -> Cmp:
        a = self.check_vec(a)
        b = self.check_vec(b)
        if a == b:
            return Cmp.EQUAL
        if self.kind == LEX:
            return Cmp.LESS if a < b else Cmp.GREATER
        if self.kind == WEIGHTED:
            ka = (self.weight(a), a)
            kb = (self.weight(b), b)
            return Cmp.LESS if ka < kb else Cmp.GREATER
        le = all(x <= y for x, y in zip(a, b))
        ge = all(x >= y for x, y in zip(a, b))
        if le:
            return Cmp.LESS
        if ge:
            return Cmp.GREATER
        return Cmp.INCOMPARABLE

    def lt(self, a: ExpVec, b: ExpVec) -> bool:
        return self.cmp(a, b) is Cmp.LESS

    def leq(self, a: ExpVec, b: ExpVec) -> bool:
        return self.cmp(a, b) in (Cmp.LESS, Cmp.EQUAL)


def cmp(ctx: MonoidCtx, a: ExpVec, b: ExpVec) -> Cmp:
    return ctx.cmp(a, b)


@dataclass(frozen=True)
class FinitePosetFragment:
    ctx: MonoidCtx
    elements: frozenset

    @classmethod
    def of(cls, ctx: MonoidCtx, elements: Iterable[Sequence[int]]) -> "FinitePosetFragment":
        return cls(ctx, frozenset(ctx.check_vec(e) for e in elements))

    def sorted_elements(self) -> list[ExpVec]:
        return sorted(self.elements, key=lambda e: (self.ctx.weight(e), e))


def minimal_elements(frag: FinitePosetFragment) -> set[ExpVec]:
    """Elements of the fragment with no strictly smaller element in it."""
    ctx = frag.ctx
    out = set()
    for e in frag.elements:
        if not any(ctx.lt(other, e) for other in frag.elements if other != e):
            out.add(e)
    return out


def max_antichain(frag: FinitePosetFragment) -> set[ExpVec]:
    """A maximum-cardinality antichain, found by exhaustive branch search.

    Ties are broken by the deterministic element order, so the result is
    reproducible.  Fragments larger than ANTICHAIN_CAP are rejected.
    """
    elems = frag.sorted_elements()
    if len(elems) > ANTICHAIN_CAP:
        raise ResourceLimitError(
            f"fragment has {len(elems)} elements, exceeding the cap of {ANTICHAIN_CAP}"
        )
    ctx = frag.ctx
    best: list[ExpVec] = []

    def extend(idx: int, chosen: list[ExpVec]):
        nonlocal best
        if len(chosen) + (len(elems) - idx) <= len(best):
            return
        if idx == len(elems):
            if len(chosen) > len(best):
                best = list(chosen)
            return
        cand = elems[idx]
        if all(ctx.cmp(cand, c) is Cmp.INCOMPARABLE for c in chosen):
            chosen.append(cand)
            extend(idx + 1, chosen)
            chosen.pop()
        extend(idx + 1, chosen)

    extend(0, [])
    return set(best)


def convolution_pairs(
    ctx: MonoidCtx, m: Sequence[int], A: Iterable[Sequence[int]], B: Iterable[Sequence[int]]
) -> list[tuple[ExpVec, ExpVec]]:
    """All pairs (x, y) in A x B with x + y = m, in deterministic order."""
    m = ctx.check_vec(m)
    b_set = {ctx.check_vec(b) for b in B}
    out = []
    for x in sorted({ctx.check_vec(a) for a in A}):
        y = vec_sub(m, x)
        if y in b_set:
            out.append((x, y))
    return out


def find_good_pair(ctx: MonoidCtx, seq: Sequence[Sequence[int]]) -> tuple[int, int] | None:
    """Least (i, j) with i < j and seq[i] <= seq[j]; None if the sequence is bad."""
    vecs = [ctx.check_vec(v) for v in seq]
    for i in range(len(vecs)):
        for j in range(i + 1, len(vecs)):
            if ctx.leq(vecs[i], vecs[j]):
                return (i, j)
    return None


def choice_closure(
    ctx: MonoidCtx,
    start: Iterable[Sequence[int]],
    successors: Callable[[ExpVec], Iterable[Sequence[int]]],
    depth: int,
) -> list[tuple[ExpVec, ...]]:
    """Bounded closure of a strictly extensive choice operator.

    Returns every word (w_0, ..., w_m) with m < depth, w_0 in start and each
    w_{i+1} among successors(w_i), as a deterministically ordered list.  The
    operator must be strictly extensive on the reachable set: a successor q
    of p with not(p < q) aborts the expansion.
    """
    if depth < 0:
        raise ValueError("depth must be >= 0")
    words: list[tuple[ExpVec, ...]] = []
    frontier = [(ctx.check_vec(p),) for p in sorted(ctx.check_vec(q) for q in start)]
    level = 1
    while frontier and level <= depth:
        words.extend(frontier)
        nxt = []
        for word in frontier:
            p = word[-1]
            for q in sorted(ctx.check_vec(s) for s in successors(p)):
                if ctx.cmp(p, q) is not Cmp.LESS:
                    raise ExtensivityError(
                        f"successor {q} of {p} is not strictly greater", witness=(p, q)
                    )
                nxt.append(word + (q,))
        frontier = nxt
        level += 1
    return sorted(words, key=lambda w: (len(w), w))


def last_letter(word: tuple[ExpVec, ...]) -> ExpVec:
    return word[-1]


def closure_cmp(ctx: MonoidCtx, w1: tuple[ExpVec, ...], w2: tuple[ExpVec, ...]) -> Cmp:
    """Order induced on closure words by comparing last letters."""
    return ctx.cmp(last_letter(w1), last_letter(w2))


def weight_universe(ctx: MonoidCtx, bound: int) -> tuple[ExpVec, ...]:
    """All exponents in the nonnegative cone with weight <= bound, sorted."""
    if bound < 0:
        raise ValueError("bound must be >= 0")
    ranges = [range(0, bound // w + 1) for w in ctx.weights]
    cone = [
        v
        for v in itertools.product(*ranges)
        if ctx.weight(v) <= bound
    ]
    return tuple(sorted(cone, key=lambda e: (ctx.weight(e), e)))
