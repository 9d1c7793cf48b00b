"""Ordered exponent monoids and effective order utilities.

Exponents are integer tuples.  A context fixes the dimension, one of three
translation-invariant partial orders (lexicographic, componentwise product,
weight-then-lex) and an additive weight used for truncation bookkeeping.
`MonoidCtx.cmp` is the checked comparison of the public API: it validates
both exponents and names the relation.  `MonoidCtx.less(a, b)` is the strict
order alone, for exponents already validated (series keys, table bases): the
test is chosen once per context when it is built, `a < b` for lex,
`(w(a), a) < (w(b), b)` for weighted and `a != b and all(map(le, a, b))` for
the product order, so a loop over keys pays for no check and no dispatch.
`MonoidCtx.generators` gives the unit vectors e_i to every module, and
`operator.index` rejects a non-integral exponent, weight or dimension with
TypeError.  `MonoidCtx.in_truncation` is the one membership test of the
truncation at N, the exponents with nonnegative entries and weight <= N:
series keys, table bases (`weight_universe` enumerates exactly its set),
relabeled exponents and parsed basis lines are all checked through it.
"""

from __future__ import annotations

import enum
import functools
import itertools
import operator
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from .errors import DimensionMismatchError, ExtensivityError, NSeriesError, ResourceLimitError

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
    return tuple(map(operator.add, a, b))


def vec_sub(a: ExpVec, b: ExpVec) -> ExpVec:
    return tuple(map(operator.sub, a, b))


def _product_less(a: ExpVec, b: ExpVec) -> bool:
    return a != b and all(map(operator.le, a, b))


def _weighted_less(weights: tuple[int, ...], a: ExpVec, b: ExpVec) -> bool:
    return (sum(map(operator.mul, weights, a)), a) < (sum(map(operator.mul, weights, b)), b)


@dataclass(frozen=True)
class MonoidCtx:
    """Exponent monoid Z^dim with a fixed order and additive weight.

    `less(a, b)`, the unchecked strict order, is set when the context is
    built; it is no dataclass field, so equality and hashing ignore it."""

    dim: int
    kind: str
    weights: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "dim", operator.index(self.dim))
        if self.dim < 1:
            raise NSeriesError("context dimension must be >= 1")
        if self.kind not in _KINDS:
            raise NSeriesError(f"unknown order kind {self.kind!r}")
        object.__setattr__(self, "weights", tuple(map(operator.index, self.weights)))
        if len(self.weights) != self.dim:
            raise DimensionMismatchError("weight vector length must match dimension")
        if any(w < 1 for w in self.weights):
            raise NSeriesError("weights must be positive integers")
        less = {LEX: operator.lt, PRODUCT: _product_less,
                WEIGHTED: functools.partial(_weighted_less, self.weights)}[self.kind]
        object.__setattr__(self, "less", less)

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
        return sum(map(operator.mul, self.weights, m))

    def in_truncation(self, m: ExpVec, bound: int) -> bool:
        """m lies in the truncation at `bound`: no negative entry, weight <= bound."""
        return min(m) >= 0 and self.weight(m) <= bound

    def cmp(self, a: ExpVec, b: ExpVec) -> Cmp:
        """The relation of a to b, both checked by `check_vec`."""
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
    less, elements = frag.ctx.less, frag.elements
    return {e for e in elements if not any(less(other, e) for other in elements)}


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
            if ctx.cmp(vecs[i], vecs[j]) in (Cmp.LESS, Cmp.EQUAL):
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
        raise NSeriesError("depth must be >= 0")
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
    """The truncation at `bound`, every m with `ctx.in_truncation(m, bound)`,
    sorted by weight, then lexicographically.

    Built once per context and bound; `operator.index` runs first, so a
    non-integral bound raises TypeError and never reaches the cache."""
    return _weight_universe(ctx, operator.index(bound))


@functools.cache
def _weight_universe(ctx: MonoidCtx, bound: int) -> tuple[ExpVec, ...]:
    if bound < 0:
        raise NSeriesError("bound must be >= 0")
    ranges = [range(0, bound // w + 1) for w in ctx.weights]
    cone = [v for v in itertools.product(*ranges) if ctx.in_truncation(v, bound)]
    return tuple(sorted(cone, key=lambda e: (ctx.weight(e), e)))
