"""Seeded generators for test corpora: series, derivations, automorphisms.

`derivation_from_generator_images` and `substitution_endomorphism` are the
generator-walk extensions of `nseries.operators`, imported here by name.

The random series and tables draw exactly what checked builds of the same
draws would hold, from the same rng stream, at less cost.  The contracting
cone above each exponent of a truncation, and above each generator, in the
basis or not, is listed once per context and bound.  A drawn image is built
unchecked, with its zero coefficients dropped: its keys come from the cones
and its values are the Fractions of `random_fraction`.  So is a drawn table,
whose images cover the basis, and so is a drawn Hahn or free series, whose
keys come from the basis or are words over the alphabet within the grade; a
caller's constant term goes through `exact`.
"""

from __future__ import annotations

import functools
import operator
import random
from fractions import Fraction

from .hahn_series import HahnPoly
from .free_algebra import FreeSeries
from .operators import (
    OpTable,
    derivation_from_generator_images,
    in_contracting_cone,
    substitution_endomorphism,
)
from .sparse import exact
from .support_order import ExpVec, MonoidCtx, weight_universe
from .vaut_factors import AdditiveChar, CharacterX

# Terms drawn per image or generator image by the random tables below.
DENSITY = 2
# Random coefficients are n/d with |n| <= SPAN and 1 <= d <= DEN.
SPAN = 4
DEN = 4


def random_fraction(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-SPAN, SPAN), rng.randint(1, DEN))


def nonzero_fraction(rng: random.Random) -> Fraction:
    while True:
        f = random_fraction(rng)
        if f != 0:
            return f


def random_free_series(
    rng: random.Random,
    alphabet_size: int,
    grade: int,
    terms: int = 6,
    constant: Fraction | None = None,
) -> FreeSeries:
    out: dict[tuple[int, ...], Fraction] = {}
    for _ in range(terms):
        length = rng.randint(0 if constant is None else 1, grade)
        word = tuple(rng.randrange(alphabet_size) for _ in range(length))
        out[word] = random_fraction(rng)
    if constant is not None:
        out[()] = exact(constant)
    return _drawn(FreeSeries, (operator.index(alphabet_size), operator.index(grade)), out)


def random_hahn(rng: random.Random, ctx: MonoidCtx, bound: int, terms: int = 5) -> HahnPoly:
    universe = weight_universe(ctx, bound)
    out = {}
    for _ in range(terms):
        out[rng.choice(universe)] = random_fraction(rng)
    return _drawn(HahnPoly, (ctx, operator.index(bound)), out)


@functools.cache
def _cones(ctx: MonoidCtx, bound: int) -> dict[ExpVec, tuple[ExpVec, ...]]:
    """The contracting cone in the truncation at `bound` above each basis
    exponent and each generator, a generator above the bound included.  It is
    kept per context and bound, as `weight_universe` is, so each cone is a
    tuple that no caller can change."""
    universe = weight_universe(ctx, bound)
    return {m: tuple(q for q in universe if in_contracting_cone(ctx, m, q))
            for m in (*universe, *ctx.generators())}


def _raising_terms(rng: random.Random, ctx: MonoidCtx, bound: int, m: ExpVec) -> dict:
    """DENSITY random coefficients on exponents drawn from the contracting cone above m."""
    cands = _cones(ctx, operator.index(bound))[m]
    return {q: random_fraction(rng) for q in rng.sample(cands, min(DENSITY, len(cands)))}


def _drawn(cls, space: tuple, terms: dict):
    """The `cls` series of drawn `terms` in `space`, its zero coefficients dropped."""
    return cls._trusted(space, {q: c for q, c in terms.items() if c})


def random_contracting_table(rng: random.Random, ctx: MonoidCtx, bound: int) -> OpTable:
    """Random strongly linear table with strictly raising images."""
    universe = weight_universe(ctx, bound)
    space = (ctx, operator.index(bound))
    return OpTable._trusted(
        space, {m: _drawn(HahnPoly, space, _raising_terms(rng, ctx, bound, m)) for m in universe})


def random_contracting_derivation(rng: random.Random, ctx: MonoidCtx, bound: int) -> OpTable:
    space = (ctx, operator.index(bound))
    gen_images = {
        i: _drawn(HahnPoly, space, _raising_terms(rng, ctx, bound, g))
        for i, g in enumerate(ctx.generators())
    }
    return derivation_from_generator_images(ctx, bound, gen_images)


def random_substitution_automorphism(rng: random.Random, ctx: MonoidCtx, bound: int) -> OpTable:
    """Near-identity substitution: each generator in the basis maps to itself
    plus higher terms; a generator above the bound has no image to draw."""
    space = (ctx, operator.index(bound))
    gen_images = {
        i: _drawn(HahnPoly, space, {g: Fraction(1), **_raising_terms(rng, ctx, bound, g)})
        for i, g in enumerate(ctx.generators())
        if ctx.in_truncation(g, bound)
    }
    return substitution_endomorphism(ctx, bound, gen_images)


def random_character(rng: random.Random, ctx: MonoidCtx) -> CharacterX:
    return CharacterX(ctx, tuple(nonzero_fraction(rng) for _ in range(ctx.dim)))


def random_additive_char(rng: random.Random, ctx: MonoidCtx) -> AdditiveChar:
    return AdditiveChar(ctx, tuple(random_fraction(rng) for _ in range(ctx.dim)))
