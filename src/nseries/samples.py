"""Seeded generators for test corpora: series, derivations, automorphisms.

`derivation_from_generator_images` and `substitution_endomorphism` are the
generator-walk extensions of `nseries.operators`, imported here by name.
"""

from __future__ import annotations

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
        out[()] = constant
    return FreeSeries(alphabet_size, grade, out)


def random_hahn(rng: random.Random, ctx: MonoidCtx, bound: int, terms: int = 5) -> HahnPoly:
    universe = weight_universe(ctx, bound)
    out = {}
    for _ in range(terms):
        out[rng.choice(universe)] = random_fraction(rng)
    return HahnPoly(ctx, bound, out)


def _strictly_above(ctx: MonoidCtx, bound: int, m: ExpVec) -> list[ExpVec]:
    return [q for q in weight_universe(ctx, bound) if in_contracting_cone(ctx, m, q)]


def _raising_terms(rng: random.Random, ctx: MonoidCtx, bound: int, m: ExpVec) -> dict:
    """DENSITY random coefficients on exponents drawn from the contracting cone above m."""
    cands = _strictly_above(ctx, bound, m)
    return {q: random_fraction(rng) for q in rng.sample(cands, min(DENSITY, len(cands)))}


def random_contracting_table(rng: random.Random, ctx: MonoidCtx, bound: int) -> OpTable:
    """Random strongly linear table with strictly raising images."""
    return OpTable.from_function(
        ctx, bound, lambda m: HahnPoly(ctx, bound, _raising_terms(rng, ctx, bound, m))
    )


def random_contracting_derivation(rng: random.Random, ctx: MonoidCtx, bound: int) -> OpTable:
    gen_images = {
        i: HahnPoly(ctx, bound, _raising_terms(rng, ctx, bound, g))
        for i, g in enumerate(ctx.generators())
    }
    return derivation_from_generator_images(ctx, bound, gen_images)


def random_substitution_automorphism(rng: random.Random, ctx: MonoidCtx, bound: int) -> OpTable:
    """Near-identity substitution: each generator in the basis maps to itself
    plus higher terms; a generator above the bound has no image to draw."""
    gen_images = {
        i: HahnPoly(ctx, bound, {g: Fraction(1), **_raising_terms(rng, ctx, bound, g)})
        for i, g in enumerate(ctx.generators())
        if g in weight_universe(ctx, bound)
    }
    return substitution_endomorphism(ctx, bound, gen_images)


def random_character(rng: random.Random, ctx: MonoidCtx) -> CharacterX:
    return CharacterX(ctx, tuple(nonzero_fraction(rng) for _ in range(ctx.dim)))


def random_additive_char(rng: random.Random, ctx: MonoidCtx) -> AdditiveChar:
    return AdditiveChar(ctx, tuple(random_fraction(rng) for _ in range(ctx.dim)))
