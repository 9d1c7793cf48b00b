"""Seeded generators for test corpora: series, derivations, automorphisms.

`derivation_from_generator_images` and `substitution_endomorphism` are the
generator-walk extensions of `nseries.operators`, imported here by name.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .hahn_series import HahnPoly
from .free_algebra import FreeSeries
from .operators import OpTable, derivation_from_generator_images, substitution_endomorphism
from .support_order import Cmp, ExpVec, MonoidCtx, weight_universe
from .vaut_factors import AdditiveChar, CharacterX


def random_fraction(rng: random.Random, span: int = 4, den: int = 4) -> Fraction:
    return Fraction(rng.randint(-span, span), rng.randint(1, den))


def nonzero_fraction(rng: random.Random, span: int = 4, den: int = 4) -> Fraction:
    while True:
        f = random_fraction(rng, span, den)
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
        out[()] = Fraction(constant)
    return FreeSeries(alphabet_size, grade, out)


def random_hahn(rng: random.Random, ctx: MonoidCtx, bound: int, terms: int = 5) -> HahnPoly:
    universe = weight_universe(ctx, bound)
    out = {}
    for _ in range(terms):
        out[rng.choice(universe)] = random_fraction(rng)
    return HahnPoly(ctx, bound, out)


def _strictly_above(ctx: MonoidCtx, bound: int, m: ExpVec) -> list[ExpVec]:
    wm = ctx.weight(m)
    return [
        q
        for q in weight_universe(ctx, bound)
        if ctx.weight(q) >= wm + 1 and ctx.cmp(m, q) is Cmp.LESS
    ]


def random_contracting_table(
    rng: random.Random, ctx: MonoidCtx, bound: int, density: int = 2
) -> OpTable:
    """Random strongly linear table with strictly raising images."""

    def image(m):
        cands = _strictly_above(ctx, bound, m)
        picks = rng.sample(cands, min(density, len(cands))) if cands else []
        return HahnPoly(ctx, bound, {q: random_fraction(rng) for q in picks})

    return OpTable.from_function(ctx, bound, image)


def random_contracting_derivation(
    rng: random.Random, ctx: MonoidCtx, bound: int, density: int = 2
) -> OpTable:
    gen_images = {}
    gens = [tuple(int(i == j) for j in range(ctx.dim)) for i in range(ctx.dim)]
    for i, g in enumerate(gens):
        cands = _strictly_above(ctx, bound, g)
        picks = rng.sample(cands, min(density, len(cands))) if cands else []
        gen_images[i] = HahnPoly(ctx, bound, {q: random_fraction(rng) for q in picks})
    return derivation_from_generator_images(ctx, bound, gen_images)


def random_substitution_automorphism(
    rng: random.Random, ctx: MonoidCtx, bound: int, density: int = 2
) -> OpTable:
    """Near-identity substitution: each generator maps to itself plus higher terms."""
    gens = [tuple(int(i == j) for j in range(ctx.dim)) for i in range(ctx.dim)]
    gen_images = {}
    for i, g in enumerate(gens):
        higher = _strictly_above(ctx, bound, g)
        picks = rng.sample(higher, min(density, len(higher))) if higher else []
        terms = {g: Fraction(1)}
        for q in picks:
            terms[q] = random_fraction(rng)
        gen_images[i] = HahnPoly(ctx, bound, terms)
    return substitution_endomorphism(ctx, bound, gen_images)


def random_character(rng: random.Random, ctx: MonoidCtx) -> CharacterX:
    return CharacterX(ctx, tuple(nonzero_fraction(rng) for _ in range(ctx.dim)))


def random_additive_char(rng: random.Random, ctx: MonoidCtx) -> AdditiveChar:
    return AdditiveChar(ctx, tuple(random_fraction(rng) for _ in range(ctx.dim)))
