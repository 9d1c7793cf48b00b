"""The seeded samples at bounds that leave a generator outside the basis: a
substitution automorphism draws images only for the generators in the basis,
in the same rng order as before.  The drawn contracting tables and
derivations, built unchecked from a table of fractions and one cone list per
truncation, equal checked builds of `randint` draws on freshly scanned cones,
in value, term order and text, and leave the rng in the same state.  So do
the drawn Hahn and free series, built unchecked with their zeros dropped."""

import random
from fractions import Fraction

import pytest

from nseries import (
    FreeSeries,
    HahnPoly,
    MonoidCtx,
    OpTable,
    one_aut_check,
    op_is_unital_endomorphism,
    weight_universe,
)
from nseries import samples
from nseries.operators import in_contracting_cone
from nseries.textio import format_op_table


@pytest.mark.parametrize(
    "ctx, bound",
    [(MonoidCtx.lex(1), 0), (MonoidCtx.weighted(1, 3), 2), (MonoidCtx.weighted(1, 3), 3)],
    ids=["lex:1 N=0", "weighted:1,3 N=2", "weighted:1,3 N=3"],
)
def test_substitution_automorphism_skips_generators_above_the_bound(ctx, bound):
    basis = weight_universe(ctx, bound)
    for seed in range(5):
        rng = random.Random(seed)
        sigma = samples.random_substitution_automorphism(rng, ctx, bound)
        assert op_is_unital_endomorphism(sigma)
        assert one_aut_check(sigma)
        # The draws are those of the generators in the basis, in generator order.
        replay = random.Random(seed)
        for g in ctx.generators():
            if g in basis:
                terms = samples._raising_terms(replay, ctx, bound, g)
                assert sigma.images[g] == HahnPoly(ctx, bound, {g: Fraction(1), **terms})
        assert rng.getstate() == replay.getstate()


def _checked_fraction(rng):
    """The draw of `samples.random_fraction` as two `randint` calls."""
    return Fraction(rng.randint(-samples.SPAN, samples.SPAN), rng.randint(1, samples.DEN))


def _checked_image(rng, ctx, bound, m):
    """DENSITY checked coefficients on the contracting cone above m, scanned afresh."""
    cone = [q for q in weight_universe(ctx, bound) if in_contracting_cone(ctx, m, q)]
    picks = rng.sample(cone, min(samples.DENSITY, len(cone)))
    return HahnPoly(ctx, bound, {q: _checked_fraction(rng) for q in picks})


DRAW_CONTEXTS = [MonoidCtx.lex(1), MonoidCtx.product(2), MonoidCtx.weighted(1, 2),
                 MonoidCtx.weighted(1, 3)]  # weighted:1,3 at N=2 leaves (0, 1) above the basis


@pytest.mark.parametrize("ctx", DRAW_CONTEXTS, ids=repr)
def test_drawn_tables_equal_checked_builds_of_the_same_draws(ctx):
    bound = 2
    for seed in range(50):
        rng, replay = random.Random(seed), random.Random(seed)
        table = samples.random_contracting_table(rng, ctx, bound)
        checked = OpTable.from_function(
            ctx, bound, lambda m: _checked_image(replay, ctx, bound, m))
        d = samples.random_contracting_derivation(rng, ctx, bound)
        gen_images = {i: _checked_image(replay, ctx, bound, g)
                      for i, g in enumerate(ctx.generators())}
        checked_d = samples.derivation_from_generator_images(ctx, bound, gen_images)
        for drawn, built in ((table, checked), (d, checked_d)):
            assert drawn == built
            assert [list(img.terms) for img in drawn.images.values()] == [
                list(img.terms) for img in built.images.values()]
            assert format_op_table(drawn) == format_op_table(built)
        # The series, the same draws through the checked constructors: a key
        # drawn twice keeps its first place and its last value, and a zero
        # coefficient, drawn or passed as the constant, is dropped.
        series = [samples.random_hahn(rng, ctx, bound, terms=seed % 7)]
        terms = {}
        for _ in range(seed % 7):  # the value is drawn before its exponent
            c = _checked_fraction(replay)
            terms[replay.choice(weight_universe(ctx, bound))] = c
        built_series = [HahnPoly(ctx, bound, terms)]
        for constant in (None, 0, Fraction(-3, 2), "2/3"):
            series.append(samples.random_free_series(rng, 2, bound, seed % 5, constant))
            terms = {}
            for _ in range(seed % 5):  # the word is drawn before its value
                word = _checked_word(replay, bound, constant)
                terms[word] = _checked_fraction(replay)
            if constant is not None:
                terms[()] = constant
            built_series.append(FreeSeries(2, bound, terms))
        for drawn, built in zip(series, built_series):
            assert drawn == built
            assert list(drawn.terms.items()) == list(built.terms.items())
        assert rng.getstate() == replay.getstate()


def _checked_word(rng, grade, constant):
    """A word over two letters as `samples.random_free_series` draws it."""
    length = rng.randint(0 if constant is None else 1, grade)
    return tuple(rng.randrange(2) for _ in range(length))
