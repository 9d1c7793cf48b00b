"""The seeded samples at bounds that leave a generator outside the basis: a
substitution automorphism draws images only for the generators in the basis,
in the same rng order as before."""

import random
from fractions import Fraction

import pytest

from nseries import HahnPoly, MonoidCtx, one_aut_check, op_is_unital_endomorphism, weight_universe
from nseries import samples


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
