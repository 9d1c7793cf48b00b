"""The truncation at N, one set behind every module: `MonoidCtx.in_truncation`
decides it, `weight_universe` enumerates it, and the arithmetic of series and
tables never leaves it, so `op_apply` finds an image for every term."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nseries import (
    ExponentAut,
    HahnPoly,
    MonoidCtx,
    OpTable,
    apply_oaut,
    op_apply,
    op_compose,
    op_exp,
    op_log,
    weight_universe,
)
from nseries.samples import random_contracting_derivation, random_contracting_table, random_hahn
from nseries.textio import format_ctx

CONTEXTS = (
    MonoidCtx.lex(1), MonoidCtx.lex(2), MonoidCtx.product(2), MonoidCtx.product(3),
    MonoidCtx.weighted(1, 2), MonoidCtx.weighted(2, 1, 3),
)


@pytest.mark.parametrize("bound", range(5))
@pytest.mark.parametrize("ctx", CONTEXTS, ids=format_ctx)
def test_the_weight_universe_is_the_predicate_set(ctx, bound):
    box = itertools.product(range(-2, bound + 2), repeat=ctx.dim)
    assert {m for m in box if ctx.in_truncation(m, bound)} == set(weight_universe(ctx, bound))


@st.composite
def boxed_exponents(draw):
    """A context, a bound N in 0-4 and an exponent of the box [-2, N+1]^d."""
    ctx, bound = draw(st.sampled_from(CONTEXTS)), draw(st.integers(0, 4))
    return ctx, bound, draw(st.tuples(*[st.integers(-2, bound + 1)] * ctx.dim))


@given(boxed_exponents())
def test_in_truncation_is_membership_in_the_weight_universe(case):
    ctx, bound, m = case
    assert ctx.in_truncation(m, bound) == (m in weight_universe(ctx, bound))


def _inside(x) -> bool:
    """Every exponent of a series, or of every image of a table, lies in its truncation."""
    series = x.images.values() if isinstance(x, OpTable) else (x,)
    return all(x.ctx.in_truncation(m, x.bound) for s in series for m in s.terms)


# Exponent maps that keep the truncation of their context.
KEEPERS = {
    MonoidCtx.product(2): ((0, 1), (1, 0)),
    MonoidCtx.product(3): ((0, 0, 1), (1, 0, 0), (0, 1, 0)),
}


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(CONTEXTS), st.integers(0, 4), st.integers(0, 2**32))
def test_the_kernel_never_leaves_the_truncation(ctx, bound, seed):
    rng = random.Random(seed)
    a, b = random_hahn(rng, ctx, bound), random_hahn(rng, ctx, bound)
    table = random_contracting_table(rng, ctx, bound)
    d = random_contracting_derivation(rng, ctx, bound)
    s = op_exp(d)
    mu = ExponentAut(ctx, KEEPERS.get(ctx, ctx.generators()))
    results = (
        a * b, a.lin_comb(((3, a), (-2, b))), op_apply(table, a), op_apply(s, b),
        op_compose(table, s), apply_oaut(mu, a), s, op_log(s), op_log(s + table),
    )
    assert all(_inside(x) for x in results)
    assert {m: op_apply(s, HahnPoly.monomial(ctx, bound, m)) for m in s.basis()} == s.images
