"""The generator walk against its oracles: the one-pass derivation and
endomorphism predicates against the pairwise scans, and the Leibniz and
multiplicative extensions against the closed-form builders."""

import random

from hypothesis import example, given, settings
from hypothesis import strategies as st

from nseries import (
    HahnPoly,
    MonoidCtx,
    OpTable,
    gder_table,
    gexp_table,
    op_compose,
    op_exp,
    op_is_derivation,
    op_is_unital_endomorphism,
)
from nseries.samples import (
    derivation_from_generator_images,
    nonzero_fraction,
    random_additive_char,
    random_character,
    random_contracting_derivation,
    random_contracting_table,
    random_hahn,
    random_substitution_automorphism,
    substitution_endomorphism,
)
from pairwise_oracles import (
    leibniz_closed_form,
    leibniz_holds,
    multiplicative_on,
    pairwise_derivation,
    pairwise_unital_endomorphism,
    product_of_powers,
)

# (context, largest bound); the smallest bound is the largest generator weight.
CONTEXTS = ((MonoidCtx.lex(1), 6), (MonoidCtx.product(2), 4), (MonoidCtx.weighted(1, 2), 5))

PROPERTY = settings(max_examples=100)


def _table(kind, rng, ctx, bound):
    """A random contracting table; with kind "table0" it kills t^0."""
    table = random_contracting_table(rng, ctx, bound)
    if kind == "table0":
        images = dict(table.images)
        images[(0,) * ctx.dim] = HahnPoly.zero(ctx, bound)
        table = OpTable(ctx, bound, images)
    return table


def _derivation(kind, rng, ctx, bound):
    if kind == "contracting":
        return random_contracting_derivation(rng, ctx, bound)
    if kind == "diagonal":
        return gder_table(random_additive_char(rng, ctx), bound)
    if kind == "mixed":
        return random_contracting_derivation(rng, ctx, bound) + gder_table(
            random_additive_char(rng, ctx), bound
        )
    return _table(kind, rng, ctx, bound)


def _endomorphism(kind, rng, ctx, bound):
    if kind == "substitution":
        return random_substitution_automorphism(rng, ctx, bound)
    if kind == "exp":
        return op_exp(random_contracting_derivation(rng, ctx, bound))
    if kind == "rescaled":
        rescale = gexp_table(random_character(rng, ctx), bound)
        return op_compose(random_substitution_automorphism(rng, ctx, bound), rescale)
    return OpTable.identity(ctx, bound) + _table(kind, rng, ctx, bound)


def _perturb(rng, table):
    """Add a nonzero multiple of a random basis monomial to one random image."""
    basis = table.basis()
    m, q = rng.choice(basis), rng.choice(basis)
    images = dict(table.images)
    images[m] = images[m] + HahnPoly.monomial(table.ctx, table.bound, q, nonzero_fraction(rng))
    return OpTable(table.ctx, table.bound, images)


@st.composite
def cases(draw, build, kinds):
    ctx, top = draw(st.sampled_from(CONTEXTS))
    bound = draw(st.integers(max(ctx.weights), top))
    rng = random.Random(draw(st.integers(0, 2**32)))
    table = build(draw(st.sampled_from(kinds)), rng, ctx, bound)
    if draw(st.booleans()):
        table = _perturb(rng, table)
    return table


def _in_table(table, m1, m2):
    return table.ctx.weight(m1) + table.ctx.weight(m2) <= table.bound


@PROPERTY
@given(cases(_derivation, ("contracting", "diagonal", "mixed", "table", "table0")))
def test_derivation_check_matches_pairwise_scan(table):
    fast = op_is_derivation(table)
    assert fast.ok == pairwise_derivation(table).ok
    if not fast:
        m1, m2 = fast.witness
        assert _in_table(table, m1, m2)
        assert not leibniz_holds(table, m1, m2)


@PROPERTY
@given(cases(_endomorphism, ("substitution", "exp", "rescaled", "table", "table0")))
def test_endomorphism_check_matches_pairwise_scan(table):
    fast = op_is_unital_endomorphism(table)
    slow = pairwise_unital_endomorphism(table)
    assert fast.ok == slow.ok
    if fast.witness == "unit":
        assert slow.witness == "unit"
    elif not fast:
        m1, m2 = fast.witness
        assert _in_table(table, m1, m2)
        assert not multiplicative_on(table, m1, m2)


def test_unperturbed_families_pass():
    rng = random.Random(3)
    for ctx, bound in CONTEXTS:
        for kind in ("contracting", "diagonal", "mixed"):
            assert op_is_derivation(_derivation(kind, rng, ctx, bound))
        for kind in ("substitution", "exp", "rescaled"):
            assert op_is_unital_endomorphism(_endomorphism(kind, rng, ctx, bound))


W13 = MonoidCtx.weighted(1, 3)


@st.composite
def generator_images(draw):
    """Arbitrary generator images; below N = 3 the generator (0, 1) of
    weighted:1,3 lies outside the weight universe."""
    ctx, top = draw(st.sampled_from(CONTEXTS + ((W13, 5),)))
    bound = draw(st.integers(1, top))
    rng = random.Random(draw(st.integers(0, 2**32)))
    return ctx, bound, {i: random_hahn(rng, ctx, bound, terms=3) for i in range(ctx.dim)}


W13_SMALL = (
    W13, 2, {0: HahnPoly(W13, 2, {(1, 0): 1, (2, 0): 3}), 1: HahnPoly(W13, 2, {(0, 0): 2})}
)


@PROPERTY
@given(generator_images())
@example(W13_SMALL)
def test_leibniz_extension_matches_closed_form(case):
    assert derivation_from_generator_images(*case) == leibniz_closed_form(*case)


@PROPERTY
@given(generator_images())
@example(W13_SMALL)
def test_multiplicative_extension_matches_product_of_powers(case):
    assert substitution_endomorphism(*case) == product_of_powers(*case)
