"""The generator walk against its oracles: the one-pass derivation and
endomorphism predicates against the pairwise scans, the Leibniz and
multiplicative extensions against the closed-form builders, and both
extensions and both predicates, which walk the integer rows of one table,
against the image-by-image walk, in term order and witness."""

import random
from fractions import Fraction

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
from nseries.textio import format_op_table
from pairwise_oracles import (
    image_walk_check,
    image_walk_extension,
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


# -- the row walk against the image-by-image walk ------------------------------

# (context, largest bound), each from N = 0; weighted:1,2 at N = 1 leaves the
# generator (0, 1) above the bound.
WALK_CONTEXTS = ((MonoidCtx.lex(1), 6), (MonoidCtx.product(2), 4), (MonoidCtx.product(3), 3),
                 (MonoidCtx.weighted(1, 2), 5))

PROD2 = MonoidCtx.product(2)
# D(t^(1,0)) = t^(1,0) and D(t^(0,1)) = -t^(0,1): the two halves of the Leibniz
# step at (1, 1) cancel, so D(t^(1,1)) = 0.
CANCELLING = (PROD2, 2, {0: HahnPoly.monomial(PROD2, 2, (1, 0)),
                         1: HahnPoly.monomial(PROD2, 2, (0, 1), -1)})
# A derivation with D(t^(1,1)) = 3 t^(1,1) and the identity substitution: in
# both integer tables the row of t^(1, 1) is odd, so halving it puts the table
# over D = 2 while the extension of its generator rows stays over 1.  Seed 5
# picks m = (1, 1) in the predicate property, whose row is then halved or
# erased.
SCALED = (PROD2, 2, {0: HahnPoly.monomial(PROD2, 2, (1, 0)),
                     1: HahnPoly.monomial(PROD2, 2, (0, 1), 2)})
UNIT = (PROD2, 2, {0: HahnPoly.monomial(PROD2, 2, (1, 0)),
                   1: HahnPoly.monomial(PROD2, 2, (0, 1))})


@st.composite
def walk_images(draw):
    """Generator images of up to three terms, zero images included, for the
    generators in the basis; a generator above the bound gets none."""
    ctx, top = draw(st.sampled_from(WALK_CONTEXTS))
    bound = draw(st.integers(0, top))
    rng = random.Random(draw(st.integers(0, 2**32)))
    return ctx, bound, {i: random_hahn(rng, ctx, bound, terms=rng.randint(0, 3))
                        for i, g in enumerate(ctx.generators()) if ctx.in_truncation(g, bound)}


def _laid_out(table):
    """The images in basis order, each with its terms in term order."""
    return [(m, list(img.terms.items())) for m, img in table.images.items()]


@PROPERTY
@given(walk_images(), st.booleans())
@example(CANCELLING, True)
@example((MonoidCtx.weighted(1, 2), 1, {0: HahnPoly.monomial(MonoidCtx.weighted(1, 2), 1,
                                                             (1, 0), 3)}), False)
def test_row_extensions_equal_the_image_by_image_walk(case, leibniz):
    extend = derivation_from_generator_images if leibniz else substitution_endomorphism
    fast, slow = extend(*case), image_walk_extension(*case, leibniz)
    assert "images" not in vars(fast)
    assert fast == slow
    assert _laid_out(fast) == _laid_out(slow)
    assert format_op_table(fast) == format_op_table(slow)


@PROPERTY
@given(walk_images(), st.booleans(), st.integers(0, 2**32),
       st.sampled_from((None, Fraction(-1, 2), Fraction(-1))))
@example(CANCELLING, True, 0, None)
@example(SCALED, True, 5, Fraction(-1, 2))
@example(UNIT, False, 5, Fraction(-1, 2))
@example(SCALED, True, 5, Fraction(-1))
def test_row_predicates_equal_the_image_by_image_walk(case, leibniz, seed, rescale):
    """On the extension itself and with the image of a random t^m, t^0
    included, changed in one place: a nonzero multiple of a random basis
    monomial added, or the image plus `rescale` times itself, so halved or
    erased.  The change is a kernel sum, so the table holds its rows and no
    images."""
    ctx, bound, _ = case
    extend = derivation_from_generator_images if leibniz else substitution_endomorphism
    check = op_is_derivation if leibniz else op_is_unital_endomorphism
    table = extend(*case)
    rng = random.Random(seed)
    basis = table.basis()
    m, q = rng.choice(basis), rng.choice(basis)
    change = (HahnPoly.monomial(ctx, bound, q, nonzero_fraction(rng)) if rescale is None
              else HahnPoly(ctx, bound, table.row(m)).scale(rescale))
    moved = OpTable.from_function(
        ctx, bound, lambda k: change if k == m else HahnPoly.zero(ctx, bound))
    for t in (table, table + moved):
        verdict = check(t)
        assert "images" not in vars(t)
        assert verdict == image_walk_check(t, leibniz)
    assert check(table)
