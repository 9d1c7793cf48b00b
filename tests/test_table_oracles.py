"""Table application and factor recomposition against their slow routes: the
one-dict `op_apply` against the folded sum of scaled images, the table
chain of `compose_factors` against the per-monomial recomposition, and the
residual `decompose_vaut` reads off sigma against the inverse chain of table
compositions.  Results, term order and error messages must agree."""

import random

from hypothesis import example, given, settings
from hypothesis import strategies as st

from nseries import (
    ExponentAut,
    FactorAut,
    HahnPoly,
    IncompleteTableError,
    MonoidCtx,
    OpTable,
    compose_factors,
    decompose_vaut,
    op_apply,
    op_exp,
)
from nseries.samples import (
    random_character,
    random_contracting_derivation,
    random_hahn,
    random_substitution_automorphism,
)
from pairwise_oracles import folded_apply, inverse_chain_residual, per_monomial_compose_factors

LEX1, PROD2, W12 = MonoidCtx.lex(1), MonoidCtx.product(2), MonoidCtx.weighted(1, 2)
# (context, largest bound, exponent maps, an exponent of weight <= 1 outside the basis)
CONTEXTS = (
    (LEX1, 5, (((1,),),), None),
    (PROD2, 3, (((1, 0), (0, 1)), ((0, 1), (1, 0))), (-1, 2)),
    # The shear fixes the weight kernel (2, -1) and sends (1, 0) to (3, -1),
    # outside the basis, so recomposition fails there.
    (W12, 4, (((1, 0), (0, 1)), ((3, 4), (-1, -1))), (2, -1)),
)

# (context, largest bound, exponent maps that keep the basis)
DECOMPOSE_CONTEXTS = (
    (LEX1, 5, (((1,),),)),
    (PROD2, 3, (((1, 0), (0, 1)), ((0, 1), (1, 0)))),
    (MonoidCtx.product(3), 2, (((0, 0, 1), (1, 0, 0), (0, 1, 0)),)),
    (W12, 4, (((1, 0), (0, 1)),)),
)

PROPERTY = settings(max_examples=60)

# t^2 cancels after the second term and re-enters with the third, after t^3.
CANCEL_THEN_REENTER = (
    OpTable(LEX1, 3, {
        (0,): HahnPoly(LEX1, 3, {(2,): 1, (3,): 1}),
        (1,): HahnPoly(LEX1, 3, {(2,): -1}),
        (2,): HahnPoly(LEX1, 3, {(2,): 1}),
        (3,): HahnPoly.zero(LEX1, 3),
    }),
    HahnPoly(LEX1, 3, {(0,): 1, (1,): 1, (2,): 1}),
)


def _any_table(rng, ctx, bound):
    return OpTable.from_function(ctx, bound, lambda m: random_hahn(rng, ctx, bound, terms=3))


def _outcome(f, *args):
    """The result with the term order of every series in it, or the error message."""
    try:
        result = f(*args)
    except IncompleteTableError as exc:
        return str(exc)
    if isinstance(result, HahnPoly):
        return result, list(result.terms)
    return result, [(m, list(img.terms)) for m, img in result.images.items()]


@st.composite
def apply_cases(draw):
    ctx, top, _, stray = draw(st.sampled_from(CONTEXTS))
    bound = draw(st.integers(1, top))
    rng = random.Random(draw(st.integers(0, 2**32)))
    a = random_hahn(rng, ctx, bound, terms=draw(st.integers(0, 6)))
    if stray is not None and draw(st.booleans()):
        a = a + HahnPoly.monomial(ctx, bound, stray, 3)
    return _any_table(rng, ctx, bound), a


@st.composite
def factor_cases(draw):
    ctx, top, mus, _ = draw(st.sampled_from(CONTEXTS))
    bound = draw(st.integers(1, top))
    rng = random.Random(draw(st.integers(0, 2**32)))
    mu = ExponentAut(ctx, draw(st.sampled_from(mus)))
    if draw(st.booleans()):
        residual = op_exp(random_contracting_derivation(rng, ctx, bound))
    else:
        residual = _any_table(rng, ctx, bound)
    return FactorAut(mu, random_character(rng, ctx), residual)


@PROPERTY
@given(apply_cases())
@example(CANCEL_THEN_REENTER)
def test_op_apply_matches_the_folded_sum(case):
    assert _outcome(op_apply, *case) == _outcome(folded_apply, *case)


@PROPERTY
@given(factor_cases())
def test_compose_factors_matches_the_per_monomial_recomposition(f):
    assert _outcome(compose_factors, f) == _outcome(per_monomial_compose_factors, f)


@st.composite
def decompose_cases(draw):
    ctx, top, mus = draw(st.sampled_from(DECOMPOSE_CONTEXTS))
    bound = draw(st.integers(max(ctx.weights), top))  # every generator in the basis
    rng = random.Random(draw(st.integers(0, 2**32)))
    mu = ExponentAut(ctx, draw(st.sampled_from(mus)))
    if draw(st.booleans()):
        residual = op_exp(random_contracting_derivation(rng, ctx, bound))
    else:
        residual = random_substitution_automorphism(rng, ctx, bound)
    return FactorAut(mu, random_character(rng, ctx), residual)


@settings(max_examples=40)
@given(decompose_cases())
def test_decompose_residual_matches_the_inverse_chain(f):
    sigma = compose_factors(f)
    split = decompose_vaut(sigma)
    assert (split.mu.matrix, split.chi) == (f.mu.matrix, f.chi)
    oracle = inverse_chain_residual(sigma, split.mu, split.chi)
    assert _outcome(lambda: split.residual) == _outcome(lambda: oracle)


def test_a_term_outside_the_basis_names_its_exponent():
    table = OpTable.identity(PROD2, 2)
    a = HahnPoly(PROD2, 2, {(0, 1): 1, (-1, 2): 2})
    want = r"no tabulated image for basis exponent (-1, 2)"
    assert _outcome(op_apply, table, a) == _outcome(folded_apply, table, a) == want
