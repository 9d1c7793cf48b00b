"""Table application and factor recomposition against their slow routes: the
one-loop `op_apply` against the folded sum of scaled images; `op_compose`,
`OpTable.lin_comb` and `op_apply`, which hold only nonzero rows, against the
folds that take every image, on zero images and, with mixed denominators in
lex:1, prod:2 and weighted:1,2, on public and kernel tables; `compose_factors`
against the per-monomial recomposition and the table chain, the factor tables
and `pullback_morphism` against the per-monomial tabulations and the
conjugation chain, the residual `decompose_vaut` reads off sigma against the
inverse chain of table compositions, `decompose_vaut` as a whole against the
decomposition that re-checks every by-construction fact, and the
fraction-free `mat_det` and `mat_inverse` against `Fraction` Gauss-Jordan
elimination.  Results, term order and error messages or classes must agree."""

import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nseries import (
    AdditiveChar,
    CharacterX,
    CheckResult,
    Cmp,
    DimensionMismatchError,
    ExponentAut,
    FactorAut,
    HahnPoly,
    MonoidCtx,
    NotDecomposableError,
    NSeriesError,
    OpTable,
    TruncationOverflowError,
    WeightBoundError,
    compose_factors,
    decompose_vaut,
    gder_table,
    gexp_table,
    oaut_table,
    one_aut_check,
    op_apply,
    op_compose,
    op_exp,
    op_is_contracting,
    pullback_morphism,
    weight_universe,
)
from nseries.operators import in_contracting_cone
from nseries.samples import (
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
from nseries.vaut_factors import mat_det, mat_inverse, mat_mul
from pairwise_oracles import (
    chain_compose_factors,
    chain_pullback,
    diagonal_table,
    folded_apply,
    folded_compose,
    gauss_jordan,
    gauss_jordan_inverse,
    inverse_chain_residual,
    per_monomial_compose_factors,
    rechecked_decompose,
    reference_sum,
    relabeling_table,
)

LEX1, PROD2, W12 = MonoidCtx.lex(1), MonoidCtx.product(2), MonoidCtx.weighted(1, 2)
# (context, largest bound, exponent maps)
CONTEXTS = (
    (LEX1, 5, (((1,),),)),
    (PROD2, 3, (((1, 0), (0, 1)), ((0, 1), (1, 0)))),
    # The shear fixes the weight kernel (2, -1) and sends (1, 0) to (3, -1),
    # outside the truncation, so recomposition fails there, at the relabeling.
    (W12, 4, (((1, 0), (0, 1)), ((3, 4), (-1, -1)))),
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
    """The result with the term order of every series in it, or the error class
    and message."""
    try:
        result = f(*args)
    except NSeriesError as exc:
        return type(exc), str(exc)
    if isinstance(result, HahnPoly):
        return result, list(result.terms)
    return result, [(m, list(img.terms)) for m, img in result.images.items()]


@st.composite
def apply_cases(draw):
    ctx, top, _ = draw(st.sampled_from(CONTEXTS))
    bound = draw(st.integers(1, top))
    rng = random.Random(draw(st.integers(0, 2**32)))
    a = random_hahn(rng, ctx, bound, terms=draw(st.integers(0, 6)))
    return _any_table(rng, ctx, bound), a


@st.composite
def factor_cases(draw):
    ctx, top, mus = draw(st.sampled_from(CONTEXTS))
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


LEX2, PROD3 = MonoidCtx.lex(2), MonoidCtx.product(3)
# (context, largest bound) of the zero-image property
ZERO_IMAGE_CONTEXTS = ((PROD2, 4), (PROD3, 3), (W12, 4), (LEX2, 3))


@st.composite
def zero_image_cases(draw):
    """A contracting table, a table with one zero image and a series, of one space."""
    ctx, top = draw(st.sampled_from(ZERO_IMAGE_CONTEXTS))
    bound = draw(st.integers(0, top))
    rng = random.Random(draw(st.integers(0, 2**32)))
    images = dict(_any_table(rng, ctx, bound).images)
    images[draw(st.sampled_from(weight_universe(ctx, bound)))] = HahnPoly.zero(ctx, bound)
    a = random_hahn(rng, ctx, bound, terms=draw(st.integers(0, 6)))
    return random_contracting_table(rng, ctx, bound), OpTable(ctx, bound, images), a


@PROPERTY
@given(zero_image_cases())
def test_zero_images_match_the_folds(case):
    """Every power of t up to two past the bound, where t^(bound + 1) = 0, the
    zero table and the table with one zero image: their compositions with t and
    with that table, their sums and their application, against the folds.  Each
    image of a composition f o g is f applied to the image of g, and the images
    that no nonzero part reaches are one zero series per result."""
    t, one_zero, a = case
    powers = [OpTable.identity(t.ctx, t.bound)]
    while len(powers) < t.bound + 3:
        powers.append(op_compose(t, powers[-1]))
    assert powers[-1].is_zero() and powers[-2].is_zero()
    for x in (*powers, OpTable.zero(t.ctx, t.bound), one_zero):
        for f, g in ((t, x), (x, t), (one_zero, x), (x, one_zero)):
            assert _outcome(op_compose, f, g) == _outcome(folded_compose, f, g)
            composed = op_compose(f, g)
            assert [_outcome(op_apply, f, img) for img in g.images.values()] == [
                (img, list(img.terms)) for img in composed.images.values()
            ]
            _assert_one_shared_zero(composed, [
                m for m, img in g.images.items() if all(f.images[k].is_zero() for k in img.terms)
            ])
        pairs = [(1, x), (2, one_zero), (-1, x), (Fraction(1, 3), powers[-1]), (0, t)]
        assert _outcome(x.lin_comb, pairs) == _outcome(reference_sum, x, pairs)
        _assert_one_shared_zero(x.lin_comb(pairs), [
            m for m in x.basis() if all(table.images[m].is_zero() for _, table in pairs)
        ])
        assert _outcome(op_apply, x, a) == _outcome(folded_apply, x, a)


# Mixed denominators, and 0, so sums cancel rows in part and in full.
FOLD_COEFFS = (-2, -1, 0, 1, 3, Fraction(1, 2), Fraction(-2, 3), Fraction(5, 6))
# (context, largest bound) of the fold cross-check
FOLD_CONTEXTS = ((LEX1, 5), (PROD2, 3), (W12, 4))


@st.composite
def fold_cases(draw):
    """Three tables of one space with mixed-denominator images, and three
    coefficients."""
    ctx, top = draw(st.sampled_from(FOLD_CONTEXTS))
    bound = draw(st.integers(0, top))
    basis = weight_universe(ctx, bound)
    images = st.dictionaries(st.sampled_from(basis), st.sampled_from(FOLD_COEFFS), max_size=3)
    tables = [OpTable(ctx, bound, {m: HahnPoly(ctx, bound, draw(images)) for m in basis})
              for _ in range(3)]
    return tables, draw(st.tuples(*[st.sampled_from(FOLD_COEFFS)] * 3))


@PROPERTY
@given(fold_cases())
def test_compose_and_lin_comb_match_the_folds(case):
    """`op_compose` and `OpTable.lin_comb` on public-constructor tables and on
    their kernel results, against the image-by-image folds in `Fraction`
    arithmetic: results, image order and term order agree."""
    (f, g, h), (a, b, c) = case
    pairs = [(a, f), (b, g), (-a, f), (c, h)]
    assert _outcome(f.lin_comb, pairs) == _outcome(reference_sum, f, pairs)
    for x, y in ((f, g), (g, f), (h, h)):
        assert _outcome(op_compose, x, y) == _outcome(folded_compose, x, y)
    total, gh = f.lin_comb(pairs), op_compose(g, h)
    ref_total, ref_gh = reference_sum(f, pairs), folded_compose(g, h)
    assert _outcome(op_compose, total, gh) == _outcome(folded_compose, ref_total, ref_gh)
    assert _outcome(op_compose, gh, total) == _outcome(folded_compose, ref_gh, ref_total)
    kernel = [(b, gh), (1, total), (-b, gh), (c, op_compose(total, gh))]
    folded = [(b, ref_gh), (1, ref_total), (-b, ref_gh), (c, folded_compose(ref_total, ref_gh))]
    assert _outcome(gh.lin_comb, kernel) == _outcome(reference_sum, ref_gh, folded)


def _assert_one_shared_zero(table, exponents):
    """The images of `table` at `exponents` are all one zero series."""
    shared = {id(table.images[m]) for m in exponents}
    assert len(shared) <= 1 and all(table.images[m].is_zero() for m in exponents)


@PROPERTY
@given(factor_cases())
def test_compose_factors_matches_the_per_monomial_recomposition(f):
    assert _outcome(compose_factors, f) == _outcome(per_monomial_compose_factors, f)


LEX2_SHEAR = ((1, 0), (-1, 1))  # (1, 0) -> (1, -1): order-preserving, outside the orthant
# (context, largest bound, exponent maps): the identity and a permutation or shears
MONOMIAL_CONTEXTS = (
    (PROD2, 4, (((1, 0), (0, 1)), ((0, 1), (1, 0)))),
    (PROD3, 3, (((1, 0, 0), (0, 1, 0), (0, 0, 1)), ((0, 0, 1), (1, 0, 0), (0, 1, 0)))),
    (W12, 4, (((1, 0), (0, 1)), ((3, 4), (-1, -1)))),
    (LEX2, 3, (((1, 0), (0, 1)), LEX2_SHEAR, ((1, 0), (1, 1)))),
)
PULLBACK_ARGUMENTS = ("derivation", "any table", "another bound", "not a table")


@st.composite
def monomial_cases(draw):
    """(context, bound, rng, mu) on one of `MONOMIAL_CONTEXTS`."""
    ctx, top, mats = draw(st.sampled_from(MONOMIAL_CONTEXTS))
    bound = draw(st.integers(0, top))
    rng = random.Random(draw(st.integers(0, 2**32)))
    return ctx, bound, rng, ExponentAut(ctx, draw(st.sampled_from(mats)))


def _outcome_or_type_error(f, *args):
    """`_outcome`, or the class and message of a TypeError."""
    try:
        return _outcome(f, *args)
    except TypeError as exc:
        return TypeError, str(exc)


@PROPERTY
@given(monomial_cases())
def test_factor_tables_match_their_per_monomial_tabulations(case):
    ctx, bound, rng, mu = case
    chi, alpha = random_character(rng, ctx), random_additive_char(rng, ctx)
    assert _outcome(gexp_table, chi, bound) == _outcome(diagonal_table, chi, bound)
    assert _outcome(gder_table, alpha, bound) == _outcome(diagonal_table, alpha, bound)
    assert _outcome(oaut_table, mu, bound) == _outcome(relabeling_table, mu, bound)


@PROPERTY
@given(monomial_cases(), st.booleans())
def test_compose_factors_matches_the_table_chain(case, near_identity):
    ctx, bound, rng, mu = case
    if near_identity:
        residual = op_exp(random_contracting_derivation(rng, ctx, bound))
    else:
        residual = _any_table(rng, ctx, bound)
    f = FactorAut(mu, random_character(rng, ctx), residual)
    assert _outcome(compose_factors, f) == _outcome(chain_compose_factors, f)


def _pullback_argument(kind, rng, ctx, bound):
    if kind == "derivation":
        return random_contracting_derivation(rng, ctx, bound)
    if kind == "any table":
        return _any_table(rng, ctx, bound)
    if kind == "another bound":
        return OpTable.identity(ctx, bound + 1)
    return random_hahn(rng, ctx, bound)


@PROPERTY
@given(monomial_cases(), st.sampled_from(PULLBACK_ARGUMENTS))
def test_pullback_matches_the_conjugation_chain(case, kind):
    ctx, bound, rng, mu = case
    d = _pullback_argument(kind, rng, ctx, bound)
    assert _outcome_or_type_error(lambda: pullback_morphism(mu, bound)(d)) == (
        _outcome_or_type_error(lambda: chain_pullback(mu, bound)(d))
    )


SWAP = ExponentAut(PROD2, ((0, 1), (1, 0)))
# name -> (call with the route pair (compose, pullback), class both routes raise)
MONOMIAL_FAILURES = {
    "compose lex:2 shear": (
        lambda compose, _: compose(FactorAut(
            ExponentAut(LEX2, LEX2_SHEAR), CharacterX.trivial(LEX2), OpTable.identity(LEX2, 2)
        )),
        TruncationOverflowError),
    "pullback lex:2 shear": (
        lambda _, pullback: pullback(ExponentAut(LEX2, LEX2_SHEAR), 2),
        TruncationOverflowError),
    "pullback another bound": (
        lambda _, pullback: pullback(SWAP, 2)(OpTable.identity(PROD2, 3)),
        DimensionMismatchError),
    "pullback not a table": (
        lambda _, pullback: pullback(SWAP, 2)(HahnPoly.one(PROD2, 2)), TypeError),
}


@pytest.mark.parametrize("name", MONOMIAL_FAILURES)
def test_monomial_factor_failures_match_the_chains(name):
    call, error = MONOMIAL_FAILURES[name]
    got = _outcome_or_type_error(call, compose_factors, pullback_morphism)
    assert got == _outcome_or_type_error(call, chain_compose_factors, chain_pullback)
    assert got[0] is error


# (context, bound, exponent map, character values, additive values): negative
# character values, and an additive character that is 0 at a generator.
ROW_READ_CASES = (
    (LEX1, 4, ((1,),), (Fraction(-2, 3),), (0,)),
    (PROD2, 3, ((0, 1), (1, 0)), (-2, Fraction(3, 5)), (0, Fraction(-1, 2))),
    (W12, 4, ((1, 0), (0, 1)), (-1, Fraction(-7, 2)), (Fraction(5, 3), 0)),
)
ROW_READ_IDS = ("lex:1", "prod:2", "weighted:1,2")


def _kernel_tables(rng, ctx, bound):
    """exp d, exp d - Id, d + d and any table composed with Id, for a seeded
    contracting derivation d: kernel results, which hold rows and no images."""
    d = random_contracting_derivation(rng, ctx, bound)
    s, ident = op_exp(d), OpTable.identity(ctx, bound)
    return s, s - ident, d + d, op_compose(_any_table(rng, ctx, bound), ident)


def _contracting_scan(table):
    """`op_is_contracting` image by image, over the `images` view."""
    for m in table.basis():
        for q in table.images[m].keys():
            if not in_contracting_cone(table.ctx, m, q):
                return CheckResult(False, (m, q))
    return CheckResult(True)


@pytest.mark.parametrize("ctx, bound, matrix, chi_values, alpha_values", ROW_READ_CASES,
                         ids=ROW_READ_IDS)
def test_row_reads_build_no_images(ctx, bound, matrix, chi_values, alpha_values):
    """`op_is_contracting`, the pullback and `compose_factors` read a kernel
    table's rows, so neither the table nor the result builds its `images`; the
    contracting test gives the image-by-image scan's verdict and witness."""
    rng = random.Random(3)
    mu, chi = ExponentAut(ctx, matrix), CharacterX(ctx, chi_values)
    for _ in range(4):
        for t in _kernel_tables(rng, ctx, bound):
            verdict = op_is_contracting(t)
            results = (pullback_morphism(mu, bound)(t), compose_factors(FactorAut(mu, chi, t)))
            assert "images" not in vars(t)
            assert all("images" not in vars(r) for r in results)
            assert verdict == _contracting_scan(t)


@pytest.mark.parametrize("ctx, bound, matrix, chi_values, alpha_values", ROW_READ_CASES,
                         ids=ROW_READ_IDS)
def test_row_reads_match_the_chains_and_the_per_image_scale(
        ctx, bound, matrix, chi_values, alpha_values):
    """Each row read against the table chains, with results and term order
    equal, and `compose_factors` against the per-image `scale` of the read it
    replaced, in `format_op_table` text too."""
    rng = random.Random(4)
    mu, chi = ExponentAut(ctx, matrix), CharacterX(ctx, chi_values)
    alpha = AdditiveChar(ctx, alpha_values)
    assert _outcome(gexp_table, chi, bound) == _outcome(diagonal_table, chi, bound)
    assert _outcome(gder_table, alpha, bound) == _outcome(diagonal_table, alpha, bound)
    assert any(gder_table(alpha, bound).images[g].is_zero() for g in ctx.generators())
    for _ in range(4):
        for t in _kernel_tables(rng, ctx, bound):
            f = FactorAut(mu, chi, t)
            assert _outcome(compose_factors, f) == _outcome(chain_compose_factors, f)
            assert _outcome(pullback_morphism(mu, bound), t) == (
                _outcome(chain_pullback(mu, bound), t))
            per_image = OpTable.from_function(
                ctx, bound, lambda m: t.images[mu.apply(m)].scale(chi.at(mu.apply(m))))
            assert _outcome(compose_factors, f) == _outcome(lambda: per_image)
            assert format_op_table(compose_factors(f)) == format_op_table(per_image)
        sigma = compose_factors(FactorAut(mu, chi, op_exp(random_contracting_derivation(
            rng, ctx, bound))))
        split = decompose_vaut(sigma)
        assert _outcome(lambda: split.residual) == _outcome(
            inverse_chain_residual, sigma, split.mu, split.chi)


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


def lead_outside(bound):
    """e0 -> t^(1,1), e1 -> t^(0,1) on lex:2 at bound >= 2: mu = ((1, 0), (1, 1))
    keeps the lex order and the orthant, but sends (1, bound - 1) to (1, bound),
    past the bound, so a lead leaves the basis."""
    x, y = (HahnPoly.monomial(LEX2, bound, e) for e in ((1, 1), (0, 1)))
    return substitution_endomorphism(LEX2, bound, {0: x, 1: y})


# (context, exponent maps that keep the basis), each drawn at bounds 0-4
RECHECK_CONTEXTS = tuple(
    (ctx, tuple(ExponentAut(ctx, mat) for mat in mats))
    for ctx, mats in (
        (LEX1, (((1,),),)),
        (LEX2, (((1, 0), (0, 1)),)),
        (PROD2, (((1, 0), (0, 1)), ((0, 1), (1, 0)))),
        (MonoidCtx.product(3), (((0, 0, 1), (1, 0, 0), (0, 1, 0)),)),
        (W12, (((1, 0), (0, 1)),)),
        (MonoidCtx.weighted(1, 3), (((1, 0), (0, 1)),)),
    )
)
CHANGES = ("coefficient", "generator", "below the lead", "lead outside")


@st.composite
def recheck_cases(draw):
    """A valid sigma, or one with a perturbed coefficient, a perturbed and
    re-extended generator image, a term below a generator's lead, or a lead
    outside the basis."""
    ctx, mus = draw(st.sampled_from(RECHECK_CONTEXTS))
    bound = draw(st.integers(0, 4))
    change = draw(st.sampled_from(CHANGES)) if draw(st.booleans()) else None
    if change == "lead outside":
        return lead_outside(max(bound, 2))
    rng = random.Random(draw(st.integers(0, 2**32)))
    mu = draw(st.sampled_from(mus))
    if draw(st.booleans()) or bound < max(ctx.weights):  # the samples need every generator
        residual = op_exp(random_contracting_derivation(rng, ctx, bound))
    else:
        residual = random_substitution_automorphism(rng, ctx, bound)
    sigma = compose_factors(FactorAut(mu, random_character(rng, ctx), residual))
    basis = sigma.basis()
    if change == "coefficient":
        m = rng.choice(basis)
        bump = HahnPoly.monomial(ctx, bound, rng.choice(basis), nonzero_fraction(rng))
        return OpTable(ctx, bound, {**sigma.images, m: sigma.images[m] + bump})
    gens = {i: g for i, g in enumerate(ctx.generators()) if g in sigma.images}
    if change is None or not gens:
        return sigma
    i = rng.choice(sorted(gens))
    lead = mu.apply(gens[i])
    below = [q for q in basis if ctx.cmp(q, lead) is Cmp.LESS]
    q = rng.choice(below if change == "below the lead" else basis)
    images = {j: sigma.images[g] for j, g in gens.items()}
    images[i] = images[i] + HahnPoly.monomial(ctx, bound, q, nonzero_fraction(rng))
    return substitution_endomorphism(ctx, bound, images)


def _split(decompose, sigma):
    """The factors with the residual's term order, or the class of the error."""
    try:
        f = decompose(sigma)
    except NSeriesError as exc:
        return type(exc)
    return f, [(m, list(img.terms)) for m, img in f.residual.images.items()]


@settings(max_examples=150)
@given(recheck_cases())
@example(lead_outside(2))
@example(OpTable.identity(LEX1, 0))
@example(OpTable.identity(MonoidCtx.weighted(1, 3), 2))
def test_decompose_matches_the_rechecked_decomposition(sigma):
    got = _split(decompose_vaut, sigma)
    assert got == _split(rechecked_decompose, sigma)
    if not isinstance(got, type):
        split, _ = got
        assert one_aut_check(split.residual)
        assert compose_factors(split) == sigma


def test_a_term_outside_the_basis_names_its_exponent():
    # No series holds a term outside the table basis, so op_apply needs no scan.
    with pytest.raises(WeightBoundError, match=r"exponent \(-1, 2\) of weight 1 lies outside"):
        HahnPoly(PROD2, 2, {(0, 1): 1, (-1, 2): 2})


def _square(n):
    row = st.lists(st.integers(-3, 3), min_size=n, max_size=n).map(tuple)
    return st.lists(row, min_size=n, max_size=n).map(tuple)


@st.composite
def unimodular_matrices(draw):
    """A row permutation of L U, L lower and U upper unitriangular."""
    n = draw(st.integers(1, 4))
    lower, upper = draw(_square(n)), draw(_square(n))
    L = tuple(tuple(int(i == j) or x * (j < i) for j, x in enumerate(r)) for i, r in enumerate(lower))
    U = tuple(tuple(int(i == j) or x * (j > i) for j, x in enumerate(r)) for i, r in enumerate(upper))
    return tuple(mat_mul(L, U)[i] for i in draw(st.permutations(range(n))))


def _inverse_outcome(inverse, mat):
    try:
        return inverse(mat)
    except NotDecomposableError as exc:
        return type(exc), str(exc), exc.witness


@settings(max_examples=300)
@given(st.one_of(st.integers(1, 4).flatmap(_square), unimodular_matrices()))
@example(((2, 1), (4, 2)))
@example(((2, 0), (0, 1)))
@example(((0, 1, 0), (0, 0, 1), (1, 0, 0)))
def test_fraction_free_elimination_matches_gauss_jordan(mat):
    det, _ = gauss_jordan(mat)
    assert type(mat_det(mat)) is int and mat_det(mat) == det
    assert _inverse_outcome(mat_inverse, mat) == _inverse_outcome(gauss_jordan_inverse, mat)
