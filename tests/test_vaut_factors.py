import random
from fractions import Fraction as F

import pytest

from nseries import (
    AdditiveChar,
    CharacterX,
    ExponentAut,
    FactorAut,
    HahnPoly,
    InconsistentExponentialError,
    MonoidCtx,
    NotDecomposableError,
    OpTable,
    TruncationOverflowError,
    apply_gder,
    apply_gexp,
    apply_oaut,
    compose_factors,
    decompose_vaut,
    gder_table,
    gexp_table,
    middle_correspond,
    oaut_table,
    one_aut_check,
    op_compose,
    op_exp,
    op_is_contracting,
    op_is_derivation,
    op_is_unital_endomorphism,
)
from nseries.samples import (
    random_additive_char,
    random_character,
    random_contracting_derivation,
    random_hahn,
    substitution_endomorphism,
)

LEX1 = MonoidCtx.lex(1)
PROD2 = MonoidCtx.product(2)


def test_apply_gexp_examples():
    x = CharacterX(LEX1, (F(2),))
    a = HahnPoly(LEX1, 4, {(1,): 1, (2,): 3})
    assert apply_gexp(x, a) == HahnPoly(LEX1, 4, {(1,): 2, (2,): 12})
    triv = CharacterX.trivial(LEX1)
    assert apply_gexp(triv, a) == a


def test_gexp_composition_law():
    rng = random.Random(1)
    for _ in range(10):
        x = random_character(rng, LEX1)
        y = random_character(rng, LEX1)
        a = random_hahn(rng, LEX1, 5)
        assert apply_gexp(x, apply_gexp(y, a)) == apply_gexp(x * y, a)
    assert gexp_table(x, 5) is not None
    assert op_compose(gexp_table(x, 5), gexp_table(y, 5)) == gexp_table(x * y, 5)


def test_character_negative_exponents():
    x = CharacterX(LEX1, (F(2, 3),))
    assert x.at((-2,)) == F(9, 4)
    assert x.at((0,)) == 1
    with pytest.raises(ValueError):
        CharacterX(LEX1, (F(0),))


def test_apply_oaut_raw_matrix_doubling():
    a = HahnPoly(LEX1, 4, {(1,): 1, (2,): 1})
    out = apply_oaut(((2,),), a)
    assert out == HahnPoly(LEX1, 4, {(2,): 1, (4,): 1})
    ident = ExponentAut.identity(LEX1)
    assert apply_oaut(ident, a) == a


def test_apply_oaut_overflow_is_loud():
    a = HahnPoly(LEX1, 4, {(3,): 1})
    with pytest.raises(TruncationOverflowError):
        apply_oaut(((2,),), a)


def test_oaut_table_overflow_names_the_relabeled_exponent():
    shear = ExponentAut(MonoidCtx.lex(2), ((1, 0), (1, 1)))
    message = (r"exponent \(1, 1\) of \(1, 0\) has weight 2 and lies outside the truncation"
               r" at N=1: a negative entry, or a weight outside \[0, 1\]")
    with pytest.raises(TruncationOverflowError, match=message):
        oaut_table(shear, 1)


def test_apply_oaut_multiplicative():
    rng = random.Random(3)
    swap = ExponentAut(PROD2, ((0, 1), (1, 0)))
    for _ in range(10):
        a = random_hahn(rng, PROD2, 5)
        b = random_hahn(rng, PROD2, 5)
        assert apply_oaut(swap, a * b) == apply_oaut(swap, a) * apply_oaut(swap, b)
        assert apply_oaut(swap, a + b) == apply_oaut(swap, a) + apply_oaut(swap, b)


def test_exponent_aut_validation():
    with pytest.raises(ValueError):
        ExponentAut(LEX1, ((2,),))  # not unimodular
    with pytest.raises(ValueError):
        ExponentAut(LEX1, ((-1,),))  # reverses the order
    swap = ExponentAut(PROD2, ((0, 1), (1, 0)))
    assert swap.inverse().matrix == swap.matrix
    assert swap.compose(swap).is_identity()
    with pytest.raises(ValueError):
        ExponentAut(MonoidCtx.lex(2), ((0, 1), (1, 0)))  # swap breaks lex order


def test_order_violations_name_their_pair():
    swap = ((0, 1), (1, 0))
    with pytest.raises(ValueError) as exc:
        ExponentAut(MonoidCtx.lex(2), swap)
    assert str(exc.value) == "matrix does not preserve the order on probe pair (-2, -1) < (-1, -2)"
    a = HahnPoly(MonoidCtx.lex(2), 1, {(0, 1): 1, (1, 0): 1})
    with pytest.raises(ValueError) as exc:
        apply_oaut(swap, a)
    assert str(exc.value) == "relabeling does not preserve the order on support pair (0, 1) < (1, 0)"


def test_non_integral_matrix_entries_are_rejected():
    with pytest.raises(TypeError):
        ExponentAut(LEX1, ((F(3, 2),),))
    with pytest.raises(TypeError):
        ExponentAut(LEX1, ((1.5,),))


def test_exponent_aut_keeps_the_weight_on_weighted_contexts():
    w13 = MonoidCtx.weighted(1, 3)
    # Sends (-8, 3), of weight 1, to (5, -2), of weight -1; no probe pair shows it.
    with pytest.raises(ValueError, match=r"generator \(1, 0\) from 1 to 2"):
        ExponentAut(w13, ((-1, -1), (1, 2)))
    # A shear along the kernel (3, -1) of the weight keeps weight and tie-break.
    shear = ExponentAut(w13, ((4, 9), (-1, -2)))
    assert shear.apply((-8, 3)) == (-5, 2)


@pytest.mark.parametrize("ctx", [
    *(MonoidCtx.lex(d) for d in (1, 2, 3)),
    *(MonoidCtx.product(d) for d in (1, 2, 3)),
    MonoidCtx.weighted(2), MonoidCtx.weighted(1, 3), MonoidCtx.weighted(2, 1, 3),
], ids=repr)
def test_the_identity_equals_its_checked_build(ctx):
    # `identity` skips the checks and the probe scan, which the checked build runs.
    ident, checked = ExponentAut.identity(ctx), ExponentAut(ctx, ctx.generators())
    assert ident == checked and hash(ident) == hash(checked) and repr(ident) == repr(checked)
    assert ident.is_identity() and ident.compose(checked) == checked


def test_apply_gder_examples():
    alpha = AdditiveChar(LEX1, (F(1),))
    a = HahnPoly(LEX1, 4, {(n,): 1 for n in range(5)})
    assert apply_gder(alpha, a) == HahnPoly(LEX1, 4, {(n,): n for n in range(1, 5)})
    assert apply_gder(AdditiveChar.zero(LEX1), a).is_zero()


def test_gder_leibniz_and_linearity():
    rng = random.Random(5)
    for ctx in (LEX1, PROD2):
        for _ in range(6):
            alpha = random_additive_char(rng, ctx)
            beta = random_additive_char(rng, ctx)
            a = random_hahn(rng, ctx, 5)
            table = gder_table(alpha, 5)
            assert op_is_derivation(table)
            assert apply_gder(alpha, a) + apply_gder(beta, a) == apply_gder(alpha + beta, a)
            if not alpha.is_zero():
                assert not op_is_contracting(table)


def test_middle_correspond_trivial():
    alpha = AdditiveChar.zero(LEX1)
    x = middle_correspond(alpha, {F(0): F(1)})
    assert x.is_trivial()


def test_middle_correspond_declared():
    alpha = AdditiveChar(LEX1, (F(1),))
    x = middle_correspond(alpha, {F(1): F(2)})
    assert x.values == (F(2),)
    dtab = gder_table(alpha, 5)
    xtab = gexp_table(x, 5)
    assert op_compose(dtab, xtab) == op_compose(xtab, dtab)


def test_middle_correspond_inconsistent():
    alpha = AdditiveChar(LEX1, (F(1),))
    with pytest.raises(InconsistentExponentialError):
        middle_correspond(alpha, {F(1): F(2), F(2): F(5)})
    with pytest.raises(InconsistentExponentialError):
        middle_correspond(alpha, {F(2): F(4)})  # value at 1 missing


def test_truncated_taylor_values_are_not_an_exponential():
    # exp truncated at order 2 gives 1 + 1 + 1/2 at 1 and 1 + 2 + 2 at 2, but
    # e(1) e(1) = 25/4 != 5 = e(2), so declaring those values must fail.
    alpha = AdditiveChar(MonoidCtx.product(2), (F(1), F(2)))
    with pytest.raises(InconsistentExponentialError, match="hom law fails"):
        middle_correspond(alpha, {F(1): F(5, 2), F(2): F(5)})


def test_compose_factors_trivial_cases():
    bound = 5
    ident = OpTable.identity(LEX1, bound)
    triv = FactorAut(ExponentAut.identity(LEX1), CharacterX.trivial(LEX1), ident)
    assert compose_factors(triv) == ident
    chi = CharacterX(LEX1, (F(3),))
    only_chi = FactorAut(ExponentAut.identity(LEX1), chi, ident)
    assert compose_factors(only_chi) == gexp_table(chi, bound)


def test_decompose_identity_and_pure_character():
    bound = 5
    ident = OpTable.identity(LEX1, bound)
    split = decompose_vaut(ident)
    assert split.mu.is_identity() and split.chi.is_trivial()
    assert split.residual == ident

    pure = gexp_table(CharacterX(LEX1, (F(2),)), bound)
    split = decompose_vaut(pure)
    assert split.mu.is_identity()
    assert split.chi.values == (F(2),)
    assert split.residual == ident


def test_decompose_substitution_example():
    bound = 6
    gen = HahnPoly(LEX1, bound, {(1,): 2, (2,): 1})  # t -> 2t + t^2
    sigma = substitution_endomorphism(LEX1, bound, {0: gen})
    split = decompose_vaut(sigma)
    assert split.mu.is_identity()
    assert split.chi.values == (F(2),)
    assert split.residual.images[(1,)] == HahnPoly(LEX1, bound, {(1,): 1, (2,): F(1, 2)})
    assert one_aut_check(split.residual)
    assert compose_factors(split) == sigma


def test_decompose_roundtrip_mixed_factors():
    rng = random.Random(7)
    bound = 6
    swap = ExponentAut(PROD2, ((0, 1), (1, 0)))
    cases = []
    for i in range(10):
        if i % 2 == 0:
            ctx, mu = LEX1, ExponentAut.identity(LEX1)
        else:
            ctx, mu = PROD2, (swap if i % 4 == 1 else ExponentAut.identity(PROD2))
        chi = random_character(rng, ctx)
        residual = op_exp(random_contracting_derivation(rng, ctx, bound))
        cases.append(FactorAut(mu, chi, residual))
    for case in cases:
        sigma = compose_factors(case)
        split = decompose_vaut(sigma)
        assert compose_factors(split) == sigma
        assert split.mu.matrix == case.mu.matrix
        assert split.chi.values == case.chi.values


def test_decompose_rejects_non_endomorphism():
    bound = 4
    bad = OpTable.from_function(
        LEX1, bound, lambda m: HahnPoly.monomial(LEX1, bound, m, 2)
    )
    with pytest.raises(NotDecomposableError):
        decompose_vaut(bad)


def test_decompose_rejects_ambiguous_leading_term():
    bound = 4
    # product order: two incomparable support minima on a generator image
    def image(m):
        return (
            HahnPoly(PROD2, bound, {(1, 0): 1, (0, 1): 1})
            if m == (1, 0)
            else HahnPoly.monomial(PROD2, bound, m)
        )

    table = OpTable.from_function(PROD2, bound, image)
    with pytest.raises(NotDecomposableError):
        decompose_vaut(table)


def test_decompose_rejects_a_leading_exponent_outside_the_basis():
    ctx = MonoidCtx.lex(2)
    # The shear sends (1, 0) to (1, -1): order-preserving on lex:2 and of
    # weight 0, but outside the nonnegative cone, so its table is not built.
    with pytest.raises(TruncationOverflowError, match=r"exponent \(1, -1\) of \(1, 0\)"):
        oaut_table(ExponentAut(ctx, ((1, 0), (-1, 1))), 3)
    # e0 -> t^(1,1), e1 -> t^(0,1): mu = ((1, 0), (1, 1)) keeps the lex order and
    # the orthant, but raises the weight of (1, 1) from 2 to 3, past N = 2.
    sigma = substitution_endomorphism(ctx, 2, {
        0: HahnPoly.monomial(ctx, 2, (1, 1)), 1: HahnPoly.monomial(ctx, 2, (0, 1)),
    })
    assert op_is_unital_endomorphism(sigma)
    with pytest.raises(NotDecomposableError) as info:
        decompose_vaut(sigma)
    assert str(info.value) == "leading exponent of (1, 1) is (1, 2), outside the basis"
    assert info.value.witness == (1, 1)


# (table, message, witness): a generator above the bound leaves mu undetermined
GENERATOR_OUTSIDE = (
    (OpTable.identity(LEX1, 0), "generator (1,) has weight 1, above the bound 0", (1,)),
    (
        OpTable.identity(MonoidCtx.weighted(1, 3), 2),
        "generator (0, 1) has weight 3, above the bound 2",
        (0, 1),
    ),
)


@pytest.mark.parametrize("table, message, witness", GENERATOR_OUTSIDE, ids=("lex:1", "weighted:1,3"))
def test_decompose_rejects_a_generator_outside_the_basis(table, message, witness):
    with pytest.raises(NotDecomposableError) as info:
        decompose_vaut(table)
    assert str(info.value) == message
    assert info.value.witness == witness


def test_decompose_reads_the_split_off_the_generator_images(monkeypatch):
    import sys

    import nseries.vaut_factors as vf

    prod3 = MonoidCtx.product(3)
    mu = ExponentAut(prod3, ((0, 0, 1), (1, 0, 0), (0, 1, 0)))
    rng = random.Random(17)
    residual = op_exp(random_contracting_derivation(rng, prod3, 3))
    chi = random_character(rng, prod3)
    sigma = compose_factors(FactorAut(mu, chi, residual))
    calls = {}

    def count(name):
        real = getattr(vf, name)

        def counted(*args):
            calls.setdefault(name, []).append((sys._getframe(1).f_code.co_name, args))
            return real(*args)

        monkeypatch.setattr(vf, name, counted)

    for name in ("minimal_elements", "_bareiss", "mat_inverse", "compose_factors",
                 "one_aut_check", "op_is_unital_endomorphism"):
        count(name)
    assert decompose_vaut(sigma) == FactorAut(mu, chi, residual)
    assert len(calls["minimal_elements"]) == prod3.dim  # one per generator image
    # Two eliminations of mu: its own check, and the inverse the residual is read through.
    assert calls["_bareiss"] == [("__post_init__", (mu.matrix,)), ("mat_inverse", (mu.matrix,))]
    assert calls["mat_inverse"] == [("decompose_vaut", (mu.matrix,))]
    assert "compose_factors" not in calls and "one_aut_check" not in calls
    assert calls["op_is_unital_endomorphism"] == [("decompose_vaut", (sigma,))]


def test_semidirect_conjugation_preserves_near_identity():
    rng = random.Random(11)
    bound = 5
    swap = ExponentAut(PROD2, ((0, 1), (1, 0)))
    for _ in range(5):
        res = op_exp(random_contracting_derivation(rng, PROD2, bound))
        conj = op_compose(
            op_compose(oaut_table(swap, bound), res), oaut_table(swap.inverse(), bound)
        )
        assert one_aut_check(conj)
        x = random_character(rng, PROD2)
        conj2 = op_compose(
            op_compose(gexp_table(x, bound), res), gexp_table(x.inverse(), bound)
        )
        assert one_aut_check(conj2)


def test_determinant_and_inverse_share_one_elimination():
    from nseries.vaut_factors import mat_det, mat_inverse, mat_mul

    swap = ((0, 1), (1, 0))
    shear = ((1, 0, 0), (2, 1, 0), (0, -3, 1))
    assert mat_det(swap) == -1 and mat_inverse(swap) == swap
    assert mat_det(shear) == 1
    assert mat_mul(shear, mat_inverse(shear)) == ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    assert mat_det(((2, 1), (4, 2))) == 0
    with pytest.raises(NotDecomposableError, match="singular"):
        mat_inverse(((2, 1), (4, 2)))
    assert mat_det(((2, 0), (0, 1))) == 2
    with pytest.raises(NotDecomposableError, match="not integral"):
        mat_inverse(((2, 0), (0, 1)))
