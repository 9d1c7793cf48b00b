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
    message = r"exponent \(1, 1\) of \(1, 0\) has weight 2, outside \[0, 1\]"
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
    # mu sends (1, 0) to (1, -1): order-preserving on lex:2 and of weight 0,
    # but outside the nonnegative cone, so no residual exists.
    ctx = MonoidCtx.lex(2)
    sigma = oaut_table(ExponentAut(ctx, ((1, 0), (-1, 1))), 3)
    assert op_is_unital_endomorphism(sigma)
    with pytest.raises(NotDecomposableError) as info:
        decompose_vaut(sigma)
    assert str(info.value) == "leading exponent of (1, 0) is (1, -1), outside the basis"
    assert info.value.witness == (1, 0)


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
