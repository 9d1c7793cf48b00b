import random
from fractions import Fraction as F

import pytest

from nseries import (
    DimensionMismatchError,
    HahnPoly,
    MonoidCtx,
    WeightBoundError,
    hp_add,
    hp_mul,
    hp_prec,
    hp_scale,
)
from nseries.samples import random_hahn
from nseries.support_order import vec_add

LEX1 = MonoidCtx.lex(1)
PROD2 = MonoidCtx.product(2)
W12 = MonoidCtx.weighted(1, 2)


def mono(ctx, bound, exp, coeff=1):
    return HahnPoly.monomial(ctx, bound, exp, coeff)


def test_add_scale():
    t0 = mono(LEX1, 3, (0,))
    t1 = mono(LEX1, 3, (1,))
    assert hp_add(hp_add(t0, t1), -t0) == t1
    assert hp_scale(0, t1) == HahnPoly.zero(LEX1, 3)
    assert hp_add(mono(LEX1, 3, (1,), 2), mono(LEX1, 3, (1,), 3)) == mono(LEX1, 3, (1,), 5)


def test_mul_telescoping():
    one = HahnPoly.one(LEX1, 3)
    a = one - mono(LEX1, 3, (1,))
    b = HahnPoly(LEX1, 3, {(0,): 1, (1,): 1, (2,): 1, (3,): 1})
    assert hp_mul(a, b) == one  # the weight-4 term falls over the bound


def test_mul_monomials_and_unit():
    assert hp_mul(mono(LEX1, 5, (2,)), mono(LEX1, 5, (3,))) == mono(LEX1, 5, (5,))
    rng = random.Random(0)
    a = random_hahn(rng, PROD2, 4)
    assert hp_mul(HahnPoly.one(PROD2, 4), a) == a


def test_prec_examples():
    t1 = mono(LEX1, 3, (1,))
    t2 = mono(LEX1, 3, (2,))
    assert hp_prec(t2, t1) == {(2,): (1,)}
    zero = HahnPoly.zero(LEX1, 3)
    assert hp_prec(zero, zero) is None
    assert hp_prec(t1, t1) is None
    assert hp_prec(zero, t1) == {}


def test_prec_strict_partial_order():
    rng = random.Random(8)
    for ctx in (LEX1, PROD2, W12):
        for _ in range(30):
            u = random_hahn(rng, ctx, 5)
            v = random_hahn(rng, ctx, 5)
            w = random_hahn(rng, ctx, 5)
            if not u.is_zero():
                assert hp_prec(u, u) is None
            if hp_prec(u, v) is not None and hp_prec(v, w) is not None:
                assert hp_prec(u, w) is not None
            if hp_prec(u, w) is not None and hp_prec(v, w) is not None:
                assert hp_prec(u + v, w) is not None


def test_mul_laws():
    rng = random.Random(21)
    for ctx in (LEX1, PROD2, W12, MonoidCtx.lex(3), MonoidCtx.weighted(1, 1, 2)):
        one = HahnPoly.one(ctx, 8)
        for _ in range(10):
            a = random_hahn(rng, ctx, 8)
            b = random_hahn(rng, ctx, 8)
            c = random_hahn(rng, ctx, 8)
            assert hp_mul(hp_mul(a, b), c) == hp_mul(a, hp_mul(b, c))
            assert hp_mul(a, b) == hp_mul(b, a)
            assert hp_mul(a, one) == a and hp_mul(one, a) == a
            assert hp_mul(a, b + c) == hp_mul(a, b) + hp_mul(a, c)
            assert set(hp_mul(a, b).terms) <= {
                vec_add(p, q) for p in a.terms for q in b.terms
            }


def test_mul_coefficients_match_convolution_pairs():
    from nseries import convolution_pairs

    rng = random.Random(41)
    for ctx in (LEX1, PROD2):
        for _ in range(10):
            a = random_hahn(rng, ctx, 5)
            b = random_hahn(rng, ctx, 5)
            prod = hp_mul(a, b)
            reachable = {vec_add(p, q) for p in a.terms for q in b.terms}
            for m in reachable:
                if ctx.weight(m) > 5:
                    continue
                total = sum(
                    (a.coefficient(p) * b.coefficient(q)
                     for p, q in convolution_pairs(ctx, m, a.support, b.support)),
                    F(0),
                )
                assert prod.coefficient(m) == total


def test_finite_sum_reindexing():
    rng = random.Random(31)
    fam = [random_hahn(rng, LEX1, 5) for _ in range(5)]
    total = HahnPoly.zero(LEX1, 5)
    for a in fam:
        total = total + a
    for _ in range(6):
        rng.shuffle(fam)
        regrouped = (fam[0] + fam[1]) + (fam[2] + (fam[3] + fam[4]))
        assert regrouped == total


def test_weight_bound_rejection():
    with pytest.raises(WeightBoundError):
        HahnPoly(LEX1, 3, {(4,): 1})
    with pytest.raises(WeightBoundError):
        HahnPoly(LEX1, 3, {(-1,): 1})
    # A negative entry is outside the truncation, though the weight is in
    # range: the truncation at N is the table basis, and no wider.
    assert W12.weight((4, -1)) == 2
    with pytest.raises(WeightBoundError, match=r"\(4, -1\) of weight 2 lies outside"):
        HahnPoly(W12, 4, {(4, -1): 1})
    assert HahnPoly(W12, 4, {(4, 0): 1}).support == {(4, 0)}
    # Weight 0 on prod:2, and its square would be t^(-2,2).
    with pytest.raises(WeightBoundError, match=r"\(-1, 1\) of weight 0 lies outside .* N=2"):
        HahnPoly(PROD2, 2, {(-1, 1): 1})


def test_non_integral_exponents_are_rejected():
    with pytest.raises(TypeError):
        HahnPoly(LEX1, 3, {(F(3, 2),): 1})


def test_non_integral_bound_is_rejected():
    with pytest.raises(TypeError):
        HahnPoly(LEX1, 2.5, {})


@pytest.mark.parametrize("field, value", [("dim", 1.7), ("bound", 2.9)])
def test_hahn_from_json_rejects_non_integral_sizes(field, value):
    from nseries.hahn_series import hahn_from_json, hahn_to_json

    data = hahn_to_json(HahnPoly(LEX1, 2, {(1,): 1}))
    (data["ctx"] if field == "dim" else data)[field] = value
    with pytest.raises(TypeError):
        hahn_from_json(data)


def test_ctx_mismatch():
    with pytest.raises(DimensionMismatchError):
        hp_add(HahnPoly.one(LEX1, 3), HahnPoly.one(LEX1, 4))
    with pytest.raises(DimensionMismatchError):
        hp_mul(HahnPoly.one(LEX1, 3), HahnPoly.one(MonoidCtx.product(1), 3))


def test_json_roundtrip():
    from nseries.hahn_series import hahn_from_json, hahn_to_json

    a = HahnPoly(W12, 5, {(1, 2): F(3, 7), (0, 1): -2})
    assert hahn_from_json(hahn_to_json(a)) == a
