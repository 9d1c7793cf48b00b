import random
from fractions import Fraction as F

import pytest

from nseries import (
    DimensionMismatchError,
    FreeSeries,
    HahnPoly,
    IncompleteTableError,
    MonoidCtx,
    NotAUnitError,
    NotContractingError,
    OpTable,
    WeightBoundError,
    multiplication_table,
    op_apply,
    op_compose,
    op_evaluate,
    op_geometric_inverse,
    op_is_contracting,
    op_is_derivation,
    op_is_unital_endomorphism,
    op_lin_sum,
)
from nseries.samples import (
    random_contracting_derivation,
    random_contracting_table,
    random_free_series,
    random_hahn,
    substitution_endomorphism,
)

LEX1 = MonoidCtx.lex(1)


def shift_table(ctx, bound, step=1):
    def image(m):
        target = (m[0] + step,)
        if ctx.weight(target) > bound:
            return HahnPoly.zero(ctx, bound)
        return HahnPoly.monomial(ctx, bound, target)

    return OpTable.from_function(ctx, bound, image)


def euler_like_table(ctx, bound):
    """Images n * t^(n+1): multiplication by t^2 composed with d/dt."""

    def image(m):
        if m[0] + 1 > bound:
            return HahnPoly.zero(ctx, bound)
        return HahnPoly.monomial(ctx, bound, (m[0] + 1,), m[0])

    return OpTable.from_function(ctx, bound, image)


def test_apply_examples():
    ident = OpTable.identity(LEX1, 4)
    a = HahnPoly(LEX1, 4, {(0,): 1, (1,): 1})
    assert op_apply(ident, a) == a
    shifted = op_apply(shift_table(LEX1, 4), a)
    assert shifted == HahnPoly(LEX1, 4, {(1,): 1, (2,): 1})
    assert op_apply(OpTable.zero(LEX1, 4), a).is_zero()


def test_compose_examples():
    sh = shift_table(LEX1, 5)
    ident = OpTable.identity(LEX1, 5)
    assert op_compose(ident, sh) == sh
    assert op_compose(sh, sh) == shift_table(LEX1, 5, step=2)
    rng = random.Random(2)
    for _ in range(8):
        f = random_contracting_table(rng, LEX1, 5)
        g = random_contracting_table(rng, LEX1, 5)
        h = random_contracting_table(rng, LEX1, 5)
        assert op_compose(op_compose(f, g), h) == op_compose(f, op_compose(g, h))


def test_tables_join_the_algebra_protocol():
    """`*` is op_compose and `OpTable.one` the identity, as the evaluators of
    free_algebra read them off a table; `*` keeps op_compose's checks."""
    rng = random.Random(11)
    for ctx, bound in ((LEX1, 5), (MonoidCtx.product(2), 3), (MonoidCtx.weighted(1, 2), 4)):
        f, g = random_contracting_table(rng, ctx, bound), random_contracting_table(rng, ctx, bound)
        ident = OpTable.identity(ctx, bound)
        assert OpTable.one(ctx, bound) == ident
        for a, b in ((f, g), (g, f), (ident + f, g), (f, ident)):
            assert a * b == op_compose(a, b)
        with pytest.raises(TypeError, match="expected OpTable, got HahnPoly"):
            f * HahnPoly.one(ctx, bound)
    with pytest.raises(DimensionMismatchError, match="different contexts or bounds"):
        OpTable.identity(LEX1, 3) * OpTable.identity(LEX1, 4)


def test_lin_sum():
    sh = shift_table(LEX1, 4)
    assert op_lin_sum([sh, -sh]).is_zero()
    assert op_lin_sum([sh]) == sh
    ident = OpTable.identity(LEX1, 4)
    both = op_lin_sum([ident, sh])
    assert op_apply(both, HahnPoly.one(LEX1, 4)) == HahnPoly(LEX1, 4, {(0,): 1, (1,): 1})
    with pytest.raises(ValueError):
        op_lin_sum([])


def test_contracting_check():
    assert op_is_contracting(shift_table(LEX1, 4))
    res = op_is_contracting(OpTable.identity(LEX1, 4))
    assert not res and res.witness == ((0,), (0,))
    bad = OpTable.from_function(
        LEX1,
        4,
        lambda m: HahnPoly(LEX1, 4, {(0,): 1, (1,): 1}) if m == (0,) else HahnPoly.zero(LEX1, 4),
    )
    res = op_is_contracting(bad)
    assert not res and res.witness == ((0,), (0,))


def test_contracting_check_requires_weight_progress():
    # strictly above in the weighted order but with equal weight
    ctx = MonoidCtx.weighted(1, 1)

    def image(m):
        if m == (0, 1):
            return HahnPoly.monomial(ctx, 3, (1, 0))
        return HahnPoly.zero(ctx, 3)

    res = op_is_contracting(OpTable.from_function(ctx, 3, image))
    assert not res and res.witness == ((0, 1), (1, 0))


def test_derivation_check():
    assert op_is_derivation(euler_like_table(LEX1, 5))
    res = op_is_derivation(shift_table(LEX1, 5))
    assert not res and res.witness == ((0,), (0,))
    assert op_is_derivation(OpTable.zero(LEX1, 5))


def test_endomorphism_check():
    assert op_is_unital_endomorphism(OpTable.identity(LEX1, 5))
    gen = HahnPoly(LEX1, 5, {(k,): 1 for k in range(1, 6)})  # t/(1-t) truncated
    sub = substitution_endomorphism(LEX1, 5, {0: gen})
    assert op_is_unital_endomorphism(sub)
    doubled = OpTable.from_function(
        LEX1, 5, lambda m: HahnPoly.monomial(LEX1, 5, m, 2)
    )
    res = op_is_unital_endomorphism(doubled)
    assert not res and res.witness == "unit"


def test_evaluate_examples():
    rng = random.Random(5)
    f = random_contracting_table(rng, LEX1, 5)
    g = random_contracting_table(rng, LEX1, 5)
    word = FreeSeries(2, 5, {(0, 1): 1})
    assert op_evaluate(word, (f, g)) == op_compose(f, g)
    one = FreeSeries.one(1, 5)
    assert op_evaluate(one, (f,)) == OpTable.identity(LEX1, 5)


def test_evaluate_requires_contracting():
    ident = OpTable.identity(LEX1, 4)
    P = FreeSeries.variable(0, 1, 4)
    with pytest.raises(NotContractingError):
        op_evaluate(P, (ident,))


def test_evaluate_grade_too_small():
    rng = random.Random(1)
    f = random_contracting_table(rng, LEX1, 5)
    with pytest.raises(DimensionMismatchError):
        op_evaluate(FreeSeries.variable(0, 1, 3), (f,))


def test_evaluation_morphism_laws():
    rng = random.Random(9)
    for _ in range(10):
        P = random_free_series(rng, 2, 4)
        Q = random_free_series(rng, 2, 4)
        f = (
            random_contracting_table(rng, LEX1, 4),
            random_contracting_table(rng, LEX1, 4),
        )
        assert op_evaluate(P * Q, f) == op_compose(op_evaluate(P, f), op_evaluate(Q, f))
        assert op_evaluate(P + Q, f) == op_evaluate(P, f) + op_evaluate(Q, f)


def test_contracting_closure_and_ideal():
    rng = random.Random(13)
    ident = OpTable.identity(LEX1, 5)
    for _ in range(10):
        f = random_contracting_table(rng, LEX1, 5)
        g = random_contracting_table(rng, LEX1, 5)
        assert op_is_contracting(op_compose(f, g))
        assert op_is_contracting(f + g)
        mixed = ident.scale(F(7, 3)) + g
        assert op_is_contracting(op_compose(f, mixed))
        assert op_is_contracting(op_compose(mixed, f))


def test_multiplication_table_strongly_linear():
    rng = random.Random(17)
    for _ in range(10):
        a = random_hahn(rng, LEX1, 5)
        b = random_hahn(rng, LEX1, 5)
        c = random_hahn(rng, LEX1, 5)
        table = multiplication_table(a)
        assert op_apply(table, b) == a * b
        assert op_apply(table, b + c) == a * b + a * c


def test_geometric_inverse_table():
    rng = random.Random(19)
    ident = OpTable.identity(LEX1, 5)
    geom = FreeSeries(1, 5, {(0,) * n: F((-1) ** n) for n in range(6)})
    for _ in range(8):
        eps = random_contracting_table(rng, LEX1, 5)
        unit = ident + eps
        inv = op_geometric_inverse(unit)
        assert op_compose(inv, unit) == ident
        assert op_compose(unit, inv) == ident
        assert inv == op_evaluate(geom, (eps,))
    with pytest.raises(NotAUnitError):
        op_geometric_inverse(shift_table(LEX1, 5))


def test_incomplete_table_errors():
    with pytest.raises(IncompleteTableError):
        OpTable(LEX1, 3, {(0,): HahnPoly.zero(LEX1, 3)})
    # a series supported outside the tabulated cone cannot be built, so no
    # series of the table's space reaches op_apply without an image
    with pytest.raises(WeightBoundError, match=r"\(3, -1\)"):
        HahnPoly(MonoidCtx.weighted(1, 1), 3, {(3, -1): 1})


def test_images_outside_the_basis_are_rejected():
    images = dict(OpTable.identity(LEX1, 2).images)
    images[(7,)] = HahnPoly.zero(LEX1, 2)
    with pytest.raises(IncompleteTableError, match=r"image for \(7,\), outside the basis"):
        OpTable(LEX1, 2, images)


def test_strong_linearity_shadow():
    rng = random.Random(23)
    for _ in range(10):
        t = random_contracting_table(rng, LEX1, 5)
        parts = [random_hahn(rng, LEX1, 5) for _ in range(4)]
        total = HahnPoly.zero(LEX1, 5)
        for p in parts:
            total = total + p
        image_sum = HahnPoly.zero(LEX1, 5)
        for p in parts:
            image_sum = image_sum + op_apply(t, p)
        assert op_apply(t, total) == image_sum


def test_derivations_from_samples_pass_leibniz():
    rng = random.Random(29)
    for ctx in (LEX1, MonoidCtx.product(2)):
        for _ in range(5):
            d = random_contracting_derivation(rng, ctx, 5)
            assert op_is_contracting(d)
            assert op_is_derivation(d)
