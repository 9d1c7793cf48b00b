import random
from fractions import Fraction as F
from math import factorial

import pytest

from nseries import (
    HahnPoly,
    MonoidCtx,
    NotContractingError,
    NotUnitalEndomorphismError,
    OpTable,
    bch_product,
    conjugation_morphism,
    fractional_iterate,
    lie_morphism_defect,
    op_apply,
    op_bracket,
    op_compose,
    op_evaluate,
    op_exp,
    op_exp_via_series,
    op_is_contracting,
    op_is_derivation,
    op_is_unital_endomorphism,
    op_log,
    op_log_via_series,
    push_morphism,
    star,
)
from nseries.samples import (
    random_contracting_derivation,
    random_contracting_table,
    random_substitution_automorphism,
)
from nseries.vaut_factors import CharacterX, ExponentAut, gexp_table, pullback_morphism

LEX1 = MonoidCtx.lex(1)


def flow_derivation(ctx, bound):
    """Images n * t^(n+1), the table of t^2 d/dt."""

    def image(m):
        if m[0] + 1 > bound:
            return HahnPoly.zero(ctx, bound)
        return HahnPoly.monomial(ctx, bound, (m[0] + 1,), m[0])

    return OpTable.from_function(ctx, bound, image)


def shift_table(ctx, bound):
    def image(m):
        if m[0] + 1 > bound:
            return HahnPoly.zero(ctx, bound)
        return HahnPoly.monomial(ctx, bound, (m[0] + 1,))

    return OpTable.from_function(ctx, bound, image)


def test_exp_of_zero():
    assert op_exp(OpTable.zero(LEX1, 5)) == OpTable.identity(LEX1, 5)


def test_exp_requires_contracting():
    with pytest.raises(NotContractingError):
        op_exp(OpTable.identity(LEX1, 4))


def test_iterated_images_match_factorials():
    # independent route: d^[n](t) = n! t^(n+1) by repeated application
    bound = 10
    d = flow_derivation(LEX1, bound)
    t1 = HahnPoly.monomial(LEX1, bound, (1,))
    acc = t1
    for n in range(1, bound):
        acc = op_apply(d, acc)
        assert acc == HahnPoly.monomial(LEX1, bound, (n + 1,), factorial(n))


def test_flow_of_t_squared_ddt():
    bound = 10
    d = flow_derivation(LEX1, bound)
    s = op_exp(d)
    flowed = op_apply(s, HahnPoly.monomial(LEX1, bound, (1,)))
    assert flowed == HahnPoly(LEX1, bound, {(k,): 1 for k in range(1, bound + 1)})
    eps = s - OpTable.identity(LEX1, bound)
    assert op_is_contracting(eps)


def test_exp_routes_agree():
    rng = random.Random(3)
    for _ in range(6):
        d = random_contracting_derivation(rng, LEX1, 6)
        assert op_exp(d) == op_exp_via_series(d)


def test_log_examples():
    bound = 6
    assert op_log(OpTable.identity(LEX1, bound)).is_zero()
    d = flow_derivation(LEX1, bound)
    assert op_log(op_exp(d)) == d
    # defined but not a derivation when the input is not multiplicative
    s = OpTable.identity(LEX1, bound) + shift_table(LEX1, bound)
    out = op_log(s)
    assert not op_is_derivation(out)


def test_log_routes_agree():
    rng = random.Random(5)
    for _ in range(6):
        s = random_substitution_automorphism(rng, LEX1, 6)
        assert op_log(s) == op_log_via_series(s)


def test_roundtrips_random():
    rng = random.Random(7)
    for _ in range(10):
        d = random_contracting_derivation(rng, LEX1, 6)
        s = op_exp(d)
        assert op_is_unital_endomorphism(s)
        assert op_log(s) == d
    for _ in range(10):
        s = random_substitution_automorphism(rng, LEX1, 6)
        d = op_log(s)
        assert op_is_derivation(d)
        assert op_exp(d) == s


def test_binomial_leibniz_identity():
    rng = random.Random(11)
    bound = 6
    basis = OpTable.identity(LEX1, bound).basis()
    for _ in range(4):
        d = random_contracting_derivation(rng, LEX1, bound)
        iterates: dict[tuple, list] = {}
        for m in basis:
            mono = HahnPoly.monomial(LEX1, bound, m)
            row = [mono]
            for _ in range(bound):
                row.append(op_apply(d, row[-1]))
            iterates[m] = row
        for m1 in basis:
            for m2 in basis:
                if LEX1.weight(m1) + LEX1.weight(m2) > bound:
                    continue
                prod_row = [iterates[m1][0] * iterates[m2][0]]
                for _ in range(bound):
                    prod_row.append(op_apply(d, prod_row[-1]))
                for n in range(bound + 1):
                    rhs = HahnPoly.zero(LEX1, bound)
                    for i in range(n + 1):
                        rhs = rhs + (iterates[m1][i] * iterates[m2][n - i]).scale(
                            F(factorial(n), factorial(i) * factorial(n - i))
                        )
                    assert prod_row[n] == rhs


def test_star_examples():
    rng = random.Random(13)
    bound = 6
    d = random_contracting_derivation(rng, LEX1, bound)
    zero = OpTable.zero(LEX1, bound)
    assert star(d, zero) == d
    assert star(zero, d) == d
    c = F(3, 2)
    assert star(d.scale(c), d) == d.scale(c + 1)
    assert star(d, d.scale(c)) == d.scale(c + 1)


def _count_contracting_checks(monkeypatch):
    """The tables `op_is_contracting` sees from `nseries.correspondence`, in order."""
    import nseries.correspondence as corr

    seen = []

    def counting(table):
        seen.append(table)
        return op_is_contracting(table)

    monkeypatch.setattr(corr, "op_is_contracting", counting)
    return seen


def test_star_checks_each_argument_once(monkeypatch):
    seen = _count_contracting_checks(monkeypatch)
    rng = random.Random(13)
    d1, d2 = (random_contracting_derivation(rng, LEX1, 6) for _ in range(2))
    star(d1, d2)
    assert len(seen) == 2  # d1 and d2; exp d1 o exp d2 - Id is contracting by construction
    ident = OpTable.identity(LEX1, 6)
    with pytest.raises(NotContractingError, match="left star argument"):
        star(ident, d2)
    with pytest.raises(NotContractingError, match="right star argument"):
        star(d1, ident)


def test_star_degree_two_part():
    # at bound 2 the law cuts off after the first bracket term
    bound = 2
    rng = random.Random(15)
    d1 = random_contracting_table(rng, LEX1, bound)
    d2 = random_contracting_table(rng, LEX1, bound)
    expected = d1 + d2 + op_bracket(d1, d2).scale(F(1, 2))
    assert star(d1, d2) == expected


def test_star_group_law():
    rng = random.Random(17)
    for _ in range(10):
        d1 = random_contracting_derivation(rng, LEX1, 6)
        d2 = random_contracting_derivation(rng, LEX1, 6)
        assert op_exp(star(d1, d2)) == op_compose(op_exp(d1), op_exp(d2))


@pytest.mark.parametrize(
    "ctx, bound",
    [(LEX1, 6), (MonoidCtx.weighted(1, 2), 5), (MonoidCtx.product(2), 4)],
)
def test_star_matches_bch_evaluation(ctx, bound):
    # the oracle route: the BCH series evaluated at the pair, for derivations
    # and for plain contracting tables alike
    rng = random.Random(47)
    law = bch_product(bound)
    for make in (random_contracting_derivation, random_contracting_table):
        for _ in range(3):
            d1, d2 = make(rng, ctx, bound), make(rng, ctx, bound)
            assert star(d1, d2) == op_evaluate(law, (d1, d2))


def test_fractional_iterate():
    rng = random.Random(19)
    bound = 6
    ident = OpTable.identity(LEX1, bound)
    for _ in range(5):
        s = op_exp(random_contracting_derivation(rng, LEX1, bound))
        assert fractional_iterate(s, 0) == ident
        assert fractional_iterate(s, 1) == s
        half = fractional_iterate(s, F(1, 2))
        assert op_compose(half, half) == s
        third = fractional_iterate(s, F(1, 3))
        assert op_compose(op_compose(third, third), third) == s
        a, b = F(2, 3), F(1, 5)
        assert op_compose(
            fractional_iterate(s, a), fractional_iterate(s, b)
        ) == fractional_iterate(s, a + b)
        assert fractional_iterate(fractional_iterate(s, a), b) == fractional_iterate(s, a * b)
        assert op_compose(fractional_iterate(s, a), s) == op_compose(s, fractional_iterate(s, a))


def test_torsion_free_and_injective():
    rng = random.Random(23)
    bound = 6
    ident = OpTable.identity(LEX1, bound)
    s = op_exp(random_contracting_derivation(rng, LEX1, bound))
    if s == ident:  # exceedingly unlikely; regenerate deterministically
        s = op_exp(flow_derivation(LEX1, bound))
    power = s
    for _ in range(5):
        assert power != ident
        power = op_compose(power, s)
    seen = set()
    for c in (F(1, 2), F(1, 3), F(2, 3), F(5, 7)):
        key = tuple(sorted(fractional_iterate(s, c).images[(1,)].terms.items()))
        assert key not in seen
        seen.add(key)


def test_fractional_iterate_rejects_non_endomorphism():
    s = OpTable.identity(LEX1, 4) + shift_table(LEX1, 4)
    with pytest.raises(NotUnitalEndomorphismError, match="needs a unital endomorphism"):
        fractional_iterate(s, F(1, 2))


def test_fractional_iterate_checks_only_its_argument(monkeypatch):
    s = op_exp(random_contracting_derivation(random.Random(47), LEX1, 6))
    seen = _count_contracting_checks(monkeypatch)
    fractional_iterate(s, F(1, 2))
    assert len(seen) == 1  # s - Id; c log s is contracting by construction
    doubling = gexp_table(CharacterX(LEX1, (F(2),)), 6)  # an endomorphism, not near Id
    with pytest.raises(NotContractingError, match="logarithm argument minus identity"):
        fractional_iterate(doubling, F(1, 2))


def test_der_aut_pair_validates():
    from nseries import DerAutPair

    rng = random.Random(43)
    d = random_contracting_derivation(rng, LEX1, 5)
    pair = DerAutPair.from_derivation(d)
    assert pair.automorphism == op_exp(d)
    assert DerAutPair.from_automorphism(pair.automorphism).derivation == d
    with pytest.raises(NotContractingError):
        DerAutPair(d, OpTable.identity(LEX1, 5))


def test_push_morphism_identity():
    rng = random.Random(29)
    d = random_contracting_derivation(rng, LEX1, 5)
    s_in, s_out = push_morphism(lambda t: t, d)
    assert s_in == s_out == op_exp(d)


def test_push_morphism_conjugation_group_law():
    rng = random.Random(31)
    bound = 5
    rho = OpTable.identity(LEX1, bound) + random_contracting_table(rng, LEX1, bound)
    phi = conjugation_morphism(rho)
    for _ in range(5):
        d1 = random_contracting_derivation(rng, LEX1, bound)
        d2 = random_contracting_derivation(rng, LEX1, bound)
        assert lie_morphism_defect(phi, d1, d2).is_zero()
        s1, t1 = push_morphism(phi, d1)
        s2, t2 = push_morphism(phi, d2)
        assert op_exp(phi(op_log(op_compose(s1, s2)))) == op_compose(t1, t2)


def test_push_morphism_pullback_family():
    rng = random.Random(37)
    ctx = MonoidCtx.product(2)
    swap = ExponentAut(ctx, ((0, 1), (1, 0)))
    phi = pullback_morphism(swap, 5)
    d1 = random_contracting_derivation(rng, ctx, 5)
    d2 = random_contracting_derivation(rng, ctx, 5)
    assert lie_morphism_defect(phi, d1, d2).is_zero()
    s_in, s_out = push_morphism(phi, d1)
    assert op_is_unital_endomorphism(s_out)


def test_push_morphism_checks_d_and_both_images_under_phi(monkeypatch):
    d = random_contracting_derivation(random.Random(53), LEX1, 6)
    want = (op_exp(d), op_exp(d.scale(2)))
    seen = _count_contracting_checks(monkeypatch)
    calls = []

    def doubling(t):
        calls.append(t)
        return t.scale(2)

    assert push_morphism(doubling, d) == want
    assert calls == [d]  # one phi call; log exp d is d, so phi is not asked again
    assert seen == [d, d.scale(2)]  # d and phi(d), since phi is caller code
    ident = OpTable.identity(LEX1, 6)
    with pytest.raises(NotContractingError, match="derivation is not contracting"):
        push_morphism(lambda t: t, ident)
    with pytest.raises(NotContractingError, match="morphism image is not contracting"):
        push_morphism(lambda t: ident, d)


def test_scalar_doubling_is_not_a_lie_morphism():
    rng = random.Random(41)
    bound = 5
    doubling = lambda t: t.scale(2)
    found = False
    for _ in range(10):
        d1 = random_contracting_derivation(rng, LEX1, bound)
        d2 = random_contracting_derivation(rng, LEX1, bound)
        if not op_bracket(d1, d2).is_zero():
            assert not lie_morphism_defect(doubling, d1, d2).is_zero()
            found = True
    assert found


def test_fractional_iterate_takes_only_an_exact_exponent():
    s = random_substitution_automorphism(random.Random(3), LEX1, 4)
    assert fractional_iterate(s, "1/2") == fractional_iterate(s, F(1, 2))
    with pytest.raises(TypeError, match="0.5 is not an exact rational"):
        fractional_iterate(s, 0.5)
