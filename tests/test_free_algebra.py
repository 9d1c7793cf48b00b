import random
from fractions import Fraction as F

import pytest

from nseries import (
    DimensionMismatchError,
    FreeSeries,
    NotAUnitError,
    factorizations,
    fs_add,
    fs_geometric_inverse,
    fs_mul,
    fs_scale,
    fs_support_slice,
    word_concat,
)
from nseries.samples import nonzero_fraction, random_free_series


def S(alphabet, grade, terms):
    return FreeSeries(alphabet, grade, terms)


def test_word_concat():
    assert word_concat((0, 1), (0,)) == (0, 1, 0)
    assert word_concat((), (1,)) == (1,)
    assert word_concat((0,), ()) == (0,)


def test_factorizations_left_split_order():
    assert factorizations((0, 1)) == [((), (0, 1)), ((0,), (1,)), ((0, 1), ())]
    assert factorizations(()) == [((), ())]
    assert factorizations((0,)) == [((), (0,)), ((0,), ())]


def test_add_scale_cancellation():
    x0 = FreeSeries.variable(0, 2, 3)
    x1 = FreeSeries.variable(1, 2, 3)
    assert fs_add(x0, x1) == S(2, 3, {(0,): 1, (1,): 1})
    assert fs_scale(0, x0) == FreeSeries.zero(2, 3)
    p = S(2, 3, {(0,): 1, (0, 1): F(1, 2)})
    assert fs_add(p, -x0) == S(2, 3, {(0, 1): F(1, 2)})
    assert (0, ) not in fs_add(p, -x0).terms


def test_mul_square_of_sum():
    x0 = FreeSeries.variable(0, 2, 2)
    x1 = FreeSeries.variable(1, 2, 2)
    sq = fs_mul(x0 + x1, x0 + x1)
    assert sq == S(2, 2, {(0, 0): 1, (0, 1): 1, (1, 0): 1, (1, 1): 1})


def test_mul_truncated_geometric_identity():
    one = FreeSeries.one(1, 3)
    p = one + FreeSeries.variable(0, 1, 3)
    q = S(1, 3, {(): 1, (0,): -1, (0, 0): 1, (0, 0, 0): -1})
    assert fs_mul(p, q) == one
    assert fs_mul(q, p) == one


def test_mul_unit():
    rng = random.Random(0)
    p = random_free_series(rng, 2, 4)
    one = FreeSeries.one(2, 4)
    assert fs_mul(one, p) == p
    assert fs_mul(p, one) == p


def test_geometric_inverse_examples():
    p = FreeSeries.one(1, 3) + FreeSeries.variable(0, 1, 3)
    assert fs_geometric_inverse(p) == S(1, 3, {(): 1, (0,): -1, (0, 0): 1, (0, 0, 0): -1})
    two = FreeSeries.constant(2, 1, 3)
    assert fs_geometric_inverse(two) == FreeSeries.constant(F(1, 2), 1, 3)
    with pytest.raises(NotAUnitError):
        fs_geometric_inverse(FreeSeries.variable(0, 1, 3))


def test_support_slice():
    p = S(2, 2, {(): 1, (0, 1): 1})
    assert fs_support_slice(p, 2) == {(0, 1)}
    assert fs_support_slice(FreeSeries.one(2, 2), 1) == set()
    sq = fs_mul(
        FreeSeries.variable(0, 2, 2) + FreeSeries.variable(1, 2, 2),
        FreeSeries.variable(0, 2, 2) + FreeSeries.variable(1, 2, 2),
    )
    assert fs_support_slice(sq, 2) == {(0, 0), (0, 1), (1, 0), (1, 1)}
    with pytest.raises(ValueError):
        fs_support_slice(p, 3)


def test_dimension_errors():
    with pytest.raises(DimensionMismatchError):
        fs_add(FreeSeries.one(1, 3), FreeSeries.one(2, 3))
    with pytest.raises(DimensionMismatchError):
        fs_mul(FreeSeries.one(2, 3), FreeSeries.one(2, 4))


def test_non_integral_letters_are_rejected():
    with pytest.raises(TypeError):
        FreeSeries(2, 3, {(0.7, 1): 1})


@pytest.mark.parametrize("size", [(2.5, 3), (2, 3.0)])
def test_non_integral_sizes_are_rejected(size):
    with pytest.raises(TypeError):
        FreeSeries(*size, {})


@pytest.mark.parametrize("field, value", [("alphabet", 2.5), ("grade", 3.9)])
def test_free_from_json_rejects_non_integral_sizes(field, value):
    from nseries.free_algebra import free_from_json, free_to_json

    data = free_to_json(FreeSeries(2, 3, {(0, 1): 1}))
    data[field] = value
    with pytest.raises(TypeError):
        free_from_json(data)


def test_mul_associative_and_bilinear():
    rng = random.Random(11)
    for _ in range(15):
        p = random_free_series(rng, 2, 6)
        q = random_free_series(rng, 2, 6)
        r = random_free_series(rng, 2, 6)
        assert fs_mul(fs_mul(p, q), r) == fs_mul(p, fs_mul(q, r))
        assert fs_mul(p + q, r) == fs_mul(p, r) + fs_mul(q, r)
        assert fs_mul(p, q + r) == fs_mul(p, q) + fs_mul(p, r)
        c = nonzero_fraction(rng)
        assert fs_mul(p.scale(c), q) == fs_mul(p, q).scale(c)


def test_support_bound_property():
    rng = random.Random(5)
    for _ in range(10):
        p = random_free_series(rng, 2, 5)
        q = random_free_series(rng, 2, 5)
        prod = fs_mul(p, q)
        for n in range(6):
            for w in fs_support_slice(prod, n):
                assert any(
                    beta in p.support_slice(len(beta))
                    and gamma in q.support_slice(len(gamma))
                    for beta, gamma in factorizations(w)
                )


def test_inverse_roundtrip_random():
    rng = random.Random(23)
    one = FreeSeries.one(2, 5)
    for _ in range(20):
        p = random_free_series(rng, 2, 5, constant=nonzero_fraction(rng))
        assert fs_mul(p, fs_geometric_inverse(p)) == one


def test_augmentation_ideal_closure():
    rng = random.Random(9)
    for _ in range(10):
        p = random_free_series(rng, 2, 5, constant=F(0))
        q = random_free_series(rng, 2, 5, constant=F(0))
        prod = fs_mul(p, q)
        assert prod.constant_term == 0
        assert not prod.support_slice(1)


def test_construction_rejects_bad_terms():
    with pytest.raises(ValueError):
        S(2, 1, {(0, 1): 1})  # word longer than the grade bound
    with pytest.raises(DimensionMismatchError):
        S(1, 3, {(1,): 1})  # letter outside the alphabet


def test_json_roundtrip():
    from nseries.free_algebra import free_from_json, free_to_json

    p = S(2, 3, {(): F(1, 3), (0, 1): F(-7, 2)})
    data = free_to_json(p)
    assert data["alphabet"] == 2 and data["grade"] == 3
    assert free_from_json(data) == p
