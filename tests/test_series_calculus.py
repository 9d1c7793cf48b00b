import random
from fractions import Fraction as F
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nseries import (
    FreeSeries,
    NotInIdealError,
    bch_product,
    bch_term,
    dynkin_bch,
    dynkin_project,
    fs_substitute,
    is_lie_slice,
    series_binomial,
    series_E0,
    series_L0,
)
from nseries.samples import random_free_series
from nseries.series_calculus import _block_sum, _dynkin_denominator, _left_normed_bracket
from nseries.sparse import SparseSeries
from pairwise_oracles import (
    block_tuples,
    fraction_dynkin_project,
    left_normed_bracket_loop,
    per_tuple_dynkin_bch,
)


def x(i, grade):
    return FreeSeries.variable(i, 2, grade)


def comm(a, b):
    return a * b - b * a


def test_series_E0_values():
    assert series_E0(3) == FreeSeries(
        1, 3, {(): 1, (0,): 1, (0, 0): F(1, 2), (0, 0, 0): F(1, 6)}
    )
    assert series_E0(0) == FreeSeries.one(1, 0)
    assert series_E0(1) == FreeSeries(1, 1, {(): 1, (0,): 1})


def test_series_L0_values():
    assert series_L0(3) == FreeSeries(
        1, 3, {(0,): 1, (0, 0): F(-1, 2), (0, 0, 0): F(1, 3)}
    )
    assert series_L0(1) == FreeSeries(1, 1, {(0,): 1})
    assert series_L0(0) == FreeSeries.zero(1, 0)


def test_series_binomial_values():
    assert series_binomial(-1, 3) == FreeSeries(1, 3, {(): 1, (0,): -1, (0, 0): 1, (0, 0, 0): -1})
    assert series_binomial(F(1, 2), 3) == FreeSeries(
        1, 3, {(): 1, (0,): F(1, 2), (0, 0): F(-1, 8), (0, 0, 0): F(1, 16)}
    )
    assert series_binomial(5, 0) == FreeSeries.one(1, 0)


@pytest.mark.parametrize("c", [0, 1, -1, 2, F(1, 2), F(-2, 3)])
@pytest.mark.parametrize("order", range(9))
def test_series_binomial_is_exp_of_c_log(c, order):
    want = fs_substitute(series_E0(order), {0: series_L0(order).scale(c)})
    assert series_binomial(c, order) == want


@pytest.mark.parametrize("k", range(5))
def test_series_binomial_at_an_integer_is_a_power(k):
    for order in range(1, 7):
        one_plus_x = FreeSeries.one(1, order) + FreeSeries.variable(0, 1, order)
        assert series_binomial(k, order) == one_plus_x.power(k)


@pytest.mark.parametrize("c", [0, 1, 2, -1, F(1, 2)])
def test_series_binomial_equals_its_checked_build(c):
    # binom(c, n) = c (c - 1) .. (c - n + 1) / n!, zero past n = c for c = 0, 1, 2.
    terms = {}
    for n in range(9):
        falling = 1
        for k in range(n):
            falling *= c - k
        terms[(0,) * n] = F(falling, factorial(n))
    checked = FreeSeries(1, 8, terms)
    got = series_binomial(c, 8)
    assert got == checked and list(got.terms.items()) == list(checked.terms.items())
    assert len(got.terms) == (c + 1 if c in (0, 1, 2) else 9)


def test_series_binomial_takes_only_an_exact_exponent():
    assert series_binomial("-2/3", 4) == series_binomial(F(-2, 3), 4)
    with pytest.raises(TypeError, match="0.5 is not an exact rational"):
        series_binomial(0.5, 4)


@pytest.mark.parametrize("order", range(1, 11))
def test_exp_log_inversion(order):
    E, L = series_E0(order), series_L0(order)
    var = FreeSeries.variable(0, 1, order)
    assert fs_substitute(E, {0: L}) == FreeSeries.one(1, order) + var
    assert fs_substitute(L, {0: E - FreeSeries.one(1, order)}) == var


def test_substitute_relabeling():
    p = FreeSeries(2, 3, {(0, 1): 1})
    out = fs_substitute(p, {0: x(1, 3), 1: x(0, 3)})
    assert out == FreeSeries(2, 3, {(1, 0): 1})


def test_substitute_rejects_constant_terms():
    with pytest.raises(NotInIdealError):
        fs_substitute(series_E0(3), {0: series_E0(3)})


def test_substitution_composes():
    rng = random.Random(3)
    for _ in range(8):
        p = random_free_series(rng, 2, 4)
        qs = {i: random_free_series(rng, 2, 4, constant=F(0)) for i in range(2)}
        fs = {i: random_free_series(rng, 2, 4, constant=F(0)) for i in range(2)}
        lhs = fs_substitute(fs_substitute(p, qs), fs)
        rhs = fs_substitute(p, {i: fs_substitute(qs[i], fs) for i in range(2)})
        assert lhs == rhs


def brute_force_blocks(n, order):
    """Independent oracle: enumerate n-tuples of nonempty X0/X1 block pairs."""
    out = FreeSeries.zero(2, order)

    def rec(blocks, used):
        nonlocal out
        if len(blocks) == n:
            word = ()
            denom = 1
            for m, p in blocks:
                word = word + (0,) * m + (1,) * p
                denom *= factorial(m) * factorial(p)
            out = out + FreeSeries.monomial(word, F(1, denom), 2, order)
            return
        for m in range(order - used + 1):
            for p in range(order - used - m + 1):
                if m + p == 0:
                    continue
                rec(blocks + [(m, p)], used + m + p)

    rec([], 0)
    return out


def test_bch_term_single_block():
    expected = FreeSeries(
        2, 2, {(0,): 1, (1,): 1, (0, 0): F(1, 2), (0, 1): 1, (1, 1): F(1, 2)}
    )
    assert bch_term(1, 2) == expected
    assert bch_term(2, 1) == FreeSeries.zero(2, 1)
    with pytest.raises(ValueError):
        bch_term(0, 3)


@pytest.mark.parametrize("n,order", [(1, 3), (2, 3), (2, 4), (3, 4)])
def test_bch_term_matches_block_enumeration(n, order):
    assert bch_term(n, order) == brute_force_blocks(n, order)


def test_bch_product_low_degrees():
    got = bch_product(2)
    x0, x1 = x(0, 2), x(1, 2)
    assert got == x0 + x1 + comm(x0, x1).scale(F(1, 2))

    deg3 = bch_product(3).grade_slice(3)
    x0, x1 = x(0, 3), x(1, 3)
    expected3 = (comm(x0, comm(x0, x1)) - comm(x1, comm(x0, x1))).scale(F(1, 12))
    assert deg3 == expected3.grade_slice(3)


def test_bch_product_degree_four():
    deg4 = bch_product(4).grade_slice(4)
    x0, x1 = x(0, 4), x(1, 4)
    expected4 = comm(x1, comm(x0, comm(x0, x1))).scale(F(-1, 24))
    assert deg4 == expected4.grade_slice(4)
    assert deg4 == dynkin_bch(4).grade_slice(4)


def test_dynkin_bch_low_orders():
    x0, x1 = x(0, 2), x(1, 2)
    assert dynkin_bch(2) == x0 + x1 + comm(x0, x1).scale(F(1, 2))
    assert dynkin_bch(1) == FreeSeries(2, 1, {(0,): 1, (1,): 1})


@pytest.mark.parametrize("order", range(1, 10))
def test_oracle_agreement(order):
    assert bch_product(order) == dynkin_bch(order)


@pytest.mark.parametrize("order", range(1, 7))
def test_dynkin_bch_matches_the_per_tuple_expansion(order):
    fast, slow = dynkin_bch(order), per_tuple_dynkin_bch(order)
    assert fast == slow and fast.sorted_terms() == slow.sorted_terms()


def test_every_dynkin_term_divides_the_common_denominator():
    # A tuple of total degree T divides the denominator at T, which divides
    # the denominator at every order from T on.
    denominators = [_dynkin_denominator(order) for order in range(11)]
    assert all(denominators[k + 1] % denominators[k] == 0 for k in range(10))
    count = 0
    for blocks in block_tuples(10):
        total = sum(r + s for r, s in blocks)
        term = len(blocks) * total
        for r, s in blocks:
            term *= factorial(r) * factorial(s)
        assert denominators[total] % term == 0, blocks
        count += 1
    # a(T) = sum_{k=1..T} (k+1) a(T-k), a(0) = 1: the tuples of total T.
    tuples = [1]
    for t in range(1, 11):
        tuples.append(sum((k + 1) * tuples[t - k] for k in range(1, t + 1)))
    assert count == sum(tuples[1:])


def test_dynkin_project_examples():
    x0, x1 = x(0, 2), x(1, 2)
    bracket = comm(x0, x1)
    assert dynkin_project(bracket, 2) == bracket.scale(2)
    prod = x0 * x1
    assert dynkin_project(prod, 2) == bracket
    assert dynkin_project(prod, 2) != prod.scale(2)
    assert not is_lie_slice(prod, 2)


@settings(max_examples=100)
@given(st.integers(0, 2**32), st.integers(1, 3), st.integers(1, 4))
def test_dynkin_project_matches_the_fraction_projection(seed, alphabet, n):
    P = random_free_series(random.Random(seed), alphabet, 4, terms=12)
    assert dynkin_project(P, n) == fraction_dynkin_project(P, n)


def test_the_free_builders_canonicalise_nothing(monkeypatch):
    rng = random.Random(7)
    P = random_free_series(rng, 2, 4, terms=12)
    law = bch_product(6)
    sizes = []
    original = SparseSeries._canonicalise

    def recording(self):
        sizes.append(len(self.terms))
        original(self)

    monkeypatch.setattr(SparseSeries, "_canonicalise", recording)
    built = [P.restrict(2), law.restrict(4), P.grade_slice(3), dynkin_project(P, 3),
             dynkin_project(law, 5), dynkin_bch(6)]
    assert sizes == []
    # A named series checks its space once, on the empty zero series, and
    # builds its terms unchecked.
    for make in (series_E0, series_L0, lambda order: series_binomial(F(1, 2), order), _block_sum):
        built.append(make(8))
        assert sizes == [0]
        sizes.clear()
    monkeypatch.undo()
    assert all(x == type(x)(*x._space(), dict(x.terms)) for x in built)


@pytest.mark.parametrize("n", range(2, 7))
def test_bch_slices_are_lie(n):
    assert is_lie_slice(bch_product(6), n)


def test_bch_exponential_identity_small():
    for order in range(1, 6):
        E = series_E0(order)
        lhs = fs_substitute(E, {0: bch_product(order)})
        rhs = fs_substitute(E, {0: x(0, order)}) * fs_substitute(E, {0: x(1, order)})
        assert lhs == rhs


@settings(max_examples=200)
@given(st.lists(st.integers(0, 2), min_size=1, max_size=6))
def test_left_normed_bracket_matches_the_letter_loop(word):
    assert _left_normed_bracket(tuple(word)) == left_normed_bracket_loop(tuple(word))


@pytest.mark.parametrize("n", range(1, 8))
def test_bch_product_is_the_truncation_of_order_eight(n):
    full = bch_product(8)
    low = FreeSeries(2, n, {w: c for w, c in full.terms.items() if len(w) <= n})
    assert bch_product(n) == low == full.restrict(n)
