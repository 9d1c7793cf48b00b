"""The sparse kernel shared by FreeSeries and HahnPoly: operands must share a
space, and `lin_comb`, behind every sum of series and of tables, agrees with
the reference fold over raw term dicts, term order included."""

import operator
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nseries import FreeSeries, HahnPoly, MonoidCtx, OpTable
from nseries.errors import DimensionMismatchError
from nseries.samples import random_free_series, random_hahn
from pairwise_oracles import reference_sum


def lin_comb(a, b):
    return a.lin_comb(((1, a), (2, b)))


BINARY_OPS = (operator.add, operator.sub, operator.mul, lin_comb)
LINEAR_OPS = (operator.add, operator.sub, lin_comb)
LEX1, PROD2 = MonoidCtx.lex(1), MonoidCtx.product(2)


def test_free_and_hahn_series_do_not_mix():
    free = FreeSeries.one(1, 2)
    hahn = HahnPoly.one(MonoidCtx.lex(1), 2)
    for op in BINARY_OPS:
        with pytest.raises(TypeError, match="expected FreeSeries, got HahnPoly"):
            op(free, hahn)
        with pytest.raises(TypeError, match="expected HahnPoly, got FreeSeries"):
            op(hahn, free)


@pytest.mark.parametrize(
    "a, b, message",
    [
        (FreeSeries.one(1, 2), FreeSeries.one(2, 2), "alphabet 1/2, grade 2/2"),
        (FreeSeries.one(2, 2), FreeSeries.one(2, 3), "alphabet 2/2, grade 2/3"),
        (HahnPoly.one(MonoidCtx.lex(1), 2), HahnPoly.one(MonoidCtx.lex(1), 3), "different contexts"),
        (HahnPoly.one(MonoidCtx.lex(1), 2), HahnPoly.one(MonoidCtx.product(1), 2), "different contexts"),
    ],
)
def test_different_spaces_do_not_mix(a, b, message):
    for op in BINARY_OPS:
        with pytest.raises(DimensionMismatchError, match=message):
            op(a, b)
        with pytest.raises(DimensionMismatchError):
            op(b, a)


def test_tables_mix_only_with_tables_of_their_space():
    table = OpTable.zero(LEX1, 2)
    for op in LINEAR_OPS:
        with pytest.raises(TypeError, match="expected OpTable, got HahnPoly"):
            op(table, HahnPoly.one(LEX1, 2))
        with pytest.raises(DimensionMismatchError, match="different contexts or bounds"):
            op(table, OpTable.zero(LEX1, 3))


# -- lin_comb against the reference fold --------------------------------------

PROPERTY = settings(max_examples=150)
# Coefficients of one sign and size meet often, so keys cancel and re-enter.
COEFFS = (-2, -1, 0, Fraction(1, 2), 1)
KINDS = (
    lambda rng: random_free_series(rng, 2, 2, terms=3),
    lambda rng: random_hahn(rng, PROD2, 2, terms=3),
    lambda rng: OpTable.from_function(LEX1, 2, lambda m: random_hahn(rng, LEX1, 2, terms=2)),
)


def _with_order(x):
    """The value with the term order of every series in it."""
    if isinstance(x, OpTable):
        return x, [(m, list(img.terms.items())) for m, img in x.images.items()]
    return x, list(x.terms.items())


@st.composite
def combinations(draw):
    make = draw(st.sampled_from(KINDS))
    rng = random.Random(draw(st.integers(0, 2**32)))
    pool = [make(rng) for _ in range(3)]
    pair = st.tuples(st.sampled_from(COEFFS), st.sampled_from(pool))
    return pool[0], draw(st.lists(pair, max_size=6))


def _free(*words):
    return FreeSeries(1, 2, {w: 1 for w in words})


def _hahn(*exps):
    return HahnPoly(LEX1, 2, {e: 1 for e in exps})


# X0 cancels after the second pair and re-enters with the third, after X0 X0.
CANCEL_THEN_REENTER = (_free(), [(1, _free((0,), (0, 0))), (-1, _free((0,))), (1, _free((0,)))])
TABLE_CANCEL_THEN_REENTER = (
    OpTable.zero(LEX1, 2),
    [(1, OpTable.from_function(LEX1, 2, lambda m: _hahn((1,), (2,)))),
     (-1, OpTable.from_function(LEX1, 2, lambda m: _hahn((1,)))),
     (1, OpTable.from_function(LEX1, 2, lambda m: _hahn((1,))))],
)


@PROPERTY
@given(combinations())
@example(CANCEL_THEN_REENTER)
@example(TABLE_CANCEL_THEN_REENTER)
def test_lin_comb_matches_the_reference_fold(case):
    like, pairs = case
    assert _with_order(like.lin_comb(pairs)) == _with_order(reference_sum(like, pairs))


def test_a_cancelled_key_re_enters_last():
    like, pairs = CANCEL_THEN_REENTER
    assert list(like.lin_comb(pairs).terms) == [(0, 0), (0,)]
