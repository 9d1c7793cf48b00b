"""The word evaluator behind op_evaluate and fs_substitute against the naive
word sum, the power evaluator `nilpotent_sum` against the old fold, both
with term order, and the binomial-series iterate against exp(c log s).

Both evaluators run on the integer form: one call builds no value but its
unit and its result, never builds P's `terms` view, and `evaluate_words`
checks its arguments' space once, before any product.  A zero product ends
its word or power chain and is no part of the sum."""

import random
import re
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nseries import (
    FreeSeries,
    HahnPoly,
    MonoidCtx,
    OpTable,
    bch_product,
    fractional_iterate,
    fs_substitute,
    op_compose,
    op_evaluate,
    op_exp,
)
from nseries import sparse
from nseries.errors import DimensionMismatchError
from nseries.free_algebra import evaluate_words, nilpotent_sum
from nseries.samples import (
    random_contracting_derivation,
    random_contracting_table,
    random_free_series,
    random_hahn,
    random_substitution_automorphism,
)
from pairwise_oracles import exp_log_iterate, folded_power_sum, naive_word_sum

LEX1 = MonoidCtx.lex(1)
CONTEXTS = ((LEX1, 5), (MonoidCtx.product(2), 3), (MonoidCtx.weighted(1, 2), 4))


def _shift(bound: int, by: int) -> OpTable:
    """The lex:1 table t^m -> t^(m + by), contracting for by >= 1: a product of
    shifts is the shift by their sum, and zero once that sum exceeds `bound`."""
    return OpTable.from_function(LEX1, bound, lambda m: (
        HahnPoly.monomial(LEX1, bound, (m[0] + by,)) if m[0] + by <= bound
        else HahnPoly.zero(LEX1, bound)))


# Every nonconstant word of P has length 2 or more, and its argument squares
# to zero, so each such word's product vanishes and P evaluates to P(empty).
SQUARE_ZERO_TABLE = (FreeSeries(1, 4, {(): Fraction(1, 2), (0, 0): 3, (0, 0, 0): 1,
                                       (0, 0, 0, 0): -1}), (_shift(3, 2),))
SQUARE_ZERO_SERIES = (FreeSeries(1, 3, {(): 2, (0, 0): 1, (0, 0, 0): -3}),
                      {0: FreeSeries.variable(0, 1, 1)})

PROPERTY = settings(max_examples=60)


@st.composite
def table_cases(draw):
    """Contracting arguments and a series whose grade may exceed the table bound by up to 2."""
    ctx, top = draw(st.sampled_from(CONTEXTS))
    bound = draw(st.integers(1, top))
    rng = random.Random(draw(st.integers(0, 2**32)))
    args = tuple(random_contracting_table(rng, ctx, bound) for _ in range(draw(st.integers(1, 2))))
    P = random_free_series(rng, len(args), bound + draw(st.integers(0, 2)), terms=8)
    return P, args


@st.composite
def substitution_cases(draw):
    """Substituted series of grade 1..4 and a series of any grade up to 6."""
    rng = random.Random(draw(st.integers(0, 2**32)))
    alphabet, grade = draw(st.integers(1, 2)), draw(st.integers(1, 4))
    letters = draw(st.integers(1, 2))
    P = random_free_series(rng, letters, draw(st.integers(0, grade + 2)), terms=8)
    zero = Fraction(0)
    args = {i: random_free_series(rng, alphabet, grade, 4, zero) for i in range(letters)}
    return P, args


def _with_order(x):
    if isinstance(x, OpTable):
        return x, [(m, list(img.terms.items())) for m, img in x.images.items()]
    return x, list(x.terms.items())


@PROPERTY
@given(table_cases())
@example(SQUARE_ZERO_TABLE)
def test_op_evaluate_matches_naive_word_sum(case):
    P, args = case
    ctx, bound = args[0].ctx, args[0].bound
    want = naive_word_sum(P, args, OpTable.identity(ctx, bound), op_compose, bound)
    assert _with_order(op_evaluate(P, args)) == _with_order(want)


@PROPERTY
@given(substitution_cases())
@example(SQUARE_ZERO_SERIES)
def test_fs_substitute_matches_naive_word_sum(case):
    P, args = case
    picked = [args[i] for i in range(P.alphabet_size)]
    alphabet, grade = picked[0].alphabet_size, picked[0].grade
    want = naive_word_sum(P, picked, FreeSeries.one(alphabet, grade), FreeSeries.__mul__, grade)
    assert _with_order(fs_substitute(P, args)) == _with_order(want)


def test_vanishing_word_products_leave_the_constant_term():
    (P, args), (Q, subs) = SQUARE_ZERO_TABLE, SQUARE_ZERO_SERIES
    assert op_evaluate(P, args) == OpTable.identity(LEX1, 3).scale(Fraction(1, 2))
    assert fs_substitute(Q, subs) == FreeSeries.constant(2, 1, 1)


def _augmented(h: HahnPoly) -> HahnPoly:
    """h without its constant term, so nilpotent: the weights are positive."""
    zero = (0,) * h.ctx.dim
    return h - HahnPoly.monomial(h.ctx, h.bound, zero, h.coefficient(zero))


def _nilpotent(rng, kind: str, ctx: MonoidCtx, bound: int):
    """A nilpotent element of the algebra `kind` at `bound`, with the `one` and
    product that the oracles take: a contracting table or a Hahn series without
    constant term in `ctx`, or a free series without constant term on one
    letter per generator of `ctx`."""
    if kind == "table":
        return random_contracting_table(rng, ctx, bound), OpTable.identity(ctx, bound), op_compose
    if kind == "hahn":
        return _augmented(random_hahn(rng, ctx, bound)), HahnPoly.one(ctx, bound), HahnPoly.__mul__
    x = random_free_series(rng, ctx.dim, bound, 4, Fraction(0))
    return x, FreeSeries.one(ctx.dim, bound), FreeSeries.__mul__


@st.composite
def power_cases(draw):
    """A one-variable series and a nilpotent x of each algebra, with the `one`
    and product that the oracle takes and that `nilpotent_sum` reads off x
    itself."""
    rng = random.Random(draw(st.integers(0, 2**32)))
    kind = draw(st.sampled_from(("table", "hahn", "free")))
    ctx, top = draw(st.sampled_from(CONTEXTS))
    bound = draw(st.integers(1, top))
    x, one, mul = _nilpotent(rng, kind, ctx, bound)
    P = random_free_series(rng, 1, bound + draw(st.integers(0, 2)), terms=draw(st.integers(0, 6)))
    return P, x, one, mul


@PROPERTY
@given(power_cases())
def test_nilpotent_sum_matches_the_old_fold(case):
    P, x, one, mul = case
    assert _with_order(nilpotent_sum(P, x)) == _with_order(folded_power_sum(P, x, one, mul))


@st.composite
def iterate_cases(draw):
    """A near-identity automorphism, drawn directly or as the exponential of a
    contracting derivation, and an exponent c in [-3, 3]."""
    ctx, top = draw(st.sampled_from(CONTEXTS))
    bound = draw(st.integers(1, top))
    rng = random.Random(draw(st.integers(0, 2**32)))
    if draw(st.booleans()):
        s = random_substitution_automorphism(rng, ctx, bound)
    else:
        s = op_exp(random_contracting_derivation(rng, ctx, bound))
    return s, draw(st.fractions(-3, 3, max_denominator=6))


@PROPERTY
@given(iterate_cases())
def test_fractional_iterate_matches_exp_of_c_log(case):
    s, c = case
    assert fractional_iterate(s, c) == exp_log_iterate(s, c)


# -- the evaluators on the integer form ---------------------------------------


@pytest.mark.parametrize("kind", ["table", "hahn", "free"])
@pytest.mark.parametrize("evaluator", ["nilpotent_sum", "evaluate_words"])
def test_an_evaluation_builds_no_value_but_its_unit_and_its_result(monkeypatch, evaluator, kind):
    """Count every held value one call builds: the result, and the unit when it
    is a table; the series units come from their checked constructors.  P is
    a kernel result, so its `terms` view is built only if the call reads it."""
    rng = random.Random(11)
    (x, one, _), (y, _, _) = (_nilpotent(rng, kind, MonoidCtx.product(2), 3) for _ in range(2))
    letters = 1 if evaluator == "nilpotent_sum" else 2
    P = random_free_series(rng, letters, 5, terms=12).scale(1)
    assert "terms" not in P.__dict__
    held = []
    original = sparse.Linear.__dict__["_held"].__func__

    def counting(cls, space, form):
        held.append(original(cls, space, form))
        return held[-1]

    monkeypatch.setattr(sparse.Linear, "_held", classmethod(counting))
    result = nilpotent_sum(P, x) if evaluator == "nilpotent_sum" else evaluate_words(P, (x, y))
    monkeypatch.undo()
    assert held[-1] is result and held[:-1] == ([one] if kind == "table" else [])
    assert "terms" not in P.__dict__
    assert not result.is_zero() and result != one.scale(P.constant_term)


@pytest.mark.parametrize(
    "args, error, message",
    [
        ((FreeSeries.variable(0, 2, 3), FreeSeries.variable(1, 2, 4)), DimensionMismatchError,
         "incompatible series: alphabet 2/2, grade 3/4"),
        ((FreeSeries.variable(0, 2, 3), FreeSeries.variable(1, 3, 3)), DimensionMismatchError,
         "incompatible series: alphabet 2/3, grade 3/3"),
        ((OpTable.zero(LEX1, 3), OpTable.zero(LEX1, 4)), DimensionMismatchError,
         "tables live over different contexts or bounds"),
        ((OpTable.zero(LEX1, 3), HahnPoly.zero(LEX1, 3)), TypeError,
         "expected OpTable, got HahnPoly"),
    ],
    ids=("grade", "alphabet", "table", "type"),
)
def test_evaluate_words_checks_its_arguments_once_at_entry(monkeypatch, args, error, message):
    """Arguments of two spaces raise the class and text that a product of the
    two raises, before any product, even for a P with no word to multiply."""
    products = []
    for cls in (sparse.SparseSeries, sparse.SparseTable):
        monkeypatch.setattr(cls, "_times", lambda self, a, b: products.append((a, b)))
    for P in (FreeSeries(2, 4, {(0, 1): 1, (1,): 2}), FreeSeries.constant(5, 2, 4)):
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            evaluate_words(P, args)
    assert products == []


def _counted(monkeypatch):
    """Record each table product (`_times`) and the part count of each table
    sum (`_combine`) while the patch holds."""
    times, sums = [], []
    table = sparse.SparseTable
    multiply, combine = table._times, table._combine

    def counted_times(self, a, b):
        times.append(None)
        return multiply(self, a, b)

    def counted_combine(self, parts):
        sums.append(len(parts))
        return combine(self, parts)

    monkeypatch.setattr(table, "_times", counted_times)
    monkeypatch.setattr(table, "_combine", counted_combine)
    return times, sums


def test_zero_products_end_their_chains_and_leave_the_sum(monkeypatch):
    """lex:1 at N = 6, with d1 and d2 the shifts by 1 and by 2: a word's
    product is the shift by its letter sum, 1 per X0 and 2 per X1, and zero
    exactly when that sum exceeds 6.  The group law at (d1, d2) composes each
    distinct prefix of two or more letters whose own prefix is nonzero once,
    and sums the nonzero products alone; the powers of d1 start at d1 itself
    and stop at d1^7 = 0, so they take six products."""
    bound = 6
    d1, d2 = _shift(bound, 1), _shift(bound, 2)
    law = bch_product(bound)
    geometric = FreeSeries(1, bound + 2, {(0,) * n: 1 for n in range(bound + 3)})
    weight = lambda word: sum(1 + letter for letter in word)  # noqa: E731
    words = list(law.keys())
    prefixes = {word[:n] for word in words for n in range(2, len(word) + 1)
                if weight(word[:n - 1]) <= bound}
    times, sums = _counted(monkeypatch)
    op_evaluate(law, (d1, d2))
    assert (len(times), sums) == (len(prefixes), [sum(weight(w) <= bound for w in words)])
    assert len(words) > sums[0]
    times.clear(), sums.clear()
    nilpotent_sum(geometric, d1)
    assert (len(times), sums) == (bound, [bound + 1])
