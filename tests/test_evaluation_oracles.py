"""The word evaluator behind op_evaluate and fs_substitute against the naive
word sum, and the power evaluator `nilpotent_sum` against the old fold."""

import random
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from nseries import FreeSeries, MonoidCtx, OpTable, fs_substitute, op_compose, op_evaluate
from nseries.free_algebra import nilpotent_sum
from nseries.samples import random_contracting_table, random_free_series
from pairwise_oracles import folded_power_sum, naive_word_sum

CONTEXTS = ((MonoidCtx.lex(1), 5), (MonoidCtx.product(2), 3), (MonoidCtx.weighted(1, 2), 4))

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


@PROPERTY
@given(table_cases())
def test_op_evaluate_matches_naive_word_sum(case):
    P, args = case
    ctx, bound = args[0].ctx, args[0].bound
    want = naive_word_sum(P, args, OpTable.identity(ctx, bound), op_compose, bound)
    assert op_evaluate(P, args) == want


@PROPERTY
@given(substitution_cases())
def test_fs_substitute_matches_naive_word_sum(case):
    P, args = case
    picked = [args[i] for i in range(P.alphabet_size)]
    alphabet, grade = picked[0].alphabet_size, picked[0].grade
    want = naive_word_sum(P, picked, FreeSeries.one(alphabet, grade), FreeSeries.__mul__, grade)
    assert fs_substitute(P, args) == want


@st.composite
def power_cases(draw):
    """A one-variable series and a nilpotent x: a contracting table or a free
    series without constant term, with its `one` and product."""
    rng = random.Random(draw(st.integers(0, 2**32)))
    if draw(st.booleans()):
        ctx, top = draw(st.sampled_from(CONTEXTS))
        bound = draw(st.integers(1, top))
        x, one, mul = random_contracting_table(rng, ctx, bound), OpTable.identity(ctx, bound), op_compose
    else:
        alphabet, bound = draw(st.integers(1, 2)), draw(st.integers(1, 4))
        x = random_free_series(rng, alphabet, bound, 4, Fraction(0))
        one, mul = FreeSeries.one(alphabet, bound), FreeSeries.__mul__
    P = random_free_series(rng, 1, bound + draw(st.integers(0, 2)), terms=draw(st.integers(0, 6)))
    return P, x, one, mul


def _with_order(x):
    if isinstance(x, OpTable):
        return x, [(m, list(img.terms.items())) for m, img in x.images.items()]
    return x, list(x.terms.items())


@PROPERTY
@given(power_cases())
def test_nilpotent_sum_matches_the_old_fold(case):
    assert _with_order(nilpotent_sum(*case)) == _with_order(folded_power_sum(*case))
