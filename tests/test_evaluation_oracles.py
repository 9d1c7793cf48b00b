"""The word evaluator behind op_evaluate and fs_substitute against the naive word sum."""

import random
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from nseries import FreeSeries, MonoidCtx, OpTable, fs_substitute, op_compose, op_evaluate
from nseries.samples import random_contracting_table, random_free_series
from pairwise_oracles import naive_word_sum

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
