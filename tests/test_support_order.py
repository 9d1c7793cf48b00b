import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nseries import (
    Cmp,
    ExtensivityError,
    FinitePosetFragment,
    MonoidCtx,
    ResourceLimitError,
    choice_closure,
    cmp,
    convolution_pairs,
    find_good_pair,
    max_antichain,
    minimal_elements,
    weight_universe,
)
from nseries.errors import DimensionMismatchError, NSeriesError
from nseries.operators import in_contracting_cone
from nseries.support_order import closure_cmp, last_letter, vec_add
from nseries.textio import format_ctx, parse_ctx
from pairwise_oracles import cmp_contracting_cone, per_kind_cmp


LEX1 = MonoidCtx.lex(1)
LEX2 = MonoidCtx.lex(2)
PROD2 = MonoidCtx.product(2)
W12 = MonoidCtx.weighted(1, 2)


def test_cmp_examples():
    assert cmp(LEX2, (1, 5), (2, 0)) is Cmp.LESS
    assert cmp(PROD2, (1, 0), (0, 1)) is Cmp.INCOMPARABLE
    assert cmp(W12, (3, 0), (3, 0)) is Cmp.EQUAL
    assert cmp(LEX1, (2,), (1,)) is Cmp.GREATER


def test_cmp_weighted_uses_weight_then_lex():
    # weight of (0,1) is 2, weight of (1,0) is 1
    assert cmp(W12, (1, 0), (0, 1)) is Cmp.LESS
    # equal weight 2, lex tie: (0,1) < (2,0)
    assert cmp(W12, (0, 1), (2, 0)) is Cmp.LESS


def test_cmp_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        cmp(LEX2, (1,), (0, 0))


def test_non_integral_weights_are_rejected():
    with pytest.raises(TypeError):
        MonoidCtx(2, "lex", (1.5, 1))


def test_non_integral_dimension_is_rejected():
    with pytest.raises(TypeError):
        MonoidCtx(2.0, "lex", (1, 1))


# Negative entries as in the probe vectors of `ExponentAut`, beside basis exponents.
ENTRIES = st.integers(-3, 6)


@st.composite
def contexts(draw):
    dim = draw(st.integers(1, 3))
    kind = draw(st.sampled_from(("lex", "product", "weighted")))
    if kind == "weighted":
        return MonoidCtx.weighted(*draw(st.lists(st.integers(1, 3), min_size=dim, max_size=dim)))
    return getattr(MonoidCtx, kind)(dim)


@st.composite
def exponent_pairs(draw):
    """A context of dimension 1-3 and two exponents of it, equal about half the time."""
    ctx = draw(contexts())
    vec = st.tuples(*[ENTRIES] * ctx.dim)
    a = draw(vec)
    return ctx, a, draw(st.one_of(st.just(a), vec))


MIRROR = {Cmp.LESS: Cmp.GREATER, Cmp.GREATER: Cmp.LESS,
          Cmp.EQUAL: Cmp.EQUAL, Cmp.INCOMPARABLE: Cmp.INCOMPARABLE}


@settings(max_examples=400)
@given(exponent_pairs())
@example((W12, (2, 0), (0, 1)))
@example((PROD2, (-3, 6), (6, -3)))
def test_less_is_the_strict_part_of_cmp(case):
    ctx, a, b = case
    expected = per_kind_cmp(ctx, a, b)
    assert ctx.cmp(a, b) is expected
    assert ctx.less(a, b) == (expected is Cmp.LESS)
    assert ctx.cmp(b, a) is MIRROR[expected]
    assert in_contracting_cone(ctx, a, b) == cmp_contracting_cone(ctx, a, b)


@settings(max_examples=300)
@given(contexts().flatmap(lambda ctx: st.tuples(
    st.just(ctx), *[st.tuples(*[ENTRIES] * ctx.dim)] * 4)))
@example((W12, (1, 0), (1, 0), (0, 1), (-3, 2)))
@example((PROD2, (0, 0), (1, 0), (1, 1), (-3, -3)))
def test_less_is_a_translation_invariant_strict_order(case):
    """The ordered-group axioms of G: irreflexive, transitive, invariant under
    every shift h, negative entries included, and total on lex and weighted;
    `cmp`, the checked order, keeps LESS under every shift and is never
    INCOMPARABLE on lex and weighted."""
    ctx, a, b, c, h = case
    less = ctx.less
    assert not less(a, a)
    if less(a, b) and less(b, c):
        assert less(a, c)
    assert less(a, b) == less(vec_add(a, h), vec_add(b, h))
    if ctx.cmp(a, b) is Cmp.LESS:
        assert ctx.cmp(vec_add(a, h), vec_add(b, h)) is Cmp.LESS
    if ctx.kind != "product":
        assert [a == b, less(a, b), less(b, a)].count(True) == 1
        assert ctx.cmp(a, b) is not Cmp.INCOMPARABLE


@settings(max_examples=100)
@given(st.sampled_from(("lex", "product", "weighted")),
       st.lists(st.integers(1, 3), min_size=1, max_size=3))
def test_every_context_round_trips_through_its_descriptor(kind, weights):
    """A context that can be built is written by `format_ctx` in full; one
    whose weights its descriptor cannot hold is rejected when it is built."""
    try:
        ctx = MonoidCtx(len(weights), kind, weights)
    except NSeriesError:
        assert kind != "weighted" and set(weights) != {1}
        return
    assert parse_ctx(format_ctx(ctx)) == ctx


@settings(max_examples=150)
@given(contexts().flatmap(lambda ctx: st.tuples(
    st.just(ctx), st.lists(st.tuples(*[ENTRIES] * ctx.dim), max_size=8))))
def test_minimal_elements_match_the_cmp_scan(case):
    ctx, elements = case
    frag = FinitePosetFragment.of(ctx, elements)
    assert minimal_elements(frag) == {
        e for e in frag.elements
        if not any(per_kind_cmp(ctx, other, e) is Cmp.LESS for other in frag.elements)
    }


def test_the_compiled_order_is_no_field():
    assert MonoidCtx.lex(2) == MonoidCtx(2, "lex", (1, 1))
    assert hash(MonoidCtx.weighted(1, 2)) == hash(MonoidCtx(2, "weighted", (1, 2)))
    assert "less" not in repr(PROD2)


def test_minimal_elements():
    frag = FinitePosetFragment.of(PROD2, [(1, 0), (0, 1), (1, 1)])
    assert minimal_elements(frag) == {(1, 0), (0, 1)}
    assert minimal_elements(FinitePosetFragment.of(LEX1, [(3,), (1,), (2,)])) == {(1,)}
    assert minimal_elements(FinitePosetFragment.of(LEX1, [])) == set()


def test_minimal_union_property():
    rng = random.Random(7)
    for _ in range(20):
        A = {(rng.randint(0, 3), rng.randint(0, 3)) for _ in range(5)}
        B = {(rng.randint(0, 3), rng.randint(0, 3)) for _ in range(5)}
        union = minimal_elements(FinitePosetFragment.of(PROD2, A | B))
        parts = minimal_elements(FinitePosetFragment.of(PROD2, A)) | minimal_elements(
            FinitePosetFragment.of(PROD2, B)
        )
        assert union <= parts
        sums = {vec_add(a, b) for a in A for b in B}
        assert minimal_elements(FinitePosetFragment.of(PROD2, sums))


def test_max_antichain():
    assert max_antichain(FinitePosetFragment.of(LEX1, [(3,), (1,), (2,)])) == {(1,)}
    frag = FinitePosetFragment.of(PROD2, [(2, 0), (1, 1), (0, 2)])
    assert max_antichain(frag) == {(2, 0), (1, 1), (0, 2)}
    assert max_antichain(FinitePosetFragment.of(PROD2, [(1, 1)])) == {(1, 1)}


def test_a_fragment_checks_its_elements_whichever_constructor_built_it():
    message = "exponent \\(1, 2\\) has dimension 2, context expects 1"
    for build in (FinitePosetFragment, FinitePosetFragment.of):
        with pytest.raises(DimensionMismatchError, match=message):
            build(LEX1, frozenset({(1,), (1, 2)}))
    raw = FinitePosetFragment(PROD2, frozenset({(1, 0), (0, 1)}))
    assert raw == FinitePosetFragment.of(PROD2, [[1, 0], (0, 1)])
    assert max_antichain(raw) == {(1, 0), (0, 1)}


def test_max_antichain_cap():
    big = FinitePosetFragment.of(LEX1, [(i,) for i in range(70)])
    with pytest.raises(ResourceLimitError):
        max_antichain(big)


def test_convolution_pairs_examples():
    ctx = LEX1
    A = [(0,), (1,), (2,)]
    assert convolution_pairs(ctx, (2,), A, A) == [((0,), (2,)), ((1,), (1,)), ((2,), (0,))]
    assert convolution_pairs(ctx, (9,), A, A) == []
    assert convolution_pairs(PROD2, (1, 1), [(1, 0)], [(0, 1)]) == [((1, 0), (0, 1))]


def test_convolution_pairs_against_brute_force():
    rng = random.Random(12)
    for _ in range(30):
        A = {(rng.randint(0, 3), rng.randint(0, 3)) for _ in range(5)}
        B = {(rng.randint(0, 3), rng.randint(0, 3)) for _ in range(5)}
        m = (rng.randint(0, 6), rng.randint(0, 6))
        brute = sorted((a, b) for a in A for b in B if vec_add(a, b) == m)
        assert sorted(convolution_pairs(PROD2, m, A, B)) == brute


def test_find_good_pair():
    assert find_good_pair(LEX1, [(3,), (1,), (2,)]) == (1, 2)
    assert find_good_pair(PROD2, [(1, 0), (0, 1)]) is None
    assert find_good_pair(PROD2, [(1, 0), (0, 1), (1, 0)]) == (0, 2)


def test_find_good_pair_pigeonhole():
    rng = random.Random(3)
    frag = [(0, 1), (1, 0), (1, 1)]
    for _ in range(20):
        seq = [rng.choice(frag) for _ in range(len(frag) + 1)]
        assert find_good_pair(PROD2, seq) is not None


def test_bad_sequence_on_product_antichain():
    bad = [(k, 5 - k) for k in range(6)]
    assert find_good_pair(PROD2, bad) is None


def test_choice_closure_examples():
    words = choice_closure(LEX1, [(0,)], lambda p: [(p[0] + 1,)], 3)
    assert words == [((0,),), ((0,), (1,)), ((0,), (1,), (2,))]
    singles = choice_closure(LEX1, [(0,), (5,)], lambda p: [], 4)
    assert singles == [((0,),), ((5,),)]


def test_choice_closure_branching_and_goodness():
    words = choice_closure(LEX1, [(0,)], lambda p: [(p[0] + 1,), (p[0] + 2,)], 2)
    assert words == [((0,),), ((0,), (1,)), ((0,), (2,))]
    lasts = [last_letter(w) for w in words]
    assert set(lasts) == {(0,), (1,), (2,)}
    assert find_good_pair(LEX1, lasts) is not None
    assert closure_cmp(LEX1, words[0], words[1]) is Cmp.LESS


def test_choice_closure_goodness_shadow():
    rng = random.Random(17)
    words = choice_closure(LEX1, [(0,)], lambda p: [(p[0] + 1,), (p[0] + 3,)], 3)
    for _ in range(10):
        sample = [rng.choice(words) for _ in range(4)]
        lasts = [last_letter(w) for w in sample]
        # over a linear order, repeats or any non-descending step give a pair
        if any(lasts[i] <= lasts[j] for i in range(4) for j in range(i + 1, 4)):
            assert find_good_pair(LEX1, lasts) is not None


def test_choice_closure_extensivity_error():
    with pytest.raises(ExtensivityError) as info:
        choice_closure(LEX1, [(2,)], lambda p: [(p[0] - 1,)], 2)
    assert info.value.witness == ((2,), (1,))


def test_choice_closure_rejects_equal_and_incomparable_successors():
    with pytest.raises(ExtensivityError) as info:
        choice_closure(LEX1, [(2,)], lambda p: [p], 2)
    assert info.value.witness == ((2,), (2,))
    with pytest.raises(ExtensivityError) as info:
        choice_closure(PROD2, [(1, 0)], lambda p: [(0, 1)], 2)
    assert info.value.witness == ((1, 0), (0, 1))


def test_weight_universe():
    assert weight_universe(LEX1, 3) == ((0,), (1,), (2,), (3,))
    u = weight_universe(W12, 4)
    assert (0, 2) in u and (1, 1) in u and (0, 3) not in u
    assert all(W12.weight(m) <= 4 for m in u)
    assert u == tuple(sorted(u, key=lambda e: (W12.weight(e), e)))


def test_each_basis_is_built_once_and_a_float_bound_never_reaches_it():
    from nseries import OpTable

    images = OpTable.identity(LEX1, 2).images  # caches (LEX1, 2)
    assert OpTable(LEX1, 2, images).basis() is weight_universe(LEX1, 2)
    with pytest.raises(TypeError):
        weight_universe(LEX1, 2.0)
    with pytest.raises(TypeError):
        OpTable(LEX1, 2.0, images)

    class Two:  # an integer type that is not int, as HahnPoly takes it
        def __index__(self):
            return 2

    assert type(OpTable(LEX1, Two(), images).bound) is int
    with pytest.raises(ValueError, match="bound must be >= 0"):
        weight_universe(LEX1, -1)
