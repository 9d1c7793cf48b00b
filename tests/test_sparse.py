"""The sparse kernel shared by FreeSeries and HahnPoly: operands must share a
space, and `lin_comb`, behind every sum of series and of tables, agrees with
the reference fold over raw term dicts, term order included.  The product
agrees with the reference product, every kernel result equals the same terms
rebuilt through the checked constructor and holds the integer form of its
terms.  That form is a kernel result's representation: its `terms` is built
on the first read and then matches the reference fold, term order included,
while `==` and `is_zero` read the form alone; equality is type, space and
term map, series are unhashable and their repr is unchanged.  A table is one
integer matrix in the same way: `==` and `is_zero` leave its `images` unbuilt
and agree with the image maps of public-constructor tables, mixed
denominators and cancelled rows included, and a late read of `images`
matches the per-image fold, term order included, with one shared zero per
table; tables stay unhashable.  A coefficient that is not an exact rational
is a TypeError.  No
module of the package imports a private name of another, so the integer form
stays inside the kernel."""

import ast
import operator
import random
import re
from decimal import Decimal
from fractions import Fraction
from math import lcm
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nseries import (
    AdditiveChar,
    CharacterX,
    FreeSeries,
    HahnPoly,
    MonoidCtx,
    OpTable,
    multiplication_table,
    op_apply,
    op_compose,
    weight_universe,
)
from nseries.errors import DimensionMismatchError, IncompleteTableError, WeightBoundError
from nseries.free_algebra import free_from_json
from nseries.hahn_series import hahn_from_json
from nseries.samples import (
    random_character,
    random_contracting_table,
    random_free_series,
    random_hahn,
)
from nseries.sparse import _integral
from nseries.support_order import vec_add
from nseries.vaut_factors import (
    ExponentAut,
    FactorAut,
    apply_oaut,
    compose_factors,
    middle_correspond,
    oaut_table,
    pullback_morphism,
)
from pairwise_oracles import folded_apply, folded_compose, reference_product, reference_sum


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


# -- the fraction-free kernel against the reference product and the checked constructor

W12 = MonoidCtx.weighted(1, 2)
# Coprime denominators near 10^6 make the common denominator a product of primes.
BIG = (Fraction(1, 999983), Fraction(-1, 999979), Fraction(2, 1000003), Fraction(-3, 1000033))
KERNEL_COEFFS = (-2, -1, 1, 3, Fraction(1, 2), Fraction(-2, 3), Fraction(5, 6)) + BIG
SPACES = (
    (FreeSeries, (2, 3), [()] + [(i,) for i in range(2)] + [(i, j) for i in range(2) for j in range(2)]
     + [(0, 1, 0), (1, 1, 1)]),
    (HahnPoly, (LEX1, 4), list(weight_universe(LEX1, 4))),
    (HahnPoly, (PROD2, 3), list(weight_universe(PROD2, 3))),
    (HahnPoly, (W12, 4), list(weight_universe(W12, 4))),
)


def _series(draw, cls, space, keys):
    terms = draw(st.dictionaries(st.sampled_from(keys), st.sampled_from(KERNEL_COEFFS), max_size=5))
    return cls(*space, terms)


@st.composite
def operands(draw):
    """Two series of one space, either of which may be zero, and a scalar."""
    cls, space, keys = draw(st.sampled_from(SPACES))
    return _series(draw, cls, space, keys), _series(draw, cls, space, keys), draw(
        st.sampled_from(KERNEL_COEFFS + (0,)))


def _rebuilt(x):
    """The same terms, in the same order, through the checked constructor."""
    if isinstance(x, OpTable):
        return OpTable(x.ctx, x.bound, {m: _rebuilt(img) for m, img in x.images.items()})
    return type(x)(*x._space(), dict(x.terms))


def _series_results(a, b, c):
    """Every kernel builder on (a, b, c), exact total cancellation included."""
    zero = a.zero(*a._space())
    return [a * b, b * a, a * a, a * zero, zero * b, a + b, a - b, a - a, -a, a.scale(c),
            a.lin_comb([(c, a), (1, b), (-c, a), (-1, b)]),
            a.lin_comb([(c, a), (1, b), (-c, a)]), a.lin_comb([])]


PRODUCT_CASES = (
    (FreeSeries(1, 3, {(): BIG[0], (0,): BIG[1]}), FreeSeries(1, 3, {(): BIG[2], (0, 0): BIG[3]}), 0),
    (HahnPoly(PROD2, 3, {(0, 0): 1, (1, 0): 1}), HahnPoly(PROD2, 3, {(0, 0): 1, (1, 0): -1}), 1),
    (HahnPoly(W12, 4, {(2, 0): BIG[0]}), HahnPoly(W12, 4, {}), BIG[1]),
)


@PROPERTY
@given(operands())
@example(PRODUCT_CASES[0])
@example(PRODUCT_CASES[1])
@example(PRODUCT_CASES[2])
def test_product_matches_the_reference_product(case):
    a, b, c = case
    for x, y in ((a, b), (b, a), (a, a), (a.scale(c), b)):
        assert _with_order(x * y) == _with_order(reference_product(x, y))
    pairs = [(c, a), (BIG[0], b), (-1, a)]
    assert _with_order(a.lin_comb(pairs)) == _with_order(reference_sum(a, pairs))


@PROPERTY
@given(operands())
@example(PRODUCT_CASES[0])
@example(PRODUCT_CASES[1])
@example(PRODUCT_CASES[2])
def test_every_kernel_result_equals_its_checked_rebuild(case):
    for x in _series_results(*case):
        assert _with_order(x) == _with_order(_rebuilt(x))
        assert all(type(v) is Fraction and v != 0 for v in x.terms.values())


INTEGER_COEFFS = (-6, -2, -1, 1, 2, 3, 4)
# Denominators that the products and sums cancel against the integers above.
MIXED_COEFFS = INTEGER_COEFFS + (Fraction(1, 2), Fraction(-2, 3), Fraction(3, 4), Fraction(5, 6))


@st.composite
def form_operands(draw):
    """Two series of one space, either of which may be zero, and a nonzero
    scalar, all with integer coefficients or all with mixed denominators."""
    coeffs = draw(st.sampled_from((INTEGER_COEFFS, MIXED_COEFFS)))
    cls, space, keys = draw(st.sampled_from(SPACES))

    def series():
        return cls(*space, draw(st.dictionaries(st.sampled_from(keys), st.sampled_from(coeffs),
                                                max_size=5)))

    return series(), series(), draw(st.sampled_from(coeffs))


def _form_of_terms(x):
    """(D, {key: n}) recomputed from the terms: D the lcm of the denominators."""
    den = lcm(*[v.denominator for v in x.terms.values()])
    return den, {key: v.numerator * den // v.denominator for key, v in x.terms.items()}


@PROPERTY
@given(form_operands())
@example((FreeSeries(1, 2, {(): Fraction(1, 2)}), FreeSeries(1, 2, {(0,): 2}), Fraction(2, 3)))
def test_every_kernel_result_keeps_the_form_of_its_terms(case):
    a, b, c = case
    assert "_form" not in vars(a) and _integral(a) == _form_of_terms(a)
    assert _integral(a) is _integral(a)
    inv = 1 / Fraction(c)
    for x in _series_results(a, b, c) + [a.scale(c) * b.scale(inv), a.scale(inv) * a]:
        form = vars(x)["_form"]
        assert form == _form_of_terms(x) and list(form[1]) == list(x.terms)


@settings(max_examples=40)
@given(st.integers(0, 2**32), st.sampled_from(KERNEL_COEFFS))
def test_every_table_result_equals_its_checked_rebuild(seed, c):
    rng = random.Random(seed)
    f, g = (random_contracting_table(rng, W12, 4).scale(c) for _ in range(2))
    for x in (f + g, f - f, f.lin_comb([(c, f), (BIG[0], g)]), op_compose(f, g),
              op_compose(f, OpTable.zero(W12, 4))):
        assert _with_order(x) == _with_order(_rebuilt(x))


# -- the form is the representation: `terms` is a view built on first read ----


@PROPERTY
@given(operands())
@example(PRODUCT_CASES[0])
@example(PRODUCT_CASES[1])
@example(PRODUCT_CASES[2])
def test_a_late_read_of_terms_matches_the_reference_fold(case):
    a, b, c = case
    cancelling = [(c, a), (1, b), (-c, a), (-1, b)]
    cases = [(a * b, reference_product(a, b)), (b * a, reference_product(b, a)),
             (a.lin_comb(cancelling), reference_sum(a, cancelling)),
             (a.lin_comb(cancelling[:3]), reference_sum(a, cancelling[:3]))]
    for x, ref in cases:
        assert "terms" not in vars(x)
        assert list(x.terms.items()) == list(ref.terms.items())
    if isinstance(a, HahnPoly):
        table = multiplication_table(b)
        x = op_apply(table, a)
        assert "terms" not in vars(x) or not x.terms  # only the shared zero holds its terms
        assert list(x.terms.items()) == list(folded_apply(table, a).terms.items())


def _equality_operands(a, b, c):
    """Kernel results with unread terms, public-constructor series of the same
    space, the same terms one bound up, a series of the other class and None."""
    space = a._space()
    other = FreeSeries(1, 2, {}) if isinstance(a, HahnPoly) else HahnPoly(LEX1, 2, {})
    return [a * b, b * a, a + b, b + a, a - a, a.scale(c), a, b, _rebuilt(a * b),
            a.zero(*space), type(a)(*space[:-1], space[-1] + 1, dict(a.terms)), other]


@PROPERTY
@given(operands())
@example(PRODUCT_CASES[1])
@example((FreeSeries(1, 2, {(): 1, (0,): 2}), FreeSeries(1, 2, {(0,): 2, (): 1}), 1))
def test_equality_is_type_space_and_term_maps(case):
    left, right = _equality_operands(*case), _equality_operands(*case) + [None]
    unread = [x for x in left + right if x is not None and "terms" not in vars(x)]
    assert unread
    got = [[x == y for y in right] for x in left]
    zero = [x.is_zero() for x in left]
    assert all("terms" not in vars(x) for x in unread)
    assert got == [[type(x) is type(y) and x._space() == y._space() and x.terms == y.terms
                    for y in right] for x in left]
    assert zero == [not x.terms for x in left]


def test_series_are_unhashable_and_keep_their_repr():
    a = FreeSeries(2, 3, {(1,): Fraction(1, 2), (): 3})
    h = HahnPoly(PROD2, 3, {(1, 0): -2, (0, 1): Fraction(1, 3)})
    for x in (a, a * a, a - a, h, h * h, h.lin_comb([(2, h), (-1, h)])):
        with pytest.raises(TypeError, match="unhashable"):
            hash(x)
        assert repr(x) == repr(_rebuilt(x))
    assert repr(a * a) == ("FreeSeries(alphabet_size=2, grade=3, terms={(1, 1): Fraction(1, 4), "
                           "(1,): Fraction(3, 1), (): Fraction(9, 1)})")
    assert repr(h - h) == ("HahnPoly(ctx=MonoidCtx(dim=2, kind='product', weights=(1, 1)), "
                           "bound=3, terms={})")


# -- a table is one integer matrix: `images` is a view built on first read ----

# Mixed denominators, so the rows of a table and of a sum meet over one lcm.
TABLE_COEFFS = (-2, -1, 1, 3, Fraction(1, 2), Fraction(-2, 3), Fraction(5, 6), BIG[0])
TABLE_SPACES = ((LEX1, 4), (PROD2, 3), (W12, 4))


@st.composite
def table_operands(draw):
    """Two public-constructor tables f and g of one space and a nonzero
    scalar; g negates some images of f, so f + g cancels those rows."""
    ctx, bound = draw(st.sampled_from(TABLE_SPACES))
    basis = weight_universe(ctx, bound)
    images = st.dictionaries(st.sampled_from(basis), st.sampled_from(TABLE_COEFFS), max_size=3)
    f = OpTable(ctx, bound, {m: HahnPoly(ctx, bound, draw(images)) for m in basis})
    g = OpTable(ctx, bound, {
        m: f.images[m].scale(-1) if draw(st.booleans()) else HahnPoly(ctx, bound, draw(images))
        for m in basis
    })
    return f, g, draw(st.sampled_from(TABLE_COEFFS))


def _table_results(f, g, c):
    """Kernel tables with unread images: sums, rows that cancel in part and in
    full, scalings, compositions and the identity."""
    ctx, bound = f._space()
    return [f + g, g + f, f - f, f.scale(c), f.lin_comb([(c, f), (1, g), (-c, f)]),
            op_compose(f, g), op_compose(g, f), op_compose(f, OpTable.zero(ctx, bound)),
            OpTable.identity(ctx, bound), op_compose(OpTable.identity(ctx, bound), g)]


@PROPERTY
@given(table_operands())
def test_table_equality_reads_the_form_alone(case):
    f, g, c = case
    ctx, bound = f._space()
    kernel = _table_results(f, g, c)
    left = kernel + [f, g, OpTable.zero(ctx, bound)]
    rebuilt = [_rebuilt(x) for x in _table_results(f, g, c)]
    right = left + rebuilt + [OpTable.identity(ctx, bound + 1), HahnPoly.zero(ctx, bound), None]
    got = [[x == y for y in right] for x in left]
    zero = [x.is_zero() for x in left]
    assert all("images" not in vars(x) for x in kernel)
    assert got == [[type(x) is type(y) and x._space() == y._space() and x.images == y.images
                    for y in right] for x in left]
    assert zero == [all(img.is_zero() for img in x.images.values()) for x in left]


@PROPERTY
@given(table_operands())
def test_a_late_read_of_images_matches_the_per_image_fold(case):
    """Each image is the fold of its own images, term order included, over its
    own least common denominator, and every zero image of a table is one
    shared zero series."""
    f, g, c = case
    pairs = [(c, f), (1, g), (-c, f)]
    cases = [(f + g, reference_sum(f, [(1, f), (1, g)])), (f.lin_comb(pairs), reference_sum(f, pairs)),
             (op_compose(f, g), folded_compose(f, g)), (op_compose(g, f), folded_compose(g, f))]
    for x, ref in cases:
        assert "images" not in vars(x)
        assert _with_order(x) == _with_order(ref)
        assert all(vars(img)["_form"] == _form_of_terms(img) for img in x.images.values())
        zeros = {id(img) for img in x.images.values() if img.is_zero()}
        assert len(zeros) <= 1


def test_tables_are_unhashable_and_keep_their_repr():
    rng = random.Random(3)
    f = random_contracting_table(rng, PROD2, 2)
    mu = ExponentAut(PROD2, ((0, 1), (1, 0)))
    for x in (f, f + f, f - f, op_compose(f, f), OpTable.identity(PROD2, 2), oaut_table(mu, 2)):
        with pytest.raises(TypeError, match="unhashable"):
            hash(x)
        assert repr(x) == repr(_rebuilt(x))
    assert repr(OpTable.identity(LEX1, 1)) == (
        "OpTable(ctx=MonoidCtx(dim=1, kind='lex', weights=(1,)), bound=1, images={"
        "(0,): HahnPoly(ctx=MonoidCtx(dim=1, kind='lex', weights=(1,)), bound=1, "
        "terms={(0,): Fraction(1, 1)}), (1,): HahnPoly(ctx=MonoidCtx(dim=1, kind='lex', "
        "weights=(1,)), bound=1, terms={(1,): Fraction(1, 1)})})")


@pytest.mark.parametrize(
    "a, b, key_mul",
    [
        # Both operands list a high-grade term before their low-grade ones.
        (FreeSeries(2, 3, {(0, 1, 1): 1, (1,): 2, (): 3, (0, 0): Fraction(1, 2)}),
         FreeSeries(2, 3, {(1, 1): 1, (): -1, (1, 0, 1): 5, (0,): BIG[0]}), operator.add),
        (HahnPoly(W12, 4, {(0, 2): 1, (1, 0): 3, (0, 0): -1, (1, 1): BIG[1]}),
         HahnPoly(W12, 4, {(2, 1): 1, (0, 0): 2, (1, 1): 1, (0, 1): 7}), vec_add),
    ],
    ids=("free", "hahn"),
)
def test_the_product_visits_only_fitting_pairs(a, b, key_mul):
    visited = []

    def counting(ka, kb):
        visited.append((ka, kb))
        return key_mul(ka, kb)

    grade, bound = a._grade, a._space()[-1]
    for x, y in ((a, b), (b, a)):
        visited.clear()
        product = x._product(y, counting)
        fitting = [(ka, kb) for ka in x.terms for kb in y.terms if grade(ka) + grade(kb) <= bound]
        assert 0 < len(fitting) < len(x.terms) * len(y.terms)
        assert visited == fitting
        assert _with_order(product) == _with_order(reference_product(x, y))


@pytest.mark.parametrize(
    "a, one, key_mul",
    [
        (FreeSeries(2, 3, {(0, 1, 1): 1, (1,): 2, (): 3, (0, 0): Fraction(1, 2)}),
         FreeSeries(2, 3, {(1,): BIG[0]}), operator.add),
        (HahnPoly(W12, 4, {(0, 2): 1, (1, 0): 3, (0, 0): -1, (1, 1): BIG[1], (2, 1): 5}),
         HahnPoly(W12, 4, {(1, 0): Fraction(-2, 3)}), vec_add),
    ],
    ids=("free", "hahn"),
)
def test_a_one_term_operand_shifts_the_other(a, one, key_mul):
    """With one term on either side, the product visits the other operand's
    fitting terms in term order, once each; the grades of some pairs sum to the
    bound exactly, and of others past it."""
    visited = []

    def counting(ka, kb):
        visited.append((ka, kb))
        return key_mul(ka, kb)

    grade, bound = a._grade, a._space()[-1]
    (k,) = one.terms
    assert {grade(key) + grade(k) for key in a.terms} >= {bound, bound + 1}
    for x, y in ((a, one), (one, a)):
        visited.clear()
        product = x._product(y, counting)
        assert visited == [(ka, kb) for ka in x.terms for kb in y.terms
                           if grade(ka) + grade(kb) <= bound]
        assert _with_order(product) == _with_order(reference_product(x, y))


def test_cancelled_keys_leave_products_and_sums():
    a = HahnPoly(PROD2, 2, {(0, 0): 1, (1, 0): 1})
    b = HahnPoly(PROD2, 2, {(0, 0): 1, (1, 0): -1})
    assert list((a * b).terms.items()) == [((0, 0), 1), ((2, 0), -1)]
    x = FreeSeries(1, 2, {(): BIG[0], (0,): BIG[1]})
    assert (x.scale(BIG[2]) - x.scale(BIG[2])).is_zero()
    assert (x * FreeSeries.zero(1, 2)).is_zero() and (FreeSeries.zero(1, 2) * x).is_zero()


def _reductions(monkeypatch):
    """Record the denominator of every Fraction(n, d) built while the patch holds."""
    calls = []
    new = Fraction.__new__

    def recording(cls, numerator=0, denominator=None, **kw):
        if denominator is not None:
            calls.append(denominator)
        return new(cls, numerator, denominator, **kw)

    monkeypatch.setattr(Fraction, "__new__", recording)
    return calls


def test_each_key_is_reduced_once_over_the_least_common_denominator(monkeypatch):
    a = FreeSeries(1, 2, {(): Fraction(1, 6), (0,): Fraction(1, 4)})
    b = FreeSeries(1, 2, {(): Fraction(1, 10), (0, 0): Fraction(1, 5)})
    pairs = [(Fraction(1, 3), a), (2, b)]
    calls = _reductions(monkeypatch)
    total = a.lin_comb(pairs)
    # lcm(3 * 12, 1 * 10) = 180, not the product 360.
    assert calls == [180] * len(total.terms) and len(total.terms) == 3
    calls.clear()
    product = a * b
    assert calls == [12 * 10] * len(product.terms) and len(product.terms) == 3
    monkeypatch.undo()
    assert total.terms == {(): Fraction(23, 90), (0,): Fraction(1, 12), (0, 0): Fraction(2, 5)}
    assert product.terms == {(): Fraction(1, 60), (0,): Fraction(1, 40), (0, 0): Fraction(1, 30)}


def test_kernel_builders_run_no_post_init(monkeypatch):
    rng = random.Random(5)
    f, g = (random_contracting_table(rng, PROD2, 3) for _ in range(2))
    a, b = random_hahn(rng, PROD2, 3), random_hahn(rng, PROD2, 3)
    p, q = random_free_series(rng, 2, 3), random_free_series(rng, 2, 3)
    mu = ExponentAut(PROD2, ((0, 1), (1, 0)))
    factors = FactorAut(mu, random_character(rng, PROD2), OpTable.identity(PROD2, 3) + f)
    counts = {}
    for cls in (FreeSeries, HahnPoly, OpTable):
        original = cls.__post_init__

        def counting(self, original=original, name=cls.__name__):
            counts[name] = counts.get(name, 0) + 1
            original(self)

        monkeypatch.setattr(cls, "__post_init__", counting)
    results = [a * b, a + b, a.scale(3), p * q, p - q, -p, f + g, f.scale(2),
               op_compose(f, g), op_apply(f, a), OpTable.identity(PROD2, 3), oaut_table(mu, 3),
               compose_factors(factors), apply_oaut(mu, a), pullback_morphism(mu, 3)(f)]
    assert counts == {}
    # The checked constructors still run it.
    FreeSeries(2, 3, {}), HahnPoly(PROD2, 3, {}), OpTable.zero(PROD2, 3)
    assert counts == {"FreeSeries": 1, "HahnPoly": 1 + len(weight_universe(PROD2, 3)), "OpTable": 1}
    assert all(r == _rebuilt(r) for r in results)


@pytest.mark.parametrize(
    "make, error, message",
    [
        (lambda: FreeSeries(2, 2, {(0, 1, 0): 1}), ValueError, "exceeds the grade bound"),
        (lambda: FreeSeries(2, 2, {(2,): 1}), DimensionMismatchError, "outside alphabet"),
        (lambda: FreeSeries(2.0, 2, {}), TypeError, "integer"),
        (lambda: HahnPoly(LEX1, 2, {(3,): 1}), WeightBoundError, "outside \\[0, 2\\]"),
        (lambda: HahnPoly(PROD2, 2, {(1.0, 0): 1}), TypeError, "integer"),
        (lambda: HahnPoly(PROD2, -1, {}), ValueError, "weight bound"),
        (lambda: OpTable(LEX1, 2, {(0,): HahnPoly.one(LEX1, 2)}), IncompleteTableError, "missing"),
        (lambda: OpTable(LEX1, 1, {(0,): HahnPoly.one(LEX1, 1), (1,): HahnPoly.zero(LEX1, 2)}),
         DimensionMismatchError, "different context or bound"),
    ],
)
def test_public_constructors_keep_every_check(make, error, message):
    with pytest.raises(error, match=message):
        make()


# -- exact coefficients -------------------------------------------------------


NOT_EXACT = (0.1, 0.5, 1e300, complex(1, 0), Decimal("0.1"), None)


@pytest.mark.parametrize("value", NOT_EXACT, ids=repr)
def test_a_coefficient_that_is_not_an_exact_rational_is_a_type_error(value):
    builders = (
        lambda: HahnPoly(LEX1, 2, {(1,): value}),
        lambda: HahnPoly.monomial(LEX1, 2, (1,), value),
        lambda: FreeSeries(1, 2, {(): value}),
        lambda: FreeSeries.constant(value, 1, 2),
        lambda: FreeSeries.one(1, 2).scale(value),
        lambda: HahnPoly.one(LEX1, 2).lin_comb([(1, HahnPoly.one(LEX1, 2)), (value, HahnPoly.one(LEX1, 2))]),
        lambda: OpTable.identity(LEX1, 2).scale(value),
        lambda: CharacterX(PROD2, (1, value)),
        lambda: AdditiveChar(PROD2, (value, 1)),
        lambda: middle_correspond(AdditiveChar(PROD2, (1, 0)), {1: value}),
        lambda: middle_correspond(AdditiveChar(PROD2, (1, 0)), {value: 2}),
        lambda: hahn_from_json({"ctx": {"kind": "lex", "dim": 1, "weights": [1]}, "bound": 2,
                                "terms": [{"exps": [1], "coeff": value}]}),
        lambda: free_from_json({"alphabet": 1, "grade": 2, "terms": [{"word": [0], "coeff": value}]}),
    )
    for build in builders:
        with pytest.raises(TypeError, match=re.escape(repr(value))):
            build()


def test_ints_fractions_and_rational_strings_stay_exact():
    a = HahnPoly(LEX1, 2, {(0,): 2, (1,): Fraction(1, 3), (2,): "0.1"})
    assert a.terms == {(0,): 2, (1,): Fraction(1, 3), (2,): Fraction(1, 10)}
    assert all(type(v) is Fraction for v in a.terms.values())
    assert FreeSeries.one(1, 2).scale(Fraction(1, 10)).terms == {(): Fraction(1, 10)}
    assert FreeSeries.one(1, 2).scale(True).terms == {(): 1}
    assert CharacterX(PROD2, (2, "1/2")).values == (2, Fraction(1, 2))
    data = {"alphabet": 1, "grade": 2, "terms": [{"word": [0], "coeff": "1/10"}, {"word": [], "coeff": 3}]}
    assert free_from_json(data).terms == {(0,): Fraction(1, 10), (): 3}


# -- the kernel boundary ------------------------------------------------------


def test_no_module_imports_a_private_name_of_another():
    package = Path(__file__).resolve().parent.parent / "src" / "nseries"
    private = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and (
                node.level or node.module.split(".")[0] == "nseries"
            ):
                private += [(path.name, alias.name) for alias in node.names
                            if alias.name.startswith("_")]
    assert private == []
