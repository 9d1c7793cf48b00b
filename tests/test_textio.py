import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nseries import FreeSeries, HahnPoly, MonoidCtx, OpTable, ParseError
from nseries.errors import DimensionMismatchError
from nseries.samples import random_contracting_table, random_free_series, random_hahn
from nseries.textio import (
    format_ctx,
    format_free,
    format_hahn,
    format_op_table,
    parse_ctx,
    parse_free,
    parse_hahn,
    parse_op_table,
    parse_rational,
    parse_vec,
)

LEX1 = MonoidCtx.lex(1)
PROD2 = MonoidCtx.product(2)


def test_format_free_examples():
    p = FreeSeries(2, 2, {(): 1, (0,): -1, (0, 1): F(1, 2)})
    assert format_free(p) == "1 - X0 + 1/2*X0 X1"
    assert format_free(FreeSeries.zero(2, 2)) == "0"
    assert format_free(FreeSeries.variable(0, 1, 1)) == "X0"


def test_parse_free_examples():
    p = parse_free("1 - X0 + 1/2*X0 X1")
    assert p == FreeSeries(2, 2, {(): 1, (0,): -1, (0, 1): F(1, 2)})
    assert parse_free("-3/4") == FreeSeries(1, 0, {(): F(-3, 4)})
    assert parse_free("X1 X1 X0", grade=5) == FreeSeries(2, 5, {(1, 1, 0): 1})
    assert parse_free("2*3/4 - X0") == FreeSeries(1, 1, {(): F(3, 2), (0,): -1})


def test_parse_free_errors():
    with pytest.raises(ParseError):
        parse_free("1 + * X0")
    with pytest.raises(ParseError):
        parse_free("2 ++ X0")
    with pytest.raises(DimensionMismatchError):
        parse_free("X3", alphabet_size=2)
    with pytest.raises(ParseError):
        parse_free("1/0")


def test_parse_free_zero_keeps_explicit_dimensions():
    assert parse_free("0", alphabet_size=0, grade=3) == FreeSeries.zero(0, 3)
    assert parse_free("0") == FreeSeries.zero(1, 0)


def test_free_roundtrip_random():
    rng = random.Random(5)
    for _ in range(20):
        p = random_free_series(rng, 2, 4)
        text = format_free(p)
        assert parse_free(text, alphabet_size=2, grade=4) == p
        assert format_free(parse_free(text, alphabet_size=2, grade=4)) == text


def test_format_hahn_examples():
    a = HahnPoly(PROD2, 4, {(1, 0): F(3, 2), (0, 2): -1, (0, 0): 1})
    assert format_hahn(a) == "1 + 3/2*t^(1,0) - t^(0,2)"
    assert format_hahn(HahnPoly.zero(PROD2, 4)) == "0"


def test_parse_hahn_examples():
    a = parse_hahn("3/2*t^(1,0)", PROD2, 4)
    assert a == HahnPoly(PROD2, 4, {(1, 0): F(3, 2)})
    assert parse_hahn("1", PROD2, 4) == HahnPoly.one(PROD2, 4)
    assert parse_hahn("t^(2) - t^(1)", LEX1, 4) == HahnPoly(LEX1, 4, {(2,): 1, (1,): -1})
    with pytest.raises(DimensionMismatchError):
        parse_hahn("t^(1)", PROD2, 4)


def test_hahn_roundtrip_random():
    rng = random.Random(9)
    for ctx in (LEX1, PROD2, MonoidCtx.weighted(1, 2)):
        for _ in range(15):
            a = random_hahn(rng, ctx, 5)
            text = format_hahn(a)
            assert parse_hahn(text, ctx, 5) == a
            assert format_hahn(parse_hahn(text, ctx, 5)) == text


def test_ctx_descriptors():
    for ctx in (LEX1, PROD2, MonoidCtx.weighted(2, 3)):
        assert parse_ctx(format_ctx(ctx)) == ctx
    assert format_ctx(MonoidCtx.weighted(2, 3)) == "weighted:2,3"
    with pytest.raises(ParseError):
        parse_ctx("zorder:2")
    with pytest.raises(ParseError):
        parse_ctx("lex")


def test_ctx_descriptor_bad_integer_names_the_descriptor():
    with pytest.raises(ParseError, match="context descriptor 'weighted:1,x': not an integer: 'x'"):
        parse_ctx("weighted:1,x")
    with pytest.raises(ParseError, match="'lex:1,2' takes one dimension"):
        parse_ctx("lex:1,2")


def test_op_table_roundtrip():
    rng = random.Random(13)
    for ctx in (LEX1, PROD2):
        t = random_contracting_table(rng, ctx, 4)
        text = format_op_table(t)
        assert text.splitlines()[0] == f"ctx={format_ctx(ctx)} N=4"
        parsed = parse_op_table(text)
        assert parsed == t
        assert format_op_table(parsed) == text


def test_op_table_parse_errors():
    with pytest.raises(ParseError):
        parse_op_table("")
    with pytest.raises(ParseError):
        parse_op_table("ctx=lex:1\nt^(0) -> 1")  # missing N
    with pytest.raises(ParseError):
        parse_op_table("ctx=lex:1 N=1\nt^(0) 1")  # missing arrow


def test_op_table_rejects_duplicate_basis_line():
    text = "ctx=lex:1 N=2\nt^(0) -> 0\nt^(1) -> t^(2)\nt^(1) -> 0\nt^(2) -> 0\n"
    with pytest.raises(ParseError, match="line 4: duplicate basis line"):
        parse_op_table(text)


def test_op_table_rejects_basis_outside_universe():
    with pytest.raises(ParseError, match="line 4: .*outside the universe"):
        parse_op_table("ctx=lex:1 N=1\nt^(0) -> 0\nt^(1) -> 0\nt^(5) -> 0\n")
    with pytest.raises(ParseError, match="line 2: "):
        parse_op_table("ctx=prod:2 N=1\nt^(-1,0) -> 0\n")


def test_op_table_rejects_bad_integers():
    with pytest.raises(ParseError, match="line 3: .*'x'"):
        parse_op_table("ctx=lex:1 N=1\nt^(0) -> 0\nt^(x) -> 0\n")
    with pytest.raises(ParseError, match="line 1: .*'two'"):
        parse_op_table("ctx=lex:1 N=two\n")
    with pytest.raises(ParseError, match="line 2: .*'one'"):
        parse_op_table("\nctx=lex:one N=1\n")


@pytest.mark.parametrize(
    "header, message",
    [
        ("ctx=lex:1 N=3 N=2", "repeated table header field 'N'"),
        ("ctx=lex:1 ctx=prod:1 N=2", "repeated table header field 'ctx'"),
        ("ctx=lex:1 N=2 foo=1", "unknown table header field 'foo'"),
        ("ctx=lex:1 N=2 junk", "table header token 'junk' has no '='"),
    ],
)
def test_op_table_header_takes_each_field_once(header, message):
    body = "\nt^(0) -> 0\nt^(1) -> 0\nt^(2) -> 0\n"
    with pytest.raises(ParseError, match=f"line 1: {message}"):
        parse_op_table(header + body)


@pytest.mark.parametrize(
    "parse, message",
    [
        (lambda: parse_free("1 -"), r"empty term \(at position 3\)"),
        (lambda: parse_hahn("t^(1) +", LEX1, 4), r"empty term \(at position 7\)"),
        (lambda: parse_op_table("ctx=lex:1 N=1\nt^(0) -> t^(1) -\nt^(1) -> 0\n"),
         "line 2: empty term"),
    ],
    ids=["free", "hahn", "table"],
)
def test_a_dangling_sign_is_an_empty_term(parse, message):
    with pytest.raises(ParseError, match=message):
        parse()


@pytest.mark.parametrize("text", ["", "  ", "(", "X0 )", "t^(1", "1 + (X0"])
def test_empty_text_and_stray_parentheses_carry_a_position(text):
    with pytest.raises(ParseError) as info:
        parse_free(text)
    assert info.value.position is not None


def test_integer_tokens_keep_their_sign_and_surrounding_spaces():
    assert parse_vec(" -1 , +2 ") == (-1, 2)
    assert parse_ctx("weighted: 1, 2") == MonoidCtx.weighted(1, 2)
    assert parse_hahn("t^( 1, 0 )", PROD2, 2) == HahnPoly.monomial(PROD2, 2, (1, 0))


@pytest.mark.parametrize(
    "parse, message",
    [
        (lambda: parse_vec("1_0,2"), "exponent vector '1_0,2': not an integer: '1_0'"),
        (lambda: parse_vec("\u0663,1"), "exponent vector '\u0663,1': not an integer"),
        (lambda: parse_ctx("lex:1_0"), "context descriptor 'lex:1_0': not an integer: '1_0'"),
        (lambda: parse_hahn("t^(0_1)", LEX1, 4), "not an integer: '0_1'"),
        (lambda: parse_free("X\u0663"), "bad variable token 'X\u0663'"),
        (lambda: parse_free("X\u00b2"), "bad variable token 'X\u00b2'"),
        (lambda: parse_free("X1_0"), "bad variable token 'X1_0'"),
        (lambda: parse_op_table("ctx=lex:1 N=1_0\n"), "line 1: .*not an integer: '1_0'"),
        (lambda: parse_op_table("ctx=lex:1 N=\u0663\n"), "line 1: .*not an integer"),
        (lambda: parse_rational("1_0"), "not an exact rational: '1_0'"),
        (lambda: parse_rational("\u0661/\u0662"), "not an exact rational"),
        (lambda: parse_free("1_0*X0"), "not an exact rational: '1_0'"),
    ],
    ids=["vector", "vector-arabic", "ctx", "exponent", "arabic-letter", "superscript-letter",
         "letter-separator", "header", "header-arabic", "rational", "rational-arabic",
         "coefficient"],
)
def test_non_ascii_digits_and_separators_are_parse_errors(parse, message):
    with pytest.raises(ParseError, match=message):
        parse()


def test_rationals_keep_integers_fractions_and_decimals():
    assert parse_rational(" -3 ") == -3
    assert parse_rational("-3/4") == F(-3, 4)
    assert parse_rational("0.25") == F(1, 4)


@settings(max_examples=50)
@given(st.dictionaries(st.lists(st.integers(0, 1), max_size=2).map(tuple),
                       st.fractions(min_value=-4, max_value=4, max_denominator=6), max_size=5),
       st.sampled_from([" ", "\n", " \n  "]))
def test_repeated_keys_sum_and_terms_may_span_lines(terms, gap):
    """Each term written as two signed halves, the sign apart from its term."""
    parts = []
    for word, c in terms.items():
        body = " ".join(f"x{i}" for i in word) or "1"
        parts += [f"{'-' if c < 0 else '+'}{gap}{abs(c) / 2}*{body}"] * 2
    assert parse_free(gap.join(parts) or "0", 2, 2) == FreeSeries(2, 2, terms)


# -- round-trip properties: parse(format(x)) == x ------------------------------

PROPERTY = settings(max_examples=100)
COEFFS = st.fractions(min_value=-20, max_value=20, max_denominator=12)
HAHN_CONTEXTS = (LEX1, MonoidCtx.product(2), MonoidCtx.weighted(1, 2))


@st.composite
def free_series(draw):
    alphabet = draw(st.integers(0, 3))
    grade = draw(st.integers(0, 4))
    letters = st.integers(0, max(alphabet - 1, 0))
    words = st.lists(letters, max_size=grade if alphabet else 0).map(tuple)
    return FreeSeries(alphabet, grade, draw(st.dictionaries(words, COEFFS, max_size=6)))


@st.composite
def hahn_terms(draw, ctx, bound):
    """Terms over exponents of weight in [0, bound], negative entries included."""
    exps = st.tuples(*[st.integers(-2, bound)] * ctx.dim).filter(
        lambda e: 0 <= ctx.weight(e) <= bound
    )
    return draw(st.dictionaries(exps, COEFFS, max_size=5))


@st.composite
def hahn_series(draw, ctx):
    bound = draw(st.integers(0, 5))
    return HahnPoly(ctx, bound, draw(hahn_terms(ctx, bound)))


@st.composite
def op_tables(draw):
    ctx = draw(st.sampled_from(HAHN_CONTEXTS))
    bound = draw(st.integers(0, 3))
    return OpTable.from_function(
        ctx, bound, lambda m: HahnPoly(ctx, bound, draw(hahn_terms(ctx, bound)))
    )


@PROPERTY
@given(free_series())
def test_free_roundtrip_property(p):
    assert parse_free(format_free(p), alphabet_size=p.alphabet_size, grade=p.grade) == p


@pytest.mark.parametrize("ctx", HAHN_CONTEXTS, ids=format_ctx)
@PROPERTY
@given(data=st.data())
def test_hahn_roundtrip_property(ctx, data):
    a = data.draw(hahn_series(ctx))
    assert parse_hahn(format_hahn(a), ctx, a.bound) == a


@PROPERTY
@given(op_tables())
def test_op_table_roundtrip_property(t):
    assert parse_op_table(format_op_table(t)) == t
