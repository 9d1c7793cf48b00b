"""Text and file formats for series, contexts and operator tables.

Free series:  `1 - X0 + 1/2*X0 X1`   (constant written bare, letters spaced)
Hahn series:  `2*t^(1,0) - 1/3*t^(0,2)`, `1` for t^0
Context:      `lex:d`, `prod:d`, `weighted:w1,w2,...`
Table file:   header `ctx=<descr> N=<bound>`, then `t^(..) -> <series>` lines.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import DimensionMismatchError, NSeriesError, ParseError
from .free_algebra import FreeSeries
from .hahn_series import HahnPoly
from .operators import OpTable
from .support_order import LEX, WEIGHTED, MonoidCtx, weight_universe


def format_rational(c: Fraction) -> str:
    return str(c)


def parse_rational(text: str, position: int = 0) -> Fraction:
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"not an exact rational: {text.strip()!r}", position) from exc


def format_ctx(ctx: MonoidCtx) -> str:
    if ctx.kind == WEIGHTED:
        return "weighted:" + ",".join(str(w) for w in ctx.weights)
    kind = "lex" if ctx.kind == LEX else "prod"
    return f"{kind}:{ctx.dim}"


def parse_ctx(text: str) -> MonoidCtx:
    head, sep, rest = text.strip().partition(":")
    if not sep:
        raise ParseError(f"context descriptor needs a colon: {text!r}")
    if head == "lex":
        return MonoidCtx.lex(int(rest))
    if head == "prod":
        return MonoidCtx.product(int(rest))
    if head == "weighted":
        weights = tuple(int(w) for w in rest.split(","))
        return MonoidCtx.weighted(*weights)
    raise ParseError(f"unknown context kind {head!r}")


# -- signed-term tokenizer ---------------------------------------------------

def _split_terms(text: str) -> list[tuple[int, str, int]]:
    """Split on top-level +/- into (sign, chunk, position) triples."""
    terms = []
    sign = 1
    sign_seen = False
    chunk = []
    start = 0
    depth = 0
    for pos, ch in enumerate(text):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                raise ParseError("unbalanced parenthesis", pos)
        if ch in "+-" and depth == 0:
            body = "".join(chunk).strip()
            if body:
                terms.append((sign, body, start))
            elif terms or sign_seen:
                raise ParseError("empty term", pos)
            sign = 1 if ch == "+" else -1
            sign_seen = True
            chunk = []
            start = pos + 1
        else:
            chunk.append(ch)
    if depth != 0:
        raise ParseError("unbalanced parenthesis", len(text))
    body = "".join(chunk).strip()
    if body:
        terms.append((sign, body, start))
    elif not terms:
        raise ParseError("empty series text", 0)
    return terms


# -- free series -------------------------------------------------------------

def format_free(P: FreeSeries) -> str:
    if P.is_zero():
        return "0"
    parts = []
    for word, coeff in P.sorted_terms():
        mag = abs(coeff)
        if word:
            body = " ".join(f"X{i}" for i in word)
            if mag != 1:
                body = f"{format_rational(mag)}*{body}"
        else:
            body = format_rational(mag)
        if not parts:
            parts.append(body if coeff > 0 else f"-{body}")
        else:
            parts.append(("+ " if coeff > 0 else "- ") + body)
    return " ".join(parts)


def _parse_free_term(body: str, position: int) -> tuple[tuple[int, ...], Fraction]:
    coeff = Fraction(1)
    if "*" in body:
        coeff_text, _, body = body.partition("*")
        coeff = parse_rational(coeff_text, position)
        body = body.strip()
    if not body:
        raise ParseError("missing word after '*'", position)
    if body[0] == "X" or body[0] == "x":
        letters = []
        for tok in body.split():
            if not tok[:1] in ("X", "x") or not tok[1:].isdigit():
                raise ParseError(f"bad variable token {tok!r}", position)
            letters.append(int(tok[1:]))
        return tuple(letters), coeff
    return (), coeff * parse_rational(body, position)


def parse_free(
    text: str, alphabet_size: int | None = None, grade: int | None = None
) -> FreeSeries:
    """Parse the free-series grammar; dimensions are inferred when omitted."""
    if text.strip() == "0":
        return FreeSeries.zero(alphabet_size or 1, grade or 0)
    terms: dict[tuple[int, ...], Fraction] = {}
    for sign, body, pos in _split_terms(text):
        word, coeff = _parse_free_term(body, pos)
        terms[word] = terms.get(word, Fraction(0)) + sign * coeff
    max_letter = max((max(w) for w in terms if w), default=-1)
    max_len = max((len(w) for w in terms), default=0)
    if alphabet_size is None:
        alphabet_size = max_letter + 1 if max_letter >= 0 else 1
    elif max_letter >= alphabet_size:
        raise DimensionMismatchError(
            f"letter X{max_letter} outside alphabet of size {alphabet_size}"
        )
    if grade is None:
        grade = max_len
    return FreeSeries(alphabet_size, grade, terms)


# -- Hahn series -------------------------------------------------------------

def format_hahn(a: HahnPoly) -> str:
    if a.is_zero():
        return "0"
    parts = []
    for exp, coeff in a.sorted_terms():
        mag = abs(coeff)
        if any(exp):
            body = "t^(" + ",".join(str(e) for e in exp) + ")"
            if mag != 1:
                body = f"{format_rational(mag)}*{body}"
        else:
            body = format_rational(mag)
        if not parts:
            parts.append(body if coeff > 0 else f"-{body}")
        else:
            parts.append(("+ " if coeff > 0 else "- ") + body)
    return " ".join(parts)


def _parse_hahn_term(
    body: str, position: int, ctx: MonoidCtx
) -> tuple[tuple[int, ...], Fraction]:
    coeff = Fraction(1)
    if "*" in body:
        coeff_text, _, body = body.partition("*")
        coeff = parse_rational(coeff_text, position)
        body = body.strip()
    if not body:
        raise ParseError("missing monomial after '*'", position)
    if body.startswith("t^(") and body.endswith(")"):
        inner = body[3:-1]
        try:
            exps = tuple(int(x) for x in inner.split(","))
        except ValueError as exc:
            raise ParseError(f"bad exponent tuple {inner!r}", position) from exc
        if len(exps) != ctx.dim:
            raise DimensionMismatchError(
                f"exponent tuple {exps} has dimension {len(exps)}, context expects {ctx.dim}"
            )
        return exps, coeff
    if body.startswith("t^"):
        raise ParseError(f"exponent must be parenthesized: {body!r}", position)
    return (0,) * ctx.dim, coeff * parse_rational(body, position)


def parse_hahn(text: str, ctx: MonoidCtx, bound: int) -> HahnPoly:
    if text.strip() == "0":
        return HahnPoly.zero(ctx, bound)
    terms: dict[tuple[int, ...], Fraction] = {}
    for sign, body, pos in _split_terms(text):
        exp, coeff = _parse_hahn_term(body, pos, ctx)
        terms[exp] = terms.get(exp, Fraction(0)) + sign * coeff
    return HahnPoly(ctx, bound, terms)


# -- operator table files ----------------------------------------------------

def format_op_table(table: OpTable) -> str:
    lines = [f"ctx={format_ctx(table.ctx)} N={table.bound}"]
    for m in weight_universe(table.ctx, table.bound):
        exp = "t^(" + ",".join(str(e) for e in m) + ")"
        lines.append(f"{exp} -> {format_hahn(table.images[m])}")
    return "\n".join(lines) + "\n"


def parse_op_table(text: str) -> OpTable:
    """Parse a table file; a ParseError names the line it comes from."""
    lines = [(n, ln.strip()) for n, ln in enumerate(text.splitlines(), 1) if ln.strip()]
    if not lines:
        raise ParseError("empty table text")
    n, header = lines[0]
    try:
        fields = dict(part.split("=", 1) for part in header.split() if "=" in part)
        if "ctx" not in fields or "N" not in fields:
            raise ParseError(f"table header must carry ctx= and N=: {header!r}")
        ctx = parse_ctx(fields["ctx"])
        bound = int(fields["N"])
        universe = set(weight_universe(ctx, bound))
        images = {}
        for n, ln in lines[1:]:
            left, sep, right = ln.partition("->")
            if not sep:
                raise ParseError(f"table line needs '->': {ln!r}")
            left = left.strip()
            if not (left.startswith("t^(") and left.endswith(")")):
                raise ParseError(f"bad basis monomial {left!r}")
            exp = ctx.check_vec(int(x) for x in left[3:-1].split(","))
            if exp not in universe:
                raise ParseError(f"basis monomial {left} lies outside the universe of N={bound}")
            if exp in images:
                raise ParseError(f"duplicate basis line for {left}")
            images[exp] = parse_hahn(right.strip(), ctx, bound)
    except (NSeriesError, ValueError) as exc:
        raise ParseError(f"line {n}: {exc}") from None
    return OpTable(ctx, bound, images)
