"""Text and file formats for series, contexts and operator tables.

Free series:  `1 - X0 + 1/2*X0 X1`   (constant written bare, letters spaced)
Hahn series:  `2*t^(1,0) - 1/3*t^(0,2)`, `1` for t^0
Context:      `lex:d`, `prod:d`, `weighted:w1,w2,...`
Exponent:     `1,0`, comma-separated integers (command-line vectors)
Table file:   header `ctx=<descr> N=<bound>`, then `t^(..) -> <series>` lines.

A series text is read left to right by one term pattern, `_TERM`: an optional
sign, required after the first term, then the text up to the next sign that
lies outside a parenthesised exponent tuple.  Each term is `coeff*key`, `key`
or a bare rational.  Every integer is the ASCII token `[+-]?[0-9]+`.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .errors import DimensionMismatchError, NSeriesError, ParseError
from .free_algebra import FreeSeries
from .hahn_series import HahnPoly
from .operators import OpTable
from .sparse import exact
from .support_order import LEX, WEIGHTED, MonoidCtx

_INT = re.compile(r"\s*[+-]?[0-9]+\s*")
_LETTER = re.compile(r"[Xx]([0-9]+)")
# Exponent tuples never nest, so the body has no nested quantifier to backtrack.
_TERM = re.compile(r"\s*([+-]?)((?:[^+\-()]|\([^()]*\))*)")


def parse_rational(text: str, position: int = 0) -> Fraction:
    """The rational `exact` reads from the stripped text, `p`, `p/q` or a
    decimal in ASCII digits; a ParseError at `position` if it reads none."""
    try:
        return exact(text.strip())
    except NSeriesError as exc:
        raise ParseError(str(exc), position) from None


def format_ctx(ctx: MonoidCtx) -> str:
    if ctx.kind == WEIGHTED:
        return "weighted:" + format_vec(ctx.weights)
    kind = "lex" if ctx.kind == LEX else "prod"
    return f"{kind}:{ctx.dim}"


def _parse_int(tok: str, what: str, position: int | None = None) -> int:
    """One ASCII integer token; a ParseError names `what` and the token."""
    if not _INT.fullmatch(tok):
        raise ParseError(f"{what}: not an integer: {tok.strip()!r}", position)
    return int(tok)


def _parse_ints(text: str, what: str, position: int | None = None) -> tuple[int, ...]:
    """Comma-separated integers; a ParseError names `what` and the bad entry."""
    return tuple(_parse_int(tok, what, position) for tok in text.split(","))


def parse_vec(text: str) -> tuple[int, ...]:
    """An exponent vector written as comma-separated integers, e.g. `1,0`."""
    return _parse_ints(text, f"exponent vector {text!r}")


def format_vec(vec: tuple[int, ...]) -> str:
    """The text `parse_vec` reads: comma-separated integers, e.g. `1,0`."""
    return ",".join(map(str, vec))


_CTX_KINDS = {"lex": MonoidCtx.lex, "prod": MonoidCtx.product, "weighted": MonoidCtx.weighted}


def parse_ctx(text: str) -> MonoidCtx:
    """A context descriptor; a ParseError names it, also when its numbers are
    out of range (a dimension below 1, a weight below 1)."""
    descr = text.strip()
    head, sep, rest = descr.partition(":")
    if not sep:
        raise ParseError(f"context descriptor needs a colon: {text!r}")
    if head not in _CTX_KINDS:
        raise ParseError(f"unknown context kind {head!r}")
    numbers = _parse_ints(rest, f"context descriptor {descr!r}")
    if head != "weighted" and len(numbers) != 1:
        raise ParseError(f"context descriptor {descr!r} takes one dimension")
    try:
        return _CTX_KINDS[head](*numbers)
    except NSeriesError as exc:
        raise ParseError(f"context descriptor {descr!r}: {exc}") from None


# -- signed terms ------------------------------------------------------------

def _format_terms(series, write_key) -> str:
    """Signed terms `c*key` of a series, or `0`; `write_key` gives "" for the
    unit key, whose term is written as the bare rational `c`."""
    parts = []
    for key, coeff in series.sorted_terms():
        mag = abs(coeff)
        body = write_key(key)
        if not body:
            body = str(mag)
        elif mag != 1:
            body = f"{mag}*{body}"
        if not parts:
            parts.append(body if coeff > 0 else f"-{body}")
        else:
            parts.append(("+ " if coeff > 0 else "- ") + body)
    return " ".join(parts) or "0"


def _parse_terms(text: str, read_key, unit_key: tuple[int, ...]) -> dict:
    """Signed `coeff*key` terms summed per key.  `read_key(body, position)` gives
    the key written by `body`, or None when `body` is a bare rational."""
    terms: dict[tuple[int, ...], Fraction] = {}
    end = 0
    while True:
        match = _TERM.match(text, end)
        sign, body, pos, end = match[1], match[2].strip(), match.start(2), match.end()
        if text[end:end + 1] in ("(", ")"):
            raise ParseError("unbalanced parenthesis", end)
        if not body:
            raise ParseError("empty term" if sign or terms else "empty series text", pos)
        coeff = Fraction(1)
        if "*" in body:
            coeff_text, _, body = body.partition("*")
            coeff = parse_rational(coeff_text, pos)
            body = body.strip()
        if not body:
            raise ParseError("missing monomial after '*'", pos)
        key = read_key(body, pos)
        if key is None:
            key, coeff = unit_key, coeff * parse_rational(body, pos)
        terms[key] = terms.get(key, Fraction(0)) + (-coeff if sign == "-" else coeff)
        if end == len(text):
            return terms


# -- free series -------------------------------------------------------------

def _write_word(word: tuple[int, ...]) -> str:
    return " ".join(f"X{i}" for i in word)


def _read_word(body: str, position: int) -> tuple[int, ...] | None:
    if body[0] not in ("X", "x"):
        return None
    letters = []
    for tok in body.split():
        letter = _LETTER.fullmatch(tok)
        if not letter:
            raise ParseError(f"bad variable token {tok!r}", position)
        letters.append(int(letter[1]))
    return tuple(letters)


def format_free(P: FreeSeries) -> str:
    return _format_terms(P, _write_word)


def parse_free(
    text: str, alphabet_size: int | None = None, grade: int | None = None
) -> FreeSeries:
    """Parse the free-series grammar; dimensions are inferred when omitted."""
    terms = _parse_terms(text, _read_word, ())
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

def _write_exponent(exp: tuple[int, ...]) -> str:
    return f"t^({format_vec(exp)})"


def _read_exponent(body: str, position: int | None, dim: int) -> tuple[int, ...] | None:
    """The exponent of `t^(e1,...,ed)`, or None when `body` does not start with `t^`."""
    if body.startswith("t^(") and body.endswith(")"):
        exps = _parse_ints(body[3:-1], f"bad exponent tuple {body!r}", position)
        if len(exps) != dim:
            raise DimensionMismatchError(
                f"exponent tuple {exps} has dimension {len(exps)}, context expects {dim}"
            )
        return exps
    if body.startswith("t^"):
        raise ParseError(f"exponent must be parenthesized: {body!r}", position)
    return None


def format_hahn(a: HahnPoly) -> str:
    return _format_terms(a, lambda e: _write_exponent(e) if any(e) else "")


def parse_hahn(text: str, ctx: MonoidCtx, bound: int) -> HahnPoly:
    terms = _parse_terms(
        text, lambda body, pos: _read_exponent(body, pos, ctx.dim), (0,) * ctx.dim
    )
    return HahnPoly(ctx, bound, terms)


# -- operator table files ----------------------------------------------------

def format_op_table(table: OpTable) -> str:
    lines = [f"ctx={format_ctx(table.ctx)} N={table.bound}"]
    for m in table.basis():
        lines.append(f"{_write_exponent(m)} -> {format_hahn(table.images[m])}")
    return "\n".join(lines) + "\n"


def parse_op_table(text: str) -> OpTable:
    """Parse a table file; a ParseError names the line it comes from."""
    lines = [(n, ln.strip()) for n, ln in enumerate(text.splitlines(), 1) if ln.strip()]
    if not lines:
        raise ParseError("empty table text")
    n, header = lines[0]
    try:
        fields = {}
        for part in header.split():
            key, sep, value = part.partition("=")
            if not sep:
                raise ParseError(f"table header token {part!r} has no '='")
            if key not in ("ctx", "N"):
                raise ParseError(f"unknown table header field {key!r}")
            if key in fields:
                raise ParseError(f"repeated table header field {key!r}")
            fields[key] = value
        if "ctx" not in fields or "N" not in fields:
            raise ParseError(f"table header must carry ctx= and N=: {header!r}")
        ctx = parse_ctx(fields["ctx"])
        bound = _parse_int(fields["N"], "table header field N")
        if bound < 0:
            raise ParseError(f"table header field N: bound must be >= 0: {fields['N']!r}")
        images = {}
        for n, ln in lines[1:]:
            left, sep, right = ln.partition("->")
            if not sep:
                raise ParseError(f"table line needs '->': {ln!r}")
            left = left.strip()
            exp = _read_exponent(left, None, ctx.dim)
            if exp is None:
                raise ParseError(f"bad basis monomial {left!r}")
            if not ctx.in_truncation(exp, bound):
                raise ParseError(f"basis monomial {left} lies outside the universe of N={bound}")
            if exp in images:
                raise ParseError(f"duplicate basis line for {left}")
            images[exp] = parse_hahn(right.strip(), ctx, bound)
    except NSeriesError as exc:
        raise ParseError(f"line {n}: {exc}") from None
    return OpTable(ctx, bound, images)
