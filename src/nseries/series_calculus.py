"""Named exponential/logarithm series, formal substitution and BCH machinery.

Everything lives in the truncated free algebra: the one-variable series

    E0 = sum_{n>=0} X0^n / n!        L0 = sum_{n>=1} (-1)^(n+1) X0^n / n

and, in two noncommuting variables, the group-law series X0 * X1 assembled
from the block sums K_n, together with an independent commutator-formula
oracle and the Dynkin-Specht-Wever projection used to certify Lie elements.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial
from typing import Mapping

from .errors import DimensionMismatchError, NotInIdealError
from .free_algebra import FreeSeries, Word, evaluate_words, nilpotent_sum


def series_E0(order: int) -> FreeSeries:
    """The exponential series sum_{n<=order} X0^n / n! in one variable."""
    terms = {(0,) * n: Fraction(1, factorial(n)) for n in range(order + 1)}
    return FreeSeries(1, order, terms)


def series_L0(order: int) -> FreeSeries:
    """The logarithm series sum_{1<=n<=order} (-1)^(n+1) X0^n / n."""
    terms = {(0,) * n: Fraction((-1) ** (n + 1), n) for n in range(1, order + 1)}
    return FreeSeries(1, order, terms)


def fs_substitute(P: FreeSeries, args: Mapping[int, FreeSeries]) -> FreeSeries:
    """Substitute augmentation-ideal series for the variables of P.

    Every letter of P's alphabet must be assigned a series with zero constant
    term; all assigned series share one alphabet and grade bound, which the
    result inherits.  Words of P longer than the target bound contribute
    nothing because each substituted factor has grade >= 1.
    """
    if P.alphabet_size == 0:
        raise DimensionMismatchError("cannot substitute into a variable-free series")
    missing = [i for i in range(P.alphabet_size) if i not in args]
    if missing:
        raise DimensionMismatchError(f"no substitution given for variable(s) {missing}")
    picked = [args[i] for i in range(P.alphabet_size)]
    first = picked[0]
    for g in picked[1:]:
        first._require_same(g)
    for i, g in enumerate(picked):
        if not g.in_augmentation_ideal():
            raise NotInIdealError(
                f"substitution for variable {i} has nonzero constant term {g.constant_term}"
            )
    one = FreeSeries.one(first.alphabet_size, first.grade)
    return evaluate_words(P, picked, one, FreeSeries.__mul__, first.grade)


def _block_sum(order: int) -> FreeSeries:
    """sum over single blocks X0^m X1^p / (m! p!) with 1 <= m+p <= order."""
    terms: dict[Word, Fraction] = {}
    for m in range(order + 1):
        for p in range(order + 1 - m):
            if m + p == 0:
                continue
            word = (0,) * m + (1,) * p
            terms[word] = Fraction(1, factorial(m) * factorial(p))
    return FreeSeries(2, order, terms)


def bch_term(n: int, order: int) -> FreeSeries:
    """The n-block sum K_n: all products of n nonempty X0-block/X1-block pairs.

    Equals the n-th power of the single-block sum, i.e. the n-th power of
    (exp X0 . exp X1 - 1), truncated at the grade bound.
    """
    if n < 1:
        raise ValueError("block count must be >= 1 (the linear part sits in the n=1 term)")
    return _block_sum(order).power(n)


def bch_product(order: int) -> FreeSeries:
    """The group-law series X0 * X1 = sum_{n>=1} (-1)^(n+1)/n K_n = L0(K_1), truncated."""
    one = FreeSeries.one(2, order)
    return nilpotent_sum(series_L0(order), _block_sum(order), one, FreeSeries.__mul__)


def _right_nested_bracket(word: Word) -> dict[Word, int]:
    """Expand [w1,[w2,[...,[w_{T-1}, w_T]...]]] into the free algebra."""
    acc: dict[Word, int] = {(word[-1],): 1}
    for letter in reversed(word[:-1]):
        nxt: dict[Word, int] = {}
        for w, c in acc.items():
            left = (letter,) + w
            right = w + (letter,)
            nxt[left] = nxt.get(left, 0) + c
            nxt[right] = nxt.get(right, 0) - c
        acc = {w: c for w, c in nxt.items() if c != 0}
    return acc


def _left_normed_bracket(word: Word) -> dict[Word, int]:
    """Expand [[..[[w1, w2], w3].., w_T] into the free algebra.

    It equals (-1)^(T-1) [w_T, [.., [w2, w1]..]], the right-nested bracket of
    the reversed word, since [u, v] = -[v, u] at each of the T - 1 levels.
    """
    sign = (-1) ** (len(word) - 1)
    return {w: sign * c for w, c in _right_nested_bracket(word[::-1]).items()}


def dynkin_bch(order: int) -> FreeSeries:
    """BCH series by the classical commutator formula; independent oracle.

    Sums, over block tuples ((r_1,s_1),..,(r_n,s_n)) with each r+s >= 1 and
    total degree T <= order, the right-nested bracket of the block word with
    coefficient (-1)^(n-1) / (n T prod r_i! s_i!).
    """
    acc: dict[Word, Fraction] = {}

    def emit(blocks: list[tuple[int, int]]):
        n = len(blocks)
        total = sum(r + s for r, s in blocks)
        word: Word = ()
        denom = 1
        for r, s in blocks:
            word = word + (0,) * r + (1,) * s
            denom *= factorial(r) * factorial(s)
        coeff = Fraction((-1) ** (n - 1), n * total * denom)
        for w, c in _right_nested_bracket(word).items():
            acc[w] = acc.get(w, Fraction(0)) + coeff * c

    def expand(blocks: list[tuple[int, int]], used: int):
        if blocks:
            emit(blocks)
        for r in range(order - used + 1):
            for s in range(order - used - r + 1):
                if r + s == 0:
                    continue
                blocks.append((r, s))
                expand(blocks, used + r + s)
                blocks.pop()

    expand([], 0)
    return FreeSeries(2, order, acc)


def dynkin_project(P: FreeSeries, n: int) -> FreeSeries:
    """Left-normed bracketing applied to the degree-n slice of P.

    A homogeneous degree-n element Q is a Lie element exactly when the
    projection returns n*Q.
    """
    if n < 1:
        raise ValueError("projection degree must be >= 1")
    slice_terms = P.grade_slice(n).terms
    acc: dict[Word, Fraction] = {}
    for word, coeff in slice_terms.items():
        for w, c in _left_normed_bracket(word).items():
            acc[w] = acc.get(w, Fraction(0)) + coeff * c
    return FreeSeries(P.alphabet_size, P.grade, acc)


def is_lie_slice(P: FreeSeries, n: int) -> bool:
    """Dynkin-Specht-Wever test on the degree-n slice of P."""
    return dynkin_project(P, n) == P.grade_slice(n).scale(n)
