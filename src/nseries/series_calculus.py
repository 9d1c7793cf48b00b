"""Named exponential/logarithm series, formal substitution and BCH machinery.

Everything lives in the truncated free algebra: the named one-variable series

    E0 = sum_{n>=0} X0^n / n!        L0 = sum_{n>=1} (-1)^(n+1) X0^n / n
    B_c = (1 + X0)^c = sum_{n>=0} binom(c, n) X0^n, c an exact rational

(`series_E0`, `series_L0` and `series_binomial`), and, in two noncommuting
variables, the group-law series X0 * X1 assembled from the block sums K_n,
together with an independent commutator-formula oracle and the
Dynkin-Specht-Wever projection used to certify Lie elements.  The
one-variable series are evaluated at nilpotent elements by
`free_algebra.nilpotent_sum`.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, lcm
from typing import Mapping

from .errors import DimensionMismatchError, NotInIdealError, NSeriesError
from .free_algebra import FreeSeries, Word, evaluate_words, nilpotent_sum
from .sparse import exact


def _named(alphabet_size: int, order: int, terms: dict) -> FreeSeries:
    """The series with `terms`, canonical by construction, built unchecked in a
    space checked once, as `operators._extend` checks its own."""
    return FreeSeries._trusted(FreeSeries.zero(alphabet_size, order)._space(), terms)


def series_E0(order: int) -> FreeSeries:
    """The exponential series sum_{n<=order} X0^n / n! in one variable."""
    return _named(1, order, {(0,) * n: Fraction(1, factorial(n)) for n in range(order + 1)})


def series_L0(order: int) -> FreeSeries:
    """The logarithm series sum_{1<=n<=order} (-1)^(n+1) X0^n / n."""
    return _named(1, order, {(0,) * n: Fraction((-1) ** (n + 1), n) for n in range(1, order + 1)})


def series_binomial(c, order: int) -> FreeSeries:
    """The binomial series sum_{n<=order} binom(c, n) X0^n, which is (1 + X0)^c
    and E0(c L0) in Q[[X0]]; c must be an exact rational (`exact`).  For an
    integer c with 0 <= c < n, binom(c, n) is zero and left out."""
    c, coeff, terms = exact(c), Fraction(1), {}
    for n in range(order + 1):
        if coeff:
            terms[(0,) * n] = coeff
        coeff = coeff * (c - n) / (n + 1)
    return _named(1, order, terms)


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
    return evaluate_words(P, picked)


def _block_sum(order: int) -> FreeSeries:
    """sum over single blocks X0^m X1^p / (m! p!) with 1 <= m+p <= order."""
    return _named(2, order, {(0,) * m + (1,) * p: Fraction(1, factorial(m) * factorial(p))
                             for m in range(order + 1) for p in range(order + 1 - m) if m + p})


def bch_term(n: int, order: int) -> FreeSeries:
    """The n-block sum K_n: all products of n nonempty X0-block/X1-block pairs.

    Equals the n-th power of the single-block sum, i.e. the n-th power of
    (exp X0 . exp X1 - 1), truncated at the grade bound.
    """
    if n < 1:
        raise NSeriesError("block count must be >= 1 (the linear part sits in the n=1 term)")
    return _block_sum(order).power(n)


def bch_product(order: int) -> FreeSeries:
    """The group-law series X0 * X1 = sum_{n>=1} (-1)^(n+1)/n K_n = L0(K_1), truncated."""
    return nilpotent_sum(series_L0(order), _block_sum(order))


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


def _dynkin_denominator(order: int) -> int:
    """lcm(1..order)^2 * order!, a common denominator of every `dynkin_bch` term.

    A tuple of n blocks and total degree T <= order has n <= T, so n and T
    each divide lcm(1..order); prod r_i! s_i! divides T!, a multinomial
    denominator, and T! divides order!.
    """
    return lcm(*range(1, order + 1)) ** 2 * factorial(order)


def dynkin_bch(order: int) -> FreeSeries:
    """BCH series by the classical commutator formula; independent oracle.

    Sums, over block tuples ((r_1,s_1),..,(r_n,s_n)) with each r+s >= 1 and
    total degree T <= order, the right-nested bracket of the block word
    X0^r_1 X1^s_1 .. X0^r_n X1^s_n with coefficient (-1)^(n-1) / (n T prod
    r_i! s_i!).  An explicit stack of (word, n, prod r_i! s_i!) visits each
    tuple before its extensions, at one concatenation and one division per
    tuple: the blocks that fit each room (the order minus the word's length)
    are listed once, so no block is tested per tuple.  Many tuples spell one
    word (at order 8, 15,759 tuples spell 510 words), so each tuple's
    coefficient is first summed into its word, as an integer over
    `_dynkin_denominator(order)`, and the by-word sums run once through the
    right-nested bracket rows, one per distinct word, divided by one gcd.
    """
    common = _dynkin_denominator(order)
    fitting = [[((0,) * r + (1,) * s, factorial(r) * factorial(s))
                for r in range(room, -1, -1) for s in range(room - r, -1, -1) if r + s]
               for room in range(order + 1)]
    by_word: dict[Word, int] = {}
    stack = [((), 0, 1)]
    while stack:
        word, n, prod = stack.pop()
        if n:
            coeff = (-1) ** (n - 1) * (common // (n * len(word) * prod))
            by_word[word] = by_word.get(word, 0) + coeff
        stack += [(word + b, n + 1, prod * f) for b, f in fitting[order - len(word)]]
    rows = {word: _right_nested_bracket(word) for word in by_word}
    return FreeSeries._linear((2, order), common, by_word, rows)


def dynkin_project(P: FreeSeries, n: int) -> FreeSeries:
    """Left-normed bracketing applied to the degree-n slice of P: the slice's
    integer form through the left-normed bracket rows, one gcd at the end.

    A homogeneous degree-n element Q is a Lie element exactly when the
    projection returns n*Q.
    """
    if n < 1:
        raise NSeriesError("projection degree must be >= 1")
    S = P.grade_slice(n)
    return S._mapped({word: _left_normed_bracket(word) for word in S.keys()})


def is_lie_slice(P: FreeSeries, n: int) -> bool:
    """Dynkin-Specht-Wever test on the degree-n slice of P."""
    return dynkin_project(P, n) == P.grade_slice(n).scale(n)
