"""Truncated noncommutative power series over a finite alphabet.

A series is a sparse map from words (tuples of letter indices) to exact
rational coefficients, cut off at a fixed grade bound N.  All arithmetic is
exact modulo the two-sided ideal of words longer than N: multiplying or
substituting never perturbs coefficients at or below the bound.  The
arithmetic is the shared kernel of `nseries.sparse`, with words as keys,
length as grade and concatenation as key product.

Two routes evaluate a series at elements of another algebra.  `nilpotent_sum`
is the production route: a one-variable series at a nilpotent element, as in
exp, log, fractional iteration and `unit_inverse`, the geometric inverse of
series and tables alike.  `evaluate_words` evaluates any series word by word;
`fs_substitute` and `op_evaluate` run it, and through them it is the oracle of
the production route.  Both run on the integer forms of `nseries.sparse`
from one entry check to one result: `nilpotent_sum` reads x in its own
space, and `evaluate_words` checks once that its arguments share one space.
P's words and coefficients are read off its form, each power or word-prefix
product is the kernel's unchecked `_times` of two forms, a zero product ends
its power chain or word and adds nothing, and the unit's `_combine` sums the
nonzero (coefficient, form) parts once.  Neither takes a unit, a product or
a bound: the algebra's elements carry them, as free series, Hahn series and
operator tables all do, with the unit `x.one(*x._space())`, the product
`x._times` and the bound `x._space()[-1]`.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .errors import (
    DimensionMismatchError,
    NotAUnitError,
    NSeriesError,
    WeightBoundError,
    json_fields,
    json_terms,
)
from .sparse import SparseSeries

Word = tuple[int, ...]
EMPTY_WORD: Word = ()


def word_concat(a: Word, b: Word) -> Word:
    """Concatenation; the empty word is the two-sided identity."""
    return tuple(a) + tuple(b)


def factorizations(theta: Word) -> list[tuple[Word, Word]]:
    """All n+1 ordered splits (beta, gamma) with beta gamma = theta."""
    theta = tuple(theta)
    return [(theta[:i], theta[i:]) for i in range(len(theta) + 1)]


@dataclass(frozen=True, eq=False)
class FreeSeries(SparseSeries):
    """Element of the truncated free algebra on alphabet {0, .., m-1}.

    Stored coefficients are never zero and every stored word has length at
    most `grade`; two series are equal iff alphabet, grade and term maps all
    agree.
    """

    alphabet_size: int
    grade: int
    terms: dict = field(default_factory=dict)

    _MISMATCH = (
        "incompatible series: alphabet {0.alphabet_size}/{1.alphabet_size}, "
        "grade {0.grade}/{1.grade}"
    )
    _grade = staticmethod(len)
    _key_mul = staticmethod(operator.add)

    def __post_init__(self):
        object.__setattr__(self, "alphabet_size", operator.index(self.alphabet_size))
        object.__setattr__(self, "grade", operator.index(self.grade))
        if self.alphabet_size < 0:
            raise NSeriesError("alphabet size must be >= 0")
        if self.grade < 0:
            raise NSeriesError("grade bound must be >= 0")
        self._canonicalise()

    def _space(self) -> tuple[int, int]:
        return self.alphabet_size, self.grade

    def _check_key(self, word) -> Word:
        word = tuple(map(operator.index, word))
        if len(word) > self.grade:
            raise WeightBoundError(f"word {word} exceeds the grade bound {self.grade}")
        if any(i < 0 or i >= self.alphabet_size for i in word):
            raise DimensionMismatchError(
                f"word {word} uses letters outside alphabet of size {self.alphabet_size}"
            )
        return word

    # -- constructors -------------------------------------------------

    @classmethod
    def constant(cls, value, alphabet_size: int, grade: int) -> "FreeSeries":
        return cls(alphabet_size, grade, {EMPTY_WORD: value})

    @classmethod
    def one(cls, alphabet_size: int, grade: int) -> "FreeSeries":
        return cls.constant(1, alphabet_size, grade)

    @classmethod
    def variable(cls, index: int, alphabet_size: int, grade: int) -> "FreeSeries":
        return cls(alphabet_size, grade, {(index,): Fraction(1)})

    @classmethod
    def monomial(cls, word: Iterable[int], coeff, alphabet_size: int, grade: int) -> "FreeSeries":
        return cls(alphabet_size, grade, {tuple(word): coeff})

    # -- structure ----------------------------------------------------

    @property
    def constant_term(self) -> Fraction:
        return self.coefficient(EMPTY_WORD)

    def in_augmentation_ideal(self) -> bool:
        return self.constant_term == 0

    def support_slice(self, n: int) -> set[Word]:
        """Words of length exactly n carrying a nonzero coefficient."""
        if n > self.grade:
            raise NSeriesError(f"slice degree {n} exceeds grade bound {self.grade}")
        return {w for w in self.keys() if len(w) == n}

    def grade_slice(self, n: int) -> "FreeSeries":
        """The homogeneous degree-n part, as a series in the same space."""
        if n > self.grade:
            raise NSeriesError(f"slice degree {n} exceeds grade bound {self.grade}")
        return self._graded(self._space(), lambda g: g == n)

    # -- arithmetic ---------------------------------------------------

    def __mul__(self, other: "FreeSeries") -> "FreeSeries":
        """Cauchy product: (P.Q)(theta) sums P(beta) Q(gamma) over theta = beta gamma."""
        return self._product(other)

    def geometric_inverse(self) -> "FreeSeries":
        """Two-sided inverse modulo the grade bound, `unit_inverse` of c + (P - c)
        for a nonzero constant term c; the augmentation ideal has no inverse."""
        c = self.constant_term
        if c == 0:
            raise NotAUnitError("series with zero constant term lies in the augmentation ideal")
        return unit_inverse(c, self - FreeSeries.constant(c, self.alphabet_size, self.grade))


def nilpotent_sum(P: FreeSeries, x):
    """The one-variable series P at a nilpotent x: sum of P(X0^n) x^n, n <= P.grade.

    Powers run forward on the integer form, x^n = x * x^(n-1) from x^1 = x,
    with x^0 the form of x.one(*x._space()), and stop at the first zero
    power, which adds nothing; the unit's `_combine` sums the (P(X0^n), form
    of x^n) parts once.  x is read in its own space, so nothing is checked.
    `x` needs `one`, `_space`, `_form` and `_times`, the kernel's unchecked
    product of two forms, and its unit `_combine`, the unchecked sum of
    forms."""
    one = x.one(*x._space())
    (den, nums), form = P._form, x._form
    parts, power = [(Fraction(nums.get(EMPTY_WORD, 0), den), one._form)], form
    for n in range(1, P.grade + 1):
        if n > 1:
            power = x._times(form, power)
        if not power[1]:
            break
        if (c := nums.get((0,) * n)) is not None:
            parts.append((Fraction(c, den), power))
    return one._combine(parts)


def unit_inverse(c, eps):
    """(c + eps)^(-1) for c != 0 and nilpotent eps: the series
    sum_{n <= N} (-1)^n c^-(n+1) X0^n evaluated at eps itself, N the bound of eps."""
    order = eps._space()[-1]
    geom = FreeSeries(1, order, {(0,) * n: (-1) ** n / c ** (n + 1) for n in range(order + 1)})
    return nilpotent_sum(geom, eps)


def evaluate_words(P: FreeSeries, args: Sequence):
    """The sum of P(w) args[w1]...args[wn] over the words w of P of length at
    most the bound of the nonempty `args`, which must share one space: the
    first argument checks the others once (`_require_same`).

    P's words and coefficients are read off its form, by grade and then by
    word.  Each word's product is the form of its prefix's product times
    args[wn] (`_times`), computed once per prefix, and a zero prefix ends the
    word, which then adds nothing; the unit's `_combine` sums the (P(w), form
    of the product) parts once.  Its word walk shares no code with
    `nilpotent_sum`, which it checks.  The arguments need `one`, `_space`,
    `_require_same`, `_form` and `_times`, and their unit `_combine`."""
    first = args[0]
    for a in args[1:]:
        first._require_same(a)
    space = first._space()
    one, bound = first.one(*space), space[-1]
    den, nums = P._form
    letters = [a._form for a in args]
    products = {EMPTY_WORD: one._form, **{(i,): f for i, f in enumerate(letters)}}
    parts = []
    for word in sorted(nums, key=lambda w: (len(w), w)):
        if len(word) > bound:
            break
        known = len(word)
        while word[:known] not in products:
            known -= 1
        product = products[word[:known]]
        for n in range(known, len(word)):
            if not product[1]:
                break
            product = products[word[:n + 1]] = first._times(product, letters[word[n]])
        if product[1]:
            parts.append((Fraction(nums[word], den), product))
    return one._combine(parts)


# Named operation surface mirroring the contract above.

def fs_add(P: FreeSeries, Q: FreeSeries) -> FreeSeries:
    return P + Q


def fs_scale(c, P: FreeSeries) -> FreeSeries:
    return P.scale(c)


def fs_mul(P: FreeSeries, Q: FreeSeries) -> FreeSeries:
    return P * Q


def fs_geometric_inverse(P: FreeSeries) -> FreeSeries:
    return P.geometric_inverse()


def fs_support_slice(P: FreeSeries, n: int) -> set[Word]:
    return P.support_slice(n)


def free_to_json(P: FreeSeries) -> dict:
    return {
        "alphabet": P.alphabet_size,
        "grade": P.grade,
        "terms": [
            {"word": list(w), "coeff": str(c)} for w, c in P.sorted_terms()
        ],
    }


def free_from_json(data: Mapping) -> FreeSeries:
    """The series `free_to_json` writes; a missing field or a repeated word is
    a ParseError (`json_fields`, `json_terms`)."""
    alphabet, grade, terms = json_fields(data, "series JSON", "alphabet", "grade", "terms")
    return FreeSeries(alphabet, grade, json_terms(terms, "word"))
