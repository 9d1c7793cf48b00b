"""Truncated noncommutative power series over a finite alphabet.

A series is a sparse map from words (tuples of letter indices) to exact
rational coefficients, cut off at a fixed grade bound N.  All arithmetic is
exact modulo the two-sided ideal of words longer than N: multiplying or
substituting never perturbs coefficients at or below the bound.  The
arithmetic is the shared kernel of `nseries.sparse`, with words as keys,
length as grade and concatenation as key product.

Two routes evaluate a series at elements of another algebra.  `nilpotent_sum`
is the production route: a one-variable series at a nilpotent element, as in
exp, log and `unit_inverse`, the geometric inverse of series and tables alike.
`evaluate_words` evaluates any series word by word; `fs_substitute` and
`op_evaluate` run it, and through them it is the oracle of the production route.
Both collect (coefficient, product) pairs and sum them with one `lin_comb`.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterable, Mapping, Sequence

from .errors import DimensionMismatchError, NotAUnitError
from .sparse import SparseSeries

Word = tuple[int, ...]
EMPTY_WORD: Word = ()

_ZERO = Fraction(0)


def word_concat(a: Word, b: Word) -> Word:
    """Concatenation; the empty word is the two-sided identity."""
    return tuple(a) + tuple(b)


def factorizations(theta: Word) -> list[tuple[Word, Word]]:
    """All n+1 ordered splits (beta, gamma) with beta gamma = theta."""
    theta = tuple(theta)
    return [(theta[:i], theta[i:]) for i in range(len(theta) + 1)]


@dataclass(frozen=True)
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

    def __post_init__(self):
        object.__setattr__(self, "alphabet_size", operator.index(self.alphabet_size))
        object.__setattr__(self, "grade", operator.index(self.grade))
        if self.alphabet_size < 0:
            raise ValueError("alphabet size must be >= 0")
        if self.grade < 0:
            raise ValueError("grade bound must be >= 0")
        self._canonicalise()

    def _space(self) -> tuple[int, int]:
        return self.alphabet_size, self.grade

    def _check_key(self, word) -> Word:
        word = tuple(map(operator.index, word))
        if len(word) > self.grade:
            raise ValueError(f"word {word} exceeds the grade bound {self.grade}")
        if any(i < 0 or i >= self.alphabet_size for i in word):
            raise DimensionMismatchError(
                f"word {word} uses letters outside alphabet of size {self.alphabet_size}"
            )
        return word

    # -- constructors -------------------------------------------------

    @classmethod
    def constant(cls, value, alphabet_size: int, grade: int) -> "FreeSeries":
        return cls(alphabet_size, grade, {EMPTY_WORD: Fraction(value)})

    @classmethod
    def one(cls, alphabet_size: int, grade: int) -> "FreeSeries":
        return cls.constant(1, alphabet_size, grade)

    @classmethod
    def variable(cls, index: int, alphabet_size: int, grade: int) -> "FreeSeries":
        return cls(alphabet_size, grade, {(index,): Fraction(1)})

    @classmethod
    def monomial(cls, word: Iterable[int], coeff, alphabet_size: int, grade: int) -> "FreeSeries":
        return cls(alphabet_size, grade, {tuple(word): Fraction(coeff)})

    # -- structure ----------------------------------------------------

    @property
    def constant_term(self) -> Fraction:
        return self.terms.get(EMPTY_WORD, _ZERO)

    def in_augmentation_ideal(self) -> bool:
        return self.constant_term == 0

    def support_slice(self, n: int) -> set[Word]:
        """Words of length exactly n carrying a nonzero coefficient."""
        if n > self.grade:
            raise ValueError(f"slice degree {n} exceeds grade bound {self.grade}")
        return {w for w in self.terms if len(w) == n}

    def grade_slice(self, n: int) -> "FreeSeries":
        """The homogeneous degree-n part, as a series."""
        if n > self.grade:
            raise ValueError(f"slice degree {n} exceeds grade bound {self.grade}")
        return FreeSeries(
            self.alphabet_size,
            self.grade,
            {w: c for w, c in self.terms.items() if len(w) == n},
        )

    # -- arithmetic ---------------------------------------------------

    def __mul__(self, other: "FreeSeries") -> "FreeSeries":
        """Cauchy product: (P.Q)(theta) sums P(beta) Q(gamma) over theta = beta gamma."""
        return self._product(other, operator.add)

    def geometric_inverse(self) -> "FreeSeries":
        """Two-sided inverse modulo the grade bound, `unit_inverse` of c + (P - c)
        for a nonzero constant term c; the augmentation ideal has no inverse."""
        c = self.constant_term
        if c == 0:
            raise NotAUnitError("series with zero constant term lies in the augmentation ideal")
        one = FreeSeries.one(self.alphabet_size, self.grade)
        return unit_inverse(c, self - one.scale(c), one, FreeSeries.__mul__, self.grade)


def nilpotent_sum(P: FreeSeries, x, one, mul: Callable):
    """The one-variable series P at a nilpotent x: sum of P(X0^n) x^n, n <= P.grade.

    Powers run forward, x^n = mul(x, x^(n-1)) from x^0 = one, and stop at the
    first zero power; `one.lin_comb` sums the (P(X0^n), x^n) pairs once.  `one`
    needs `lin_comb`, and the powers `is_zero`."""
    pairs, pw = [(P.constant_term, one)], one
    for n in range(1, P.grade + 1):
        pw = mul(x, pw)
        if pw.is_zero():
            break
        pairs.append((P.coefficient((0,) * n), pw))
    return one.lin_comb(pairs)


def unit_inverse(c, eps, one, mul: Callable, order: int):
    """(c + eps)^(-1) for c != 0 and nilpotent eps: the series
    sum_{n <= order} (-1)^n c^-(n+1) X0^n evaluated at eps itself."""
    geom = FreeSeries(1, order, {(0,) * n: (-1) ** n / c ** (n + 1) for n in range(order + 1)})
    return nilpotent_sum(geom, eps, one, mul)


def evaluate_words(P: FreeSeries, args: Sequence, one, mul: Callable, bound: int):
    """The sum of P(w) args[w1]...args[wn] over the words w of P of length <= bound.

    Each word's product is its prefix's product times args[wn], computed once
    per prefix, and a zero prefix ends the word; `one.lin_comb` sums the
    (P(w), product) pairs once.  Its word walk shares no code with
    `nilpotent_sum`, which it checks.  `one` needs `lin_comb`, and the
    products `is_zero`."""
    products = {(i,): a for i, a in enumerate(args)}
    pairs = [(P.constant_term, one)]
    for word, coeff in P.sorted_terms():
        if not 0 < len(word) <= bound:
            continue
        known = len(word)
        while word[:known] not in products:
            known -= 1
        for n in range(known, len(word)):
            prefix = products[word[:n]]
            products[word[:n + 1]] = prefix if prefix.is_zero() else mul(prefix, args[word[n]])
        pairs.append((coeff, products[word]))
    return one.lin_comb(pairs)


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
    terms = {tuple(t["word"]): Fraction(t["coeff"]) for t in data["terms"]}
    return FreeSeries(data["alphabet"], data["grade"], terms)
