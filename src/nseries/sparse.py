"""The sparse graded kernel shared by the free algebra and the Hahn series.

A series maps keys to nonzero exact rationals, each key of grade at most the
bound.  The grade is nonnegative and additive under the key product, so the
product never visits the pairs whose grades sum past the bound, and stays
exact modulo the ideal of keys above the bound.

`SparseSeries.lin_comb` is the one checked entry that sums the terms of
several series, and `_combine` its unchecked integer loop.  `+`, `-`,
negation and scaling are one call each through `Linear`, which also holds the
one space check; operator tables share both.  A table combines its images
with `_combine` once its coefficients and spaces are checked, and the
evaluators of `nseries.free_algebra` sum their products with one call.

A subclass is a frozen dataclass whose last field is `terms`.  It supplies
`_space()` (the fields before `terms`, the bound last), `_check_key`,
`_grade`, `one(*space)`, the mismatch message `_MISMATCH` and a `__mul__`
that passes its key product to `_product`; its `__post_init__` checks the
space and calls `_canonicalise`.  `lin_comb` and the arithmetic of `Linear`
come with the base class.

Both loops sum plain integers over one common denominator.  `_integral`
gives an operand's form (D, numerators), D the least common denominator of
its coefficients.  `_combine` sums over the lcm of c.denominator * D across
its (c, form) parts, `_product` over D_a * D_b.  Each then divides its sums
and that denominator by their one gcd, which makes the denominator the least
common one of the reduced coefficients, and keeps the result's form beside
its canonical Fraction `terms`: the next loop reads it, never re-derives it.
A series from a public constructor computes its form at first use and keeps
it.  The keys and coefficients of a kernel result are canonical already, so
`Linear._trusted` builds it without `__post_init__`; the public constructors
keep every check.  `exact` is the one exact-coefficient check: a float or
any other non-rational number is a `TypeError`, never a binary fraction, and
a string that is no rational is an `NSeriesError`.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from numbers import Rational
from typing import Callable, Iterable

from .errors import DimensionMismatchError, NSeriesError

_ZERO = Fraction(0)


def exact(value) -> Fraction:
    """`value` as a Fraction: an int, a Fraction or another rational, or a string
    `p`, `p/q` or a decimal in ASCII digits, without `_` separators.  Any other
    string, or one with a zero denominator, raises NSeriesError; a float or any
    other number, TypeError.  This is the one rule for rational strings: the
    text formats read their coefficients through it too."""
    if type(value) is Fraction:
        return value
    if isinstance(value, (int, str, Rational)):
        try:
            if not isinstance(value, str) or value.isascii() and "_" not in value:
                return Fraction(value)
        except (ValueError, ZeroDivisionError):
            pass
        raise NSeriesError(f"not an exact rational: {value!r}")
    raise TypeError(
        f"{value!r} is not an exact rational; use an int, a Fraction or a string such as '1/3'"
    )


def _integral(series) -> tuple[int, list]:
    """The form (D, [(key, n)]) of `series`: D the least common denominator of
    its coefficients, and n each coefficient times D, in term order.  A kernel
    result carries it from its loop; any other series computes it here once
    and keeps it."""
    form = series._form
    if form is None:
        terms = series.terms
        den = lcm(*[v.denominator for v in terms.values()])
        form = den, [(key, v.numerator * (den // v.denominator)) for key, v in terms.items()]
        object.__setattr__(series, "_form", form)
    return form


class Linear:
    """`+`, `-`, negation and scaling, each one `lin_comb` call, and the one
    space check; a subclass supplies `lin_comb(pairs)`, the sum of c*x over
    its (c, x) pairs, `_space()` and the mismatch message `_MISMATCH`."""

    @classmethod
    def _trusted(cls, space, body):
        """The instance whose dataclass fields are `space` then `body`, in order,
        built without `__post_init__`: for kernel results only, whose keys and
        values are canonical by construction."""
        obj = object.__new__(cls)
        obj.__dict__.update(zip(cls.__dataclass_fields__, (*space, body)))
        return obj

    def _require_same(self, other) -> None:
        if not isinstance(other, type(self)):
            raise TypeError(f"expected {type(self).__name__}, got {type(other).__name__}")
        if self._space() != other._space():
            raise DimensionMismatchError(self._MISMATCH.format(self, other))

    def __add__(self, other):
        return self.lin_comb(((1, self), (1, other)))

    def __sub__(self, other):
        return self.lin_comb(((1, self), (-1, other)))

    def __neg__(self):
        return self.scale(-1)

    def scale(self, c):
        return self.lin_comb(((c, self),))


class SparseSeries(Linear):
    """Base of `FreeSeries` and `HahnPoly`: their shared arithmetic."""

    _form = None  # the `_integral` form, once known; not a dataclass field

    def _canonicalise(self) -> None:
        """Check every key, make every coefficient a Fraction and drop the zeros."""
        canon = {}
        check_key = self._check_key
        for key, coeff in self.terms.items():
            key = check_key(key)
            coeff = exact(coeff)
            if coeff != 0:
                canon[key] = coeff
        object.__setattr__(self, "terms", canon)

    @classmethod
    def zero(cls, *space):
        return cls(*space, {})

    # -- structure ----------------------------------------------------

    def coefficient(self, key: Iterable[int]) -> Fraction:
        return self.terms.get(tuple(key), _ZERO)

    def is_zero(self) -> bool:
        return not self.terms

    def sorted_terms(self) -> list[tuple[tuple[int, ...], Fraction]]:
        """Terms by grade, then by key."""
        grade = self._grade
        return sorted(self.terms.items(), key=lambda kv: (grade(kv[0]), kv[0]))

    # -- arithmetic ---------------------------------------------------

    def lin_comb(self, pairs):
        """The sum of c*s over the (c, s) pairs, in the space of `self`: each s is
        checked against that space and each c by `exact`, then `_combine` sums."""
        parts = []
        for c, s in pairs:
            self._require_same(s)
            parts.append((exact(c), _integral(s)))
        return self._combine(parts)

    def _combine(self, parts):
        """The sum of c/D * n over the (c, (D, [(key, n)])) parts, in the space of
        `self`, unchecked: c a Fraction and (D, [(key, n)]) an `_integral` form.

        Every term lands in one dict, as an integer over the lcm of the parts'
        denominators.  A key that cancels leaves it at once, so a later term
        re-enters the key last, as a fold of `+` would place it.  `_reduced`
        divides the sums and their denominator by one gcd, so the result keeps
        its form over the least common denominator."""
        common = lcm(*[c.denominator * den for c, (den, _) in parts])
        out: dict = {}
        for c, (den, nums) in parts:
            p = c.numerator * (common // (c.denominator * den))
            for key, n in nums:
                total = out.get(key, 0) + p * n
                if total:
                    out[key] = total
                else:
                    out.pop(key, None)
        return self._reduced(common, list(out.items()))

    def _product(self, other, key_mul: Callable):
        """Truncated product: c_a c_b lands on key_mul(a, b) for every pair of
        terms whose grades sum to at most the bound, and no other pair is
        visited.  The right terms that fit a left term's room (the bound minus
        its grade) are listed once per distinct room, in term order.  The sums
        run over D_a * D_b and a key whose sum is zero is dropped.  `_reduced`
        divides the sums and D_a * D_b by one gcd, so the result keeps its form
        over the least common denominator."""
        self._require_same(other)
        grade, bound = self._grade, self._space()[-1]
        den_a, left = _integral(self)
        den_b, right = _integral(other)
        graded = [(grade(term[0]), term) for term in right]
        fitting: dict = {}
        out: dict = {}
        for ka, na in left:
            room = bound - grade(ka)
            row = fitting.get(room)
            if row is None:
                row = fitting[room] = [term for gb, term in graded if gb <= room]
            for kb, nb in row:
                key = key_mul(ka, kb)
                out[key] = out.get(key, 0) + na * nb
        return self._reduced(den_a * den_b, [(key, n) for key, n in out.items() if n])

    def _reduced(self, common: int, nums: list):
        """The series sum of n/common t^key over the (key, n) pairs, n nonzero and
        keys distinct, in the space of `self`, with its form kept.  One gcd g of
        common and every n gives the form (common/g, [(key, n/g)]): its
        denominator is the least common one of the reduced coefficients, since
        for every prime p of common/g some n/g is prime to p."""
        g = gcd(common, *[n for _, n in nums])
        if g > 1:
            common //= g
            nums = [(key, n // g) for key, n in nums]
        result = self._trusted(self._space(), {key: Fraction(n, common) for key, n in nums})
        object.__setattr__(result, "_form", (common, nums))
        return result

    def power(self, n: int):
        if n < 0:
            raise NSeriesError("negative powers are not defined here")
        acc = self.one(*self._space())
        for _ in range(n):
            acc = acc * self
        return acc
