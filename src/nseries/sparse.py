"""The sparse graded kernel shared by the free algebra and the Hahn series.

A series maps keys to nonzero exact rationals, each key of grade at most the
bound.  The grade is nonnegative and additive under the key product, so the
product never visits the pairs whose grades sum past the bound, and stays
exact modulo the ideal of keys above the bound.

`Linear.lin_comb` is the one checked entry that sums several series, or
several operator tables: it checks each operand's space and each coefficient,
then calls the class's unchecked `_combine`.  `+`, `-`, negation and scaling
are one `lin_comb` call each.  `SparseSeries._combine` is the integer loop
behind every sum, and `SparseSeries._apply(images, zero)` the one linear
extension: the sum of c*images[key] over the terms (key, c) of a series.
Operator tables reach image arithmetic only through these two: a table's
`_combine` is one `_combine` of the images at each basis exponent, and
application and composition are `_apply` calls.  The evaluators of
`nseries.free_algebra` sum their products with one `lin_comb`.

A subclass of `Linear` supplies `_combine(parts)`, the sum of c*x over its
(c, x) parts, c a Fraction, `_space()` and the mismatch message `_MISMATCH`.
A subclass of `SparseSeries` is a frozen dataclass whose last field is
`terms`.  It supplies `_space()` (the fields before `terms`, the bound last),
`_check_key`, `_grade`, `one(*space)`, `_MISMATCH` and a `__mul__` that
passes its key product to `_product`; its `__post_init__` checks the space
and calls `_canonicalise`.  `_combine` and `_apply` come with the base class.

Both loops sum plain integers over one common denominator, and only this
module reads or writes that integer form.  `_integral` gives a series' form
(D, numerators), D the least common denominator of its coefficients.
`_combine` sums over the lcm of c.denominator * D across its (c, series)
parts, `_apply` passes it the numerators of its own form as the
coefficients, and `_product` sums over D_a * D_b.  Each then divides its
sums and that denominator by their one gcd, which makes the denominator the
least common one of the reduced coefficients, and keeps the result's form
beside its canonical Fraction `terms`: the next loop reads it, never
re-derives it.  A series from a public constructor computes its form at
first use and keeps it.  The keys and coefficients of a kernel result are
canonical already, so `Linear._trusted` builds it without `__post_init__`;
the public constructors keep every check.  `exact` is the one
exact-coefficient check: a float or any other non-rational number is a
`TypeError`, never a binary fraction, and a string that is no rational is an
`NSeriesError`.
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
    """`lin_comb`, the one checked sum, and `+`, `-`, negation and scaling, each
    one `lin_comb` call; a subclass supplies `_combine(parts)`, the unchecked
    sum of c*x over (c, x) parts, `_space()` and the mismatch message
    `_MISMATCH`."""

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

    def lin_comb(self, pairs):
        """The sum of c*x over the (c, x) pairs, in the space of `self`: each x is
        checked against that space and each c by `exact`, then `_combine` sums."""
        parts = []
        for c, x in pairs:
            self._require_same(x)
            parts.append((exact(c), x))
        return self._combine(parts)

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

    def _combine(self, parts, den=1):
        """The sum of c*s over the (c, s) parts, divided by `den`, in the space of
        `self`, unchecked: c a Fraction or an int, and s a series of that space.

        Every term lands in one dict, as an integer over the lcm of c.denominator
        * D across the parts, D the denominator of the `_integral` form of s;
        the lcm pass leaves every form kept.  A key that cancels leaves the dict
        at once, so a later term re-enters the key last, as a fold of `+` would
        place it.  `_reduced` divides the sums and the common denominator times
        `den` by one gcd, so the result keeps its form over the least common
        denominator."""
        common = lcm(*[c.denominator * (s._form or _integral(s))[0] for c, s in parts])
        out: dict = {}
        for c, s in parts:
            d, nums = s._form
            p = c.numerator * (common // (c.denominator * d))
            for key, n in nums:
                total = out.get(key, 0) + p * n
                if total:
                    out[key] = total
                else:
                    out.pop(key, None)
        return self._reduced(common * den, list(out.items()))

    def _apply(self, images, zero):
        """The linear extension of `images` at `self`, unchecked: the sum of
        c*images[key] over the terms (key, c) of `self`, skipping zero images,
        or `zero` when every image is zero.  It is one `_combine` over the
        numerators of the form of `self`, divided by its denominator: scaling
        every partial sum by one positive integer cancels the same keys, so
        the term order is that of the Fraction coefficients."""
        den, nums = self._form or _integral(self)
        parts = [(n, img) for key, n in nums if (img := images[key]).terms]
        return self._combine(parts, den) if parts else zero

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
        (den_a, left), (den_b, right) = _integral(self), _integral(other)
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
