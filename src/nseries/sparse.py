"""The sparse graded kernel shared by the free algebra and the Hahn series.

A series maps keys to nonzero exact rationals, each key of grade at most the
bound.  The grade is nonnegative and additive under the key product, so
dropping the pairs whose grades sum past the bound keeps the product exact
modulo the ideal of keys above the bound.

`SparseSeries.lin_comb` is the one loop that sums the terms of several
series.  `+`, `-`, negation and scaling are one call each through `Linear`,
which also holds the one space check; operator tables share both.  A table
combines its images with `lin_comb`, and the evaluators of
`nseries.free_algebra` sum their products with one call.

A subclass is a frozen dataclass whose last field is `terms`.  It supplies
`_space()` (the fields before `terms`, the bound last), `_check_key`,
`_grade`, `one(*space)`, the mismatch message `_MISMATCH` and a `__mul__`
that passes its key product to `_product`; its `__post_init__` checks the
space and calls `_canonicalise`.  `lin_comb` and the arithmetic of `Linear`
come with the base class.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Iterable

from .errors import DimensionMismatchError

_ZERO = Fraction(0)


class Linear:
    """`+`, `-`, negation and scaling, each one `lin_comb` call, and the one
    space check; a subclass supplies `lin_comb(pairs)`, the sum of c*x over
    its (c, x) pairs, `_space()` and the mismatch message `_MISMATCH`."""

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

    def _canonicalise(self) -> None:
        """Check every key, make every coefficient a Fraction and drop the zeros."""
        canon = {}
        check_key = self._check_key
        for key, coeff in self.terms.items():
            key = check_key(key)
            coeff = Fraction(coeff)
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
        """The sum of c*s over the (c, s) pairs, in the space of `self`, built once.

        Every term lands in one dict.  A key that cancels leaves it at once, so
        a later term re-enters the key last, as a fold of `+` would place it."""
        out: dict = {}
        for c, s in pairs:
            self._require_same(s)
            c = Fraction(c)
            for key, v in s.terms.items():
                total = out.get(key, _ZERO) + c * v
                if total:
                    out[key] = total
                else:
                    out.pop(key, None)
        return type(self)(*self._space(), out)

    def _product(self, other, key_mul: Callable):
        """Truncated product: c_a c_b lands on key_mul(a, b) for every pair of
        terms whose grades sum to at most the bound; the other pairs are dropped."""
        self._require_same(other)
        space = self._space()
        grade = self._grade
        right = [(key, c, grade(key)) for key, c in other.terms.items()]
        out: dict = {}
        for ka, ca in self.terms.items():
            room = space[-1] - grade(ka)
            for kb, cb, gb in right:
                if gb > room:
                    continue
                key = key_mul(ka, kb)
                out[key] = out.get(key, _ZERO) + ca * cb
        return type(self)(*space, out)

    def power(self, n: int):
        if n < 0:
            raise ValueError("negative powers are not defined here")
        acc = self.one(*self._space())
        for _ in range(n):
            acc = acc * self
        return acc
