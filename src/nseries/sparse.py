"""The sparse graded kernel shared by the free algebra, the Hahn series and
the operator tables.

A series maps keys to nonzero exact rationals, each key of grade at most the
bound.  The grade is nonnegative and additive under the key product, so the
product never visits the pairs whose grades sum past the bound, and stays
exact modulo the ideal of keys above the bound.  A table maps each basis key
to an image series, and is an element of the same linear space protocol.

`Linear.lin_comb` is the one checked entry that sums several series, or
several tables: it checks each operand's space and each coefficient, then
calls the class's unchecked `_combine`.  `+`, `-`, negation and scaling are
one `lin_comb` call each.  `SparseSeries._combine` and `SparseTable._combine`
are the integer loops behind every sum, and `SparseTable._compose` and
`SparseTable._apply` the one linear extension, of a table's rows through
another table or at a series.  `SparseTable._read` is the one row read: each
image is a rescaled row of the table, its keys optionally relabeled, which is
every factor table of `nseries.vaut_factors`.  `SparseTable.row_keys` gives
the keys of each nonzero row, for the contracting test.  The evaluators of
`nseries.free_algebra` sum their products with one `lin_comb`.

A subclass of `Linear` is a frozen dataclass with `eq=False` whose last field
is its view, named by `_VIEW`.  It supplies `_space()` (the fields before the
view, the bound last), `_MISMATCH`, the mismatch message, and `_view()`,
which builds the view from the integer form.  A subclass of `SparseSeries`
also supplies `_check_key`, `_grade`, `one(*space)` and a `__mul__` that
passes its key product to `_product`; its `__post_init__` checks the space
and calls `_canonicalise`.  A subclass of `SparseTable` supplies `basis()`,
the basis keys in order, and `_IMAGE`, the series class of its images.
`_combine`, `==`, `is_zero` and the view come with the base classes, and
`hash()` is a TypeError, as for any mutable map.

Every loop sums plain integers over one common denominator, and only this
module reads or writes that integer form.  A series' form is (D, numerators):
D the least common denominator of its coefficients, and numerators the dict
key -> coefficient * D, in term order (`_integral`).  A table's form is (D,
rows): D the least common denominator of every coefficient of every image,
and rows the dict basis key -> {image key: coefficient * D} of the nonzero
images, each in term order (`_table_form`).  `SparseSeries._combine` sums over
the lcm of c.denominator * D across its (c, series) parts, `_product` over
D_a * D_b, `SparseTable._combine` over the lcm of c.denominator * D across its
(c, table) parts, and `_compose` and `_apply` over D_f * D_g.  Each then
divides its sums and that denominator by their one gcd, which makes the
denominator the least common one of the reduced coefficients.  The result
holds that form and nothing else: the form is the representation of a kernel
result, and the next loop reads it.  Its view is built from the form on its
first read and then kept: a series' `terms`, the public dict of Fractions in
the same term order, and a table's `images`, one series per basis key in
basis order, each nonzero image over its own least common denominator and
every zero image one zero series shared by the table.  So an intermediate
result that is only summed, multiplied, composed, compared or tested for
zero builds no Fraction and no image.  The form is canonical, so `==`
compares the type, the space and the forms, and `is_zero` and `keys` read
the form too.  The view is built by `Linear.__getattr__`, which Python calls
only while the view is missing, so a read after the first costs a plain
attribute lookup (`functools.cached_property` would take a lock on its first
read on Python 3.11).  A series or table from a public constructor, or from
`_trusted`, holds its view and computes its form at first use and keeps it.
The keys and coefficients of a kernel result are canonical already, so it
is built without `__post_init__`; the public constructors keep every check.
`exact` is the one exact-coefficient check: a float or any other
non-rational number is a `TypeError`, never a binary fraction, and a string
that is no rational is an `NSeriesError`.
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


def _integral(series) -> tuple[int, dict]:
    """The form (D, {key: n}) of `series`: D the least common denominator of
    its coefficients, and n each coefficient times D, in term order.  A kernel
    result holds it from its loop; any other series computes it here once
    and keeps it."""
    form = series._form
    if form is None:
        terms = series.terms
        den = lcm(*[v.denominator for v in terms.values()])
        form = den, {key: v.numerator * (den // v.denominator) for key, v in terms.items()}
        object.__setattr__(series, "_form", form)
    return form


def _table_form(table) -> tuple[int, dict]:
    """The form (D, {m: {key: n}}) of `table`: D the least common denominator
    of every coefficient of its images, and one row of numerators for each
    nonzero image, in term order.  D is the lcm of the images' own
    denominators, so for each prime p of D some numerator is prime to p and
    the form is canonical with no gcd.  A kernel result holds it from its
    loop; any other table computes it here once and keeps it."""
    form = table._form
    if form is None:
        forms = [(m, img._form or _integral(img)) for m, img in table.images.items()]
        den = lcm(*[d for _, (d, _) in forms])
        form = den, {m: nums if d == den else {key: n * (den // d) for key, n in nums.items()}
                     for m, (d, nums) in forms if nums}
        object.__setattr__(table, "_form", form)
    return form


def _lowest(common: int, nums: dict) -> tuple[int, dict]:
    """(common, nums) divided by their one gcd: the denominator becomes the
    least common one of the coefficients n/common, since for every prime p of
    the quotient some numerator is prime to p."""
    g = gcd(common, *nums.values())
    if g > 1:
        return common // g, {key: n // g for key, n in nums.items()}
    return common, nums


def _through(nums: dict, rows: dict) -> dict:
    """The sum of n * rows[key] over the items key -> n of `nums`, skipping the
    keys with no row, as one dict of nonzero integers.  Every n and every row
    entry is nonzero, so a sum that reaches zero leaves the dict at once, and
    a later term re-enters its key last, as a fold of `+` would place it."""
    out: dict = {}
    for key, n in nums.items():
        row = rows.get(key)
        if row is not None:
            for r, k in row.items():
                total = out.get(r, 0) + n * k
                if total:
                    out[r] = total
                else:
                    del out[r]
    return out


class Linear:
    """`lin_comb`, the one checked sum, and `+`, `-`, negation and scaling, each
    one `lin_comb` call; `==`, `is_zero` and the view of a kernel result read
    the integer form.  A subclass supplies `_combine(parts)`, the unchecked
    sum of c*x over (c, x) parts, `_space()`, `_MISMATCH`, `_VIEW`, `_view()`
    and `_formed()`, the form of an instance that does not hold one yet."""

    _form = None  # the integer form, once known; not a dataclass field
    __hash__ = None  # the dataclasses are mutable maps, so never hashable

    @classmethod
    def _trusted(cls, space, body):
        """The instance whose dataclass fields are `space` then `body`, in order,
        built without `__post_init__`: only for tables and series whose keys
        and values are canonical by construction."""
        obj = object.__new__(cls)
        obj.__dict__.update(zip(cls.__dataclass_fields__, (*space, body)))
        return obj

    @classmethod
    def _held(cls, space, form):
        """The kernel result in `space` that holds the canonical `form` alone:
        its dataclass fields are the space and no view, which `__getattr__`
        builds on the first read."""
        obj = object.__new__(cls)
        obj.__dict__.update(zip(cls.__dataclass_fields__, space), _form=form)
        return obj

    def __getattr__(self, name):
        """The view of a kernel result, built from its form on the first read and
        kept.  Any other missing name is an AttributeError."""
        if name != self._VIEW or self._form is None:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        view = self._view()
        object.__setattr__(self, name, view)
        return view

    def __eq__(self, other):
        """Same type, same space and the same form: the forms are canonical, so
        they agree exactly when the term maps, or the image maps, do."""
        if type(other) is not type(self):
            return NotImplemented
        return self._space() == other._space() and (
            (self._form or self._formed()) == (other._form or other._formed()))

    def is_zero(self) -> bool:
        return not (self._form or self._formed())[1]

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
    """Base of `FreeSeries` and `HahnPoly`: their shared arithmetic, equality
    and `terms` view."""

    _VIEW = "terms"
    _formed = _integral

    def _view(self) -> dict:
        """`terms`: the Fractions n/D of the form, in term order."""
        den, nums = self._form
        return {key: Fraction(n, den) for key, n in nums.items()}

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

    def keys(self):
        """The keys of the terms, in term order, read off the form."""
        return (self._form or _integral(self))[1].keys()

    def sorted_terms(self) -> list[tuple[tuple[int, ...], Fraction]]:
        """Terms by grade, then by key."""
        grade = self._grade
        return sorted(self.terms.items(), key=lambda kv: (grade(kv[0]), kv[0]))

    # -- arithmetic ---------------------------------------------------

    def _combine(self, parts):
        """The sum of c*s over the (c, s) parts, in the space of `self`,
        unchecked: c a Fraction and s a series of that space.

        Every term lands in one dict, as an integer over the lcm of c.denominator
        * D across the parts, D the denominator of the `_integral` form of s;
        the lcm pass leaves every form kept.  A key that cancels leaves the dict
        at once, so a later term re-enters the key last, as a fold of `+` would
        place it.  `_reduced` divides the sums and the common denominator by one
        gcd, so the result keeps its form over the least common denominator."""
        common = lcm(*[c.denominator * (s._form or _integral(s))[0] for c, s in parts])
        out: dict = {}
        for c, s in parts:
            d, nums = s._form
            p = c.numerator * (common // (c.denominator * d))
            for key, n in nums.items():
                total = out.get(key, 0) + p * n
                if total:
                    out[key] = total
                else:
                    out.pop(key, None)
        return self._reduced(common, out)

    def _product(self, other, key_mul: Callable):
        """Truncated product: c_a c_b lands on key_mul(a, b) for every pair of
        terms whose grades sum to at most the bound, and no other pair is
        visited.  When either operand is one term, the product is one shift
        loop: each left term meets the right terms that fit its room (the
        bound minus its grade), and since the key product is injective in each
        argument, no two pairs meet and none cancels.  Otherwise the right
        terms that fit a left term's room are listed once per distinct room,
        in term order, and a key whose sum is zero is dropped.  The sums run over D_a * D_b,
        and `_reduced` divides them and D_a * D_b by one gcd, so the result
        keeps its form over the least common denominator."""
        self._require_same(other)
        grade, bound = self._grade, self._space()[-1]
        (den_a, left), (den_b, right) = _integral(self), _integral(other)
        graded = [(grade(term[0]), term) for term in right.items()]
        if len(left) == 1 or len(graded) == 1:
            out = {key_mul(ka, kb): na * nb for ka, na in left.items()
                   for room in (bound - grade(ka),) for gb, (kb, nb) in graded if gb <= room}
            return self._reduced(den_a * den_b, out)
        fitting: dict = {}
        out = {}
        for ka, na in left.items():
            room = bound - grade(ka)
            row = fitting.get(room)
            if row is None:
                row = fitting[room] = [term for gb, term in graded if gb <= room]
            for kb, nb in row:
                key = key_mul(ka, kb)
                out[key] = out.get(key, 0) + na * nb
        return self._reduced(den_a * den_b, {key: n for key, n in out.items() if n})

    def _reduced(self, common: int, nums: dict):
        """The series sum of n/common t^key over the items key -> n of `nums`, n
        nonzero, in the space of `self`, held as its form in lowest terms."""
        return self._held(self._space(), _lowest(common, nums))

    def power(self, n: int):
        if n < 0:
            raise NSeriesError("negative powers are not defined here")
        acc = self.one(*self._space())
        for _ in range(n):
            acc = acc * self
        return acc


class SparseTable(Linear):
    """Base of `OpTable`: the table loops, equality and the `images` view."""

    _VIEW = "images"
    _formed = _table_form

    def _view(self) -> dict:
        """`images`: one series per basis key, in basis order, each nonzero row
        over its own least common denominator, and one zero series shared by
        every zero image."""
        den, rows = self._form
        space, image = self._space(), self._IMAGE
        zero = image._held(space, (1, {}))
        return {m: zero if (row := rows.get(m)) is None else image._held(space, _lowest(den, row))
                for m in self.basis()}

    @classmethod
    def _unit(cls, space, basis):
        """The identity t^m -> t^m on `basis`, held as its form."""
        return cls._held(space, (1, {m: {m: 1} for m in basis}))

    def row_keys(self):
        """(m, the keys of the image of t^m) for each basis key m whose image is
        nonzero, in basis order, each image's keys in term order: read off the
        rows of the form, with no image built."""
        rows = (self._form or _table_form(self))[1]
        for m in self.basis():
            row = rows.get(m)
            if row is not None:
                yield m, row.keys()

    def _read(self, source: dict, scale: dict | None = None, relabel: dict | None = None):
        """The table, unchecked, in the space of `self`, whose image of t^m is
        scale[q] times the image of t^q, q = source[m], for each item m -> q of
        `source`, every image key k moved to relabel[k] when `relabel` is given.
        Without `scale` every q is scaled by 1.  A row whose image or scale is
        zero is left out.  `relabel` must be injective, so no two keys of a row
        meet and each row keeps its term order.  The rows run over D times the
        lcm L of the scales' denominators, q's row times numerator * (L //
        denominator), and `_reduced` divides by one gcd."""
        den, rows = self._form or _table_form(self)
        picked = [(m, row, 1 if scale is None else scale[q])
                  for m, q in source.items() if (row := rows.get(q)) is not None]
        common = lcm(*[c.denominator for _, _, c in picked if c])
        out = {}
        for m, row, c in picked:
            if c:
                p = c.numerator * (common // c.denominator)
                out[m] = ({key: p * n for key, n in row.items()} if relabel is None
                          else {relabel[key]: p * n for key, n in row.items()})
        return self._reduced(den * common, out)

    def _combine(self, parts):
        """The sum of c*t over the (c, t) parts, in the space of `self`,
        unchecked: c a Fraction and t a table of that space.

        Every row sums in one dict, as integers over the lcm of c.denominator
        * D across the parts, D the denominator of the form of t.  Within a row
        a key that cancels leaves the dict at once, as in the series
        `_combine`, so each image keeps the term order of the sum of its
        images; a row that cancels entirely is dropped."""
        forms = [(c, t._form or _table_form(t)) for c, t in parts]
        common = lcm(*[c.denominator * d for c, (d, _) in forms])
        out: dict = {}
        for c, (d, rows) in forms:
            p = c.numerator * (common // (c.denominator * d))
            for m, row in rows.items():
                acc = out.get(m)
                if acc is None:
                    out[m] = {key: p * n for key, n in row.items()} if p else {}
                    continue
                for key, n in row.items():
                    total = acc.get(key, 0) + p * n
                    if total:
                        acc[key] = total
                    else:
                        acc.pop(key, None)
        return self._reduced(common, {m: acc for m, acc in out.items() if acc})

    def _compose(self, other):
        """self o other, unchecked: each row of `other` through the rows of
        `self` (`_through`), over D_self * D_other, so each image is `self`
        applied to the image of `other`."""
        (den_f, rows_f), (den_g, rows_g) = (
            self._form or _table_form(self), other._form or _table_form(other))
        rows = {}
        for m, row in rows_g.items():
            out = _through(row, rows_f)
            if out:
                rows[m] = out
        return self._reduced(den_f * den_g, rows)

    def _apply(self, series):
        """`self` at `series`, unchecked: the terms of `series` through the rows
        of `self` (`_through`), over the product of the two denominators."""
        den, rows = self._form or _table_form(self)
        den_a, nums = series._form or _integral(series)
        return series._reduced(den_a * den, _through(nums, rows))

    def _reduced(self, common: int, rows: dict):
        """The table with rows n/common over the items m -> {key: n} of `rows`,
        every row and every n nonzero, in the space of `self`, held as its form
        with one gcd dividing common and every n."""
        g = common
        for row in rows.values():
            if g == 1:
                break
            g = gcd(g, *row.values())
        if g > 1:
            common //= g
            rows = {m: {key: n // g for key, n in row.items()} for m, row in rows.items()}
        return self._held(self._space(), (common, rows))
