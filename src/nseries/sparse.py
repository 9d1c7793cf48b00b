"""The sparse graded kernel shared by the free algebra, the Hahn series and
the operator tables.

A series maps keys to nonzero exact rationals, each key of grade at most the
bound.  The grade is nonnegative and additive under the key product, so the
product never visits the pairs whose grades sum past the bound, and stays
exact modulo the ideal of keys above the bound.  A table maps each basis key
to an image series, and is an element of the same linear space protocol.

Every value holds one state, its integer form, from construction on.  Only
this module writes it, and only this module and the two series evaluators
of `nseries.free_algebra` read it.  A series' form is (D, numerators): D
the least common denominator of its coefficients, and numerators the dict
key -> coefficient * D, in term order.  A table's form is (D, rows): D the
least common denominator of every coefficient of every image, and rows the
dict basis key -> {image key: coefficient * D} of the nonzero images, each
in term order.  A public constructor checks its input and computes the form
as its last step (`_hold_form`), and so does `_trusted`, for values whose
keys and coefficients are canonical by construction.  A kernel loop sums
plain integers over one common denominator and divides by one gcd, or
builds a form that is least with no gcd, and `_held` stores that form
alone.  The form is canonical, so `==` compares the type, the space and the
forms, and `is_zero` and `keys` read the form.

The view is a cache of the form: a series' `terms`, the public dict of
Fractions in term order, and a table's `images`, one series per basis key in
basis order, each nonzero image over its own least common denominator and
every zero image one zero series shared by the table.  A kernel result
builds its view on the first read, in `Linear.__getattr__`, which Python
calls only while the view is missing (`functools.cached_property` would
take a lock on its first read on Python 3.11).  So an intermediate result
that is only summed, multiplied, composed, compared or tested for zero
builds no Fraction and no image.

Each kernel operation is one loop, with no second copy for a one-term
operand or a first part.  One fast path stays, with the cost of its removal
in its docstring: the table gcd that stops at 1 (`_rows_lowest`).
`Linear.lin_comb` is the one checked sum: it checks each operand's space and
each coefficient, then `_combine` adds every part into one dict through
`_add_into`, the one cancel-aware add loop, which also serves `_through` and
the Leibniz step.  `+`, `-`, negation and scaling are one `lin_comb` call
each.  `_times(a, b)` is each class's unchecked product of two forms, the
truncated product of series (`_multiply`, the one truncated product loop,
also behind the generator walk) or the composition of tables, and
`SparseSeries._product` and `SparseTable._compose` are one `_times` each.
The series evaluators in `nseries.free_algebra` multiply forms with
`_times` and sum them with one `_combine`, which takes (Fraction, form)
parts, so between their entry check and their result they build no value
but their unit.  `SparseTable._times` and `SparseTable._apply` are the one
linear extension, a table's rows through another table or at a series
(`_through`), and `SparseSeries._linear` runs numerators through integer
rows the same way, behind Dynkin's projection and sum in
`nseries.series_calculus`.  `SparseSeries._graded` is the one filter of a
form by grade, behind `restrict` and `FreeSeries.grade_slice`.
`SparseTable._read` is the one row read behind the factor tables of
`nseries.vaut_factors`, and `row_keys` and `row` read rows for the
contracting test and for a scalar or a lead.  The generator walk of
`nseries.operators` runs here on rows: `SparseTable._extended` builds the
Leibniz or multiplicative extension of generator rows, and
`SparseTable._walk_check` checks, in one pass that stops at the first
failing row, that each row of a table is the step over its own earlier rows.

A subclass of `Linear` is a frozen dataclass with `eq=False` whose last field
is its view, named by `_VIEW`.  It supplies `_space()` (the fields before the
view, the bound last) and `_MISMATCH`, the mismatch message.  A subclass of
`SparseSeries` also supplies `_check_key`, `_grade`, `one(*space)`,
`_key_mul`, its key product, as a static method, and a `__mul__` that calls
`_product`; its `__post_init__` checks the space and calls `_canonicalise`.
A subclass of `SparseTable` supplies `basis()`, the basis keys in order,
`_IMAGE`, the series class of its images, and a `__post_init__` that checks
the images and calls `_hold_form`.  `hash()` is a TypeError, as for any
mutable map.  `exact` is the one exact-coefficient check: a float or any
other non-rational number is a `TypeError`, never a binary fraction, and a
string that is no rational is an `NSeriesError`.
"""

from __future__ import annotations

import operator
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


def _over_lcm(forms) -> tuple[int, dict]:
    """The table form of the (m, (d, numerators)) rows of `forms`, each row in
    lowest terms over its own denominator d: every nonzero row over the lcm
    D of the d of the nonzero rows.  For each prime p of D some numerator is
    prime to p, so the form is canonical with no gcd."""
    den = lcm(*[d for _, (d, nums) in forms if nums])
    return den, {m: nums if d == den else {key: n * (den // d) for key, n in nums.items()}
                 for m, (d, nums) in forms if nums}


def _lowest(common: int, nums: dict) -> tuple[int, dict]:
    """(common, nums) divided by their one gcd: the denominator becomes the
    least common one of the coefficients n/common, since for every prime p of
    the quotient some numerator is prime to p."""
    g = gcd(common, *nums.values())
    if g > 1:
        return common // g, {key: n // g for key, n in nums.items()}
    return common, nums


def _rows_lowest(common: int, rows: dict) -> tuple[int, dict]:
    """The table form (common, rows), rows {m: {key: n}} of nonzero rows of
    nonzero n, divided by the one gcd of common and every n.  The gcd is taken
    row by row and stops at 1, which is most often reached in the first row:
    one `gcd(common, *numerators)` over every n read corr 1.001, 1.010 and
    1.011 and verify 1.003 to 1.006, beside A/A runs of 0.995 to 0.998 on
    the same seeds (`tools/ab_time.py --jobs 0`)."""
    g = common
    for row in rows.values():
        if g == 1:
            break
        g = gcd(g, *row.values())
    if g > 1:
        common //= g
        rows = {m: {key: n // g for key, n in row.items()} for m, row in rows.items()}
    return common, rows


def _add_into(out: dict, p: int, nums: dict) -> None:
    """Add p times the nonzero integers of `nums` into `out`, a dict of nonzero
    integers; p = 0 leaves `out` as it is.  A sum that reaches zero leaves
    `out` at once, so a later term re-enters its key last, as a fold of `+`
    would place it."""
    for key, n in nums.items():
        total = out.get(key, 0) + p * n
        if total:
            out[key] = total
        else:
            out.pop(key, None)


def _through(nums: dict, rows: dict) -> dict:
    """The sum of n * rows[key] over the items key -> n of `nums`, skipping the
    keys with no row, as one dict of nonzero integers: each row added in turn
    (`_add_into`), so each key has the term order of a fold of `+`."""
    out: dict = {}
    for key, n in nums.items():
        row = rows.get(key)
        if row is not None:
            _add_into(out, n, row)
    return out


def _multiply(left: dict, right: dict, grade: Callable, bound: int, key_mul: Callable) -> dict:
    """The truncated product of the numerator dicts `left` and `right`, as one
    dict of nonzero integers: n_a n_b lands on key_mul(a, b) for every pair of
    keys whose grades sum to at most `bound`, and no other pair is visited.
    The right terms that fit a left term's room (the bound minus its grade)
    are listed once per distinct room, in term order, and a key whose sum is
    zero is dropped."""
    graded = [(grade(term[0]), term) for term in right.items()]
    fitting: dict = {}
    out: dict = {}
    for ka, na in left.items():
        room = bound - grade(ka)
        row = fitting.get(room)
        if row is None:
            row = fitting[room] = [term for gb, term in graded if gb <= room]
        for kb, nb in row:
            key = key_mul(ka, kb)
            out[key] = out.get(key, 0) + na * nb
    return {key: n for key, n in out.items() if n}


def _leibniz_row(row_e, row_rest, rest, e, grade: Callable, bound: int, key_mul: Callable) -> dict:
    """The Leibniz step D(t^rest t^e) = D(t^e) t^rest + t^e D(t^rest) on two
    rows over one denominator, either of them None or empty for a zero image:
    `row_e` shifted by rest, then `row_rest` shifted by e, each key kept when
    its grade fits the room the shift leaves under `bound`.  The second half
    is added into the first (`_add_into`), so the row has the term order of
    the sum of the two kernel products."""
    out = {}
    if row_e:
        room = bound - grade(rest)
        out = {key_mul(k, rest): n for k, n in row_e.items() if grade(k) <= room}
    if row_rest:
        room = bound - grade(e)
        _add_into(out, 1, {key_mul(e, k): n for k, n in row_rest.items() if grade(k) <= room})
    return out


class Linear:
    """`lin_comb`, the one checked sum, and `+`, `-`, negation and scaling, each
    one `lin_comb` call.  Every instance holds its integer form `_form`, which
    `==` and `is_zero` read.  A subclass supplies `_combine(parts)`, the
    unchecked sum of c*x over (c, form of x) parts, `_times(a, b)`, the
    unchecked product of two forms, `_space()`, `_MISMATCH`, `_VIEW`,
    `_view()`, the view built from the form, and `_hold_form()`, which
    computes the form from the view and holds it."""

    __hash__ = None  # the dataclasses are mutable maps, so never hashable

    @classmethod
    def _trusted(cls, space, body):
        """The instance whose dataclass fields are `space` then `body`, in order,
        holding the form of `body`, built without `__post_init__`: only for
        tables and series whose keys and values are canonical by construction."""
        obj = object.__new__(cls)
        obj.__dict__.update(zip(cls.__dataclass_fields__, (*space, body)))
        obj._hold_form()
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
        if name != self._VIEW:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        view = self._view()
        object.__setattr__(self, name, view)
        return view

    def __eq__(self, other):
        """Same type, same space and the same form: the forms are canonical, so
        they agree exactly when the term maps, or the image maps, do."""
        if type(other) is not type(self):
            return NotImplemented
        return self._space() == other._space() and self._form == other._form

    def is_zero(self) -> bool:
        return not self._form[1]

    def _require_same(self, other) -> None:
        if not isinstance(other, type(self)):
            raise TypeError(f"expected {type(self).__name__}, got {type(other).__name__}")
        if self._space() != other._space():
            raise DimensionMismatchError(self._MISMATCH.format(self, other))

    def lin_comb(self, pairs):
        """The sum of c*x over the (c, x) pairs, in the space of `self`: each x is
        checked against that space and each c by `exact`, then `_combine` sums
        the (c, form of x) parts."""
        parts = []
        for c, x in pairs:
            self._require_same(x)
            parts.append((exact(c), x._form))
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

    def _view(self) -> dict:
        """`terms`: the Fractions n/D of the form, in term order."""
        den, nums = self._form
        return {key: Fraction(n, den) for key, n in nums.items()}

    def _hold_form(self) -> None:
        """Hold the form of `terms`: D the lcm of the denominators, and each
        coefficient times D, in term order."""
        terms = self.terms
        den = lcm(*[v.denominator for v in terms.values()])
        object.__setattr__(self, "_form", (
            den, {key: v.numerator * (den // v.denominator) for key, v in terms.items()}))

    def _canonicalise(self) -> None:
        """Check every key, make every coefficient a Fraction, drop the zeros
        and hold the form of what is left."""
        canon = {}
        check_key = self._check_key
        for key, coeff in self.terms.items():
            key = check_key(key)
            coeff = exact(coeff)
            if coeff != 0:
                canon[key] = coeff
        object.__setattr__(self, "terms", canon)
        self._hold_form()

    @classmethod
    def zero(cls, *space):
        return cls(*space, {})

    @classmethod
    def _linear(cls, space, common: int, nums: dict, rows: dict):
        """The series in `space`, unchecked, summing n/common times the row
        rows[key], a dict of nonzero integers, over the items key -> n of
        `nums` (`_through`), divided by one gcd (`_lowest`)."""
        return cls._held(space, _lowest(common, _through(nums, rows)))

    def _mapped(self, rows: dict):
        """`_linear` of the form of `self`, in the space of `self`."""
        den, nums = self._form
        return self._linear(self._space(), den, nums, rows)

    def _graded(self, space, keep: Callable):
        """The terms of `self` whose grade passes `keep`, in `space`: one filter
        of the form and one gcd (`_lowest`)."""
        (den, nums), grade = self._form, self._grade
        return self._held(space, _lowest(den, {key: n for key, n in nums.items()
                                               if keep(grade(key))}))

    def restrict(self, n: int):
        """The series cut at bound n, the terms of grade at most n, in the space
        whose bound is n, for n in 0..bound."""
        n, (*rest, bound) = operator.index(n), self._space()
        if not 0 <= n <= bound:
            raise NSeriesError(f"restriction bound {n} lies outside 0..{bound}")
        return self._graded((*rest, n), lambda g: g <= n)

    # -- structure ----------------------------------------------------

    def coefficient(self, key: Iterable[int]) -> Fraction:
        """The coefficient at `key`, read off the form: no `terms` view is built."""
        den, nums = self._form
        n = nums.get(tuple(key))
        return _ZERO if n is None else Fraction(n, den)

    def keys(self):
        """The keys of the terms, in term order, read off the form."""
        return self._form[1].keys()

    def sorted_terms(self) -> list[tuple[tuple[int, ...], Fraction]]:
        """Terms by grade, then by key."""
        grade = self._grade
        return sorted(self.terms.items(), key=lambda kv: (grade(kv[0]), kv[0]))

    # -- arithmetic ---------------------------------------------------

    def _combine(self, parts):
        """The sum of c*s over the (c, form of s) parts, in the space of `self`,
        unchecked: c a Fraction and s a series of that space.  Every part is
        added into one dict (`_add_into`), as integers over the lcm of
        c.denominator * D across the parts, D the denominator of the form,
        and `_reduced` divides the sums and that denominator by one gcd, so
        the result holds its form over the least common denominator."""
        common = lcm(*[c.denominator * d for c, (d, _) in parts])
        out: dict = {}
        for c, (d, nums) in parts:
            _add_into(out, c.numerator * (common // (c.denominator * d)), nums)
        return self._reduced(common, out)

    def _times(self, a, b):
        """The form of the truncated product of the forms `a` and `b` in the space
        of `self`, unchecked: their numerators through `_multiply` with the
        class's key product `_key_mul`, over D_a * D_b, divided by one gcd
        (`_lowest`), so the form lies over the least common denominator."""
        (den_a, left), (den_b, right) = a, b
        return _lowest(den_a * den_b,
                       _multiply(left, right, self._grade, self._space()[-1], self._key_mul))

    def _product(self, other):
        """The truncated product (`_times`) of `self` and `other`, checked to
        share the space of `self`."""
        self._require_same(other)
        return self._held(self._space(), self._times(self._form, other._form))

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

    def _view(self) -> dict:
        """`images`: one series per basis key, in basis order, each nonzero row
        over its own least common denominator, and one zero series shared by
        every zero image."""
        den, rows = self._form
        space, image = self._space(), self._IMAGE
        zero = image._held(space, (1, {}))
        return {m: zero if (row := rows.get(m)) is None else image._held(space, _lowest(den, row))
                for m in self.basis()}

    def _hold_form(self) -> None:
        """Hold the form of `images`: the forms of the images over one lcm
        (`_over_lcm`)."""
        forms = [(m, img._form) for m, img in self.images.items()]
        object.__setattr__(self, "_form", _over_lcm(forms))

    @classmethod
    def _unit(cls, space, basis):
        """The identity t^m -> t^m on `basis`, held as its form."""
        return cls._held(space, (1, {m: {m: 1} for m in basis}))

    def row_keys(self):
        """(m, the keys of the image of t^m) for each basis key m whose image is
        nonzero, in basis order, each image's keys in term order: read off the
        rows of the form, with no image built."""
        rows = self._form[1]
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
        den, rows = self._form
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

    def row(self, m) -> dict:
        """The image of t^m as {key: Fraction}, in term order, read off the form:
        an empty dict for a zero image, and no image built."""
        den, rows = self._form
        return {key: Fraction(n, den) for key, n in rows.get(m, {}).items()}

    @classmethod
    def _extended(cls, space, one, gens: dict, walk, grade: Callable, key_mul: Callable,
                  leibniz: bool):
        """The table in `space`, unchecked, whose row of t^e is the form of the
        generator image gens[e] for each generator e, and whose other rows
        follow the generator walk: for each item (m, rest, e) of `walk`, m =
        rest + e, rest before m and rest = one when m = e is a generator, the
        row of t^m is the Leibniz step (`_leibniz_row`) or the product of the
        rows of t^e and t^rest (`_multiply`).

        Leibniz (t^one -> 0): every row over D, the lcm of the generators'
        denominators, since each step sums shifted rows with coefficient 1.
        Each generator row is in lowest terms and a row of the table, so for
        each prime p of D some numerator is prime to p and the form needs no
        gcd.  Multiplicative (t^one -> t^one): each row is the product of two
        rows over its own denominator, divided by one gcd (`_lowest`), and
        `_over_lcm` puts every row over one lcm."""
        bound = space[-1]
        gens = {e: g._form for e, g in gens.items()}
        if leibniz:
            den = lcm(*[d for d, _ in gens.values()])
            rows: dict = {}
            for m, rest, e in walk:
                if m == e:
                    d, nums = gens[e]
                    row = nums if d == den else {key: n * (den // d) for key, n in nums.items()}
                else:
                    row = _leibniz_row(rows.get(e), rows.get(rest), rest, e, grade, bound, key_mul)
                if row:
                    rows[m] = row
            return cls._held(space, (den, rows))
        parts = {one: (1, {one: 1})}
        for m, rest, e in walk:
            if m == e:
                parts[m] = gens[e]
            else:
                (den_e, row_e), (den_r, row_r) = parts[e], parts[rest]
                parts[m] = _lowest(den_e * den_r, _multiply(row_e, row_r, grade, bound, key_mul))
        return cls._held(space, _over_lcm(parts.items()))

    def _walk_check(self, one, walk, grade: Callable, key_mul: Callable, leibniz: bool):
        """Whether the table is the extension (`_extended`) of its own generator
        rows along `walk`: None when it is, () when the row of t^one fails
        (none for a derivation, {one: D} for an endomorphism), and otherwise
        (rest, e) of the first item of `walk` whose row is not the step over
        the table's own rows of t^e and t^rest.

        One pass, on the rows over the table's D: a derivation's row of t^m
        must equal the Leibniz step (`_leibniz_row`), and an endomorphism's
        row, times D, the product of the two rows (`_multiply`), which lies
        over D^2.  Up to the first failing row the table equals its
        extension, so that row is the first at which the two differ, and no
        row after it is computed.  A generator's row always passes, since
        its rest is the unit."""
        den, rows = self._form
        if (one in rows) if leibniz else rows.get(one) != {one: den}:
            return ()
        bound = self._space()[-1]
        for m, rest, e in walk:
            row = rows.get(m, {})
            if (_leibniz_row(rows.get(e), rows.get(rest), rest, e, grade, bound, key_mul) != row
                    if leibniz else
                    _multiply(rows.get(e, {}), rows.get(rest, {}), grade, bound, key_mul)
                    != {key: n * den for key, n in row.items()}):
                return rest, e
        return None

    def _combine(self, parts):
        """The sum of c*t over the (c, form of t) parts, in the space of `self`,
        unchecked: c a Fraction and t a table of that space.  Every row sums in
        one dict, as integers over the lcm of c.denominator * D across the
        parts, D the denominator of the form: each part of a row is added
        (`_add_into`), so each image keeps the term order of the sum of its
        images; a row that cancels entirely is dropped."""
        common = lcm(*[c.denominator * d for c, (d, _) in parts])
        out: dict = {}
        for c, (d, rows) in parts:
            p = c.numerator * (common // (c.denominator * d))
            for m, row in rows.items():
                _add_into(out.setdefault(m, {}), p, row)
        return self._reduced(common, {m: acc for m, acc in out.items() if acc})

    def _times(self, a, b):
        """The form of a o b for the table forms `a` and `b`, unchecked: each row
        of b through the rows of a (`_through`), over D_a * D_b, so each image
        is a applied to the image of b, divided by one gcd (`_rows_lowest`)."""
        (den_f, rows_f), (den_g, rows_g) = a, b
        rows = {}
        for m, row in rows_g.items():
            out = _through(row, rows_f)
            if out:
                rows[m] = out
        return _rows_lowest(den_f * den_g, rows)

    def _compose(self, other):
        """self o other, unchecked (`_times`)."""
        return self._held(self._space(), self._times(self._form, other._form))

    def _apply(self, series):
        """`self` at `series`, unchecked: the terms of `series` through the rows
        of `self` (`_through`), over the product of the two denominators."""
        (den, rows), (den_a, nums) = self._form, series._form
        return series._reduced(den_a * den, _through(nums, rows))

    def _reduced(self, common: int, rows: dict):
        """The table with rows n/common over the items m -> {key: n} of `rows`,
        every row and every n nonzero, in the space of `self`, held as its form
        in lowest terms (`_rows_lowest`)."""
        return self._held(self._space(), _rows_lowest(common, rows))
