"""Strongly linear operators on truncated Hahn series, as monomial tables.

An operator is the family of images of every basis monomial t^m with m in
the truncation at N (`MonoidCtx.in_truncation`), and acts on a series by
linear extension over its finite support.  `OpTable` is a `SparseTable` of
the kernel of `nseries.sparse`, which holds a table as one integer matrix
over one common denominator: a sum of tables is `Linear.lin_comb`, one loop
over the rows of every part, and application and composition are the
kernel's `_apply` and `_compose`, one loop over the rows of both operands.
The `images` of a kernel result are built on their first read, so this
module never reads an integer form.

Contracting tables (every image supported strictly above its basis exponent,
with weight raised by at least one) are the operators for which evaluation
of formal power series terminates at the truncation bound;
`in_contracting_cone` decides it for one exponent pair, and
`op_is_contracting` for a table, over the keys of its nonzero rows
(`SparseTable.row_keys`), so it builds no image.  A table is a member
of the algebra protocol of the series: `OpTable.one` is the identity and `*`
is `op_compose`, so the evaluators of `free_algebra` read the unit, the
product and the bound off the table itself.  `op_geometric_inverse` evaluates through
`free_algebra.unit_inverse`, and `op_evaluate` through
`free_algebra.evaluate_words`, which takes any word.

One generator walk over the weight-sorted basis splits each exponent m into
(m - e, e), e a generator (`generator_walk`, which `nseries.vaut_factors`
also walks for the values of a character).  It builds the Leibniz and
multiplicative extensions of generator images (the kernel's
`SparseTable._extended`), and decides the derivation and endomorphism
predicates in one pass (`_walk_check`): each row of the table is compared,
as it is reached, with the Leibniz or multiplicative step over the table's
own rows, and the first row that fails is the witness.  Both run on the
integer rows of the table, so neither builds an image.
An extension first checks its generator images, once: every key is a
generator index, and each generator in the basis has an image of the right
type and space.  `op_geometric_inverse` reads its scalar off one row
(`SparseTable.row`).  Every entry point that needs a predicate to hold
raises through `CheckResult.require`, which attaches the predicate's witness
to the error.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from typing import Callable, Sequence

from .errors import (
    DimensionMismatchError,
    IncompleteTableError,
    NotAUnitError,
    NotContractingError,
    WitnessError,
)
from .free_algebra import FreeSeries, evaluate_words, unit_inverse
from .hahn_series import HahnPoly
from .sparse import SparseTable
from .support_order import ExpVec, MonoidCtx, vec_add, vec_sub, weight_universe


@dataclass(frozen=True)
class CheckResult:
    """Outcome of a predicate check; `witness` explains a failure."""

    ok: bool
    witness: object = None

    def __bool__(self) -> bool:
        return self.ok

    def require(self, error: type[WitnessError], message: str) -> None:
        """Nothing on a pass.  On a failure raise `error` with `message` formatted
        on the witness, as in `message.format(witness)`, and `.witness` attached."""
        if not self.ok:
            raise error(message.format(self.witness), witness=self.witness)


@dataclass(frozen=True, eq=False)
class OpTable(SparseTable):
    """Image table of a strongly linear operator at truncation.

    `images` must assign a series to every exponent of the truncation at
    bound, `weight_universe(ctx, bound)`, and to nothing else; a missing or
    extra key fails fast.  Two tables are equal when their contexts, bounds
    and images agree, and a table is unhashable.
    """

    ctx: MonoidCtx
    bound: int
    images: dict = field(default_factory=dict)

    _MISMATCH = "tables live over different contexts or bounds"
    _IMAGE = HahnPoly

    def __post_init__(self):
        object.__setattr__(self, "bound", operator.index(self.bound))
        universe = weight_universe(self.ctx, self.bound)
        canon = {}
        for exp, img in self.images.items():
            exp = self.ctx.check_vec(exp)
            if not isinstance(img, HahnPoly):
                raise TypeError("table images must be HahnPoly values")
            if img.ctx != self.ctx or img.bound != self.bound:
                raise DimensionMismatchError(
                    f"image of {exp} lives over a different context or bound"
                )
            canon[exp] = img
        missing = [m for m in universe if m not in canon]
        if missing:
            raise IncompleteTableError(
                f"table is missing images for basis exponents {missing[:4]}"
                + ("..." if len(missing) > 4 else "")
            )
        if len(canon) != len(universe):  # no key is missing, so some key is extra
            extra = next(m for m in canon if m not in universe)
            raise IncompleteTableError(f"table has an image for {extra}, outside the basis")
        object.__setattr__(self, "images", canon)
        self._hold_form()

    # -- constructors -------------------------------------------------

    @classmethod
    def from_function(
        cls, ctx: MonoidCtx, bound: int, f: Callable[[ExpVec], HahnPoly]
    ) -> "OpTable":
        return cls(ctx, bound, {m: f(m) for m in weight_universe(ctx, bound)})

    @classmethod
    def identity(cls, ctx: MonoidCtx, bound: int) -> "OpTable":
        """t^m -> t^m on the basis, the kernel's `_unit`, built unchecked: each
        image is one basis monomial with coefficient 1, canonical by
        construction.  The bound is an `operator.index`, as in the checked
        constructor."""
        return cls._unit((ctx, operator.index(bound)), weight_universe(ctx, bound))

    one = identity

    @classmethod
    def zero(cls, ctx: MonoidCtx, bound: int) -> "OpTable":
        return cls.from_function(ctx, bound, lambda m: HahnPoly.zero(ctx, bound))

    # -- action and algebra --------------------------------------------

    def basis(self) -> tuple[ExpVec, ...]:
        return weight_universe(self.ctx, self.bound)

    def _space(self) -> tuple[MonoidCtx, int]:
        return self.ctx, self.bound

    def __mul__(self, other: "OpTable") -> "OpTable":
        """Composition, `op_compose(self, other)`."""
        return op_compose(self, other)


def op_apply(table: OpTable, a: HahnPoly) -> HahnPoly:
    """Apply by linear extension over the support of `a`: the kernel's
    `table._apply(a)`.  Every exponent of `a` lies in the truncation of its
    space, which is the table's basis, so each has an image in that space."""
    if table.ctx != a.ctx or table.bound != a.bound:
        raise DimensionMismatchError("operator and series contexts differ")
    return table._apply(a)


def op_compose(f: OpTable, g: OpTable) -> OpTable:
    """(f o g): the kernel's `f._compose(g)`, each image of g applied through
    f, so the table is complete by construction and is built unchecked.  The
    images of g that f sends to zero share one zero series."""
    f._require_same(g)
    return f._compose(g)


def op_lin_sum(tables: Sequence[OpTable]) -> OpTable:
    """Pointwise sum of a nonempty finite family of tables."""
    if not tables:
        raise DimensionMismatchError("lin_sum needs at least one table to fix the context")
    return tables[0].lin_comb((1, t) for t in tables)


def op_bracket(f: OpTable, g: OpTable) -> OpTable:
    return f * g - g * f


def multiplication_table(a: HahnPoly) -> OpTable:
    """Left multiplication by `a`, tabulated on the basis monomials."""
    return OpTable.from_function(
        a.ctx, a.bound, lambda m: a * HahnPoly.monomial(a.ctx, a.bound, m)
    )


def in_contracting_cone(ctx: MonoidCtx, m: ExpVec, q: ExpVec) -> bool:
    """q lies strictly above m and weight(q) >= weight(m) + 1, for exponents of
    the context's dimension, as basis and image keys are."""
    return ctx.weight(q) > ctx.weight(m) and ctx.less(m, q)


def op_is_contracting(table: OpTable) -> CheckResult:
    """Every image exponent strictly above its basis exponent, weight raised.

    Beyond the order condition supp(image of t^m) > m, the image weights must
    exceed weight(m) by at least one, so that composition chains longer than
    the bound vanish on the truncated universe.
    """
    ctx = table.ctx
    for m, keys in table.row_keys():
        for q in keys:
            if not in_contracting_cone(ctx, m, q):
                return CheckResult(False, (m, q))
    return CheckResult(True)


def generator_walk(ctx: MonoidCtx, bound: int):
    """Each nonzero basis exponent m in weight order, with (m - e, e), e the
    generator of m's first nonzero index.  m - e comes before m, so its image
    is known or checked when m is reached."""
    gens = ctx.generators()
    for m in weight_universe(ctx, bound)[1:]:
        e = gens[next(j for j, x in enumerate(m) if x)]
        yield m, vec_sub(m, e), e


def _extend(ctx: MonoidCtx, bound: int, gen_images, leibniz: bool) -> OpTable:
    """The Leibniz (`leibniz`) or multiplicative extension of `gen_images` along
    the generator walk, the kernel's `OpTable._extended`.

    The bound is checked as a zero series checks it.  Then every key of
    `gen_images` must be a generator index, and each generator in the basis
    must have an image, of type HahnPoly and in the table's space, with the
    messages of the checked constructor; images of generators above the
    bound are never read.  Every other image is a kernel step over checked
    images, so the table is built unchecked."""
    space = HahnPoly.zero(ctx, bound)._space()
    for i in gen_images:
        if i not in range(ctx.dim):
            raise DimensionMismatchError(
                f"generator image key {i!r} is no generator index 0..{ctx.dim - 1}")
    gens = {}
    for i, e in enumerate(ctx.generators()):
        if ctx.in_truncation(e, space[1]):
            if i not in gen_images:
                raise IncompleteTableError(f"no image is given for generator {i}, {e}")
            if not isinstance(img := gen_images[i], HahnPoly):
                raise TypeError("table images must be HahnPoly values")
            if img._space() != space:
                raise DimensionMismatchError(
                    f"image of {e} lives over a different context or bound")
            gens[e] = img
    return OpTable._extended(space, (0,) * ctx.dim, gens, generator_walk(ctx, space[1]),
                             ctx.weight, vec_add, leibniz)


def _generator_check(table: OpTable, leibniz: bool, unit_witness) -> CheckResult:
    """The pass behind both predicates, the kernel's `_walk_check` on the
    table's rows: `unit_witness` when t^0 fails, else the first failing
    (m - e, e) of the generator walk."""
    failed = table._walk_check((0,) * table.ctx.dim, generator_walk(table.ctx, table.bound),
                               table.ctx.weight, vec_add, leibniz)
    return CheckResult(True) if failed is None else CheckResult(False, failed or unit_witness)


def derivation_from_generator_images(
    ctx: MonoidCtx, bound: int, gen_images: dict[int, HahnPoly]
) -> OpTable:
    """The Leibniz extension of generator images to a derivation table.

    D(1) = 0, D(t^e_i) = gen_images[i], and D(t^m) = D(t^e) t^(m-e) +
    t^e D(t^(m-e)) along the generator walk; only generators inside the
    weight universe are read.
    """
    return _extend(ctx, bound, gen_images, True)


def substitution_endomorphism(
    ctx: MonoidCtx, bound: int, gen_images: dict[int, HahnPoly]
) -> OpTable:
    """The multiplicative extension of generator images to a unital endomorphism.

    sigma(1) = 1, sigma(t^e_i) = gen_images[i], and sigma(t^m) = sigma(t^e)
    sigma(t^(m-e)) along the generator walk; only generators inside the
    weight universe are read.
    """
    return _extend(ctx, bound, gen_images, False)


def op_is_derivation(table: OpTable) -> CheckResult:
    """Leibniz rule on every basis pair of total weight at most the bound.

    Decided in one pass over the whole table: D(1) = 0 and D(t^m) = D(t^e)
    t^(m-e) + t^e D(t^(m-e)) for each nonzero t^m.  By induction on weight, D
    is then the Leibniz extension of its generator images, which obeys the
    rule on every pair.  Witness: the failing pair (m - e, e), or (0, 0).
    """
    zero = (0,) * table.ctx.dim
    return _generator_check(table, True, (zero, zero))


def op_is_unital_endomorphism(table: OpTable) -> CheckResult:
    """sigma(1) = 1 and multiplicativity on every basis pair of total weight at most the bound.

    Decided in one pass over the whole table: sigma(t^m) = sigma(t^e)
    sigma(t^(m-e)) for each nonzero t^m.  By induction on weight, sigma is
    then multiplicative on every pair.  Witness: the failing pair (m - e, e),
    or "unit".
    """
    return _generator_check(table, False, "unit")


def op_evaluate(P: FreeSeries, args: Sequence[OpTable]) -> OpTable:
    """Evaluate a free series at a tuple of contracting operator tables.

    Returns P(empty)*Id plus the sum over nonempty words theta of length at
    most the bound of P(theta) * (args[theta_1] o ... o args[theta_n]).  The
    arguments must be contracting, so the cutoff is exact: longer
    compositions vanish on the truncated universe because each factor raises
    weight.  A non-contracting argument raises NotContractingError.
    """
    if not args:
        raise DimensionMismatchError("evaluation needs at least one operator argument")
    first = args[0]
    for t in args[1:]:
        first._require_same(t)
    if P.alphabet_size != len(args):
        raise DimensionMismatchError(
            f"series over alphabet of size {P.alphabet_size} evaluated at {len(args)} operators"
        )
    if P.grade < first.bound:
        raise DimensionMismatchError(
            f"series grade {P.grade} is below the operator bound {first.bound}"
        )
    for i, t in enumerate(args):
        chk = op_is_contracting(t)
        CheckResult(chk.ok, (i, chk.witness)).require(
            NotContractingError, "argument {0[0]} is not contracting at basis pair {0[1]}"
        )
    return evaluate_words(P, args)


def op_geometric_inverse(table: OpTable) -> OpTable:
    """Inverse of a table of the form c*Id + contracting, c nonzero.

    Computed as (1/c) * sum_{n <= N} (-(table - c*Id)/c)^n; exact at the
    truncation because the contracting part nilpotently raises weight.
    """
    ctx, bound = table.ctx, table.bound
    zero_exp = (0,) * ctx.dim
    c = table.row(zero_exp).get(zero_exp, 0)
    if c == 0:
        raise NotAUnitError("table has no scalar part on the weight-zero monomial")
    eps = table - OpTable.identity(ctx, bound).scale(c)
    op_is_contracting(eps).require(
        NotAUnitError, "table is not of the form c*Id + contracting; offending pair {}"
    )
    return unit_inverse(c, eps)
