"""Strongly linear operators on truncated Hahn series, as monomial tables.

An operator is stored as the family of images of every basis monomial t^m
with m in the truncation at N (`MonoidCtx.in_truncation`), and acts on a
series by linear extension over its finite support.  Tables reach image
arithmetic only through the kernel of `nseries.sparse`: a sum of tables is
`Linear.lin_comb`, one `_combine` of the images at each basis exponent, and
application and composition are calls of the kernel's linear extension
`_apply`, so this module never reads a series' integer form.

Contracting tables (every image supported strictly above its basis exponent,
with weight raised by at least one) are the operators for which evaluation
of formal power series terminates at the truncation bound;
`in_contracting_cone` decides it for one exponent pair.  A table is a member
of the algebra protocol of the series: `OpTable.one` is the identity and `*`
is `op_compose`, so the evaluators of `free_algebra` read the unit, the
product and the bound off the table itself.  `op_geometric_inverse` evaluates through
`free_algebra.unit_inverse`, and `op_evaluate` through
`free_algebra.evaluate_words`, which takes any word.

One generator walk over the weight-sorted basis splits each exponent m into
(m - e, e), e a generator.  It builds the Leibniz and multiplicative
extensions of generator images, and decides the derivation and endomorphism
predicates by comparing each image with the same step.  Every entry point
that needs a predicate to hold raises through `CheckResult.require`, which
attaches the predicate's witness to the error.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from fractions import Fraction
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
from .sparse import Linear
from .support_order import ExpVec, MonoidCtx, vec_sub, weight_universe


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


@dataclass(frozen=True)
class OpTable(Linear):
    """Image table of a strongly linear operator at truncation.

    `images` must assign a series to every exponent of the truncation at
    bound, `weight_universe(ctx, bound)`, and to nothing else; a missing or
    extra key fails fast.
    """

    ctx: MonoidCtx
    bound: int
    images: dict = field(default_factory=dict)

    _MISMATCH = "tables live over different contexts or bounds"

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

    # -- constructors -------------------------------------------------

    @classmethod
    def from_function(
        cls, ctx: MonoidCtx, bound: int, f: Callable[[ExpVec], HahnPoly]
    ) -> "OpTable":
        return cls(ctx, bound, {m: f(m) for m in weight_universe(ctx, bound)})

    @classmethod
    def identity(cls, ctx: MonoidCtx, bound: int) -> "OpTable":
        """t^m -> t^m on the basis, built unchecked: each image is one basis
        monomial with coefficient 1, canonical by construction.  The bound is
        an `operator.index`, as in the checked constructor."""
        space, one = (ctx, operator.index(bound)), Fraction(1)
        return cls._trusted(space, {
            m: HahnPoly._trusted(space, {m: one}) for m in weight_universe(ctx, bound)
        })

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

    def _combine(self, parts) -> "OpTable":
        """The sum of c*t over the (c, t) parts, unchecked: each basis image is
        one `HahnPoly._combine` of the nonzero images at its exponent; with
        none, it is one zero series shared by the table."""
        zero = HahnPoly._trusted(self._space(), {})
        out = {}
        for m, img in self.images.items():
            nonzero = [(c, x) for c, t in parts if not (x := t.images[m]).is_zero()]
            out[m] = img._combine(nonzero) if nonzero else zero
        return OpTable._trusted(self._space(), out)

    def is_zero(self) -> bool:
        return all(img.is_zero() for img in self.images.values())


def op_apply(table: OpTable, a: HahnPoly) -> HahnPoly:
    """Apply by linear extension over the support of `a`: one `a._apply` of
    the table's images.  Every exponent of `a` lies in the truncation of its
    space, which is the table's basis, so each has an image in that space."""
    if table.ctx != a.ctx or table.bound != a.bound:
        raise DimensionMismatchError("operator and series contexts differ")
    return a._apply(table.images, HahnPoly._trusted(a._space(), {}))


def op_compose(f: OpTable, g: OpTable) -> OpTable:
    """(f o g): each image of g is applied through f, one `_apply` of the
    images of f, over the basis of g, so the table is complete by construction
    and is built unchecked.  The images of g that f sends to zero share one
    zero series."""
    f._require_same(g)
    zero = HahnPoly._trusted(f._space(), {})
    return OpTable._trusted(f._space(), {
        m: img._apply(f.images, zero) for m, img in g.images.items()
    })


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
    for m in table.basis():
        for q in table.images[m].keys():
            if not in_contracting_cone(table.ctx, m, q):
                return CheckResult(False, (m, q))
    return CheckResult(True)


def _generator_walk(ctx: MonoidCtx, bound: int):
    """Each nonzero basis exponent m in weight order, with (m - e, e), e the
    generator of m's first nonzero index.  m - e comes before m, so its image
    is known or checked when m is reached."""
    gens = ctx.generators()
    for m in weight_universe(ctx, bound)[1:]:
        e = gens[next(j for j, x in enumerate(m) if x)]
        yield m, vec_sub(m, e), e


def _leibniz(images, rest, e) -> HahnPoly:
    """D(t^rest t^e) = D(t^e) t^rest + t^e D(t^rest)."""
    ctx, bound = images[e].ctx, images[e].bound
    t_rest, t_e = HahnPoly.monomial(ctx, bound, rest), HahnPoly.monomial(ctx, bound, e)
    return images[e] * t_rest + t_e * images[rest]


def _multiplicative(images, rest, e) -> HahnPoly:
    """sigma(t^rest t^e) = sigma(t^e) sigma(t^rest)."""
    return images[e] * images[rest]


def _extend(ctx: MonoidCtx, bound: int, unit: HahnPoly, gen_images, step) -> OpTable:
    """The table with t^0 -> unit, t^e_i -> gen_images[i] and t^m -> step(m - e, e)."""
    images = {(0,) * ctx.dim: unit}
    for m, rest, e in _generator_walk(ctx, bound):
        images[m] = step(images, rest, e) if any(rest) else gen_images[e.index(1)]
    return OpTable(ctx, bound, images)


def _generator_check(table: OpTable, unit: HahnPoly, unit_witness, step):
    """The pass behind both predicates: t^0 must map to `unit`, and each nonzero
    t^m to step(m - e, e) over the table's own images."""
    if table.images[(0,) * table.ctx.dim] != unit:
        return CheckResult(False, unit_witness)
    for m, rest, e in _generator_walk(table.ctx, table.bound):
        if table.images[m] != step(table.images, rest, e):
            return CheckResult(False, (rest, e))
    return CheckResult(True)


def derivation_from_generator_images(
    ctx: MonoidCtx, bound: int, gen_images: dict[int, HahnPoly]
) -> OpTable:
    """The Leibniz extension of generator images to a derivation table.

    D(1) = 0, D(t^e_i) = gen_images[i], and D(t^m) = D(t^e) t^(m-e) +
    t^e D(t^(m-e)) along the generator walk; only generators inside the
    weight universe are read.
    """
    return _extend(ctx, bound, HahnPoly.zero(ctx, bound), gen_images, _leibniz)


def substitution_endomorphism(
    ctx: MonoidCtx, bound: int, gen_images: dict[int, HahnPoly]
) -> OpTable:
    """The multiplicative extension of generator images to a unital endomorphism.

    sigma(1) = 1, sigma(t^e_i) = gen_images[i], and sigma(t^m) = sigma(t^e)
    sigma(t^(m-e)) along the generator walk; only generators inside the
    weight universe are read.
    """
    return _extend(ctx, bound, HahnPoly.one(ctx, bound), gen_images, _multiplicative)


def op_is_derivation(table: OpTable) -> CheckResult:
    """Leibniz rule on every basis pair of total weight at most the bound.

    Decided in one pass over the whole table: D(1) = 0 and D(t^m) = D(t^e)
    t^(m-e) + t^e D(t^(m-e)) for each nonzero t^m.  By induction on weight, D
    is then the Leibniz extension of its generator images, which obeys the
    rule on every pair.  Witness: the failing pair (m - e, e), or (0, 0).
    """
    zero = (0,) * table.ctx.dim
    unit = HahnPoly.zero(table.ctx, table.bound)
    return _generator_check(table, unit, (zero, zero), _leibniz)


def op_is_unital_endomorphism(table: OpTable) -> CheckResult:
    """sigma(1) = 1 and multiplicativity on every basis pair of total weight at most the bound.

    Decided in one pass over the whole table: sigma(t^m) = sigma(t^e)
    sigma(t^(m-e)) for each nonzero t^m.  By induction on weight, sigma is
    then multiplicative on every pair.  Witness: the failing pair (m - e, e),
    or "unit".
    """
    unit = HahnPoly.one(table.ctx, table.bound)
    return _generator_check(table, unit, "unit", _multiplicative)


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
    c = table.images[zero_exp].coefficient(zero_exp)
    if c == 0:
        raise NotAUnitError("table has no scalar part on the weight-zero monomial")
    eps = table - OpTable.identity(ctx, bound).scale(c)
    op_is_contracting(eps).require(
        NotAUnitError, "table is not of the form c*Id + contracting; offending pair {}"
    )
    return unit_inverse(c, eps)
