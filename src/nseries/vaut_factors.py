"""Factor groups of valuation-preserving automorphisms and their algebra.

Three kinds of building blocks act on truncated Hahn series over a lattice
context: coefficient characters (multiplicative rescale by x(g)), exponent
relabelings along order-preserving unimodular matrices, and diagonal
derivations scaling each t^g by an additive character value.  A suitable
automorphism table factors as

    residual  o  character rescale  o  exponent relabeling

with a near-identity residual, and the factorization round-trips exactly.
Every factor table is one read of a table through a monomial map
M(t^m) = c(q) t^q, q = matrix m (`_read_through`).  The rescale, the
diagonal derivation and the relabeling are the identity read through (I, x),
(I, alpha) and (mu, 1).  `compose_factors` reads the residual through
(mu, chi), `pullback_morphism` reads d through mu^(-1) and relabels each
image along mu (through the basis permutation m -> mu m, built once), and
the residual of `decompose_vaut` is sigma read through mu^(-1) and
rescaled.  Each read is one `SparseTable._read` of the table's integer rows:
a map of basis keys, the character's values, walked once over the basis
(`_LatticeChar._on_basis`), and for the pullback a relabeling of image keys.
No read builds an image.  So no table is composed with a factor table; the
chains that do so are oracles in `tests/pairwise_oracles.py`.
`decompose_vaut` checks each input once and reads all three factors off the
generator rows (`SparseTable.row`) and one pass of mu over the basis.  What holds by
construction (the lead of every basis image, the residual's multiplicativity
and the round trip) is re-checked only by the oracles: `rechecked_decompose` in
`tests/pairwise_oracles.py` and `verify`'s vaut.decompose-roundtrip step.
Both character kinds share one base, which holds the values, the dimension
check and the context check of the group law.  `_order_violation` is the one
order-preservation scan, over `ExponentAut` probes and raw relabeling supports;
it passes the identity matrix without a comparison, as the identity moves no
pair out of order, so the identity runs no scan however it is built.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from fractions import Fraction
from math import prod
from typing import Callable, Mapping, Sequence

from .errors import (
    DimensionMismatchError,
    InconsistentExponentialError,
    NotDecomposableError,
    NSeriesError,
    TruncationOverflowError,
)
from .hahn_series import HahnPoly
from .operators import (
    CheckResult,
    OpTable,
    generator_walk,
    op_is_contracting,
    op_is_unital_endomorphism,
)
from .sparse import exact
from .support_order import (
    WEIGHTED, Cmp, ExpVec, FinitePosetFragment, MonoidCtx, minimal_elements, weight_universe,
)

Matrix = tuple[tuple[int, ...], ...]


# -- small exact matrix helpers --------------------------------------------

def _as_matrix(rows: Sequence[Sequence[int]]) -> Matrix:
    mat = tuple(tuple(map(operator.index, row)) for row in rows)
    n = len(mat)
    if n == 0 or any(len(row) != n for row in mat):
        raise DimensionMismatchError("matrix must be square and nonempty")
    return mat


def mat_vec(mat: Matrix, v: ExpVec) -> ExpVec:
    if len(v) != len(mat[0]):
        raise DimensionMismatchError("matrix/vector dimension mismatch")
    return tuple(sum(row[j] * v[j] for j in range(len(v))) for row in mat)


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    n = len(a)
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n))
        for i in range(n)
    )


def _bareiss(mat: Matrix) -> tuple[int, Matrix | None]:
    """Determinant and adjugate by fraction-free (Bareiss) Gauss-Jordan
    elimination on [mat | I]; no adjugate when singular.  Each step divides by
    the previous pivot, and every such division is exact, so all entries stay
    integers; at the end the left block is d*I and the right block d*mat^-1,
    with d the determinant up to the sign of the row swaps."""
    n = len(mat)
    aug = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(mat)]
    sign, prev = 1, 1
    for col in range(n):
        pivot = next((r for r in range(col, n) if aug[r][col]), None)
        if pivot is None:
            return 0, None
        if pivot != col:
            aug[col], aug[pivot] = aug[pivot], aug[col]
            sign = -sign
        row, d = aug[col], aug[col][col]
        for r in range(n):
            if r != col:
                f = aug[r][col]
                aug[r] = [(d * x - f * y) // prev for x, y in zip(aug[r], row)]
        prev = d
    return sign * prev, tuple(tuple(sign * x for x in row[n:]) for row in aug)


def mat_det(mat: Matrix) -> int:
    return _bareiss(mat)[0]


def mat_inverse(mat: Matrix) -> Matrix:
    """Exact inverse of a unimodular integer matrix: det * adj, as det = +-1."""
    det, adj = _bareiss(mat)
    if adj is None:
        raise NotDecomposableError("matrix is singular", witness=mat)
    if det not in (1, -1):
        raise NotDecomposableError("matrix inverse is not integral", witness=mat)
    return tuple(tuple(det * x for x in row) for row in adj)


def _probe_vectors(dim: int) -> list[ExpVec]:
    span = range(-2, 3) if dim <= 3 else range(-1, 2)
    return list(itertools.product(span, repeat=dim))


def _order_violation(ctx: MonoidCtx, mat: Matrix, vecs: Sequence[ExpVec]):
    """The first pair a < b of `vecs`, a in the outer loop, with mat a < mat b
    false; None if there is none.  The identity moves no vector, so it moves
    no pair out of order: it returns None with no comparison.  Otherwise each
    image is computed once."""
    if mat == ctx.generators():
        return None
    images = [mat_vec(mat, v) for v in vecs]
    for a, ma in zip(vecs, images):
        for b, mb in zip(vecs, images):
            if ctx.cmp(a, b) is Cmp.LESS and ctx.cmp(ma, mb) is not Cmp.LESS:
                return a, b
    return None


# -- factor data types ------------------------------------------------------

@dataclass(frozen=True)
class _LatticeChar:
    """A character on the exponent lattice, given by its generator values."""

    ctx: MonoidCtx
    values: tuple[Fraction, ...]

    def __post_init__(self):
        vals = tuple(exact(v) for v in self.values)
        if len(vals) != self.ctx.dim:
            raise DimensionMismatchError("one generator value per dimension required")
        object.__setattr__(self, "values", vals)

    def _pointwise(self, other, op: Callable):
        if self.ctx != other.ctx:
            raise DimensionMismatchError("characters live over different contexts")
        return type(self)(self.ctx, tuple(map(op, self.values, other.values)))

    def _on_basis(self, bound: int) -> dict:
        """The value at every exponent of the truncation at `bound`, by one
        generator walk: the value at 0 is `_UNIT`, and the value at m is
        `_STEP` of the values at m - e and at e, so one product or sum per
        exponent instead of `at`'s check and one power or product per entry."""
        step, values = self._STEP, self.values
        out = {(0,) * self.ctx.dim: self._UNIT}
        for m, rest, e in generator_walk(self.ctx, bound):
            out[m] = step(out[rest], values[e.index(1)])
        return out


@dataclass(frozen=True)
class CharacterX(_LatticeChar):
    """Multiplicative character on the exponent lattice, by generator values."""

    _UNIT, _STEP = Fraction(1), operator.mul

    def __post_init__(self):
        super().__post_init__()
        if any(v == 0 for v in self.values):
            raise NSeriesError("character values must be nonzero")

    @classmethod
    def trivial(cls, ctx: MonoidCtx) -> "CharacterX":
        return cls(ctx, (Fraction(1),) * ctx.dim)

    def at(self, g: Sequence[int]) -> Fraction:
        g = self.ctx.check_vec(g)
        return prod((v ** e for v, e in zip(self.values, g)), start=Fraction(1))

    def __mul__(self, other: "CharacterX") -> "CharacterX":
        return self._pointwise(other, operator.mul)

    def inverse(self) -> "CharacterX":
        return CharacterX(self.ctx, tuple(1 / v for v in self.values))

    def is_trivial(self) -> bool:
        return all(v == 1 for v in self.values)


@dataclass(frozen=True)
class ExponentAut:
    """Order-preserving unimodular relabeling of the exponent lattice."""

    ctx: MonoidCtx
    matrix: Matrix

    def __post_init__(self):
        mat = _as_matrix(self.matrix)
        if len(mat) != self.ctx.dim:
            raise DimensionMismatchError("matrix size must match the context dimension")
        object.__setattr__(self, "matrix", mat)
        det, adj = _bareiss(mat)
        if det not in (1, -1):
            raise NSeriesError(f"exponent automorphism must be unimodular, det = {det}")
        if self.ctx.kind == WEIGHTED:  # the weight leads the order, so it must be kept
            for gen, w in zip(self.ctx.generators(), self.ctx.weights):
                if (moved := self.ctx.weight(mat_vec(mat, gen))) != w:
                    raise NSeriesError(
                        f"matrix changes the weight of generator {gen} from {w} to {moved}"
                    )
        for m in (mat, tuple(tuple(det * x for x in row) for row in adj)):
            if bad := _order_violation(self.ctx, m, _probe_vectors(self.ctx.dim)):
                raise NSeriesError(
                    f"matrix does not preserve the order on probe pair {bad[0]} < {bad[1]}"
                )

    @classmethod
    def identity(cls, ctx: MonoidCtx) -> "ExponentAut":
        """The identity matrix, by the checked constructor; the probe scan
        passes it without a comparison."""
        return cls(ctx, ctx.generators())

    def apply(self, g: Sequence[int]) -> ExpVec:
        return mat_vec(self.matrix, self.ctx.check_vec(g))

    def inverse(self) -> "ExponentAut":
        return ExponentAut(self.ctx, mat_inverse(self.matrix))

    def compose(self, other: "ExponentAut") -> "ExponentAut":
        if self.ctx != other.ctx:
            raise DimensionMismatchError("exponent maps live over different contexts")
        return ExponentAut(self.ctx, mat_mul(self.matrix, other.matrix))

    def is_identity(self) -> bool:
        return self.matrix == self.ctx.generators()


@dataclass(frozen=True)
class AdditiveChar(_LatticeChar):
    """Additive character on the exponent lattice, by generator values."""

    _UNIT, _STEP = Fraction(0), operator.add

    @classmethod
    def zero(cls, ctx: MonoidCtx) -> "AdditiveChar":
        return cls(ctx, (Fraction(0),) * ctx.dim)

    def at(self, g: Sequence[int]) -> Fraction:
        g = self.ctx.check_vec(g)
        return sum((v * e for v, e in zip(self.values, g)), Fraction(0))

    def __add__(self, other: "AdditiveChar") -> "AdditiveChar":
        return self._pointwise(other, operator.add)

    def is_zero(self) -> bool:
        return all(v == 0 for v in self.values)


@dataclass(frozen=True)
class FactorAut:
    """Decomposed automorphism: exponent map, character, near-identity rest."""

    mu: ExponentAut
    chi: CharacterX
    residual: OpTable


# -- actions ----------------------------------------------------------------

def _apply_diagonal(char, a: HahnPoly) -> HahnPoly:
    """Scale each term a(g) t^g by char.at(g)."""
    if char.ctx != a.ctx:
        raise DimensionMismatchError("character and series contexts differ")
    return HahnPoly(a.ctx, a.bound, {g: char.at(g) * c for g, c in a.terms.items()})


def apply_gexp(x: CharacterX, a: HahnPoly) -> HahnPoly:
    """Rescale each coefficient a(g) by the character value x(g)."""
    return _apply_diagonal(x, a)


def _relabeled(ctx: MonoidCtx, bound: int, matrix: Matrix, g: ExpVec) -> ExpVec:
    """matrix g, which must lie in the truncation of `ctx` at `bound`."""
    img = mat_vec(matrix, g)
    if not ctx.in_truncation(img, bound):
        raise TruncationOverflowError(
            f"relabeled exponent {img} of {g} has weight {ctx.weight(img)} and lies"
            f" outside the truncation at N={bound}: a negative entry, or a weight"
            f" outside [0, {bound}]"
        )
    return img


def apply_oaut(mu, a: HahnPoly) -> HahnPoly:
    """Relabel exponents along mu: sum a(g) t^(mu g).

    `mu` may be an ExponentAut or a plain integer matrix (any injective
    order-preserving relabeling, not necessarily onto).  An image outside the
    truncation at the bound (a negative entry, or weight above the bound)
    raises instead of being dropped.  The result is built unchecked: each key
    is checked against the truncation, and an injective relabeling keeps the
    keys distinct.
    """
    matrix = mu.matrix if isinstance(mu, ExponentAut) else _as_matrix(mu)
    if not isinstance(mu, ExponentAut):
        if mat_det(matrix) == 0:
            raise NSeriesError("relabeling matrix must be injective")
        if bad := _order_violation(a.ctx, matrix, sorted(a.terms)):
            raise NSeriesError(
                f"relabeling does not preserve the order on support pair {bad[0]} < {bad[1]}"
            )
    terms = {_relabeled(a.ctx, a.bound, matrix, g): c for g, c in a.terms.items()}
    return HahnPoly._trusted(a._space(), terms)


def apply_gder(alpha: AdditiveChar, a: HahnPoly) -> HahnPoly:
    """Diagonal derivation: scale each term a(g) t^g by alpha(g)."""
    return _apply_diagonal(alpha, a)


def _read_through(table: OpTable, matrix: Matrix, char=None) -> OpTable:
    """table o M for the monomial map M(t^m) = char(q) t^q, q = matrix m: the
    image of t^m is table(t^q) scaled by char(q), or unscaled without `char`.
    A q outside the truncation raises TruncationOverflowError.  Otherwise the
    result is one row read of the table (`SparseTable._read`), with the
    character's values walked once over the basis, which holds every q."""
    ctx, bound = table.ctx, table.bound
    source = {m: _relabeled(ctx, bound, matrix, m) for m in table.basis()}
    return table._read(source, None if char is None else char._on_basis(bound))


def gexp_table(x: CharacterX, bound: int) -> OpTable:
    return _read_through(OpTable.identity(x.ctx, bound), x.ctx.generators(), x)


def oaut_table(mu: ExponentAut, bound: int) -> OpTable:
    return _read_through(OpTable.identity(mu.ctx, bound), mu.matrix)


def gder_table(alpha: AdditiveChar, bound: int) -> OpTable:
    return _read_through(OpTable.identity(alpha.ctx, bound), alpha.ctx.generators(), alpha)


def pullback_morphism(mu: ExponentAut, bound: int) -> Callable[[OpTable], OpTable]:
    """Conjugation by the relabeling table: d -> O_mu o d o O_mu^(-1), that is
    d read through mu^(-1), each image relabeled along mu.  mu relabels every
    basis exponent here, so a mu that leaves the truncation raises now.
    Otherwise mu, being injective, maps the finite basis onto itself: the map
    m -> mu m and its inverse are built once as dicts, and each conjugation is
    one row read of d (`SparseTable._read`) through the inverse, relabeling
    every image key along the map, after the type and space check of a
    table operand against the identity on the same basis, built once.  The
    relabeling table itself is never built."""
    ctx, matrix = mu.ctx, mu.matrix
    basis = weight_universe(ctx, bound)
    forward = {m: _relabeled(ctx, bound, matrix, m) for m in basis}
    back = {q: m for m, q in forward.items()}
    source = {m: back[m] for m in basis}
    unit = OpTable.identity(ctx, bound)

    def conjugate(d: OpTable) -> OpTable:
        unit._require_same(d)
        return d._read(source, relabel=forward)

    return conjugate


# -- middle correspondence ---------------------------------------------------

def middle_correspond(alpha: AdditiveChar, e_values: Mapping) -> CharacterX:
    """The character e o alpha from declared values of the exponential e.

    No exact exponential exists on the rationals, so the finitely many values
    e(v) that alpha needs are declared, and the homomorphism law
    e(u) e(v) = e(u + v) is checked on every sum of declared points, with
    e(0) = 1 among them whether it is declared or not.
    """
    table = {exact(k): exact(v) for k, v in e_values.items()}
    if any(v == 0 for v in table.values()):
        raise InconsistentExponentialError("exponential values must be nonzero")
    if (at_zero := table.setdefault(Fraction(0), Fraction(1))) != 1:
        raise InconsistentExponentialError(f"declared value at 0 must be 1, got {at_zero}")
    keys = sorted(table)
    for u in keys:
        for v in keys:
            s = u + v
            if s in table and table[u] * table[v] != table[s]:
                raise InconsistentExponentialError(
                    f"hom law fails: e({u})*e({v}) = {table[u] * table[v]} != {table[s]} = e({u}+{v})"
                )
    vals = []
    for v in alpha.values:
        if v not in table:
            raise InconsistentExponentialError(f"no declared exponential value for {v}")
        vals.append(table[v])
    return CharacterX(alpha.ctx, tuple(vals))


# -- composition and decomposition -------------------------------------------

def one_aut_check(table: OpTable) -> CheckResult:
    """Near-identity automorphism test: unital endomorphism, rest contracting."""
    endo = op_is_unital_endomorphism(table)
    if not endo:
        return endo
    return op_is_contracting(table - OpTable.identity(table.ctx, table.bound))


def compose_factors(f: FactorAut) -> OpTable:
    """Recompose residual o character-rescale o exponent-relabeling: the
    residual read through t^m -> chi(mu m) t^(mu m)."""
    if not f.mu.ctx == f.chi.ctx == f.residual.ctx:
        raise DimensionMismatchError("factor components live over different contexts")
    return _read_through(f.residual, f.mu.matrix, f.chi)


def decompose_vaut(sigma: OpTable) -> FactorAut:
    """Split a valuation-compatible automorphism table sigma into FactorAut(mu,
    chi, residual) with `compose_factors` of it equal to sigma: the columns of
    mu are the leads (unique minimal support exponents) of the generator
    images, and residual - Id is contracting.

    Each failure raises NotDecomposableError with a witness: sigma is not a
    unital endomorphism; a generator lies above the bound; a generator image
    has no unique lead; the leads form no order automorphism of the lattice;
    mu sends a basis exponent outside the basis; or residual - Id is not
    contracting.
    """
    ctx, bound = sigma.ctx, sigma.bound
    op_is_unital_endomorphism(sigma).require(
        NotDecomposableError, "table is not a unital endomorphism; witness {}"
    )
    gens = ctx.generators()
    leads, lead_coeffs = [], []
    for g in gens:
        if not ctx.in_truncation(g, bound):
            raise NotDecomposableError(
                f"generator {g} has weight {ctx.weight(g)}, above the bound {bound}", witness=g
            )
        image = sigma.row(g)
        mins = minimal_elements(FinitePosetFragment.of(ctx, image))
        if len(mins) != 1:
            raise NotDecomposableError(
                f"image of {g} has {len(mins)} minimal support exponents", witness=g
            )
        (lead,) = mins
        leads.append(lead)
        lead_coeffs.append(image[lead])
    matrix = tuple(zip(*leads))
    try:
        mu = ExponentAut(ctx, matrix)
    except NSeriesError as exc:
        raise NotDecomposableError(
            f"leading exponents do not form an order automorphism: {exc}", witness=matrix
        ) from exc
    for m in sigma.basis():
        q = mat_vec(matrix, m)
        if not ctx.in_truncation(q, bound):
            raise NotDecomposableError(
                f"leading exponent of {m} is {q}, outside the basis", witness=m
            )
    back = mat_inverse(matrix)
    base = CharacterX(ctx, tuple(lead_coeffs))
    chi = CharacterX(ctx, tuple(base.at(mat_vec(back, g)) for g in gens))
    residual = _read_through(sigma, back, base.inverse())
    op_is_contracting(residual - OpTable.identity(ctx, bound)).require(
        NotDecomposableError, "residual fails the near-identity test; witness {}"
    )
    return FactorAut(mu, chi, residual)
