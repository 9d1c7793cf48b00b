"""Factor groups of valuation-preserving automorphisms and their algebra.

Three kinds of building blocks act on truncated Hahn series over a lattice
context: coefficient characters (multiplicative rescale by x(g)), exponent
relabelings along order-preserving unimodular matrices, and diagonal
derivations scaling each t^g by an additive character value.  A suitable
automorphism table factors as

    residual  o  character rescale  o  exponent relabeling

with a near-identity residual, and the factorization round-trips exactly:
`decompose_vaut` reads the residual off the table, and `compose_factors`
recomposes the three tables as an independent check.
Both character kinds share one base, which holds the values, the dimension
check and the context check of the group law.  `_order_violation` is the one
order-preservation scan, over `ExponentAut` probes and raw relabeling supports.
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
    TruncationOverflowError,
)
from .hahn_series import HahnPoly
from .operators import (
    CheckResult,
    OpTable,
    op_compose,
    op_is_contracting,
    op_is_unital_endomorphism,
)
from .support_order import WEIGHTED, Cmp, ExpVec, FinitePosetFragment, MonoidCtx, minimal_elements

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


def _gauss_jordan(mat: Matrix) -> tuple[Fraction, list[list[Fraction]] | None]:
    """Determinant and exact inverse by elimination on [mat | I]; no inverse when singular."""
    n = len(mat)
    aug = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
           for i, row in enumerate(mat)]
    det = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if pivot is None:
            return Fraction(0), None
        if pivot != col:
            aug[col], aug[pivot] = aug[pivot], aug[col]
            det = -det
        det *= aug[col][col]
        inv = 1 / aug[col][col]
        aug[col] = [x * inv for x in aug[col]]
        for r in range(n):
            if r == col or aug[r][col] == 0:
                continue
            factor = aug[r][col]
            aug[r] = [x - factor * y for x, y in zip(aug[r], aug[col])]
    return det, [row[n:] for row in aug]


def mat_det(mat: Matrix) -> int:
    det, _ = _gauss_jordan(mat)
    assert det.denominator == 1
    return int(det)


def mat_inverse(mat: Matrix) -> Matrix:
    """Exact inverse of a unimodular integer matrix."""
    _, inverse = _gauss_jordan(mat)
    if inverse is None:
        raise NotDecomposableError("matrix is singular", witness=mat)
    if any(x.denominator != 1 for row in inverse for x in row):
        raise NotDecomposableError("matrix inverse is not integral", witness=mat)
    return tuple(tuple(int(x) for x in row) for row in inverse)


def _probe_vectors(dim: int) -> list[ExpVec]:
    span = range(-2, 3) if dim <= 3 else range(-1, 2)
    return list(itertools.product(span, repeat=dim))


def _order_violation(ctx: MonoidCtx, mat: Matrix, vecs: Sequence[ExpVec]):
    """The first pair a < b of `vecs`, a in the outer loop, with mat a < mat b
    false; None if there is none.  Each image is computed once."""
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
        vals = tuple(Fraction(v) for v in self.values)
        if len(vals) != self.ctx.dim:
            raise DimensionMismatchError("one generator value per dimension required")
        object.__setattr__(self, "values", vals)

    def _pointwise(self, other, op: Callable):
        if self.ctx != other.ctx:
            raise DimensionMismatchError("characters live over different contexts")
        return type(self)(self.ctx, tuple(map(op, self.values, other.values)))


@dataclass(frozen=True)
class CharacterX(_LatticeChar):
    """Multiplicative character on the exponent lattice, by generator values."""

    def __post_init__(self):
        super().__post_init__()
        if any(v == 0 for v in self.values):
            raise ValueError("character values must be nonzero")

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
        det = mat_det(mat)
        if det not in (1, -1):
            raise ValueError(f"exponent automorphism must be unimodular, det = {det}")
        if self.ctx.kind == WEIGHTED:  # the weight leads the order, so it must be kept
            for gen, w in zip(self.ctx.generators(), self.ctx.weights):
                if (moved := self.ctx.weight(mat_vec(mat, gen))) != w:
                    raise ValueError(
                        f"matrix changes the weight of generator {gen} from {w} to {moved}"
                    )
        for m in (mat, mat_inverse(mat)):
            if bad := _order_violation(self.ctx, m, _probe_vectors(self.ctx.dim)):
                raise ValueError(
                    f"matrix does not preserve the order on probe pair {bad[0]} < {bad[1]}"
                )

    @classmethod
    def identity(cls, ctx: MonoidCtx) -> "ExponentAut":
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


def _diagonal_table(char, bound: int) -> OpTable:
    """The table of t^m -> char.at(m) t^m."""
    return OpTable.from_function(
        char.ctx, bound, lambda m: HahnPoly.monomial(char.ctx, bound, m, char.at(m))
    )


def apply_gexp(x: CharacterX, a: HahnPoly) -> HahnPoly:
    """Rescale each coefficient a(g) by the character value x(g)."""
    return _apply_diagonal(x, a)


def apply_oaut(mu, a: HahnPoly) -> HahnPoly:
    """Relabel exponents along mu: sum a(g) t^(mu g).

    `mu` may be an ExponentAut or a plain integer matrix (any injective
    order-preserving relabeling, not necessarily onto).  Images leaving the
    admissible weight range raise instead of being dropped.
    """
    matrix = mu.matrix if isinstance(mu, ExponentAut) else _as_matrix(mu)
    if not isinstance(mu, ExponentAut):
        if mat_det(matrix) == 0:
            raise ValueError("relabeling matrix must be injective")
        if bad := _order_violation(a.ctx, matrix, sorted(a.terms)):
            raise ValueError(
                f"relabeling does not preserve the order on support pair {bad[0]} < {bad[1]}"
            )
    out = {}
    for g, c in a.terms.items():
        img = mat_vec(matrix, g)
        w = a.ctx.weight(img)
        if w < 0 or w > a.bound:
            raise TruncationOverflowError(
                f"relabeled exponent {img} of {g} has weight {w}, outside [0, {a.bound}]"
            )
        out[img] = c
    return HahnPoly(a.ctx, a.bound, out)


def apply_gder(alpha: AdditiveChar, a: HahnPoly) -> HahnPoly:
    """Diagonal derivation: scale each term a(g) t^g by alpha(g)."""
    return _apply_diagonal(alpha, a)


def gexp_table(x: CharacterX, bound: int) -> OpTable:
    return _diagonal_table(x, bound)


def oaut_table(mu: ExponentAut, bound: int) -> OpTable:
    return OpTable.from_function(
        mu.ctx, bound, lambda m: apply_oaut(mu, HahnPoly.monomial(mu.ctx, bound, m))
    )


def gder_table(alpha: AdditiveChar, bound: int) -> OpTable:
    return _diagonal_table(alpha, bound)


def pullback_morphism(mu: ExponentAut, bound: int) -> Callable[[OpTable], OpTable]:
    """Conjugation by the relabeling table: d -> O_mu o d o O_mu^(-1)."""
    fwd = oaut_table(mu, bound)
    back = oaut_table(mu.inverse(), bound)
    return lambda d: op_compose(op_compose(fwd, d), back)


# -- middle correspondence ---------------------------------------------------

def middle_correspond(alpha: AdditiveChar, e_values: Mapping) -> CharacterX:
    """The character e o alpha from declared values of the exponential e.

    No exact exponential exists on the rationals, so the finitely many values
    e(v) that alpha needs are declared, and the homomorphism law
    e(u) e(v) = e(u + v) is checked on every sum of declared points.
    """
    table = {Fraction(k): Fraction(v) for k, v in e_values.items()}
    if any(v == 0 for v in table.values()):
        raise InconsistentExponentialError("exponential values must be nonzero")
    if Fraction(0) in table and table[Fraction(0)] != 1:
        raise InconsistentExponentialError(
            f"declared value at 0 must be 1, got {table[Fraction(0)]}"
        )
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
    """Recompose residual o character-rescale o exponent-relabeling by composing their tables."""
    ctx, bound = f.residual.ctx, f.residual.bound
    if f.mu.ctx != ctx or f.chi.ctx != ctx:
        raise DimensionMismatchError("factor components live over different contexts")
    return op_compose(f.residual, op_compose(gexp_table(f.chi, bound), oaut_table(f.mu, bound)))


def decompose_vaut(sigma: OpTable) -> FactorAut:
    """Split a valuation-compatible automorphism table into its three factors.

    The exponent map mu is read off the (unique) minimal support exponent of
    each basis image; it must extend the generator images linearly, be a
    unimodular order automorphism and keep every leading exponent in the
    basis, so that mu permutes the basis.  With base the character of the
    leading generator coefficients, chi = base o mu^(-1) takes
    chi(mu m) = base(m), so the residual is read off sigma directly:
    residual(t^(mu m)) = sigma(t^m) / base(m).  It must be a near-identity
    automorphism, and recomposing the factors must give sigma back, which
    checks the reading by composing tables; any failure along the way
    reports a witness.
    """
    ctx, bound = sigma.ctx, sigma.bound
    endo = op_is_unital_endomorphism(sigma)
    if not endo:
        raise NotDecomposableError(
            f"table is not a unital endomorphism; witness {endo.witness}",
            witness=endo.witness,
        )
    lead: dict[ExpVec, ExpVec] = {}
    for m in sigma.basis():
        mins = minimal_elements(FinitePosetFragment.of(ctx, sigma.images[m].support))
        if len(mins) != 1:
            raise NotDecomposableError(
                f"image of {m} has {len(mins)} minimal support exponents", witness=m
            )
        (lead[m],) = mins
    gens = ctx.generators()
    matrix = tuple(tuple(lead[g][i] for g in gens) for i in range(ctx.dim))
    try:
        mu = ExponentAut(ctx, matrix)
    except (ValueError, NotDecomposableError) as exc:
        raise NotDecomposableError(
            f"leading exponents do not form an order automorphism: {exc}", witness=matrix
        ) from exc
    for m in sigma.basis():
        if mat_vec(matrix, m) != lead[m]:
            raise NotDecomposableError(
                f"leading exponent of {m} is {lead[m]}, not the linear image {mat_vec(matrix, m)}",
                witness=m,
            )
        if lead[m] not in sigma.images:
            raise NotDecomposableError(
                f"leading exponent of {m} is {lead[m]}, outside the basis", witness=m
            )
    base = CharacterX(ctx, tuple(sigma.images[g].coefficient(lead[g]) for g in gens))
    minv = mat_inverse(matrix)
    chi = CharacterX(ctx, tuple(base.at(mat_vec(minv, g)) for g in gens))
    residual = OpTable.from_function(
        ctx, bound, lambda q: sigma.images[mat_vec(minv, q)].scale(1 / chi.at(q))
    )
    near = one_aut_check(residual)
    if not near:
        raise NotDecomposableError(
            f"residual fails the near-identity test; witness {near.witness}",
            witness=near.witness,
        )
    factors = FactorAut(mu, chi, residual)
    if compose_factors(factors) != sigma:
        raise NotDecomposableError("recomposition does not reproduce the table")
    return factors
