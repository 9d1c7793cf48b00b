"""Slow reference routes for the generator walk, the word evaluator, linear
combinations, table application, factor recomposition and the bracket expansion.

The pairwise scans check the Leibniz rule or multiplicativity on every basis
pair of total weight at most the bound, O(B^2) table applications.  The
closed-form builders extend generator images by sum_i m_i t^(m - e_i)
D(t^e_i) and by products of powers.  The naive word sum builds each word's
product from scratch.  `nseries.operators` and `nseries.free_algebra` compute
the same in one pass; the tests compare the two.  The reference sum folds
raw term dicts one pair at a time, as `acc + s.scale(c)` once did, and never
calls `lin_comb`, so the folded application and the word and power sums built
on it stay independent of the kernel they check.  The reference product folds
c_a c_b into a raw term dict one pair at a time in `Fraction` arithmetic and
builds its result through the checked constructor, where the kernel sums
integers over one denominator and builds its result unchecked.  The folded
composition applies f to each image of g by the folded application, so the
reference sum of tables, the folded application and the folded composition
work image by image and term by term in `Fraction` arithmetic, zero images
included, where `op_compose`, `OpTable.lin_comb` and `op_apply` loop over
the nonzero rows of each table's integer matrix over one denominator.  The
per-monomial tabulations build the rescale, diagonal-derivation and
relabeling tables one basis monomial at a time, where `nseries.vaut_factors`
reads the identity table through a monomial map.  The per-monomial
recomposition applies the three factors to each basis monomial in turn, and
the table chains compose the residual with the tabulated rescale and
relabeling, and conjugate d by the relabeling tables of mu and mu^(-1), where
`compose_factors` and `pullback_morphism` read one table through a monomial
map.  The inverse chain composes sigma with the inverse relabeling and
rescaling tables, where `decompose_vaut` reads sigma through mu^(-1).  The
rechecked decomposition scans the lead of every basis image, inverts mu by
`Fraction` elimination, tests the residual's multiplicativity and recomposes
the factors, where `decompose_vaut` reads the split off the generator images
alone.  The left-normed bracket loop expands
[[..[w1, w2]..], w_T] letter by letter, where `nseries.series_calculus`
mirrors the right-nested expansion.  The per-tuple Dynkin sum expands the
right-nested bracket of every block tuple's word, where `dynkin_bch` sums the
tuples' coefficients into their words and expands each distinct word once.
The cone test decides `in_contracting_cone` through the checked `cmp`, where
`nseries.operators` reads the context's compiled strict order `less`.  The `Fraction` Gauss-Jordan elimination
on [mat | I] checks `mat_det` and `mat_inverse`, which eliminate fraction-free
over the integers.  The exp-log iterate evaluates two series, exp(c log s),
where `fractional_iterate` evaluates the binomial series (1 + X0)^c once.
"""

from dataclasses import replace
from fractions import Fraction
from math import factorial

from nseries import (
    CharacterX,
    CheckResult,
    DimensionMismatchError,
    ExponentAut,
    FactorAut,
    FinitePosetFragment,
    FreeSeries,
    HahnPoly,
    IncompleteTableError,
    NotDecomposableError,
    Cmp,
    NSeriesError,
    OpTable,
    apply_gexp,
    apply_oaut,
    compose_factors,
    minimal_elements,
    one_aut_check,
    op_apply,
    op_compose,
    op_exp,
    op_is_unital_endomorphism,
    op_log,
    word_concat,
)
from nseries.series_calculus import _block_tuples, _dynkin_denominator, _right_nested_bracket
from nseries.support_order import vec_add, vec_sub
from nseries.vaut_factors import mat_vec


def _monomials(table, m1, m2):
    return (
        HahnPoly.monomial(table.ctx, table.bound, m1),
        HahnPoly.monomial(table.ctx, table.bound, m2),
    )


def leibniz_holds(table, m1, m2) -> bool:
    """D(t^m1 t^m2) = D(t^m1) t^m2 + t^m1 D(t^m2)."""
    t1, t2 = _monomials(table, m1, m2)
    return op_apply(table, t1 * t2) == op_apply(table, t1) * t2 + t1 * op_apply(table, t2)


def multiplicative_on(table, m1, m2) -> bool:
    """sigma(t^m1 t^m2) = sigma(t^m1) sigma(t^m2)."""
    t1, t2 = _monomials(table, m1, m2)
    return op_apply(table, t1 * t2) == op_apply(table, t1) * op_apply(table, t2)


def basis_pairs(table):
    """Basis pairs (m1, m2), m1 not after m2, with total weight at most the bound."""
    ctx, basis = table.ctx, table.basis()
    for i, m1 in enumerate(basis):
        for m2 in basis[i:]:
            if ctx.weight(m1) + ctx.weight(m2) <= table.bound:
                yield m1, m2


def pairwise_derivation(table) -> CheckResult:
    for m1, m2 in basis_pairs(table):
        if not leibniz_holds(table, m1, m2):
            return CheckResult(False, (m1, m2))
    return CheckResult(True)


def pairwise_unital_endomorphism(table) -> CheckResult:
    unit = HahnPoly.one(table.ctx, table.bound)
    if op_apply(table, unit) != unit:
        return CheckResult(False, "unit")
    for m1, m2 in basis_pairs(table):
        if not multiplicative_on(table, m1, m2):
            return CheckResult(False, (m1, m2))
    return CheckResult(True)


def leibniz_closed_form(ctx, bound, gen_images) -> OpTable:
    """t^m -> sum over i with m_i != 0 of m_i t^(m - e_i) gen_images[i]."""
    gens = [tuple(int(i == j) for j in range(ctx.dim)) for i in range(ctx.dim)]

    def image(m):
        out = HahnPoly.zero(ctx, bound)
        for i, g in enumerate(gens):
            if m[i] == 0:
                continue
            rest = HahnPoly.monomial(ctx, bound, vec_sub(m, g))
            out = out + (rest * gen_images[i]).scale(m[i])
        return out

    return OpTable.from_function(ctx, bound, image)


def product_of_powers(ctx, bound, gen_images) -> OpTable:
    """t^m -> the product over i of gen_images[i] ** m_i."""

    def image(m):
        out = HahnPoly.one(ctx, bound)
        for i, e in enumerate(m):
            out = out * gen_images[i].power(e)
        return out

    return OpTable.from_function(ctx, bound, image)


def reference_terms(pairs) -> dict:
    """The terms of sum c*s over (c, s) pairs, folded one pair at a time over raw
    term dicts: each step copies the running dict, adds c*v key by key and drops
    the zeros only when the step ends."""
    acc: dict = {}
    for c, s in pairs:
        step = dict(acc)
        for key, v in s.terms.items():
            step[key] = step.get(key, 0) + Fraction(c) * v
        acc = {key: v for key, v in step.items() if v != 0}
    return acc


def reference_product(a, b):
    """a * b for two series of one space, folded over raw term dicts: every pair
    of terms whose grades sum to at most the bound adds c_a c_b at its key, and
    the checked constructor drops the keys whose sum is zero."""
    if isinstance(a, FreeSeries):
        grade, key_mul, bound = len, word_concat, a.grade
    else:
        grade, key_mul, bound = a.ctx.weight, vec_add, a.bound
    acc: dict = {}
    for ka, ca in a.terms.items():
        for kb, cb in b.terms.items():
            if grade(ka) + grade(kb) <= bound:
                key = key_mul(ka, kb)
                acc[key] = acc.get(key, 0) + ca * cb
    return replace(a, terms=acc)


def reference_sum(like, pairs):
    """sum c*x over (c, x) pairs in the space of `like`, a series or a table,
    through `reference_terms` and the checked constructor."""
    pairs = list(pairs)
    if isinstance(like, OpTable):
        return replace(like, images={
            m: reference_sum(img, [(c, t.images[m]) for c, t in pairs])
            for m, img in like.images.items()
        })
    return replace(like, terms=reference_terms(pairs))


def folded_apply(table, a) -> HahnPoly:
    """Apply by the reference sum of coeff * image over the terms of `a`."""
    if table.ctx != a.ctx or table.bound != a.bound:
        raise DimensionMismatchError("operator and series contexts differ")
    pairs = []
    for exp, coeff in a.terms.items():
        img = table.images.get(exp)
        if img is None:
            raise IncompleteTableError(f"no tabulated image for basis exponent {exp}")
        pairs.append((coeff, img))
    return reference_sum(a, pairs)


def folded_compose(f, g) -> OpTable:
    """f o g, image by image: `folded_apply` of f to each image of g, every
    image of f taking part, zero or not."""
    f._require_same(g)
    return replace(g, images={m: folded_apply(f, img) for m, img in g.images.items()})


def per_monomial_compose_factors(f) -> OpTable:
    """t^m -> residual(rescale(relabel(t^m))), one basis monomial at a time."""
    ctx, bound = f.residual.ctx, f.residual.bound
    if f.mu.ctx != ctx or f.chi.ctx != ctx:
        raise DimensionMismatchError("factor components live over different contexts")

    def image(m):
        relabeled = apply_oaut(f.mu, HahnPoly.monomial(ctx, bound, m))
        return folded_apply(f.residual, apply_gexp(f.chi, relabeled))

    return OpTable.from_function(ctx, bound, image)


def diagonal_table(char, bound) -> OpTable:
    """t^m -> char(m) t^m, one basis monomial at a time."""
    return OpTable.from_function(
        char.ctx, bound, lambda m: HahnPoly.monomial(char.ctx, bound, m, char.at(m))
    )


def relabeling_table(mu, bound) -> OpTable:
    """t^m -> t^(mu m), one `apply_oaut` per basis monomial."""
    return OpTable.from_function(
        mu.ctx, bound, lambda m: apply_oaut(mu, HahnPoly.monomial(mu.ctx, bound, m))
    )


def chain_compose_factors(f) -> OpTable:
    """residual o (rescale by chi o relabel by mu), by composing tables."""
    ctx, bound = f.residual.ctx, f.residual.bound
    if f.mu.ctx != ctx or f.chi.ctx != ctx:
        raise DimensionMismatchError("factor components live over different contexts")
    return op_compose(
        f.residual, op_compose(diagonal_table(f.chi, bound), relabeling_table(f.mu, bound))
    )


def chain_pullback(mu, bound):
    """d -> (relabel by mu) o d o (relabel by mu^(-1)), by composing tables."""
    fwd = relabeling_table(mu, bound)
    back = relabeling_table(mu.inverse(), bound)
    return lambda d: op_compose(op_compose(fwd, d), back)


def inverse_chain_residual(sigma, mu, chi) -> OpTable:
    """sigma o (relabel by mu)^(-1) o (rescale by chi)^(-1), by composing tables."""
    bound = sigma.bound
    return op_compose(
        op_compose(sigma, relabeling_table(mu.inverse(), bound)),
        diagonal_table(chi.inverse(), bound),
    )


def gauss_jordan(mat):
    """Determinant and exact inverse by `Fraction` elimination on [mat | I];
    no inverse when singular."""
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


def gauss_jordan_inverse(mat):
    """The integer inverse of `mat` by `gauss_jordan`, with the errors of `mat_inverse`."""
    _, inverse = gauss_jordan(mat)
    if inverse is None:
        raise NotDecomposableError("matrix is singular", witness=mat)
    if any(x.denominator != 1 for row in inverse for x in row):
        raise NotDecomposableError("matrix inverse is not integral", witness=mat)
    return tuple(tuple(int(x) for x in row) for row in inverse)


def rechecked_decompose(sigma) -> FactorAut:
    """`decompose_vaut` with every by-construction fact checked again: the
    unique lead of each basis image and its agreement with the linear image,
    chi through the exact inverse of mu, the residual's near-identity test
    (multiplicativity included) and the `compose_factors` round trip."""
    ctx, bound = sigma.ctx, sigma.bound
    endo = op_is_unital_endomorphism(sigma)
    if not endo:
        raise NotDecomposableError(
            f"table is not a unital endomorphism; witness {endo.witness}",
            witness=endo.witness,
        )
    lead = {}
    for m in sigma.basis():
        mins = minimal_elements(FinitePosetFragment.of(ctx, sigma.images[m].support))
        if len(mins) != 1:
            raise NotDecomposableError(
                f"image of {m} has {len(mins)} minimal support exponents", witness=m
            )
        (lead[m],) = mins
    gens = ctx.generators()
    for g in gens:
        if g not in lead:
            raise NotDecomposableError(
                f"generator {g} has weight {ctx.weight(g)}, above the bound {bound}", witness=g
            )
    matrix = tuple(tuple(lead[g][i] for g in gens) for i in range(ctx.dim))
    try:
        mu = ExponentAut(ctx, matrix)
    except NSeriesError as exc:
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
    minv = gauss_jordan_inverse(matrix)
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


def naive_word_sum(P, args, one, mul, bound):
    """P(empty) one plus P(w) args[w1]...args[wn] over the nonempty words of
    length <= bound, each product built from `one` with no cache or pruning,
    summed by `reference_sum`."""
    pairs = [(P.constant_term, one)]
    for word, coeff in P.terms.items():
        if 0 < len(word) <= bound:
            product = one
            for letter in word:
                product = mul(product, args[letter])
            pairs.append((coeff, product))
    return reference_sum(one, pairs)


def folded_power_sum(P, x, one, mul):
    """sum of P(X0^n) x^n over every n <= P.grade, x^n built from `one` by n
    products with no early stop, summed by `reference_sum`."""
    pairs = []
    for n in range(P.grade + 1):
        power = one
        for _ in range(n):
            power = mul(x, power)
        pairs.append((P.coefficient((0,) * n), power))
    return reference_sum(one, pairs)


def exp_log_iterate(s, c) -> OpTable:
    """The iterate of s to the power c as exp(c log s), with both series checked
    and evaluated in turn."""
    return op_exp(op_log(s).scale(c))


def left_normed_bracket_loop(word):
    """Expand [[..[[w1, w2], w3].., w_T] into the free algebra, one letter at a time."""
    acc = {(word[0],): 1}
    for letter in word[1:]:
        nxt = {}
        for w, c in acc.items():
            left = w + (letter,)
            right = (letter,) + w
            nxt[left] = nxt.get(left, 0) + c
            nxt[right] = nxt.get(right, 0) - c
        acc = {w: c for w, c in nxt.items() if c != 0}
    return acc


def per_tuple_dynkin_bch(order):
    """The commutator formula of `dynkin_bch`, one right-nested bracket
    expansion per block tuple: integers over `_dynkin_denominator(order)`."""
    common = _dynkin_denominator(order)
    acc = {}
    for blocks in _block_tuples(order):
        n = len(blocks)
        word, denom = (), n * sum(r + s for r, s in blocks)
        for r, s in blocks:
            word += (0,) * r + (1,) * s
            denom *= factorial(r) * factorial(s)
        coeff = (-1) ** (n - 1) * (common // denom)
        for w, c in _right_nested_bracket(word).items():
            acc[w] = acc.get(w, 0) + coeff * c
    return FreeSeries(2, order, {w: Fraction(v, common) for w, v in acc.items()})


def cmp_contracting_cone(ctx, m, q) -> bool:
    """q strictly above m by the checked `cmp`, and weight(q) >= weight(m) + 1."""
    return ctx.weight(q) > ctx.weight(m) and ctx.cmp(m, q) is Cmp.LESS
