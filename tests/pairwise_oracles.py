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
on it stay independent of the kernel they check.  The per-monomial
recomposition applies the
three factors to each basis monomial in turn, where `compose_factors`
composes their tables.  The inverse chain composes sigma with the inverse
relabeling and rescaling tables, where `decompose_vaut` reads the residual
off sigma directly.  The left-normed bracket loop expands
[[..[w1, w2]..], w_T] letter by letter, where `nseries.series_calculus`
mirrors the right-nested expansion.
"""

from dataclasses import replace
from fractions import Fraction

from nseries import (
    CheckResult,
    DimensionMismatchError,
    HahnPoly,
    IncompleteTableError,
    OpTable,
    apply_gexp,
    apply_oaut,
    gexp_table,
    oaut_table,
    op_apply,
    op_compose,
)
from nseries.support_order import vec_sub


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


def per_monomial_compose_factors(f) -> OpTable:
    """t^m -> residual(rescale(relabel(t^m))), one basis monomial at a time."""
    ctx, bound = f.residual.ctx, f.residual.bound
    if f.mu.ctx != ctx or f.chi.ctx != ctx:
        raise DimensionMismatchError("factor components live over different contexts")

    def image(m):
        relabeled = apply_oaut(f.mu, HahnPoly.monomial(ctx, bound, m))
        return folded_apply(f.residual, apply_gexp(f.chi, relabeled))

    return OpTable.from_function(ctx, bound, image)


def inverse_chain_residual(sigma, mu, chi) -> OpTable:
    """sigma o (relabel by mu)^(-1) o (rescale by chi)^(-1), by composing tables."""
    bound = sigma.bound
    return op_compose(
        op_compose(sigma, oaut_table(mu.inverse(), bound)), gexp_table(chi.inverse(), bound)
    )


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
