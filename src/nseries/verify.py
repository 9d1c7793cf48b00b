"""Randomized and exhaustive invariant suites behind `nseries verify`.

Each suite returns a list of named step outcomes; a step either passes or
carries a short counterexample description.  All randomness flows through a
single seeded generator, so a (seed, order, trials) triple pins the output.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from . import samples
from .correspondence import (
    conjugation_morphism,
    fractional_iterate,
    lie_morphism_defect,
    op_exp,
    op_exp_via_series,
    op_log,
    op_log_via_series,
    push_morphism,
    star,
)
from .free_algebra import FreeSeries, factorizations
from .hahn_series import HahnPoly, hp_prec
from .operators import (
    OpTable,
    op_apply,
    op_compose,
    op_evaluate,
    op_geometric_inverse,
    op_is_contracting,
    op_is_derivation,
    op_is_unital_endomorphism,
    multiplication_table,
)
from .series_calculus import (
    bch_product,
    dynkin_bch,
    fs_substitute,
    is_lie_slice,
    series_E0,
    series_L0,
)
from .support_order import (
    Cmp,
    FinitePosetFragment,
    MonoidCtx,
    convolution_pairs,
    find_good_pair,
    minimal_elements,
    vec_add,
)
from .vaut_factors import (
    ExponentAut,
    FactorAut,
    apply_gder,
    apply_gexp,
    compose_factors,
    decompose_vaut,
    gder_table,
    middle_correspond,
    one_aut_check,
    oaut_table,
    gexp_table,
)

SUITES = ("free", "bch", "hahn", "order", "operator", "correspondence", "vaut", "all")


@dataclass(frozen=True)
class StepResult:
    name: str
    passed: bool
    detail: str = ""


def _step(results: list[StepResult], name: str, ok: bool, detail: str = ""):
    results.append(StepResult(name, bool(ok), "" if ok else detail))


# -- suites -------------------------------------------------------------------

def suite_free(order: int, trials: int, rng: random.Random) -> list[StepResult]:
    out: list[StepResult] = []
    grade = min(order, 6)
    ok, detail = True, ""
    for _ in range(trials):
        P = samples.random_free_series(rng, 2, grade)
        Q = samples.random_free_series(rng, 2, grade)
        R = samples.random_free_series(rng, 2, grade)
        if (P * Q) * R != P * (Q * R):
            ok, detail = False, "associativity failed"
            break
        if (P + Q) * R != P * R + Q * R or P * (Q + R) != P * Q + P * R:
            ok, detail = False, "distributivity failed"
            break
    _step(out, "free.mul-associative-distributive", ok, detail)

    ok, detail = True, ""
    for _ in range(trials):
        P = samples.random_free_series(rng, 2, grade)
        Q = samples.random_free_series(rng, 2, grade)
        prod = P * Q
        for n in range(grade + 1):
            for w in prod.support_slice(n):
                if not any(
                    beta in P.support_slice(len(beta))
                    and gamma in Q.support_slice(len(gamma))
                    for beta, gamma in factorizations(w)
                ):
                    ok, detail = False, f"support word {w} has no factorization"
    _step(out, "free.support-bound", ok, detail)

    ok, detail = True, ""
    one = FreeSeries.one(2, grade)
    for _ in range(trials):
        P = samples.random_free_series(rng, 2, grade, constant=samples.nonzero_fraction(rng))
        if P * P.geometric_inverse() != one or P.geometric_inverse() * P != one:
            ok, detail = False, "inverse roundtrip failed"
            break
    _step(out, "free.geometric-inverse-roundtrip", ok, detail)

    ok, detail = True, ""
    for _ in range(trials):
        P = samples.random_free_series(rng, 2, grade, constant=Fraction(0))
        Q = samples.random_free_series(rng, 2, grade, constant=Fraction(0))
        prod = P * Q
        if prod.constant_term != 0 or prod.support_slice(min(1, grade)):
            ok, detail = False, "augmentation ideal not closed"
            break
    _step(out, "free.augmentation-ideal-closure", ok, detail)
    return out


def suite_bch(order: int, trials: int, rng: random.Random) -> list[StepResult]:
    out: list[StepResult] = []
    del trials, rng
    ok = True
    for n in range(1, min(order, 10) + 1):
        E, L = series_E0(n), series_L0(n)
        one_plus = FreeSeries.one(1, n) + FreeSeries.variable(0, 1, n)
        if fs_substitute(E, {0: L}) != one_plus:
            ok = False
        if fs_substitute(L, {0: E - FreeSeries.one(1, n)}) != FreeSeries.variable(0, 1, n):
            ok = False
    _step(out, "bch.exp-log-inversion", ok, "substitution identity failed")

    n_ident = min(order, 8)
    ok = True
    for n in range(1, n_ident + 1):
        S = bch_product(n)
        lhs = fs_substitute(series_E0(n), {0: S})
        x0 = FreeSeries.variable(0, 2, n)
        x1 = FreeSeries.variable(1, 2, n)
        rhs = fs_substitute(series_E0(n), {0: x0}) * fs_substitute(series_E0(n), {0: x1})
        if lhs != rhs:
            ok = False
    _step(out, "bch.exponential-identity", ok, "exp of the group law != product of exps")

    n_oracle = min(order, 6)
    agree = bch_product(n_oracle) == dynkin_bch(n_oracle)
    _step(out, "bch.oracle-agreement", agree, f"mismatch at order {n_oracle}")

    S = bch_product(min(order, 6))
    ok = all(is_lie_slice(S, n) for n in range(2, min(order, 6) + 1))
    _step(out, "bch.lie-slices", ok, "a degree slice fails the bracketing test")
    return out


def suite_hahn(order: int, trials: int, rng: random.Random) -> list[StepResult]:
    out: list[StepResult] = []
    bound = min(order, 8)
    ctxs = [MonoidCtx.lex(1), MonoidCtx.product(2), MonoidCtx.weighted(1, 2)]
    ok, detail = True, ""
    for ctx in ctxs:
        one = HahnPoly.one(ctx, bound)
        for _ in range(trials):
            a = samples.random_hahn(rng, ctx, bound)
            b = samples.random_hahn(rng, ctx, bound)
            c = samples.random_hahn(rng, ctx, bound)
            if (a * b) * c != a * (b * c) or a * b != b * a or a * one != a:
                ok, detail = False, f"algebra law failed over {ctx.kind}"
                break
            if not set((a * b).terms) <= {
                vec_add(p, q) for p in a.terms for q in b.terms
            }:
                ok, detail = False, "support containment failed"
                break
    _step(out, "hahn.mul-laws", ok, detail)

    ok, detail = True, ""
    for ctx in ctxs:
        for _ in range(trials):
            u = samples.random_hahn(rng, ctx, bound)
            v = samples.random_hahn(rng, ctx, bound)
            w = samples.random_hahn(rng, ctx, bound)
            if not u.is_zero() and hp_prec(u, u) is not None:
                ok, detail = False, "dominance is not irreflexive"
            if (
                hp_prec(u, v) is not None
                and hp_prec(v, w) is not None
                and hp_prec(u, w) is None
            ):
                ok, detail = False, "dominance is not transitive"
            if (
                hp_prec(u, w) is not None
                and hp_prec(v, w) is not None
                and hp_prec(u + v, w) is None
            ):
                ok, detail = False, "dominance not additive under a common bound"
    _step(out, "hahn.dominance-order", ok, detail)

    ok, detail = True, ""
    ctx = MonoidCtx.lex(1)
    for _ in range(trials):
        fam = [samples.random_hahn(rng, ctx, bound) for _ in range(4)]
        total = HahnPoly.zero(ctx, bound)
        for a in fam:
            total = total + a
        perm = list(fam)
        rng.shuffle(perm)
        regrouped = (perm[0] + perm[1]) + (perm[2] + perm[3])
        if regrouped != total:
            ok, detail = False, "finite sums depend on order or grouping"
            break
    _step(out, "hahn.finite-sum-reindexing", ok, detail)
    return out


def suite_order(order: int, trials: int, rng: random.Random) -> list[StepResult]:
    out: list[StepResult] = []
    del order
    ctxs = [MonoidCtx.lex(2), MonoidCtx.product(2), MonoidCtx.weighted(1, 2)]
    ok, detail = True, ""
    for ctx in ctxs:
        for _ in range(trials):
            a = tuple(rng.randint(0, 4) for _ in range(ctx.dim))
            b = tuple(rng.randint(0, 4) for _ in range(ctx.dim))
            h = tuple(rng.randint(0, 3) for _ in range(ctx.dim))
            if ctx.cmp(a, b) is Cmp.LESS and ctx.cmp(vec_add(a, h), vec_add(b, h)) is not Cmp.LESS:
                ok, detail = False, f"translation invariance failed at {a},{b},{h}"
    _step(out, "order.translation-invariance", ok, detail)

    ctx = MonoidCtx.product(2)
    ok, detail = True, ""
    for _ in range(trials):
        A = {tuple(rng.randint(0, 3) for _ in range(2)) for _ in range(5)}
        B = {tuple(rng.randint(0, 3) for _ in range(2)) for _ in range(5)}
        union_min = minimal_elements(FinitePosetFragment.of(ctx, A | B))
        parts = minimal_elements(FinitePosetFragment.of(ctx, A)) | minimal_elements(
            FinitePosetFragment.of(ctx, B)
        )
        if not union_min <= parts:
            ok, detail = False, "union minimality inclusion failed"
        sums = {vec_add(a, b) for a in A for b in B}
        if A and B and not minimal_elements(FinitePosetFragment.of(ctx, sums)):
            ok, detail = False, "sum fragment has no minimal element"
    _step(out, "order.minimal-elements", ok, detail)

    ok, detail = True, ""
    for _ in range(trials):
        A = {tuple(rng.randint(0, 3) for _ in range(2)) for _ in range(4)}
        B = {tuple(rng.randint(0, 3) for _ in range(2)) for _ in range(4)}
        m = tuple(rng.randint(0, 6) for _ in range(2))
        brute = sorted(
            (a, b) for a in sorted(A) for b in sorted(B) if vec_add(a, b) == m
        )
        if sorted(convolution_pairs(ctx, m, A, B)) != brute:
            ok, detail = False, f"convolution pairs differ from brute force at {m}"
    _step(out, "order.convolution-pairs", ok, detail)

    ok, detail = True, ""
    for _ in range(trials):
        frag = [tuple(rng.randint(0, 2) for _ in range(2)) for _ in range(3)]
        seq = [rng.choice(frag) for _ in range(len(set(frag)) + 1)]
        if find_good_pair(ctx, seq) is None:
            ok, detail = False, f"over-length sequence {seq} reported bad"
    bad = [(k, 4 - k) for k in range(5)]
    if find_good_pair(ctx, bad) is not None:
        ok, detail = False, "antichain enumeration not recognized as bad"
    _step(out, "order.good-pairs", ok, detail)
    return out


def suite_operator(order: int, trials: int, rng: random.Random) -> list[StepResult]:
    out: list[StepResult] = []
    bound = min(order, 6)
    ctx = MonoidCtx.lex(1)

    ok, detail = True, ""
    for _ in range(trials):
        t = samples.random_contracting_table(rng, ctx, bound)
        a = samples.random_hahn(rng, ctx, bound)
        b = samples.random_hahn(rng, ctx, bound)
        if op_apply(t, a + b) != op_apply(t, a) + op_apply(t, b):
            ok, detail = False, "additivity failed"
        if op_apply(t, a.scale(Fraction(3, 2))) != op_apply(t, a).scale(Fraction(3, 2)):
            ok, detail = False, "homogeneity failed"
    _step(out, "operator.strong-linearity-shadow", ok, detail)

    ok, detail = True, ""
    ident = OpTable.identity(ctx, bound)
    for _ in range(trials):
        f = samples.random_contracting_table(rng, ctx, bound)
        g = samples.random_contracting_table(rng, ctx, bound)
        if not op_is_contracting(op_compose(f, g)):
            ok, detail = False, "composition left the contracting cone"
        if not op_is_contracting(f + g):
            ok, detail = False, "sum left the contracting cone"
        mixed = ident.scale(samples.nonzero_fraction(rng)) + g
        if not op_is_contracting(op_compose(f, mixed)) or not op_is_contracting(
            op_compose(mixed, f)
        ):
            ok, detail = False, "ideal property failed"
    _step(out, "operator.contracting-closure", ok, detail)

    ok, detail = True, ""
    for _ in range(trials):
        a = samples.random_hahn(rng, ctx, bound)
        b = samples.random_hahn(rng, ctx, bound)
        if op_apply(multiplication_table(a), b) != a * b:
            ok, detail = False, "multiplication table disagrees with the product"
    _step(out, "operator.multiplication-tables", ok, detail)

    ok, detail = True, ""
    for _ in range(trials):
        P = samples.random_free_series(rng, 2, bound)
        Q = samples.random_free_series(rng, 2, bound)
        f = (
            samples.random_contracting_table(rng, ctx, bound),
            samples.random_contracting_table(rng, ctx, bound),
        )
        if op_evaluate(P * Q, f) != op_compose(op_evaluate(P, f), op_evaluate(Q, f)):
            ok, detail = False, "evaluation is not multiplicative"
        if op_evaluate(P + Q, f) != op_evaluate(P, f) + op_evaluate(Q, f):
            ok, detail = False, "evaluation is not additive"
    _step(out, "operator.evaluation-morphism", ok, detail)

    ok, detail = True, ""
    for _ in range(trials):
        P = samples.random_free_series(rng, 2, bound)
        Qs = {
            i: samples.random_free_series(rng, 2, bound, constant=Fraction(0))
            for i in range(2)
        }
        f = (
            samples.random_contracting_table(rng, ctx, bound),
            samples.random_contracting_table(rng, ctx, bound),
        )
        lhs = op_evaluate(fs_substitute(P, Qs), f)
        rhs = op_evaluate(P, tuple(op_evaluate(Qs[i], f) for i in range(2)))
        if lhs != rhs:
            ok, detail = False, "evaluation associativity failed"
    _step(out, "operator.evaluation-associativity", ok, detail)

    ok, detail = True, ""
    geom = FreeSeries(
        1, bound, {(0,) * n: Fraction((-1) ** n) for n in range(bound + 1)}
    )
    for _ in range(trials):
        eps = samples.random_contracting_table(rng, ctx, bound)
        inv = op_evaluate(geom, (eps,))
        if op_compose(inv, ident + eps) != ident or op_compose(ident + eps, inv) != ident:
            ok, detail = False, "geometric series does not invert Id + eps"
        if op_geometric_inverse(ident + eps) != inv:
            ok, detail = False, "direct inverse disagrees with the series route"
    _step(out, "operator.local-algebra-shadow", ok, detail)
    return out


def suite_correspondence(order: int, trials: int, rng: random.Random) -> list[StepResult]:
    out: list[StepResult] = []
    bound = min(order, 6)
    ctx = MonoidCtx.lex(1)
    ident = OpTable.identity(ctx, bound)

    ok, detail = True, ""
    for _ in range(trials):
        d = samples.random_contracting_derivation(rng, ctx, bound)
        s = op_exp(d)
        if op_exp_via_series(d) != s:
            ok, detail = False, "the two exponential routes disagree"
        if not op_is_unital_endomorphism(s):
            ok, detail = False, "exponential is not an endomorphism"
        if op_log(s) != d:
            ok, detail = False, "log(exp d) != d"
        if op_log_via_series(s) != d:
            ok, detail = False, "the two logarithm routes disagree"
    _step(out, "correspondence.exp-endomorphism-roundtrip", ok, detail)

    ok, detail = True, ""
    for _ in range(trials):
        s = samples.random_substitution_automorphism(rng, ctx, bound)
        d = op_log(s)
        if not op_is_derivation(d):
            ok, detail = False, "log of an automorphism is not a derivation"
        if op_exp(d) != s:
            ok, detail = False, "exp(log s) != s"
    _step(out, "correspondence.log-derivation-roundtrip", ok, detail)

    ok, detail = True, ""
    law = bch_product(bound)
    for _ in range(trials):
        d1 = samples.random_contracting_derivation(rng, ctx, bound)
        d2 = samples.random_contracting_derivation(rng, ctx, bound)
        if star(d1, d2) != op_evaluate(law, (d1, d2)):
            ok, detail = False, "star disagrees with the BCH series evaluation"
    _step(out, "correspondence.group-law", ok, detail)

    ok, detail = True, ""
    for _ in range(max(1, trials // 4)):
        d = samples.random_contracting_derivation(rng, ctx, bound)
        s = op_exp(d)
        if fractional_iterate(s, Fraction(1)) != s:
            ok, detail = False, "iterate at 1 is not the map itself"
        half = fractional_iterate(s, Fraction(1, 2))
        if op_compose(half, half) != s:
            ok, detail = False, "half iterate does not square back"
        if s != ident:
            power = s
            for _ in range(4):
                power = op_compose(power, s)
                if power == ident:
                    ok, detail = False, "nontrivial automorphism has finite order"
            c1, c2 = Fraction(1, 3), Fraction(2, 5)
            if fractional_iterate(s, c1) == fractional_iterate(s, c2):
                ok, detail = False, "distinct exponents give the same iterate"
    _step(out, "correspondence.divisibility-torsion", ok, detail)

    ok, detail = True, ""
    for _ in range(max(1, trials // 4)):
        eps = samples.random_contracting_table(rng, ctx, bound)
        rho = ident + eps
        phi = conjugation_morphism(rho)
        d1 = samples.random_contracting_derivation(rng, ctx, bound)
        d2 = samples.random_contracting_derivation(rng, ctx, bound)
        if not lie_morphism_defect(phi, d1, d2).is_zero():
            ok, detail = False, "conjugation is not a Lie morphism"
        s1, t1 = push_morphism(phi, d1)
        s2, t2 = push_morphism(phi, d2)
        if op_exp(phi(op_log(op_compose(s1, s2)))) != op_compose(t1, t2):
            ok, detail = False, "pushed morphism is not multiplicative"
        doubling = lambda d: d.scale(2)
        if lie_morphism_defect(doubling, d1, d2).is_zero() and not (
            op_compose(d1, d2) == op_compose(d2, d1)
        ):
            ok, detail = False, "scalar doubling passed the Lie morphism test"
    _step(out, "correspondence.lie-morphism-transport", ok, detail)
    return out


def suite_vaut(order: int, trials: int, rng: random.Random) -> list[StepResult]:
    out: list[StepResult] = []
    bound = min(order, 6)
    ctx1 = MonoidCtx.lex(1)
    ctx2 = MonoidCtx.product(2)
    swap = ExponentAut(ctx2, ((0, 1), (1, 0)))

    ok, detail = True, ""
    for _ in range(trials):
        x = samples.random_character(rng, ctx1)
        y = samples.random_character(rng, ctx1)
        a = samples.random_hahn(rng, ctx1, bound)
        if apply_gexp(x, apply_gexp(y, a)) != apply_gexp(x * y, a):
            ok, detail = False, "character composition failed"
        al = samples.random_additive_char(rng, ctx1)
        be = samples.random_additive_char(rng, ctx1)
        if apply_gder(al, a) + apply_gder(be, a) != apply_gder(al + be, a):
            ok, detail = False, "diagonal derivations do not add"
        if not al.is_zero() and op_is_contracting(gder_table(al, bound)):
            ok, detail = False, "diagonal derivation reported contracting"
        if not op_is_derivation(gder_table(al, bound)):
            ok, detail = False, "diagonal derivation fails the Leibniz rule"
    _step(out, "vaut.factor-group-laws", ok, detail)

    ok, detail = True, ""
    for _ in range(max(1, trials // 2)):
        res = op_exp(samples.random_contracting_derivation(rng, ctx2, bound))
        conj = op_compose(
            op_compose(oaut_table(swap, bound), res), oaut_table(swap.inverse(), bound)
        )
        if not one_aut_check(conj):
            ok, detail = False, "relabeling conjugation left the near-identity group"
        x = samples.random_character(rng, ctx2)
        t = gexp_table(x, bound)
        tinv = gexp_table(x.inverse(), bound)
        if not one_aut_check(op_compose(op_compose(t, res), tinv)):
            ok, detail = False, "character conjugation left the near-identity group"
    _step(out, "vaut.semidirect-conjugation", ok, detail)

    ok, detail = True, ""
    for i in range(trials):
        ctx = ctx1 if i % 2 == 0 else ctx2
        mu = ExponentAut.identity(ctx) if ctx is ctx1 or i % 4 < 2 else swap
        chi = samples.random_character(rng, ctx)
        residual = op_exp(samples.random_contracting_derivation(rng, ctx, bound))
        sigma = compose_factors(FactorAut(mu, chi, residual))
        split = decompose_vaut(sigma)
        if compose_factors(split) != sigma:
            ok, detail = False, "decomposition roundtrip failed"
        if split.mu.matrix != mu.matrix:
            ok, detail = False, "exponent factor not recovered"
    _step(out, "vaut.decompose-roundtrip", ok, detail)

    ok, detail = True, ""
    for _ in range(trials):
        al = samples.random_additive_char(rng, ctx1)
        try:
            x = middle_correspond(al, mode="taylor", order=bound)
        except Exception:
            continue  # truncated exponential may vanish for negative values
        if x.values[0] != _taylor_exp(al.values[0], bound):
            ok, detail = False, "taylor character disagrees with the scalar sum"
        dtab = gder_table(al, bound)
        xtab = gexp_table(x, bound)
        if op_compose(dtab, xtab) != op_compose(xtab, dtab):
            ok, detail = False, "diagonal factors do not commute"
    _step(out, "vaut.middle-correspondence", ok, detail)
    return out


def _taylor_exp(v: Fraction, order: int) -> Fraction:
    acc, term = Fraction(0), Fraction(1)
    for n in range(order + 1):
        if n:
            term = term * v / n
        acc += term
    return acc


_SUITE_FUNCS = {
    "free": suite_free,
    "bch": suite_bch,
    "hahn": suite_hahn,
    "order": suite_order,
    "operator": suite_operator,
    "correspondence": suite_correspondence,
    "vaut": suite_vaut,
}


def run_suite(name: str, order: int, trials: int, seed: int) -> list[StepResult]:
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; pick one of {', '.join(SUITES)}")
    rng = random.Random(seed)
    if name == "all":
        results = []
        for key in SUITES[:-1]:
            results.extend(_SUITE_FUNCS[key](order, trials, rng))
        return results
    return _SUITE_FUNCS[name](order, trials, rng)
