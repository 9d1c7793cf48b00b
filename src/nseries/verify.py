"""Randomized and exhaustive invariant suites behind `nseries verify`.

Each suite yields its named step outcomes; a step either passes or
carries the description of its first counterexample, and records the bound it
ran at.  All randomness flows through a single seeded generator, so a (seed,
order, trials) triple pins the output.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

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
from .errors import InconsistentExponentialError
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


@dataclass(frozen=True)
class StepResult:
    name: str
    passed: bool
    detail: str = ""
    bound: int | None = None


def _check(name: str, bound: int | None, runs: int, trial) -> StepResult:
    """Step `name`, run at `bound`: `trial(i)` for i in range(runs) yields
    (passed, detail) pairs, and the first pair that did not pass ends the step."""
    for i in range(runs):
        for passed, detail in trial(i):
            if not passed:
                return StepResult(name, False, detail, bound)
    return StepResult(name, True, "", bound)


# -- suites -------------------------------------------------------------------

def suite_free(order: int, trials: int, rng: random.Random) -> Iterator[StepResult]:
    grade = min(order, 6)

    def trial(_):
        P = samples.random_free_series(rng, 2, grade)
        Q = samples.random_free_series(rng, 2, grade)
        R = samples.random_free_series(rng, 2, grade)
        yield (P * Q) * R == P * (Q * R), "associativity failed"
        distributive = (P + Q) * R == P * R + Q * R and P * (Q + R) == P * Q + P * R
        yield distributive, "distributivity failed"
    yield _check("free.mul-associative-distributive", grade, trials, trial)

    def trial(_):
        P = samples.random_free_series(rng, 2, grade)
        Q = samples.random_free_series(rng, 2, grade)
        prod = P * Q
        for n in range(grade + 1):
            for w in prod.support_slice(n):
                yield any(
                    beta in P.support_slice(len(beta))
                    and gamma in Q.support_slice(len(gamma))
                    for beta, gamma in factorizations(w)
                ), f"support word {w} has no factorization"
    yield _check("free.support-bound", grade, trials, trial)

    one = FreeSeries.one(2, grade)

    def trial(_):
        P = samples.random_free_series(rng, 2, grade, constant=samples.nonzero_fraction(rng))
        inv = P.geometric_inverse()
        yield P * inv == one and inv * P == one, "inverse roundtrip failed"
    yield _check("free.geometric-inverse-roundtrip", grade, trials, trial)

    def trial(_):
        P = samples.random_free_series(rng, 2, grade, constant=Fraction(0))
        Q = samples.random_free_series(rng, 2, grade, constant=Fraction(0))
        prod = P * Q
        closed = prod.constant_term == 0 and not prod.support_slice(min(1, grade))
        yield closed, "augmentation ideal not closed"
    yield _check("free.augmentation-ideal-closure", grade, trials, trial)


def suite_bch(order: int, trials: int, rng: random.Random) -> Iterator[StepResult]:
    del trials, rng
    n_inversion = min(order, 10)

    def trial(_):
        for n in range(1, n_inversion + 1):
            E, L = series_E0(n), series_L0(n)
            one, x = FreeSeries.one(1, n), FreeSeries.variable(0, 1, n)
            yield fs_substitute(E, {0: L}) == one + x, "substitution identity failed"
            yield fs_substitute(L, {0: E - one}) == x, "substitution identity failed"
    yield _check("bch.exp-log-inversion", n_inversion, 1, trial)

    n_ident = min(order, 8)
    law = bch_product(n_ident)  # every order below is a truncation of this one
    laws = [FreeSeries(2, n, {w: c for w, c in law.terms.items() if len(w) <= n})
            for n in range(n_ident + 1)]

    def trial(_):
        for n in range(1, n_ident + 1):
            lhs = fs_substitute(series_E0(n), {0: laws[n]})
            x0 = FreeSeries.variable(0, 2, n)
            x1 = FreeSeries.variable(1, 2, n)
            rhs = fs_substitute(series_E0(n), {0: x0}) * fs_substitute(series_E0(n), {0: x1})
            yield lhs == rhs, "exp of the group law != product of exps"
    yield _check("bch.exponential-identity", n_ident, 1, trial)

    n_oracle = min(order, 6)

    def trial(_):
        yield laws[n_oracle] == dynkin_bch(n_oracle), f"mismatch at order {n_oracle}"
    yield _check("bch.oracle-agreement", n_oracle, 1, trial)

    def trial(_):
        S = laws[n_oracle]
        for n in range(2, n_oracle + 1):
            yield is_lie_slice(S, n), "a degree slice fails the bracketing test"
    yield _check("bch.lie-slices", n_oracle, 1, trial)


def suite_hahn(order: int, trials: int, rng: random.Random) -> Iterator[StepResult]:
    bound = min(order, 8)
    ctxs = [MonoidCtx.lex(1), MonoidCtx.product(2), MonoidCtx.weighted(1, 2)]

    def trial(i):
        ctx = ctxs[i // trials]
        a = samples.random_hahn(rng, ctx, bound)
        b = samples.random_hahn(rng, ctx, bound)
        c = samples.random_hahn(rng, ctx, bound)
        laws = (a * b) * c == a * (b * c) and a * b == b * a and a * HahnPoly.one(ctx, bound) == a
        yield laws, f"algebra law failed over {ctx.kind}"
        sums = {vec_add(p, q) for p in a.terms for q in b.terms}
        yield set((a * b).terms) <= sums, "support containment failed"
    yield _check("hahn.mul-laws", bound, len(ctxs) * trials, trial)

    def trial(i):
        ctx = ctxs[i // trials]
        u = samples.random_hahn(rng, ctx, bound)
        v = samples.random_hahn(rng, ctx, bound)
        w = samples.random_hahn(rng, ctx, bound)
        yield u.is_zero() or hp_prec(u, u) is None, "dominance is not irreflexive"
        transitive = hp_prec(u, v) is None or hp_prec(v, w) is None or hp_prec(u, w) is not None
        yield transitive, "dominance is not transitive"
        additive = hp_prec(u, w) is None or hp_prec(v, w) is None or hp_prec(u + v, w) is not None
        yield additive, "dominance not additive under a common bound"
    yield _check("hahn.dominance-order", bound, len(ctxs) * trials, trial)

    def trial(_):
        ctx = MonoidCtx.lex(1)
        fam = [samples.random_hahn(rng, ctx, bound) for _ in range(4)]
        total = HahnPoly.zero(ctx, bound)
        for a in fam:
            total = total + a
        perm = list(fam)
        rng.shuffle(perm)
        regrouped = (perm[0] + perm[1]) + (perm[2] + perm[3])
        yield regrouped == total, "finite sums depend on order or grouping"
    yield _check("hahn.finite-sum-reindexing", bound, trials, trial)


def suite_order(order: int, trials: int, rng: random.Random) -> Iterator[StepResult]:
    del order
    ctxs = [MonoidCtx.lex(2), MonoidCtx.product(2), MonoidCtx.weighted(1, 2)]

    def trial(i):
        ctx = ctxs[i // trials]
        a = tuple(rng.randint(0, 4) for _ in range(ctx.dim))
        b = tuple(rng.randint(0, 4) for _ in range(ctx.dim))
        h = tuple(rng.randint(0, 3) for _ in range(ctx.dim))
        less = ctx.cmp(a, b) is Cmp.LESS
        invariant = not less or ctx.cmp(vec_add(a, h), vec_add(b, h)) is Cmp.LESS
        yield invariant, f"translation invariance failed at {a},{b},{h}"
    yield _check("order.translation-invariance", None, len(ctxs) * trials, trial)

    ctx = MonoidCtx.product(2)

    def trial(_):
        A = {tuple(rng.randint(0, 3) for _ in range(2)) for _ in range(5)}
        B = {tuple(rng.randint(0, 3) for _ in range(2)) for _ in range(5)}
        union_min = minimal_elements(FinitePosetFragment.of(ctx, A | B))
        parts = minimal_elements(FinitePosetFragment.of(ctx, A)) | minimal_elements(
            FinitePosetFragment.of(ctx, B)
        )
        yield union_min <= parts, "union minimality inclusion failed"
        sums = {vec_add(a, b) for a in A for b in B}
        has_min = not (A and B) or minimal_elements(FinitePosetFragment.of(ctx, sums))
        yield has_min, "sum fragment has no minimal element"
    yield _check("order.minimal-elements", None, trials, trial)

    def trial(_):
        A = {tuple(rng.randint(0, 3) for _ in range(2)) for _ in range(4)}
        B = {tuple(rng.randint(0, 3) for _ in range(2)) for _ in range(4)}
        m = tuple(rng.randint(0, 6) for _ in range(2))
        brute = sorted(
            (a, b) for a in sorted(A) for b in sorted(B) if vec_add(a, b) == m
        )
        found = sorted(convolution_pairs(ctx, m, A, B))
        yield found == brute, f"convolution pairs differ from brute force at {m}"
    yield _check("order.convolution-pairs", None, trials, trial)

    def trial(i):
        frag = [tuple(rng.randint(0, 2) for _ in range(2)) for _ in range(3)]
        seq = [rng.choice(frag) for _ in range(len(set(frag)) + 1)]
        yield find_good_pair(ctx, seq) is not None, f"over-length sequence {seq} reported bad"
        if i == trials - 1:
            bad = [(k, 4 - k) for k in range(5)]
            yield find_good_pair(ctx, bad) is None, "antichain enumeration not recognized as bad"
    yield _check("order.good-pairs", None, trials, trial)


def suite_operator(order: int, trials: int, rng: random.Random) -> Iterator[StepResult]:
    bound = min(order, 6)
    ctx = MonoidCtx.lex(1)

    def trial(_):
        t = samples.random_contracting_table(rng, ctx, bound)
        a = samples.random_hahn(rng, ctx, bound)
        b = samples.random_hahn(rng, ctx, bound)
        yield op_apply(t, a + b) == op_apply(t, a) + op_apply(t, b), "additivity failed"
        c = Fraction(3, 2)
        yield op_apply(t, a.scale(c)) == op_apply(t, a).scale(c), "homogeneity failed"
    yield _check("operator.strong-linearity-shadow", bound, trials, trial)

    ident = OpTable.identity(ctx, bound)

    def trial(_):
        f = samples.random_contracting_table(rng, ctx, bound)
        g = samples.random_contracting_table(rng, ctx, bound)
        yield op_is_contracting(op_compose(f, g)), "composition left the contracting cone"
        yield op_is_contracting(f + g), "sum left the contracting cone"
        mixed = ident.scale(samples.nonzero_fraction(rng)) + g
        ideal = op_is_contracting(op_compose(f, mixed)) and op_is_contracting(op_compose(mixed, f))
        yield ideal, "ideal property failed"
    yield _check("operator.contracting-closure", bound, trials, trial)

    def trial(_):
        a = samples.random_hahn(rng, ctx, bound)
        b = samples.random_hahn(rng, ctx, bound)
        by_table = op_apply(multiplication_table(a), b)
        yield by_table == a * b, "multiplication table disagrees with the product"
    yield _check("operator.multiplication-tables", bound, trials, trial)

    def trial(_):
        P = samples.random_free_series(rng, 2, bound)
        Q = samples.random_free_series(rng, 2, bound)
        f = (
            samples.random_contracting_table(rng, ctx, bound),
            samples.random_contracting_table(rng, ctx, bound),
        )
        at_P, at_Q = op_evaluate(P, f), op_evaluate(Q, f)
        yield op_evaluate(P * Q, f) == op_compose(at_P, at_Q), "evaluation is not multiplicative"
        yield op_evaluate(P + Q, f) == at_P + at_Q, "evaluation is not additive"
    yield _check("operator.evaluation-morphism", bound, trials, trial)

    def trial(_):
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
        yield lhs == rhs, "evaluation associativity failed"
    yield _check("operator.evaluation-associativity", bound, trials, trial)

    geom = FreeSeries(
        1, bound, {(0,) * n: Fraction((-1) ** n) for n in range(bound + 1)}
    )

    def trial(_):
        eps = samples.random_contracting_table(rng, ctx, bound)
        inv = op_evaluate(geom, (eps,))
        inverts = op_compose(inv, ident + eps) == ident and op_compose(ident + eps, inv) == ident
        yield inverts, "geometric series does not invert Id + eps"
        direct = op_geometric_inverse(ident + eps)
        yield direct == inv, "direct inverse disagrees with the series route"
    yield _check("operator.local-algebra-shadow", bound, trials, trial)


def suite_correspondence(order: int, trials: int, rng: random.Random) -> Iterator[StepResult]:
    bound = min(order, 6)
    ctx = MonoidCtx.lex(1)
    ident = OpTable.identity(ctx, bound)

    def trial(_):
        d = samples.random_contracting_derivation(rng, ctx, bound)
        s = op_exp(d)
        yield op_exp_via_series(d) == s, "the two exponential routes disagree"
        yield op_is_unital_endomorphism(s), "exponential is not an endomorphism"
        yield op_log(s) == d, "log(exp d) != d"
        yield op_log_via_series(s) == d, "the two logarithm routes disagree"
    yield _check("correspondence.exp-endomorphism-roundtrip", bound, trials, trial)

    def trial(_):
        s = samples.random_substitution_automorphism(rng, ctx, bound)
        d = op_log(s)
        yield op_is_derivation(d), "log of an automorphism is not a derivation"
        yield op_exp(d) == s, "exp(log s) != s"
    yield _check("correspondence.log-derivation-roundtrip", bound, trials, trial)

    law = bch_product(bound)

    def trial(_):
        d1 = samples.random_contracting_derivation(rng, ctx, bound)
        d2 = samples.random_contracting_derivation(rng, ctx, bound)
        by_series = op_evaluate(law, (d1, d2))
        yield star(d1, d2) == by_series, "star disagrees with the BCH series evaluation"
    yield _check("correspondence.group-law", bound, trials, trial)

    def trial(_):
        d = samples.random_contracting_derivation(rng, ctx, bound)
        s = op_exp(d)
        yield fractional_iterate(s, Fraction(1)) == s, "iterate at 1 is not the map itself"
        half = fractional_iterate(s, Fraction(1, 2))
        yield op_compose(half, half) == s, "half iterate does not square back"
        if s != ident:
            power = s
            for _ in range(4):
                power = op_compose(power, s)
                yield power != ident, "nontrivial automorphism has finite order"
            iterates = [fractional_iterate(s, Fraction(c)) for c in ("1/3", "2/5")]
            yield iterates[0] != iterates[1], "distinct exponents give the same iterate"
    yield _check("correspondence.divisibility-torsion", bound, max(1, trials // 4), trial)

    def trial(_):
        eps = samples.random_contracting_table(rng, ctx, bound)
        rho = ident + eps
        phi = conjugation_morphism(rho)
        d1 = samples.random_contracting_derivation(rng, ctx, bound)
        d2 = samples.random_contracting_derivation(rng, ctx, bound)
        yield lie_morphism_defect(phi, d1, d2).is_zero(), "conjugation is not a Lie morphism"
        s1, t1 = push_morphism(phi, d1)
        s2, t2 = push_morphism(phi, d2)
        pushed = op_exp(phi(op_log(op_compose(s1, s2))))
        yield pushed == op_compose(t1, t2), "pushed morphism is not multiplicative"
        doubling = lambda d: d.scale(2)
        yield not lie_morphism_defect(doubling, d1, d2).is_zero() or (
            op_compose(d1, d2) == op_compose(d2, d1)
        ), "scalar doubling passed the Lie morphism test"
    yield _check("correspondence.lie-morphism-transport", bound, max(1, trials // 4), trial)


def suite_vaut(order: int, trials: int, rng: random.Random) -> Iterator[StepResult]:
    bound = min(order, 6)
    ctx1 = MonoidCtx.lex(1)
    ctx2 = MonoidCtx.product(2)
    swap = ExponentAut(ctx2, ((0, 1), (1, 0)))

    def trial(_):
        x = samples.random_character(rng, ctx1)
        y = samples.random_character(rng, ctx1)
        a = samples.random_hahn(rng, ctx1, bound)
        composed = apply_gexp(x, apply_gexp(y, a))
        yield composed == apply_gexp(x * y, a), "character composition failed"
        al = samples.random_additive_char(rng, ctx1)
        be = samples.random_additive_char(rng, ctx1)
        summed = apply_gder(al, a) + apply_gder(be, a)
        yield summed == apply_gder(al + be, a), "diagonal derivations do not add"
        d = gder_table(al, bound)
        yield al.is_zero() or not op_is_contracting(d), "diagonal derivation reported contracting"
        yield op_is_derivation(d), "diagonal derivation fails the Leibniz rule"
    yield _check("vaut.factor-group-laws", bound, trials, trial)

    def trial(_):
        res = op_exp(samples.random_contracting_derivation(rng, ctx2, bound))
        conj = op_compose(
            op_compose(oaut_table(swap, bound), res), oaut_table(swap.inverse(), bound)
        )
        yield one_aut_check(conj), "relabeling conjugation left the near-identity group"
        x = samples.random_character(rng, ctx2)
        t = gexp_table(x, bound)
        rescaled = op_compose(op_compose(t, res), gexp_table(x.inverse(), bound))
        yield one_aut_check(rescaled), "character conjugation left the near-identity group"
    yield _check("vaut.semidirect-conjugation", bound, max(1, trials // 2), trial)

    def trial(i):
        ctx = ctx1 if i % 2 == 0 else ctx2
        mu = ExponentAut.identity(ctx) if ctx is ctx1 or i % 4 < 2 else swap
        chi = samples.random_character(rng, ctx)
        residual = op_exp(samples.random_contracting_derivation(rng, ctx, bound))
        sigma = compose_factors(FactorAut(mu, chi, residual))
        split = decompose_vaut(sigma)
        yield compose_factors(split) == sigma, "decomposition roundtrip failed"
        yield split.mu.matrix == mu.matrix, "exponent factor not recovered"
    yield _check("vaut.decompose-roundtrip", bound, trials, trial)

    def trial(_):
        al = samples.random_additive_char(rng, ctx1)
        v = al.values[0]
        e = Fraction(1) if v == 0 else samples.nonzero_fraction(rng)
        x = middle_correspond(al, {v: e})
        yield x.values == (e,), "character does not take the declared exponential value"
        try:
            middle_correspond(al, {v: e, 2 * v: e * e + 1})
        except InconsistentExponentialError:
            pass
        else:
            yield False, f"declaration e({v}) = {e}, e({2 * v}) = {e * e + 1} was accepted"
        dtab = gder_table(al, bound)
        xtab = gexp_table(x, bound)
        yield op_compose(dtab, xtab) == op_compose(xtab, dtab), "diagonal factors do not commute"
    yield _check("vaut.middle-correspondence", bound, trials, trial)


_SUITE_FUNCS = {
    "free": suite_free,
    "bch": suite_bch,
    "hahn": suite_hahn,
    "order": suite_order,
    "operator": suite_operator,
    "correspondence": suite_correspondence,
    "vaut": suite_vaut,
}


SUITES = (*_SUITE_FUNCS, "all")


def run_suite(name: str, order: int, trials: int, seed: int) -> list[StepResult]:
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; pick one of {', '.join(SUITES)}")
    if trials < 1 or order < 1:
        raise ValueError(f"trials and order must be at least 1, got {trials} and {order}")
    rng = random.Random(seed)
    keys = _SUITE_FUNCS if name == "all" else (name,)
    return [r for key in keys for r in _SUITE_FUNCS[key](order, trials, rng)]
