"""Randomized and exhaustive invariant steps behind `nseries verify`.

`STEPS` is the one table of steps, in run order.  A row gives a step's name,
whose part before the dot names its suite, then its cap, its contexts, its
run divisor `per` and its trial:

- the step runs at bound min(--order, cap); the cap `_UNCAPPED` never binds,
  and a cap of None runs the step at no bound (the order suite);
- it runs max(1, --trials // per) times per context, or once when `per` is
  None, and run i reads contexts[i // runs]; `_NO_CTX` is one context, None,
  for the steps that take none from the table;
- `trial(run, ctx, bound, i)` yields (passed, detail) pairs, and `_check` ends
  the step at the first pair that did not pass.

A step either passes or carries the description of its first counterexample,
and records the bound it ran at.  `run` is the `_Run` of one `run_suite`
call.  All randomness flows through its single seeded generator, so a (seed,
order, trials) triple pins the output.  Values that several steps read, the
BCH law (which `correspondence.group-law` reads whole and the bch steps read
cut), the identity table, the geometric series and the swap `ExponentAut`,
go through its memo `run.shared`: each is built on its first use in the call
and dropped when the call returns.
"""

from __future__ import annotations

import math
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
    series_binomial,
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
from .errors import InconsistentExponentialError, NSeriesError
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
    pullback_morphism,
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


class _Run:
    """One `run_suite` call: its seeded generator, --order and --trials, and the
    values its steps share, each built on its first use and dropped with the run."""

    def __init__(self, order: int, trials: int, seed: int):
        self.order, self.trials = order, trials
        self.rng = random.Random(seed)
        self._memo = {}

    def shared(self, build, *args):
        """`build(*args)`, built once per run."""
        key = (build, *args)
        if key not in self._memo:
            self._memo[key] = build(*args)
        return self._memo[key]


_LEX1, _LEX2 = MonoidCtx.lex(1), MonoidCtx.lex(2)
_PROD2, _WEIGHTED = MonoidCtx.product(2), MonoidCtx.weighted(1, 2)
_NO_CTX, _UNCAPPED, _SWAP = (None,), math.inf, ((0, 1), (1, 0))


# -- trials: trial(run, ctx, bound, i) yields (passed, detail) pairs ----------

def _free_mul_laws(run, ctx, grade, i):
    P = samples.random_free_series(run.rng, 2, grade)
    Q = samples.random_free_series(run.rng, 2, grade)
    R = samples.random_free_series(run.rng, 2, grade)
    yield (P * Q) * R == P * (Q * R), "associativity failed"
    distributive = (P + Q) * R == P * R + Q * R and P * (Q + R) == P * Q + P * R
    yield distributive, "distributivity failed"


def _free_support(run, ctx, grade, i):
    P = samples.random_free_series(run.rng, 2, grade)
    Q = samples.random_free_series(run.rng, 2, grade)
    prod = P * Q
    for n in range(grade + 1):
        for w in prod.support_slice(n):
            yield any(
                beta in P.support_slice(len(beta))
                and gamma in Q.support_slice(len(gamma))
                for beta, gamma in factorizations(w)
            ), f"support word {w} has no factorization"


def _free_inverse(run, ctx, grade, i):
    one = run.shared(FreeSeries.one, 2, grade)
    P = samples.random_free_series(run.rng, 2, grade, constant=samples.nonzero_fraction(run.rng))
    inv = P.geometric_inverse()
    yield P * inv == one and inv * P == one, "inverse roundtrip failed"


def _free_ideal(run, ctx, grade, i):
    P = samples.random_free_series(run.rng, 2, grade, constant=Fraction(0))
    Q = samples.random_free_series(run.rng, 2, grade, constant=Fraction(0))
    prod = P * Q
    closed = prod.constant_term == 0 and not prod.support_slice(min(1, grade))
    yield closed, "augmentation ideal not closed"


def _bch_laws(run, order):
    """`bch_product(order)` cut at each bound 0..order: every order below is a
    truncation of this one.  The law itself is the run's shared
    `bch_product(order)`, which `correspondence.group-law` also reads."""
    law = run.shared(bch_product, order)
    return [law.restrict(n) for n in range(order + 1)]


def _bch_inversion(run, ctx, order, i):
    for n in range(1, order + 1):
        E, L = series_E0(n), series_L0(n)
        one, x = FreeSeries.one(1, n), FreeSeries.variable(0, 1, n)
        yield fs_substitute(E, {0: L}) == one + x, "substitution identity failed"
        yield fs_substitute(L, {0: E - one}) == x, "substitution identity failed"


def _bch_exp_identity(run, ctx, order, i):
    laws = run.shared(_bch_laws, run, order)
    for n in range(1, order + 1):
        lhs = fs_substitute(series_E0(n), {0: laws[n]})
        x0 = FreeSeries.variable(0, 2, n)
        x1 = FreeSeries.variable(1, 2, n)
        rhs = fs_substitute(series_E0(n), {0: x0}) * fs_substitute(series_E0(n), {0: x1})
        yield lhs == rhs, "exp of the group law != product of exps"


def _bch_oracle(run, ctx, n_oracle, i):
    laws = run.shared(_bch_laws, run, run.order)
    yield laws[n_oracle] == dynkin_bch(n_oracle), f"mismatch at order {n_oracle}"


def _bch_lie_slices(run, ctx, n_oracle, i):
    S = run.shared(_bch_laws, run, run.order)[n_oracle]
    for n in range(2, n_oracle + 1):
        yield is_lie_slice(S, n), "a degree slice fails the bracketing test"


def _hahn_mul_laws(run, ctx, order, i):
    a = samples.random_hahn(run.rng, ctx, order)
    b = samples.random_hahn(run.rng, ctx, order)
    c = samples.random_hahn(run.rng, ctx, order)
    laws = (a * b) * c == a * (b * c) and a * b == b * a and a * HahnPoly.one(ctx, order) == a
    yield laws, f"algebra law failed over {ctx.kind}"
    sums = {vec_add(p, q) for p in a.keys() for q in b.keys()}
    yield set((a * b).keys()) <= sums, "support containment failed"


def _hahn_dominance(run, ctx, order, i):
    u = samples.random_hahn(run.rng, ctx, order)
    v = samples.random_hahn(run.rng, ctx, order)
    w = samples.random_hahn(run.rng, ctx, order)
    yield u.is_zero() or hp_prec(u, u) is None, "dominance is not irreflexive"
    transitive = hp_prec(u, v) is None or hp_prec(v, w) is None or hp_prec(u, w) is not None
    yield transitive, "dominance is not transitive"
    additive = hp_prec(u, w) is None or hp_prec(v, w) is None or hp_prec(u + v, w) is not None
    yield additive, "dominance not additive under a common bound"


def _hahn_reindexing(run, ctx, order, i):
    fam = [samples.random_hahn(run.rng, ctx, order) for _ in range(4)]
    total = HahnPoly.zero(ctx, order)
    for a in fam:
        total = total + a
    perm = list(fam)
    run.rng.shuffle(perm)
    regrouped = (perm[0] + perm[1]) + (perm[2] + perm[3])
    yield regrouped == total, "finite sums depend on order or grouping"


def _order_translation(run, ctx, bound, i):
    a = tuple(run.rng.randint(0, 4) for _ in range(ctx.dim))
    b = tuple(run.rng.randint(0, 4) for _ in range(ctx.dim))
    h = tuple(run.rng.randint(0, 3) for _ in range(ctx.dim))
    less = ctx.cmp(a, b) is Cmp.LESS
    invariant = not less or ctx.cmp(vec_add(a, h), vec_add(b, h)) is Cmp.LESS
    yield invariant, f"translation invariance failed at {a},{b},{h}"


def _order_minimal(run, ctx, bound, i):
    A = {tuple(run.rng.randint(0, 3) for _ in range(2)) for _ in range(5)}
    B = {tuple(run.rng.randint(0, 3) for _ in range(2)) for _ in range(5)}
    union_min = minimal_elements(FinitePosetFragment.of(ctx, A | B))
    parts = minimal_elements(FinitePosetFragment.of(ctx, A)) | minimal_elements(
        FinitePosetFragment.of(ctx, B)
    )
    yield union_min <= parts, "union minimality inclusion failed"
    sums = {vec_add(a, b) for a in A for b in B}
    has_min = not (A and B) or minimal_elements(FinitePosetFragment.of(ctx, sums))
    yield has_min, "sum fragment has no minimal element"


def _order_convolution(run, ctx, bound, i):
    A = {tuple(run.rng.randint(0, 3) for _ in range(2)) for _ in range(4)}
    B = {tuple(run.rng.randint(0, 3) for _ in range(2)) for _ in range(4)}
    m = tuple(run.rng.randint(0, 6) for _ in range(2))
    brute = sorted(
        (a, b) for a in sorted(A) for b in sorted(B) if vec_add(a, b) == m
    )
    found = sorted(convolution_pairs(ctx, m, A, B))
    yield found == brute, f"convolution pairs differ from brute force at {m}"


def _order_good_pairs(run, ctx, bound, i):
    frag = [tuple(run.rng.randint(0, 2) for _ in range(2)) for _ in range(3)]
    seq = [run.rng.choice(frag) for _ in range(len(set(frag)) + 1)]
    yield find_good_pair(ctx, seq) is not None, f"over-length sequence {seq} reported bad"
    if i == run.trials - 1:
        bad = [(k, 4 - k) for k in range(5)]
        yield find_good_pair(ctx, bad) is None, "antichain enumeration not recognized as bad"


def _op_linearity(run, ctx, bound, i):
    t = samples.random_contracting_table(run.rng, ctx, bound)
    a = samples.random_hahn(run.rng, ctx, bound)
    b = samples.random_hahn(run.rng, ctx, bound)
    yield op_apply(t, a + b) == op_apply(t, a) + op_apply(t, b), "additivity failed"
    c = Fraction(3, 2)
    yield op_apply(t, a.scale(c)) == op_apply(t, a).scale(c), "homogeneity failed"


def _op_contracting_closure(run, ctx, bound, i):
    f = samples.random_contracting_table(run.rng, ctx, bound)
    g = samples.random_contracting_table(run.rng, ctx, bound)
    yield op_is_contracting(op_compose(f, g)), "composition left the contracting cone"
    yield op_is_contracting(f + g), "sum left the contracting cone"
    mixed = run.shared(OpTable.identity, ctx, bound).scale(samples.nonzero_fraction(run.rng)) + g
    ideal = op_is_contracting(op_compose(f, mixed)) and op_is_contracting(op_compose(mixed, f))
    yield ideal, "ideal property failed"


def _op_multiplication_tables(run, ctx, bound, i):
    a = samples.random_hahn(run.rng, ctx, bound)
    b = samples.random_hahn(run.rng, ctx, bound)
    by_table = op_apply(multiplication_table(a), b)
    yield by_table == a * b, "multiplication table disagrees with the product"


def _op_evaluation_morphism(run, ctx, bound, i):
    P = samples.random_free_series(run.rng, 2, bound)
    Q = samples.random_free_series(run.rng, 2, bound)
    f = (
        samples.random_contracting_table(run.rng, ctx, bound),
        samples.random_contracting_table(run.rng, ctx, bound),
    )
    at_P, at_Q = op_evaluate(P, f), op_evaluate(Q, f)
    yield op_evaluate(P * Q, f) == op_compose(at_P, at_Q), "evaluation is not multiplicative"
    yield op_evaluate(P + Q, f) == at_P + at_Q, "evaluation is not additive"


def _op_evaluation_associativity(run, ctx, bound, i):
    P = samples.random_free_series(run.rng, 2, bound)
    Qs = {
        i: samples.random_free_series(run.rng, 2, bound, constant=Fraction(0))
        for i in range(2)
    }
    f = (
        samples.random_contracting_table(run.rng, ctx, bound),
        samples.random_contracting_table(run.rng, ctx, bound),
    )
    lhs = op_evaluate(fs_substitute(P, Qs), f)
    rhs = op_evaluate(P, tuple(op_evaluate(Qs[i], f) for i in range(2)))
    yield lhs == rhs, "evaluation associativity failed"


def _op_local_algebra(run, ctx, bound, i):
    ident = run.shared(OpTable.identity, ctx, bound)
    eps = samples.random_contracting_table(run.rng, ctx, bound)
    inv = op_evaluate(run.shared(series_binomial, -1, bound), (eps,))
    inverts = op_compose(inv, ident + eps) == ident and op_compose(ident + eps, inv) == ident
    yield inverts, "geometric series does not invert Id + eps"
    direct = op_geometric_inverse(ident + eps)
    yield direct == inv, "direct inverse disagrees with the series route"


def _corr_exp_roundtrip(run, ctx, bound, i):
    d = samples.random_contracting_derivation(run.rng, ctx, bound)
    s = op_exp(d)
    yield op_exp_via_series(d) == s, "the two exponential routes disagree"
    yield op_is_unital_endomorphism(s), "exponential is not an endomorphism"
    yield op_log(s) == d, "log(exp d) != d"
    yield op_log_via_series(s) == d, "the two logarithm routes disagree"


def _corr_log_roundtrip(run, ctx, bound, i):
    s = samples.random_substitution_automorphism(run.rng, ctx, bound)
    d = op_log(s)
    yield op_is_derivation(d), "log of an automorphism is not a derivation"
    yield op_exp(d) == s, "exp(log s) != s"


def _corr_group_law(run, ctx, bound, i):
    d1 = samples.random_contracting_derivation(run.rng, ctx, bound)
    d2 = samples.random_contracting_derivation(run.rng, ctx, bound)
    by_series = op_evaluate(run.shared(bch_product, bound), (d1, d2))
    yield star(d1, d2) == by_series, "star disagrees with the BCH series evaluation"


def _corr_divisibility(run, ctx, bound, i):
    ident = run.shared(OpTable.identity, ctx, bound)
    d = samples.random_contracting_derivation(run.rng, ctx, bound)
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


def _corr_lie_transport(run, ctx, bound, i):
    eps = samples.random_contracting_table(run.rng, ctx, bound)
    rho = run.shared(OpTable.identity, ctx, bound) + eps
    phi = conjugation_morphism(rho)
    d1 = samples.random_contracting_derivation(run.rng, ctx, bound)
    d2 = samples.random_contracting_derivation(run.rng, ctx, bound)
    yield lie_morphism_defect(phi, d1, d2).is_zero(), "conjugation is not a Lie morphism"
    s1, t1 = push_morphism(phi, d1)
    s2, t2 = push_morphism(phi, d2)
    pushed = op_exp(phi(op_log(op_compose(s1, s2))))
    yield pushed == op_compose(t1, t2), "pushed morphism is not multiplicative"
    doubling = lambda d: d.scale(2)
    yield not lie_morphism_defect(doubling, d1, d2).is_zero() or (
        op_compose(d1, d2) == op_compose(d2, d1)
    ), "scalar doubling passed the Lie morphism test"


def _vaut_factor_laws(run, ctx, bound, i):
    x = samples.random_character(run.rng, ctx)
    y = samples.random_character(run.rng, ctx)
    a = samples.random_hahn(run.rng, ctx, bound)
    composed = apply_gexp(x, apply_gexp(y, a))
    yield composed == apply_gexp(x * y, a), "character composition failed"
    al = samples.random_additive_char(run.rng, ctx)
    be = samples.random_additive_char(run.rng, ctx)
    summed = apply_gder(al, a) + apply_gder(be, a)
    yield summed == apply_gder(al + be, a), "diagonal derivations do not add"
    d = gder_table(al, bound)
    yield al.is_zero() or not op_is_contracting(d), "diagonal derivation reported contracting"
    yield op_is_derivation(d), "diagonal derivation fails the Leibniz rule"


def _vaut_semidirect(run, ctx, bound, i):
    res = op_exp(samples.random_contracting_derivation(run.rng, ctx, bound))
    conj = pullback_morphism(run.shared(ExponentAut, ctx, _SWAP), bound)(res)
    yield one_aut_check(conj), "relabeling conjugation left the near-identity group"
    x = samples.random_character(run.rng, ctx)
    t = gexp_table(x, bound)
    rescaled = op_compose(op_compose(t, res), gexp_table(x.inverse(), bound))
    yield one_aut_check(rescaled), "character conjugation left the near-identity group"


def _vaut_decompose(run, ctx, bound, i):
    ctx = _LEX1 if i % 2 == 0 else _PROD2
    swap = run.shared(ExponentAut, _PROD2, _SWAP)
    mu = ExponentAut.identity(ctx) if ctx is _LEX1 or i % 4 < 2 else swap
    chi = samples.random_character(run.rng, ctx)
    residual = op_exp(samples.random_contracting_derivation(run.rng, ctx, bound))
    sigma = compose_factors(FactorAut(mu, chi, residual))
    split = decompose_vaut(sigma)
    yield compose_factors(split) == sigma, "decomposition roundtrip failed"
    yield one_aut_check(split.residual), "residual is not a near-identity automorphism"
    yield split.mu.matrix == mu.matrix, "exponent factor not recovered"


def _vaut_middle(run, ctx, bound, i):
    al = samples.random_additive_char(run.rng, ctx)
    v = al.values[0]
    e = Fraction(1) if v == 0 else samples.nonzero_fraction(run.rng)
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


# -- the table: (name, cap, contexts, per, trial), in run order --------------

STEPS = (
    ("free.mul-associative-distributive", 6, _NO_CTX, 1, _free_mul_laws),
    ("free.support-bound", 6, _NO_CTX, 1, _free_support),
    ("free.geometric-inverse-roundtrip", 6, _NO_CTX, 1, _free_inverse),
    ("free.augmentation-ideal-closure", 6, _NO_CTX, 1, _free_ideal),
    ("bch.exp-log-inversion", _UNCAPPED, _NO_CTX, None, _bch_inversion),
    ("bch.exponential-identity", _UNCAPPED, _NO_CTX, None, _bch_exp_identity),
    ("bch.oracle-agreement", 6, _NO_CTX, None, _bch_oracle),
    ("bch.lie-slices", 6, _NO_CTX, None, _bch_lie_slices),
    ("hahn.mul-laws", _UNCAPPED, (_LEX1, _PROD2, _WEIGHTED), 1, _hahn_mul_laws),
    ("hahn.dominance-order", _UNCAPPED, (_LEX1, _PROD2, _WEIGHTED), 1, _hahn_dominance),
    ("hahn.finite-sum-reindexing", _UNCAPPED, (_LEX1,), 1, _hahn_reindexing),
    ("order.translation-invariance", None, (_LEX2, _PROD2, _WEIGHTED), 1, _order_translation),
    ("order.minimal-elements", None, (_PROD2,), 1, _order_minimal),
    ("order.convolution-pairs", None, (_PROD2,), 1, _order_convolution),
    ("order.good-pairs", None, (_PROD2,), 1, _order_good_pairs),
    ("operator.strong-linearity-shadow", 6, (_LEX1,), 1, _op_linearity),
    ("operator.contracting-closure", 6, (_LEX1,), 1, _op_contracting_closure),
    ("operator.multiplication-tables", 6, (_LEX1,), 1, _op_multiplication_tables),
    ("operator.evaluation-morphism", 6, (_LEX1,), 1, _op_evaluation_morphism),
    ("operator.evaluation-associativity", 6, (_LEX1,), 1, _op_evaluation_associativity),
    ("operator.local-algebra-shadow", 6, (_LEX1,), 1, _op_local_algebra),
    ("correspondence.exp-endomorphism-roundtrip", 6, (_LEX1,), 1, _corr_exp_roundtrip),
    ("correspondence.log-derivation-roundtrip", 6, (_LEX1,), 1, _corr_log_roundtrip),
    ("correspondence.group-law", 6, (_LEX1,), 1, _corr_group_law),
    ("correspondence.divisibility-torsion", 6, (_LEX1,), 4, _corr_divisibility),
    ("correspondence.lie-morphism-transport", 6, (_LEX1,), 4, _corr_lie_transport),
    ("vaut.factor-group-laws", 6, (_LEX1,), 1, _vaut_factor_laws),
    ("vaut.semidirect-conjugation", 6, (_PROD2,), 2, _vaut_semidirect),
    ("vaut.decompose-roundtrip", 6, _NO_CTX, 1, _vaut_decompose),
    ("vaut.middle-correspondence", 6, (_LEX1,), 1, _vaut_middle),
)


SUITES = (*dict.fromkeys(step.partition(".")[0] for step, *_ in STEPS), "all")


def run_suite(name: str, order: int, trials: int, seed: int) -> list[StepResult]:
    if name not in SUITES:
        raise NSeriesError(f"unknown suite {name!r}; pick one of {', '.join(SUITES)}")
    if trials < 1 or order < 1:
        raise NSeriesError(f"trials and order must be at least 1, got {trials} and {order}")
    run, results = _Run(order, trials, seed), []
    for step, cap, ctxs, per, trial in STEPS:
        if name in ("all", step.partition(".")[0]):
            bound = None if cap is None else min(order, cap)
            runs = max(1, trials // per) if per else 1
            results.append(_check(step, bound, runs * len(ctxs),
                                  lambda i: trial(run, ctxs[i // runs], bound, i)))
    return results
