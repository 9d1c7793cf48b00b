"""Pairwise reference scans for the derivation and endomorphism predicates.

Each scan checks the Leibniz rule or multiplicativity on every basis pair
within the weight budget, O(B^2) table applications.  The predicates in
`nseries.operators` decide the same in one pass over the basis; the tests
compare the two.
"""

from nseries import CheckResult, HahnPoly, op_apply


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


def budget_pairs(table, weight_budget=None):
    """Basis pairs (m1, m2), m1 not after m2, with total weight in the budget."""
    budget = table.bound if weight_budget is None else weight_budget
    ctx = table.ctx
    basis = [m for m in table.basis() if ctx.weight(m) <= budget]
    for i, m1 in enumerate(basis):
        for m2 in basis[i:]:
            if ctx.weight(m1) + ctx.weight(m2) <= budget:
                yield m1, m2


def pairwise_derivation(table, weight_budget=None) -> CheckResult:
    for m1, m2 in budget_pairs(table, weight_budget):
        if not leibniz_holds(table, m1, m2):
            return CheckResult(False, (m1, m2))
    return CheckResult(True)


def pairwise_unital_endomorphism(table, weight_budget=None) -> CheckResult:
    unit = HahnPoly.one(table.ctx, table.bound)
    if op_apply(table, unit) != unit:
        return CheckResult(False, "unit")
    for m1, m2 in budget_pairs(table, weight_budget):
        if not multiplicative_on(table, m1, m2):
            return CheckResult(False, (m1, m2))
    return CheckResult(True)
