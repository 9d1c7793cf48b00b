"""Every failed predicate raises through `CheckResult.require`: each site keeps
its exception class, its message and the witness attached as `.witness`."""

import pytest

from nseries import (
    HahnPoly,
    MonoidCtx,
    NotAUnitError,
    NotContractingError,
    NotUnitalEndomorphismError,
    NotDecomposableError,
    OpTable,
    decompose_vaut,
    fractional_iterate,
    op_evaluate,
    op_exp,
    op_geometric_inverse,
    op_log,
    push_morphism,
    star,
)
from nseries.operators import CheckResult, substitution_endomorphism
from nseries.series_calculus import bch_product

LEX1, LEX2 = MonoidCtx.lex(1), MonoidCtx.lex(2)
IDENT, ZERO = OpTable.identity(LEX1, 2), OpTable.zero(LEX1, 2)
# t -> t and every other basis monomial to 0: not contracting at the pair (t, t).
BUMP = OpTable.from_function(LEX1, 2, lambda m: HahnPoly.monomial(LEX1, 2, m, int(m == (1,))))
ORIGIN, T = ((0,), (0,)), ((1,), (1,))


def _twist():
    """t^(0,1) -> t^(0,1) + t^(1,0): a unital endomorphism whose residual keeps the
    weight of t^(0,1), so it is not near the identity."""
    x, y = (HahnPoly.monomial(LEX2, 2, e) for e in ((1, 0), (0, 1)))
    return substitution_endomorphism(LEX2, 2, {0: x, 1: y + x})


SITES = {
    "star-left": (lambda: star(BUMP, ZERO), NotContractingError,
                  "left star argument is not contracting at basis pair ((1,), (1,))", T),
    "star-right": (lambda: star(ZERO, IDENT), NotContractingError,
                   "right star argument is not contracting at basis pair ((0,), (0,))", ORIGIN),
    "op_exp": (lambda: op_exp(IDENT), NotContractingError,
               "exponential argument is not contracting at basis pair ((0,), (0,))", ORIGIN),
    "op_log": (lambda: op_log(IDENT + BUMP), NotContractingError,
               "logarithm argument minus identity is not contracting at basis pair ((1,), (1,))", T),
    "push-derivation": (lambda: push_morphism(lambda d: d, BUMP), NotContractingError,
                        "derivation is not contracting at basis pair ((1,), (1,))", T),
    "push-image": (lambda: push_morphism(lambda d: d + IDENT, ZERO), NotContractingError,
                   "morphism image is not contracting at basis pair ((0,), (0,))", ORIGIN),
    "fractional_iterate": (lambda: fractional_iterate(IDENT + BUMP, 1), NotUnitalEndomorphismError,
                           "fractional iteration needs a unital endomorphism; failed at ((1,), (1,))", T),
    "op_evaluate": (lambda: op_evaluate(bch_product(2), (ZERO, IDENT)), NotContractingError,
                    "argument 1 is not contracting at basis pair ((0,), (0,))", (1, ORIGIN)),
    "op_geometric_inverse": (lambda: op_geometric_inverse(IDENT + BUMP), NotAUnitError,
                             "table is not of the form c*Id + contracting; offending pair ((1,), (1,))", T),
    "decompose-endomorphism": (lambda: decompose_vaut(IDENT + BUMP), NotDecomposableError,
                               "table is not a unital endomorphism; witness ((1,), (1,))", T),
    "decompose-near-identity": (lambda: decompose_vaut(_twist()), NotDecomposableError,
                                "residual fails the near-identity test; witness ((0, 1), (1, 0))",
                                ((0, 1), (1, 0))),
}


@pytest.mark.parametrize("site", SITES)
def test_each_failed_check_raises_its_class_message_and_witness(site):
    call, error, message, witness = SITES[site]
    with pytest.raises(error) as info:
        call()
    assert type(info.value) is error
    assert str(info.value) == message
    assert info.value.witness == witness


def test_require_is_quiet_on_a_pass_and_formats_the_witness_on_a_failure():
    assert CheckResult(True).require(NotContractingError, "never raised {}") is None
    with pytest.raises(NotAUnitError) as info:
        CheckResult(False, "unit").require(NotAUnitError, "failed at {}")
    assert (str(info.value), info.value.witness) == ("failed at unit", "unit")
