"""Every value rejection is an `NSeriesError`, itself a `ValueError`, and a
wrong type is a `TypeError`: each site keeps its class and its message.

The cases cover the rejections of out-of-range sizes, bounds and degrees, of
matrices that are no order automorphism, of unknown names and of zero
character values; the strings `exact` cannot read, also where a JSON file, a
character or the binomial series passes them in; and each rejection
that no other test reaches (`tools/line_trace.py` lists the statements the
suite never runs)."""

from fractions import Fraction

import pytest

from nseries import (
    AdditiveChar,
    CharacterX,
    ExponentAut,
    FactorAut,
    FreeSeries,
    HahnPoly,
    MonoidCtx,
    OpTable,
    apply_gexp,
    apply_oaut,
    compose_factors,
    middle_correspond,
    op_apply,
    op_evaluate,
)
from nseries.errors import (
    DimensionMismatchError,
    InconsistentExponentialError,
    NSeriesError,
    WeightBoundError,
)
from nseries.operators import (
    CheckResult,
    derivation_from_generator_images,
    op_lin_sum,
    substitution_endomorphism,
)
from nseries.free_algebra import free_from_json
from nseries.hahn_series import hahn_from_json
from nseries.series_calculus import (
    bch_product,
    bch_term,
    dynkin_project,
    fs_substitute,
    series_binomial,
)
from nseries.sparse import exact
from nseries.support_order import choice_closure, weight_universe
from nseries.vaut_factors import mat_vec, one_aut_check
from nseries.verify import run_suite

LEX1, LEX2, PROD1 = MonoidCtx.lex(1), MonoidCtx.lex(2), MonoidCtx.product(1)
W12 = MonoidCtx.weighted(1, 2)
X0 = FreeSeries.variable(0, 2, 2)
NOT_RATIONAL = "not an exact rational: "
ARABIC_HALF = "\u0661/\u0662"  # 1/2 in Arabic-Indic digits

# name -> (call, class, message)
CASES = {
    "FreeSeries-alphabet": (lambda: FreeSeries(-1, 2), NSeriesError, "alphabet size must be >= 0"),
    "FreeSeries-grade": (lambda: FreeSeries(1, -1), NSeriesError, "grade bound must be >= 0"),
    "FreeSeries-word": (lambda: FreeSeries(1, 1, {(0, 0): 1}), WeightBoundError,
                        "word (0, 0) exceeds the grade bound 1"),
    "support_slice": (lambda: FreeSeries.one(1, 2).support_slice(3), NSeriesError,
                      "slice degree 3 exceeds grade bound 2"),
    "grade_slice": (lambda: FreeSeries.one(1, 2).grade_slice(3), NSeriesError,
                    "slice degree 3 exceeds grade bound 2"),
    "power": (lambda: FreeSeries.one(1, 2).power(-1), NSeriesError,
              "negative powers are not defined here"),
    "HahnPoly-bound": (lambda: HahnPoly(LEX1, -1), NSeriesError, "weight bound must be >= 0"),
    "MonoidCtx-dim": (lambda: MonoidCtx(0, "lex", ()), NSeriesError,
                      "context dimension must be >= 1"),
    "MonoidCtx-kind": (lambda: MonoidCtx(1, "cyclic", (1,)), NSeriesError,
                       "unknown order kind 'cyclic'"),
    "MonoidCtx-weights": (lambda: MonoidCtx.weighted(1, 0), NSeriesError,
                          "weights must be positive integers"),
    "choice_closure": (lambda: choice_closure(LEX1, [(0,)], lambda p: [], -1), NSeriesError,
                       "depth must be >= 0"),
    "weight_universe": (lambda: weight_universe(LEX1, -1), NSeriesError, "bound must be >= 0"),
    "op_lin_sum": (lambda: op_lin_sum([]), DimensionMismatchError,
                   "lin_sum needs at least one table to fix the context"),
    "bch_term": (lambda: bch_term(0, 2), NSeriesError,
                 "block count must be >= 1 (the linear part sits in the n=1 term)"),
    "dynkin_project": (lambda: dynkin_project(X0, 0), NSeriesError,
                       "projection degree must be >= 1"),
    "CharacterX-zero": (lambda: CharacterX(LEX1, (0,)), NSeriesError,
                        "character values must be nonzero"),
    "ExponentAut-det": (lambda: ExponentAut(LEX1, ((2,),)), NSeriesError,
                        "exponent automorphism must be unimodular, det = 2"),
    "ExponentAut-weight": (lambda: ExponentAut(W12, ((0, 1), (1, 0))), NSeriesError,
                           "matrix changes the weight of generator (1, 0) from 1 to 2"),
    "ExponentAut-order": (lambda: ExponentAut(LEX1, ((-1,),)), NSeriesError,
                          "matrix does not preserve the order on probe pair (-2,) < (-1,)"),
    "apply_oaut-singular": (lambda: apply_oaut(((1, 1), (1, 1)), HahnPoly.one(LEX2, 2)),
                            NSeriesError, "relabeling matrix must be injective"),
    "apply_oaut-order": (lambda: apply_oaut(((-1,),), HahnPoly(LEX1, 2, {(0,): 1, (1,): 1})),
                         NSeriesError,
                         "relabeling does not preserve the order on support pair (0,) < (1,)"),
    "run_suite-name": (lambda: run_suite("nosuch", 1, 1, 0), NSeriesError,
                       "unknown suite 'nosuch'; pick one of free, bch, hahn, order, operator,"
                       " correspondence, vaut, all"),
    "run_suite-size": (lambda: run_suite("free", 0, 1, 0), NSeriesError,
                       "trials and order must be at least 1, got 1 and 0"),
    "exact-zero-denominator": (lambda: exact("1/0"), NSeriesError, NOT_RATIONAL + "'1/0'"),
    "exact-not-a-number": (lambda: exact("abc"), NSeriesError, NOT_RATIONAL + "'abc'"),
    # `Fraction` reads both strings; the text grammar and so `exact` take neither.
    "exact-separator": (lambda: exact("1_0"), NSeriesError, NOT_RATIONAL + "'1_0'"),
    "exact-non-ascii": (lambda: exact(ARABIC_HALF), NSeriesError,
                        NOT_RATIONAL + repr(ARABIC_HALF)),
    "free_from_json-separator": (
        lambda: free_from_json({"alphabet": 1, "grade": 1,
                                "terms": [{"word": [], "coeff": "1_0"}]}),
        NSeriesError, NOT_RATIONAL + "'1_0'"),
    "hahn_from_json-non-ascii": (
        lambda: hahn_from_json({"ctx": {"kind": "lex", "dim": 1, "weights": [1]}, "bound": 1,
                                "terms": [{"exps": [0], "coeff": ARABIC_HALF}]}),
        NSeriesError, NOT_RATIONAL + repr(ARABIC_HALF)),
    "CharacterX-separator": (lambda: CharacterX(LEX1, ("1_0",)), NSeriesError,
                             NOT_RATIONAL + "'1_0'"),
    "series_binomial-non-ascii": (lambda: series_binomial(ARABIC_HALF, 2), NSeriesError,
                                  NOT_RATIONAL + repr(ARABIC_HALF)),
    "OpTable-image-type": (lambda: OpTable(LEX1, 0, {(0,): Fraction(1)}), TypeError,
                           "table images must be HahnPoly values"),
    "op_apply-space": (lambda: op_apply(OpTable.identity(LEX1, 2), HahnPoly.one(LEX1, 3)),
                       DimensionMismatchError, "operator and series contexts differ"),
    "op_evaluate-no-argument": (lambda: op_evaluate(bch_product(2), ()), DimensionMismatchError,
                                "evaluation needs at least one operator argument"),
    "op_evaluate-alphabet": (lambda: op_evaluate(bch_product(2), (OpTable.zero(LEX1, 2),)),
                             DimensionMismatchError,
                             "series over alphabet of size 2 evaluated at 1 operators"),
    "fs_substitute-no-variable": (lambda: fs_substitute(FreeSeries.one(0, 2), {}),
                                  DimensionMismatchError,
                                  "cannot substitute into a variable-free series"),
    "fs_substitute-missing": (lambda: fs_substitute(X0, {0: X0}), DimensionMismatchError,
                              "no substitution given for variable(s) [1]"),
    "MonoidCtx-weight-length": (lambda: MonoidCtx(2, "weighted", (1,)), DimensionMismatchError,
                                "weight vector length must match dimension"),
    "matrix-square": (lambda: ExponentAut(LEX2, ((1, 0),)), DimensionMismatchError,
                      "matrix must be square and nonempty"),
    "mat_vec": (lambda: mat_vec(((1, 0), (0, 1)), (1,)), DimensionMismatchError,
                "matrix/vector dimension mismatch"),
    "character-arity": (lambda: CharacterX(LEX2, (1,)), DimensionMismatchError,
                        "one generator value per dimension required"),
    "character-contexts": (lambda: CharacterX.trivial(LEX1) * CharacterX.trivial(PROD1),
                           DimensionMismatchError, "characters live over different contexts"),
    "ExponentAut-size": (lambda: ExponentAut(LEX2, ((1,),)), DimensionMismatchError,
                         "matrix size must match the context dimension"),
    "ExponentAut-compose": (lambda: ExponentAut.identity(LEX1).compose(ExponentAut.identity(PROD1)),
                            DimensionMismatchError, "exponent maps live over different contexts"),
    "diagonal-contexts": (lambda: apply_gexp(CharacterX.trivial(LEX1), HahnPoly.one(PROD1, 2)),
                          DimensionMismatchError, "character and series contexts differ"),
    "middle_correspond-zero": (lambda: middle_correspond(AdditiveChar(LEX1, (1,)), {1: 0}),
                               InconsistentExponentialError, "exponential values must be nonzero"),
    "compose_factors-contexts": (
        lambda: compose_factors(FactorAut(ExponentAut.identity(PROD1), CharacterX.trivial(LEX1),
                                          OpTable.identity(LEX1, 2))),
        DimensionMismatchError, "factor components live over different contexts"),
}

# A generator image of the wrong type or bound, at a bound where the generator
# is the only image (1) and where the walk extends it (2).
for _extend in (derivation_from_generator_images, substitution_endomorphism):
    for _bound in (1, 2):
        CASES[f"{_extend.__name__}-type-N{_bound}"] = (
            lambda extend=_extend, bound=_bound: extend(LEX1, bound, {0: 5}),
            TypeError, "table images must be HahnPoly values")
        CASES[f"{_extend.__name__}-bound-N{_bound}"] = (
            lambda extend=_extend, bound=_bound: extend(
                LEX1, bound, {0: HahnPoly.monomial(LEX1, 5, (1,))}),
            DimensionMismatchError, "image of (1,) lives over a different context or bound")


@pytest.mark.parametrize("site", CASES)
def test_each_rejection_keeps_its_class_and_message(site):
    call, error, message = CASES[site]
    with pytest.raises((NSeriesError, TypeError)) as info:
        call()
    assert type(info.value) is error
    assert str(info.value) == message
    if error is not TypeError:
        assert isinstance(info.value, ValueError)


def test_one_aut_check_reports_a_non_endomorphism_before_the_contracting_test():
    # Id + shift is not unital, but its rest, the shift, is contracting: only
    # the endomorphism branch can produce the witness "unit".
    shift = OpTable.from_function(
        LEX1, 2, lambda m: HahnPoly(LEX1, 2, {(m[0] + 1,): 1} if m[0] < 2 else {})
    )
    assert one_aut_check(OpTable.identity(LEX1, 2) + shift) == CheckResult(False, "unit")
