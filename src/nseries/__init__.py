"""Exact-arithmetic kernel for truncated noncommutative and Hahn series.

Core surfaces: the truncated free algebra with its exponential/logarithm and
BCH series, ordered exponent contexts with Noetherian-style utilities,
truncated Hahn series, strongly linear operator tables with the contracting
exp/log correspondence, and the three-factor splitting of valuation
automorphism tables.
"""

from .errors import (
    DimensionMismatchError,
    ExtensivityError,
    IncompleteTableError,
    InconsistentExponentialError,
    NSeriesError,
    NotAUnitError,
    NotContractingError,
    NotInIdealError,
    NotDecomposableError,
    ParseError,
    ResourceLimitError,
    TruncationOverflowError,
    WeightBoundError,
)
from .free_algebra import (
    EMPTY_WORD,
    FreeSeries,
    factorizations,
    fs_add,
    fs_geometric_inverse,
    fs_mul,
    fs_scale,
    fs_support_slice,
    word_concat,
)
from .series_calculus import (
    bch_product,
    bch_term,
    dynkin_bch,
    dynkin_project,
    fs_substitute,
    is_lie_slice,
    series_E0,
    series_L0,
)
from .support_order import (
    Cmp,
    FinitePosetFragment,
    MonoidCtx,
    choice_closure,
    cmp,
    convolution_pairs,
    find_good_pair,
    max_antichain,
    minimal_elements,
    weight_universe,
)
from .hahn_series import HahnPoly, hp_add, hp_mul, hp_prec, hp_scale
from .operators import (
    CheckResult,
    OpTable,
    multiplication_table,
    op_apply,
    op_bracket,
    op_compose,
    op_evaluate,
    op_geometric_inverse,
    op_is_contracting,
    op_is_derivation,
    op_is_unital_endomorphism,
    op_lin_sum,
)
from .correspondence import (
    DerAutPair,
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
from .vaut_factors import (
    AdditiveChar,
    CharacterX,
    ExponentAut,
    FactorAut,
    apply_gder,
    apply_gexp,
    apply_oaut,
    compose_factors,
    decompose_vaut,
    gder_table,
    gexp_table,
    middle_correspond,
    oaut_table,
    one_aut_check,
    pullback_morphism,
)

__version__ = "0.1.0"
