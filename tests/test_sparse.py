"""The sparse kernel shared by FreeSeries and HahnPoly: operands must share a space."""

import operator

import pytest

from nseries import FreeSeries, HahnPoly, MonoidCtx
from nseries.errors import DimensionMismatchError

BINARY_OPS = (operator.add, operator.sub, operator.mul)


def test_free_and_hahn_series_do_not_mix():
    free = FreeSeries.one(1, 2)
    hahn = HahnPoly.one(MonoidCtx.lex(1), 2)
    for op in BINARY_OPS:
        with pytest.raises(TypeError, match="expected FreeSeries, got HahnPoly"):
            op(free, hahn)
        with pytest.raises(TypeError, match="expected HahnPoly, got FreeSeries"):
            op(hahn, free)


@pytest.mark.parametrize(
    "a, b, message",
    [
        (FreeSeries.one(1, 2), FreeSeries.one(2, 2), "alphabet 1/2, grade 2/2"),
        (FreeSeries.one(2, 2), FreeSeries.one(2, 3), "alphabet 2/2, grade 2/3"),
        (HahnPoly.one(MonoidCtx.lex(1), 2), HahnPoly.one(MonoidCtx.lex(1), 3), "different contexts"),
        (HahnPoly.one(MonoidCtx.lex(1), 2), HahnPoly.one(MonoidCtx.product(1), 2), "different contexts"),
    ],
)
def test_different_spaces_do_not_mix(a, b, message):
    for op in BINARY_OPS:
        with pytest.raises(DimensionMismatchError, match=message):
            op(a, b)
        with pytest.raises(DimensionMismatchError):
            op(b, a)
