import math

import pytest

from costzdd.extint import (
    INT64_MAX,
    INT64_MIN,
    NEG_INF,
    POS_INF,
    CostOverflowError,
    check_finite,
    format_ext,
    parse_ext,
)


def test_infinities_are_singletons():
    assert parse_ext("+inf") is POS_INF
    assert parse_ext("-inf") is NEG_INF
    assert -POS_INF == NEG_INF
    assert -NEG_INF == POS_INF
    assert POS_INF == math.inf and NEG_INF == -math.inf


def test_total_order():
    assert NEG_INF < -(2**200) < 0 < 2**200 < POS_INF
    assert POS_INF > NEG_INF
    assert not POS_INF < POS_INF
    assert POS_INF <= POS_INF
    assert NEG_INF >= NEG_INF
    assert POS_INF == POS_INF
    assert POS_INF != NEG_INF
    assert POS_INF != 0 and NEG_INF != 0


def test_comparison_with_ints_both_ways():
    assert 5 < POS_INF and POS_INF > 5
    assert 5 > NEG_INF and NEG_INF < 5
    assert min(3, POS_INF) == 3
    assert max(3, NEG_INF) == 3
    assert sorted([POS_INF, 0, NEG_INF, -7]) == [NEG_INF, -7, 0, POS_INF]


def test_hashable_and_usable_as_dict_key():
    d = {POS_INF: "hi", NEG_INF: "lo", 0: "zero"}
    assert d[POS_INF] == "hi"
    assert d[NEG_INF] == "lo"


def test_check_finite_range():
    check_finite(INT64_MAX)
    check_finite(INT64_MIN)
    with pytest.raises(CostOverflowError):
        check_finite(INT64_MAX + 1)
    with pytest.raises(CostOverflowError):
        check_finite(INT64_MIN - 1)
    with pytest.raises(CostOverflowError):
        check_finite(POS_INF)


def test_format_ext():
    assert format_ext(POS_INF) == "+inf"
    assert format_ext(NEG_INF) == "-inf"
    assert format_ext(0) == "0"
    assert format_ext(-123) == "-123"


def test_parse_ext_variants():
    assert parse_ext("inf") is POS_INF
    assert parse_ext("+INF") is POS_INF
    assert parse_ext("-Inf") is NEG_INF
    assert parse_ext("  42 ") == 42
    assert parse_ext("-7") == -7


def test_parse_format_round_trip():
    for v in (POS_INF, NEG_INF, 0, 19, -3, INT64_MAX, INT64_MIN):
        assert parse_ext(format_ext(v)) == v


def test_parse_ext_rejects_garbage():
    for bad in ("", "ten", "1.5", "++inf", "inf inf", "0x10"):
        with pytest.raises(ValueError):
            parse_ext(bad)


def test_infinities_render_by_sign():
    assert format_ext(parse_ext("+inf")) == "+inf"
    assert format_ext(parse_ext("-inf")) == "-inf"
    # a fresh infinity, as a residual bound becomes, renders the same
    assert format_ext(POS_INF - 5) == "+inf"
    assert format_ext(NEG_INF + 5) == "-inf"
