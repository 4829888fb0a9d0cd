import math
import struct
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from scalar_reference import is_number_token, nearest_float32
from stlstego.errors import StlParseError
from stlstego.floatfmt import (
    format_scientific,
    format_standard,
    parse_float32,
    parse_float32s,
)

finite_f32 = st.floats(allow_nan=False, allow_infinity=False, width=32)


def test_parse_rounds_to_single_precision():
    assert parse_float32("0.527998") == float(np.float32("0.527998"))
    assert parse_float32("5.906999e0") == parse_float32("5.906999")


@pytest.mark.parametrize("token", ["nan", "inf", "-inf", "1_000", "0x1p3", "", "1e", "--1"])
def test_parse_rejects_non_grammar_tokens(token):
    with pytest.raises(StlParseError):
        parse_float32(token)


@pytest.mark.parametrize("token", ["\u0663", "\uff11", "1\u0663", "1e\u0663", "\u0663.5"])
def test_parse_rejects_digits_of_other_scripts(token):
    with pytest.raises(StlParseError) as raised:
        parse_float32s(["1", token], [4, 7])
    assert str(raised.value) == f"line 7: not a number: {token!r}"
    assert not is_number_token(token)


def test_parse_rejects_single_precision_overflow():
    with pytest.raises(StlParseError):
        parse_float32("1e39")


def test_format_standard_examples():
    assert format_standard(0.0) == "0"
    assert format_standard(-0.0) == "0"
    assert format_standard(52.0) == "52"
    assert format_standard(float(np.float32("0.527998"))) == "0.527998"
    assert format_standard(float(np.float32("-13.101"))) == "-13.101"


def test_format_scientific_examples():
    assert format_scientific(float(np.float32("0.527998"))) == "5.27998e-1"
    assert format_scientific(52.0) == "5.2e1"
    assert format_scientific(0.0) == "0e0"


@given(finite_f32)
def test_standard_round_trips_exactly(x):
    token = format_standard(x)
    assert "e" not in token and "E" not in token
    assert parse_float32(token) == x or x == 0.0


@given(finite_f32)
def test_scientific_round_trips_exactly(x):
    token = format_scientific(x)
    assert "e" in token
    assert is_number_token(token)
    assert parse_float32(token) == x or x == 0.0


@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_standard_round_trips_raw_bit_patterns(bits):
    x = struct.unpack("<f", struct.pack("<I", bits))[0]
    if not np.isfinite(np.float32(x)):
        return
    token = format_standard(x)
    assert np.float32(parse_float32(token)) == np.float32(x) or np.float32(x) == 0


# 1 + 2**-24 + 2**-60: the nearest double is the float32 midpoint 1 + 2**-24,
# which a second rounding would take to the even neighbour 1.0
ABOVE_MIDPOINT = "1.000000059604644776257986737988403547205962240695953369140625"


def test_parse_does_not_round_twice_above_a_midpoint():
    assert parse_float32(ABOVE_MIDPOINT) == 1.0000001192092896
    assert parse_float32("-" + ABOVE_MIDPOINT) == -1.0000001192092896
    # just below 1 - 2**-25, the midpoint between 1 - 2**-24 and 1
    below = "0.99999997019767761230468749999999999999"
    assert parse_float32(below) == 1 - 2**-24


@pytest.mark.parametrize(
    "token, expected",
    [
        ("1.000000059604644775390625", 1.0),  # 1 + 2**-24, between 1 and 1 + 2**-23
        ("1.000000178813934326171875", 1 + 2**-22),  # 1 + 3 * 2**-24
    ],
)
def test_parse_breaks_exact_ties_to_even(token, expected):
    assert parse_float32(token) == expected


def test_parse_settles_midpoints_spelled_with_thousands_of_digits():
    # longer than the int(str) digit limit of CPython 3.11
    tie = "1.000000059604644775390625" + "0" * 4400
    assert parse_float32(tie) == 1.0
    assert parse_float32(tie + "1") == 1.0000001192092896


def _decimal(value: Fraction) -> str:
    # exact positional spelling of a dyadic rational
    digits = value.denominator.bit_length() - 1
    return f"{value.numerator * 5**digits}e-{digits}"


@pytest.mark.parametrize("sign", [1, -1])
def test_parse_settles_subnormal_midpoints_on_the_exact_decimal(sign):
    tiny = Fraction(1, 2**149)
    nudge = Fraction(1, 2**220)  # far below a double ulp at 2**-150
    assert parse_float32(_decimal(sign * tiny / 2)) == 0.0  # tie to even: zero
    assert parse_float32(_decimal(sign * (tiny / 2 + nudge))) == sign * 2.0**-149
    assert parse_float32(_decimal(sign * (3 * tiny / 2 - nudge))) == sign * 2.0**-149
    assert parse_float32(_decimal(sign * 3 * tiny / 2)) == sign * 2.0**-148
    zero = parse_float32(_decimal(sign * (tiny / 2 - nudge)))
    assert zero == 0.0 and math.copysign(1, zero) == sign


def test_parse_keeps_the_largest_value_just_below_the_overflow_midpoint():
    largest = float(np.finfo(np.float32).max)
    midpoint = Fraction(2**128 - 2**103)
    assert parse_float32(_decimal(midpoint - Fraction(1, 2**60))) == largest
    with pytest.raises(StlParseError):
        parse_float32(_decimal(midpoint))


@given(st.integers(min_value=0, max_value=2**31 - 2), st.integers(min_value=-3, max_value=3))
def test_parse_rounds_points_near_a_midpoint_to_the_nearest(bits, offset):
    low = struct.unpack("<f", struct.pack("<I", bits))[0]
    high = struct.unpack("<f", struct.pack("<I", bits + 1))[0]
    if not np.isfinite(np.float32(high)):
        return
    midpoint = (Fraction(low) + Fraction(high)) / 2
    exact = midpoint + offset * Fraction(1, 2**300)
    if exact == midpoint:
        nearest = low if bits % 2 == 0 else high
    else:
        nearest = low if exact < midpoint else high
    assert parse_float32(_decimal(exact)) == nearest


def _near_midpoints(bits: int) -> list[str]:
    """Exact decimals of the midpoint between the float32s with bit patterns
    bits and bits + 1, of points just off it, and of their negations."""
    low, high = (Fraction(struct.unpack("<f", struct.pack("<I", b))[0]) for b in (bits, bits + 1))
    midpoint = (low + high) / 2
    nudge = Fraction(1, 2**300)
    points = (midpoint, midpoint + nudge, midpoint - nudge)
    return [_decimal(sign * p) for p in points for sign in (1, -1)]


_OVERFLOW_MIDPOINT = Fraction(2**128 - 2**103)

_bulk_token = st.one_of(
    finite_f32.map(format_standard),
    finite_f32.map(format_scientific),
    # normal and subnormal midpoints, and the overflow one
    st.sampled_from(
        _near_midpoints(0x3F800000) + _near_midpoints(0x3F800001)
        + _near_midpoints(0x00000000) + _near_midpoints(0x00000001)
        + _near_midpoints(0x007FFFFF)
        + [_decimal(_OVERFLOW_MIDPOINT + d) for d in (0, Fraction(1, 2**60), -Fraction(1, 2**60))]
    ),
    st.sampled_from(["-0", "0e0", "1e999", "-1e999", "x", "nan", ""]),
)


def _one_at_a_time(parse, tokens, lines):
    """The bytes of parse(token, line) of each token as float32, or the
    message of the first error."""
    values = []
    for token, line in zip(tokens, lines):
        try:
            values.append(parse(token, line))
        except StlParseError as error:
            return str(error)
    return np.array(values, dtype=np.float32).tobytes()


@given(st.lists(_bulk_token, max_size=12))
def test_bulk_parse_equals_one_at_a_time(tokens):
    lines = range(10, 10 + len(tokens))
    try:
        got = parse_float32s(tokens, lines).tobytes()
    except StlParseError as error:
        got = str(error)
    assert got == _one_at_a_time(parse_float32, tokens, lines)
    # and equals the exact rational rounding, sign of zero included
    assert got == _one_at_a_time(nearest_float32, tokens, lines)


def test_bulk_parse_of_no_tokens_is_an_empty_float32_array():
    values = parse_float32s([])
    assert values.dtype == np.float32 and values.shape == (0,)
