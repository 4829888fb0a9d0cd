"""Shortest round-trip decimal spellings for single-precision values.

One fixed algorithm produces one spelling per value, so equal models always
serialize to identical bytes and re-saving a file is a deterministic
normalization of its number notation.
"""
from __future__ import annotations

import math
import re
import struct
from decimal import Decimal

import numpy as np

from .errors import StlParseError

# Standard or scientific notation. Deliberately narrower than float():
# no inf/nan, no digit-group underscores, no hex floats.
NUMBER_RE = re.compile(r"[+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?")
_NUMBER_EXACT = re.compile(NUMBER_RE.pattern + r"\Z")
_F32_MAX = float(np.finfo(np.float32).max)
# packing a double as "f" rounds it to single precision, ties to even, and
# raises OverflowError when that gives infinity
_F32 = struct.Struct("f")


def is_number_token(token: str) -> bool:
    return _NUMBER_EXACT.match(token) is not None


def parse_float32(token: str, line: int | None = None) -> float:
    """Convert a numeric token to the nearest finite single-precision value.

    The token is read as a double first. Rounding that double to single
    precision gives the nearest value unless the double sits exactly on a
    single-precision midpoint: the first rounding may have moved the token
    there, so only then is the tie decided on the exact decimal (Clinger,
    "How to Read Floating Point Numbers Accurately", PLDI 1990).
    """
    if not is_number_token(token):
        raise StlParseError(f"not a number: {token!r}", line)
    wide = float(token)
    try:
        (value,) = _F32.unpack(_F32.pack(wide))
    except OverflowError:  # a finite double that rounds to infinity
        value = math.copysign(math.inf, wide)
    if value != wide:
        value = _settle_midpoint(token, wide, value)
    if not abs(value) <= _F32_MAX:
        raise StlParseError(f"out of single-precision range: {token!r}", line)
    return value


def _settle_midpoint(token: str, wide: float, value: float) -> float:
    """`value` is `wide` rounded to single precision, ties to even. If `wide`
    is halfway between two single-precision values, return the one on the
    side of the exact decimal, or `value` on an exact tie."""
    _, exp = math.frexp(wide)
    # half a single-precision ulp at wide is 2**-shift; below the normal
    # range the spacing stays that of the subnormals, 2**-149
    shift = 25 - max(exp, -125)
    if math.ldexp(wide, shift) % 2 != 1:
        return value
    # Decimal compares exactly and, unlike int(str), has no digit limit
    exact, tie = Decimal(token), Decimal(wide)
    if exact == tie:
        return value
    half_ulp = math.ldexp(1.0, -shift)
    # copysign keeps -0.0 when a negative value rounds up to zero
    return math.copysign(wide + half_ulp if exact > tie else wide - half_ulp, wide)


def format_standard(value: float) -> str:
    """Shortest positional decimal that parses back to the same value.

    The sign of zero is normalized away so that value-equal models format
    identically.
    """
    x = np.float32(value)
    if x == 0:
        return "0"
    return np.format_float_positional(x, unique=True, trim="-")


def format_scientific(value: float) -> str:
    """Shortest scientific decimal with mantissa in [1, 10) for the value."""
    x = np.float32(value)
    if x == 0:
        return "0e0"
    text = np.format_float_scientific(x, unique=True, trim="-")
    mantissa, exponent = text.split("e")
    return f"{mantissa}e{int(exponent)}"
