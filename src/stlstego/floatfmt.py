"""Conversions between number tokens and single-precision values.

This module alone converts, a whole list at a time and each distinct
token or value once: parse_float32s reads tokens and spell_float32s spells
values. One fixed algorithm produces one spelling per value, so equal models
always serialize to identical bytes and re-saving a file is a deterministic
normalization of its number notation.
"""
from __future__ import annotations

import math
import re
from collections import defaultdict
from decimal import Decimal
from itertools import count, takewhile

import numpy as np

from .errors import StlParseError

# A whole token in standard or scientific notation, in ASCII digits.
# Deliberately narrower than float(): no inf/nan, no digit-group
# underscores, no hex floats, no digits of other scripts.
_NUMBER = re.compile(r"[+-]?(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][+-]?[0-9]+)?\Z")


def parse_float32(token: str, line: int | None = None) -> float:
    """parse_float32s of one token on a given line, as a float."""
    return float(parse_float32s([token], [line])[0])


def parse_float32s(tokens: list[str], lines=None) -> np.ndarray:
    """Convert a list of numeric tokens to the nearest finite
    single-precision values, as a float32 array, each distinct token once.

    A number token is ASCII: an optional sign, the digits 0-9 with at most
    one decimal point, and an optional exponent, `e` or `E` then an
    optional sign and digits.

    Each token is read as a double first. Rounding that double to single
    precision gives the nearest value unless the double sits exactly on a
    single-precision midpoint: the first rounding may have moved the token
    there, so only then is the tie decided on the exact decimal (Clinger,
    "How to Read Floating Point Numbers Accurately", PLDI 1990).

    The first token in order that is not a number or is out of range
    raises its StlParseError, with lines[i] as the line of tokens[i].
    """
    ids = defaultdict(count().__next__)  # a new token gets the next id
    which = np.fromiter(map(ids.__getitem__, tokens), dtype=np.intp, count=len(tokens))
    distinct = list(ids)
    wide = np.fromiter(map(float, takewhile(_NUMBER.match, distinct)), dtype=np.float64)
    # a finite double may round to infinity, and 1e999 reads as one
    with np.errstate(over="ignore", invalid="ignore"):
        values = wide.astype(np.float32)
        # half a single-precision ulp at wide is 2**-shift; below the normal
        # range the spacing stays that of the subnormals, 2**-149
        shift = 25 - np.maximum(np.frexp(wide)[1], -125)
        for i in np.flatnonzero(np.ldexp(wide, shift) % 2 == 1).tolist():
            midpoint = wide[i].item()
            # Decimal compares exactly and, unlike int(str), has no digit limit
            exact, tie = Decimal(distinct[i]), Decimal(midpoint)
            if exact != tie:  # an exact tie keeps the even value
                side = math.ldexp(1.0 if exact > tie else -1.0, -shift[i].item())
                # copysign keeps -0.0 when a negative value rounds up to zero
                values[i] = math.copysign(midpoint + side, midpoint)
    bad = np.flatnonzero(np.isinf(values))
    first = bad[0].item() if len(bad) else len(values)
    if first < len(distinct):
        token = distinct[first]
        kind = "out of single-precision range" if first < len(values) else "not a number"
        raise StlParseError(f"{kind}: {token!r}", None if lines is None else lines[tokens.index(token)])
    return values[which]


def spell_float32s(values: np.ndarray, spell) -> list[str]:
    """spell(v) of each value of an array, flattened, calling spell once
    per distinct value (-0.0 and 0.0 are one)."""
    distinct, which = np.unique(values, return_inverse=True)
    spelled = np.array([spell(v) for v in distinct.tolist()], dtype=object)
    return spelled[which.reshape(-1)].tolist()


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
