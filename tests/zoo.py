"""Seeded test meshes at the edges of what an STL file can hold.

Each generator returns a model and an ASCII rendering of it that parses to
the model's exact bits. The renderings vary everything the grammar allows
without changing a value, so a reader or a channel that gets the number
grammar, the float32 range or the whitespace rules wrong shows it.
"""
import random
import struct
from decimal import Decimal
from fractions import Fraction

import numpy as np

from stlstego import StlFormat, StlModel
from stlstego.floatfmt import format_scientific, format_standard
from stlstego.model import RECORD_DTYPE, coords, rhr_normals

_F32_MAX_BITS = 0x7F7FFFFF


def _from_bits(bits: int) -> float:
    return struct.unpack("<f", struct.pack("<I", bits))[0]


def _bits(value: float) -> int:
    return struct.unpack("<I", struct.pack("<f", value))[0]


def _extreme(rng: random.Random, scale: str) -> float:
    """A float32 at subnormal scale (1e-45 to 1e-38) or within 2**20 ulps
    of the largest finite value, with a random sign."""
    if scale == "tiny":
        magnitude = float(np.float32(10 ** rng.uniform(-45, -38)))
    else:
        magnitude = _from_bits(_F32_MAX_BITS - rng.randrange(1 << 20))
    return rng.choice((-1.0, 1.0)) * magnitude


def _exact(value: Fraction, scientific: bool) -> str:
    """The exact decimal spelling of a dyadic rational."""
    digits = value.denominator.bit_length() - 1
    # from a string: Decimal arithmetic would round to 28 digits
    exact = Decimal(f"{value.numerator * 5**digits}e-{digits}")
    return f"{exact:e}" if scientific else f"{exact:f}"


def _midpoint_spelling(value: float, rng: random.Random) -> str:
    """An exact decimal on the midpoint between value and a neighbour that
    rounds to value: the midpoint itself when value is the even one of the
    two, else the midpoint moved towards value by far less than a double's
    ulp, so that the double read first is still the midpoint."""
    bits = _bits(abs(value))
    neighbour = bits - 1 if bits == _F32_MAX_BITS or rng.randrange(2) else bits + 1
    low, high = sorted((Fraction(abs(value)), Fraction(_from_bits(neighbour))))
    midpoint = (low + high) / 2
    if bits % 2:
        nudge = (high - low) / 2**62
        midpoint += nudge if Fraction(abs(value)) == high else -nudge
    return _exact(-midpoint if value < 0 else midpoint, scientific=bool(rng.randrange(2)))


def _spelling(value: float, rng: random.Random) -> str:
    if value == 0:
        return "-0" if np.signbit(value) else rng.choice(("0", "0e0", "0.000", "+0"))
    kind = rng.randrange(4)
    if kind == 0:
        return format_standard(value)
    if kind == 1:
        return format_scientific(value)
    return _midpoint_spelling(value, rng)


def _blank(rng: random.Random, least: int) -> str:
    return "".join(rng.choice(" \t") for _ in range(rng.randint(least, 3)))


def _render(model: StlModel, rng: random.Random) -> str:
    """model as ASCII STL with CRLF line endings, runs of spaces and tabs
    and a random spelling of each number."""
    lines = ["solid extremes"]

    def statement(words, numbers=()):
        tokens = [*words, *(_spelling(v, rng) for v in numbers)]
        body = tokens[0] + "".join(_blank(rng, 1) + t for t in tokens[1:])
        lines.append(_blank(rng, 1) + body + _blank(rng, 0))

    for normal, *vertices in coords(model.records).tolist():
        statement(("facet", "normal"), normal)
        statement(("outer", "loop"))
        for vertex in vertices:
            statement(("vertex",), vertex)
        statement(("endloop",))
        statement(("endfacet",))
    lines.append("endsolid extremes")
    return "\r\n".join(lines) + "\r\n"


def extremes(seed: int, facets: int = 64) -> tuple[StlModel, str]:
    """A model whose vertices sit at subnormal scale, near 3.4e38, or both
    within one facet, with right-hand-rule normals, and its ASCII rendering:
    CRLF, tabs, and numbers spelled in standard or scientific notation or
    as exact decimals on float32 midpoints."""
    rng = random.Random(seed)
    records = np.zeros(facets, dtype=RECORD_DTYPE)
    for facet in coords(records):
        scales = rng.choice((("tiny",), ("huge",), ("tiny", "huge")))
        facet[1:] = [[_extreme(rng, rng.choice(scales)) for _ in range(3)] for _ in range(3)]
    coords(records)[:, 0] = rhr_normals(coords(records)[:, 1:])[0]
    model = StlModel("extremes", records, StlFormat.ASCII)
    return model, _render(model, rng)
