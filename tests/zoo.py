"""Seeded test meshes with the features real exports have.

Each generator returns a model and an ASCII rendering of it that parses to
the model's exact bits. The renderings vary everything the grammar allows
without changing a value, so a reader or a channel that gets the number
grammar, the float32 range or the whitespace rules wrong shows it. The
dirty export, CAD-like and heightfield generators also return binary files
of the model under the headers exporters write.
"""
import math
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
    lines = [f"solid {model.solid_name}"]

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
    lines.append(f"endsolid {model.solid_name}")
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


def _binary(model: StlModel, header: bytes) -> bytes:
    return header.ljust(80, b"\x00") + struct.pack("<I", len(model)) + model.records.tobytes()


def _coordinate(rng: random.Random) -> float:
    """A float32 in [-20, 20], or a zero of either sign."""
    kind = rng.randrange(10)
    return (-0.0, 0.0)[kind] if kind < 2 else float(np.float32(rng.uniform(-20, 20)))


def dirty_export(seed: int, facets: int = 200) -> tuple[StlModel, str, list[bytes]]:
    """A model as a careless exporter writes it: repeated facets, some
    rotated; coincident and collinear zero-area slivers; -0.0 coordinates;
    stored normals that follow the right-hand rule, are zero or are
    flipped; and nonzero attribute words, as colour-writing exporters set
    them. Returns the model, its ASCII rendering and three binary files of
    it, whose headers open with `solid `, hold Materialise-style `COLOR=`
    and `MATERIAL=` bytes, or hold a name with spaces."""
    rng = random.Random(seed)
    triangles = []
    for _ in range(facets):
        kind = rng.randrange(10)
        a, b, c = ([_coordinate(rng) for _ in range(3)] for _ in range(3))
        if kind == 0 and triangles:  # a repeated facet, maybe rotated
            a, b, c = rng.choice(triangles)
            a, b, c = rng.choice(((a, b, c), (b, c, a), (c, a, b)))
        elif kind == 1:  # a coincident sliver
            a, b, c = rng.choice(((a, a, b), (a, b, a), (a, a, a)))
        elif kind == 2:  # a collinear sliver, along an axis
            axis = rng.randrange(3)
            b, c = list(a), list(a)
            b[axis], c[axis] = _coordinate(rng), _coordinate(rng)
        triangles.append((a, b, c))
    records = np.zeros(facets, dtype=RECORD_DTYPE)
    coords(records)[:, 1:] = triangles
    # right-hand rule, zero (so -0.0 where it was negative) or flipped
    sign = np.array([rng.choice((1, 0, -1)) for _ in range(facets)], dtype=np.float32)
    coords(records)[:, 0] = rhr_normals(coords(records)[:, 1:])[0] * sign[:, None]
    records["attr"] = [rng.choice((0, 0x8000 | rng.randrange(1 << 15), rng.randrange(1 << 16)))
                       for _ in range(facets)]
    model = StlModel("part 7 rev-b", records, StlFormat.BINARY)
    name, colours = model.solid_name.encode("ascii"), bytes(rng.randrange(256) for _ in range(16))
    headers = (b"solid " + name, b"COLOR=" + colours[:4] + b",MATERIAL=" + colours[4:], name)
    return model, _render(model, rng), [_binary(model, header) for header in headers]


def cad_like(seed: int) -> tuple[StlModel, str, list[bytes]]:
    """A box and a 24-segment cylinder, every vertex on a 0.5 mm grid, with
    right-hand-rule normals that point outwards: few distinct values, and
    axis-aligned normals whose zero components include -0.0. Returns the
    model, its ASCII rendering and a binary file of it whose header opens
    with `solid `."""
    rng = random.Random(seed)

    def grid(lo: float, hi: float) -> float:
        return rng.randint(int(2 * lo), int(2 * hi)) / 2

    triangles, centres = [], []
    lo = [grid(-20, 0) for _ in range(3)]
    hi = [x + grid(1, 20) for x in lo]
    for axis in range(3):  # two triangles for each face of the box
        u, v = (axis + 1) % 3, (axis + 2) % 3
        for side in (lo, hi):
            corners = []
            for cu, cv in ((lo, lo), (hi, lo), (hi, hi), (lo, hi)):
                corner = [0.0] * 3
                corner[axis], corner[u], corner[v] = side[axis], cu[u], cv[v]
                corners.append(corner)
            triangles += [corners[:3], [corners[0], *corners[2:]]]
    centres += [[(a + b) / 2 for a, b in zip(lo, hi)]] * 12
    radius, x, y = grid(5, 15), hi[0] + grid(20, 30), grid(-10, 10)
    bottom, top = grid(-10, 0), grid(1, 20)
    rim = [[round(2 * (x + radius * math.cos(k * math.pi / 12))) / 2,
            round(2 * (y + radius * math.sin(k * math.pi / 12))) / 2] for k in range(24)]
    for p, q in zip(rim, rim[1:] + rim[:1]):  # a cap, bottom and top, and the side
        triangles += [[[x, y, bottom], p + [bottom], q + [bottom]], [[x, y, top], p + [top], q + [top]],
                      [p + [bottom], q + [bottom], q + [top]], [p + [bottom], q + [top], p + [top]]]
    centres += [[x, y, (bottom + top) / 2]] * 96
    vertices = np.array(triangles, dtype=np.float32)
    # wind each triangle so that its normal points away from its solid's centre
    outwards = (rhr_normals(vertices)[0] * (vertices.mean(axis=1) - centres)).sum(axis=1)
    vertices[outwards < 0] = vertices[outwards < 0][:, [0, 2, 1]]
    records = np.zeros(len(vertices), dtype=RECORD_DTYPE)
    coords(records)[:, 1:] = vertices
    coords(records)[:, 0] = rhr_normals(vertices)[0]
    model = StlModel("cad_like", records, StlFormat.BINARY)
    return model, _render(model, rng), [_binary(model, b"solid cad_like".ljust(80))]


def heightfield(seed: int) -> tuple[StlModel, str, list[bytes]]:
    """A terrain patch as a heightfield exporter writes it: a grid of shared
    vertices whose cells are 25 to 40 times longer than they are wide, so
    every triangle is thin, with heights from a smooth seeded surface and two
    triangles per cell, wound so that the right-hand-rule normals point up.
    Returns the model, its ASCII rendering and a binary file of it."""
    rng = random.Random(seed)
    columns, rows = 24, 8
    width = rng.uniform(0.2, 0.5)
    length = width * rng.uniform(25, 40)
    x, y = np.meshgrid(np.arange(columns + 1) * width, np.arange(rows + 1) * length)
    # three waves, whose phase moves by at most two radians along each side
    z = sum(
        rng.uniform(0.2, 1.0) * np.sin(rng.uniform(0.5, 2) * x / (columns * width)
                                       + rng.uniform(0.5, 2) * y / (rows * length)
                                       + rng.uniform(0, 2 * math.pi))
        for _ in range(3)
    )
    grid = np.stack([x, y, z], axis=-1).astype(np.float32)
    p00, p10 = grid[:-1, :-1], grid[:-1, 1:]
    p01, p11 = grid[1:, :-1], grid[1:, 1:]
    # counter-clockwise seen from above, cell by cell
    vertices = np.stack([np.stack([p00, p10, p11], axis=2), np.stack([p00, p11, p01], axis=2)],
                        axis=2).reshape(-1, 3, 3)
    records = np.zeros(len(vertices), dtype=RECORD_DTYPE)
    coords(records)[:, 1:] = vertices
    coords(records)[:, 0] = rhr_normals(vertices)[0]
    model = StlModel("heightfield", records, StlFormat.BINARY)
    return model, _render(model, rng), [_binary(model, b"heightfield")]
