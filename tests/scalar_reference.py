"""Scalar definitions that only the tests use.

The per-facet geometry the package states in columns: float32 rounding,
the unit right-hand-rule normal, the rotation-invariant geometry key and
the degeneracy test, spelled out on `Facet` values and Python tuple
comparison. Also facet comparison and canonical rotation, the helpers the
tests build models with, and MSB-first bit packing byte by byte. The
package works on whole columns instead (`stlstego.model`,
`stlstego.bits`); these are the scalar statements it is checked against.
"""
import enum
import math
from dataclasses import replace

import numpy as np

from stlstego import Facet, StlFormat, StlModel
from stlstego.errors import StlStegoError
from stlstego.model import RECORD_DTYPE

Vec3 = tuple[float, float, float]


class DegenerateFacetError(StlStegoError):
    """Operation requires three pairwise distinct vertices."""


class Ordering(enum.IntEnum):
    LESS = -1
    EQUAL = 0
    GREATER = 1


def f32(x: float) -> float:
    """Round to the nearest single-precision value, returned as a float."""
    return float(np.float32(x))


def vec3(x: float, y: float, z: float) -> Vec3:
    return (f32(x), f32(y), f32(z))


def is_degenerate(facet: Facet) -> bool:
    """True when any two vertices coincide under exact comparison."""
    return facet.v1 == facet.v2 or facet.v2 == facet.v3 or facet.v1 == facet.v3


def unit_rhr_normal(v1: Vec3, v2: Vec3, v3: Vec3) -> Vec3 | None:
    """Unit right-hand-rule normal of a triangle, or None for zero area.

    cross(v2 - v1, v3 - v1), normalized. Evaluated in double precision,
    rounded back to single precision component-wise.
    """
    ax, ay, az = v2[0] - v1[0], v2[1] - v1[1], v2[2] - v1[2]
    bx, by, bz = v3[0] - v1[0], v3[1] - v1[1], v3[2] - v1[2]
    nx = ay * bz - az * by
    ny = az * bx - ax * bz
    nz = ax * by - ay * bx
    norm = math.sqrt(nx * nx + ny * ny + nz * nz)
    if norm == 0.0:
        return None
    return vec3(nx / norm, ny / norm, nz / norm)


def geometry_key(facet: Facet) -> tuple[Vec3, Vec3, Vec3]:
    """Rotation-invariant identity of a facet's triangle.

    The lexicographically smallest of the three cyclic rotations of the
    vertex list. Stored normals and attribute words are excluded; they
    carry no geometry. Defined for degenerate facets as well.
    """
    a, b, c = facet.v1, facet.v2, facet.v3
    return min((a, b, c), (b, c, a), (c, a, b))


def model_from_facets(name: str = "", facets=(), fmt: StlFormat = StlFormat.ASCII) -> StlModel:
    """A model of these Facet values, in order; coordinates round to float32."""
    rows = [(f.normal, f.v1, f.v2, f.v3, f.attribute) for f in facets]
    return StlModel(name, np.array(rows, dtype=RECORD_DTYPE), fmt)


def with_vertices(facet: Facet, verts: tuple[Vec3, Vec3, Vec3]) -> Facet:
    a, b, c = verts
    return replace(facet, v1=a, v2=b, v3=c)


def with_facets(model: StlModel, facets) -> StlModel:
    return model_from_facets(model.solid_name, facets, model.source_format)


def max_vertex(a: Vec3, b: Vec3) -> Vec3:
    """The larger vertex, comparing x, then y, then z; returns a on a tie."""
    return a if a >= b else b


def _canonical_key(facet: Facet) -> tuple[Vec3, Vec3, Vec3]:
    if is_degenerate(facet):
        raise DegenerateFacetError("facet has repeated vertices")
    return geometry_key(facet)


def canonical_vertex_rotation(facet: Facet) -> Facet:
    """Rotate the vertex list so the smallest vertex comes first.

    Normal and attribute are unchanged. Idempotent, and all three rotations
    of a facet map to the same output.
    """
    return with_vertices(facet, _canonical_key(facet))


def compare_facets(f: Facet, g: Facet) -> Ordering:
    """Total preorder on facets: canonical vertex triples, lexicographically."""
    cf = _canonical_key(f)
    cg = _canonical_key(g)
    if cf < cg:
        return Ordering.LESS
    if cf > cg:
        return Ordering.GREATER
    return Ordering.EQUAL


def unpack_bits(data: bytes, length: int | None = None) -> list[int]:
    """Bytes to bits MSB-first, truncated or zero-padded to length."""
    bits = []
    for byte in data:
        for shift in range(7, -1, -1):
            bits.append((byte >> shift) & 1)
    if length is not None:
        bits = bits[:length] + [0] * (length - len(bits))
    return bits


def pack_bits(bits) -> bytes:
    """Bits to bytes MSB-first, zero-padding the final partial byte."""
    bits = list(bits)
    out = bytearray()
    for i in range(0, len(bits), 8):
        chunk = bits[i : i + 8]
        byte = 0
        for b in chunk:
            byte = (byte << 1) | b
        out.append(byte << (8 - len(chunk)))
    return bytes(out)
