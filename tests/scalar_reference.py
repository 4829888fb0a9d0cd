"""Scalar definitions that only the tests use.

Facet comparison and canonical rotation spelled out on `Facet` values and
Python tuple comparison, plus the two copy-with-changes helpers the tests
build models with, and MSB-first bit packing byte by byte. The package
works on whole columns instead (`stlstego.model`, `stlstego.bits`); these
are the scalar statements it is checked against.
"""
import enum
from dataclasses import replace

from stlstego import Facet, StlModel, Vec3, geometry_key
from stlstego.errors import StlStegoError


class DegenerateFacetError(StlStegoError):
    """Operation requires three pairwise distinct vertices."""


class Ordering(enum.IntEnum):
    LESS = -1
    EQUAL = 0
    GREATER = 1


def with_vertices(facet: Facet, verts: tuple[Vec3, Vec3, Vec3]) -> Facet:
    a, b, c = verts
    return replace(facet, v1=a, v2=b, v3=c)


def with_facets(model: StlModel, facets) -> StlModel:
    return StlModel(model.solid_name, tuple(facets), model.source_format)


def max_vertex(a: Vec3, b: Vec3) -> Vec3:
    """The larger vertex, comparing x, then y, then z; returns a on a tie."""
    return a if a >= b else b


def _canonical_key(facet: Facet) -> tuple[Vec3, Vec3, Vec3]:
    if facet.is_degenerate():
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
