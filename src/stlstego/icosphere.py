"""Icosphere generation, the built-in test carrier.

Subdividing the icosahedron s times gives 20 * 4**s facets; s=4 yields 5120
facets, enough to hold a 1024-bit payload in every channel of interest.
"""
from __future__ import annotations

import numpy as np

from .model import RECORD_DTYPE, StlFormat, StlModel, rhr_normals

_GOLDEN = (1.0 + 5.0**0.5) / 2.0
_RADIUS = 25.0

_ICO_VERTICES = [
    (-1, _GOLDEN, 0), (1, _GOLDEN, 0), (-1, -_GOLDEN, 0), (1, -_GOLDEN, 0),
    (0, -1, _GOLDEN), (0, 1, _GOLDEN), (0, -1, -_GOLDEN), (0, 1, -_GOLDEN),
    (_GOLDEN, 0, -1), (_GOLDEN, 0, 1), (-_GOLDEN, 0, -1), (-_GOLDEN, 0, 1),
]

_ICO_FACES = [
    (0, 11, 5), (0, 5, 1), (0, 1, 7), (0, 7, 10), (0, 10, 11),
    (1, 5, 9), (5, 11, 4), (11, 10, 2), (10, 7, 6), (7, 1, 8),
    (3, 9, 4), (3, 4, 2), (3, 2, 6), (3, 6, 8), (3, 8, 9),
    (4, 9, 5), (2, 4, 11), (6, 2, 10), (8, 6, 7), (9, 8, 1),
]


def _project(p: np.ndarray) -> np.ndarray:
    """Points of an (..., 3) array moved onto the sphere of _RADIUS."""
    return p / np.sqrt(np.einsum("...i,...i->...", p, p))[..., None] * _RADIUS


def generate_test_mesh(subdivisions: int) -> StlModel:
    """Icosphere of radius 25 with 20 * 4**subdivisions facets and outward
    RHR normals."""
    if not 0 <= subdivisions <= 6:
        raise ValueError("subdivisions must be in [0, 6]")

    tris = _project(np.array(_ICO_VERTICES, dtype=np.float64))[_ICO_FACES]
    a, b, c = tris.transpose(1, 0, 2)
    # orient outward: normal must point away from the sphere center
    inward = np.einsum("ij,ij->i", np.cross(b - a, c - a), a + b + c) < 0
    tris[inward] = tris[inward][:, [0, 2, 1]]

    for _ in range(subdivisions):
        a, b, c = tris.transpose(1, 0, 2)
        ab = _project((a + b) / 2.0)
        bc = _project((b + c) / 2.0)
        ca = _project((c + a) / 2.0)
        tris = np.stack([a, ab, ca, b, bc, ab, c, ca, bc, ab, bc, ca], axis=1).reshape(-1, 3, 3)

    records = np.zeros(len(tris), dtype=RECORD_DTYPE)
    vertices = tris.astype(np.float32)
    records["normal"] = rhr_normals(vertices)[0]
    records["v1"], records["v2"], records["v3"] = vertices.transpose(1, 0, 2)
    return StlModel(
        solid_name=f"icosphere_{subdivisions}",
        records=records,
        source_format=StlFormat.ASCII,
    )
