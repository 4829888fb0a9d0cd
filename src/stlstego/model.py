"""Core STL value types.

A model holds its facets in one numpy record array laid out like the
records of a binary STL (``RECORD_DTYPE``): the stored normal and the three
vertices as little-endian float32, then the 16-bit attribute word. Every
coordinate is therefore exactly what a binary STL can hold on disk.
``Facet`` is the value of one record, made of Python floats on demand.
All types are immutable (a model's record array is read-only); operations
elsewhere in the package return new values, so models are safe to share
between threads.

The array functions at the end of this module are the columnar forms of
``unit_rhr_normal``, ``geometry_key``, ``Facet.is_degenerate`` and Python's
tuple comparison, with the same results bit for bit.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

Vec3 = tuple[float, float, float]

RECORD_DTYPE = np.dtype(
    [
        ("normal", "<f4", (3,)),
        ("v1", "<f4", (3,)),
        ("v2", "<f4", (3,)),
        ("v3", "<f4", (3,)),
        ("attr", "<u2"),
    ]
)
# the same 50 bytes, with the normal and the vertices as one (4, 3) block
_COORDS_DTYPE = np.dtype([("coords", "<f4", (4, 3)), ("attr", "<u2")])


def f32(x: float) -> float:
    """Round to the nearest single-precision value, returned as a float."""
    return float(np.float32(x))


def vec3(x: float, y: float, z: float) -> Vec3:
    return (f32(x), f32(y), f32(z))


class StlFormat(enum.Enum):
    ASCII = "ascii"
    BINARY = "binary"


@dataclass(frozen=True)
class Facet:
    """One triangle: three vertices, a stored normal, and the 16-bit
    attribute word carried by binary STL records (0 for ASCII sources)."""

    v1: Vec3
    v2: Vec3
    v3: Vec3
    normal: Vec3 = (0.0, 0.0, 0.0)
    attribute: int = 0

    @property
    def vertices(self) -> tuple[Vec3, Vec3, Vec3]:
        return (self.v1, self.v2, self.v3)

    def with_vertices(self, verts: tuple[Vec3, Vec3, Vec3]) -> "Facet":
        a, b, c = verts
        return replace(self, v1=a, v2=b, v3=c)

    def is_degenerate(self) -> bool:
        """True when any two vertices coincide under exact comparison."""
        return self.v1 == self.v2 or self.v2 == self.v3 or self.v1 == self.v3


def coords(records: np.ndarray) -> np.ndarray:
    """(n, 4, 3) float32 view of records: the normal, then v1, v2, v3."""
    return records.view(_COORDS_DTYPE)["coords"]


@dataclass(frozen=True, init=False, eq=False)
class StlModel:
    """An ordered facet list plus format metadata.

    Facet order is significant and must survive parse/serialize round
    trips: the ordering itself is one of the data channels. Build a model
    from ``facets``, any iterable of Facet, or from ``records``, a 1-d
    RECORD_DTYPE array the model then owns. Equality compares values, so
    -0.0 equals 0.0.
    """

    solid_name: str
    records: np.ndarray = field(repr=False)
    source_format: StlFormat

    def __init__(
        self,
        solid_name: str = "",
        facets=(),
        source_format: StlFormat = StlFormat.ASCII,
        records: np.ndarray | None = None,
    ):
        if records is None:  # coordinates round to float32
            rows = [(f.normal, f.v1, f.v2, f.v3, f.attribute) for f in facets]
            records = np.array(rows, dtype=RECORD_DTYPE)
        elif facets:
            raise ValueError("give facets or records, not both")
        if records.dtype != RECORD_DTYPE or records.ndim != 1:
            raise ValueError("records must be a 1-d array of RECORD_DTYPE")
        records = records.view()
        records.flags.writeable = False
        object.__setattr__(self, "solid_name", solid_name)
        object.__setattr__(self, "records", records)
        object.__setattr__(self, "source_format", source_format)

    def __len__(self) -> int:
        return len(self.records)

    def __eq__(self, other):
        if not isinstance(other, StlModel):
            return NotImplemented
        return (
            self.solid_name == other.solid_name
            and self.source_format is other.source_format
            and len(self) == len(other)
            and bool((coords(self.records) == coords(other.records)).all())
            and bool((self.records["attr"] == other.records["attr"]).all())
        )

    def __hash__(self):
        # adding zero turns -0.0 into 0.0, as equality does
        return hash((
            self.solid_name,
            self.source_format,
            (coords(self.records) + np.float32(0)).tobytes(),
            self.records["attr"].tobytes(),
        ))

    @cached_property
    def facets(self) -> tuple[Facet, ...]:
        """The facets as Facet values, in order."""
        normal, v1, v2, v3, attr = (self.records[key].tolist() for key in RECORD_DTYPE.names)
        return tuple(
            Facet(tuple(a), tuple(b), tuple(c), tuple(n), t)
            for n, a, b, c, t in zip(normal, v1, v2, v3, attr)
        )

    @property
    def vertices(self) -> np.ndarray:
        """(n, 3, 3) float32 view: v1, v2, v3 of each facet."""
        return coords(self.records)[:, 1:]

    @property
    def normals(self) -> np.ndarray:
        """(n, 3) float32 view of the stored normals."""
        return coords(self.records)[:, 0]

    def with_facets(self, facets) -> "StlModel":
        return StlModel(self.solid_name, tuple(facets), self.source_format)

    def with_records(self, records: np.ndarray) -> "StlModel":
        return StlModel(self.solid_name, source_format=self.source_format, records=records)


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


# --- columnar forms ----------------------------------------------------------


def rhr_normals(vertices: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """unit_rhr_normal of each facet of an (n, 3, 3) vertex array.

    Returns the float32 normals, zero where the area is zero, and the mask
    of nonzero areas. Same operations in the same order as the scalar
    function, so every component is bit-identical to it.
    """
    v = vertices.astype(np.float64)
    ax, ay, az = (v[:, 1] - v[:, 0]).T
    bx, by, bz = (v[:, 2] - v[:, 0]).T
    n = np.stack([ay * bz - az * by, az * bx - ax * bz, ax * by - ay * bx], axis=1)
    nx, ny, nz = n.T
    norm = np.sqrt(nx * nx + ny * ny + nz * nz)
    nonzero = norm != 0.0
    unit = np.divide(n, norm[:, None], out=np.zeros_like(n), where=nonzero[:, None])
    return unit.astype(np.float32), nonzero


def lex_compare(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise -1, 0 or 1, as Python compares the rows as float tuples
    (so -0.0 equals 0.0). a and b have shape (n, k)."""
    rows = np.arange(len(a))
    first = (a != b).argmax(axis=1)
    x, y = a[rows, first], b[rows, first]
    return (x > y).astype(np.int8) - (x < y).astype(np.int8)


def degenerate(vertices: np.ndarray) -> np.ndarray:
    """Facet.is_degenerate of each facet of an (n, 3, 3) vertex array."""
    v1, v2, v3 = vertices[:, 0], vertices[:, 1], vertices[:, 2]
    return (v1 == v2).all(axis=1) | (v2 == v3).all(axis=1) | (v1 == v3).all(axis=1)


def rotate(vertices: np.ndarray, start: np.ndarray) -> np.ndarray:
    """Cyclic rotation of each vertex list so that vertex start[i] leads:
    0 keeps (a, b, c), 1 gives (b, c, a), 2 gives (c, a, b)."""
    order = (start[:, None] + np.arange(3)) % 3
    return np.take_along_axis(vertices, order[:, :, None], axis=1)


def extreme_rotation(vertices: np.ndarray, sign: int) -> np.ndarray:
    """The smallest (sign -1) or largest (sign 1) cyclic rotation of each
    vertex list of an (n, 3, 3) array, flattened to (n, 9). Picked as
    Python's min and max pick among (a, b, c), (b, c, a), (c, a, b), the
    first on ties, so for sign -1 each row is geometry_key."""
    n = len(vertices)
    best = vertices.reshape(n, 9)
    for start in (1, 2):
        key = vertices[:, [start, (start + 1) % 3, (start + 2) % 3]].reshape(n, 9)
        best = np.where((lex_compare(key, best) == sign)[:, None], key, best)
    return best
