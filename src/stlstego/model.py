"""Core STL value types.

A model holds its facets in one numpy record array laid out like the
records of a binary STL (``RECORD_DTYPE``): the stored normal and the three
vertices as little-endian float32, then the 16-bit attribute word. Every
coordinate is therefore exactly what a binary STL can hold on disk.
All types are immutable (a model's record array is read-only); operations
elsewhere in the package return new values, so models are safe to share
between threads.

The array functions at the end of this module state the geometry the
sanitizer preserves: ``rhr_normals`` (the unit right-hand-rule normal),
``extreme_rotation`` (with sign -1, the rotation-invariant geometry key),
``geometry_ranks`` (the keys' order as integers), ``degenerate`` (repeated
vertices) and ``lex_compare`` (Python's tuple comparison). The scalar
per-facet definitions they are checked against, bit for bit, live in the
tests (``tests/scalar_reference.py``).
"""
from __future__ import annotations

import enum
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

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


class StlFormat(enum.Enum):
    ASCII = "ascii"
    BINARY = "binary"


@dataclass(frozen=True)
class Facet:
    """One record as Python values: three vertices and a stored normal,
    each an (x, y, z) tuple of floats, and the 16-bit attribute word."""

    v1: tuple
    v2: tuple
    v3: tuple
    normal: tuple = (0.0, 0.0, 0.0)
    attribute: int = 0

    @property
    def vertices(self) -> tuple:
        return (self.v1, self.v2, self.v3)


def coords(records: np.ndarray) -> np.ndarray:
    """(n, 4, 3) float32 view of records: the normal, then v1, v2, v3."""
    return records.view(_COORDS_DTYPE)["coords"]


@dataclass(frozen=True, eq=False)
class StlModel:
    """An ordered facet list plus format metadata.

    Facet order is significant and must survive parse/serialize round
    trips: the ordering itself is one of the data channels. ``records`` is
    a 1-d RECORD_DTYPE array (empty by default) that the model then owns,
    read-only. Equality compares values, so -0.0 equals 0.0.

    A model computes its geometry once, on first access, and keeps it:
    the read-only ``geometry_keys``, ``geometry_ranks``, ``degenerate`` and
    ``rhr`` arrays, and ``facets``, the records as Facet values (kept for
    ``perfbench/gen.py``, which reads them). A model made by
    ``with_records`` computes its own. Three constructors hand on what
    their source has computed and they cannot change, so every carried
    array equals a fresh computation bit for bit:

    * ``take`` picks facets by index. It carries the keys, the mask and
      ``rhr`` as rows of its source's, since each row is a function of its
      facet's own record. Ranks number the whole model's order, so it
      carries them only when it permutes all facets: a subset can rank
      differently.
    * ``with_normals`` rewrites only the stored normals and attribute
      words, so the vertices stay bit-identical and it carries everything.
    * ``rotated`` turns vertex lists cyclically. It carries ``degenerate``
      and ``geometry_ranks``, which compare vertices as values. It carries
      no keys, because a facet whose vertices are equal as floats can
      change the signed-zero bits of its key, and no ``rhr``, whose
      rounding depends on the vertex order.
    """

    solid_name: str = ""
    records: np.ndarray = field(default_factory=lambda: np.zeros(0, RECORD_DTYPE), repr=False)
    source_format: StlFormat = StlFormat.ASCII

    def __post_init__(self):
        if self.records.dtype != RECORD_DTYPE or self.records.ndim != 1:
            raise ValueError("records must be a 1-d array of RECORD_DTYPE")
        object.__setattr__(self, "records", _read_only(self.records.view()))

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

    @cached_property
    def geometry_keys(self) -> np.ndarray:
        """(n, 9) float32: each facet's vertex list in its smallest cyclic
        rotation, flattened. Equal rows mean the same triangle."""
        return _read_only(extreme_rotation(self.vertices, -1))

    @cached_property
    def geometry_ranks(self) -> np.ndarray:
        """int64: each facet's rank among the geometry keys. Equal ranks
        mean the same triangle, and ranks order facets as their keys do."""
        return _read_only(geometry_ranks(self.geometry_keys))

    @cached_property
    def degenerate(self) -> np.ndarray:
        """True for each facet with two equal vertices."""
        return _read_only(degenerate(self.vertices))

    @cached_property
    def rhr(self) -> tuple[np.ndarray, np.ndarray]:
        """rhr_normals of the vertices: the (n, 3) float32 unit normals, zero
        where the area is zero, and the mask of nonzero areas."""
        normals, nonzero = rhr_normals(self.vertices)
        return _read_only(normals), _read_only(nonzero)

    @property
    def vertices(self) -> np.ndarray:
        """(n, 3, 3) float32 view: v1, v2, v3 of each facet."""
        return coords(self.records)[:, 1:]

    @property
    def normals(self) -> np.ndarray:
        """(n, 3) float32 view of the stored normals."""
        return coords(self.records)[:, 0]

    def with_records(self, records: np.ndarray) -> "StlModel":
        return StlModel(self.solid_name, records, self.source_format)

    def take(self, order: np.ndarray) -> "StlModel":
        """The model whose facet i is this model's facet order[i]."""
        order = np.asarray(order)
        names = ["geometry_keys", "degenerate", "rhr"]
        if "geometry_ranks" in self.__dict__ and len(order) == len(self):
            hit = np.zeros(len(self), dtype=bool)
            hit[order] = True
            if hit.all():  # n indices that hit all n facets: a permutation
                names.append("geometry_ranks")
        return self._carrying(self.records.take(order), names, order)

    def with_normals(self, normals: np.ndarray, attr) -> "StlModel":
        """This model with the stored normals and attribute words replaced;
        the vertices, and so every cached array, stay as they are."""
        records = self.records.copy()
        coords(records)[:, 0] = normals
        records["attr"] = attr
        return self._carrying(records, ["geometry_keys", "geometry_ranks", "degenerate", "rhr"])

    def rotated(self, starts: np.ndarray) -> "StlModel":
        """This model with each vertex list rotated as ``rotate`` does."""
        records = self.records.copy()
        coords(records)[:, 1:] = rotate(self.vertices, starts)
        return self._carrying(records, ["geometry_ranks", "degenerate"])

    def _carrying(self, records: np.ndarray, names, order=None) -> "StlModel":
        """with_records(records), handed the named arrays this model has
        computed: their rows order[i], or all of them when order is None."""
        out = self.with_records(records)
        for name in names:
            if name in self.__dict__:
                value = self.__dict__[name]
                if order is not None:
                    value = _take_rows(value, order)
                out.__dict__[name] = value
        return out


def _take_rows(value, order: np.ndarray):
    if isinstance(value, tuple):
        return tuple(_take_rows(array, order) for array in value)
    return _read_only(value.take(order, axis=0))


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


# --- columnar forms ----------------------------------------------------------


def rhr_normals(vertices: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Unit right-hand-rule normal of each facet of an (n, 3, 3) vertex array.

    cross(v2 - v1, v3 - v1), normalized in double precision and rounded to
    float32 component-wise. Returns the normals, zero where the area is
    zero, and the mask of nonzero areas.
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


def geometry_ranks(keys: np.ndarray) -> np.ndarray:
    """Dense int64 rank of each row of an (n, k) float32 array: rows equal
    as float tuples (so -0.0 equals 0.0) share a rank, and rank order is
    lex_compare order. NaN, which no parser lets into a model, has none.

    Adding +0.0 turns -0.0 into 0.0. Each float then maps to a big-endian
    u32 whose unsigned order is the float order (a negative float's bits
    inverted, a positive one's sign bit set), so each row's bytes compare
    as the row does, and one stable argsort of the rows as void scalars
    sorts them.
    """
    bits = (keys + np.float32(0)).view(np.uint32)
    words = np.where(bits >> 31 != 0, ~bits, bits | np.uint32(1 << 31)).astype(">u4")
    rows = words.view(f"V{4 * keys.shape[1]}").reshape(-1)
    order = np.argsort(rows, kind="stable")
    ordered = rows[order]
    ranks = np.empty(len(rows), dtype=np.int64)
    ranks[order] = np.cumsum(np.append(False, ordered[1:] != ordered[:-1]))
    return ranks


def lex_compare(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise -1, 0 or 1, as Python compares the rows as float tuples
    (so -0.0 equals 0.0). a and b have shape (n, k)."""
    rows = np.arange(len(a))
    first = (a != b).argmax(axis=1)
    x, y = a[rows, first], b[rows, first]
    return (x > y).astype(np.int8) - (x < y).astype(np.int8)


def degenerate(vertices: np.ndarray) -> np.ndarray:
    """True for each facet of an (n, 3, 3) vertex array in which two
    vertices are equal (exact comparison, so -0.0 equals 0.0)."""
    v1, v2, v3 = vertices[:, 0], vertices[:, 1], vertices[:, 2]
    return (v1 == v2).all(axis=1) | (v2 == v3).all(axis=1) | (v1 == v3).all(axis=1)


# row s lists a vertex list's indices in the order that starts at vertex s
_TURNS = np.array([[0, 1, 2], [1, 2, 0], [2, 0, 1]])


def rotate(vertices: np.ndarray, start: np.ndarray) -> np.ndarray:
    """Cyclic rotation of each vertex list so that vertex start[i] leads:
    0 keeps (a, b, c), 1 gives (b, c, a), 2 gives (c, a, b)."""
    return vertices[np.arange(len(vertices))[:, None], _TURNS[start]]


def rotation_starts(vertices: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """For each vertex list of an (n, 3, 3) array, the first start whose
    rotation equals its row of the (n, 9) rows as floats; each row must be
    a rotation of its list. The first is the one extreme_rotation picks."""
    n = len(vertices)
    first, second = (
        (vertices[:, _TURNS[start]].reshape(n, 9) == rows).all(axis=1) for start in (0, 1)
    )
    return np.where(first, 0, np.where(second, 1, 2))


def extreme_rotation(vertices: np.ndarray, sign: int) -> np.ndarray:
    """The smallest (sign -1) or largest (sign 1) cyclic rotation of each
    vertex list of an (n, 3, 3) array, flattened to (n, 9). Picked as
    Python's min and max pick among (a, b, c), (b, c, a), (c, a, b), the
    first on ties. With sign -1 each row is the facet's geometry key: the
    same for all three rotations, and free of the normal and attribute."""
    n = len(vertices)
    best = vertices.reshape(n, 9)
    for start in (1, 2):
        key = vertices[:, _TURNS[start]].reshape(n, 9)
        best = np.where((lex_compare(key, best) == sign)[:, None], key, best)
    return best
