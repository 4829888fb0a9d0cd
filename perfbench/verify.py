"""The benchmark's own STL reader and output checks.

This module imports numpy only, never stlstego: a check must not call the
code it checks. It reads what the program wrote and tests the properties
the sanitizer and the text channels promise.
"""
from __future__ import annotations

import re
import struct
from pathlib import Path

import numpy as np

RECORD = np.dtype(
    [
        ("normal", "<f4", (3,)),
        ("v1", "<f4", (3,)),
        ("v2", "<f4", (3,)),
        ("v3", "<f4", (3,)),
        ("attr", "<u2"),
    ]
)

# Token columns of one ASCII facet: facet normal nx ny nz outer loop
# vertex x y z (x3) endloop endfacet.
_FACET_TOKENS = 21
_KEYWORDS = {0: "facet", 1: "normal", 5: "outer", 6: "loop", 7: "vertex",
             11: "vertex", 15: "vertex", 19: "endloop", 20: "endfacet"}
NUMBER_COLUMNS = [2, 3, 4, 8, 9, 10, 12, 13, 14, 16, 17, 18]
INDENT_WIDTHS = (2, 4, 6, 6, 6, 4, 2)
_CLEAN_NAME = re.compile(r"[A-Za-z0-9_-]{0,64}\Z")


class Unreadable(Exception):
    """The bytes are not an STL file of the expected format."""


# --- geometry helpers, shared with the input generator ----------------------

def lex_less(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise lexicographic a < b over the last axis (0.0 equals -0.0)."""
    ne = a != b
    first = ne.argmax(axis=-1)[..., None]
    a_first = np.take_along_axis(a, first, -1)[..., 0]
    b_first = np.take_along_axis(b, first, -1)[..., 0]
    return ne.any(axis=-1) & (a_first < b_first)


def extreme_vertex(vertices: np.ndarray, largest: bool) -> np.ndarray:
    """Index 0..2 of each facet's lexicographically largest or smallest vertex."""
    rows = np.arange(len(vertices))
    best = np.zeros(len(vertices), dtype=np.intp)
    for k in (1, 2):
        current = vertices[rows, best]
        if largest:
            better = lex_less(current, vertices[:, k])
        else:
            better = lex_less(vertices[:, k], current)
        best = np.where(better, k, best)
    return best


def rotate_to(vertices: np.ndarray, start: np.ndarray) -> np.ndarray:
    """Cyclically rotate each vertex list so that vertex `start` comes first."""
    order = (start[:, None] + np.arange(3)) % 3
    return np.take_along_axis(vertices, order[:, :, None], axis=1)


def canonical_rows(vertices: np.ndarray) -> np.ndarray:
    """(n, 9) vertex lists rotated so the smallest vertex comes first."""
    start = extreme_vertex(vertices, largest=False)
    return rotate_to(vertices, start).reshape(len(vertices), 9)


def sorted_rows(rows: np.ndarray) -> np.ndarray:
    return rows[np.lexsort(rows.T[::-1])]


def rhr_normals(vertices: np.ndarray) -> np.ndarray:
    """Unit right-hand-rule normals in float64, rounded to float32.

    The operations run in the same order as the scalar definition, so the
    result is bit-exact; zero-area facets get a zero normal.
    """
    v = vertices.astype(np.float64)
    a = v[:, 1] - v[:, 0]
    b = v[:, 2] - v[:, 0]
    nx = a[:, 1] * b[:, 2] - a[:, 2] * b[:, 1]
    ny = a[:, 2] * b[:, 0] - a[:, 0] * b[:, 2]
    nz = a[:, 0] * b[:, 1] - a[:, 1] * b[:, 0]
    norm = np.sqrt(nx * nx + ny * ny + nz * nz)
    zero = norm == 0.0
    norm[zero] = 1.0
    normals = np.stack([nx / norm, ny / norm, nz / norm], axis=1)
    normals[zero] = 0.0
    return normals.astype(np.float32)


def positional(value: np.float32) -> str:
    """Shortest round-trip positional spelling; zero of either sign is "0"."""
    if value == 0:
        return "0"
    return np.format_float_positional(np.float32(value), unique=True, trim="-")


# --- reader -----------------------------------------------------------------

class Stl:
    """A parsed file: name, float32 normals (n, 3) and vertices (n, 3, 3).

    For ASCII files `numbers` holds the numeric tokens (n, 12) and `lines`
    the facet lines, so notation and indentation can be inspected.
    """

    def __init__(self, name, normals, vertices, attrs=None, numbers=None, lines=None):
        self.name = name
        self.normals = normals
        self.vertices = vertices
        self.attrs = attrs
        self.numbers = numbers
        self.lines = lines


def read_ascii(data: bytes) -> Stl:
    try:
        text = data.decode("ascii")
    except UnicodeDecodeError as exc:
        raise Unreadable(f"not ASCII: {exc}") from None
    lines = [line for line in text.split("\n") if line.strip()]
    if len(lines) < 2:
        raise Unreadable("too short for solid ... endsolid")
    head, tail = lines[0].split(None, 1), lines[-1].split(None, 1)
    if head[0] != "solid" or tail[0] != "endsolid":
        raise Unreadable("missing solid/endsolid")
    body = lines[1:-1]
    tokens = " ".join(body).split()
    if len(tokens) % _FACET_TOKENS or len(body) != len(tokens) // _FACET_TOKENS * 7:
        raise Unreadable("facet statements are not 7 lines of 21 tokens")
    grid = np.array(tokens, dtype=object).reshape(-1, _FACET_TOKENS)
    for column, word in _KEYWORDS.items():
        if not (grid[:, column] == word).all():
            raise Unreadable(f"expected keyword {word!r} in every facet")
    numbers = grid[:, NUMBER_COLUMNS]
    try:
        values = numbers.astype(np.float64).astype(np.float32)
    except ValueError as exc:
        raise Unreadable(f"bad number: {exc}") from None
    if not np.isfinite(values).all():
        raise Unreadable("non-finite number")
    name = head[1].strip() if len(head) > 1 else ""
    return Stl(name, values[:, :3], values[:, 3:].reshape(-1, 3, 3),
               numbers=numbers, lines=body)


def read_binary(data: bytes) -> Stl:
    if len(data) < 84:
        raise Unreadable("shorter than the 84-byte binary header")
    count = struct.unpack_from("<I", data, 80)[0]
    if len(data) != 84 + 50 * count:
        raise Unreadable("length does not match the facet count")
    records = np.frombuffer(data, dtype=RECORD, count=count, offset=84)
    vertices = np.stack([records["v1"], records["v2"], records["v3"]], axis=1)
    if not (np.isfinite(vertices).all() and np.isfinite(records["normal"]).all()):
        raise Unreadable("non-finite coordinate")
    name = data[:80].split(b"\x00", 1)[0].decode("ascii", errors="replace").strip()
    return Stl(name, records["normal"].copy(), vertices, attrs=records["attr"].copy())


def read(data: bytes, fmt: str) -> Stl:
    return read_ascii(data) if fmt == "ascii" else read_binary(data)


def notation_bits(stl: Stl) -> np.ndarray:
    """Number channel as written: 1 where a token uses scientific notation."""
    flat = stl.numbers.ravel()
    return np.fromiter((("e" in t) or ("E" in t) for t in flat), dtype=bool, count=len(flat))


def indent_bits(stl: Stl) -> np.ndarray:
    """Whitespace channel as written: 1 where a facet line is indented with tabs."""
    return np.fromiter(
        ("\t" in line[: len(line) - len(line.lstrip(" \t"))] for line in stl.lines),
        dtype=bool,
        count=len(stl.lines),
    )


def canonical_ascii(name: str, normals: np.ndarray, vertices: np.ndarray) -> bytes:
    """The canonical ASCII text of a model, built independently of the writer."""
    n = len(normals)
    values = np.concatenate([normals[:, None, :], vertices], axis=1).reshape(-1)
    unique, inverse = np.unique(values, return_inverse=True)
    spelled = np.array([positional(u) for u in unique], dtype=object)[inverse.reshape(-1)]
    spelled = spelled.reshape(n, 12)
    lines = [f"solid {name}" if name else "solid"]
    for row in spelled:
        lines.append("  facet normal %s %s %s" % tuple(row[0:3]))
        lines.append("    outer loop")
        lines.append("      vertex %s %s %s" % tuple(row[3:6]))
        lines.append("      vertex %s %s %s" % tuple(row[6:9]))
        lines.append("      vertex %s %s %s" % tuple(row[9:12]))
        lines.append("    endloop")
        lines.append("  endfacet")
    lines.append(f"endsolid {name}" if name else "endsolid")
    return ("\n".join(lines) + "\n").encode("ascii")


def channel_capacities(vertices: np.ndarray) -> dict[str, int]:
    """Capacity of every channel of an ASCII file, as `stlstego capacity`
    should print it."""
    v = vertices
    degenerate = ((v[:, 0] == v[:, 1]).all(1) | (v[:, 1] == v[:, 2]).all(1)
                  | (v[:, 0] == v[:, 2]).all(1))
    usable = np.flatnonzero(~degenerate)
    rows = canonical_rows(v[usable])
    pairs = len(usable) // 2 * 2
    facet = int((rows[0:pairs:2] != rows[1:pairs:2]).any(1).sum())
    quads = len(usable) // 4 * 4
    first = _pair_rows(rows[0:quads:4], rows[1:quads:4])
    second = _pair_rows(rows[2:quads:4], rows[3:quads:4])
    robust = int((first != second).any(1).sum())
    normal = int((rhr_normals(v[usable]) != 0).any(1).sum())
    return {
        "facet": facet,
        "vertex": len(usable),
        "normal": normal,
        "number": 12 * len(v),
        "whitespace": 7 * len(v),
        "robust-pair": robust,
    }


def _pair_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """An unordered pair of canonical facets as one row, smaller facet first."""
    swap = lex_less(b, a)[:, None]
    return np.concatenate([np.where(swap, b, a), np.where(swap, a, b)], axis=1)


def payload_bits(path: str, k: int) -> np.ndarray:
    return np.unpackbits(np.frombuffer(Path(path).read_bytes(), dtype=np.uint8))[:k].astype(bool)


# --- checks -----------------------------------------------------------------

def check_sanitized(data: bytes, fmt: str, expect_rows: np.ndarray) -> list[str]:
    """Problems with one sanitized file; an empty list means it passed."""
    try:
        out = read(data, fmt)
    except Unreadable as exc:
        return [f"output does not reparse: {exc}"]
    problems = []
    if len(out.vertices) != len(expect_rows):
        problems.append(f"{len(out.vertices)} facets written, {len(expect_rows)} read")
    elif not np.array_equal(sorted_rows(canonical_rows(out.vertices)), expect_rows):
        problems.append("multiset of canonical triangles changed")
    if not np.array_equal(out.normals, rhr_normals(out.vertices)):
        problems.append("a stored normal is not the right-hand-rule normal")
    if fmt == "binary" and out.attrs.any():
        problems.append("nonzero attribute word")
    if fmt == "ascii":
        if not _CLEAN_NAME.match(out.name):
            problems.append(f"solid name {out.name!r} is not normalized")
        elif data != canonical_ascii(out.name, out.normals, out.vertices):
            problems.append("ASCII output is not canonical")
    return problems


def check_capacity(stdout: str, expected: dict) -> list[str]:
    printed = {}
    for line in stdout.splitlines()[1:]:
        fields = line.split()
        if len(fields) != 2:
            return [f"unreadable capacity line {line!r}"]
        name, value = fields
        printed[name] = int(value) if value.isdigit() else value
    if printed != expected:
        return [f"capacity printed {printed}, expected {expected}"]
    return []


def check_embedded(data: bytes, values: np.ndarray, channels: dict) -> list[str]:
    """An embed output keeps every value and carries each channel's bits.

    `channels` maps "number" or "whitespace" to (payload path, bit count).
    """
    try:
        out = read_ascii(data)
    except Unreadable as exc:
        return [f"embed output does not reparse: {exc}"]
    values_out = np.concatenate([out.normals[:, None, :], out.vertices], axis=1).reshape(-1, 12)
    problems = []
    if not np.array_equal(values_out, values):
        problems.append("embedding changed a number's value")
    readers = {"number": notation_bits, "whitespace": indent_bits}
    for channel, (path, k) in channels.items():
        if not np.array_equal(readers[channel](out)[:k], payload_bits(path, k)):
            problems.append(f"{channel} channel does not carry the payload")
    return problems


def check_extracted(data: bytes, payload_path: str, k: int) -> list[str]:
    expected = np.packbits(payload_bits(payload_path, k)).tobytes()
    if data != expected:
        return ["extracted payload differs from the embedded one"]
    return []


def check_experiment(record: dict) -> list[str]:
    """A survival experiment: every statistical gate passes, and the
    normal channel keeps exactly the bits that were 0."""
    if record.get("error"):
        return [record["error"]]
    problems = [f"gate failed: {name} ({detail})" for name, passed, detail in record["gates"]
                if not passed]
    cells = np.load(record["cells"])
    payload = np.load(record["payload"])
    if cells.shape != (record["trials"], len(payload)):
        problems.append(f"survival matrix has shape {cells.shape}")
    elif record["channel"] == "normal" and not (cells == ~payload).all():
        problems.append("normal scrub kept a 1 bit or lost a 0 bit")
    return problems
