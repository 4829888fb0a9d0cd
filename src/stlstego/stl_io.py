"""Parsing and serialization for ASCII and binary STL.

Binary layout is the de-facto standard: an 80-byte header, a little-endian
u32 facet count, then 50-byte records of 12 little-endian f32 values in the
order normal, v1, v2, v3 plus a u16 attribute word.

The ASCII writer is canonical: fixed lowercase keywords, single spaces
between tokens, two-space indentation per nesting level, LF line endings,
and every number in its shortest round-trip positional spelling. Equal
models therefore serialize to byte-identical output, and re-saving any
ASCII file normalizes away all notation and whitespace variation.
"""
from __future__ import annotations

import re
import struct

import numpy as np

from .errors import StlParseError, StlStegoError, UnrecognizedFormatError
from .floatfmt import format_standard, parse_float32
from .model import Facet, StlFormat, StlModel

_RECORD_DTYPE = np.dtype(
    [
        ("normal", "<f4", (3,)),
        ("v1", "<f4", (3,)),
        ("v2", "<f4", (3,)),
        ("v3", "<f4", (3,)),
        ("attr", "<u2"),
    ]
)

_NAME_CHARSET = re.compile(r"[^A-Za-z0-9_-]+")


def sanitize_solid_name(name: str) -> str:
    """Normalize a solid name to [A-Za-z0-9_-], at most 64 characters."""
    return _NAME_CHARSET.sub("_", name).strip("_")[:64]


def detect_format(data: bytes) -> StlFormat:
    """Classify raw bytes as ASCII or binary STL.

    A file is ASCII iff, after leading whitespace, it starts with the token
    `solid` and parses to completion under the ASCII grammar. Anything else
    must satisfy the binary length equation len == 84 + 50 * count. Files
    that fit neither reading raise UnrecognizedFormatError.
    """
    if not data:
        raise UnrecognizedFormatError("empty input")
    stripped = data.lstrip()
    if stripped[:5] == b"solid" and (len(stripped) == 5 or stripped[5:6] in b" \t\r\n"):
        try:
            parse_ascii(data.decode("ascii"))
            return StlFormat.ASCII
        except (UnicodeDecodeError, StlParseError):
            pass
    if len(data) >= 84:
        count = struct.unpack_from("<I", data, 80)[0]
        if len(data) == 84 + 50 * count:
            return StlFormat.BINARY
    raise UnrecognizedFormatError(
        "input is neither well-formed ASCII STL nor a length-consistent binary STL"
    )


def ascii_statements(text: str):
    """Yield (line number, offset of the line in text, line, tokens) for
    each non-blank line of an ASCII STL document.

    This is the one lexer of the ASCII grammar: lines end at LF, so a CR
    before it is whitespace, and any run of whitespace separates tokens.
    Line numbers start at 1.
    """
    lineno, start = 1, 0
    while start <= len(text):
        end = text.find("\n", start)
        if end < 0:
            end = len(text)
        line = text[start:end]
        tokens = line.split()
        if tokens:
            yield lineno, start, line, tokens
        lineno, start = lineno + 1, end + 1


def parse_ascii(text: str) -> StlModel:
    """Parse a single-solid ASCII STL document.

    Statements are line-oriented with arbitrary intra-line whitespace.
    Numeric tokens accept standard and scientific notation and are rounded
    to the nearest single-precision value. Multi-solid files are rejected.
    """
    stmts = ascii_statements(text)

    def next_stmt(context: str):
        stmt = next(stmts, None)
        if stmt is None:
            raise StlParseError(
                f"unexpected end of input, expected {context}", text.count("\n") + 1
            )
        return stmt

    no, _, raw, tokens = next_stmt("'solid'")
    if tokens[0] != "solid":
        raise StlParseError(f"expected 'solid', found {tokens[0]!r}", no)
    name = raw.split(None, 1)[1].strip() if len(tokens) > 1 else ""

    facets = []
    while True:
        no, _, _, tokens = next_stmt("'facet' or 'endsolid'")
        if tokens[0] == "endsolid":
            break
        if tokens[0] != "facet":
            raise StlParseError(f"unknown keyword {tokens[0]!r}", no)
        if len(tokens) != 5 or tokens[1] != "normal":
            raise StlParseError("expected 'facet normal <nx> <ny> <nz>'", no)
        normal = tuple(parse_float32(t, no) for t in tokens[2:5])

        no, _, _, tokens = next_stmt("'outer loop'")
        if tokens != ["outer", "loop"]:
            raise StlParseError("expected 'outer loop'", no)

        verts = []
        for _ in range(3):
            no, _, _, tokens = next_stmt("'vertex'")
            if tokens[0] != "vertex" or len(tokens) != 4:
                raise StlParseError("expected 'vertex <x> <y> <z>'", no)
            verts.append(tuple(parse_float32(t, no) for t in tokens[1:4]))

        no, _, _, tokens = next_stmt("'endloop'")
        if tokens != ["endloop"]:
            raise StlParseError("expected 'endloop' after three vertices", no)
        no, _, _, tokens = next_stmt("'endfacet'")
        if tokens != ["endfacet"]:
            raise StlParseError("expected 'endfacet'", no)

        facets.append(Facet(v1=verts[0], v2=verts[1], v3=verts[2], normal=normal))

    extra = next(stmts, None)
    if extra is not None:
        no, _, _, tokens = extra
        if tokens[0] == "solid":
            raise StlParseError("multiple solids per file are not supported", no)
        raise StlParseError(f"unexpected content after 'endsolid': {tokens[0]!r}", no)

    return StlModel(solid_name=name, facets=tuple(facets), source_format=StlFormat.ASCII)


def parse_binary(data: bytes) -> StlModel:
    """Parse a binary STL, preserving attribute words bit-exactly."""
    if len(data) < 84:
        raise StlParseError(f"binary STL needs at least 84 bytes, got {len(data)}")
    count = struct.unpack_from("<I", data, 80)[0]
    expected = 84 + 50 * count
    if len(data) != expected:
        raise StlParseError(
            f"length mismatch: count {count} implies {expected} bytes, got {len(data)}"
        )
    name = data[:80].split(b"\x00", 1)[0].decode("ascii", errors="replace").strip()
    records = np.frombuffer(data, dtype=_RECORD_DTYPE, count=count, offset=84)
    for key in ("normal", "v1", "v2", "v3"):
        if count and not np.isfinite(records[key]).all():
            raise StlParseError(f"non-finite {key} component in binary facet data")
    facets = tuple(
        Facet(v1=tuple(a), v2=tuple(b), v3=tuple(c), normal=tuple(n), attribute=attr)
        for n, a, b, c, attr in zip(*(records[key].tolist() for key in _RECORD_DTYPE.names))
    )
    return StlModel(solid_name=name, facets=facets, source_format=StlFormat.BINARY)


def parse_bytes(data: bytes) -> StlModel:
    """Detect the format of raw bytes and parse them."""
    if detect_format(data) is StlFormat.ASCII:
        return parse_ascii(data.decode("ascii"))
    return parse_binary(data)


def write_canonical_ascii(model: StlModel) -> str:
    """Serialize to canonical ASCII form (see module docstring).

    Facet order, vertex order, and stored normal values are written
    faithfully; only formatting is normalized.
    """
    name = sanitize_solid_name(model.solid_name)
    lines = [f"solid {name}" if name else "solid"]
    for f in model.facets:
        nx, ny, nz = (format_standard(c) for c in f.normal)
        lines.append(f"  facet normal {nx} {ny} {nz}")
        lines.append("    outer loop")
        for v in f.vertices:
            x, y, z = (format_standard(c) for c in v)
            lines.append(f"      vertex {x} {y} {z}")
        lines.append("    endloop")
        lines.append("  endfacet")
    lines.append(f"endsolid {name}" if name else "endsolid")
    return "\n".join(lines) + "\n"


def write_binary(model: StlModel) -> bytes:
    """Serialize to binary STL.

    The header holds the sanitized solid name, zero-padded to 80 bytes.
    Attribute words are written from the model unchanged.
    """
    if len(model.facets) >= 2**32:
        raise StlStegoError("facet count does not fit the u32 count field")
    name = sanitize_solid_name(model.solid_name).encode("ascii")
    rows = [(f.normal, f.v1, f.v2, f.v3, f.attribute) for f in model.facets]
    records = np.array(rows, dtype=_RECORD_DTYPE)
    return name[:80].ljust(80, b"\x00") + struct.pack("<I", len(rows)) + records.tobytes()


def serialize(model: StlModel, fmt: StlFormat) -> bytes:
    if fmt is StlFormat.ASCII:
        return write_canonical_ascii(model).encode("ascii")
    return write_binary(model)
