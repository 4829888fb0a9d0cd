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
from array import array
from collections import defaultdict
from itertools import count

import numpy as np

from .errors import StlParseError, StlStegoError, UnrecognizedFormatError
from .floatfmt import format_standard, parse_float32
from .model import RECORD_DTYPE, StlFormat, StlModel, coords

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
    text = _solid_text(data)
    if text is not None:
        try:
            parse_ascii(text)
            return StlFormat.ASCII
        except StlParseError:
            pass
    if len(data) >= 84:
        count = struct.unpack_from("<I", data, 80)[0]
        if len(data) == 84 + 50 * count:
            return StlFormat.BINARY
    raise UnrecognizedFormatError(
        "input is neither well-formed ASCII STL nor a length-consistent binary STL"
    )


def _solid_text(data: bytes) -> str | None:
    """data as text if it is ASCII and starts with the token `solid`."""
    stripped = data.lstrip()
    if stripped[:5] != b"solid" or stripped[5:6] not in b" \t\r\n":
        return None
    try:
        return data.decode("ascii")
    except UnicodeDecodeError:
        return None


def ascii_statements(text: str):
    """Yield (line number, offset of the line in text, line, tokens) for
    each non-blank line of an ASCII STL document.

    The statement lexer of the ASCII grammar, which feeds RawAsciiDocument
    and explains the texts parse_ascii rejects: lines end at LF, so a CR
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


# The facet scanner. Whitespace inside a statement is whatever str.split()
# splits on, bar LF; a statement ends at LF, and the separator between two
# statements also takes blank lines and the next line's indentation.
_SPACE = r"[^\S\n]"
_NEXT = _SPACE + r"*\n\s*"
_NUMBER = r"(\S+)"


def _statement(*tokens: str) -> str:
    return (_SPACE + "+").join(tokens)


_HEAD = re.compile(r"\s*solid(?!\S)([^\n]*)")
_FACET = re.compile(
    _NEXT + _statement("facet", "normal", _NUMBER, _NUMBER, _NUMBER)
    + _NEXT + _statement("outer", "loop")
    + (_NEXT + _statement("vertex", _NUMBER, _NUMBER, _NUMBER)) * 3
    + _NEXT + "endloop" + _NEXT + "endfacet"
)
_TAIL = re.compile(_NEXT + r"endsolid(?!\S)[^\n]*")
_NON_SPACE = re.compile(r"\S")


def parse_ascii(text: str) -> StlModel:
    """Parse a single-solid ASCII STL document.

    Statements are line-oriented with arbitrary intra-line whitespace.
    Numeric tokens accept standard and scientific notation and are rounded
    to the nearest single-precision value. Multi-solid files are rejected.

    One compiled pattern matches a whole facet, from `facet normal` to
    `endfacet`, and captures its 12 number tokens; each distinct token is
    parsed once. A text the scanner rejects is walked statement by
    statement (`ascii_statements`) only to raise the StlParseError that
    names the offending line. Scanner and walker accept the same language,
    which a differential fuzz in tests/test_stl_io.py pins.
    """
    model = _scan_facets(text)
    if model is None:
        _explain_rejection(text)
        raise AssertionError("the facet scanner rejected a text the statement walker accepts")
    return model


def _scan_facets(text: str) -> StlModel | None:
    """The model of a text the facet scanner accepts, or None."""
    head = _HEAD.match(text)
    if head is None:
        return None
    ids = defaultdict(count().__next__)  # a new token gets the next id
    token_id = ids.__getitem__
    numbers = array("I")
    pos, match = head.end(), _FACET.match
    while (facet := match(text, pos)) is not None:
        numbers.extend(map(token_id, facet.groups()))
        pos = facet.end()
    tail = _TAIL.match(text, pos)
    if tail is None or _NON_SPACE.search(text, tail.end()) is not None:
        return None
    try:
        values = np.fromiter(map(parse_float32, ids), dtype=np.float32, count=len(ids))
    except StlParseError:
        return None
    records = np.zeros(len(numbers) // 12, dtype=RECORD_DTYPE)
    coords(records)[...] = values[np.frombuffer(numbers, dtype=np.uint32)].reshape(-1, 4, 3)
    return StlModel(solid_name=head[1].strip(), source_format=StlFormat.ASCII, records=records)


def _explain_rejection(text: str) -> None:
    """Walk the statements of a text and raise the StlParseError of the
    first one that breaks the grammar, with its line number."""
    stmts = ascii_statements(text)

    def next_stmt(context: str):
        stmt = next(stmts, None)
        if stmt is None:
            raise StlParseError(
                f"unexpected end of input, expected {context}", text.count("\n") + 1
            )
        return stmt

    checked = set()  # a repeated bad token is reported at its first line

    def check_numbers(tokens, no):
        for token in tokens:
            if token not in checked:
                parse_float32(token, no)
                checked.add(token)

    no, _, _, tokens = next_stmt("'solid'")
    if tokens[0] != "solid":
        raise StlParseError(f"expected 'solid', found {tokens[0]!r}", no)

    while True:
        no, _, _, tokens = next_stmt("'facet' or 'endsolid'")
        if tokens[0] == "endsolid":
            break
        if tokens[0] != "facet":
            raise StlParseError(f"unknown keyword {tokens[0]!r}", no)
        if len(tokens) != 5 or tokens[1] != "normal":
            raise StlParseError("expected 'facet normal <nx> <ny> <nz>'", no)
        check_numbers(tokens[2:5], no)

        no, _, _, tokens = next_stmt("'outer loop'")
        if tokens != ["outer", "loop"]:
            raise StlParseError("expected 'outer loop'", no)

        for _ in range(3):
            no, _, _, tokens = next_stmt("'vertex'")
            if tokens[0] != "vertex" or len(tokens) != 4:
                raise StlParseError("expected 'vertex <x> <y> <z>'", no)
            check_numbers(tokens[1:4], no)

        no, _, _, tokens = next_stmt("'endloop'")
        if tokens != ["endloop"]:
            raise StlParseError("expected 'endloop' after three vertices", no)
        no, _, _, tokens = next_stmt("'endfacet'")
        if tokens != ["endfacet"]:
            raise StlParseError("expected 'endfacet'", no)

    extra = next(stmts, None)
    if extra is not None:
        no, _, _, tokens = extra
        if tokens[0] == "solid":
            raise StlParseError("multiple solids per file are not supported", no)
        raise StlParseError(f"unexpected content after 'endsolid': {tokens[0]!r}", no)


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
    records = np.frombuffer(data, dtype=RECORD_DTYPE, count=count, offset=84)
    for key in ("normal", "v1", "v2", "v3"):
        if count and not np.isfinite(records[key]).all():
            raise StlParseError(f"non-finite {key} component in binary facet data")
    if records.flags.writeable:  # a mutable buffer; the model must not share it
        records = records.copy()
    return StlModel(solid_name=name, source_format=StlFormat.BINARY, records=records)


def parse_bytes(data: bytes) -> StlModel:
    """Detect the format of raw bytes and parse them.

    ASCII text that starts with `solid` but breaks the grammar, and is no
    length-consistent binary file either, raises the StlParseError naming
    the offending line rather than UnrecognizedFormatError.
    """
    try:
        fmt = detect_format(data)
    except UnrecognizedFormatError:
        text = _solid_text(data)
        if text is None:
            raise
        return parse_ascii(text)  # raises: detection found it malformed
    if fmt is StlFormat.ASCII:
        return parse_ascii(data.decode("ascii"))
    return parse_binary(data)


def write_canonical_ascii(model: StlModel) -> str:
    """Serialize to canonical ASCII form (see module docstring).

    Facet order, vertex order, and stored normal values are written
    faithfully; only formatting is normalized. Each distinct value is
    formatted once.
    """
    name = sanitize_solid_name(model.solid_name)
    distinct, which = np.unique(coords(model.records), return_inverse=True)
    spelled = np.array([format_standard(v) for v in distinct.tolist()], dtype=object)
    tokens = spelled[which.reshape(-1)].tolist()
    body = "".join(map(_FACET_TEMPLATE.__mod__, zip(*[iter(tokens)] * 12)))
    head, tail = (f"solid {name}", f"endsolid {name}") if name else ("solid", "endsolid")
    return f"{head}\n{body}{tail}\n"


_FACET_TEMPLATE = (
    "  facet normal %s %s %s\n    outer loop\n"
    + "      vertex %s %s %s\n" * 3
    + "    endloop\n  endfacet\n"
)


def write_binary(model: StlModel) -> bytes:
    """Serialize to binary STL.

    The header holds the sanitized solid name, zero-padded to 80 bytes.
    Attribute words are written from the model unchanged.
    """
    if len(model) >= 2**32:
        raise StlStegoError("facet count does not fit the u32 count field")
    name = sanitize_solid_name(model.solid_name).encode("ascii")
    return name[:80].ljust(80, b"\x00") + struct.pack("<I", len(model)) + model.records.tobytes()


def serialize(model: StlModel, fmt: StlFormat) -> bytes:
    if fmt is StlFormat.ASCII:
        return write_canonical_ascii(model).encode("ascii")
    return write_binary(model)
