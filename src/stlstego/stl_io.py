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
from .floatfmt import format_standard, parse_float32s, spell_float32s
from .model import RECORD_DTYPE, StlFormat, StlModel, coords

_NAME_CHARSET = re.compile(r"[^A-Za-z0-9_-]+")


def sanitize_solid_name(name: str) -> str:
    """Normalize a solid name to [A-Za-z0-9_-], at most 64 characters."""
    return _NAME_CHARSET.sub("_", name).strip("_")[:64]


def detect_format(data: bytes) -> StlFormat:
    """Classify raw bytes as ASCII or binary STL, from the bytes alone.

    The bytes claim ASCII when they are ASCII text that opens with the
    grammar's `solid` line, as every text parse_ascii accepts does. They
    claim binary when they satisfy len == 84 + 50 * count. A single claim
    decides, whether or not the bytes then parse under it. Bytes that make
    both claims are ASCII iff the facet scanner accepts them, the one case
    that parses here. Bytes that make neither raise UnrecognizedFormatError.
    """
    if not data:
        raise UnrecognizedFormatError("empty input")
    text = _solid_text(data)
    is_binary = len(data) >= 84 and len(data) == 84 + 50 * struct.unpack_from("<I", data, 80)[0]
    if text is not None and is_binary:  # all-ASCII and length-consistent: the grammar decides
        is_binary = _scan_facets(text) is None
    if is_binary:
        return StlFormat.BINARY
    if text is not None:
        return StlFormat.ASCII
    raise UnrecognizedFormatError(
        "input is neither ASCII text that opens with the `solid` line"
        " nor a binary STL whose length is 84 + 50 * its facet count"
    )


def _solid_text(data: bytes) -> str | None:
    """data as text if it is ASCII and opens with the grammar's `solid` line."""
    # isascii stops at a binary file's first byte >= 0x80; decode would copy it all
    if not data.isascii():
        return None
    text = data.decode("ascii")
    return text if _HEAD.match(text) else None


def ascii_statements(text: str):
    """Yield (line number, offset of the line in text, line, tokens) for
    each non-blank line of an ASCII STL document.

    The statement lexer of the ASCII grammar. It accepts nothing: the facet
    scanner decides which texts are valid, and the lexer only explains the
    ones parse_ascii rejects. Lines end at LF, so a CR before it is
    whitespace, and any run of whitespace separates tokens. Line numbers
    start at 1.
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


# The statements of a facet, in order: their keywords, how many numbers
# follow the keywords, and the error of a line that breaks the statement.
# The facet scanner is compiled from this table and the statement walker
# reads it, so the two differ only in how they find statements.
_FACET_GRAMMAR = (
    ("facet normal", 3, "expected 'facet normal <nx> <ny> <nz>'"),
    ("outer loop", 0, "expected 'outer loop'"),
    *[("vertex", 3, "expected 'vertex <x> <y> <z>'")] * 3,
    ("endloop", 0, "expected 'endloop' after three vertices"),
    ("endfacet", 0, "expected 'endfacet'"),
)

_HEAD = re.compile(r"\s*solid(?!\S)([^\n]*)")
_FACET = re.compile("".join(
    _NEXT + _statement(*keywords.split(), *[_NUMBER] * numbers)
    for keywords, numbers, _ in _FACET_GRAMMAR
))
_TAIL = re.compile(_NEXT + r"endsolid(?!\S)[^\n]*")
_NON_SPACE = re.compile(r"\S")
_NON_ASCII = re.compile(r"[^\x00-\x7f]")


def parse_ascii(text: str) -> StlModel:
    """Parse a single-solid ASCII STL document.

    Statements are line-oriented with arbitrary intra-line whitespace.
    Numeric tokens accept standard and scientific notation and are rounded
    to the nearest single-precision value. Multi-solid files are rejected.
    The text must be ASCII, as bytes must be to be read as text at all:
    any other character is rejected, at the line of the first one, before
    the grammar is checked.

    One compiled pattern matches a whole facet, from `facet normal` to
    `endfacet`, and captures its 12 number tokens; the distinct tokens are
    converted in one call. A text the scanner rejects is walked statement
    by statement (`ascii_statements`) only to raise the StlParseError that
    names the offending line: the first broken statement's or, if it comes
    first, the first bad number's. Scanner and walker read their facet
    statements from one table, _FACET_GRAMMAR, and accept the same
    language, which a differential fuzz in tests/test_stl_io.py pins.
    `RawAsciiDocument` reads the positions of the tokens off the text the
    scanner accepts.
    """
    model = _scan_facets(text)
    if model is None:
        _explain_rejection(text)
        raise AssertionError("the facet scanner rejected a text the statement walker accepts")
    return model


def _scan_facets(text: str) -> StlModel | None:
    """The model of a text the facet scanner accepts, or None."""
    head = _HEAD.match(text) if text.isascii() else None
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
        values = parse_float32s(list(ids))
    except StlParseError:
        return None
    records = np.zeros(len(numbers) // 12, dtype=RECORD_DTYPE)
    coords(records)[...] = values[np.frombuffer(numbers, dtype=np.uint32)].reshape(-1, 4, 3)
    return StlModel(solid_name=head[1].strip(), source_format=StlFormat.ASCII, records=records)


def _explain_rejection(text: str) -> None:
    """Raise the StlParseError of the first character of a text that is not
    ASCII; else walk the statements and raise that of the first one that
    breaks the grammar or holds a bad number, with its line number."""
    odd = _NON_ASCII.search(text)
    if odd is not None:
        line = text.count("\n", 0, odd.start()) + 1
        raise StlParseError(f"not an ASCII character: {odd[0]!r}", line)
    first = {}  # the line each number token first appears on, in file order
    try:
        _walk_statements(text, first)
    finally:
        # the numbers all precede a grammar error's line, so a bad one wins
        parse_float32s(list(first), list(first.values()))


def _walk_statements(text: str, first: dict) -> None:
    """Raise the StlParseError of the first statement that breaks the
    grammar; record each number token's first line in first."""
    stmts = ascii_statements(text)

    def next_stmt(context: str):
        stmt = next(stmts, None)
        if stmt is None:
            raise StlParseError(
                f"unexpected end of input, expected {context}", text.count("\n") + 1
            )
        return stmt

    no, _, _, tokens = next_stmt("'solid'")
    if tokens[0] != "solid":
        raise StlParseError(f"expected 'solid', found {tokens[0]!r}", no)

    while True:
        no, _, _, tokens = next_stmt("'facet' or 'endsolid'")
        if tokens[0] == "endsolid":
            break
        if tokens[0] != "facet":
            raise StlParseError(f"unknown keyword {tokens[0]!r}", no)
        for i, (keywords, numbers, message) in enumerate(_FACET_GRAMMAR):
            if i:  # the first statement was read above
                no, _, _, tokens = next_stmt(f"'{keywords}'")
            words = keywords.split()
            if tokens[: len(words)] != words or len(tokens) != len(words) + numbers:
                raise StlParseError(message, no)
            for token in tokens[len(words):]:
                first.setdefault(token, no)

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
    """Detect the format of raw bytes and parse them, ASCII text once.

    One rule: detect_format picks the format, then that format's reader
    runs. Bytes it classifies as ASCII raise the StlParseError naming the
    offending line when the grammar rejects them.
    """
    return read_stl(data, parse_ascii)


def read_stl(data: bytes, read_ascii):
    """parse_bytes with read_ascii(text) in place of parse_ascii: the one
    format rule, detect_format, picks the reader, and the errors and the
    one read of ASCII text are the same."""
    if detect_format(data) is StlFormat.ASCII:
        return read_ascii(data.decode("ascii"))
    return parse_binary(data)


def write_canonical_ascii(model: StlModel) -> str:
    """Serialize to canonical ASCII form (see module docstring).

    Facet order, vertex order, and stored normal values are written
    faithfully; only formatting is normalized. Each distinct value is
    formatted once.
    """
    name = sanitize_solid_name(model.solid_name)
    tokens = spell_float32s(coords(model.records), format_standard)
    head, tail = (f"solid {name}\n", f"endsolid {name}\n") if name else ("solid\n", "endsolid\n")
    return "".join([head, *map(_FACET_TEMPLATE.__mod__, zip(*[iter(tokens)] * 12)), tail])


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
