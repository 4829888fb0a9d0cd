import random
import re
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import LUCY_TEXT, random_model, slot_texts, unit_facet
from scalar_reference import is_degenerate, is_number_token, model_from_facets, vec3
from stlstego import (
    BitSequence,
    ChannelId,
    Facet,
    StlFormat,
    RawAsciiDocument,
    StlModel,
    RandomSource,
    detect_format,
    embed,
    generate_test_mesh,
    parse_ascii,
    parse_binary,
    parse_bytes,
    sanitize_all,
    sanitize_solid_name,
    write_binary,
    write_canonical_ascii,
)
from stlstego import stl_io
from stlstego.channels import load_carrier
from stlstego.errors import StlParseError, UnrecognizedFormatError
from stlstego.floatfmt import parse_float32
from stlstego.model import coords
from stlstego.stl_io import ascii_statements


def _lucy_head(lines: int) -> str:
    """The first lines of LUCY_TEXT, each ending in LF."""
    return "".join(LUCY_TEXT.splitlines(keepends=True)[:lines])


def _lucy_line(lineno: int, line: str, *more) -> str:
    """LUCY_TEXT with its line lineno (1-based) replaced by line, and so on
    for each further lineno, line pair in more."""
    lines = LUCY_TEXT.splitlines()
    changes = (lineno, line, *more)
    for at, new in zip(changes[::2], changes[1::2]):
        lines[at - 1] = new
    return "\n".join(lines) + "\n"


class TestDetectFormat:
    def test_lucy_is_ascii(self):
        assert detect_format(LUCY_TEXT.encode()) is StlFormat.ASCII

    def test_empty_binary_model(self):
        data = b"\x00" * 80 + struct.pack("<I", 0)
        assert detect_format(data) is StlFormat.BINARY

    def test_truncated_ascii_is_ascii(self):
        # the `solid` head alone claims ASCII; the grammar then names the line
        truncated = LUCY_TEXT.encode()[:150]
        assert detect_format(truncated) is StlFormat.ASCII
        with pytest.raises(StlParseError, match=r"^line 6: "):
            parse_bytes(truncated)

    def test_empty_input(self):
        with pytest.raises(UnrecognizedFormatError):
            detect_format(b"")

    def test_binary_with_solid_header_prefix(self):
        # some exporters write binary files whose header begins with 'solid';
        # the prefix alone does not make bytes ASCII
        header = b"solid junk".ljust(80, b"\x00")
        data = header + struct.pack("<I", 0)
        assert detect_format(data) is StlFormat.BINARY

    def test_solid_prefix_requires_token_boundary(self):
        with pytest.raises(UnrecognizedFormatError):
            detect_format(b"solidx but not a real file")

    @pytest.mark.parametrize("head", ["solid\x0ba", "\x1csolid a", "solid\x1fa"])
    def test_every_head_the_grammar_reads_is_ascii(self, head):
        # whitespace as str.split() knows it, not only what bytes.strip() strips
        text = head + LUCY_TEXT[LUCY_TEXT.index("\n"):]
        data = text.encode("ascii")
        assert detect_format(data) is StlFormat.ASCII
        assert parse_bytes(data) == parse_ascii(text)
        assert len(parse_bytes(sanitize_all(data, RandomSource.seeded(4))[0])) == 2


class TestParseAscii:
    def test_lucy_facets(self):
        model = parse_ascii(LUCY_TEXT)
        assert model.solid_name == "StanfordLucy"
        assert len(model.facets) == 2
        assert model.facets[0].v1 == vec3(-13.101, 0.527998, 52.206)
        assert model.facets[0].normal == vec3(-0.1128, -0.818, -0.5641)
        assert model.facets[1].v3 == vec3(6.236998, 7.722, 50.754)
        assert model.source_format is StlFormat.ASCII

    def test_empty_solid(self):
        model = parse_ascii("solid a\nendsolid a")
        assert model.solid_name == "a"
        assert model.facets == ()

    def test_nameless_solid(self):
        model = parse_ascii("solid\nendsolid")
        assert model.solid_name == ""

    def test_notation_equivalence(self):
        a = parse_ascii(LUCY_TEXT.replace("5.906999", "5.906999e0"))
        b = parse_ascii(LUCY_TEXT)
        assert a.facets == b.facets

    def test_unknown_keyword_reports_line(self):
        text = "solid a\n  foobar\nendsolid a"
        with pytest.raises(StlParseError, match="line 2"):
            parse_ascii(text)

    def test_wrong_vertex_count(self):
        extra = LUCY_TEXT.replace(
            "      vertex -12.771 0.527998 52.14\n",
            "      vertex -12.771 0.527998 52.14\n      vertex 1 2 3\n",
        )
        with pytest.raises(StlParseError, match="endloop"):
            parse_ascii(extra)
        missing = LUCY_TEXT.replace("      vertex -12.771 0.527998 52.14\n", "", 1)
        with pytest.raises(StlParseError, match="vertex"):
            parse_ascii(missing)

    def test_missing_endsolid(self):
        with pytest.raises(StlParseError, match="end of input"):
            parse_ascii(LUCY_TEXT.replace("endsolid StanfordLucy\n", ""))
        with pytest.raises(StlParseError, match="line 3"):
            parse_ascii("solid a\n\n")

    def test_multi_solid_rejected(self):
        text = "solid a\nendsolid a\nsolid b\nendsolid b"
        with pytest.raises(StlParseError, match="multiple solids"):
            parse_ascii(text)

    def test_trailing_content_reports_line(self):
        with pytest.raises(StlParseError, match="line 4.*'junk'"):
            parse_ascii("solid a\nendsolid a\n\n  junk\n")

    @pytest.mark.parametrize(
        "text, message",
        [
            ("", "line 1: unexpected end of input, expected 'solid'"),
            (_lucy_head(1), "line 2: unexpected end of input, expected 'facet' or 'endsolid'"),
            (_lucy_head(2), "line 3: unexpected end of input, expected 'outer loop'"),
            (_lucy_head(3), "line 4: unexpected end of input, expected 'vertex'"),
            (_lucy_head(6), "line 7: unexpected end of input, expected 'endloop'"),
            (_lucy_head(7), "line 8: unexpected end of input, expected 'endfacet'"),
            (_lucy_line(1, "sold StanfordLucy"), "line 1: expected 'solid', found 'sold'"),
            (_lucy_line(9, "  facets normal 0 0 1"), "line 9: unknown keyword 'facets'"),
            (_lucy_line(9, "  facet normal 0 0"), "line 9: expected 'facet normal <nx> <ny> <nz>'"),
            (_lucy_line(10, "    outer loop x"), "line 10: expected 'outer loop'"),
            (_lucy_line(12, "      vertex 1 2"), "line 12: expected 'vertex <x> <y> <z>'"),
            (_lucy_line(14, "      vertex 1 2 3"),
             "line 14: expected 'endloop' after three vertices"),
            (_lucy_line(15, "  endfacet x"), "line 15: expected 'endfacet'"),
            (LUCY_TEXT + "solid b\nendsolid b\n",
             "line 17: multiple solids per file are not supported"),
            (LUCY_TEXT + "\n  junk\n", "line 18: unexpected content after 'endsolid': 'junk'"),
            (_lucy_line(12, "      vertex 1 2x 3y"), "line 12: not a number: '2x'"),
            (_lucy_line(13, "      vertex 1 -1e39 3"),
             "line 13: out of single-precision range: '-1e39'"),
            # the first offence in file order wins, a number's or the grammar's
            (_lucy_line(4, "      vertex 1 1e39 3", 10, "    outer loop x"),
             "line 4: out of single-precision range: '1e39'"),
            (_lucy_line(5, "      vertex 1 2", 12, "      vertex 1 2x 3"),
             "line 5: expected 'vertex <x> <y> <z>'"),
            (_lucy_line(5, "      vertex 1e99 2 3", 11, "      vertex 1 x 3"),
             "line 5: out of single-precision range: '1e99'"),
            (_lucy_line(5, "      vertex x 2 3", 11, "      vertex 1 1e99 3"),
             "line 5: not a number: 'x'"),
        ],
    )
    def test_each_rejection_message_and_line(self, text, message):
        for reader in (parse_ascii, RawAsciiDocument):
            with pytest.raises(StlParseError) as raised:
                reader(text)
            assert str(raised.value) == message

    @pytest.mark.parametrize(
        "text, message",
        [
            (_lucy_line(1, "solid caf\u00e9"), "line 1: not an ASCII character: '\xe9'"),
            # the encoding is checked before the grammar and the numbers
            (_lucy_line(2, "  facet normal 0 0", 4, "      vertex -13.101\u20280.527998 52.206"),
             "line 4: not an ASCII character: '\\u2028'"),
            (_lucy_line(3, "    outer loop x", 10, "\u3000  outer loop"),
             "line 10: not an ASCII character: '\\u3000'"),
            (_lucy_line(4, "      vertex 1e99 2 3", 5, "      vertex 1 2", 9,
                        "  facet normal \u0663 0 0"),
             "line 9: not an ASCII character: '\u0663'"),
        ],
    )
    def test_non_ascii_text_is_rejected_at_its_first_such_character(self, text, message):
        for reader in (parse_ascii, RawAsciiDocument):
            with pytest.raises(StlParseError) as raised:
                reader(text)
            assert str(raised.value) == message
        # as bytes, such a text is not read as text at all
        with pytest.raises(UnrecognizedFormatError):
            parse_bytes(text.encode("utf-8"))

    def test_memory_stays_a_small_multiple_of_the_input(self):
        text = _stego_text(generate_test_mesh(3), seed=5)
        assert "\t" in text and "\r\n" in text and "e-" in text
        tracemalloc.start()
        try:
            parse_ascii(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * len(text)


def _stego_text(model, seed: int) -> str:
    """model's canonical text with random number notation and indentation,
    and CRLF line endings."""
    rng = random.Random(seed)
    doc = RawAsciiDocument(write_canonical_ascii(model))
    doc = embed(doc, ChannelId.NUMBER, BitSequence(rng.randrange(2) for _ in doc.number_spans))
    doc = embed(doc, ChannelId.WHITESPACE, BitSequence(rng.randrange(2) for _ in doc.indent_spans))
    return doc.text.replace("\n", "\r\n")


class TestMalformedAsciiBytes:
    def test_parse_bytes_and_sanitize_all_name_the_line(self):
        truncated = LUCY_TEXT.encode()[:150]
        message = r"^line 6: unexpected end of input, expected 'vertex'$"
        with pytest.raises(StlParseError, match=message):
            parse_bytes(truncated)
        with pytest.raises(StlParseError, match=message):
            sanitize_all(truncated, RandomSource.seeded(1))

    def test_the_format_error_names_the_one_rule(self):
        # a UTF-8 solid name makes the text neither ASCII nor a binary length
        text = write_canonical_ascii(generate_test_mesh(2))
        data = b"solid caf\xc3\xa9\n" + text.encode("ascii").split(b"\n", 1)[1]
        message = (
            "input is neither ASCII text that opens with the `solid` line"
            " nor a binary STL whose length is 84 + 50 * its facet count"
        )
        for reader in (parse_bytes, detect_format):
            with pytest.raises(UnrecognizedFormatError) as raised:
                reader(data)
            assert str(raised.value) == message

    @pytest.mark.parametrize("data", [b"solid \xff\nendsolid\n", b"garbage", b"solidx 1\n"])
    def test_other_unreadable_bytes_stay_unrecognized(self, data):
        with pytest.raises(UnrecognizedFormatError):
            parse_bytes(data)


def _counted(monkeypatch, name: str) -> list:
    """Replace stl_io.<name> with a wrapper that records one entry per call."""
    calls = []
    original = getattr(stl_io, name)

    def counted(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    monkeypatch.setattr(stl_io, name, counted)
    return calls


def _ascii_binary(record: bytes) -> bytes:
    """A length-consistent binary STL of one facet whose bytes are all
    ASCII: it opens with `solid` and record is its last 50 bytes. Every
    float32 whose four bytes are below 0x80 is finite."""
    assert len(record) == 50
    data = b"solid part".ljust(80, b" ") + struct.pack("<I", 1) + record
    assert data.isascii()
    return data


class TestOneAsciiRead:
    def test_valid_ascii_is_scanned_once(self, monkeypatch):
        data = LUCY_TEXT.encode()
        scans = _counted(monkeypatch, "_scan_facets")
        for read in (parse_bytes, lambda d: sanitize_all(d, RandomSource.seeded(1)), load_carrier):
            scans.clear()
            read(data)
            assert len(scans) == 1, read

    def test_malformed_ascii_is_explained_once(self, monkeypatch):
        truncated = LUCY_TEXT.encode()[:150]
        explained = _counted(monkeypatch, "_explain_rejection")
        for read in (parse_bytes, lambda d: sanitize_all(d, RandomSource.seeded(1))):
            explained.clear()
            with pytest.raises(StlParseError, match="^line 6: "):
                read(truncated)
            assert len(explained) == 1, read

    def test_an_all_ascii_binary_file_that_breaks_the_grammar_is_binary(self):
        data = _ascii_binary(b"\n  facet junk".ljust(40, b" ") + b"\nendsolid\n")
        assert data.startswith(b"solid ") and data.split()[-1] == b"endsolid"
        assert detect_format(data) is StlFormat.BINARY
        assert parse_bytes(data) == parse_binary(data)
        out, report = sanitize_all(data, RandomSource.seeded(2))
        assert report.format_written is StlFormat.BINARY
        assert len(parse_binary(out)) == 1

    def test_an_all_ascii_binary_file_that_keeps_the_grammar_is_ascii(self):
        data = _ascii_binary(b" " * 40 + b"\nendsolid\n")
        assert detect_format(data) is StlFormat.ASCII
        assert parse_bytes(data) == parse_ascii(data.decode("ascii"))
        assert sanitize_all(data, RandomSource.seeded(2))[1].format_written is StlFormat.ASCII

    def test_a_broken_middle_between_head_and_tail_is_ascii(self):
        data = LUCY_TEXT.replace("outer loop", "outer lop", 1).encode()
        assert detect_format(data) is StlFormat.ASCII
        with pytest.raises(StlParseError, match=r"^line 3: expected 'outer loop'$"):
            parse_bytes(data)


def test_ascii_statements_split_lines_at_lf_and_tokens_at_whitespace():
    text = "solid a\r\n\n \t\n\tfacet  normal\x0b1 2\r3\nendsolid"
    assert list(ascii_statements(text)) == [
        (1, 0, "solid a\r", ["solid", "a"]),
        (4, 13, "\tfacet  normal\x0b1 2\r3", ["facet", "normal", "1", "2", "3"]),
        (5, 34, "endsolid", ["endsolid"]),
    ]


class TestParseBinary:
    def test_one_zero_facet(self):
        data = b"\x00" * 80 + struct.pack("<I", 1) + b"\x00" * 50
        model = parse_binary(data)
        assert len(model.facets) == 1
        facet = model.facets[0]
        assert is_degenerate(facet)
        assert facet.attribute == 0
        assert model.source_format is StlFormat.BINARY

    def test_hand_assembled_attribute_word(self):
        # assembled with struct, independently of write_binary
        def rec(normal, v1, v2, v3, attr):
            floats = [*normal, *v1, *v2, *v3]
            return struct.pack("<12f", *floats) + struct.pack("<H", attr)

        data = (
            b"fixture".ljust(80, b"\x00")
            + struct.pack("<I", 2)
            + rec((0, 0, 1), (0, 0, 0), (1, 0, 0), (0, 1, 0), 0)
            + rec((0, 0, 1), (2, 0, 0), (3, 0, 0), (2, 1, 0), 0xBEEF)
        )
        model = parse_binary(data)
        assert model.solid_name == "fixture"
        assert model.facets[1].attribute == 0xBEEF
        assert model.facets[1].v1 == (2.0, 0.0, 0.0)

    def test_a_writable_buffer_is_copied(self):
        model = random_model(5, seed=4, attributes=True)
        data = bytearray(write_binary(model))
        parsed = parse_binary(data)
        data[84:] = bytes(len(data) - 84)
        assert parsed.records.tobytes() == model.records.tobytes()

    @pytest.mark.parametrize("size", [0, 83])
    def test_a_buffer_shorter_than_the_header_is_rejected(self, size):
        with pytest.raises(StlParseError, match=f"^binary STL needs at least 84 bytes, got {size}$"):
            parse_binary(bytes(size))

    def test_length_mismatch(self):
        data = b"\x00" * 80 + struct.pack("<I", 2) + b"\x00" * 50
        with pytest.raises(StlParseError, match="length mismatch"):
            parse_binary(data)

    def test_non_finite_rejected(self):
        record = struct.pack("<12f", *([float("nan")] * 3 + [0.0] * 9)) + b"\x00\x00"
        data = b"\x00" * 80 + struct.pack("<I", 1) + record
        with pytest.raises(StlParseError, match="non-finite"):
            parse_binary(data)

    def test_round_trip_exact(self):
        model = random_model(17, seed=3, attributes=True)
        data = write_binary(model)
        parsed = parse_binary(data)
        assert parsed.facets == model.facets
        assert write_binary(parsed) == data


class TestCanonicalWriter:
    def test_unit_facet_lines(self):
        model = model_from_facets("t", (unit_facet(),))
        text = write_canonical_ascii(model)
        assert "  facet normal 0 0 1\n" in text
        assert "      vertex 0 0 0\n" in text
        assert "      vertex 1 0 0\n" in text
        assert "      vertex 0 1 0\n" in text
        assert text.endswith("endsolid t\n")

    def test_idempotence(self):
        first = write_canonical_ascii(parse_ascii(LUCY_TEXT))
        second = write_canonical_ascii(parse_ascii(first))
        assert first == second

    def test_formatting_variants_collapse(self):
        base = "solid v\n  facet normal 0 0 1\n    outer loop\n      vertex 52.0 0 0\n      vertex 1 0 0\n      vertex 0 1 0\n    endloop\n  endfacet\nendsolid v\n"
        tabbed = base.replace("      vertex 52.0", "\t vertex   5.2e1")
        assert write_canonical_ascii(parse_ascii(base)) == write_canonical_ascii(
            parse_ascii(tabbed)
        )

    def test_solid_name_normalized(self):
        model = StlModel(solid_name="my part (v2)!")
        text = write_canonical_ascii(model)
        assert text.splitlines()[0] == "solid my_part_v2"

    def test_negative_zero_collapses(self):
        f = unit_facet()
        flipped = Facet(v1=f.v1, v2=f.v2, v3=f.v3, normal=(-0.0, 0.0, 1.0))
        text = write_canonical_ascii(model_from_facets(facets=(flipped,)))
        assert "facet normal 0 0 1" in text


class TestWriteBinary:
    def test_empty_model(self):
        data = write_binary(StlModel(solid_name="x"))
        assert len(data) == 84
        assert struct.unpack_from("<I", data, 80)[0] == 0

    def test_bridge_ascii_to_binary(self):
        model = parse_ascii(LUCY_TEXT)
        bridged = parse_binary(write_binary(model))
        assert [f.vertices for f in bridged.facets] == [f.vertices for f in model.facets]
        assert [f.normal for f in bridged.facets] == [f.normal for f in model.facets]


def test_parse_bytes_dispatch(icosphere2):
    ascii_bytes = write_canonical_ascii(icosphere2).encode()
    binary_bytes = write_binary(icosphere2)
    assert parse_bytes(ascii_bytes).facets == icosphere2.facets
    parsed = parse_bytes(binary_bytes)
    assert [f.vertices for f in parsed.facets] == [f.vertices for f in icosphere2.facets]


def test_sanitize_solid_name():
    assert sanitize_solid_name("StanfordLucy") == "StanfordLucy"
    assert sanitize_solid_name("a b\tc") == "a_b_c"
    assert sanitize_solid_name("!!!") == ""
    assert len(sanitize_solid_name("x" * 100)) == 64


coordinate = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, width=32)
vertex_st = st.tuples(coordinate, coordinate, coordinate)
facet_st = st.builds(
    Facet,
    v1=vertex_st,
    v2=vertex_st,
    v3=vertex_st,
    normal=vertex_st,
    attribute=st.integers(min_value=0, max_value=0xFFFF),
)
model_st = st.builds(
    model_from_facets,
    name=st.text(alphabet="abcXYZ09_-", max_size=10),
    facets=st.lists(facet_st, max_size=8).map(tuple),
)


@settings(max_examples=60)
@given(model_st)
def test_ascii_round_trip_property(model):
    parsed = parse_ascii(write_canonical_ascii(model))
    assert [f.vertices for f in parsed.facets] == [f.vertices for f in model.facets]
    assert [f.normal for f in parsed.facets] == [f.normal for f in model.facets]
    assert write_canonical_ascii(parsed) == write_canonical_ascii(model)


@settings(max_examples=60)
@given(model_st)
def test_binary_round_trip_property(model):
    data = write_binary(model)
    parsed = parse_binary(data)
    assert write_binary(parsed) == data
    assert [f.attribute for f in parsed.facets] == [f.attribute for f in model.facets]


class TestOncePerDistinctValue:
    def test_parse_reads_each_distinct_token_once(self, monkeypatch):
        from stlstego import stl_io

        text = write_canonical_ascii(generate_test_mesh(2))
        doc = RawAsciiDocument(text)
        tokens = slot_texts(doc, doc.number_spans)
        seen = []
        original = stl_io.parse_float32s

        def counted(batch, lines=None):
            seen.extend(batch)
            return original(batch, lines)

        monkeypatch.setattr(stl_io, "parse_float32s", counted)
        model = parse_ascii(text)
        assert sorted(seen) == sorted(set(tokens)) and len(seen) < len(tokens)
        assert [c for f in model.facets for v in (f.normal, *f.vertices) for c in v] == [
            parse_float32(t) for t in tokens
        ]

    def test_a_repeated_bad_token_reports_its_first_line(self):
        text = LUCY_TEXT.replace("-13.101", "1e99").replace("5.906999", "1e99")
        with pytest.raises(StlParseError, match=r"line 4: out of single-precision range: '1e99'"):
            parse_ascii(text)

    def test_writer_formats_each_distinct_value_once(self, monkeypatch):
        from stlstego import stl_io

        facets = random_model(6, seed=31).facets
        signed = Facet(v1=(-0.0, 1.0, 0.0), v2=(0.0, -1.0, 0.0), v3=(1.0, 0.0, -0.0))
        model = model_from_facets("w", facets + facets[:2] + (signed,))
        distinct = {c for f in model.facets for v in (f.normal, *f.vertices) for c in v}
        calls = []
        original = stl_io.format_standard

        def counted(value):
            calls.append(value)
            return original(value)

        monkeypatch.setattr(stl_io, "format_standard", counted)
        text = write_canonical_ascii(model)
        assert len(calls) == len(distinct)  # 0.0 and -0.0 are one value

        lines = ["solid w"]
        for f in model.facets:
            lines.append("  facet normal " + " ".join(map(original, f.normal)))
            lines.append("    outer loop")
            lines += ["      vertex " + " ".join(map(original, v)) for v in f.vertices]
            lines += ["    endloop", "  endfacet"]
        assert text == "\n".join(lines + ["endsolid w"]) + "\n"


# --- the facet scanner against the statement walker ----------------------------

_FACET = (
    "facet normal 0 0 1\nouter loop\nvertex 0 0 0\nvertex 1 0 0\nvertex 0 1 0\n"
    "endloop\nendfacet\n"
)
_MIDPOINT = "1.000000059604644775390625"  # 1 + 2**-24, halfway between two float32
_SCANNER_SEEDS = [
    LUCY_TEXT,
    LUCY_TEXT.replace("\n", "\r\n"),
    LUCY_TEXT.rstrip("\n"),
    LUCY_TEXT.replace("    ", "\t\x0b").replace("  ", "\x0c\x1c \x1d\x1e\x1f"),
    LUCY_TEXT.replace("\n", "\n \t\n\n"),
    LUCY_TEXT.replace("-0.5641\n    outer loop", "-0.5641 outer loop"),
    LUCY_TEXT.replace("  endfacet\n  facet", "  endfacet junk\n  facet"),
    LUCY_TEXT + LUCY_TEXT,
    LUCY_TEXT.replace("-13.101", "1e99"),
    LUCY_TEXT.replace("52.206", _MIDPOINT).replace("51.81", "-" + _MIDPOINT + "1"),
    "solid vertex 1 2 3\n" + _FACET + "endsolid\n",
    "solid\nendsolid",
    " \n\t solid  my part \r\n" + _FACET + _FACET + "endsolid my part\r\n \n",
    "solid a\n"
    + _FACET.replace(" 1\n", " 1\x85\n").replace("0 0 0", "0\xa00\u20280")
    + "endsolid",
    _stego_text(generate_test_mesh(0), seed=3),
]
_PIECES = [
    " ", "\t", "\r", "\n", "\r\n", "\x0b", "\x0c", "\x1c", "\x1f", "\x85", "\xa0", "\u2028",
    "facet", "normal", "outer", "loop", "vertex", "endloop", "endfacet", "solid", "endsolid",
    "0", "-1.5", "2e3", "1e99", "nan", ".", "e", "-", "x", _MIDPOINT,
]


def _mutate(text: str, rng: random.Random) -> str:
    kind = rng.randrange(8)
    at = rng.randrange(len(text) + 1)
    if kind == 0:  # insert a piece
        return text[:at] + rng.choice(_PIECES) + text[at:]
    if kind == 1:  # widen a run of whitespace, which keeps most texts valid
        at = rng.choice([m.start() for m in re.finditer(r"\s", text)] or [at])
        return text[:at] + rng.choice(_PIECES[:12]) + text[at:]
    if kind == 2:  # delete a few characters
        return text[:at] + text[at + rng.randrange(1, 4):]
    if kind in (3, 4):  # replace a token, or add a piece after it, glued or spaced
        token = rng.choice(list(re.finditer(r"\S+", text)) or [re.match("", text)])
        if kind == 3:
            return text[: token.start()] + rng.choice(_PIECES) + text[token.end():]
        piece = rng.choice(("", " ")) + rng.choice(_PIECES)
        return text[: token.end()] + piece + text[token.end():]
    lines = text.split("\n")
    i = rng.randrange(len(lines))
    if kind == 5:  # delete a line
        del lines[i]
    elif kind == 6:  # repeat a line
        lines.insert(i, lines[i])
    else:  # join two lines
        lines[i : i + 2] = [" ".join(lines[i : i + 2])]
    return "\n".join(lines)


def _walker_error(text: str) -> str | None:
    """The statement walker's error message for text, None if it accepts."""
    try:
        stl_io._explain_rejection(text)
    except StlParseError as exc:
        return str(exc)
    return None


def _expected_scan(text: str):
    # in an accepted text the numbers are the last three tokens of each
    # `facet normal` and `vertex` statement
    stmts = list(ascii_statements(text))
    values = [parse_float32(t) for *_, tokens in stmts if tokens[0] in ("facet", "vertex")
              for t in tokens[-3:]]
    _, _, line, tokens = stmts[0]
    name = line.split(None, 1)[1].strip() if len(tokens) > 1 else ""
    return name, np.array(values, dtype=np.float32).tobytes()


def _reference_slots(text: str):
    """Number and indent spans found by walking the statements: the up to
    three number tokens after `vertex` or `facet normal`, and the leading
    spaces and tabs of each statement line."""
    numbers, indents = [], []
    for _, start, line, tokens in ascii_statements(text):
        indent = len(line) - len(line.lstrip(" \t"))
        if indent:
            indents.append((start, start + indent))
        if tokens[0] == "vertex":
            first = 1
        elif tokens[:2] == ["facet", "normal"]:
            first = 2
        else:
            continue
        end = start
        for i, token in enumerate(tokens[: first + 3]):
            begin = text.find(token, end)
            end = begin + len(token)
            if i >= first:
                if not is_number_token(token):
                    break
                numbers.append((begin, end))
    return tuple(numbers), tuple(indents)


def _check_scanner_against_walker(text: str) -> bool:
    model = stl_io._scan_facets(text)
    error = _walker_error(text)
    if error is None:
        assert model is not None, f"scanner rejects {text!r}"
        name, values = _expected_scan(text)
        assert model.solid_name == name, text
        assert coords(model.records).tobytes() == values, text
        assert not model.records["attr"].any()
        doc = RawAsciiDocument(text)
        numbers, indents = _reference_slots(text)
        for spans, expected in ((doc.number_spans, numbers), (doc.indent_spans, indents)):
            assert spans.shape == (len(expected), 2), text
            assert list(map(tuple, spans.tolist())) == list(expected), text
        assert doc.model == model
        if text.isascii():
            assert detect_format(text.encode("ascii")) is StlFormat.ASCII, text
        return True
    assert model is None, f"scanner accepts {text!r}, walker says {error}"
    for reader in (parse_ascii, RawAsciiDocument):
        with pytest.raises(StlParseError) as raised:
            reader(text)
        assert str(raised.value) == error
    return False


@pytest.mark.parametrize("text", _SCANNER_SEEDS)
def test_scanner_matches_the_walker_on_each_seed(text):
    _check_scanner_against_walker(text)


def test_scanner_matches_the_walker_on_mutated_seeds():
    accepted = 0
    for case in range(3000):
        rng = random.Random(case)
        text = rng.choice(_SCANNER_SEEDS)
        for _ in range(rng.randrange(1, 4)):
            text = _mutate(text, rng)
        accepted += _check_scanner_against_walker(text)
    assert 200 < accepted < 2800  # both verdicts are well represented


def _reference_read(data: bytes):
    """What parse_bytes returns or raises by its defining rule: ASCII iff
    the grammar accepts the text, else binary iff len == 84 + 50 * count,
    else the grammar's error for text that opens with `solid`."""
    text = stl_io._solid_text(data)
    error = None
    if text is not None:
        try:
            return parse_ascii(text)
        except StlParseError as exc:
            error = exc
    if len(data) >= 84 and len(data) == 84 + 50 * struct.unpack_from("<I", data, 80)[0]:
        return parse_binary(data)
    if error is not None:
        raise error
    raise UnrecognizedFormatError("neither")


def _outcome(read, data: bytes):
    try:
        return read(data)
    except UnrecognizedFormatError:
        return UnrecognizedFormatError
    except StlParseError as exc:
        return str(exc)


def test_byte_level_detection_keeps_the_read_path_on_mutated_seeds():
    for case in range(600):
        rng = random.Random(case)
        text = rng.choice(_SCANNER_SEEDS)
        for _ in range(rng.randrange(1, 4)):
            text = _mutate(text, rng)
        if not text.isascii():
            continue
        data = text.encode("ascii")
        expected = _outcome(_reference_read, data)
        assert _outcome(parse_bytes, data) == expected, text
        carrier = _outcome(load_carrier, data)
        assert getattr(carrier, "model", carrier) == expected, text
        if isinstance(expected, StlModel):
            assert detect_format(data) is expected.source_format, text
        # one rule: parse_bytes is detect_format, then that format's reader
        fmt = _outcome(detect_format, data)
        if fmt is StlFormat.ASCII:
            assert expected == _outcome(parse_ascii, text), text
        elif fmt is StlFormat.BINARY:
            assert expected == _outcome(parse_binary, data), text
        else:
            assert fmt is expected is UnrecognizedFormatError, text
