import struct
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import LUCY_TEXT, random_model, unit_facet
from stlstego import (
    Facet,
    StlFormat,
    StlModel,
    detect_format,
    generate_test_mesh,
    parse_ascii,
    parse_binary,
    parse_bytes,
    sanitize_solid_name,
    vec3,
    write_binary,
    write_canonical_ascii,
)
from stlstego.errors import StlParseError, UnrecognizedFormatError
from stlstego.stl_io import ascii_statements


class TestDetectFormat:
    def test_lucy_is_ascii(self):
        assert detect_format(LUCY_TEXT.encode()) is StlFormat.ASCII

    def test_empty_binary_model(self):
        data = b"\x00" * 80 + struct.pack("<I", 0)
        assert detect_format(data) is StlFormat.BINARY

    def test_truncated_ascii_is_unrecognized(self):
        truncated = LUCY_TEXT.encode()[:150]
        with pytest.raises(UnrecognizedFormatError):
            detect_format(truncated)

    def test_empty_input(self):
        with pytest.raises(UnrecognizedFormatError):
            detect_format(b"")

    def test_binary_with_solid_header_prefix(self):
        # some exporters write binary files whose header begins with 'solid';
        # grammar validation, not the prefix, decides
        header = b"solid junk".ljust(80, b"\x00")
        data = header + struct.pack("<I", 0)
        assert detect_format(data) is StlFormat.BINARY

    def test_solid_prefix_requires_token_boundary(self):
        with pytest.raises(UnrecognizedFormatError):
            detect_format(b"solidx but not a real file")


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

    def test_memory_stays_a_small_multiple_of_the_input(self):
        text = write_canonical_ascii(generate_test_mesh(3))
        tracemalloc.start()
        try:
            parse_ascii(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * len(text)


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
        assert facet.is_degenerate()
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
        model = StlModel(solid_name="t", facets=(unit_facet(),))
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
        model = StlModel(solid_name="my part (v2)!", facets=())
        text = write_canonical_ascii(model)
        assert text.splitlines()[0] == "solid my_part_v2"

    def test_negative_zero_collapses(self):
        f = unit_facet()
        flipped = Facet(v1=f.v1, v2=f.v2, v3=f.v3, normal=(-0.0, 0.0, 1.0))
        text = write_canonical_ascii(StlModel(facets=(flipped,)))
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
    StlModel,
    solid_name=st.text(alphabet="abcXYZ09_-", max_size=10),
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
