import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import LUCY_TEXT, random_model, slot_texts
from stlstego import (
    BitSequence,
    ChannelId,
    RawAsciiDocument,
    capacity,
    embed,
    extract,
    generate_test_mesh,
    parse_ascii,
    write_canonical_ascii,
)
from stlstego import rawdoc
from stlstego.errors import StlParseError
from stlstego.floatfmt import parse_float32


def test_rejoining_reproduces_text_exactly():
    doc = RawAsciiDocument(LUCY_TEXT)
    assert doc.text == LUCY_TEXT


def test_number_tokens_in_file_order():
    doc = RawAsciiDocument(LUCY_TEXT)
    tokens = slot_texts(doc, doc.number_spans)
    assert len(tokens) == 24  # 12 per facet
    assert tokens[0] == "-0.1128"
    assert tokens[3] == "-13.101"
    assert tokens[4] == "0.527998"
    assert tokens[23] == "50.754"


def test_indent_runs_cover_indented_lines():
    doc = RawAsciiDocument(LUCY_TEXT)
    # 7 indented lines per facet
    assert len(doc.indent_spans) == 14
    assert all(set(run) <= {" ", "\t"} for run in slot_texts(doc, doc.indent_spans))


def test_solid_name_is_not_a_number_token():
    text = "solid 123\nendsolid 123\n"
    doc = RawAsciiDocument(text)
    assert slot_texts(doc, doc.number_spans) == []
    assert doc.text == text


# a one-facet file whose solid name spells a vertex statement
NAMED_VERTEX_TEXT = """\
solid vertex 1 2 3
  facet normal 0 0 1
    outer loop
      vertex 0 0 0
      vertex 1 0 0
      vertex 0 1 0
    endloop
  endfacet
endsolid vertex 1 2 3
"""


def test_number_slots_follow_the_grammar():
    doc = RawAsciiDocument(NAMED_VERTEX_TEXT)
    tokens = ["0", "0", "1", "0", "0", "0", "1", "0", "0", "0", "1", "0"]
    assert slot_texts(doc, doc.number_spans) == tokens
    assert capacity(doc, ChannelId.NUMBER) == 12
    assert len(doc.indent_spans) == 7


def test_number_round_trip_leaves_the_name_line_alone():
    doc = RawAsciiDocument(NAMED_VERTEX_TEXT)
    payload = BitSequence([1, 0, 1] * 4)
    out = embed(doc, ChannelId.NUMBER, payload)
    assert extract(out, ChannelId.NUMBER, 12) == payload
    lines, out_lines = NAMED_VERTEX_TEXT.split("\n"), out.text.split("\n")
    assert out_lines[0] == lines[0] and out_lines[-2] == lines[-2]
    assert out_lines[1] == "  facet normal 0e0 0 1e0"


# the statements of one facet after `facet normal`, none of them indented
FACET_BODY = "outer loop\nvertex 0 0 0\nvertex 1 0 0\nvertex 0 1 0\nendloop\nendfacet\n"


def test_blank_whitespace_lines_are_not_indented_lines():
    text = "solid a\n   \n  facet normal 0 0 1\n" + FACET_BODY + "endsolid a\n"
    doc = RawAsciiDocument(text)
    assert len(doc.indent_spans) == 1


def test_crlf_and_trailing_space_preserved():
    body = FACET_BODY.replace("\n", " \r\n")
    text = "solid a\r\n\t facet normal 1 2.5e0 3 \r\n" + body + "endsolid a\r\n"
    doc = RawAsciiDocument(text)
    assert doc.text == text
    tokens = ["1", "2.5e0", "3"] + ["0", "0", "0", "1", "0", "0", "0", "1", "0"]
    assert slot_texts(doc, doc.number_spans) == tokens
    assert slot_texts(doc, doc.indent_spans) == ["\t "]


def test_rewrite_preserves_surroundings():
    doc = RawAsciiDocument(LUCY_TEXT)
    out = doc.with_number_tokens([4], ["5.27998e-1"])
    assert "vertex -13.101 5.27998e-1 52.206" in out.text
    assert out.text.count("\n") == LUCY_TEXT.count("\n")

    out = doc.with_indent_runs([0], ["\t\t"])
    assert out.text.splitlines()[1].startswith("\t\tfacet")


printable = st.text(
    alphabet=st.characters(min_codepoint=32, max_codepoint=126), max_size=200
)
# one whole facet, so that many framed draws are valid STL
LUCY_FACET = "\n".join(LUCY_TEXT.split("\n")[1:8])


@given(st.lists(st.one_of(printable, st.just(LUCY_FACET)), max_size=10), st.booleans())
def test_document_accepts_what_parse_ascii_accepts_and_keeps_the_text(lines, framed):
    if framed:
        lines = ["solid a", *lines, "endsolid a"]
    text = "\n".join(lines)
    try:
        parse_ascii(text)
    except StlParseError as exc:
        with pytest.raises(StlParseError) as raised:
            RawAsciiDocument(text)
        assert str(raised.value) == str(exc)
    else:
        assert RawAsciiDocument(text).text == text


def test_rewrites_of_invalid_text_raise_the_parse_error():
    doc = RawAsciiDocument(LUCY_TEXT)
    with pytest.raises(StlParseError, match=r"line 4: not a number: 'nan'"):
        doc.with_number_tokens([3], ["nan"])
    with pytest.raises(StlParseError, match=r"line 2: unknown keyword 'xfacet'"):
        doc.with_indent_runs([0], ["x"])


@settings(max_examples=25, deadline=None)
@given(
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=0, max_value=2**32 - 1),
    st.data(),
)
def test_slots_agree_with_the_parser(n, seed, data):
    doc = RawAsciiDocument(write_canonical_ascii(random_model(n, seed)))
    number_bits = data.draw(st.lists(st.integers(0, 1), max_size=12 * n))
    indent_bits = data.draw(st.lists(st.integers(0, 1), max_size=7 * n))
    doc = embed(doc, ChannelId.NUMBER, BitSequence(number_bits))
    doc = embed(doc, ChannelId.WHITESPACE, BitSequence(indent_bits))

    model = parse_ascii(doc.text)
    components = [c for f in model.facets for v in (f.normal, *f.vertices) for c in v]
    assert [parse_float32(t) for t in slot_texts(doc, doc.number_spans)] == components
    assert len(doc.number_spans) == 12 * n
    assert len(doc.indent_spans) == 7 * n


def _assert_same_as_a_fresh_read(doc):
    fresh = RawAsciiDocument(doc.text)
    assert doc.number_spans.tolist() == fresh.number_spans.tolist()
    assert doc.indent_spans.tolist() == fresh.indent_spans.tolist()
    assert doc.model.solid_name == fresh.model.solid_name
    assert doc.model.records.tobytes() == fresh.model.records.tobytes()


def _carrier_text(subdivisions: int, style: str) -> str:
    text = write_canonical_ascii(generate_test_mesh(subdivisions))
    if style == "crlf":
        return text.replace("\n", "\r\n")
    if style == "tabs":
        return text.replace("  ", "\t")
    if style == "mixed":  # -0, scientific tokens, other whitespace in indents
        text = text.replace(" 0\n", " -0\n").replace(" 0 ", " 0e0 ").replace("vertex ", "vertex \t")
        return text.replace("    endloop", "  \x0c endloop").replace("endsolid", "endsolid  x")
    # a non-ASCII name, and a few indents that hold non-ASCII whitespace
    text = text.replace("solid", "solid caf\u00e9 \u2028", 1)
    text = text.replace("endsolid", "endsolid caf\u00e9")
    return text.replace("    outer", "  \u3000 outer", 3)


@pytest.mark.parametrize("subdivisions", [2, 4])
@pytest.mark.parametrize("style", ["crlf", "tabs", "mixed"])
def test_splices_equal_a_fresh_read(subdivisions, style):
    doc = RawAsciiDocument(_carrier_text(subdivisions, style))
    rng = random.Random(f"{style}/{subdivisions}")
    for channel in (ChannelId.NUMBER, ChannelId.WHITESPACE, ChannelId.NUMBER):
        cap = capacity(doc, channel)
        payload = BitSequence(rng.randrange(2) for _ in range(rng.randrange(cap // 2, cap + 1)))
        doc = embed(doc, channel, payload)
        _assert_same_as_a_fresh_read(doc)
        assert extract(doc, channel, len(payload)) == payload


@pytest.mark.parametrize("subdivisions", [2, 4])
def test_a_non_ascii_carrier_is_rejected_at_its_first_such_character(subdivisions):
    text = _carrier_text(subdivisions, "non-ascii-name")
    with pytest.raises(StlParseError) as raised:
        RawAsciiDocument(text)
    assert str(raised.value) == "line 1: not an ASCII character: '\xe9'"
    # with an ASCII name, the first is the U+3000 indent of line 3
    text = text.replace("caf\u00e9", "cafe").replace(" \u2028", "")
    with pytest.raises(StlParseError) as raised:
        RawAsciiDocument(text)
    assert str(raised.value) == "line 3: not an ASCII character: '\\u3000'"


def test_non_ascii_replacements_are_rejected_at_their_line():
    doc = RawAsciiDocument(LUCY_TEXT)
    for rewrite, piece in ((doc.with_number_tokens, "\u0663"), (doc.with_indent_runs, "\u3000")):
        with pytest.raises(StlParseError) as raised:
            rewrite([0], [piece])
        assert str(raised.value) == f"line 2: not an ASCII character: {piece!r}"


def test_respelling_negative_zero_flips_its_sign_bit():
    doc = RawAsciiDocument(LUCY_TEXT.replace("-0.1128", "-0"))
    assert np.signbit(doc.model.normals[0, 0])
    out = embed(doc, ChannelId.NUMBER, BitSequence([1]))
    assert slot_texts(out, out.number_spans)[0] == "0e0"
    assert not np.signbit(out.model.normals[0, 0])
    _assert_same_as_a_fresh_read(out)


def test_replacements_outside_the_fast_splice_read_the_text_again():
    doc = RawAsciiDocument(LUCY_TEXT)
    with pytest.raises(StlParseError, match=r"line 4: out of single-precision range: '1e99'"):
        doc.with_number_tokens([5], ["1e99"])
    out = doc.with_indent_runs([2], [""])  # the line loses its indent slot
    assert len(out.indent_spans) == len(doc.indent_spans) - 1
    _assert_same_as_a_fresh_read(out)


@pytest.mark.parametrize("numbers", [True, False])
def test_slot_rewrites_check_their_slots(numbers):
    doc = RawAsciiDocument(LUCY_TEXT)
    if numbers:
        rewrite, count, piece = doc.with_number_tokens, len(doc.number_spans), "1"
    else:
        rewrite, count, piece = doc.with_indent_runs, len(doc.indent_spans), " "
    for slots in ([2, 1], [1, 1], [-1], [count], [0, count]):
        with pytest.raises(ValueError):
            rewrite(slots, [piece] * len(slots))
    with pytest.raises(ValueError):
        rewrite([1, 2], [piece])
    with pytest.raises(ValueError):
        rewrite([], [piece])
    assert rewrite([], []) is doc
    assert rewrite(np.array([], dtype=np.int64), []) is doc


def test_mixed_indents_become_runs_of_one_character():
    text = LUCY_TEXT.replace("  facet", " \tfacet").replace("    outer", "\t outer")
    doc = RawAsciiDocument(text.replace("      vertex", "\t\t vertex"))
    runs = slot_texts(doc, doc.indent_spans)
    assert {" \t", "\t ", "\t\t "} <= set(runs)
    k = len(runs)
    for bits in ([0] * k, [1] * k, [i % 2 for i in range(k)], [1, 0, 1] * 3):
        out = embed(doc, ChannelId.WHITESPACE, BitSequence(bits))
        # the rule slot by slot: a run of the bit's character, as wide as before
        rewritten = [("\t" if bit else " ") * len(run) for bit, run in zip(bits, runs)]
        assert slot_texts(out, out.indent_spans) == rewritten + runs[len(bits):]
        assert extract(out, ChannelId.WHITESPACE, len(bits)) == BitSequence(bits)
        _assert_same_as_a_fresh_read(out)


@pytest.mark.parametrize("chunk", [1, 97, 4096])
def test_spans_do_not_depend_on_the_chunk_size(chunk, monkeypatch):
    texts = [_carrier_text(2, style) for style in ("crlf", "tabs", "mixed")]
    expected = [RawAsciiDocument(text) for text in texts]
    monkeypatch.setattr(rawdoc, "_CHUNK", chunk)
    for text, want in zip(texts, expected):
        got = RawAsciiDocument(text)
        assert got.number_spans.tolist() == want.number_spans.tolist()
        assert got.indent_spans.tolist() == want.indent_spans.tolist()


def test_a_document_holds_a_small_multiple_of_its_text():
    text = write_canonical_ascii(generate_test_mesh(5))
    tracemalloc.start()
    try:
        RawAsciiDocument(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3 * len(text)
