import random
from collections import Counter
from dataclasses import replace

import pytest

from conftest import LUCY_TEXT, random_facet, random_model, slot_texts, unit_facet
from scalar_reference import (
    DegenerateFacetError,
    Ordering,
    canonical_vertex_rotation,
    compare_facets,
    geometry_key,
    max_vertex,
    model_from_facets,
    vec3,
    with_facets,
    with_vertices,
)
import stlstego
from stlstego import (
    BitSequence,
    ChannelId,
    Facet,
    RandomSource,
    RawAsciiDocument,
    StlFormat,
    StlModel,
    capacity,
    embed,
    extract,
    generate_test_mesh,
    parse_ascii,
    write_canonical_ascii,
)
from stlstego.errors import CapacityExceededError, ChannelUnavailableError
from stlstego.floatfmt import format_scientific

A = vec3(0, 0, 0)
B = vec3(1, 0, 0)
C = vec3(0, 1, 0)


def abc_facet(order=(A, B, C)) -> Facet:
    return Facet(v1=order[0], v2=order[1], v3=order[2], normal=vec3(0, 0, 1))


def shifted(facet: Facet, dx: float) -> Facet:
    move = lambda v: vec3(v[0] + dx, v[1], v[2])
    return with_vertices(facet, tuple(move(v) for v in facet.vertices))


class TestMaxVertex:
    def test_first_coordinate_decides(self):
        a = vec3(-13.101, 0.527998, 52.206)
        b = vec3(-13.035, 0.791999, 51.81)
        assert max_vertex(a, b) == b

    def test_full_tie_returns_first(self):
        a = vec3(1, 2, 3)
        assert max_vertex(a, vec3(1, 2, 3)) is a

    def test_z_breaks_tie(self):
        assert max_vertex(vec3(0, 0, 1), vec3(0, 0, 0)) == vec3(0, 0, 1)

    def test_total_order_on_random_triples(self):
        rng = random.Random(1)
        for _ in range(200):
            u, v, w = (vec3(*(rng.uniform(-5, 5) for _ in range(3))) for _ in range(3))
            # trichotomy
            assert (u < v) + (u > v) + (u == v) == 1
            # transitivity via max_vertex
            top = max_vertex(u, max_vertex(v, w))
            assert top in (u, v, w)
            assert top >= u and top >= v and top >= w


class TestCanonicalRotation:
    def test_minimum_vertex_moves_first(self):
        rotated = abc_facet((B, C, A))
        assert canonical_vertex_rotation(rotated).vertices == (A, B, C)

    def test_idempotent(self):
        f = canonical_vertex_rotation(abc_facet((C, A, B)))
        assert canonical_vertex_rotation(f) == f

    def test_all_rotations_agree(self):
        outputs = {
            canonical_vertex_rotation(abc_facet(order)).vertices
            for order in ((A, B, C), (B, C, A), (C, A, B))
        }
        assert outputs == {(A, B, C)}

    def test_normal_and_attribute_untouched(self):
        f = replace(abc_facet((B, C, A)), attribute=7)
        out = canonical_vertex_rotation(f)
        assert out.normal == f.normal and out.attribute == 7

    def test_degenerate_rejected(self):
        with pytest.raises(DegenerateFacetError):
            canonical_vertex_rotation(Facet(v1=A, v2=A, v3=B))


class TestCompareFacets:
    def test_rotations_are_equal(self):
        assert compare_facets(abc_facet((A, B, C)), abc_facet((B, C, A))) is Ordering.EQUAL

    def test_translation_orders(self):
        f = abc_facet()
        assert compare_facets(f, shifted(f, 1.0)) is Ordering.LESS
        assert compare_facets(shifted(f, 1.0), f) is Ordering.GREATER

    def test_antisymmetry_on_random_pairs(self):
        rng = random.Random(7)
        for _ in range(100):
            f, g = random_facet(rng), random_facet(rng)
            assert compare_facets(f, g) == -compare_facets(g, f)

    def test_transitivity_on_random_triples(self):
        rng = random.Random(8)
        for _ in range(100):
            fs = sorted(
                (random_facet(rng) for _ in range(3)),
                key=lambda f: canonical_vertex_rotation(f).vertices,
            )
            assert compare_facets(fs[0], fs[2]) in (Ordering.LESS, Ordering.EQUAL)


class TestCapacity:
    def test_icosphere_pairs(self, icosphere4):
        assert capacity(icosphere4, ChannelId.FACET) == 2560
        assert capacity(icosphere4, ChannelId.VERTEX) == 5120
        assert capacity(icosphere4, ChannelId.NORMAL) == 5120
        assert capacity(icosphere4, ChannelId.ROBUST_PAIR) == 1280

    def test_empty_model(self):
        empty = StlModel()
        for channel in (
            ChannelId.FACET,
            ChannelId.VERTEX,
            ChannelId.NORMAL,
            ChannelId.ROBUST_PAIR,
        ):
            assert capacity(empty, channel) == 0

    def test_text_channels_unavailable_on_binary(self):
        model = replace(random_model(4, seed=1), source_format=StlFormat.BINARY)
        with pytest.raises(ChannelUnavailableError):
            capacity(model, ChannelId.NUMBER)
        with pytest.raises(ChannelUnavailableError):
            capacity(model, ChannelId.WHITESPACE)

    def test_text_channels_on_ascii_model(self):
        model = random_model(3, seed=2)
        assert capacity(model, ChannelId.NUMBER) == 36  # 12 tokens per facet
        assert capacity(model, ChannelId.WHITESPACE) == 21  # 7 indented lines per facet

    def test_degenerate_facets_excluded(self):
        degenerate = Facet(v1=A, v2=A, v3=B)
        model = model_from_facets(facets=(degenerate,) + random_model(4, seed=3).facets)
        assert capacity(model, ChannelId.VERTEX) == 4
        assert capacity(model, ChannelId.FACET) == 2

    def test_equal_pairs_skipped(self):
        f = abc_facet()
        model = model_from_facets(facets=(f, abc_facet((B, C, A)), f, shifted(f, 2.0)))
        # first pair is two rotations of the same triangle: unusable
        assert capacity(model, ChannelId.FACET) == 1

    def test_zero_area_excluded_from_normal_channel(self):
        collinear = Facet(v1=vec3(0, 0, 0), v2=vec3(1, 0, 0), v3=vec3(2, 0, 0))
        model = model_from_facets(facets=(collinear, unit_facet()))
        assert capacity(model, ChannelId.NORMAL) == 1
        assert capacity(model, ChannelId.VERTEX) == 2

    def test_monotone_under_facet_removal_for_distinct_carriers(self):
        model = random_model(13, seed=5)
        for channel in (
            ChannelId.FACET,
            ChannelId.VERTEX,
            ChannelId.NORMAL,
            ChannelId.ROBUST_PAIR,
            ChannelId.NUMBER,
            ChannelId.WHITESPACE,
        ):
            full = capacity(model, channel)
            for i in range(len(model.facets)):
                smaller = with_facets(model, model.facets[:i] + model.facets[i + 1 :])
                assert capacity(smaller, channel) <= full


class TestVertexCodec:
    def brute_force_state(self, facet, bit):
        # enumerate the three rotations, apply the encoding definition directly
        a, b, c = facet.vertices
        rotations = [(a, b, c), (b, c, a), (c, a, b)]
        if bit:
            hits = [r for r in rotations if r[0] == max(r)]
        else:
            hits = [r for r in rotations if r[0] == min(r)]
        assert len(hits) == 1
        return hits[0]

    def test_bit_one_lists_maximum_first(self):
        model = model_from_facets(facets=(abc_facet(),))
        out = embed(model, ChannelId.VERTEX, BitSequence((1,)))
        assert out.facets[0].vertices == (B, C, A)
        assert out.facets[0].vertices == self.brute_force_state(abc_facet(), 1)

    def test_bit_zero_lists_minimum_first(self):
        model = model_from_facets(facets=(abc_facet((B, C, A)),))
        out = embed(model, ChannelId.VERTEX, BitSequence((0,)))
        assert out.facets[0].vertices == (A, B, C)
        assert out.facets[0].vertices == self.brute_force_state(abc_facet(), 0)

    def test_extract_mirrors_embed(self):
        model = model_from_facets(facets=(abc_facet((B, C, A)), abc_facet()))
        assert extract(model, ChannelId.VERTEX, 2) == BitSequence((1, 0))
        assert extract(model, ChannelId.VERTEX, 0) == BitSequence(())

    def test_round_trip_matches_brute_force(self):
        rng = random.Random(11)
        model = random_model(40, seed=11)
        payload = BitSequence(rng.randrange(2) for _ in range(40))
        embedded = embed(model, ChannelId.VERTEX, payload)
        assert extract(embedded, ChannelId.VERTEX, len(payload)) == payload
        for f, bit in zip(embedded.facets, payload):
            assert f.vertices == self.brute_force_state(f, bit)

    def test_facets_beyond_payload_untouched(self):
        model = random_model(10, seed=12)
        embedded = embed(model, ChannelId.VERTEX, BitSequence((1, 0, 1)))
        assert embedded.facets[3:] == model.facets[3:]

    def test_capacity_enforced(self):
        with pytest.raises(CapacityExceededError):
            embed(model_from_facets(facets=(abc_facet(),)), ChannelId.VERTEX, BitSequence((1, 0)))


class TestFacetCodec:
    def test_bit_zero_orders_smaller_first(self):
        f = abc_facet()
        greater = shifted(f, 3.0)
        model = model_from_facets(facets=(greater, f))
        out = embed(model, ChannelId.FACET, BitSequence((0,)))
        assert out.facets == (f, greater)
        out = embed(model, ChannelId.FACET, BitSequence((1,)))
        assert out.facets == (greater, f)

    def test_extract_bit_definition(self):
        f = abc_facet()
        greater = shifted(f, 3.0)
        assert extract(model_from_facets(facets=(greater, f)), ChannelId.FACET, 1) == BitSequence((1,))
        assert extract(model_from_facets(facets=(f, greater)), ChannelId.FACET, 1) == BitSequence((0,))

    def test_round_trip_full_capacity(self, icosphere4):
        rng = random.Random(13)
        payload = BitSequence(rng.randrange(2) for _ in range(1024))
        embedded = embed(icosphere4, ChannelId.FACET, payload)
        assert extract(embedded, ChannelId.FACET, 1024) == payload

    def test_multiset_of_canonical_facets_preserved(self, icosphere2):
        rng = random.Random(14)
        payload = BitSequence(rng.randrange(2) for _ in range(100))
        embedded = embed(icosphere2, ChannelId.FACET, payload)
        assert Counter(map(geometry_key, embedded.facets)) == Counter(
            map(geometry_key, icosphere2.facets)
        )


class TestNormalCodec:
    def test_bit_one_negates_rhr_normal(self):
        model = model_from_facets(facets=(abc_facet(),))
        out = embed(model, ChannelId.NORMAL, BitSequence((1,)))
        assert out.facets[0].normal == (0.0, 0.0, -1.0)
        out = embed(model, ChannelId.NORMAL, BitSequence((0,)))
        assert out.facets[0].normal == (0.0, 0.0, 1.0)

    def test_extract_sign_of_dot(self):
        stored_against = replace(abc_facet(), normal=vec3(0.1, -0.2, -0.9))
        stored_with = replace(abc_facet(), normal=vec3(0, 0, 2.5))
        model = model_from_facets(facets=(stored_against, stored_with))
        assert extract(model, ChannelId.NORMAL, 2) == BitSequence((1, 0))

    def test_zero_length_normal_decodes_zero(self):
        model = model_from_facets(facets=(replace(abc_facet(), normal=(0.0, 0.0, 0.0)),))
        assert extract(model, ChannelId.NORMAL, 1) == BitSequence((0,))

    def test_zero_area_facets_skipped(self):
        collinear = Facet(v1=vec3(0, 0, 0), v2=vec3(1, 0, 0), v3=vec3(2, 0, 0))
        model = model_from_facets(facets=(collinear, abc_facet()))
        out = embed(model, ChannelId.NORMAL, BitSequence((1,)))
        assert out.facets[0] == collinear
        assert out.facets[1].normal == (0.0, 0.0, -1.0)

    def test_round_trip(self):
        rng = random.Random(15)
        model = random_model(64, seed=15)
        payload = BitSequence(rng.randrange(2) for _ in range(64))
        assert extract(embed(model, ChannelId.NORMAL, payload), ChannelId.NORMAL, 64) == payload


class TestRobustPairCodec:
    def test_increasing_pairs_read_zero(self):
        base = abc_facet()
        quad = tuple(shifted(base, float(i)) for i in range(4))
        model = model_from_facets(facets=quad)
        assert extract(model, ChannelId.ROBUST_PAIR, 1) == BitSequence((0,))
        swapped = model_from_facets(facets=(quad[2], quad[3], quad[0], quad[1]))
        assert extract(swapped, ChannelId.ROBUST_PAIR, 1) == BitSequence((1,))

    def test_embed_swaps_whole_pairs(self):
        base = abc_facet()
        quad = tuple(shifted(base, float(i)) for i in range(4))
        model = model_from_facets(facets=quad)
        out = embed(model, ChannelId.ROBUST_PAIR, BitSequence((1,)))
        assert out.facets == (quad[2], quad[3], quad[0], quad[1])

    def test_reading_ignores_vertex_rotation_and_pair_order(self):
        # canonical forms make the bit immune to rotations and in-pair swaps
        base = abc_facet()
        quad = [shifted(base, float(i)) for i in range(4)]
        model = model_from_facets(facets=tuple(quad))
        bit = extract(model, ChannelId.ROBUST_PAIR, 1)
        scrambled = model_from_facets(
            facets=(
                with_vertices(quad[1], (quad[1].v2, quad[1].v3, quad[1].v1)),
                quad[0],
                quad[3],
                with_vertices(quad[2], (quad[2].v3, quad[2].v1, quad[2].v2)),
            )
        )
        assert extract(scrambled, ChannelId.ROBUST_PAIR, 1) == bit

    def test_round_trip_full_capacity(self, icosphere4):
        rng = random.Random(16)
        payload = BitSequence(rng.randrange(2) for _ in range(1024))
        embedded = embed(icosphere4, ChannelId.ROBUST_PAIR, payload)
        assert extract(embedded, ChannelId.ROBUST_PAIR, 1024) == payload


class TestNumberCodec:
    def test_fig_token_rewrite(self):
        doc = RawAsciiDocument(LUCY_TEXT)
        assert extract(doc, ChannelId.NUMBER, 5)[4] == 0  # "0.527998" is standard notation
        payload = BitSequence([0, 0, 0, 0, 1])
        out = embed(doc, ChannelId.NUMBER, payload)
        assert slot_texts(out, out.number_spans)[4] == "5.27998e-1"
        assert "vertex -13.101 5.27998e-1 52.206" in out.text

    def test_all_zero_payload_standardizes_all_tokens(self):
        text = LUCY_TEXT.replace("52.206", "5.2206e1").replace("-0.818", "-8.18e-1")
        doc = RawAsciiDocument(text)
        out = embed(doc, ChannelId.NUMBER, BitSequence([0] * 24))
        tokens = slot_texts(out, out.number_spans)
        assert all("e" not in t and "E" not in t for t in tokens)
        assert extract(out, ChannelId.NUMBER, 24) == BitSequence([0] * 24)

    def test_round_trip_and_value_preservation(self):
        rng = random.Random(17)
        doc = RawAsciiDocument(LUCY_TEXT)
        payload = BitSequence(rng.randrange(2) for _ in range(24))
        out = embed(doc, ChannelId.NUMBER, payload)
        assert extract(out, ChannelId.NUMBER, 24) == payload
        assert parse_ascii(out.text).facets == parse_ascii(LUCY_TEXT).facets

    def test_requested_notation_left_untouched(self):
        doc = RawAsciiDocument(LUCY_TEXT)
        out = embed(doc, ChannelId.NUMBER, BitSequence([0] * 24))
        assert out.text == LUCY_TEXT  # every token is already standard

    def test_each_distinct_token_is_respelled_once(self, monkeypatch):
        from stlstego import channels

        doc = RawAsciiDocument(write_canonical_ascii(generate_test_mesh(2)))
        tokens = slot_texts(doc, doc.number_spans)
        seen = []
        original = channels.parse_float32

        def counted(token, line=None):
            seen.append(token)
            return original(token, line)

        monkeypatch.setattr(channels, "parse_float32", counted)
        ones = embed(doc, ChannelId.NUMBER, BitSequence([1] * len(tokens)))
        assert sorted(seen) == sorted(set(tokens)) and len(seen) < len(tokens)
        respelled = slot_texts(ones, ones.number_spans)
        assert respelled == [format_scientific(original(t)) for t in tokens]
        seen.clear()
        zeros = embed(ones, ChannelId.NUMBER, BitSequence([0] * len(tokens)))
        assert sorted(seen) == sorted(set(respelled))
        assert zeros.text == doc.text


class TestWhitespaceCodec:
    def test_space_indented_fixture_reads_zero(self):
        doc = RawAsciiDocument(LUCY_TEXT)
        k = len(doc.indent_spans)
        assert extract(doc, ChannelId.WHITESPACE, k) == BitSequence([0] * k)

    def test_flipping_third_indented_line_sets_bit_two(self):
        doc = RawAsciiDocument(LUCY_TEXT)
        run = slot_texts(doc, doc.indent_spans)[2]
        out = doc.with_indent_runs([2], ["\t" * len(run)])
        bits = extract(out, ChannelId.WHITESPACE, 4)
        assert bits == BitSequence((0, 0, 1, 0))

    def test_round_trip_preserves_parse(self):
        rng = random.Random(18)
        doc = RawAsciiDocument(LUCY_TEXT)
        k = len(doc.indent_spans)
        payload = BitSequence(rng.randrange(2) for _ in range(k))
        out = embed(doc, ChannelId.WHITESPACE, payload)
        assert extract(out, ChannelId.WHITESPACE, k) == payload
        assert parse_ascii(out.text).facets == parse_ascii(LUCY_TEXT).facets


class TestDispatch:
    @pytest.mark.parametrize("channel", list(ChannelId))
    def test_embed_extract_inverse(self, channel, icosphere2):
        rng = RandomSource.seeded(19)
        carrier = icosphere2
        if channel in (ChannelId.NUMBER, ChannelId.WHITESPACE):
            carrier = RawAsciiDocument(write_canonical_ascii(icosphere2))
        k = min(capacity(carrier, channel), 96)
        payload = BitSequence.random(k, rng)
        assert extract(embed(carrier, channel, payload), channel, k) == payload

    def test_negative_bit_count_rejected(self, icosphere2):
        with pytest.raises(ValueError):
            extract(icosphere2, ChannelId.FACET, -1)

    def test_text_channel_on_binary_model_rejected(self):
        model = replace(random_model(3, seed=20), source_format=StlFormat.BINARY)
        with pytest.raises(ChannelUnavailableError):
            embed(model, ChannelId.NUMBER, BitSequence((1,)))

    @pytest.mark.parametrize(
        "channel",
        [ChannelId.FACET, ChannelId.VERTEX, ChannelId.NORMAL, ChannelId.ROBUST_PAIR],
    )
    def test_geometry_preserved_by_every_model_channel(self, channel, icosphere2):
        payload = BitSequence.random(
            capacity(icosphere2, channel), RandomSource.seeded(21)
        )
        embedded = embed(icosphere2, channel, payload)
        assert Counter(map(geometry_key, embedded.facets)) == Counter(
            map(geometry_key, icosphere2.facets)
        )

    def test_embed_and_extract_are_the_whole_channel_api(self):
        # a channel is one CHANNELS entry; it adds no public name
        exported = {n for n in dir(stlstego) if n.startswith(("embed", "extract"))}
        assert exported == {"embed", "extract"}
        assert not hasattr(stlstego, "TEXT_CHANNELS")


def test_text_capacity_counts_the_document_slots(icosphere2):
    text = write_canonical_ascii(icosphere2).replace("    outer", "\t outer")
    doc = RawAsciiDocument(text)
    assert capacity(doc, ChannelId.NUMBER) == len(doc.number_spans) == 12 * 320
    assert capacity(doc, ChannelId.WHITESPACE) == len(doc.indent_spans) == 7 * 320
    assert extract(doc, ChannelId.WHITESPACE, 3) == BitSequence((0, 1, 0))
