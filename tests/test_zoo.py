import random

import numpy as np
import pytest

from stlstego import (
    BitSequence,
    ChannelId,
    RandomSource,
    RawAsciiDocument,
    StlFormat,
    StlModel,
    capacity,
    detect_format,
    embed,
    extract,
    parse_ascii,
    parse_binary,
    parse_bytes,
    sanitize_all,
    write_binary,
    write_canonical_ascii,
)
from stlstego import model as model_module
from stlstego.channels import CHANNELS
from stlstego.model import coords, rhr_normals, rotate
from zoo import cad_like, dirty_export, extremes, heightfield

SEEDS = [1, 2, 3]


def _bits(model) -> bytes:
    return coords(model.records).tobytes()


@pytest.mark.parametrize("seed", SEEDS)
def test_extremes_reach_both_ends_of_the_range(seed):
    model, text = extremes(seed)
    magnitudes = np.abs(model.vertices[model.vertices != 0])
    assert magnitudes.min() < np.finfo(np.float32).tiny
    assert magnitudes.max() > 3e38
    assert "\r\n" in text and "\t" in text
    # some tokens are exact decimals far longer than any shortest spelling
    assert max(map(len, text.split())) > 60


@pytest.mark.parametrize("seed", SEEDS)
def test_extremes_round_trip_bit_for_bit(seed):
    model, text = extremes(seed)
    assert _bits(parse_ascii(text)) == _bits(model)
    assert parse_binary(write_binary(model)).records.tobytes() == model.records.tobytes()
    # the canonical writer spells -0.0 as 0, so compare with zeros unsigned
    unsigned = coords(model.records) + np.float32(0)
    assert _bits(parse_ascii(write_canonical_ascii(model))) == unsigned.tobytes()


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("channel", list(ChannelId))
def test_every_channel_round_trips_at_capacity(seed, channel):
    model, text = extremes(seed)
    doc = RawAsciiDocument(text)
    k = capacity(doc, channel)
    rng = random.Random(seed)
    payload = BitSequence(rng.randrange(2) for _ in range(k))
    out = embed(doc, channel, payload)
    assert extract(out, channel, k) == payload
    carried = out.model if isinstance(out, RawAsciiDocument) else out
    assert sorted(carried.geometry_keys.tolist()) == sorted(model.geometry_keys.tolist())


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("channel", [ChannelId.NUMBER, ChannelId.WHITESPACE])
def test_text_channel_splices_equal_a_fresh_read(seed, channel):
    _, text = extremes(seed)
    doc = RawAsciiDocument(text)
    rng = random.Random(seed)
    for _ in range(2):  # once from the rendering, once from a spliced document
        payload = BitSequence(rng.randrange(2) for _ in range(capacity(doc, channel)))
        doc = embed(doc, channel, payload)
        fresh = RawAsciiDocument(doc.text)
        assert _bits(doc.model) == _bits(fresh.model)
        assert np.array_equal(doc.number_spans, fresh.number_spans)
        assert np.array_equal(doc.indent_spans, fresh.indent_spans)


@pytest.mark.parametrize("seed", SEEDS)
def test_sanitize_keeps_the_geometry(seed):
    model, text = extremes(seed)
    clean, _ = sanitize_all(text.encode("ascii"), RandomSource.seeded(seed))
    cleaned = parse_bytes(clean)
    assert sorted(cleaned.geometry_keys.tolist()) == sorted(model.geometry_keys.tolist())


EXPORTS = {"dirty-export": dirty_export, "cad-like": cad_like, "heightfield": heightfield}


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("mesh", ["extremes", *EXPORTS])
def test_take_carries_the_rows_a_fresh_model_computes(mesh, seed):
    model = extremes(seed)[0] if mesh == "extremes" else EXPORTS[mesh](seed)[0]
    model.geometry_keys, model.degenerate
    order = list(range(len(model)))
    random.Random(seed).shuffle(order)
    taken = model.take(np.array(order))
    fresh = model.with_records(model.records[order])
    assert taken == fresh
    # bytes, so that -0.0 and 0.0 count as different
    assert taken.records.tobytes() == fresh.records.tobytes()
    assert taken.geometry_keys.tobytes() == fresh.geometry_keys.tobytes()
    assert taken.degenerate.tobytes() == fresh.degenerate.tobytes()
    assert not taken.geometry_keys.flags.writeable and not taken.degenerate.flags.writeable


def test_take_of_a_model_with_nothing_cached_computes_nothing(monkeypatch):
    calls = []

    def counted(name):
        original = getattr(model_module, name)

        def wrapper(*args):
            calls.append(name)
            return original(*args)

        monkeypatch.setattr(model_module, name, wrapper)

    counted("extreme_rotation")
    counted("degenerate")
    model = dirty_export(1)[0]
    taken = model.take(np.arange(len(model))[::-1])
    assert calls == []
    taken.degenerate
    assert calls == ["degenerate"]


def _keys(model) -> list:
    """The sorted geometry_keys rows, in which -0.0 equals 0.0."""
    return sorted(model.geometry_keys.tolist())


def test_the_exports_have_their_features():
    for seed in SEEDS:
        model, _, binaries = dirty_export(seed)
        vertices = model.vertices
        assert len(np.unique(model.geometry_keys, axis=0)) < len(model)  # repeated facets
        assert model.degenerate.any()  # coincident slivers
        assert (~rhr_normals(vertices)[1] & ~model.degenerate).any()  # collinear slivers
        assert (np.signbit(vertices) & (vertices == 0)).any()
        assert model.records["attr"].any()
        assert [data[:6] for data in binaries] == [b"solid ", b"COLOR=", b"part 7"]
        model, _, _ = cad_like(seed)
        assert not model.degenerate.any()
        assert (model.vertices * 2 == np.round(model.vertices * 2)).all()  # on the grid
        assert (np.signbit(model.normals) & (model.normals == 0)).any()
        model, _, _ = heightfield(seed)
        # a shared grid: each vertex is a corner of more than four facets on average
        assert 4 * len(np.unique(model.vertices.reshape(-1, 3), axis=0)) < 3 * len(model)
        vertices = model.vertices.astype(np.float64)
        edges = np.linalg.norm(vertices[:, [1, 2, 0]] - vertices, axis=2)
        assert (edges.max(axis=1) >= 20 * edges.min(axis=1)).all()  # thin triangles
        assert (model.normals[:, 2] > 0).all()  # right-hand rule, pointing up
        assert not model.degenerate.any() and rhr_normals(model.vertices)[1].all()


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("mesh", EXPORTS)
def test_exports_round_trip_bit_for_bit(mesh, seed):
    model, text, binaries = EXPORTS[mesh](seed)
    for data in binaries:
        assert detect_format(data) is StlFormat.BINARY
        read = parse_bytes(data)
        assert read.records.tobytes() == model.records.tobytes()
        assert write_binary(read)[80:] == data[80:]
    assert _bits(parse_ascii(text)) == _bits(model)
    unsigned = coords(model.records) + np.float32(0)
    assert _bits(parse_ascii(write_canonical_ascii(model))) == unsigned.tobytes()


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("channel", list(ChannelId))
@pytest.mark.parametrize("mesh", EXPORTS)
def test_every_channel_round_trips_at_capacity_in_exports(mesh, channel, seed):
    model, text, binaries = EXPORTS[mesh](seed)
    # the text channels on the ASCII rendering, the others on a binary file
    carrier = RawAsciiDocument(text) if CHANNELS[channel].text else parse_bytes(binaries[0])
    k = capacity(carrier, channel)
    assert k > 0
    rng = random.Random(seed)
    payload = BitSequence(rng.randrange(2) for _ in range(k))
    out = embed(carrier, channel, payload)
    assert extract(out, channel, k) == payload
    carried = out.model if isinstance(out, RawAsciiDocument) else out
    assert _keys(carried) == _keys(model)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("channel", [ChannelId.NUMBER, ChannelId.WHITESPACE])
@pytest.mark.parametrize("mesh", EXPORTS)
def test_export_splices_equal_a_fresh_read(mesh, channel, seed):
    _, text, _ = EXPORTS[mesh](seed)
    doc = RawAsciiDocument(text)
    rng = random.Random(seed)
    for _ in range(2):
        payload = BitSequence(rng.randrange(2) for _ in range(capacity(doc, channel)))
        doc = embed(doc, channel, payload)
        fresh = RawAsciiDocument(doc.text)
        assert _bits(doc.model) == _bits(fresh.model)
        assert np.array_equal(doc.number_spans, fresh.number_spans)
        assert np.array_equal(doc.indent_spans, fresh.indent_spans)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("mesh", EXPORTS)
def test_sanitize_keeps_the_geometry_of_exports(mesh, seed):
    model, text, binaries = EXPORTS[mesh](seed)
    for data in [*binaries, text.encode("ascii")]:
        for fmt in (StlFormat.BINARY, StlFormat.ASCII):
            clean, _ = sanitize_all(data, RandomSource.seeded(seed), fmt)
            assert _keys(parse_bytes(clean)) == _keys(model)


def _twin(model: StlModel, rng: random.Random) -> StlModel:
    """model with its facets permuted, each vertex list rotated, the sign
    of every zero flipped and another name: the same geometry multiset."""
    records = model.records[rng.sample(range(len(model)), len(model))]
    turns = np.array([rng.randrange(3) for _ in range(len(model))])
    coords(records)[:, 1:] = rotate(coords(records)[:, 1:], turns)
    values = coords(records)
    values[values == 0] *= -1
    return StlModel("PART 7 (rev B)", records, model.source_format)


def test_a_twin_differs_only_in_what_sanitize_must_erase():
    model, _, _ = dirty_export(SEEDS[0])
    twin = _twin(model, random.Random(0))
    assert _keys(twin) == _keys(model)
    assert twin.solid_name != model.solid_name
    assert (twin.geometry_keys != model.geometry_keys).any()  # another order
    assert (np.signbit(twin.vertices) != np.signbit(model.vertices)).any()


@pytest.mark.xfail(strict=True, raises=AssertionError, reason="ROADMAP item 1")
@pytest.mark.parametrize("seed", SEEDS)
def test_equal_geometry_sanitizes_to_identical_bytes(seed):
    model, _, _ = dirty_export(seed)
    twin = _twin(model, random.Random(seed))
    for fmt in (StlFormat.BINARY, StlFormat.ASCII):
        outputs = {
            sanitize_all(write_binary(m), RandomSource.seeded(seed), fmt)[0] for m in (model, twin)
        }
        assert len(outputs) == 1
