import random

import numpy as np
import pytest

from stlstego import (
    BitSequence,
    ChannelId,
    RandomSource,
    RawAsciiDocument,
    capacity,
    embed,
    extract,
    parse_ascii,
    parse_binary,
    parse_bytes,
    sanitize_all,
    write_binary,
    write_canonical_ascii,
)
from stlstego.model import coords
from zoo import extremes

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
