"""Golden hashes of seeded outputs.

A refactor must leave every seeded output byte-identical. A change that
alters the seeded random stream or an output format on purpose updates the
hashes here and says so in CHANGES.md.
"""
import hashlib

import pytest

from stlstego import (
    BitSequence,
    ChannelId,
    RandomSource,
    StlFormat,
    TrialConfig,
    capacity,
    embed,
    generate_test_mesh,
    run_experiment,
    sanitize_all,
    serialize,
    write_binary,
)


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


@pytest.fixture(scope="module")
def carrier():
    return generate_test_mesh(2)


SANITIZE_GOLDEN = {
    StlFormat.ASCII: "14120f364366da85",
    StlFormat.BINARY: "7598bd22dc6770d0",
}


@pytest.mark.parametrize("fmt", list(StlFormat), ids=lambda f: f.value)
def test_seeded_sanitize_all(fmt, carrier):
    out, _ = sanitize_all(serialize(carrier, fmt), RandomSource.seeded(101))
    assert digest(out) == SANITIZE_GOLDEN[fmt]


ICOSPHERE_GOLDEN = {
    0: "8c46ff9d4cb479df",
    1: "8d5761f5c08fc43e",
    2: "064dce7b6d60f928",
    3: "296e8d4d349488c4",
    4: "7355f75bba90b7c9",
    5: "d9498c0f3ec401ce",
    6: "f37501f83f388147",
}


@pytest.mark.parametrize("subdivisions", sorted(ICOSPHERE_GOLDEN))
def test_icosphere_records(subdivisions):
    records = generate_test_mesh(subdivisions).records
    assert digest(records.tobytes()) == ICOSPHERE_GOLDEN[subdivisions]


EMBED_GOLDEN = {
    ChannelId.FACET: "8e201ec0c50306a6",
    ChannelId.VERTEX: "67face780d4c5e74",
    ChannelId.NORMAL: "69d9a61755f9eb32",
    ChannelId.NUMBER: "b8e05476a92bd75f",
    ChannelId.WHITESPACE: "142c1f21911df620",
    ChannelId.ROBUST_PAIR: "a9b95c5ece66ecf0",
}


@pytest.mark.parametrize("channel", list(ChannelId), ids=lambda c: c.value)
def test_seeded_embed(channel, carrier):
    payload = BitSequence.random(capacity(carrier, channel), RandomSource.seeded(102))
    stego = embed(carrier, channel, payload)
    data = stego.text.encode("ascii") if hasattr(stego, "text") else write_binary(stego)
    assert digest(data) == EMBED_GOLDEN[channel]


EXPERIMENT_GOLDEN = {
    ChannelId.FACET: "f788bc9ff6dcba9e",
    ChannelId.VERTEX: "196b0a798f97bfdc",
    ChannelId.NORMAL: "b04183ff1e28ac6a",
    ChannelId.NUMBER: "b04183ff1e28ac6a",
    ChannelId.WHITESPACE: "b04183ff1e28ac6a",
    ChannelId.ROBUST_PAIR: "c9c9882d91d3c86f",
}


@pytest.mark.parametrize("channel", list(ChannelId), ids=lambda c: c.value)
def test_seeded_run_experiment(channel, carrier):
    bits = min(capacity(carrier, channel), 128)
    cfg = TrialConfig(channel=channel, carrier=carrier, payload_bits=bits, trials=4, seed=103)
    matrix, _ = run_experiment(cfg)
    data = bytes(matrix.payload.bits) + matrix.cells.tobytes()
    assert digest(data) == EXPERIMENT_GOLDEN[channel]
