#!/usr/bin/env python3
"""Scrub a payload-carrying STL file and show what survives.

Every channel is wiped in one pass: facets are shuffled, vertex lists are
re-rotated, normals are recomputed, and the canonical writer normalizes
notation and whitespace. The geometry itself is untouched, down to the
exact single-precision coordinates.
"""
from stlstego import (
    BitSequence,
    ChannelId,
    RandomSource,
    embed,
    extract,
    generate_test_mesh,
    parse_bytes,
    sanitize_all,
    serialize,
    StlFormat,
)

carrier = generate_test_mesh(2)
payload = BitSequence.from_bytes(b"\xca\xfe\xf0\x0d" * 4)

stego = embed(carrier, ChannelId.FACET, payload)
stego_bytes = serialize(stego, StlFormat.ASCII)
print(f"stego file: {len(stego_bytes)} bytes, payload {len(payload)} bits in facet order")

clean_bytes, report = sanitize_all(stego_bytes, RandomSource.crypto())
print(
    f"sanitized : {report.facets_shuffled} facets shuffled, "
    f"{report.vertices_rotated} vertex lists re-rotated at random, "
    f"{report.normals_recomputed} normals recomputed"
)

clean = parse_bytes(clean_bytes)
leftovers = extract(clean, ChannelId.FACET, len(payload))
matches = sum(a == b for a, b in zip(leftovers, payload))
print(f"payload bits still matching after scrub: {matches}/{len(payload)} (coin-flip level)")


def geometry(model):
    """The facets' geometry as a multiset: each facet's rotation-invariant
    key, sorted. The rows compare as Python lists, so -0.0 equals 0.0."""
    return sorted(model.geometry_keys.tolist())


same_geometry = geometry(clean) == geometry(carrier)
print(f"geometry preserved exactly: {same_geometry}")
assert same_geometry

# scrubbing is idempotent on the geometry: a second pass changes nothing
again, _ = sanitize_all(clean_bytes, RandomSource.crypto())
assert geometry(parse_bytes(again)) == geometry(carrier)
print("second scrub: geometry still identical")
