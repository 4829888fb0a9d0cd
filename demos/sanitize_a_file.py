#!/usr/bin/env python3
"""Scrub a payload-carrying STL file and show what survives.

Every channel is wiped in one pass: facets are shuffled, vertex lists are
re-rotated, normals are recomputed, and the canonical writer normalizes
notation and whitespace. The geometry itself is untouched, down to the
exact single-precision coordinates.
"""
from collections import Counter

from stlstego import (
    BitSequence,
    ChannelId,
    RandomSource,
    embed,
    extract,
    generate_test_mesh,
    geometry_key,
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

same_geometry = Counter(map(geometry_key, clean.facets)) == Counter(
    map(geometry_key, carrier.facets)
)
print(f"geometry preserved exactly: {same_geometry}")

# scrubbing is idempotent on the geometry: a second pass changes nothing
again, _ = sanitize_all(clean_bytes, RandomSource.crypto())
assert Counter(map(geometry_key, parse_bytes(again).facets)) == Counter(
    map(geometry_key, carrier.facets)
)
print("second scrub: geometry still identical")
