"""Data channels over STL carriers, one table entry each.

Every channel is a source of variation that leaves the printed geometry
untouched:

* ``facet``: the order of the facet list, read off disjoint consecutive
  pairs, one bit per pair (first of pair greater means 1).
* ``vertex``: the cyclic rotation of each facet's vertex list (largest
  vertex listed first means 1, smallest first is the 0 state).
* ``normal``: whether the stored normal agrees with the right-hand rule
  computed from the vertices (agreement is 0, the negated normal is 1).
* ``number`` (ASCII only): standard vs scientific notation per numeric
  token.
* ``whitespace`` (ASCII only): space vs tab indentation per indented line.
* ``robust-pair``: comparison of two consecutive facet pairs after both are
  reduced to canonical form, designed to survive a scrubber that only
  re-randomizes single consecutive pairs.

``CHANNELS`` maps each ``ChannelId`` to a ``Channel``: its carrier kind
(an ``StlModel``, or a ``RawAsciiDocument`` for the text channels), the
slots that hold one bit each, how to read and write a slot, and the scrubber
that erases it. ``capacity``, ``embed`` and ``extract`` run over that table,
so adding a channel means adding one entry. Embed and extract are exact
inverses within a carrier's capacity, and the slots are always recomputable
from the carrier alone.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass, replace
from typing import Callable

from .bits import BitSequence
from .errors import (
    CapacityExceededError,
    ChannelUnavailableError,
    DegenerateFacetError,
)
from .floatfmt import format_scientific, format_standard, parse_float32
from .model import Facet, StlFormat, StlModel, Vec3, geometry_key, unit_rhr_normal
from .rawdoc import RawAsciiDocument
from .sanitize import (
    sanitize_facet_channel,
    sanitize_model,
    sanitize_normal_channel,
    sanitize_vertex_channel,
)
from .stl_io import detect_format, parse_ascii, parse_bytes, write_canonical_ascii


class ChannelId(enum.Enum):
    FACET = "facet"
    VERTEX = "vertex"
    NORMAL = "normal"
    NUMBER = "number"
    WHITESPACE = "whitespace"
    ROBUST_PAIR = "robust-pair"


class Ordering(enum.IntEnum):
    LESS = -1
    EQUAL = 0
    GREATER = 1


def max_vertex(a: Vec3, b: Vec3) -> Vec3:
    """The larger vertex, comparing x, then y, then z; returns a on a tie."""
    return a if a >= b else b


def _canonical_key(facet: Facet) -> tuple[Vec3, Vec3, Vec3]:
    if facet.is_degenerate():
        raise DegenerateFacetError("facet has repeated vertices")
    return geometry_key(facet)


def canonical_vertex_rotation(facet: Facet) -> Facet:
    """Rotate the vertex list so the smallest vertex comes first.

    Normal and attribute are unchanged. Idempotent, and all three rotations
    of a facet map to the same output.
    """
    return facet.with_vertices(_canonical_key(facet))


def compare_facets(f: Facet, g: Facet) -> Ordering:
    """Total preorder on facets: canonical vertex triples, lexicographically."""
    cf = _canonical_key(f)
    cg = _canonical_key(g)
    if cf < cg:
        return Ordering.LESS
    if cf > cg:
        return Ordering.GREATER
    return Ordering.EQUAL


def _usable_indices(model: StlModel) -> list[int]:
    return [i for i, f in enumerate(model.facets) if not f.is_degenerate()]


def _normal_usable_indices(model: StlModel) -> list[int]:
    # zero-area facets, the degenerate ones included, have no RHR normal
    return [i for i, f in enumerate(model.facets) if unit_rhr_normal(*f.vertices) is not None]


def _canonical_pair(f: Facet, g: Facet):
    # smallest facet first
    cf = geometry_key(f)
    cg = geometry_key(g)
    return (cf, cg) if cf <= cg else (cg, cf)


def _halves(facets, run) -> tuple:
    """Canonical forms of an order run's two halves: one geometry key each
    for a pair, one canonical pair each for a run of four."""
    if len(run) == 2:
        i, j = run
        return geometry_key(facets[i]), geometry_key(facets[j])
    i0, i1, i2, i3 = run
    return _canonical_pair(facets[i0], facets[i1]), _canonical_pair(facets[i2], facets[i3])


def _order_runs(width: int):
    """Slots of the order channels: disjoint runs of `width` consecutive
    usable facets whose two halves differ canonically."""

    def slots(model: StlModel) -> list[tuple[int, ...]]:
        usable = _usable_indices(model)
        runs = []
        for k in range(0, len(usable) - width + 1, width):
            run = tuple(usable[k : k + width])
            first, second = _halves(model.facets, run)
            if first != second:
                runs.append(run)
        return runs

    return slots


def _read_order(model: StlModel, run) -> int:
    """1 iff the run's first half is canonically greater than its second."""
    first, second = _halves(model.facets, run)
    return 1 if first > second else 0


def _write_order(model: StlModel, runs, bits) -> StlModel:
    """Swap the two halves of each run whose bit differs; nothing crosses run
    boundaries, so the other runs read as before."""
    facets = list(model.facets)
    for bit, run in zip(bits, runs):
        if _read_order(model, run) != bit:
            half = len(run) // 2
            for i, j in zip(run[:half], run[half:]):
                facets[i], facets[j] = facets[j], facets[i]
    return model.with_facets(facets)


def _read_vertex(model: StlModel, i: int) -> int:
    """1 iff v1 is the largest of the facet's vertices."""
    v1, v2, v3 = model.facets[i].vertices
    return 1 if v1 == max_vertex(v1, max_vertex(v2, v3)) else 0


def _write_vertex(model: StlModel, indices, bits) -> StlModel:
    """Bit 1 lists the largest vertex first, bit 0 the smallest."""
    facets = list(model.facets)
    for bit, i in zip(bits, indices):
        a, b, c = facets[i].vertices
        rotations = ((a, b, c), (b, c, a), (c, a, b))
        facets[i] = facets[i].with_vertices(max(rotations) if bit else min(rotations))
    return model.with_facets(facets)


def _read_normal(model: StlModel, i: int) -> int:
    """1 iff the stored normal opposes the computed RHR normal. Zero-length
    stored normals (dot product 0) decode as 0 by convention."""
    f = model.facets[i]
    n = unit_rhr_normal(*f.vertices)
    dot = f.normal[0] * n[0] + f.normal[1] * n[1] + f.normal[2] * n[2]
    return 1 if dot < 0 else 0


def _write_normal(model: StlModel, indices, bits) -> StlModel:
    """Store the exact RHR normal for bit 0 and its negation for bit 1."""
    facets = list(model.facets)
    for bit, i in zip(bits, indices):
        n = unit_rhr_normal(*facets[i].vertices)
        if bit:
            n = (0.0 - n[0], 0.0 - n[1], 0.0 - n[2])
        facets[i] = replace(facets[i], normal=n)
    return model.with_facets(facets)


def _is_scientific(token: str) -> bool:
    return "e" in token or "E" in token


def _write_number(doc: RawAsciiDocument, tokens, bits) -> RawAsciiDocument:
    """Bit 0 spells a token in standard notation, bit 1 in scientific.

    Tokens already in the requested notation are left untouched; rewritten
    tokens keep their single-precision value exactly.
    """
    tokens = list(tokens)
    for idx, bit in enumerate(bits):
        token = tokens[idx]
        if bit and not _is_scientific(token):
            tokens[idx] = format_scientific(parse_float32(token))
        elif not bit and _is_scientific(token):
            tokens[idx] = format_standard(parse_float32(token))
    return doc.with_number_tokens(tokens)


def _write_whitespace(doc: RawAsciiDocument, runs, bits) -> RawAsciiDocument:
    """Re-indent lines: bit 0 uses spaces, bit 1 tabs, preserving width."""
    runs = list(runs)
    for idx, bit in enumerate(bits):
        runs[idx] = ("\t" if bit else " ") * len(runs[idx])
    return doc.with_indent_runs(runs)


def _rewrite_canonically(doc: RawAsciiDocument, rng) -> RawAsciiDocument:
    # the text channels' scrubber: uniform re-serialization
    return RawAsciiDocument(write_canonical_ascii(parse_ascii(doc.text)))


@dataclass(frozen=True)
class Channel:
    """One channel, stated once.

    ``text`` names the carrier kind: a RawAsciiDocument when true, an
    StlModel otherwise. ``slots(carrier)`` lists the positions that hold one
    bit each, in payload order. ``read(carrier, slot)`` decodes one bit.
    ``write(carrier, slots, bits)`` returns a new carrier whose first
    len(bits) slots hold bits; it receives every slot. ``scrub(carrier,
    rng)`` is the channel's own scrubber.
    """

    text: bool
    slots: Callable
    read: Callable
    write: Callable
    scrub: Callable


# The scrubbers are looked up when called, not bound here, so that a wrapper
# installed on a sanitize function (a profiler, a test) sees these calls too.
CHANNELS = {
    ChannelId.FACET: Channel(
        False, _order_runs(2), _read_order, _write_order,
        lambda model, rng: sanitize_facet_channel(model, rng),
    ),
    ChannelId.VERTEX: Channel(
        False, _usable_indices, _read_vertex, _write_vertex,
        lambda model, rng: sanitize_vertex_channel(model, rng),
    ),
    ChannelId.NORMAL: Channel(
        False, _normal_usable_indices, _read_normal, _write_normal,
        lambda model, rng: sanitize_normal_channel(model),
    ),
    ChannelId.NUMBER: Channel(
        True, lambda doc: doc.number_tokens,
        lambda doc, token: 1 if _is_scientific(token) else 0,
        _write_number, _rewrite_canonically,
    ),
    ChannelId.WHITESPACE: Channel(
        True, lambda doc: doc.indent_runs,
        lambda doc, run: 1 if "\t" in run else 0,
        _write_whitespace, _rewrite_canonically,
    ),
    # exists to defeat a scrubber that only re-randomizes single consecutive
    # pairs, so its scrubber is the full geometric one
    ChannelId.ROBUST_PAIR: Channel(
        False, _order_runs(4), _read_order, _write_order,
        lambda model, rng: sanitize_model(model, rng),
    ),
}

TEXT_CHANNELS = frozenset(c for c, spec in CHANNELS.items() if spec.text)


def _require_ascii(source: StlFormat, channel: ChannelId) -> None:
    if source is StlFormat.BINARY:
        raise ChannelUnavailableError(f"{channel.value} channel requires an ASCII source")


def _as_carrier(carrier, channel: ChannelId):
    """The carrier kind the channel reads: a text channel turns an
    ASCII-sourced StlModel into its canonical text, a model channel parses a
    RawAsciiDocument."""
    if CHANNELS[channel].text:
        if isinstance(carrier, RawAsciiDocument):
            return carrier
        _require_ascii(carrier.source_format, channel)
        return RawAsciiDocument(write_canonical_ascii(carrier))
    if isinstance(carrier, RawAsciiDocument):
        return parse_ascii(carrier.text)
    return carrier


def load_carrier(data: bytes, channel: ChannelId):
    """Parse file bytes into the carrier kind the channel reads.

    Text channels get the raw text, so an embed leaves every other byte of
    the file as it was.
    """
    if not CHANNELS[channel].text:
        return parse_bytes(data)
    _require_ascii(detect_format(data), channel)
    return RawAsciiDocument(data.decode("ascii"))


def _check_capacity(needed: int, available: int) -> None:
    if needed > available:
        raise CapacityExceededError(
            f"payload needs {needed} bits but the channel holds {available}"
        )


def capacity(carrier, channel: ChannelId) -> int:
    """Number of payload bits the channel can hold in this carrier."""
    return len(CHANNELS[channel].slots(_as_carrier(carrier, channel)))


def embed(carrier, channel: ChannelId, payload: BitSequence):
    """Embed into any channel; returns the channel's carrier kind.

    Slots beyond the payload are unchanged. An ASCII-sourced StlModel given
    to a text channel is serialized canonically first.
    """
    spec = CHANNELS[channel]
    carrier = _as_carrier(carrier, channel)
    slots = spec.slots(carrier)
    _check_capacity(len(payload), len(slots))
    return spec.write(carrier, slots, payload)


def extract(carrier, channel: ChannelId, k: int) -> BitSequence:
    """Extract k bits from any channel; mirrors embed."""
    if k < 0:
        raise ValueError(f"bit count must be >= 0, got {k}")
    spec = CHANNELS[channel]
    carrier = _as_carrier(carrier, channel)
    slots = spec.slots(carrier)
    _check_capacity(k, len(slots))
    return BitSequence([spec.read(carrier, slot) for slot in slots[:k]])


def _codec(channel: ChannelId):
    def embed_one(carrier, payload: BitSequence):
        return embed(carrier, channel, payload)

    def extract_one(carrier, k: int) -> BitSequence:
        return extract(carrier, channel, k)

    return embed_one, extract_one


embed_facet, extract_facet = _codec(ChannelId.FACET)
embed_vertex, extract_vertex = _codec(ChannelId.VERTEX)
embed_normal, extract_normal = _codec(ChannelId.NORMAL)
embed_number, extract_number = _codec(ChannelId.NUMBER)
embed_whitespace, extract_whitespace = _codec(ChannelId.WHITESPACE)
embed_robust_pair, extract_robust_pair = _codec(ChannelId.ROBUST_PAIR)
