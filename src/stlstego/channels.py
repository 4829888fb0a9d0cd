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
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .bits import BitSequence
from .errors import (
    CapacityExceededError,
    ChannelUnavailableError,
    DegenerateFacetError,
)
from .floatfmt import format_scientific, format_standard, parse_float32
from .model import (
    Facet,
    StlFormat,
    StlModel,
    Vec3,
    coords,
    degenerate,
    extreme_rotation,
    geometry_key,
    lex_compare,
    rhr_normals,
)
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


def _bits(bits) -> np.ndarray:
    return np.fromiter(bits, dtype=bool, count=len(bits))


def _usable_indices(model: StlModel) -> np.ndarray:
    return np.flatnonzero(~degenerate(model.vertices))


def _normal_usable_indices(model: StlModel) -> np.ndarray:
    # zero-area facets, the degenerate ones included, have no RHR normal
    return np.flatnonzero(rhr_normals(model.vertices)[1])


def _halves(model: StlModel, runs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Canonical forms of each order run's two halves: one geometry key
    each for a pair, one canonical pair (smallest key first) each for a run
    of four. runs is an (m, 2) or (m, 4) index array."""
    keys = extreme_rotation(model.vertices[runs.reshape(-1)], -1).reshape(*runs.shape, 9)
    if runs.shape[1] == 2:
        return keys[:, 0], keys[:, 1]
    halves = []
    for a, b in ((keys[:, 0], keys[:, 1]), (keys[:, 2], keys[:, 3])):
        swap = (lex_compare(a, b) > 0)[:, None]
        halves.append(np.where(swap, np.hstack([b, a]), np.hstack([a, b])))
    return halves[0], halves[1]


def _order_runs(width: int):
    """Slots of the order channels: disjoint runs of `width` consecutive
    usable facets whose two halves differ canonically, an (m, width) array."""

    def slots(model: StlModel) -> np.ndarray:
        usable = _usable_indices(model)
        runs = usable[: len(usable) // width * width].reshape(-1, width)
        return runs[lex_compare(*_halves(model, runs)) != 0]

    return slots


def _read_order(model: StlModel, runs) -> np.ndarray:
    """1 iff a run's first half is canonically greater than its second."""
    return (lex_compare(*_halves(model, runs)) > 0).astype(np.uint8)


def _write_order(model: StlModel, runs, bits) -> StlModel:
    """Swap the two halves of each run whose bit differs; nothing crosses run
    boundaries, so the other runs read as before."""
    runs = runs[: len(bits)]
    runs = runs[_read_order(model, runs) != _bits(bits)]
    half = runs.shape[1] // 2
    order = np.arange(len(model))
    order[runs[:, :half]] = runs[:, half:]
    order[runs[:, half:]] = runs[:, :half]
    return model.with_records(model.records[order])


def _read_vertex(model: StlModel, indices) -> np.ndarray:
    """1 iff v1 is the largest of the facet's vertices."""
    v1, v2, v3 = model.vertices[indices].transpose(1, 0, 2)
    return ((lex_compare(v1, v2) >= 0) & (lex_compare(v1, v3) >= 0)).astype(np.uint8)


def _write_vertex(model: StlModel, indices, bits) -> StlModel:
    """Bit 1 lists the largest vertex first, bit 0 the smallest: the
    rotation that Python's max or min picks among the three."""
    indices = indices[: len(bits)]
    v = model.vertices[indices]
    chosen = np.where(_bits(bits)[:, None], extreme_rotation(v, 1), extreme_rotation(v, -1))
    records = model.records.copy()
    coords(records)[indices, 1:] = chosen.reshape(-1, 3, 3)
    return model.with_records(records)


def _read_normal(model: StlModel, indices) -> np.ndarray:
    """1 iff the stored normal opposes the computed RHR normal. Zero-length
    stored normals (dot product 0) decode as 0 by convention."""
    n = rhr_normals(model.vertices[indices])[0].astype(np.float64)
    s = model.normals[indices].astype(np.float64)
    dot = s[:, 0] * n[:, 0] + s[:, 1] * n[:, 1] + s[:, 2] * n[:, 2]
    return (dot < 0).astype(np.uint8)


def _write_normal(model: StlModel, indices, bits) -> StlModel:
    """Store the exact RHR normal for bit 0 and its negation for bit 1."""
    indices = indices[: len(bits)]
    n = rhr_normals(model.vertices[indices])[0]
    records = model.records.copy()
    # 0 - n, not -n: a zero component stays +0.0
    coords(records)[indices, 0] = np.where(_bits(bits)[:, None], np.float32(0) - n, n)
    return model.with_records(records)


def _is_scientific(token: str) -> bool:
    return "e" in token or "E" in token


def _read_number(doc: RawAsciiDocument, spans) -> list[int]:
    text = doc.text
    return [1 if _is_scientific(text[b:e]) else 0 for b, e in spans]


def _write_number(doc: RawAsciiDocument, spans, bits) -> RawAsciiDocument:
    """Bit 0 spells a token in standard notation, bit 1 in scientific.

    Tokens already in the requested notation are left untouched; rewritten
    tokens keep their single-precision value exactly. Each distinct token
    is re-spelled once.
    """
    tokens = doc.number_tokens
    respelled = {}  # a token only ever turns into the other notation
    for idx, bit in enumerate(bits):
        token = tokens[idx]
        if bit != _is_scientific(token):
            if token not in respelled:
                spell = format_scientific if bit else format_standard
                respelled[token] = spell(parse_float32(token))
            tokens[idx] = respelled[token]
    return doc.with_number_tokens(tokens)


def _read_whitespace(doc: RawAsciiDocument, spans) -> list[int]:
    text = doc.text
    return [1 if "\t" in text[b:e] else 0 for b, e in spans]


def _write_whitespace(doc: RawAsciiDocument, spans, bits) -> RawAsciiDocument:
    """Re-indent lines: bit 0 uses spaces, bit 1 tabs, preserving width."""
    runs = doc.indent_runs
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
    bit each, in payload order: index arrays for the model channels,
    (start, end) spans of the text for the text channels. ``read(carrier,
    slots)`` decodes one bit per slot. ``write(carrier, slots, bits)``
    returns a new carrier whose first len(bits) slots hold bits; it
    receives every slot. ``scrub(carrier,
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
        True, lambda doc: doc.number_spans, _read_number, _write_number,
        _rewrite_canonically,
    ),
    ChannelId.WHITESPACE: Channel(
        True, lambda doc: doc.indent_spans, _read_whitespace, _write_whitespace,
        _rewrite_canonically,
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
    return BitSequence(spec.read(carrier, slots[:k]))


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
