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
slots that hold one bit each, how to read and write a slot, the scrubber
that erases it, and the gates a scrubbed channel must pass in a
survivability experiment. ``capacity``, ``embed`` and ``extract`` run over
that table, and ``evaluation.statistical_gates`` over its gates, so adding
a channel means adding one entry. Embed and extract are exact
inverses within a carrier's capacity, and the slots are always recomputable
from the carrier alone.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import sanitize
from .bits import BitSequence
from .errors import CapacityExceededError, ChannelUnavailableError
from .floatfmt import format_scientific, format_standard, spell_float32s
from .model import (
    StlFormat,
    StlModel,
    coords,
    extreme_rotation,
    lex_compare,
    rhr_normals,
)
from .rawdoc import RawAsciiDocument
from .stl_io import read_stl, write_canonical_ascii


class ChannelId(enum.Enum):
    FACET = "facet"
    VERTEX = "vertex"
    NORMAL = "normal"
    NUMBER = "number"
    WHITESPACE = "whitespace"
    ROBUST_PAIR = "robust-pair"


def _usable_indices(model: StlModel) -> np.ndarray:
    return np.flatnonzero(~model.degenerate)


def _normal_usable_indices(model: StlModel) -> np.ndarray:
    # zero-area facets, the degenerate ones included, have no RHR normal
    return np.flatnonzero(rhr_normals(model.vertices)[1])


def _halves(model: StlModel, runs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Canonical forms of each order run's two halves: one geometry key
    each for a pair, one canonical pair (smallest key first) each for a run
    of four. runs is an (m, 2) or (m, 4) index array."""
    keys = model.geometry_keys[runs]
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
    runs = runs[_read_order(model, runs) != np.asarray(bits, dtype=bool)]
    half = runs.shape[1] // 2
    order = np.arange(len(model))
    order[runs[:, :half]] = runs[:, half:]
    order[runs[:, half:]] = runs[:, :half]
    return model.take(order)


def _read_vertex(model: StlModel, indices) -> np.ndarray:
    """1 iff v1 is the largest of the facet's vertices."""
    v1, v2, v3 = model.vertices[indices].transpose(1, 0, 2)
    return ((lex_compare(v1, v2) >= 0) & (lex_compare(v1, v3) >= 0)).astype(np.uint8)


def _write_vertex(model: StlModel, indices, bits) -> StlModel:
    """Bit 1 lists the largest vertex first, bit 0 the smallest: the
    rotation that Python's max or min picks among the three."""
    largest = extreme_rotation(model.vertices[indices], 1)
    chosen = np.where(np.asarray(bits, dtype=bool)[:, None], largest, model.geometry_keys[indices])
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
    n = rhr_normals(model.vertices[indices])[0]
    records = model.records.copy()
    # 0 - n, not -n: a zero component stays +0.0
    coords(records)[indices, 0] = np.where(np.asarray(bits, dtype=bool)[:, None], np.float32(0) - n, n)
    return model.with_records(records)


def _read_number(doc: RawAsciiDocument, spans) -> np.ndarray:
    return doc.spans_holding(spans, "eE")


def _write_number(doc: RawAsciiDocument, spans, bits) -> RawAsciiDocument:
    """Bit 0 spells a token in standard notation, bit 1 in scientific.

    Tokens already in the requested notation are left untouched. A
    rewritten token spells the value the model holds for its slot, number
    slot k being coordinate k of the records, so it keeps its
    single-precision value exactly. Each distinct value is spelled once per
    notation; the document's splice reads the new tokens back in one
    parse_float32s call.
    """
    bits = np.asarray(bits, dtype=bool)
    changed = np.flatnonzero(_read_number(doc, spans) != bits)
    values = coords(doc.model.records).reshape(-1)[changed]
    scientific = bits[changed]
    tokens = np.empty(len(changed), dtype=object)
    tokens[scientific] = spell_float32s(values[scientific], format_scientific)
    tokens[~scientific] = spell_float32s(values[~scientific], format_standard)
    return doc.with_number_tokens(changed, tokens.tolist())


def _read_whitespace(doc: RawAsciiDocument, spans) -> np.ndarray:
    return doc.spans_holding(spans, "\t")


def _write_whitespace(doc: RawAsciiDocument, spans, bits) -> RawAsciiDocument:
    """Re-indent lines: bit 0 uses spaces, bit 1 tabs, preserving width.

    An indent holds only spaces and tabs, so it differs from its target
    exactly when it holds the other character.
    """
    bits = np.asarray(bits, dtype=bool)
    changed = np.flatnonzero(
        np.where(bits, doc.spans_holding(spans, " "), doc.spans_holding(spans, "\t"))
    )
    widths = (spans[changed, 1] - spans[changed, 0]).tolist()
    runs = [" \t"[bit] * width for bit, width in zip(bits[changed].tolist(), widths)]
    return doc.with_indent_runs(changed, runs)


@dataclass(frozen=True)
class Channel:
    """One channel, stated once.

    ``text`` names the carrier kind: a RawAsciiDocument when true, an
    StlModel otherwise. ``slots(carrier)`` lists the positions that hold one
    bit each, in payload order: index arrays for the model channels,
    (m, 2) arrays of (start, end) spans of the text for the text channels.
    ``read(carrier, slots)`` decodes one bit per slot. ``write(carrier,
    slots, bits)`` returns a new carrier whose slots hold bits, one each.
    ``scrub(carrier, rng)`` is the channel's own scrubber.

    ``gates`` maps the name of each survival statistic a scrubbed channel
    is checked on, in order, to its (lo, hi) range at 1,024 bits x 100
    trials. None means the scrubber writes one fixed state reading 0 into
    every slot, which the exact ``every bit reads 0`` gate checks.
    """

    text: bool
    slots: Callable
    read: Callable
    write: Callable
    scrub: Callable
    gates: dict[str, tuple[float, float]] | None


def _scrub_text(doc: RawAsciiDocument, rng) -> RawAsciiDocument:
    """Uniform re-serialization: the model's canonical text reads 0."""
    return RawAsciiDocument(write_canonical_ascii(doc.model))


# The scrubbers look their pass up in stlstego.sanitize when called, so that a
# pass replaced there (by a profiler, a test) is the one evaluate's trials run.
# Survival after a random scrubber must look like coin flipping; the vertex
# channel's per-value split is the known 1/3 vs 2/3 bias of a two-state
# encoding over three rotation states.
CHANNELS = {
    ChannelId.FACET: Channel(
        False, _order_runs(2), _read_order, _write_order,
        lambda model, rng: sanitize.sanitize_facet_channel(model, rng),
        {"mean survival pct": (48.5, 51.5), "variance of per-trial pct": (1.3, 3.2)},
    ),
    ChannelId.VERTEX: Channel(
        False, _usable_indices, _read_vertex, _write_vertex,
        lambda model, rng: sanitize.sanitize_vertex_channel(model, rng),
        {
            "mean survival pct": (48.0, 52.0),
            "per-bit mean, payload 1": (100.0 / 3.0 - 2.5, 100.0 / 3.0 + 2.5),
            "per-bit mean, payload 0": (200.0 / 3.0 - 2.5, 200.0 / 3.0 + 2.5),
        },
    ),
    ChannelId.NORMAL: Channel(
        False, _normal_usable_indices, _read_normal, _write_normal,
        lambda model, rng: sanitize.sanitize_normal_channel(model), None,
    ),
    ChannelId.NUMBER: Channel(
        True, lambda doc: doc.number_spans, _read_number, _write_number, _scrub_text, None,
    ),
    ChannelId.WHITESPACE: Channel(
        True, lambda doc: doc.indent_spans, _read_whitespace, _write_whitespace, _scrub_text, None,
    ),
    # exists to defeat a scrubber that only re-randomizes single consecutive
    # pairs, so its scrubber is the full geometric one
    ChannelId.ROBUST_PAIR: Channel(
        False, _order_runs(4), _read_order, _write_order,
        lambda model, rng: sanitize.sanitize_model(model, rng),
        {"mean survival pct": (45.0, 55.0)},
    ),
}


def as_carrier(carrier, channel: ChannelId):
    """The carrier kind the channel reads: a text channel turns an
    ASCII-sourced StlModel into its canonical text, a model channel reads a
    RawAsciiDocument's model."""
    if CHANNELS[channel].text:
        if isinstance(carrier, RawAsciiDocument):
            return carrier
        if carrier.source_format is StlFormat.BINARY:
            raise ChannelUnavailableError(f"{channel.value} channel requires an ASCII source")
        return RawAsciiDocument(write_canonical_ascii(carrier))
    if isinstance(carrier, RawAsciiDocument):
        return carrier.model
    return carrier


def load_carrier(data: bytes):
    """File bytes as a carrier, by parse_bytes's format rule and errors:
    the RawAsciiDocument of ASCII STL, so a text-channel embed keeps every
    other byte of the file, or the StlModel of binary STL. ASCII text is
    read once, also when it is malformed."""
    return read_stl(data, RawAsciiDocument)


def capacity(carrier, channel: ChannelId) -> int:
    """Number of payload bits the channel can hold in this carrier."""
    return len(CHANNELS[channel].slots(as_carrier(carrier, channel)))


def _first_slots(carrier, channel: ChannelId, k: int):
    """The channel's carrier kind and its first k slots, or
    CapacityExceededError when the channel holds fewer than k."""
    carrier = as_carrier(carrier, channel)
    slots = CHANNELS[channel].slots(carrier)
    if k > len(slots):
        raise CapacityExceededError(
            f"payload needs {k} bits but the {channel.value} channel holds {len(slots)}"
        )
    return carrier, slots[:k]


def embed(carrier, channel: ChannelId, payload: BitSequence):
    """Embed into any channel; returns the channel's carrier kind.

    Slots beyond the payload are unchanged. An ASCII-sourced StlModel given
    to a text channel is serialized canonically first.
    """
    carrier, slots = _first_slots(carrier, channel, len(payload))
    return CHANNELS[channel].write(carrier, slots, payload)


def extract(carrier, channel: ChannelId, k: int) -> BitSequence:
    """Extract k bits from any channel; mirrors embed."""
    if k < 0:
        raise ValueError(f"bit count must be >= 0, got {k}")
    carrier, slots = _first_slots(carrier, channel, k)
    return BitSequence(CHANNELS[channel].read(carrier, slots))
