"""Channel scrubbing.

The scrubbers destroy whatever any encoding could have stored in a channel
while leaving the described geometry untouched: facets are reordered, never
moved, added, or deleted, and vertex lists are only rotated cyclically so
the right-hand rule is preserved. No pass inspects decoded values: the
bounds a pass draws below depend only on the facet count, and how many
words a source reads for them depends only on its own words, so the output
reveals nothing about a previously embedded payload.

Number notation and indentation need no explicit pass: serializing through
the canonical writer rewrites both uniformly.
"""
from __future__ import annotations

import os
import random
import struct
import weakref
from dataclasses import dataclass

import numpy as np

from .model import StlFormat, StlModel, coords, rhr_normals, rotate
from .stl_io import parse_bytes, serialize


_BLOCK = 4096  # 64-bit words read from os.urandom per refill


def _urandom_words() -> tuple[int, ...]:
    return struct.unpack(f"<{_BLOCK}Q", os.urandom(8 * _BLOCK))


class RandomSource:
    """Randomness supply for the scrubbers and payloads.

    crypto() draws from the OS entropy pool and is the only mode suitable
    for real use. seeded() is deterministic, for reproducible experiments
    and tests; never wire it into a default code path.

    One rule holds for both sources: every bound lies in [1, 2**32], and
    randbelow and randbelow_many raise ValueError for any other. A seeded
    source has one stream, _lemire32 over 32-bit words of its generator;
    its randbelow(n) is randbelow_many([n]). A crypto source's
    randbelow_many calls randbelow once per bound, in order, only because
    perfbench's tracer counts draws by wrapping randbelow; that branch goes
    once the tracer counts bounds in randbelow_many instead.

    A crypto source maps each 64-bit word x read from os.urandom to
    (x * n) >> 64, rejecting the words whose low 64 bits of x * n fall
    below 2**64 mod n, which makes every result exactly uniform (Lemire,
    "Fast Random Integer Generation in an Interval", ACM TOMACS 2019).
    Rejection depends on the words alone, never on what is shuffled. Each
    source buffers _BLOCK words; a forked child drops them before drawing.
    """

    __slots__ = ("_rng", "_words", "__weakref__")

    def __init__(self, rng):
        self._rng = rng
        self._words = iter(())
        if rng is None:
            _crypto_sources.add(self)

    @classmethod
    def crypto(cls) -> "RandomSource":
        return cls(None)

    @classmethod
    def seeded(cls, seed: int) -> "RandomSource":
        return cls(random.Random(seed))

    def randbelow(self, n: int) -> int:
        """Uniform integer in [0, n), n in [1, 2**32]."""
        # a seeded source, and any bound but an in-range int, take the
        # array path, whose check is the one rule for both sources
        if self._rng is not None or type(n) is not int or not 0 < n <= 1 << 32:
            return int(self.randbelow_many([n])[0])
        while True:
            for word in self._words:
                product = word * n
                low = product & ((1 << 64) - 1)
                # accept unless low < 2**64 mod n, computed only when low < n
                if low >= n or low >= (1 << 64) % n:
                    return product >> 64
            self._words = iter(_urandom_words())

    def randbelow_many(self, bounds) -> np.ndarray:
        """Uniform integers in [0, b) for each b of bounds, each in [1, 2**32],
        as an int64 array."""
        # no dtype here: a bound past int64 or a float is refused below, not
        # an OverflowError or a truncation. asarray would read a bool among
        # ints as the int 0 or 1, so a sequence is searched for one first
        has_bool = not isinstance(bounds, np.ndarray) and any(
            isinstance(b, (bool, np.bool_)) for b in bounds
        )
        bounds = np.asarray(bounds)
        if has_bool or len(bounds) and not (
            bounds.dtype.kind in "iu" and bounds.min() >= 1 and bounds.max() <= 1 << 32
        ):
            raise ValueError("bounds must lie in [1, 2**32]")
        if self._rng is None:
            draw = self.randbelow
            return np.array([draw(b) for b in bounds.tolist()], dtype=np.int64)
        return _lemire32(bounds, self._rng.getrandbits)

    def __repr__(self):
        return f"RandomSource({'cryptographic' if self._rng is None else 'seeded'})"


def _lemire32(bounds: np.ndarray, getrandbits) -> np.ndarray:
    """Lemire's multiply-shift over 32-bit words: word w gives (w * b) >> 32,
    rejected when the low 32 bits of w * b fall below 2**32 mod b. Only the
    rejected positions draw again, each from a fresh word, so every result is
    exactly uniform and rejection depends on the words alone. Words are read
    from getrandbits(32 * m), lowest word first."""
    bounds = bounds.astype(np.uint64)
    floors = np.uint64(1 << 32) % bounds
    out = np.empty(len(bounds), dtype=np.int64)
    pending = np.arange(len(bounds))
    while len(pending):
        m = len(pending)
        words = np.frombuffer(getrandbits(32 * m).to_bytes(4 * m, "little"), "<u4")
        # w * b < 2**64: w < 2**32 and b <= 2**32
        product = words * bounds[pending]
        accept = (product & np.uint64(0xFFFFFFFF)) >= floors[pending]
        out[pending[accept]] = product[accept] >> np.uint64(32)
        pending = pending[~accept]
    return out


_crypto_sources = weakref.WeakSet()


def _drop_buffered_words() -> None:
    """Keep a forked child from replaying the words its parent holds."""
    for source in _crypto_sources:
        source._words = iter(())


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_drop_buffered_words)


@dataclass(frozen=True)
class SanitizeReport:
    """What sanitize_all erased. facets_shuffled: facets in the input.
    vertices_rotated: input facets whose three vertices do not all have the
    same bit pattern, the vertex lists the rotation pass re-randomizes.
    attributes_zeroed: nonzero attribute words in the input.
    normals_recomputed: nonzero normals in the output, as zero area can
    depend on the rotation drawn."""

    facets_shuffled: int
    vertices_rotated: int
    normals_recomputed: int
    attributes_zeroed: int
    format_written: StlFormat


def _fisher_yates(n: int, draws: np.ndarray) -> np.ndarray:
    """The order Fisher-Yates makes of range(n), computed without the swaps.

    Step i, for i = n - 1 down to 1, swaps positions i and
    j_i = draws[n - 1 - i] <= i, and no later step touches position i
    again. So order[i] is what position j_i held just before step i: what
    the nearest earlier step that also drew j_i moved there, or j_i itself
    when no earlier step drew it. What step k moved is what position k held
    just before step k, found the same way, so it is the root of a chain of
    steps whose indices only increase (Shun, Gu, Blelloch, Fineman and
    Gibbons, SODA 2015). One sort of the keys (j << b) | i groups the steps
    by j in index order, and pointer doubling resolves the chains. Position
    0 is read as a step 0 that draws 0. Keys are uint64, so every n below
    2**32 fits.
    """
    b = np.uint64(n.bit_length())
    drawn = np.zeros(n, dtype=np.uint64)
    drawn[:0:-1] = draws
    keys = np.sort((drawn << b) | np.arange(n, dtype=np.uint64))
    # one sentinel past the last key: step n, in no group
    step = np.append((keys & ((np.uint64(1) << b) - np.uint64(1))).astype(np.intp), n)
    group = np.append((keys >> b).astype(np.intp), -1)
    # later[i]: the next step by index that drew j_i, n when none did
    later = np.empty(n + 1, dtype=np.intp)
    later[step] = np.append(np.where(group[1:] == group[:-1], step[1:], n), n)
    # root[k] starts as the first step of k's group, k when the group is
    # empty, and doubling makes it what step k moved. Steps that draw k have
    # index k or more, so the first is the next step after k that drew k,
    # unless it is step k itself. That root is never read: no step's later
    # step drew its own index
    first = np.flatnonzero(np.diff(group[:-1], prepend=-1))
    root = np.arange(n + 1)
    root[group[first]] = step[first]
    while True:
        up = root[root]
        if np.array_equal(up, root):
            break
        root = up
    later = later[:-1]
    return np.where(later < n, root[later], drawn.astype(np.intp))


def sanitize_facet_channel(model: StlModel, rng: RandomSource) -> StlModel:
    """Shuffle the facet list into a uniformly random permutation.

    Fisher-Yates: walk i from the end, swap position i with a random
    position j in [0, i]. The draws are taken in that order, and
    _fisher_yates computes the permutation they make without walking the
    swaps. Facet contents are untouched.
    """
    n = len(model)
    return model.take(_fisher_yates(n, rng.randbelow_many(np.arange(n, 1, -1))))


def sanitize_vertex_channel(model: StlModel, rng: RandomSource) -> StlModel:
    """Rotate each facet's vertex list left, right, or not at all, each
    with probability 1/3, independently per facet."""
    turns = rng.randbelow_many(np.full(len(model), 3))
    records = model.records.copy()
    # turn 0 rotates left (b, c, a), turn 1 right (c, a, b), turn 2 not at all
    coords(records)[:, 1:] = rotate(model.vertices, (turns + 1) % 3)
    return model.with_records(records)


def sanitize_normal_channel(model: StlModel) -> StlModel:
    """Replace every stored normal with the unit RHR normal computed from
    the vertices; zero-area facets get a zero normal. Attribute words are
    cleared too, since they are writable capacity the geometry never uses."""
    records = model.records.copy()
    coords(records)[:, 0] = rhr_normals(model.vertices)[0]
    records["attr"] = 0
    return model.with_records(records)


def sanitize_model(model: StlModel, rng: RandomSource) -> StlModel:
    """All three geometric passes, in the fixed order facet, vertex, normal."""
    return sanitize_normal_channel(
        sanitize_vertex_channel(sanitize_facet_channel(model, rng), rng)
    )


def sanitize_all(
    data: bytes,
    rng: RandomSource | None = None,
    output_format: StlFormat | None = None,
) -> tuple[bytes, SanitizeReport]:
    """Scrub every channel of an STL file and re-serialize it.

    Runs sanitize_model, then the canonical writer. output_format None
    preserves the source format. Parse errors propagate before any output.
    """
    if rng is None:
        rng = RandomSource.crypto()
    model = parse_bytes(data)
    cleaned = sanitize_model(model, rng)
    fmt = output_format if output_format is not None else model.source_format
    # bit patterns, not ==: a rotation of (-0.0, 0, 0), (0, 0, 0), (0, 0, 0)
    # changes the bytes written
    v1, v2, v3 = model.vertices.view(np.uint32).transpose(1, 0, 2)
    all_equal = ((v1 == v2) & (v2 == v3)).all(axis=1)
    return serialize(cleaned, fmt), SanitizeReport(
        facets_shuffled=len(model),
        vertices_rotated=len(model) - int(np.count_nonzero(all_equal)),
        normals_recomputed=int(np.count_nonzero(cleaned.normals.any(axis=1))),
        attributes_zeroed=int(np.count_nonzero(model.records["attr"])),
        format_written=fmt,
    )
