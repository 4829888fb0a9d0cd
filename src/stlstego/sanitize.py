"""Channel scrubbing.

The scrubbers destroy whatever any encoding could have stored in a channel
while leaving the described geometry untouched: facets are reordered, never
moved, added, or deleted, and vertex lists are only rotated cyclically so
the right-hand rule is preserved. No pass inspects decoded values, and the
amount of randomness drawn depends only on the facet count, so the output
reveals nothing about a previously embedded payload.

Number notation and indentation need no explicit pass: serializing through
the canonical writer rewrites both uniformly.
"""
from __future__ import annotations

import os
import random
import secrets
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
    """Randomness supply for the scrubbers.

    crypto() draws from the OS entropy pool and is the only mode suitable
    for real use. seeded() is deterministic, for reproducible experiments
    and tests; never wire it into a default code path.

    A crypto source maps each 64-bit word x read from os.urandom to
    (x * n) >> 64, rejecting the words whose low 64 bits of x * n fall
    below 2**64 mod n, which makes every result exactly uniform (Lemire,
    "Fast Random Integer Generation in an Interval", ACM TOMACS 2019).
    Rejection depends on the words alone, never on what is shuffled. Each
    source buffers _BLOCK words; a forked child drops them before drawing.
    """

    __slots__ = ("_rng", "_words", "kind", "seed", "__weakref__")

    def __init__(self, rng, kind: str, seed: int | None = None):
        self._rng = rng
        self._words = iter(())
        self.kind = kind
        self.seed = seed
        if rng is None:
            _crypto_sources.add(self)

    @classmethod
    def crypto(cls) -> "RandomSource":
        return cls(None, "cryptographic")

    @classmethod
    def seeded(cls, seed: int) -> "RandomSource":
        return cls(random.Random(seed), "seeded", seed)

    def randbelow(self, n: int) -> int:
        """Uniform integer in [0, n)."""
        rng = self._rng
        if rng is not None:
            return rng.randrange(n)
        if not 0 < n <= 1 << 64:
            if n <= 0:
                raise ValueError(f"empty range for randrange({n})")
            return secrets.randbelow(n)
        while True:
            for word in self._words:
                product = word * n
                low = product & ((1 << 64) - 1)
                # accept unless low < 2**64 mod n, computed only when low < n
                if low >= n or low >= (1 << 64) % n:
                    return product >> 64
            self._words = iter(_urandom_words())

    def __repr__(self):
        return f"RandomSource({self.kind})"


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


def sanitize_facet_channel(model: StlModel, rng: RandomSource) -> StlModel:
    """Shuffle the facet list into a uniformly random permutation.

    Fisher-Yates: walk i from the end, swap position i with a random
    position j in [0, i]. Facet contents are untouched.
    """
    order = list(range(len(model)))
    draw = rng.randbelow
    for i in range(len(order) - 1, 0, -1):
        j = draw(i + 1)
        order[i], order[j] = order[j], order[i]
    return model.with_records(model.records[np.array(order, dtype=np.intp)])


def sanitize_vertex_channel(model: StlModel, rng: RandomSource) -> StlModel:
    """Rotate each facet's vertex list left, right, or not at all, each
    with probability 1/3, independently per facet."""
    draw = rng.randbelow
    turns = np.array([draw(3) for _ in range(len(model))], dtype=np.intp)
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
