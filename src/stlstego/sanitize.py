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

import random
import secrets
from dataclasses import dataclass, replace

from .model import StlFormat, StlModel, unit_rhr_normal
from .stl_io import parse_bytes, serialize


class RandomSource:
    """Randomness supply for the scrubbers.

    crypto() draws from the OS entropy pool and is the only mode suitable
    for real use. seeded() is deterministic, for reproducible experiments
    and tests; never wire it into a default code path.
    """

    __slots__ = ("_rng", "kind", "seed")

    def __init__(self, rng, kind: str, seed: int | None = None):
        self._rng = rng
        self.kind = kind
        self.seed = seed

    @classmethod
    def crypto(cls) -> "RandomSource":
        return cls(secrets.SystemRandom(), "cryptographic")

    @classmethod
    def seeded(cls, seed: int) -> "RandomSource":
        return cls(random.Random(seed), "seeded", seed)

    def randbelow(self, n: int) -> int:
        """Uniform integer in [0, n)."""
        return self._rng.randrange(n)

    def __repr__(self):
        return f"RandomSource({self.kind})"


@dataclass(frozen=True)
class SanitizeReport:
    """What sanitize_all erased. facets_shuffled: facets in the input.
    vertices_rotated: input facets whose three vertices are not all equal,
    the vertex lists the rotation pass re-randomizes. attributes_zeroed:
    nonzero attribute words in the input. normals_recomputed: nonzero
    normals in the output, as zero area can depend on the rotation drawn."""

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
    facets = list(model.facets)
    for i in range(len(facets) - 1, 0, -1):
        j = rng.randbelow(i + 1)
        facets[i], facets[j] = facets[j], facets[i]
    return model.with_facets(facets)


def sanitize_vertex_channel(model: StlModel, rng: RandomSource) -> StlModel:
    """Rotate each facet's vertex list left, right, or not at all, each
    with probability 1/3, independently per facet."""
    facets = []
    for f in model.facets:
        turn = rng.randbelow(3)
        a, b, c = f.vertices
        if turn == 0:
            f = f.with_vertices((b, c, a))  # left
        elif turn == 1:
            f = f.with_vertices((c, a, b))  # right
        facets.append(f)
    return model.with_facets(facets)


def sanitize_normal_channel(model: StlModel) -> StlModel:
    """Replace every stored normal with the unit RHR normal computed from
    the vertices; zero-area facets get a zero normal. Attribute words are
    cleared too, since they are writable capacity the geometry never uses."""
    facets = []
    for f in model.facets:
        n = unit_rhr_normal(*f.vertices)
        facets.append(replace(f, normal=n if n is not None else (0.0, 0.0, 0.0), attribute=0))
    return model.with_facets(facets)


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
    return serialize(cleaned, fmt), SanitizeReport(
        facets_shuffled=len(model.facets),
        vertices_rotated=sum(not f.v1 == f.v2 == f.v3 for f in model.facets),
        normals_recomputed=sum(f.normal != (0.0, 0.0, 0.0) for f in cleaned.facets),
        attributes_zeroed=sum(f.attribute != 0 for f in model.facets),
        format_written=fmt,
    )
