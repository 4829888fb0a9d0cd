"""Deliberately broken scrubbers that the test suite must reject.

Each mutant stands in for a pass through monkeypatch and must fail the same
check that the real pass passes, so the check is shown to see the leak.
"""
import numpy as np

from stlstego import RandomSource
from stlstego import sanitize

# A uniform shuffle leaves Poisson(1) facets in place: more than 10 has odds
# near 1e-8. Seeds 1-20 leave 0-3 on the 5,120 facets of ico-4.
MAX_IN_PLACE = 10


def facets_left_in_place(model, seed: int) -> int:
    """Facets at their own position after the facet pass, looked up in the
    module so that a patched pass is the one run."""
    out = sanitize.sanitize_facet_channel(model, RandomSource.seeded(seed))
    return int(np.count_nonzero((out.geometry_keys == model.geometry_keys).all(axis=1)))


def keep_a_prefix(model, rng):
    """A leaky shuffle: the first n // 125 facets stay where they are, the
    rest are permuted by sorting random keys."""
    n = len(model)
    kept = n // 125
    order = np.arange(n)
    keys = rng.randbelow_many(np.full(n - kept, 1 << 32))
    order[kept:] = kept + np.argsort(keys, kind="stable")
    return model.take(order)


SEEDS = range(1, 6)


def test_the_facet_pass_leaves_few_facets_in_place(icosphere4):
    assert max(facets_left_in_place(icosphere4, seed) for seed in SEEDS) <= MAX_IN_PLACE


def test_a_shuffle_that_keeps_a_prefix_fails(monkeypatch, icosphere4):
    # 40 facets kept on ico-4, each seed reads 40-42
    monkeypatch.setattr(sanitize, "sanitize_facet_channel", keep_a_prefix)
    assert min(facets_left_in_place(icosphere4, seed) for seed in SEEDS) > MAX_IN_PLACE
