"""Deliberately broken scrubbers that the test suite must reject.

Each mutant stands in for a pass through monkeypatch and must fail the same
check that the real pass passes, so the check is shown to see the leak.
"""
from collections import Counter
from dataclasses import replace
from itertools import permutations

import numpy as np
import pytest
from scipy.stats import chisquare

from conftest import tagged_model
from stlstego import RandomSource, TrialConfig, run_experiment, statistical_gates
from stlstego import sanitize
from stlstego.channels import CHANNELS, ChannelId, load_carrier
from stlstego.model import coords, rhr_normals, rotate
from zoo import dirty_export

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


# A detector passes a pass when its chi-square p-value exceeds this on every
# seed: a uniform pass fails it on some seed of five at odds near 5e-6.
MIN_P = 1e-6
CENSUS_DRAWS = 2400


def permutation_census(seed: int) -> list[int]:
    """How often each of the 24 orders of a 4-facet model comes out of
    CENSUS_DRAWS facet passes on one seeded source, in a fixed order."""
    model = tagged_model(4)
    rng = RandomSource.seeded(seed)
    counts = Counter(
        tuple(sanitize.sanitize_facet_channel(model, rng).records["attr"].tolist())
        for _ in range(CENSUS_DRAWS)
    )
    return [counts[order] for order in permutations(range(4))]


def shuffle_is_uniform(seed: int) -> bool:
    counts = permutation_census(seed)
    return min(counts) > 0 and chisquare(counts).pvalue > MIN_P


def rotation_states(model, seed: int) -> list[int]:
    """How many facets the vertex pass leaves in each of the three cyclic
    rotations of their vertex list: unchanged, (b, c, a) and (c, a, b)."""
    out = sanitize.sanitize_vertex_channel(model, RandomSource.seeded(seed)).vertices
    return [
        int(np.count_nonzero((out == rotate(model.vertices, np.full(len(model), k))).all(axis=(1, 2))))
        for k in range(3)
    ]


def rotation_is_uniform(model, seed: int) -> bool:
    return chisquare(rotation_states(model, seed)).pvalue > MIN_P


def sattolo(model, rng):
    """A leaky shuffle: Sattolo's algorithm, j in [0, i) in place of
    [0, i], which makes only cyclic permutations."""
    n = len(model)
    order = list(range(n))
    for i, j in zip(range(n - 1, 0, -1), rng.randbelow_many(np.arange(n - 1, 0, -1)).tolist()):
        order[i], order[j] = order[j], order[i]
    return model.take(np.array(order, dtype=np.intp))


def keep_the_middle(model, rng):
    """A leaky shuffle: facet n // 2 stays where it is, the rest are
    permuted by sorting random keys."""
    n = len(model)
    rest = np.delete(np.arange(n), n // 2)
    rest = rest[np.argsort(rng.randbelow_many(np.full(n - 1, 1 << 32)), kind="stable")]
    return model.take(np.insert(rest, n // 2, n // 2))


def rotation_biased_to_none(model, rng):
    """A leaky vertex pass: the vertex list stays as it is with probability
    2/5, and takes each of the two turns with probability 3/10."""
    start = np.array([0, 0, 0, 0, 1, 1, 1, 2, 2, 2])[rng.randbelow_many(np.full(len(model), 10))]
    records = model.records.copy()
    coords(records)[:, 1:] = rotate(model.vertices, start)
    return model.with_records(records)


def test_the_facet_pass_draws_every_order_evenly():
    assert all(shuffle_is_uniform(seed) for seed in SEEDS)


@pytest.mark.parametrize("mutant", [sattolo, keep_the_middle])
def test_a_shuffle_that_misses_orders_fails(monkeypatch, mutant):
    # on 4 facets each makes 6 of the 24 orders
    monkeypatch.setattr(sanitize, "sanitize_facet_channel", mutant)
    assert not any(shuffle_is_uniform(seed) for seed in SEEDS)


def test_the_vertex_pass_turns_evenly(icosphere4):
    assert all(rotation_is_uniform(icosphere4, seed) for seed in SEEDS)


def test_a_rotation_biased_to_no_turn_fails(monkeypatch, icosphere4):
    monkeypatch.setattr(sanitize, "sanitize_vertex_channel", rotation_biased_to_none)
    assert not any(rotation_is_uniform(icosphere4, seed) for seed in SEEDS)


def unturned_when_v1_is_largest(model, rng):
    """A leaky vertex pass: a facet whose first vertex is its largest, the
    vertex channel's bit 1, keeps its vertex list; the others turn as the
    real pass turns them."""
    start = rng.randbelow_many(np.full(len(model), 3))
    start[CHANNELS[ChannelId.VERTEX].read(model, np.arange(len(model))) == 1] = 0
    records = model.records.copy()
    coords(records)[:, 1:] = rotate(model.vertices, start)
    return model.with_records(records)


def test_a_rotation_that_reads_the_payload_fails(monkeypatch, icosphere4):
    # about a third of ico-4's facets list their largest vertex first, so
    # the census reads near [2830, 1140, 1150] against 1707 each
    monkeypatch.setattr(sanitize, "sanitize_vertex_channel", unturned_when_v1_is_largest)
    assert not any(rotation_is_uniform(icosphere4, seed) for seed in SEEDS)


REAL_NORMAL_PASS = sanitize.sanitize_normal_channel


def keep_zero_area_normals(model):
    """A leaky normal pass: a zero-area facet keeps its stored normal."""
    normals, nonzero = rhr_normals(model.vertices)
    records = model.records.copy()
    coords(records)[:, 0] = np.where(nonzero[:, None], normals, model.normals)
    records["attr"] = 0
    return model.with_records(records)


def keep_the_first_word(model):
    """A leaky normal pass: the first facet keeps its attribute word."""
    records = REAL_NORMAL_PASS(model).records.copy()
    records["attr"][0] = model.records["attr"][0]
    return model.with_records(records)


def zero_area_normals_are_zero(model) -> bool:
    out = sanitize.sanitize_normal_channel(model)
    return not out.normals[~rhr_normals(out.vertices)[1]].any()


def attribute_words_are_zero(model) -> bool:
    return not sanitize.sanitize_normal_channel(model).records["attr"].any()


def zero_area_facets_with_normals(seed: int):
    """dirty_export's model with a unit normal stored on each zero-area
    facet: the export itself stores zero normals there, which a pass that
    keeps them leaves zero too."""
    model = dirty_export(seed)[0]
    records = model.records.copy()
    coords(records)[~rhr_normals(model.vertices)[1], 0] = (0, 0, 1)
    return model.with_records(records)


def nonzero_words(model):
    """model with attribute words 1, 2, ...: the first facet's word is 0 in
    tagged_model and in dirty_export seeds 2 and 3, where a pass that keeps
    it leaks nothing to see."""
    records = model.records.copy()
    records["attr"] = np.arange(1, len(model) + 1)
    return model.with_records(records)


NORMAL_SEEDS = range(1, 4)


def test_the_normal_pass_zeroes_zero_area_normals_and_every_word(icosphere2):
    assert all(zero_area_normals_are_zero(zero_area_facets_with_normals(seed)) for seed in NORMAL_SEEDS)
    assert attribute_words_are_zero(nonzero_words(icosphere2))


def test_a_normal_pass_that_keeps_zero_area_normals_fails(monkeypatch):
    monkeypatch.setattr(sanitize, "sanitize_normal_channel", keep_zero_area_normals)
    assert not any(zero_area_normals_are_zero(zero_area_facets_with_normals(seed)) for seed in NORMAL_SEEDS)


def test_a_normal_pass_that_keeps_the_first_word_fails(monkeypatch, icosphere2):
    monkeypatch.setattr(sanitize, "sanitize_normal_channel", keep_the_first_word)
    assert not attribute_words_are_zero(nonzero_words(icosphere2))


# The channels whose scrubber writes one fixed state into every slot: the RHR
# normal, standard notation, space indents. Every slot then reads 0, so one
# exact gate covers them at any size.
ERASED = (ChannelId.NORMAL, ChannelId.NUMBER, ChannelId.WHITESPACE)
# seed 2's payload starts with a 1, which a scrubber that keeps the first
# slot carries through
GATE_SEED = 2


def erased_gate(carrier, channel):
    """The exact gate of a seeded 64-bit, 4-trial experiment, run through
    the channel table, so that a scrubber installed there is the one run."""
    cfg = TrialConfig(channel=channel, carrier=carrier, payload_bits=64, trials=4, seed=GATE_SEED)
    matrix, stats = run_experiment(cfg)
    assert matrix.payload[0] == 1
    (gate,) = statistical_gates(channel, stats)
    return gate


def zoo_carrier(channel):
    model, text, _ = dirty_export(1)
    return load_carrier(text.encode("ascii")) if CHANNELS[channel].text else model


@pytest.mark.parametrize("channel", ERASED)
def test_the_fixed_state_scrubbers_erase_every_bit(channel, icosphere2):
    assert erased_gate(icosphere2, channel).passed
    assert erased_gate(zoo_carrier(channel), channel).passed


@pytest.mark.parametrize("channel", ERASED)
def test_an_identity_scrubber_fails_the_exact_gate(channel, monkeypatch, icosphere2):
    identity = replace(CHANNELS[channel], scrub=lambda carrier, rng: carrier)
    monkeypatch.setitem(CHANNELS, channel, identity)
    gate = erased_gate(icosphere2, channel)
    assert not gate.passed
    assert gate.detail == "bit 0, payload 1, survives 100.000 %"


def keep_the_first_slot(model, rng):
    """A leaky normal pass: the first slot keeps its stored normal."""
    first = CHANNELS[ChannelId.NORMAL].slots(model)[0]
    records = REAL_NORMAL_PASS(model).records.copy()
    coords(records)[first, 0] = model.normals[first]
    return model.with_records(records)


def test_a_normal_pass_that_keeps_the_first_slot_fails(monkeypatch, icosphere2):
    leaky = replace(CHANNELS[ChannelId.NORMAL], scrub=keep_the_first_slot)
    monkeypatch.setitem(CHANNELS, ChannelId.NORMAL, leaky)
    assert not erased_gate(icosphere2, ChannelId.NORMAL).passed
    assert not erased_gate(zoo_carrier(ChannelId.NORMAL), ChannelId.NORMAL).passed
