"""The geometry a model computes once, and the constructors that carry it.

`geometry_ranks` must order facets exactly as Python orders their geometry
keys as float tuples. Every array a derived model carries must equal what
a fresh model of the same records computes, bit for bit. And an
experiment computes each array at most once where its passes keep it.
"""
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scalar_reference import geometry_key, model_from_facets
from stlstego import (
    BitSequence,
    ChannelId,
    Facet,
    RandomSource,
    StlModel,
    TrialConfig,
    generate_test_mesh,
    run_experiment,
)
from stlstego import model as model_module
from stlstego.channels import CHANNELS
from stlstego.model import lex_compare
from zoo import cad_like, dirty_export, extremes, heightfield

CACHES = ("geometry_keys", "geometry_ranks", "degenerate", "rhr")
MODEL_CHANNELS = [ChannelId.FACET, ChannelId.VERTEX, ChannelId.NORMAL, ChannelId.ROBUST_PAIR]

# 0.0 next to -0.0, both signs of the smallest subnormal and of the largest
# finite float32, so the order-preserving map sees every kind of word
coordinate = st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, 1e-45, -1e-45, 3.4e38, -3.4e38])
point = st.tuples(coordinate, coordinate, coordinate)


@st.composite
def tie_models(draw):
    """Facets over a pool of at most five points: repeated and degenerate
    facets, facets with three equal vertices, and the empty model."""
    pool = draw(st.lists(point, min_size=1, max_size=5))
    pick = st.sampled_from(pool)
    facets = draw(st.lists(st.builds(Facet, pick, pick, pick, point), max_size=24))
    return model_from_facets(facets=tuple(facets))


@settings(max_examples=200, deadline=None)
@given(tie_models())
def test_rank_order_is_the_order_of_the_keys_as_float_tuples(model):
    ranks = model.geometry_ranks
    assert ranks.dtype == np.int64 and len(ranks) == len(model)
    assert sorted(set(ranks.tolist())) == list(range(len(set(ranks.tolist()))))  # dense
    keys = [geometry_key(f) for f in model.facets]
    n = len(model)
    i, j = np.divmod(np.arange(n * n), max(n, 1))
    by_rank = np.sign(ranks[i] - ranks[j])
    assert by_rank.tolist() == [(keys[a] > keys[b]) - (keys[a] < keys[b])
                                for a, b in zip(i.tolist(), j.tolist())]
    assert by_rank.tolist() == lex_compare(model.geometry_keys[i], model.geometry_keys[j]).tolist()


def test_ranks_of_the_empty_model_and_of_signed_zeros():
    assert StlModel().geometry_ranks.tolist() == []
    o, z, x = (0.0, 0.0, 0.0), (-0.0, 0.0, -0.0), (1.0, 0.0, 0.0)
    model = model_from_facets(facets=(Facet(o, o, o), Facet(z, z, z), Facet(x, o, z), Facet(z, x, o)))
    # three equal vertices, -0.0 equal to 0.0, and one triangle in two rotations
    assert model.geometry_ranks.tolist() == [0, 0, 1, 1]


def _bytes(value) -> bytes:
    if isinstance(value, tuple):
        return b"".join(_bytes(array) for array in value)
    assert not value.flags.writeable
    return value.tobytes()


def _computed(model: StlModel) -> StlModel:
    for name in CACHES:
        getattr(model, name)
    return model


def assert_carried_equal_fresh(label: str, derived: StlModel, carried) -> None:
    """derived holds exactly the named arrays, each equal to a fresh model's."""
    assert sorted(name for name in CACHES if name in derived.__dict__) == sorted(carried), label
    fresh = derived.with_records(derived.records.copy())
    for name in carried:
        # bytes, so that -0.0 and 0.0 count as different
        assert _bytes(derived.__dict__[name]) == _bytes(getattr(fresh, name)), (label, name)


def _derived_models(model: StlModel, seed: int):
    """(label, derived model, the arrays it must carry) for each constructor
    that carries, each model channel's write and each scrub pass."""
    rng = random.Random(seed)
    n = len(model)
    starts = np.array([rng.randrange(3) for _ in range(n)], dtype=np.intp)
    normals = np.array([[rng.uniform(-1, 1) for _ in range(3)] for _ in range(n)], dtype=np.float32)
    everything = CACHES
    yield "take, a permutation", model.take(np.array(rng.sample(range(n), n), dtype=np.intp)), everything
    subset = np.array([rng.randrange(n) for _ in range(n // 2)] if n else [], dtype=np.intp)
    # ranks only when the subset is all of the (empty) model
    rows = everything if len(subset) == n else ("geometry_keys", "degenerate", "rhr")
    yield "take, a subset", model.take(subset), rows
    yield "with_normals", model.with_normals(normals.reshape(n, 3), 7), everything
    yield "rotated", model.rotated(starts), ("geometry_ranks", "degenerate")
    for channel in MODEL_CHANNELS:
        spec = CHANNELS[channel]
        slots = spec.slots(model)
        bits = BitSequence(rng.randrange(2) for _ in range(len(slots)))
        carried = ("geometry_ranks", "degenerate") if channel is ChannelId.VERTEX else everything
        yield f"{channel.value} write", spec.write(model, slots, bits), carried
    for channel in (ChannelId.FACET, ChannelId.VERTEX, ChannelId.NORMAL):
        carried = ("geometry_ranks", "degenerate") if channel is ChannelId.VERTEX else everything
        yield f"{channel.value} scrub", CHANNELS[channel].scrub(model, RandomSource.seeded(seed)), carried


ZOO = {"extremes": lambda s: extremes(s)[0], "dirty-export": lambda s: dirty_export(s)[0],
       "cad-like": lambda s: cad_like(s)[0], "heightfield": lambda s: heightfield(s)[0]}


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("mesh", sorted(ZOO))
def test_carried_arrays_equal_a_fresh_computation_on_the_zoo(mesh, seed):
    model = _computed(ZOO[mesh](seed))
    for case in _derived_models(model, seed):
        assert_carried_equal_fresh(*case)


@settings(max_examples=100, deadline=None)
@given(tie_models(), st.integers(0, 2**32))
def test_carried_arrays_equal_a_fresh_computation_on_ties(model, seed):
    model = _computed(model)
    for case in _derived_models(model, seed):
        assert_carried_equal_fresh(*case)


def test_a_rotation_can_change_the_bits_of_a_key():
    # three vertices equal as floats: the key is the list as it stands
    z, o = (-0.0, 0.0, 0.0), (0.0, 0.0, 0.0)
    model = _computed(model_from_facets(facets=(Facet(z, o, o),)))
    turned = model.rotated(np.array([1]))
    assert "geometry_keys" not in turned.__dict__
    assert turned.geometry_keys.tobytes() != model.geometry_keys.tobytes()
    assert turned.geometry_ranks.tolist() == model.geometry_ranks.tolist() == [0]


@pytest.fixture
def computations(monkeypatch):
    """How often each cached array's function runs: keys (extreme_rotation
    with sign -1), ranks, the degenerate mask and the RHR normals."""
    counts = dict.fromkeys(("keys", "ranks", "mask", "rhr"), 0)

    def counted(name, label, sign=None):
        original = getattr(model_module, name)

        def wrapper(*args):
            if sign is None or args[1] == sign:
                counts[label] += 1
            return original(*args)

        monkeypatch.setattr(model_module, name, wrapper)

    counted("extreme_rotation", "keys", sign=-1)
    counted("geometry_ranks", "ranks")
    counted("degenerate", "mask")
    counted("rhr_normals", "rhr")
    return counts


@pytest.mark.parametrize(
    "channel, expected",
    [
        (ChannelId.FACET, {"keys": 1, "ranks": 1, "mask": 1, "rhr": 0}),
        (ChannelId.VERTEX, {"keys": 1, "ranks": 0, "mask": 1, "rhr": 0}),
        (ChannelId.NORMAL, {"keys": 0, "ranks": 0, "mask": 0, "rhr": 1}),
        # each trial's normal pass runs on a fresh rotation, whose normals
        # round differently: one RHR computation per trial, nothing else
        (ChannelId.ROBUST_PAIR, {"keys": 1, "ranks": 1, "mask": 1, "rhr": 6}),
    ],
)
def test_an_experiment_computes_each_array_at_most_once(channel, expected, computations):
    carrier = generate_test_mesh(2)
    run_experiment(TrialConfig(channel=channel, carrier=carrier, payload_bits=64, trials=6, seed=8))
    assert computations == expected
