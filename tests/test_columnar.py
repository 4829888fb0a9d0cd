"""The columnar core against the scalar definitions it replaces.

Each model channel's slots, read and write, and the normal pass, are
compared with straightforward per-facet code built on `Facet`, Python's
tuple comparison, and `geometry_key` and `unit_rhr_normal` from
`scalar_reference`, on models with degenerate facets, repeated vertices,
-0.0 next to 0.0, and exact ties.
"""
import importlib
import inspect
import pkgutil
import random
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_model
from scalar_reference import (
    geometry_key,
    is_degenerate,
    max_vertex,
    model_from_facets,
    unit_rhr_normal,
    vec3,
    with_facets,
    with_vertices,
)
import stlstego
from stlstego import (
    BitSequence,
    ChannelId,
    Facet,
    StlFormat,
    StlModel,
    embed,
    generate_test_mesh,
    parse_bytes,
    run_trial,
    sanitize_normal_channel,
    serialize,
    write_binary,
)
from stlstego.channels import CHANNELS
from stlstego.model import coords, rotate

# --- scalar reference --------------------------------------------------------


def ref_usable(facets):
    return [i for i, f in enumerate(facets) if not is_degenerate(f)]


def ref_normal_usable(facets):
    return [i for i, f in enumerate(facets) if unit_rhr_normal(*f.vertices) is not None]


def ref_halves(facets, run):
    if len(run) == 2:
        return geometry_key(facets[run[0]]), geometry_key(facets[run[1]])

    def pair(f, g):
        cf, cg = geometry_key(f), geometry_key(g)
        return (cf, cg) if cf <= cg else (cg, cf)

    i0, i1, i2, i3 = run
    return pair(facets[i0], facets[i1]), pair(facets[i2], facets[i3])


def ref_order_slots(facets, width):
    usable = ref_usable(facets)
    runs = []
    for k in range(0, len(usable) - width + 1, width):
        run = tuple(usable[k : k + width])
        first, second = ref_halves(facets, run)
        if first != second:
            runs.append(run)
    return runs


def ref_read_order(facets, run):
    first, second = ref_halves(facets, run)
    return 1 if first > second else 0


def ref_write_order(facets, runs, bits):
    out = list(facets)
    for bit, run in zip(bits, runs):
        if ref_read_order(facets, run) != bit:
            half = len(run) // 2
            for i, j in zip(run[:half], run[half:]):
                out[i], out[j] = out[j], out[i]
    return out


def ref_read_vertex(facets, i):
    v1, v2, v3 = facets[i].vertices
    return 1 if v1 == max_vertex(v1, max_vertex(v2, v3)) else 0


def ref_write_vertex(facets, indices, bits):
    out = list(facets)
    for bit, i in zip(bits, indices):
        a, b, c = out[i].vertices
        rotations = ((a, b, c), (b, c, a), (c, a, b))
        out[i] = with_vertices(out[i], max(rotations) if bit else min(rotations))
    return out


def ref_read_normal(facets, i):
    f = facets[i]
    n = unit_rhr_normal(*f.vertices)
    return 1 if f.normal[0] * n[0] + f.normal[1] * n[1] + f.normal[2] * n[2] < 0 else 0


def ref_write_normal(facets, indices, bits):
    out = list(facets)
    for bit, i in zip(bits, indices):
        n = unit_rhr_normal(*out[i].vertices)
        if bit:
            n = (0.0 - n[0], 0.0 - n[1], 0.0 - n[2])
        out[i] = replace(out[i], normal=n)
    return out


REFERENCE = {
    ChannelId.FACET: (lambda fs: ref_order_slots(fs, 2), ref_read_order, ref_write_order),
    ChannelId.VERTEX: (ref_usable, ref_read_vertex, ref_write_vertex),
    ChannelId.NORMAL: (ref_normal_usable, ref_read_normal, ref_write_normal),
    ChannelId.ROBUST_PAIR: (lambda fs: ref_order_slots(fs, 4), ref_read_order, ref_write_order),
}

# --- models full of ties -----------------------------------------------------

coordinate = st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, 2.0])
point = st.tuples(coordinate, coordinate, coordinate)


@st.composite
def tie_models(draw):
    """Facets over a pool of at most five points, so vertices repeat within
    and across facets, whole facets recur, and 0.0 meets -0.0."""
    pool = draw(st.lists(point, min_size=1, max_size=5))
    pick = st.sampled_from(pool)
    facets = draw(st.lists(st.builds(Facet, pick, pick, pick, point), max_size=24))
    return model_from_facets(facets=tuple(facets))


def bits_of(model: StlModel) -> bytes:
    # bytes, so that -0.0 and 0.0 count as different
    return write_binary(model)


@pytest.mark.parametrize("channel", list(REFERENCE), ids=lambda c: c.value)
@settings(max_examples=150, deadline=None)
@given(model=tie_models(), data=st.data())
def test_model_channels_match_scalar_reference(channel, model, data):
    ref_slots, ref_read, ref_write = REFERENCE[channel]
    spec = CHANNELS[channel]
    facets = model.facets

    slots = spec.slots(model)
    expected = ref_slots(facets)
    assert [tuple(s) if np.ndim(s) else int(s) for s in slots.tolist()] == expected
    assert list(spec.read(model, slots)) == [ref_read(facets, s) for s in expected]

    payload = data.draw(st.lists(st.integers(0, 1), max_size=len(expected)))
    written = spec.write(model, slots[: len(payload)], BitSequence(payload))
    assert bits_of(written) == bits_of(with_facets(model, ref_write(facets, expected, payload)))


def normal_oracle_facets():
    """The 10,000 facets of acceptance test 06."""
    rng = random.Random(11)
    facets = []
    while len(facets) < 10_000:
        coords = [
            tuple(float(np.float32(rng.uniform(-100, 100))) for _ in range(3))
            for _ in range(3)
        ]
        f = Facet(v1=coords[0], v2=coords[1], v3=coords[2])
        if not is_degenerate(f):
            e1 = np.subtract(coords[1], coords[0], dtype=np.float64)
            e2 = np.subtract(coords[2], coords[0], dtype=np.float64)
            if np.linalg.norm(np.cross(e1, e2)) > 0:
                facets.append(f)
    return facets


def test_normal_pass_is_bit_identical_to_scalar():
    zero_area = [
        Facet(v1=vec3(1, 1, 1), v2=vec3(1, 1, 1), v3=vec3(2, 2, 2)),
        Facet(v1=vec3(0, 0, 0), v2=vec3(1, 0, 0), v3=vec3(3, 0, 0)),
        Facet(v1=vec3(0, 0, 0), v2=vec3(2, 2, 2), v3=vec3(1, 1, 1)),
        Facet(v1=(-0.0, 0.0, 0.0), v2=(0.0, -0.0, 0.0), v3=(0.0, 0.0, -0.0)),
    ]
    tilted = [
        Facet(v1=(-0.0, 0.0, 0.0), v2=(1.0, -0.0, 0.0), v3=(0.0, 1.0, -0.0)),
        Facet(v1=vec3(1e20, 1.0000001, 1e20), v2=vec3(0.1, 3e-20, 1.0), v3=vec3(2.0, 1e-30, 1.0)),
        Facet(v1=(0.0, 0.0, 0.0), v2=vec3(1e-30, 0, 0), v3=vec3(0, 1e-30, 0)),  # tiny, not zero
    ]
    facets = normal_oracle_facets() + zero_area + tilted
    model = model_from_facets(facets=tuple(facets))
    expected = [unit_rhr_normal(*f.vertices) or (0.0, 0.0, 0.0) for f in model.facets]
    got = sanitize_normal_channel(model).normals
    assert got.tobytes() == np.array(expected, dtype="<f4").tobytes()


@settings(max_examples=100, deadline=None)
@given(tie_models())
def test_normal_pass_matches_scalar_on_ties(model):
    expected = [unit_rhr_normal(*f.vertices) or (0.0, 0.0, 0.0) for f in model.facets]
    got = sanitize_normal_channel(model).normals
    assert got.tobytes() == np.array(expected, dtype="<f4").reshape(-1, 3).tobytes()


def test_rotate_matches_the_take_along_axis_gather():
    records = random_model(60, seed=11).records.copy()
    coords(records)[::4, 1, 0] = -0.0  # the sign of zero is copied too
    coords(records)[1::4, 3] = -0.0
    vertices = StlModel(records=records).vertices  # a strided view, as sanitize passes it
    start = np.arange(60) % 3  # all three starts
    np.random.default_rng(12).shuffle(start)
    order = (start[:, None] + np.arange(3)) % 3
    expected = np.take_along_axis(vertices, order[:, :, None], axis=1)
    assert rotate(vertices, start).tobytes() == expected.tobytes()


class TestModelValue:
    def test_facets_view_round_trips(self):
        model = random_model(30, seed=5, attributes=True)
        again = model_from_facets(model.solid_name, model.facets, model.source_format)
        assert again == model
        assert again.facets == model.facets
        assert model.with_records(model.records) == model
        assert len(model) == len(model.facets) == 30

    @pytest.mark.parametrize("fmt", list(StlFormat), ids=lambda f: f.value)
    def test_equality_survives_serialization(self, fmt):
        model = replace(random_model(12, seed=6), source_format=fmt)
        parsed = parse_bytes(serialize(model, fmt))
        assert parsed == replace(model, solid_name=parsed.solid_name)
        assert parsed.facets == model.facets

    def test_signed_zero_compares_and_hashes_equal(self):
        plus = model_from_facets(facets=(Facet((0.0, 0.0, 0.0), (1.0, 0.0, 0.0), (0.0, 1.0, 0.0)),))
        minus = model_from_facets(facets=(Facet((-0.0, 0.0, 0.0), (1.0, -0.0, 0.0), (0.0, 1.0, 0.0)),))
        assert plus == minus and hash(plus) == hash(minus)
        assert bits_of(plus) != bits_of(minus)

    def test_every_field_counts(self):
        model = random_model(3, seed=7)
        assert model != replace(model, solid_name="other")
        assert model != replace(model, source_format=StlFormat.BINARY)
        facets = list(model.facets)
        facets[1] = replace(facets[1], attribute=1)
        assert model != with_facets(model, facets)
        assert model != with_facets(model, facets[:2])

    def test_records_are_read_only(self):
        model = random_model(2, seed=8)
        with pytest.raises(ValueError):
            model.records["attr"] = 1
        with pytest.raises(ValueError):
            model.vertices[0, 0, 0] = 1.0

    def test_records_must_match_the_layout(self):
        with pytest.raises(ValueError):
            StlModel(records=np.zeros(3, dtype=np.float32))

    def test_embed_leaves_the_input_model_alone(self):
        model = random_model(40, seed=10)
        before = bits_of(model)
        for channel in REFERENCE:
            embed(model, channel, BitSequence([1, 0, 1, 1]))
        assert bits_of(model) == before


def keyed_model(seed: int) -> StlModel:
    """A random model with degenerate facets and -0.0 coordinates."""
    facets = list(random_model(40, seed=seed).facets)
    p, q = vec3(1, 2, 3), vec3(4, 5, 6)
    facets[3] = Facet(p, p, q)
    facets[17] = Facet(q, p, q)
    facets[29] = Facet(p, q, q)
    facets[31] = Facet((0.0, 0.0, 0.0), (-0.0, 0.0, 0.0), (0.0, 1.0, 0.0))
    facets[35] = Facet((-0.0, 1.0, 0.0), (0.0, -0.0, 0.0), (1.0, 0.0, -0.0))
    return model_from_facets(facets=tuple(facets))


def assert_cached_arrays_match_scalar(model: StlModel) -> None:
    keys = [np.array(geometry_key(f), dtype="<f4").reshape(9) for f in model.facets]
    # bytes, so that -0.0 and 0.0 count as different
    assert model.geometry_keys.tobytes() == np.array(keys, dtype="<f4").tobytes()
    assert model.degenerate.tolist() == [is_degenerate(f) for f in model.facets]


class TestCachedArrays:
    @pytest.mark.parametrize("seed", [21, 22])
    def test_rows_match_the_scalar_definitions(self, seed):
        model = keyed_model(seed)
        assert_cached_arrays_match_scalar(model)
        assert model.degenerate.sum() == 4  # (0.0, ...) equals (-0.0, ...)

    @settings(max_examples=100, deadline=None)
    @given(tie_models())
    def test_rows_match_the_scalar_definitions_on_ties(self, model):
        assert_cached_arrays_match_scalar(model)

    def test_arrays_are_read_only_and_cached(self):
        model = keyed_model(23)
        for name in ("geometry_keys", "degenerate"):
            array = getattr(model, name)
            assert getattr(model, name) is array
            with pytest.raises(ValueError):
                array[0] = 0

    def test_a_derived_model_computes_its_own(self):
        model = keyed_model(24)
        keys, mask = model.geometry_keys, model.degenerate
        reversed_model = model.with_records(model.records[::-1])
        assert reversed_model.geometry_keys is not keys
        assert reversed_model.geometry_keys.tobytes() == keys[::-1].tobytes()
        assert reversed_model.degenerate.tolist() == mask[::-1].tolist()


def test_the_package_states_geometry_in_columns_only():
    scalar = ("f32", "vec3", "Vec3", "unit_rhr_normal", "geometry_key")
    assert [name for name in scalar if hasattr(stlstego, name)] == []
    for info in pkgutil.iter_modules(stlstego.__path__):
        module = importlib.import_module(f"stlstego.{info.name}")
        assert [n for n in scalar + ("is_degenerate",) if hasattr(module, n)] == [], info.name
    assert not hasattr(Facet, "is_degenerate")
    for function, removed in (
        (StlModel, "facets"),
        (run_trial, "sanitizer"),
        (generate_test_mesh, "radius"),
    ):
        assert removed not in inspect.signature(function).parameters
