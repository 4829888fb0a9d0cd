import math

import pytest

from scalar_reference import is_degenerate, unit_rhr_normal
from stlstego import capacity, generate_test_mesh
from stlstego.channels import ChannelId


@pytest.mark.parametrize("subdivisions,expected", [(0, 20), (1, 80), (2, 320), (4, 5120)])
def test_facet_counts(subdivisions, expected):
    assert len(generate_test_mesh(subdivisions)) == expected


def test_subdivision_range_checked():
    with pytest.raises(ValueError):
        generate_test_mesh(7)
    with pytest.raises(ValueError):
        generate_test_mesh(-1)


def test_s4_holds_1024_facet_channel_bits(icosphere4):
    assert capacity(icosphere4, ChannelId.FACET) == 2560
    assert capacity(icosphere4, ChannelId.FACET) >= 1024


def test_vertices_distinct_and_facets_unique(icosphere2):
    seen = set()
    for f in icosphere2.facets:
        assert not is_degenerate(f)
        key = frozenset(f.vertices)
        assert key not in seen
        seen.add(key)


def test_normals_match_rhr_and_point_outward(icosphere2):
    for f in icosphere2.facets:
        n = unit_rhr_normal(*f.vertices)
        err = max(abs(a - b) for a, b in zip(n, f.normal))
        assert err < 1e-6
        cx = sum(v[0] for v in f.vertices) / 3
        cy = sum(v[1] for v in f.vertices) / 3
        cz = sum(v[2] for v in f.vertices) / 3
        assert n[0] * cx + n[1] * cy + n[2] * cz > 0


def test_vertices_on_sphere(icosphere2):
    for f in icosphere2.facets:
        for v in f.vertices:
            r = math.sqrt(v[0] ** 2 + v[1] ** 2 + v[2] ** 2)
            assert abs(r - 25.0) < 1e-4
