import random

import pytest

from scalar_reference import is_degenerate, model_from_facets, unit_rhr_normal, vec3
from stlstego import Facet, StlModel, generate_test_mesh

# Two-facet ASCII excerpt used across the parser and codec tests.
LUCY_TEXT = """\
solid StanfordLucy
  facet normal -0.1128 -0.818 -0.5641
    outer loop
      vertex -13.101 0.527998 52.206
      vertex -13.035 0.791999 51.81
      vertex -12.771 0.527998 52.14
    endloop
  endfacet
  facet normal -0.0573 0.774 0.6306
    outer loop
      vertex 5.906999 7.589998 50.886
      vertex 5.972999 7.325997 51.216
      vertex 6.236998 7.722 50.754
    endloop
  endfacet
endsolid StanfordLucy
"""


def slot_texts(doc, spans) -> list[str]:
    """The strings of a document's slots, one per row of an (m, 2) span array."""
    return [doc.text[begin:end] for begin, end in spans.tolist()]


def unit_facet(attribute: int = 0) -> Facet:
    v1, v2, v3 = vec3(0, 0, 0), vec3(1, 0, 0), vec3(0, 1, 0)
    return Facet(v1=v1, v2=v2, v3=v3, normal=unit_rhr_normal(v1, v2, v3), attribute=attribute)


def random_facet(rng: random.Random, scale: float = 50.0) -> Facet:
    while True:
        coords = [vec3(*(rng.uniform(-scale, scale) for _ in range(3))) for _ in range(3)]
        f = Facet(v1=coords[0], v2=coords[1], v3=coords[2])
        if not is_degenerate(f) and unit_rhr_normal(*f.vertices) is not None:
            return f.__class__(
                v1=f.v1, v2=f.v2, v3=f.v3, normal=unit_rhr_normal(*f.vertices)
            )


def random_model(n: int, seed: int, attributes: bool = False) -> StlModel:
    rng = random.Random(seed)
    facets = []
    for _ in range(n):
        f = random_facet(rng)
        if attributes:
            f = Facet(
                v1=f.v1, v2=f.v2, v3=f.v3, normal=f.normal,
                attribute=rng.randrange(1 << 16),
            )
        facets.append(f)
    return model_from_facets(f"random_{seed}", tuple(facets))


def tagged_model(n: int) -> StlModel:
    """n distinct facets, each identifiable by its attribute word."""
    facets = []
    for i in range(n):
        base = float(i + 1)
        facets.append(
            Facet(
                v1=vec3(base, 0, 0),
                v2=vec3(base + 1, 0, 0),
                v3=vec3(base, 1, 0),
                normal=vec3(0, 0, 1),
                attribute=i,
            )
        )
    return model_from_facets("tagged", tuple(facets))


def pytest_report_collectionfinish(config, start_path, items):
    """The chance budget: the summed odds that the collected tests marked
    chance(alpha), the unseeded ones, fail a correct tree."""
    rates = [mark.args[0] for item in items for mark in item.iter_markers("chance")]
    return f"chance budget: {sum(rates):.1e} over {len(rates)} unseeded tests"


@pytest.fixture(scope="session")
def icosphere4() -> StlModel:
    return generate_test_mesh(4)


@pytest.fixture(scope="session")
def icosphere2() -> StlModel:
    return generate_test_mesh(2)


@pytest.fixture
def lucy_text() -> str:
    return LUCY_TEXT
