from pathlib import Path

import pytest
from hypothesis import settings

from hinwalk import build_graph, parse_metapath

# the same examples on every run, selected in CI with --hypothesis-profile=ci,
# so that a CI failure replays locally with the same flag
settings.register_profile("ci", derandomize=True)

DATA_DIR = Path(__file__).parent / "data"

G1_TRIPLES = [("p1", "found", "g"), ("p2", "found", "g")]
G1_TYPES = [("p1", "Person"), ("p2", "Person"), ("g", "Organization"), ("g", "Company")]
G1_HIERARCHY = [("Company", "Organization"), ("Organization", "Object"), ("Person", "Object")]

G2_TRIPLES = [
    ("a1", "publishIn", "v1"),
    ("a2", "publishIn", "v1"),
    ("b1", "publishIn", "v2"),
    ("c1", "publishIn", "v3"),
    ("x", "authorOf", "a1"),
    ("x", "authorOf", "b1"),
    ("y", "authorOf", "a2"),
    ("y", "authorOf", "c1"),
]
G2_TYPES = (
    [(v, "Venue") for v in ("v1", "v2", "v3")]
    + [(p, "Paper") for p in ("a1", "a2", "b1", "c1")]
    + [(a, "Author") for a in ("x", "y")]
)
G2_HIERARCHY = [("Venue", "Object"), ("Paper", "Object"), ("Author", "Object")]

# venue -> co-author -> venue round trip
P_STAR = "Venue -publishIn~-> Paper -authorOf~-> Author -authorOf-> Paper -publishIn-> Venue"


@pytest.fixture
def g1():
    return build_graph(G1_TRIPLES, G1_TYPES, G1_HIERARCHY)


@pytest.fixture
def g2():
    return build_graph(G2_TRIPLES, G2_TYPES, G2_HIERARCHY)


@pytest.fixture
def p_star():
    return parse_metapath(P_STAR)


@pytest.fixture
def g1_dir():
    return DATA_DIR / "g1"


@pytest.fixture
def g2_dir():
    return DATA_DIR / "g2"
