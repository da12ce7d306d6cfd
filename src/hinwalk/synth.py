"""Seeded synthetic graph generators for benchmarks and experiments.

The planted-rule generator emits a typed graph where a designated relation
R(s, t) holds exactly when a planted multi-step meta-path connects s to t in
the final graph. The rule's edges, distractor relations and schema-free noise
edges are all drawn from one seeded RNG, so generation is bit-reproducible.
Target-relation edges are never materialized; R is only visible through the
labeled example pairs, mimicking link prediction over removed links.
"""

from __future__ import annotations

import math
import random
import warnings
from dataclasses import dataclass
from pathlib import Path

from .graph import _check_identifier, build_graph
from .io import DatasetBundle, ExampleRow, write_edges, write_examples, write_hierarchy, write_types
from .metapath import MetaPath
from .treesearch import SearchConfig

_DISTRACTOR_PREFIX = "dist"
_NOISE_PREFIX = "noise"


@dataclass(frozen=True)
class SyntheticSpec:
    entity_counts: dict[str, int]
    planted: MetaPath
    noise_rate: float = 0.1
    seed: int = 42
    out_degree: int = 3
    distractor_relations: int = 4
    noise_relation_count: int = 2
    n_pairs: int = 100  # positives and negatives, each, per split

    def __post_init__(self):
        for t in self.entity_counts:
            _check_identifier("type", t)  # the loader's rule, so the bundle loads
        for t in self.planted.node_types:
            if self.entity_counts.get(t, 0) <= 0:
                raise ValueError(f"planted path needs entities of type {t!r}, got none")
        for t, n in self.entity_counts.items():
            if n < 1:
                raise ValueError(f"type {t!r} needs at least 1 entity, got {n}")
        for rel in self.planted.relations:
            if rel.name.startswith((_DISTRACTOR_PREFIX, _NOISE_PREFIX)):
                raise ValueError(
                    f"planted relation {rel.name!r} collides with generated relation names"
                )
            if rel.inverted:
                raise ValueError("planted path must use forward relations only")
        if not 0.0 <= self.noise_rate < math.inf:
            raise ValueError(f"noise_rate must be finite and >= 0, got {self.noise_rate}")
        if self.out_degree < 1 or self.n_pairs < 1 or self.noise_relation_count < 0:
            raise ValueError("out_degree and n_pairs must be >= 1, noise_relation_count >= 0")
        if self.noise_rate > 0 and self.noise_relation_count == 0:
            raise ValueError("noise_rate > 0 needs noise_relation_count >= 1")
        if self.planted.length > SearchConfig().max_depth:
            warnings.warn(
                f"planted path length {self.planted.length} exceeds the default "
                f"search depth {SearchConfig().max_depth}; generation proceeds",
                stacklevel=2,
            )


def generate_synthetic(spec: SyntheticSpec, out_dir: str | Path) -> DatasetBundle:
    """Write a planted-rule bundle (edges, types, hierarchy, train and held-out
    examples) under ``out_dir`` and return it."""
    rng = random.Random(spec.seed)
    entities = {t: [f"{t}{i:05d}" for i in range(n)] for t, n in sorted(spec.entity_counts.items())}
    types = sorted(entities)

    triples: set[tuple[str, str, str]] = set()

    def link(src_t: str, relation: str, dst_t: str) -> None:
        """Edges from every ``src_t`` entity to ``out_degree`` random ``dst_t`` ones."""
        targets = entities[dst_t]
        k = min(spec.out_degree, len(targets))
        for u in entities[src_t]:
            for w in rng.sample(targets, k):
                triples.add((u, relation, w))

    # rule edges, one planted step at a time
    planted = spec.planted
    for src_t, rel, dst_t in zip(planted.node_types, planted.relations, planted.node_types[1:]):
        link(src_t, rel.name, dst_t)
    # distractor relations over random type pairs, same density as the rule
    for j in range(spec.distractor_relations):
        link(rng.choice(types), f"{_DISTRACTOR_PREFIX}{j}", rng.choice(types))  # source drawn first

    # schema-free noise: uniform endpoints over all entities
    everything = [e for t in types for e in entities[t]]
    n_noise = int(round(spec.noise_rate * len(triples)))
    for _ in range(n_noise):
        rel = f"{_NOISE_PREFIX}{rng.randrange(spec.noise_relation_count)}"
        triples.add((rng.choice(everything), rel, rng.choice(everything)))

    # ground truth: pairs connected by the planted path in the final graph
    connected = _planted_pairs(spec, entities, triples)
    sources = entities[spec.planted.source_type]
    targets_all = entities[spec.planted.target_type]
    need = 2 * spec.n_pairs
    if len(connected) < need:
        raise ValueError(
            f"only {len(connected)} planted pairs exist, need {need}; "
            f"increase entity counts or out_degree"
        )
    unconnected = len(sources) * len(targets_all) - len(connected)
    if unconnected < need:
        raise ValueError(
            f"only {unconnected} unconnected pairs exist, need {need} negatives; "
            f"increase entity counts or lower out_degree"
        )
    positives = rng.sample(sorted(connected), need)
    negatives: list[tuple[str, str]] = []
    seen: set[tuple[str, str]] = set()
    while len(negatives) < need:
        pair = (rng.choice(sources), rng.choice(targets_all))
        if pair in connected or pair in seen:
            continue
        seen.add(pair)
        negatives.append(pair)

    def rows(pos, neg):
        return [ExampleRow(s, t, 1.0, 1) for s, t in pos] + [ExampleRow(s, t, 1.0, 0) for s, t in neg]

    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    bundle = DatasetBundle(
        edges_path=out_dir / "edges.tsv",
        types_path=out_dir / "types.tsv",
        hierarchy_path=out_dir / "hierarchy.tsv",
        examples_path=out_dir / "examples_train.tsv",
        holdout_examples_path=out_dir / "examples_test.tsv",
    )
    write_edges(bundle.edges_path, triples)
    write_types(bundle.types_path, [(e, t) for t in types for e in entities[t]])
    write_hierarchy(bundle.hierarchy_path, [(t, "Object") for t in types])
    write_examples(bundle.examples_path, rows(positives[: spec.n_pairs], negatives[: spec.n_pairs]))
    write_examples(
        bundle.holdout_examples_path, rows(positives[spec.n_pairs :], negatives[spec.n_pairs :])
    )
    return bundle


def _planted_pairs(
    spec: SyntheticSpec,
    entities: dict[str, list[str]],
    triples: set[tuple[str, str, str]],
) -> set[tuple[str, str]]:
    """(s, t) pairs connected by the planted path, by direct forward sweep."""
    succ: dict[tuple[str, str], set[str]] = {}
    planted_rels = {rel.name for rel in spec.planted.relations}
    for u, r, w in triples:
        if r in planted_rels:
            succ.setdefault((u, r), set()).add(w)
    pairs: set[tuple[str, str]] = set()
    for s in entities[spec.planted.source_type]:
        frontier = {s}
        for rel in spec.planted.relations:
            frontier = {w for u in frontier for w in succ.get((u, rel.name), ())}
            if not frontier:
                break
        pairs.update((s, t) for t in frontier)
    return pairs


@dataclass(frozen=True)
class BibliographicSpec:
    """A small multi-area bibliographic world in the venue/paper/author shape."""

    n_areas: int = 3
    venues_per_area: int = 10
    authors_per_area: int = 40
    papers_per_author: int = 4
    seed: int = 7


def bibliographic_graph(spec: BibliographicSpec = BibliographicSpec()):
    """Build an in-memory areas-of-venues graph plus same-area example pairs.

    Authors publish only inside their own area, so venue similarity through
    shared authors is block-diagonal by area. Returns
    (graph, hierarchy, example_pairs, venue_area) where venue_area maps each
    venue to its area index.
    """
    rng = random.Random(spec.seed)
    triples: set[tuple[str, str, str]] = set()
    assignments: list[tuple[str, str]] = []
    venue_area: dict[str, int] = {}
    example_pairs: list[tuple[str, str]] = []

    paper_serial = 0
    for a in range(spec.n_areas):
        venues = [f"area{a}_v{i:02d}" for i in range(spec.venues_per_area)]
        for v in venues:
            assignments.append((v, "Venue"))
            venue_area[v] = a
        for i in range(spec.authors_per_area):
            author = f"area{a}_x{i:03d}"
            assignments.append((author, "Author"))
            for _ in range(spec.papers_per_author):
                paper = f"p{paper_serial:05d}"
                paper_serial += 1
                assignments.append((paper, "Paper"))
                venue = rng.choice(venues)
                triples.add((author, "authorOf", paper))
                triples.add((paper, "publishIn", venue))
        if spec.venues_per_area >= 2:
            example_pairs.append((venues[0], venues[1]))

    hierarchy_edges = [("Venue", "Object"), ("Paper", "Object"), ("Author", "Object")]
    graph, hierarchy = build_graph(sorted(triples), assignments, hierarchy_edges)
    return graph, hierarchy, example_pairs, venue_area
