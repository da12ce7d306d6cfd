"""Seeded input bundles for the benchmark workloads.

Each workload's inputs are written once per (workload, size, seed) as a
file bundle under the data directory, outside any timed span: generating
the 100k-entity planted world takes seconds that are not program work.
The program under test only ever receives these files.

Bundle files: ``edges.tsv``, ``types.tsv``, ``hierarchy.tsv`` and
``examples_train.tsv`` (plus ``examples_test.tsv`` for planted worlds) in
the formats of ``hinwalk.io``, and ``areas.tsv`` (entity, area) for the
bibliographic world, which only the output checks read.
"""

from __future__ import annotations

import os
import random
import shutil
from pathlib import Path

from hinwalk import parse_metapath
from hinwalk import io as hio
from hinwalk.synth import BibliographicSpec, SyntheticSpec, bibliographic_graph, generate_synthetic

RULE = parse_metapath("A -r_ab-> B -r_bc-> C")
DISTRACTOR_TYPES = (("C", "B"), ("D", "A"), ("A", "E"), ("A", "C"), ("E", "A"), ("E", "B"))

# Entities per type in the planted worlds, and the bibliographic world's
# (areas, venues per area, authors per area, papers per author).
SIZES = {
    "full": {"lp-planted": 20_000, "enum-baseline": 2_000, "simsearch-biblio": (100, 10, 200, 4)},
    "tiny": {"lp-planted": 300, "enum-baseline": 300, "simsearch-biblio": (4, 5, 20, 4)},
}


def _write_planted(out: Path, per_type: int, seed: int) -> None:
    """Planted world: 5 types, rule A -r_ab-> B -r_bc-> C, 6 distractor
    relations, schema-free noise at 0.1 of the other edges, 100+100 train
    and 100+100 held-out pairs.

    ``generate_synthetic`` draws each distractor relation's endpoint types
    from the seed, and those six draws alone move the work of a run by up
    to 2x between seeds (5,168 to 9,858 enumerated paths at 10k entities).
    So the rule, noise and example pairs come from ``generate_synthetic``
    without distractors, and the distractors are added here over the fixed
    type pairs of ``DISTRACTOR_TYPES`` with edges drawn from the seed. They
    use their own relation names, so the planted pairs stay the same.
    """
    out_degree = 3
    rule_edges = len(RULE.relations) * per_type * out_degree
    distractor_edges = len(DISTRACTOR_TYPES) * per_type * out_degree
    spec = SyntheticSpec(
        entity_counts={t: per_type for t in "ABCDE"},
        planted=RULE,
        # 0.1 of rule plus distractor edges, expressed against rule edges alone
        noise_rate=0.1 * (rule_edges + distractor_edges) / rule_edges,
        seed=seed,
        out_degree=out_degree,
        n_pairs=100,
        distractor_relations=0,
    )
    generate_synthetic(spec, out)
    members: dict[str, list[str]] = {}
    for entity, type_id in hio.load_types(out / "types.tsv"):
        members.setdefault(type_id, []).append(entity)
    rng = random.Random(f"distractors-{seed}")
    edges = hio.load_edges(out / "edges.tsv")
    for j, (src, dst) in enumerate(DISTRACTOR_TYPES):
        for u in members[src]:
            edges.extend((u, f"dist{j}", w) for w in rng.sample(members[dst], out_degree))
    hio.write_edges(out / "edges.tsv", edges)


def _write_bibliographic(out: Path, shape: tuple[int, int, int, int], seed: int) -> None:
    areas, venues, authors, papers = shape
    spec = BibliographicSpec(areas, venues, authors, papers, seed)
    graph, hierarchy, pairs, venue_area = bibliographic_graph(spec)
    name = graph.entity_name
    triples = [
        (name(e), graph.relations[r], name(w))
        for e in range(graph.n_entities)
        for r, inv in graph.entity_rels_idx(e)
        if not inv
        for w in graph.neighbors_idx(e, r, inv)
    ]
    author_of = graph.relation_index("authorOf")
    publish_in = graph.relation_index("publishIn")
    area = dict(venue_area)
    for a in graph.type_members("Author"):
        papers_of = graph.neighbors_idx(a, author_of, False)
        area[name(a)] = venue_area[name(graph.neighbors_idx(papers_of[0], publish_in, False)[0])]
    hio.write_edges(out / "edges.tsv", triples)
    hio.write_types(
        out / "types.tsv",
        [(e, t) for e in graph.entities for t in graph.assigned_types(e)],
    )
    hio.write_hierarchy(
        out / "hierarchy.tsv",
        [(t, p) for t in hierarchy.types if t != hierarchy.root for p in hierarchy.parents(t)],
    )
    hio.write_examples(out / "examples_train.tsv", [hio.ExampleRow(s, t) for s, t in pairs])
    (out / "areas.tsv").write_text(
        "".join(f"{e}\t{a}\n" for e, a in sorted(area.items())), encoding="utf-8"
    )


def bundle(data_dir: Path, workload: str, size: str, seed: int) -> Path:
    """Directory of the workload's bundle, generated on first use.

    Generation writes to a temporary directory that is renamed into place,
    so an interrupted run never leaves a partial bundle behind.
    """
    out = data_dir / f"{workload}-{size}-s{seed}"
    if out.is_dir():
        return out
    tmp = data_dir / f".{out.name}.{os.getpid()}"
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    shape = SIZES[size][workload]
    if workload == "simsearch-biblio":
        _write_bibliographic(tmp, shape, seed)
    else:
        _write_planted(tmp, shape, seed)
    try:
        tmp.rename(out)
    except OSError:  # another run put the same bundle in place first
        if not out.is_dir():
            raise
        shutil.rmtree(tmp)
    return out


def describe(bundle_dir: Path) -> dict:
    """Bytes and data lines per bundle file, recorded with each result."""
    out = {}
    for path in sorted(bundle_dir.glob("*.tsv")):
        with open(path, "rb") as fh:
            lines = sum(1 for _ in fh)
        out[path.name] = {"bytes": path.stat().st_size, "lines": lines}
    return out
