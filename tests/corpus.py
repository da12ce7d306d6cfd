"""Seeded random typed graphs and brute-force oracles shared across tests."""

import random

from hinwalk import build_graph, enumerate_path_instances, instance_probabilities
from hinwalk.walks import walk_mass


def random_typed_graph(seed, max_entities=24, max_relations=4):
    """A small random typed graph with a random DAG hierarchy."""
    rng = random.Random(seed)
    n_entities = rng.randint(6, max_entities)
    n_rels = rng.randint(1, max_relations)
    n_types = rng.randint(2, 5)

    type_names = [f"T{i}" for i in range(n_types)]
    hierarchy_edges = []
    for i, t in enumerate(type_names):
        # parent is the root or an earlier type, keeping the hierarchy a DAG
        choices = ["Object"] + type_names[:i]
        hierarchy_edges.append((t, rng.choice(choices)))
        if i and rng.random() < 0.25:
            hierarchy_edges.append((t, rng.choice(choices)))

    entities = [f"e{i:02d}" for i in range(n_entities)]
    assignments = []
    for e in entities:
        for t in rng.sample(type_names, rng.randint(1, 2)):
            assignments.append((e, t))

    rels = [f"r{i}" for i in range(n_rels)]
    n_edges = int(n_entities * rng.uniform(1.0, 1.8))
    triples = set()
    for _ in range(n_edges):
        triples.add((rng.choice(entities), rng.choice(rels), rng.choice(entities)))

    return build_graph(sorted(triples), assignments, hierarchy_edges)


def random_example_pairs(graph, seed, n=2):
    rng = random.Random(seed)
    names = list(graph.entities)
    return [(rng.choice(names), rng.choice(names)) for _ in range(n)]


def oracle_distribution(graph, source, metapath, cap=500_000):
    """Walk mass per end entity, from exhaustive path-instance enumeration."""
    instances = enumerate_path_instances(graph, source, metapath, cap)
    if not instances:  # most sources have none; the enumeration checked the path
        return {}
    sums = {}
    for inst, prob in zip(instances, instance_probabilities(graph, instances, metapath)):
        end = inst[-1]
        sums[end] = sums.get(end, 0.0) + prob
    return sums


def walk_rows(graph, sources, metapath):
    """One ``walk_mass`` call from the source indices; each row as
    {end entity name: mass}, in source order."""
    mass = walk_mass(graph, sources, metapath)
    names = [graph.entity_name(e) for e in mass.indices.tolist()]
    data = mass.data.tolist()
    bounds = mass.indptr.tolist()
    return [dict(zip(names[a:b], data[a:b])) for a, b in zip(bounds, bounds[1:])]


def stored_cells(index):
    """{(row name, column name): value} of an index's stored entries."""
    m = index.matrix.tocoo()
    names = index.graph.entities
    rows, cols = index.rows[m.row].tolist(), index.cols[m.col].tolist()
    return {(names[i], names[j]): v for i, j, v in zip(rows, cols, m.data.tolist())}


def oracle_counts(graph, source, metapath, cap=500_000):
    """Path-instance counts per end entity."""
    counts = {}
    for inst in enumerate_path_instances(graph, source, metapath, cap):
        counts[inst[-1]] = counts.get(inst[-1], 0) + 1
    return counts


def auc_pairwise(scores, labels):
    """Exhaustive concordant-pair counting with ties worth one half."""
    pos = [s for s, l in zip(scores, labels) if l == 1]
    neg = [s for s, l in zip(scores, labels) if l == 0]
    total = 0.0
    for p in pos:
        for n in neg:
            if p > n:
                total += 1.0
            elif p == n:
                total += 0.5
    return total / (len(pos) * len(neg))
