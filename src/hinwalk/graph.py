"""Immutable typed multigraph with bidirectional per-relation adjacency.

Entities, relations and types are plain strings at the API surface; they are
interned to dense integer indices at build time (index order equals sorted
string order). Each relation is stored twice in compressed sparse row (CSR)
form, once per traversal direction: an ``indptr`` array of length n + 1 and
an ``indices`` array holding every entity's neighbours, sorted, at
``indices[indptr[e]:indptr[e + 1]]``. The walk code works on type-filtered
step matrices cut from these arrays (:meth:`HinGraph.step_matrix`).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np
import scipy.sparse as sp

from .errors import (
    HierarchyError,
    UnknownEntityError,
    UnknownRelationError,
    UnknownTypeError,
)

ROOT_TYPE = "Object"


@dataclass(frozen=True, order=True)
class DirectedRelation:
    """A relation type traversed forward or against edge direction."""

    name: str
    inverted: bool = False

    def inverse(self) -> "DirectedRelation":
        return DirectedRelation(self.name, not self.inverted)

    def __str__(self) -> str:
        return self.name + ("~" if self.inverted else "")


def _check_identifier(kind: str, name: str) -> None:
    if not name:
        raise ValueError(f"empty {kind} id")
    if any(c.isspace() for c in name):
        raise ValueError(f"{kind} id {name!r} must not contain whitespace")
    if "->" in name:
        raise ValueError(f"{kind} id {name!r} must not contain '->'")
    if kind == "relation" and name.endswith("~"):
        raise ValueError(f"relation id {name!r} must not end with '~'")


class TypeHierarchy:
    """DAG of entity types rooted at ``Object``.

    Depth of a type is the longest parent chain down from the root, so the
    lowest common ancestor is the deepest type that is an ancestor of both
    arguments; ties break on the lexicographically smallest type id.
    """

    def __init__(self, edges: Iterable[tuple[str, str]], root: str = ROOT_TYPE):
        parents: dict[str, set[str]] = {}
        types: set[str] = {root}
        for child, parent in edges:
            _check_identifier("type", child)
            _check_identifier("type", parent)
            if child == root:
                raise HierarchyError(f"root type {root!r} cannot have a parent ({parent!r})")
            types.add(child)
            types.add(parent)
            parents.setdefault(child, set()).add(parent)

        self.root = root
        self._parents: dict[str, tuple[str, ...]] = {
            t: tuple(sorted(parents.get(t, ()))) for t in sorted(types)
        }
        order = self._parents_first()

        for t in sorted(types):
            if t != root and not self._parents[t]:
                raise HierarchyError(f"type {t!r} cannot reach root {root!r}: it has no parent")

        self._ancestors: dict[str, frozenset[str]] = {}
        self._depth: dict[str, int] = {}
        for t in order:
            ps = self._parents[t]
            self._ancestors[t] = frozenset({t}.union(*map(self._ancestors.__getitem__, ps)))
            self._depth[t] = 1 + max(map(self._depth.__getitem__, ps)) if ps else 0

    def _parents_first(self) -> list[str]:
        """Every type after all of its parents (DFS post-order over parent
        edges, iterative so deep chains fit); raises on a cycle."""
        WHITE, GRAY, BLACK = 0, 1, 2
        color = {t: WHITE for t in self._parents}
        order: list[str] = []
        for start in sorted(self._parents):
            if color[start] != WHITE:
                continue
            stack: list[tuple[str, int]] = [(start, 0)]
            color[start] = GRAY
            while stack:
                node, i = stack[-1]
                ps = self._parents[node]
                if i < len(ps):
                    stack[-1] = (node, i + 1)
                    p = ps[i]
                    if color[p] == GRAY:
                        raise HierarchyError(f"cycle in hierarchy at edge {node!r} -> {p!r}")
                    if color[p] == WHITE:
                        color[p] = GRAY
                        stack.append((p, 0))
                else:
                    color[node] = BLACK
                    order.append(node)
                    stack.pop()
        return order

    @property
    def types(self) -> tuple[str, ...]:
        return tuple(self._parents)

    def __contains__(self, type_id: str) -> bool:
        return type_id in self._parents

    def _require(self, type_id: str) -> None:
        if type_id not in self._parents:
            raise UnknownTypeError(f"unknown type {type_id!r}")

    def parents(self, type_id: str) -> tuple[str, ...]:
        self._require(type_id)
        return self._parents[type_id]

    def ancestors(self, type_id: str) -> frozenset[str]:
        """All ancestors of a type, including the type itself and the root."""
        self._require(type_id)
        return self._ancestors[type_id]

    def depth(self, type_id: str) -> int:
        self._require(type_id)
        return self._depth[type_id]

    def compatible(self, a: str, b: str) -> bool:
        """Whether one of the two types is an ancestor of the other."""
        return a in self.ancestors(b) or b in self.ancestors(a)

    def lca(self, a: str, b: str) -> str:
        """Deepest common ancestor of two types; ties break on smallest id."""
        common = self.ancestors(a) & self.ancestors(b)
        return min(common, key=lambda t: (-self._depth[t], t))

    def lca_of_set(self, types: Iterable[str]) -> str:
        """Left fold of pairwise lca over the given types in sorted order."""
        ordered = sorted(set(types))
        if not ordered:
            raise ValueError("lca_of_set requires a non-empty set of types")
        acc = ordered[0]
        self._require(acc)
        for t in ordered[1:]:
            acc = self.lca(acc, t)
        return acc


# Entity indices and CSR offsets are int32: a triple list long enough to
# overflow them would not fit in memory as Python objects.
INDEX_DTYPE = np.int32

# One relation traversed in one direction: (indptr, indices).
Csr = tuple[np.ndarray, np.ndarray]


class StepMatrix:
    """One directed relation's adjacency between row-type and column-type
    members. ``counts`` has a 1 per edge, so products count path instances;
    ``walk`` divides each row by its number of edges (the uniform walk step)
    and ``walk_t`` is its transpose. Both are built on first use."""

    def __init__(self, counts: sp.csr_array):
        self.counts = counts

    @cached_property
    def walk(self) -> sp.csr_array:
        c = self.counts
        degree = np.diff(c.indptr)
        data = 1.0 / np.repeat(degree, degree)
        return sp.csr_array((data, c.indices, c.indptr), shape=c.shape)

    @cached_property
    def walk_t(self) -> sp.csr_array:
        return self.walk.T.tocsr()


class HinGraph:
    """Typed multigraph where every edge is queryable in both directions.

    Instances are immutable after construction; all query methods are pure.
    Step matrices are memoized per instance on first use. Build graphs with
    :func:`build_graph`, not by calling this constructor directly.
    """

    def __init__(
        self,
        entities: Sequence[str],
        relations: Sequence[str],
        adjacency: Sequence[tuple[Csr, Csr]],
        assigned_types: Sequence[frozenset[str]],
        hierarchy: TypeHierarchy,
    ):
        self.entities: tuple[str, ...] = tuple(entities)
        self.relations: tuple[str, ...] = tuple(relations)
        self.hierarchy = hierarchy
        self._eindex = {name: i for i, name in enumerate(self.entities)}
        self._rindex = {name: i for i, name in enumerate(self.relations)}
        self._adj = tuple(adjacency)  # [relation][inverted] -> (indptr, indices)
        self._assigned = tuple(assigned_types)
        self._steps: dict[tuple[int, bool, str, str], StepMatrix] = {}

        closure = {
            types: frozenset().union(*map(hierarchy.ancestors, types))
            for types in set(self._assigned)
        }
        self._closed: tuple[frozenset[str], ...] = tuple(map(closure.__getitem__, self._assigned))
        members: dict[str, list[int]] = {}
        for i, full in enumerate(self._closed):
            for t in full:
                members.setdefault(t, []).append(i)
        self._type_members = {t: np.array(idx, dtype=INDEX_DTYPE) for t, idx in members.items()}
        for arr in self._type_members.values():
            arr.flags.writeable = False  # shared with every caller of type_members

    # -- index-level access (used by the walk and search internals) --

    @property
    def directions(self) -> list[tuple[int, bool]]:
        """Every (relation index, inverted) pair, sorted."""
        return [(r, inv) for r in range(len(self.relations)) for inv in (False, True)]

    def entity_index(self, entity: str) -> int:
        idx = self._eindex.get(entity)
        if idx is None:
            raise UnknownEntityError(f"unknown entity {entity!r}")
        return idx

    def entity_name(self, idx: int) -> str:
        return self.entities[idx]

    def relation_index(self, relation: str) -> int:
        idx = self._rindex.get(relation)
        if idx is None:
            raise UnknownRelationError(f"unknown relation {relation!r}")
        return idx

    def neighbors_idx(self, entity: int, relation: int, inverted: bool) -> list[int]:
        """Sorted neighbour indices."""
        indptr, indices = self._adj[relation][inverted]
        return indices[indptr[entity] : indptr[entity + 1]].tolist()

    def entity_rels_idx(self, entity: int) -> tuple[tuple[int, bool], ...]:
        """Directed relations with at least one edge at this entity."""
        return tuple(d for d in self.directions if self.neighbors_idx(entity, *d))

    def closed_types_idx(self, entity: int) -> frozenset[str]:
        return self._closed[entity]

    def step_matrix(
        self, relation: int, inverted: bool, row_type: str, col_type: str
    ) -> StepMatrix:
        """The relation's adjacency with rows kept for ``row_type`` members and
        columns for ``col_type`` members."""
        key = (relation, inverted, row_type, col_type)
        step = self._steps.get(key)
        if step is None:
            n = self.n_entities
            indptr, indices = self._adj[relation][inverted]
            rows = np.repeat(np.arange(n, dtype=INDEX_DTYPE), np.diff(indptr))
            keep = np.isin(rows, self.type_members(row_type))
            keep &= np.isin(indices, self.type_members(col_type))
            counts = sp.csr_array(
                (np.ones(int(keep.sum()), dtype=np.int64), (rows[keep], indices[keep])),
                shape=(n, n),
            )
            step = self._steps[key] = StepMatrix(counts)
        return step

    # -- name-level API --

    @property
    def n_entities(self) -> int:
        return len(self.entities)

    def has_entity(self, entity: str) -> bool:
        return entity in self._eindex

    def out_neighbors(self, entity: str, rel: DirectedRelation) -> list[str]:
        """Entities one step away via ``rel``; empty when there is none.

        An unknown entity raises, so callers can tell "no such entity" apart
        from "entity has no neighbors under this relation".
        """
        e = self.entity_index(entity)
        r = self._rindex.get(rel.name)
        if r is None:
            return []
        return [self.entities[w] for w in self.neighbors_idx(e, r, rel.inverted)]

    def out_degree(self, entity: str, rel: DirectedRelation) -> int:
        return len(self.out_neighbors(entity, rel))

    def assigned_types(self, entity: str) -> frozenset[str]:
        """Types directly assigned to the entity (no ancestor expansion)."""
        return self._assigned[self.entity_index(entity)]

    def entity_types(self, entity: str) -> frozenset[str]:
        """Assigned types closed under ancestor expansion up to the root."""
        return self._closed[self.entity_index(entity)]

    def type_members(self, type_id: str) -> np.ndarray:
        """Sorted indices of entities whose closed type set contains ``type_id``."""
        if type_id not in self.hierarchy:
            raise UnknownTypeError(f"unknown type {type_id!r}")
        return self._type_members.get(type_id, np.zeros(0, dtype=INDEX_DTYPE))


def _csr(rows: np.ndarray, cols: np.ndarray, n: int) -> Csr:
    """Sorted, deduplicated CSR arrays of the edges rows[k] -> cols[k]."""
    matrix = sp.csr_array((np.ones(len(rows), dtype=bool), (rows, cols)), shape=(n, n))
    return matrix.indptr, matrix.indices


def build_graph(
    triples: Iterable[tuple[str, str, str]],
    type_assignments: Iterable[tuple[str, str]] = (),
    hierarchy_edges: Iterable[tuple[str, str]] = (),
) -> tuple[HinGraph, TypeHierarchy]:
    """Build an immutable graph plus hierarchy from edge and type listings.

    Duplicate triples collapse to a single edge. Every edge is materialized in
    both directions. Entities without a type assignment get ``{Object}``.
    Rejects hierarchies with cycles and type assignments that reference types
    absent from the hierarchy.
    """
    hierarchy = TypeHierarchy(hierarchy_edges)

    sources: list[str] = []
    rels: list[str] = []
    targets: list[str] = []
    for s, r, t in triples:  # a triple of another length raises ValueError
        sources.append(s)
        rels.append(r)
        targets.append(t)
    relation_names = set(rels)
    entity_names = set(sources) | set(targets)

    assigned: dict[str, set[str]] = {}
    for entity, type_id in type_assignments:
        if type_id not in hierarchy:
            raise UnknownTypeError(
                f"type assignment ({entity!r}, {type_id!r}) references a type absent from the hierarchy"
            )
        entity_names.add(entity)
        assigned.setdefault(entity, set()).add(type_id)

    entities = tuple(sorted(entity_names))
    relations = tuple(sorted(relation_names))
    for name in entities:
        _check_identifier("entity", name)
    for name in relations:
        _check_identifier("relation", name)

    n = len(entities)
    eindex = {name: i for i, name in enumerate(entities)}
    rindex = {name: i for i, name in enumerate(relations)}
    src = np.fromiter(map(eindex.__getitem__, sources), INDEX_DTYPE, len(sources))
    dst = np.fromiter(map(eindex.__getitem__, targets), INDEX_DTYPE, len(sources))
    rel = np.fromiter(map(rindex.__getitem__, rels), INDEX_DTYPE, len(sources))
    adjacency = []
    for r in range(len(relations)):
        mask = rel == r
        adjacency.append((_csr(src[mask], dst[mask], n), _csr(dst[mask], src[mask], n)))

    shared: dict[frozenset[str], frozenset[str]] = {}  # one object per distinct type set
    assigned_types = []
    for name in entities:
        types = frozenset(assigned.get(name, (hierarchy.root,)))
        assigned_types.append(shared.setdefault(types, types))

    graph = HinGraph(entities, relations, adjacency, assigned_types, hierarchy)
    return graph, hierarchy
