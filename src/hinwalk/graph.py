"""Immutable typed multigraph with bidirectional per-relation adjacency.

Entities, relations and types are plain strings at the API surface; they are
interned to dense integer indices at build time (index order equals sorted
string order), and the graph holds its own copies of them. Each relation
direction is stored once, as the boolean compressed sparse row (CSR) matrix
of its untyped step (:class:`StepMatrix`, row and column type both the
root): row ``e`` holds entity ``e``'s neighbours, sorted, one ``True`` per
distinct edge. Neighbour queries read these matrices, and the type-filtered
steps the walk code multiplies (:meth:`HinGraph.step_matrix`) are cut from
them.
"""

from __future__ import annotations

import re
from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property
from graphlib import CycleError, TopologicalSorter
from itertools import chain, count, filterfalse
from operator import itemgetter
from typing import Iterable, Iterator, Sequence

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


# the ids _check_identifier accepts, but for its relation rule: regex \s,
# str.isspace and str.split read the same Unicode whitespace table
_ID = re.compile(r"(?:(?!->)\S)+")


def _check_identifier(kind: str, name: str) -> None:
    if not name:
        raise ValueError(f"empty {kind} id")
    if any(c.isspace() for c in name):
        raise ValueError(f"{kind} id {name!r} must not contain whitespace")
    if "->" in name:
        raise ValueError(f"{kind} id {name!r} must not contain '->'")
    if kind == "relation" and name.endswith("~"):
        raise ValueError(f"relation id {name!r} must not end with '~'")


def _copies(kind: str, names: list[str]) -> list[str]:
    """New string objects equal to the sorted ``names``, cut from one joined
    text, so that the graph keeps no string of its caller's rows: a kept
    string keeps alive the whole memory arena it shares with them.
    (One-character Latin-1 names are interpreter singletons either way.)
    Raises ``ValueError`` for the smallest name that is not a valid id.

    The text cuts back into the names exactly when every name is non-empty
    and has no whitespace: ``split()`` then finds one piece per name and
    drops only the newline after each."""
    text = "\n".join([*names, ""])  # a trailing newline: a new text even for one name
    copies = text.split()
    if len(copies) != len(names) or len(text) != len(names) + sum(map(len, copies)) or "->" in text:
        _check_identifier(kind, next(filterfalse(_ID.fullmatch, names)))
    return copies


class TypeHierarchy:
    """DAG of entity types rooted at ``Object``.

    It keeps its own copy of every type name, not the caller's strings.
    Depth of a type is the longest parent chain down from the root, so the
    lowest common ancestor is the deepest type that is an ancestor of both
    arguments; ties break on the lexicographically smallest type id.
    """

    def __init__(self, edges: Iterable[tuple[str, str]]):
        parents: dict[str, set[str]] = {}
        types: set[str] = {ROOT_TYPE}
        for child, parent in edges:
            _check_identifier("type", child)
            _check_identifier("type", parent)
            if child == ROOT_TYPE:
                raise HierarchyError(f"root type {ROOT_TYPE!r} cannot have a parent ({parent!r})")
            types.add(child)
            types.add(parent)
            parents.setdefault(child, set()).add(parent)

        names = sorted(types)
        own = dict(zip(names, _copies("type", names)))
        self.root = own[ROOT_TYPE]
        self._parents: dict[str, tuple[str, ...]] = {
            own[t]: tuple(sorted(map(own.__getitem__, parents.get(t, ())))) for t in names
        }
        try:
            order = list(TopologicalSorter(self._parents).static_order())  # parents first
        except CycleError as exc:
            raise HierarchyError(f"cycle in hierarchy: {' -> '.join(exc.args[1])}") from None

        for t in self._parents:
            if t != ROOT_TYPE and not self._parents[t]:
                raise HierarchyError(f"type {t!r} cannot reach root {ROOT_TYPE!r}: it has no parent")

        self._ancestors: dict[str, frozenset[str]] = {}
        self._depth: dict[str, int] = {}
        for t in order:
            ps = self._parents[t]
            self._ancestors[t] = frozenset({t}.union(*map(self._ancestors.__getitem__, ps)))
            self._depth[t] = 1 + max(map(self._depth.__getitem__, ps)) if ps else 0

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


class StepMatrix:
    """One directed relation's adjacency between row-type and column-type
    members: ``edges`` is a boolean CSR matrix with one ``True`` per edge, so
    boolean products give reachable sets. ``counts`` (int64, products count
    path instances) and ``walk`` (each row divided by its number of edges,
    the uniform walk step) share its ``indptr`` and ``indices``; ``walk_t``
    is the transpose of ``walk``. All three are built on first use."""

    def __init__(self, edges: sp.csr_array):
        self.edges = edges

    def _with_data(self, data: np.ndarray) -> sp.csr_array:
        e = self.edges
        return sp.csr_array((data, e.indices, e.indptr), shape=e.shape)

    @cached_property
    def counts(self) -> sp.csr_array:
        return self._with_data(np.ones(self.edges.nnz, dtype=np.int64))

    @cached_property
    def walk(self) -> sp.csr_array:
        degree = np.diff(self.edges.indptr)
        return self._with_data(1.0 / np.repeat(degree, degree))

    @cached_property
    def walk_t(self) -> sp.csr_array:
        return self.walk.T.tocsr()


class HinGraph:
    """Typed multigraph where every edge is queryable in both directions.

    Instances are immutable after construction; all query methods are pure.
    The untyped step of every relation direction is its stored adjacency;
    type-filtered steps are cut from it and memoized per instance on first
    use. Build graphs with :func:`build_graph`, not by calling this
    constructor directly.
    """

    def __init__(
        self,
        entity_index: dict[str, int],
        relations: Sequence[str],
        adjacency: Sequence[tuple[sp.csr_array, sp.csr_array]],
        assigned_types: Sequence[frozenset[str]],
        hierarchy: TypeHierarchy,
    ):
        self.entities: tuple[str, ...] = tuple(entity_index)  # in index order
        self.relations: tuple[str, ...] = tuple(relations)
        self.hierarchy = hierarchy
        self._eindex = entity_index
        self._rindex = {name: i for i, name in enumerate(self.relations)}
        self._assigned = tuple(assigned_types)
        root = hierarchy.root
        # seeded with each direction's untyped step, the one stored adjacency:
        # adjacency[relation][inverted] is its boolean edge matrix
        self._steps: dict[tuple[int, bool, str, str], StepMatrix] = {
            (r, inv, root, root): StepMatrix(edges)
            for r, pair in enumerate(adjacency)
            for inv, edges in zip((False, True), pair)
        }

        closure = {
            types: frozenset().union(*map(hierarchy.ancestors, types))
            for types in set(self._assigned)
        }
        self._closed: tuple[frozenset[str], ...] = tuple(map(closure.__getitem__, self._assigned))
        # entities grouped by assigned type set, ascending within each group
        code = dict(zip(closure, range(len(closure))))
        codes = np.fromiter(map(code.__getitem__, self._assigned), INDEX_DTYPE, len(self._assigned))
        order, runs = _runs(codes, len(code))
        members: dict[str, list[np.ndarray]] = {}
        for full, (a, b) in zip(closure.values(), runs):
            for t in full:
                members.setdefault(t, []).append(order[a:b].astype(INDEX_DTYPE))
        self._type_members = {t: np.sort(np.concatenate(g)) for t, g in members.items()}
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
        root = self.hierarchy.root
        edges = self._steps[relation, inverted, root, root].edges
        return edges.indices[edges.indptr[entity] : edges.indptr[entity + 1]].tolist()

    def entity_rels_idx(self, entity: int) -> tuple[tuple[int, bool], ...]:
        """Directed relations with at least one edge at this entity."""
        return tuple(d for d in self.directions if self.neighbors_idx(entity, *d))

    def closed_types_idx(self, entity: int) -> frozenset[str]:
        return self._closed[entity]

    def step_matrix(
        self, relation: int, inverted: bool, row_type: str, col_type: str
    ) -> StepMatrix:
        """The relation's adjacency with rows kept for ``row_type`` members and
        columns for ``col_type`` members, cut from its untyped step."""
        key = (relation, inverted, row_type, col_type)
        step = self._steps.get(key)
        if step is None:
            root = self.hierarchy.root
            edges = self._steps[relation, inverted, root, root].edges
            n = self.n_entities
            rows = np.repeat(np.arange(n, dtype=INDEX_DTYPE), np.diff(edges.indptr))
            keep = np.isin(rows, self.type_members(row_type))
            keep &= np.isin(edges.indices, self.type_members(col_type))
            cut = sp.csr_array((edges.data[keep], (rows[keep], edges.indices[keep])), shape=(n, n))
            step = self._steps[key] = StepMatrix(cut)
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

    def lca_type(self, indices: Iterable[int]) -> str:
        """The type of a meta-path position where the entities at ``indices``
        were seen: the lowest common ancestor of their assigned types."""
        # entities share one frozenset per distinct type set, so this set is small
        type_sets = set(map(self._assigned.__getitem__, indices))
        if not type_sets:
            raise ValueError("cannot type a meta-path position without entities")
        return self.hierarchy.lca_of_set(frozenset().union(*type_sets))

    def type_members(self, type_id: str) -> np.ndarray:
        """Sorted indices of entities whose closed type set contains ``type_id``."""
        if type_id not in self.hierarchy:
            raise UnknownTypeError(f"unknown type {type_id!r}")
        return self._type_members.get(type_id, np.zeros(0, dtype=INDEX_DTYPE))


def _edges(rows: np.ndarray, cols: np.ndarray, n: int) -> sp.csr_array:
    """Boolean CSR matrix of the edges rows[k] -> cols[k]: indices sorted,
    duplicates collapsed (summing booleans is a logical or)."""
    return sp.csr_array((np.ones(len(rows), dtype=bool), (rows, cols)), shape=(n, n))


def _rows(rows: Iterable[tuple], width: int) -> Sequence[tuple]:
    """The rows as a sequence; raises ``ValueError`` unless each row has
    ``width`` fields."""
    rows = rows if isinstance(rows, Sequence) else list(rows)
    lengths = set(map(len, rows))
    if lengths - {width}:
        raise ValueError(f"expected rows of {width} fields, got lengths {sorted(lengths)}")
    return rows


def _column(rows: Sequence[tuple], i: int) -> Iterator[str]:
    return map(itemgetter(i), rows)


def _runs(codes: np.ndarray, k: int) -> tuple[np.ndarray, list[tuple[int, int]]]:
    """Positions ordered by code, stably, and the ``[start, end)`` run of each
    code ``0 .. k-1`` in that order."""
    ends = np.cumsum(np.bincount(codes, minlength=k)).tolist()
    return np.argsort(codes, kind="stable"), list(zip([0] + ends[:-1], ends))


def _codes(column: Iterable[str], size: int) -> tuple[list[str], np.ndarray]:
    """The distinct names of a column of ``size`` fields, sorted, and each
    field's index among them.

    One dict pass gives each field the position where its name was first
    seen, and numpy maps those positions to sorted order. A file written in
    sorted order is nearly sorted in first-seen order too, which the sort
    is quick on."""
    seen: dict[str, int] = {}  # name -> position where it was first seen
    at = np.fromiter(map(seen.setdefault, column, count()), INDEX_DTYPE, size)
    first = list(seen)
    order = sorted(range(len(first)), key=first.__getitem__)
    index_at = np.empty(size, INDEX_DTYPE)  # read only at first-seen positions
    index_at[np.fromiter(seen.values(), INDEX_DTYPE, len(first))[order]] = np.arange(len(first))
    return list(map(first.__getitem__, order)), index_at[at]


def _assigned_types(
    assignments: Sequence[tuple[str, str]], names: list[str], hierarchy: TypeHierarchy
) -> list[frozenset[str]]:
    """The assigned type set of each of the sorted entity ``names``, one
    frozenset object per distinct set, over the hierarchy's own strings.
    Each typed entity gets the type of its last row, and the types of its
    other rows if it has more; an untyped entity gets the root."""
    own = dict(zip(hierarchy.types, hierarchy.types))
    last = dict(zip(_column(assignments, 0), _column(assignments, 1)))
    single = {t: frozenset((own[t],)) for t in set(last.values()) | {hierarchy.root}}
    single[None] = single[hierarchy.root]
    assigned = list(map(single.__getitem__, map(last.get, names)))
    if len(last) < len(assignments):  # some entity has more than one row
        more: dict[str, set[str]] = {}
        pairs = set(zip(_column(assignments, 0), _column(assignments, 1)))
        for entity, type_id in pairs.difference(last.items()):
            more.setdefault(entity, {last[entity]}).add(type_id)
        shared: dict[frozenset[str], frozenset[str]] = {}
        for entity, types in more.items():
            types = frozenset(map(own.__getitem__, types))
            assigned[bisect_left(names, entity)] = shared.setdefault(types, types)
    return assigned


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

    Every name the graph and hierarchy keep is a new string made here (see
    :func:`_copies`), so dropping the caller's rows frees their memory.
    """
    hierarchy = TypeHierarchy(hierarchy_edges)
    triples = _rows(triples, 3)
    assignments = _rows(type_assignments, 2)

    unknown = set(_column(assignments, 1)).difference(hierarchy.types)
    if unknown:
        entity, type_id = next(row for row in assignments if row[1] in unknown)
        raise UnknownTypeError(
            f"type assignment ({entity!r}, {type_id!r}) references a type absent from the hierarchy"
        )

    # entity codes of sources, then targets, then typed entities; the last
    # are read only to name entities that have no edge
    m = len(triples)
    names, codes = _codes(
        chain(_column(triples, 0), _column(triples, 2), _column(assignments, 0)),
        2 * m + len(assignments),
    )
    entities = _copies("entity", names)
    n = len(entities)
    eindex = dict(zip(entities, range(n)))
    relation_names, rel = _codes(_column(triples, 1), m)
    for name in relation_names:
        _check_identifier("relation", name)
    relations = _copies("relation", relation_names)
    assigned_types = _assigned_types(assignments, names, hierarchy)

    # edges grouped by relation with one sort, not one full-length mask per
    # relation
    src, dst = codes[:m], codes[m : 2 * m]
    order, runs = _runs(rel, len(relations))
    adjacency = []
    for a, b in runs:
        s, t = src[order[a:b]], dst[order[a:b]]
        adjacency.append((_edges(s, t, n), _edges(t, s, n)))

    graph = HinGraph(eindex, relations, adjacency, assigned_types, hierarchy)
    return graph, hierarchy
