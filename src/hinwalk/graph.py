"""Typed multigraph with per-relation adjacency, queryable in both directions.

Entities, relations and types are plain strings at the API surface; they are
interned to dense integer indices at build time (index order equals sorted
string order), and the graph holds its own copies of them, the entity
names as one text with no string object per entity (:class:`NameTable`).
A name is found by binary search in the sorted names (:func:`position`),
so no name-keyed dict is kept beside them. Each relation is stored once,
as the boolean compressed sparse row (CSR) matrix of its forward untyped
step (:class:`StepMatrix`, row and column type both the root): row ``e``
holds entity ``e``'s targets, sorted, one ``True`` per distinct edge. The
inverse step is that matrix's transpose, made the first time it is asked
for and kept from then on. Neighbour queries read these matrices, and the
type-filtered steps the walk code multiplies (:meth:`HinGraph.step_matrix`)
are cut from them, and a cut that keeps every edge is the untyped step
itself. Each entity's types are kept once, as one small integer code (the
narrowest unsigned dtype that holds it) into the graph's distinct assigned
type sets. No closure under the hierarchy is stored: type members, typed
cuts and closed types are derived from the sets and the hierarchy's
ancestors when asked for (:meth:`HinGraph.type_members`).
"""

from __future__ import annotations

import re
from array import array
from bisect import bisect_left
from collections import defaultdict
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass
from functools import cached_property
from graphlib import CycleError, TopologicalSorter
from itertools import chain, count, filterfalse, islice, repeat

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


def position(names: Sequence[str], name: str) -> int | None:
    """Position of ``name`` in the strictly ascending ``names``, or ``None``
    when it is absent."""
    try:
        i = bisect_left(names, name)
        if names[i] == name:
            return i
    except (IndexError, TypeError):  # past the last name; a name no string compares with
        pass
    return None


# whitespace but the newline that ends each name in a NameTable's text
_SPACE = re.compile(r"[^\S\n]")


class NameTable(Sequence[str]):
    """Sorted distinct names kept as one text, not one string object each.

    The text is the names, each followed by a newline, and ``_starts`` holds
    where each name starts, plus one offset past the text's end: name ``i``
    is ``_text[_starts[i] : _starts[i + 1] - 1]``, a new string on every
    read (one-character Latin-1 names are interpreter singletons either
    way). So the table keeps none of its caller's strings, which would keep
    alive the whole memory arenas they share with the caller's rows, and
    costs one character and one 8-byte offset per name beyond the names'
    characters. Names are found by binary search (:func:`position`), which
    ``in`` uses too. Raises ``ValueError`` for the smallest name that is not
    a valid id.

    Every name is a valid id exactly when none is empty and the text holds
    one newline per name, no other whitespace and no ``->``, which is checked
    on the whole text at once."""

    __slots__ = ("_text", "_starts")

    def __init__(self, kind: str, names: Sequence[str]):
        n = len(names)
        text = "\n".join([*names, ""])
        lengths = np.fromiter(map(len, names), np.int64, n)
        if text.count("\n") != n or not lengths.all() or "->" in text or _SPACE.search(text):
            _check_identifier(kind, next(filterfalse(_ID.fullmatch, names)))
        starts = np.zeros(n + 1, np.int64)
        np.cumsum(lengths + 1, out=starts[1:])
        self._text = text
        self._starts = array("q", starts.tobytes())

    def __len__(self) -> int:
        return len(self._starts) - 1

    def __getitem__(self, i: int) -> str:
        starts = self._starts
        if i < 0:
            i += len(starts) - 1
            if i < 0:
                raise IndexError("name index out of range")
        return self._text[starts[i] : starts[i + 1] - 1]  # IndexError past the last name

    def __iter__(self) -> Iterator[str]:
        return islice(self._text.split("\n"), len(self))

    def __contains__(self, name: object) -> bool:
        return position(self, name) is not None


class TypeHierarchy:
    """DAG of entity types rooted at ``Object``.

    It keeps its own copy of every type name, not the caller's strings.
    Depth of a type is the longest parent chain down from the root, so the
    lowest common ancestor of a set of types is the deepest common ancestor
    of the whole set; ties go to the smallest type id. It does not depend on
    argument order, nor on type names but to break such a tie.
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
        own = dict(zip(names, NameTable("type", names)))
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

    def lca(self, *types: str) -> str:
        """Deepest type in the intersection of the given types' ancestor
        sets, ties going to the smallest id: independent of argument order,
        and of type names but for the tie."""
        if not types:
            raise ValueError("lca needs at least one type")
        common = frozenset.intersection(*map(self.ancestors, types))
        return min(common, key=lambda t: (-self._depth[t], t))


# Entity indices and CSR offsets are int32: a triple list long enough to
# overflow them would not fit in memory as Python objects.
INDEX_DTYPE = np.int32


class StepMatrix:
    """One directed relation's adjacency between row-type and column-type
    members: ``edges`` is a boolean CSR matrix with one ``True`` per edge, so
    boolean products give reachable sets. ``counts`` (int64, products count
    path instances) and ``walk`` (each row divided by its number of edges,
    the uniform walk step) share its ``indptr`` and ``indices`` and are
    built on first use."""

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


class HinGraph:
    """Typed multigraph where every edge is queryable in both directions.

    Entities, edges and types do not change after construction, and every
    query answers from them alone; the one state that grows is the step
    memo (:meth:`step_matrix`). ``entities`` (a :class:`NameTable`) and
    ``relations`` (a tuple) are sorted, and an entity's or relation's index
    is its position there; names are looked up by binary search, and
    :meth:`entity_name` cuts a new string from the table. The memo starts
    with each relation's forward untyped step, its stored adjacency. An
    inverse untyped step is the forward one's transpose, memoized the first
    time it is asked for (neighbour queries ask through :meth:`step_matrix`
    too). Type-filtered steps are memoized per instance on first use: a
    filter that keeps every edge memoizes the untyped step itself, and only
    a filter that drops an edge stores a cut. So the memo holds at most one
    matrix per distinct (direction, row type, column type) key asked for,
    and no cut is larger than its untyped step. Whether an entity carries a
    type has one answer, :meth:`_type_table`, derived on each call from the
    assigned type sets, the one type record. Build graphs with
    :func:`build_graph`, not by calling this constructor directly.
    """

    def __init__(
        self,
        entities: NameTable,
        relations: Sequence[str],
        adjacency: Sequence[sp.csr_array],
        type_codes: np.ndarray,
        type_sets: Sequence[frozenset[str]],
        hierarchy: TypeHierarchy,
    ):
        self.entities = entities  # sorted, in index order
        self.relations: tuple[str, ...] = tuple(relations)  # sorted, in index order
        self.hierarchy = hierarchy
        root = hierarchy.root
        # seeded with each relation's forward untyped step, the one stored
        # adjacency: adjacency[relation] is its boolean edge matrix
        self._steps: dict[tuple[int, bool, str, str], StepMatrix] = {
            (r, False, root, root): StepMatrix(edges) for r, edges in enumerate(adjacency)
        }

        # the only type record: entity e's assigned types are
        # _type_sets[_type_codes[e]]; every closure is derived from them
        self._type_codes = type_codes
        self._type_sets: tuple[frozenset[str], ...] = tuple(type_sets)

    # -- index-level access (used by the walk and search internals) --

    @property
    def directions(self) -> list[tuple[int, bool]]:
        """Every (relation index, inverted) pair, sorted."""
        return [(r, inv) for r in range(len(self.relations)) for inv in (False, True)]

    def entity_index(self, entity: str) -> int:
        idx = position(self.entities, entity)
        if idx is None:
            raise UnknownEntityError(f"unknown entity {entity!r}")
        return idx

    def entity_name(self, idx: int) -> str:
        return self.entities[idx]

    def relation_index(self, relation: str) -> int:
        idx = position(self.relations, relation)
        if idx is None:
            raise UnknownRelationError(f"unknown relation {relation!r}")
        return idx

    def neighbors_idx(self, entity: int, relation: int, inverted: bool) -> list[int]:
        """Sorted neighbour indices."""
        root = self.hierarchy.root
        edges = self.step_matrix(relation, inverted, root, root).edges
        return edges.indices[edges.indptr[entity] : edges.indptr[entity + 1]].tolist()

    def entity_rels_idx(self, entity: int) -> tuple[tuple[int, bool], ...]:
        """Directed relations with at least one edge at this entity."""
        return tuple(d for d in self.directions if self.neighbors_idx(entity, *d))

    def closed_types_idx(self, entity: int) -> frozenset[str]:
        """The entity's assigned types and all their ancestors, a new set on every call."""
        types = self._type_sets[self._type_codes[entity]]
        return frozenset().union(*map(self.hierarchy.ancestors, types))

    def step_matrix(
        self, relation: int, inverted: bool, row_type: str, col_type: str
    ) -> StepMatrix:
        """The relation's adjacency with rows kept for ``row_type`` members and
        columns for ``col_type`` members, cut from its untyped step by masking
        its stored edges through :meth:`_type_table`; the untyped step itself
        when the cut would keep every edge. The inverse untyped step is the
        forward one's transpose."""
        key = (relation, inverted, row_type, col_type)
        step = self._steps.get(key)
        if step is None:
            root = self.hierarchy.root
            if row_type == col_type == root:  # an inverse: every forward step is seeded
                step = StepMatrix(self._steps[relation, False, root, root].edges.T.tocsr())
            else:
                untyped = self.step_matrix(relation, inverted, root, root)
                edges = untyped.edges
                codes = self._type_codes
                # an edge is kept when its column's and its row's entity carry the types
                keep = self._type_table(col_type)[codes][edges.indices]
                keep &= np.repeat(self._type_table(row_type)[codes], np.diff(edges.indptr))
                if keep.all():  # the cut would equal the untyped step
                    step = untyped
                else:
                    kept = np.zeros(len(keep) + 1, dtype=INDEX_DTYPE)  # kept edges before each
                    np.cumsum(keep, dtype=INDEX_DTYPE, out=kept[1:])
                    cut = (edges.data[keep], edges.indices[keep], kept[edges.indptr])
                    step = StepMatrix(sp.csr_array(cut, shape=edges.shape))
            self._steps[key] = step
        return step

    # -- name-level API --

    @property
    def n_entities(self) -> int:
        return len(self.entities)

    def out_neighbors(self, entity: str, rel: DirectedRelation) -> list[str]:
        """Entities one step away via ``rel``; empty when there is none.

        An unknown entity raises, so callers can tell "no such entity" apart
        from "entity has no neighbors under this relation".
        """
        e = self.entity_index(entity)
        r = position(self.relations, rel.name)
        if r is None:
            return []
        return [self.entities[w] for w in self.neighbors_idx(e, r, rel.inverted)]

    def assigned_types(self, entity: str) -> frozenset[str]:
        """Types directly assigned to the entity (no ancestor expansion)."""
        return self._type_sets[self._type_codes[self.entity_index(entity)]]

    def entity_types(self, entity: str) -> frozenset[str]:
        """Assigned types closed under ancestor expansion up to the root."""
        return self.closed_types_idx(self.entity_index(entity))

    def lca_type(self, indices: Iterable[int]) -> str:
        """The type of a meta-path position where the entities at ``indices``
        (repeats allowed) were seen: the deepest common ancestor of the whole
        set of their assigned types (:meth:`TypeHierarchy.lca`), ties going
        to the smallest id, independent of order and, but for the tie, of
        type names."""
        if not isinstance(indices, np.ndarray):
            indices = np.fromiter(indices, np.intp)
        if not len(indices):
            raise ValueError("cannot type a meta-path position without entities")
        # marks the distinct type sets seen, with no sort of the indices
        seen = np.zeros(len(self._type_sets), dtype=bool)
        seen[self._type_codes[indices]] = True
        type_sets = map(self._type_sets.__getitem__, np.flatnonzero(seen).tolist())
        return self.hierarchy.lca(*frozenset().union(*type_sets))

    def _type_table(self, type_id: str) -> np.ndarray:
        """One boolean per type-set code: whether one of that set's types has
        ``type_id`` among its ancestors."""
        if type_id not in self.hierarchy:
            raise UnknownTypeError(f"unknown type {type_id!r}")
        ancestors = self.hierarchy.ancestors
        carriers = {t for t in self.hierarchy.types if type_id in ancestors(t)}
        return np.array([not carriers.isdisjoint(types) for types in self._type_sets], dtype=bool)

    def carries_type(self, indices: np.ndarray, type_id: str) -> np.ndarray:
        """Whether each entity at ``indices`` has ``type_id`` among its closed
        types, as one boolean per index, in the given order."""
        return self._type_table(type_id)[self._type_codes[indices]]

    def type_members(self, type_id: str) -> np.ndarray:
        """Sorted indices of entities whose closed type set contains ``type_id``,
        as a new int32 array on every call: derived from the type codes in
        O(n), not stored."""
        return np.flatnonzero(self._type_table(type_id)[self._type_codes]).astype(INDEX_DTYPE)


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


# code columns are C ints, the int32 of INDEX_DTYPE, read by numpy in place
_CODE = "i"
_ROWS = 4096  # rows that CodedTable.extend gathers before coding them


class CodedTable(Sequence[tuple[str, ...]]):
    """Rows of ``width`` names, 2 or 3, kept as int32 code columns, with no
    tuple and no string object per row.

    Field 1 of a row is its label (a relation or a type) and the others name
    entities. ``names`` and ``labels`` are the distinct entity and label
    names in the order first seen, so a code is a position there.
    ``entity_codes`` holds each row's ``width - 1`` entity codes, row after
    row, and ``label_codes`` each row's label code: a row costs
    ``4 * width`` bytes beside the distinct names. ``len`` counts rows,
    duplicates included; indexing and iteration give each row as the tuple
    of its names (a slice, a list of them), and :meth:`extend` adds rows.
    :func:`build_graph` reads the code columns and the distinct names, never
    the rows.

    Rows given to :meth:`extend` are gathered and coded some thousands at a
    time, and before anything is read. While rows are being coded, names
    are numbered through one name-to-code dict per column kind; the dicts
    are dropped, leaving the name lists, when names are next read."""

    __slots__ = ("width", "entity_codes", "label_codes", "_names", "_numbers", "_fields")

    def __init__(self, width: int, rows: Iterable[tuple[str, ...]] = ()):
        if width not in (2, 3):
            raise ValueError(f"rows have 2 or 3 fields, not {width}")
        self.width = width
        self.entity_codes = array(_CODE)
        self.label_codes = array(_CODE)
        self._names: tuple[list[str], list[str]] = ([], [])
        self._numbers: tuple[dict[str, int], dict[str, int]] | None = None
        self._fields: list[str] = []  # fields of rows added but not yet coded
        self.extend(rows)

    @property
    def names(self) -> list[str]:
        """Entity names by code."""
        return self.settle()[0]

    @property
    def labels(self) -> list[str]:
        """Label names by code."""
        return self.settle()[1]

    def settle(self) -> tuple[list[str], list[str]]:
        """The entity and label name lists, every row added coded; the
        name-to-code dicts are dropped until more rows are coded."""
        if self._fields:
            self._code()
        if self._numbers is not None:  # dicts keep the order names were numbered in
            self._names = (list(self._numbers[0]), list(self._numbers[1]))
            self._numbers = None
        return self._names

    def add_fields(self, fields: list[str]) -> None:
        """Code whole rows given as one list of their fields, row after row."""
        self._fields += fields
        self._code()

    def extend(self, rows: Iterable[tuple[str, ...]]) -> None:
        """Add ``rows``; raises ``ValueError`` unless each has ``width`` fields."""
        rows = _rows(rows, self.width)
        for start in range(0, len(rows), _ROWS):
            self._fields += chain.from_iterable(rows[start : start + _ROWS])
            if len(self._fields) >= _ROWS * self.width:
                self._code()

    def _code(self) -> None:
        """Code the fields of the rows added since the last call."""
        fields, self._fields = self._fields, []
        if self._numbers is None:
            # name -> code, a name not seen before numbered next
            self._numbers = tuple(
                defaultdict(count(len(names)).__next__, zip(names, count())) for names in self._names
            )
        entity, label = self._numbers
        labels = fields[1 :: self.width]
        del fields[1 :: self.width]
        self.entity_codes.fromlist(list(map(entity.__getitem__, fields)))
        self.label_codes.fromlist(list(map(label.__getitem__, labels)))

    def __len__(self) -> int:
        return len(self.label_codes) + len(self._fields) // self.width

    def __getitem__(self, i: int | slice) -> tuple[str, ...] | list[tuple[str, ...]]:
        if isinstance(i, slice):
            return [self[j] for j in range(len(self))[i]]
        names, labels = self.settle()
        i = range(len(self))[i]  # IndexError past either end
        k = self.width - 1
        first, *rest = map(names.__getitem__, self.entity_codes[i * k : i * k + k])
        return (first, labels[self.label_codes[i]], *rest)

    def __iter__(self) -> Iterator[tuple[str, ...]]:
        names, labels = self.settle()
        ends = map(names.__getitem__, self.entity_codes)
        # one iterator over entity fields twice in a row of three: source, then target
        return zip(*[ends, map(labels.__getitem__, self.label_codes), ends][: self.width])


def _coded(rows: Iterable[tuple[str, ...]], width: int) -> CodedTable:
    """``rows`` as a :class:`CodedTable` of ``width``, every row coded: the
    table itself, or its rows coded into a new one."""
    if not (isinstance(rows, CodedTable) and rows.width == width):
        rows = CodedTable(width, rows)
    rows.settle()
    return rows


def _view(codes: array) -> np.ndarray:
    """A code column read in place as int32, not copied."""
    return np.frombuffer(codes, INDEX_DTYPE)


_PLACE = 4096  # positions placed at a time by _runs


def _runs(codes: np.ndarray, rank: np.ndarray) -> tuple[np.ndarray, list[tuple[int, int]]]:
    """Positions ordered stably by ``rank[codes]``, as int32, and the
    ``[start, end)`` run of each rank ``0 .. len(rank)-1`` in that order.

    A counting sort: the positions are placed a block at a time, each
    block's own stable sort giving their order within a rank, so beside the
    order returned only one small block's temporaries are made."""
    k = len(rank)
    sizes = np.zeros(k, np.intp)
    sizes[rank] = np.bincount(codes, minlength=k)
    ends = np.cumsum(sizes)
    free = ends - sizes  # the next place of each rank
    order = np.empty(len(codes), INDEX_DTYPE)
    steps = np.arange(_PLACE)
    for start in range(0, len(codes), _PLACE):
        block = rank[codes[start : start + _PLACE]]
        sort = np.argsort(block, kind="stable")
        counts = np.bincount(block, minlength=k)
        # the j-th position of the sorted block goes to its rank's next
        # place, plus j, less the block's positions of lower rank
        place = (free - (np.cumsum(counts) - counts))[block[sort]]
        place += steps[: len(block)]
        sort += start
        order[place] = sort
        free += counts
    ends = ends.tolist()
    return order, list(zip([0] + ends[:-1], ends))


_BLOCK = 1 << 16  # fields recoded at a time by _recode


def _recode(codes: np.ndarray, index: np.ndarray) -> None:
    """Rewrite each code ``c`` to ``index[c]`` in place, a block at a time,
    so no second full-length array is made."""
    for start in range(0, len(codes), _BLOCK):
        block = codes[start : start + _BLOCK]
        block[:] = index[block]


def _codes(column: Iterable[str], size: int) -> tuple[list[str], np.ndarray]:
    """The distinct names of a column of ``size`` fields, sorted, and each
    field's index among them.

    One dict pass numbers each name in the order it is first seen, one sort
    of the distinct names gives each number its sorted index, and the
    fields' numbers are rewritten to those indices in place, a block at a
    time, so no second full-length array is made. A file written in sorted
    order is nearly sorted in first-seen order too, which the sort is quick
    on."""
    seen: defaultdict[str, int] = defaultdict(count().__next__)  # name -> first-seen number
    codes = np.fromiter(map(seen.__getitem__, column), INDEX_DTYPE, size)
    names = sorted(seen)
    seen.update(zip(names, count()))  # same keys and order: values become sorted indices
    index = np.fromiter(seen.values(), INDEX_DTYPE, len(names))  # by first-seen number
    del seen
    _recode(codes, index)
    return names, codes


def _distinct(values: np.ndarray) -> np.ndarray:
    """The sorted distinct values, as ``np.unique`` gives them: one sort and
    a mask of each value unlike the one before it, in place of numpy's
    hash-based ``unique``, which is many times slower on int64 keys."""
    values = np.sort(values)
    first = np.ones(len(values), dtype=bool)
    np.not_equal(values[1:], values[:-1], out=first[1:])
    return values[first]


def _type_codes(
    entities: np.ndarray, types: np.ndarray, n: int, hierarchy: TypeHierarchy
) -> tuple[np.ndarray, list[frozenset[str]]]:
    """The assigned type set of each of the ``n`` entities as a code, in the
    narrowest dtype that holds them, and the distinct sets the codes number:
    one frozenset each, over the hierarchy's own strings, in the order of
    their sorted members (so the same at every hash seed). Type row ``k``
    gives entity ``entities[k]`` the type ``hierarchy.types[types[k]]``; an
    entity gets every distinct type of its rows, the root if it has none."""
    names = hierarchy.types  # sorted: type indices order sets as their names do
    k = len(names)
    # the distinct (entity, type) pairs, by entity, then type
    ent, typ = np.divmod(_distinct(entities.astype(np.int64) * k + types), k)
    sizes = np.bincount(ent, minlength=n)
    # the one type of an entity with at most one, the root's if it has none
    single = np.full(n, names.index(hierarchy.root))
    one = sizes[ent] == 1
    single[ent[one]] = typ[one]  # one pair per entity: no index repeats
    plain = sizes <= 1
    multi = np.flatnonzero(~plain)
    ends = np.cumsum(sizes)[multi].tolist()
    multi_sets = [tuple(typ[e - z : e].tolist()) for e, z in zip(ends, sizes[multi].tolist())]
    singles = _distinct(single[plain]).tolist()
    order = sorted({*zip(singles), *multi_sets})
    code = dict(zip(order, count()))
    dtype = np.min_scalar_type(max(len(order) - 1, 0))
    table = np.zeros(k, dtype)
    table[singles] = [code[t,] for t in singles]
    codes = np.empty(n, dtype)
    codes[plain] = table[single[plain]]
    codes[multi] = [code[s] for s in multi_sets]
    return codes, [frozenset(map(names.__getitem__, s)) for s in order]


def build_graph(
    triples: Iterable[tuple[str, str, str]],
    type_assignments: Iterable[tuple[str, str]] = (),
    hierarchy_edges: Iterable[tuple[str, str]] = (),
) -> tuple[HinGraph, TypeHierarchy]:
    """Build a graph plus hierarchy from edge and type listings; the graph's
    entities, edges and types do not change afterwards (only its step memo
    grows, see :class:`HinGraph`).

    Duplicate triples collapse to a single edge. Each relation's edges are
    stored once, in their forward direction; the graph makes the inverse
    direction the first time it is asked for. Entities without a type
    assignment get ``{Object}``.
    Rejects hierarchies with cycles and type assignments that reference types
    absent from the hierarchy.

    Edges and types are read as :class:`CodedTable` code columns, the form
    ``io.load_edges`` and ``io.load_types`` return; rows given as tuples are
    first coded into one, and a table is read, never changed. The distinct
    entity names of both tables are sorted once, and the code columns are
    recoded and gathered from them, so no name is read per row.

    The graph keeps its entity names as one :class:`NameTable`, and every
    relation and type name the graph and hierarchy keep is a new string cut
    from one too, so dropping the caller's rows or tables frees their memory.
    While the adjacency is built, what is held beside the caller's rows and
    the graph is the int32 entity code of every edge field, the sources and
    targets among them recoded and gathered into relation order in place:
    the codes of a table coded here from tuple rows, the rest of which is
    dropped, or a copy of a given table's.
    """
    hierarchy = TypeHierarchy(hierarchy_edges)
    edges = _coded(triples, 3)
    types = _coded(type_assignments, 2)

    # each type row's index in the hierarchy's sorted types, -1 if absent
    type_index = dict(zip(hierarchy.types, count()))
    labels = types.labels
    label_at = np.fromiter(map(type_index.get, labels, repeat(-1)), INDEX_DTYPE, len(labels))
    type_at = label_at[_view(types.label_codes)]
    if (type_at < 0).any():
        entity, type_id = types[int(np.argmax(type_at < 0))]
        raise UnknownTypeError(
            f"type assignment ({entity!r}, {type_id!r}) references a type absent from the hierarchy"
        )

    # each edge's place in relation order, as int32
    relation_names, rank = _codes(edges.labels, len(edges.labels))
    order, runs = _runs(_view(edges.label_codes), rank)

    # the sorted entity names of both tables; rank[c] is the index there of
    # edge entity code c, and rank[k + c] of type entity code c
    k = len(edges.names)
    names, rank = _codes(chain(edges.names, types.names), k + len(types.names))
    entities = NameTable("entity", names)
    n = len(entities)
    for name in relation_names:
        _check_identifier("relation", name)
    relations = NameTable("relation", relation_names)
    type_codes, type_sets = _type_codes(rank[k:][_view(types.entity_codes)], type_at, n, hierarchy)

    # each edge's source and target entity, recoded and gathered into
    # relation order in place, through one scratch column: in the edge codes
    # of a table made here, which is dropped but for them, else in a copy of
    # the caller's table's, which is read, never changed
    ends = _view(edges.entity_codes)
    if edges is triples:
        ends = ends.copy()
    del edges, types
    _recode(ends, rank)
    src, dst = ends.reshape(-1, 2).T
    src[:] = src[order]
    dst[:] = dst[order]
    del order
    adjacency = [_edges(src[a:b], dst[a:b], n) for a, b in runs]

    graph = HinGraph(entities, relations, adjacency, type_codes, type_sets, hierarchy)
    return graph, hierarchy
