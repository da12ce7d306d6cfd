"""Meta-path constrained random walks and path-instance counting.

The walk probability f(s, t | P) is computed by a forward pass: unit mass at
the source, split uniformly at each step over the neighbors reachable via the
step's relation that carry the next node type. Mass hitting a dead end is
dropped, never renormalized, so the result is a true walk probability and the
per-source masses sum to at most 1.

Every traversal, here and in the tree search, is one sparse product per
step, made by :func:`sparse_product`, with a directed relation's adjacency
restricted to the step's node types (:meth:`HinGraph.step_matrix`):
row-normalised it moves walk mass, as raw counts it counts path instances
(the commuting matrix), as booleans it marks reachable entities (meta-path
enumeration). A product storing more than ``NNZ_BUDGET`` entries raises
:class:`BudgetExceededError`. No product is made, and no matrix kept, whose
entries nobody reads: enumeration asks of a sequence only whether its last
hop meets the target type, so it tests a whole level with one boolean
product against a sparse entities x directions "has an edge into the
targets" matrix, stacks reachable sets only for the sequences that are
extended further, and tests each next-to-last reachable set against every
last hop as soon as it is made; the tree search multiplies only the
directions in which the node's entities have an edge, and keeps the walk
mass of only the nodes it pops, making a frontier node's mass again from its
parent when it is needed (:mod:`hinwalk.treesearch`). Commuting counts are
built inside their row x column block as two half-path products that grow
from the outside in, from the rows and from the columns, and meet in the
middle in one final product (:func:`block_counts`). :mod:`hinwalk.simsearch`
makes its count indexes from these blocks; a weighted index multiplies the
halves in float64, which is exact for counts below 2**53.
Walk mass has one route, :func:`walk_mass`, which walks all its sources at
once, one row each; one pair's probability is one entry of it.

Two deliberately independent routes exist for every quantity: the sparse
products here, and exhaustive depth-first enumeration of concrete path
instances (:func:`enumerate_path_instances`), which the test suite uses as
the oracle.
"""

from __future__ import annotations

import time
from typing import Iterable, Iterator, Sequence

import numpy as np
import scipy.sparse as sp

from .errors import BudgetExceededError, UnknownTypeError
from .graph import INDEX_DTYPE, DirectedRelation, HinGraph, StepMatrix
from .metapath import MetaPath, relations_only

NNZ_BUDGET = 50_000_000  # stored entries per sparse product, read at call time
DEFAULT_INSTANCE_CAP = 100_000


def sparse_product(left: sp.csr_array, right: sp.csr_array) -> sp.csr_array:
    """``left @ right``, refused once it stores more than ``NNZ_BUDGET`` entries."""
    return _within_budget(left @ right)


def _within_budget(matrix: sp.csr_array) -> sp.csr_array:
    if matrix.nnz > NNZ_BUDGET:
        raise BudgetExceededError(
            f"{matrix.nnz} entries of shape {matrix.shape} exceed nnz budget {NNZ_BUDGET}")
    return matrix


def _resolve(graph: HinGraph, metapath: MetaPath) -> list[tuple[int, bool]]:
    """Validate a meta-path against a graph; return interned relation steps."""
    for t in metapath.node_types:
        if t not in graph.hierarchy:
            raise UnknownTypeError(f"meta-path references unknown type {t!r}")
    return [(graph.relation_index(r.name), r.inverted) for r in metapath.relations]


def _step_matrices(graph: HinGraph, metapath: MetaPath) -> list[StepMatrix]:
    """Validate a meta-path; return its type-filtered steps."""
    types = metapath.node_types
    return [
        graph.step_matrix(ridx, inv, row_type, col_type)
        for (ridx, inv), row_type, col_type in zip(_resolve(graph, metapath), types, types[1:])
    ]


def walk_mass(graph: HinGraph, sources: Sequence[int], metapath: MetaPath) -> sp.csr_array:
    """Walk mass from each source (rows, in the given order) over entities.

    Every source must carry the meta-path's start type."""
    steps = _step_matrices(graph, metapath)
    start = metapath.source_type
    # int32 indices, as in the step matrices: scipy copies an int32 operand
    # to int64 on every product with an int64 one
    indices = np.asarray(sources, dtype=INDEX_DTYPE)
    carried = graph.carries_type(indices, start)
    if not carried.all():
        first = int(indices[np.argmin(carried)])  # the first source without it
        raise ValueError(f"source {graph.entity_name(first)!r} does not carry start type {start!r}")
    k = len(indices)
    indptr = np.arange(k + 1, dtype=INDEX_DTYPE)
    mass = sp.csr_array((np.ones(k), indices, indptr), shape=(k, graph.n_entities))
    for step in steps:
        mass = sparse_product(mass, step.walk)
    return mass


def enumerate_path_instances(
    graph: HinGraph,
    source: str,
    metapath: MetaPath,
    max_instances: int = DEFAULT_INSTANCE_CAP,
) -> list[list[str]]:
    """Every concrete entity path from ``source`` conforming to the meta-path.

    Exhaustive depth-first search honoring the per-node type constraints;
    serves as the brute-force oracle for the walk and the commuting matrix.
    Raises when more than ``max_instances`` instances exist.
    """
    steps = _resolve(graph, metapath)
    src = graph.entity_index(source)
    root, start = graph.hierarchy.root, metapath.node_types[0]
    if start != root and start not in graph.closed_types_idx(src):  # all carry the root
        raise ValueError(f"source {source!r} does not carry start type {start!r}")

    out: list[list[str]] = []
    path = [src]

    def descend(depth: int) -> None:
        if depth == len(steps):
            if len(out) >= max_instances:
                raise BudgetExceededError(
                    f"more than {max_instances} path instances from {source!r}"
                )
            out.append([graph.entity_name(e) for e in path])
            return
        ridx, inv = steps[depth]
        next_type = metapath.node_types[depth + 1]
        for w in graph.neighbors_idx(path[-1], ridx, inv):
            if next_type != root and next_type not in graph.closed_types_idx(w):
                continue
            path.append(w)
            descend(depth + 1)
            path.pop()

    descend(0)
    return out


def instance_probabilities(
    graph: HinGraph, instances: Iterable[Sequence[str]], metapath: MetaPath
) -> list[float]:
    """Probability of each concrete instance of one meta-path: the product of
    its uniform step choices. The meta-path is resolved once for all of them.

    Independent of the forward pass; each factor is 1 / (number of qualifying
    neighbors at that step), recomputed from the adjacency.
    """
    steps = list(zip(_resolve(graph, metapath), metapath.node_types[1:]))
    root = graph.hierarchy.root
    probs = []
    for instance in instances:
        prob = 1.0
        for depth, ((ridx, inv), next_type) in enumerate(steps):
            e = graph.entity_index(instance[depth])
            neigh = graph.neighbors_idx(e, ridx, inv)
            if next_type != root:
                neigh = [w for w in neigh if next_type in graph.closed_types_idx(w)]
            prob /= len(neigh)
        probs.append(prob)
    return probs


def instance_probability(graph: HinGraph, instance: Sequence[str], metapath: MetaPath) -> float:
    """Probability of one concrete instance (see :func:`instance_probabilities`)."""
    return instance_probabilities(graph, [instance], metapath)[0]


def block_counts(
    graph: HinGraph,
    metapath: MetaPath,
    rows: np.ndarray,
    cols: np.ndarray,
    dtype: type = np.int64,
) -> sp.csr_array:
    """Path-instance counts from the ``rows`` entities to the ``cols`` entities
    (sorted, distinct entity indices, as :meth:`HinGraph.type_members`
    returns them).

    Two half-path products grow from the outside in: the first step is cut to
    the rows and the left half multiplied left to right, the last step is cut
    to the columns and the right half multiplied right to left, so no product
    spans all entities on both sides. The halves are cast to ``dtype`` and
    meet in one final product. Every product, and the cut that stands for a
    one-step path, must stay within ``NNZ_BUDGET`` stored entries.
    """
    n = graph.n_entities
    counts = [step.counts for step in _step_matrices(graph, metapath)]
    if not counts:  # zero steps: each start-type member reaches itself once
        idx = graph.type_members(metapath.source_type)
        counts = [sp.csr_array((np.ones(len(idx), dtype=np.int64), (idx, idx)), shape=(n, n))]
    mid = (len(counts) + 1) // 2
    # sorted, distinct rows (cols) that number n are all entities: that cut
    # would only copy the step, so it is skipped
    left = counts[0] if len(rows) == n else counts[0][rows]
    for step in counts[1:mid]:
        left = sparse_product(left, step)
    if mid == len(counts):  # one step: the cut first step is the whole path
        block = left if len(cols) == n else left[:, cols]
        # the result never shares the graph's cached step
        return _within_budget(block.astype(dtype, copy=block is counts[0]))
    right = counts[-1] if len(cols) == n else counts[-1][:, cols]
    for step in reversed(counts[mid:-1]):
        right = sparse_product(step, right)
    # rebound, so the halves in their first dtype are freed before the product
    left = left.astype(dtype, copy=False)
    right = right.astype(dtype, copy=False)
    return sparse_product(left, right)


def enumerate_metapaths(
    graph: HinGraph,
    source_type: str,
    target_type: str,
    max_len: int,
    deadline: float | None = None,
) -> list[MetaPath]:
    """All relation sequences of length 1..max_len realized by some instance.

    Breadth-first sweep over relation-sequence prefixes: a level is a boolean
    sparse matrix with one row per sequence, marking the entities reachable
    along it from any source-type entity. A sequence extended by a directed
    relation qualifies when its reachable set holds an entity with an edge of
    that relation into the target-type entities; one boolean product of the
    level with a sparse entities x directions "edge into the targets" matrix
    tests every extension at once. One boolean product per directed relation
    builds the next level's reachable sets; at the next-to-last level each of
    these is tested against every last hop as soon as it is made, so that
    level is never stacked, and the last level is never built. Results are
    ordered by length, then by relation sequence; node types are left at the
    wildcard root type, and the paths share one :class:`DirectedRelation`
    per direction.
    """
    n = graph.n_entities
    start = graph.type_members(source_type)
    is_target = np.zeros(n, dtype=bool)
    is_target[graph.type_members(target_type)] = True
    directions = graph.directions
    if max_len <= 0 or not len(start) or not is_target.any() or not directions:
        return []

    root = graph.hierarchy.root
    edges = [graph.step_matrix(r, inv, root, root).edges for r, inv in directions]
    # entities x directions: the entities with an edge into the targets, one
    # column per direction (a boolean product sums with or)
    hit_rows = [np.flatnonzero(adj @ is_target).astype(INDEX_DTYPE) for adj in edges]
    indptr = np.cumsum([0] + [len(rows) for rows in hit_rows], dtype=INDEX_DTYPE)
    into_targets = sp.csc_array(
        (np.ones(indptr[-1], dtype=bool), np.concatenate(hit_rows), indptr),
        shape=(n, len(directions)),
    ).tocsr()

    def last_hops(reach: sp.csr_array) -> Iterator[tuple[int, tuple[int, bool]]]:
        """(row, direction) of every row of ``reach`` that reaches an entity
        with an edge of that direction into the targets."""
        hits = sparse_product(reach, into_targets).tocoo()
        return zip(hits.row.tolist(), map(directions.__getitem__, hits.col.tolist()))

    def check_deadline() -> None:
        if deadline is not None and time.monotonic() > deadline:
            raise BudgetExceededError("meta-path enumeration deadline exceeded")

    found: list[tuple[tuple[int, bool], ...]] = []
    seqs: list[tuple[tuple[int, bool], ...]] = [()]
    reach = sp.csr_array((np.ones(len(start), dtype=bool), start, [0, len(start)]), shape=(1, n))
    for length in range(1, max_len + 1):
        check_deadline()
        found.extend(seqs[i] + (d,) for i, d in last_hops(reach))
        if length == max_len:
            break
        next_to_last = length == max_len - 1
        next_seqs: list[tuple[tuple[int, bool], ...]] = []
        blocks = []
        for d, adj in zip(directions, edges):
            check_deadline()
            following = sparse_product(reach, adj)  # boolean stays boolean in scipy
            if next_to_last:
                found.extend(seqs[i] + (d, last) for i, last in last_hops(following))
                continue
            live = np.diff(following.indptr) > 0
            if live.any():
                next_seqs.extend(seq + (d,) for seq, alive in zip(seqs, live) if alive)
                blocks.append(following[live])
        if not next_seqs:
            break
        seqs = next_seqs
        reach = sp.vstack(blocks, format="csr")

    found.sort(key=lambda seq: (len(seq), seq))
    relation = {d: DirectedRelation(graph.relations[d[0]], d[1]) for d in directions}
    return [relations_only(tuple(map(relation.__getitem__, seq))) for seq in found]
