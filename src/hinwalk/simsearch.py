"""Count indexes over entity indices: commuting matrices and top-k similarity.

A :class:`SimilarityIndex` is one CSR matrix of meta-path instance counts
(:func:`commuting_matrix`, int64) or of their theta-weighted sum
(:func:`build_index`, float64) between the members of the start and end
types. Its rows and columns are sorted int32 entity indices, and index order
is name order, so no name is kept: a cell or a query row is found by the
name's entity index and a binary search in the sorted indices, and
:func:`top_k` cuts from the graph only the names it returns.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
import scipy.sparse as sp

from .errors import UnknownEntityError
from .graph import HinGraph, position
from .metapath import MetaPath
from .walks import block_counts


@dataclass
class SimilarityIndex:
    """Path-instance counts, or their weighted sum, between entity indices.

    ``rows`` and ``cols`` are sorted, distinct int32 entity indices of
    ``graph``; ``matrix`` is aligned to them."""

    graph: HinGraph
    metapaths: tuple[MetaPath, ...]
    theta: np.ndarray
    rows: np.ndarray
    cols: np.ndarray
    matrix: sp.csr_array  # int64 counts or float64 weighted sums

    def _find(self, members: np.ndarray, name: str) -> int | None:
        """Position of the entity ``name`` in ``members``, or ``None``."""
        e = position(self.graph.entities, name)
        if e is None:
            return None
        i = int(np.searchsorted(members, e))
        return i if i < len(members) and members[i] == e else None

    def score(self, row: str, col: str) -> int | float:
        """The cell's value: an int for counts, a float for weighted sums."""
        i, j = self._find(self.rows, row), self._find(self.cols, col)
        if i is None or j is None:
            raise UnknownEntityError(f"({row!r}, {col!r}) outside index entities")
        return self.matrix[i, j].item()

    # Read-only views kept only for perfbench/worker.py; they go when the
    # benchmark reads `score` and samples cells by entity index (ROADMAP.md,
    # item 2).
    count = score

    @property
    def row_entities(self) -> tuple[str, ...]:
        """Row names, cut from the graph on every access (benchmark worker only)."""
        names = self.graph.entities
        return tuple(names[i] for i in self.rows.tolist())

    @property
    def col_entities(self) -> tuple[str, ...]:
        """Column names, cut from the graph on every access (benchmark worker only)."""
        names = self.graph.entities
        return tuple(names[j] for j in self.cols.tolist())


def commuting_matrix(graph: HinGraph, metapath: MetaPath) -> SimilarityIndex:
    """Path-instance counts (int64) from the start-type to the end-type
    members, as an index with theta ``(1.0,)``."""
    rows = graph.type_members(metapath.source_type)
    cols = graph.type_members(metapath.target_type)
    counts = block_counts(graph, metapath, rows, cols)
    return SimilarityIndex(graph, (metapath,), np.ones(1), rows, cols, counts)


def build_index(
    graph: HinGraph,
    metapaths: Sequence[MetaPath],
    theta: Sequence[float] | None = None,
) -> SimilarityIndex:
    """Combine commuting matrices with weights theta (uniform 1/M by default).

    All meta-paths must agree on endpoint types up to ancestor widening; the
    index rows/cols are the union of the per-path start/end type members.
    Raises ``ValueError`` when a weighted sum is not finite.
    """
    metapaths = tuple(metapaths)
    if not metapaths:
        raise ValueError("similarity index needs at least one meta-path")
    if theta is None:
        weights = np.full(len(metapaths), 1.0 / len(metapaths))
    else:
        weights = np.asarray(theta, dtype=float)
        if weights.shape != (len(metapaths),):
            raise ValueError(f"{len(metapaths)} meta-paths but theta of shape {weights.shape}")
        if not np.all(np.isfinite(weights)):
            raise ValueError(f"theta must be finite, got {weights.tolist()}")

    for mp in metapaths[1:]:
        for end, at in (("source", 0), ("target", -1)):
            first, other = metapaths[0].node_types[at], mp.node_types[at]
            if not graph.hierarchy.compatible(first, other):
                raise ValueError(f"{end} types {first!r} and {other!r} are incompatible")

    rows = np.unique(np.concatenate([graph.type_members(mp.source_type) for mp in metapaths]))
    cols = np.unique(np.concatenate([graph.type_members(mp.target_type) for mp in metapaths]))
    # float64 halves: counts below 2**53 multiply and add exactly, so scaling
    # in place matches scaling an int64 copy without keeping one
    combined: sp.csr_array | None = None
    for w, mp in zip(weights, metapaths):
        counts = block_counts(graph, mp, rows, cols, dtype=np.float64)
        with np.errstate(over="ignore"):  # an overflow is refused below
            counts.data *= w
        combined = counts if combined is None else combined + counts
    # min and max are NaN when any entry is, and neither allocates
    data = combined.data
    if data.size and not (np.isfinite(data.min()) and np.isfinite(data.max())):
        raise ValueError(f"weighted scores are not finite with theta {weights.tolist()}")
    combined.eliminate_zeros()
    combined.sort_indices()
    return SimilarityIndex(graph, metapaths, weights, rows, cols, combined)


def top_k(index: SimilarityIndex, query: str, k: int) -> list[tuple[str, float]]:
    """Ranked neighbors of the query row: stored nonzero scores, query excluded.

    Descending score, ties by entity id ascending, truncated to k. Entities
    with zero similarity are never returned.
    """
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    row = index._find(index.rows, query)
    if row is None:
        raise UnknownEntityError(f"query {query!r} is not a row entity of the index")
    m = index.matrix
    start, end = m.indptr[row], m.indptr[row + 1]
    entities = index.cols[m.indices[start:end]]
    scores = m.data[start:end]
    keep = (scores != 0) & (entities != index.rows[row])
    entities, scores = entities[keep], scores[keep]
    # entity index order is name order, so this is (-score, name) order
    top = np.lexsort((entities, -scores))[:k]
    names = index.graph.entities
    return [(names[e], float(s)) for e, s in zip(entities[top].tolist(), scores[top].tolist())]
