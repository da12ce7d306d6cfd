"""Top-k entity similarity from weighted commuting matrices."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
import scipy.sparse as sp

from .errors import UnknownEntityError
from .graph import HinGraph, check_sorted, position
from .metapath import MetaPath
from .walks import block_counts


@dataclass
class SimilarityIndex:
    """Weighted sum of per-meta-path instance counts, query-ready.

    ``row_entities`` and ``col_entities`` are strictly ascending."""

    metapaths: tuple[MetaPath, ...]
    theta: np.ndarray
    row_entities: tuple[str, ...]
    col_entities: tuple[str, ...]
    matrix: sp.csr_array  # float64, aligned to row/col entity order

    def __post_init__(self) -> None:
        check_sorted(self.row_entities, self.col_entities)

    def score(self, row: str, col: str) -> float:
        i = position(self.row_entities, row)
        j = position(self.col_entities, col)
        if i is None or j is None:
            raise UnknownEntityError(f"({row!r}, {col!r}) outside index entities")
        return float(self.matrix[i, j])


def build_index(
    graph: HinGraph,
    metapaths: Sequence[MetaPath],
    theta: Sequence[float] | None = None,
) -> SimilarityIndex:
    """Combine commuting matrices with weights theta (uniform 1/M by default).

    All meta-paths must agree on endpoint types up to ancestor widening; the
    index rows/cols are the union of the per-path start/end type members.
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

    first = metapaths[0]
    for mp in metapaths[1:]:
        if not graph.hierarchy.compatible(first.source_type, mp.source_type):
            raise ValueError(
                f"source types {first.source_type!r} and {mp.source_type!r} are incompatible"
            )
        if not graph.hierarchy.compatible(first.target_type, mp.target_type):
            raise ValueError(
                f"target types {first.target_type!r} and {mp.target_type!r} are incompatible"
            )

    rows = np.unique(np.concatenate([graph.type_members(mp.source_type) for mp in metapaths]))
    cols = np.unique(np.concatenate([graph.type_members(mp.target_type) for mp in metapaths]))
    # float64 halves: counts below 2**53 multiply and add exactly, so scaling
    # in place matches scaling an int64 copy without keeping one
    combined: sp.csr_array | None = None
    for w, mp in zip(weights, metapaths):
        counts = block_counts(graph, mp, rows, cols, dtype=np.float64)
        counts.data *= w
        combined = counts if combined is None else combined + counts
    combined.eliminate_zeros()
    combined.sort_indices()

    names = graph.entities
    return SimilarityIndex(
        metapaths=metapaths,
        theta=weights,
        row_entities=tuple(names[i] for i in rows.tolist()),
        col_entities=tuple(names[j] for j in cols.tolist()),
        matrix=combined,
    )


def top_k(index: SimilarityIndex, query: str, k: int) -> list[tuple[str, float]]:
    """Ranked neighbors of the query row: stored nonzero scores, query excluded.

    Descending score, ties by entity id ascending, truncated to k. Entities
    with zero similarity are never returned.
    """
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    row = position(index.row_entities, query)
    if row is None:
        raise UnknownEntityError(f"query {query!r} is not a row entity of the index")
    start, end = index.matrix.indptr[row], index.matrix.indptr[row + 1]
    cols = index.matrix.indices[start:end]
    data = index.matrix.data[start:end]
    ranked = [
        (index.col_entities[c], float(v))
        for c, v in zip(cols, data)
        if v != 0.0 and index.col_entities[c] != query
    ]
    ranked.sort(key=lambda item: (-item[1], item[0]))
    return ranked[:k]
