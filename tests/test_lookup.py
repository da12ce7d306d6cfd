"""Name lookups by binary search in sorted names, checked against dicts
built from the same names."""

import re

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from hinwalk import (
    CommutingMatrix,
    SimilarityIndex,
    UnknownEntityError,
    UnknownRelationError,
    build_graph,
    build_index,
    commuting_matrix,
    parse_metapath,
    top_k,
)
from hinwalk.graph import position

# prefixes, case variants and non-ASCII names all come from this alphabet
NAME = st.text(alphabet="aAbB_é中", min_size=1, max_size=3)
PATH = parse_metapath("T -r-> Object")


def _probes(names, extra):
    """The names, plus absent names before the first, between two names and
    after the last, prefixes, extensions and case variants of each."""
    ordered = sorted(names)
    probes = {*names, *extra, "", " ", ordered[0][:-1], ordered[-1] + "a", "\U0010ffff"}
    for name in names:
        probes.update({name[:-1], name + "a", name + "\x00", name.swapcase(), name.upper()})
    return sorted(probes)


def _expect(error, message, call, *args):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call(*args)


@given(
    names=st.lists(NAME, min_size=1, max_size=8, unique=True),
    extra=st.lists(NAME, max_size=6),
    typed=st.lists(st.booleans(), min_size=8, max_size=8),
)
@settings(max_examples=100, deadline=None)
def test_lookups_match_a_dict(names, extra, typed):
    # a cycle of r-edges over the names, a self-loop on the first for each
    # name as a relation, and the T-typed names as the index rows
    triples = [(a, "r", b) for a, b in zip(names, names[1:] + names[:1])]
    triples += [(names[0], name, names[0]) for name in names]
    types = [(name, "T") for name, keep in zip(names, typed) if keep] or [(names[0], "T")]
    graph, _ = build_graph(triples, types, [("T", "Object")])
    matrix = commuting_matrix(graph, PATH)
    index = build_index(graph, [PATH])

    def positions(seq):
        return {name: i for i, name in enumerate(seq)}

    entity_at, relation_at = positions(graph.entities), positions(graph.relations)
    rows, cols = positions(matrix.row_entities), positions(matrix.col_entities)
    assert (rows, cols) == (positions(index.row_entities), positions(index.col_entities))
    dense_counts, dense_scores = matrix.matrix.toarray(), index.matrix.toarray()
    probes = _probes(names, extra)
    row, col = matrix.row_entities[0], matrix.col_entities[0]
    for p in probes:
        if p in entity_at:
            assert graph.entity_index(p) == entity_at[p]
        else:
            _expect(UnknownEntityError, f"unknown entity {p!r}", graph.entity_index, p)
        if p in relation_at:
            assert graph.relation_index(p) == relation_at[p]
        else:
            _expect(UnknownRelationError, f"unknown relation {p!r}", graph.relation_index, p)

        # the probe as the row, then as the column, of a cell
        for r, c in ((p, col), (row, p)):
            if r in rows and c in cols:
                assert matrix.count(r, c) == dense_counts[rows[r], cols[c]]
                assert index.score(r, c) == dense_scores[rows[r], cols[c]]
            else:
                outside = f"({r!r}, {c!r}) outside"
                _expect(UnknownEntityError, f"{outside} matrix entities", matrix.count, r, c)
                _expect(UnknownEntityError, f"{outside} index entities", index.score, r, c)

        if p in rows:
            ranked = [
                (c, float(v))
                for c, v in zip(index.col_entities, dense_scores[rows[p]])
                if v != 0.0 and c != p
            ]
            ranked.sort(key=lambda item: (-item[1], item[0]))
            assert top_k(index, p, 3) == ranked[:3]
        else:
            message = f"query {p!r} is not a row entity of the index"
            _expect(UnknownEntityError, message, top_k, index, p, 3)
    # a lookup caches nothing on the matrix or the index
    matrix.count(row, col)
    top_k(index, row, 1)
    assert set(vars(matrix)) == {"metapath", "row_entities", "col_entities", "matrix"}
    assert set(vars(index)) == {"metapaths", "theta", "row_entities", "col_entities", "matrix"}


def test_non_string_names_are_absent(g1):
    graph, _ = g1
    assert position(graph.entities, None) is None
    _expect(UnknownEntityError, "unknown entity 3", graph.entity_index, 3)
    _expect(UnknownRelationError, "unknown relation None", graph.relation_index, None)


def test_built_graph_keeps_no_name_dict():
    names = [f"e{i:03d}" for i in range(120)]
    triples = [(a, f"r{i % 3}", b) for i, (a, b) in enumerate(zip(names, names[1:]))]
    graph, _ = build_graph(triples, [(names[0], "T")], [("T", "Object")])
    n = graph.n_entities
    assert n == 120
    assert [k for k, v in vars(graph).items() if isinstance(v, dict) and len(v) >= n] == []


@pytest.mark.parametrize(
    "rows, cols, message",
    [
        (("b", "a"), ("a",), "row_entities must be strictly ascending"),
        (("a", "a"), ("a",), "row_entities must be strictly ascending"),
        (("a",), ("a", "B"), "col_entities must be strictly ascending"),
    ],
)
def test_index_names_must_be_ascending(rows, cols, message):
    matrix = sp.csr_array((len(rows), len(cols)), dtype=np.int64)
    with pytest.raises(ValueError, match=message):
        CommutingMatrix(PATH, rows, cols, matrix)
    with pytest.raises(ValueError, match=message):
        SimilarityIndex((PATH,), np.ones(1), rows, cols, matrix.astype(float))
