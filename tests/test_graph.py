import random
import re
import sys
import tracemalloc
from unittest import mock
from collections.abc import Sequence

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from hinwalk import (
    DirectedRelation,
    HierarchyError,
    TypeHierarchy,
    UnknownEntityError,
    UnknownTypeError,
    build_graph,
    commuting_matrix,
    parse_metapath,
)
from hinwalk import io as hio
from hinwalk.graph import _ID, CodedTable, NameTable, _check_identifier, _codes, _distinct, _edges, position
from conftest import G1_HIERARCHY, G1_TRIPLES, G1_TYPES

from corpus import random_typed_graph

FOUND = DirectedRelation("found")
FOUND_INV = DirectedRelation("found", inverted=True)


def lca_oracle(hierarchy, a, b):
    """Exhaustive intersection of ancestor sets, deepest wins, then smallest id."""
    common = hierarchy.ancestors(a) & hierarchy.ancestors(b)
    best = sorted(common, key=lambda t: (-hierarchy.depth(t), t))
    return best[0]


def brute_force_lca(edges, types):
    """The set rule from the (child, parent) rows alone: every type that is
    an ancestor of all of ``types`` (by walking parent rows up), the deepest
    by longest parent chain from the root, then the smallest id."""
    parents = {}
    for child, parent in edges:
        parents.setdefault(child, set()).add(parent)

    def ancestors(t):
        return {t}.union(*(ancestors(p) for p in parents.get(t, ())))

    def depth(t):
        return max((1 + depth(p) for p in parents.get(t, ())), default=0)

    common = set.intersection(*map(ancestors, types))
    return min(common, key=lambda t: (-depth(t), t))


def multi_parent_dag(rng):
    """8-12 types, each with 1-3 parents drawn from the root and earlier types."""
    names = [f"T{i}" for i in range(rng.randint(8, 12))]
    rng.shuffle(names)  # so that name order is not creation order
    edges = []
    for i, t in enumerate(names):
        choices = ["Object"] + names[:i]
        edges += [(t, p) for p in rng.sample(choices, min(rng.randint(1, 3), len(choices)))]
    return names, edges


# a DAG where Q is the deepest common ancestor of A, B and C, while X, the
# deepest of A and B, is no ancestor of C: folding lca over pairs through X
# would end at Object
DIAMOND = [("P", "Object"), ("Q", "Object"), ("X", "P"), ("A", "X"), ("A", "Q"), ("B", "X"),
           ("B", "Q"), ("C", "Q")]


def multi_typed_dag_graph(seed):
    """A random graph over a multi-parent DAG hierarchy (see
    :func:`multi_parent_dag`), plus a type ``Unused`` that no entity carries;
    each entity has zero to three assigned types. Returns the graph, its
    hierarchy, the type rows and the hierarchy rows."""
    rng = random.Random(seed)
    names, edges = multi_parent_dag(rng)
    edges.append(("Unused", "Object"))
    entities = [f"e{i:02d}" for i in range(rng.randint(6, 30))]
    assignments = [(e, t) for e in entities for t in rng.sample(names, rng.choice([0, 1, 1, 2, 3]))]
    triples = [
        (rng.choice(entities), f"r{rng.randint(0, 2)}", rng.choice(entities))
        for _ in range(rng.randint(1, 3 * len(entities)))
    ]
    graph, hierarchy = build_graph(triples, assignments, edges)
    return graph, hierarchy, assignments, edges


def name_level_closure(graph, assignments, edges):
    """Each entity index's closed types, from the rows alone: its type rows
    (the root if it has none) and every type reached by walking parent rows
    up from them."""
    parents = {}
    for child, parent in edges:
        parents.setdefault(child, set()).add(parent)

    def ancestors(t):
        return {t}.union(*(ancestors(p) for p in parents.get(t, ())))

    assigned = {}
    for e, t in assignments:
        assigned.setdefault(e, set()).add(t)
    return [set().union(*map(ancestors, assigned.get(e, {"Object"}))) for e in graph.entities]


def _state(graph, hierarchy):
    """Everything a built graph holds, as comparable values."""
    root = hierarchy.root
    arrays = [
        (a.dtype.str, a.tobytes())
        for d in graph.directions
        for m in [graph.step_matrix(*d, root, root).edges]
        for a in (m.indptr, m.indices, m.data)
    ]
    members = {t: (a.dtype.str, a.tolist()) for t in hierarchy.types for a in [graph.type_members(t)]}
    types = [(graph.assigned_types(e), graph.entity_types(e)) for e in graph.entities]
    return tuple(graph.entities), graph.relations, hierarchy.types, types, members, arrays


def _reference_edges(triples, assignments):
    """Every direction's edge matrix, in ``HinGraph.directions`` order, from
    one ``_edges`` call per relation on the endpoints of that relation's run
    in an int64 stable argsort of the rows' relation indices."""
    names = sorted({e for s, _, t in triples for e in (s, t)} | {e for e, _ in assignments})
    relations = sorted({r for _, r, _ in triples})

    def indices(column, within):
        return np.array([within.index(name) for name in column], dtype=np.int32)

    src = indices([s for s, _, _ in triples], names)
    dst = indices([t for _, _, t in triples], names)
    rel = indices([r for _, r, _ in triples], relations)
    order = np.argsort(rel, kind="stable").astype(np.int64)
    edges = []
    for r in range(len(relations)):
        run = order[rel[order] == r]
        s, t = src[run], dst[run]
        edges += [_edges(s, t, len(names)), _edges(t, s, len(names))]
    return edges


def assert_same_csr(a, b):
    """Equal shape, and equal CSR arrays in dtype and value."""
    assert a.shape == b.shape
    for x, y in ((a.indptr, b.indptr), (a.indices, b.indices), (a.data, b.data)):
        assert x.dtype == y.dtype
        assert np.array_equal(x, y)
    assert a.has_canonical_format == b.has_canonical_format


class TestBuildGraph:
    def test_g1_counts(self, g1):
        graph, _ = g1
        assert len(graph.entities) == 3
        assert graph.relations == ("found",)
        assert len(graph.out_neighbors("p1", FOUND)) == 1
        assert len(graph.out_neighbors("g", FOUND_INV)) == 2

    def test_empty_inputs(self):
        graph, hierarchy = build_graph([], [], [])
        assert tuple(graph.entities) == ()
        assert hierarchy.types == ("Object",)

    def test_duplicate_triples_collapse(self, g1):
        graph, _ = g1
        dup, _ = build_graph(G1_TRIPLES + [("p1", "found", "g")], G1_TYPES, G1_HIERARCHY)
        assert tuple(dup.entities) == tuple(graph.entities)
        assert dup.out_neighbors("g", FOUND_INV) == graph.out_neighbors("g", FOUND_INV)
        one_step = commuting_matrix(dup, parse_metapath("Person -found-> Company"))
        assert one_step.score("p1", "g") == 1

    def test_hierarchy_cycle_rejected(self):
        with pytest.raises(HierarchyError, match="cycle"):
            build_graph([], [], [("A", "B"), ("B", "A")])

    def test_hierarchy_self_loop_rejected(self):
        with pytest.raises(HierarchyError, match="cycle in hierarchy: A -> A"):
            build_graph([], [], [("A", "Object"), ("A", "A")])

    def test_dangling_type_rejected(self):
        with pytest.raises(UnknownTypeError):
            build_graph([("a", "r", "b")], [("a", "Ghost")], [])

    def test_root_cannot_have_parent(self):
        with pytest.raises(HierarchyError):
            build_graph([], [], [("Object", "Thing")])

    def test_unreachable_type_rejected(self):
        # B appears only as a parent and has no route to the root
        with pytest.raises(HierarchyError):
            build_graph([], [], [("A", "B")])

    def test_untyped_entity_defaults_to_root(self):
        graph, _ = build_graph([("a", "r", "b")], [], [])
        assert graph.entity_types("a") == frozenset({"Object"})

    @pytest.mark.parametrize("bad", [("a", "r"), ("a", "r", "b", "c")])
    def test_triple_of_wrong_length_rejected(self, bad):
        with pytest.raises(ValueError):
            build_graph([("a", "r", "b"), bad], [], [])
        with pytest.raises(ValueError):
            build_graph(iter([("a", "r", "b"), bad]), [], [])

    @pytest.mark.parametrize("bad", [("a",), ("a", "T", "U")])
    def test_assignment_of_wrong_length_rejected(self, bad):
        with pytest.raises(ValueError):
            build_graph([("a", "r", "b")], [("b", "T"), bad], [("T", "Object")])

    @pytest.mark.parametrize("seed", range(5))
    def test_generator_input_equals_list_input(self, seed):
        rng = random.Random(seed)
        entities = [f"e{i}" for i in range(12)]
        triples = [
            (rng.choice(entities), f"r{rng.randint(0, 3)}", rng.choice(entities))
            for _ in range(30)
        ]
        types = [(e, rng.choice(["T", "U"])) for e in entities if rng.random() < 0.7]
        hier = [("T", "Object"), ("U", "Object")]
        listed, _ = build_graph(triples, types, hier)
        generated, _ = build_graph((t for t in triples), (t for t in types), iter(hier))
        assert tuple(generated.entities) == tuple(listed.entities)
        assert generated.relations == listed.relations
        for e in listed.entities:
            assert generated.assigned_types(e) == listed.assigned_types(e)
        root = listed.hierarchy.root
        for d in listed.directions:
            a = listed.step_matrix(*d, root, root).edges
            b = generated.step_matrix(*d, root, root).edges
            assert np.array_equal(a.indptr, b.indptr)
            assert np.array_equal(a.indices, b.indices)

    # e1 .. e5 have edges; x1 and x2 appear only in type rows
    @example(triples=[], assignments=[])
    @example(  # one relation, with a duplicate and a self-loop
        triples=[("e2", "ra", "e1"), ("e1", "ra", "e2"), ("e2", "ra", "e1"), ("e3", "ra", "e3")],
        assignments=[("x1", "TT"), ("e2", "UU")],
    )
    @example(  # many relations with one edge each, in no sorted order
        triples=[(f"e{i % 5 + 1}", f"r{7 * i % 12:02d}", f"e{(i + 2) % 5 + 1}") for i in range(12)],
        assignments=[("x2", "UU")],
    )
    @example(  # rows in reverse sorted order
        triples=sorted([(f"e{i % 5 + 1}", f"r{i % 3:02d}", f"e{i % 4 + 1}") for i in range(20)])[::-1],
        assignments=[],
    )
    @given(
        triples=st.lists(
            st.tuples(
                st.sampled_from(["e3", "e1", "e5", "e2", "e4"]),
                st.sampled_from([f"r{i:02d}" for i in (7, 2, 11, 0, 5, 9, 1, 4, 10, 3, 8, 6)]),
                st.sampled_from(["e3", "e1", "e5", "e2", "e4"]),
            ),
            max_size=40,
        ),
        assignments=st.lists(
            st.tuples(st.sampled_from(["e1", "e4", "x1", "x2"]), st.sampled_from(["TT", "UU"])),
            max_size=6,
        ),
    )
    @settings(max_examples=100, deadline=None)
    def test_adjacency_equals_reference(self, triples, assignments):
        graph, hierarchy = build_graph(triples, assignments, [("TT", "Object"), ("UU", "Object")])
        root = hierarchy.root
        got = [graph.step_matrix(*d, root, root).edges for d in graph.directions]
        want = _reference_edges(triples, assignments)
        assert len(got) == len(want) == 2 * len({r for _, r, _ in triples})
        for a, b in zip(got, want):
            assert_same_csr(a, b)

    def test_build_holds_one_copy_of_the_endpoints(self):
        # 60k random triples over 2,000 entities and 30 relations, so the 30
        # forward CSRs are built last and set the peak: with the int32 entity
        # code of every field beside the graph, the sources and targets among
        # them recoded and gathered into relation order in place, the peak
        # above what the graph keeps traces about 0.52 MB; with the
        # relation-ordered endpoints gathered into new arrays beside the
        # codes, about 1.0 MB. Rows given as tuples are coded into a table
        # that is dropped but for its entity codes, and tables coded before
        # the build are read in place, so both keep the bound
        rng = random.Random(0)
        names = [f"e{i:05d}" for i in range(2_000)]
        relations = [f"r{i:02d}" for i in range(30)]
        triples = [(rng.choice(names), rng.choice(relations), rng.choice(names)) for _ in range(60_000)]
        types = [(e, "TT") for e in names[::2]]
        for rows in ((triples, types), (CodedTable(3, triples), CodedTable(2, types))):
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                graph, _ = build_graph(*rows, [("TT", "Object")])
                kept, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert graph.n_entities == 2_000 and len(graph.directions) == 60
            root = graph.hierarchy.root
            forward = [graph.step_matrix(r, False, root, root).edges for r in range(30)]
            assert kept - before >= sum(a.nbytes for m in forward for a in (m.indptr, m.indices, m.data))
            assert peak - kept < 12 * len(triples)

    @pytest.mark.parametrize("seed", range(5))
    def test_inverse_step_is_made_on_first_use(self, seed):
        rng = random.Random(seed)
        names = [f"e{i}" for i in range(8)]
        triples = [(rng.choice(names), f"r{rng.randint(0, 2)}", rng.choice(names)) for _ in range(20)]
        graph, hierarchy = build_graph(triples)
        root, n = hierarchy.root, graph.n_entities
        assert not [key for key in graph._steps if key[1]]  # only forward steps are built
        for r, relation in enumerate(graph.relations):
            key = (r, True, root, root)
            if r % 2:
                graph.neighbors_idx(0, r, True)
            else:
                graph.step_matrix(*key)
            inverse = graph._steps[key]
            assert graph.step_matrix(*key) is inverse
            graph.neighbors_idx(1, r, True)
            assert graph._steps[key] is inverse
            ends = [(s, t) for s, rel, t in triples if rel == relation]
            s, t = (np.array([graph.entity_index(e) for e in col], dtype=np.int32) for col in zip(*ends))
            assert_same_csr(inverse.edges, _edges(t, s, n))

    def test_multi_typed_entities_share_type_sets(self):
        graph, _ = build_graph(
            [("a", "r", "b"), ("c", "r", "d")],
            [("a", "T"), ("a", "U"), ("b", "U"), ("b", "T"), ("b", "T"), ("c", "T"), ("d", "U")],
            [("T", "Object"), ("U", "Object")],
        )
        assert graph.assigned_types("a") == frozenset({"T", "U"})
        assert graph.assigned_types("a") is graph.assigned_types("b")
        assert graph.assigned_types("c") == frozenset({"T"})
        assert graph.assigned_types("d") == frozenset({"U"})
        assert graph.type_members("T").tolist() == [0, 1, 2]
        assert graph.type_members("U").tolist() == [0, 1, 3]
        assert graph.type_members("Object").tolist() == [0, 1, 2, 3]

    def test_graph_keeps_no_string_of_the_rows(self, tmp_path):
        # names of two or more characters: one-character Latin-1 strings are
        # interpreter singletons, shared by every string operation
        (tmp_path / "edges.tsv").write_text("aa\tr1\tbb\nbb\tr2\tcc\ncc\tr1\taa\n")
        (tmp_path / "types.tsv").write_text("aa\tTT\naa\tUU\nbb\tUU\ncc\tTT\n")
        (tmp_path / "hierarchy.tsv").write_text("TT\tObject\nUU\tObject\nVV\tTT\n")
        edges = hio.load_edges(tmp_path / "edges.tsv")
        types = hio.load_types(tmp_path / "types.tsv")
        hierarchy_rows = hio.load_hierarchy(tmp_path / "hierarchy.tsv")
        graph, hierarchy = build_graph(edges, types, hierarchy_rows)
        assert graph.assigned_types("aa") == frozenset({"TT", "UU"})
        kept = [*graph.entities, *graph.relations, hierarchy.root, *hierarchy.types]
        for t in hierarchy.types:
            kept += [*hierarchy.parents(t), *hierarchy.ancestors(t)]
        for e in graph.entities:
            kept += [*graph.assigned_types(e), *graph.entity_types(e)]
        table_names = [*edges.names, *edges.labels, *types.names, *types.labels]
        row_strings = set(map(id, table_names)) | {id(name) for row in hierarchy_rows for name in row}
        assert not row_strings.intersection(map(id, kept))

    @pytest.mark.parametrize(
        "name, message",
        [
            ("", "empty entity id"),
            ("a b", "entity id 'a b' must not contain whitespace"),
            ("a\u00a0b", r"entity id 'a\xa0b' must not contain whitespace"),
            ("a\u2028b", r"entity id 'a\u2028b' must not contain whitespace"),
            ("a\nb", r"entity id 'a\nb' must not contain whitespace"),
            ("\n", r"entity id '\n' must not contain whitespace"),
            ("a->b", "entity id 'a->b' must not contain '->'"),
        ],
    )
    def test_bad_entity_id_rejected(self, name, message):
        for triples, types in (
            ([("a", "r", name)], []),
            ([("a", "r", "b")], [(name, "Object")]),
        ):
            with pytest.raises(ValueError) as err:
                build_graph(triples, types, [])
            assert str(err.value) == message

    def test_entity_id_pattern_reads_the_isspace_table(self):
        chars = "".join(map(chr, range(sys.maxunicode + 1)))
        spaces = set(filter(str.isspace, chars))
        assert set(re.findall(r"\s", chars)) == spaces
        assert not any(_ID.fullmatch(f"a{c}b") for c in spaces)
        assert _ID.fullmatch("a-b>c~")
        # the ids' joined text is checked by what str.split cuts out of it
        assert "".join(chars.split()) == "".join(c for c in chars if c not in spaces)

    def test_names_are_checked_apart(self):
        # "a-" and ">b" are joined by a newline for the check, never into "->"
        graph, _ = build_graph([("a-", "r", ">b")], [("c-", "Object"), (">d", "Object")], [])
        assert tuple(graph.entities) == (">b", ">d", "a-", "c-")

    def test_first_bad_entity_id_in_name_order_reported(self):
        with pytest.raises(ValueError, match="'b c'"):
            build_graph([("x y", "r", "b c"), ("a", "r", "z->")], [], [])

    @pytest.mark.parametrize(
        "name, message",
        [
            ("r s", "relation id 'r s' must not contain whitespace"),
            ("r->s", "relation id 'r->s' must not contain '->'"),
            ("r~", "relation id 'r~' must not end with '~'"),
        ],
    )
    def test_bad_relation_id_rejected(self, name, message):
        with pytest.raises(ValueError) as err:
            build_graph([("a", name, "b")], [], [])
        assert str(err.value) == message

    def test_deep_hierarchy(self):
        # T0 -> Object, T1 -> T0, ..., T1499 -> T1498, plus a shortcut from
        # T1499 to the root and a side branch at T1000
        chain = [("T0", "Object")] + [(f"T{i}", f"T{i - 1}") for i in range(1, 1500)]
        _, hierarchy = build_graph([], [], chain + [("T1499", "Object"), ("B", "T1000")])
        assert hierarchy.depth("T1499") == 1500
        assert hierarchy.depth("B") == 1002
        assert hierarchy.lca("B", "T1499") == "T1000"
        assert len(hierarchy.ancestors("T1499")) == 1501


def _outcome(call, *args):
    try:
        return "ok", call(*args)
    except ValueError as err:
        return "error", str(err)


_NAME = st.text("aé名𝔸", min_size=1, max_size=3)


@st.composite
def _bundle_files(draw):
    """Edges and types files over a few short names (ASCII, Latin-1, CJK and
    astral), with duplicate rows, typed entities with no edge, and comment
    and blank lines that send their block through the per-line parse. Lines
    end in LF or CRLF; either file may hold no row."""
    edges = draw(st.lists(st.tuples(_NAME, st.sampled_from(["r", "s", "é"]), _NAME), max_size=40))
    edges += draw(st.lists(st.sampled_from(edges), max_size=5)) if edges else []  # duplicates
    types = draw(st.lists(st.tuples(_NAME, st.sampled_from(["TT", "UU", "Object"])), max_size=20))

    def text(rows):
        lines = ["\t".join(row) for row in rows]
        for i, line in draw(st.lists(st.tuples(st.integers(0, 50), st.sampled_from(["# c", "", "#"])), max_size=3)):
            lines.insert(i % (len(lines) + 1), line)
        ends = draw(st.lists(st.sampled_from(["\n", "\r\n"]), min_size=len(lines), max_size=len(lines)))
        return "".join(map(str.__add__, lines, ends))

    return text(edges), text(types)


class TestCodedIngest:
    HIERARCHY = [("TT", "Object"), ("UU", "TT")]

    @given(files=_bundle_files(), block=st.sampled_from([8, 32, 8192]))
    @settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_tables_build_the_graph_their_rows_build(self, tmp_path, files, block):
        edges_path, types_path = tmp_path / "edges.tsv", tmp_path / "types.tsv"
        for path, text in zip((edges_path, types_path), files):
            path.write_bytes(text.encode())
        with mock.patch.object(hio, "_BLOCK_CHARS", block):
            edges, types = hio.load_edges(edges_path), hio.load_types(types_path)
        rows = (list(edges), list(types))
        want = _state(*build_graph(*rows, self.HIERARCHY))
        assert _state(*build_graph(edges, types, self.HIERARCHY)) == want
        # a table is read, not changed: a second build gives the same graph
        assert _state(*build_graph(edges, types, self.HIERARCHY)) == want
        assert (list(edges), list(types)) == rows

    def test_unknown_type_names_the_first_such_row_in_file_order(self, tmp_path):
        path = tmp_path / "types.tsv"
        path.write_text("a\tTT\nb\tVV\nc\tTT\nd\tWW\n")
        with pytest.raises(UnknownTypeError, match=r"\('b', 'VV'\) references a type absent"):
            build_graph(hio.CodedTable(3, [("a", "r", "b")]), hio.load_types(path), self.HIERARCHY)

    @pytest.mark.parametrize(
        "triple, message",
        [
            (("a", "r~", "b"), "relation id 'r~' must not end with '~'"),
            (("a", "r->s", "b"), "relation id 'r->s' must not contain '->'"),
            (("a", "r", "b->c"), "entity id 'b->c' must not contain '->'"),
        ],
    )
    def test_identifier_errors_from_a_table(self, tmp_path, triple, message):
        path = tmp_path / "edges.tsv"
        path.write_text("\t".join(triple) + "\n")
        with pytest.raises(ValueError) as err:
            build_graph(hio.load_edges(path))
        assert str(err.value) == message


class TestNames:
    @given(names=st.lists(st.text("ab-> \n\u00a0\u2028", max_size=4), unique=True))
    @settings(max_examples=300, deadline=None)
    def test_copies_check_each_name(self, names):
        names.sort()

        def reference(kind, names):
            for name in names:
                _check_identifier(kind, name)
            return names

        def table(kind, names):
            return list(NameTable(kind, names))

        assert _outcome(table, "entity", names) == _outcome(reference, "entity", names)

    @pytest.mark.parametrize("names", [[], ["ab"], ["ab", "cd", "éé", "名前"]])
    def test_copies_are_new_strings(self, names):
        table = NameTable("entity", names)
        for copies in (list(table), [table[i] for i in range(len(names))]):
            assert copies == names
            assert not set(map(id, copies)) & set(map(id, names))

    @given(
        names=st.lists(
            # non-ASCII and astral characters, one-character Latin-1 names,
            # prefix pairs, and "~", ">" and "-" in any order but "->"
            st.text("ab~>-éÿΩ\U0001d538", min_size=1, max_size=4).filter(lambda s: "->" not in s),
            min_size=1,
            max_size=10,
            unique=True,
        )
    )
    @example(names=["a", "ab"])
    @settings(max_examples=200, deadline=None)
    def test_entity_table_reads_like_the_names(self, names):
        names.sort()
        triples = [(a, "r", b) for a, b in zip(names, names[1:] + names[:1])]
        graph, _ = build_graph(triples)
        entities, n = graph.entities, len(names)
        assert list(entities) == names
        assert len(entities) == graph.n_entities == n
        assert [entities[i - n] for i in range(n)] == names
        for i in (n, n + 1, -n - 1):
            with pytest.raises(IndexError):
                entities[i]
        for i, name in enumerate(names):
            assert graph.entity_index(name) == i and graph.entity_name(i) == name
            assert graph.entity_name(graph.entity_index(name)) == name
            assert name in entities
        # before the first name, after the last, and between two names
        absent = {"", names[0][:-1], names[-1] + "a", "\U0010ffff"}
        absent.update(a + "\x00" for a in names)
        for p in sorted(absent - set(names)):
            assert position(entities, p) is None and p not in entities
            with pytest.raises(UnknownEntityError, match=f"^{re.escape(f'unknown entity {p!r}')}$"):
                graph.entity_index(p)
        for p in (None, 3, b"a", ("a",)):
            assert position(entities, p) is None and p not in entities

    def test_entity_names_keep_no_string_each(self):
        # a tuple of eight-character strings keeps a 49-byte string header
        # and an 8-byte slot per name beside its characters
        names = [f"e{i:07d}" for i in range(50_000)]
        triples = [(a, "r", b) for a, b in zip(names, names[1:])]
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            entities = build_graph(triples)[0].entities
            kept = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert list(entities) == names
        assert kept - 8 * len(names) < 24 * len(names)

    @given(
        values=st.lists(st.integers(-(2**63), 2**63 - 1), max_size=40)
        | st.builds(lambda v, k: [v] * k, st.integers(-5, 5), st.integers(0, 6))
    )
    @example(values=[])
    @example(values=[7, 7, 7])
    @settings(max_examples=200, deadline=None)
    def test_distinct_is_unique(self, values):
        a = np.array(values, dtype=np.int64)
        distinct = _distinct(a)
        assert distinct.dtype == np.int64
        assert distinct.tolist() == np.unique(a).tolist()

    def test_codes_hold_no_second_full_length_array(self):
        # 300k fields over 2,000 names: beside the 1.2 MB of codes returned,
        # coding holds its dict, the sorted names and one block of fields
        # (about 0.34 MB traced), never a second array as long as the column
        column = [f"e{i:04d}" for i in range(2_000)][::-1] * 150
        tracemalloc.start()
        try:
            _, codes = _codes(iter(column), len(column))
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - kept < codes.nbytes // 2

    @given(column=st.lists(st.sampled_from(["b", "a", "c", "ab", "é"])))
    @settings(max_examples=100, deadline=None)
    def test_codes_index_the_sorted_names(self, column):
        names, codes = _codes(iter(column), len(column))
        assert names == sorted(set(column))
        assert codes.dtype == np.int32
        assert codes.tolist() == [names.index(name) for name in column]


class TestNeighbors:
    def test_inverse_queries(self, g1):
        graph, _ = g1
        assert graph.out_neighbors("g", FOUND_INV) == ["p1", "p2"]
        assert graph.out_neighbors("p1", FOUND) == ["g"]
        assert graph.out_neighbors("p1", FOUND_INV) == []

    def test_unknown_entity_is_not_no_neighbors(self, g1):
        graph, _ = g1
        with pytest.raises(UnknownEntityError):
            graph.out_neighbors("nobody", FOUND)

    @pytest.mark.parametrize("seed", range(10))
    def test_index_accessors_match_triples(self, seed):
        rng = random.Random(seed)
        entities = [f"e{i}" for i in range(8)]
        triples = [
            (rng.choice(entities), f"r{rng.randint(0, 2)}", rng.choice(entities))
            for _ in range(20)
        ]
        graph, _ = build_graph(triples)
        for e, name in enumerate(graph.entities):
            rels = []
            for r, rel in enumerate(graph.relations):
                for inv in (False, True):
                    ends = {(s, t) if not inv else (t, s) for s, rr, t in triples if rr == rel}
                    expected = sorted({t for s, t in ends if s == name})
                    got = [graph.entity_name(w) for w in graph.neighbors_idx(e, r, inv)]
                    assert got == expected
                    assert got == graph.out_neighbors(name, DirectedRelation(rel, inv))
                    if got:
                        rels.append((r, inv))
            assert graph.entity_rels_idx(e) == tuple(rels)

    @pytest.mark.parametrize("seed", range(5))
    def test_untyped_steps_are_the_adjacency(self, seed):
        graph, _ = random_typed_graph(seed)
        root = graph.hierarchy.root
        for r, inv in graph.directions:
            step = graph.step_matrix(r, inv, root, root)
            assert step.edges.dtype == bool
            dense = step.edges.toarray()
            for e in range(graph.n_entities):
                assert graph.neighbors_idx(e, r, inv) == np.flatnonzero(dense[e]).tolist()
            assert np.shares_memory(step.counts.indices, step.edges.indices)
            assert np.shares_memory(step.walk.indices, step.edges.indices)


class TestSteps:
    def test_cut_keeping_every_edge_is_the_untyped_step(self, g1):
        graph, _ = g1
        r = graph.relation_index("found")
        for inv, row_type, col_type in [
            (False, "Person", "Company"),
            (False, "Person", "Organization"),
            (False, "Object", "Company"),
            (True, "Company", "Person"),
        ]:
            untyped = graph.step_matrix(r, inv, "Object", "Object")
            assert graph.step_matrix(r, inv, row_type, col_type) is untyped

    def test_cut_dropping_an_edge_is_its_own_smaller_step(self):
        # g1 plus one edge that no Person -> Company schema allows
        graph, _ = build_graph(G1_TRIPLES + [("g", "found", "p1")], G1_TYPES, G1_HIERARCHY)
        r = graph.relation_index("found")
        untyped = graph.step_matrix(r, False, "Object", "Object")
        typed = graph.step_matrix(r, False, "Person", "Company")
        assert typed is not untyped
        assert graph.step_matrix(r, False, "Person", "Company") is typed  # memoized
        assert untyped.edges.nnz == 3 and typed.edges.nnz == 2
        g, p1, p2 = map(graph.entity_index, ("g", "p1", "p2"))
        assert sorted(zip(*typed.edges.nonzero())) == [(p1, g), (p2, g)]
        assert typed.edges.dtype == bool and typed.edges.shape == untyped.edges.shape

    @given(seed=st.integers(0, 10_000), data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_typed_steps_match_a_name_level_cut(self, seed, data):
        graph, hierarchy = random_typed_graph(seed)
        types = st.sampled_from(hierarchy.types)
        row_type, col_type = data.draw(types), data.draw(types)
        root = hierarchy.root
        for r, inv in graph.directions:
            expected = sorted(
                (e, w)
                for e, name in enumerate(graph.entities)
                if row_type in graph.entity_types(name)
                for w in graph.neighbors_idx(e, r, inv)
                if col_type in graph.entity_types(graph.entity_name(w))
            )
            step = graph.step_matrix(r, inv, row_type, col_type)
            untyped = graph.step_matrix(r, inv, root, root)
            assert step.edges.dtype == bool and step.edges.data.all()
            assert sorted(zip(*map(np.ndarray.tolist, step.edges.nonzero()))) == expected
            assert (step is untyped) == (len(expected) == untyped.edges.nnz)

    def test_type_members_is_a_new_array_each_call(self, g1):
        graph, _ = g1
        first = graph.type_members("Person")
        assert first.dtype == np.int32 and first.tolist() == [1, 2]
        first[:] = 0
        assert graph.type_members("Person").tolist() == [1, 2]
        with pytest.raises(UnknownTypeError):
            graph.type_members("Nobody")

    def test_graph_keeps_no_type_member_store(self):
        graph, hierarchy = random_typed_graph(3)
        state = dict(vars(graph))
        for t in hierarchy.types:
            graph.type_members(t)
        assert vars(graph) == state  # nothing cached on a call
        assert [name for name, v in state.items() if isinstance(v, np.ndarray)] == ["_type_codes"]
        assert not any(isinstance(v, dict) and any(map(hierarchy.__contains__, v)) for v in state.values())
        # the assigned sets are the one per-set record: no closure is stored beside them
        set_tuples = [
            name for name, v in state.items()
            if isinstance(v, tuple) and v and all(isinstance(x, frozenset) for x in v)
        ]
        assert set_tuples == ["_type_sets"]
        closed = [graph.closed_types_idx(e) for e in range(graph.n_entities)]
        assert any(c not in graph._type_sets for c in closed)  # closures are larger here

    def test_typed_cuts_equal_an_isin_and_coo_reference(self):
        # every (direction, row type, column type) cut, about 1,000 a graph
        for seed in range(12):
            graph, hierarchy, assignments, edges = multi_typed_dag_graph(seed)
            closed = name_level_closure(graph, assignments, edges)
            n, root = graph.n_entities, hierarchy.root
            members = {
                t: np.array([e for e in range(n) if t in closed[e]], dtype=np.int32)
                for t in hierarchy.types
            }
            for r, inv in graph.directions:
                untyped = graph.step_matrix(r, inv, root, root).edges
                rows = np.repeat(np.arange(n, dtype=np.int32), np.diff(untyped.indptr))
                for row_type in hierarchy.types:
                    for col_type in hierarchy.types:
                        keep = np.isin(rows, members[row_type])
                        keep &= np.isin(untyped.indices, members[col_type])
                        coo = (untyped.data[keep], (rows[keep], untyped.indices[keep]))
                        expected = sp.csr_array(coo, shape=(n, n))
                        cut = graph.step_matrix(r, inv, row_type, col_type).edges
                        for a, b in [(cut.indptr, expected.indptr), (cut.indices, expected.indices),
                                     (cut.data, expected.data)]:
                            assert a.dtype == b.dtype and np.array_equal(a, b)

    def test_type_tests_equal_a_name_level_closure(self):
        for seed in range(40):
            graph, hierarchy, assignments, edges = multi_typed_dag_graph(seed)
            closed = name_level_closure(graph, assignments, edges)
            n = graph.n_entities
            everyone = np.arange(n, dtype=np.int32)
            assert "Unused" in hierarchy and not any("Unused" in c for c in closed)
            for t in hierarchy.types:
                expected = [t in closed[e] for e in range(n)]
                assert graph.carries_type(everyone, t).tolist() == expected
                assert graph.carries_type(everyone[::-1], t).tolist() == expected[::-1]
                members = graph.type_members(t)
                assert members.dtype == np.int32
                assert members.tolist() == [e for e in range(n) if expected[e]]
            assert graph.type_members(hierarchy.root).tolist() == everyone.tolist()
            assert graph.type_members("Unused").tolist() == []
            for e, name in enumerate(graph.entities):
                assert graph.entity_types(name) == graph.closed_types_idx(e) == closed[e]


class TestEntityTypes:
    def test_ancestor_closure(self, g1):
        graph, _ = g1
        assert graph.entity_types("g") == frozenset({"Company", "Organization", "Object"})
        assert graph.entity_types("p1") == frozenset({"Person", "Object"})

    def test_root_fixed_point(self):
        graph, _ = build_graph([("a", "r", "b")], [], [])
        assert graph.entity_types("a") == frozenset({"Object"})

    def test_unknown_entity(self, g1):
        graph, _ = g1
        with pytest.raises(UnknownEntityError):
            graph.entity_types("nobody")


class TestLca:
    def test_reflexive(self, g1):
        _, hierarchy = g1
        for t in hierarchy.types:
            assert hierarchy.lca(t, t) == t

    def test_g1_cases(self, g1):
        _, hierarchy = g1
        assert hierarchy.lca("Company", "Organization") == "Organization"
        assert hierarchy.lca("Company", "Person") == "Object"

    def test_matches_oracle_on_random_hierarchies(self):
        for seed in range(40):
            _, hierarchy = random_typed_graph(seed)
            for a in hierarchy.types:
                for b in hierarchy.types:
                    assert hierarchy.lca(a, b) == lca_oracle(hierarchy, a, b)

    def test_unknown_type(self, g1):
        _, hierarchy = g1
        with pytest.raises(UnknownTypeError):
            hierarchy.lca("Company", "Ghost")
        with pytest.raises(UnknownTypeError):
            hierarchy.lca("Company", "Person", "Ghost")

    def test_lca_of_set(self, g1):
        _, hierarchy = g1
        assert hierarchy.lca(*{"Person"}) == "Person"
        assert hierarchy.lca(*{"Company", "Organization", "Person"}) == "Object"
        assert hierarchy.lca(*{"Company", "Organization"}) == "Organization"

    def test_lca_of_set_empty(self, g1):
        _, hierarchy = g1
        with pytest.raises(ValueError):
            hierarchy.lca(*set())

    def test_deepest_common_ancestor_of_the_whole_set(self):
        hierarchy = TypeHierarchy(DIAMOND)
        assert hierarchy.lca("A", "B") == "X"
        assert hierarchy.lca("A", "B", "C") == "Q"
        assert hierarchy.lca("C", "B", "A", "B") == "Q"
        # the same hierarchy with A, B and C renamed b, c and a
        renamed = {"A": "b", "B": "c", "C": "a"}
        hierarchy = TypeHierarchy([(renamed.get(c, c), renamed.get(p, p)) for c, p in DIAMOND])
        assert hierarchy.lca("b", "c", "a") == "Q"

    def test_lca_type_reads_assigned_types(self, g1):
        graph, _ = g1
        idx = graph.entity_index
        # g is assigned Organization and Company; its closed types add Object
        assert graph.lca_type([idx("g")]) == "Organization"
        assert graph.lca_type([idx("p1"), idx("p2"), idx("p1")]) == "Person"
        assert graph.lca_type([idx("p1"), idx("g")]) == "Object"

    def test_lca_type_of_no_entities_rejected(self, g1):
        graph, _ = g1
        with pytest.raises(ValueError):
            graph.lca_type([])

    def test_matches_set_oracle_on_multi_parent_dags(self):
        """Every set of 2-4 types, in a shuffled order, on random DAGs."""
        for seed in range(200):
            rng = random.Random(seed)
            names, edges = multi_parent_dag(rng)
            hierarchy = TypeHierarchy(edges)
            for size in (2, 3, 4):
                for _ in range(15):
                    types = rng.sample(["Object", *names], size)
                    assert hierarchy.lca(*types) == brute_force_lca(edges, types), (seed, types)


class TestInvariants:
    @pytest.mark.parametrize("seed", range(25))
    def test_inverse_adjacency_symmetry(self, seed):
        graph, _ = random_typed_graph(seed)
        for rel_name in graph.relations:
            rel = DirectedRelation(rel_name)
            for u in graph.entities:
                for v in graph.out_neighbors(u, rel):
                    assert u in graph.out_neighbors(v, rel.inverse())
                for v in graph.out_neighbors(u, rel.inverse()):
                    assert u in graph.out_neighbors(v, rel)

    @pytest.mark.parametrize("seed", range(25))
    def test_degree_sums_match(self, seed):
        graph, _ = random_typed_graph(seed)
        for rel_name in graph.relations:
            fwd = sum(
                len(graph.out_neighbors(u, DirectedRelation(rel_name))) for u in graph.entities
            )
            bwd = sum(
                len(graph.out_neighbors(u, DirectedRelation(rel_name, True))) for u in graph.entities
            )
            assert fwd == bwd

    def test_lca_commutative_and_root_absorbing(self):
        for seed in range(15):
            _, hierarchy = random_typed_graph(seed)
            for a in hierarchy.types:
                assert hierarchy.lca(a, "Object") == "Object"
                for b in hierarchy.types:
                    assert hierarchy.lca(a, b) == hierarchy.lca(b, a)

    def test_entity_types_always_contain_root(self):
        for seed in range(15):
            graph, _ = random_typed_graph(seed)
            for e in graph.entities:
                assert "Object" in graph.entity_types(e)

    @given(seed=st.integers(0, 10_000), shuffle_seed=st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_build_is_permutation_invariant(self, seed, shuffle_seed):
        rng = random.Random(seed)
        entities = [f"e{i}" for i in range(rng.randint(2, 8))]
        triples = [
            (rng.choice(entities), f"r{rng.randint(0, 2)}", rng.choice(entities))
            for _ in range(rng.randint(1, 12))
        ]
        # an entity has no type row (untyped), one, or several, repeats
        # allowed; "x" has type rows and no edge
        types = [
            (e, rng.choice(["TT", "UU", "VV"]))
            for e in [*entities, "x"]
            for _ in range(rng.choice([0, 0, 1, 1, 2, 3]))
        ]
        hier = [("TT", "Object"), ("UU", "Object"), ("VV", "TT")]
        shuffled, shuffled_types = triples[:], types[:]
        random.Random(shuffle_seed).shuffle(shuffled)
        random.Random(shuffle_seed).shuffle(shuffled_types)
        a, _ = build_graph(triples, types, hier)
        b, _ = build_graph(shuffled, shuffled_types, hier)
        assert tuple(a.entities) == tuple(b.entities)
        assert a.relations == b.relations
        for e in a.entities:
            for r in a.relations:
                for inv in (False, True):
                    rel = DirectedRelation(r, inv)
                    assert a.out_neighbors(e, rel) == b.out_neighbors(e, rel)

        # types straight from the rows: every row's type, the root if none
        ancestors = {"Object": {"Object"}, "TT": {"TT", "Object"}, "UU": {"UU", "Object"}}
        ancestors["VV"] = {"VV", *ancestors["TT"]}
        names = sorted({e for s, _, t in triples for e in (s, t)} | {e for e, _ in types})
        assigned = {e: {t for x, t in types if x == e} or {"Object"} for e in names}
        closed = {e: set().union(*map(ancestors.get, ts)) for e, ts in assigned.items()}
        for graph in (a, b):
            assert list(graph.entities) == names
            for i, e in enumerate(names):
                assert graph.assigned_types(e) == assigned[e]
                assert graph.entity_types(e) == closed[e]
                assert graph.closed_types_idx(i) == closed[e]
            for t in ancestors:
                members = [i for i, e in enumerate(names) if t in closed[e]]
                assert graph.type_members(t).tolist() == members

    def test_types_are_one_code_per_entity(self):
        rng = random.Random(5)
        entities = [f"e{i:02d}" for i in range(40)]
        triples = [(rng.choice(entities), f"r{i % 3}", rng.choice(entities)) for i in range(60)]
        # untyped, single-typed and multi-typed entities
        types = [(e, t) for k, e in enumerate(entities) for t in rng.sample(["TT", "UU", "VV"], k % 3)]
        graph, _ = build_graph(triples, types, [("TT", "Object"), ("UU", "Object"), ("VV", "TT")])
        n = graph.n_entities
        assert n > 30
        per_entity = [
            name for name, value in vars(graph).items()
            if isinstance(value, Sequence) and len(value) == n and value is not graph.entities
        ]
        assert per_entity == []
        assert graph._type_codes.shape == (n,) and graph._type_codes.dtype == np.uint8
        # codes number the distinct sets in the order of their sorted members
        assert list(map(sorted, graph._type_sets)) == sorted(map(sorted, graph._type_sets))
        assert len(set(graph._type_sets)) == len(graph._type_sets)
        assert np.unique(graph._type_codes).tolist() == list(range(len(graph._type_sets)))

    @given(
        triples=st.lists(
            st.tuples(
                st.sampled_from(["e1", "e2", "e3", "e4", "e5"]),
                st.sampled_from(["ra", "rb"]),
                st.sampled_from(["e1", "e2", "e3", "e4", "e5"]),
            ),
            max_size=15,
        ),
        # e6 has no edge; an entity with rows of two types is multi-typed
        assignments=st.lists(
            st.tuples(st.sampled_from(["e1", "e2", "e3", "e6"]), st.sampled_from(["TT", "UU", "VV"])),
            max_size=6,
        ),
    )
    @settings(max_examples=60, deadline=None)
    def test_build_reads_names_by_value(self, triples, assignments):
        tables = (triples, assignments, [("TT", "Object"), ("UU", "Object"), ("VV", "TT")])
        share = {}.setdefault
        shared = [[tuple(share(f, f) for f in row) for row in table] for table in tables]
        # equal names as distinct string objects
        apart = [[tuple((f + ".")[:-1] for f in row) for row in table] for table in tables]
        fields = [f for table in apart for row in table for f in row]
        assert len(set(map(id, fields))) == len(fields)
        states = [
            _state(*build_graph(*shared)),
            _state(*build_graph(*apart)),
            _state(*build_graph(*(iter(table) for table in shared))),
        ]
        assert states[0] == states[1] == states[2]

    def test_inverting_twice_is_identity(self):
        rel = DirectedRelation("found")
        assert rel.inverse().inverse() == rel
