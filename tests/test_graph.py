import random
import re
import sys

import numpy as np
import pytest
from hypothesis import given, settings
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
from hinwalk.graph import _ID, _check_identifier, _codes, _copies
from conftest import G1_HIERARCHY, G1_TRIPLES, G1_TYPES

from corpus import random_typed_graph

FOUND = DirectedRelation("found")
FOUND_INV = DirectedRelation("found", inverted=True)


def lca_oracle(hierarchy, a, b):
    """Exhaustive intersection of ancestor sets, deepest wins, then smallest id."""
    common = hierarchy.ancestors(a) & hierarchy.ancestors(b)
    best = sorted(common, key=lambda t: (-hierarchy.depth(t), t))
    return best[0]


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
    return graph.entities, graph.relations, hierarchy.types, types, members, arrays


class TestBuildGraph:
    def test_g1_counts(self, g1):
        graph, _ = g1
        assert len(graph.entities) == 3
        assert graph.relations == ("found",)
        assert graph.out_degree("p1", FOUND) == 1
        assert graph.out_degree("g", FOUND_INV) == 2

    def test_empty_inputs(self):
        graph, hierarchy = build_graph([], [], [])
        assert graph.entities == ()
        assert hierarchy.types == ("Object",)

    def test_duplicate_triples_collapse(self, g1):
        graph, _ = g1
        dup, _ = build_graph(G1_TRIPLES + [("p1", "found", "g")], G1_TYPES, G1_HIERARCHY)
        assert dup.entities == graph.entities
        assert dup.out_neighbors("g", FOUND_INV) == graph.out_neighbors("g", FOUND_INV)
        one_step = commuting_matrix(dup, parse_metapath("Person -found-> Company"))
        assert one_step.count("p1", "g") == 1

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
        assert generated.entities == listed.entities
        assert generated.relations == listed.relations
        for e in listed.entities:
            assert generated.assigned_types(e) == listed.assigned_types(e)
        root = listed.hierarchy.root
        for d in listed.directions:
            a = listed.step_matrix(*d, root, root).edges
            b = generated.step_matrix(*d, root, root).edges
            assert np.array_equal(a.indptr, b.indptr)
            assert np.array_equal(a.indices, b.indices)

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
        rows = [
            hio.load_edges(tmp_path / "edges.tsv"),
            hio.load_types(tmp_path / "types.tsv"),
            hio.load_hierarchy(tmp_path / "hierarchy.tsv"),
        ]
        graph, hierarchy = build_graph(*rows)
        assert graph.assigned_types("aa") == frozenset({"TT", "UU"})
        kept = [*graph.entities, *graph.relations, hierarchy.root, *hierarchy.types]
        for t in hierarchy.types:
            kept += [*hierarchy.parents(t), *hierarchy.ancestors(t)]
        for e in graph.entities:
            kept += [*graph.assigned_types(e), *graph.entity_types(e)]
        row_strings = {id(name) for table in rows for row in table for name in row}
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
        assert graph.entities == (">b", ">d", "a-", "c-")

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


class TestNames:
    @given(names=st.lists(st.text("ab-> \n\u00a0\u2028", max_size=4), unique=True))
    @settings(max_examples=300, deadline=None)
    def test_copies_check_each_name(self, names):
        names.sort()

        def reference(kind, names):
            for name in names:
                _check_identifier(kind, name)
            return names

        assert _outcome(_copies, "entity", names) == _outcome(reference, "entity", names)

    @pytest.mark.parametrize("names", [[], ["ab"], ["ab", "cd", "éé", "名前"]])
    def test_copies_are_new_strings(self, names):
        copies = _copies("entity", names)
        assert copies == names
        assert not set(map(id, copies)) & set(map(id, names))

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

    def test_lca_of_set(self, g1):
        _, hierarchy = g1
        assert hierarchy.lca_of_set({"Person"}) == "Person"
        assert hierarchy.lca_of_set({"Company", "Organization", "Person"}) == "Object"
        assert hierarchy.lca_of_set({"Company", "Organization"}) == "Organization"

    def test_lca_of_set_empty(self, g1):
        _, hierarchy = g1
        with pytest.raises(ValueError):
            hierarchy.lca_of_set(set())

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

    def test_lca_of_set_is_fold_of_oracle(self):
        for seed in range(20):
            _, hierarchy = random_typed_graph(seed)
            types = list(hierarchy.types)
            acc = None
            for t in sorted(types):
                acc = t if acc is None else lca_oracle(hierarchy, acc, t)
            assert hierarchy.lca_of_set(types) == acc


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
            fwd = sum(graph.out_degree(u, DirectedRelation(rel_name)) for u in graph.entities)
            bwd = sum(
                graph.out_degree(u, DirectedRelation(rel_name, True)) for u in graph.entities
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
        shuffled = triples[:]
        random.Random(shuffle_seed).shuffle(shuffled)
        a, _ = build_graph(triples)
        b, _ = build_graph(shuffled)
        assert a.entities == b.entities
        assert a.relations == b.relations
        for e in a.entities:
            for r in a.relations:
                for inv in (False, True):
                    rel = DirectedRelation(r, inv)
                    assert a.out_neighbors(e, rel) == b.out_neighbors(e, rel)

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
