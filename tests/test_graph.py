import random

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
)
from conftest import G1_HIERARCHY, G1_TRIPLES, G1_TYPES

from corpus import random_typed_graph

FOUND = DirectedRelation("found")
FOUND_INV = DirectedRelation("found", inverted=True)


def lca_oracle(hierarchy, a, b):
    """Exhaustive intersection of ancestor sets, deepest wins, then smallest id."""
    common = hierarchy.ancestors(a) & hierarchy.ancestors(b)
    best = sorted(common, key=lambda t: (-hierarchy.depth(t), t))
    return best[0]


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

    def test_hierarchy_cycle_rejected(self):
        with pytest.raises(HierarchyError, match="cycle"):
            build_graph([], [], [("A", "B"), ("B", "A")])

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

    def test_deep_hierarchy(self):
        # T0 -> Object, T1 -> T0, ..., T1499 -> T1498, plus a shortcut from
        # T1499 to the root and a side branch at T1000
        chain = [("T0", "Object")] + [(f"T{i}", f"T{i - 1}") for i in range(1, 1500)]
        _, hierarchy = build_graph([], [], chain + [("T1499", "Object"), ("B", "T1000")])
        assert hierarchy.depth("T1499") == 1500
        assert hierarchy.depth("B") == 1002
        assert hierarchy.lca("B", "T1499") == "T1000"
        assert len(hierarchy.ancestors("T1499")) == 1501


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

    def test_inverting_twice_is_identity(self):
        rel = DirectedRelation("found")
        assert rel.inverse().inverse() == rel
