import numpy as np
import pytest

from hinwalk import (
    DirectedRelation,
    ExamplePairSet,
    SearchConfig,
    SearchTree,
    build_graph,
    generate_paths,
    parse_metapath,
    relations_only,
)
from hinwalk import walks
from corpus import oracle_distribution, random_example_pairs, random_typed_graph


def simulate_first_emission(graph, examples, beta=0.6, max_depth=6):
    """Exhaustive tree simulation: eager table of all relation sequences with
    walk tuples from the path-instance oracle, then a literal replay of
    best-first pops with the (-S, depth, sequence) ordering. Independent of
    the incremental heap and the sparse walk under test."""
    sources = sorted({s for s, _ in examples.pairs})
    pair_set = set(examples.pairs)

    def tuples_for(seq):
        rels = tuple(DirectedRelation(graph.relations[r], inv) for r, inv in seq)
        path = relations_only(rels)
        out = {}
        for s in sources:
            for t, m in oracle_distribution(graph, s, path).items():
                out[(s, t)] = m
        return out

    def score(tuples, depth):
        per_source = {}
        has_pair = False
        for (u, v), f in tuples.items():
            per_source[u] = per_source.get(u, 0.0) + f
            has_pair = has_pair or (u, v) in pair_set
        num = sum(
            examples.max_weight[u] * total / examples.pair_count[u]
            for u, total in per_source.items()
        )
        den = sum(examples.max_weight[u] for u in per_source)
        return (num / den) * beta**depth + (1.0 if has_pair else 0.0), has_pair

    rel_dirs = sorted(
        {(graph.relation_index(r), inv) for r in graph.relations for inv in (False, True)}
    )
    alive = {(): tuples_for(())}
    while alive:
        keyed = []
        for seq, tuples in alive.items():
            s, has_pair = score(tuples, len(seq))
            keyed.append(((-s, len(seq), seq), seq, has_pair))
        keyed.sort()
        key, seq, has_pair = keyed[0]
        if has_pair:
            y = {
                (u, v): f
                for (u, v), f in alive[seq].items()
                if (u, v) in pair_set
            }
            return seq, y
        del alive[seq]
        if len(seq) >= max_depth:
            continue
        for d in rel_dirs:
            child = tuples_for(seq + (d,))
            if child:
                alive[seq + (d,)] = child
    return None, None


class TestExamplePairSet:
    def test_derived_stats(self):
        eps = ExamplePairSet([("a", "b"), ("a", "c"), ("d", "e")], {("a", "b"): 2.0})
        assert eps.max_weight == {"a": 2.0, "d": 1.0}
        assert eps.pair_count == {"a": 2, "d": 1}
        assert eps.sources == ("a", "d")

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            ExamplePairSet([])

    def test_nonpositive_weight_rejected(self):
        with pytest.raises(ValueError):
            ExamplePairSet([("a", "b")], {("a", "b"): 0.0})

    @pytest.mark.parametrize("weight", [float("nan"), float("inf"), float("-inf")])
    def test_nonfinite_weight_rejected(self, weight):
        with pytest.raises(ValueError, match="positive and finite"):
            ExamplePairSet([("a", "b")], {("a", "b"): weight})

    def test_duplicate_pairs_collapse(self):
        eps = ExamplePairSet([("a", "b"), ("a", "b")])
        assert len(eps) == 1
        assert eps.pair_count == {"a": 1}


class TestSearchConfig:
    def test_defaults(self):
        config = SearchConfig()
        assert config.beta == 0.6
        assert config.max_depth == 6
        assert config.max_paths == 20

    @pytest.mark.parametrize(
        "kwargs", [{"beta": 0.0}, {"beta": 1.5}, {"max_depth": 0}, {"max_paths": 0}]
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            SearchConfig(**kwargs)


class TestPriorityScore:
    """Hand-worked priorities of the tree's own nodes on g1 for the pair (p1, p2)."""

    @pytest.fixture
    def tree(self, g1):
        graph, _ = g1
        return SearchTree(graph, ExamplePairSet([("p1", "p2")]), SearchConfig(beta=0.6))

    def test_root_unit(self, tree):
        assert tree.root.priority == pytest.approx(1.0)

    def test_depth_one_no_pair(self, tree):
        (child,) = tree.expand_node(tree.root)  # (p1, g): 1.0
        assert not child.has_pair
        assert child.priority == pytest.approx(0.6)

    def test_depth_two_with_pair(self, tree):
        (child,) = tree.expand_node(tree.root)
        (grandchild,) = tree.expand_node(child)  # (p1, p1): 0.5, (p1, p2): 0.5
        assert grandchild.has_pair
        assert grandchild.priority == pytest.approx(1.36)


class TestExpand:
    def test_expand_root_g1(self, g1):
        graph, _ = g1
        tree = SearchTree(graph, ExamplePairSet([("p1", "p2")]))
        children = tree.expand_node(tree.root)
        assert len(children) == 1
        assert tree.node_relations(children[0]) == (DirectedRelation("found"),)
        assert tree.node_tuples(children[0]) == {("p1", "g"): 1.0}

    def test_expand_child_splits_uniformly(self, g1):
        graph, _ = g1
        tree = SearchTree(graph, ExamplePairSet([("p1", "p2")]))
        (child,) = tree.expand_node(tree.root)
        (grandchild,) = tree.expand_node(child)
        assert tree.node_relations(grandchild) == (
            DirectedRelation("found"),
            DirectedRelation("found", True),
        )
        assert tree.node_tuples(grandchild) == {("p1", "p1"): 0.5, ("p1", "p2"): 0.5}

    def test_dead_end_has_no_children(self, g1):
        graph, _ = g1
        # p2 -> g -> {p1, p2}: expanding twice more ends at entities with only
        # inverse edges back, never an empty frontier here, so use an isolated graph
        isolated, _ = build_graph([("a", "r", "b")], [], [])
        tree = SearchTree(isolated, ExamplePairSet([("b", "a")]))
        (child,) = tree.expand_node(tree.root)  # b -r~-> a
        grandchildren = tree.expand_node(child)
        assert len(grandchildren) == 1  # a -r-> b only
        assert tree.expand_node(grandchildren[0])  # back to a again

    def test_double_expand_rejected(self, g1):
        graph, _ = g1
        tree = SearchTree(graph, ExamplePairSet([("p1", "p2")]))
        tree.expand_node(tree.root)
        with pytest.raises(ValueError, match="expanded"):
            tree.expand_node(tree.root)

    def test_node_at_max_depth_rejected(self, g1):
        graph, _ = g1
        tree = SearchTree(graph, ExamplePairSet([("p1", "p2")]), SearchConfig(max_depth=1))
        (child,) = tree.expand_node(tree.root)
        with pytest.raises(ValueError, match="node at max depth 1 cannot be expanded"):
            tree.expand_node(child)
        assert not child.expanded

    @pytest.mark.parametrize("seed", range(20))
    def test_children_are_the_nonempty_products(self, seed):
        graph, _ = random_typed_graph(seed)
        examples = ExamplePairSet(random_example_pairs(graph, seed, n=3))
        result = generate_paths(graph, examples, SearchConfig(max_paths=5, max_depth=4))
        root = graph.hierarchy.root
        stack, expanded = [result.tree.root], 0
        while stack:
            node = stack.pop()
            mass = result.tree.node_mass(node)
            nonempty = [
                d for d in graph.directions if (mass @ graph.step_matrix(*d, root, root).walk).nnz
            ]
            assert list(node.children) == (nonempty if node.expanded else [])
            expanded += node.expanded
            stack.extend(node.children.values())
        assert expanded


    @pytest.mark.parametrize("seed", range(20))
    def test_only_popped_nodes_keep_their_mass(self, seed):
        graph, _ = random_typed_graph(seed)
        examples = ExamplePairSet(random_example_pairs(graph, seed, n=3))
        result = generate_paths(
            graph, examples, SearchConfig(max_paths=5, max_depth=4), record_trace=True
        )
        tree, root = result.tree, graph.hierarchy.root
        popped = {relseq for event, _, _, _, relseq in tree.trace if event != "drop"}
        stack, stored = [tree.root], 0
        while stack:
            node = stack.pop()
            mass = tree.node_mass(node)
            if node.parent is None:
                assert node.tuples.mass is mass
            else:
                step = graph.step_matrix(*node.relseq[-1], root, root)
                want = tree.node_mass(node.parent) @ step.walk
                for part in ("data", "indices", "indptr"):
                    got, expected = getattr(mass, part), getattr(want, part)
                    assert got.dtype == expected.dtype and got.tobytes() == expected.tobytes()
                kept = node.tuples.mass is not None
                assert kept == (node.relseq in popped)
                stored += kept
            assert len(node.tuples) == mass.nnz
            stack.extend(node.children.values())
        assert stored < tree.nodes_created - 1


class TestSearch:
    def test_g1_first_emission(self, g1):
        graph, _ = g1
        result = generate_paths(graph, ExamplePairSet([("p1", "p2")]), SearchConfig(max_paths=1))
        assert result.status == "ok"
        (path,) = result.paths
        assert str(path.metapath) == "Person -found-> Organization -found~-> Person"
        assert path.scores == {("p1", "p2"): 0.5}
        assert list(path.scores.values()) == [0.5]

    def test_g2_first_emission_is_star(self, g2, p_star):
        graph, _ = g2
        examples = ExamplePairSet([("v1", "v2")])
        result = generate_paths(graph, examples, SearchConfig(max_paths=1))
        (path,) = result.paths
        assert path.metapath == p_star
        assert path.scores == {("v1", "v2"): 0.25}

    def test_g2_matches_simulation_oracle(self, g2):
        graph, _ = g2
        examples = ExamplePairSet([("v1", "v2")])
        seq, y = simulate_first_emission(graph, examples)
        result = generate_paths(graph, examples, SearchConfig(max_paths=1))
        assert result.paths[0].metapath.relations == tuple(
            DirectedRelation(graph.relations[r], inv) for r, inv in seq
        )
        assert result.paths[0].scores == y

    def test_self_pair_emits_empty_path(self, g1):
        graph, _ = g1
        result = generate_paths(graph, ExamplePairSet([("p1", "p1")]), SearchConfig(max_paths=1))
        (path,) = result.paths
        assert path.metapath.length == 0
        assert path.scores == {("p1", "p1"): 1.0}

    def test_emitted_node_stays_expandable(self, g1):
        graph, _ = g1
        result = generate_paths(graph, ExamplePairSet([("p1", "p2")]), SearchConfig(max_paths=2))
        assert len(result.paths) == 2
        signatures = [tuple(str(r) for r in p.metapath.relations) for p in result.paths]
        assert signatures[0] == ("found", "found~")
        assert signatures[1] == ("found", "found~", "found", "found~")

    def test_budget_exhaustion_status(self, g2):
        graph, _ = g2
        result = generate_paths(
            graph, ExamplePairSet([("v1", "v2")]), SearchConfig(max_paths=5, node_budget=2)
        )
        assert result.status == "budget"
        assert result.paths == ()

    def test_nnz_budget_stops_the_search(self, monkeypatch):
        # p1's first emission, p1 -r-> t, multiplies one-entry masses; the
        # hub's expansion afterwards would store 10 entries
        hub = [("hub", "s", f"e{i}") for i in range(10)]
        graph, _ = build_graph([("p1", "r", "t"), ("p1", "s", "hub"), *hub], [], [])
        examples = ExamplePairSet([("p1", "t")])
        full = generate_paths(graph, examples, SearchConfig(max_paths=3))
        assert full.status == "ok"
        monkeypatch.setattr(walks, "NNZ_BUDGET", 5)
        result = generate_paths(graph, examples, SearchConfig(max_paths=3))
        assert result.status == "budget"
        assert result.paths == full.paths[:1]
        assert result.tree.next_path() is None
        assert result.tree.status == "budget"

    def test_frontier_exhaustion_status(self):
        # a and d live in disconnected components: no sequence can link them
        lonely, _ = build_graph([("a", "r", "b"), ("c", "q", "d")], [], [])
        result = generate_paths(
            lonely, ExamplePairSet([("a", "d")]), SearchConfig(max_paths=3, max_depth=2)
        )
        assert result.status == "exhausted"
        assert result.paths == ()

    def test_max_paths_validation(self):
        with pytest.raises(ValueError):
            SearchConfig(max_paths=0)

    def test_no_duplicate_paths(self, g2):
        graph, _ = g2
        result = generate_paths(graph, ExamplePairSet([("v1", "v2")]), SearchConfig(max_paths=8))
        signatures = [p.metapath.relations for p in result.paths]
        assert len(signatures) == len(set(signatures))

    def test_score_matrix_rows_follow_pair_order(self, g2):
        graph, _ = g2
        examples = ExamplePairSet([("v1", "v2"), ("v1", "v3")])
        result = generate_paths(graph, examples, SearchConfig(max_paths=2))
        for p in result.paths:
            node = result.tree.root
            for r in p.metapath.relations:
                node = node.children[(graph.relation_index(r.name), r.inverted)]
            tuples = result.tree.node_tuples(node)
            assert list(p.scores.items()) == [
                (pair, tuples[pair]) for pair in examples.pairs if pair in tuples
            ]

    def test_determinism(self, g2):
        graph, _ = g2
        runs = []
        for _ in range(2):
            result = generate_paths(
                graph, ExamplePairSet([("v1", "v2")]), SearchConfig(max_paths=4), record_trace=True
            )
            runs.append(
                (
                    [p.metapath.relations for p in result.paths],
                    [p.scores for p in result.paths],
                    result.tree.trace,
                )
            )
        assert runs[0] == runs[1]


class TestTupleScores:
    @pytest.mark.parametrize("seed", range(10))
    def test_tuples_match_walk_probability(self, seed):
        graph, _ = random_typed_graph(seed, max_entities=10)
        pairs = random_example_pairs(graph, seed + 77, n=2)
        examples = ExamplePairSet(pairs)
        tree = SearchTree(graph, examples, SearchConfig(max_depth=3))
        # drive a few expansions regardless of emissions
        for _ in range(6):
            if tree.next_path() is None:
                break
        stack = [tree.root]
        while stack:
            node = stack.pop()
            rels = tree.node_relations(node)
            path = relations_only(rels)
            tuples = tree.node_tuples(node)
            assert len(node.tuples) == len(tuples)
            oracle = {s: oracle_distribution(graph, s, path) for s, _ in tuples}
            for (s, t), f in tuples.items():
                assert f == pytest.approx(oracle[s].get(t, 0.0), abs=1e-12)
            stack.extend(node.children.values())


    @pytest.mark.parametrize("seed", range(5))
    def test_node_masses_keep_int32_indices(self, seed):
        graph, _ = random_typed_graph(seed)
        tree = SearchTree(graph, ExamplePairSet(random_example_pairs(graph, seed, n=3)))
        nodes = [tree.root]
        for node in nodes[:8]:
            nodes += tree.expand_node(node)
        for node in nodes:
            mass = tree.node_mass(node)
            assert mass.indices.dtype == np.int32
            assert mass.indptr.dtype == np.int32


class TestBestFirstProperty:
    @pytest.mark.parametrize("seed", range(15))
    def test_pops_are_maximal(self, seed):
        graph, _ = random_typed_graph(seed, max_entities=10)
        examples = ExamplePairSet(random_example_pairs(graph, seed + 13, n=2))
        result = generate_paths(
            graph,
            examples,
            SearchConfig(max_paths=3, max_depth=3, node_budget=3000),
            record_trace=True,
        )
        for event, popped_key, next_key, _, _ in result.tree.trace:
            if next_key is not None:
                assert popped_key <= next_key

    def test_equal_priorities_break_on_sequence(self):
        # three depth-3 nodes score exactly 0.6**3, but their float priorities
        # differ in the last bit depending on summation order
        graph, _ = random_typed_graph(44, max_entities=10)
        examples = ExamplePairSet([("e06", "e08"), ("e08", "e01")])
        result = generate_paths(
            graph,
            examples,
            SearchConfig(max_paths=3, max_depth=3, node_budget=5000),
            record_trace=True,
        )
        tied = [
            relseq
            for _, popped_key, _, _, relseq in result.tree.trace
            if abs(popped_key[0] + 0.6**3) < 1e-12
        ]
        assert len(tied) >= 2
        assert tied == sorted(tied)

    @pytest.mark.parametrize("seed", range(8))
    def test_first_emission_matches_simulation(self, seed):
        graph, _ = random_typed_graph(seed, max_entities=9)
        examples = ExamplePairSet(random_example_pairs(graph, seed + 31, n=2))
        seq, y = simulate_first_emission(graph, examples, max_depth=3)
        result = generate_paths(graph, examples, SearchConfig(max_paths=1, max_depth=3))
        if seq is None:
            assert result.paths == ()
        else:
            assert tuple((r, i) for r, i in (
                (graph.relation_index(rel.name), rel.inverted)
                for rel in result.paths[0].metapath.relations
            )) == seq
            got = result.paths[0].scores
            assert set(got) == set(y)
            for pair in y:
                assert got[pair] == pytest.approx(y[pair], abs=1e-12)


class TestPriorityBounds:
    @pytest.mark.parametrize("seed", range(10))
    def test_uniform_weight_bounds(self, seed):
        graph, _ = random_typed_graph(seed, max_entities=10)
        examples = ExamplePairSet(random_example_pairs(graph, seed + 5, n=2))
        tree = SearchTree(graph, examples, SearchConfig(max_depth=3))
        for _ in range(5):
            if tree.next_path() is None:
                break
        beta = tree.config.beta
        stack = [tree.root]
        while stack:
            node = stack.pop()
            bound = beta**node.depth + (1.0 if node.has_pair else 0.0)
            assert node.priority <= bound + 1e-12
            # bonus dominance: with uniform weights, any node holding an
            # example pair outranks every pair-free node at any depth
            if node.has_pair:
                assert node.priority >= 1.0
            else:
                assert node.priority <= 1.0 + 1e-12
            stack.extend(node.children.values())


class TestPositionTyping:
    def test_emitted_types_match_name_level_reference(self):
        """Each position's type is the LCA of the assigned types of the
        targets its node's walk tuples reach, recomputed here from names."""
        graphs = below_root = 0
        for seed in range(40):
            graph, hierarchy = random_typed_graph(seed)
            examples = ExamplePairSet(random_example_pairs(graph, seed + 5, n=3))
            result = generate_paths(graph, examples, SearchConfig(max_depth=3, max_paths=5))
            tree = result.tree
            graphs += bool(result.paths)
            for emitted in result.paths:
                chain = [tree.root]
                for rel in emitted.metapath.relations:
                    chain.append(chain[-1].children[graph.relation_index(rel.name), rel.inverted])
                expected = tuple(
                    hierarchy.lca(
                        *set().union(*(graph.assigned_types(t) for _, t in tree.node_tuples(node)))
                    )
                    for node in chain
                )
                assert emitted.metapath.node_types == expected
                below_root += sum(t != "Object" for t in expected)
        assert graphs >= 30 and below_root >= 100
