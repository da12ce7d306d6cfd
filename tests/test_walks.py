import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hinwalk import (
    BudgetExceededError,
    DirectedRelation,
    MetaPath,
    UnknownRelationError,
    UnknownTypeError,
    build_features,
    build_graph,
    build_index,
    commuting_matrix,
    enumerate_metapaths,
    enumerate_path_instances,
    instance_probabilities,
    parse_metapath,
    relations_only,
)
from hinwalk import walks
from hinwalk.walks import walk_mass
from corpus import oracle_counts, oracle_distribution, random_typed_graph, stored_cells, walk_rows

P_FOUNDERS = "Person -found-> Organization -found~-> Person"


def realized_paths(graph, max_len=3):
    return enumerate_metapaths(graph, "Object", "Object", max_len)


def realized_sequences(graph, source_type, target_type, max_len):
    """Signatures of the relation sequences of every concrete walk of length
    1..max_len from a source-type entity to a target-type entity, found by
    depth-first search over entities (each entity and sequence visited once)."""
    def carries(type_id):
        return {e for e in range(graph.n_entities) if type_id in graph.closed_types_idx(e)}

    targets = carries(target_type)
    seen, out = set(), set()

    def descend(entity, relations):
        if (entity, relations) in seen:
            return
        seen.add((entity, relations))
        if relations and entity in targets:
            out.add(relations_only(relations).signature())
        if len(relations) == max_len:
            return
        for r, inv in graph.directions:
            step = DirectedRelation(graph.relations[r], inv)
            for w in graph.neighbors_idx(entity, r, inv):
                descend(w, relations + (step,))

    for source in carries(source_type):
        descend(source, ())
    return out


def random_walks(graph, rng, lengths=(1, 2, 3, 4, 5, 6)):
    """Entity and relation sequences of random walks, two tries per length;
    a walk that reaches a dead end early is skipped."""
    for length in lengths:
        for _ in range(2):
            entities = [rng.randrange(graph.n_entities)]
            relations = []
            for _ in range(length):
                options = [
                    (r, inv, w)
                    for r, inv in graph.directions
                    for w in graph.neighbors_idx(entities[-1], r, inv)
                ]
                if not options:
                    break
                r, inv, w = rng.choice(options)
                entities.append(w)
                relations.append(DirectedRelation(graph.relations[r], inv))
            if len(relations) == length:
                yield entities, tuple(relations)


def assigned_type(graph, rng, entity):
    return rng.choice(sorted(graph.assigned_types(graph.entity_name(entity))))


def sampled_paths(graph, seed, lengths=(1, 2, 3, 4, 5, 6)):
    """Relation sequences of random walks, each once with ``Object``
    endpoints and once typed with an assigned type of the walk's first and
    last entity; interior node types stay ``Object``."""
    rng = random.Random(seed)
    out = []
    for entities, relations in random_walks(graph, rng, lengths):
        path = relations_only(relations)
        first = assigned_type(graph, rng, entities[0])
        last = assigned_type(graph, rng, entities[-1])
        typed = MetaPath((first,) + path.node_types[1:-1] + (last,), path.relations)
        out += [path, typed]
    return out


def walk_row(graph, source, path):
    """The ``walk_mass`` row of one named source."""
    (row,) = walk_rows(graph, [graph.entity_index(source)], path)
    return row


def probability(graph, source, target, path):
    """f(source, target | path), read as one feature."""
    return build_features(graph, [(source, target)], [path]).values[0, 0]


class TestWalkDistribution:
    def test_g2_star(self, g2, p_star):
        graph, _ = g2
        assert walk_row(graph, "v1", p_star) == {"v1": 0.5, "v2": 0.25, "v3": 0.25}

    def test_g1_founders(self, g1):
        graph, _ = g1
        assert walk_row(graph, "p1", parse_metapath(P_FOUNDERS)) == {"p1": 0.5, "p2": 0.5}

    def test_empty_path_base_case(self, g1):
        graph, _ = g1
        assert walk_row(graph, "p1", parse_metapath("Object")) == {"p1": 1.0}

    def test_source_type_violation(self, g1):
        graph, _ = g1
        with pytest.raises(ValueError, match="'p1' does not carry start type 'Organization'"):
            walk_row(graph, "p1", parse_metapath("Organization -found~-> Person"))

    def test_dead_end_drops_mass(self, g1):
        graph, _ = g1
        # p2 has no inbound found edge: half the mass at depth 1 dies at depth 2
        path = parse_metapath("Organization -found~-> Person -found~-> Person")
        assert walk_row(graph, "g", path) == {}


class TestWalkProbability:
    def test_g1(self, g1):
        graph, _ = g1
        assert probability(graph, "p1", "p2", parse_metapath(P_FOUNDERS)) == 0.5

    def test_g2(self, g2, p_star):
        graph, _ = g2
        assert probability(graph, "v1", "v2", p_star) == 0.25

    def test_empty_path_self(self, g2):
        graph, _ = g2
        assert probability(graph, "v2", "v2", parse_metapath("Venue")) == 1.0

    def test_unreachable_is_zero(self, g2, p_star):
        graph, _ = g2
        assert probability(graph, "v2", "v3", p_star) == 0.0


class TestEnumerateInstances:
    def test_g1_enumeration(self, g1):
        graph, _ = g1
        instances = enumerate_path_instances(graph, "p1", parse_metapath(P_FOUNDERS))
        assert instances == [["p1", "g", "p1"], ["p1", "g", "p2"]]

    def test_g2_star_endpoints(self, g2, p_star):
        graph, _ = g2
        instances = enumerate_path_instances(graph, "v1", p_star)
        assert sorted(p[-1] for p in instances) == ["v1", "v1", "v2", "v3"]

    def test_no_instances(self, g1):
        graph, _ = g1
        path = parse_metapath("Person -found~-> Organization")
        assert enumerate_path_instances(graph, "p1", path) == []

    def test_source_without_start_type_rejected(self, g1):
        graph, _ = g1
        with pytest.raises(ValueError, match="source 'p1' does not carry start type 'Organization'"):
            enumerate_path_instances(graph, "p1", parse_metapath("Organization -found~-> Person"))

    def test_cap_reported(self, g2, p_star):
        graph, _ = g2
        with pytest.raises(BudgetExceededError, match="2"):
            enumerate_path_instances(graph, "v1", p_star, max_instances=2)

    def test_probabilities_resolve_the_path_once(self, g2, p_star, monkeypatch):
        graph, _ = g2
        instances = enumerate_path_instances(graph, "v1", p_star)
        calls = []
        resolve = walks._resolve
        monkeypatch.setattr(walks, "_resolve", lambda *a: calls.append(a) or resolve(*a))
        assert sum(instance_probabilities(graph, instances, p_star)) == pytest.approx(1.0)
        assert len(calls) == 1

    def test_probabilities_check_the_path_without_instances(self, g1):
        graph, _ = g1
        with pytest.raises(UnknownTypeError):
            instance_probabilities(graph, [], parse_metapath("Person -found-> Ghost"))
        with pytest.raises(UnknownRelationError):
            instance_probabilities(graph, [], parse_metapath("Person -owns-> Organization"))


def rows_match_oracle(graph, path, sources):
    """One ``walk_mass`` call from ``sources``; each row has the oracle's
    support and sums within 1e-12. Returns the number of non-empty rows."""
    rows = walk_rows(graph, sources, path)
    for source, got in zip(sources, rows):
        oracle = oracle_distribution(graph, graph.entity_name(source), path)
        assert set(got) == set(oracle)
        for t, p in oracle.items():
            assert got[t] == pytest.approx(p, abs=1e-12)
    return sum(map(bool, rows))


class TestOracleEquivalence:
    @pytest.mark.parametrize("seed", range(30))
    def test_walk_matches_instance_sums(self, seed):
        """The untyped case: every realized ``Object`` path, every entity."""
        graph, _ = random_typed_graph(seed, max_entities=14)
        for path in realized_paths(graph):
            assert rows_match_oracle(graph, path, range(graph.n_entities))

    @pytest.mark.parametrize("seed", range(30))
    def test_typed_walk_mass_matches_instance_sums(self, seed):
        """The sampled walks with every position typed by an assigned type
        of the walk's entity there, from every source that carries the start
        type."""
        graph, _ = random_typed_graph(seed, max_entities=14)
        rng = random.Random(seed)
        rows = 0
        for entities, relations in random_walks(graph, rng):
            path = MetaPath(tuple(assigned_type(graph, rng, e) for e in entities), relations)
            rows += rows_match_oracle(graph, path, graph.type_members(path.source_type).tolist())
        assert rows  # the walk's own start reaches its own end

    @pytest.mark.parametrize("seed", range(30))
    def test_commuting_matrix_matches_counts(self, seed):
        graph, _ = random_typed_graph(seed, max_entities=14)
        for path in realized_paths(graph) + sampled_paths(graph, seed):
            matrix = commuting_matrix(graph, path)
            assert matrix.matrix.dtype == np.int64
            names = graph.entities
            for members, end_type in (
                (matrix.rows, path.source_type),
                (matrix.cols, path.target_type),
            ):
                typed = [i for i, e in enumerate(names) if end_type in graph.entity_types(e)]
                assert members.dtype == np.int32 and members.tolist() == typed
            for source in matrix.rows.tolist():
                counts = oracle_counts(graph, names[source], path)
                for target in matrix.cols.tolist():
                    count = matrix.score(names[source], names[target])
                    assert type(count) is int and count == counts.get(names[target], 0)

    @pytest.mark.parametrize("seed", range(30))
    def test_index_matches_weighted_counts(self, seed):
        """A multi-path index whose end types differ but are compatible (a
        type and a strict ancestor of it) equals the weighted sum of the
        per-path commuting counts, over the union of the end-type members."""
        graph, hierarchy = random_typed_graph(seed, max_entities=14)
        rng = random.Random(seed)
        paths = sampled_paths(graph, seed)
        typed = [p for p in paths if p.source_type != "Object" and p.target_type != "Object"]
        if not typed:
            return
        narrow = typed[-1]  # the longest typed sample
        other = rng.choice(paths)
        wide_ends = [
            rng.choice(sorted(hierarchy.ancestors(t) - {t}))
            for t in (narrow.source_type, narrow.target_type)
        ]
        wide = MetaPath(
            (wide_ends[0],) + other.node_types[1:-1] + (wide_ends[1],), other.relations
        )
        metapaths = [narrow, wide, narrow]
        theta = [1.0, 0.5, 0.25]  # powers of two keep the weighted sums exact

        index = build_index(graph, metapaths, theta)
        counts = [commuting_matrix(graph, mp) for mp in metapaths]
        assert index.rows.tolist() == counts[1].rows.tolist()
        assert index.cols.tolist() == counts[1].cols.tolist()
        names = graph.entities
        for row in index.rows.tolist():
            for col in index.cols.tolist():
                expected = sum(
                    w * c.score(names[row], names[col])
                    for w, c in zip(theta, counts)
                    if row in c.rows and col in c.cols
                )
                assert index.score(names[row], names[col]) == expected
        m = index.matrix
        assert all(np.all(np.diff(m.indices[a:b]) > 0) for a, b in zip(m.indptr, m.indptr[1:]))
        assert not (m.data == 0).any()

    @pytest.mark.parametrize("seed", range(20))
    def test_mass_total_vs_dead_ends(self, seed):
        graph, _ = random_typed_graph(seed, max_entities=14)
        for path in realized_paths(graph):
            rows = walk_rows(graph, range(graph.n_entities), path)
            for source, row in zip(graph.entities, rows):
                total = sum(row.values())
                assert total <= 1.0 + 1e-9
                if _has_dead_end(graph, source, path):
                    assert total < 1.0 - 1e-9
                else:
                    assert total == pytest.approx(1.0, abs=1e-9)


def _has_dead_end(graph, source, path):
    """Some prefix of some walk hits an empty qualifying neighbor set."""
    steps = [(graph.relation_index(r.name), r.inverted) for r in path.relations]
    current = {graph.entity_index(source)}
    for (ridx, inv), next_type in zip(steps, path.node_types[1:]):
        following = set()
        for e in current:
            qualifying = [
                w
                for w in graph.neighbors_idx(e, ridx, inv)
                if next_type == "Object" or next_type in graph.closed_types_idx(w)
            ]
            if not qualifying:
                return True
            following.update(qualifying)
        current = following
    return False


class TestComposition:
    @pytest.mark.parametrize("seed", range(12))
    def test_chained_forward_pass(self, seed):
        graph, _ = random_typed_graph(seed, max_entities=12)
        paths = [p for p in realized_paths(graph, max_len=2) if p.length == 2]
        for whole in paths[:6]:
            first = MetaPath(whole.node_types[:2], whole.relations[:1])
            second = MetaPath(whole.node_types[1:], whole.relations[1:])
            sources = range(graph.n_entities)
            tails = dict(zip(graph.entities, walk_rows(graph, sources, second)))
            heads = walk_rows(graph, sources, first)
            for head, direct in zip(heads, walk_rows(graph, sources, whole)):
                chained = {}
                for mid, m in head.items():
                    for t, q in tails[mid].items():
                        chained[t] = chained.get(t, 0.0) + m * q
                assert set(chained) == set(direct)
                for t in direct:
                    assert direct[t] == pytest.approx(chained[t], abs=1e-12)


class TestTypeWidening:
    @pytest.mark.parametrize("seed", range(12))
    def test_ancestor_widening_grows_support(self, seed):
        graph, hierarchy = random_typed_graph(seed, max_entities=12)
        typed = []
        for path in realized_paths(graph, max_len=2):
            # tighten one interior position to a concrete type, then re-widen it
            for t in hierarchy.types:
                if t == "Object":
                    continue
                node_types = list(path.node_types)
                node_types[path.length] = t
                typed.append(MetaPath(tuple(node_types), path.relations))
                if len(typed) >= 8:
                    break
            if len(typed) >= 8:
                break
        for path in typed:
            pos = path.length
            narrow_type = path.node_types[pos]
            for ancestor in sorted(hierarchy.ancestors(narrow_type)):
                node_types = list(path.node_types)
                node_types[pos] = ancestor
                widened = MetaPath(tuple(node_types), path.relations)
                sources = graph.type_members(path.source_type)
                narrow = walk_rows(graph, sources, path)
                wide = walk_rows(graph, sources, widened)
                for narrow_row, wide_row in zip(narrow, wide):
                    assert set(narrow_row) <= set(wide_row)


class TestCommutingMatrix:
    def test_g2_star_counts(self, g2, p_star):
        graph, _ = g2
        matrix = commuting_matrix(graph, p_star)
        expected = {
            ("v1", "v1"): 2,
            ("v1", "v2"): 1,
            ("v1", "v3"): 1,
            ("v2", "v1"): 1,
            ("v2", "v2"): 1,
            ("v3", "v1"): 1,
            ("v3", "v3"): 1,
        }
        assert stored_cells(matrix) == expected

    def test_g1_direct_edges(self, g1):
        graph, _ = g1
        matrix = commuting_matrix(graph, parse_metapath("Person -found-> Organization"))
        assert stored_cells(matrix) == {("p1", "g"): 1, ("p2", "g"): 1}

    def test_zero_step_identity(self, g2):
        graph, _ = g2
        matrix = commuting_matrix(graph, parse_metapath("Venue"))
        assert stored_cells(matrix) == {
            ("v1", "v1"): 1,
            ("v2", "v2"): 1,
            ("v3", "v3"): 1,
        }

    def test_unknown_relation(self, g2):
        graph, _ = g2
        with pytest.raises(UnknownRelationError):
            commuting_matrix(graph, parse_metapath("Venue -ghost-> Venue"))

    def test_nnz_budget(self, g2, p_star, monkeypatch):
        graph, _ = g2
        monkeypatch.setattr(walks, "NNZ_BUDGET", 1)
        with pytest.raises(BudgetExceededError, match="nnz"):
            commuting_matrix(graph, p_star)

    def test_nnz_budget_bounds_the_one_step_cut(self, g2, monkeypatch):
        graph, _ = g2
        path = parse_metapath("Venue -publishIn~-> Paper")  # 4 entries, no product
        monkeypatch.setattr(walks, "NNZ_BUDGET", 4)
        assert commuting_matrix(graph, path).matrix.nnz == 4
        monkeypatch.setattr(walks, "NNZ_BUDGET", 3)
        with pytest.raises(BudgetExceededError, match="nnz"):
            commuting_matrix(graph, path)

    @pytest.mark.parametrize("path", ["Object -found-> Object", "Person -found-> Organization"])
    def test_result_does_not_share_cached_step(self, g1, path):
        graph, _ = g1
        first = commuting_matrix(graph, parse_metapath(path))
        first.matrix.data[:] = 7
        assert commuting_matrix(graph, parse_metapath(path)).score("p1", "g") == 1


class TestWalkMass:
    @pytest.mark.parametrize("seed", range(5))
    def test_walks_keep_int32_indices(self, seed):
        # build_features passes the int64 array np.unique returns, the tree
        # search a list of ints
        graph, _ = random_typed_graph(seed)
        sources = np.unique(np.arange(0, graph.n_entities, 2))
        for path in realized_paths(graph, max_len=2):
            for given in (sources, sources.tolist()):
                mass = walk_mass(graph, given, path)
                assert mass.indices.dtype == np.int32
                assert mass.indptr.dtype == np.int32

    @pytest.mark.parametrize("as_array", [False, True])
    def test_first_source_without_the_start_type_is_named(self, g2, p_star, as_array):
        graph, _ = g2
        # x and a1 carry no Venue type; x comes first, a1 has the smaller index
        sources = [graph.entity_index(e) for e in ("v1", "x", "v2", "a1", "v3")]
        if as_array:
            sources = np.array(sources, dtype=np.int32)
        with pytest.raises(ValueError, match="source 'x' does not carry start type 'Venue'"):
            walk_mass(graph, sources, p_star)

    @pytest.mark.parametrize("sources", [[], np.array([], dtype=np.int32)])
    def test_no_sources_give_no_rows(self, g2, p_star, sources):
        graph, _ = g2
        mass = walk_mass(graph, sources, p_star)
        assert mass.shape == (0, graph.n_entities) and mass.nnz == 0

    def test_nnz_budget(self, g2, p_star, monkeypatch):
        graph, _ = g2
        sources = [graph.entity_index(v) for v in ("v1", "v2", "v3")]
        # the third step's product holds 8 entries, more than the result's 7
        assert walk_mass(graph, sources, p_star).nnz == 7
        monkeypatch.setattr(walks, "NNZ_BUDGET", 7)
        with pytest.raises(BudgetExceededError, match="nnz"):
            walk_mass(graph, sources, p_star)


class TestEnumerateMetapaths:
    def test_g2_venue_venue(self, g2):
        graph, _ = g2
        paths = enumerate_metapaths(graph, "Venue", "Venue", 2)
        assert [str(p) for p in paths] == ["Object -publishIn~-> Object -publishIn-> Object"]

    def test_g2_venue_author(self, g2):
        graph, _ = g2
        paths = enumerate_metapaths(graph, "Venue", "Author", 2)
        assert [str(p) for p in paths] == ["Object -publishIn~-> Object -authorOf~-> Object"]

    def test_zero_max_len(self, g2):
        graph, _ = g2
        assert enumerate_metapaths(graph, "Venue", "Venue", 0) == []

    def test_nnz_budget(self, g2, monkeypatch):
        # the venues' one reachable set after publishIn~ holds four papers
        graph, _ = g2
        monkeypatch.setattr(walks, "NNZ_BUDGET", 3)
        with pytest.raises(BudgetExceededError, match="nnz"):
            enumerate_metapaths(graph, "Venue", "Venue", 2)

    def test_unknown_type(self, g2):
        graph, _ = g2
        with pytest.raises(UnknownTypeError):
            enumerate_metapaths(graph, "Ghost", "Venue", 2)

    @pytest.mark.parametrize("seed", range(10))
    def test_every_realized_sequence_is_enumerated(self, seed):
        graph, _ = random_typed_graph(seed, max_entities=12)
        root = graph.hierarchy.root
        types = sorted(set(graph.hierarchy.types) - {root})
        rng = random.Random(seed)
        endpoints = [(root, root), (rng.choice(types), rng.choice(types))]
        for source_type, target_type in endpoints:
            realized = realized_sequences(graph, source_type, target_type, 4)
            for max_len in (1, 2, 3, 4):
                want = sorted(
                    (seq for seq in realized if len(seq) <= max_len),
                    key=lambda seq: (len(seq), seq),
                )
                got = enumerate_metapaths(graph, source_type, target_type, max_len)
                assert [p.signature() for p in got] == want

    @pytest.mark.parametrize("seed", range(10))
    def test_every_sequence_is_realized(self, seed):
        graph, _ = random_typed_graph(seed, max_entities=12)
        for path in enumerate_metapaths(graph, "Object", "Object", 3):
            assert any(
                enumerate_path_instances(graph, source, path) for source in graph.entities
            )

    def test_max_len_one_is_the_directions_into_the_targets(self):
        for seed in range(20):
            graph, _ = random_typed_graph(seed, max_entities=12)
            types = sorted(graph.hierarchy.types)
            source_type, target_type = types[seed % len(types)], types[seed // 3 % len(types)]
            targets = set(graph.type_members(target_type).tolist())
            want = [
                relations_only((DirectedRelation(graph.relations[r], inv),))
                for r, inv in graph.directions
                if any(
                    targets.intersection(graph.neighbors_idx(s, r, inv))
                    for s in graph.type_members(source_type).tolist()
                )
            ]
            assert enumerate_metapaths(graph, source_type, target_type, 1) == want

    def test_no_source_or_target_members(self):
        graph, _ = build_graph(
            [("a", "r", "b"), ("b", "s", "a")],
            [("a", "A"), ("b", "B")],
            [("A", "Object"), ("B", "Object"), ("C", "Object")],
        )
        assert enumerate_metapaths(graph, "A", "C", 3) == []
        assert enumerate_metapaths(graph, "C", "A", 3) == []
        assert [str(p) for p in enumerate_metapaths(graph, "A", "B", 3)] == [
            "Object -r-> Object",
            "Object -s~-> Object",
            "Object -r-> Object -r~-> Object -r-> Object",
            "Object -r-> Object -r~-> Object -s~-> Object",
            "Object -r-> Object -s-> Object -r-> Object",
            "Object -r-> Object -s-> Object -s~-> Object",
            "Object -s~-> Object -r~-> Object -r-> Object",
            "Object -s~-> Object -r~-> Object -s~-> Object",
            "Object -s~-> Object -s-> Object -r-> Object",
            "Object -s~-> Object -s-> Object -s~-> Object",
        ]

    def test_graph_without_relations_has_no_sequences(self):
        graph, _ = build_graph([], [("a", "A")], [("A", "Object")])
        assert enumerate_metapaths(graph, "A", "A", 1) == []
        assert enumerate_metapaths(graph, "A", "A", 3) == []

    def test_paths_share_one_relation_per_direction(self):
        graph, _ = random_typed_graph(3, max_entities=12)
        paths = enumerate_metapaths(graph, "Object", "Object", 3)
        shared = {}
        for path in paths:
            for rel in path.relations:
                assert shared.setdefault((rel.name, rel.inverted), rel) is rel
        assert len(paths) > len(shared) > 1


@given(seed=st.integers(0, 10_000), max_len=st.integers(1, 3))
@settings(max_examples=40, deadline=None)
def test_enumeration_is_a_prefix_of_the_longer_one(seed, max_len):
    graph, _ = random_typed_graph(seed, max_entities=16)
    types = sorted(graph.hierarchy.types)
    for source_type, target_type in [("Object", "Object"), (types[seed % len(types)], types[-1])]:
        shorter = enumerate_metapaths(graph, source_type, target_type, max_len)
        longer = enumerate_metapaths(graph, source_type, target_type, max_len + 1)
        assert shorter == [p for p in longer if p.length <= max_len]


@given(seed=st.integers(0, 10_000))
@settings(max_examples=25, deadline=None)
def test_walk_mass_bounds(seed):
    graph, _ = random_typed_graph(seed, max_entities=10)
    for path in realized_paths(graph, max_len=2):
        for row in walk_rows(graph, range(graph.n_entities), path):
            assert all(0.0 < m <= 1.0 for m in row.values())
            assert sum(row.values()) <= 1.0 + 1e-9
