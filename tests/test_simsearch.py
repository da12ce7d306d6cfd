import tracemalloc

import pytest

from hinwalk import (
    UnknownEntityError,
    build_graph,
    build_index,
    commuting_matrix,
    enumerate_metapaths,
    parse_metapath,
    top_k,
)
from hinwalk import walks
from hinwalk.graph import NameTable
from hinwalk.synth import BibliographicSpec, bibliographic_graph
from corpus import oracle_counts, random_typed_graph, stored_cells


class TestBuildIndex:
    def test_single_path_unit_weight(self, g2, p_star):
        graph, _ = g2
        index = build_index(graph, [p_star], [1.0])
        reference = commuting_matrix(graph, p_star)
        for (r, c), n in stored_cells(reference).items():
            assert index.score(r, c) == float(n)

    def test_convex_duplicate(self, g2, p_star):
        graph, _ = g2
        index = build_index(graph, [p_star, p_star], [0.5, 0.5])
        reference = commuting_matrix(graph, p_star)
        for (r, c), n in stored_cells(reference).items():
            assert index.score(r, c) == float(n)

    def test_scalar_doubling(self, g2, p_star):
        graph, _ = g2
        doubled = build_index(graph, [p_star], [2.0])
        reference = commuting_matrix(graph, p_star)
        for (r, c), n in stored_cells(reference).items():
            assert doubled.score(r, c) == 2.0 * n

    def test_uniform_default(self, g2, p_star):
        graph, _ = g2
        other = parse_metapath("Venue -publishIn~-> Paper -publishIn-> Venue")
        index = build_index(graph, [p_star, other])
        assert index.theta.tolist() == [0.5, 0.5]

    def test_empty_paths_rejected(self, g2):
        graph, _ = g2
        with pytest.raises(ValueError):
            build_index(graph, [])

    def test_endpoint_mismatch_rejected(self, g2, p_star):
        graph, _ = g2
        author_path = parse_metapath("Author -authorOf-> Paper -publishIn-> Venue")
        with pytest.raises(ValueError, match="incompatible"):
            build_index(graph, [p_star, author_path])

    def test_ancestor_widening_allowed(self, g1):
        graph, _ = g1
        narrow = parse_metapath("Person -found-> Company")
        wide = parse_metapath("Person -found-> Organization")
        index = build_index(graph, [narrow, wide], [1.0, 1.0])
        assert index.score("p1", "g") == 2.0

    def test_budget_bounds_outside_in_products(self, monkeypatch):
        # every product of the outside-in halves stays within the 64 stored
        # entries of the result; multiplied left to right, the Author x Paper
        # product after three steps would hold 93
        graph, *_ = bibliographic_graph(BibliographicSpec(2, 3, 6, 2, 7))
        path = parse_metapath(
            "Author -authorOf-> Paper -publishIn-> Venue -publishIn~-> Paper -authorOf~-> Author"
        )
        monkeypatch.setattr(walks, "NNZ_BUDGET", 64)
        index = build_index(graph, [path])
        assert index.matrix.nnz == 64

    def test_theta_shape_mismatch(self, g2, p_star):
        graph, _ = g2
        with pytest.raises(ValueError):
            build_index(graph, [p_star], [1.0, 2.0])


    @pytest.mark.parametrize("theta", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_theta_rejected(self, g2, p_star, theta):
        graph, _ = g2
        with pytest.raises(ValueError, match="finite"):
            build_index(graph, [p_star, p_star], [1.0, theta])

    # the v1-v1 count is 2 and every other stored count 1: 2 * 1e308
    # overflows to inf, and inf - inf is NaN
    @pytest.mark.parametrize("theta", [[1e308, 1e308], [1e308, -1e308]], ids=["inf", "nan"])
    def test_non_finite_scores_rejected(self, g2, p_star, theta):
        graph, _ = g2
        with pytest.raises(ValueError, match="weighted scores are not finite"):
            build_index(graph, [p_star, p_star], theta)

    @pytest.mark.parametrize(
        "build",
        [lambda g, path: commuting_matrix(g, path), lambda g, path: build_index(g, [path])],
        ids=["commuting_matrix", "build_index"],
    )
    def test_index_keeps_no_names(self, build):
        """The index holds no string cut from the graph's names, however many
        rows and columns it has."""
        names = [f"e{i:04d}" for i in range(2400)]
        triples = [(a, "r", b) for a, b in zip(names, names[1:] + names[:1])]
        graph, _ = build_graph(triples, [(e, "T") for e in names], [("T", "Object")])
        tracemalloc.start()
        try:
            index = build(graph, parse_metapath("T -r-> T -r~-> T"))
            snapshot = tracemalloc.take_snapshot()
        finally:
            tracemalloc.stop()
        assert len(index.rows) == len(index.cols) == len(names)
        code = NameTable.__getitem__.__code__
        lines = {line for _, _, line in code.co_lines()}
        held = [
            stat.count for stat in snapshot.statistics("lineno")
            if stat.traceback[0].filename == code.co_filename
            and stat.traceback[0].lineno in lines
        ]
        assert sum(held) <= 4

class TestTopK:
    def test_g2_query_v1(self, g2, p_star):
        graph, _ = g2
        index = build_index(graph, [p_star], [1.0])
        assert top_k(index, "v1", 2) == [("v2", 1.0), ("v3", 1.0)]

    def test_k_zero(self, g2, p_star):
        graph, _ = g2
        index = build_index(graph, [p_star], [1.0])
        assert top_k(index, "v1", 0) == []

    def test_zero_scores_omitted(self, g2, p_star):
        graph, _ = g2
        index = build_index(graph, [p_star], [1.0])
        assert top_k(index, "v2", 5) == [("v1", 1.0)]

    def test_unknown_query(self, g2, p_star):
        graph, _ = g2
        index = build_index(graph, [p_star], [1.0])
        with pytest.raises(UnknownEntityError):
            top_k(index, "a1", 3)

    def test_negative_k_rejected(self, g2, p_star):
        graph, _ = g2
        index = build_index(graph, [p_star], [1.0])
        with pytest.raises(ValueError):
            top_k(index, "v1", -1)


class TestProperties:
    def test_ranking_invariant_under_positive_scaling(self, g2, p_star):
        graph, _ = g2
        other = parse_metapath("Venue -publishIn~-> Paper -publishIn-> Venue")
        base = build_index(graph, [p_star, other], [1.0, 0.5])
        scaled = build_index(graph, [p_star, other], [3.0, 1.5])
        for query in ("v1", "v2", "v3"):
            assert [e for e, _ in top_k(base, query, 5)] == [
                e for e, _ in top_k(scaled, query, 5)
            ]

    def test_symmetric_path_gives_symmetric_scores(self, g2, p_star):
        graph, _ = g2
        index = build_index(graph, [p_star], [1.0])
        for a in ("v1", "v2", "v3"):
            for b, score in top_k(index, a, 5):
                assert (a, score) in [(e, s) for e, s in top_k(index, b, 5)]

    @pytest.mark.parametrize("seed", range(8))
    def test_scores_equal_weighted_counts(self, seed):
        graph, _ = random_typed_graph(seed, max_entities=12)
        paths = [p for p in enumerate_metapaths(graph, "Object", "Object", 2)][:3]
        if not paths:
            return
        theta = [1.0, 0.5, 0.25][: len(paths)]
        index = build_index(graph, paths, theta)
        for query in [graph.entities[i] for i in index.rows.tolist()]:
            per_path_counts = [oracle_counts(graph, query, p) for p in paths]
            for entity, score in top_k(index, query, len(index.cols)):
                expected = sum(
                    w * counts.get(entity, 0) for w, counts in zip(theta, per_path_counts)
                )
                assert score == expected
