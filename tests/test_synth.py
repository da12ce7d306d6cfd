import pytest

from hinwalk import ExamplePairSet, SearchConfig, build_features, generate_paths, parse_metapath
from hinwalk.io import parse_bundle
from hinwalk.synth import (
    BibliographicSpec,
    SyntheticSpec,
    bibliographic_graph,
    generate_synthetic,
)

SMALL = dict(
    entity_counts={"A": 40, "B": 40, "C": 40},
    planted=parse_metapath("A -r_ab-> B -r_bc-> C"),
    noise_rate=0.1,
    out_degree=3,
    distractor_relations=2,
    n_pairs=10,
)


def read_bytes(bundle):
    return tuple(
        p.read_bytes()
        for p in (
            bundle.edges_path,
            bundle.types_path,
            bundle.hierarchy_path,
            bundle.examples_path,
            bundle.holdout_examples_path,
        )
    )


class TestGenerateSynthetic:
    def test_seed_reproducibility(self, tmp_path):
        a = generate_synthetic(SyntheticSpec(seed=7, **SMALL), tmp_path / "a")
        b = generate_synthetic(SyntheticSpec(seed=7, **SMALL), tmp_path / "b")
        assert read_bytes(a) == read_bytes(b)

    def test_different_seed_differs(self, tmp_path):
        a = generate_synthetic(SyntheticSpec(seed=7, **SMALL), tmp_path / "a")
        b = generate_synthetic(SyntheticSpec(seed=8, **SMALL), tmp_path / "b")
        assert read_bytes(a) != read_bytes(b)

    def test_noise_free_positives_walk_the_rule(self, tmp_path):
        spec = SyntheticSpec(seed=3, **{**SMALL, "noise_rate": 0.0})
        bundle = generate_synthetic(spec, tmp_path)
        parsed = parse_bundle(bundle)
        rows = parsed.example_rows
        features = build_features(parsed.graph, [(r.source, r.target) for r in rows], [spec.planted])
        for row, score in zip(rows, features.values[:, 0], strict=True):
            if row.label == 1:
                assert score > 0.0
            else:
                assert score == 0.0

    def test_labels_split_between_classes(self, tmp_path):
        bundle = generate_synthetic(SyntheticSpec(seed=3, **SMALL), tmp_path)
        parsed = parse_bundle(bundle)
        labels = [r.label for r in parsed.example_rows]
        assert labels.count(1) == SMALL["n_pairs"]
        assert labels.count(0) == SMALL["n_pairs"]
        train = {(r.source, r.target) for r in parsed.example_rows}
        test = {(r.source, r.target) for r in parsed.holdout_rows}
        assert not train & test

    def test_zero_entity_count_rejected(self):
        with pytest.raises(ValueError, match="type"):
            SyntheticSpec(
                entity_counts={"A": 10, "B": 0, "C": 10},
                planted=parse_metapath("A -r_ab-> B -r_bc-> C"),
            )

    def test_negative_count_of_unplanted_type_rejected(self):
        with pytest.raises(ValueError, match="type 'C' needs at least 1 entity, got -3"):
            SyntheticSpec(
                entity_counts={"A": 10, "B": 10, "C": -3},
                planted=parse_metapath("A -r_ab-> B"),
            )

    def test_reserved_relation_name_rejected(self):
        with pytest.raises(ValueError, match="collides"):
            SyntheticSpec(
                entity_counts={"A": 10, "B": 10},
                planted=parse_metapath("A -noise0-> B"),
            )

    @pytest.mark.parametrize("rate", [float("inf"), float("nan"), -0.5])
    def test_bad_noise_rate_rejected(self, rate):
        with pytest.raises(ValueError, match="noise_rate"):
            SyntheticSpec(
                entity_counts={"A": 10, "B": 10},
                planted=parse_metapath("A -r_ab-> B"),
                noise_rate=rate,
            )

    def test_noise_without_noise_relations_rejected(self):
        with pytest.raises(ValueError, match="noise_relation_count"):
            SyntheticSpec(**{**SMALL, "noise_rate": 0.2, "noise_relation_count": 0})
        # no noise needs no noise relation
        SyntheticSpec(**{**SMALL, "noise_rate": 0.0, "noise_relation_count": 0})

    @pytest.mark.parametrize("name", ["", " ", "A B", "A\u00a0", "A->B"])
    def test_type_name_outside_the_id_rule_rejected(self, name):
        with pytest.raises(ValueError, match="type id"):
            SyntheticSpec(
                entity_counts={name: 3, "A": 10, "B": 10},
                planted=parse_metapath("A -r_ab-> B"),
            )

    def test_too_few_unconnected_pairs_rejected(self, tmp_path):
        # out-degree 3 over 3 targets connects all 9 pairs: no negatives exist
        spec = SyntheticSpec(
            entity_counts={"A": 3, "B": 3},
            planted=parse_metapath("A -r-> B"),
            noise_rate=0.0,
            distractor_relations=0,
            noise_relation_count=0,
            n_pairs=1,
        )
        with pytest.raises(ValueError, match="only 0 unconnected pairs exist, need 2"):
            generate_synthetic(spec, tmp_path / "out")
        assert not (tmp_path / "out").exists()

    def test_just_enough_unconnected_pairs_generate(self, tmp_path):
        # 3 x 4 pairs, 9 connected: the 3 others hold the 2 negatives
        spec = SyntheticSpec(
            entity_counts={"A": 3, "B": 4},
            planted=parse_metapath("A -r-> B"),
            noise_rate=0.0,
            distractor_relations=0,
            noise_relation_count=0,
            n_pairs=1,
        )
        parsed = parse_bundle(generate_synthetic(spec, tmp_path))
        negatives = [r for r in parsed.example_rows + parsed.holdout_rows if r.label == 0]
        assert len(negatives) == 2
        pairs = [(r.source, r.target) for r in negatives]
        assert not build_features(parsed.graph, pairs, [spec.planted]).values.any()

    def test_long_planted_path_warns(self):
        counts = {t: 4 for t in "ABCDEFGH"}
        long_path = parse_metapath(
            "A -p1-> B -p2-> C -p3-> D -p4-> E -p5-> F -p6-> G -p7-> H"
        )
        with pytest.warns(UserWarning, match="depth"):
            SyntheticSpec(entity_counts=counts, planted=long_path, n_pairs=1)


class TestBibliographicGraph:
    def test_shape_and_blocks(self):
        graph, hierarchy, pairs, venue_area = bibliographic_graph(
            BibliographicSpec(n_areas=2, venues_per_area=4, authors_per_area=10, seed=5)
        )
        assert len([v for v in venue_area]) == 8
        assert len(pairs) == 2
        for s, t in pairs:
            assert venue_area[s] == venue_area[t]
        assert {"Venue", "Paper", "Author"} <= set(hierarchy.types)

    def test_search_finds_coauthor_path(self):
        graph, _, pairs, _ = bibliographic_graph(
            BibliographicSpec(n_areas=2, venues_per_area=4, authors_per_area=10, seed=5)
        )
        result = generate_paths(graph, ExamplePairSet(pairs), SearchConfig(max_paths=3, max_depth=4))
        sigs = {tuple(str(r) for r in p.metapath.relations) for p in result.paths}
        assert ("publishIn~", "authorOf~", "authorOf", "publishIn") in sigs
