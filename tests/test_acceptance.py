"""Acceptance gate: one test per criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -v -s``. The synthetic pipeline
criteria share one module-scoped 10k-entity bundle so the end-to-end budget
is measured once.
"""

import random
import time

import numpy as np
import pytest

from hinwalk import (
    ExamplePairSet,
    LogisticModel,
    SearchConfig,
    auc,
    build_features,
    build_index,
    commuting_matrix,
    enumerate_metapaths,
    generate_paths,
    load_model,
    parse_metapath,
    predict,
    save_model,
    top_k,
    train_logistic,
)
from hinwalk.bench import BenchConfig, run_benchmark
from hinwalk.io import parse_bundle
from hinwalk.models import gradient, log_likelihood
from hinwalk.synth import BibliographicSpec, SyntheticSpec, bibliographic_graph, generate_synthetic

from conftest import P_STAR
from corpus import auc_pairwise, oracle_counts, oracle_distribution, random_typed_graph, walk_rows

N_CORPUS_GRAPHS = 200
CORPUS_MAX_ENTITIES = 12  # well inside the allowed 40-entity / 4-relation corpus bound


def corpus_graph(i):
    return random_typed_graph(1000 + i, max_entities=CORPUS_MAX_ENTITIES, max_relations=4)


def report(n, message):
    print(f"\nACCEPTANCE {n:02d} PASS: {message}")


@pytest.fixture(scope="module")
def planted_pipeline(tmp_path_factory):
    """Seeded 10k-entity planted-rule bundle, searched, trained and scored."""
    spec = SyntheticSpec(
        entity_counts={"A": 2000, "B": 2000, "C": 2000, "D": 2000, "E": 2000},
        planted=parse_metapath("A -r_ab-> B -r_bc-> C"),
        noise_rate=0.1,
        seed=42,
        n_pairs=100,
        distractor_relations=6,
    )
    t_start = time.perf_counter()
    bundle = generate_synthetic(spec, tmp_path_factory.mktemp("planted"))
    parsed = parse_bundle(bundle)
    graph = parsed.graph

    train_rows = parsed.example_rows
    test_rows = parsed.holdout_rows
    positives = [(r.source, r.target) for r in train_rows if r.label == 1]

    search = SearchConfig(beta=0.6, max_paths=10, max_depth=4)
    result = generate_paths(graph, ExamplePairSet(positives), search)

    metapaths = [p.metapath for p in result.paths]
    train_pairs = [(r.source, r.target) for r in train_rows]
    test_pairs = [(r.source, r.target) for r in test_rows]
    features_train = build_features(graph, train_pairs, metapaths)
    features_test = build_features(graph, test_pairs, metapaths)
    model = train_logistic(features_train, [r.label for r in train_rows], l2_strength=0.01)
    holdout_auc = auc(predict(model, features_test), [r.label for r in test_rows])
    total_s = time.perf_counter() - t_start

    return {
        "spec": spec,
        "graph": graph,
        "train_rows": train_rows,
        "test_rows": test_rows,
        "positives": positives,
        "search": search,
        "result": result,
        "holdout_auc": holdout_auc,
        "total_s": total_s,
    }


def test_criterion_01_walk_oracle_equivalence():
    t0 = time.perf_counter()
    paths_checked = 0
    for i in range(N_CORPUS_GRAPHS):
        graph, _ = corpus_graph(i)
        for path in enumerate_metapaths(graph, "Object", "Object", 4):
            paths_checked += 1
            rows = walk_rows(graph, range(graph.n_entities), path)  # one walk_mass call
            for source, mass in zip(graph.entities, rows):
                oracle = oracle_distribution(graph, source, path)
                assert set(mass) == set(oracle)
                for target, prob in oracle.items():
                    assert abs(mass[target] - prob) <= 1e-12
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    report(
        1,
        f"walk_mass on {paths_checked} meta-paths over {N_CORPUS_GRAPHS} graphs, "
        f"every source row within 1e-12 of the instance sums, {elapsed:.1f}s",
    )


def test_criterion_02_commuting_matrix_equivalence():
    t0 = time.perf_counter()
    entries_checked = 0
    for i in range(N_CORPUS_GRAPHS):
        graph, _ = corpus_graph(i)
        for path in enumerate_metapaths(graph, "Object", "Object", 4):
            matrix = commuting_matrix(graph, path)
            col_index = {graph.entities[e]: j for j, e in enumerate(matrix.cols.tolist())}
            dense = matrix.matrix.toarray()
            for row_pos, e in enumerate(matrix.rows.tolist()):
                counts = oracle_counts(graph, graph.entities[e], path)
                row = dense[row_pos]
                for target, n in counts.items():
                    assert row[col_index[target]] == n
                assert row.sum() == sum(counts.values())  # no extra nonzeros
                entries_checked += len(counts)
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    report(2, f"{entries_checked} nonzero entries equal brute-force counts exactly, {elapsed:.1f}s")


def test_criterion_03_fixture_regression(g1, g2, p_star):
    graph1, _ = g1
    founders = parse_metapath("Person -found-> Organization -found~-> Person")
    assert build_features(graph1, [("p1", "p2")], [founders]).values[0, 0] == 0.5

    graph2, _ = g2
    assert build_features(graph2, [("v1", "v2")], [p_star]).values[0, 0] == 0.25

    result = generate_paths(graph2, ExamplePairSet([("v1", "v2")]), SearchConfig(max_paths=1))
    (emitted,) = result.paths
    assert emitted.metapath.relations == p_star.relations
    assert str(emitted.metapath) == P_STAR
    assert emitted.metapath.node_types == ("Venue", "Paper", "Author", "Paper", "Venue")
    report(3, "f(p1,p2)=0.5, f(v1,v2|P*)=0.25, first emission types Venue-Paper-Author-Paper-Venue")


def test_criterion_04_planted_rule_link_prediction(planted_pipeline):
    pipe = planted_pipeline
    signatures = {
        tuple((r.name, r.inverted) for r in p.metapath.relations) for p in pipe["result"].paths
    }
    planted_sig = tuple((r.name, r.inverted) for r in pipe["spec"].planted.relations)
    assert planted_sig in signatures
    typed = {str(p.metapath) for p in pipe["result"].paths}
    assert str(pipe["spec"].planted) in typed

    assert pipe["holdout_auc"] >= 0.95
    assert pipe["total_s"] < 120.0
    report(
        4,
        f"planted path emitted, held-out AUC {pipe['holdout_auc']:.3f} >= 0.95, "
        f"end-to-end {pipe['total_s']:.1f}s < 120s",
    )


def test_criterion_05_length_one_degradation(planted_pipeline):
    pipe = planted_pipeline
    graph = pipe["graph"]
    paths_l1 = enumerate_metapaths(graph, "A", "C", 1)
    train_pairs = [(r.source, r.target) for r in pipe["train_rows"]]
    test_pairs = [(r.source, r.target) for r in pipe["test_rows"]]
    features_train = build_features(graph, train_pairs, paths_l1)
    features_test = build_features(graph, test_pairs, paths_l1)
    model = train_logistic(features_train, [r.label for r in pipe["train_rows"]], 0.01)
    auc_l1 = auc(predict(model, features_test), [r.label for r in pipe["test_rows"]])
    assert auc_l1 <= pipe["holdout_auc"] - 0.2
    report(
        5,
        f"length-1 baseline AUC {auc_l1:.3f} <= planted {pipe['holdout_auc']:.3f} - 0.2 "
        f"({len(paths_l1)} direct-link paths)",
    )


def test_criterion_06_efficiency_margin(planted_pipeline):
    pipe = planted_pipeline
    config = BenchConfig(
        lengths=(4,),
        example_sizes=(100,),
        repeats=3,
        timeout_s=300.0,
        search=pipe["search"],
    )
    bench = run_benchmark(pipe["graph"], pipe["positives"], config)
    tree_row = next(r for r in bench.rows if r["method"] == "tree-search")
    enum_row = next(r for r in bench.rows if r["method"] == "enumerate-l4")
    assert not enum_row["censored"]
    assert tree_row["median_s"] <= enum_row["median_s"] / 5.0
    report(
        6,
        f"tree search median {tree_row['median_s']:.2f}s vs length-4 enumeration "
        f"{enum_row['median_s']:.2f}s ({enum_row['median_s'] / tree_row['median_s']:.1f}x margin)",
    )


def test_criterion_07_gradient_check():
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(4, 25))
        d = int(rng.integers(1, 5))
        X = rng.uniform(0, 1, size=(n, d))
        y = rng.integers(0, 2, size=n).astype(float)
        y[0], y[1] = 0, 1
        model = LogisticModel(
            weights=rng.normal(size=d),
            bias=float(rng.normal()),
            l2_strength=float(rng.uniform(0, 0.5)),
        )
        analytic = gradient(model, X, y)
        h = 1e-5
        numeric = np.zeros_like(analytic)
        for k in range(d):
            bump = np.zeros(d)
            bump[k] = h
            up = LogisticModel(model.weights + bump, model.bias, model.l2_strength)
            down = LogisticModel(model.weights - bump, model.bias, model.l2_strength)
            numeric[k] = (log_likelihood(up, X, y) - log_likelihood(down, X, y)) / (2 * h)
        up = LogisticModel(model.weights, model.bias + h, model.l2_strength)
        down = LogisticModel(model.weights, model.bias - h, model.l2_strength)
        numeric[-1] = (log_likelihood(up, X, y) - log_likelihood(down, X, y)) / (2 * h)
        rel = np.linalg.norm(analytic - numeric) / max(np.linalg.norm(analytic), 1e-12)
        worst = max(worst, rel)
        assert rel <= 1e-6
    report(7, f"50 instances, worst relative gradient error {worst:.2e} <= 1e-6")


def test_criterion_08_auc_oracle():
    rng = random.Random(99)
    for _ in range(100):
        n = rng.randint(2, 1000)
        grid = [i / 8 for i in range(9)]
        scores = [rng.choice(grid) for _ in range(n)]
        labels = [rng.randint(0, 1) for _ in range(n)]
        if sum(labels) in (0, n):
            labels[0] = 1 - labels[0]
        assert auc(scores, labels) == auc_pairwise(scores, labels)
    report(8, "rank-sum AUC equals exhaustive pairwise counting on 100 vectors (n <= 1000)")


def test_criterion_09_search_order_and_determinism():
    pops_checked = 0
    for i in range(50):
        graph, _ = random_typed_graph(3000 + i, max_entities=10)
        rng = random.Random(4000 + i)
        names = list(graph.entities)
        pairs = [(rng.choice(names), rng.choice(names)) for _ in range(2)]
        config = SearchConfig(max_paths=3, max_depth=3, node_budget=5000)

        runs = []
        for _ in range(2):
            result = generate_paths(graph, ExamplePairSet(pairs), config, record_trace=True)
            runs.append(result)
        for event, popped_key, next_key, _, _ in runs[0].tree.trace:
            if next_key is not None:
                assert popped_key <= next_key
                pops_checked += 1
        first, second = ([p.metapath.relations for p in run.paths] for run in runs)
        assert first == second
        assert runs[0].tree.trace == runs[1].tree.trace
    report(9, f"{pops_checked} instrumented pops all maximal under the tie-break; reruns identical")


def test_criterion_10_similarity_case_study(tmp_path):
    spec = BibliographicSpec(n_areas=3, venues_per_area=10, authors_per_area=40, seed=7)
    graph, _, pairs, venue_area = bibliographic_graph(spec)
    assert len(venue_area) == 30

    result = generate_paths(graph, ExamplePairSet(pairs), SearchConfig(max_paths=6, max_depth=6))
    venue_paths = [
        p.metapath
        for p in result.paths
        if p.metapath.source_type == "Venue" and p.metapath.target_type == "Venue"
    ]
    assert venue_paths
    index = build_index(graph, venue_paths)  # uniform theta

    for venue, area in sorted(venue_area.items()):
        ranked = top_k(index, venue, 5)
        assert ranked, f"no similar venues for {venue}"
        for neighbor, score in ranked:
            assert venue_area[neighbor] == area
            assert score > 0

    model = LogisticModel(weights=index.theta, bias=0.0, l2_strength=0.0, fit_bias=False)
    target = tmp_path / "simsearch_model.tsv"
    save_model(target, model, venue_paths)
    loaded, loaded_paths = load_model(target)
    assert loaded.weights.tolist() == index.theta.tolist()
    assert loaded_paths == tuple(venue_paths)
    assert target.read_bytes() == _resave(loaded, loaded_paths, tmp_path)
    report(
        10,
        f"top-5 of all 30 venues stay in-area over {len(venue_paths)} generated paths; "
        "model round-trip bit-exact",
    )


def _resave(model, paths, tmp_path):
    second = tmp_path / "resaved.tsv"
    save_model(second, model, list(paths))
    return second.read_bytes()
