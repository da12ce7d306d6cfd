"""One timed run of one benchmark workload, in a fresh process.

    python3 perfbench/worker.py WORKLOAD BUNDLE_DIR SEED REP TRACE

Setup loads the bundle with the ``hinwalk.io`` loaders and builds the graph.
Solve runs the workload from the built graph to its answer. The answer is
then checked, outside every timed span, and one JSON record is printed on
stdout. A fresh process per run keeps the program's per-graph step-matrix
cache and its search-tree garbage from leaking into the next run.
"""

from __future__ import annotations

import json
import random
import resource
import sys
import time
from collections import Counter
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np  # noqa: E402

from hinwalk import (  # noqa: E402
    ExamplePairSet,
    SearchConfig,
    auc,
    build_features,
    build_graph,
    build_index,
    commuting_matrix,
    enumerate_metapaths,
    enumerate_path_instances,
    generate_paths,
    instance_probability,
    parse_metapath,
    predict,
    top_k,
    train_logistic,
)
from hinwalk import io as hio  # noqa: E402
from hinwalk.models import gradient  # noqa: E402

from inputs import RULE  # noqa: E402
from spans import Tracer  # noqa: E402

K = 10
QUERIES_PER_WORKER = 2000
CHECK_CELLS = 40  # half drawn from stored non-zeros, half uniform
AUTHOR_PATH = parse_metapath(
    "Author -authorOf-> Paper -publishIn-> Venue -publishIn~-> Paper -authorOf~-> Author"
)


def _maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _pairs(rows):
    return [(r.source, r.target) for r in rows]


def _labels(rows):
    return [r.label for r in rows]


class Run:
    """Timings, counters and check failures of one workload run."""

    def __init__(self, workload: str, bundle: Path, seed: int, rep: int, traced: bool):
        self.workload = workload
        self.bundle = bundle
        self.traced = traced
        self.tracer = Tracer(f"{workload}-s{seed}-r{rep}", traced)
        self.query_rng = random.Random(f"queries-{seed}-{rep}")
        self.check_rng = random.Random(f"checks-{seed}")
        self.failures: list[str] = []
        self.counters: dict[str, float] = {}
        self.query_failures = 0
        self.model: list[str] | None = None  # weights and bias as float.hex()

    def check(self, ok: bool, message: str) -> None:
        if not ok:
            self.failures.append(message)

    # -- setup --

    def setup(self):
        call = self.tracer.call
        b = self.bundle
        rss0 = _maxrss_mb()
        t0 = time.perf_counter()
        with self.tracer.span("setup"):
            edges = call("io.load_edges", hio.load_edges, b / "edges.tsv")
            types = call("io.load_types", hio.load_types, b / "types.tsv")
            hierarchy = call("io.load_hierarchy", hio.load_hierarchy, b / "hierarchy.tsv")
            train = call("io.load_examples", hio.load_examples, b / "examples_train.tsv")
            test = []
            if (b / "examples_test.tsv").is_file():
                test = call("io.load_examples", hio.load_examples, b / "examples_test.tsv")
            graph, _ = call("graph.build_graph", build_graph, edges, types, hierarchy)
        self.setup_s = time.perf_counter() - t0
        self.counters["io.records"] = len(edges) + len(types) + len(hierarchy) + len(train) + len(test)
        self.counters["graph.entities"] = graph.n_entities
        self.counters["graph.rss_mb"] = _maxrss_mb() - rss0
        return graph, train, test

    # -- timed pieces of solve shared by the workloads --

    def search(self, graph, pairs, config):
        self.search_result = self.tracer.call(
            "treesearch.generate_paths", generate_paths, graph, ExamplePairSet(pairs), config,
            record_trace=self.traced,
        )
        return self.search_result

    def features(self, graph, pairs, paths):
        matrix = self.tracer.call("models.build_features", build_features, graph, pairs, paths)
        c = self.counters
        c["models.walks"] = c.get("models.walks", 0) + len({s for s, _ in pairs}) * len(paths)
        c["models.cells"] = c.get("models.cells", 0) + matrix.values.size
        c["models.hits"] = c.get("models.hits", 0) + int(np.count_nonzero(matrix.values))
        return matrix

    def _tree_counters(self, result) -> None:
        tuples = 0
        stack = [result.tree.root]
        while stack:
            node = stack.pop()
            tuples += len(node.tuples)
            stack.extend(node.children.values())
        events = Counter(event[0] for event in result.tree.trace)
        c = self.counters
        c["treesearch.nodes_created"] = result.tree.nodes_created
        c["treesearch.tuples"] = tuples
        c["treesearch.paths_emitted"] = len(result.paths)
        c["treesearch.expanded"] = events["expand"]
        c["treesearch.dropped"] = events["drop"]

    # -- workloads: solve, then check --

    def lp_planted(self, graph, train, test):
        result = self.search(graph, _pairs(r for r in train if r.label == 1), SearchConfig(
            beta=0.6, max_paths=20, max_depth=6))
        paths = [p.metapath for p in result.paths]
        train_x = self.features(graph, _pairs(train), paths)
        test_x = self.features(graph, _pairs(test), paths)
        model = self.tracer.call(
            "models.train_logistic", train_logistic, train_x, _labels(train), l2_strength=0.01
        )
        scores = self.tracer.call("models.predict", predict, model, test_x)
        held_out = self.tracer.call("models.auc", auc, scores, _labels(test))

        def checks():
            self.check(RULE.signature() in {p.signature() for p in paths},
                       "planted path not among the emitted paths")
            self.check(held_out >= 0.95, f"held-out AUC {held_out:.4f} < 0.95")
            grad = gradient(model, train_x.values, _labels(train))
            self.counters["models.train_grad_norm"] = float(np.max(np.abs(grad)))
            self.model = [float(w).hex() for w in model.weights] + [float(model.bias).hex()]

        return checks

    def enum_baseline(self, graph, train, test):
        positives = _pairs(r for r in train if r.label == 1)
        self.search(graph, positives, SearchConfig(beta=0.6, max_paths=10, max_depth=4))
        enumerated = self.tracer.call(
            "walks.enumerate_metapaths", enumerate_metapaths, graph,
            RULE.source_type, RULE.target_type, 4,
        )
        self.counters["walks.metapaths"] = len(enumerated)
        scores = self.features(graph, positives, enumerated)

        def checks():
            self.check(RULE.signature() in {p.signature() for p in enumerated},
                       "planted sequence not among the enumerated paths")
            self.check_feature_cells(graph, positives, enumerated, scores.values)

        return checks

    def simsearch_biblio(self, graph, train, test):
        result = self.search(graph, _pairs(train), SearchConfig(
            beta=0.6, max_paths=6, max_depth=6))
        venue_paths = [
            p.metapath for p in result.paths
            if p.metapath.source_type == "Venue" and p.metapath.target_type == "Venue"
        ]
        call = self.tracer.call
        indexes = [
            call("simsearch.build_index", build_index, graph, venue_paths),
            call("simsearch.build_index", build_index, graph, [AUTHOR_PATH]),
        ]
        # one client's closed loop of top_k calls, rows drawn uniformly over
        # every row of both indexes: top_k finds its row by a linear scan, so a
        # prefix of rows would hide the cost of the later ones
        rows = [(index, q) for index in indexes for q in index.row_entities]
        answers = []
        for _ in range(QUERIES_PER_WORKER):
            index, q = rows[self.query_rng.randrange(len(rows))]
            try:
                answers.append((q, call("simsearch.top_k", top_k, index, q, K)))
            except Exception as exc:  # a query that raises is a failed operation
                answers.append((q, exc))
        self.counters["simsearch.queries"] = len(answers)
        self.counters["simsearch.index_nnz"] = sum(index.matrix.nnz for index in indexes)

        def checks():
            self.check(bool(venue_paths), "no Venue-to-Venue path generated")
            area = dict(
                line.split("\t") for line in
                (self.bundle / "areas.tsv").read_text(encoding="utf-8").splitlines()
            )
            for q, answer in answers:
                if isinstance(answer, Exception) or not answer or any(
                    area[e] != area[q] for e, _ in answer
                ):
                    self.query_failures += 1
            for index in indexes:
                self.check_index_cells(graph, index)

        return checks

    # -- oracles --

    def check_feature_cells(self, graph, pairs, paths, values) -> None:
        """Sampled (pair, path) walk scores against the DFS oracle, to 1e-12."""
        rng = self.check_rng
        nonzero = list(zip(*np.nonzero(values)))
        cells = rng.sample(nonzero, min(len(nonzero), CHECK_CELLS // 2))
        cells += [(rng.randrange(len(pairs)), rng.randrange(len(paths)))
                  for _ in range(CHECK_CELLS // 2)]
        for i, j in cells:
            s, t = pairs[i]
            oracle = sum(
                instance_probability(graph, inst, paths[j])
                for inst in enumerate_path_instances(graph, s, paths[j])
                if inst[-1] == t
            )
            self.check(abs(values[i, j] - oracle) <= 1e-12,
                       f"feature ({s}, {t}) x {paths[j]}: {values[i, j]!r} != oracle {oracle!r}")

    def check_index_cells(self, graph, index) -> None:
        """Sampled index cells against theta-weighted commuting_matrix counts."""
        rng = self.check_rng
        counts = [commuting_matrix(graph, mp) for mp in index.metapaths]
        m = index.matrix.tocoo()
        stored = rng.sample(range(m.nnz), min(m.nnz, CHECK_CELLS // 2))
        cells = [(index.row_entities[m.row[k]], index.col_entities[m.col[k]]) for k in stored]
        cells += [(rng.choice(index.row_entities), rng.choice(index.col_entities))
                  for _ in range(CHECK_CELLS // 2)]
        for row, col in cells:
            expected = sum(
                w * c.count(row, col) for w, c in zip(index.theta, counts)
                if row in c.row_entities and col in c.col_entities
            )
            got = index.score(row, col)
            self.check(abs(got - expected) <= 1e-12 * max(1.0, abs(expected)),
                       f"index cell ({row}, {col}): {got!r} != {expected!r}")

    # -- one run --

    def execute(self) -> dict:
        graph, train, test = self.setup()
        solve = getattr(self, self.workload.replace("-", "_"))
        t0 = time.perf_counter()
        with self.tracer.span("solve"):
            checks = solve(graph, train, test)
        solve_s = time.perf_counter() - t0
        peak_rss_mb = _maxrss_mb()
        checks()
        if self.traced:
            self._tree_counters(self.search_result)
        return {
            "setup_s": self.setup_s,
            "solve_s": solve_s,
            "peak_rss_mb": peak_rss_mb,
            "query_failures": self.query_failures,
            "failures": self.failures,
            "model": self.model,
            "counters": self.counters,
            "spans": self.tracer.spans,
        }


def main(argv: list[str]) -> None:
    workload, bundle, seed, rep, trace = argv
    run = Run(workload, Path(bundle), int(seed), int(rep), trace == "1")
    print(json.dumps(run.execute()))


if __name__ == "__main__":
    main(sys.argv[1:])
