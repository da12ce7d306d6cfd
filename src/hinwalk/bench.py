"""Wall-clock comparison of tree search against fixed-length enumeration."""

from __future__ import annotations

import math
import statistics
import time
from dataclasses import dataclass, field
from typing import Sequence

from .errors import BudgetExceededError
from .graph import HinGraph
from .models import build_features
from .treesearch import ExamplePairSet, SearchConfig, generate_paths
from .walks import enumerate_metapaths


@dataclass(frozen=True)
class BenchConfig:
    lengths: tuple[int, ...] = (1, 2, 3, 4)
    example_sizes: tuple[int, ...] = (10, 50, 100)
    repeats: int = 3
    timeout_s: float = 300.0
    search: SearchConfig = field(default_factory=SearchConfig)

    def __post_init__(self):
        for name, values in (("lengths", self.lengths), ("example_sizes", self.example_sizes)):
            if not values:
                raise ValueError(f"{name} must be non-empty")
            if min(values) < 1:
                raise ValueError(f"{name} must be >= 1, got {values}")
        if self.repeats < 1:
            raise ValueError(f"repeats must be >= 1, got {self.repeats}")
        if not 0 < self.timeout_s < math.inf:  # false for nan too
            raise ValueError(f"timeout_s must be finite and > 0, got {self.timeout_s}")


@dataclass
class BenchReport:
    rows: list[dict]

    def table(self) -> str:
        header = (
            f"{'method':<16} {'examples':>8} {'median_s':>10} {'paths':>6} {'censored':>8} "
            f"{'status':>9}"
        )
        lines = [header, "-" * len(header)]
        for r in self.rows:  # only the tree search has a status
            lines.append(
                f"{r['method']:<16} {r['examples']:>8} {r['median_s']:>10.3f} "
                f"{r['paths']:>6} {str(r['censored']):>8} {r.get('status', '-'):>9}"
            )
        return "\n".join(lines)


def run_benchmark(
    graph: HinGraph, pairs: Sequence[tuple[str, str]], config: BenchConfig = BenchConfig()
) -> BenchReport:
    """Median-of-N wall times for path generation over example-set sizes.

    One row per (method, example count): the tree search, with its search
    status, then enumeration plus feature scoring for each fixed length. A
    cell exceeding the timeout is recorded as censored at the timeout value,
    not rerun and not fatal.
    """
    rows: list[dict] = []
    for n in config.example_sizes:
        subset = list(pairs[:n])
        if not subset:
            raise ValueError(f"example size {n} leaves no pairs to benchmark")
        source_type = graph.lca_type([graph.entity_index(s) for s, _ in subset])
        target_type = graph.lca_type([graph.entity_index(t) for _, t in subset])

        runs: list[float] = []
        for _ in range(config.repeats):
            examples = ExamplePairSet(subset)
            t0 = time.perf_counter()
            result = generate_paths(graph, examples, config.search)
            runs.append(time.perf_counter() - t0)
        rows.append(
            {
                "method": "tree-search",
                "examples": len(subset),
                "runs_s": runs,
                "median_s": statistics.median(runs),
                "paths": len(result.paths),
                "censored": False,
                "status": result.status,
            }
        )

        for length in config.lengths:
            runs = []
            n_paths = 0
            censored = False
            for _ in range(config.repeats):
                deadline = time.monotonic() + config.timeout_s
                t0 = time.perf_counter()
                try:
                    paths = enumerate_metapaths(
                        graph, source_type, target_type, length, deadline=deadline
                    )
                    build_features(graph, subset, paths, deadline=deadline)
                except BudgetExceededError:
                    if time.monotonic() <= deadline:
                        raise  # refused over walks.NNZ_BUDGET, not timed out
                    censored = True
                    runs.append(config.timeout_s)
                    break
                runs.append(time.perf_counter() - t0)
                n_paths = len(paths)
            rows.append(
                {
                    "method": f"enumerate-l{length}",
                    "examples": len(subset),
                    "runs_s": runs,
                    "median_s": statistics.median(runs),
                    "paths": n_paths,
                    "censored": censored,
                }
            )
    return BenchReport(rows)
