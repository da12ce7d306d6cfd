import math

import pytest

from hinwalk import BudgetExceededError, SearchConfig, walks
from hinwalk.bench import BenchConfig, run_benchmark


def test_g1_bundle_all_cells_fast(g1):
    graph, _ = g1
    config = BenchConfig(
        lengths=(1, 2), example_sizes=(1,), repeats=3, search=SearchConfig(max_paths=2, max_depth=3)
    )
    report = run_benchmark(graph, [("p1", "p2")], config)
    methods = [r["method"] for r in report.rows]
    assert methods == ["tree-search", "enumerate-l1", "enumerate-l2"]
    for row in report.rows:
        assert row["median_s"] < 1.0
        assert not row["censored"]
        assert len(row["runs_s"]) == 3
    # the two-step enumeration realizes the founders round trip
    assert report.rows[2]["paths"] >= 1
    assert "tree-search" in report.table()


def test_tree_search_row_reports_a_budget_stop(g2):
    graph, _ = g2
    config = BenchConfig(
        lengths=(1,), example_sizes=(1,), repeats=1, search=SearchConfig(node_budget=2)
    )
    report = run_benchmark(graph, [("v1", "v2")], config)
    tree_row = report.rows[0]
    assert tree_row["method"] == "tree-search"
    assert tree_row["status"] == "budget"
    assert tree_row["paths"] == 0
    assert "status" not in report.rows[1]
    lines = report.table().splitlines()
    assert lines[0].split()[-1] == "status"
    assert lines[2].split()[-1] == "budget"
    assert lines[3].split()[-1] == "-"


def test_zero_lengths_rejected():
    with pytest.raises(ValueError, match="lengths"):
        BenchConfig(lengths=())


def test_zero_sizes_rejected():
    with pytest.raises(ValueError, match="example_sizes"):
        BenchConfig(example_sizes=())


@pytest.mark.parametrize("sizes", [(0,), (-1,), (5, -1)])
def test_sizes_below_one_rejected(sizes):
    with pytest.raises(ValueError, match="example_sizes must be >= 1"):
        BenchConfig(example_sizes=sizes)


def test_timeout_censors_cell(g2):
    graph, _ = g2
    # a timeout far below one enumeration's duration (a timeout must be > 0)
    config = BenchConfig(lengths=(4,), example_sizes=(1,), repeats=2, timeout_s=1e-9)
    report = run_benchmark(graph, [("v1", "v2")], config)
    enum_row = report.rows[1]
    assert enum_row["censored"]
    assert enum_row["median_s"] == 1e-9
    assert len(enum_row["runs_s"]) == 1  # censored cells are not rerun


def test_nnz_refusal_is_not_censored(g2, monkeypatch):
    graph, _ = g2
    config = BenchConfig(lengths=(2,), example_sizes=(1,), repeats=1, timeout_s=300.0)
    monkeypatch.setattr(walks, "NNZ_BUDGET", 1)
    with pytest.raises(BudgetExceededError, match="nnz"):
        run_benchmark(graph, [("v1", "v2")], config)


def test_empty_subset_rejected(g1):
    graph, _ = g1
    with pytest.raises(ValueError, match="no pairs"):
        run_benchmark(graph, [], BenchConfig(example_sizes=(5,)))


@pytest.mark.parametrize("timeout", [0.0, -0.0, -5.0, math.nan, math.inf, -math.inf])
def test_timeout_not_finite_and_positive_rejected(timeout):
    with pytest.raises(ValueError, match="timeout_s must be finite and > 0"):
        BenchConfig(timeout_s=timeout)
