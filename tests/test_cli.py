import shutil

import pytest

from hinwalk import SearchConfig, parse_metapath, walks
from hinwalk.bench import BenchConfig
from hinwalk.cli import build_parser, main
from hinwalk.io import read_report
from hinwalk.synth import SyntheticSpec


@pytest.fixture
def workdir(tmp_path, g2_dir):
    for name in ("edges.tsv", "types.tsv", "hierarchy.tsv", "examples.tsv"):
        shutil.copy(g2_dir / name, tmp_path / name)
    return tmp_path


def bundle_args(d):
    return [
        "--edges", str(d / "edges.tsv"),
        "--types", str(d / "types.tsv"),
        "--hierarchy", str(d / "hierarchy.tsv"),
    ]


def test_generate_paths_writes_outputs(workdir, capsys):
    report = workdir / "report.jsonl"
    paths_out = workdir / "paths.txt"
    code = main(
        ["generate-paths", *bundle_args(workdir), "--examples", str(workdir / "examples.tsv"),
         "--max-paths", "2", "--output", str(report), "--paths-out", str(paths_out)]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "status: ok" in out
    header, rows = read_report(report)
    assert header["report"] == "generate-paths"
    assert rows[0]["path"].startswith("Venue -publishIn~-> Paper")
    assert rows[0]["scores"] == [["v1", "v2", 0.25]]
    lines = paths_out.read_text().strip().splitlines()
    assert len(lines) == 2


def test_full_link_prediction_chain(workdir, tmp_path):
    paths_out = workdir / "paths.txt"
    assert main(
        ["generate-paths", *bundle_args(workdir), "--examples", str(workdir / "examples.tsv"),
         "--max-paths", "2", "--paths-out", str(paths_out)]
    ) == 0

    labeled = workdir / "labeled.tsv"
    labeled.write_text("v1\tv2\t1.0\t1\nv1\tv3\t1.0\t1\nv2\tv3\t1.0\t0\nv3\tv2\t1.0\t0\n")
    model_file = workdir / "model.tsv"
    assert main(
        ["train-lp", *bundle_args(workdir), "--examples", str(labeled),
         "--paths", str(paths_out), "--model-out", str(model_file)]
    ) == 0
    assert model_file.exists()

    predictions = workdir / "pred.jsonl"
    assert main(
        ["predict-lp", *bundle_args(workdir), "--model", str(model_file),
         "--pairs", str(labeled), "--output", str(predictions)]
    ) == 0
    header, rows = read_report(predictions)
    assert header["report"] == "predict-lp"
    assert len(rows) == 4
    assert all(0.0 <= r["probability"] <= 1.0 for r in rows)

    assert main(["eval-auc", "--predictions", str(predictions)]) == 0


def test_score_command(workdir, capsys):
    paths_file = workdir / "paths.txt"
    paths_file.write_text(
        "Venue -publishIn~-> Paper -authorOf~-> Author -authorOf-> Paper -publishIn-> Venue\n"
    )
    pairs = workdir / "pairs.tsv"
    pairs.write_text("v1\tv2\nv1\tv3\n")
    report = workdir / "scores.jsonl"
    code = main(
        ["score", *bundle_args(workdir), "--paths", str(paths_file),
         "--pairs", str(pairs), "--output", str(report)]
    )
    assert code == 0
    _, rows = read_report(report)
    assert rows == [
        {"source": "v1", "target": "v2", "scores": [0.25]},
        {"source": "v1", "target": "v3", "scores": [0.25]},
    ]
    assert "v1\tv2\t0.25" in capsys.readouterr().out


def test_simsearch_command(workdir, capsys):
    paths_file = workdir / "paths.txt"
    paths_file.write_text(
        "Venue -publishIn~-> Paper -authorOf~-> Author -authorOf-> Paper -publishIn-> Venue\n"
    )
    report = workdir / "sim.jsonl"
    code = main(
        ["simsearch", *bundle_args(workdir), "--paths", str(paths_file),
         "--query", "v1", "--k", "2", "--theta", "1.0", "--output", str(report)]
    )
    assert code == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert out[0] == "1\tv2\t1"
    assert out[1] == "2\tv3\t1"
    header, rows = read_report(report)
    assert header["query"] == "v1"
    assert rows[0] == {"rank": 1, "entity": "v2", "score": 1.0}


def test_simsearch_chains_from_examples(workdir, capsys):
    report = workdir / "sim.jsonl"
    code = main(
        ["simsearch", *bundle_args(workdir), "--examples", str(workdir / "examples.tsv"),
         "--max-paths", "2", "--max-depth", "4", "--query", "v1", "--k", "2",
         "--output", str(report)]
    )
    assert code == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert out[0].startswith("1\tv2")
    header, _ = read_report(report)
    assert header["paths"]  # generated in the same invocation


def test_simsearch_requires_paths_or_examples(workdir):
    assert main(["simsearch", *bundle_args(workdir), "--query", "v1"]) == 3


def test_synth_seed_reproducible(tmp_path):
    argv = ["synth", "--type-counts", "A=30,B=30,C=30",
            "--planted", "A -r_ab-> B -r_bc-> C", "--pairs", "5", "--seed", "11",
            "--distractors", "1"]
    assert main(argv + ["--out-dir", str(tmp_path / "one")]) == 0
    assert main(argv + ["--out-dir", str(tmp_path / "two")]) == 0
    for name in ("edges.tsv", "types.tsv", "hierarchy.tsv", "examples_train.tsv", "examples_test.tsv"):
        assert (tmp_path / "one" / name).read_bytes() == (tmp_path / "two" / name).read_bytes()


@pytest.mark.parametrize(
    "argv, reason",
    [
        (["--type-counts", "A=3,B=3", "--planted", "A -r-> B", "--pairs", "1", "--noise-rate", "0",
          "--distractors", "0", "--noise-relations", "0"], "only 0 unconnected pairs exist"),
        (["--type-counts", "=3,A=30,B=30", "--planted", "A -r-> B", "--pairs", "5"],
         "empty type id"),
        (["--type-counts", "A=30,B=30", "--planted", "A -r-> B", "--pairs", "5",
          "--noise-relations", "0", "--noise-rate", "0.2"], "noise_relation_count >= 1"),
        (["--type-counts", "A=30,B=30,C=-3", "--planted", "A -r-> B", "--pairs", "5"],
         "type 'C' needs at least 1 entity, got -3"),
    ],
    ids=["every-pair-connected", "empty-type-name", "noise-without-relations",
         "unplanted-type-without-entities"],
)
def test_unsatisfiable_synth_spec_exits_3(tmp_path, capsys, argv, reason):
    assert main(["synth", "--out-dir", str(tmp_path / "out"), *argv]) == 3
    assert reason in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_synth_and_bench_commands(tmp_path, capsys):
    out_dir = tmp_path / "synth"
    synth_report = tmp_path / "synth.jsonl"
    code = main(
        ["synth", "--out-dir", str(out_dir), "--type-counts", "A=30,B=30,C=30",
         "--planted", "A -r_ab-> B -r_bc-> C", "--pairs", "5", "--seed", "11",
         "--distractors", "1", "--output", str(synth_report)]
    )
    assert code == 0
    assert (out_dir / "edges.tsv").exists()
    header, synth_rows = read_report(synth_report)
    assert header["seed"] == 11
    assert len(synth_rows) == 5
    capsys.readouterr()

    report = tmp_path / "bench.jsonl"
    code = main(
        ["bench", "--edges", str(out_dir / "edges.tsv"), "--types", str(out_dir / "types.tsv"),
         "--hierarchy", str(out_dir / "hierarchy.tsv"), "--examples", str(out_dir / "examples_train.tsv"),
         "--lengths", "1,2", "--sizes", "3", "--repeats", "1", "--max-paths", "2",
         "--max-depth", "2", "--output", str(report)]
    )
    assert code == 0
    assert "tree-search" in capsys.readouterr().out
    _, rows = read_report(report)
    assert [r["method"] for r in rows] == ["tree-search", "enumerate-l1", "enumerate-l2"]


def test_bench_size_below_one_is_precondition(workdir, capsys):
    code = main(
        ["bench", *bundle_args(workdir), "--examples", str(workdir / "examples.tsv"),
         "--sizes", "-1", "--lengths", "1", "--repeats", "1"]
    )
    assert code == 3
    assert "example_sizes must be >= 1" in capsys.readouterr().err


def test_option_defaults_are_the_library_defaults():
    parser = build_parser()
    bundle = ["--edges", "e.tsv", "--examples", "x.tsv"]
    bench = parser.parse_args(["bench", *bundle])
    search = SearchConfig()
    assert (bench.beta, bench.max_paths, bench.max_depth, bench.node_budget) == (
        search.beta, search.max_paths, search.max_depth, search.node_budget
    )
    config = BenchConfig()
    assert (tuple(bench.lengths), tuple(bench.sizes), bench.repeats, bench.timeout) == (
        config.lengths, config.example_sizes, config.repeats, config.timeout_s
    )
    synth = parser.parse_args(["synth", "--out-dir", "o", "--type-counts", "A=1", "--planted", "A"])
    spec = SyntheticSpec({"A": 1}, parse_metapath("A"))
    assert (
        synth.noise_rate, synth.seed, synth.out_degree, synth.distractors,
        synth.noise_relations, synth.pairs,
    ) == (
        spec.noise_rate, spec.seed, spec.out_degree, spec.distractor_relations,
        spec.noise_relation_count, spec.n_pairs,
    )


def test_parse_error_exit_code(tmp_path):
    bad = tmp_path / "edges.tsv"
    bad.write_text("only two\tfields\n")
    examples = tmp_path / "ex.tsv"
    examples.write_text("a\tb\n")
    code = main(
        ["generate-paths", "--edges", str(bad), "--examples", str(examples)]
    )
    assert code == 2


@pytest.mark.parametrize("weight", ["nan", "inf", "-inf"])
def test_nonfinite_example_weight_is_precondition(workdir, capsys, weight):
    examples = workdir / "weighted.tsv"
    examples.write_text(f"v1\tv2\t{weight}\n")
    code = main(["generate-paths", *bundle_args(workdir), "--examples", str(examples)])
    assert code == 3
    assert "positive and finite" in capsys.readouterr().err


@pytest.mark.parametrize(
    "line",
    [
        "path\t1.0",
        "path\tabc\tVenue -publishIn~-> Paper",
        "path\t1.0\tVenue -publishIn",
        "path\tnan\tVenue -publishIn~-> Paper",
        "bias\t0.0\textra",
        "bias\tabc",
        "fit_bias\t0.5",
        "l2\t0.5",
        "foo\t3",
    ],
)
def test_malformed_model_line_is_parse_error(workdir, capsys, line):
    model_file = workdir / "model.tsv"
    model_file.write_text(f"hinwalk-model\t1\nl2\t0.01\nfit_bias\t1\n{line}\n")
    pairs = workdir / "pairs.tsv"
    pairs.write_text("v1\tv2\n")
    code = main(
        ["predict-lp", *bundle_args(workdir), "--model", str(model_file),
         "--pairs", str(pairs), "--output", str(workdir / "pred.jsonl")]
    )
    assert code == 2
    assert f"{model_file}:4:" in capsys.readouterr().err


@pytest.mark.parametrize("row", ['{"probability": 0.5,', "5"])
def test_malformed_report_is_parse_error(tmp_path, capsys, row):
    report = tmp_path / "pred.jsonl"
    report.write_text('{"report": "predict-lp", "version": 1}\n' + row + "\n")
    assert main(["eval-auc", "--predictions", str(report)]) == 2
    assert f"{report}:2:" in capsys.readouterr().err


def test_report_row_without_probability_is_precondition(tmp_path, capsys):
    report = tmp_path / "pred.jsonl"
    report.write_text('{"report": "predict-lp", "version": 1}\n{"label": 1}\n')
    assert main(["eval-auc", "--predictions", str(report)]) == 3
    assert "probability" in capsys.readouterr().err


@pytest.mark.parametrize("version", ["true", "1.0", "1e0"])
def test_report_version_must_be_the_integer_1(tmp_path, capsys, version):
    # JSON true and 1.0 compare equal to 1 in Python
    report = tmp_path / "pred.jsonl"
    report.write_text(
        f'{{"report": "predict-lp", "version": {version}}}\n'
        '{"probability": 0.3, "label": 0}\n'
        '{"probability": 0.7, "label": 1}\n'
    )
    assert main(["eval-auc", "--predictions", str(report)]) == 3
    assert "unsupported report version" in capsys.readouterr().err


def test_precondition_exit_code(tmp_path, g2_dir):
    empty = tmp_path / "empty.tsv"
    empty.write_text("# no pairs\n")
    code = main(
        ["generate-paths", "--edges", str(g2_dir / "edges.tsv"), "--examples", str(empty)]
    )
    assert code == 3


def test_missing_file_is_precondition(tmp_path):
    code = main(
        ["generate-paths", "--edges", str(tmp_path / "nope.tsv"),
         "--examples", str(tmp_path / "nope2.tsv")]
    )
    assert code == 3


def test_budget_exit_code(workdir):
    code = main(
        ["generate-paths", *bundle_args(workdir), "--examples", str(workdir / "examples.tsv"),
         "--node-budget", "2", "--max-paths", "5"]
    )
    assert code == 4


@pytest.fixture
def hub_dir(tmp_path):
    """p1 -r-> t, and p1 -s-> each of ten E entities."""
    edges = ["p1\tr\tt"] + [f"p1\ts\te{i}" for i in range(10)]
    types = ["p1\tA", "t\tB"] + [f"e{i}\tE" for i in range(10)]
    for name, lines in [
        ("edges.tsv", edges),
        ("types.tsv", types),
        ("hierarchy.tsv", ["A\tObject", "B\tObject", "E\tObject"]),
        ("examples.tsv", ["p1\tt"]),
        ("labeled.tsv", ["p1\te0\t1.0\t1", "p1\tt\t1.0\t0"]),
        ("pairs.tsv", ["p1\te0"]),
        ("paths.txt", ["A -s-> E"]),
    ]:
        (tmp_path / name).write_text("".join(f"{line}\n" for line in lines))
    return tmp_path


# the walk from p1 along A -s-> E stores ten entries
TRAIN_LP = ["train-lp", "--examples", "labeled.tsv", "--paths", "paths.txt", "--model-out", "model.tsv"]


@pytest.mark.parametrize(
    "argv",
    [
        ["generate-paths", "--examples", "examples.tsv"],
        ["score", "--paths", "paths.txt", "--pairs", "pairs.tsv"],
        # the search's first expansion makes the 10-entry s product; at the
        # full budget it emits A -r-> B, whose index holds one entry
        ["simsearch", "--examples", "examples.tsv", "--max-paths", "1", "--query", "p1"],
        TRAIN_LP,
        ["predict-lp", "--model", "model.tsv", "--pairs", "pairs.tsv", "--output", "pred.jsonl"],
        # length-2 enumeration extends p1 along s to ten entities
        ["bench", "--examples", "examples.tsv", "--sizes", "1", "--lengths", "1,2", "--repeats", "1"],
    ],
)
def test_oversized_product_exits_4(hub_dir, monkeypatch, argv):
    def run(argv):
        command, *options = [str(hub_dir / a) if a.endswith((".tsv", ".txt", ".jsonl")) else a
                             for a in argv]
        return main([command, *bundle_args(hub_dir), *options])

    # the model train-lp writes, or the report predict-lp writes
    written = {"train-lp": "model.tsv", "predict-lp": "pred.jsonl"}.get(argv[0])
    if argv[0] == "predict-lp":
        assert run(TRAIN_LP) == 0  # its model, trained at the full budget
    assert run(argv) == 0
    if written:
        (hub_dir / written).unlink()
    monkeypatch.setattr(walks, "NNZ_BUDGET", 5)
    assert run(argv) == 4
    if written:
        assert not (hub_dir / written).exists()


def test_nan_l2_is_precondition(workdir, capsys):
    paths_file = workdir / "paths.txt"
    paths_file.write_text("Venue -publishIn~-> Paper -publishIn-> Venue\n")
    labeled = workdir / "labeled.tsv"
    labeled.write_text("v1\tv2\t1.0\t1\nv2\tv3\t1.0\t0\n")
    code = main(
        ["train-lp", *bundle_args(workdir), "--examples", str(labeled), "--paths",
         str(paths_file), "--l2", "nan", "--model-out", str(workdir / "model.tsv")]
    )
    assert code == 3
    assert "l2_strength must be finite" in capsys.readouterr().err
    assert not (workdir / "model.tsv").exists()


def test_nan_theta_is_precondition(workdir, capsys):
    paths_file = workdir / "paths.txt"
    paths_file.write_text("Venue -publishIn~-> Paper -publishIn-> Venue\n" * 3)
    code = main(
        ["simsearch", *bundle_args(workdir), "--paths", str(paths_file),
         "--query", "v1", "--theta", "nan,nan,nan"]
    )
    assert code == 3
    captured = capsys.readouterr()
    assert "theta must be finite" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("theta", ["1e308,1e308", "1e308,-1e308"], ids=["inf", "nan"])
def test_non_finite_scores_are_precondition(workdir, capsys, theta):
    paths_file = workdir / "paths.txt"
    paths_file.write_text(
        "Venue -publishIn~-> Paper -authorOf~-> Author -authorOf-> Paper -publishIn-> Venue\n" * 2
    )
    report = workdir / "sim.jsonl"
    code = main(
        ["simsearch", *bundle_args(workdir), "--paths", str(paths_file),
         "--query", "v1", "--theta", theta, "--output", str(report)]
    )
    assert code == 3
    captured = capsys.readouterr()
    assert "weighted scores are not finite" in captured.err
    assert captured.out == ""
    assert not report.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["synth", "--out-dir", "out", "--planted", "A -r-> B", "--type-counts", "A=abc"],
        ["synth", "--out-dir", "out", "--planted", "A -r-> B", "--type-counts", "A=5,B"],
        ["synth", "--out-dir", "out", "--planted", "A -r-> B", "--type-counts", "A=3,B=30,A=30"],
        ["bench", "--edges", "e.tsv", "--examples", "x.tsv", "--lengths", "1,x"],
        ["bench", "--edges", "e.tsv", "--examples", "x.tsv", "--sizes", "10,5.5"],
        ["simsearch", "--edges", "e.tsv", "--query", "v1", "--theta", "a,b"],
    ],
    ids=["type-counts-value", "type-counts-entry", "type-counts-repeat", "lengths", "sizes",
         "theta"],
)
def test_malformed_list_option_is_argument_error(tmp_path, capsys, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: hinwalk")
    assert f"argument {argv[-2]}: " in err
    assert not (tmp_path / "out").exists()


def test_infinite_noise_rate_is_precondition(tmp_path, capsys):
    code = main(
        ["synth", "--out-dir", str(tmp_path / "synth"), "--type-counts", "A=30,B=30",
         "--planted", "A -r_ab-> B", "--noise-rate", "inf"]
    )
    assert code == 3
    assert "noise_rate must be finite" in capsys.readouterr().err


def test_label_other_than_zero_and_one_is_precondition(tmp_path, capsys):
    report = tmp_path / "pred.jsonl"
    report.write_text(
        '{"report": "predict-lp", "version": 1}\n'
        '{"probability": 0.3, "label": 0}\n'
        '{"probability": 0.2, "label": 1}\n'
        '{"probability": 0.1, "label": 2}\n'
    )
    assert main(["eval-auc", "--predictions", str(report)]) == 3
    assert "0 or 1" in capsys.readouterr().err


def test_byte_order_marks_read_as_the_plain_files(workdir):
    path = "Venue -publishIn~-> Paper -authorOf~-> Author -authorOf-> Paper -publishIn-> Venue\n"
    (workdir / "paths.txt").write_text(path)
    (workdir / "pairs.tsv").write_text("v1\tv2\nv1\tv3\n")
    marked = workdir / "marked"
    marked.mkdir()
    for name in ("edges.tsv", "types.tsv", "hierarchy.tsv", "paths.txt", "pairs.tsv"):
        (marked / name).write_bytes(b"\xef\xbb\xbf" + (workdir / name).read_bytes())

    def reports(d):
        given = [*bundle_args(d), "--paths", str(d / "paths.txt")]
        assert main(["simsearch", *given, "--query", "v1", "--output", str(d / "sim.jsonl")]) == 0
        assert main(["score", *given, "--pairs", str(d / "pairs.tsv"), "--output", str(d / "s.jsonl")]) == 0
        return (d / "sim.jsonl").read_bytes(), (d / "s.jsonl").read_bytes()

    assert reports(marked) == reports(workdir)


def test_bytes_not_utf8_exit_2_with_file_and_line(workdir, capsys):
    (workdir / "paths.txt").write_text("Venue -publishIn~-> Paper\n")
    edges = workdir / "edges.tsv"
    lines = edges.read_bytes().splitlines(keepends=True)
    lines[1] = b"\xff" + lines[1]
    edges.write_bytes(b"".join(lines))
    code = main(["simsearch", *bundle_args(workdir), "--paths", str(workdir / "paths.txt"), "--query", "v1"])
    assert code == 2
    assert f"{edges}:2: not UTF-8" in capsys.readouterr().err


@pytest.mark.parametrize("timeout", ["-5", "0", "nan", "inf"])
def test_bench_timeout_not_finite_and_positive_is_precondition(workdir, capsys, timeout):
    code = main(
        ["bench", *bundle_args(workdir), "--examples", str(workdir / "examples.tsv"),
         "--sizes", "1", "--lengths", "1", "--repeats", "1", "--timeout", timeout]
    )
    assert code == 3
    assert "timeout_s must be finite and > 0" in capsys.readouterr().err
