"""Command-line surface.

Exit codes: 0 success, 2 file or argument parse error, 3 precondition or
validation error, 4 work budget exhausted. Human-readable text goes to
stdout; machine-readable reports are written to ``--output`` and never
interleave with it.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import bench as bench_mod
from . import io as hio
from . import models, simsearch, synth
from .errors import BudgetExceededError, ParseError
from .metapath import parse_metapath
from .treesearch import SearchConfig, generate_paths

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_PRECONDITION = 3
EXIT_BUDGET = 4


def _list_of(convert, what: str):
    """An argparse ``type`` for comma-separated values: a malformed list is
    an argument parse error (exit 2) with the usage message."""

    def parse(text: str) -> list:
        try:
            return [convert(x) for x in text.split(",") if x]
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected comma-separated {what}, got {text!r}") from None

    return parse


def _type_counts(text: str) -> dict[str, int]:
    """argparse ``type`` of ``--type-counts``: TYPE=COUNT entries, comma-separated."""
    counts = {}
    for part in text.split(","):
        name, _, num = part.partition("=")
        try:
            counts[name.strip()] = int(num)
        except ValueError:
            raise argparse.ArgumentTypeError(f"bad entry {part!r}, expected TYPE=COUNT") from None
    return counts


def _add_bundle_args(p: argparse.ArgumentParser, need_examples: bool = False) -> None:
    p.add_argument("--edges", required=True, help="edges TSV: source, relation, target")
    p.add_argument("--types", help="type assignments TSV: entity, type")
    p.add_argument("--hierarchy", help="type hierarchy TSV: child, parent")
    p.add_argument(
        "--examples",
        required=need_examples,
        help="example pairs TSV: source, target[, weight[, label]]",
    )


def _parse_bundle(args) -> hio.ParsedBundle:
    bundle = hio.DatasetBundle(
        edges_path=args.edges,
        types_path=args.types,
        hierarchy_path=args.hierarchy,
        examples_path=args.examples,
    )
    return hio.parse_bundle(bundle)


def _add_search_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--beta", type=float, default=0.6, help="priority decay per depth")
    p.add_argument("--max-paths", type=int, default=20)
    p.add_argument("--max-depth", type=int, default=6)
    p.add_argument("--node-budget", type=int, default=1_000_000)


def _search_config(args) -> SearchConfig:
    return SearchConfig(
        beta=args.beta,
        max_depth=args.max_depth,
        max_paths=args.max_paths,
        node_budget=args.node_budget,
    )


def _load_paths_file(path: str):
    out = []
    for lineno, line in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        try:
            out.append(parse_metapath(line))
        except ValueError as exc:
            raise ParseError(path, lineno, line, str(exc)) from None
    if not out:
        raise ValueError(f"{path}: no meta-paths found")
    return out


def cmd_generate_paths(args) -> int:
    parsed = _parse_bundle(args)
    examples = hio.pair_set_from_rows(parsed.example_rows)
    result = generate_paths(parsed.graph, examples, _search_config(args))
    print(f"status: {result.status}; emitted {len(result.paths)} meta-path(s)")
    for p in result.paths:
        mean = sum(p.scores.values()) / len(p.scores)
        print(f"  {p.metapath}    pairs={len(p.scores)} mean_score={mean:.6g}")
    if args.paths_out:
        Path(args.paths_out).write_text(
            "".join(f"{p.metapath}\n" for p in result.paths), encoding="utf-8"
        )
    if args.output:
        rows = [
            {
                "path": str(p.metapath),
                "scores": [[s, t, v] for (s, t), v in sorted(p.scores.items())],
            }
            for p in result.paths
        ]
        hio.write_report(args.output, "generate-paths", rows, {"status": result.status})
    return EXIT_BUDGET if result.status == "budget" else EXIT_OK


def cmd_score(args) -> int:
    parsed = _parse_bundle(args)
    paths = _load_paths_file(args.paths)
    rows = hio.load_examples(args.pairs)
    pairs = [(r.source, r.target) for r in rows]
    matrix = models.build_features(parsed.graph, pairs, paths)
    for (s, t), vals in zip(matrix.pairs, matrix.values):
        print(f"{s}\t{t}\t" + "\t".join(format(v, ".12g") for v in vals))
    if args.output:
        out_rows = [
            {"source": s, "target": t, "scores": [float(v) for v in vals]}
            for (s, t), vals in zip(matrix.pairs, matrix.values)
        ]
        hio.write_report(
            args.output, "score", out_rows, {"paths": [str(p) for p in paths]}
        )
    return EXIT_OK


def cmd_train_lp(args) -> int:
    parsed = _parse_bundle(args)
    paths = _load_paths_file(args.paths)
    rows = parsed.example_rows
    if any(r.label is None for r in rows):
        raise ValueError("training examples need a 0/1 label column")
    pairs = [(r.source, r.target) for r in rows]
    labels = [r.label for r in rows]
    features = models.build_features(parsed.graph, pairs, paths)
    config = models.TrainConfig(fit_bias=not args.no_bias)
    model = models.train_logistic(features, labels, l2_strength=args.l2, config=config)
    models.save_model(args.model_out, model, paths)
    preds = models.predict(model, features)
    accuracy = sum((p >= 0.5) == bool(l) for p, l in zip(preds, labels)) / len(labels)
    print(f"trained on {len(labels)} pairs, {len(paths)} paths; training accuracy {accuracy:.3f}")
    print(f"model written to {args.model_out}")
    if args.output:
        hio.write_report(
            args.output,
            "train-lp",
            [{"training_accuracy": accuracy, "n_pairs": len(labels), "n_paths": len(paths)}],
        )
    return EXIT_OK


def cmd_predict_lp(args) -> int:
    parsed = _parse_bundle(args)
    model, paths = models.load_model(args.model)
    rows = hio.load_examples(args.pairs)
    pairs = [(r.source, r.target) for r in rows]
    features = models.build_features(parsed.graph, pairs, list(paths))
    preds = models.predict(model, features)
    for r, p in zip(rows, preds):
        print(f"{r.source}\t{r.target}\t{p:.6f}")
    out_rows = []
    for r, p in zip(rows, preds):
        row = {"source": r.source, "target": r.target, "probability": float(p)}
        if r.label is not None:
            row["label"] = r.label
        out_rows.append(row)
    hio.write_report(args.output, "predict-lp", out_rows, {"model": str(args.model)})
    return EXIT_OK


def cmd_eval_auc(args) -> int:
    _, rows = hio.read_report(args.predictions)
    if any("label" not in r for r in rows):
        raise ValueError("predictions report lacks labels; predict on a labeled pairs file")
    if any("probability" not in r for r in rows):
        raise ValueError("predictions report lacks the probability field")
    scores = [r["probability"] for r in rows]
    labels = [r["label"] for r in rows]
    value = models.auc(scores, labels)
    print(f"AUC: {value:.6f} ({len(rows)} pairs)")
    if args.output:
        hio.write_report(args.output, "eval-auc", [{"auc": value, "n_pairs": len(rows)}])
    return EXIT_OK


def _generated_index_paths(args, parsed) -> list:
    """One-invocation chain: example pairs in, query-compatible paths out."""
    examples = hio.pair_set_from_rows(parsed.example_rows)
    result = generate_paths(parsed.graph, examples, _search_config(args))
    query_types = parsed.graph.entity_types(args.query)
    candidates = [p.metapath for p in result.paths if p.metapath.source_type in query_types]
    if not candidates:
        raise ValueError(
            f"no generated meta-path starts at the query's types; "
            f"got {len(result.paths)} paths from {len(examples)} example pairs"
        )
    first = candidates[0]
    return [
        p
        for p in candidates
        if parsed.hierarchy.compatible(first.source_type, p.source_type)
        and parsed.hierarchy.compatible(first.target_type, p.target_type)
    ]


def cmd_simsearch(args) -> int:
    if bool(args.paths) == bool(args.examples):
        raise ValueError("simsearch needs exactly one of --paths or --examples")
    parsed = _parse_bundle(args)
    if args.paths:
        paths = _load_paths_file(args.paths)
    else:
        paths = _generated_index_paths(args, parsed)
    index = simsearch.build_index(parsed.graph, paths, args.theta or None)  # uniform when empty
    ranked = simsearch.top_k(index, args.query, args.k)
    for rank, (entity, score) in enumerate(ranked, start=1):
        print(f"{rank}\t{entity}\t{format(score, '.12g')}")
    if args.output:
        hio.write_report(
            args.output,
            "simsearch",
            [
                {"rank": i + 1, "entity": e, "score": s}
                for i, (e, s) in enumerate(ranked)
            ],
            {"query": args.query, "k": args.k, "paths": [str(p) for p in paths]},
        )
    return EXIT_OK


def cmd_synth(args) -> int:
    spec = synth.SyntheticSpec(
        entity_counts=args.type_counts,
        planted=parse_metapath(args.planted),
        noise_rate=args.noise_rate,
        seed=args.seed,
        out_degree=args.out_degree,
        distractor_relations=args.distractors,
        noise_relation_count=args.noise_relations,
        n_pairs=args.pairs,
    )
    bundle = synth.generate_synthetic(spec, args.out_dir)
    rows = []
    for name in ("edges_path", "types_path", "hierarchy_path", "examples_path", "holdout_examples_path"):
        path = getattr(bundle, name)
        print(f"{name.removesuffix('_path')}: {path}")
        with open(path, encoding="utf-8") as fh:
            rows.append({"file": str(path), "lines": sum(1 for _ in fh)})
    if args.output:
        hio.write_report(args.output, "synth", rows, {"seed": args.seed})
    return EXIT_OK


def cmd_bench(args) -> int:
    parsed = _parse_bundle(args)
    rows = [r for r in parsed.example_rows if r.label != 0]
    if not rows:
        raise ValueError("benchmark needs positive example pairs")
    pairs = [(r.source, r.target) for r in rows]
    config = bench_mod.BenchConfig(
        lengths=tuple(args.lengths),
        example_sizes=tuple(args.sizes),
        repeats=args.repeats,
        timeout_s=args.timeout,
        search=_search_config(args),
    )
    report = bench_mod.run_benchmark(parsed.graph, pairs, config)
    print(report.table())
    if args.output:
        hio.write_report(args.output, "bench", report.rows)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hinwalk",
        description="Meta-path generation and random-walk inference over typed multigraphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate-paths", help="best-first meta-path generation from example pairs")
    _add_bundle_args(p, need_examples=True)
    _add_search_args(p)
    p.add_argument("--paths-out", help="write emitted meta-path strings, one per line")
    p.add_argument("--output", help="write a JSONL report")
    p.set_defaults(func=cmd_generate_paths)

    p = sub.add_parser("score", help="walk scores for pairs along given meta-paths")
    _add_bundle_args(p)
    p.add_argument("--paths", required=True, help="meta-path strings, one per line")
    p.add_argument("--pairs", required=True, help="pairs TSV to score")
    p.add_argument("--output", help="write a JSONL report")
    p.set_defaults(func=cmd_score)

    p = sub.add_parser("train-lp", help="train logistic-regression link prediction")
    _add_bundle_args(p, need_examples=True)
    p.add_argument("--paths", required=True)
    p.add_argument("--l2", type=float, default=0.01)
    p.add_argument("--no-bias", action="store_true")
    p.add_argument("--model-out", required=True)
    p.add_argument("--output", help="write a JSONL report")
    p.set_defaults(func=cmd_train_lp)

    p = sub.add_parser("predict-lp", help="predict link probabilities with a trained model")
    _add_bundle_args(p)
    p.add_argument("--model", required=True)
    p.add_argument("--pairs", required=True)
    p.add_argument("--output", required=True, help="write the predictions JSONL report")
    p.set_defaults(func=cmd_predict_lp)

    p = sub.add_parser("eval-auc", help="AUC of a labeled predictions report")
    p.add_argument("--predictions", required=True)
    p.add_argument("--output", help="write a JSONL report")
    p.set_defaults(func=cmd_eval_auc)

    p = sub.add_parser(
        "simsearch",
        help="top-k similar entities by weighted path counts",
        description="Builds the index from --paths, or chains path generation, "
        "index build and query in one invocation when --examples is given instead.",
    )
    _add_bundle_args(p)
    p.add_argument("--paths", help="meta-path strings, one per line")
    _add_search_args(p)
    p.add_argument("--query", required=True)
    p.add_argument("--k", type=int, default=10)
    p.add_argument(
        "--theta", type=_list_of(float, "numbers"), help="comma-separated weights, uniform when omitted"
    )
    p.add_argument("--output", help="write a JSONL report")
    p.set_defaults(func=cmd_simsearch)

    p = sub.add_parser("synth", help="generate a seeded planted-rule bundle")
    p.add_argument("--out-dir", required=True)
    p.add_argument(
        "--type-counts", type=_type_counts, required=True, help="e.g. A=2000,B=2000,C=2000"
    )
    p.add_argument("--planted", required=True, help="typed meta-path, e.g. 'A -r1-> B -r2-> C'")
    p.add_argument("--noise-rate", type=float, default=0.1)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--out-degree", type=int, default=3)
    p.add_argument("--distractors", type=int, default=4)
    p.add_argument("--noise-relations", type=int, default=2)
    p.add_argument("--pairs", type=int, default=100)
    p.add_argument("--output", help="write a JSONL report of the generated files")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("bench", help="time tree search vs fixed-length enumeration")
    _add_bundle_args(p, need_examples=True)
    _add_search_args(p)
    p.add_argument("--lengths", type=_list_of(int, "integers"), default="1,2,3,4")
    p.add_argument("--sizes", type=_list_of(int, "integers"), default="10,50,100")
    p.add_argument("--repeats", type=int, default=3)
    p.add_argument("--timeout", type=float, default=300.0)
    p.add_argument("--output", help="write a JSONL report (plot-ready)")
    p.set_defaults(func=cmd_bench)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION


if __name__ == "__main__":
    sys.exit(main())
