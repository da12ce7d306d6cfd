"""Wall-clock sweep: tree search vs fixed-length enumeration plus scoring.

Reproduces the efficiency comparison on a seeded planted-rule bundle over a
range of example-set sizes and enumeration lengths; writes a plot-ready JSONL
report when --output is given.
"""

import argparse
import tempfile

from hinwalk import SearchConfig, parse_metapath
from hinwalk.bench import BenchConfig, run_benchmark
from hinwalk.io import parse_bundle, write_report
from hinwalk.synth import SyntheticSpec, generate_synthetic


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--entities-per-type", type=int, default=2000)
    ap.add_argument("--lengths", default="1,2,3,4")
    ap.add_argument("--sizes", default="10,50,100")
    ap.add_argument("--repeats", type=int, default=3)
    ap.add_argument("--timeout", type=float, default=300.0)
    ap.add_argument("--output", help="JSONL report path")
    args = ap.parse_args()

    spec = SyntheticSpec(
        entity_counts={t: args.entities_per_type for t in "ABCDE"},
        planted=parse_metapath("A -r_ab-> B -r_bc-> C"),
        noise_rate=0.1,
        seed=args.seed,
        distractor_relations=6,
    )
    with tempfile.TemporaryDirectory(prefix="hinwalk_bench_") as tmp:
        parsed = parse_bundle(generate_synthetic(spec, tmp))
    positives = [(r.source, r.target) for r in parsed.example_rows if r.label == 1]

    config = BenchConfig(
        lengths=tuple(int(x) for x in args.lengths.split(",")),
        example_sizes=tuple(int(x) for x in args.sizes.split(",")),
        repeats=args.repeats,
        timeout_s=args.timeout,
        search=SearchConfig(beta=0.6, max_paths=10, max_depth=4),
    )
    report = run_benchmark(parsed.graph, positives, config)
    print(report.table())
    if args.output:
        write_report(args.output, "bench", report.rows)
        print(f"report written to {args.output}")


if __name__ == "__main__":
    main()
