"""Dataset files, bundles, and line-delimited report documents.

All dataset files are UTF-8, tab-separated, one record per line, with ``#``
comment lines and blank lines ignored:

    edges.tsv      source <TAB> relation <TAB> target
    types.tsv      entity <TAB> type            (repeat lines for multi-type)
    hierarchy.tsv  child <TAB> parent
    examples.tsv   source <TAB> target [<TAB> weight [<TAB> label]]

Weight defaults to 1.0; the label column (0 or 1) is only used for link
prediction training and evaluation. Reports are JSON lines with a versioned
header record followed by one record per result row.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator

from .errors import ParseError
from .graph import HinGraph, TypeHierarchy, build_graph
from .treesearch import ExamplePairSet

REPORT_VERSION = 1


@dataclass(frozen=True)
class ExampleRow:
    source: str
    target: str
    weight: float = 1.0
    label: int | None = None


@dataclass
class DatasetBundle:
    edges_path: Path
    types_path: Path | None = None
    hierarchy_path: Path | None = None
    examples_path: Path | None = None
    holdout_examples_path: Path | None = None

    def __post_init__(self):
        self.edges_path = Path(self.edges_path)
        self.types_path = Path(self.types_path) if self.types_path else None
        self.hierarchy_path = Path(self.hierarchy_path) if self.hierarchy_path else None
        self.examples_path = Path(self.examples_path) if self.examples_path else None
        self.holdout_examples_path = (
            Path(self.holdout_examples_path) if self.holdout_examples_path else None
        )


@dataclass
class ParsedBundle:
    graph: HinGraph
    hierarchy: TypeHierarchy
    example_rows: list[ExampleRow]
    holdout_rows: list[ExampleRow]


def _data_lines(path: Path) -> Iterator[tuple[int, str]]:
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.rstrip("\r\n")
            if not line or line.startswith("#"):
                continue
            yield lineno, line


def _fields(path: Path, lineno: int, line: str, minimum: int, maximum: int) -> list[str]:
    parts = line.split("\t")
    if not minimum <= len(parts) <= maximum:
        expected = str(minimum) if minimum == maximum else f"{minimum}-{maximum}"
        raise ParseError(path, lineno, line, f"expected {expected} tab-separated fields, got {len(parts)}")
    for p in parts:
        if not p:
            raise ParseError(path, lineno, line, "empty field")
    return parts


def load_edges(path: str | Path) -> list[tuple[str, str, str]]:
    path = Path(path)
    return [tuple(_fields(path, n, line, 3, 3)) for n, line in _data_lines(path)]


def load_types(path: str | Path) -> list[tuple[str, str]]:
    path = Path(path)
    return [tuple(_fields(path, n, line, 2, 2)) for n, line in _data_lines(path)]


def load_hierarchy(path: str | Path) -> list[tuple[str, str]]:
    path = Path(path)
    return [tuple(_fields(path, n, line, 2, 2)) for n, line in _data_lines(path)]


def load_examples(path: str | Path) -> list[ExampleRow]:
    path = Path(path)
    rows = []
    for n, line in _data_lines(path):
        parts = _fields(path, n, line, 2, 4)
        weight = 1.0
        label = None
        if len(parts) >= 3:
            try:
                weight = float(parts[2])
            except ValueError:
                raise ParseError(path, n, line, f"bad weight {parts[2]!r}") from None
        if len(parts) == 4:
            if parts[3] not in ("0", "1"):
                raise ParseError(path, n, line, f"bad label {parts[3]!r}, expected 0 or 1")
            label = int(parts[3])
        rows.append(ExampleRow(parts[0], parts[1], weight, label))
    return rows


def parse_bundle(bundle: DatasetBundle) -> ParsedBundle:
    """Parse and assemble a bundle; diagnostics carry file and line number."""
    triples = load_edges(bundle.edges_path)
    assignments = load_types(bundle.types_path) if bundle.types_path else []
    hier_edges = load_hierarchy(bundle.hierarchy_path) if bundle.hierarchy_path else []
    graph, hierarchy = build_graph(triples, assignments, hier_edges)
    rows = load_examples(bundle.examples_path) if bundle.examples_path else []
    holdout = (
        load_examples(bundle.holdout_examples_path) if bundle.holdout_examples_path else []
    )
    return ParsedBundle(graph, hierarchy, rows, holdout)


def pair_set_from_rows(rows: Iterable[ExampleRow], positives_only: bool = True) -> ExamplePairSet:
    """Example pairs for path generation; labeled negatives are excluded."""
    chosen = [r for r in rows if not (positives_only and r.label == 0)]
    return ExamplePairSet(
        [(r.source, r.target) for r in chosen],
        {(r.source, r.target): r.weight for r in chosen},
    )


# -- canonical writers: sorted unique records, stable across round trips --


def _write_lines(path: Path, records: Iterable[tuple]) -> None:
    lines = sorted("\t".join(str(f) for f in rec) for rec in set(records))
    path.write_text("\n".join(lines) + ("\n" if lines else ""), encoding="utf-8")


def write_edges(path: str | Path, triples: Iterable[tuple[str, str, str]]) -> None:
    _write_lines(Path(path), triples)


def write_types(path: str | Path, assignments: Iterable[tuple[str, str]]) -> None:
    _write_lines(Path(path), assignments)


def write_hierarchy(path: str | Path, edges: Iterable[tuple[str, str]]) -> None:
    _write_lines(Path(path), edges)


def write_examples(path: str | Path, rows: Iterable[ExampleRow]) -> None:
    records = []
    for r in rows:
        rec = [r.source, r.target, format(r.weight, ".17g")]
        if r.label is not None:
            rec.append(str(r.label))
        records.append(tuple(rec))
    _write_lines(Path(path), records)


# -- reports --


def write_report(path: str | Path, kind: str, rows: Iterable[dict], meta: dict | None = None) -> None:
    header = {"report": kind, "version": REPORT_VERSION}
    header.update(meta or {})
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(header, sort_keys=True) + "\n")
        for row in rows:
            fh.write(json.dumps(row, sort_keys=True) + "\n")


def read_report(path: str | Path) -> tuple[dict, list[dict]]:
    lines = []
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.rstrip("\r\n")
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ParseError(path, lineno, line, f"not JSON: {exc.msg}") from None
            if not isinstance(record, dict):
                raise ParseError(path, lineno, line, "not a JSON object")
            lines.append(record)
    if not lines or "report" not in lines[0]:
        raise ValueError(f"{path}: missing report header")
    if lines[0].get("version") != REPORT_VERSION:
        raise ValueError(f"{path}: unsupported report version {lines[0].get('version')!r}")
    return lines[0], lines[1:]
