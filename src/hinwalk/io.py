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

``load_edges`` and ``load_types`` code each field as its block of lines is
read, through one first-seen numbering of entity names and one of the label
column (relation or type), and return a :class:`~hinwalk.graph.CodedTable`:
int32 code columns and the distinct names, with no tuple per row.
``list(table)`` gives the rows as tuples of names. ``load_hierarchy``, a few
lines in practice, reads its file the same way and returns that list.

The canonical writers (``write_edges``, ``write_types``, ``write_hierarchy``
and ``write_examples``) write sorted, unique lines, so the same records give
the same bytes in any order and under any hash seed. They sort the records
themselves and write the lines a block at a time, holding one reference per
record plus one block of lines beside the caller's records.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import groupby, islice
from operator import itemgetter, le
from pathlib import Path
from typing import Iterable, Iterator, TextIO

from .errors import ParseError
from .graph import CodedTable, HinGraph, TypeHierarchy, build_graph
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
        for name in ("types_path", "hierarchy_path", "examples_path", "holdout_examples_path"):
            value = getattr(self, name)
            setattr(self, name, Path(value) if value else None)


@dataclass
class ParsedBundle:
    graph: HinGraph
    hierarchy: TypeHierarchy
    example_rows: list[ExampleRow]
    holdout_rows: list[ExampleRow]


@contextmanager
def open_text(path: str | Path) -> Iterator[TextIO]:
    """``path`` opened to read as UTF-8 text, a leading byte order mark
    skipped. Bytes that are not UTF-8 raise :class:`ParseError` naming the
    line of the first of them, found by reading the file again as bytes."""
    with open(path, encoding="utf-8-sig") as fh:
        try:
            yield fh
        except UnicodeDecodeError:
            # bytes split at the newlines text mode reads: \n, \r and \r\n
            for lineno, line in enumerate(Path(path).read_bytes().splitlines(), 1):
                try:
                    line.decode("utf-8")
                except UnicodeDecodeError as exc:
                    text = line.decode("utf-8", "backslashreplace")
                    raise ParseError(path, lineno, text, f"not UTF-8 ({exc.reason})") from None
            raise


def _data_lines(lines: Iterable[str], start: int = 1) -> Iterator[tuple[int, str]]:
    """Numbered lines, from ``start``, without comment and blank lines."""
    for lineno, raw in enumerate(lines, start):
        line = raw.rstrip("\r\n")
        if not line or line[0] == "#":
            continue
        yield lineno, line


def _fields(path: Path, lineno: int, line: str, minimum: int, maximum: int) -> list[str]:
    parts = line.split("\t")
    if not minimum <= len(parts) <= maximum:
        expected = str(minimum) if minimum == maximum else f"{minimum}-{maximum}"
        raise ParseError(path, lineno, line, f"expected {expected} tab-separated fields, got {len(parts)}")
    if "" in parts:
        raise ParseError(path, lineno, line, "empty field")
    return parts


# Characters per block read by _field_blocks: a few hundred lines, enough to make
# the per-block checks cheap. Larger blocks measured a higher peak RSS in the
# stages after loading (lp-planted: +2 MB at 65,536 characters, and +0.7 MB
# in about half the runs at 16,384).
_BLOCK_CHARS = 8192

# bytes.translate table that deletes every byte but tab and newline; UTF-8
# encodes no other character with those bytes
_NOT_SEPARATOR = bytes(b for b in range(256) if b not in b"\t\n")


def _blocks(fh: TextIO) -> Iterator[str]:
    """The text of ``fh`` in blocks of whole lines, each ending in a newline."""
    tail = ""
    while chunk := fh.read(_BLOCK_CHARS):
        cut = chunk.rfind("\n") + 1
        if cut:
            yield tail + chunk[:cut]
            tail = chunk[cut:]
        else:
            tail += chunk
    if tail:
        yield tail + "\n"


def _field_blocks(path: Path, width: int) -> Iterator[list[str]]:
    """The fields of the file's rows of ``width`` non-empty tab-separated
    fields, row after row, as one list per block of lines.

    A block of lines is split in bulk when it holds only such rows: every
    line has ``width - 1`` tabs (checked per line: totals can balance out
    between lines), the block has no whitespace but those tabs and its
    newlines, no field is empty and no line is a comment. Any other block
    goes through the per-line parse, which skips comments and blank lines
    and raises :class:`ParseError` with the line's absolute number.
    """
    row_separators = ("\t" * (width - 1) + "\n").encode()
    before = 0  # lines before the current block
    with open_text(path) as fh:
        for block in _blocks(fh):
            fields = block.split()
            lines = block.count("\n")
            if (
                len(fields) == width * lines
                and len(block) == width * lines + sum(map(len, fields))
                and block[0] != "#"
                and "\n#" not in block
                and block.encode().translate(None, _NOT_SEPARATOR) == row_separators * lines
            ):
                yield fields
            else:
                data = _data_lines(block.split("\n"), before + 1)
                yield [f for n, line in data for f in _fields(path, n, line, width, width)]
            before += lines


def _coded_table(path: Path, width: int) -> CodedTable:
    """Rows of ``width`` fields coded as they are read, a block at a time."""
    table = CodedTable(width)
    for fields in _field_blocks(path, width):
        table.add_fields(fields)
    table.settle()  # drops the name-to-code dicts, keeping each name once
    return table


def load_edges(path: str | Path) -> CodedTable:
    """The (source, relation, target) rows of an edges file, coded."""
    return _coded_table(Path(path), 3)


def load_types(path: str | Path) -> CodedTable:
    """The (entity, type) rows of a types file, coded."""
    return _coded_table(Path(path), 2)


def load_hierarchy(path: str | Path) -> list[tuple[str, str]]:
    """The (child, parent) rows of a hierarchy file."""
    return list(_coded_table(Path(path), 2))


def load_examples(path: str | Path) -> list[ExampleRow]:
    path = Path(path)
    rows = []
    with open_text(path) as fh:
        lines = list(_data_lines(fh))
    for n, line in lines:
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


def pair_set_from_rows(rows: Iterable[ExampleRow]) -> ExamplePairSet:
    """Example pairs for path generation; labeled negatives are excluded."""
    chosen = [r for r in rows if r.label != 0]
    return ExamplePairSet(
        [(r.source, r.target) for r in chosen],
        {(r.source, r.target): r.weight for r in chosen},
    )


# -- canonical writers: sorted unique records, stable across round trips --


# Lines per block written by _write_sorted: a few thousand, so the block's
# text stays small beside the records while writes stay few
_WRITE_LINES = 4096


def _write_lines(path: Path, records: Iterable[tuple]) -> None:
    """Write ``records`` as the sorted, unique lines of their tab-joined
    fields, each field as ``str`` gives it.

    It sorts the records themselves and writes their lines a block at a
    time, so it holds one reference per record and one block of lines.
    Sorted records give sorted lines when every field is a ``str`` with no
    tab and no character below tab, which is checked line by line while
    writing. Records that break that order, that have a field other than a
    ``str`` or that cannot be compared are sorted by their lines instead
    and written as one text, so every input gives the same bytes either way.
    """
    rows = list(records)
    try:
        rows.sort()
        if _write_sorted(path, rows):
            return
    except TypeError:
        pass
    lines = sorted("\t".join(str(f) for f in rec) for rec in set(rows))
    path.write_text("\n".join(lines) + ("\n" if lines else ""), encoding="utf-8")


def _write_sorted(path: Path, rows: list[tuple]) -> bool:
    """Write the lines of sorted ``rows``, one per run of equal records;
    False, with the file incomplete, once a line would sort before the line
    written before it."""
    lines = map("\t".join, map(itemgetter(0), groupby(rows)))
    with open(path, "w", encoding="utf-8") as fh:
        last = ""
        while block := list(islice(lines, _WRITE_LINES)):
            if not all(map(le, [last, *block], block)):
                return False
            fh.write("\n".join(block) + "\n")
            last = block[-1]
    return True


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
    with open_text(path) as fh:
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
    version = lines[0].get("version")
    if type(version) is not int or version != REPORT_VERSION:  # true and 1.0 equal 1
        raise ValueError(f"{path}: unsupported report version {version!r}")
    return lines[0], lines[1:]
