import random
import tracemalloc
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from hinwalk import DirectedRelation, ParseError
from hinwalk import io as hio
from hinwalk.io import (
    DatasetBundle,
    ExampleRow,
    load_edges,
    load_examples,
    load_hierarchy,
    load_types,
    parse_bundle,
    pair_set_from_rows,
    read_report,
    write_edges,
    write_examples,
    write_hierarchy,
    write_report,
    write_types,
)
from hinwalk.cli import _load_paths_file
from hinwalk.models import load_model


def bundle_for(directory):
    return DatasetBundle(
        edges_path=directory / "edges.tsv",
        types_path=directory / "types.tsv",
        hierarchy_path=directory / "hierarchy.tsv",
        examples_path=directory / "examples.tsv",
    )


class TestParseBundle:
    def test_g1_files_match_programmatic_graph(self, g1_dir, g1):
        expected_graph, _ = g1
        parsed = parse_bundle(bundle_for(g1_dir))
        assert tuple(parsed.graph.entities) == tuple(expected_graph.entities)
        assert parsed.graph.relations == expected_graph.relations
        found_inv = DirectedRelation("found", True)
        assert parsed.graph.out_neighbors("g", found_inv) == ["p1", "p2"]
        assert parsed.graph.entity_types("g") == expected_graph.entity_types("g")
        assert parsed.example_rows == [ExampleRow("p1", "p2")]

    def test_g2_files(self, g2_dir):
        parsed = parse_bundle(bundle_for(g2_dir))
        assert len(parsed.graph.entities) == 9
        assert parsed.graph.relations == ("authorOf", "publishIn")

    def test_arity_error_names_line(self, tmp_path):
        path = tmp_path / "edges.tsv"
        path.write_text("a\tr\tb\np1 found\n")
        with pytest.raises(ParseError) as err:
            parse_bundle(DatasetBundle(edges_path=path))
        assert err.value.lineno == 2
        assert "p1 found" in str(err.value)

    def test_comments_and_blanks_ignored(self, tmp_path):
        path = tmp_path / "edges.tsv"
        path.write_text("# header comment\n\na\tr\tb\n")
        parsed = parse_bundle(DatasetBundle(edges_path=path))
        assert tuple(parsed.graph.entities) == ("a", "b")


class TestNameRows:
    def test_one_object_per_distinct_name(self, tmp_path):
        # names longer than one character: CPython shares one-character
        # strings anyway
        edges = tmp_path / "edges.tsv"
        edges.write_text("ann\tcites\tbob\nbob\tcites\tann\n# c\n\nann\tknows\tann\n")
        types = tmp_path / "types.tsv"
        types.write_text("ann\tPerson\nbob\tPerson\nbob\tAuthor\n")
        for table in (load_edges(edges), load_types(types)):
            # each distinct name kept once, and the rows read back share them
            assert len(set(table.names)) == len(table.names)
            assert len(set(table.labels)) == len(table.labels)
            fields = [f for row in table for f in row]
            assert len({id(f) for f in fields}) == len(set(fields))
        assert list(load_edges(edges)) == [
            ("ann", "cites", "bob"),
            ("bob", "cites", "ann"),
            ("ann", "knows", "ann"),
        ]
        assert list(load_types(types)) == [("ann", "Person"), ("bob", "Person"), ("bob", "Author")]

    @pytest.mark.parametrize(
        "text, lineno",
        [
            ("a\tr\tb\na\tr\n", 2),
            ("a\tr\tb\tc\n", 1),
            ("a\tr\tb\na\t\tb\n", 2),
            ("\ta\tr\n", 1),
            ("a\tr\tb\r\nb\tr\r\n", 2),
            ("# comment\n\na\tr\tb\n\n# more\na\tr\tb\tc\n", 6),
            # tab counts that balance out over the block
            ("a\tb\tc\td\ne\tf\n", 1),
            # a space inside a name next to an empty field: the count of
            # whitespace-split fields still matches
            ("a b\t\tc\n", 1),
        ],
    )
    def test_malformed_edge_line_is_parse_error(self, tmp_path, text, lineno):
        path = tmp_path / "edges.tsv"
        path.write_bytes(text.encode())
        with pytest.raises(ParseError) as err:
            load_edges(path)
        assert err.value.lineno == lineno

    @pytest.mark.parametrize(
        "text, lineno",
        [
            ("a\tT\nb\n", 2),
            ("a\tT\tU\n", 1),
            ("a\tT\n\tT\n", 2),
            ("a\tT\r\nb\tT\tU\r\n", 2),
            ("# comment\n\na\tT\n\nb\t\n", 5),
            ("a\tb\tc\nd\n", 1),
        ],
    )
    def test_malformed_type_line_is_parse_error(self, tmp_path, text, lineno):
        path = tmp_path / "types.tsv"
        path.write_bytes(text.encode())
        with pytest.raises(ParseError) as err:
            load_types(path)
        assert err.value.lineno == lineno

    def test_crlf_lines_parse(self, tmp_path):
        path = tmp_path / "edges.tsv"
        path.write_bytes(b"a\tr\tb\r\n\r\nb\tr\ta\r\n")
        assert list(load_edges(path)) == [("a", "r", "b"), ("b", "r", "a")]

    def test_error_in_a_later_block_names_its_absolute_line(self, tmp_path):
        row = "e00000\tr\te00001\n"
        bad = 2 * hio._BLOCK_CHARS // len(row) + 100  # in the third block
        lines = [row] * (bad - 1) + ["e00000\tr\n"] + [row] * 10
        lines[5] = "# a comment sends the first block through the per-line parse\n"
        path = tmp_path / "edges.tsv"
        path.write_text("".join(lines))
        with pytest.raises(ParseError) as err:
            load_edges(path)
        assert (err.value.lineno, err.value.text) == (bad, "e00000\tr")
        assert err.value.reason == "expected 3 tab-separated fields, got 2"


def _reference_table(path, width):
    """The loaders' contract, one line at a time."""
    share = {}.setdefault
    rows = []
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.rstrip("\r\n")
            if not line or line.startswith("#"):
                continue
            parts = line.split("\t")
            if len(parts) != width:
                reason = f"expected {width} tab-separated fields, got {len(parts)}"
                raise ParseError(path, lineno, line, reason)
            if "" in parts:
                raise ParseError(path, lineno, line, "empty field")
            rows.append(tuple(map(share, parts, parts)))
    return rows


def _outcome(read, path, width):
    """The rows read, and whether the labels (field 1) and the other names
    each hold one string object per distinct name; or the error raised."""
    try:
        rows = list(read(path, width))
    except ParseError as err:
        return "error", err.lineno, err.text, err.reason
    shared = []
    for names in ([row[1] for row in rows], [name for row in rows for name in row[:1] + row[2:]]):
        shared.append(len({id(name) for name in names}) == len(set(names)))
    return "rows", rows, shared


@st.composite
def _table_files(draw):
    """A file of rows of ``width`` names, some of them longer than a small
    block, with a few lines edited into comments, blank lines, lines with an
    empty field, lines with a tab more or less (also a tab moved to the end
    of the next line, so that tab counts balance out), or lines with a
    space, a no-break space, a line or next-line separator, '#' or a
    non-ASCII letter. Lines end in LF, CRLF or CR, the last maybe in
    nothing."""
    width = draw(st.sampled_from([2, 3]))
    name = st.one_of(*[st.text("ab", min_size=1, max_size=3)] * 3, st.text("ab", min_size=20, max_size=40))
    lines = draw(st.lists(st.lists(name, min_size=width, max_size=width).map("\t".join), max_size=30))
    edits = st.tuples(
        st.sampled_from(["comment", "blank", "empty", "tab", "untab", "move", *"# \u00a0\u2028\u0085é名"]),
        st.integers(0, 29),
        st.integers(0, 50),
    )
    for edit, i, at in draw(st.lists(edits, max_size=3)) if lines else ():
        i %= len(lines)
        line = lines[i]
        if edit == "comment":
            lines[i] = "#" + line
        elif edit == "blank":
            lines.insert(i, "")
        elif edit in ("untab", "move"):
            lines[i] = line.replace("\t", "", 1)
            if edit == "move":
                lines[(i + 1) % len(lines)] += "\tab"
        elif edit == "empty":
            fields = line.split("\t")
            fields[at % len(fields)] = ""
            lines[i] = "\t".join(fields)
        else:
            at %= len(line) + 1
            lines[i] = line[:at] + ("\t" if edit == "tab" else edit) + line[at:]
    ends = draw(st.lists(st.sampled_from(["\n", "\n", "\r\n", "\r"]), min_size=len(lines), max_size=len(lines)))
    text = "".join(a + b for a, b in zip(lines, ends))
    if lines and draw(st.booleans()):
        text = text[: -len(ends[-1])]  # no final newline
    return width, text


class TestTable:
    @given(case=_table_files(), block=st.sampled_from([1, 16, 64, 16384]))
    @settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_equals_per_line_reference(self, tmp_path, case, block):
        width, text = case
        path = tmp_path / "table.tsv"
        path.write_bytes(text.encode())
        with mock.patch.object(hio, "_BLOCK_CHARS", block):
            got = _outcome(hio._coded_table, path, width)
        assert got == _outcome(_reference_table, path, width)


def _edge_file(tmp_path, n_rows=3_000):
    """An edges file of ``n_rows`` rows over 300 entities and 5 relations,
    with duplicates, and a comment and a CRLF line that send two blocks
    through the per-line parse."""
    rng = random.Random(0)
    lines = [f"e{rng.randrange(300):03d}\tr{rng.randrange(5)}\te{rng.randrange(300):03d}\n" for _ in range(n_rows)]
    lines[10] = lines[9]
    lines[n_rows // 2] = "# a comment\n"
    lines[-5] = lines[-5].replace("\n", "\r\n")
    path = tmp_path / "edges.tsv"
    path.write_text("".join(lines), newline="")
    return path


class TestCodedTable:
    def test_extend_and_write_give_the_bytes_of_the_rows(self, tmp_path):
        # as the benchmark inputs do: load, extend a row at a time and in
        # runs with new names, old names and duplicates, write
        path = _edge_file(tmp_path)
        more = [("e001", "r0", "e002"), ("new0", "dist0", "e003"), ("e004", "r1", "new0")]
        more += [(f"e{i:03d}", f"dist{i % 2}", f"new{i}") for i in range(50)] * 2
        table, rows = load_edges(path), list(load_edges(path))
        assert len(table) == len(rows) == 2_999  # the comment is no row; duplicates count
        for i in range(0, len(more), 7):
            table.extend(iter(more[i : i + 7]))
            rows.extend(more[i : i + 7])
        assert len(table) == len(rows)
        assert list(table) == rows
        assert [table[i] for i in (0, 1, -1, len(rows) - 2)] == [rows[i] for i in (0, 1, -1, -2)]
        write_edges(tmp_path / "from-table.tsv", table)
        write_edges(tmp_path / "from-rows.tsv", rows)
        assert (tmp_path / "from-table.tsv").read_bytes() == (tmp_path / "from-rows.tsv").read_bytes()

    def test_types_read_as_rows(self, tmp_path):
        path = tmp_path / "types.tsv"
        path.write_text("ann\tPerson\nbob\tPerson\nbob\tAuthor\nann\tPerson\n")
        table = load_types(path)
        assert len(table) == 4
        assert [(e, t) for e, t in table] == [("ann", "Person"), ("bob", "Person"), ("bob", "Author"), ("ann", "Person")]
        assert table[-2] == ("bob", "Author")
        write_types(tmp_path / "out.tsv", table)
        assert (tmp_path / "out.tsv").read_text() == "ann\tPerson\nbob\tAuthor\nbob\tPerson\n"

    @pytest.mark.parametrize("i", [3, -4])
    def test_index_past_either_end_raises(self, tmp_path, i):
        path = tmp_path / "edges.tsv"
        path.write_text("a\tr\tb\nb\tr\tc\nc\tr\ta\n")
        with pytest.raises(IndexError):
            load_edges(path)[i]

    def test_rows_of_another_width_rejected(self):
        with pytest.raises(ValueError, match=r"expected rows of 3 fields, got lengths \[2, 3\]"):
            hio.CodedTable(3, [("a", "r", "b"), ("a", "b")])

    @pytest.mark.parametrize("width", [0, 1, 4])
    def test_table_width_is_two_or_three(self, width):
        with pytest.raises(ValueError, match=f"rows have 2 or 3 fields, not {width}"):
            hio.CodedTable(width)

    def test_slices_are_lists_of_rows(self, tmp_path):
        path = _edge_file(tmp_path)
        table, rows = load_edges(path), list(load_edges(path))
        for cut in (slice(None), slice(5, 20), slice(-7, None), slice(None, None, -3), slice(10, 2), slice(0, 9999, 997)):
            assert table[cut] == rows[cut]

    @pytest.mark.parametrize("n", [1, 4095, 4096, 4097, 9000])
    def test_rows_extended_count_and_read_before_and_after_coding(self, n):
        # extend gathers rows and codes them some thousands at a time: rows
        # not yet coded count and read as the coded ones do
        rows = [(f"e{i % 37}", f"r{i % 3}", f"e{i % 11}") for i in range(n)]
        table = hio.CodedTable(3, rows[:1])
        assert table[0] == rows[0]  # codes the first row and drops the dicts
        for i in range(1, n, 500):
            table.extend(iter(rows[i : i + 500]))
            assert len(table) == min(i + 500, n)
        assert table[-1] == rows[-1]
        table.extend(rows[:1] * 2)  # duplicates count
        assert len(table) == n + 2
        assert list(table) == rows + rows[:1] * 2
        assert table.names == list(dict.fromkeys(name for s, _, t in rows for name in (s, t)))

    def test_error_in_a_later_types_block_names_its_absolute_line(self, tmp_path):
        row = "e00000\tT\n"
        bad = 2 * hio._BLOCK_CHARS // len(row) + 100  # in the third block
        lines = [row] * (bad - 1) + ["e00000\tT\tU\n"] + [row] * 10
        lines[5] = "\n"  # a blank line sends the first block through the per-line parse
        path = tmp_path / "types.tsv"
        path.write_text("".join(lines))
        with pytest.raises(ParseError) as err:
            load_types(path)
        assert (err.value.lineno, err.value.text) == (bad, "e00000\tT\tU")

    def test_a_row_keeps_its_codes_only(self, tmp_path):
        # 30k rows over 300 entities and 5 relations: three int32 codes a row,
        # with the code arrays' spare room, plus each distinct name once.
        # A tuple a row costs 72 bytes or more
        n_rows = 30_000
        path = _edge_file(tmp_path, n_rows)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            table = load_edges(path)
            kept = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(table.names) == 300 and len(table.labels) == 5
        assert kept < 16 * n_rows + 200 * (300 + 5) + 4096


class TestExamples:
    def test_optional_columns(self, tmp_path):
        path = tmp_path / "ex.tsv"
        path.write_text("a\tb\na\tc\t2.5\na\td\t1\t0\n")
        rows = load_examples(path)
        assert rows == [
            ExampleRow("a", "b", 1.0, None),
            ExampleRow("a", "c", 2.5, None),
            ExampleRow("a", "d", 1.0, 0),
        ]

    def test_bad_weight(self, tmp_path):
        path = tmp_path / "ex.tsv"
        path.write_text("a\tb\theavy\n")
        with pytest.raises(ParseError, match="weight"):
            load_examples(path)

    def test_bad_label(self, tmp_path):
        path = tmp_path / "ex.tsv"
        path.write_text("a\tb\t1.0\t2\n")
        with pytest.raises(ParseError, match="label"):
            load_examples(path)

    def test_pair_set_excludes_negatives(self):
        rows = [ExampleRow("a", "b", 1.0, 1), ExampleRow("a", "c", 1.0, 0), ExampleRow("a", "d")]
        eps = pair_set_from_rows(rows)
        assert eps.pairs == (("a", "b"), ("a", "d"))

    def test_empty_example_file_surfaces_precondition(self, tmp_path):
        path = tmp_path / "ex.tsv"
        path.write_text("# nothing here\n")
        with pytest.raises(ValueError, match="non-empty"):
            pair_set_from_rows(load_examples(path))


class TestRoundTrip:
    def test_canonical_round_trip(self, tmp_path, g2_dir):
        parsed = parse_bundle(bundle_for(g2_dir))
        edges = [
            (u, rel, w)
            for u in parsed.graph.entities
            for rel in parsed.graph.relations
            for w in parsed.graph.out_neighbors(u, DirectedRelation(rel))
        ]
        types = [(e, t) for e in parsed.graph.entities for t in sorted(parsed.graph.assigned_types(e))]
        hier = [(t, p) for t in parsed.hierarchy.types for p in parsed.hierarchy.parents(t)]

        out = tmp_path
        write_edges(out / "edges.tsv", edges)
        write_types(out / "types.tsv", types)
        write_hierarchy(out / "hierarchy.tsv", hier)
        write_examples(out / "examples.tsv", parsed.example_rows)
        once = parse_bundle(bundle_for(out))

        again = tmp_path / "again"
        again.mkdir()
        write_edges(again / "edges.tsv", edges)
        write_types(again / "types.tsv", types)
        write_hierarchy(again / "hierarchy.tsv", hier)
        write_examples(again / "examples.tsv", once.example_rows)
        assert (again / "edges.tsv").read_bytes() == (out / "edges.tsv").read_bytes()
        assert (again / "examples.tsv").read_bytes() == (out / "examples.tsv").read_bytes()

        assert tuple(once.graph.entities) == tuple(parsed.graph.entities)
        for e in parsed.graph.entities:
            assert once.graph.entity_types(e) == parsed.graph.entity_types(e)
            for rel in parsed.graph.relations:
                for inv in (False, True):
                    d = DirectedRelation(rel, inv)
                    assert once.graph.out_neighbors(e, d) == parsed.graph.out_neighbors(e, d)


def _reference_write_lines(path, records):
    """The writers' contract: the sorted lines of the distinct records'
    tab-joined fields, each field as ``str`` gives it."""
    lines = sorted("\t".join(str(f) for f in rec) for rec in set(records))
    path.write_text("\n".join(lines) + ("\n" if lines else ""), encoding="utf-8")


@st.composite
def _writer_cases(draw):
    """A public writer and its records, over a few names that include
    prefixes of one another, non-ASCII letters, a tab and characters below
    tab, with some records repeated."""
    name = st.text("ab\x00\x05\x08\té名", min_size=1, max_size=4)
    pool = draw(st.lists(name, min_size=1, max_size=5))
    pool += [n[:-1] for n in pool if len(n) > 1]
    field = st.sampled_from(pool)
    write = draw(st.sampled_from([write_edges, write_types, write_hierarchy, write_examples]))
    if write is write_examples:
        weight = st.floats(0, 10, allow_nan=False) | st.sampled_from([1.0, 0.1, 2.5])
        record = st.builds(ExampleRow, field, field, weight, st.sampled_from([None, 0, 1]))
    else:
        record = st.tuples(*[field] * (3 if write is write_edges else 2))
    records = draw(st.lists(record, max_size=30))
    if records:
        records += draw(st.lists(st.sampled_from(records), max_size=5))
    return write, records


class TestWriters:
    @given(
        case=_writer_cases(),
        container=st.sampled_from([list, set, iter]),
        block=st.sampled_from([1, 2, 4096]),
    )
    @settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_equals_reference_writer(self, tmp_path, case, container, block):
        write, records = case
        with mock.patch.object(hio, "_write_lines", _reference_write_lines):
            write(tmp_path / "expected.tsv", container(records))
        with mock.patch.object(hio, "_WRITE_LINES", block):
            write(tmp_path / "written.tsv", container(records))
        assert (tmp_path / "written.tsv").read_bytes() == (tmp_path / "expected.tsv").read_bytes()

    @pytest.mark.parametrize(
        "records",
        [
            [("b", 2), ("a", 1), ("b", 2)],  # fields that are not str
            [(1, "a"), ("x", "b"), (1, "a")],  # records that cannot be compared
            [(1,), (1.0,), ("1",)],  # equal records that print differently
            ["ba", "ab", "ba"],  # strings as records of one-character fields
        ],
    )
    def test_other_records_equal_reference_writer(self, tmp_path, records):
        _reference_write_lines(tmp_path / "expected.tsv", records)
        write_edges(tmp_path / "written.tsv", records)
        assert (tmp_path / "written.tsv").read_bytes() == (tmp_path / "expected.tsv").read_bytes()

    def test_write_edges_holds_one_block_of_lines(self, tmp_path):
        # 20k distinct triples in no order: one reference per record and one
        # block of lines trace about 0.8 MB; a set of the records, a string per
        # line and the file's text and encoding at once trace about 3.6 MB
        triples = [(f"e{i:05d}", f"r{i % 7}", f"e{i * 7919 % 20_000:05d}") for i in range(20_000)]
        random.Random(0).shuffle(triples)
        given_order = list(triples)
        tracemalloc.start()
        try:
            write_edges(tmp_path / "edges.tsv", triples)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2_000_000
        assert triples == given_order
        lines = (tmp_path / "edges.tsv").read_text(encoding="utf-8").splitlines()
        assert lines == sorted("\t".join(t) for t in triples)


class TestReports:
    def test_header_and_rows(self, tmp_path):
        path = tmp_path / "report.jsonl"
        write_report(path, "score", [{"a": 1}, {"a": 2}], {"note": "x"})
        header, rows = read_report(path)
        assert header["report"] == "score"
        assert header["version"] == 1
        assert header["note"] == "x"
        assert rows == [{"a": 1}, {"a": 2}]

    def test_missing_header_rejected(self, tmp_path):
        path = tmp_path / "report.jsonl"
        path.write_text('{"a": 1}\n')
        with pytest.raises(ValueError):
            read_report(path)


def _model_fields(path):
    model, paths = load_model(path)
    return model.weights.tolist(), model.bias, model.l2_strength, model.fit_bias, paths


# every reader of an input file, with a file of three data lines it reads
_READERS = {
    "edges": (load_edges, b"a\tr\tb\nc\tr\td\ne\tr\tf\n"),
    "types": (load_types, b"a\tT\nc\tT\ne\tU\n"),
    "hierarchy": (load_hierarchy, b"T\tObject\nU\tT\nV\tU\n"),
    "examples": (load_examples, b"a\tb\nc\td\t0.5\ne\tf\t1\t1\n"),
    "report": (read_report, b'{"report": "x", "version": 1}\n{"a": 1}\n{"b": 2}\n'),
    "model": (_model_fields, b"hinwalk-model\t1\nl2\t0.01\nfit_bias\t1\nbias\t0.5\npath\t2\tA -r-> B\n"),
    "paths": (_load_paths_file, b"A -r-> B\nB -s~-> C\nC -t-> D\n"),
}


class TestEncodings:
    @pytest.mark.parametrize("read, data", _READERS.values(), ids=_READERS)
    def test_leading_byte_order_mark_is_skipped(self, tmp_path, read, data):
        plain, marked = tmp_path / "plain", tmp_path / "marked"
        plain.write_bytes(data)
        marked.write_bytes(b"\xef\xbb\xbf" + data)
        assert list(read(marked)) == list(read(plain))

    @pytest.mark.parametrize("read, data", _READERS.values(), ids=_READERS)
    @pytest.mark.parametrize("newline", [b"\n", b"\r\n", b"\r"])
    def test_bytes_not_utf8_are_a_parse_error_at_their_line(self, tmp_path, read, data, newline):
        lines = data.splitlines()
        lines[2] = lines[2][:1] + b"\xff" + lines[2][1:]
        path = tmp_path / "bad"
        path.write_bytes(newline.join(lines) + newline)
        with pytest.raises(ParseError) as err:
            read(path)
        assert (err.value.lineno, err.value.reason) == (3, "not UTF-8 (invalid start byte)")
        assert str(err.value).startswith(f"{path}:3: not UTF-8")

    def test_bad_byte_past_the_first_block_names_its_line(self, tmp_path):
        lines = [f"e{i:05d}\tr\te{i + 1:05d}".encode() for i in range(3000)]
        lines[2499] = lines[2499][:-2] + b"\xe9" + lines[2499][-1:]  # Latin-1, not UTF-8
        path = tmp_path / "edges.tsv"
        path.write_bytes(b"\n".join(lines) + b"\n")
        with pytest.raises(ParseError) as err:
            load_edges(path)
        assert err.value.lineno == 2500
        assert err.value.text == "e02499\tr\te025\\xe90"

    def test_byte_order_mark_only_at_the_start_is_skipped(self, tmp_path):
        path = tmp_path / "edges.tsv"
        path.write_bytes(b"\xef\xbb\xbf\xef\xbb\xbfa\tr\tb\n")
        assert list(load_edges(path)) == [("\ufeffa", "r", "b")]  # a second mark is text


# the characters str.splitlines breaks at besides \n and \r
_NOT_NEWLINES = ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]


class TestLineBreaks:
    def test_paths_file_example_names_its_first_line(self, tmp_path):
        # a form feed is whitespace inside a meta-path, so the first line
        # holds six tokens: that line is the malformed one
        path = tmp_path / "paths.txt"
        path.write_text("A -r-> B\x0cC -s-> D\nbad path ->\n", encoding="utf-8")
        with pytest.raises(ParseError) as err:
            _load_paths_file(str(path))
        assert str(err.value).startswith(f"{path}:1:")
        assert err.value.text == "A -r-> B\x0cC -s-> D"

    @pytest.mark.parametrize("char", _NOT_NEWLINES)
    def test_paths_file_lines_break_only_at_newlines(self, tmp_path, char):
        path = tmp_path / "paths.txt"
        path.write_text(f"A -r-> B{char}\r\nbad path ->\n", encoding="utf-8")
        with pytest.raises(ParseError) as err:
            _load_paths_file(str(path))
        assert str(err.value).startswith(f"{path}:2:")

    @pytest.mark.parametrize("char", _NOT_NEWLINES)
    def test_model_file_lines_break_only_at_newlines(self, tmp_path, char):
        path = tmp_path / "model.tsv"
        text = f"hinwalk-model\t1\nl2\t0.01\nfit_bias\t1\r\nbias\t0.5\npath\t2\tA -r-> B{char}\nbogus\t1\n"
        path.write_text(text, encoding="utf-8", newline="")
        with pytest.raises(ParseError) as err:
            load_model(path)
        assert (err.value.lineno, err.value.reason) == (6, "unknown model field 'bogus'")

