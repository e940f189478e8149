import copy
import csv
import itertools
import json
import os
import random
import re
import sys
import tempfile
import threading
from collections import Counter
from decimal import Decimal, InvalidOperation
from io import StringIO
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from dwmerge import hierarchy_merge, io
from dwmerge.cli import main
from dwmerge.errors import LoadError
from dwmerge.generator import (PRESETS, generate_pair, preset_basic, preset_const22,
                               preset_divergent, preset_star4)
from dwmerge.model import (Dimension, Fact, Hierarchy, Schema, cell_sort_key, cell_to_text,
                           star_schema, validate)
from dwmerge.star_merge import merge_stars

from conftest import dimension_from_rows, fact_from_rows, make_dimension, rows_of, traced


def write_minimal(tmp_path, *, rows="C1,x\nC2,y\n", header="Code,Attr",
                  attributes=("Code", "Attr")):
    (tmp_path / "customer.csv").write_text(f"{header}\n{rows}", encoding="utf-8")
    (tmp_path / "sales.csv").write_text("Code,Quantity\nC1,3\n", encoding="utf-8")
    descriptor = {
        "formatVersion": 1,
        "name": "mini",
        "facts": [{"name": "sales", "table": "sales.csv",
                   "measures": ["Quantity"],
                   "dimensionKeys": [{"dimension": "customer", "column": "Code"}]}],
        "dimensions": [{"name": "customer", "table": "customer.csv", "id": "Code",
                        "attributes": list(attributes),
                        "hierarchies": [{"name": "H", "parameters": ["Code"]}]}],
    }
    (tmp_path / "schema.json").write_text(json.dumps(descriptor), encoding="utf-8")
    return tmp_path


def test_load_well_formed(tmp_path):
    schema = io.load_dw(write_minimal(tmp_path))
    assert schema.fact is not None
    assert validate(schema) == []
    assert rows_of(schema.fact)[0]["Quantity"] == Decimal(3)
    assert rows_of(schema.dimension("customer"))["C1"]["Attr"] == "x"


def test_missing_header_column(tmp_path):
    write_minimal(tmp_path, header="Code", rows="C1\n", attributes=("Code", "Attr"))
    with pytest.raises(LoadError, match="Attr"):
        io.load_dw(tmp_path)


def test_null_and_whitespace_and_literal_null(tmp_path):
    write_minimal(tmp_path, rows='C1,\nC2,   \nC3,NULL\n')
    dim = io.load_dw(tmp_path).dimension("customer")
    assert rows_of(dim)["C1"]["Attr"] is None
    assert rows_of(dim)["C2"]["Attr"] is None
    assert rows_of(dim)["C3"]["Attr"] == "NULL"


def test_duplicate_root_strict_vs_lenient(tmp_path):
    write_minimal(tmp_path, rows="C1,x\nC1,y\n")
    with pytest.raises(LoadError, match="duplicate id"):
        io.load_dw(tmp_path, strict=True)
    dim = io.load_dw(tmp_path).dimension("customer")
    assert rows_of(dim)["C1"]["Attr"] == "x"  # first row wins


@pytest.mark.parametrize("strict", [True, False])
@pytest.mark.parametrize("rows, line", [
    ("C1,x\n,y\nC2,z\n", 3),
    ("C1,x\n   ,y\n", 3),
    (",x\nC1,y\n", 2),
    ("C1,x\n,y\n,z\n", 3),  # two, which the dimension's index also refuses as a repeat
], ids=["one", "whitespace-only", "first-row", "two"])
def test_null_id_is_refused_on_its_line(tmp_path, rows, line, strict):
    write_minimal(tmp_path, rows=rows)
    with pytest.raises(LoadError, match="dimension 'customer': null id value") as err:
        io.load_dw(tmp_path, strict=strict)
    assert (err.value.path, err.value.line) == (str(tmp_path / "customer.csv"), line)


def test_null_and_repeated_ids_report_the_first_fault_in_file_order(tmp_path, caplog):
    customer = str(tmp_path / "customer.csv")
    # A repeated id after a null one: the null is named, strict or not.
    write_minimal(tmp_path, rows="C1,x\n,y\nC1,z\n")
    for strict in (True, False):
        with pytest.raises(LoadError, match="null id value") as err:
            io.load_dw(tmp_path, strict=strict)
        assert (err.value.path, err.value.line) == (customer, 3)
    assert "duplicate id" not in caplog.text
    # A null id after a repeated one: a strict load names the repeat, a
    # lenient one warns of it and then names the null.
    write_minimal(tmp_path, rows="C1,x\nC1,y\n,z\n")
    with pytest.raises(LoadError, match="duplicate id 'C1'") as err:
        io.load_dw(tmp_path, strict=True)
    assert (err.value.path, err.value.line) == (customer, 3)
    with pytest.raises(LoadError, match="null id value") as err:
        io.load_dw(tmp_path)
    assert (err.value.path, err.value.line) == (customer, 4)
    assert f"{customer}:3, keeping the first row" in caplog.text


@pytest.mark.parametrize("strict", [True, False])
def test_null_fact_key_is_refused_on_its_line(tmp_path, strict):
    write_minimal(tmp_path)
    (tmp_path / "sales.csv").write_text("Code,Quantity\nC1,3\n  ,4\nC2,5\n", encoding="utf-8")
    with pytest.raises(LoadError, match=re.escape(
            "fact 'sales': key Code='' has no row in dimension 'customer'")) as err:
        io.load_dw(tmp_path, strict=strict)
    assert (err.value.path, err.value.line) == (str(tmp_path / "sales.csv"), 3)


def test_dangling_fact_key(tmp_path):
    write_minimal(tmp_path)
    (tmp_path / "sales.csv").write_text("Code,Quantity\nC9,3\n", encoding="utf-8")
    with pytest.raises(LoadError, match="C9"):
        io.load_dw(tmp_path)


def test_bad_number(tmp_path):
    write_minimal(tmp_path)
    (tmp_path / "sales.csv").write_text("Code,Quantity\nC1,3\nC2,abc\n", encoding="utf-8")
    with pytest.raises(LoadError, match="'abc' is not a number") as err:
        io.load_dw(tmp_path)
    assert (err.value.path, err.value.line) == (str(tmp_path / "sales.csv"), 3)


def test_repeated_header_column(tmp_path, capsys):
    write_minimal(tmp_path, header="Code,Attr,Attr", rows="C1,WRONG,x\nC2,WRONG,y\n")
    with pytest.raises(LoadError, match="header repeats column 'Attr'") as err:
        io.load_dw(tmp_path)
    assert err.value.path == str(tmp_path / "customer.csv")
    assert err.value.line == 1
    assert main(["validate", "--strict", str(tmp_path)]) == 2
    assert f"{tmp_path / 'customer.csv'}:1" in capsys.readouterr().err


def test_header_order_and_undeclared_column(tmp_path):
    write_minimal(tmp_path, header="Attr,Extra,Code", rows="x,e1,C1\ny,e2,C2\n")
    schema = io.load_dw(tmp_path)
    dim = schema.dimension("customer")
    assert [list(row.items()) for row in rows_of(dim).values()] == [
        [("Code", "C1"), ("Attr", "x")], [("Code", "C2"), ("Attr", "y")]]
    io.write_dw(schema, tmp_path / "dw")
    assert (tmp_path / "dw" / "customer.csv").read_text(encoding="utf-8") == \
        "Code,Attr\nC1,x\nC2,y\n"


def test_row_width_mismatch_reports_its_line(tmp_path):
    write_minimal(tmp_path, rows="C1,x\nC2\n")
    with pytest.raises(LoadError, match="row has 1 fields, header has 2") as err:
        io.load_dw(tmp_path)
    assert (err.value.path, err.value.line) == (str(tmp_path / "customer.csv"), 3)


def test_errors_report_physical_lines_after_a_multiline_field(tmp_path, caplog):
    # Lines: 1 header, 2-3 the C1 record with a quoted newline, 4 C2, 5 C1 again.
    write_minimal(tmp_path, rows='C1,"two\nlines"\nC2,y\nC1,z\n')
    customer = str(tmp_path / "customer.csv")
    with pytest.raises(LoadError, match="duplicate id 'C1'") as err:
        io.load_dw(tmp_path, strict=True)
    assert (err.value.path, err.value.line) == (customer, 5)
    io.load_dw(tmp_path)
    assert f"{customer}:5, keeping the first row" in caplog.text
    # The fact loader numbers lines the same way: "C1\n" trims to C1.
    (tmp_path / "sales.csv").write_text('Code,Quantity\n"C1\n",3\nC9,1\n', encoding="utf-8")
    with pytest.raises(LoadError, match="C9") as err:
        io.load_dw(tmp_path)
    assert (err.value.path, err.value.line) == (str(tmp_path / "sales.csv"), 4)
    (tmp_path / "sales.csv").write_text('Code,Quantity\n"C1\n",3\nC2,abc\n', encoding="utf-8")
    with pytest.raises(LoadError, match="'abc' is not a number") as err:
        io.load_dw(tmp_path)
    assert err.value.line == 4
    # A record that spans lines reports the line it starts on.
    write_minimal(tmp_path, rows='C1,x\nC2,"a\nb",extra\n')
    with pytest.raises(LoadError, match="row has 3 fields") as err:
        io.load_dw(tmp_path)
    assert (err.value.path, err.value.line) == (customer, 3)


# io._read_csv as it was when it built a dict per record, checking each
# record as it arrived: kept verbatim as the reference, except that it
# decodes a file that is not UTF-8 a byte at a time, so that it meets the
# bad byte in file order rather than at the start of the 8 KB block that
# holds it, and that a number int() takes is that int unless it is a
# negative zero.
def reference_read_csv(path: Path, columns: list[str], numeric: set[str]):
    where = str(path)
    try:
        handle = path.open("r", encoding="utf-8", newline="")
    except OSError as exc:
        raise LoadError(f"cannot read table: {exc}", path=where) from exc
    try:
        path.read_bytes().decode("utf-8")
    except UnicodeDecodeError:
        handle._CHUNK_SIZE = 1
    start = 1  # the line the record being read starts on
    with handle:
        reader = csv.reader(handle)
        try:
            header = next(reader, None)
            if header is None:
                raise LoadError("table file is empty, header expected", path=where, line=1)
            repeated = [c for i, c in enumerate(header) if c in header[:i]]
            if repeated:
                raise LoadError(f"header repeats column {repeated[0]!r}", path=where, line=1)
            missing = [c for c in columns if c not in header]
            if missing:
                raise LoadError(f"header is missing declared columns {missing!r}",
                                path=where, line=1)
            width = len(header)
            positions = [header.index(c) for c in columns]
            # Parse numbers in file order, so a row with two bad ones names the leftmost.
            numeric_at = sorted((i for i, c in enumerate(columns) if c in numeric),
                                key=positions.__getitem__)
            rows = []
            lines: list[int] = []
            # A record starts one line after the previous one (the header first) ends.
            start = reader.line_num + 1
            for record in reader:
                if len(record) != width:
                    raise LoadError(f"row has {len(record)} fields, header has {width}",
                                    path=where, line=start)
                values = [record[i].strip() or None for i in positions]
                for i in numeric_at:
                    value = values[i]
                    if value is not None:
                        try:
                            number = Decimal(value)
                        except InvalidOperation:
                            number = None
                        # NaN differs from itself, so it could never match or fuse.
                        if number is None or number.is_nan():
                            raise LoadError(f"{value!r} is not a number",
                                            path=where, line=start)
                        # An integer spelling loads as its int, but -0 only
                        # as a Decimal writes back with its sign.
                        try:
                            whole = int(value)
                        except ValueError:
                            whole = None
                        if whole is not None and not (whole == 0 and number.is_signed()):
                            number = whole
                        values[i] = number
                rows.append(dict(zip(columns, values)))
                lines.append(start)
                start = reader.line_num + 1
        except csv.Error as exc:
            raise LoadError(f"malformed CSV: {exc}", path=where, line=start) from None
        except UnicodeDecodeError:
            # The reader decodes ahead in blocks, so place the bad byte in the file's bytes.
            data = path.read_bytes()
            try:
                data.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise LoadError(f"cannot read table: {exc}", path=where,
                                line=data.count(b"\n", 0, exc.start) + 1) from None
            raise
        return rows, lines


def random_table(rng: random.Random) -> tuple[bytes, list[str]]:
    """A CSV table over one, two or five of the columns a-d and x, and its
    header. Its records may hold bad numbers, NaNs, blanks, quoted newlines,
    a wrong width, an over-long field or a bad byte; a table of one or two
    columns also blank lines. In a one-column table an empty cell is one."""
    header = rng.sample(["a", "b", "c", "d", "x"], rng.choice([1, 2, 5, 5, 5]))
    cells = ["1", "2.50", "-3", " 4 ", "", "   ", "abc", "NaN", "sNaN", "1e3", "Inf",
             '"x\ny"', "z", "1_0"]
    records = []
    for _ in range(rng.randint(0, 8)):
        if len(header) < 5 and rng.random() < 0.1:
            records.append("")
            continue
        width = len(header) + (0 if rng.random() < 0.9 else rng.choice([-1, 1]))
        records.append(",".join(rng.choice(cells[:6] if rng.random() < 0.7 else cells)
                                for _ in range(width)))
    if records and rng.random() < 0.05:
        records.insert(rng.randrange(len(records)),
                       ",".join(["9" * 131073] + ["1"] * (len(header) - 1)))
    data = "\n".join([",".join(header)] + records).encode() + b"\n"
    if rng.random() < 0.05:
        at = rng.randrange(len(data))
        data = data[:at] + b"\xff" + data[at:]
    return data, header


def read_as_rows(path: Path, columns: list[str], numeric: set[str]):
    cells, lines = io._read_csv(path, columns, numeric)
    return [dict(zip(columns, record)) for record in zip(*cells)], list(lines)


def read_outcome(read, table: Path, columns: list[str], numeric: set[str]):
    try:
        return read(table, columns, numeric)
    except LoadError as exc:
        return ("LoadError", str(exc), exc.line)


def test_read_csv_matches_reference_reader(tmp_path):
    rng = random.Random(8080)
    table = tmp_path / "t.csv"
    seen = dict.fromkeys(["rows", "not a number", "fields, header", "malformed CSV",
                          "cannot read table", "row has 0 fields, header has 1",
                          "row has 0 fields, header has 2"], 0)
    for case in range(400):
        data, header = random_table(rng)
        table.write_bytes(data)
        names = [c for c in header if c != "x"] or header
        columns = rng.sample(names, rng.randint(1, len(names)))
        numeric = set(rng.sample(columns, rng.randint(0, len(columns))))
        got = read_outcome(read_as_rows, table, columns, numeric)
        assert repr(got) == repr(read_outcome(reference_read_csv, table, columns, numeric)), \
            f"case {case}"
        seen["rows"] += got[0] != "LoadError" and got[1] != []
        for kind in list(seen)[1:]:
            seen[kind] += got[0] == "LoadError" and kind in got[1]
    assert all(seen.values()), seen
    # The first failure in file order wins, and of two bad numbers in one
    # record the leftmost, whatever the order of the declared columns.
    for text, line, message in [("a,b\n1,x\n1,2,3\n", 2, "'x' is not a number"),
                                ("a,b\n1,2,3\n1,x\n", 2, "row has 3 fields"),
                                ("a,b\n1,2\ny,x\n", 3, "'y' is not a number")]:
        table.write_text(text, encoding="utf-8")
        got = read_outcome(read_as_rows, table, ["b", "a"], {"a", "b"})
        assert got == read_outcome(reference_read_csv, table, ["b", "a"], {"a", "b"})
        assert message in got[1] and got[2] == line, got


# Tables at the edges of the split path: the csv module's reading of them
# (cells, lines or error) is the reference.
EDGE_TABLES = [
    "a\nx\n\ny\n", "a\nx\n \ny", "a,b\n1,2\n\n3,4\n", "a,b\n1,2\n\n", "a,b\n1,2",
    "\ufeffa,b\n1,2\n", "\ufeffx,a,b\n0,1,2\n", "a,b\n1,x\x00y\n", "a,b\n1,\x00\n",
    "a,b\n", "a,b", "", "\n", "\n\na,b\n", "a,b\n1,2\u2028\n3,4\x85\n",
    "a,b\n1," + "9" * 131073 + "\n2,3\n", "a,b\n1," + "9" * 131072 + "\n",
    "a,b\n" + "1" * 70000 + "," + "2" * 70000 + "\n", "a,a\n1,2\n", "b\n1\n",
    "a,b\n1,2,3\n4,5\n", "a,b\n1\n", "a,b\n1,NaN\n", "a,b\n1, 2 \n\u3000,x\n",
    # Field counts that cancel out over the lines, so only the newline
    # positions show the table irregular.
    "a,b\n1\n2,3,4\n",
    "a,b\n\n1,2\n", "a,b\n,1\n2,\n", "a,b\n,1\n2,3\n", "a,b\n1,2\n 3 , 4 ",
]


@pytest.mark.parametrize("text", EDGE_TABLES, ids=range(len(EDGE_TABLES)))
def test_read_csv_edge_tables_match_reference_reader(text, tmp_path):
    table = tmp_path / "t.csv"
    table.write_text(text, encoding="utf-8", newline="")
    for columns in (["a"], ["b", "a"]):
        for numeric in (set(), {"a"}, set(columns)):
            got = read_outcome(read_as_rows, table, columns, numeric)
            assert repr(got) == repr(read_outcome(reference_read_csv, table, columns, numeric))


# The ASCII characters that str.strip() removes from a cell: no cell holds a line end.
ASCII_SPACES = [c for c in map(chr, range(128)) if c.isspace() and c not in "\n\r"]


def test_split_path_strips_exactly_the_ascii_whitespace():
    # A chunk that is ASCII and holds none of io._ASCII_SPACES skips the
    # strip, so those must be every ASCII character str.strip() removes but
    # the line ends; every other whitespace character fails isascii().
    chars = list(map(chr, range(sys.maxunicode + 1)))
    assert {c for c in chars if c.isspace()} == {c for c in chars if not c.strip()}
    assert sorted(io._ASCII_SPACES) == ASCII_SPACES


@pytest.mark.parametrize("chars", [io._CHUNK_CHARS, 1, 5, 13])
def test_read_csv_strips_each_ascii_space_as_the_reference_does(chars, tmp_path, monkeypatch):
    monkeypatch.setattr(io, "_CHUNK_CHARS", chars)
    table = tmp_path / "t.csv"
    for space in ASCII_SPACES:
        for other in ("x", "\u00e9"):  # an ASCII table, and one that is not
            rows = [f"{space}1,{other}", f"2{space},{other}{space}", f"{space},{space}{other}",
                    f"3,{space}"]
            table.write_text("a,b\n" + "\n".join(rows) + "\n", encoding="utf-8", newline="")
            for numeric in (set(), {"a"}):
                got = read_outcome(read_as_rows, table, ["a", "b"], numeric)
                assert repr(got) == repr(read_outcome(reference_read_csv, table, ["a", "b"],
                                                      numeric)), (space, other, numeric)
                assert got[0] != "LoadError" and len(got[0]) == 4, got


@pytest.mark.parametrize("chars", [1, 5, 13])
def test_read_csv_matches_reference_reader_in_small_chunks(chars, tmp_path, monkeypatch):
    # Chunk boundaries then fall inside lines, the header included.
    monkeypatch.setattr(io, "_CHUNK_CHARS", chars)
    real_split = io._split_csv
    split = []

    def count_split(*args):
        result = real_split(*args)
        split.append(result is not None)
        return result

    monkeypatch.setattr(io, "_split_csv", count_split)
    test_read_csv_matches_reference_reader(tmp_path)
    assert sum(split) > 100, sum(split)


def test_read_csv_reports_faults_in_file_order(tmp_path):
    # 3,200 rows of 8 bytes put the wrong field count on line 3,203 and the
    # bad byte on line 4,800 in one 8 KB block, which the reader decodes
    # before it splits line 3,203.
    lines = ["a,b"] + ["€€,"] * 3200 + ["1,2", "1,2,3"] + ["1,2"] * 1596
    data = "\n".join(lines).encode() + b"\n\xff,1\n"
    assert data.index(b"1,2,3") // 8192 == data.index(b"\xff") // 8192
    table = tmp_path / "t.csv"
    table.write_bytes(data)
    with pytest.raises(LoadError, match="row has 3 fields, header has 2") as err:
        io._read_csv(table, ["a", "b"], set())
    assert err.value.line == 3203
    # With no earlier fault the bad byte is named on its own line, also when
    # it comes in the header or inside a quoted record that started earlier.
    for text, line in [(b"a,b\n1,2\n3,\xff\n", 3), (b"a,\xff\n1,2\n", 1),
                       (b'a,b\n"x\ny\xff",1\n', 3)]:
        table.write_bytes(text)
        with pytest.raises(LoadError, match="cannot read table: 'utf-8' codec") as err:
            io._read_csv(table, ["a", "b"], set())
        assert err.value.line == line, text


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
def test_read_csv_reads_a_pipe(tmp_path):
    # A pipe cannot be read again, so it goes straight to the record reader.
    pipe = tmp_path / "t.csv"
    os.mkfifo(pipe)
    writer = threading.Thread(target=pipe.write_text, args=('a,b\n"1",2\n',))
    writer.start()
    try:
        assert io._read_csv(pipe, ["a", "b"], set()) == ([["1"], ["2"]], [2])
    finally:
        writer.join(timeout=10)
    assert not writer.is_alive()


def test_whitespace_only_number_is_null(tmp_path):
    write_minimal(tmp_path)
    (tmp_path / "sales.csv").write_text("Code,Quantity\nC1,  \n", encoding="utf-8")
    assert rows_of(io.load_dw(tmp_path).fact) == [{"Code": "C1", "Quantity": None}]


def test_quoted_field_round_trip(tmp_path):
    dim = make_dimension("customer", "Code", ("Code", "Attr"),
                         [("H", ("Code",))],
                         [("C1", 'comma, and "quote"'), ("C2", "line\nbreak")])
    fact = fact_from_rows("sales", ("Quantity",), (("customer", "Code"),),
                          [{"Code": "C1", "Quantity": Decimal("1.10")}],
                          frozenset({"Quantity"}))
    schema = star_schema("tricky", fact, (dim,))
    out = tmp_path / "dw"
    io.write_dw(schema, out)
    loaded = io.load_dw(out)
    got = loaded.dimension("customer")
    assert rows_of(got)["C1"]["Attr"] == 'comma, and "quote"'
    assert rows_of(got)["C2"]["Attr"] == "line\nbreak"
    assert rows_of(loaded.fact)[0]["Quantity"] == Decimal("1.10")
    # and the decimal keeps its textual scale
    assert "1.10" in (out / "sales.csv").read_text(encoding="utf-8")


def test_carriage_return_cell_round_trips(tmp_path, capsys):
    # The csv writer leaves a lone \r unquoted, and a reader ends a line there.
    write_minimal(tmp_path, rows='C1,"a\rb"\nC2,x\n')
    schema = io.load_dw(tmp_path, strict=True)
    assert rows_of(schema.dimension("customer"))["C1"]["Attr"] == "a\rb"
    io.write_dw(schema, tmp_path / "out")
    assert (tmp_path / "out" / "customer.csv").read_bytes() == \
        b'Code,Attr\n"C1","a\rb"\nC2,x\n'
    back = io.load_dw(tmp_path / "out", strict=True)
    assert rows_of(back.dimension("customer")) == rows_of(schema.dimension("customer"))
    assert main(["merge", str(tmp_path), str(tmp_path), str(tmp_path / "merged")]) == 0
    assert main(["validate", "--strict", str(tmp_path / "merged")]) == 0
    assert capsys.readouterr().out.endswith("merged: OK\n")


@pytest.mark.parametrize("preset", [preset_basic, preset_divergent])
def test_generated_round_trip(tmp_path, preset):
    dw1, _, _ = generate_pair(preset(seed=13))
    out = tmp_path / "dw"
    io.write_dw(dw1, out)
    loaded = io.load_dw(out)
    assert loaded.name == dw1.name
    for dim in dw1.dimensions:
        got = loaded.dimension(dim.name)
        assert got.attributes == dim.attributes
        assert {h.name: h.parameters for h in got.hierarchies} == \
            {h.name: h.parameters for h in dim.hierarchies}
        assert rows_of(got) == rows_of(dim)
    assert sorted(rows_of(loaded.fact), key=lambda r: sorted(map(str, r.values()))) == \
        sorted(rows_of(dw1.fact), key=lambda r: sorted(map(str, r.values())))


def test_write_is_byte_deterministic(tmp_path):
    dw1, _, _ = generate_pair(preset_basic(seed=3))
    io.write_dw(dw1, tmp_path / "a")
    io.write_dw(dw1, tmp_path / "b")
    for f in sorted((tmp_path / "a").iterdir()):
        assert f.read_bytes() == (tmp_path / "b" / f.name).read_bytes()


def random_cell(rng: random.Random):
    return rng.choice([None, "", " ", "x", "a b", "None", "1,2", 'say "hi"', "two\nlines",
                       "cr\rin", "\r", "\x00", "é", Decimal("1.10"), Decimal("-0"),
                       Decimal("1E+3"), Decimal("12345678901234567890.5"), Decimal(7),
                       7, -3, 0, Shouted("quiet"), Shouted("a,b")])


class Shouted(str):
    """A text whose str() is not its text; csv.writer writes the text."""

    def __str__(self) -> str:
        return self.upper() + "!"


# The cells a column of each kind draws from: only texts, texts and nulls,
# the text "None", str subclasses, numbers among texts, numbers only, and
# any cell at all.
COLUMN_KINDS = {
    "text": ["", "x", "y z", "None2"],
    "text and null": [None, "", "x", "y z"],
    "the text None": [None, "None", "x"],
    "str subclass": [Shouted("a"), Shouted(""), "x", None],
    "numbers among texts": ["x", "y z", Decimal("2.50"), 3, None],
    "numbers": [Decimal("2.50"), Decimal("-0"), 3, -1, None],
}


def random_column(rng: random.Random, kind: str, n: int) -> list:
    pool = COLUMN_KINDS.get(kind)
    return [rng.choice(pool) if pool else random_cell(rng) for _ in range(n)]


@pytest.mark.parametrize("rows", [2, 3])
def test_write_table_matches_csv_writer(rows, tmp_path, monkeypatch):
    # Blocks of 2-3 rows, so joined blocks and the writer's interleave in one
    # file. Only rows holding a \r differ from csv.writer: they are quoted in full.
    # The records are stored in a random row order, which the positions undo.
    # Each column is of one kind, so every way a block is rendered is met.
    monkeypatch.setattr(io, "_WRITE_ROWS", rows)
    rng = random.Random(rows)
    path = tmp_path / "t.csv"
    for case in range(600):
        width = rng.choice([1, 1, 2, 4])
        header = [f"c{i}" for i in range(width)]
        n = rng.randint(0, 12)
        kinds = [rng.choice([*COLUMN_KINDS, "any"]) for _ in header]
        records = list(map(list, zip(*(random_column(rng, k, n) for k in kinds))))
        order = rng.sample(range(len(records)), len(records))
        stored = [None] * len(records)
        for record, at in zip(records, order):
            stored[at] = record
        io._write_table(path, header, [[r[j] for r in stored] for j in range(width)], order)
        expected = StringIO()
        csv.writer(expected, lineterminator="\n").writerow(header)
        for record in records:
            quoting = csv.QUOTE_ALL if "\r" in "".join(map(cell_to_text, record)) \
                else csv.QUOTE_MINIMAL
            csv.writer(expected, lineterminator="\n", quoting=quoting).writerow(record)
        assert path.read_bytes() == expected.getvalue().encode(), f"case {case}"
        if not any("\r" in cell_to_text(c) for r in records for c in r):
            fresh = StringIO()
            csv.writer(fresh, lineterminator="\n").writerows([header, *records])
            assert path.read_bytes() == fresh.getvalue().encode(), f"case {case}"


def _shuffled(schema: Schema, rng: random.Random) -> Schema:
    """``schema`` rebuilt with the rows of each dimension and fact in a random order."""
    def shuffle(columns):
        order = list(range(len(columns[0]) if columns else 0))
        rng.shuffle(order)
        return [[col[i] for i in order] for col in columns]

    dims = tuple(Dimension(d.name, d.root, d.attributes, d.hierarchies,
                           shuffle(d.columns), d.numeric)
                 for d in schema.dimensions)
    facts = tuple(Fact(f.name, f.measures, f.dimension_keys, shuffle(f.columns),
                       f.numeric) for f in schema.facts)
    return Schema(schema.name, facts, dims, dict(schema.star))


@pytest.mark.parametrize("preset", [
    lambda: preset_basic(seed=4, rows=300, fact_rows=1500),
    lambda: preset_divergent(seed=4, rows=600),
    lambda: preset_star4(seed=4),
    lambda: preset_const22(seed=4),
], ids=["basic", "divergent", "star4", "const22"])
def test_write_dw_bytes_do_not_depend_on_row_order(preset, tmp_path):
    # Generated facts come product-major and merged ones as two runs in key
    # order; any order of the same rows must write the same tables.
    dw1, dw2, _ = generate_pair(preset())
    rng = random.Random(25)
    for label, schema in (("generated", dw1), ("merged", merge_stars(dw1, dw2).schema)):
        io.write_dw(schema, tmp_path / label)
        files = sorted(p.name for p in (tmp_path / label).iterdir())
        for k in range(3):
            again = tmp_path / f"{label}{k}"
            io.write_dw(_shuffled(schema, rng), again)
            assert sorted(p.name for p in again.iterdir()) == files
            for name in files:
                assert (again / name).read_bytes() == (tmp_path / label / name).read_bytes(), \
                    (label, k, name)


@pytest.mark.parametrize("preset", PRESETS.values(), ids=PRESETS)
def test_generated_tables_take_the_split_and_join_paths(preset, tmp_path, monkeypatch):
    # The record reader and csv.writer are the slow paths, kept for tables
    # that need quoting, and the strip is for tables holding whitespace; no
    # generated table, input or merged, may reach them.
    dw1, dw2, _ = generate_pair(preset(seed=5))

    def refuse(*args, **kwargs):
        raise AssertionError("a generated table took a slow path")

    class Refusing:
        writerow = writerows = refuse

    monkeypatch.setattr(csv, "writer", lambda *args, **kwargs: Refusing())
    monkeypatch.setattr(csv, "reader", refuse)
    # Generated texts are ASCII with no spaces, so no cell is stripped.
    monkeypatch.setattr(io, "_stripped", refuse)
    io.write_dw(dw1, tmp_path / "dw1")
    io.write_dw(dw2, tmp_path / "dw2")
    assert main(["merge", str(tmp_path / "dw1"), str(tmp_path / "dw2"),
                 str(tmp_path / "out")]) == 0
    assert main(["validate", "--strict", str(tmp_path / "out")]) == 0


def test_generated_basic_pair_takes_the_text_and_gather_paths(tmp_path, monkeypatch):
    # Text columns are written as they stand, never through _texts, and the
    # segments a basic merge joins start at the root, so they are gathered by
    # row position, never projected.
    dw1, dw2, _ = generate_pair(preset_basic(seed=5))
    calls = Counter()
    real_texts, real_join = io._texts, hierarchy_merge.join_segment_rows
    real_project = hierarchy_merge._project

    def texts(cells, kinds):
        calls["texts with text" if str in kinds else "texts"] += 1
        return real_texts(cells, kinds)

    def join(*args):
        calls["joins"] += 1
        return real_join(*args)

    def project(*args):
        calls["projections"] += 1
        return real_project(*args)

    monkeypatch.setattr(io, "_texts", texts)
    monkeypatch.setattr(hierarchy_merge, "join_segment_rows", join)
    monkeypatch.setattr(hierarchy_merge, "_project", project)
    io.write_dw(dw1, tmp_path / "dw1")
    io.write_dw(dw2, tmp_path / "dw2")
    assert main(["merge", str(tmp_path / "dw1"), str(tmp_path / "dw2"),
                 str(tmp_path / "out")]) == 0
    # The measures are numbers, which _texts renders; the joins ran.
    assert calls["texts"] > 0 and calls["joins"] > 0
    assert calls["texts with text"] == 0 and calls["projections"] == 0
    block = ("a", "b,c")  # and a block of texts is not even copied
    assert io._column_texts(block) is block


def test_numeric_dimension_attribute(tmp_path):
    write_minimal(tmp_path, rows="C1,7\nC2,10\n")
    doc = json.loads((tmp_path / "schema.json").read_text())
    doc["dimensions"][0]["numericAttributes"] = ["Attr"]
    (tmp_path / "schema.json").write_text(json.dumps(doc))
    dim = io.load_dw(tmp_path).dimension("customer")
    assert rows_of(dim)["C2"]["Attr"] == Decimal(10)
    assert dim.numeric == frozenset({"Attr"})
    out = tmp_path / "dw"
    io.write_dw(io.load_dw(tmp_path), out)
    reloaded = io.load_dw(out).dimension("customer")
    assert rows_of(reloaded) == rows_of(dim)


def test_unsupported_format_version(tmp_path):
    write_minimal(tmp_path)
    doc = json.loads((tmp_path / "schema.json").read_text())
    doc["formatVersion"] = 99
    (tmp_path / "schema.json").write_text(json.dumps(doc))
    with pytest.raises(LoadError, match="formatVersion"):
        io.load_dw(tmp_path)


def test_missing_descriptor(tmp_path):
    with pytest.raises(LoadError, match="descriptor"):
        io.load_dw(tmp_path / "nowhere")


def test_non_utf8_table_is_a_load_error_on_its_line(tmp_path):
    # The bad byte lies past the text reader's first decoded block and after
    # a quoted field that spans two lines.
    write_minimal(tmp_path)
    rows = '"C0","two\nlines"\n' + "".join(f"C{i},x\n" for i in range(1, 3000))
    table = tmp_path / "customer.csv"
    table.write_bytes(f"Code,Attr\n{rows}C3000,caf\xe9\n".encode("latin-1"))
    with pytest.raises(LoadError, match="can't decode byte 0xe9") as err:
        io.load_dw(tmp_path)
    assert (err.value.path, err.value.line) == (str(table), 3003)


def test_non_utf8_descriptor_is_a_load_error(tmp_path):
    write_minimal(tmp_path)
    descriptor = tmp_path / "schema.json"
    descriptor.write_bytes(descriptor.read_bytes().replace(b'"mini"', b'"caf\xe9"'))
    with pytest.raises(LoadError, match="can't decode byte 0xe9") as err:
        io.load_dw(tmp_path)
    assert err.value.path == str(descriptor)


def test_oversized_field_is_a_load_error(tmp_path, capsys):
    # The csv module refuses fields over 131072 characters.
    write_minimal(tmp_path, rows=f"C1,x\nC2,{'y' * 200_000}\n")
    with pytest.raises(LoadError, match="field larger than field limit") as err:
        io.load_dw(tmp_path)
    assert (err.value.path, err.value.line) == (str(tmp_path / "customer.csv"), 3)
    assert main(["validate", str(tmp_path)]) == 2
    assert f"{tmp_path / 'customer.csv'}:3" in capsys.readouterr().err


@pytest.mark.parametrize("spelling", ["NaN", "-nan", "sNaN", "NaN12"])
def test_nan_in_a_numeric_column_is_a_load_error(spelling, tmp_path, capsys):
    # A numeric dimension id: a signaling NaN cannot even be hashed.
    write_minimal(tmp_path, rows=f"1,x\n{spelling},y\n")
    doc = json.loads((tmp_path / "schema.json").read_text())
    doc["dimensions"][0]["numericAttributes"] = ["Code"]
    (tmp_path / "schema.json").write_text(json.dumps(doc))
    (tmp_path / "sales.csv").write_text("Code,Quantity\n1,3\n", encoding="utf-8")
    with pytest.raises(LoadError, match=f"{spelling!r} is not a number") as err:
        io.load_dw(tmp_path)
    assert (err.value.path, err.value.line) == (str(tmp_path / "customer.csv"), 3)
    assert main(["validate", str(tmp_path)]) == 2
    assert f"{tmp_path / 'customer.csv'}:3" in capsys.readouterr().err
    # A measure: NaN would differ from itself and conflict when merged with itself.
    write_minimal(tmp_path)
    (tmp_path / "sales.csv").write_text(f"Code,Quantity\nC1,{spelling}\n", encoding="utf-8")
    assert main(["merge", "--conflict", "error", str(tmp_path), str(tmp_path),
                 str(tmp_path / "out")]) == 2
    assert f"{tmp_path / 'sales.csv'}:2" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_table_names_that_sanitise_alike_get_distinct_files(tmp_path):
    # "a b" and "a_b" both sanitise to the stem a_b, and so does the fact.
    dims = (make_dimension("a b", "K", ("K",), [("H", ("K",))], [("k1",)]),
            make_dimension("a_b", "J", ("J",), [("H", ("J",))], [("j1",)]))
    fact = fact_from_rows("a b", ("q",), (("a b", "K"), ("a_b", "J")),
                          [{"K": "k1", "J": "j1", "q": Decimal(1)}], frozenset({"q"}))
    io.write_dw(star_schema("collide", fact, dims), tmp_path)
    doc = json.loads((tmp_path / "schema.json").read_text(encoding="utf-8"))
    assert [d["table"] for d in doc["dimensions"]] == ["a_b.csv", "a_b_2.csv"]
    assert doc["facts"][0]["table"] == "a_b_3.csv"
    back = io.load_dw(tmp_path, strict=True)
    assert validate(back) == []
    assert rows_of(back.dimension("a b")) == {"k1": {"K": "k1"}}
    assert rows_of(back.dimension("a_b")) == {"j1": {"J": "j1"}}
    assert rows_of(back.fact) == rows_of(fact)


def test_loaded_text_key_cells_are_the_dimension_ids(tmp_path):
    dw1, _, _ = generate_pair(preset_basic(seed=3))
    io.write_dw(dw1, tmp_path)
    schema = io.load_dw(tmp_path)
    assert len(schema.fact.rows) > 0
    for dim_name, col in schema.fact.dimension_keys:
        ids = {k: k for k in rows_of(schema.dimension(dim_name))}
        assert all(c is ids[c] for c in schema.fact.cells(col))


def test_numeric_fact_key_keeps_its_spelling(tmp_path):
    write_minimal(tmp_path, rows="1,x\n2,y\n")
    doc = json.loads((tmp_path / "schema.json").read_text(encoding="utf-8"))
    doc["dimensions"][0]["numericAttributes"] = ["Code"]
    (tmp_path / "schema.json").write_text(json.dumps(doc), encoding="utf-8")
    (tmp_path / "sales.csv").write_text("Code,Quantity\n1.0,3\n", encoding="utf-8")
    schema = io.load_dw(tmp_path, strict=True)
    assert str(schema.fact.cells("Code")[0]) == "1.0"
    io.write_dw(schema, tmp_path / "out")
    assert (tmp_path / "out" / "sales.csv").read_bytes() == (tmp_path / "sales.csv").read_bytes()


# Each spelling and the type it loads as: int() takes the integer ones, and
# only a Decimal writes a negative zero back as -0.
INTEGER_SPELLINGS = {"007": int, "+5": int, "+0": int, "0": int, "-0": Decimal,
                     "-00": Decimal, "-007": int, "1_000": int, "\u0661\u0662": int,
                     "1" + "0" * 4999: Decimal, "5.0": Decimal, "1E+3": Decimal}


def test_integer_spellings_load_as_int_and_write_back(tmp_path, monkeypatch):
    # Row 0's id and fact key are spelt ``key``; the numeric attribute and the
    # measure hold every spelling, in one number block. A quoted table takes
    # the record reader, any other the split path.
    spellings = list(INTEGER_SPELLINGS)
    split = []
    real_split = io._split_csv
    monkeypatch.setattr(io, "_split_csv",
                        lambda *args: split.append(real_split(*args)) or split[-1])
    for n, (key, quoted) in enumerate(itertools.product(spellings, (False, True))):
        ids = [key] + [str(100 + i) for i in range(1, len(spellings))]
        dw = tmp_path / str(n)
        dw.mkdir()
        q = '"' if quoted else ""
        (dw / "customer.csv").write_text(
            "Code,Num,Text\n" + "".join(f"{i},{t},{q}x{q}\n" for i, t in zip(ids, spellings)),
            encoding="utf-8")
        (dw / "sales.csv").write_text(
            "Code,Quantity\n" + "".join(f"{q}{i}{q},{t}\n" for i, t in zip(ids, spellings)),
            encoding="utf-8")
        (dw / "schema.json").write_text(json.dumps({
            "formatVersion": 1, "name": "spellings",
            "facts": [{"name": "sales", "table": "sales.csv", "measures": ["Quantity"],
                       "dimensionKeys": [{"dimension": "customer", "column": "Code"}]}],
            "dimensions": [{"name": "customer", "table": "customer.csv", "id": "Code",
                            "attributes": ["Code", "Num", "Text"],
                            "numericAttributes": ["Code", "Num"],
                            "hierarchies": [{"name": "H", "parameters": ["Code", "Text"]}]}],
        }), encoding="utf-8")
        split.clear()
        schema = io.load_dw(dw, strict=True)
        assert [r is None for r in split] == [quoted, quoted]
        dim, fact = schema.dimension("customer"), schema.fact
        expected = [INTEGER_SPELLINGS[t] for t in spellings]
        assert list(map(type, dim.cells("Num"))) == expected
        assert list(map(type, fact.cells("Quantity"))) == expected
        assert type(dim.cells("Code")[0]) is type(fact.cells("Code")[0]) is INTEGER_SPELLINGS[key]
        assert dim.cells("Num") == list(map(Decimal, spellings))

        out = dw / "out"
        io.write_dw(schema, out)
        for name, end in (("customer", ",x"), ("sales", "")):
            written = (out / f"{name}.csv").read_text(encoding="utf-8").splitlines()
            assert sorted(written[1:]) == sorted(f"{Decimal(i)},{Decimal(t)}{end}"
                                                 for i, t in zip(ids, spellings))
        back = io.load_dw(out, strict=True)
        for table, reloaded in ((fact, back.fact), (dim, back.dimension("customer"))):
            assert sorted(map(repr, zip(*reloaded.columns))) == \
                sorted(map(repr, zip(*table.columns)))
        assert validate(back) == []


def test_parse_numbers_decides_each_cell_by_its_own_text(monkeypatch):
    # Blocks of three mix the spellings each block path takes with ones that
    # send the block cell by cell; every cell must get what _number gives it.
    monkeypatch.setattr(io, "_NUMBER_BLOCK", 3)
    pool = ["2.50", "-0.0", ".5", "1.2.3", "7", "-0", "0", "+0", "1_000", "1E+3", "NaN",
            "abc", "1" * 5000, "\u0661.\u0662", None]
    rng = random.Random(26)
    for case in range(3000):
        texts = [rng.choice(pool[:4] if case % 2 else pool) for _ in range(rng.randint(0, 9))]
        cells = list(texts)
        expected = [None if t is None else io._number(t) for t in texts]
        bad = next((i for i, (t, n) in enumerate(zip(texts, expected))
                    if t is not None and n is None), None)
        assert io._parse_numbers(cells) == bad, f"case {case}"
        if bad is None:
            assert repr(cells) == repr(expected), f"case {case}"


@pytest.mark.parametrize("spelling", ["int", "pointed"])
def test_a_numeric_column_with_nulls_is_parsed_a_block_at_a_time(tmp_path, monkeypatch,
                                                                  spelling):
    # Every 7th cell is null, so every block holds one; the other texts of a
    # block still go through one whole-block map, never through _number, and
    # get what _number gives each.
    n = 2 * io._NUMBER_BLOCK + 5
    texts = [None if i % 7 == 3 else f"{i - 20}.5" if spelling == "pointed" else str(i - 20)
             for i in range(n)]
    texts[10] = "-0" if spelling == "int" else "-0.0"
    ids = [f"C{i}" for i in range(n)]
    write_minimal(tmp_path, rows="".join(f"{k},x\n" for k in ids))
    sales = tmp_path / "sales.csv"
    sales.write_text("Code,Quantity\n" + "".join(f"{k},{t or ''}\n" for k, t in zip(ids, texts)),
                     encoding="utf-8")
    expected = [None if t is None else io._number(t) for t in texts]
    parsed = []
    real_number = io._number
    monkeypatch.setattr(io, "_number", lambda text: parsed.append(text) or real_number(text))
    got = io.load_dw(tmp_path, strict=True).fact.cells("Quantity")
    assert repr(got) == repr(expected) and parsed == []
    assert repr(got[10]) == repr(Decimal(texts[10]))  # a zero spelt with a minus sign

    bad = next(i for i in range(io._NUMBER_BLOCK, n) if texts[i] is not None)
    texts[bad] = "abc"
    sales.write_text("Code,Quantity\n" + "".join(f"{k},{t or ''}\n" for k, t in zip(ids, texts)),
                     encoding="utf-8")
    with pytest.raises(LoadError, match="'abc' is not a number") as err:
        io.load_dw(tmp_path)
    assert (err.value.path, err.value.line) == (str(sales), bad + 2)


def test_int_past_the_digit_limit_writes_and_reloads_as_an_equal_decimal(tmp_path):
    # str() refuses an int of more digits than sys.get_int_max_str_digits();
    # such a cell is written as its Decimal is, and int() refuses it on reload.
    big = 10 ** 5000
    dim = make_dimension("d", "K", ("K",), [("H", ("K",))], [("k1",), ("k2",)])
    fact = fact_from_rows("f", ("q",), (("d", "K"),),
                          [{"K": "k1", "q": big}, {"K": "k2", "q": -big}], frozenset({"q"}))
    schema = star_schema("s", fact, (dim,))
    assert validate(schema) == []
    io.write_dw(schema, tmp_path)
    assert (tmp_path / "f.csv").read_text(encoding="utf-8").splitlines()[1:] == [
        f"k1,1{'0' * 5000}", f"k2,-1{'0' * 5000}"]
    back = io.load_dw(tmp_path, strict=True)
    assert back.fact.cells("q") == [big, -big]
    assert set(map(type, back.fact.cells("q"))) == {Decimal}


def test_loaded_fact_keeps_few_bytes_per_row(tmp_path):
    # Columns of shared key cells and one int per measure: about 90 bytes a
    # row. A Decimal per measure cost about 245, and a dict per row, with its
    # own copy of each key, about 550.
    dw1, _, _ = generate_pair(preset_basic(seed=1, fact_rows=20000))
    io.write_dw(dw1, tmp_path)
    del dw1
    schema, with_fact, _ = traced(lambda: io.load_dw(tmp_path))
    n = len(schema.fact.rows)
    del schema
    # The fact's text key cells are its dimensions' ids, counted with them.
    _, without_fact, _ = traced(lambda: io.load_dw(tmp_path).dimensions)
    retained = with_fact - without_fact
    assert n > 10000
    assert retained / n < 140, retained / n


def test_loaded_dimension_keeps_few_bytes_per_row(tmp_path):
    # One list per attribute and an id index: about 410 bytes per row of five
    # cells, most of it the cells' own strings; a dict per row cost about 580.
    dw1, _, _ = generate_pair(preset_basic(seed=1, rows=20000, fact_rows=100))
    io.write_dw(dw1, tmp_path)
    del dw1
    # The facts go with the schema; their text key cells are the dimensions' ids.
    dims, retained, _ = traced(lambda: io.load_dw(tmp_path).dimensions)
    n = sum(len(d.rows) for d in dims)
    assert n > 20000
    assert retained / n < 500, retained / n


def test_fact_rows_are_written_in_cell_sort_key_order(tmp_path):
    # K mixes null, numbers and text; equal numbers spelt differently tie
    # on K and L, so they must keep their input order.
    cells = [None, Decimal("2"), "b", Decimal("1.0"), "a", None, Decimal("1"), "10",
             Decimal("-3"), "B"]
    rows = [{"K": k, "L": "x" if i % 3 else Decimal(i), "q": Decimal(i)}
            for i, k in enumerate(cells * 2)]
    fact = fact_from_rows("sales", ("q",), (("d", "K"), ("e", "L")), rows, frozenset({"q"}))
    dim = make_dimension("d", "K", ("K",), [("H", ("K",))], [])
    io.write_dw(star_schema("mixed", fact, (dim,)), tmp_path)
    expected = sorted(rows, key=lambda r: (cell_sort_key(r["K"]), cell_sort_key(r["L"])))
    lines = (tmp_path / "sales.csv").read_text(encoding="utf-8").splitlines()
    assert lines[1:] == [",".join(map(cell_to_text, (r["K"], r["L"], r["q"])))
                         for r in expected]
    assert [line.split(",")[2] for line in lines[1:5]] == ["0", "15", "5", "10"]


# Ids a dimension draws from, distinct by value; the spellings a fact may
# give some of them instead; and key cells that are no id.
ID_POOL = ["a", "b", "B", "c10", "c9", 1, 2, 10, Decimal("2.5"), Decimal("-3")]
RESPELT = {1: Decimal("1.0"), 2: Decimal("2.00"), 10: Decimal("1E+1")}
STRAYS = ["zz", 99, None]


def test_fact_rows_are_written_in_key_order(tmp_path, monkeypatch):
    # write_dw ranks a fact's key cells among the dimensions' written ids
    # when the fact has at least as many rows as each key dimension has ids,
    # and among each column's distinct cells otherwise or when a key cell is
    # no id. Either way the rows must come out in key_order's order.
    rng = random.Random(2929)
    real_key_order = io.key_order
    coded = []

    def key_order(columns, n, ranked=None):
        order = real_key_order(columns, n, ranked)  # KeyError: a cell that is no id
        coded.append(ranked is not None)
        return order

    monkeypatch.setattr(io, "key_order", key_order)
    paths = set()
    for case in range(300):
        dims = tuple(Dimension(f"d{d}", "id", ("id",), (Hierarchy("H", ("id",)),),
                               [rng.sample(ID_POOL, rng.randint(0, len(ID_POOL)))])
                     for d in range(rng.randint(1, 3)))
        keyed = rng.choices(dims, k=rng.randint(0, 3))  # a dimension may key two columns
        most = max((len(d.index) for d in keyed), default=0)
        n = rng.choice([0, 1, rng.randint(0, most), most, most + rng.randint(1, 20)])
        dangling = rng.random() < 0.25
        rows = []
        for i in range(n):
            if rows and rng.random() < 0.2:  # a repeated key tuple
                row = dict(rng.choice(rows))
            else:
                row = {}
                for j, dim in enumerate(keyed):
                    ids = list(dim.index)
                    cell = rng.choice(ids) if ids and not (dangling and rng.random() < 0.3) \
                        else rng.choice(STRAYS)
                    row[f"k{j}"] = RESPELT.get(cell, cell) if rng.random() < 0.5 else cell
            rows.append({**row, "q": i})
        dimension_keys = tuple((d.name, f"k{j}") for j, d in enumerate(keyed))
        fact = fact_from_rows("sales", ("q",), dimension_keys, rows, frozenset({"q"}))
        keys = fact.columns[:len(keyed)]
        coded.clear()
        io.write_dw(star_schema("s", fact, dims), tmp_path / "out")
        assert coded[-1] == (n >= most and all(
            c in d.index for d, col in zip(keyed, keys) for c in col)), f"case {case}"
        paths.add(coded[-1])
        io._write_table(tmp_path / "expected.csv", fact.column_names(), fact.columns,
                        real_key_order(keys, n))
        assert (tmp_path / "out" / "sales.csv").read_bytes() == \
            (tmp_path / "expected.csv").read_bytes(), f"case {case}"
    assert paths == {True, False}


def _set_parameters(params):
    def edit(doc):
        doc["dimensions"][0]["hierarchies"][0]["parameters"] = params
        return doc
    return edit


def _set_field(section, key, value):
    def edit(doc):
        doc[section][0][key] = value
        return doc
    return edit


def _add_hierarchy(name, params):
    def edit(doc):
        doc["dimensions"][0]["hierarchies"].append({"name": name, "parameters": params})
        return doc
    return edit


def _add_key_on_code(doc):
    doc["facts"][0]["dimensionKeys"].append({"dimension": "customer", "column": "Code"})
    return doc


def _add_unkeyed_dimension(doc):
    doc["dimensions"].append({"name": "region", "table": "customer.csv", "id": "Code",
                              "attributes": ["Code"]})
    return doc


@pytest.mark.parametrize("edit, message", [
    (_set_parameters([]), "dimension 'customer': hierarchy 'H' has no parameters"),
    (_set_parameters(["Code", "Attr", "Code"]),
     "dimension 'customer': hierarchy 'H' repeats a parameter"),
    (_set_field("dimensions", "numericAttributes", 1),
     "field 'numericAttributes' has the wrong type"),
    (_set_field("facts", "textMeasures", {"Quantity": True}),
     "field 'textMeasures' has the wrong type"),
    (lambda doc: {**doc, "star": {"sales": "customer"}},
     "star map: field 'sales' has the wrong type"),
    (lambda doc: [doc], "descriptor: expected a JSON object"),
    (_set_field("dimensions", "id", "Zone"),
     "customer [Zone] root-in-attributes: root parameter 'Zone' is not a declared attribute"),
    (_set_field("dimensions", "attributes", ["Code", "Attr", "Attr"]),
     "customer [Attr] attribute-unique: attribute 'Attr' is declared more than once"),
    (_set_parameters(["Code", "Zone"]),
     "customer [H] hierarchy-attributes: parameters ['Zone'] are not attributes of the "
     "dimension"),
    (_set_parameters(["Attr", "Code"]),
     "customer [H] hierarchy-root: first parameter 'Attr' is not the root 'Code'"),
    (_add_hierarchy("H", ["Code", "Attr"]),
     "customer [H] hierarchy-name-unique: hierarchy name 'H' is used more than once"),
    (_set_field("facts", "measures", ["Quantity", "Quantity"]),
     "sales [Quantity] fact-columns-unique: column 'Quantity' is named more than once "
     "among the key columns and measures"),
    (_add_key_on_code,
     "sales [Code] fact-columns-unique: column 'Code' is named more than once"),
    (lambda doc: _set_field("facts", "textMeasures", ["Code"])(
        _set_field("facts", "measures", ["Quantity", "Code"])(doc)),
     "sales [Code] fact-columns-unique: column 'Code' is named more than once"),
    (_add_unkeyed_dimension,
     "sales [-] fact-dimensions: fact keys reference ['customer'] but the schema links "
     "['customer', 'region']"),
    (_set_field("facts", "textMeasures", ["Quantty"]),
     "fact 'sales': textMeasures ['Quantty'] are not declared measures"),
    (lambda doc: {**doc, "star": {"sales": ["customer", "ghost"]}},
     "sales [ghost] star-map: star map references unknown dimension 'ghost'"),
    (_set_field("facts", "dimensionKeys", [{"dimension": "store", "column": "Code"}]),
     "sales [-] fact-dimensions: fact keys reference ['store'] but the schema links "
     "['customer']"),
    (lambda doc: {**doc, "star": {"returns": ["customer"]}},
     "star map references unknown fact 'returns'"),
    (lambda doc: {**doc, "facts": doc["facts"] + [{**doc["facts"][0], "name": "sales_2"}]},
     "a multi-fact descriptor needs a 'star' map"),
], ids=["no-parameters", "repeated-parameter", "numeric-not-list", "text-not-list",
        "star-entry-not-list", "top-level-list", "root-not-attribute",
        "repeated-attribute", "parameter-not-attribute", "hierarchy-not-from-id",
        "repeated-hierarchy-name", "repeated-measure", "repeated-key-column",
        "text-measure-is-key-column", "fact-not-keyed-on-linked", "text-measure-typo",
        "star-map-unknown-dimension", "key-unknown-dimension", "star-map-unknown-fact",
        "multi-fact-without-star"])
def test_malformed_descriptor_is_a_load_error(edit, message, tmp_path, capsys):
    write_minimal(tmp_path)
    descriptor = tmp_path / "schema.json"
    descriptor.write_text(json.dumps(edit(json.loads(descriptor.read_text()))))
    with pytest.raises(LoadError, match=re.escape(message)) as err:
        io.load_dw(tmp_path)
    assert err.value.path == str(descriptor)
    assert main(["validate", str(tmp_path)]) == 2
    assert message in capsys.readouterr().err
    assert main(["merge", str(tmp_path), str(tmp_path), str(tmp_path / "out")]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("edit, message", [
    (_set_field("facts", "measures", ["Quantity", "Quantity"]),
     "sales [Quantity] fact-columns-unique: column 'Quantity' is named more than once"),
    (_add_unkeyed_dimension,
     "sales [-] fact-dimensions: fact keys reference ['customer'] but the schema links "
     "['customer', 'region']"),
    (lambda doc: {**doc, "star": {"returns": ["customer"]}},
     "returns [-] star-map: star map references unknown fact 'returns'"),
], ids=["repeated-measure", "fact-not-keyed-on-linked", "star-map-unknown-fact"])
def test_declaration_fault_is_reported_before_any_table_is_read(edit, message, tmp_path):
    write_minimal(tmp_path)
    (tmp_path / "customer.csv").unlink()
    descriptor = tmp_path / "schema.json"
    descriptor.write_text(json.dumps(edit(json.loads(descriptor.read_text()))))
    with pytest.raises(LoadError, match=re.escape(message)) as err:
        io.load_dw(tmp_path)
    assert err.value.path == str(descriptor)
    # With the declaration mended, the missing table is what the loader names.
    write_minimal(tmp_path)
    (tmp_path / "customer.csv").unlink()
    with pytest.raises(LoadError, match="cannot read table"):
        io.load_dw(tmp_path)


# What a load error names for each rule the mutations below can break.
RULES = ("root-in-attributes", "attribute-unique", "hierarchy-attributes", "hierarchy-root",
         "hierarchy-name-unique", "fact-columns-unique", "fact-dimensions",
         "are not declared measures")


def _mutate(doc, rng) -> None:
    """One random edit touching a rule the loader enforces; some keep the warehouse valid."""
    dim = rng.choice(doc["dimensions"])
    fact = doc["facts"][0]
    attrs, hierarchies, keys = dim["attributes"], dim["hierarchies"], fact["dimensionKeys"]
    edit = rng.randrange(8)
    if edit == 0:
        dim["id"] = rng.choice([dim["id"], *attrs, "ghost"])
    elif edit == 1:
        attrs.append(rng.choice(attrs))
    elif edit == 2:
        h = rng.choice(hierarchies)
        h["parameters"] = [rng.choice([dim["id"], *attrs])] + rng.sample(
            attrs + ["ghost"], rng.randint(0, 2))
    elif edit == 3:
        rng.choice(hierarchies)["name"] = rng.choice([h["name"] for h in hierarchies] + ["fresh"])
    elif edit == 4:
        fact["measures"].append(rng.choice(fact["measures"] + [k["column"] for k in keys]))
    elif edit == 5:
        keys.append(dict(rng.choice(keys)))
    elif edit == 6:
        keys.remove(rng.choice(keys))
    else:
        fact["textMeasures"] = rng.sample(fact["measures"] + ["ghost"], rng.randint(0, 2))


def test_loaded_warehouses_always_validate(tmp_path):
    """A descriptor either fails to load or loads into a schema ``validate`` accepts."""
    base, _, _ = generate_pair(preset_basic(seed=3, rows=100, fact_rows=100))
    io.write_dw(base, tmp_path)
    descriptor = tmp_path / "schema.json"
    good = json.loads(descriptor.read_text(encoding="utf-8"))
    rng = random.Random(2718)
    loaded, refused = 0, set()
    for case in range(200):
        doc = copy.deepcopy(good)
        for _ in range(rng.randint(1, 2)):
            _mutate(doc, rng)
        descriptor.write_text(json.dumps(doc), encoding="utf-8")
        try:
            schema = io.load_dw(tmp_path)
        except LoadError as exc:
            refused.update(rule for rule in RULES if rule in str(exc))
            continue
        assert validate(schema) == [], f"case {case}"
        loaded += 1
    assert loaded >= 20
    assert refused == set(RULES), refused


def _files(directory: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in directory.iterdir()}


def _add_region(doc):
    """A dimension the fact does not key, linked by no star entry."""
    doc["dimensions"].append({"name": "region", "table": "customer.csv", "id": "customer_id",
                              "attributes": ["customer_id"]})
    return doc


@pytest.mark.parametrize("edit, star, error", [
    (lambda doc: {k: v for k, v in doc.items() if k != "star"}, True, None),
    (lambda doc: {**doc, "star": {}}, True, None),
    (lambda doc: {**doc, "star": {"sales": ["product", "customer"]}}, True, None),
    (lambda doc: {**doc, "star": {"sales": ["customer", "product", "customer"]}}, True, None),
    (_add_region, False, None),
    (lambda doc: {**doc, "star": {"returns": ["customer", "product"]}}, None,
     "returns [-] star-map: star map references unknown fact 'returns'"),
], ids=["no-map", "empty-map", "reordered", "repeated", "unlinked-dimension", "unknown-fact"])
def test_loader_applies_the_one_star_rule(edit, star, error, tmp_path, capsys):
    """A lone fact with no entry, or one naming every dimension in any order or with
    repeats, is a star whose map is written in declaration order; other maps stay."""
    base, _, _ = generate_pair(preset_basic(seed=1, rows=100, fact_rows=60))
    given = tmp_path / "given"
    io.write_dw(base, given)
    descriptor = given / "schema.json"
    descriptor.write_text(json.dumps(edit(json.loads(descriptor.read_text()))))
    if error is not None:
        with pytest.raises(LoadError, match=re.escape(error)):
            io.load_dw(given)
        return
    schema = io.load_dw(given)
    assert validate(schema) == []
    assert (schema.fact is not None) == star
    io.write_dw(schema, tmp_path / "once")
    doc = json.loads((tmp_path / "once" / "schema.json").read_text())
    assert doc["star"] == {"sales": ["customer", "product"]}
    io.write_dw(io.load_dw(tmp_path / "once"), tmp_path / "twice")
    assert _files(tmp_path / "once") == _files(tmp_path / "twice")
    if not star:
        for argv in (["merge", str(given), str(given), str(tmp_path / "out")],
                     ["match", str(given), str(given)]):
            assert main(argv) == 2
            assert ("expected a star schema (single fact); constellation inputs are not "
                    "supported") in capsys.readouterr().err


# Cells the loader reads back as they are: stripped, non-empty text.
_TEXTS = st.text(alphabet='ab ,"\n', min_size=1, max_size=3).map(str.strip).filter(bool)


@st.composite
def _small_schemas(draw):
    """1-3 facts on up to 3 dimensions, each fact keyed on some of them, with
    star maps that may omit a fact, permute or repeat its dimensions, or name
    other ones; some dimensions no fact links. Key tuples are distinct."""
    dims = []
    for i in range(draw(st.integers(0, 3))):
        ids = draw(st.lists(_TEXTS, min_size=1, max_size=3, unique=True))
        rows = {k: {"id": k, "a": draw(st.none() | _TEXTS)} for k in ids}
        dims.append(dimension_from_rows(f"d{i}", "id", ("id", "a"),
                                        (Hierarchy("h", ("id", "a")),), rows))
    facts, star = [], {}
    names = [d.name for d in dims]
    for j in range(draw(st.integers(1, 3))):
        keyed = draw(st.just(dims) | st.lists(st.sampled_from(dims), max_size=3)) if dims else []
        keys = tuple((d.name, f"k{i}") for i, d in enumerate(keyed))
        tuples = st.tuples(*(st.sampled_from(list(rows_of(d))) for d in keyed))
        cells = draw(st.lists(tuples, max_size=3, unique=True))
        rows = [{**dict(zip((c for _, c in keys), t)),
                 "m": draw(st.none() | st.integers(-9, 9).map(Decimal))} for t in cells]
        facts.append(fact_from_rows(f"f{j}", ("m",), keys, rows, frozenset({"m"})))
        linked = [name for name, _ in keys]
        # Mostly the keyed dimensions, which validate needs, in any order, with repeats.
        entry = draw(st.sampled_from(["keyed", "keyed", "keyed", "none", "any"]))
        if entry == "keyed":
            extra = draw(st.lists(st.sampled_from(linked), max_size=2)) if linked else []
            star[f"f{j}"] = (*draw(st.permutations(linked)), *extra)
        elif entry == "any":
            star[f"f{j}"] = tuple(draw(st.lists(st.sampled_from(names or ["d0"]), max_size=4)))
    return Schema("s", tuple(facts), tuple(dims), star)


@settings(max_examples=80, deadline=None)
@given(_small_schemas())
def test_valid_schemas_round_trip_through_the_star_rule(schema):
    """A schema ``validate`` accepts reloads valid, as a star exactly when it was
    one, and writes the bytes its star rule implies: a star's map in dimension
    declaration order, any other map as it is."""
    if validate(schema) != []:
        return
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp)
        io.write_dw(schema, out / "given")
        back = io.load_dw(out / "given")
        assert validate(back) == []
        assert (back.fact is None) == (schema.fact is None)
        io.write_dw(back, out / "again")
        if schema.fact is not None:
            schema = star_schema(schema.name, schema.fact, schema.dimensions)
        io.write_dw(schema, out / "expected")
        assert _files(out / "again") == _files(out / "expected")
