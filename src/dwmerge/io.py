"""Bit-exact ingestion and emission of warehouse directories and reports.

Directory layout
----------------
A warehouse directory holds ``schema.json`` plus one CSV per table. The
descriptor is a JSON document::

    {
      "formatVersion": 1,
      "name": "dw1",
      "facts": [
        {"name": "sales", "table": "sales.csv",
         "measures": ["quantity", "price"],
         "textMeasures": [],
         "dimensionKeys": [{"dimension": "customer", "column": "customer_id"}]}
      ],
      "dimensions": [
        {"name": "customer", "table": "customer.csv", "id": "customer_id",
         "attributes": ["customer_id", "city", "nation"],
         "numericAttributes": [],
         "hierarchies": [
           {"name": "geo", "parameters": ["customer_id", "city", "nation"]}]}
      ],
      "star": {"sales": ["customer"]}
    }

``star`` may be omitted, or be empty, for a single fact: it then links every
dimension. A document whose one fact links every dimension, in any order and
with any repeats, loads as a star schema (``model.Schema.fact``), with its
map in dimension declaration order; any other loads as a constellation.

The loader checks the descriptor's format itself, and refuses a broken
declaration through the rules ``model.validate`` states
(``model.declaration_faults``) before it reads any table.

CSV rules
---------
UTF-8, comma separated, RFC 4180 quoting, first line is the header. The
header names every declared column, each once; undeclared columns are
allowed and dropped. A table is split at its commas, a chunk of whole lines
at a time with each newline kept as a field of its own, or if that finds it
irregular read record by record by the csv module, with the same cells and
errors. A blank line, which the csv module reads as a record of no fields,
makes the split irregular: it is one field, against the two or more of a
row, and in a one-column table it is searched for. Split cells are stripped
only in a chunk that is not ASCII or holds an ASCII whitespace character:
no other cell has any. Each column's empty fields are found by one pass
over the column. Text cells are written as they stand and numbers as str()
renders them. Rows are joined, or if they need quotes written by
``csv.writer``, with the same bytes; a row holding a carriage return has
every cell quoted, as a reader ends a line there. Tables are read and
written a column at a time: each keeps one list per declared column, and a
fact's text key cell that names a dimension row is that row's id object. An
empty field is null; whitespace-only fields trim to empty and are therefore
null too; the literal text ``NULL`` is ordinary data. Values in columns
tagged numeric (``numericAttributes``; measures unless listed in
``textMeasures``; fact key columns follow the referenced dimension id) are
parsed as exact numbers, everything else stays text: a number int() takes
is an ``int`` (but ``-0`` a ``Decimal``), any other a ``Decimal``.

User correspondence files
-------------------------
One entry per line, ``#`` comments and blank lines ignored::

    pair   leftTable.attribute  rightTable.attribute
    forbid leftTable.attribute  rightTable.attribute

Tables are dimension or fact names; the attribute part is everything after
the first dot.
"""

from __future__ import annotations

import csv
import json
import logging
import re
from decimal import Decimal, InvalidOperation
from io import StringIO
from itertools import chain, compress
from operator import itemgetter
from pathlib import Path
from typing import Iterable, Sequence

from .errors import LoadError
from .model import (Cell, Dimension, Fact, Hierarchy, Schema, cell_to_text, declaration_faults,
                    fact_key_faults, key_order, star_schema, uniquify)
from .report import MergeReport, report_to_dict

logger = logging.getLogger(__name__)

DESCRIPTOR_NAME = "schema.json"
FORMAT_VERSION = 1


# Characters read at a time, cells parsed by one map, rows written at a time.
_CHUNK_CHARS = 1 << 15
_NUMBER_BLOCK = 4096
_WRITE_ROWS = 256


def _read_csv(path: Path, columns: list[str], numeric: set[str]
              ) -> tuple[list[list[Cell]], Sequence[int]]:
    """The cells of one table as one list per name in ``columns``, and the lines rows start on.

    Other columns are dropped. A table that :func:`_split_csv` reads has its
    rows on lines 2 to n+1, given as a range; any other is read again, a
    record at a time, and there line numbers count the newlines inside quoted
    fields. A record the csv module cannot parse, such as one with a field
    over its size limit, is a load error on the line the record starts on, and
    so is a NaN in a numeric column. A byte that is not UTF-8 is a load error
    on the physical line that holds it, unless a record that ends before that
    line has a fault: faults are reported in file order.

    Each record is checked as it arrives: its field count, then its numbers
    in file-column order, so of two bad numbers the leftmost is named.
    """
    where = str(path)
    try:
        handle = path.open("r", encoding="utf-8", newline="")
    except OSError as exc:
        raise LoadError(f"cannot read table: {exc}", path=where) from exc
    with handle:
        if handle.seekable():  # a pipe could not be read again
            try:
                split = _split_csv(handle, columns, numeric)
            except UnicodeDecodeError:
                split = None
            if split is not None:
                return split[0], range(2, split[1] + 2)
            handle.seek(0)
        try:
            return _read_records(handle, where, columns, numeric)
        except UnicodeDecodeError:
            # The reader decodes ahead in blocks, so place the bad byte in the file's bytes.
            data = path.read_bytes()
            try:
                data.decode("utf-8")
            except UnicodeDecodeError as exc:
                bad = exc
            else:
                raise
    line_start = data.rfind(b"\n", 0, bad.start) + 1

    def lines_before_the_bad_one():
        yield from StringIO(data[:line_start].decode("utf-8"), newline="")
        # Reading on meets the bad byte, also inside a quoted record that
        # started earlier: that record is then cut by the error, not read short.
        raise bad

    try:
        _read_records(lines_before_the_bad_one(), where, columns, numeric)
    except UnicodeDecodeError:
        pass
    raise LoadError(f"cannot read table: {bad}", path=where,
                    line=data.count(b"\n", 0, line_start) + 1) from None


def _read_records(lines: Iterable[str], where: str, columns: list[str], numeric: set[str]
                  ) -> tuple[list[list[Cell]], list[int]]:
    """:func:`_read_csv`'s record reader over ``lines``, the table's lines with their ends."""
    cells: list[list[Cell]] = [[] for _ in columns]
    starts: list[int] = []
    start = 1  # the line the record being read starts on
    reader = csv.reader(lines)
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
        numeric_at = sorted((j for j, c in enumerate(columns) if c in numeric),
                            key=positions.__getitem__)
        # A record starts one line after the previous one (the header first) ends.
        start = reader.line_num + 1
        for record in reader:
            if len(record) != width:
                raise LoadError(f"row has {len(record)} fields, header has {width}",
                                path=where, line=start)
            values: list[Cell] = [record[i].strip() or None for i in positions]
            for j in numeric_at:
                text = values[j]
                if text is not None:
                    values[j] = _number(text)
                    if values[j] is None:
                        raise LoadError(f"{text!r} is not a number", path=where, line=start)
            for col, value in zip(cells, values):
                col.append(value)
            starts.append(start)
            start = reader.line_num + 1
    except csv.Error as exc:
        raise LoadError(f"malformed CSV: {exc}", path=where, line=start) from None
    return cells, starts


# The ASCII characters str.strip() removes, less the line ends, which no split cell holds.
_ASCII_SPACES = " \t\x0b\x0c\x1c\x1d\x1e\x1f"


def _split_csv(handle, columns: list[str], numeric: set[str]
               ) -> tuple[list[list[Cell]], int] | None:
    """The cells of a table and its row count, split from whole lines of text.

    None, before any error, if the text holds a quote, a carriage return or
    a NUL, repeats a header name or lacks a declared one, or has a blank
    line, a line with another field count than the header or longer than
    ``csv.field_size_limit()``, or a number that does not parse. On any
    other table the csv module would just split each line at its commas.

    Each chunk of whole lines is split once, at its commas, with each
    newline made a field of its own: the lines all have the header's width
    when there are rows·(width+1)+1 fields and every (width+1)-th is a
    newline. A blank line is one field, so that check refuses it when the
    header has two or more columns; only a one-column table is searched for
    one. Cells are stripped (:func:`_stripped`) only in a chunk that is not
    ASCII or holds an ASCII space. Each column's empty fields are found by
    one all() over its cells, and made null only when there is one.
    """
    cells: list[list[Cell]] = [[] for _ in columns]
    width = n = 0
    limit = csv.field_size_limit()
    pending: list[str] = []  # a line that no chunk read so far ends
    while True:
        chunk = handle.read(_CHUNK_CHARS)
        cut = chunk.rfind("\n") + 1
        if chunk and not cut:
            pending.append(chunk)
            continue
        # Whole lines only; the last line of the file may lack its newline.
        text = "".join(pending) + chunk[:cut]
        pending = [chunk[cut:]]
        if text:
            if not chunk:  # the last line, which lacks its newline
                text += "\n"
            # The csv module before Python 3.11 refuses a NUL.
            if '"' in text or "\r" in text or "\0" in text:
                return None
            if text[0] == "\n":  # a blank line, the header too
                return None
            if len(text) > limit and max(map(len, text.split("\n"))) > limit:
                return None
            if not width:
                end = text.index("\n")
                header = text[:end].split(",")
                if len(set(header)) < len(header) or not set(columns) <= set(header):
                    return None
                width = len(header)
                positions = list(map(header.index, columns))
                text = text[end + 1:]
            if text:
                # A blank line is one field: the check below refuses it in a
                # table of two or more columns, where a row has more.
                if width == 1 and (text[0] == "\n" or "\n\n" in text):
                    return None
                rows = text.count("\n")
                fields = text.replace("\n", ",\n,").split(",")
                if (len(fields) != rows * (width + 1) + 1
                        or fields[width::width + 1].count("\n") != rows):
                    return None
                fields.pop()  # the empty field after the last newline
                strip = not text.isascii() or any(map(text.__contains__, _ASCII_SPACES))
                for j, i in enumerate(positions):
                    col: list[Cell] = fields[i::width + 1]
                    if strip:
                        col = _stripped(col)
                    if not all(col):  # an empty field
                        col = [c or None for c in col]
                    if columns[j] in numeric and _parse_numbers(col) is not None:
                        return None
                    cells[j] += col
                n += rows
        if not chunk:
            return (cells, n) if width else None


def _stripped(texts: list[str]) -> list[str]:
    """``texts`` with their leading and trailing whitespace removed."""
    return list(map(str.strip, texts))


def _parse_numbers(cells: list[Cell]) -> int | None:
    """Parse the texts of ``cells`` as :func:`_number` does, in place, up to the
    first that is not a number; that one's index, or None. The texts of a
    block, its nulls left out, are parsed by one map(Decimal) when each holds
    a point, which int() refuses and no NaN has, else by one map(int) if
    int() takes them all; any other block is parsed cell by cell."""
    for at in range(0, len(cells), _NUMBER_BLOCK):
        block = texts = cells[at:at + _NUMBER_BLOCK]
        try:
            joined = "".join(block)
        except TypeError:  # a null
            texts = [t for t in block if t is not None]
            joined = "".join(texts)
        try:
            # As many points as texts: one each, unless Decimal refuses one.
            if joined.count(".") == len(texts):
                numbers = list(map(Decimal, texts))
            else:
                numbers = list(map(int, texts))
                # A zero spelt with a minus sign stays a Decimal.
                if "-" in joined and 0 in numbers:
                    numbers = [n if n or "-" not in t else Decimal(t)
                               for n, t in zip(numbers, texts)]
        except (ValueError, InvalidOperation):
            pass
        else:
            if texts is not block:  # each null back at its place
                parsed = iter(numbers)
                numbers = [None if t is None else next(parsed) for t in block]
            cells[at:at + _NUMBER_BLOCK] = numbers
            continue
        for i, text in enumerate(block, at):
            if text is not None:
                number = _number(text)
                if number is None:
                    return i
                cells[i] = number
    return None


def _number(text: str) -> int | Decimal | None:
    """``text`` as the int it spells if int() takes it, else as a decimal; None
    if it is not a number or is a NaN, which differs from itself and so could
    never match or fuse. A zero spelt with a minus sign stays a decimal, which
    writes back as ``-0``. Either way the cell writes back as ``str(Decimal(text))``."""
    if "." not in text:  # int() refuses a point
        try:
            number = int(text)
        except ValueError:
            pass
        else:
            if number or "-" not in text:
                return number
    try:
        number = Decimal(text)
    except InvalidOperation:
        return None
    return None if number.is_nan() else number


_REQUIRED = object()


def _descriptor_field(obj: dict, key: str, kind, *, path: str, where: str,
                      default=_REQUIRED):
    """``obj[key]`` checked to be a ``kind``; ``default`` when the key is absent.

    A descriptor part that is not a JSON object, a required key that is
    missing and a value of another type are load errors naming ``where``.
    """
    if not isinstance(obj, dict):
        raise LoadError(f"{where}: expected a JSON object", path=path)
    if key not in obj:
        if default is not _REQUIRED:
            return default
        raise LoadError(f"{where}: missing field {key!r}", path=path)
    value = obj[key]
    if not isinstance(value, kind):
        raise LoadError(f"{where}: field {key!r} has the wrong type", path=path)
    return value


def _names(obj: dict, key: str, *, path: str, where: str, default=_REQUIRED
           ) -> tuple[str, ...]:
    """A descriptor field that lists names, as a tuple; ``default`` when absent."""
    value = _descriptor_field(obj, key, list, path=path, where=where, default=default)
    if not all(isinstance(v, str) for v in value):
        raise LoadError(f"{where}: field {key!r} must list strings", path=path)
    return tuple(value)


def _declared_dimension(entry: dict, path: str) -> tuple[Dimension, str]:
    """A dimension entry of the descriptor as a dimension with no rows, and its table."""
    name = _descriptor_field(entry, "name", str, path=path, where="dimension")
    where = f"dimension {name!r}"
    table = _descriptor_field(entry, "table", str, path=path, where=where)
    root = _descriptor_field(entry, "id", str, path=path, where=where)
    attributes = _names(entry, "attributes", path=path, where=where)
    numeric = frozenset(_names(entry, "numericAttributes", path=path, where=where,
                               default=()))
    hierarchies = []
    for h in _descriptor_field(entry, "hierarchies", list, path=path, where=where,
                               default=()):
        hname = _descriptor_field(h, "name", str, path=path, where=f"{where} hierarchy")
        params = _names(h, "parameters", path=path, where=f"{where} hierarchy {hname!r}")
        try:
            hierarchies.append(Hierarchy(hname, params))
        except ValueError as exc:  # no parameters, or a repeated one
            raise LoadError(f"{where}: {exc}", path=path) from None
    return Dimension(name, root, attributes, tuple(hierarchies), [[] for _ in attributes],
                     numeric), table


def _declared_fact(entry: dict, dims: dict[str, Dimension], path: str) -> tuple[Fact, str]:
    """A fact entry of the descriptor as a fact with no rows, and its table.

    A key column is numeric when the id of its dimension in ``dims`` is.
    """
    name = _descriptor_field(entry, "name", str, path=path, where="fact")
    where = f"fact {name!r}"
    table = _descriptor_field(entry, "table", str, path=path, where=where)
    measures = _names(entry, "measures", path=path, where=where)
    text_measures = set(_names(entry, "textMeasures", path=path, where=where, default=()))
    unknown_text = text_measures - set(measures)
    if unknown_text:
        raise LoadError(f"{where}: textMeasures {sorted(unknown_text)!r} "
                        "are not declared measures", path=path)
    keys = []
    for k in _descriptor_field(entry, "dimensionKeys", list, path=path, where=where):
        dim = _descriptor_field(k, "dimension", str, path=path, where=f"{where} key")
        col = _descriptor_field(k, "column", str, path=path, where=f"{where} key")
        keys.append((dim, col))
    numeric = {m for m in measures if m not in text_measures}
    for dim, col in keys:
        d = dims.get(dim)
        if d is not None and d.root in d.numeric:
            numeric.add(col)
    columns = [[] for _ in range(len(keys) + len(measures))]
    return Fact(name, measures, tuple(keys), columns, frozenset(numeric)), table


def _read_dimension(dim: Dimension, table_path: Path, strict: bool) -> Dimension:
    """``dim`` holding the rows of its table; a repeated id's row is dropped."""
    columns, lines = _read_csv(table_path, list(dim.attributes), set(dim.numeric))
    try:
        read = Dimension(dim.name, dim.root, dim.attributes, dim.hierarchies, columns,
                         dim.numeric)
        if None not in read.index:
            return read
    except ValueError:  # a repeated id
        pass
    # A null or a repeated id: find the first fault in file order.
    where = str(table_path)
    ids = columns[dim.attributes.index(dim.root)]
    first: dict[Cell, int] = {}
    for i, (key, lineno) in enumerate(zip(ids, lines)):
        if key is None:
            raise LoadError(f"dimension {dim.name!r}: null id value", path=where,
                            line=lineno)
        if first.setdefault(key, i) != i:
            if strict:
                raise LoadError(f"dimension {dim.name!r}: duplicate id "
                                f"{cell_to_text(key)!r}", path=where, line=lineno)
            logger.warning("dimension %s: duplicate id %s at %s:%d, keeping the first row",
                           dim.name, cell_to_text(key), table_path, lineno)
    columns = [list(map(col.__getitem__, first.values())) for col in columns]
    return Dimension(dim.name, dim.root, dim.attributes, dim.hierarchies, columns, dim.numeric)


def _read_fact(fact: Fact, table_path: Path, dims: dict[str, Dimension], strict: bool) -> Fact:
    """``fact`` holding the rows of its table, whose keys name rows of ``dims``; a
    repeated key tuple's row is dropped."""
    name, keys, numeric = fact.name, fact.dimension_keys, fact.numeric
    where = str(table_path)
    columns, lines = _read_csv(table_path, list(fact.column_names()), set(numeric))
    # A text key cell that names a dimension row becomes that row's id object,
    # so the fact keeps no copy of it; a numeric one keeps its own spelling.
    for j, (dim, col) in enumerate(keys):
        if col not in numeric:
            ids = dict(zip(dims[dim].index, dims[dim].index))
            try:
                columns[j] = list(map(ids.__getitem__, columns[j]))
            except KeyError:  # a null or dangling cell: the key check names it
                pass

    dropped: set[int] = set()
    for i, key, value, _ in fact_key_faults(Fact(name, fact.measures, keys, columns), dims):
        if key is not None:
            dim, col = key
            raise LoadError(f"fact {name!r}: key {col}={cell_to_text(value)!r} has no "
                            f"row in dimension {dim!r}", path=where, line=lines[i])
        if strict:
            raise LoadError(f"fact {name!r}: duplicate key tuple", path=where, line=lines[i])
        logger.warning("fact %s: duplicate key tuple at %s:%d, keeping the first row",
                       name, table_path, lines[i])
        dropped.add(i)
    if dropped:
        kept = [i not in dropped for i in range(len(lines))]
        columns = [list(compress(col, kept)) for col in columns]
    return Fact(name, fact.measures, keys, columns, numeric)


def load_dw(directory: str | Path, strict: bool = False) -> Schema:
    """Load a warehouse directory, refusing input that breaks a model rule.

    ``model.validate`` of the schema is empty. A star schema's map is stored
    as its fact linking every dimension in declaration order. The
    descriptor is read whole first, and the first of its
    :func:`model.declaration_faults` is a load error on it, before any table
    is read. ``strict`` turns duplicate dimension ids and duplicate fact key
    tuples into errors instead of keep-first-and-log. Fact keys are checked by
    one sorted integer per row, by :func:`model.fact_key_faults`.
    """
    directory = Path(directory)
    desc_path = directory / DESCRIPTOR_NAME
    desc = str(desc_path)
    try:
        text = desc_path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise LoadError(f"cannot read descriptor: {exc}", path=desc) from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise LoadError(f"descriptor is not valid JSON: {exc.msg}",
                        path=desc, line=exc.lineno) from exc
    version = _descriptor_field(doc, "formatVersion", object, path=desc,
                                where="descriptor", default=None)
    if version != FORMAT_VERSION:
        raise LoadError(f"unsupported formatVersion {version!r}, expected {FORMAT_VERSION}",
                        path=desc)
    name = _descriptor_field(doc, "name", str, path=desc, where="descriptor")

    dim_tables = [_declared_dimension(entry, desc) for entry in
                  _descriptor_field(doc, "dimensions", list, path=desc, where="descriptor")]
    dimensions = tuple(dim for dim, _ in dim_tables)
    dims = {dim.name: dim for dim in dimensions}
    fact_entries = _descriptor_field(doc, "facts", list, path=desc, where="descriptor")
    if not fact_entries:
        raise LoadError("descriptor declares no facts", path=desc)
    fact_tables = [_declared_fact(entry, dims, desc) for entry in fact_entries]
    facts = tuple(fact for fact, _ in fact_tables)
    star_doc = _descriptor_field(doc, "star", dict, path=desc, where="descriptor",
                                 default=None)
    star = {fname: _names(star_doc, fname, path=desc, where="star map")
            for fname in star_doc or {}}
    if len(facts) == 1 and not star:
        star = {facts[0].name: tuple(dims)}
    elif star_doc is None:
        raise LoadError("a multi-fact descriptor needs a 'star' map", path=desc)
    schema = Schema(name, facts, dimensions, star)
    if schema.fact is not None:
        schema = star_schema(name, schema.fact, dimensions)
    faults = declaration_faults(schema)
    if faults:
        raise LoadError(str(faults[0]), path=desc)

    schema.dimensions = tuple(_read_dimension(dim, directory / table, strict)
                              for dim, table in dim_tables)
    dims = {dim.name: dim for dim in schema.dimensions}
    schema.facts = tuple(_read_fact(fact, directory / table, dims, strict)
                         for fact, table in fact_tables)
    return schema


# ---------------------------------------------------------------------------
# emission
# ---------------------------------------------------------------------------

def table_files(schema: Schema) -> list[str]:
    """The CSV names :func:`write_dw` gives the schema's dimensions, then its facts.

    A name is the table's with each character outside ``[A-Za-z0-9_.-]``
    made ``_``, its stem made unique by :func:`model.uniquify`.
    """
    used: set[str] = set()
    return [uniquify(re.sub(r"[^A-Za-z0-9_.-]", "_", table.name) or "table", used) + ".csv"
            for table in (*schema.dimensions, *schema.facts)]


def descriptor_tables(directory: str | Path) -> list[str]:
    """The table files that the descriptor of a warehouse :func:`load_dw` loaded names."""
    doc = json.loads((Path(directory) / DESCRIPTOR_NAME).read_text(encoding="utf-8"))
    return [entry["table"] for entry in (*doc["dimensions"], *doc["facts"])]


_NULL_TEXT = {None: ""}
_NUMBERS = {int, Decimal}
_TEXT_OR_NULL = {str, type(None)}


def _texts(cells: Sequence[Cell], kinds: set[type]) -> list[str]:
    """``cells``, of the types ``kinds``, as :func:`cell_to_text` renders them:
    numbers by one map(str), a block holding anything else a cell at a time."""
    if kinds <= _NUMBERS:
        try:
            return list(map(str, cells))
        except ValueError:  # an int past str()'s digit limit
            pass
    return list(map(cell_to_text, cells))


def _column_texts(cells: tuple[Cell, ...]) -> Sequence[str]:
    """A block of one column's cells as :func:`cell_to_text` renders them.

    A block of texts is returned as it stands, with no str() call: csv.writer,
    like str.join, writes a ``str`` subclass as its text. A block of texts and
    nulls has its nulls made ``""`` by one map; any other goes to :func:`_texts`.
    """
    try:
        "".join(cells)  # TypeError: a cell that is not a text
        return cells
    except TypeError:
        kinds = set(map(type, cells))
    if kinds <= _TEXT_OR_NULL:
        return tuple(map(_NULL_TEXT.get, cells, cells))
    return _texts(cells, kinds)


def _write_table(path: Path, names: Sequence[str], columns: Sequence[list[Cell]],
                 order: Sequence[int]) -> None:
    """Write a table's columns, their cells at the positions ``order`` lists.

    Rows come out as ``csv.writer(lineterminator="\\n")`` writes them, but
    every cell of a row that holds a ``\\r`` is quoted: that writer leaves it
    bare, and a reader ends a line there. The rows are rendered a block at a
    time, each column's cells gathered at the block's positions and rendered
    by :func:`_column_texts`, so text cells are written as they stand; a block
    none of whose texts needs quoting is joined as it stands, any other goes
    to the writer. A table of no columns writes its empty header line only.
    """
    with path.open("w", encoding="utf-8", newline="") as handle:
        plain = csv.writer(handle, lineterminator="\n")
        quoted = csv.writer(handle, lineterminator="\n", quoting=csv.QUOTE_ALL)
        if not columns:
            plain.writerow(names)
            return
        width = len(columns)
        blocks = (_block_texts(columns, order[at:at + _WRITE_ROWS])
                  for at in range(0, len(order), _WRITE_ROWS))
        for texts in chain([[[name] for name in names]], blocks):
            rows = len(texts[0])
            body = "\n".join(map(",".join, zip(*texts)))
            # A quote, comma or line break in a cell needs quoting, and so does
            # the lone empty cell of a one-column row.
            if ('"' in body or "\r" in body or body.count("\n") != rows - 1
                    or body.count(",") != rows * (width - 1) or width == 1 and "" in texts[0]):
                for row in zip(*texts):
                    (quoted if any("\r" in t for t in row) else plain).writerow(row)
            else:
                handle.write(body + "\n")


def _block_texts(columns: Sequence[list[Cell]], positions: Sequence[int]) -> list[Sequence[str]]:
    """The texts of each column's cells at ``positions``, which are at least one."""
    if len(positions) == 1:  # an itemgetter of one position returns the cell itself
        return [[cell_to_text(col[positions[0]])] for col in columns]
    return list(map(_column_texts, map(itemgetter(*positions), columns)))


def _fact_order(fact: Fact, ranked: dict[str, list[Cell]]) -> list[int]:
    """The positions of ``fact``'s rows in :func:`key_order` order of its key cells.

    When the fact has at least as many rows as each of its key dimensions
    has ids, each key cell is ranked among its dimension's ids as written
    (``ranked``), which is cheaper than ranking the column's distinct cells.
    A smaller fact, a key cell that is no id or a dimension not written
    ranks the distinct cells.
    """
    keys = fact.columns[:len(fact.dimension_keys)]
    n = len(fact.rows)
    written = [ranked.get(d) for d, _ in fact.dimension_keys]
    if None not in written and n >= max(map(len, written), default=0):
        try:
            return key_order(keys, n, written)
        except KeyError:
            pass
    return key_order(keys, n)


def write_dw(schema: Schema, directory: str | Path) -> None:
    """Emit a warehouse directory: descriptor plus one CSV per table.

    Output is byte-deterministic: columns follow declaration order,
    dimension rows are sorted by id, fact rows by their key tuple
    (:func:`_fact_order`, which ranks key cells among the sorted ids of the
    dimensions written before the facts). Cells are rendered by
    :func:`_write_table`, text cells as they stand.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    filenames = iter(table_files(schema))

    dim_entries = []
    ranked: dict[str, list[Cell]] = {}
    for dim in schema.dimensions:
        filename = next(filenames)
        dim_entries.append({
            "name": dim.name,
            "table": filename,
            "id": dim.root,
            "attributes": list(dim.attributes),
            "numericAttributes": sorted(dim.numeric),
            "hierarchies": [{"name": h.name, "parameters": list(h.parameters)}
                            for h in dim.hierarchies],
        })
        ids = list(dim.index)
        order = key_order([ids], len(ids))
        ranked[dim.name] = list(map(ids.__getitem__, order))
        _write_table(directory / filename, dim.attributes, dim.columns, order)

    fact_entries = []
    for fact in schema.facts:
        filename = next(filenames)
        fact_entries.append({
            "name": fact.name,
            "table": filename,
            "measures": list(fact.measures),
            "textMeasures": sorted(set(fact.measures) - set(fact.numeric)),
            "dimensionKeys": [{"dimension": d, "column": c}
                              for d, c in fact.dimension_keys],
        })
        _write_table(directory / filename, fact.column_names(), fact.columns,
                     _fact_order(fact, ranked))

    doc = {
        "formatVersion": FORMAT_VERSION,
        "name": schema.name,
        "facts": fact_entries,
        "dimensions": dim_entries,
        "star": {f: list(dims) for f, dims in sorted(schema.star.items())},
    }
    (directory / DESCRIPTOR_NAME).write_text(
        json.dumps(doc, indent=2, ensure_ascii=False) + "\n", encoding="utf-8")


def write_report(report: MergeReport, path: str | Path) -> None:
    """Emit the merge report as a deterministic JSON document."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(report_to_dict(report), indent=2, ensure_ascii=False) + "\n",
                    encoding="utf-8")
