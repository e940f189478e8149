"""Core multidimensional model: cells, hierarchies, dimensions, facts, schemas.

Cell values are plain Python values: ``None`` for null, ``str`` for text
(trimmed at ingestion), ``int`` or ``decimal.Decimal`` for numbers (the
loader gives an ``int`` where int() takes the text, unless it is ``-0``).
An ``int`` and a ``Decimal`` of one value are equal, hash alike and are
written alike. Null compares equal to nothing, including another null; that
rule is what functional-dependency checks and empty-value completion rely
on, so use :func:`cells_equal` rather than ``==`` when comparing cells.

Facts and dimensions hold their cells as one list per column, and read them
back as row dicts through views that build each row as it is read
(:class:`Rows`); a dimension also maps each id to its row's position. The
merge reads the columns themselves, through :meth:`Rows.cells`, and builds
no row dict; a joined segment is a :class:`RowList` over its columns. A
:class:`Schema` is facts sharing dimensions, and its star map names the
dimensions each fact links; a star schema is the case whose one fact links
every dimension (:attr:`Schema.fact`).

All model values are treated as immutable after construction. Merge
operations build new instances instead of mutating loaded ones, so any
function in this package may be called concurrently. A merged schema shares
cells and whole columns with its inputs (a table that passes through
unchanged, or a column that fusion leaves as it is), so no function mutates
a column once it is in a schema; completion fills the columns of a
dimension the merge has just built, before it returns it.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Mapping, Sequence
from dataclasses import dataclass
from decimal import Decimal
from functools import partial, reduce
from itertools import islice, repeat
from operator import add, eq, itemgetter
from typing import Iterable, Iterator, Union

Cell = Union[None, str, int, Decimal]
Row = dict[str, Cell]


def normalize_name(raw: str) -> str:
    """Canonical form used for all name comparisons: case-folded, only alphanumerics kept."""
    return "".join(ch for ch in raw.casefold() if ch.isalnum())


def uniquify(base: str, taken: set[str]) -> str:
    """``base``, or the first of ``base_2``, ``base_3``, ... not in ``taken``; marked taken."""
    name = base
    k = 2
    while name in taken:
        name = f"{base}_{k}"
        k += 1
    taken.add(name)
    return name


def cells_equal(a: Cell, b: Cell) -> bool:
    """Value equality with null semantics: null equals nothing, numbers and text are exact."""
    if a is None or b is None:
        return False
    if isinstance(a, str) != isinstance(b, str):
        return False
    return a == b


def cell_sort_key(c: Cell) -> tuple:
    """Total order over cells so row emission is deterministic (null < number < text)."""
    if c is None:
        return (0, "")
    if isinstance(c, str):
        return (2, c)
    return (1, c)


def key_order(key_columns: Sequence[list[Cell]], n: int,
              ranked: Sequence[Sequence[Cell]] | None = None) -> list[int]:
    """Indices of the ``n`` rows sorted by their key cells' :func:`cell_sort_key`, stably.

    One column whose cells are all text or all numbers sorts on the cells
    themselves, which order as their sort keys do. Otherwise each column's
    distinct cells are ranked, each rank scaled by the count of distinct
    cells in the columns after it, and a row sorts on the sum of its ranks:
    one integer, first column most significant. That is a single sort, and
    rows already in key order stay runs in it (a merged fact is two runs).
    ``ranked``, when given, holds each column's distinct cells already in
    sort order, or more cells than the column holds (a dimension's ids for
    a fact's key column); a cell it lacks raises KeyError.
    """
    if ranked is None:
        if len(key_columns) == 1:
            cells = key_columns[0]
            if set(map(type, cells)) not in ({str}, {int}, {Decimal}, {int, Decimal}):
                cells = list(map(cell_sort_key, cells))
            return sorted(range(n), key=cells.__getitem__)
        ranked = list(map(_sorted_distinct, key_columns))
    if not key_columns:
        return list(range(n))
    ranks, scale = [], 1
    for cells, distinct in zip(reversed(key_columns), reversed(ranked)):
        rank = dict(zip(distinct, range(0, scale * len(distinct), scale)))
        ranks.append(map(rank.__getitem__, cells))
        scale *= len(distinct) or 1  # a table of no rows has no distinct cells
    key = list(reduce(partial(map, add), ranks))
    return sorted(range(n), key=key.__getitem__)


def _sorted_distinct(cells: list[Cell]) -> list[Cell]:
    """The distinct cells of a column in :func:`key_order` order; equal
    numbers spelt differently are one cell."""
    distinct = list(set(cells))
    return list(map(distinct.__getitem__, key_order([distinct], len(distinct))))


def cell_to_text(c: Cell) -> str:
    """Render a cell the way the CSV writer does (null becomes the empty string)."""
    if c is None:
        return ""
    if isinstance(c, str):  # the writer takes a str subclass's text, not its __str__
        return str.__str__(c)
    try:
        return str(c)
    except ValueError:  # an int past str()'s digit limit, which a Decimal lacks
        return str(Decimal(c))


@dataclass(frozen=True)
class Hierarchy:
    """An ordered run of parameters; adjacency encodes the roll-up order."""

    name: str
    parameters: tuple[str, ...]

    def __post_init__(self):
        if len(self.parameters) < 1:
            raise ValueError(f"hierarchy {self.name!r} has no parameters")
        if len(set(self.parameters)) != len(self.parameters):
            raise ValueError(f"hierarchy {self.name!r} repeats a parameter")


def _columns(rows: Iterable[Row], names: Sequence[str]) -> list[list[Cell]]:
    """The cells of ``rows`` as one list per name, a cell a row lacks being null."""
    rows = list(rows)
    return [[row.get(name) for row in rows] for name in names]


@dataclass(init=False)
class Dimension:
    """An analysis axis: attributes, a root identifier, hierarchies, keyed rows.

    The cells are stored one list per attribute, in declared order, as
    ``columns``; ``index`` maps each id (root cell) to its row's position.
    As ``Fact(...)`` does, ``Dimension(...)`` converts row dicts, here a
    dict from id to row, :meth:`from_columns` takes the lists as they are,
    and :attr:`rows` reads them back. Both refuse (``ValueError``) a
    repeated id, and ``Dimension(...)`` a row whose key differs from its
    root cell or that has an undeclared column. Ids are non-null: the
    loader enforces that and :func:`dimension_faults`, and ``validate``
    re-checks both.
    """

    name: str
    root: str
    attributes: tuple[str, ...]
    hierarchies: tuple[Hierarchy, ...]
    columns: tuple[list[Cell], ...]
    numeric: frozenset[str]
    index: dict[Cell, int]

    def __init__(self, name: str, root: str, attributes: tuple[str, ...],
                 hierarchies: tuple[Hierarchy, ...], rows: Mapping[Cell, Row] = {},
                 numeric: frozenset[str] = frozenset()):
        self.name = name
        self.root = root
        self.attributes = attributes
        self.hierarchies = hierarchies
        self.numeric = numeric
        declared = set(attributes)
        for key, row in rows.items():
            cell = row.get(root)
            if not (cell is key or cells_equal(cell, key)):
                raise ValueError(f"dimension {name!r}: row key {key!r} differs from its "
                                 f"root cell {cell!r}")
            if not row.keys() <= declared:
                raise ValueError(f"dimension {name!r}: row {key!r} carries undeclared "
                                 f"columns {sorted(set(row) - declared)!r}")
        self._store(_columns(rows.values(), attributes))

    @classmethod
    def from_columns(cls, name: str, root: str, attributes: tuple[str, ...],
                     hierarchies: tuple[Hierarchy, ...], columns: Iterable[list[Cell]],
                     numeric: frozenset[str] = frozenset()) -> Dimension:
        """A dimension over ``columns``, one equal-length list per attribute, not copied."""
        dim = cls(name, root, attributes, hierarchies, {}, numeric)
        dim._store(columns)
        return dim

    def _store(self, columns: Iterable[list[Cell]]) -> None:
        self.columns = tuple(columns)
        ids = self.cells(self.root) if self.root in self.attributes else []
        self.index = dict(zip(ids, range(len(ids))))
        if len(self.index) != len(ids):
            raise ValueError(f"dimension {self.name!r} repeats an id")

    def hierarchy(self, name: str) -> Hierarchy:
        for h in self.hierarchies:
            if h.name == name:
                return h
        raise KeyError(name)

    def cells(self, name: str) -> list[Cell]:
        """The cells of attribute ``name``."""
        return self.columns[self.attributes.index(name)]

    @property
    def rows(self) -> DimensionRows:
        """The rows as a mapping from id to row dict: a read-only view, built as read."""
        return DimensionRows(self.attributes, self.columns, self.index)


@dataclass(init=False)
class Fact:
    """The analysis subject: measures plus the keys linking rows to dimensions.

    The cells are stored one list per column, in :meth:`column_names` order
    (key columns, then measures), as ``columns``. ``Fact(...)`` takes row
    dicts and converts them, a cell a row lacks becoming null;
    :meth:`from_columns` takes the lists as they are. :attr:`rows` reads the
    columns back as row dicts.
    """

    name: str
    measures: tuple[str, ...]
    dimension_keys: tuple[tuple[str, str], ...]  # (dimension name, key column)
    columns: tuple[list[Cell], ...]
    numeric: frozenset[str]

    def __init__(self, name: str, measures: tuple[str, ...],
                 dimension_keys: tuple[tuple[str, str], ...], rows: Iterable[Row] = (),
                 numeric: frozenset[str] = frozenset()):
        self.name = name
        self.measures = measures
        self.dimension_keys = dimension_keys
        self.columns = tuple(_columns(rows, self.column_names()))
        self.numeric = numeric

    @classmethod
    def from_columns(cls, name: str, measures: tuple[str, ...],
                     dimension_keys: tuple[tuple[str, str], ...],
                     columns: Iterable[list[Cell]], numeric: frozenset[str] = frozenset()
                     ) -> Fact:
        """A fact over ``columns``, one equal-length list per column name, not copied."""
        fact = cls(name, measures, dimension_keys, (), numeric)
        fact.columns = tuple(columns)
        return fact

    def key_columns(self) -> tuple[str, ...]:
        return tuple(col for _, col in self.dimension_keys)

    def column_names(self) -> tuple[str, ...]:
        return self.key_columns() + self.measures

    def cells(self, name: str) -> list[Cell]:
        """The cells of column ``name``."""
        return self.columns[self.column_names().index(name)]

    @property
    def rows(self) -> RowList:
        """The rows as dicts (column name -> cell): a read-only view, built as read."""
        return RowList(self.column_names(), self.columns)


class Rows:
    """Row dicts read from a table's columns, each built when it is read, so
    changing one changes no table. :meth:`cells` hands out a column itself,
    to readers that work a column at a time."""

    def __init__(self, names: Sequence[str], columns: Sequence[list[Cell]]):
        self._names = names
        self._columns = columns

    def cells(self, name: str) -> list[Cell]:
        """The cells of column ``name``."""
        return self._columns[self._names.index(name)]

    def _row(self, i: int) -> Row:
        return dict(zip(self._names, [col[i] for col in self._columns]))


class RowList(Rows, Sequence):
    """A table's rows as a read-only sequence of row dicts, as a fact's rows
    and a joined segment are read. The length is the columns' length, the
    view equals a list of the same row dicts, and its repr is that list's."""

    def __len__(self) -> int:
        return len(self._columns[0]) if self._columns else 0

    def __getitem__(self, i):
        if isinstance(i, slice):
            return list(self)[i]
        return self._row(i)

    def __iter__(self) -> Iterator[Row]:
        return map(self._row, range(len(self)))

    def __eq__(self, other) -> bool:
        if isinstance(other, (list, RowList)):
            return list(self) == list(other)
        return NotImplemented

    def __repr__(self) -> str:
        return repr(list(self))


class DimensionRows(Rows, Mapping):
    """A dimension's rows as a read-only mapping from id to row dict, in the
    order they are stored. The view equals a dict of the same rows, and its
    repr is that dict's."""

    def __init__(self, names: Sequence[str], columns: Sequence[list[Cell]],
                 index: dict[Cell, int]):
        super().__init__(names, columns)
        self._index = index

    def __getitem__(self, key: Cell) -> Row:
        return self._row(self._index[key])

    def __iter__(self) -> Iterator[Cell]:
        return iter(self._index)

    def __len__(self) -> int:
        return len(self._index)

    def __repr__(self) -> str:
        return repr(dict(self.items()))


@dataclass
class Schema:
    """Facts sharing a pool of dimensions; ``star`` maps fact -> dimension names.

    A star schema is one whose only fact links every dimension (:attr:`fact`);
    any other schema is a constellation.
    """

    name: str
    facts: tuple[Fact, ...]
    dimensions: tuple[Dimension, ...]
    star: dict[str, tuple[str, ...]]

    @property
    def fact(self) -> Fact | None:
        """A star schema's fact: the only fact, when the star map links it alone
        and to every dimension (compared as a set); None for a constellation."""
        links = {f: set(dims) for f, dims in self.star.items()}
        every = {d.name for d in self.dimensions}
        star = len(self.facts) == 1 and links == {self.facts[0].name: every}
        return self.facts[0] if star else None

    def dimension(self, name: str) -> Dimension:
        for d in self.dimensions:
            if d.name == name:
                return d
        raise KeyError(name)


def star_schema(name: str, fact: Fact, dimensions: tuple[Dimension, ...]) -> Schema:
    """A star schema: ``fact`` linked to each of ``dimensions``, in their order."""
    return Schema(name, (fact,), dimensions, {fact.name: tuple(d.name for d in dimensions)})


@dataclass(frozen=True)
class Violation:
    """One broken invariant; violations are data, not exceptions."""

    table: str
    locus: str
    rule: str
    message: str

    def __str__(self) -> str:
        return f"{self.table} [{self.locus}] {self.rule}: {self.message}"


def _repeated(names: Iterable[str]) -> list[str]:
    """The names listed more than once, each once, in order of first use."""
    return [n for n, k in Counter(names).items() if k > 1]


def _numeric_faults(table: str, numeric: Iterable[str], attributes: Iterable[str]
                   ) -> list[Violation]:
    """A violation listing the ``numeric`` names that are not ``attributes``, if any."""
    extra = sorted(set(numeric) - set(attributes))
    if not extra:
        return []
    return [Violation(table, "-", "numeric-attributes",
                      f"numericAttributes {extra!r} are not declared attributes")]


def dimension_faults(dim: Dimension) -> list[Violation]:
    """The rules on a dimension's declaration, which read none of its rows."""
    out = _numeric_faults(dim.name, dim.numeric, dim.attributes)
    attrs = set(dim.attributes)
    if dim.root not in attrs:
        out.append(Violation(dim.name, dim.root, "root-in-attributes",
                             f"root parameter {dim.root!r} is not a declared attribute"))
    for a in _repeated(dim.attributes):
        out.append(Violation(dim.name, a, "attribute-unique",
                             f"attribute {a!r} is declared more than once"))
    for name in _repeated([h.name for h in dim.hierarchies]):
        out.append(Violation(dim.name, name, "hierarchy-name-unique",
                             f"hierarchy name {name!r} is used more than once"))
    for h in dim.hierarchies:
        missing = [p for p in h.parameters if p not in attrs]
        if missing:
            out.append(Violation(dim.name, h.name, "hierarchy-attributes",
                                 f"parameters {missing!r} are not attributes of the dimension"))
        if h.parameters[0] != dim.root:
            out.append(Violation(dim.name, h.name, "hierarchy-root",
                                 f"first parameter {h.parameters[0]!r} is not the root {dim.root!r}"))
    return out


def _cell_faults(table: str, columns: Iterable[tuple[str, list[Cell]]],
                 numeric: frozenset[str]) -> list[Violation]:
    """The first cell of each column that would not reload as itself.

    A cell reloads as itself, or as an equal number, when it is null, or, in
    a ``numeric`` column, an int (not a bool) or a Decimal that is not a
    NaN, or, in a text column, a non-empty str with nothing to strip. A
    column's cell types are checked first; then a text column's distinct
    cells, and a numeric column's Decimals through one map, as hashing a
    Decimal costs more than asking whether it is a NaN. A column is walked
    only when that check fails.
    """
    out = []
    for name, cells in columns:
        is_numeric = name in numeric
        kinds = set(map(type, cells)) - {type(None)}
        if not kinds <= ({int, Decimal} if is_numeric else {str}):
            ok = False
        elif is_numeric:  # only a Decimal can be a NaN
            decimals = filter(Decimal.__instancecheck__, cells) if Decimal in kinds else ()
            ok = not any(map(Decimal.is_nan, decimals))
        else:
            values = set(cells) - {None}
            ok = "" not in values and all(map(eq, map(str.strip, values), values))
        if ok:
            continue
        i, cell = next((i, c) for i, c in enumerate(cells) if not _reloads(c, is_numeric))
        holds = "ints, Decimals that are not NaN," if is_numeric else "non-empty, stripped text"
        out.append(Violation(table, name, "cell-reloads",
                             f"row {i}: {cell!r} would not reload as itself; the column "
                             f"holds {holds} or nulls"))
    return out


def _reloads(cell: Cell, is_numeric: bool) -> bool:
    """Whether ``cell`` reloads as itself from its column (:func:`_cell_faults`)."""
    if cell is None:
        return True
    if is_numeric:
        return type(cell) is int or type(cell) is Decimal and not cell.is_nan()
    return type(cell) is str and cell != "" and cell.strip() == cell


def _validate_dimension(dim: Dimension, out: list[Violation]) -> None:
    """A null id, and every column's cells."""
    if None in dim.index:
        out.append(Violation(dim.name, "<null>", "root-non-null", "a row has a null root value"))
    out += _cell_faults(dim.name, zip(dim.attributes, dim.columns), dim.numeric)


def fact_key_faults(fact: Fact, dims: Mapping[str, Dimension]) -> list[tuple]:
    """Every dangling key cell and repeated key tuple of a fact.

    Each fault is a tuple ``(row, key, value, first)``. A dangling fault
    names the ``key`` (dimension, column) whose ``value`` has no row in that
    dimension, with ``first`` None. A repeat has ``key`` None, the row's key
    tuple as ``value`` and the row that used it first as ``first``. Faults
    come by row, then by key column, with a row's repeat after its dangling
    keys. A null key cell dangles. A column whose dimension is not in
    ``dims`` takes part in the repeat check only.

    A row's key is coded as one integer, its cells' row positions in their
    dimensions read as the digits of a mixed-radix number, and the codes
    are sorted: no two equal means no repeat, and a cell with no position
    dangles. Each key column but the last reads its digit already scaled,
    position × the product of the later dimensions' sizes, from a dict
    built per call, so a row's code costs one addition per column. So a
    clean table costs one integer per row and no Python work per row; rows
    in key order, as a written table holds them, sort in about linear
    time. Only a faulty table, or one the code cannot read (a dimension not
    in ``dims`` or with no rows, a null id, no key columns), is walked row
    by row to find and order its faults.
    """
    keys = fact.dimension_keys
    columns = fact.columns[:len(keys)]
    indexes = [dims[d].index if d in dims else None for d, _ in keys]
    # An empty index would scale by 0; every key of its column dangles anyway.
    # An index lists its ids in row order, so a range gives their positions.
    if columns and all(ix and None not in ix for ix in indexes):
        codes: Iterable[int] = map(indexes[-1].__getitem__, columns[-1])
        scale = len(indexes[-1])
        for index, cells in zip(indexes[-2::-1], columns[-2::-1]):
            scaled = dict(zip(index, range(0, len(index) * scale, scale)))
            codes = map(add, codes, map(scaled.__getitem__, cells))
            scale *= len(index)
        try:
            codes = sorted(codes)
        except KeyError:  # a dangling cell
            pass
        else:
            if not any(map(eq, codes, islice(codes, 1, None))):
                return []
    faults: list[tuple] = []
    for key, cells, index in zip(keys, columns, indexes):
        if index is not None:
            faults.extend((i, key, v, None) for i, v in enumerate(cells)
                          if v is None or v not in index)
    seen: dict[tuple, int] = {}
    for i, tup in enumerate(zip(*columns) if columns else repeat((), len(fact.rows))):
        first = seen.setdefault(tup, i)
        if first != i:
            faults.append((i, None, tup, first))
    # Stable, so each row keeps its faults in key-column order, its repeat last.
    faults.sort(key=itemgetter(0))
    return faults


def fact_faults(fact: Fact, linked: Iterable[str]) -> list[Violation]:
    """The rules on a fact's declaration, which read none of its rows.

    The fact is keyed on exactly the ``linked`` dimensions, its key columns
    and measures are distinct, and its ``numeric`` set names only them; two
    key columns may name one dimension.
    """
    out = _numeric_faults(fact.name, fact.numeric, fact.column_names())
    linked = set(linked)
    declared = {d for d, _ in fact.dimension_keys}
    if declared != linked:
        out.append(Violation(fact.name, "-", "fact-dimensions",
                             f"fact keys reference {sorted(declared)!r} but the schema links {sorted(linked)!r}"))
    for c in _repeated(fact.column_names()):
        out.append(Violation(fact.name, c, "fact-columns-unique",
                             f"column {c!r} is named more than once among the key "
                             "columns and measures"))
    return out


def _validate_fact(fact: Fact, dims: dict[str, Dimension], out: list[Violation]) -> None:
    """Every measure's cells, and every dangling key cell and repeated key tuple.

    Key cells are not checked by :func:`_cell_faults`: one that is not
    dangling equals an id of its dimension, whose cells are checked.
    """
    measures = fact.columns[len(fact.dimension_keys):]
    out += _cell_faults(fact.name, zip(fact.measures, measures), fact.numeric)
    for i, key, value, first in fact_key_faults(fact, dims):
        if key is None:
            out.append(Violation(fact.name, f"row {i}", "fact-key-duplicate",
                                 f"key tuple {value!r} already used by row {first}"))
        else:
            dim_name, col = key
            out.append(Violation(fact.name, f"row {i}", "fact-key-exists",
                                 f"key {col}={cell_to_text(value)!r} has no row in dimension {dim_name!r}"))


def declaration_faults(schema: Schema) -> list[Violation]:
    """Every rule that reads no row: the star map, table names, each
    dimension's and each fact's declaration, and the key columns' numeric flags.

    ``io.load_dw`` refuses the first of these before it reads any table.
    """
    dims = {d.name: d for d in schema.dimensions}
    facts = [f.name for f in schema.facts]
    out = []
    for fname, dim_names in schema.star.items():
        if fname not in facts:
            out.append(Violation(fname, "-", "star-map",
                                 f"star map references unknown fact {fname!r}"))
        out += [Violation(fname, dn, "star-map", f"star map references unknown dimension {dn!r}")
                for dn in dim_names if dn not in dims]
    # The loader links a lone fact with no entry to every dimension, so one
    # without an entry would reload as another schema.
    out += [Violation(f, "-", "star-map", f"star map has no entry for fact {f!r}")
            for f in facts if f not in schema.star]
    for kind, names in (("dimension", [d.name for d in schema.dimensions]), ("fact", facts)):
        out += [Violation(n, "-", f"{kind}-name-unique", f"duplicate {kind} name {n!r}")
                for n in _repeated(names)]
    if not facts:
        out.append(Violation(schema.name, "-", "fact-present", "the schema has no fact"))
    for dim in schema.dimensions:
        out += dimension_faults(dim)
    for fact in schema.facts:
        out += fact_faults(fact, schema.star.get(fact.name, ()))
        # The loader gives a key column the numeric flag of its dimension's root.
        out += [Violation(fact.name, col, "fact-key-numeric",
                          f"key column {col!r} must be numeric exactly when the root "
                          f"of dimension {dn!r} is")
                for dn, col in fact.dimension_keys
                if dn in dims and (col in fact.numeric) != (dims[dn].root in dims[dn].numeric)]
    return out


def validate(schema: Schema) -> list[Violation]:
    """Check every structural invariant; empty list means the schema is well formed.

    The loader refuses input that breaks one, or changes it, so this serves
    schemas built in memory, ``merge``'s output and the ``validate``
    command. The :func:`declaration_faults` come first, then the faults of
    the rows: null ids, cells that would not reload as themselves
    (:func:`_cell_faults`) and fact keys. Deterministic and
    order-independent: shuffling row order never changes the outcome (only
    the row a violation names). Fact keys are checked by one sorted integer
    per row (:func:`fact_key_faults`), and their violations are listed in
    row order.
    """
    out = declaration_faults(schema)
    dims = {d.name: d for d in schema.dimensions}
    for dim in schema.dimensions:
        _validate_dimension(dim, out)
    for fact in schema.facts:
        _validate_fact(fact, dims, out)
    return out
