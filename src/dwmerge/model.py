"""Core multidimensional model: cells, hierarchies, dimensions, facts, schemas.

Cell values are plain Python values: ``None`` for null, ``str`` for text
(trimmed at ingestion), ``decimal.Decimal`` for numbers. Null compares equal
to nothing, including another null; that rule is what functional-dependency
checks and empty-value completion rely on, so use :func:`cells_equal` rather
than ``==`` when comparing cells.

A fact holds its cells as one list per column (:class:`Fact`); a dimension
holds a dict per row, keyed by its id. A :class:`Schema` is facts sharing
dimensions, and its star map names the dimensions each fact links; a star
schema is the case whose one fact links every dimension (:attr:`Schema.fact`).

All model values are treated as immutable after construction. Merge
operations build new instances instead of mutating loaded ones, so any
function in this package may be called concurrently. A merged schema shares
cells and whole fact columns with its inputs (a fact that passes through
unchanged, or a column that fusion leaves as it is), so no function mutates
a column or a row once it is in a schema.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Sequence
from dataclasses import dataclass, field
from decimal import Decimal
from itertools import chain, repeat
from operator import itemgetter
from typing import Iterable, Iterator, Mapping, Union

from .errors import SchemaMismatchError

Cell = Union[None, str, Decimal]
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
    if isinstance(a, Decimal) != isinstance(b, Decimal):
        return False
    return a == b


def cell_sort_key(c: Cell) -> tuple:
    """Total order over cells so row emission is deterministic (null < number < text)."""
    if c is None:
        return (0, "")
    if isinstance(c, Decimal):
        return (1, c)
    return (2, c)


def key_order(key_columns: Sequence[list[Cell]], n: int) -> list[int]:
    """Indices of the ``n`` rows sorted by their key cells' :func:`cell_sort_key`, stably.

    One stable sort per key column, last column first. A column whose cells
    are all text or all numbers sorts on the cells themselves, which order
    as their sort keys do.
    """
    order = list(range(n))
    for cells in reversed(key_columns):
        if set(map(type, cells)) not in ({str}, {Decimal}):
            cells = list(map(cell_sort_key, cells))
        order.sort(key=cells.__getitem__)
    return order


def cell_to_text(c: Cell) -> str:
    """Render a cell the way the CSV writer does (null becomes the empty string)."""
    if c is None:
        return ""
    return str(c)


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


@dataclass
class Dimension:
    """An analysis axis: attributes, a root identifier, hierarchies, keyed rows.

    ``rows`` maps each root value to its row (attribute name -> cell). Root
    values are unique and non-null; the loader enforces that and the rules
    of :func:`dimension_faults`, and ``validate`` re-checks both.
    """

    name: str
    root: str
    attributes: tuple[str, ...]
    hierarchies: tuple[Hierarchy, ...]
    rows: dict[Cell, Row] = field(default_factory=dict)
    numeric: frozenset[str] = frozenset()

    def attribute_set(self) -> frozenset[str]:
        return frozenset(self.attributes)

    def hierarchy(self, name: str) -> Hierarchy:
        for h in self.hierarchies:
            if h.name == name:
                return h
        raise KeyError(name)


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
        rows = list(rows)
        self.columns = tuple([row.get(c) for row in rows] for c in self.column_names())
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
    def rows(self) -> FactRows:
        """The rows as dicts (column name -> cell): a read-only view, built as read."""
        return FactRows(self.column_names(), self.columns)


class FactRows(Sequence):
    """A read-only sequence of row dicts over a fact's columns.

    Each row dict is built when read, so changing one changes no fact. The
    length is the columns' length, the view equals a list of the same row
    dicts, and its repr is that list's.
    """

    def __init__(self, names: Sequence[str], columns: Sequence[list[Cell]]):
        self._names = names
        self._columns = columns

    def __len__(self) -> int:
        return len(self._columns[0]) if self._columns else 0

    def __getitem__(self, i):
        if isinstance(i, slice):
            return list(self)[i]
        return dict(zip(self._names, [col[i] for col in self._columns]))

    def __iter__(self) -> Iterator[Row]:
        names = self._names
        return (dict(zip(names, cells)) for cells in zip(*self._columns))

    def __eq__(self, other) -> bool:
        if isinstance(other, (list, FactRows)):
            return list(self) == list(other)
        return NotImplemented

    def __repr__(self) -> str:
        return repr(list(self))


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


def conforms(row: Mapping[str, Cell], hierarchy: Hierarchy) -> bool:
    """True iff every parameter of the hierarchy is non-null in the row.

    Raises :class:`SchemaMismatchError` when the hierarchy names an attribute
    the row does not carry, which signals a schema/hierarchy mismatch rather
    than a data condition.
    """
    for p in hierarchy.parameters:
        if p not in row:
            raise SchemaMismatchError(
                f"hierarchy {hierarchy.name!r} parameter {p!r} is not an attribute of the row"
            )
        if row[p] is None:
            return False
    return True


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
    attrs = dim.attribute_set()
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


def _validate_dimension(dim: Dimension, out: list[Violation]) -> None:
    """Every row's key, root and columns.

    The ids, the root cells and the row columns are checked whole first; the
    rows are walked, in order, only when one of those checks fails.
    """
    attrs = dim.attribute_set()
    root = dim.root
    keys = list(dim.rows)
    roots = list(map(dict.get, dim.rows.values(), repeat(root)))
    # Equal cells that are all text or numbers are cells_equal, and none is null.
    if (keys == roots and set(map(type, keys + roots)) <= {str, Decimal}
            and attrs.issuperset(chain.from_iterable(dim.rows.values()))):
        return
    for key, row in dim.rows.items():
        if key is None:
            out.append(Violation(dim.name, "<null>", "root-non-null",
                                 "a row has a null root value"))
        elif not cells_equal(row.get(root), key):
            out.append(Violation(dim.name, cell_to_text(key), "root-key-consistent",
                                 "row key differs from its root attribute value"))
        if not row.keys() <= attrs:
            extra = set(row) - attrs
            out.append(Violation(dim.name, cell_to_text(key), "row-columns",
                                 f"row carries undeclared columns {sorted(extra)!r}"))


def fact_key_faults(fact: Fact, dims: Mapping[str, Dimension]) -> list[tuple]:
    """Every dangling key cell and repeated key tuple of a fact.

    Each fault is a tuple ``(row, key, value, first)``. A dangling fault
    names the ``key`` (dimension, column) whose ``value`` has no row in that
    dimension, with ``first`` None. A repeat has ``key`` None, the row's key
    tuple as ``value`` and the row that used it first as ``first``. Faults
    come by row, then by key column, with a row's repeat after its dangling
    keys.

    Each key column is checked whole with set operations, so a clean table
    costs no Python work per row; a column is walked only when it holds a
    dangling value, and the key tuples only when one repeats. A null key
    cell dangles. A column whose dimension is not in ``dims`` takes part in
    the repeat check only.
    """
    faults: list[tuple] = []
    columns = fact.columns[:len(fact.dimension_keys)]
    for key, cells in zip(fact.dimension_keys, columns):
        dim = dims.get(key[0])
        if dim is None:
            continue
        values = set(cells)
        if None in values or not dim.rows.keys() >= values:
            faults.extend((i, key, v, None) for i, v in enumerate(cells)
                          if v is None or v not in dim.rows)
    n = len(fact.rows)

    def tuples() -> Iterator[tuple]:
        return zip(*columns) if columns else repeat((), n)

    if len(set(tuples())) != n:
        seen: dict[tuple, int] = {}
        for i, tup in enumerate(tuples()):
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
    """Every dangling key cell and repeated key tuple of the fact's rows."""
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

    The loader refuses input that breaks one, so this serves schemas built
    in memory, ``merge``'s output and the ``validate`` command. The
    :func:`declaration_faults` come first, then the faults of the rows.
    Deterministic and order-independent: shuffling row order never changes
    the outcome (only the textual row locus of fact violations). Fact keys
    are checked a column at a time (:func:`fact_key_faults`), and their
    violations are listed in row order.
    """
    out = declaration_faults(schema)
    dims = {d.name: d for d in schema.dimensions}
    for dim in schema.dimensions:
        _validate_dimension(dim, out)
    for fact in schema.facts:
        _validate_fact(fact, dims, out)
    return out
