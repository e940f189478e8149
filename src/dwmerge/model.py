"""Core multidimensional model: cells, hierarchies, dimensions, facts, schemas.

Cell values are plain Python values: ``None`` for null, ``str`` for text
(trimmed at ingestion), ``decimal.Decimal`` for numbers. Null compares equal
to nothing, including another null; that rule is what functional-dependency
checks and empty-value completion rely on, so use :func:`cells_equal` rather
than ``==`` when comparing cells.

All model values are treated as immutable after construction. Merge
operations build new instances instead of mutating loaded ones, so any
function in this package may be called concurrently. A merged schema may
share row dicts with its inputs (a fact that passes through unchanged, or a
fact row that fusion leaves as it is), so no function mutates a row once it
is in a schema; a row that must change is copied first.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from decimal import Decimal
from itertools import repeat
from operator import itemgetter
from typing import Iterable, Iterator, Mapping, Sequence, Union

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

    def sorted_keys(self) -> list[Cell]:
        return sorted(self.rows, key=cell_sort_key)


@dataclass
class Fact:
    """The analysis subject: measures plus the keys linking rows to dimensions."""

    name: str
    measures: tuple[str, ...]
    dimension_keys: tuple[tuple[str, str], ...]  # (dimension name, key column)
    rows: list[Row] = field(default_factory=list)
    numeric: frozenset[str] = frozenset()

    def key_columns(self) -> tuple[str, ...]:
        return tuple(col for _, col in self.dimension_keys)


@dataclass
class StarSchema:
    """One fact linked to its dimensions."""

    name: str
    fact: Fact
    dimensions: tuple[Dimension, ...]

    def dimension(self, name: str) -> Dimension:
        for d in self.dimensions:
            if d.name == name:
                return d
        raise KeyError(name)


@dataclass
class Constellation:
    """Several facts sharing a pool of dimensions; ``star`` maps fact -> dimension names."""

    name: str
    facts: tuple[Fact, ...]
    dimensions: tuple[Dimension, ...]
    star: dict[str, tuple[str, ...]]

    def dimension(self, name: str) -> Dimension:
        for d in self.dimensions:
            if d.name == name:
                return d
        raise KeyError(name)


Schema = Union[StarSchema, Constellation]


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


def dimension_faults(dim: Dimension) -> list[Violation]:
    """The rules on a dimension's declaration, which read none of its rows."""
    out: list[Violation] = []
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
    out.extend(dimension_faults(dim))
    attrs = dim.attribute_set()
    root = dim.root
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


def column(rows: Iterable[Row], name: str) -> list[Cell]:
    """The ``name`` cell of every row; null where a row lacks the column."""
    return list(map(dict.get, rows, repeat(name)))


def records(columns: Sequence[Sequence[Cell]], n: int) -> Iterator[tuple]:
    """The ``n`` tuples of ``columns`` read side by side, empty ones if there are no columns."""
    return zip(*columns) if columns else repeat((), n)


def fact_key_faults(rows: Sequence[Row], dimension_keys: Sequence[tuple[str, str]],
                    dims: Mapping[str, Dimension]) -> list[tuple]:
    """Every dangling key cell and repeated key tuple of a fact's rows.

    Each fault is a tuple ``(row, key, value, first)``. A dangling fault
    names the ``key`` (dimension, column) whose ``value`` has no row in that
    dimension, with ``first`` None. A repeat has ``key`` None, the row's key
    tuple as ``value`` and the row that used it first as ``first``. Faults
    come by row, then by key column, with a row's repeat after its dangling
    keys.

    Each key column is read whole and checked with set operations, so a
    clean table costs no Python work per row; a column is walked only when
    it holds a dangling value, and the key tuples only when one repeats. A
    missing key column reads as null, which dangles. A column whose
    dimension is not in ``dims`` takes part in the repeat check only.
    """
    faults: list[tuple] = []
    columns = [column(rows, col) for _, col in dimension_keys]
    for key, cells in zip(dimension_keys, columns):
        dim = dims.get(key[0])
        if dim is None:
            continue
        values = set(cells)
        if None in values or not dim.rows.keys() >= values:
            faults.extend((i, key, v, None) for i, v in enumerate(cells)
                          if v is None or v not in dim.rows)
    n = len(rows)
    if len(set(records(columns, n))) != n:
        seen: dict[tuple, int] = {}
        for i, tup in enumerate(records(columns, n)):
            first = seen.setdefault(tup, i)
            if first != i:
                faults.append((i, None, tup, first))
    # Stable, so each row keeps its faults in key-column order, its repeat last.
    faults.sort(key=itemgetter(0))
    return faults


def fact_faults(fact: Fact, linked: Iterable[str]) -> list[Violation]:
    """The rules on a fact's declaration, which read none of its rows.

    The fact is keyed on exactly the ``linked`` dimensions, and its key
    columns and measures are distinct; two key columns may name one dimension.
    """
    out: list[Violation] = []
    linked = set(linked)
    declared = {d for d, _ in fact.dimension_keys}
    if declared != linked:
        out.append(Violation(fact.name, "-", "fact-dimensions",
                             f"fact keys reference {sorted(declared)!r} but the schema links {sorted(linked)!r}"))
    for c in _repeated(fact.key_columns() + fact.measures):
        out.append(Violation(fact.name, c, "fact-columns-unique",
                             f"column {c!r} is named more than once among the key "
                             "columns and measures"))
    return out


def _validate_fact(fact: Fact, dims: dict[str, Dimension], linked: Iterable[str],
                   out: list[Violation]) -> None:
    out.extend(fact_faults(fact, linked))
    for i, key, value, first in fact_key_faults(fact.rows, fact.dimension_keys, dims):
        if key is None:
            out.append(Violation(fact.name, f"row {i}", "fact-key-duplicate",
                                 f"key tuple {value!r} already used by row {first}"))
        else:
            dim_name, col = key
            out.append(Violation(fact.name, f"row {i}", "fact-key-exists",
                                 f"key {col}={cell_to_text(value)!r} has no row in dimension {dim_name!r}"))


def star_map_faults(schema: Schema) -> list[Violation]:
    """Every name in a constellation's star map that is not one of its dimensions."""
    if isinstance(schema, StarSchema):
        return []
    known = {d.name for d in schema.dimensions}
    return [Violation(fname, dn, "star-map", f"star map references unknown dimension {dn!r}")
            for fname, dim_names in schema.star.items() for dn in dim_names if dn not in known]


def fact_links(schema: Schema) -> list[tuple[Fact, tuple[str, ...]]]:
    """Each fact of ``schema`` with the names of the dimensions it links the fact to."""
    if isinstance(schema, StarSchema):
        return [(schema.fact, tuple(d.name for d in schema.dimensions))]
    return [(f, schema.star.get(f.name, ())) for f in schema.facts]


def validate(schema: Schema) -> list[Violation]:
    """Check every structural invariant; empty list means the schema is well formed.

    The loader refuses input that breaks one, so this serves schemas built
    in memory, ``merge``'s output and the ``validate`` command.
    Deterministic and order-independent: shuffling row order never changes
    the outcome (only the textual row locus of fact violations). Fact keys
    are checked a column at a time (:func:`fact_key_faults`), and their
    violations are listed in row order.
    """
    out = star_map_faults(schema)
    dims = {d.name: d for d in schema.dimensions}
    for dim in schema.dimensions:
        _validate_dimension(dim, out)
    for fact, linked in fact_links(schema):
        _validate_fact(fact, dims, linked, out)
    return out
