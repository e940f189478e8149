"""Core multidimensional model: cells, hierarchies, dimensions, facts, schemas.

Cell values are plain Python values: ``None`` for null, ``str`` for text
(trimmed at ingestion), ``decimal.Decimal`` for numbers. Null compares equal
to nothing, including another null; that rule is what functional-dependency
checks and empty-value completion rely on, so use :func:`cells_equal` rather
than ``==`` when comparing cells.

All model values are treated as immutable after construction. Merge
operations build new instances instead of mutating loaded ones, so any
function in this package may be called concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from decimal import Decimal
from typing import Iterable, Mapping, Union

from .errors import SchemaMismatchError

Cell = Union[None, str, Decimal]
Row = dict[str, Cell]


def normalize_name(raw: str) -> str:
    """Canonical form used for all name comparisons: case-folded, only alphanumerics kept."""
    return "".join(ch for ch in raw.casefold() if ch.isalnum())


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
    values are unique and non-null; the loader enforces that and ``validate``
    re-checks it.
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

    def key_tuple(self, row: Row) -> tuple[Cell, ...]:
        return tuple(row[col] for col in self.key_columns())


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


def _validate_dimension(dim: Dimension, out: list[Violation]) -> None:
    attrs = dim.attribute_set()
    if dim.root not in attrs:
        out.append(Violation(dim.name, dim.root, "root-in-attributes",
                             f"root parameter {dim.root!r} is not a declared attribute"))
    if len(attrs) != len(dim.attributes):
        out.append(Violation(dim.name, "-", "attribute-unique",
                             "attribute list contains duplicates"))
    for h in dim.hierarchies:
        missing = [p for p in h.parameters if p not in attrs]
        if missing:
            out.append(Violation(dim.name, h.name, "hierarchy-attributes",
                                 f"parameters {missing!r} are not attributes of the dimension"))
        if h.parameters and h.parameters[0] != dim.root:
            out.append(Violation(dim.name, h.name, "hierarchy-root",
                                 f"first parameter {h.parameters[0]!r} is not the root {dim.root!r}"))
    for key, row in dim.rows.items():
        if key is None:
            out.append(Violation(dim.name, "<null>", "root-non-null",
                                 "a row has a null root value"))
        if not cells_equal(row.get(dim.root), key) and key is not None:
            out.append(Violation(dim.name, cell_to_text(key), "root-key-consistent",
                                 "row key differs from its root attribute value"))
        extra = set(row) - attrs
        if extra:
            out.append(Violation(dim.name, cell_to_text(key), "row-columns",
                                 f"row carries undeclared columns {sorted(extra)!r}"))


def _validate_fact(fact: Fact, dims: dict[str, Dimension], linked: Iterable[str],
                   out: list[Violation]) -> None:
    linked = set(linked)
    declared = {d for d, _ in fact.dimension_keys}
    if declared != linked:
        out.append(Violation(fact.name, "-", "fact-dimensions",
                             f"fact keys reference {sorted(declared)!r} but the schema links {sorted(linked)!r}"))
    seen: dict[tuple, int] = {}
    for i, row in enumerate(fact.rows):
        for dim_name, col in fact.dimension_keys:
            dim = dims.get(dim_name)
            if dim is None:
                continue
            val = row.get(col)
            if val is None or val not in dim.rows:
                out.append(Violation(fact.name, f"row {i}", "fact-key-exists",
                                     f"key {col}={cell_to_text(val)!r} has no row in dimension {dim_name!r}"))
        key = fact.key_tuple(row)
        if key in seen:
            out.append(Violation(fact.name, f"row {i}", "fact-key-duplicate",
                                 f"key tuple {key!r} already used by row {seen[key]}"))
        else:
            seen[key] = i


def validate(schema: Schema) -> list[Violation]:
    """Check every structural invariant; empty list means the schema is well formed.

    Deterministic and order-independent: shuffling row order never changes
    the outcome (only the textual row locus of fact violations).
    """
    out: list[Violation] = []
    if isinstance(schema, StarSchema):
        facts = [(schema.fact, tuple(d.name for d in schema.dimensions))]
        dimensions = schema.dimensions
    else:
        facts = [(f, schema.star.get(f.name, ())) for f in schema.facts]
        dimensions = schema.dimensions
        for fname, dim_names in schema.star.items():
            known = {d.name for d in dimensions}
            for dn in dim_names:
                if dn not in known:
                    out.append(Violation(fname, dn, "star-map",
                                         f"star map references unknown dimension {dn!r}"))
    dims = {d.name: d for d in dimensions}
    for dim in dimensions:
        _validate_dimension(dim, out)
    for fact, linked in facts:
        _validate_fact(fact, dims, linked, out)
    return out
