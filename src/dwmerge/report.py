"""The merge report: count laws, correspondences, conflicts, pruning decisions.

Every successful merge produces one report. The two count laws

    rows:      merged = left + right - shared
    non-null:  merged = left + right + filled   (per completed attribute)

are not just reported: :func:`assert_count_laws` recomputes both sides and a
mismatch is a fatal internal error, never a warning.
"""

from __future__ import annotations

from dataclasses import Field, dataclass, field, fields, is_dataclass

from .errors import InternalInvariantError

FORMAT_VERSION = 1
TOOL_NAME = "dwmerge"


@dataclass(frozen=True)
class TableCount:
    table: str
    kind: str  # "dimension" | "fact"
    n_left: int | None = field(metadata={"json": "rowsLeft"})
    n_right: int | None = field(metadata={"json": "rowsRight"})
    n_shared: int = field(metadata={"json": "rowsShared"})
    n_merged: int = field(metadata={"json": "rowsMerged"})


@dataclass(frozen=True)
class CompletedAttribute:
    table: str
    attribute: str
    # non-null count in the left input, None when absent
    n_left: int | None = field(metadata={"json": "nonNullLeft"})
    n_right: int | None = field(metadata={"json": "nonNullRight"})
    n_filled: int = field(metadata={"json": "filled"})
    n_merged: int = field(metadata={"json": "nonNullMerged"})


@dataclass(frozen=True)
class CorrespondenceEcho:
    left: str  # "table.attr"
    right: str
    unified: str
    score: float
    source: str


@dataclass(frozen=True)
class ConflictEcho:
    table: str
    key: str
    attribute: str
    left: str
    right: str
    chosen: str


@dataclass(frozen=True)
class AmbiguousFill:
    table: str
    key: str
    attribute: str
    donor: str


@dataclass(frozen=True)
class PrunedHierarchy:
    dimension: str
    hierarchy: str
    reason: str  # "noConformingInstance" | "subsumedByMerged"


@dataclass(frozen=True)
class DimensionPairEcho:
    left: str
    right: str
    merged: str


@dataclass
class MergeReport:
    result_kind: str  # "star" | "constellation"
    schema_name: str
    tool_version: str
    config: dict
    tables: list[TableCount] = field(default_factory=list)
    completions: list[CompletedAttribute] = field(default_factory=list)
    correspondences: list[CorrespondenceEcho] = field(default_factory=list)
    conflicts: list[ConflictEcho] = field(default_factory=list)
    ambiguous_fills: list[AmbiguousFill] = field(default_factory=list)
    pruned: list[PrunedHierarchy] = field(default_factory=list)
    dimension_pairs: list[DimensionPairEcho] = field(default_factory=list)


def assert_count_laws(report: MergeReport) -> None:
    """Recompute both count laws; raise on any mismatch."""
    for t in report.tables:
        expect = (t.n_left or 0) + (t.n_right or 0) - t.n_shared
        if t.n_merged != expect:
            raise InternalInvariantError(
                f"tuple count law broken for {t.table!r}: "
                f"{t.n_left} + {t.n_right} - {t.n_shared} != {t.n_merged}")
    for c in report.completions:
        expect = (c.n_left or 0) + (c.n_right or 0) + c.n_filled
        if c.n_merged != expect:
            raise InternalInvariantError(
                f"completion count law broken for {c.table}.{c.attribute}: "
                f"{c.n_left} + {c.n_right} + {c.n_filled} != {c.n_merged}")


def json_name(f: Field) -> str:
    """A dataclass field's JSON key: its ``"json"`` metadata, else its name in camelCase."""
    head, *rest = f.name.split("_")
    return f.metadata.get("json", head + "".join(map(str.title, rest)))


def to_json(value):
    """``value`` as JSON data: a dataclass becomes an object, a tuple or list a list.

    An object holds each field, in declaration order, under its :func:`json_name`.
    """
    if is_dataclass(value):
        return {json_name(f): to_json(getattr(value, f.name)) for f in fields(value)}
    if isinstance(value, (tuple, list)):
        return list(map(to_json, value))
    return value


def report_to_dict(report: MergeReport) -> dict:
    """Stable JSON-ready rendering; list order is already deterministic."""
    return {
        "formatVersion": FORMAT_VERSION,
        "tool": {"name": TOOL_NAME, "version": report.tool_version},
        "result": report.result_kind,
        "schemaName": report.schema_name,
        "config": report.config,
        "tables": to_json(report.tables),
        "completedAttributes": to_json(report.completions),
        "correspondences": to_json(report.correspondences),
        "conflicts": to_json(report.conflicts),
        "ambiguousFills": to_json(report.ambiguous_fills),
        "prunedHierarchies": to_json(report.pruned),
        "dimensionPairs": to_json(report.dimension_pairs),
    }
