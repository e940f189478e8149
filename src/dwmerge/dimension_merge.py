"""Merging two dimensions: schema union, instance fusion, empty-value completion.

With matched root parameters the two dimensions collapse into one: every
hierarchy pair is merged, instances are unioned with rows sharing a root
value fused column-wise, and nulls introduced by the union are completed
along the merged hierarchies. With unmatched roots each dimension instead
gets enriched with the other's complementary attributes and its instances
are completed using the other dimension as donor.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Collection, Iterable, Mapping, Sequence

from .config import MergeSettings
from .errors import ConflictError, MergeError
from .hierarchy_merge import (HierarchyMergeResult, TokenSeq, merge_hierarchies,
                              render_tokens)
from .matching import Correspondence, corr_attr_map
from .model import (Cell, Dimension, Hierarchy, Row, cell_sort_key, cell_to_text,
                    cells_equal)


@dataclass(frozen=True)
class CompletionFill:
    """One filled cell: where it landed, what was copied, who donated it."""

    row_key: Cell
    attribute: str
    value: Cell
    donor_key: Cell
    hierarchy: str
    ambiguous: bool = False


@dataclass(frozen=True)
class ValueConflict:
    """Fused rows disagreed on an attribute; ``chosen`` is what survived."""

    row_key: Cell
    attribute: str
    left: Cell
    right: Cell
    chosen: Cell


@dataclass
class DimensionMergeResult:
    """Outcome of merging two dimensions.

    ``matched`` selects which fields are populated: one merged dimension, or
    one enriched dimension per side. ``merged_only`` hierarchies are the
    merge-produced ones (never the re-added originals); they drive
    completion before schema deduplication and are reported per side in the
    unmatched case.
    """

    matched: bool
    dimension: Dimension | None = None
    left: Dimension | None = None
    right: Dimension | None = None
    merged_only: tuple[Hierarchy, ...] = ()
    merged_only_left: tuple[Hierarchy, ...] = ()
    merged_only_right: tuple[Hierarchy, ...] = ()
    completion_log: list[CompletionFill] = field(default_factory=list)
    completion_log_left: list[CompletionFill] = field(default_factory=list)
    completion_log_right: list[CompletionFill] = field(default_factory=list)
    conflict_log: list[ValueConflict] = field(default_factory=list)
    shared_keys: int = 0
    attr_sources: dict[str, tuple[str | None, str | None]] = field(default_factory=dict)


# ---------------------------------------------------------------------------
# naming
# ---------------------------------------------------------------------------

def _uniquify(base: str, taken: set[str]) -> str:
    name = base
    k = 2
    while name in taken:
        name = f"{base}_{k}"
        k += 1
    taken.add(name)
    return name


def _gained_names(native: Sequence[str], foreign: Iterable[str], foreign_table: str
                  ) -> dict[str, str]:
    """Names under which foreign columns join a table.

    Each keeps its name unless a native or earlier gained column took it;
    then it becomes ``<foreign_table>_<name>``, uniquified.
    """
    taken = set(native)
    mapping: dict[str, str] = {}
    for b in foreign:
        name = b if b not in taken else _uniquify(f"{foreign_table}_{b}", taken)
        taken.add(name)
        mapping[b] = name
    return mapping


def _right_name_map(native: Sequence[str], foreign: Sequence[str], foreign_table: str,
                    matched: Mapping[str, str]) -> tuple[dict[str, str], list[str]]:
    """Unified name for every right column, plus the new names in order.

    Matched columns take their left partner's name (``matched`` maps right
    to left); the rest are named by :func:`_gained_names`.
    """
    gained = _gained_names(native, [b for b in foreign if b not in matched], foreign_table)
    return {b: matched[b] if b in matched else gained[b] for b in foreign}, list(gained.values())


def check_column_kinds(corrs: Iterable[Correspondence], numeric1: Collection[str],
                       numeric2: Collection[str]) -> None:
    """Refuse correspondences that pair a numeric column with a text one.

    Fusing them would compare numbers with text, so equal-looking values
    never match and the output repeats them.
    """
    for c in corrs:
        left_numeric = c.left[1] in numeric1
        if left_numeric != (c.right[1] in numeric2):
            kinds = ("numeric", "text") if left_numeric else ("text", "numeric")
            raise MergeError(
                f"cannot merge {c.left[0]}.{c.left[1]} ({kinds[0]}) with "
                f"{c.right[0]}.{c.right[1]} ({kinds[1]}): matched columns must "
                "both be numeric or both be text")


def _dedupe_hierarchies(hierarchies: Iterable[Hierarchy]) -> tuple[Hierarchy, ...]:
    seen: set[tuple[str, ...]] = set()
    out: list[Hierarchy] = []
    for h in hierarchies:
        if h.parameters not in seen:
            seen.add(h.parameters)
            out.append(h)
    return tuple(out)


def _merged_chain_hierarchies(pair_chains: list[tuple[str, str, list[tuple[str, ...]]]],
                              used_names: set[str]) -> list[Hierarchy]:
    out = []
    for n1, n2, chains in pair_chains:
        for k, params in enumerate(chains):
            base = f"{n1}_{n2}" if k == 0 else f"{n1}_{n2}_{k + 1}"
            out.append(Hierarchy(_uniquify(base, used_names), params))
    return out


# ---------------------------------------------------------------------------
# instance fusion
# ---------------------------------------------------------------------------

def fuse_row(row: Row, incoming: Row, names: Sequence[tuple[str, str]], conflict: str
             ) -> list[tuple[str, Cell, Cell, Cell]]:
    """Copy the non-null cells of ``incoming`` into ``row`` under unified names.

    ``names`` pairs each incoming column with its name in ``row``. A null in
    ``row`` takes the incoming value; where both hold different values the
    right one wins only under policy ``right``. Each clash is returned as
    ``(name, left, right, chosen)``; under policy ``error`` the caller
    raises on the first one.
    """
    clashes = []
    for source, name in names:
        v2 = incoming.get(source)
        if v2 is None:
            continue
        v1 = row.get(name)
        if v1 is None:
            row[name] = v2
        elif not cells_equal(v1, v2):
            chosen = v2 if conflict == "right" else v1
            row[name] = chosen
            clashes.append((name, v1, v2, chosen))
    return clashes


def merge_instances(d1: Dimension, d2: Dimension, right_name_map: Mapping[str, str],
                    attributes: Sequence[str], conflict: str = "left"
                    ) -> tuple[dict[Cell, Row], list[ValueConflict]]:
    """Union the instance tables; rows sharing a root value fuse column-wise.

    Attributes the absent side does not carry stay null. When both sides
    provide different non-null values for a cell the conflict policy decides
    and the clash is logged; under policy ``error`` it raises.
    """
    conflicts: list[ValueConflict] = []
    names = [(b, right_name_map[b]) for b in d2.attributes]
    keys = sorted(set(d1.rows) | set(d2.rows), key=cell_sort_key)
    rows: dict[Cell, Row] = {}
    for key in keys:
        row: Row = {a: None for a in attributes}
        r1 = d1.rows.get(key)
        r2 = d2.rows.get(key)
        if r1 is not None:
            for a in d1.attributes:
                row[a] = r1.get(a)
        if r2 is not None:
            for name, v1, v2, chosen in fuse_row(row, r2, names, conflict):
                if conflict == "error":
                    raise ConflictError(
                        f"conflicting values for {d1.name}[{cell_to_text(key)}].{name}: "
                        f"{cell_to_text(v1)!r} vs {cell_to_text(v2)!r}")
                conflicts.append(ValueConflict(key, name, v1, v2, chosen))
        rows[key] = row
    return rows, conflicts


# ---------------------------------------------------------------------------
# empty-value completion
# ---------------------------------------------------------------------------

def _complete_rows(target_rows: dict[Cell, Row], hierarchies: Sequence[Hierarchy],
                   donor_rows: dict[Cell, Row], col_map: Mapping[str, str | None],
                   donor_is_target: bool) -> list[CompletionFill]:
    """Completion engine; mutates ``target_rows`` in place and returns the log.

    Sweeps run until a full pass adds no fill, so repeated invocation is a
    no-op. Rows and donors are visited in root-key order, and when several
    qualifying donors disagree the first one wins and the fill is flagged
    ambiguous.
    """
    fills: list[CompletionFill] = []
    index: dict[str, dict[Cell, list[Cell]]] = {}

    def donor_index(col: str) -> dict[Cell, list[Cell]]:
        if col not in index:
            m: dict[Cell, list[Cell]] = {}
            for k in sorted(donor_rows, key=cell_sort_key):
                v = donor_rows[k].get(col)
                if v is not None:
                    m.setdefault(v, []).append(k)
            index[col] = m
        return index[col]

    target_keys = sorted(target_rows, key=cell_sort_key)
    ordered = sorted(hierarchies, key=lambda h: h.name)
    while True:
        filled_this_sweep = 0
        for h in ordered:
            params = h.parameters
            if len(params) < 2:
                continue
            for key in target_keys:
                row = target_rows[key]
                if row.get(params[1]) is None:
                    continue  # the second-lowest level can never be completed
                null_positions = [i for i, p in enumerate(params) if row.get(p) is None]
                if not null_positions:
                    continue
                missing = [params[i] for i in null_positions]
                reference = params[:null_positions[0]]
                candidates: set[Cell] = set()
                for p in reference:
                    dcol = col_map.get(p)
                    if dcol is None:
                        continue
                    candidates.update(donor_index(dcol).get(row[p], ()))
                qualifying: list[tuple[Cell, tuple[Cell, ...]]] = []
                for dk in sorted(candidates, key=cell_sort_key):
                    drow = donor_rows[dk]
                    values = []
                    for q in missing:
                        dcol = col_map.get(q)
                        v = drow.get(dcol) if dcol is not None else None
                        if v is None:
                            break
                        values.append(v)
                    else:
                        qualifying.append((dk, tuple(values)))
                if not qualifying:
                    continue
                donor_key, values = qualifying[0]
                ambiguous = len({vals for _, vals in qualifying}) > 1
                for q, v in zip(missing, values):
                    row[q] = v
                    fills.append(CompletionFill(key, q, v, donor_key, h.name, ambiguous))
                    filled_this_sweep += 1
                    if donor_is_target:
                        index.pop(q, None)  # the filled row can now donate on q
        if not filled_this_sweep:
            return fills


# ---------------------------------------------------------------------------
# dimension merge
# ---------------------------------------------------------------------------

def _hierarchy_pairs(d1: Dimension, d2: Dimension):
    for h1 in sorted(d1.hierarchies, key=lambda h: h.name):
        for h2 in sorted(d2.hierarchies, key=lambda h: h.name):
            yield h1, h2


def merge_dimensions(d1: Dimension, d2: Dimension, corrs: Sequence[Correspondence],
                     settings: MergeSettings = MergeSettings()) -> DimensionMergeResult:
    """Merge two dimensions given their attribute correspondences.

    Matched roots produce a single dimension named after the left input;
    unmatched roots produce the two inputs enriched with each other's
    complementary attributes, hierarchies and completed values.
    """
    if not corrs:
        raise MergeError(f"dimensions {d1.name!r} and {d2.name!r} are unrelated: "
                         "no attribute correspondences")
    check_column_kinds(corrs, d1.numeric, d2.numeric)
    l2r = corr_attr_map(corrs)
    r2l = {v: k for k, v in l2r.items()}
    roots_matched = l2r.get(d1.root) == d2.root
    rows1 = list(d1.rows.values())
    rows2 = list(d2.rows.values())

    results: list[tuple[Hierarchy, Hierarchy, HierarchyMergeResult]] = []
    for h1, h2 in _hierarchy_pairs(d1, d2):
        res = merge_hierarchies(h1, h2, rows1, rows2, l2r, settings)
        results.append((h1, h2, res))

    if roots_matched:
        return _merge_matched(d1, d2, l2r, r2l, results, settings)
    return _merge_unmatched(d1, d2, l2r, r2l, results)


def _merge_matched(d1: Dimension, d2: Dimension, l2r, r2l, results,
                   settings: MergeSettings) -> DimensionMergeResult:
    right_names, new_attrs = _right_name_map(d1.attributes, d2.attributes, d2.name, r2l)
    attributes = d1.attributes + tuple(new_attrs)
    numeric = set(d1.numeric)
    for b in d2.numeric:
        if right_names[b] not in d1.attributes:
            numeric.add(right_names[b])

    used_names = {h.name for h in d1.hierarchies}
    originals = list(d1.hierarchies)
    for h in d2.hierarchies:
        originals.append(Hierarchy(_uniquify(h.name, used_names),
                                   tuple(right_names[p] for p in h.parameters)))
    pair_chains = []
    for h1, h2, res in results:
        chains = [render_tokens(c, "l", right_map=right_names) for c in res.merged_left]
        pair_chains.append((h1.name, h2.name, chains))
    merged_named = _merged_chain_hierarchies(pair_chains, used_names)

    rows, conflicts = merge_instances(d1, d2, right_names, attributes, settings.conflict)
    col_map = {a: a for a in attributes}
    fills = _complete_rows(rows, merged_named, rows, col_map, donor_is_target=True)

    dim = Dimension(d1.name, d1.root, attributes,
                    _dedupe_hierarchies(originals + merged_named), rows,
                    frozenset(numeric))
    sources: dict[str, tuple[str | None, str | None]] = {}
    for a in d1.attributes:
        sources[a] = (a, l2r.get(a))
    for b in d2.attributes:
        if b not in r2l:
            sources[right_names[b]] = (None, b)
    return DimensionMergeResult(
        matched=True, dimension=dim, merged_only=tuple(merged_named),
        completion_log=fills, conflict_log=conflicts,
        shared_keys=len(set(d1.rows) & set(d2.rows)), attr_sources=sources)


def _merge_unmatched(d1: Dimension, d2: Dimension, l2r, r2l, results
                     ) -> DimensionMergeResult:
    left_chains: list[tuple[str, str, list[TokenSeq]]] = []
    right_chains: list[tuple[str, str, list[TokenSeq]]] = []
    for h1, h2, res in results:
        left_chains.append((h1.name, h2.name, list(res.merged_left)))
        right_chains.append((h1.name, h2.name, list(res.merged_right)))

    foreign_into_1 = sorted({t[1] for _, _, chains in left_chains
                             for c in chains for t in c if t[0] == "r"})
    foreign_into_2 = sorted({t[1] for _, _, chains in right_chains
                             for c in chains for t in c if t[0] == "l"})
    gained_1 = _gained_names(d1.attributes, foreign_into_1, d2.name)
    gained_2 = _gained_names(d2.attributes, foreign_into_2, d1.name)

    used_1 = {h.name for h in d1.hierarchies}
    used_2 = {h.name for h in d2.hierarchies}
    merged_1 = _merged_chain_hierarchies(
        [(n1, n2, [render_tokens(c, "l", right_map=gained_1) for c in chains])
         for n1, n2, chains in left_chains], used_1)
    merged_2 = _merged_chain_hierarchies(
        [(n1, n2, [render_tokens(c, "r", left_map=gained_2) for c in chains])
         for n1, n2, chains in right_chains], used_2)

    attrs_1 = d1.attributes + tuple(gained_1[b] for b in foreign_into_1)
    attrs_2 = d2.attributes + tuple(gained_2[a] for a in foreign_into_2)
    numeric_1 = frozenset(d1.numeric | {gained_1[b] for b in foreign_into_1
                                        if b in d2.numeric})
    numeric_2 = frozenset(d2.numeric | {gained_2[a] for a in foreign_into_2
                                        if a in d1.numeric})

    rows_1 = {k: {**{a: None for a in attrs_1}, **r} for k, r in d1.rows.items()}
    rows_2 = {k: {**{a: None for a in attrs_2}, **r} for k, r in d2.rows.items()}

    # Donor lookup: matched attributes cross via the correspondences, gained
    # attributes map between their donor-native and target spellings. An
    # unmatched attribute that merely shares its name with the other side is
    # NOT used: the matcher (or the user map) decided they are distinct.
    back_1 = {v: k for k, v in gained_1.items()}
    back_2 = {v: k for k, v in gained_2.items()}

    def to_donor(attr: str, cross: Mapping[str, str], back: Mapping[str, str],
                 gained_other: Mapping[str, str]) -> str | None:
        if attr in cross:
            return cross[attr]
        if attr in back:
            return back[attr]
        return gained_other.get(attr)

    col_1to2 = {a: to_donor(a, l2r, back_1, gained_2) for a in attrs_1}
    col_2to1 = {a: to_donor(a, r2l, back_2, gained_1) for a in attrs_2}

    fills_1 = _complete_rows(rows_1, merged_1, rows_2, col_1to2, donor_is_target=False)
    fills_2 = _complete_rows(rows_2, merged_2, rows_1, col_2to1, donor_is_target=False)

    dim1 = Dimension(d1.name, d1.root, attrs_1,
                     _dedupe_hierarchies(list(d1.hierarchies) + merged_1),
                     rows_1, numeric_1)
    dim2 = Dimension(d2.name, d2.root, attrs_2,
                     _dedupe_hierarchies(list(d2.hierarchies) + merged_2),
                     rows_2, numeric_2)
    return DimensionMergeResult(
        matched=False, left=dim1, right=dim2,
        merged_only_left=tuple(merged_1), merged_only_right=tuple(merged_2),
        completion_log_left=fills_1, completion_log_right=fills_2)
