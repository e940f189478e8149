"""Merging two dimensions: schema union, instance fusion, empty-value completion.

Every hierarchy pair of the two dimensions is merged first. With matched
root parameters the two dimensions then collapse into one: instances are
unioned with rows sharing a root value fused column-wise, and nulls
introduced by the union are completed along the merged hierarchies. With
unmatched roots each dimension is instead enriched with the other's
complementary attributes, and its instances are completed using the other
dimension as donor.

Both cases build a side's schema the same way, in :func:`_side_schema`:
one map names the foreign columns the side takes, and from it follow the
new attributes, the numeric set and the merged chains rendered into
hierarchies. The matched case calls it once, for the left side taking every
right column and hierarchy; the unmatched case calls it once per side, with
the foreign columns that side's merged chains reach.

Rows that share a root value fuse through :func:`fuse_cells`, the one
fill-or-clash rule of the package; ``star_merge.merge_facts`` fuses fact
rows that share a key tuple through it too.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import compress, count, repeat
from operator import is_, itemgetter
from typing import Collection, Iterable, Iterator, Mapping, NamedTuple, Sequence

from .config import MergeSettings
from .errors import ConflictError, MergeError
from .hierarchy_merge import HierarchyMergeResult, merge_hierarchies, render_tokens
from .matching import Correspondence, corr_attr_map
from .model import Cell, Dimension, Hierarchy, cell_to_text, cells_equal, key_order, uniquify


class CompletionFill(NamedTuple):
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
    one enriched dimension per side.
    """

    matched: bool
    dimension: Dimension | None = None
    left: Dimension | None = None
    right: Dimension | None = None
    completion_log: list[CompletionFill] = field(default_factory=list)
    completion_log_left: list[CompletionFill] = field(default_factory=list)
    completion_log_right: list[CompletionFill] = field(default_factory=list)
    conflict_log: list[ValueConflict] = field(default_factory=list)
    shared_keys: int = 0
    attr_sources: dict[str, tuple[str | None, str | None]] = field(default_factory=dict)


# ---------------------------------------------------------------------------
# naming
# ---------------------------------------------------------------------------

def _right_name_map(native: Sequence[str], foreign: Iterable[str], foreign_table: str,
                    matched: Mapping[str, str]) -> dict[str, str]:
    """Name under which each foreign column joins a table of ``native`` columns.

    Matched columns take their native partner's name (``matched`` maps
    foreign to native). Every other column is gained: it keeps its name
    unless a native or earlier gained column took it; then it becomes
    ``<foreign_table>_<name>``, uniquified. Gained names therefore never
    collide with native ones.
    """
    taken = set(native)
    names: dict[str, str] = {}
    for b in foreign:
        if b in matched:
            names[b] = matched[b]
        else:
            names[b] = b if b not in taken else uniquify(f"{foreign_table}_{b}", taken)
            taken.add(names[b])
    return names


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


def _side_schema(dim: Dimension, other: Dimension, names: Mapping[str, str],
                 results: Sequence[tuple[Hierarchy, Hierarchy, HierarchyMergeResult]],
                 side: str, adopted: Sequence[Hierarchy] = ()
                 ) -> tuple[tuple[str, ...], frozenset[str], tuple[Hierarchy, ...],
                            list[Hierarchy]]:
    """One side's schema after merging with ``other``.

    ``names`` maps each column of ``other`` that this side takes to its
    output name; ``adopted`` are hierarchies of ``other`` it takes whole,
    renamed through ``names``. Returns the attributes, the numeric set, the
    deduplicated hierarchies and the merge-produced ones, which are named
    ``<h1>_<h2>`` (then ``_2``, ``_3``...) after the hierarchy pair.
    """
    attributes = dim.attributes + tuple(n for n in names.values() if n not in dim.attributes)
    numeric = dim.numeric | {names[b] for b in other.numeric if b in names}
    used = {h.name for h in dim.hierarchies}
    originals = list(dim.hierarchies)
    for h in adopted:
        originals.append(Hierarchy(uniquify(h.name, used),
                                   tuple(names[p] for p in h.parameters)))
    produced = []
    for h1, h2, res in results:
        for k, chain in enumerate(res.chains(side)):
            base = f"{h1.name}_{h2.name}" if k == 0 else f"{h1.name}_{h2.name}_{k + 1}"
            produced.append(Hierarchy(uniquify(base, used), render_tokens(chain, side, names)))
    return attributes, numeric, _dedupe_hierarchies(originals + produced), produced


# ---------------------------------------------------------------------------
# instance fusion
# ---------------------------------------------------------------------------

def fuse_cells(pairs: Iterable[tuple[int, int]],
               fuse: Sequence[tuple[Sequence[Cell], list[Cell], str]], conflict: str
               ) -> Iterator[tuple[int, int, str, Cell, Cell, Cell]]:
    """Fuse incoming rows into output rows, a cell at a time, in place.

    ``pairs`` are ``(i, j)``: output row ``i`` takes incoming row ``j``.
    ``fuse`` lists ``(source, target, name)``: an incoming column, the
    output column it fuses into and that column's name. A null target cell
    takes the incoming value; where both hold values that are not
    :func:`cells_equal`, the incoming one wins only under policy ``right``.
    Each clash is yielded after it is applied, as ``(i, j, name, left, right,
    chosen)``, row by row and in ``fuse`` order; under policy ``error`` the
    caller raises on the first one.
    """
    for i, j in pairs:
        for source, target, name in fuse:
            v2 = source[j]
            if v2 is None:
                continue
            v1 = target[i]
            if v1 is None:
                target[i] = v2
            elif v1 != v2 and not cells_equal(v1, v2):  # equal cells are cells_equal
                chosen = v2 if conflict == "right" else v1
                target[i] = chosen
                yield i, j, name, v1, v2, chosen


def merge_instances(d1: Dimension, d2: Dimension, right_name_map: Mapping[str, str],
                    attributes: Sequence[str], conflict: str = "left"
                    ) -> tuple[list[Cell], list[ValueConflict], list[list[Cell]]]:
    """Union the instance tables; rows sharing a root value fuse column-wise.

    Attributes the absent side does not carry stay null. When both sides
    provide different non-null values for a cell the conflict policy decides
    and the clash is logged; under policy ``error`` it raises. Returns the
    ids in id order, the clashes, and a column per name of ``attributes``,
    its rows in id order; every non-null cell is an input cell object.
    """
    ids = list(d1.index.keys() | d2.index.keys())
    ids = [ids[i] for i in key_order([ids], len(ids))]
    # Each side's row position per output row, -1 where it has none: a
    # column read through its positions ends in a null, which -1 reads.
    at1 = list(map(d1.index.get, ids, repeat(-1)))
    at2 = list(map(d2.index.get, ids, repeat(-1)))
    left = dict(zip(d1.attributes, d1.columns))
    columns = {a: list(map((left[a] + [None]).__getitem__, at1)) if a in left
               else [None] * len(ids) for a in attributes}
    fuse = [(list(map((col + [None]).__getitem__, at2)), columns[right_name_map[b]],
             right_name_map[b]) for b, col in zip(d2.attributes, d2.columns)]
    pairs = [(i, i) for i, j in enumerate(at2) if j >= 0]
    conflicts: list[ValueConflict] = []
    for i, _, name, v1, v2, chosen in fuse_cells(pairs, fuse, conflict):
        if conflict == "error":
            raise ConflictError(
                f"conflicting values for {d1.name}[{cell_to_text(ids[i])}].{name}: "
                f"{cell_to_text(v1)!r} vs {cell_to_text(v2)!r}")
        conflicts.append(ValueConflict(ids[i], name, v1, v2, chosen))
    return ids, conflicts, list(columns.values())


# ---------------------------------------------------------------------------
# empty-value completion
# ---------------------------------------------------------------------------

def _complete_rows(target: Dimension, hierarchies: Sequence[Hierarchy], donor: Dimension,
                   col_map: Mapping[str, str | None]) -> list[CompletionFill]:
    """Completion engine; fills ``target``'s columns in place and returns the log.

    A row with nulls on a hierarchy's parameters takes the missing values
    (every null level) from a donor that shares its value on a reference
    level (any non-null level below the first null) and holds all of them.
    Sweeps visit the hierarchies by name and, under each, the rows in
    root-key order; they repeat until one adds no fill, so repeated
    invocation is a no-op. The first qualifying donor in root-key order
    wins, and the fill is flagged ambiguous when the qualifying donors of
    all reference levels together hold more than one value tuple. The
    target has a column for every parameter of ``hierarchies``, and the
    donor one for every column ``col_map`` names; rows are read and written
    by position.

    The work scales with the rows that still have nulls:

    * one pass before the sweeps skips the rows without a null. Each
      hierarchy keeps a worklist of the other rows in root-key order; a
      visit reads the row's parameter values once, a column at a time,
      drops the row if none is null, and keeps it if it is blocked (null
      second level, or no qualifying donor).
    * a plan per null pattern: the missing parameters, their donor columns
      and the reference levels with their index keys depend only on the
      parameters and on which of them are null, so they are worked out once
      per ``(parameters, null pattern)`` and shared by every hierarchy with
      those parameters, in every sweep.
    * a donor index, keyed on (donor reference column, donor columns of the
      missing attributes), maps a reference value to the root-key rank of
      its first qualifying donor, that donor's values, and whether its
      qualifying donors hold several value tuples. Entries fill in lazily,
      one reference value at a time; a visit reads a known value straight
      from the index and builds an entry only on a miss. The chosen donor
      has the lowest rank over the row's reference levels; the union of the
      levels' tuples has more than one element exactly when some level
      holds several or two levels' first donors disagree.
    * when the target is its own donor (``target is donor``), a fill adds
      the filled row to every index entry that reads a column it gained.
      Cells only go from null to a value, so entries only grow. The root
      level is then no reference: the only row that shares a root value is
      the row itself, which lacks the missing values.
    """
    ordered = [h for h in sorted(hierarchies, key=lambda h: h.name) if len(h.parameters) >= 2]
    cols = dict(zip(target.attributes, target.columns))
    nulls: set[int] = set()
    for p in {p for h in ordered for p in h.parameters}:
        nulls.update(compress(count(), map(is_, cols[p], repeat(None))))
    fills: list[CompletionFill] = []
    if not nulls:
        return fills
    ids = target.cells(target.root)
    pending = sorted(nulls)
    pending = [pending[i] for i in key_order([list(map(ids.__getitem__, pending))],
                                             len(pending))]
    work = [(h, list(pending)) for h in ordered]

    dcols = dict(zip(donor.attributes, donor.columns))
    donor_ids = donor.cells(donor.root)
    ranked = key_order([donor_ids], len(donor_ids))  # rank -> donor row
    rank = dict(zip(ranked, count()))
    groups: dict[str, dict[Cell, list[int]]] = {}  # donor column -> value -> donor ranks
    # (reference column, missing columns) -> reference value -> (rank, values, several)
    index: dict[tuple[str, tuple[str, ...]], dict[Cell, tuple | None]] = {}
    readers: dict[str, list[tuple[str, tuple[str, ...], dict]]] = {}  # column -> entries
    # (parameters, null pattern) -> (missing parameters, reference (position, index key)s)
    plans: dict[tuple, tuple[tuple[str, ...], tuple[tuple[int, tuple], ...]]] = {}
    donor_is_target = target is donor
    first_reference = 1 if donor_is_target else 0

    def donors(dcol: str, mcols: tuple[str, ...], value: Cell) -> tuple | None:
        entry = index.get((dcol, mcols))
        if entry is None:
            entry = index[(dcol, mcols)] = {}
            for c in {dcol, *mcols}:
                readers.setdefault(c, []).append((dcol, mcols, entry))
        group = groups.get(dcol)
        if group is None:
            group = groups[dcol] = {}
            for r, v in enumerate(map(dcols[dcol].__getitem__, ranked)):
                if v is not None:
                    group.setdefault(v, []).append(r)
        hit = None
        mlists = [dcols[m] for m in mcols]
        for r in group.get(value, ()):
            vals = tuple([col[ranked[r]] for col in mlists])
            if None not in vals:
                hit = _add_donor(hit, r, vals)
        entry[value] = hit
        return hit

    def plan(params: tuple[str, ...], nulls: tuple[bool, ...]
             ) -> tuple[tuple[str, ...], tuple[tuple[int, tuple], ...]]:
        missing = tuple(compress(params, nulls))
        mcols = tuple(map(col_map.get, missing))
        refs = () if None in mcols else tuple(
            (i, (dcol, mcols))
            for i, dcol in enumerate(map(col_map.get, params[:nulls.index(True)]))
            if i >= first_reference and dcol is not None)
        plans[(params, nulls)] = missing, refs
        return missing, refs

    while True:
        filled_before = len(fills)
        for h, rows in work:
            params = h.parameters
            blocked = []
            for row, vals in zip(rows, zip(*(map(cols[p].__getitem__, rows) for p in params))):
                if vals[1] is None:  # never completed under this hierarchy
                    blocked.append(row)
                    continue
                if None not in vals:
                    continue
                nulls = tuple(map(is_, vals, repeat(None)))
                missing, refs = plans.get((params, nulls)) or plan(params, nulls)
                hits = []
                for i, ikey in refs:
                    entry = index.get(ikey)
                    value = vals[i]
                    hit = entry[value] if entry is not None and value in entry \
                        else donors(*ikey, value)
                    if hit is not None:
                        hits.append(hit)
                if not hits:
                    blocked.append(row)
                    continue
                if len(hits) == 1:
                    best, values, ambiguous = hits[0]
                else:
                    best, values, _ = min(hits, key=itemgetter(0))
                    ambiguous = any(several or other != values for _, other, several in hits)
                key, donor_key = ids[row], donor_ids[ranked[best]]
                for q, v in zip(missing, values):
                    cols[q][row] = v
                    fills.append(CompletionFill(key, q, v, donor_key, h.name, ambiguous))
                if donor_is_target:  # the filled row now donates on what it gained
                    r = rank[row]
                    for c in missing:
                        if c in groups:
                            groups[c].setdefault(cols[c][row], []).append(r)
                        for dcol, mcols, entry in readers.get(c, ()):
                            v = dcols[dcol][row]
                            if v is not None and v in entry:
                                got = tuple([dcols[m][row] for m in mcols])
                                if None not in got:
                                    entry[v] = _add_donor(entry[v], r, got)
            rows[:] = blocked
        if len(fills) == filled_before:
            return fills


def _add_donor(hit: tuple | None, rank: int, values: tuple) -> tuple:
    """Fold one qualifying donor into an index value ``(rank, values, several)``.

    ``rank`` and ``values`` are the first donor's; ``several`` says whether
    the qualifying donors hold more than one value tuple.
    """
    if hit is None:
        return rank, values, False
    best, first, several = hit
    several = several or values != first
    return (rank, values, several) if rank < best else (best, first, several)


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
    roots_matched = l2r.get(d1.root) == d2.root

    results: list[tuple[Hierarchy, Hierarchy, HierarchyMergeResult]] = []
    for h1, h2 in _hierarchy_pairs(d1, d2):
        res = merge_hierarchies(h1, h2, d1.rows, d2.rows, l2r, settings)
        results.append((h1, h2, res))

    if roots_matched:
        return _merge_matched(d1, d2, l2r, results, settings)
    return _merge_unmatched(d1, d2, l2r, results)


def _merge_matched(d1: Dimension, d2: Dimension, l2r, results,
                   settings: MergeSettings) -> DimensionMergeResult:
    r2l = {v: k for k, v in l2r.items()}
    names = _right_name_map(d1.attributes, d2.attributes, d2.name, r2l)
    attributes, numeric, hierarchies, produced = _side_schema(
        d1, d2, names, results, "l", adopted=d2.hierarchies)
    ids, conflicts, columns = merge_instances(d1, d2, names, attributes, settings.conflict)
    dim = Dimension(d1.name, d1.root, attributes, hierarchies, columns, numeric)
    fills = _complete_rows(dim, produced, dim, {a: a for a in attributes})

    sources: dict[str, tuple[str | None, str | None]] = {}
    for a in d1.attributes:
        sources[a] = (a, l2r.get(a))
    for b in d2.attributes:
        if b not in r2l:
            sources[names[b]] = (None, b)
    return DimensionMergeResult(
        matched=True, dimension=dim, completion_log=fills, conflict_log=conflicts,
        shared_keys=len(d1.rows) + len(d2.rows) - len(ids), attr_sources=sources)


def _widened(dim: Dimension, attributes: tuple[str, ...], hierarchies: tuple[Hierarchy, ...],
             numeric: frozenset[str]) -> Dimension:
    """``dim`` under ``attributes``, its own then gained ones: a copy of each
    of its columns, for completion to fill, and a null column per gained one."""
    n = len(dim.rows)
    columns = [list(col) for col in dim.columns]
    columns += [[None] * n for _ in attributes[len(columns):]]
    return Dimension(dim.name, dim.root, attributes, hierarchies, columns, numeric)


def _merge_unmatched(d1: Dimension, d2: Dimension, l2r, results) -> DimensionMergeResult:
    reached = {s: sorted(set().union(*(res.reached(s) for _, _, res in results))) for s in "lr"}
    gained_1 = _right_name_map(d1.attributes, reached["l"], d2.name, {})
    gained_2 = _right_name_map(d2.attributes, reached["r"], d1.name, {})
    attrs_1, numeric_1, hierarchies_1, merged_1 = _side_schema(d1, d2, gained_1, results, "l")
    attrs_2, numeric_2, hierarchies_2, merged_2 = _side_schema(d2, d1, gained_2, results, "r")
    dim1 = _widened(d1, attrs_1, hierarchies_1, numeric_1)
    dim2 = _widened(d2, attrs_2, hierarchies_2, numeric_2)

    # Donor lookup maps each left name to the right name of the same data:
    # matched attributes via the correspondences, gained ones to the column
    # they copy. It is a bijection, since gained names never collide with
    # native ones. An unmatched attribute that merely shares its name with
    # the other side is NOT in it: the matcher (or the user map) decided
    # they are distinct.
    same = {**l2r, **{n: b for b, n in gained_1.items()}, **gained_2}
    fills_1 = _complete_rows(dim1, merged_1, dim2, same)
    fills_2 = _complete_rows(dim2, merged_2, dim1, {v: k for k, v in same.items()})
    return DimensionMergeResult(
        matched=False, left=dim1, right=dim2,
        completion_log_left=fills_1, completion_log_right=fills_2)
