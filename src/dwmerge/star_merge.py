"""Merging two star schemas end to end.

Phases: cross-enrich dimension pairs with unmatched roots, pair and merge
dimensions with matched roots, prune hierarchies that no row conforms to or
whose rows longer hierarchies cover, then merge the facts into a star when
every dimension found a matched-root partner, or assemble a constellation
otherwise. The resulting report is checked against the count laws before
anything is returned.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import repeat
from operator import is_
from typing import Mapping, Sequence

from . import __version__
from .config import MergeSettings
from .dimension_merge import (CompletionFill, DimensionMergeResult, ValueConflict,
                              _right_name_map, check_column_kinds, fuse_cells,
                              merge_dimensions)
from .errors import (ConflictError, InternalInvariantError, MergeError,
                     UnmergeableError)
from .matching import (Correspondence, MatcherConfig, check_user_map, match_attributes,
                       match_measures, matched_root_parameters)
from .model import (Cell, Dimension, Fact, Hierarchy, Schema, cell_to_text, star_schema,
                    uniquify, validate)
from .report import (AmbiguousFill, CompletedAttribute, ConflictEcho,
                     CorrespondenceEcho, DimensionPairEcho, MergeReport,
                     PrunedHierarchy, TableCount, assert_count_laws)

REASON_DEAD = "noConformingInstance"
REASON_SUBSUMED = "subsumedByMerged"


@dataclass
class StarMergeResult:
    schema: Schema
    report: MergeReport


# ---------------------------------------------------------------------------
# hierarchy pruning
# ---------------------------------------------------------------------------

def prune_hierarchies(dim: Dimension) -> tuple[Dimension, list[tuple[Hierarchy, str]]]:
    """Delete hierarchies no instance conforms to, and hierarchies whose
    conforming instances all conform to ones over strictly more parameters,
    whether the inputs carried them or the merge made them.

    A row conforms to a hierarchy none of whose parameters is null in it,
    so the rules read each distinct pattern of nulls in the hierarchy
    columns once, as its set of null columns. Strict containment keeps two
    hierarchies over the same parameters in different orders from removing
    each other. Decisions are evaluated against the incoming hierarchy set
    and applied in one batch, so the outcome does not depend on iteration
    order, and every row on a subsumed hierarchy stays on a surviving one.
    """
    columns = list(dict.fromkeys(p for h in dim.hierarchies for p in h.parameters))
    flags = set(zip(*(map(is_, dim.cells(c), repeat(None)) for c in columns)))
    patterns = [{c for c, null in zip(columns, f) if null} for f in flags]
    removed: list[tuple[Hierarchy, str]] = []
    for h in dim.hierarchies:
        params = set(h.parameters)
        longer = [m.parameters for m in dim.hierarchies if set(m.parameters) > params]
        on_h = [nulls for nulls in patterns if nulls.isdisjoint(params)]
        if not on_h:
            removed.append((h, REASON_DEAD))
        elif all(any(map(nulls.isdisjoint, longer)) for nulls in on_h):
            removed.append((h, REASON_SUBSUMED))

    gone = {h.name for h, _ in removed}
    pruned_dim = Dimension.from_columns(dim.name, dim.root, dim.attributes,
                                        tuple(h for h in dim.hierarchies if h.name not in gone),
                                        dim.columns, dim.numeric)
    return pruned_dim, removed


# ---------------------------------------------------------------------------
# fact merging
# ---------------------------------------------------------------------------

def merge_facts(f1: Fact, f2: Fact, measure_corrs: Sequence[Correspondence],
                dim_pairing: Mapping[str, str], settings: MergeSettings = MergeSettings()
                ) -> tuple[Fact, list[ValueConflict], int]:
    """Fuse two facts row-wise on their aligned dimension-key tuples.

    ``dim_pairing`` maps each right dimension name to its matched left
    dimension. Key columns keep the left fact's spelling and order; matched
    measures unify under the left name, the rest join with nulls on the
    side that lacks them. Rows come out as the left ones, then the right-only
    ones; ``io.write_dw`` sorts them by key. Rows that repeat a key tuple
    fuse as they come: a left one takes the place of the first, a right one
    fuses into the row that holds its key.

    The work is done a column at a time. The inputs are never mutated, and
    every output cell is an input cell object; a column that gains no rows
    and takes no fused cells is the input's list itself.
    """
    left_cols = {dim: col for dim, col in f1.dimension_keys}
    right_cols = {dim: col for dim, col in f2.dimension_keys}
    right_dim_for_left = {l: r for r, l in dim_pairing.items()}
    aligned_right_cols = []
    for dim, col in f1.dimension_keys:
        rdim = right_dim_for_left.get(dim)
        if rdim is None or rdim not in right_cols:
            raise MergeError(
                f"fact key misalignment: no key column of {f2.name!r} pairs with "
                f"{f1.name!r} column {col!r} (dimension {dim!r})")
        aligned_right_cols.append(right_cols[rdim])
    if len(f2.dimension_keys) != len(f1.dimension_keys):
        extra = [c for d, c in f2.dimension_keys
                 if dim_pairing.get(d) not in left_cols]
        raise MergeError(f"fact key misalignment: unpaired key columns {extra!r}")
    if not f1.dimension_keys:
        raise MergeError(f"facts {f1.name!r} and {f2.name!r} have no key columns to fuse on")

    check_column_kinds(measure_corrs, f1.numeric, f2.numeric)
    m_r2l = {c.right[1]: c.left[1] for c in measure_corrs}
    key_cols = f1.key_columns()
    right_measure_names = _right_name_map(f1.measures + key_cols, f2.measures, f2.name, m_r2l)
    new_measures = [n for n in right_measure_names.values() if n not in f1.measures]
    measures = f1.measures + tuple(new_measures)
    numeric = f1.numeric | {right_measure_names[m] for m in f2.numeric
                            if m in right_measure_names}

    # Output row of each key tuple; of left rows that repeat one, the last
    # takes the place of the first.
    n1 = len(f1.rows)
    left = list(f1.columns) + [[None] * n1 for _ in new_measures]
    at = dict(zip(zip(*f1.columns[:len(key_cols)]), range(n1)))
    if len(at) != n1:
        left = [list(map(col.__getitem__, at.values())) for col in left]
        at = dict(zip(at, range(len(at))))
    # Each right row starts a row of its own or fuses into the one holding its key.
    right_keys = [f2.cells(c) for c in aligned_right_cols]
    added: list[int] = []
    common_i: list[int] = []  # the output row of each shared key
    common_j: list[int] = []  # and the right row that fuses into it
    for j, key in enumerate(zip(*right_keys)):
        n = len(at)
        i = at.setdefault(key, n)
        if i == n:
            added.append(j)
        else:
            common_i.append(i)
            common_j.append(j)

    # The added rows take their right cells; measures the right fact lacks are null.
    names = list(right_measure_names.items())
    source_of = {t: f2.cells(s) for s, t in names}
    extras = right_keys + [source_of.get(m) for m in measures]
    fused = {t for _, t in names} if common_i else set()
    columns = []
    for name, col, extra in zip(key_cols + measures, left, extras):
        if added:
            col = col + ([None] * len(added) if extra is None
                         else list(map(extra.__getitem__, added)))
        elif name in fused:
            col = list(col)
        columns.append(col)

    # Fusion: each shared key's right row fuses into the output row holding it.
    conflicts: list[ValueConflict] = []
    position = {name: k for k, name in enumerate(key_cols + measures)}
    fuse = [(f2.cells(s), columns[position[t]], t) for s, t in names]
    for _, j, name, v1, v2, chosen in fuse_cells(zip(common_i, common_j), fuse, settings.conflict):
        key_text = "(" + ", ".join(cell_to_text(col[j]) for col in right_keys) + ")"
        if settings.conflict == "error":
            raise ConflictError(f"conflicting measure {name!r} for fact key {key_text}")
        conflicts.append(ValueConflict(key_text, name, v1, v2, chosen))

    merged = Fact.from_columns(f1.name, measures, f1.dimension_keys, columns, numeric)
    return merged, conflicts, len(common_i)


# ---------------------------------------------------------------------------
# star merging
# ---------------------------------------------------------------------------

def _non_null_count(dim: Dimension, attr: str) -> int:
    return len(dim.rows) - dim.cells(attr).count(None)


def _cell(dim: Dimension | None, key: Cell, attr: str | None) -> Cell:
    """The cell of ``dim``'s row ``key`` in column ``attr``; null where any is absent."""
    at = None if dim is None or attr not in dim.attributes else dim.index.get(key)
    return None if at is None else dim.cells(attr)[at]


@dataclass
class OutputDimension:
    """One dimension of the merged schema and what the report and pruning need.

    ``sources`` are the input dimensions as loaded, ``None`` for a side that
    contributed nothing; a leftover dimension is a merged one whose other
    side is absent. ``attr_sources`` maps each attribute to its raw name on
    each side; attributes missing from it keep their name on both sides.
    ``fills`` pairs every completion fill with the attribute it landed on,
    in output names.
    """

    dimension: Dimension
    sources: tuple[Dimension | None, Dimension | None]
    attr_sources: Mapping[str, tuple[str | None, str | None]] = field(default_factory=dict)
    fills: list[tuple[str, CompletionFill]] = field(default_factory=list)
    conflicts: list[ValueConflict] = field(default_factory=list)
    shared: int = 0

    def count(self) -> TableCount:
        left, right = self.sources
        return TableCount(self.dimension.name, "dimension",
                          len(left.rows) if left else None,
                          len(right.rows) if right else None,
                          self.shared, len(self.dimension.rows))


def _enrich(rec: OutputDimension, dim: Dimension, fills: Sequence[CompletionFill]) -> None:
    rec.dimension = dim
    rec.fills.extend((f.attribute, f) for f in fills)


def _merged_record(r1: OutputDimension, r2: OutputDimension,
                   res: DimensionMergeResult) -> OutputDimension:
    """Fold two input records into the record of their merged dimension.

    An enrichment fill is kept only where neither input row, as loaded,
    holds a value in its output cell, and once per cell: the fill whose
    value (an input cell object) the cell holds, the left one first.
    """
    left, right = r1.sources[0], r2.sources[1]
    to_output = {src[1]: a for a, src in res.attr_sources.items() if src[1] is not None}
    enriched: dict[tuple, tuple[str, CompletionFill]] = {}
    for attr, f in r1.fills + [(to_output.get(a, a), f) for a, f in r2.fills]:
        raw = res.attr_sources.get(attr, (attr, attr))
        if _cell(res.dimension, f.row_key, attr) is f.value and not any(
                _cell(d, f.row_key, a) is not None for d, a in zip((left, right), raw)):
            enriched.setdefault((f.row_key, attr), (attr, f))
    return OutputDimension(
        res.dimension, (left, right), res.attr_sources,
        fills=list(enriched.values()) + [(f.attribute, f) for f in res.completion_log],
        conflicts=res.conflict_log, shared=res.shared_keys)


def merge_all_dimensions(s1: Schema, s2: Schema, matcher: MatcherConfig,
                         settings: MergeSettings = MergeSettings()
                         ) -> tuple[list[OutputDimension], list[Correspondence]]:
    """Enrich unmatched-root pairs, then merge every matched-root pair.

    Returns one record per output dimension (merged pairs by left name, then
    left and right leftovers by name, right ones renamed on a clash) and
    every correspondence used.
    """
    recs1 = {d.name: OutputDimension(d, (d, None)) for d in s1.dimensions}
    recs2 = {d.name: OutputDimension(d, (None, d)) for d in s2.dimensions}
    all_corrs: list[Correspondence] = []
    # Correspondences keyed on everything match_attributes reads, so phase 2
    # re-matches a pair only if phase 1 changed the attributes of one side.
    memo: dict[tuple, list[Correspondence]] = {}

    def correspondences(d1: Dimension, d2: Dimension) -> list[Correspondence]:
        key = (d1.name, d1.attributes, d2.name, d2.attributes)
        if key not in memo:
            memo[key] = match_attributes(d1, d2, matcher)
        return memo[key]

    # Phase 1: cross-enrichment of pairs whose roots do not match.
    for n1 in sorted(recs1):
        for n2 in sorted(recs2):
            r1, r2 = recs1[n1], recs2[n2]
            corrs = correspondences(r1.dimension, r2.dimension)
            if not corrs or matched_root_parameters(r1.dimension, r2.dimension, corrs):
                continue
            res = merge_dimensions(r1.dimension, r2.dimension, corrs, settings)
            _enrich(r1, res.left, res.completion_log_left)
            _enrich(r2, res.right, res.completion_log_right)
            all_corrs.extend(corrs)

    # Phase 2: pair matched-root dimensions (most correspondences first).
    candidates = []
    pair_corrs: dict[tuple[str, str], list[Correspondence]] = {}
    for n1 in sorted(recs1):
        for n2 in sorted(recs2):
            d1, d2 = recs1[n1].dimension, recs2[n2].dimension
            corrs = correspondences(d1, d2)
            pair_corrs[(n1, n2)] = corrs
            if corrs and matched_root_parameters(d1, d2, corrs):
                candidates.append((-len(corrs), n1, n2))
    used1: set[str] = set()
    used2: set[str] = set()
    pairing: list[tuple[str, str]] = []
    for _, n1, n2 in sorted(candidates):
        if n1 in used1 or n2 in used2:
            continue
        used1.add(n1)
        used2.add(n2)
        pairing.append((n1, n2))
    if not pairing:
        raise UnmergeableError(
            f"stars {s1.name!r} and {s2.name!r} share no dimensions with matched "
            "root parameters")

    out: list[OutputDimension] = []
    for n1, n2 in sorted(pairing):
        r1, r2 = recs1.pop(n1), recs2.pop(n2)
        res = merge_dimensions(r1.dimension, r2.dimension, pair_corrs[(n1, n2)], settings)
        out.append(_merged_record(r1, r2, res))
        all_corrs.extend(pair_corrs[(n1, n2)])

    out.extend(recs1[n] for n in sorted(recs1))
    taken = {rec.dimension.name for rec in out}
    for n in sorted(recs2):
        rec = recs2[n]
        if n in taken:
            d = rec.dimension
            rec.dimension = Dimension.from_columns(uniquify(f"{n}_2", taken), d.root,
                                                   d.attributes, d.hierarchies, d.columns,
                                                   d.numeric)
        taken.add(rec.dimension.name)
        out.append(rec)
    return out, all_corrs


def merge_stars(s1: Schema, s2: Schema, matcher: MatcherConfig = MatcherConfig(),
                settings: MergeSettings = MergeSettings(),
                config_echo: dict | None = None) -> StarMergeResult:
    """Merge two star schemas into a star or a constellation, with report."""
    for s in (s1, s2):
        if s.fact is None:
            raise MergeError(f"schema {s.name!r} is not a star schema: merging needs one "
                             "fact that links every dimension")
    check_user_map(matcher.user_map, s1, s2)
    records, all_corrs = merge_all_dimensions(s1, s2, matcher, settings)

    report = MergeReport(result_kind="", schema_name="", tool_version=__version__,
                         config=dict(config_echo or {}))
    out_name = f"{s1.name}_{s2.name}"
    paired = [rec for rec in records if None not in rec.sources]

    for rec in records:
        name = rec.dimension.name
        left, right = rec.sources
        if left and right:
            report.dimension_pairs.append(DimensionPairEcho(left.name, right.name, name))
        report.conflicts.extend(_conflict_echo(name, c) for c in rec.conflicts)
        _echo_completions(report, rec)

    # Phase 3: pruning.
    final_dims = [rec.dimension for rec in records]
    if settings.prune:
        final_dims = []
        for rec in records:
            pdim, removed = prune_hierarchies(rec.dimension)
            final_dims.append(pdim)
            for h, reason in removed:
                report.pruned.append(PrunedHierarchy(pdim.name, h.name, reason))

    # Ambiguous fills and correspondences echo.
    for rec in sorted(records, key=lambda rec: rec.dimension.name):
        for attr, f in rec.fills:
            if f.ambiguous:
                report.ambiguous_fills.append(AmbiguousFill(
                    rec.dimension.name, cell_to_text(f.row_key), attr,
                    cell_to_text(f.donor_key)))
    report.correspondences.extend(_corr_echo(c) for c in sorted(
        all_corrs, key=lambda c: (c.left, c.right)))

    # Phase 4: facts.
    n_counts = {("dimension", rec.dimension.name): rec.count() for rec in records}
    star_case = (len(s1.dimensions) == len(s2.dimensions)
                 and len(paired) == len(records))
    if star_case:
        measure_corrs = match_measures(s1.fact, s2.fact, matcher)
        dim_pairing = {rec.sources[1].name: rec.sources[0].name for rec in paired}
        fact, fact_conflicts, n_common = merge_facts(
            s1.fact, s2.fact, measure_corrs, dim_pairing, settings)
        report.correspondences.extend(_corr_echo(c) for c in sorted(
            measure_corrs, key=lambda c: (c.left, c.right)))
        report.conflicts.extend(_conflict_echo(fact.name, c) for c in fact_conflicts)
        n_counts[("fact", fact.name)] = TableCount(
            fact.name, "fact", len(s1.fact.rows), len(s2.fact.rows),
            n_common, len(fact.rows))
        schema = star_schema(out_name, fact, tuple(final_dims))
        report.result_kind = "star"
    else:
        fact_names: set[str] = set()
        f1 = _retarget_fact(s1.fact, {}, fact_names)
        remap2 = {rec.sources[1].name: rec.dimension.name for rec in records if rec.sources[1]}
        f2 = _retarget_fact(s2.fact, remap2, fact_names)
        n_counts[("fact", f1.name)] = TableCount(f1.name, "fact", len(f1.rows),
                                                 None, 0, len(f1.rows))
        n_counts[("fact", f2.name)] = TableCount(f2.name, "fact", None,
                                                 len(f2.rows), 0, len(f2.rows))
        schema = Schema(out_name, (f1, f2), tuple(final_dims),
                        {f.name: tuple(dim for dim, _ in f.dimension_keys) for f in (f1, f2)})
        report.result_kind = "constellation"

    report.schema_name = out_name
    report.tables = [n_counts[k] for k in sorted(n_counts)]
    report.completions.sort(key=lambda c: (c.table, c.attribute))
    assert_count_laws(report)
    violations = validate(schema)
    if violations:
        raise InternalInvariantError(
            "merged schema failed validation: " + "; ".join(str(v) for v in violations[:5]))
    return StarMergeResult(schema=schema, report=report)


def _retarget_fact(fact: Fact, dim_rename: Mapping[str, str], taken: set[str]) -> Fact:
    """Point an untouched fact at the merged dimension names; its columns are shared."""
    name = uniquify(fact.name, taken)
    keys = tuple((dim_rename.get(d, d), c) for d, c in fact.dimension_keys)
    return Fact.from_columns(name, fact.measures, keys, fact.columns, fact.numeric)


def _corr_echo(c: Correspondence) -> CorrespondenceEcho:
    return CorrespondenceEcho(f"{c.left[0]}.{c.left[1]}", f"{c.right[0]}.{c.right[1]}",
                              c.left[1], c.score, c.source)


def _conflict_echo(table: str, c: ValueConflict) -> ConflictEcho:
    return ConflictEcho(table, cell_to_text(c.row_key), c.attribute, cell_to_text(c.left),
                        cell_to_text(c.right), cell_to_text(c.chosen))


def _echo_completions(report: MergeReport, rec: OutputDimension) -> None:
    """Completion count entries for one output dimension.

    Entries are emitted for attributes absent from at least one input, the
    only case where the completion law is well defined; fills on attributes
    both inputs carried stay visible through the ambiguous/conflict logs.
    """
    dim = rec.dimension
    left, right = rec.sources
    filled: dict[str, int] = {}
    for attr, _ in rec.fills:
        filled[attr] = filled.get(attr, 0) + 1
    for attr in dim.attributes:
        n_fill = filled.get(attr, 0)
        if n_fill == 0:
            continue
        left_raw, right_raw = rec.attr_sources.get(attr, (attr, attr))
        in1 = left is not None and left_raw in left.attributes
        in2 = right is not None and right_raw in right.attributes
        if in1 and in2:
            continue
        n1 = _non_null_count(left, left_raw) if in1 else None
        n2 = _non_null_count(right, right_raw) if in2 else None
        report.completions.append(CompletedAttribute(
            dim.name, attr, n1, n2, n_fill, _non_null_count(dim, attr)))
