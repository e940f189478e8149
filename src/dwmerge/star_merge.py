"""Merging two star schemas end to end.

Phases: cross-enrich dimension pairs with unmatched roots, pair and merge
dimensions with matched roots, prune dead or subsumed hierarchies, then
merge the facts into a star when every dimension found a matched-root
partner, or assemble a constellation otherwise. The resulting report is
checked against the count laws before anything is returned.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

from . import __version__
from .config import MergeSettings
from .dimension_merge import (CompletionFill, DimensionMergeResult, ValueConflict,
                              _right_name_map, _uniquify, check_column_kinds, fuse_row,
                              merge_dimensions)
from .errors import (ConflictError, InternalInvariantError, MergeError,
                     UnmergeableError)
from .matching import (Correspondence, MatcherConfig, match_attributes,
                       match_measures, matched_root_parameters)
from .model import (Constellation, Dimension, Fact, Hierarchy, Row, StarSchema,
                    cell_sort_key, cell_to_text, conforms, validate)
from .report import (AmbiguousFill, CompletedAttribute, ConflictEcho,
                     CorrespondenceEcho, DimensionPairEcho, MergeReport,
                     PrunedHierarchy, TableCount, assert_count_laws)

REASON_DEAD = "noConformingInstance"
REASON_SUBSUMED = "subsumedByMerged"


@dataclass
class StarMergeResult:
    schema: StarSchema | Constellation
    report: MergeReport


# ---------------------------------------------------------------------------
# hierarchy pruning
# ---------------------------------------------------------------------------

def prune_hierarchies(dim: Dimension, original_seqs: set[tuple[str, ...]],
                      merged_seqs: set[tuple[str, ...]]
                      ) -> tuple[Dimension, list[tuple[Hierarchy, str]]]:
    """Delete hierarchies no instance conforms to, and originals whose
    conforming instances all conform to a merged superset hierarchy.

    ``original_seqs`` are the parameter sequences of the hierarchies the raw
    inputs carried; ``merged_seqs`` the merge-produced ones. A sequence can
    be in both: a merge that reproduces an input hierarchy still counts as
    merged for the subsumption rule. Decisions are evaluated against the
    incoming hierarchy set and applied in one batch, so the outcome does not
    depend on iteration order.
    """
    rows = list(dim.rows.values())
    conformers = {h.name: [i for i, r in enumerate(rows) if conforms(r, h)]
                  for h in dim.hierarchies}
    merged = [h for h in dim.hierarchies if h.parameters in merged_seqs]

    removed: list[tuple[Hierarchy, str]] = []
    for h in dim.hierarchies:
        rows_on_h = conformers[h.name]
        if not rows_on_h:
            removed.append((h, REASON_DEAD))
            continue
        if h.parameters not in original_seqs:
            continue
        supersets = [m for m in merged
                     if set(m.parameters) >= set(h.parameters)
                     and m.parameters != h.parameters]
        if not supersets:
            continue
        covering = set()
        for m in supersets:
            covering.update(conformers[m.name])
        if all(i in covering for i in rows_on_h):
            removed.append((h, REASON_SUBSUMED))

    gone = {h.name for h, _ in removed}
    pruned_dim = Dimension(dim.name, dim.root, dim.attributes,
                           tuple(h for h in dim.hierarchies if h.name not in gone),
                           dim.rows, dim.numeric)
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
    side that lacks them.
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

    check_column_kinds(measure_corrs, f1.numeric, f2.numeric)
    m_r2l = {c.right[1]: c.left[1] for c in measure_corrs}
    right_measure_names, new_measures = _right_name_map(
        f1.measures + f1.key_columns(), f2.measures, f2.name, m_r2l)
    names = list(right_measure_names.items())
    measures = f1.measures + tuple(new_measures)
    numeric = set(f1.numeric)
    for m in f2.measures:
        if m in f2.numeric:
            numeric.add(right_measure_names[m])

    key_cols = f1.key_columns()
    rows: dict[tuple, Row] = {}
    for r in f1.rows:
        key = tuple(r[c] for c in key_cols)
        row: Row = {c: v for c, v in zip(key_cols, key)}
        for m in f1.measures:
            row[m] = r.get(m)
        for m in new_measures:
            row[m] = None
        rows[key] = row
    conflicts: list[ValueConflict] = []
    n_common = 0
    for r in f2.rows:
        key = tuple(r[c] for c in aligned_right_cols)
        row = rows.get(key)
        if row is None:
            row = {c: v for c, v in zip(key_cols, key)}
            for m in measures:
                row[m] = None
            rows[key] = row
        else:
            n_common += 1
        for name, v1, v2, chosen in fuse_row(row, r, names, settings.conflict):
            if settings.conflict == "error":
                raise ConflictError(
                    f"conflicting measure {name!r} for fact key {key!r}")
            key_text = "(" + ", ".join(cell_to_text(c) for c in key) + ")"
            conflicts.append(ValueConflict(key_text, name, v1, v2, chosen))

    ordered = [rows[k] for k in sorted(rows, key=lambda t: tuple(cell_sort_key(c) for c in t))]
    merged = Fact(f1.name, measures, f1.dimension_keys, ordered, frozenset(numeric))
    return merged, conflicts, n_common


# ---------------------------------------------------------------------------
# star merging
# ---------------------------------------------------------------------------

def _non_null_count(rows, attr: str) -> int:
    return sum(1 for r in rows if r.get(attr) is not None)


@dataclass
class OutputDimension:
    """One dimension of the merged schema and what the report and pruning need.

    ``sources`` are the input dimensions as loaded, ``None`` for a side that
    contributed nothing; a leftover dimension is a merged one whose other
    side is absent. ``attr_sources`` maps each attribute to its raw name on
    each side; attributes missing from it keep their name on both sides.
    ``originals`` and ``produced`` are the parameter sequences of the input
    hierarchies and of the merge-produced ones, and ``fills`` pairs every
    completion fill with the attribute it landed on, all in output names.
    """

    dimension: Dimension
    sources: tuple[Dimension | None, Dimension | None]
    attr_sources: Mapping[str, tuple[str | None, str | None]] = field(default_factory=dict)
    originals: set[tuple[str, ...]] = field(default_factory=set)
    produced: set[tuple[str, ...]] = field(default_factory=set)
    fills: list[tuple[str, CompletionFill]] = field(default_factory=list)
    conflicts: list[ValueConflict] = field(default_factory=list)
    shared: int = 0

    def count(self) -> TableCount:
        left, right = self.sources
        return TableCount(self.dimension.name, "dimension",
                          len(left.rows) if left else None,
                          len(right.rows) if right else None,
                          self.shared, len(self.dimension.rows))


def _input_record(dim: Dimension, sources: tuple[Dimension | None, Dimension | None]
                  ) -> OutputDimension:
    return OutputDimension(dim, sources, originals={h.parameters for h in dim.hierarchies})


def _enrich(rec: OutputDimension, dim: Dimension, produced: Sequence[Hierarchy],
            fills: Sequence[CompletionFill]) -> None:
    rec.dimension = dim
    rec.produced.update(h.parameters for h in produced)
    rec.fills.extend((f.attribute, f) for f in fills)


def _merged_record(r1: OutputDimension, r2: OutputDimension,
                   res: DimensionMergeResult) -> OutputDimension:
    """Fold two input records into the record of their merged dimension."""
    to_unified = {src[1]: a for a, src in res.attr_sources.items() if src[1] is not None}

    def unified(seq: tuple[str, ...]) -> tuple[str, ...]:
        return tuple(to_unified.get(p, p) for p in seq)

    return OutputDimension(
        res.dimension, (r1.sources[0], r2.sources[1]), res.attr_sources,
        originals=r1.originals | {unified(s) for s in r2.originals},
        produced=({h.parameters for h in res.merged_only} | r1.produced
                  | {unified(s) for s in r2.produced}),
        fills=(r1.fills + [(to_unified.get(a, a), f) for a, f in r2.fills]
               + [(f.attribute, f) for f in res.completion_log]),
        conflicts=res.conflict_log, shared=res.shared_keys)


def merge_all_dimensions(s1: StarSchema, s2: StarSchema, matcher: MatcherConfig,
                         settings: MergeSettings = MergeSettings()
                         ) -> tuple[list[OutputDimension], list[Correspondence]]:
    """Enrich unmatched-root pairs, then merge every matched-root pair.

    Returns one record per output dimension (merged pairs by left name, then
    left and right leftovers by name, right ones renamed on a clash) and
    every correspondence used.
    """
    recs1 = {d.name: _input_record(d, (d, None)) for d in s1.dimensions}
    recs2 = {d.name: _input_record(d, (None, d)) for d in s2.dimensions}
    all_corrs: list[Correspondence] = []

    # Phase 1: cross-enrichment of pairs whose roots do not match.
    for n1 in sorted(recs1):
        for n2 in sorted(recs2):
            r1, r2 = recs1[n1], recs2[n2]
            corrs = match_attributes(r1.dimension, r2.dimension, matcher)
            if not corrs or matched_root_parameters(r1.dimension, r2.dimension, corrs):
                continue
            res = merge_dimensions(r1.dimension, r2.dimension, corrs, settings)
            _enrich(r1, res.left, res.merged_only_left, res.completion_log_left)
            _enrich(r2, res.right, res.merged_only_right, res.completion_log_right)
            all_corrs.extend(corrs)

    # Phase 2: pair matched-root dimensions (most correspondences first).
    candidates = []
    pair_corrs: dict[tuple[str, str], list[Correspondence]] = {}
    for n1 in sorted(recs1):
        for n2 in sorted(recs2):
            d1, d2 = recs1[n1].dimension, recs2[n2].dimension
            corrs = match_attributes(d1, d2, matcher)
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
            rec.dimension = Dimension(_uniquify(f"{n}_2", taken), d.root, d.attributes,
                                      d.hierarchies, d.rows, d.numeric)
        taken.add(rec.dimension.name)
        out.append(rec)
    return out, all_corrs


def merge_stars(s1: StarSchema, s2: StarSchema, matcher: MatcherConfig = MatcherConfig(),
                settings: MergeSettings = MergeSettings(),
                config_echo: dict | None = None) -> StarMergeResult:
    """Merge two star schemas into a star or a constellation, with report."""
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
            pdim, removed = prune_hierarchies(rec.dimension, rec.originals, rec.produced)
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
        schema: StarSchema | Constellation = StarSchema(out_name, fact, tuple(final_dims))
        report.result_kind = "star"
    else:
        fact_names: set[str] = set()
        f1 = _retarget_fact(s1.fact, {}, fact_names)
        remap2 = {rec.sources[1].name: rec.dimension.name for rec in records if rec.sources[1]}
        f2 = _retarget_fact(s2.fact, remap2, fact_names)
        star_map = {
            f1.name: tuple(dim for dim, _ in f1.dimension_keys),
            f2.name: tuple(dim for dim, _ in f2.dimension_keys),
        }
        n_counts[("fact", f1.name)] = TableCount(f1.name, "fact", len(f1.rows),
                                                 None, 0, len(f1.rows))
        n_counts[("fact", f2.name)] = TableCount(f2.name, "fact", None,
                                                 len(f2.rows), 0, len(f2.rows))
        schema = Constellation(out_name, (f1, f2), tuple(final_dims), star_map)
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
    """Point an untouched fact at the merged dimension names; rows stay as-is."""
    name = _uniquify(fact.name, taken) if fact.name in taken else fact.name
    taken.add(name)
    keys = tuple((dim_rename.get(d, d), c) for d, c in fact.dimension_keys)
    return Fact(name, fact.measures, keys, fact.rows, fact.numeric)


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
        n1 = _non_null_count(left.rows.values(), left_raw) if in1 else None
        n2 = _non_null_count(right.rows.values(), right_raw) if in2 else None
        report.completions.append(CompletedAttribute(
            dim.name, attr, n1, n2, n_fill,
            _non_null_count(dim.rows.values(), attr)))
