import contextlib
import copy
import gc
import operator
import random
from decimal import Decimal
from itertools import permutations, repeat
from operator import itemgetter
from typing import Mapping, Sequence

import pytest
from hypothesis import given, settings, strategies as st

from dwmerge import io, model, star_merge
from dwmerge.config import MergeSettings
from dwmerge.dimension_merge import (ValueConflict, _right_name_map, check_column_kinds,
                                     merge_dimensions)
from dwmerge.errors import ConflictError, MergeError, UnmergeableError
from dwmerge.generator import (generate_pair, preset_basic, preset_const22,
                               preset_divergent, preset_star4)
from dwmerge.matching import Correspondence, MatcherConfig, match_attributes, match_measures
from dwmerge.model import (Cell, Dimension, Fact, Hierarchy, Row, cell_to_text, star_schema,
                           validate)
from dwmerge.star_merge import merge_facts, merge_stars, prune_hierarchies

from conftest import (H13_PARAMS, H24_PARAMS, customer_left, customer_right, fuse_row,
                      make_dimension, traced)
from test_output_digests import conflict_spec


def merged_customer_dim(include_stub=False):
    d1 = customer_left()
    d2 = customer_right(include_stub)
    corrs = match_attributes(d1, d2, MatcherConfig())
    return merge_dimensions(d1, d2, corrs)


# ---------------------------------------------------------------------------
# pruning
# ---------------------------------------------------------------------------

def test_prune_subsumed_original():
    res = merged_customer_dim()
    pruned, removed = prune_hierarchies(res.dimension)
    gone = {(h.parameters, reason) for h, reason in removed}
    # every H4-conforming row also conforms to the merged superset
    assert (("Code", "Profession", "Subcategory"), "subsumedByMerged") in gone
    # H1 survives: C02..C04 are on H1 but carry no City
    survivors = {h.parameters for h in pruned.hierarchies}
    assert ("Code", "Department", "Region", "Continent") in survivors
    assert H13_PARAMS in survivors and H24_PARAMS in survivors


def test_prune_retains_uniquely_covering_original():
    res = merged_customer_dim(include_stub=True)
    pruned, removed = prune_hierarchies(res.dimension)
    survivors = {h.parameters for h in pruned.hierarchies}
    # the stub row is on H4 but not on the merged superset, so H4 stays
    assert ("Code", "Profession", "Subcategory") in survivors
    assert res.dimension.rows["C13"]["Category"] is None


def test_prune_removes_dead_hierarchy():
    dim = make_dimension("d", "K", ("K", "A"), [("H", ("K", "A"))],
                         [("k1", None), ("k2", None)])
    pruned, removed = prune_hierarchies(dim)
    assert [(h.name, reason) for h, reason in removed] == [("H", "noConformingInstance")]
    assert pruned.hierarchies == ()


def test_prune_keeps_single_conforming():
    dim = make_dimension("d", "K", ("K", "A"), [("H", ("K", "A"))], [("k1", "a")])
    pruned, removed = prune_hierarchies(dim)
    assert removed == [] and len(pruned.hierarchies) == 1


def covered_dimension():
    """KAC's rows all conform to KABC; KA keeps k3, which has no B or C; no row has a D."""
    return make_dimension(
        "d", "K", ("K", "A", "B", "C", "D"),
        [("KA", ("K", "A")), ("KAC", ("K", "A", "C")), ("KABC", ("K", "A", "B", "C")),
         ("KBD", ("K", "B", "D"))],
        [("k1", "a1", "b1", "c1", None), ("k2", "a1", "b2", "c2", None),
         ("k3", "a2", None, None, None)])


def test_prune_covered_hierarchy_whatever_its_origin():
    pruned, removed = prune_hierarchies(covered_dimension())
    assert [(h.name, reason) for h, reason in removed] == [
        ("KAC", "subsumedByMerged"), ("KBD", "noConformingInstance")]
    assert [h.name for h in pruned.hierarchies] == ["KA", "KABC"]


def test_prune_keeps_both_orders_of_one_parameter_set():
    dim = make_dimension("d", "K", ("K", "A", "B"),
                         [("KAB", ("K", "A", "B")), ("KBA", ("K", "B", "A"))],
                         [("k1", "a", "b"), ("k2", "a", "c")])
    pruned, removed = prune_hierarchies(dim)
    assert removed == [] and pruned.hierarchies == dim.hierarchies


def test_prune_decision_does_not_depend_on_hierarchy_order():
    dim = covered_dimension()
    want = {h.name for h, _ in prune_hierarchies(dim)[1]}
    for order in permutations(dim.hierarchies):
        reordered = Dimension.from_columns(dim.name, dim.root, dim.attributes, order,
                                           dim.columns)
        assert {h.name for h, _ in prune_hierarchies(reordered)[1]} == want


@st.composite
def small_dimensions(draw):
    """A root K over up to four nullable attributes, with random hierarchies."""
    others = "ABCD"
    rows = draw(st.lists(st.tuples(*[st.sampled_from([None, "x", "y"])] * len(others)),
                         max_size=8))
    params = draw(st.lists(st.lists(st.sampled_from(others), min_size=1, unique=True),
                           min_size=1, max_size=6))
    return make_dimension("d", "K", ("K", *others),
                          [(f"h{i}", ("K", *p)) for i, p in enumerate(params)],
                          [(f"k{i}", *r) for i, r in enumerate(rows)])


def conforms(row: Row, h: Hierarchy) -> bool:
    """A row conforms to a hierarchy when none of its parameters is null in it."""
    return all(row[p] is not None for p in h.parameters)


@settings(max_examples=200, deadline=None)
@given(small_dimensions())
def test_prune_keeps_every_covered_row_on_a_survivor(dim):
    pruned, removed = prune_hierarchies(dim)
    for h, reason in removed:
        on_h = [r for r in dim.rows.values() if conforms(r, h)]
        if reason == "noConformingInstance":
            assert on_h == []
        for r in on_h:
            assert any(conforms(r, s) for s in pruned.hierarchies)
    assert prune_hierarchies(pruned)[1] == []


# The pruning rules applied a row at a time, through row dicts: the
# reference for the null patterns that prune_hierarchies reads.
def reference_pruned(dim: Dimension) -> list[tuple[Hierarchy, str]]:
    """The (hierarchy, reason) pairs prune_hierarchies removes from ``dim``."""
    rows = list(dim.rows.values())
    removed = []
    for h in dim.hierarchies:
        params = set(h.parameters)
        longer = [m for m in dim.hierarchies if set(m.parameters) > params]
        on_h = [r for r in rows if conforms(r, h)]
        if not on_h:
            removed.append((h, "noConformingInstance"))
        elif all(any(conforms(r, m) for m in longer) for r in on_h):
            removed.append((h, "subsumedByMerged"))
    return removed


def test_prune_by_null_pattern_matches_the_row_rule():
    rng = random.Random(2323)
    others = ("A", "B", "C", "D")
    seen = dict.fromkeys(["no rows", "root only", "two orders", "dead", "subsumed",
                          "kept"], 0)
    for case in range(400):
        rows = [(f"k{i}", *(rng.choice([None, None, "x", "y"]) for _ in others))
                for i in range(rng.choice([0, 1, 2, 5, 9]))]
        params = [tuple(rng.sample(others, rng.randint(0, 4)))
                  for _ in range(rng.randint(1, 5))]
        if rng.random() < 0.3:  # one parameter set in another order
            params.append(tuple(reversed(rng.choice(params))))
        hierarchies = [(f"h{i}", ("K", *p)) for i, p in enumerate(params)]
        dim = make_dimension("d", "K", ("K", *others), hierarchies, rows)
        want = reference_pruned(dim)
        assert prune_hierarchies(dim)[1] == want, case
        seen["no rows"] += not rows
        seen["root only"] += () in params
        seen["two orders"] += len(set(map(frozenset, params))) < len(set(params))
        reasons = {r for _, r in want}
        seen["dead"] += "noConformingInstance" in reasons
        seen["subsumed"] += "subsumedByMerged" in reasons
        seen["kept"] += len(want) < len(params)
    assert all(seen.values()), seen


@pytest.mark.parametrize("spec", [
    preset_basic(3, rows=60, fact_rows=150), preset_divergent(3, fact_rows=300),
    preset_star4(3, fact_rows=300), preset_const22(3)], ids=lambda s: s.name)
def test_merge_builds_no_row_dict(spec, tmp_path, monkeypatch):
    dw1, dw2, _ = generate_pair(spec)

    def no_row(self, i):
        raise AssertionError("the merge read a row dict")

    monkeypatch.setattr(model.Rows, "_row", no_row)
    result = merge_stars(dw1, dw2)
    io.write_dw(result.schema, tmp_path / "out")


@pytest.mark.parametrize("spec", [preset_basic(3), preset_divergent(3), preset_star4(3),
                                  preset_const22(3)], ids=lambda s: s.name)
def test_load_merge_and_validate_make_no_reference_cycle(spec, tmp_path, collector):
    # so a caller that pauses the cyclic collector, as the command line
    # does, holds no garbage that grows with the warehouses
    for dw, name in zip(generate_pair(spec), ("dw1", "dw2")):
        io.write_dw(dw, tmp_path / name)
    gc.collect()
    gc.disable()
    s1, s2 = io.load_dw(tmp_path / "dw1"), io.load_dw(tmp_path / "dw2")
    result = merge_stars(s1, s2)
    assert validate(s1) == validate(s2) == validate(result.schema) == []
    assert gc.collect() == 0


# ---------------------------------------------------------------------------
# fact merging
# ---------------------------------------------------------------------------

def small_fact(name, rows, measures=("Quantity",)):
    return Fact(name, measures, (("customer", "Code"),),
                rows, frozenset(measures))


def test_merge_facts_fuses_common_keys():
    f1 = small_fact("sales", [{"Code": "C01", "Quantity": Decimal(1)},
                              {"Code": "C02", "Quantity": Decimal(2)}])
    f2 = Fact("sales", ("Quantity", "Tax"), (("customer", "Code"),),
              [{"Code": "C01", "Quantity": Decimal(1), "Tax": Decimal(5)},
               {"Code": "C03", "Quantity": Decimal(9), "Tax": Decimal(6)}],
              frozenset({"Quantity", "Tax"}))
    from dwmerge.matching import match_measures
    mcorrs = match_measures(f1, f2, MatcherConfig())
    merged, conflicts, n_common = merge_facts(f1, f2, mcorrs, {"customer": "customer"})
    assert n_common == 1
    assert len(merged.rows) == 2 + 2 - 1
    by_key = {r["Code"]: r for r in merged.rows}
    assert by_key["C01"] == {"Code": "C01", "Quantity": Decimal(1), "Tax": Decimal(5)}
    assert by_key["C02"]["Tax"] is None
    assert conflicts == []


def test_merge_fact_with_itself_unchanged():
    f1 = small_fact("sales", [{"Code": "C01", "Quantity": Decimal(1)},
                              {"Code": "C02", "Quantity": Decimal(2)}])
    from dwmerge.matching import match_measures
    mcorrs = match_measures(f1, f1, MatcherConfig())
    merged, conflicts, n_common = merge_facts(f1, f1, mcorrs, {"customer": "customer"})
    assert n_common == 2 and conflicts == []
    assert sorted(r["Code"] for r in merged.rows) == ["C01", "C02"]
    assert merged.measures == f1.measures


def test_merge_facts_count_law_on_generated():
    dw1, dw2, manifest = generate_pair(preset_basic(seed=21))
    from dwmerge.matching import match_measures
    mcorrs = match_measures(dw1.fact, dw2.fact, MatcherConfig())
    merged, _, n_common = merge_facts(dw1.fact, dw2.fact, mcorrs,
                                      {"customer": "customer", "product": "product"})
    # oracle: intersect the key-tuple sets independently
    keys1 = {tuple(r[c] for c in dw1.fact.key_columns()) for r in dw1.fact.rows}
    keys2 = {tuple(r[c] for c in dw2.fact.key_columns()) for r in dw2.fact.rows}
    assert n_common == len(keys1 & keys2) == manifest["facts"]["sales"]["sharedKeyTuples"]
    assert len(merged.rows) == len(keys1) + len(keys2) - n_common


def test_merge_facts_peak_bytes_per_merged_row(tmp_path):
    # The shared rows are kept as two int lists, not a tuple per pair: about
    # 184 bytes a merged row at most, against 197.
    for side, dw in zip("ab", generate_pair(preset_basic(seed=1, fact_rows=20000))[:2]):
        io.write_dw(dw, tmp_path / side)
    f1, f2 = (io.load_dw(tmp_path / side).fact for side in "ab")
    mcorrs = match_measures(f1, f2, MatcherConfig())
    pairing = {"customer": "customer", "product": "product"}
    (merged, _, _), _, peak = traced(lambda: merge_facts(f1, f2, mcorrs, pairing))
    assert len(merged.rows) > 10000
    assert peak / len(merged.rows) <= 190, peak / len(merged.rows)


def test_merge_facts_misalignment_error():
    f1 = small_fact("sales", [])
    f2 = Fact("sales", ("Quantity",), (("supplier", "Sid"),), [], frozenset())
    with pytest.raises(MergeError, match="misalignment"):
        merge_facts(f1, f2, [], {})
    # Every row of a fact with no key column has the empty key tuple.
    keyless = Fact("sales", ("Quantity",), (), [{"Quantity": Decimal(1)}] * 2,
                   frozenset({"Quantity"}))
    with pytest.raises(MergeError, match="no key columns"):
        merge_facts(keyless, keyless, [], {})


# ---------------------------------------------------------------------------
# merge_facts against the version that built every row anew
# ---------------------------------------------------------------------------

def column(rows, name: str) -> list[Cell]:
    """The ``name`` cell of every row; null where a row lacks the column."""
    return list(map(dict.get, rows, repeat(name)))


def records(columns, n: int):
    """The ``n`` tuples of ``columns`` read side by side, empty ones if there are no columns."""
    return zip(*columns) if columns else repeat((), n)


# merge_facts as it was before it shared unchanged rows with its inputs: every
# output row built anew, every shared row fused. Kept verbatim as the reference,
# with the two helpers above and conftest's fuse_row, which the package no
# longer has, except that its error text renders the key tuple as the report does.
def reference_merge_facts(f1: Fact, f2: Fact, measure_corrs: Sequence[Correspondence],
                          dim_pairing: Mapping[str, str], settings: MergeSettings = MergeSettings()
                          ) -> tuple[Fact, list[ValueConflict], int]:
    """Fuse two facts row-wise on their aligned dimension-key tuples.

    ``dim_pairing`` maps each right dimension name to its matched left
    dimension. Key columns keep the left fact's spelling and order; matched
    measures unify under the left name, the rest join with nulls on the
    side that lacks them. Rows come out as the left ones, then the right-only
    ones; ``io.write_dw`` sorts them by key.
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
    key_cols = f1.key_columns()
    right_measure_names = _right_name_map(f1.measures + key_cols, f2.measures, f2.name, m_r2l)
    names = list(right_measure_names.items())
    new_measures = [n for n in right_measure_names.values() if n not in f1.measures]
    measures = f1.measures + tuple(new_measures)
    numeric = f1.numeric | {right_measure_names[m] for m in f2.numeric
                            if m in right_measure_names}

    # The left rows are built a column at a time; the measures only the right
    # fact has start null.
    n1 = len(f1.rows)
    cells = [column(f1.rows, c) for c in key_cols + f1.measures]
    cells += [[None] * n1] * len(new_measures)
    left_rows = map(dict, map(zip, repeat(key_cols + measures), records(cells, n1)))
    rows: dict[tuple, Row] = dict(zip(records(cells[:len(key_cols)], n1), left_rows))
    right_keys = records([list(map(itemgetter(c), f2.rows)) for c in aligned_right_cols],
                         len(f2.rows))
    sources, targets = [s for s, _ in names], [t for _, t in names]
    all_nulls = dict.fromkeys(measures)
    conflicts: list[ValueConflict] = []
    n_common = 0
    for key, r in zip(right_keys, f2.rows):
        row = rows.get(key)
        if row is None:
            # Every measure of a new row is null and the right measures land
            # on distinct names, so fusing could copy cells but never clash.
            row = dict(zip(key_cols, key))
            row.update(all_nulls)
            row.update(zip(targets, map(r.get, sources)))
            rows[key] = row
            continue
        n_common += 1
        for name, v1, v2, chosen in fuse_row(row, r, names, settings.conflict):
            key_text = "(" + ", ".join(cell_to_text(c) for c in key) + ")"
            if settings.conflict == "error":
                raise ConflictError(
                    f"conflicting measure {name!r} for fact key {key_text}")
            conflicts.append(ValueConflict(key_text, name, v1, v2, chosen))

    merged = Fact(f1.name, measures, f1.dimension_keys, list(rows.values()), numeric)
    return merged, conflicts, n_common


NUMBERS = [None, None, Decimal("1"), Decimal("1.0"), Decimal("1.00"), Decimal("2"),
           Decimal("2.5"), Decimal("2.50")]
TEXTS = [None, None, "x", "y", "X", "1"]


def random_fact_pair(rng):
    """Two random facts on 1-3 paired dimensions, with measure correspondences.

    Key columns may be renamed and reordered on the right, dimensions renamed;
    measures are shared, left-only or right-only, text or numeric, and a right
    measure may carry the name of a left key column. Cells mix nulls, text
    and equal Decimals spelt differently; a few rows lack a measure cell or
    repeat a key tuple.
    """
    n_dims = rng.randint(1, 3)
    dims = [f"d{i}" for i in range(n_dims)]
    numeric_keys = rng.random() < 0.5
    key_pool = ([Decimal(v) for v in ("1", "2", "3")] if numeric_keys else ["a", "b", "c"])
    left_keys = tuple((d, f"k{i}") for i, d in enumerate(dims))
    rename_cols = rng.random() < 0.4
    right_dim = {d: (f"r{d}" if rng.random() < 0.3 else d) for d in dims}
    right_keys = [(right_dim[d], f"rk{i}" if rename_cols else c)
                  for i, (d, c) in enumerate(left_keys)]
    rng.shuffle(right_keys)
    pairing = {right_dim[d]: d for d in dims}

    pool = ["m0", "m1", "m2", "m3"]
    text = {m for m in pool + [c for _, c in left_keys] if rng.random() < 0.3}
    left_measures = rng.sample(pool, rng.randint(0, 3))
    right_measures = rng.sample(pool, rng.randint(0, 3))
    if rename_cols and rng.random() < 0.4:
        right_measures.append(rng.choice(left_keys)[1])
    corrs = []
    if rng.random() < 0.1:
        # the same measures on both sides, each kind matched crosswise
        right_measures = list(left_measures)
        for is_text in (True, False):
            group = [m for m in left_measures if (m in text) == is_text]
            corrs += [Correspondence(("f1", l), ("f2", r), 1.0, "test")
                      for l, r in zip(group, group[1:] + group[:1])]
    free_left = list(left_measures)
    for m in right_measures if not corrs else ():
        partners = [l for l in free_left if (l in text) == (m in text)]
        if partners and rng.random() < 0.7:
            partner = m if m in partners and rng.random() < 0.7 else rng.choice(partners)
            free_left.remove(partner)
            corrs.append(Correspondence(("f1", partner), ("f2", m), 1.0, "test"))

    def numeric(measures, keys):
        cols = [m for m in measures if m not in text]
        return frozenset(cols + ([c for _, c in keys] if numeric_keys else []))

    def rows(keys, measures):
        tuples = [tuple(rng.choice(key_pool) for _ in keys) for _ in range(rng.randint(0, 9))]
        if tuples and rng.random() < 0.1:
            tuples.append(rng.choice(tuples))
        out = []
        for tup in tuples:
            row = dict(zip((c for _, c in keys), tup))
            for m in measures:
                if rng.random() < 0.05:
                    continue
                row[m] = rng.choice(TEXTS if m in text else NUMBERS)
            out.append(row)
        return out

    f1 = Fact("f1", tuple(left_measures), left_keys, rows(left_keys, left_measures),
              numeric(left_measures, left_keys))
    f2 = Fact("f2", tuple(right_measures), tuple(right_keys),
              rows(right_keys, right_measures), numeric(right_measures, right_keys))
    return f1, f2, corrs, pairing


def cells_by_column(fact):
    cols = fact.key_columns() + fact.measures
    return repr([[row.get(c) for c in cols] for row in fact.rows])


def test_merge_facts_matches_reference():
    rng = random.Random(90210)
    seen = dict.fromkeys(["conflict", "fill", "right_null", "equal_spellings", "left_only",
                          "right_only", "renamed_key", "key_named_measure", "text",
                          "crossed", "left_kept", "right_kept", "new", "raised"], 0)
    for case in range(400):
        f1, f2, corrs, pairing = random_fact_pair(rng)
        before = repr((f1.rows, f2.rows))
        for policy in ("left", "right", "error"):
            settings = MergeSettings(conflict=policy)
            try:
                expected = reference_merge_facts(f1, f2, corrs, pairing, settings)
            except ConflictError as exc:
                with pytest.raises(ConflictError) as err:
                    merge_facts(f1, f2, corrs, pairing, settings)
                assert str(err.value) == str(exc), f"case {case}"
                seen["raised"] += 1
                continue
            merged, conflicts, n_common = merge_facts(f1, f2, corrs, pairing, settings)
            want, want_conflicts, want_common = expected
            assert (merged.name, merged.measures, merged.dimension_keys, merged.numeric) == \
                (want.name, want.measures, want.dimension_keys, want.numeric), f"case {case}"
            assert cells_by_column(merged) == cells_by_column(want), f"case {case} {policy}"
            assert repr(conflicts) == repr(want_conflicts), f"case {case} {policy}"
            assert n_common == want_common, f"case {case} {policy}"
            assert repr((f1.rows, f2.rows)) == before, f"case {case} {policy}"
            # Every non-null merged cell is an input cell object, a left one
            # where both sides hold it; the nulls count as new.
            left_ids = {id(c) for col in f1.columns for c in col}
            right_ids = {id(c) for col in f2.columns for c in col}
            for c in (c for col in merged.columns for c in col):
                side = ("new" if c is None else "left_kept" if id(c) in left_ids
                        else "right_kept" if id(c) in right_ids else None)
                assert side is not None, f"case {case} {policy}"
                seen[side] += 1
            seen["conflict"] += len(conflicts)
        matched = {c.right[1] for c in corrs}
        seen["left_only"] += len(set(f1.measures) - {c.left[1] for c in corrs}) > 0
        seen["right_only"] += len(set(f2.measures) - matched) > 0
        seen["renamed_key"] += f1.key_columns() != f2.key_columns()
        seen["key_named_measure"] += bool(set(f2.measures) & set(f1.key_columns()))
        seen["text"] += any(m not in f1.numeric for m in f1.measures + f2.measures)
        seen["crossed"] += (set(f1.measures) == set(f2.measures)
                            and any(c.left[1] != c.right[1] for c in corrs))
        aligned = [c for d, _ in f1.dimension_keys for rd, c in f2.dimension_keys
                   if pairing[rd] == d]
        for r1 in f1.rows:
            for r2 in f2.rows:
                if [r1[c] for c in f1.key_columns()] != [r2[c] for c in aligned]:
                    continue
                for c in corrs:
                    v1, v2 = r1.get(c.left[1]), r2.get(c.right[1])
                    seen["fill"] += v1 is None and v2 is not None
                    seen["right_null"] += v1 is not None and v2 is None
                    seen["equal_spellings"] += (isinstance(v1, Decimal) and v1 == v2
                                                and str(v1) != str(v2))
    # the cases reach every rule the sharing and fusion depend on
    assert all(seen.values()), seen


def input_rows(*stars):
    """Every fact and dimension row of ``stars``, as text that shows Decimal spellings."""
    return repr([(s.fact.rows, [d.rows for d in s.dimensions]) for s in stars])


def generated(spec):
    return lambda: generate_pair(spec())[:2]


def enrichment_fills_an_input_column():
    """A star pair whose enrichment fills a null in a column an input holds:
    a's customer c2 lacks a nation, and b's shops in its city have one."""
    geo, loc = ("cid", "city", "nation"), ("sid", "city", "nation")

    def star(name, customers, shops, sales):
        dims = (make_dimension("cust", "cid", geo, [("geo", geo)], customers),
                make_dimension("shop", "sid", loc, [("loc", loc)], shops))
        fact = Fact("sales", ("qty",), (("cust", "cid"), ("shop", "sid")),
                    [{"cid": c, "sid": s, "qty": Decimal(q)} for c, s, q in sales],
                    frozenset({"qty"}))
        return star_schema(name, fact, dims)

    return (star("a", [("c1", "Paris", "fr"), ("c2", "Lyon", None)], [("s1", "Paris", "fr")],
                 [("c1", "s1", 1), ("c2", "s1", 2)]),
            star("b", [("c1", "Paris", "fr")], [("s1", "Paris", "fr"), ("s2", "Lyon", "fr")],
                 [("c1", "s2", 3)]))


@pytest.mark.parametrize("make, policy", [
    # About half of the 184 shared fact tuples carry a conflicting price.
    pytest.param(generated(conflict_spec), "left", id="left"),
    pytest.param(generated(conflict_spec), "right", id="right"),
    pytest.param(generated(conflict_spec), "error", id="error"),
    # Completion fills cells of a merged dimension and of enriched ones (see
    # test_pipeline_completion_matches_reference_sweep), and of an enriched
    # one in a column its input holds.
    pytest.param(generated(lambda: preset_divergent(seed=3, rows=1200)), "left", id="divergent"),
    pytest.param(generated(lambda: preset_const22(seed=3)), "left", id="const22"),
    pytest.param(enrichment_fills_an_input_column, "left", id="enrichment-native"),
])
def test_merge_never_mutates_its_inputs(make, policy):
    dw1, dw2 = make()
    before = copy.deepcopy((dw1, dw2))
    settings = MergeSettings(conflict=policy)
    def raises():
        return pytest.raises(ConflictError) if policy == "error" else contextlib.nullcontext()

    mcorrs = match_measures(dw1.fact, dw2.fact, MatcherConfig())
    pairing = {d.name: d.name for d in dw2.dimensions}
    if {d.name for d in dw1.dimensions} == set(pairing):
        with raises():
            merge_facts(dw1.fact, dw2.fact, mcorrs, pairing, settings)
    with raises():
        merge_stars(dw1, dw2, settings=settings)
    assert input_rows(dw1, dw2) == input_rows(*before)


def test_unchanged_fact_rows_are_shared_with_the_inputs():
    dw1, dw2, _ = generate_pair(preset_basic(seed=7, rows=400, fact_rows=2000))
    result = merge_stars(dw1, dw2)
    assert result.report.conflicts == []
    merged = result.schema.fact
    n1 = len(dw1.fact.rows)
    assert merged.column_names() == dw1.fact.column_names()
    for name in merged.column_names():
        assert all(map(operator.is_, merged.cells(name)[:n1], dw1.fact.cells(name)))
    # the right-only rows take the right fact's key and measure cells
    right = {id(c) for col in dw2.fact.columns for c in col}
    assert len(merged.rows) > n1
    assert all(id(c) in right for col in merged.columns for c in col[n1:])


# ---------------------------------------------------------------------------
# merge_stars
# ---------------------------------------------------------------------------

def test_star_output_shape():
    dw1, dw2, _ = generate_pair(preset_star4(seed=5))
    res = merge_stars(dw1, dw2)
    assert res.schema.fact is not None
    assert res.report.result_kind == "star"
    fact_count = next(t for t in res.report.tables if t.kind == "fact")
    assert fact_count.n_merged == fact_count.n_left + fact_count.n_right - fact_count.n_shared
    # cross-dimension enrichment carried region onto customer
    assert "region" in res.schema.dimension("customer").attributes


def test_constellation_output_shape():
    dw1, dw2, _ = generate_pair(preset_const22(seed=5))
    res = merge_stars(dw1, dw2)
    assert res.schema.fact is None
    assert res.report.result_kind == "constellation"
    facts = {f.name: f for f in res.schema.facts}
    assert facts["sales_parts"].rows == dw1.fact.rows
    assert facts["sales_dates"].rows == dw2.fact.rows
    assert set(res.schema.star["sales_parts"]) == {"customer", "supplier", "part"}
    assert set(res.schema.star["sales_dates"]) == {"customer", "supplier", "orderdate"}


def test_merge_refuses_a_constellation_before_merging_any_dimension(monkeypatch):
    dw1, dw2, _ = generate_pair(preset_const22(seed=3))
    const = merge_stars(dw1, dw2).schema
    assert const.fact is None
    calls = []
    monkeypatch.setattr(star_merge, "merge_dimensions",
                        lambda *args, **kw: calls.append(args))
    for s1, s2 in ((const, dw1), (dw1, const)):
        with pytest.raises(MergeError, match=f"schema {const.name!r} is not a star schema"):
            merge_stars(s1, s2)
    assert calls == []


def test_unpaired_right_dimension_is_renamed_past_the_left_one(tmp_path):
    # Both stars carry a date dimension whose roots do not match, so neither
    # pairs: the right one leaves as date_2, and its fact is keyed on date_2.
    def customer():
        return make_dimension("customer", "Code", ("Code", "City"),
                              [("geo", ("Code", "City"))], [("C1", "x"), ("C2", "y")])
    date1 = make_dimension("date", "day", ("day", "month"), [("cal", ("day", "month"))],
                           [("d1", "m1"), ("d2", "m1")])
    date2 = make_dimension("date", "stamp", ("stamp", "month"),
                           [("cal", ("stamp", "month"))], [("s1", "m1")])
    f1 = Fact("sales", ("qty",), (("customer", "Code"), ("date", "day")),
              [{"Code": "C1", "day": "d1", "qty": Decimal(1)}], frozenset({"qty"}))
    f2 = Fact("sales", ("qty",), (("customer", "Code"), ("date", "stamp")),
              [{"Code": "C2", "stamp": "s1", "qty": Decimal(2)}], frozenset({"qty"}))
    res = merge_stars(star_schema("s1", f1, (customer(), date1)),
                      star_schema("s2", f2, (customer(), date2)))
    assert res.schema.fact is None
    assert res.schema.star == {"sales": ("customer", "date"),
                               "sales_2": ("customer", "date_2")}
    facts = {f.name: f for f in res.schema.facts}
    assert facts["sales_2"].dimension_keys == (("customer", "Code"), ("date_2", "stamp"))
    assert res.schema.dimension("date_2").rows == date2.rows
    counts = {(t.kind, t.table): (t.n_left, t.n_right, t.n_merged) for t in res.report.tables}
    assert counts[("dimension", "date")] == (2, None, 2)
    assert counts[("dimension", "date_2")] == (None, 1, 1)
    io.write_dw(res.schema, tmp_path / "out")
    assert validate(io.load_dw(tmp_path / "out", strict=True)) == []


def test_star_self_merge_idempotent():
    dw1, _, _ = generate_pair(preset_basic(seed=31))
    res = merge_stars(dw1, copy.deepcopy(dw1))
    assert res.report.result_kind == "star"
    for t in res.report.tables:
        assert t.n_shared == t.n_left == t.n_right == t.n_merged
    for d in res.schema.dimensions:
        orig = dw1.dimension(d.name)
        assert {h.parameters for h in d.hierarchies} == \
            {h.parameters for h in orig.hierarchies}
        assert d.rows == orig.rows


def test_enrichment_fills_count_once_where_no_input_held_the_cell():
    # Both sides of a const22 self-merge enrich the same 300 customer cells.
    c, _, _ = generate_pair(preset_const22(seed=3))
    res = merge_stars(c, copy.deepcopy(c))
    assert [(e.table, e.attribute, e.n_left, e.n_right, e.n_filled, e.n_merged)
            for e in res.report.completions] == [("customer", "region", None, None, 300, 300)]
    # Each customer row of a that enrichment fills fuses with a row of ab holding region.
    a, b, _ = generate_pair(preset_star4(seed=3))
    res = merge_stars(a, b)
    assert ("customer", 300) in {(e.table, e.n_filled) for e in res.report.completions}
    ab = res.schema
    for s1, s2 in ((ab, a), (a, ab)):
        assert merge_stars(s1, s2).report.completions == []


def test_unmergeable_stars():
    a = make_dimension("a", "X", ("X",), [("H", ("X",))], [("1",)])
    b = make_dimension("b", "Y", ("Y",), [("H", ("Y",))], [("2",)])
    s1 = star_schema("s1", Fact("f1", (), (("a", "X"),), [{"X": "1"}]), (a,))
    s2 = star_schema("s2", Fact("f2", (), (("b", "Y"),), [{"Y": "2"}]), (b,))
    with pytest.raises(UnmergeableError):
        merge_stars(s1, s2)


def record_match_calls(monkeypatch):
    """Record the dimension pair of every match_attributes call merge_stars makes."""
    calls = []

    def recording(d1, d2, matcher):
        calls.append((d1, d2))
        return match_attributes(d1, d2, matcher)

    monkeypatch.setattr(star_merge, "match_attributes", recording)
    return calls


def test_unenriched_pairs_are_matched_once(monkeypatch):
    dw1, dw2, _ = generate_pair(preset_basic(seed=31))
    calls = record_match_calls(monkeypatch)
    merge_stars(dw1, dw2)
    # phase 1 enriches nothing, so phase 2 reuses every correspondence
    assert [(d1.name, d2.name) for d1, d2 in calls] == [
        ("customer", "customer"), ("customer", "product"),
        ("product", "customer"), ("product", "product")]
    inputs = {id(d) for d in dw1.dimensions + dw2.dimensions}
    assert all(id(d1) in inputs and id(d2) in inputs for d1, d2 in calls)


def test_enriched_pairs_are_matched_again(monkeypatch):
    dw1, dw2, _ = generate_pair(preset_star4(seed=11))
    calls = record_match_calls(monkeypatch)
    res = merge_stars(dw1, dw2)
    phase1, phase2 = calls[:16], calls[16:]
    assert len({(d1.name, d2.name) for d1, d2 in phase1}) == 16
    # Enriching customer with supplier (4th pair) gives the left customer
    # region; enriching supplier with customer (13th pair) adds no attribute
    # to either side. Only pairs whose attributes phase 1 changed are matched
    # again: the left customer's, on its enriched replacement.
    assert [(d1.name, d2.name) for d1, d2 in phase2] == [
        ("customer", "customer"), ("customer", "orderdate"), ("customer", "part"),
        ("customer", "supplier")]
    inputs = {id(d) for d in dw1.dimensions + dw2.dimensions}
    assert all(id(d1) not in inputs or id(d2) not in inputs for d1, d2 in phase2)
    assert "region" in res.schema.dimension("customer").attributes


def test_star4_prunes_like_expected():
    dw1, dw2, _ = generate_pair(preset_star4(seed=11))
    res = merge_stars(dw1, dw2)
    pruned = {(p.dimension, p.hierarchy) for p in res.report.pruned}
    # the plain month-year chain dies: every row on it is on the semester chain
    assert ("orderdate", "d_plain") in pruned
    od = res.schema.dimension("orderdate")
    assert {h.parameters for h in od.hierarchies} == {
        ("date_id", "month", "semester", "year")}


def test_no_prune_flag_keeps_everything():
    dw1, dw2, _ = generate_pair(preset_star4(seed=11))
    res = merge_stars(dw1, dw2, settings=MergeSettings(prune=False))
    assert res.report.pruned == []
    od = res.schema.dimension("orderdate")
    assert ("date_id", "month", "year") in {h.parameters for h in od.hierarchies}


def test_divergent_chains_interleave():
    # the split customer hierarchies must merge into the full six-level chain
    dw1, dw2, _ = generate_pair(preset_divergent(seed=2, overlap=1.0))
    res = merge_stars(dw1, dw2)
    cust = res.schema.dimension("customer")
    seqs = {h.parameters for h in cust.hierarchies}
    assert ("customer_id", "city", "department", "region", "country",
            "continent") in seqs
    assert ("customer_id", "profession", "subcategory", "category") in seqs


def test_report_completion_entries_match_manifest():
    dw1, dw2, manifest = generate_pair(preset_star4(seed=11))
    res = merge_stars(dw1, dw2)
    expected = manifest["expectedCompletions"]
    got = {}
    for c in res.report.completions:
        got.setdefault(c.table, {})[c.attribute] = c.n_filled
    for dim_name, attrs in expected.items():
        if attrs:
            assert got.get(dim_name, {}) == attrs
