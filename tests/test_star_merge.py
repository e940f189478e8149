import copy
from decimal import Decimal

import pytest

from dwmerge.config import MergeSettings
from dwmerge.dimension_merge import merge_dimensions
from dwmerge.errors import MergeError, UnmergeableError
from dwmerge.generator import (generate_pair, preset_basic, preset_const22,
                               preset_divergent, preset_star4)
from dwmerge.matching import MatcherConfig, match_attributes
from dwmerge.model import Constellation, Fact, StarSchema
from dwmerge.star_merge import merge_facts, merge_stars, prune_hierarchies

from conftest import (H13_PARAMS, H24_PARAMS, customer_left, customer_right,
                      make_dimension)


def merged_customer_dim(include_stub=False):
    d1 = customer_left()
    d2 = customer_right(include_stub)
    corrs = match_attributes(d1, d2, MatcherConfig())
    return merge_dimensions(d1, d2, corrs)


def original_seqs():
    return ({h.parameters for h in customer_left().hierarchies}
            | {h.parameters for h in customer_right().hierarchies})


# ---------------------------------------------------------------------------
# pruning
# ---------------------------------------------------------------------------

def test_prune_subsumed_original():
    res = merged_customer_dim()
    merged_seqs = {h.parameters for h in res.merged_only}
    pruned, removed = prune_hierarchies(res.dimension, original_seqs(), merged_seqs)
    gone = {(h.parameters, reason) for h, reason in removed}
    # every H4-conforming row also conforms to the merged superset
    assert (("Code", "Profession", "Subcategory"), "subsumedByMerged") in gone
    # H1 survives: C02..C04 are on H1 but carry no City
    survivors = {h.parameters for h in pruned.hierarchies}
    assert ("Code", "Department", "Region", "Continent") in survivors
    assert H13_PARAMS in survivors and H24_PARAMS in survivors


def test_prune_retains_uniquely_covering_original():
    res = merged_customer_dim(include_stub=True)
    merged_seqs = {h.parameters for h in res.merged_only}
    pruned, removed = prune_hierarchies(res.dimension, original_seqs(), merged_seqs)
    survivors = {h.parameters for h in pruned.hierarchies}
    # the stub row is on H4 but not on the merged superset, so H4 stays
    assert ("Code", "Profession", "Subcategory") in survivors
    assert res.dimension.rows["C13"]["Category"] is None


def test_prune_removes_dead_hierarchy():
    dim = make_dimension("d", "K", ("K", "A"), [("H", ("K", "A"))],
                         [("k1", None), ("k2", None)])
    pruned, removed = prune_hierarchies(dim, {("K", "A")}, set())
    assert [(h.name, reason) for h, reason in removed] == [("H", "noConformingInstance")]
    assert pruned.hierarchies == ()


def test_prune_keeps_single_conforming():
    dim = make_dimension("d", "K", ("K", "A"), [("H", ("K", "A"))], [("k1", "a")])
    pruned, removed = prune_hierarchies(dim, {("K", "A")}, set())
    assert removed == [] and len(pruned.hierarchies) == 1


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


def test_merge_facts_misalignment_error():
    f1 = small_fact("sales", [])
    f2 = Fact("sales", ("Quantity",), (("supplier", "Sid"),), [], frozenset())
    with pytest.raises(MergeError, match="misalignment"):
        merge_facts(f1, f2, [], {})


# ---------------------------------------------------------------------------
# merge_stars
# ---------------------------------------------------------------------------

def test_star_output_shape():
    dw1, dw2, _ = generate_pair(preset_star4(seed=5))
    res = merge_stars(dw1, dw2)
    assert isinstance(res.schema, StarSchema)
    assert res.report.result_kind == "star"
    fact_count = next(t for t in res.report.tables if t.kind == "fact")
    assert fact_count.n_merged == fact_count.n_left + fact_count.n_right - fact_count.n_shared
    # cross-dimension enrichment carried region onto customer
    assert "region" in res.schema.dimension("customer").attributes


def test_constellation_output_shape():
    dw1, dw2, _ = generate_pair(preset_const22(seed=5))
    res = merge_stars(dw1, dw2)
    assert isinstance(res.schema, Constellation)
    assert res.report.result_kind == "constellation"
    facts = {f.name: f for f in res.schema.facts}
    assert facts["sales_parts"].rows == dw1.fact.rows
    assert facts["sales_dates"].rows == dw2.fact.rows
    assert set(res.schema.star["sales_parts"]) == {"customer", "supplier", "part"}
    assert set(res.schema.star["sales_dates"]) == {"customer", "supplier", "orderdate"}


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


def test_unmergeable_stars():
    a = make_dimension("a", "X", ("X",), [("H", ("X",))], [("1",)])
    b = make_dimension("b", "Y", ("Y",), [("H", ("Y",))], [("2",)])
    s1 = StarSchema("s1", Fact("f1", (), (("a", "X"),), [{"X": "1"}]), (a,))
    s2 = StarSchema("s2", Fact("f2", (), (("b", "Y"),), [{"Y": "2"}]), (b,))
    with pytest.raises(UnmergeableError):
        merge_stars(s1, s2)


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
