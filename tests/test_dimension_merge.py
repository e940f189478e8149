from decimal import Decimal

import pytest

from dwmerge.config import MergeSettings
from dwmerge.dimension_merge import _complete_rows, merge_dimensions, merge_instances
from dwmerge.errors import ConflictError, MergeError
from dwmerge.matching import MatcherConfig, match_attributes, match_measures
from dwmerge.model import Dimension, Fact, Hierarchy
from dwmerge.star_merge import merge_facts

from conftest import (H13_PARAMS, H24_PARAMS, customer_left, customer_right,
                      make_dimension)


def merged_customer(include_stub=False, settings=MergeSettings()):
    d1 = customer_left()
    d2 = customer_right(include_stub)
    corrs = match_attributes(d1, d2, MatcherConfig())
    return merge_dimensions(d1, d2, corrs, settings)


# ---------------------------------------------------------------------------
# schema merging
# ---------------------------------------------------------------------------

def test_matched_roots_schema(d_left, d_right):
    res = merged_customer()
    dim = res.dimension
    assert res.matched
    assert set(dim.attributes) == {"Code", "City", "Department", "Region", "Country",
                                   "Continent", "Profession", "Subcategory", "Category"}
    seqs = {h.parameters for h in dim.hierarchies}
    assert seqs == {d_left.hierarchy("H1").parameters,
                    d_left.hierarchy("H2").parameters,
                    d_right.hierarchy("H3").parameters,
                    d_right.hierarchy("H4").parameters,
                    H13_PARAMS, H24_PARAMS}
    # no two hierarchies share a parameter sequence
    assert len(seqs) == len(dim.hierarchies)
    # merged-only set per the definition: produced chains, originals excluded
    assert {h.parameters for h in res.merged_only} >= {H13_PARAMS, H24_PARAMS}


def test_unmatched_roots_schema(d_left, d_location):
    corrs = match_attributes(d_left, d_location, MatcherConfig())
    res = merge_dimensions(d_left, d_location, corrs)
    assert not res.matched
    left, right = res.left, res.right
    assert {h.parameters for h in left.hierarchies} == {
        ("Code", "Department", "Region", "Continent"),
        ("Code", "Profession", "Category"),
        ("Code", "Department", "Region", "Country", "Continent")}
    assert {h.parameters for h in right.hierarchies} == {
        ("City", "Department", "Country", "Continent"),
        ("City", "Department", "Region", "Country", "Continent")}
    assert set(right.attributes) == {"City", "Department", "Region", "Country",
                                     "Continent"}
    assert set(left.attributes) == {"Code", "Department", "Region", "Country",
                                    "Continent", "Profession", "Category"}
    # cross-completion pulled donor values both ways
    assert left.rows["C01"]["Country"] == "france"
    assert right.rows["city_5"]["Region"] == "reg_3"


def test_self_merge_is_idempotent(d_left):
    copy = customer_left()
    corrs = match_attributes(d_left, copy, MatcherConfig())
    res = merge_dimensions(d_left, copy, corrs)
    dim = res.dimension
    assert {h.parameters for h in dim.hierarchies} == \
        {h.parameters for h in d_left.hierarchies}
    assert dim.attributes == d_left.attributes
    assert dim.rows == d_left.rows


def test_unrelated_dimensions_error(d_left):
    other = make_dimension("x", "K", ("K",), [("H", ("K",))], [("1",)])
    with pytest.raises(MergeError, match="unrelated"):
        merge_dimensions(d_left, other, [])


# ---------------------------------------------------------------------------
# instance merging
# ---------------------------------------------------------------------------

def test_tuple_count_law(d_left, d_right):
    res = merged_customer()
    shared = set(d_left.rows) & set(d_right.rows)
    assert res.shared_keys == len(shared) == 7
    assert len(res.dimension.rows) == len(d_left.rows) + len(d_right.rows) - len(shared)


def test_value_preservation(d_left, d_right):
    res = merged_customer()
    dim = res.dimension
    overwritten = {(c.row_key, c.attribute) for c in res.conflict_log}
    for key, row in d_left.rows.items():
        for attr, value in row.items():
            if value is not None and (key, attr) not in overwritten:
                assert dim.rows[key][attr] == value
    for key, row in d_right.rows.items():
        for attr, value in row.items():
            if value is not None and (key, attr) not in overwritten:
                assert dim.rows[key][attr] == value


def test_disjoint_keys_concatenate():
    a = make_dimension("d", "K", ("K", "X"), [("H", ("K", "X"))],
                       [("k1", "x1"), ("k2", "x2")])
    b = make_dimension("d", "K", ("K", "Y"), [("H", ("K", "Y"))],
                       [("k3", "y3")])
    rows, conflicts = merge_instances(a, b, {"K": "K", "Y": "Y"},
                                      ("K", "X", "Y"))
    assert conflicts == []
    assert rows["k1"] == {"K": "k1", "X": "x1", "Y": None}
    assert rows["k3"] == {"K": "k3", "X": None, "Y": "y3"}


def conflict_pair():
    a = make_dimension("d", "K", ("K", "X"), [("H", ("K", "X"))], [("k1", "left")])
    b = make_dimension("d", "K", ("K", "X"), [("H", ("K", "X"))], [("k1", "right")])
    return a, b


def merge_conflicting_facts(policy):
    keys = (("c", "cid"), ("p", "pid"))
    f1, f2 = (Fact("sales", ("price",), keys,
                   [{"cid": "c1", "pid": "p1", "price": Decimal(price)}], frozenset({"price"}))
              for price in (1, 2))
    return merge_facts(f1, f2, match_measures(f1, f2, MatcherConfig()),
                       {"c": "c", "p": "p"}, MergeSettings(conflict=policy))


@pytest.mark.parametrize("policy,expected", [("left", "left"), ("right", "right")])
def test_conflict_policy(policy, expected):
    a, b = conflict_pair()
    rows, conflicts = merge_instances(a, b, {"K": "K", "X": "X"}, ("K", "X"), policy)
    assert rows["k1"]["X"] == expected
    assert [(c.row_key, c.attribute, c.left, c.right, c.chosen) for c in conflicts] == [
        ("k1", "X", "left", "right", expected)]

    fact, conflicts, n_common = merge_conflicting_facts(policy)
    price = Decimal(1) if policy == "left" else Decimal(2)
    assert n_common == 1
    assert fact.rows == [{"cid": "c1", "pid": "p1", "price": price}]
    assert [(c.row_key, c.attribute, c.left, c.right, c.chosen) for c in conflicts] == [
        ("(c1, p1)", "price", Decimal(1), Decimal(2), price)]


def test_conflict_policy_error():
    a, b = conflict_pair()
    with pytest.raises(ConflictError):
        merge_instances(a, b, {"K": "K", "X": "X"}, ("K", "X"), "error")
    with pytest.raises(ConflictError, match="price"):
        merge_conflicting_facts("error")


# ---------------------------------------------------------------------------
# empty-value completion
# ---------------------------------------------------------------------------

def test_completion_worked_example():
    res = merged_customer()
    dim = res.dimension
    # C09's Region comes from C07, which shares its Department
    assert dim.rows["C09"]["Region"] == "reg_2"
    fill = next(f for f in res.completion_log
                if f.row_key == "C09" and f.attribute == "Region")
    assert fill.donor_key == "C07" and fill.value == "reg_2" and not fill.ambiguous
    # C03 misses City, so neither City nor Country may be completed
    assert dim.rows["C03"]["City"] is None
    assert dim.rows["C03"]["Country"] is None
    # the analogous fills on the other hierarchy
    assert dim.rows["C08"]["Region"] == "reg_1"
    assert dim.rows["C08"]["Category"] == "cat_a"
    assert dim.rows["C09"]["Category"] == "cat_b"
    assert dim.rows["C02"]["Subcategory"] == "sub_a"


def test_completion_count_law(d_left, d_right):
    res = merged_customer()
    dim = res.dimension
    by_attr = {}
    for f in res.completion_log:
        by_attr[f.attribute] = by_attr.get(f.attribute, 0) + 1
    for attr, (n1_attr, n2_attr) in (("Region", ("Region", None)),
                                     ("Subcategory", (None, "Subcategory")),
                                     ("Category", ("Category", None))):
        n1 = sum(1 for r in d_left.rows.values()
                 if n1_attr and r.get(n1_attr) is not None)
        n2 = sum(1 for r in d_right.rows.values()
                 if n2_attr and r.get(n2_attr) is not None)
        merged_nonnull = sum(1 for r in dim.rows.values() if r[attr] is not None)
        assert merged_nonnull == n1 + n2 + by_attr.get(attr, 0), attr


def test_completion_never_overwrites(d_left, d_right):
    res = merged_customer()
    for f in res.completion_log:
        left_val = d_left.rows.get(f.row_key, {}).get(f.attribute)
        right_val = d_right.rows.get(f.row_key, {}).get(f.attribute)
        assert left_val is None and right_val is None


def complete_in_place(dim, merged):
    """Complete ``dim`` from its own rows, as a matched-root merge does."""
    return _complete_rows(dim.rows, merged, dim.rows, {a: a for a in dim.attributes},
                          donor_is_target=True)


def test_completion_fixpoint():
    res = merged_customer()
    dim = res.dimension
    before = {k: dict(r) for k, r in dim.rows.items()}
    assert complete_in_place(dim, res.merged_only) == []
    assert dim.rows == before


def test_no_nulls_no_fills():
    a = make_dimension("d", "K", ("K", "X"), [("H", ("K", "X"))], [("k1", "x")])
    before = {k: dict(r) for k, r in a.rows.items()}
    assert complete_in_place(a, [Hierarchy("m", ("K", "X"))]) == []
    assert a.rows == before


def test_ambiguous_donor_first_key_wins():
    rows = {
        "k1": {"K": "k1", "A": "shared", "B": None},
        "k2": {"K": "k2", "A": "shared", "B": "b2"},
        "k3": {"K": "k3", "A": "shared", "B": "b3"},
    }
    dim = Dimension("d", "K", ("K", "A", "B"),
                    (Hierarchy("H", ("K", "A")),), rows)
    log = complete_in_place(dim, [Hierarchy("m", ("K", "A", "B"))])
    assert dim.rows["k1"]["B"] == "b2"
    assert log[0].donor_key == "k2" and log[0].ambiguous
