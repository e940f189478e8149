from functools import lru_cache

import pytest
from hypothesis import given, strategies as st

from dwmerge.errors import UserMapError
from dwmerge.matching import (MatcherConfig, check_user_map, corr_attr_map, edit_distance,
                              match_attributes, match_measures,
                              matched_root_parameters, parse_user_map)
from dwmerge.model import star_schema

from conftest import customer_left, customer_right, fact_from_rows, location_dim, make_dimension


def oracle_distance(a: str, b: str) -> int:
    # independent recursive formulation
    @lru_cache(maxsize=None)
    def go(i, j):
        if i == 0:
            return j
        if j == 0:
            return i
        return min(go(i - 1, j) + 1, go(i, j - 1) + 1,
                   go(i - 1, j - 1) + (a[i - 1] != b[j - 1]))
    return go(len(a), len(b))


def test_exact_matching_worked_example():
    d1 = make_dimension("d1", "Code", ("Code", "Department", "Region", "Continent"),
                        [("H1", ("Code", "Department", "Region", "Continent"))],
                        [("C1", "d", "r", "e")])
    d2 = make_dimension("d2", "Code",
                        ("Code", "City", "Department", "Country", "Continent"),
                        [("H2", ("Code", "City", "Department", "Country", "Continent"))],
                        [("C1", "v", "d", "f", "e")])
    corrs = match_attributes(d1, d2, MatcherConfig())
    assert {(c.left[1], c.right[1]) for c in corrs} == {
        ("Code", "Code"), ("Department", "Department"), ("Continent", "Continent")}
    assert all(c.score == 1.0 and c.source == "exact" for c in corrs)


def test_disjoint_names_no_matches():
    d1 = make_dimension("a", "X", ("X",), [("H", ("X",))], [("1",)])
    d2 = make_dimension("b", "Y", ("Y",), [("H", ("Y",))], [("2",)])
    assert match_attributes(d1, d2, MatcherConfig()) == []


def test_edit_distance_matching():
    assert edit_distance("regionn", "region") == oracle_distance("regionn", "region") == 1
    d1 = make_dimension("a", "Regionn", ("Regionn",), [("H", ("Regionn",))], [("1",)])
    d2 = make_dimension("b", "Region", ("Region",), [("H", ("Region",))], [("2",)])
    assert match_attributes(d1, d2, MatcherConfig()) == []
    corrs = match_attributes(d1, d2, MatcherConfig(1))
    assert [(c.left[1], c.right[1], c.source) for c in corrs] == [
        ("Regionn", "Region", "edit-distance")]


@given(st.text(alphabet="abcd", max_size=6), st.text(alphabet="abcd", max_size=6))
def test_edit_distance_against_oracle(a, b):
    assert edit_distance(a, b) == oracle_distance(a, b)


def test_matching_symmetry_and_determinism():
    d1, d2 = customer_left(), customer_right()
    cfg = MatcherConfig(2)
    forward = match_attributes(d1, d2, cfg)
    backward = match_attributes(d2, d1, cfg)
    assert {(c.left[1], c.right[1]) for c in forward} == \
        {(c.right[1], c.left[1]) for c in backward}
    assert forward == match_attributes(d1, d2, cfg)


def test_match_measures_and_user_map_forbid():
    f1 = fact_from_rows("sales", ("Quantity", "Price"), (), [])
    f2 = fact_from_rows("sales", ("Quantity", "Tax"), (), [])
    corrs = match_measures(f1, f2, MatcherConfig())
    assert [(c.left[1], c.right[1]) for c in corrs] == [("Quantity", "Quantity")]

    umap = parse_user_map("forbid sales.Quantity sales.Quantity\n")
    assert match_measures(f1, f2, MatcherConfig(user_map=umap)) == []

    identical = fact_from_rows("f", ("A", "B"), (), [])
    full = match_measures(identical, identical, MatcherConfig())
    assert {(c.left[1], c.right[1]) for c in full} == {("A", "A"), ("B", "B")}


def test_user_map_pair_overrides_and_unknown_attr():
    d1 = make_dimension("customer", "Code", ("Code", "Zone"),
                        [("H", ("Code", "Zone"))], [("C1", "z")])
    d2 = make_dimension("customer", "Code", ("Code", "Area"),
                        [("H", ("Code", "Area"))], [("C1", "a")])
    umap = parse_user_map("pair customer.Zone customer.Area\n")
    corrs = match_attributes(d1, d2, MatcherConfig(user_map=umap))
    assert ("Zone", "Area") in {(c.left[1], c.right[1]) for c in corrs}
    assert any(c.source == "user-map" for c in corrs)

    s1, s2 = (star_schema("s", fact_from_rows("sales", (), (("customer", "Code"),)), (d,))
              for d in (d1, d2))
    # The matchers refuse such a pair themselves, for a call that skips check_user_map.
    f1 = fact_from_rows("customer", ("Zone",), (), [])
    f2 = fact_from_rows("customer", ("Area",), (), [])
    for entry in ("pair customer.Nope customer.Area", "pair customer.Zone customer.Nope"):
        bad = parse_user_map(f"# forced\n{entry}\n")
        message = "line 2: customer.Nope names an unknown attribute"
        for check in (lambda: check_user_map(bad, s1, s2),
                      lambda: match_attributes(d1, d2, MatcherConfig(user_map=bad)),
                      lambda: match_measures(f1, f2, MatcherConfig(user_map=bad))):
            with pytest.raises(UserMapError, match=message):
                check()
    twice = parse_user_map("pair customer.Zone customer.Area\npair customer.Zone customer.Code\n")
    with pytest.raises(UserMapError, match="pairs customer.Zone / customer.Code more than once"):
        match_attributes(d1, d2, MatcherConfig(user_map=twice))


def test_user_map_parse_errors():
    with pytest.raises(UserMapError, match="line"):
        parse_user_map("pair only.two\n", source="line")
    with pytest.raises(UserMapError):
        parse_user_map("link a.b c.d\n")
    with pytest.raises(UserMapError, match="map:2: 'ab' is not of the form table.attribute"):
        parse_user_map("# a comment\npair ab c.d\n", source="map")


def test_matched_root_parameters():
    d1, d2 = customer_left(), customer_right()
    corrs = match_attributes(d1, d2, MatcherConfig())
    assert matched_root_parameters(d1, d2, corrs)

    loc = location_dim()
    corrs2 = match_attributes(d1, loc, MatcherConfig())
    assert corr_attr_map(corrs2) == {"Department": "Department",
                                     "Continent": "Continent"}
    assert not matched_root_parameters(d1, loc, corrs2)
    assert not matched_root_parameters(d1, d2, [])


def test_matcher_config_invariant():
    with pytest.raises(ValueError, match=">= 0"):
        MatcherConfig(-1)
