"""Merging when the two warehouses spell attributes differently.

These paths exercise the name-unification machinery: matched attributes
take the left spelling everywhere (hierarchies, instances, report), gained
attributes keep the donor spelling unless it collides, and numeric ids
stay numeric through fusion and emission.
"""

from decimal import Decimal

from dwmerge import io
from dwmerge.dimension_merge import merge_dimensions
from dwmerge.matching import MatcherConfig, match_attributes, parse_user_map
from dwmerge.model import Hierarchy, star_schema, validate
from dwmerge.star_merge import merge_stars

from conftest import dimension_from_rows, fact_from_rows, make_dimension, rows_of


def left_dim():
    return make_dimension(
        "kunden", "Code", ("Code", "Dept", "Land"),
        [("geo", ("Code", "Dept", "Land"))],
        [("C1", "d_a", "fr"), ("C2", "d_b", "fr"), ("C3", "d_c", "us")])


def right_dim():
    return make_dimension(
        "customer", "Kode", ("Kode", "Stadt", "Departement", "Land"),
        [("geo2", ("Kode", "Stadt", "Departement", "Land"))],
        [("C1", "s_1", "d_a", "fr"), ("C2", "s_2", "d_b", "fr"),
         ("C4", "s_4", "d_c", "us")])


def cross_map():
    return parse_user_map(
        "pair kunden.Code customer.Kode\n"
        "pair kunden.Dept customer.Departement\n")


def test_user_map_unifies_under_left_names():
    d1, d2 = left_dim(), right_dim()
    corrs = match_attributes(d1, d2, MatcherConfig(user_map=cross_map()))
    res = merge_dimensions(d1, d2, corrs)
    dim = res.dimension
    # matched attributes keep the left spelling, gained one keeps its own
    assert set(dim.attributes) == {"Code", "Dept", "Land", "Stadt"}
    seqs = {h.parameters for h in dim.hierarchies}
    assert ("Code", "Stadt", "Dept", "Land") in seqs  # right original, renamed
    assert ("Code", "Dept", "Land") in seqs
    # fused rows carry the right side's values under left names
    assert rows_of(dim)["C1"] == {"Code": "C1", "Dept": "d_a", "Land": "fr",
                              "Stadt": "s_1"}
    assert rows_of(dim)["C4"]["Dept"] == "d_c"
    # C3 exists only on the left: Stadt is the second-lowest level, stays null
    assert rows_of(dim)["C3"]["Stadt"] is None
    assert res.shared_keys == 2
    assert len(dim.rows) == 3 + 3 - 2


def test_unmatched_same_name_attribute_is_renamed():
    d1 = make_dimension("a", "K", ("K", "Extra"), [("H", ("K", "Extra"))],
                        [("k1", "x")])
    d2 = make_dimension("b", "K", ("K", "Extra"), [("H2", ("K", "Extra"))],
                        [("k1", "y")])
    umap = parse_user_map("forbid a.Extra b.Extra\n")
    corrs = match_attributes(d1, d2, MatcherConfig(user_map=umap))
    res = merge_dimensions(d1, d2, corrs)
    dim = res.dimension
    assert set(dim.attributes) == {"K", "Extra", "b_Extra"}
    assert rows_of(dim)["k1"]["Extra"] == "x"
    assert rows_of(dim)["k1"]["b_Extra"] == "y"


def numeric_star(name, codes):
    dim = dimension_from_rows(
        "customer", "cid", ("cid", "grp"),
        (Hierarchy("h", ("cid", "grp")),),
        {Decimal(c): {"cid": Decimal(c), "grp": f"g{c % 2}"} for c in codes},
        frozenset({"cid"}))
    fact = fact_from_rows("sales", ("amount",), (("customer", "cid"),),
                          [{"cid": Decimal(c), "amount": Decimal(c) * 10} for c in codes],
                          frozenset({"amount", "cid"}))
    return star_schema(name, fact, (dim,))


def test_numeric_root_keys_merge_and_round_trip(tmp_path):
    s1 = numeric_star("n1", [1, 2, 10])
    s2 = numeric_star("n2", [2, 3])
    assert validate(s1) == []
    result = merge_stars(s1, s2)
    dim = result.schema.dimension("customer")
    assert set(rows_of(dim)) == {Decimal(1), Decimal(2), Decimal(3), Decimal(10)}
    out = tmp_path / "dw"
    io.write_dw(result.schema, out)
    # numeric sort: 1, 2, 3, 10 (not lexicographic)
    lines = (out / "customer.csv").read_text().splitlines()
    assert [l.split(",")[0] for l in lines[1:]] == ["1", "2", "3", "10"]
    reloaded = io.load_dw(out)
    assert validate(reloaded) == []
    assert rows_of(reloaded.dimension("customer")) == rows_of(dim)


def test_cross_named_star_merge_via_user_map(tmp_path):
    d1, d2 = left_dim(), right_dim()
    f1 = fact_from_rows("sales", ("qty",), (("kunden", "Code"),),
                        [{"Code": "C1", "qty": Decimal(4)}], frozenset({"qty"}))
    f2 = fact_from_rows("sales", ("qty",), (("customer", "Kode"),),
                        [{"Kode": "C4", "qty": Decimal(6)}], frozenset({"qty"}))
    s1 = star_schema("s1", f1, (d1,))
    s2 = star_schema("s2", f2, (d2,))
    result = merge_stars(s1, s2, MatcherConfig(user_map=cross_map()))
    assert result.report.result_kind == "star"
    fact = result.schema.fact
    assert fact.key_columns() == ("Code",)
    assert {r["Code"] for r in rows_of(fact)} == {"C1", "C4"}
    assert validate(result.schema) == []


def test_unpaired_same_name_attribute_never_donates_to_its_namesake():
    # Roots differ, so each side is enriched with the other's Zone. The user
    # map says the two Zones are different attributes: completion may copy
    # b.Zone into a's gained b_Zone, but never into a's own Zone.
    d1 = make_dimension("a", "Shop", ("Shop", "Town", "Zone"),
                        [("geo", ("Shop", "Town", "Zone"))],
                        [("s1", "t1", "lz1"), ("s2", "t2", "lz1"), ("s3", "t3", "lz2"),
                         ("s4", "t2", None)])
    d2 = make_dimension("b", "Depot", ("Depot", "Town", "Zone"),
                        [("geo", ("Depot", "Town", "Zone"))],
                        [("d1", "t1", "rz1"), ("d2", "t2", "rz2"), ("d3", "t3", "rz2"),
                         ("d4", "t3", None)])
    umap = parse_user_map("forbid a.Zone b.Zone\n")
    corrs = match_attributes(d1, d2, MatcherConfig(user_map=umap))
    assert [(c.left[1], c.right[1]) for c in corrs] == [("Town", "Town")]
    res = merge_dimensions(d1, d2, corrs)
    assert not res.matched
    assert res.left.attributes == ("Shop", "Town", "Zone", "b_Zone")
    assert res.right.attributes == ("Depot", "Town", "Zone", "a_Zone")
    own = {("l", "Zone"): "lz", ("l", "b_Zone"): "rz",
           ("r", "Zone"): "rz", ("r", "a_Zone"): "lz"}
    logs = {"l": res.completion_log_left, "r": res.completion_log_right}
    for side, log in logs.items():
        for f in log:
            assert f.value.startswith(own[(side, f.attribute)]), f
    assert rows_of(res.left)["s4"]["Zone"] is None
    assert rows_of(res.left)["s4"]["b_Zone"] == "rz2"
    assert rows_of(res.right)["d4"]["a_Zone"] == "lz2"
