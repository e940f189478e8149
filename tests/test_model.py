import random
from decimal import Decimal

import pytest
from hypothesis import given, strategies as st

from dwmerge.errors import SchemaMismatchError
from dwmerge.model import (Dimension, Fact, Hierarchy, StarSchema, cells_equal,
                           conforms, normalize_name, validate)

from conftest import customer_left, make_dimension


def two_dim_star():
    customer = customer_left()
    product = make_dimension(
        "product", "Pid", ("Pid", "Brand"),
        [("PH", ("Pid", "Brand"))],
        [("P1", "brand_x"), ("P2", "brand_y")])
    fact = Fact("sales", ("Quantity",),
                (("customer", "Code"), ("product", "Pid")),
                [{"Code": "C01", "Pid": "P1", "Quantity": Decimal(3)},
                 {"Code": "C05", "Pid": "P2", "Quantity": Decimal(1)}],
                frozenset({"Quantity"}))
    return StarSchema("shop", fact, (customer, product))


def test_normalize_name():
    assert normalize_name("Order Date") == normalize_name("ORDER_DATE") == "orderdate"
    assert normalize_name("c-k") == "ck"


def test_cells_equal_null_semantics():
    assert not cells_equal(None, None)
    assert not cells_equal(None, "x")
    assert cells_equal("a", "a")
    assert cells_equal(Decimal("1.10"), Decimal("1.1"))
    assert not cells_equal("1", Decimal(1))


def test_validate_well_formed():
    assert validate(two_dim_star()) == []


def test_validate_duplicate_root_and_dangling_key():
    schema = two_dim_star()
    customer = schema.dimension("customer")
    # force a key/attribute inconsistency
    customer.rows["C01"]["Code"] = "C99"
    violations = validate(schema)
    assert any(v.rule == "root-key-consistent" for v in violations)

    schema2 = two_dim_star()
    schema2.fact.rows.append({"Code": "C99", "Pid": "P1", "Quantity": Decimal(2)})
    violations = validate(schema2)
    assert [v.rule for v in violations] == ["fact-key-exists"]
    assert "C99" in violations[0].message


def test_validate_reports_missing_key_column():
    schema = two_dim_star()
    schema.fact.rows.append({"Code": "C01", "Quantity": Decimal(2)})
    violations = validate(schema)
    assert [(v.rule, v.locus) for v in violations] == [("fact-key-exists", "row 2")]
    assert "Pid=''" in violations[0].message


def test_validate_hierarchy_rules():
    dim = make_dimension("d", "Id", ("Id", "A"), [("H", ("Id", "A"))], [("k1", "x")])
    bad = Dimension("d", "Id", ("Id", "A"),
                    (Hierarchy("H", ("A", "Id")),), dim.rows)
    star = StarSchema("s", Fact("f", (), (("d", "Id"),), [{"Id": "k1"}]), (bad,))
    rules = {v.rule for v in validate(star)}
    assert "hierarchy-root" in rules
    # Pruning keys hierarchies by name, so a repeated name would drop a live one.
    twice = Dimension("d", "Id", ("Id", "A", "B"),
                      (Hierarchy("H", ("Id", "A")), Hierarchy("H", ("Id", "B"))), dim.rows)
    star = StarSchema("s", Fact("f", (), (("d", "Id"),), [{"Id": "k1"}]), (twice,))
    assert [v.rule for v in validate(star)] == ["hierarchy-name-unique"]


def test_validate_order_independent():
    schema = two_dim_star()
    base = {(v.table, v.rule) for v in validate(schema)}
    rng = random.Random(5)
    rows = list(schema.fact.rows)
    rng.shuffle(rows)
    schema.fact.rows[:] = rows
    assert {(v.table, v.rule) for v in validate(schema)} == base


def test_conforms_basic():
    h13 = Hierarchy("H13", ("Code", "City", "Department"))
    row = {"Code": "C1", "City": "city_1", "Department": "dept_a"}
    assert conforms(row, h13)
    assert not conforms({**row, "City": None}, h13)
    assert conforms({"Code": "C1"}, Hierarchy("root", ("Code",)))


def test_conforms_unknown_parameter():
    with pytest.raises(SchemaMismatchError):
        conforms({"Code": "C1"}, Hierarchy("H", ("Code", "Missing")))


@given(st.lists(st.sampled_from(["Code", "City", "Department", "Region"]),
                min_size=1, max_size=4, unique=True),
       st.dictionaries(st.sampled_from(["Code", "City", "Department", "Region"]),
                       st.one_of(st.none(), st.text(min_size=1, max_size=3)),
                       min_size=4, max_size=4))
def test_conforms_subset_property(params, row):
    # conforming to a hierarchy implies conforming to any one built from a
    # subset of its parameters
    big = Hierarchy("big", tuple(params))
    if conforms(row, big):
        for k in range(1, len(params) + 1):
            assert conforms(row, Hierarchy("small", tuple(params[:k])))


def test_hierarchy_invariants():
    with pytest.raises(ValueError):
        Hierarchy("bad", ())
    with pytest.raises(ValueError):
        Hierarchy("bad", ("A", "A"))
