import random
import re
from decimal import Decimal

import pytest

from dwmerge import io
from dwmerge.errors import LoadError
from dwmerge.model import (Dimension, Fact, Hierarchy, Schema, Violation, _validate_dimension,
                           cell_sort_key, cell_to_text, cells_equal, dimension_faults, key_order,
                           normalize_name, star_schema, validate)

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
    return star_schema("shop", fact, (customer, product))


def with_fact_rows(schema, rows, keep=True):
    """``schema`` with its fact's rows followed by ``rows``, or ``rows`` alone."""
    f = schema.fact
    schema.facts = (Fact(f.name, f.measures, f.dimension_keys,
                         [*f.rows, *rows] if keep else rows, f.numeric),)
    return schema


def test_normalize_name():
    assert normalize_name("Order Date") == normalize_name("ORDER_DATE") == "orderdate"
    assert normalize_name("c-k") == "ck"


def test_cells_equal_null_semantics():
    assert not cells_equal(None, None)
    assert not cells_equal(None, "x")
    assert cells_equal("a", "a")
    assert cells_equal(Decimal("1.10"), Decimal("1.1"))
    assert not cells_equal("1", Decimal(1))


def test_cells_equal_across_int_and_decimal():
    # The loader gives an int where the text spells one, a Decimal elsewhere.
    assert cells_equal(5, Decimal("5.0"))
    assert cells_equal(Decimal("-0"), 0)
    assert not cells_equal(5, "5")
    assert not cells_equal("5", 5)
    assert not cells_equal(5, Decimal("5.1"))


def test_key_order_sorts_mixed_int_and_decimal_by_value_stably():
    cells = [Decimal("2.5"), 10, Decimal("1.0"), -3, 1, Decimal("1E+1"), Decimal("-0"), 0,
             Decimal("1")]
    order = key_order([cells], len(cells))
    assert [cells[i] for i in order] == sorted(cells)
    # Equal values keep their input order: 1.0 before 1 before Decimal 1, 10 before 1E+1.
    assert order == [3, 6, 7, 2, 4, 8, 0, 1, 5]


def test_validate_takes_int_but_not_bool_in_a_numeric_column():
    assert validate(one_row_star("f", "Amount", 7)) == []
    assert validate(one_row_star("d", "Number", -12)) == []
    faults = validate(one_row_star("f", "Amount", True))
    assert [(v.table, v.locus, v.rule) for v in faults] == [("f", "Amount", "cell-reloads")]
    assert faults[0].message == ("row 0: True would not reload as itself; the column holds "
                                 "ints, Decimals that are not NaN, or nulls")
    assert [v.rule for v in validate(one_row_star("d", "Text", 7))] == ["cell-reloads"]


def test_validate_well_formed():
    assert validate(two_dim_star()) == []


def test_validate_duplicate_root_and_dangling_key():
    schema = two_dim_star()
    customer = schema.dimension("customer")
    # A key unlike its root cell, and a repeated id, cannot be stored.
    rows = dict(customer.rows.items())
    rows["C01"]["Code"] = "C99"
    with pytest.raises(ValueError, match="row key 'C01' differs from its root cell 'C99'"):
        Dimension(customer.name, customer.root, customer.attributes, customer.hierarchies, rows)
    twice = [col + col[:1] for col in customer.columns]
    with pytest.raises(ValueError, match="repeats an id"):
        Dimension.from_columns(customer.name, customer.root, customer.attributes,
                               customer.hierarchies, twice)

    schema2 = with_fact_rows(two_dim_star(),
                             [{"Code": "C99", "Pid": "P1", "Quantity": Decimal(2)}])
    violations = validate(schema2)
    assert [v.rule for v in violations] == ["fact-key-exists"]
    assert "C99" in violations[0].message


def test_validate_reports_missing_key_column():
    schema = with_fact_rows(two_dim_star(), [{"Code": "C01", "Quantity": Decimal(2)}])
    violations = validate(schema)
    assert [(v.rule, v.locus) for v in violations] == [("fact-key-exists", "row 2")]
    assert "Pid=''" in violations[0].message


def test_validate_hierarchy_rules():
    dim = make_dimension("d", "Id", ("Id", "A"), [("H", ("Id", "A"))], [("k1", "x")])
    bad = Dimension("d", "Id", ("Id", "A"),
                    (Hierarchy("H", ("A", "Id")),), dim.rows)
    star = star_schema("s", Fact("f", (), (("d", "Id"),), [{"Id": "k1"}]), (bad,))
    rules = {v.rule for v in validate(star)}
    assert "hierarchy-root" in rules
    # Pruning keys hierarchies by name, so a repeated name would drop a live one.
    twice = Dimension("d", "Id", ("Id", "A", "B"),
                      (Hierarchy("H", ("Id", "A")), Hierarchy("H", ("Id", "B"))), dim.rows)
    star = star_schema("s", Fact("f", (), (("d", "Id"),), [{"Id": "k1"}]), (twice,))
    assert [v.rule for v in validate(star)] == ["hierarchy-name-unique"]


def test_validate_order_independent():
    schema = two_dim_star()
    base = {(v.table, v.rule) for v in validate(schema)}
    rng = random.Random(5)
    rows = list(schema.fact.rows)
    rng.shuffle(rows)
    schema = with_fact_rows(schema, rows, keep=False)
    assert {(v.table, v.rule) for v in validate(schema)} == base


def test_fact_rows_is_a_read_only_view_of_the_columns():
    rows = [{"Code": "C01", "Pid": "P1", "Quantity": Decimal(3)},
            {"Code": "C05", "Pid": "P2", "Quantity": None}]
    fact = Fact("sales", ("Quantity",), (("customer", "Code"), ("product", "Pid")), rows,
                frozenset({"Quantity"}))
    assert fact.columns == (["C01", "C05"], ["P1", "P2"], [Decimal(3), None])
    view = fact.rows
    assert view == rows and rows == view and view == fact.rows and view != rows[:1]
    assert len(view) == 2 and repr(view) == repr(rows)
    assert view[1] == rows[1] and view[-1] == rows[-1] and view[:1] == rows[:1]
    with pytest.raises(AttributeError):
        view.append(rows[0])
    with pytest.raises(TypeError):
        view[0] = rows[0]
    with pytest.raises(TypeError):
        del view[0]
    view[0]["Code"] = "C99"  # a row dict is built as it is read
    assert fact.rows == rows
    # a cell a row lacks reads as null
    assert Fact("f", ("q",), (("d", "K"),), [{"K": "k"}]).rows == [{"K": "k", "q": None}]


def test_validate_names_the_rules_the_loader_applies(tmp_path):
    def dim(name, numeric=frozenset()):
        d = make_dimension(name, "Id", ("Id",), [("H", ("Id",))], [("k1",)])
        return Dimension(d.name, d.root, d.attributes, d.hierarchies, d.rows, numeric)

    def fact(name):
        return Fact(name, (), (("d", "Id"),), [{"Id": "k1"}])

    cases = [
        (star_schema("s", fact("f"), (dim("d"), dim("d"))),
         Violation("d", "-", "dimension-name-unique", "duplicate dimension name 'd'"),
         "duplicate dimension name 'd'"),
        (star_schema("s", fact("f"), (dim("d", frozenset({"ghost"})),)),
         Violation("d", "-", "numeric-attributes",
                   "numericAttributes ['ghost'] are not declared attributes"),
         "d [-] numeric-attributes: numericAttributes ['ghost'] are not declared attributes"),
        (Schema("c", (fact("f"), fact("f")), (dim("d"),), {"f": ("d",)}),
         Violation("f", "-", "fact-name-unique", "duplicate fact name 'f'"),
         "duplicate fact name 'f'"),
        (Schema("c", (), (dim("d"),), {}),
         Violation("c", "-", "fact-present", "the schema has no fact"),
         "descriptor declares no facts"),
        (Schema("c", (fact("f"),), (dim("d"),), {"f": ("d",), "ghost": ("d",)}),
         Violation("ghost", "-", "star-map", "star map references unknown fact 'ghost'"),
         "ghost [-] star-map: star map references unknown fact 'ghost'"),
    ]
    for k, (schema, violation, load_error) in enumerate(cases):
        assert validate(schema) == [violation]
        # The warehouse written from such a schema is the one the loader refuses.
        io.write_dw(schema, tmp_path / str(k))
        with pytest.raises(LoadError, match=re.escape(load_error)):
            io.load_dw(tmp_path / str(k))


@pytest.mark.parametrize("numeric, violation", [
    ({"Quantity", "ghost"},
     Violation("sales", "-", "numeric-attributes",
               "numericAttributes ['ghost'] are not declared attributes")),
    ({"Quantity", "Code"},
     Violation("sales", "Code", "fact-key-numeric",
               "key column 'Code' must be numeric exactly when the root of dimension "
               "'customer' is")),
], ids=["not-a-column", "key-unlike-its-root"])
def test_validate_names_a_fact_numeric_set_the_reload_changes(numeric, violation, tmp_path):
    schema = two_dim_star()
    f = schema.fact
    schema.facts = (Fact.from_columns(f.name, f.measures, f.dimension_keys, f.columns,
                                      frozenset(numeric)),)
    assert validate(schema) == [violation]
    # The loader derives the set from the descriptor, so it cannot refuse it.
    io.write_dw(schema, tmp_path)
    assert io.load_dw(tmp_path).fact.numeric == {"Quantity"}


def one_row_star(table: str, column: str, cell) -> Schema:
    """A star of one row whose ``column`` of ``table`` holds ``cell``; Number
    and Amount are numeric, Text is not."""
    row = {"Id": "k1", "Text": "t", "Number": Decimal(2), "Amount": Decimal(3)}
    if table != "-":
        row[column] = cell
    dim = Dimension("d", "Id", ("Id", "Text", "Number"), (Hierarchy("h", ("Id", "Text")),),
                    {"k1": {a: row[a] for a in ("Id", "Text", "Number")}}, frozenset({"Number"}))
    fact = Fact("f", ("Amount",), (("d", "Id"),), [{"Id": "k1", "Amount": row["Amount"]}],
                frozenset({"Amount"}))
    return star_schema("s", fact, (dim,))


@pytest.mark.parametrize("table, column, cell, reloaded", [
    ("f", "Amount", Decimal("NaN"), "'NaN' is not a number"),
    ("d", "Number", "abc", "'abc' is not a number"),
    ("d", "Text", " padded ", "padded"),
    ("d", "Text", "", None),
    ("d", "Text", Decimal("1.0"), "1.0"),
    ("-", "-", None, None),
], ids=["nan-measure", "text-in-numeric", "padded", "empty", "decimal-in-text", "clean"])
def test_validate_names_a_cell_the_reload_changes(table, column, cell, reloaded, tmp_path):
    schema = one_row_star(table, column, cell)
    rules = [(v.table, v.locus, v.rule) for v in validate(schema)]
    assert rules == ([] if table == "-" else [(table, column, "cell-reloads")])
    io.write_dw(schema, tmp_path)
    if isinstance(reloaded, str) and reloaded.endswith("not a number"):
        with pytest.raises(LoadError, match=reloaded):
            io.load_dw(tmp_path)
        return
    back = io.load_dw(tmp_path)
    if table == "-":
        assert back == schema
    else:
        assert repr(back.dimension(table).cells(column)[0]) == repr(reloaded)


# _validate_dimension as it was before it checked whole columns first, over
# row dicts: kept as the reference, with the rows given beside the
# dimension's declaration.
def reference_validate_dimension(dim: Dimension, rows: dict, out: list[Violation]) -> None:
    out.extend(dimension_faults(dim))
    attrs = set(dim.attributes)
    root = dim.root
    for key, row in rows.items():
        if key is None:
            out.append(Violation(dim.name, "<null>", "root-non-null",
                                 "a row has a null root value"))
        elif not cells_equal(row.get(root), key):
            out.append(Violation(dim.name, cell_to_text(key), "root-key-consistent",
                                 "row key differs from its root attribute value"))
        if not row.keys() <= attrs:
            extra = set(row) - attrs
            out.append(Violation(dim.name, cell_to_text(key), "row-columns",
                                 f"row carries undeclared columns {sorted(extra)!r}"))


def random_dimension(rng: random.Random) -> tuple[Dimension, dict]:
    """A declaration and up to six rows with text or numeric ids, some
    broken: a null key, a root cell that differs, is null, is missing or is
    text for a number, an undeclared column; ``1`` and ``1.0`` are equal ids
    spelt differently."""
    numeric = rng.random() < 0.5
    pool = ([Decimal("1"), Decimal("1.0"), Decimal("2"), Decimal("2.50")] if numeric
            else ["a", "b", "c", "1"])
    rows = {}
    for _ in range(rng.randint(0, 6)):
        key = None if rng.random() < 0.05 else rng.choice(pool)
        root = key
        roll = rng.random()
        if roll < 0.05:
            root = None
        elif roll < 0.15:
            root = rng.choice(pool)
        elif roll < 0.2 and key is not None:
            root = str(key) if numeric else Decimal(1)
        row = {"Id": root, "A": rng.choice(["x", None])}
        if rng.random() < 0.05:
            del row["Id"]
        if rng.random() < 0.08:
            row[rng.choice(["Z", "Y"])] = "z"
        rows[key] = row
    declared = Dimension("d", "Id", ("Id", "A"), (Hierarchy("h", ("Id", "A")),), {},
                         frozenset({"Id"}) if numeric else frozenset())
    return declared, rows


def test_validate_dimension_matches_reference_loop():
    # The constructor refuses the rows the loop found a key or column fault
    # in, and a null key with a root cell; validate reports the rest as it did.
    rng = random.Random(4242)
    seen = dict.fromkeys(["clean", "root-non-null", "root-key-consistent", "row-columns",
                          "equal-spellings", "missing-root", "refused"], 0)
    for case in range(400):
        declared, rows = random_dimension(rng)
        expected = []
        reference_validate_dimension(declared, rows, expected)
        refused = (bool({"root-key-consistent", "row-columns"} & {v.rule for v in expected})
                   or any(k is None and r.get("Id") is not None for k, r in rows.items()))
        for v in expected:
            seen[v.rule] += 1
        seen["missing-root"] += any("Id" not in r for r in rows.values())
        try:
            dim = Dimension(declared.name, declared.root, declared.attributes,
                            declared.hierarchies, rows, declared.numeric)
        except ValueError:
            assert refused, f"case {case}"
            seen["refused"] += 1
            continue
        assert not refused, f"case {case}"
        got = dimension_faults(dim)
        _validate_dimension(dim, got)
        assert got == expected, f"case {case}"
        seen["clean"] += not got and bool(rows)
        seen["equal-spellings"] += any(
            isinstance(k, Decimal) and cells_equal(r.get("Id"), k) and str(r["Id"]) != str(k)
            for k, r in rows.items())
    assert all(seen.values()), seen


def two_pass_key_order(key_columns, n):
    """The former ``key_order``: one stable sort per key column, last column first."""
    order = list(range(n))
    for cells in reversed(key_columns):
        if set(map(type, cells)) not in ({str}, {Decimal}):
            cells = list(map(cell_sort_key, cells))
        order.sort(key=cells.__getitem__)
    return order


def test_key_order_matches_two_pass_reference():
    # Equal numbers spelt differently (1, 1.0, 1.00, and the int 1) tie, so
    # they keep their input order; few distinct cells per column make keys
    # repeat.
    rng = random.Random(25)
    texts = ["a", "b", "B", "ab", "10", "9", "\u00e9", "z z"]
    numbers = [*map(Decimal, ["1", "1.0", "1.00", "-0", "0", "2.5", "1E+1", "10", "-3"]),
               1, 0, 10, -3, 7]
    pools = {"text": texts, "number": numbers, "mixed": [*texts, *numbers, None]}
    layouts = {"runs": 0, "product-major": 0, "random": 0}
    for case in range(2400):
        width = case % 4
        n = rng.choice([0, 1, 2, 7, 40, 300])
        values = [rng.sample(pools[rng.choice(list(pools))], rng.randint(1, 6))
                  for _ in range(width)]
        rows = [tuple(rng.choice(v) for v in values) for _ in range(n)]
        layout = list(layouts)[case // 4 % 3]
        layouts[layout] += 1
        if layout == "runs":  # two runs each in key order, as a merged fact is
            cut = rng.randint(0, n)
            rows = [*sorted(rows[:cut], key=lambda r: list(map(cell_sort_key, r))),
                    *sorted(rows[cut:], key=lambda r: list(map(cell_sort_key, r)))]
        elif layout == "product-major":  # the last column first, as a generated fact is
            rows.sort(key=lambda r: list(map(cell_sort_key, reversed(r))))
        columns = [[r[j] for r in rows] for j in range(width)]
        assert key_order(columns, n) == two_pass_key_order(columns, n), f"case {case}"
        # Ranked among given sorted cells, distinct by value and more than
        # the column holds, as a fact's key cells among a dimension's ids.
        ranked = [sorted(dict.fromkeys(v), key=cell_sort_key) for v in values]
        assert key_order(columns, n, ranked) == two_pass_key_order(columns, n), f"case {case}"
    assert min(layouts.values()) == 800


def test_hierarchy_invariants():
    with pytest.raises(ValueError):
        Hierarchy("bad", ())
    with pytest.raises(ValueError):
        Hierarchy("bad", ("A", "A"))
