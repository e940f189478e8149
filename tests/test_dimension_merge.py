import copy
import random
from decimal import Decimal
from typing import Mapping, Sequence

import pytest

from dwmerge import dimension_merge, star_merge
from dwmerge.config import MergeSettings
from dwmerge.dimension_merge import (CompletionFill, ValueConflict, _complete_rows,
                                     _right_name_map, merge_dimensions, merge_instances)
from dwmerge.errors import ConflictError, MergeError
from dwmerge.generator import generate_pair, preset_const22, preset_divergent
from dwmerge.matching import MatcherConfig, match_attributes, match_measures
from dwmerge.model import (Cell, Dimension, Fact, Hierarchy, Row, cell_sort_key, cell_to_text,
                           cells_equal)
from dwmerge.star_merge import merge_facts, merge_stars

from conftest import (H13_PARAMS, H24_PARAMS, customer_left, customer_right, fuse_row,
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


def merged_rows(d1: Dimension, d2: Dimension, names: Mapping[str, str],
                attributes: Sequence[str], policy: str = "left"
                ) -> tuple[dict[Cell, Row], list[ValueConflict]]:
    """merge_instances' columns read as rows, and its clashes; the ids it
    returns are its root column."""
    ids, conflicts, columns = merge_instances(d1, d2, names, attributes, policy)
    dim = Dimension.from_columns(d1.name, d1.root, tuple(attributes), (), columns)
    assert ids == dim.cells(d1.root)
    return dict(dim.rows.items()), conflicts


def test_disjoint_keys_concatenate():
    a = make_dimension("d", "K", ("K", "X"), [("H", ("K", "X"))],
                       [("k1", "x1"), ("k2", "x2")])
    b = make_dimension("d", "K", ("K", "Y"), [("H", ("K", "Y"))],
                       [("k3", "y3")])
    rows, conflicts = merged_rows(a, b, {"K": "K", "Y": "Y"}, ("K", "X", "Y"))
    assert conflicts == []
    assert rows["k1"] == {"K": "k1", "X": "x1", "Y": None}
    assert rows["k3"] == {"K": "k3", "X": None, "Y": "y3"}


def conflict_pair():
    a = make_dimension("d", "K", ("K", "X"), [("H", ("K", "X"))], [("k1", "left")])
    b = make_dimension("d", "K", ("K", "X"), [("H", ("K", "X"))], [("k1", "right")])
    return a, b


def merge_conflicting_facts(policy, cid="c1"):
    keys = (("c", "cid"), ("p", "pid"))
    numeric = frozenset({"price", "cid"} if isinstance(cid, Decimal) else {"price"})
    f1, f2 = (Fact("sales", ("price",), keys,
                   [{"cid": cid, "pid": "p1", "price": Decimal(price)}], numeric)
              for price in (1, 2))
    return merge_facts(f1, f2, match_measures(f1, f2, MatcherConfig()),
                       {"c": "c", "p": "p"}, MergeSettings(conflict=policy))


@pytest.mark.parametrize("policy,expected", [("left", "left"), ("right", "right")])
def test_conflict_policy(policy, expected):
    a, b = conflict_pair()
    rows, conflicts = merged_rows(a, b, {"K": "K", "X": "X"}, ("K", "X"), policy)
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
    with pytest.raises(ConflictError) as err:
        merge_instances(a, b, {"K": "K", "X": "X"}, ("K", "X"), "error")
    assert str(err.value) == "conflicting values for d[k1].X: 'left' vs 'right'"
    with pytest.raises(ConflictError) as err:
        merge_conflicting_facts("error")
    assert str(err.value) == "conflicting measure 'price' for fact key (c1, p1)"
    # a numeric key is spelt as in the report's conflict entries
    with pytest.raises(ConflictError) as err:
        merge_conflicting_facts("error", cid=Decimal("1.0"))
    assert str(err.value) == "conflicting measure 'price' for fact key (1.0, p1)"


class Shouted(str):
    """A text whose str() is not its text."""

    def __str__(self) -> str:
        return self.upper() + "!"


def test_conflict_texts_spell_a_str_subclass_as_its_text():
    # Messages and report entries render a cell as the CSV writer does, and
    # the writer writes a str subclass as its text, not as its __str__.
    a = make_dimension("d", "K", ("K", "X"), [("H", ("K", "X"))], [(Shouted("k1"), Shouted("l"))])
    b = make_dimension("d", "K", ("K", "X"), [("H", ("K", "X"))], [("k1", "r")])
    with pytest.raises(ConflictError) as err:
        merge_instances(a, b, {"K": "K", "X": "X"}, ("K", "X"), "error")
    assert str(err.value) == "conflicting values for d[k1].X: 'l' vs 'r'"
    _, conflicts, _ = merge_instances(a, b, {"K": "K", "X": "X"}, ("K", "X"), "left")
    echo = star_merge._conflict_echo("d", conflicts[0])
    assert (echo.key, echo.left, echo.right, echo.chosen) == ("k1", "l", "r", "l")
    with pytest.raises(ConflictError) as err:
        merge_conflicting_facts("error", cid=Shouted("c1"))
    assert str(err.value) == "conflicting measure 'price' for fact key (c1, p1)"


def test_equal_cells_are_cells_equal():
    # fuse_cells asks cells_equal only about cells that differ under ==, which
    # is sound when == implies cells_equal for non-null cells of every type:
    # text against a number never compares equal, an int and a Decimal of one
    # value are cells_equal, and a NaN differs from itself.
    rng = random.Random(61)
    pool = ["5", "5.0", "a", "10", 5, 0, -3, 10, 10 ** 30,
            *map(Decimal, ["5", "5.0", "-0", "0", "1E+1", "-3", "1E+30", "NaN", "-NaN"])]
    seen = dict.fromkeys(["same type", "int and Decimal", "unequal", "NaN"], 0)
    for _ in range(4000):
        a, b = rng.choice(pool), rng.choice(pool)
        if a == b:
            assert cells_equal(a, b), (a, b)
            seen["same type" if type(a) is type(b) else "int and Decimal"] += 1
        else:
            seen["NaN" if a is b else "unequal"] += 1
    assert all(seen.values()), seen


# merge_instances as it was when it built and fused one row dict at a time.
# Kept verbatim as the reference, with its row helper (conftest's fuse_row),
# which the package no longer has.
def reference_merge_instances(d1: Dimension, d2: Dimension, right_name_map: Mapping[str, str],
                              attributes: Sequence[str], conflict: str = "left"
                              ) -> tuple[dict[Cell, Row], list[ValueConflict]]:
    """Union the instance tables; rows sharing a root value fuse column-wise.

    Attributes the absent side does not carry stay null. When both sides
    provide different non-null values for a cell the conflict policy decides
    and the clash is logged; under policy ``error`` it raises.
    """
    conflicts: list[ValueConflict] = []
    names = [(b, right_name_map[b]) for b in d2.attributes]
    keys = sorted(set(d1.rows) | set(d2.rows), key=cell_sort_key)
    rows: dict[Cell, Row] = {}
    for key in keys:
        row: Row = {a: None for a in attributes}
        r1 = d1.rows.get(key)
        r2 = d2.rows.get(key)
        if r1 is not None:
            for a in d1.attributes:
                row[a] = r1.get(a)
        if r2 is not None:
            for name, v1, v2, chosen in fuse_row(row, r2, names, conflict):
                if conflict == "error":
                    raise ConflictError(
                        f"conflicting values for {d1.name}[{cell_to_text(key)}].{name}: "
                        f"{cell_to_text(v1)!r} vs {cell_to_text(v2)!r}")
                conflicts.append(ValueConflict(key, name, v1, v2, chosen))
        rows[key] = row
    return rows, conflicts


ID_POOLS = {"text": ["a", "b", "c", "d", "1", "B"],
            "number": [Decimal(v) for v in ("1", "1.0", "2", "2.50", "3", "-1")],
            "mixed": ["a", "b", "1", Decimal("1"), Decimal("2.0"), Decimal("3")]}
CELLS = [None, None, "x", "y", "1", Decimal("1"), Decimal("1.0"), Decimal("2")]


def random_dimension_pair(rng: random.Random):
    """Two random dimensions, the right one's names mapped onto the left's.

    Ids are text, numbers or both, and a side may share all, some or none
    of them. Right columns are matched to left ones (crosswise too) or
    gained, a gained one renamed when a left column holds its name. Cells
    are null, text, or equal Decimals spelt differently; a few rows lack a
    cell. Returns the pair, the right name map and the output attributes,
    built as ``merge_dimensions`` builds them.
    """
    pool = ID_POOLS[rng.choice(list(ID_POOLS))]
    left_attrs = ("K",) + tuple(rng.sample(["A", "B", "C"], rng.randint(0, 3)))
    right_attrs = ("R",) + tuple(rng.sample(["A", "B", "C", "D", "E"], rng.randint(0, 4)))
    matched = {"R": "K"}
    free = list(left_attrs[1:])
    for b in right_attrs[1:]:
        if free and rng.random() < 0.6:
            a = b if b in free and rng.random() < 0.7 else rng.choice(free)
            free.remove(a)
            matched[b] = a

    def dimension(name, attrs):
        rows = {}
        for key in rng.sample(pool, rng.randint(0, len(pool))):
            row = {attrs[0]: key}
            for a in attrs[1:]:
                if rng.random() >= 0.05:
                    row[a] = rng.choice(CELLS)
            rows[key] = row
        return Dimension(name, attrs[0], attrs, (Hierarchy("H", attrs[:1]),), rows)

    d1, d2 = dimension("d1", left_attrs), dimension("d2", right_attrs)
    names = _right_name_map(d1.attributes, d2.attributes, d2.name, matched)
    attributes = d1.attributes + tuple(n for n in names.values() if n not in d1.attributes)
    return d1, d2, names, attributes


def test_merge_instances_matches_reference():
    rng = random.Random(4711)
    seen = dict.fromkeys(["left_only", "right_only", "shared", "mixed_ids", "fill",
                          "equal_spellings", "gained", "renamed", "conflict", "raised"], 0)
    for case in range(400):
        d1, d2, names, attributes = random_dimension_pair(rng)
        before = repr((d1.rows, d2.rows))
        inputs = {id(c) for d in (d1, d2) for row in d.rows.values() for c in row.values()}
        for policy in ("left", "right", "error"):
            try:
                want = reference_merge_instances(d1, d2, names, attributes, policy)
            except ConflictError as exc:
                with pytest.raises(ConflictError) as err:
                    merge_instances(d1, d2, names, attributes, policy)
                assert str(err.value) == str(exc), f"case {case}"
                seen["raised"] += 1
                continue
            rows, conflicts = merged_rows(d1, d2, names, attributes, policy)
            assert repr(rows) == repr(want[0]), f"case {case} {policy}"
            assert repr(conflicts) == repr(want[1]), f"case {case} {policy}"
            assert repr((d1.rows, d2.rows)) == before, f"case {case} {policy}"
            assert all(id(c) in inputs for row in rows.values() for c in row.values()
                       if c is not None), f"case {case} {policy}"
            seen["conflict"] += len(conflicts)
        shared = set(d1.rows) & set(d2.rows)
        seen["left_only"] += bool(set(d1.rows) - shared)
        seen["right_only"] += bool(set(d2.rows) - shared)
        seen["shared"] += bool(shared)
        seen["mixed_ids"] += len({type(k) for d in (d1, d2) for k in d.rows}) == 2
        seen["gained"] += any(n not in d1.attributes for n in names.values())
        seen["renamed"] += any(n != b and n not in d1.attributes for b, n in names.items())
        for key in shared:
            r1, r2 = d1.rows[key], d2.rows[key]
            for b, n in names.items():
                v1, v2 = r1.get(n), r2.get(b)
                seen["fill"] += v1 is None and v2 is not None
                seen["equal_spellings"] += (isinstance(v1, Decimal) and v1 == v2
                                            and str(v1) != str(v2))
    # the cases reach every rule the union and fusion depend on
    assert all(seen.values()), seen


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
    return _complete_rows(dim, merged, dim, {a: a for a in dim.attributes})


def test_completion_fixpoint():
    res = merged_customer()
    dim = res.dimension
    before = {k: dict(r) for k, r in dim.rows.items()}
    assert complete_in_place(dim, dim.hierarchies) == []
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


# ---------------------------------------------------------------------------
# completion oracle: the engine against a plain sweep over every row
# ---------------------------------------------------------------------------

def reference_complete_rows(target_rows, hierarchies, donor_rows, col_map, donor_is_target):
    """The sweep ``_complete_rows`` replaced: every row under every hierarchy, each pass."""
    fills: list[CompletionFill] = []
    index: dict[str, dict[Cell, list[Cell]]] = {}

    def donor_index(col: str) -> dict[Cell, list[Cell]]:
        if col not in index:
            m: dict[Cell, list[Cell]] = {}
            for k in sorted(donor_rows, key=cell_sort_key):
                v = donor_rows[k].get(col)
                if v is not None:
                    m.setdefault(v, []).append(k)
            index[col] = m
        return index[col]

    target_keys = sorted(target_rows, key=cell_sort_key)
    ordered = sorted(hierarchies, key=lambda h: h.name)
    while True:
        filled_this_sweep = 0
        for h in ordered:
            params = h.parameters
            if len(params) < 2:
                continue
            for key in target_keys:
                row = target_rows[key]
                if row.get(params[1]) is None:
                    continue  # the second-lowest level can never be completed
                null_positions = [i for i, p in enumerate(params) if row.get(p) is None]
                if not null_positions:
                    continue
                missing = [params[i] for i in null_positions]
                reference = params[:null_positions[0]]
                candidates: set[Cell] = set()
                for p in reference:
                    dcol = col_map.get(p)
                    if dcol is None:
                        continue
                    candidates.update(donor_index(dcol).get(row[p], ()))
                qualifying: list[tuple[Cell, tuple[Cell, ...]]] = []
                for dk in sorted(candidates, key=cell_sort_key):
                    drow = donor_rows[dk]
                    values = []
                    for q in missing:
                        dcol = col_map.get(q)
                        v = drow.get(dcol) if dcol is not None else None
                        if v is None:
                            break
                        values.append(v)
                    else:
                        qualifying.append((dk, tuple(values)))
                if not qualifying:
                    continue
                donor_key, values = qualifying[0]
                ambiguous = len({vals for _, vals in qualifying}) > 1
                for q, v in zip(missing, values):
                    row[q] = v
                    fills.append(CompletionFill(key, q, v, donor_key, h.name, ambiguous))
                    filled_this_sweep += 1
                    if donor_is_target:
                        index.pop(q, None)  # the filled row can now donate on q
        if not filled_this_sweep:
            return fills


# Equal Decimals with different spellings test that the first donor's own
# cell is copied; small domains make donors share values and disagree.
VALUES = ("a", "b", "c", Decimal("1"), Decimal("1.0"), Decimal("2"))
# Only equal numbers in several spellings: reference values meet across them.
SPELLINGS = (Decimal("1"), Decimal("1.0"), Decimal("1.00"), Decimal("2"), Decimal("2.0"))
COMPLETION_KINDS = ("plain", "same-parameters", "unmapped-missing", "decimal-references")


def random_completion_case(rng: random.Random, donor_is_target: bool, kind: str = "plain"):
    """A small completion input; ``kind`` adds what a null-pattern plan must get right.

    ``same-parameters`` gives a hierarchy a twin with the same parameters
    under another name; ``unmapped-missing`` adds a hierarchy of three
    levels whose rows often miss the top two, one of which has no donor
    column; ``decimal-references`` draws every value from equal Decimals
    spelt differently.
    """
    attrs = ["K"] + [f"A{i}" for i in range(rng.randint(3 if kind == "unmapped-missing" else 2,
                                                          5))]
    make_key = (lambda i: f"k{i:02d}") if rng.random() < 0.5 else (lambda i: Decimal(i) / 4)
    keys = [make_key(i) for i in rng.sample(range(40), rng.randint(2, 12))]
    null_rate = rng.choice((0.2, 0.4, 0.6))
    values = SPELLINGS if kind == "decimal-references" else VALUES

    def row(key, names):
        r = {names[0]: key}
        for a in names[1:]:
            r[a] = None if rng.random() < null_rate else rng.choice(values)
        return r

    # Hierarchies draw from one small attribute pool, so they share levels
    # and a fill under one can unblock a row under another.
    hierarchies = []
    for _ in range(rng.randint(1, 4)):
        levels = rng.sample(attrs[1:], rng.randint(1, len(attrs) - 1))
        hierarchies.append(Hierarchy(f"h{rng.randint(0, 9)}", ("K", *levels)))
    if kind == "same-parameters":
        twin = rng.choice(hierarchies)
        # "a" sorts before every other name and "z" after, so either twin may sweep first
        hierarchies.append(Hierarchy(rng.choice("az") + twin.name, twin.parameters))
    unmapped = None
    if kind == "unmapped-missing":
        levels = rng.sample(attrs[1:], 3)
        hierarchies.append(Hierarchy(f"h{rng.randint(0, 9)}", ("K", *levels)))
        unmapped = rng.choice(levels[1:])
    target = {k: row(k, attrs) for k in keys}
    if unmapped is not None:
        for r in target.values():
            if rng.random() < 0.5:
                r[levels[1]] = r[levels[2]] = None
    if donor_is_target:
        return target, hierarchies, target, {a: None if a == unmapped else a for a in attrs}
    donor_attrs = [f"d{a}" for a in attrs]
    donor_keys = keys[:1] + [make_key(i) for i in rng.sample(range(40), rng.randint(1, 12))]
    donors = {k: row(k, donor_attrs) for k in donor_keys}
    col_map = {a: (None if a == unmapped or rng.random() < 0.15 else d)
               for a, d in zip(attrs, donor_attrs)}
    return target, hierarchies, donors, col_map


def as_dimension(rows: dict[Cell, Row]) -> Dimension:
    """A dimension over ``rows``, its columns those of a row, the first the root."""
    names = tuple(next(iter(rows.values())))
    return Dimension("d", names[0], names, (), rows)


def kind_reached(kind, fills, hierarchies, target, donors, col_map) -> bool:
    """Whether a case of ``kind`` filled cells in the way its kind is there to test."""
    if kind == "same-parameters":
        twins = {h.name for h in hierarchies if h.parameters == hierarchies[-1].parameters}
        return any(f.hierarchy in twins for f in fills)
    if kind == "unmapped-missing":  # a row still misses both top levels, one unmapped
        params = hierarchies[-1].parameters
        return bool(fills) and any(r[params[1]] is not None and r[params[2]] is None
                                   and r[params[3]] is None for r in target.values())
    if kind == "decimal-references":  # a donor shares a reference value in another spelling
        levels = {h.name: h.parameters for h in hierarchies}
        return any(
            target[f.row_key][p] == donors[f.donor_key][col_map[p]]
            and str(target[f.row_key][p]) != str(donors[f.donor_key][col_map[p]])
            for f in fills for p in levels[f.hierarchy][1:]
            if col_map[p] is not None and target[f.row_key][p] is not None
            and donors[f.donor_key][col_map[p]] is not None)
    return bool(fills)


@pytest.mark.parametrize("donor_is_target", [True, False])
def test_completion_matches_reference_sweep(donor_is_target):
    rng = random.Random(20211 + donor_is_target)
    seen = {"fills": 0, "ambiguous": 0, "second_sweep": 0, "blocked_second": 0,
            **{kind: 0 for kind in COMPLETION_KINDS}}
    for case in range(400):
        kind = COMPLETION_KINDS[case % len(COMPLETION_KINDS)]
        target, hierarchies, donors, col_map = random_completion_case(rng, donor_is_target,
                                                                      kind)
        ref_target = copy.deepcopy(target)
        ref_donors = ref_target if donor_is_target else copy.deepcopy(donors)
        expected = reference_complete_rows(ref_target, hierarchies, ref_donors, col_map,
                                           donor_is_target)
        dim = as_dimension(target)
        got = _complete_rows(dim, hierarchies, dim if donor_is_target else as_dimension(donors),
                             col_map)
        target = dict(dim.rows.items())
        assert repr(got) == repr(expected), f"case {case}"
        assert repr(target) == repr(ref_target), f"case {case}"
        names = [f.hierarchy for f in got]
        seen["fills"] += len(got)
        seen["ambiguous"] += sum(f.ambiguous for f in got)
        seen["second_sweep"] += any(b < a for a, b in zip(names, names[1:]))
        seen["blocked_second"] += any(
            r.get(h.parameters[1]) is None and any(r.get(p) is None for p in h.parameters[2:])
            for h in hierarchies if len(h.parameters) > 2 for r in target.values())
        seen[kind] += kind_reached(kind, got, hierarchies, target, donors, col_map)
    # the cases reach every behaviour the sweep order and donor choice depend on
    assert all(seen.values()), seen


def test_completion_fill_is_immutable_and_hashable():
    fill = CompletionFill("k1", "B", "b2", "k2", "m")
    with pytest.raises(AttributeError):
        fill.value = "b3"
    assert fill.ambiguous is False
    assert len({fill, CompletionFill("k1", "B", "b2", "k2", "m", False)}) == 1
    assert repr(fill) == ("CompletionFill(row_key='k1', attribute='B', value='b2', "
                          "donor_key='k2', hierarchy='m', ambiguous=False)")


# The matched path completes from the merged rows, enrichment from the other side.
@pytest.mark.parametrize("spec, donor_is_target",
                         [(preset_divergent(seed=3, rows=1200), True),
                          (preset_const22(seed=3), False)], ids=["matched", "enrichment"])
def test_pipeline_completion_matches_reference_sweep(spec, donor_is_target, monkeypatch):
    # Donor keys reach the output only through ambiguous fills, so compare
    # every completion call of a real merge with the reference sweep.
    engine = dimension_merge._complete_rows
    filled = {True: 0, False: 0}

    def checked(target, hierarchies, donor, col_map):
        donor_is_target = target is donor
        ref_target = dict(target.rows.items())
        ref_donors = ref_target if donor_is_target else dict(donor.rows.items())
        expected = reference_complete_rows(ref_target, hierarchies, ref_donors, col_map,
                                           donor_is_target)
        got = engine(target, hierarchies, donor, col_map)
        assert repr(got) == repr(expected)
        assert repr(target.rows) == repr(ref_target)
        filled[donor_is_target] += len(got)
        return got

    monkeypatch.setattr(dimension_merge, "_complete_rows", checked)
    merge_stars(*generate_pair(spec)[:2])
    assert filled[donor_is_target] > 0, filled
