"""The coded fact-key check against the row loops it replaced.

``model._validate_fact`` and ``io._read_fact`` both take their fact-key
faults from ``model.fact_key_faults``, which codes each row's key as one
integer and sorts the codes, and walks the rows only when that finds a
fault or cannot be read. The reference functions below are verbatim copies
of the row loops both once ran on every table; over seeded random facts,
and over hand-built cases that take the check off its coded path, the two
must report, raise and log the same things, in the same order. The cases
include rows with dangling keys in two columns and rows whose dangling key
also repeats an earlier tuple, so the order of faults within one row is
pinned too, and three-key facts with a 0-row or a 1-row dimension in each
key position. The check's memory is pinned per row.
"""

from __future__ import annotations

import itertools
import json
import logging
import random
from collections import Counter
from decimal import Decimal

import pytest

from dwmerge import io
from dwmerge.errors import LoadError
from dwmerge.generator import generate_pair, preset_basic
from dwmerge.model import (Dimension, Hierarchy, Violation, _validate_fact, cell_to_text,
                           fact_faults, fact_key_faults)

from conftest import dimension_from_rows, fact_from_rows, rows_of, traced

logger = io.logger


def reference_validate_fact(fact, dims, linked, out) -> None:
    linked = set(linked)
    declared = {d for d, _ in fact.dimension_keys}
    if declared != linked:
        out.append(Violation(fact.name, "-", "fact-dimensions",
                             f"fact keys reference {sorted(declared)!r} but the schema links {sorted(linked)!r}"))
    # A missing key column reads as null, so it is reported as a dangling key.
    cols = fact.key_columns()
    checks = [(j, col, dim_name, rows_of(dims[dim_name]))
              for j, (dim_name, col) in enumerate(fact.dimension_keys) if dim_name in dims]
    seen: dict[tuple, int] = {}
    for i, row in enumerate(rows_of(fact)):
        key = tuple(map(row.get, cols))
        for j, col, dim_name, dim_rows in checks:
            val = key[j]
            if val is None or val not in dim_rows:
                out.append(Violation(fact.name, f"row {i}", "fact-key-exists",
                                     f"key {col}={cell_to_text(val)!r} has no row in dimension {dim_name!r}"))
        first = seen.setdefault(key, i)
        if first != i:
            out.append(Violation(fact.name, f"row {i}", "fact-key-duplicate",
                                 f"key tuple {key!r} already used by row {first}"))


def reference_load_fact_rows(name, keys, dims, raw_rows, lines, strict, table_path):
    key_cols = [col for _, col in keys]
    where = str(table_path)
    kept = []
    checks = [(dim, col, rows_of(dims[dim])) for dim, col in keys]
    seen: set[tuple] = set()
    for lineno, row in zip(lines, raw_rows):
        key = tuple(map(row.__getitem__, key_cols))
        for (dim, col, dim_rows), val in zip(checks, key):
            if val is None or val not in dim_rows:
                raise LoadError(
                    f"fact {name!r}: key {col}={cell_to_text(val)!r} has no row in "
                    f"dimension {dim!r}", path=where, line=lineno)
        if key in seen:
            if strict:
                raise LoadError(f"fact {name!r}: duplicate key tuple", path=where,
                                line=lineno)
            logger.warning("fact %s: duplicate key tuple at %s:%d, keeping the first row",
                           name, table_path, lineno)
            continue
        seen.add(key)
        kept.append(row)
    return kept


def random_dims(rng: random.Random, least: int) -> dict[str, Dimension]:
    """``least`` to three dimensions, text- or number-keyed, with 1.0 and 1 as equal ids."""
    dims = {}
    for d in range(rng.randint(least, 3)):
        if rng.random() < 0.5:
            keys, numeric = [f"k{i}" for i in rng.sample(range(6), rng.randint(1, 4))], frozenset()
        else:
            keys = [Decimal(s) for s in rng.sample(["1", "2", "3.5", "-4", "7"], rng.randint(1, 4))]
            numeric = frozenset({f"id{d}"})
        rows = {k: {f"id{d}": k} for k in keys}
        dims[f"d{d}"] = dimension_from_rows(f"d{d}", f"id{d}", (f"id{d}",),
                                            (Hierarchy("h", (f"id{d}",)),), rows, numeric)
    return dims


def random_key_cell(rng: random.Random, dim: Dimension | None):
    """Mostly a real id of ``dim``; sometimes null, a dangling id or 1 for 1.0."""
    roll = rng.random()
    if roll < 0.06:
        return None
    numeric = dim is not None and dim.root in dim.numeric
    if roll < 0.12 or dim is None:
        return Decimal("99") if numeric else "zz"
    key = rng.choice(list(rows_of(dim)))
    if numeric and roll < 0.2:
        return Decimal(str(key.normalize())) + Decimal("0.0")  # equal, spelt differently
    return key


def random_fact_rows(rng: random.Random, keys, dims) -> list[dict]:
    rows = []
    for i in range(rng.randint(0, 8)):
        if rows and rng.random() < 0.15:
            row = dict(rng.choice(rows))  # a repeated key tuple
        else:
            row = {col: random_key_cell(rng, dims.get(dim)) for dim, col in keys}
        row["m"] = Decimal(i)
        rows.append(row)
    return rows


def test_validate_fact_matches_reference_loop():
    rng = random.Random(31415)
    seen = {"clean": 0, "null": 0, "dangling": 0, "missing-column": 0, "duplicate": 0,
            "no-key-columns": 0, "unknown-dimension": 0, "two-dangling": 0,
            "dangling-repeat": 0}
    for case in range(400):
        dims = random_dims(rng, least=0)
        names = list(dims) + ["ghost"]  # a key may point at a dimension not in the schema
        keys = tuple((dim, f"c{j}") for j, dim in enumerate(
            rng.choice(names) for _ in range(rng.randint(0, 3))))
        rows = random_fact_rows(rng, keys, dims)
        for row in rows:
            if keys and rng.random() < 0.05:
                del row[rng.choice(keys)[1]]
        fact = fact_from_rows("f", ("m",), keys, rows, frozenset({"m"}))
        linked = {dim for dim, _ in keys} if rng.random() < 0.9 else set(dims)
        # validate states the declaration rules first, then the rows' faults.
        got, expected = fact_faults(fact, linked), []
        _validate_fact(fact, dims, got)
        reference_validate_fact(fact, dims, linked, expected)
        assert got == expected, f"case {case}"
        rules = [v.rule for v in got if v.rule != "fact-dimensions"]
        seen["clean"] += not rules and bool(rows)
        seen["null"] += any(v.message.split("=")[1].startswith("''") for v in got
                            if v.rule == "fact-key-exists")
        seen["dangling"] += any("'zz'" in v.message or "'99'" in v.message for v in got)
        seen["missing-column"] += any(col not in row for row in rows for _, col in keys)
        seen["duplicate"] += "fact-key-duplicate" in rules
        seen["no-key-columns"] += not keys and len(rows) > 1
        seen["unknown-dimension"] += any(dim not in dims for dim, _ in keys)
        per_row = Counter((v.locus, v.rule) for v in got)
        seen["two-dangling"] += any(n > 1 for (_, rule), n in per_row.items()
                                    if rule == "fact-key-exists")
        seen["dangling-repeat"] += any((locus, "fact-key-exists") in per_row
                                       for locus, rule in per_row if rule == "fact-key-duplicate")
    assert all(seen.values()), seen


def write_fact_table(path, keys, rows, missing: str | None) -> None:
    cols = [col for _, col in keys if col != missing] + ["m"]
    lines = [",".join(cols)]
    lines += [",".join(cell_to_text(row.get(c)) for c in cols) for row in rows]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def load_outcome(load, caplog):
    """What one load returned, or the error it raised, and the warnings it logged."""
    caplog.clear()
    try:
        result = repr(load())
    except LoadError as exc:
        result = ("LoadError", str(exc), exc.path, exc.line)
    return result, [r.getMessage() for r in caplog.records]


def test_load_fact_matches_reference_loop(tmp_path, caplog):
    caplog.set_level(logging.WARNING, logger=io.logger.name)
    rng = random.Random(27182)
    seen = {"clean": 0, "dangling": 0, "duplicate-strict": 0, "duplicate-lenient": 0,
            "missing-column": 0, "no-key-columns": 0}
    table = tmp_path / "f.csv"
    for case in range(300):
        dims = random_dims(rng, least=1)  # the loader refuses keys of unknown dimensions
        keys = [(rng.choice(list(dims)), f"c{j}") for j in range(rng.randint(0, 3))]
        rows = random_fact_rows(rng, keys, dims)
        missing = keys[0][1] if keys and rng.random() < 0.05 else None
        write_fact_table(table, keys, rows, missing)
        entry = {"name": "f", "table": table.name, "measures": ["m"],
                 "dimensionKeys": [{"dimension": d, "column": c} for d, c in keys]}
        numeric = {"m"} | {col for dim, col in keys if dims[dim].root in dims[dim].numeric}
        for strict in (True, False):
            def load():
                fact, name = io._declared_fact(entry, dims, "schema.json")
                return rows_of(io._read_fact(fact, tmp_path / name, dims, strict))

            got = load_outcome(load, caplog)

            def reference():
                columns, lines = io._read_csv(table, [c for _, c in keys] + ["m"], numeric)
                raw_rows = [dict(zip([c for _, c in keys] + ["m"], r)) for r in zip(*columns)]
                return reference_load_fact_rows("f", keys, dims, raw_rows, lines, strict,
                                                table)

            assert got == load_outcome(reference, caplog), f"case {case} strict={strict}"
            result, warnings = got
            seen["clean"] += not warnings and isinstance(result, str) and bool(rows)
            seen["dangling"] += "has no row" in json.dumps(result)
            seen["duplicate-strict"] += strict and "duplicate key tuple" in json.dumps(result)
            seen["duplicate-lenient"] += bool(warnings)
            seen["missing-column"] += "missing declared columns" in json.dumps(result)
            seen["no-key-columns"] += not keys and len(rows) > 1
    assert all(seen.values()), seen


def one_column_dimension(name, ids, numeric=False) -> Dimension:
    """A dimension of the one attribute ``id``, its rows in the order of ``ids``."""
    return Dimension(name, "id", ("id",), (Hierarchy("h", ("id",)),), [list(ids)],
                     frozenset({"id"}) if numeric else frozenset())


def key_faults_by_reference(fact, dims) -> list[Violation]:
    expected = []
    reference_validate_fact(fact, dims, {d for d, _ in fact.dimension_keys}, expected)
    return expected


KEY_CASES = {
    # Rows not in id order, so positions do not follow the ids' sort order.
    "unordered-ids": (
        {"d": one_column_dimension("d", ["k3", "k1", "k2"]),
         "e": one_column_dimension("e", ["b", "c", "a"])},
        (("d", "x"), ("e", "y")),
        [{"x": "k2", "y": "a"}, {"x": "k1", "y": "c"}, {"x": "k3", "y": "a"},
         {"x": "k1", "y": "b"}, {"x": "k2", "y": "a"}],
        [(4, None, ("k2", "a"), 0)]),
    "unordered-ids-clean": (
        {"d": one_column_dimension("d", ["k3", "k1", "k2"]),
         "e": one_column_dimension("e", ["b", "c", "a"])},
        (("d", "x"), ("e", "y")),
        [{"x": x, "y": y} for y in ("c", "a", "b") for x in ("k2", "k3", "k1")],
        []),
    # 1 and 1.0 name one id, so their tuples repeat.
    "numeric-spellings": (
        {"d": one_column_dimension("d", [Decimal("2"), 1, Decimal("-4")], numeric=True)},
        (("d", "x"),),
        [{"x": 1}, {"x": Decimal("-4")}, {"x": Decimal("1.0")}, {"x": 2}],
        [(2, None, (Decimal("1.0"),), 0)]),
    # The id index holds a null; a null key cell still dangles.
    "null-id": (
        {"d": one_column_dimension("d", ["k1", None])},
        (("d", "x"),),
        [{"x": "k1"}, {"x": None}],
        [(1, ("d", "x"), None, None)]),
    "absent-dimension": (
        {"d": one_column_dimension("d", ["k1", "k2"])},
        (("d", "x"), ("ghost", "y")),
        [{"x": "k1", "y": "g"}, {"x": "k2", "y": "g"}, {"x": "k1", "y": "g"}],
        [(2, None, ("k1", "g"), 0)]),
    "absent-dimension-clean": (
        {},
        (("ghost", "y"),),
        [{"y": "g"}, {"y": "h"}],
        []),
    "two-columns-one-dimension": (
        {"d": one_column_dimension("d", ["k2", "k1"])},
        (("d", "x"), ("d", "y")),
        [{"x": "k1", "y": "k2"}, {"x": "k2", "y": "k1"}, {"x": "k1", "y": "k1"},
         {"x": "k2", "y": "k1"}, {"x": "k1", "y": "k3"}],
        [(3, None, ("k2", "k1"), 1), (4, ("d", "y"), "k3", None)]),
    "empty-dimension": (
        {"d": one_column_dimension("d", [])},
        (("d", "x"),),
        [{"x": "k1"}],
        [(0, ("d", "x"), "k1", None)]),
    "empty-dimension-no-rows": ({"d": one_column_dimension("d", [])}, (("d", "x"),), [], []),
    "no-key-columns-0": ({}, (), [], []),
    "no-key-columns-1": ({}, (), [{"m": 1}], []),
    "no-key-columns-2": ({}, (), [{"m": 1}, {"m": 2}], [(1, None, (), 0)]),
}


@pytest.mark.parametrize("case", KEY_CASES)
def test_coded_key_check_matches_reference_loop(case):
    dims, keys, rows, faults = KEY_CASES[case]
    fact = fact_from_rows("f", ("m",), keys, rows, frozenset({"m"}))
    assert fact_key_faults(fact, dims) == faults
    got = []
    _validate_fact(fact, dims, got)
    assert got == key_faults_by_reference(fact, dims)


@pytest.mark.parametrize("faulty", [False, True], ids=["clean", "faulty"])
@pytest.mark.parametrize("size", [0, 1])
@pytest.mark.parametrize("at", [0, 1, 2])
def test_three_key_check_with_a_tiny_dimension_matches_reference_loop(at, size, faulty):
    # Each key column but the last reads positions scaled by the sizes of
    # the dimensions after it, which a 0-row dimension makes 0.
    sizes = [3, 2, 4]
    sizes[at] = size
    dims = {f"d{k}": one_column_dimension(f"d{k}", [f"{k}:{i}" for i in range(n)])
            for k, n in enumerate(sizes)}
    keys = tuple((d, f"c{k}") for k, d in enumerate(dims))
    tuples = list(itertools.product(*(list(d.index) for d in dims.values())))[::-1]
    if faulty:
        dangling = [next(iter(d.index), "zz") for d in dims.values()]
        dangling[at] = "zz"
        tuples += tuples[:1] + [tuple(dangling)]
    rows = [dict(zip((c for _, c in keys), t), m=i) for i, t in enumerate(tuples)]
    fact = fact_from_rows("f", ("m",), keys, rows, frozenset({"m"}))
    got = []
    _validate_fact(fact, dims, got)
    assert got == key_faults_by_reference(fact, dims)
    assert bool(got) == faulty
    assert (fact_key_faults(fact, dims) == []) == (not faulty)


def test_key_check_holds_one_integer_per_row(tmp_path):
    # A sorted list of one int code per row: about 40 bytes a row. A set of
    # key tuples took about 94.
    dw1, _, _ = generate_pair(preset_basic(seed=1, fact_rows=20000))
    io.write_dw(dw1, tmp_path)
    del dw1
    schema = io.load_dw(tmp_path)
    dims = {d.name: d for d in schema.dimensions}
    faults, _, peak = traced(lambda: fact_key_faults(schema.fact, dims))
    n = len(schema.fact.rows)
    assert faults == [] and n > 10000
    assert peak / n <= 60, peak / n
