"""Shared fixtures: a hand-checked customer warehouse pair.

The pair is built so that every merge stage has a known outcome:

* D1 (root Code) carries H1 = <Code, Department, Region, Continent> and
  H2 = <Code, Profession, Category>.
* D2 (root Code) carries H3 = <Code, City, Department, Country, Continent>
  and H4 = <Code, Profession, Subcategory>.
* The shared instances make exactly Region -> Country and
  Subcategory -> Category discoverable, while every cross-hierarchy pair
  (for example Department -> Category) is contradicted somewhere, so the
  merge produces H1_H3 = <Code, City, Department, Region, Country,
  Continent> and H2_H4 = <Code, Profession, Subcategory, Category> and
  nothing else.
* Completion fills C09.Region from C07, and C03 (null City) keeps its null
  Country because the City level can never be completed.
"""

from __future__ import annotations

import gc
import math
import random
import tracemalloc
from decimal import Decimal
from typing import Callable, Sequence, TypeVar

import pytest

from dwmerge.model import Cell, Dimension, Hierarchy, Row, RowList, cells_equal

H13_PARAMS = ("Code", "City", "Department", "Region", "Country", "Continent")
H24_PARAMS = ("Code", "Profession", "Subcategory", "Category")


def table(rows: Sequence[Row], names: Sequence[str] = ()) -> RowList:
    """Row dicts as the column view the hierarchy merge reads. Its columns are
    ``names`` and every key of a row; a cell a row lacks is null."""
    names = tuple(dict.fromkeys([*names, *(k for r in rows for k in r)]))
    return RowList(names, [[r.get(n) for r in rows] for n in names])


def make_dimension(name, root, attributes, hierarchies, rows) -> Dimension:
    table = {}
    for values in rows:
        row = dict(zip(attributes, values))
        table[row[root]] = row
    return Dimension(name, root, tuple(attributes),
                     tuple(Hierarchy(n, tuple(p)) for n, p in hierarchies), table)


def customer_left() -> Dimension:
    attrs = ("Code", "Department", "Region", "Continent", "Profession", "Category")
    rows = [
        ("C01", "dept_a", "reg_1", "europe", "prof_a", "cat_a"),
        ("C02", "dept_a", "reg_1", "europe", "prof_a", "cat_a"),
        ("C03", "dept_a", "reg_1", "europe", "prof_a", "cat_a"),
        ("C04", "dept_c", "reg_3", "europe", "prof_b", "cat_b"),
        ("C05", "dept_c", "reg_3", "europe", "prof_b", "cat_b"),
        ("C06", "dept_a", "reg_1", "europe", "prof_e", "cat_b"),
        ("C07", "dept_b", "reg_2", "europe", "prof_d", "cat_b"),
        ("C10", "dept_d", "reg_4", "america", "prof_a", "cat_a"),
        ("C11", "dept_e", "reg_4", "america", "prof_b", "cat_b"),
        ("C12", "dept_a", "reg_1", "europe", "prof_a", "cat_a"),
    ]
    return make_dimension(
        "customer", "Code", attrs,
        [("H1", ("Code", "Department", "Region", "Continent")),
         ("H2", ("Code", "Profession", "Category"))],
        rows)


def customer_right(include_stub: bool = False) -> Dimension:
    attrs = ("Code", "City", "Department", "Country", "Continent",
             "Profession", "Subcategory")
    rows = [
        ("C01", "city_1", "dept_a", "france", "europe", "prof_a", "sub_a"),
        ("C05", "city_5", "dept_c", "uk", "europe", "prof_b", "sub_b"),
        ("C06", "city_1", "dept_a", "france", "europe", "prof_e", "sub_c"),
        ("C07", "city_7", "dept_b", "france", "europe", "prof_d", "sub_b"),
        ("C08", "city_8", "dept_a", "france", "europe", "prof_a", "sub_a"),
        ("C09", "city_9", "dept_b", "france", "europe", "prof_b", "sub_b"),
        ("C10", "city_10", "dept_d", "us", "america", "prof_a", "sub_a"),
        ("C11", "city_11", "dept_e", "us", "america", "prof_b", "sub_b"),
        ("C12", "city_12", "dept_a", "france", "europe", "prof_a", "sub_a"),
    ]
    if include_stub:
        # Conforms to H4 but its Category can never be completed.
        rows.append(("C13", "city_13", "dept_a", "france", "europe",
                     "prof_z", "sub_z"))
    return make_dimension(
        "customer", "Code", attrs,
        [("H3", ("Code", "City", "Department", "Country", "Continent")),
         ("H4", ("Code", "Profession", "Subcategory"))],
        rows)


def location_dim() -> Dimension:
    """A City-rooted axis sharing Department and Continent with customer_left."""
    attrs = ("City", "Department", "Country", "Continent")
    rows = [
        ("city_1", "dept_a", "france", "europe"),
        ("city_5", "dept_c", "uk", "europe"),
        ("city_7", "dept_b", "france", "europe"),
        ("city_10", "dept_d", "us", "america"),
        ("city_11", "dept_e", "us", "america"),
    ]
    return make_dimension(
        "location", "City", attrs,
        [("H3", ("City", "Department", "Country", "Continent"))],
        rows)


T = TypeVar("T")


def traced(call: Callable[[], T]) -> tuple[T, int, int]:
    """``call()``'s result, and the bytes it left allocated and the most it
    held at once while it ran, as tracemalloc counts them.

    Only blocks allocated during the call are counted, so the second figure
    is the call's own high-water mark.
    """
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        result = call()
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, held - base, peak - base


# Reference oracles shared by several test modules.

def fuse_row(row: Row, incoming: Row, names: Sequence[tuple[str, str]], conflict: str
             ) -> list[tuple[str, Cell, Cell, Cell]]:
    """Copy the non-null cells of ``incoming`` into ``row`` under unified names.

    ``names`` pairs each incoming column with its name in ``row``. A null in
    ``row`` takes the incoming value; where both hold different values the
    right one wins only under policy ``right``. Each clash is returned as
    ``(name, left, right, chosen)``; under policy ``error`` the caller
    raises on the first one.
    """
    clashes = []
    for source, name in names:
        v2 = incoming.get(source)
        if v2 is None:
            continue
        v1 = row.get(name)
        if v1 is None:
            row[name] = v2
        elif not cells_equal(v1, v2):
            chosen = v2 if conflict == "right" else v1
            row[name] = chosen
            clashes.append((name, v1, v2, chosen))
    return clashes


def maximal_paths(edges) -> set[tuple]:
    """Brute-force oracle: enumerate every maximal directed path edge by edge."""
    succ, pred = {}, {}
    nodes = set()
    for a, b in edges:
        succ.setdefault(a, set()).add(b)
        pred.setdefault(b, set()).add(a)
        nodes.update((a, b))
    sources = [n for n in sorted(nodes) if not pred.get(n)]
    sinks = {n for n in nodes if not succ.get(n)}
    out = set()

    def walk(path):
        last = path[-1]
        if last in sinks:
            out.add(tuple(path))
            return
        for nxt in sorted(succ[last]):
            walk(path + [nxt])

    for s in sources:
        walk([s])
    return out


# generator._fact_world as it was when it drew each measure with
# randrange and built one tuple per row: kept verbatim as the reference.
def reference_fact_world(spec, f, sizes: dict[str, int]) -> list[tuple]:
    """World fact rows: (index per dimension, measures, divergent), ordered
    by the last dimension's index first, the first dimension being the least
    significant digit of each sampled value."""
    rng = random.Random(f"{spec.seed}:{spec.name}:fact:{f.name}")
    space = math.prod(sizes[dn] for dn in f.dims)
    world = []
    for v in sorted(rng.sample(range(space), f.rows)):
        key = []
        for dn in f.dims:
            v, k = divmod(v, sizes[dn])
            key.append(k)
        measures = tuple(Decimal(rng.randrange(1, 100000)) for _ in f.measures)
        divergent = f.conflict_measure is not None and rng.random() < f.conflict_fraction
        world.append((tuple(key), measures, divergent))
    return world


@pytest.fixture
def d_left() -> Dimension:
    return customer_left()


@pytest.fixture
def d_right() -> Dimension:
    return customer_right()


@pytest.fixture
def d_location() -> Dimension:
    return location_dim()


@pytest.fixture
def collector():
    """Put the cyclic collector back as it was after a test that switches it."""
    enabled = gc.isenabled()
    yield
    (gc.enable if enabled else gc.disable)()
