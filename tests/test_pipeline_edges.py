"""Cross-cutting edge cases: multi-partner enrichment, key order, support,
and a randomized-spec fuzz pass over the count laws."""

import random
from decimal import Decimal

import pytest

from dwmerge import io
from dwmerge.config import MergeSettings
from dwmerge.generator import (GenAttr, GenChain, GenDimension, GenFact, GenSpec,
                               generate_pair, preset_basic)
from dwmerge.hierarchy_merge import _segment_fd_edges, tokenize
from dwmerge.matching import MatcherConfig
from dwmerge.model import star_schema, validate
from dwmerge.report import TableCount
from dwmerge.star_merge import merge_stars

from conftest import fact_from_rows, make_dimension, rows_of, table


def test_enrichment_accumulates_from_two_partners():
    # the middle dimension shares a different attribute with each side axis
    target = make_dimension(
        "hub", "hid", ("hid", "alpha", "beta"),
        [("ha", ("hid", "alpha")), ("hb", ("hid", "beta"))],
        [("h1", "a1", "b1"), ("h2", "a2", "b2")])
    left_axis = make_dimension(
        "axis_a", "aid", ("aid", "alpha", "alpha_up"),
        [("ga", ("aid", "alpha", "alpha_up"))],
        [("x1", "a1", "up_a"), ("x2", "a2", "up_a")])
    right_axis = make_dimension(
        "axis_b", "bid", ("bid", "beta", "beta_up"),
        [("gb", ("bid", "beta", "beta_up"))],
        [("y1", "b1", "up_b"), ("y2", "b2", "up_b")])

    f1 = fact_from_rows("f1", ("m",), (("hub", "hid"), ("axis_a", "aid")),
                        [{"hid": "h1", "aid": "x1", "m": Decimal(1)}], frozenset({"m"}))
    f2 = fact_from_rows("f2", ("m",), (("hub", "hid"), ("axis_b", "bid")),
                        [{"hid": "h2", "bid": "y2", "m": Decimal(2)}], frozenset({"m"}))
    s1 = star_schema("s1", f1, (target, left_axis))
    s2 = star_schema("s2", f2, (target, right_axis))
    assert validate(s1) == [] and validate(s2) == []
    result = merge_stars(s1, s2)
    hub = result.schema.dimension("hub")
    # enrichment against axis_a and axis_b both landed
    assert {"alpha_up", "beta_up"} <= set(hub.attributes)
    assert rows_of(hub)["h1"]["alpha_up"] == "up_a"
    assert rows_of(hub)["h1"]["beta_up"] == "up_b"


def test_fact_key_order_alignment():
    c = make_dimension("c", "cid", ("cid",), [("h", ("cid",))], [("c1",)])
    p = make_dimension("p", "pid", ("pid",), [("h", ("pid",))], [("p1",)])
    f1 = fact_from_rows("f", ("m",), (("c", "cid"), ("p", "pid")),
                        [{"cid": "c1", "pid": "p1", "m": Decimal(1)}], frozenset({"m"}))
    # the other fact declares its keys in the opposite order
    f2 = fact_from_rows("f", ("m",), (("p", "pid"), ("c", "cid")),
                        [{"cid": "c1", "pid": "p1", "m": Decimal(1)}], frozenset({"m"}))
    s1 = star_schema("s1", f1, (c, p))
    s2 = star_schema("s2", f2, (c, p))
    result = merge_stars(s1, s2)
    fact = result.schema.fact
    assert fact.key_columns() == ("cid", "pid")
    assert len(fact.rows) == 1  # the rows fused despite the declared order
    tc = next(t for t in result.report.tables if t.kind == "fact")
    assert tc.n_shared == 1


def test_min_support_filters_thin_evidence():
    rows1 = [{"K": "k1", "A": "a1"}, {"K": "k2", "A": "a2"}]
    rows2 = [{"K": "k1", "B": "b1"}, {"K": "k2", "B": "b2"}]
    tok1 = tokenize(("K", "A"), "l", {"K": "K"})
    tok2 = tokenize(("K", "B"), "r", {"K": "K"})
    edges1 = _segment_fd_edges(tok1, tok2, table(rows1), table(rows2), min_support=1)
    assert edges1  # two joined rows support something
    edges3 = _segment_fd_edges(tok1, tok2, table(rows1), table(rows2), min_support=3)
    assert edges3 == []


def _random_spec(rng, index):
    def ladder(base, steps):
        divs = []
        d = base
        for _ in range(steps):
            divs.append(d)
            d *= rng.choice([2, 3, 5])
        return divs

    dims = []
    for dn in range(rng.randint(1, 3)):
        rows = rng.choice([60, 120, 240, 600])
        n_chains = rng.randint(1, 2)
        attrs = [GenAttr(f"d{dn}_id")]
        chains = []
        views = {1: [], 2: []}
        for cn in range(n_chains):
            steps = rng.randint(1, 3)
            divs = ladder(rng.choice([2, 3, 5, 7]), steps)
            if max(divs) > rows:
                divs = [d for d in divs if d <= rows] or [2]
            names = [f"d{dn}_c{cn}_{i}" for i in range(len(divs))]
            attrs += [GenAttr(n, d) for n, d in zip(names, divs)]
            chains.append(GenChain(f"c{cn}", tuple([f"d{dn}_id"] + names)))
            for side in (1, 2):
                if cn == 0 or rng.random() < 0.8:
                    views[side].append(f"c{cn}")
        dims.append(GenDimension(f"dim{dn}", rows, tuple(attrs), tuple(chains),
                                 view1=tuple(views[1]), view2=tuple(views[2])))
    fact = GenFact("fx", rng.randint(50, 400), tuple(d.name for d in dims),
                   ("m1", "m2"))
    overlap = rng.choice([0.0, 0.25, 0.5, 0.75, 1.0])
    return GenSpec(f"fuzz{index}", 9000 + index, tuple(dims), (fact,), overlap)


def test_fuzzed_specs_respect_laws_and_validate():
    rng = random.Random(123456)
    done = 0
    attempts = 0
    while done < 50 and attempts < 200:
        attempts += 1
        spec = _random_spec(rng, attempts)
        try:
            dw1, dw2, _ = generate_pair(spec)
        except ValueError:
            continue  # a randomly infeasible spec, not interesting
        result = merge_stars(dw1, dw2, MatcherConfig(),
                             MergeSettings(chain_cap=64))
        assert validate(result.schema) == []
        dims_out = {d.name: d for d in result.schema.dimensions}
        for tc in result.report.tables:
            assert tc.n_merged == (tc.n_left or 0) + (tc.n_right or 0) - tc.n_shared
            if tc.kind == "dimension":
                assert tc.n_merged == len(dims_out[tc.table].rows)
        for ca in result.report.completions:
            assert ca.n_merged == (ca.n_left or 0) + (ca.n_right or 0) + ca.n_filled
            actual = sum(1 for r in rows_of(dims_out[ca.table]).values()
                         if r.get(ca.attribute) is not None)
            assert actual == ca.n_merged
        done += 1
    assert done == 50


def test_two_empty_warehouses_merge_to_an_empty_star(tmp_path):
    # Tables of no rows: every count is 0, not null, and a dimension of no
    # rows still counts as present.
    for dw, name in zip(generate_pair(preset_basic(seed=4, overlap=0.0)), ("dw1", "dw2")):
        assert not any(len(table.rows) for table in (*dw.dimensions, *dw.facts))
        io.write_dw(dw, tmp_path / name)
    s1, s2 = io.load_dw(tmp_path / "dw1", strict=True), io.load_dw(tmp_path / "dw2", strict=True)
    result = merge_stars(s1, s2)
    assert result.report.result_kind == "star"
    assert result.report.tables == [TableCount(t, kind, 0, 0, 0, 0) for t, kind in (
        ("customer", "dimension"), ("product", "dimension"), ("sales", "fact"))]
    io.write_dw(result.schema, tmp_path / "out")
    assert validate(io.load_dw(tmp_path / "out", strict=True)) == []
