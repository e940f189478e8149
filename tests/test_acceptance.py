"""Acceptance suite: one test per shipped guarantee, one PASS line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import copy
import filecmp
import itertools
import random
import time

from dwmerge import io
from dwmerge.dimension_merge import merge_dimensions
from dwmerge.errors import MergeError
from dwmerge.generator import (generate_pair, preset_basic, preset_const22,
                               preset_divergent, preset_star4)
from dwmerge.hierarchy_merge import (enumerate_fds, merge_hierarchies,
                                     merge_parameters, render_tokens)
from dwmerge.matching import MatcherConfig, match_attributes
from dwmerge.model import Hierarchy
from dwmerge.star_merge import merge_stars, prune_hierarchies

from conftest import (H24_PARAMS, customer_left, customer_right, location_dim, maximal_paths,
                      table)

H1 = Hierarchy("H1", ("Code", "Department", "Region", "Continent"))
H2 = Hierarchy("H2", ("Code", "City", "Department", "Country", "Continent"))
HM = ("Code", "City", "Department", "Region", "Country", "Continent")


def report_pass(name, started):
    print(f"PASS  {name}  ({time.perf_counter() - started:.2f}s)")


def timed():
    return time.perf_counter()


# 1 ------------------------------------------------------------------------

def test_accept_parameter_merge_golden():
    t = timed()
    fd = [("A", "B"), ("B", "C"), ("B", "F"), ("C", "E"), ("D", "B")]
    assert merge_parameters(fd) == {
        ("A", "B", "C", "E"), ("D", "B", "C", "E"),
        ("A", "B", "F"), ("D", "B", "F")}
    assert time.perf_counter() - t < 1.0
    report_pass("parameter-merge golden", t)


# 2 ------------------------------------------------------------------------

def test_accept_hierarchy_merge_matched_roots():
    t = timed()
    d1, d2 = customer_left(), customer_right()
    res = merge_hierarchies(H1, H2, d1.rows, d2.rows,
                            {"Code": "Code", "Department": "Department",
                             "Continent": "Continent"})
    assert res.merged_left == res.merged_right
    merged = {render_tokens(c, "l") for c in res.merged_left}
    assert merged == {HM}
    assert merged | {H1.parameters, H2.parameters} == {
        HM, H1.parameters, H2.parameters}
    assert time.perf_counter() - t < 1.0
    report_pass("hierarchy merge, matched roots golden", t)


# 3 ------------------------------------------------------------------------

def test_accept_hierarchy_merge_unmatched_roots():
    t = timed()
    d1, loc = customer_left(), location_dim()
    h3 = loc.hierarchy("H3")
    res = merge_hierarchies(H1, h3, d1.rows, loc.rows,
                            {"Department": "Department", "Continent": "Continent"})
    left = {render_tokens(c, "l") for c in res.merged_left} | {H1.parameters}
    right = {render_tokens(c, "r") for c in res.merged_right} | {h3.parameters}
    assert left == {("Code", "Department", "Region", "Country", "Continent"),
                    H1.parameters}
    assert right == {("City", "Department", "Region", "Country", "Continent"),
                     h3.parameters}
    assert time.perf_counter() - t < 1.0
    report_pass("hierarchy merge, unmatched roots golden", t)


# 4 ------------------------------------------------------------------------

def test_accept_empty_value_completion():
    t = timed()
    d1, d2 = customer_left(), customer_right()
    res = merge_dimensions(d1, d2, match_attributes(d1, d2, MatcherConfig()))
    dim = res.dimension
    fill = next(f for f in res.completion_log
                if f.row_key == "C09" and f.attribute == "Region")
    assert fill.value == "reg_2" and fill.donor_key == "C07"
    assert dim.rows["C09"]["Region"] == "reg_2"
    assert dim.rows["C03"]["City"] is None
    assert dim.rows["C03"]["Country"] is None
    assert time.perf_counter() - t < 1.0
    report_pass("empty-value completion golden", t)


# 5 ------------------------------------------------------------------------

def test_accept_pruning():
    t = timed()
    h4 = ("Code", "Profession", "Subcategory")
    for stub, expect_kept in ((False, False), (True, True)):
        d1, d2 = customer_left(), customer_right(include_stub=stub)
        res = merge_dimensions(d1, d2, match_attributes(d1, d2, MatcherConfig()))
        pruned, removed = prune_hierarchies(res.dimension)
        kept = h4 in {h.parameters for h in pruned.hierarchies}
        assert kept == expect_kept
        if not stub:
            assert (h4, "subsumedByMerged") in {(h.parameters, r) for h, r in removed}
            assert H24_PARAMS in {h.parameters for h in pruned.hierarchies}
    assert time.perf_counter() - t < 1.0
    report_pass("hierarchy pruning", t)


# 6 ------------------------------------------------------------------------

def _law_specs():
    overlaps = [0.0, 0.5, 0.75, 1.0]
    specs = []
    for i in range(196):
        overlap = overlaps[i % 4]
        seed = 1000 + i
        kind = i % 7
        if kind in (0, 1):
            specs.append(preset_basic(seed=seed, overlap=overlap,
                                      rows=100 + 37 * (i % 9)))
        elif kind in (2, 3):
            specs.append(preset_divergent(seed=seed, overlap=overlap))
        elif kind == 4:
            specs.append(preset_star4(seed=seed, overlap=overlap))
        elif kind == 5:
            specs.append(preset_const22(seed=seed, overlap=overlap))
        else:
            specs.append(preset_basic(seed=seed, overlap=overlap,
                                      rows=1500, fact_rows=8000))
    # the desk-scale upper bound
    specs.append(preset_basic(seed=4242, overlap=0.75, rows=10000,
                              fact_rows=100000))
    specs.append(preset_basic(seed=4243, overlap=0.5, rows=10000,
                              fact_rows=100000))
    specs.append(preset_divergent(seed=4244, overlap=0.75, rows=4000,
                                  fact_rows=40000))
    specs.append(preset_basic(seed=4245, overlap=1.0, rows=5000,
                              fact_rows=50000))
    return specs


def _check_counts_against_schema(dw1, dw2, result):
    schema = result.schema
    dims_out = {d.name: d for d in schema.dimensions}
    facts_out = {f.name: f for f in schema.facts}
    in1 = {d.name: d for d in dw1.dimensions}
    in2 = {d.name: d for d in dw2.dimensions}
    for tc in result.report.tables:
        assert tc.n_merged == (tc.n_left or 0) + (tc.n_right or 0) - tc.n_shared
        if tc.kind == "dimension":
            dim = dims_out[tc.table]
            assert tc.n_merged == len(dim.rows)
            if tc.table in in1 and tc.n_left is not None:
                assert tc.n_left == len(in1[tc.table].rows)
            if tc.table in in2 and tc.n_right is not None:
                assert tc.n_right == len(in2[tc.table].rows)
            if tc.table in in1 and tc.table in in2 and tc.n_right is not None \
                    and tc.n_left is not None:
                assert tc.n_shared == len(set(in1[tc.table].rows)
                                          & set(in2[tc.table].rows))
        else:
            assert tc.n_merged == len(facts_out[tc.table].rows)
    for ca in result.report.completions:
        assert ca.n_merged == (ca.n_left or 0) + (ca.n_right or 0) + ca.n_filled
        dim = dims_out[ca.table]
        actual = sum(1 for r in dim.rows.values() if r.get(ca.attribute) is not None)
        assert actual == ca.n_merged


def test_accept_count_laws_desk_scale():
    t = timed()
    specs = _law_specs()
    assert len(specs) == 200
    for spec in specs:
        dw1, dw2, _ = generate_pair(spec)
        result = merge_stars(dw1, dw2)
        _check_counts_against_schema(dw1, dw2, result)
    elapsed = time.perf_counter() - t
    assert elapsed < 300
    report_pass(f"count laws over {len(specs)} generated merges", t)


# 7 ------------------------------------------------------------------------

def _brute_force_fds(rows, attrs):
    out = set()
    for a, b in itertools.permutations(attrs, 2):
        pairs = [(r[a], r[b]) for r in rows
                 if r[a] is not None and r[b] is not None]
        if not pairs:
            continue
        if all(x1 != x2 or y1 == y2
               for (x1, y1), (x2, y2) in itertools.combinations(pairs, 2)):
            out.add((a, b))
    return out


def test_accept_fd_and_chain_oracles():
    t = timed()
    rng = random.Random(777)
    for _ in range(500):
        attrs = [f"a{i}" for i in range(rng.randint(2, 8))]
        rows = [{a: rng.choice([None, "u", "v", "w", "x"]) for a in attrs}
                for _ in range(rng.randint(1, 50))]
        assert enumerate_fds(table(rows, attrs), attrs) == _brute_force_fds(rows, attrs)
    for _ in range(500):
        n = rng.randint(2, 7)
        labels = [f"n{i}" for i in range(n)]
        rng.shuffle(labels)
        edges = [(labels[i], labels[j]) for i in range(n) for j in range(i + 1, n)
                 if rng.random() < 0.45]
        if not edges:
            continue
        assert merge_parameters(edges) == maximal_paths(edges)
    elapsed = time.perf_counter() - t
    assert elapsed < 120
    report_pass("FD and maximal-chain oracle equivalence", t)


# 8 ------------------------------------------------------------------------

def test_accept_shape_reproduction(tmp_path):
    t = timed()
    s1, s2, _ = generate_pair(preset_star4(seed=11))
    star = merge_stars(s1, s2)
    assert star.schema.fact is not None
    assert star.report.result_kind == "star"

    c1, c2, _ = generate_pair(preset_const22(seed=11))
    io.write_dw(c1, tmp_path / "in1")
    io.write_dw(c2, tmp_path / "in2")
    const = merge_stars(c1, c2)
    assert const.schema.fact is None
    io.write_dw(const.schema, tmp_path / "out")
    for fact, src in (("sales_parts", "in1"), ("sales_dates", "in2")):
        before = (tmp_path / src / f"{fact}.csv").read_bytes()
        after = (tmp_path / "out" / f"{fact}.csv").read_bytes()
        assert before == after, f"{fact} instances changed"
    elapsed = time.perf_counter() - t
    assert elapsed < 30
    report_pass("star and constellation shape reproduction", t)


# 9 ------------------------------------------------------------------------

def _value_equal_to_input(schema, original):
    for d in original.dimensions:
        out = schema.dimension(d.name)
        assert set(out.attributes) == set(d.attributes)
        assert {h.parameters for h in out.hierarchies} == \
            {h.parameters for h in d.hierarchies}
        assert out.rows == d.rows
    key_cols = original.fact.key_columns()

    def canon(rows):
        return sorted(rows, key=lambda r: tuple(str(r[c]) for c in key_cols))

    assert set(schema.fact.measures) == set(original.fact.measures)
    assert canon(schema.fact.rows) == canon(original.fact.rows)


def test_accept_idempotence_and_determinism(tmp_path):
    t = timed()
    cases = [
        generate_pair(preset_basic(seed=31))[0],
        generate_pair(preset_basic(seed=88, overlap=0.5))[0],
        generate_pair(preset_star4(seed=7))[0],
        generate_pair(preset_divergent(seed=19, overlap=1.0))[0],
        generate_pair(preset_const22(seed=12))[1],
    ]
    for i, dw in enumerate(cases):
        result = merge_stars(dw, copy.deepcopy(dw))
        for tc in result.report.tables:
            assert tc.n_shared == tc.n_left == tc.n_right == tc.n_merged
        _value_equal_to_input(result.schema, dw)
        io.write_dw(result.schema, tmp_path / f"run_a_{i}")
        io.write_dw(merge_stars(dw, copy.deepcopy(dw)).schema,
                    tmp_path / f"run_b_{i}")
        names = [p.name for p in sorted((tmp_path / f"run_a_{i}").iterdir())]
        match, mismatch, errors = filecmp.cmpfiles(
            tmp_path / f"run_a_{i}", tmp_path / f"run_b_{i}", names, shallow=False)
        assert not mismatch and not errors
    elapsed = time.perf_counter() - t
    assert elapsed < 60
    report_pass("self-merge idempotence and byte determinism", t)


# 10 -----------------------------------------------------------------------

def _random_hierarchy_pair(rng):
    shared = [f"s{i}" for i in range(rng.randint(1, 3))]
    p1 = ["root1"] + [f"a{i}" for i in range(rng.randint(1, 4))]
    p2 = ["root2"] + [f"b{i}" for i in range(rng.randint(1, 4))]
    for s in shared:
        p1.insert(rng.randint(1, len(p1)), s + "_l")
        p2.insert(rng.randint(1, len(p2)), s + "_r")
    pairs = {s + "_l": s + "_r" for s in shared}
    roots_matched = rng.random() < 0.5
    if roots_matched:
        pairs["root1"] = "root2"
    order2 = [pairs[p] for p in p1 if p in pairs]
    if [p for p in p2 if p in pairs.values()] != order2:
        return None
    return Hierarchy("x", tuple(p1)), Hierarchy("y", tuple(p2)), pairs, roots_matched


def test_accept_partial_order_preservation():
    t = timed()
    rng = random.Random(2024)
    checked = 0
    while checked < 100:
        made = _random_hierarchy_pair(rng)
        if made is None:
            continue
        h1, h2, pairs, roots_matched = made
        rows1 = [{p: (None if rng.random() < 0.2 else f"{p}{rng.randint(0, 2)}")
                  for p in h1.parameters} for _ in range(10)]
        rows2 = [{p: (None if rng.random() < 0.2 else f"{p}{rng.randint(0, 2)}")
                  for p in h2.parameters} for _ in range(10)]
        for r in rows1:
            r[h1.parameters[0]] = f"k{rng.randint(0, 12)}"
        for r in rows2:
            r[h2.parameters[0]] = f"k{rng.randint(0, 12)}"
        try:
            res = merge_hierarchies(h1, h2, table(rows1), table(rows2), pairs)
        except MergeError:
            continue
        checked += 1
        if roots_matched:
            assert res.merged_left == res.merged_right
        left = {render_tokens(c, "l") for c in res.merged_left} | {h1.parameters}
        right = {render_tokens(c, "r") for c in res.merged_right} | {h2.parameters}
        for series, h in ((left, h1), (right, h2)):
            for a, b in zip(h.parameters, h.parameters[1:]):
                assert any(a in seq and b in seq and seq.index(a) < seq.index(b)
                           for seq in series), (a, b)
    elapsed = time.perf_counter() - t
    assert elapsed < 60
    report_pass("partial-order preservation on 100 random pairs", t)
