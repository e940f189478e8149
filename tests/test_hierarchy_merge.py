import itertools
import random

import pytest

from dwmerge import hierarchy_merge
from dwmerge.config import MergeSettings
from dwmerge.errors import MergeError
from dwmerge.hierarchy_merge import (FdUndiscoverable, _segment_fd_edges, enumerate_fds,
                                     extend, merge_hierarchies, render_tokens, tokenize,
                                     transitive_reduction)
from dwmerge.model import Hierarchy

H1 = Hierarchy("H1", ("Code", "Department", "Region", "Continent"))
H2 = Hierarchy("H2", ("Code", "City", "Department", "Country", "Continent"))
PAIRS_FULL = {"Code": "Code", "Department": "Department", "Continent": "Continent"}


def rendered(result_seqs, side="l"):
    return {render_tokens(c, side) for c in result_seqs}


# ---------------------------------------------------------------------------
# matched parameter recording and slicing
# ---------------------------------------------------------------------------

@pytest.fixture
def segments(monkeypatch):
    """The sub-hierarchy pairs merge_hierarchies hands to merge_subhierarchy_pair."""
    seen = []
    real = hierarchy_merge.merge_subhierarchy_pair

    def record(seg1, seg2, *args):
        seen.append((render_tokens(seg1, "l"), render_tokens(seg2, "r")))
        return real(seg1, seg2, *args)

    monkeypatch.setattr(hierarchy_merge, "merge_subhierarchy_pair", record)
    return seen


def boundaries(segments):
    """Matched parameter pairs: each slice's first pair plus the last slice's end."""
    return [(a[0], b[0]) for a, b in segments] + [(segments[-1][0][-1], segments[-1][1][-1])]


def test_record_matched_parameters_full(segments):
    merge_hierarchies(H1, H2, [], [], PAIRS_FULL)
    assert boundaries(segments) == [
        ("Code", "Code"), ("Department", "Department"), ("Continent", "Continent")]


def test_record_appends_last_pair(segments):
    h3 = Hierarchy("H3", ("City", "Department", "Country"))
    pairs = {"Department": "Department", "Continent": "Continent"}
    merge_hierarchies(H1, h3, [], [], pairs)
    assert boundaries(segments) == [
        ("Department", "Department"), ("Continent", "Country")]


def test_record_disjoint_is_empty(segments):
    h = Hierarchy("x", ("A", "B"))
    res = merge_hierarchies(H1, h, [], [], {})
    assert segments == []
    assert res.merged_left == res.merged_right == ()


def test_record_rejects_crossing_matches():
    ha = Hierarchy("ha", ("A", "B"))
    hb = Hierarchy("hb", ("B2", "A2"))
    with pytest.raises(MergeError, match="cross"):
        merge_hierarchies(ha, hb, [], [], {"A": "A2", "B": "B2"})


def test_generate_subhierarchy_pairs(segments):
    merge_hierarchies(H1, H2, [], [], PAIRS_FULL)
    assert segments == [
        (("Code", "Department"), ("Code", "City", "Department")),
        (("Department", "Region", "Continent"),
         ("Department", "Country", "Continent"))]


def test_generate_subhierarchy_pairs_appended_tail(segments):
    h3 = Hierarchy("H3", ("City", "Department", "Country"))
    merge_hierarchies(H1, h3, [], [], {"Department": "Department"})
    assert segments[-1] == (
        ("Department", "Region", "Continent"), ("Department", "Country"))
    segments.clear()
    merge_hierarchies(H1, h3, [], [], {})
    assert segments == []


def test_identical_hierarchies_single_pair(segments):
    h = Hierarchy("h", ("Code", "Dept"))
    merge_hierarchies(h, h, [], [], {"Code": "Code", "Dept": "Dept"})
    assert segments == [(("Code", "Dept"), ("Code", "Dept"))]


# ---------------------------------------------------------------------------
# functional dependency discovery
# ---------------------------------------------------------------------------

def brute_force_fds(rows, attrs, min_support=1):
    """Oracle: check every ordered pair over every row pair."""
    out = set()
    for a, b in itertools.permutations(attrs, 2):
        pairs = [(r[a], r[b]) for r in rows if r[a] is not None and r[b] is not None]
        ok = all(x1 != x2 or y1 == y2
                 for (x1, y1), (x2, y2) in itertools.product(pairs, pairs))
        if ok and len(pairs) >= min_support:
            out.add((a, b))
    return out


def test_enumerate_fds_against_brute_force():
    rng = random.Random(4242)
    for _ in range(200):
        attrs = [f"a{i}" for i in range(rng.randint(2, 6))]
        rows = [{a: rng.choice([None, "x", "y", "z"]) for a in attrs}
                for _ in range(rng.randint(1, 25))]
        assert enumerate_fds(rows, attrs) == brute_force_fds(rows, attrs)


def fd_edges(params1, params2, rows1, rows2, pairs, min_support=1):
    """Reduced FD edges over one sub-hierarchy pair, as attribute names."""
    tok1 = tokenize(params1, "l", pairs)
    tok2 = tokenize(params2, "r", {v: k for k, v in pairs.items()})
    edges = _segment_fd_edges(tok1, tok2, rows1, rows2, min_support)
    return [(render_tokens([a], "l")[0], render_tokens([b], "l")[0]) for a, b in edges]


def test_discover_fds_region_country(d_left, d_location):
    edges = fd_edges(("Department", "Region", "Continent"),
                     ("Department", "Country", "Continent"),
                     d_left.rows.values(), d_location.rows.values(),
                     {"Department": "Department", "Continent": "Continent"})
    assert ("Region", "Country") in edges
    assert set(edges) == {("Department", "Region"), ("Region", "Country"),
                          ("Country", "Continent")}


def test_discover_fds_single_row_leaves_chain():
    rows1 = [{"A": "a", "B": "b"}]
    rows2 = [{"A": "a", "C": "c"}]
    edges = fd_edges(("A", "B"), ("A", "C"), rows1, rows2, {"A": "A"})
    # every pair holds on one row; reduction plus tie-breaking leaves a chain
    nodes = {n for e in edges for n in e}
    assert len(edges) == len(nodes) - 1
    starts = {a for a, _ in edges} - {b for _, b in edges}
    assert len(starts) == 1


def test_discover_fds_empty_join_signals():
    rows1 = [{"A": "a1", "B": "b"}]
    rows2 = [{"A": "zz", "C": "c"}]
    with pytest.raises(FdUndiscoverable):
        fd_edges(("A", "B"), ("A", "C"), rows1, rows2, {"A": "A"})


def test_fd_soundness_re_scan(d_left, d_right):
    # every reduced edge must hold with zero counterexamples on a re-scan
    edges = fd_edges(("Department", "Region", "Continent"),
                     ("Department", "Country", "Continent"),
                     d_left.rows.values(), d_right.rows.values(),
                     {"Department": "Department", "Continent": "Continent"})
    merged_rows = []
    for r1 in d_left.rows.values():
        for r2 in d_right.rows.values():
            if r1["Department"] == r2["Department"]:
                merged_rows.append({**r2, **{k: v for k, v in r1.items()
                                             if v is not None}})
    for a, b in edges:
        seen = {}
        for row in merged_rows:
            va, vb = row.get(a), row.get(b)
            if va is None or vb is None:
                continue
            assert seen.setdefault(va, vb) == vb, (a, b)


def test_transitive_reduction():
    edges = [("A", "B"), ("B", "C"), ("A", "C")]
    assert transitive_reduction(edges) == [("A", "B"), ("B", "C")]
    diamond = [("A", "B"), ("A", "C"), ("B", "D"), ("C", "D"), ("A", "D")]
    assert set(transitive_reduction(diamond)) == {
        ("A", "B"), ("A", "C"), ("B", "D"), ("C", "D")}


# ---------------------------------------------------------------------------
# extend
# ---------------------------------------------------------------------------

def test_extend():
    assert extend(("Code", "City", "Department"),
                  ("Department", "Region", "Country", "Continent")) == \
        ("Code", "City", "Department", "Region", "Country", "Continent")
    assert extend(("A", "B"), ("B",)) == ("A", "B")
    with pytest.raises(MergeError):
        extend(("Code",), ("Department", "Region"))


# ---------------------------------------------------------------------------
# full hierarchy merging
# ---------------------------------------------------------------------------

def test_merge_matched_roots_worked_example(d_left, d_right):
    h1 = d_left.hierarchy("H1")
    h3 = d_right.hierarchy("H3")
    res = merge_hierarchies(h1, h3, d_left.rows.values(), d_right.rows.values(),
                            {"Code": "Code", "Department": "Department",
                             "Continent": "Continent"})
    assert res.merged_left == res.merged_right
    assert rendered(res.merged_left) == {
        ("Code", "City", "Department", "Region", "Country", "Continent")}


def test_merge_unmatched_roots_worked_example(d_left, d_location):
    h1 = d_left.hierarchy("H1")
    h3 = d_location.hierarchy("H3")
    res = merge_hierarchies(h1, h3, d_left.rows.values(), d_location.rows.values(),
                            {"Department": "Department", "Continent": "Continent"})
    assert rendered(res.merged_left, "l") == {
        ("Code", "Department", "Region", "Country", "Continent")}
    assert rendered(res.merged_right, "r") == {
        ("City", "Department", "Region", "Country", "Continent")}


def test_merge_disjoint_keeps_sides():
    ha = Hierarchy("ha", ("A", "B"))
    hb = Hierarchy("hb", ("X", "Y"))
    res = merge_hierarchies(ha, hb, [], [], {})
    assert res.merged_left == () and res.merged_right == ()


def test_merge_containment_segment(d_left, d_right):
    # first segment of H1 x H3 is <Code, Department> vs <Code, City, Department>
    h1 = Hierarchy("a", ("Code", "Department"))
    h3 = Hierarchy("b", ("Code", "City", "Department"))
    res = merge_hierarchies(h1, h3, d_left.rows.values(), d_right.rows.values(),
                            {"Code": "Code", "Department": "Department"})
    assert rendered(res.merged_left) == {("Code", "City", "Department")}


def test_merge_undiscoverable_keeps_both():
    h1 = Hierarchy("a", ("K", "P"))
    h2 = Hierarchy("b", ("K", "Q"))
    rows1 = [{"K": "k1", "P": "p"}]
    rows2 = [{"K": "k9", "Q": "q"}]
    res = merge_hierarchies(h1, h2, rows1, rows2, {"K": "K"})
    assert rendered(res.merged_left) == {("K", "P"), ("K", "Q")}


def test_chain_cap_enforced():
    # K determines six incomparable attributes: every maximal chain is kept
    attrs1 = ("K", "P1", "P2", "P3")
    attrs2 = ("K", "Q1", "Q2", "Q3")
    h1 = Hierarchy("a", attrs1)
    h2 = Hierarchy("b", attrs2)
    rows1 = [{"K": f"k{i}", "P1": f"p1{i % 5}", "P2": f"p2{i % 3}", "P3": f"p3{i % 7}"}
             for i in range(40)]
    rows2 = [{"K": f"k{i}", "Q1": f"q1{i % 11}", "Q2": f"q2{i % 2}", "Q3": f"q3{i % 13}"}
             for i in range(40)]
    settings = MergeSettings(chain_cap=1)
    with pytest.raises(MergeError, match="cap"):
        merge_hierarchies(h1, h2, rows1, rows2, {"K": "K"}, settings)


def random_hierarchy_pair(rng):
    depth1 = rng.randint(1, 4)
    depth2 = rng.randint(1, 4)
    shared = [f"s{i}" for i in range(rng.randint(1, 3))]
    p1 = ["root1"] + [f"a{i}" for i in range(depth1)]
    p2 = ["root2"] + [f"b{i}" for i in range(depth2)]
    # plant shared attributes at random positions, orders aligned
    for s in shared:
        p1.insert(rng.randint(1, len(p1)), s + "_l")
        p2.insert(rng.randint(1, len(p2)), s + "_r")
    pairs = {s + "_l": s + "_r" for s in shared}
    roots_matched = rng.random() < 0.5
    if roots_matched:
        pairs["root1"] = "root2"
    # keep planted matches order-compatible
    order1 = [p for p in p1 if p in pairs]
    order2 = [pairs[p] for p in order1]
    real2 = [p for p in p2 if p in pairs.values()]
    if real2 != order2:
        return None
    return Hierarchy("h1", tuple(p1)), Hierarchy("h2", tuple(p2)), pairs, roots_matched


def random_rows(rng, params, n):
    return [{p: (None if rng.random() < 0.15 else f"{p}_{rng.randint(0, 3)}")
             for p in params} for _ in range(n)]


def test_partial_order_preservation_random():
    rng = random.Random(100)
    checked = 0
    while checked < 100:
        made = random_hierarchy_pair(rng)
        if made is None:
            continue
        h1, h2, pairs, roots_matched = made
        rows1 = random_rows(rng, h1.parameters, 12)
        for r in rows1:
            r[h1.parameters[0]] = f"k{rng.randint(0, 20)}"
        rows2 = random_rows(rng, h2.parameters, 12)
        for r in rows2:
            r[h2.parameters[0]] = f"k{rng.randint(0, 20)}"
        try:
            res = merge_hierarchies(h1, h2, rows1, rows2, pairs)
        except MergeError:
            continue
        checked += 1
        if roots_matched:
            assert res.merged_left == res.merged_right
        sets = {"l": rendered(res.merged_left, "l") | {h1.parameters},
                "r": rendered(res.merged_right, "r") | {h2.parameters}}
        for side, h in (("l", h1), ("r", h2)):
            for a, b in zip(h.parameters, h.parameters[1:]):
                assert any(a in seq and b in seq and seq.index(a) < seq.index(b)
                           for seq in sets[side]), (side, a, b)
