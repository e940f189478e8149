import itertools
import random
from decimal import Decimal
from typing import Iterable

import pytest

from dwmerge import hierarchy_merge
from dwmerge.config import MergeSettings
from dwmerge.errors import MergeError
from dwmerge.hierarchy_merge import (Token, TokenSeq, _segment_fd_edges, count_chains,
                                     enumerate_fds, extend, join_segment_rows, merge_hierarchies,
                                     render_tokens, tokenize, transitive_reduction)
from dwmerge.model import Cell, Hierarchy, Row, cells_equal

from conftest import table

H1 = Hierarchy("H1", ("Code", "Department", "Region", "Continent"))
H2 = Hierarchy("H2", ("Code", "City", "Department", "Country", "Continent"))
PAIRS_FULL = {"Code": "Code", "Department": "Department", "Continent": "Continent"}


def no_rows(h: Hierarchy):
    """An empty table with the columns of ``h``."""
    return table([], h.parameters)


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
    merge_hierarchies(H1, H2, no_rows(H1), no_rows(H2), PAIRS_FULL)
    assert boundaries(segments) == [
        ("Code", "Code"), ("Department", "Department"), ("Continent", "Continent")]


def test_record_appends_last_pair(segments):
    h3 = Hierarchy("H3", ("City", "Department", "Country"))
    pairs = {"Department": "Department", "Continent": "Continent"}
    merge_hierarchies(H1, h3, no_rows(H1), no_rows(h3), pairs)
    assert boundaries(segments) == [
        ("Department", "Department"), ("Continent", "Country")]


def test_record_disjoint_is_empty(segments):
    h = Hierarchy("x", ("A", "B"))
    res = merge_hierarchies(H1, h, no_rows(H1), no_rows(h), {})
    assert segments == []
    assert res.merged_left == res.merged_right == ()


def test_record_rejects_crossing_matches():
    ha = Hierarchy("ha", ("A", "B"))
    hb = Hierarchy("hb", ("B2", "A2"))
    with pytest.raises(MergeError, match="cross"):
        merge_hierarchies(ha, hb, no_rows(ha), no_rows(hb), {"A": "A2", "B": "B2"})


def test_generate_subhierarchy_pairs(segments):
    merge_hierarchies(H1, H2, no_rows(H1), no_rows(H2), PAIRS_FULL)
    assert segments == [
        (("Code", "Department"), ("Code", "City", "Department")),
        (("Department", "Region", "Continent"),
         ("Department", "Country", "Continent"))]


def test_generate_subhierarchy_pairs_appended_tail(segments):
    h3 = Hierarchy("H3", ("City", "Department", "Country"))
    merge_hierarchies(H1, h3, no_rows(H1), no_rows(h3), {"Department": "Department"})
    assert segments[-1] == (
        ("Department", "Region", "Continent"), ("Department", "Country"))
    segments.clear()
    merge_hierarchies(H1, h3, no_rows(H1), no_rows(h3), {})
    assert segments == []


def test_identical_hierarchies_single_pair(segments):
    h = Hierarchy("h", ("Code", "Dept"))
    merge_hierarchies(h, h, no_rows(h), no_rows(h), {"Code": "Code", "Dept": "Dept"})
    assert segments == [(("Code", "Dept"), ("Code", "Dept"))]


# ---------------------------------------------------------------------------
# functional dependency discovery
# ---------------------------------------------------------------------------

def brute_force_fds(rows, attrs, min_support=1):
    """Oracle: check every ordered pair over every row pair, comparing by cells_equal."""
    out = set()
    for a, b in itertools.permutations(attrs, 2):
        pairs = [(r[a], r[b]) for r in rows if r[a] is not None and r[b] is not None]
        ok = all(not cells_equal(x1, x2) or cells_equal(y1, y2)
                 for (x1, y1), (x2, y2) in itertools.product(pairs, pairs))
        if ok and len(pairs) >= min_support:
            out.add((a, b))
    return out


# Equal numbers spelt apart, and a text that looks like one of them.
TYPED_CELLS = [None, "x", "y", "z", Decimal("1"), Decimal("1.0"), Decimal("2"), "1"]


def test_enumerate_fds_against_brute_force():
    rng = random.Random(4242)
    for _ in range(300):
        attrs = [f"a{i}" for i in range(rng.randint(2, 6))]
        rows = [{a: rng.choice(TYPED_CELLS) for a in attrs}
                for _ in range(rng.randint(1, 25))]
        min_support = rng.choice([1, 2, 3])
        assert (enumerate_fds(table(rows, attrs), attrs, min_support)
                == brute_force_fds(rows, attrs, min_support))


def fd_edges(params1, params2, rows1, rows2, pairs, min_support=1):
    """Reduced FD edges over one sub-hierarchy pair, as attribute names."""
    tok1 = tokenize(params1, "l", pairs)
    tok2 = tokenize(params2, "r", {v: k for k, v in pairs.items()})
    edges = _segment_fd_edges(tok1, tok2, rows1, rows2, min_support)
    return [(render_tokens([a], "l")[0], render_tokens([b], "l")[0]) for a, b in edges]


def test_discover_fds_region_country(d_left, d_location):
    edges = fd_edges(("Department", "Region", "Continent"),
                     ("Department", "Country", "Continent"),
                     d_left.rows, d_location.rows,
                     {"Department": "Department", "Continent": "Continent"})
    assert ("Region", "Country") in edges
    assert set(edges) == {("Department", "Region"), ("Region", "Country"),
                          ("Country", "Continent")}


def test_discover_fds_single_row_leaves_chain():
    rows1 = [{"A": "a", "B": "b"}]
    rows2 = [{"A": "a", "C": "c"}]
    edges = fd_edges(("A", "B"), ("A", "C"), table(rows1), table(rows2), {"A": "A"})
    # every pair holds on one row; reduction plus tie-breaking leaves a chain
    nodes = {n for e in edges for n in e}
    assert len(edges) == len(nodes) - 1
    starts = {a for a, _ in edges} - {b for _, b in edges}
    assert len(starts) == 1


def test_discover_fds_keep_a_declared_roll_up_in_a_bijection():
    # mkt and grp are in bijection on the joined rows, where the tie-break
    # alone would orient grp -> mkt; the right side declares mkt -> grp
    rows1 = [{"id": "1", "city": "x"}, {"id": "2", "city": "y"}]
    rows2 = [{"id": "1", "mkt": "m1", "grp": "g1"}, {"id": "2", "mkt": "m2", "grp": "g2"}]
    edges = fd_edges(("id", "city"), ("id", "mkt", "grp"), table(rows1), table(rows2),
                     {"id": "id"})
    assert ("mkt", "grp") in edges
    assert ("grp", "mkt") not in edges and ("city", "id") not in edges


def test_discover_fds_empty_join_signals():
    rows1 = [{"A": "a1", "B": "b"}]
    rows2 = [{"A": "zz", "C": "c"}]
    assert fd_edges(("A", "B"), ("A", "C"), table(rows1), table(rows2), {"A": "A"}) == []


def test_join_reads_a_missing_projected_column_as_null():
    tok1 = tokenize(("A", "B"), "l", {"A": "A"})
    tok2 = tokenize(("A", "C"), "r", {"A": "A"})
    rows1 = [{"A": "a", "B": "b"}, {"A": "a2"}]  # the second row has no B
    rows2 = [{"A": "a", "C": "c"}, {"A": "a2", "C": "c2"}]
    joined = join_segment_rows(tok1, tok2, table(rows1), table(rows2))
    assert joined == [{("p", "A", "A"): "a", ("l", "B"): "b", ("r", "C"): "c"},
                      {("p", "A", "A"): "a2", ("l", "B"): None, ("r", "C"): "c2"}]


# A projection and join that read a row at a time: the reference for the
# rows, the row order and the key order that join_segment_rows returns.
def _reference_project(rows: Iterable[Row], columns: list[tuple[Token, str]]
                       ) -> list[tuple[Cell, ...]]:
    """Distinct projections of ``rows`` on ``columns`` in first-seen order.

    A column that a row lacks reads as null.
    """
    names = [name for _, name in columns]
    seen = set()
    out = []
    for row in rows:
        t = tuple(map(row.get, names))
        if t not in seen:
            seen.add(t)
            out.append(t)
    return out


def reference_join_segment_rows(tok1: TokenSeq, tok2: TokenSeq,
                                rows1: Iterable[Row], rows2: Iterable[Row]
                                ) -> list[dict[Token, Cell]]:
    """Inner-join the two projected instance sets on the shared first parameter.

    Projections are deduplicated first, so FD support counts distinct
    projected row combinations. Matched columns present on both sides take
    the left value and fall back to the right one when the left is null.
    """
    cols1 = [(t, t[1]) for t in tok1]
    cols2 = [(t, t[2] if t[0] == "p" else t[1]) for t in tok2]
    start = tok1[0]
    if start != tok2[0]:
        raise MergeError("sub-hierarchy pair does not share its first parameter")
    proj1 = _reference_project(rows1, cols1)
    proj2 = _reference_project(rows2, cols2)
    idx2: dict[Cell, list[tuple[Cell, ...]]] = {}
    pos2 = {t: i for i, (t, _) in enumerate(cols2)}
    for t2 in proj2:
        key = t2[pos2[start]]
        if key is not None:
            idx2.setdefault(key, []).append(t2)
    joined = []
    for t1 in proj1:
        key = t1[0]
        if key is None:
            continue
        for t2 in idx2.get(key, ()):
            row: dict[Token, Cell] = {}
            for (tok, _), v in zip(cols2, t2):
                row[tok] = v
            for (tok, _), v in zip(cols1, t1):
                if v is not None or tok not in row:
                    row[tok] = v
            joined.append(row)
    return joined


# Join keys: equal numbers spelt three ways, a look-alike text, and null.
JOIN_KEYS = [None, "k1", "k2", Decimal("1"), Decimal("1.0"), Decimal("1.00"), "1"]
# Join keys distinct by value, so a column drawn from them without
# repeats holds each value once, as a segment that starts at the root does.
DISTINCT_KEYS = [None, "k1", "k2", "k3", "k4", "k5", "k6", "k7", Decimal("1"), "1", 2]


def random_segment_rows(rng, params, n, first="repeats"):
    """Rows that may lack any non-first column, null-heavy. The first column
    repeats values (``"repeats"``, and whole rows repeat too), holds each
    value once (``"distinct"``), or does but for one number spelt a second
    way (``"respelt"``)."""
    if first == "repeats":
        firsts = [rng.choice(JOIN_KEYS) for _ in range(n)]
    else:
        firsts = rng.sample(DISTINCT_KEYS, min(n, len(DISTINCT_KEYS)))
        if first == "respelt":
            firsts += [Decimal("1.0")]
            rng.shuffle(firsts)
    rows = []
    for key in firsts:
        row = {params[0]: key}
        for p in params[1:]:
            if rng.random() < 0.8:
                row[p] = rng.choice([None, None, "u", "v", Decimal("2"), Decimal("2.0")])
        rows.append(row)
    if first == "repeats":
        rows += [dict(r) for r in rng.sample(rows, len(rows) // 3)]
    return rows


def test_join_segment_rows_matches_reference(monkeypatch):
    # Each side's first column repeats values, holds each once, or holds each
    # once but for a number spelt twice; the join gathers rows by position
    # only when both hold each value once, and both ways must meet the reference.
    rng = random.Random(1414)
    projections = []
    real_project = hierarchy_merge._project

    def project(rows, names):
        projections.append(names)
        return real_project(rows, names)

    monkeypatch.setattr(hierarchy_merge, "_project", project)
    gathered = 0
    for case in range(600):
        shared = ["M0", "M1"][:rng.randint(0, 2)]
        rest1 = shared + ["L0", "L1"][:rng.randint(0, 2)]
        rest2 = shared + ["R0", "R1"][:rng.randint(0, 2)]
        params1 = ["K", *rng.sample(rest1, len(rest1))]
        params2 = ["K", *rng.sample(rest2, len(rest2))]
        spelling = {p: p + "_r" for p in shared if rng.random() < 0.5}  # right-side names
        pairs = {p: spelling.get(p, p) for p in ["K", *shared]}
        tok1 = tokenize(params1, "l", pairs)
        tok2 = tokenize([spelling.get(p, p) for p in params2], "r",
                        {v: k for k, v in pairs.items()})
        first1, first2 = (rng.choice(["repeats", "distinct", "respelt"]) for _ in "12")
        rows1 = random_segment_rows(rng, params1, rng.randint(0, 12), first1)
        rows2 = [{spelling.get(k, k): v for k, v in r.items()}
                 for r in random_segment_rows(rng, params2, rng.randint(0, 12), first2)]
        columns1, columns2 = table(rows1, params1), table(rows2, [t[-1] for t in tok2])
        projections.clear()
        assert (repr(join_segment_rows(tok1, tok2, columns1, columns2))
                == repr(reference_join_segment_rows(tok1, tok2, rows1, rows2))), case
        unique = all(len({r["K"] for r in rows}) == len(rows) for rows in (rows1, rows2))
        assert (not projections) == unique, case
        gathered += unique
    assert 0 < gathered < 600


def test_merge_hierarchies_hands_the_joined_rows_to_fd_discovery(monkeypatch, d_left,
                                                                 d_location):
    # bench/spans.py counts these two calls through the module attributes
    joins, scans = [], []
    real_join, real_fds = hierarchy_merge.join_segment_rows, hierarchy_merge.enumerate_fds

    def join(*args):
        joins.append(real_join(*args))
        return joins[-1]

    def fds(rows, *args):
        scans.append(rows)
        return real_fds(rows, *args)

    monkeypatch.setattr(hierarchy_merge, "join_segment_rows", join)
    monkeypatch.setattr(hierarchy_merge, "enumerate_fds", fds)
    merge_hierarchies(d_left.hierarchy("H1"), d_location.hierarchy("H3"),
                      d_left.rows, d_location.rows,
                      {"Department": "Department", "Continent": "Continent"})
    assert joins and len(scans) == len(joins)
    assert all(rows is joined and len(rows) > 0 for rows, joined in zip(scans, joins))


def test_fd_soundness_re_scan(d_left, d_right):
    # every reduced edge must hold with zero counterexamples on a re-scan
    edges = fd_edges(("Department", "Region", "Continent"),
                     ("Department", "Country", "Continent"),
                     d_left.rows, d_right.rows,
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
    res = merge_hierarchies(h1, h3, d_left.rows, d_right.rows,
                            {"Code": "Code", "Department": "Department",
                             "Continent": "Continent"})
    assert res.merged_left == res.merged_right
    assert rendered(res.merged_left) == {
        ("Code", "City", "Department", "Region", "Country", "Continent")}


def test_merge_unmatched_roots_worked_example(d_left, d_location):
    h1 = d_left.hierarchy("H1")
    h3 = d_location.hierarchy("H3")
    res = merge_hierarchies(h1, h3, d_left.rows, d_location.rows,
                            {"Department": "Department", "Continent": "Continent"})
    assert rendered(res.merged_left, "l") == {
        ("Code", "Department", "Region", "Country", "Continent")}
    assert rendered(res.merged_right, "r") == {
        ("City", "Department", "Region", "Country", "Continent")}


def test_merge_disjoint_keeps_sides():
    ha = Hierarchy("ha", ("A", "B"))
    hb = Hierarchy("hb", ("X", "Y"))
    res = merge_hierarchies(ha, hb, no_rows(ha), no_rows(hb), {})
    assert res.merged_left == () and res.merged_right == ()


def test_merge_containment_segment(d_left, d_right):
    # first segment of H1 x H3 is <Code, Department> vs <Code, City, Department>
    h1 = Hierarchy("a", ("Code", "Department"))
    h3 = Hierarchy("b", ("Code", "City", "Department"))
    res = merge_hierarchies(h1, h3, d_left.rows, d_right.rows,
                            {"Code": "Code", "Department": "Department"})
    assert rendered(res.merged_left) == {("Code", "City", "Department")}


def test_merge_undiscoverable_keeps_both():
    h1 = Hierarchy("a", ("K", "P"))
    h2 = Hierarchy("b", ("K", "Q"))
    rows1 = [{"K": "k1", "P": "p"}]
    rows2 = [{"K": "k9", "Q": "q"}]
    res = merge_hierarchies(h1, h2, table(rows1), table(rows2), {"K": "K"})
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
    with pytest.raises(MergeError, match="merge into 2 chains over 1 of their 1 segments, "
                                         "over the cap of 1"):
        merge_hierarchies(h1, h2, table(rows1), table(rows2), {"K": "K"}, settings)


def test_chain_cap_bounds_the_hierarchy_pair():
    # Matched on K and M: the segments <K..M> and <M..C|D> each merge into
    # two spanning chains (A and B, C and D are incomparable), four in all.
    h1 = Hierarchy("a", ("K", "A", "M", "C"))
    h2 = Hierarchy("b", ("K", "B", "M", "D"))
    rows1 = [{"K": f"k{i}", "A": f"a{i % 8}", "M": f"m{i % 4}", "C": f"c{i % 4 // 2}"}
             for i in range(24)]
    rows2 = [{"K": f"k{i}", "B": f"b{i % 12}", "M": f"m{i % 4}", "D": f"d{i % 2}"}
             for i in range(24)]
    pairs = {"K": "K", "M": "M"}
    with pytest.raises(MergeError, match="merge into 4 chains over 2 of their 2 segments, over the cap of 2"):
        merge_hierarchies(h1, h2, table(rows1), table(rows2), pairs, MergeSettings(chain_cap=2))
    res = merge_hierarchies(h1, h2, table(rows1), table(rows2), pairs, MergeSettings(chain_cap=4))
    assert rendered(res.merged_left) == {("K", "A", "M", "C"), ("K", "A", "M", "D"),
                                         ("K", "B", "M", "C"), ("K", "B", "M", "D")}
    # An undiscoverable segment keeps both sides' parameters: two chains,
    # which the cap counts too.
    h1, h2 = Hierarchy("a", ("K", "P")), Hierarchy("b", ("K", "Q"))
    rows1, rows2 = [{"K": "k1", "P": "p"}], [{"K": "k9", "Q": "q"}]
    with pytest.raises(MergeError, match="merge into 2 chains over 1 of their 1 segments"):
        merge_hierarchies(h1, h2, table(rows1), table(rows2), {"K": "K"},
                          MergeSettings(chain_cap=1))


def test_chain_cap_raises_before_chains_are_listed(monkeypatch):
    # A segment whose reduced FD graph runs from K through 8 layers of 3
    # parameters to P: 3 ** 8 = 6561 spanning chains, counted, never listed.
    root, top = ("p", "K", "K"), ("l", "P")
    levels = [[root], *([("l", f"a{i}{j}") for j in range(3)] for i in range(8)), [top]]
    edges = [(a, b) for low, high in zip(levels, levels[1:]) for a in low for b in high]
    assert count_chains(edges, root, {top, ("r", "Q")}) == 6561
    monkeypatch.setattr(hierarchy_merge, "_segment_fd_edges", lambda *args: edges)

    def listed(*args):
        raise AssertionError("merge_parameters ran on a segment over the cap")

    monkeypatch.setattr(hierarchy_merge, "merge_parameters", listed)
    h1, h2 = Hierarchy("a", ("K", "P")), Hierarchy("b", ("K", "Q"))
    with pytest.raises(MergeError, match="merge into 6561 chains over 1 of their 1 segments, "
                                         "over the cap of 16"):
        merge_hierarchies(h1, h2, table([]), table([]), {"K": "K"}, MergeSettings())


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
            res = merge_hierarchies(h1, h2, table(rows1), table(rows2), pairs)
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
