"""Merging two hierarchies from different dimensions.

:func:`merge_hierarchies` runs the merge in four steps: record the matched
parameter pairs, slice both hierarchies into sub-hierarchy pairs between
consecutive matches, merge each pair (by containment, or by discovering
functional dependencies over the joined instances), and assemble the final
chains with ``extend``.

Internally every parameter is a token so that matched attributes from the
two dimensions unify without committing to either side's spelling:

    ("p", left_name, right_name)   matched pair of attributes
    ("l", name)                    attribute only on the left side
    ("r", name)                    attribute only on the right side

Callers render token chains back to attribute names once they know which
dimension the chain will live in.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Hashable, Iterable, Mapping, Sequence

from .config import MergeSettings
from .errors import MergeError
from .model import Cell, Hierarchy, Row, cells_equal

logger = logging.getLogger(__name__)

Token = tuple
TokenSeq = tuple[Token, ...]


class FdUndiscoverable(MergeError):
    """The instance join was empty, so no functional dependency can be observed."""


# ---------------------------------------------------------------------------
# tokens
# ---------------------------------------------------------------------------

def tokenize(params: Sequence[str], side: str, partner: Mapping[str, str]) -> TokenSeq:
    """Map attribute names to tokens; ``partner`` pairs them with the other side."""
    toks = []
    for p in params:
        other = partner.get(p)
        if other is None:
            toks.append((side, p))
        elif side == "l":
            toks.append(("p", p, other))
        else:
            toks.append(("p", other, p))
    return tuple(toks)


def render_tokens(seq: Iterable[Token], pair_side: str,
                  left_map: Mapping[str, str] | None = None,
                  right_map: Mapping[str, str] | None = None) -> tuple[str, ...]:
    """Token chain -> attribute names; ``pair_side`` picks the spelling of pairs."""
    left_map = left_map or {}
    right_map = right_map or {}
    out = []
    for t in seq:
        if t[0] == "p":
            name = t[1] if pair_side == "l" else t[2]
            out.append(left_map.get(name, name) if pair_side == "l" else right_map.get(name, name))
        elif t[0] == "l":
            out.append(left_map.get(t[1], t[1]))
        else:
            out.append(right_map.get(t[1], t[1]))
    return tuple(out)


# ---------------------------------------------------------------------------
# matched parameter pairs
# ---------------------------------------------------------------------------

def _matched_tokens(tok1: TokenSeq, tok2: TokenSeq) -> list[Token]:
    """Pair tokens appearing in both hierarchies, in first-hierarchy order."""
    in2 = {t: i for i, t in enumerate(tok2)}
    matched = [t for t in tok1 if t[0] == "p" and t in in2]
    positions = [in2[t] for t in matched]
    if positions != sorted(positions):
        crossing = [(a, b) for a, b in zip(matched, matched[1:])
                    if in2[a] > in2[b]]
        raise MergeError(
            "matched parameters cross between the two hierarchies: "
            + ", ".join(f"{a[1]}~{a[2]} vs {b[1]}~{b[2]}" for a, b in crossing))
    return matched


# ---------------------------------------------------------------------------
# functional dependencies
# ---------------------------------------------------------------------------

def enumerate_fds(rows: Sequence[Mapping[Hashable, Cell]], attrs: Sequence[Hashable],
                  min_support: int = 1) -> set[tuple[Hashable, Hashable]]:
    """All single-attribute FDs a -> b holding over the rows.

    Rows where either attribute is null are excluded from both support and
    violation counts; an edge needs at least ``min_support`` surviving rows.
    """
    out = set()
    for a in attrs:
        for b in attrs:
            if a == b:
                continue
            seen: dict[Cell, Cell] = {}
            support = 0
            holds = True
            for row in rows:
                va, vb = row.get(a), row.get(b)
                if va is None or vb is None:
                    continue
                support += 1
                prev = seen.get(va)
                if prev is None:
                    seen[va] = vb
                elif not cells_equal(prev, vb):
                    holds = False
                    break
            if holds and support >= min_support:
                out.add((a, b))
    return out


def resolve_two_cycles(edges: set[tuple], rows: Sequence[Mapping]) -> list[tuple]:
    """Break a<->b cycles: keep the edge from more distinct values to fewer.

    Ties break toward the lexicographically smaller determinant so the
    result is deterministic. Attributes related both ways have equal
    distinct counts only when they are in bijection, so orientation within
    such a group is consistent and the survivor set is acyclic.
    """
    counts: dict[Hashable, int] = {}

    def distinct(attr) -> int:
        if attr not in counts:
            counts[attr] = len({row.get(attr) for row in rows} - {None})
        return counts[attr]

    kept = []
    for a, b in sorted(edges):
        if (b, a) not in edges:
            kept.append((a, b))
            continue
        ca, cb = distinct(a), distinct(b)
        if ca > cb or (ca == cb and a < b):
            kept.append((a, b))
            logger.debug("two-cycle %r <-> %r oriented %r -> %r", a, b, a, b)
    return kept


def transitive_reduction(edges: Sequence[tuple]) -> list[tuple]:
    """Drop edges implied by longer paths; input must be acyclic."""
    succ: dict[Hashable, list] = {}
    for a, b in edges:
        succ.setdefault(a, []).append(b)

    desc: dict[Hashable, set] = {}

    def descendants(n) -> set:
        if n not in desc:
            desc[n] = set()  # guard against cycles; caller guarantes a DAG
            acc = set()
            for m in succ.get(n, ()):
                acc.add(m)
                acc |= descendants(m)
            desc[n] = acc
        return desc[n]

    return [(a, b) for a, b in edges
            if not any(b in descendants(c) for c in succ[a] if c != b)]


def _check_acyclic(seqs: Iterable[Sequence[Hashable]]) -> None:
    succ: dict[Hashable, set] = {}
    for s in seqs:
        for a, b in zip(s, s[1:]):
            succ.setdefault(a, set()).add(b)
    state: dict[Hashable, int] = {}

    def visit(n) -> bool:
        state[n] = 1
        for m in succ.get(n, ()):
            st = state.get(m, 0)
            if st == 1 or (st == 0 and visit(m)):
                return True
        state[n] = 2
        return False

    for n in list(succ):
        if state.get(n, 0) == 0 and visit(n):
            raise MergeError("cannot merge parameter orderings: the roll-up graph is cyclic")


def merge_parameters(ordered_sets: Sequence[Sequence[Hashable]]) -> set[tuple]:
    """Recursively fuse orderings that overlap on all but one endpoint.

    Two sequences fuse when one's non-first suffix equals the other's
    non-last prefix; fused results feed the next round, unfused sequences
    carry over, and the recursion stops when nothing fuses. On a set of
    two-element orderings this yields exactly the maximal chains of the
    corresponding acyclic graph.
    """
    seqs: list[tuple] = []
    for s in ordered_sets:
        t = tuple(s)
        if len(t) < 2:
            raise ValueError("orderings must have at least two elements")
        if t not in seqs:
            seqs.append(t)
    _check_acyclic(seqs)

    def round_(current: list[tuple]) -> list[tuple]:
        fused: list[tuple] = []
        merged_flag = [False] * len(current)
        any_merged = False
        for i in range(len(current)):
            for j in range(i + 1, len(current)):
                x, y = current[i], current[j]
                if x[1:] == y[:-1]:
                    fused.append(x + (y[-1],))
                    merged_flag[i] = merged_flag[j] = any_merged = True
                if y[1:] == x[:-1]:
                    fused.append(y + (x[-1],))
                    merged_flag[i] = merged_flag[j] = any_merged = True
        if not any_merged:
            return current
        for m, s in enumerate(current):
            if not merged_flag[m]:
                fused.append(s)
        deduped: list[tuple] = []
        for s in fused:
            if s not in deduped:
                deduped.append(s)
        return round_(deduped)

    return set(round_(seqs))


# ---------------------------------------------------------------------------
# merging one sub-hierarchy pair
# ---------------------------------------------------------------------------

def _project(rows: Iterable[Row], columns: list[tuple[Token, str]]) -> list[tuple[Cell, ...]]:
    seen = set()
    out = []
    for row in rows:
        t = tuple(row.get(name) for _, name in columns)
        if t not in seen:
            seen.add(t)
            out.append(t)
    return out


def join_segment_rows(tok1: TokenSeq, tok2: TokenSeq,
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
    proj1 = _project(rows1, cols1)
    proj2 = _project(rows2, cols2)
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


def _segment_fd_edges(tok1: TokenSeq, tok2: TokenSeq,
                      rows1: Iterable[Row], rows2: Iterable[Row],
                      min_support: int) -> list[tuple[Token, Token]]:
    """Reduced FD edges over the joined instances of a sub-hierarchy pair.

    Raises :class:`FdUndiscoverable` when the join is empty (no shared
    values on the first parameter).
    """
    joined = join_segment_rows(tok1, tok2, rows1, rows2)
    if not joined:
        raise FdUndiscoverable("no shared values on the first parameter of the pair")
    attrs = list(tok1) + [t for t in tok2 if t not in tok1]
    raw = enumerate_fds(joined, attrs, min_support)
    dag = resolve_two_cycles(raw, joined)
    return transitive_reduction(dag)


def merge_subhierarchy_pair(tok1: TokenSeq, tok2: TokenSeq,
                            rows1: Iterable[Row], rows2: Iterable[Row],
                            settings: MergeSettings) -> list[TokenSeq]:
    """Merge one sub-hierarchy pair into one or more parameter chains.

    Containment wins outright; otherwise FD discovery orders the parameters
    and only chains spanning the pair's shared first parameter and reaching
    one of its last parameters survive. When nothing can be discovered the
    pair is kept as-is.
    """
    set1, set2 = set(tok1), set(tok2)
    if set1 <= set2:
        return [tok2]
    if set2 <= set1:
        return [tok1]
    try:
        edges = _segment_fd_edges(tok1, tok2, rows1, rows2, settings.min_support)
    except FdUndiscoverable:
        return [tok1, tok2]
    if not edges:
        return [tok1, tok2]
    chains = merge_parameters([list(e) for e in sorted(edges)])
    ends = {tok1[-1], tok2[-1]}
    spanning = sorted(c for c in chains if c[0] == tok1[0] and c[-1] in ends)
    if not spanning:
        return [tok1, tok2]
    if len(spanning) > settings.chain_cap:
        raise MergeError(
            f"sub-hierarchy merge produced {len(spanning)} chains, over the cap "
            f"of {settings.chain_cap}; raise --chain-cap or fix the correspondences")
    return spanning


# ---------------------------------------------------------------------------
# assembling merged hierarchies
# ---------------------------------------------------------------------------

def extend(a: Sequence[Hashable], b: Sequence[Hashable]) -> tuple:
    """Concatenate two chains sharing their boundary element, keeping it once."""
    a, b = tuple(a), tuple(b)
    if not a or not b or a[-1] != b[0]:
        raise MergeError(
            f"cannot extend: last element {a[-1] if a else None!r} does not "
            f"match first element {b[0] if b else None!r}")
    return a + b[1:]


@dataclass(frozen=True)
class HierarchyMergeResult:
    """Merge-produced chains; the caller re-adds the original hierarchies.

    Each side gets the merged chains extended down to its own root. With
    matched roots the first matched parameter is the root itself, so both
    sides get the same chains. Chains may coincide with an original
    parameter sequence; schema assembly dedupes them, but they still drive
    empty-value completion.
    """

    merged_left: tuple[TokenSeq, ...] = ()
    merged_right: tuple[TokenSeq, ...] = ()


def merge_hierarchies(h1: Hierarchy, h2: Hierarchy,
                      rows1: Iterable[Row], rows2: Iterable[Row],
                      pairs: Mapping[str, str],
                      settings: MergeSettings = MergeSettings()) -> HierarchyMergeResult:
    """Merge two hierarchies from different dimensions.

    ``pairs`` maps matched attributes of the first dimension to the second.
    ``rows1``/``rows2`` are the parent dimensions' instances; they feed FD
    discovery for segments whose parameters both sides contribute to.
    Crossing matches raise :class:`MergeError`; with no match at all the
    result is empty.
    """
    tok1 = tokenize(h1.parameters, "l", pairs)
    inverse = {v: k for k, v in pairs.items()}
    tok2 = tokenize(h2.parameters, "r", inverse)
    matched = _matched_tokens(tok1, tok2)
    if not matched:
        return HierarchyMergeResult()

    # step 1: the matched pairs, plus the pair of last parameters so that
    # both tails stay reachable
    entries: list[tuple[Token, Token]] = [(t, t) for t in matched]
    if (tok1[-1], tok2[-1]) != entries[-1]:
        entries.append((tok1[-1], tok2[-1]))

    pos1 = {t: i for i, t in enumerate(tok1)}
    pos2 = {t: i for i, t in enumerate(tok2)}
    rows1 = list(rows1)
    rows2 = list(rows2)

    # steps 2 and 3: slice between consecutive entries and merge each slice
    acc: list[TokenSeq] = []
    for (s1, s2), (e1, e2) in zip(entries, entries[1:]):
        seg1 = tok1[pos1[s1]:pos1[e1] + 1]
        seg2 = tok2[pos2[s2]:pos2[e2] + 1]
        pieces = merge_subhierarchy_pair(seg1, seg2, rows1, rows2, settings)
        if not acc:
            acc = list(pieces)
        else:
            acc = [extend(a, p) for a in acc for p in pieces]

    def extended(prefix: TokenSeq) -> tuple[TokenSeq, ...]:
        out: list[TokenSeq] = []
        for c in acc:
            s = extend(prefix, c)
            if s not in out:
                out.append(s)
        return tuple(out)

    # step 4: prefix each side's parameters up to its first matched one
    first = entries[0][0]
    return HierarchyMergeResult(merged_left=extended(tok1[:pos1[first] + 1]),
                                merged_right=extended(tok2[:pos2[first] + 1]))
