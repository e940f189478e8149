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

Instances are read a column at a time (:meth:`model.Rows.cells`): the join of
a sub-hierarchy pair builds a column per token, which FD discovery reads.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from graphlib import CycleError, TopologicalSorter
from typing import Hashable, Iterable, Mapping, Sequence

from .config import MergeSettings
from .errors import MergeError
from .model import Cell, Hierarchy, RowList, Rows

logger = logging.getLogger(__name__)

Token = tuple
TokenSeq = tuple[Token, ...]


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


def render_tokens(seq: Iterable[Token], side: str,
                  foreign: Mapping[str, str] | None = None) -> tuple[str, ...]:
    """Token chain -> attribute names of the dimension on ``side``.

    Pairs and ``side``'s own tokens take that side's spelling; the other
    side's tokens are renamed through ``foreign`` where it names them.
    """
    foreign = foreign or {}
    out = []
    for t in seq:
        if t[0] == "p":
            out.append(t[1] if side == "l" else t[2])
        elif t[0] == side:
            out.append(t[1])
        else:
            out.append(foreign.get(t[1], t[1]))
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

def enumerate_fds(rows: Rows, attrs: Sequence[Hashable],
                  min_support: int = 1) -> set[tuple[Hashable, Hashable]]:
    """All single-attribute FDs a -> b holding over the rows.

    Rows where either attribute is null are excluded from both support and
    violation counts; an edge needs at least ``min_support`` surviving rows.
    The scans read the columns of ``rows`` (:meth:`model.Rows.cells`); a
    scan stops at its first violation. On two non-null cells ``!=`` is
    ``not model.cells_equal``.
    """
    cols = {a: rows.cells(a) for a in attrs}
    out = set()
    for a in attrs:
        for b in attrs:
            if a == b:
                continue
            seen: dict[Cell, Cell] = {}
            support = 0
            holds = True
            for va, vb in zip(cols[a], cols[b]):
                if va is None or vb is None:
                    continue
                support += 1
                if seen.setdefault(va, vb) != vb:
                    holds = False
                    break
            if holds and support >= min_support:
                out.add((a, b))
    return out


def resolve_two_cycles(edges: set[tuple], rows: Rows) -> list[tuple]:
    """Break a<->b cycles: keep the edge from more distinct values to fewer.

    Ties break toward the lexicographically smaller determinant so the
    result is deterministic. Attributes related both ways have equal
    distinct counts only when they are in bijection, so orientation within
    such a group is consistent and the survivor set is acyclic.
    """
    cyclic = {a for a, b in edges if (b, a) in edges}
    distinct = {a: len(set(rows.cells(a)) - {None}) for a in cyclic}
    kept = []
    for a, b in sorted(edges):
        if (b, a) not in edges:
            kept.append((a, b))
            continue
        ca, cb = distinct[a], distinct[b]
        if ca > cb or (ca == cb and a < b):
            kept.append((a, b))
            logger.debug("two-cycle %r <-> %r oriented %r -> %r", a, b, a, b)
    return kept


def _descendants(n, succ: Mapping[Hashable, list], desc: dict[Hashable, set]) -> set:
    """The nodes reachable from ``n``, memoised in ``desc``.

    A module-level function, not a closure over ``desc``: a closure that
    calls itself is a reference cycle only the cyclic collector frees.
    """
    if n not in desc:
        desc[n] = set()  # guard against cycles; caller guarantees a DAG
        acc = set()
        for m in succ.get(n, ()):
            acc.add(m)
            acc |= _descendants(m, succ, desc)
        desc[n] = acc
    return desc[n]


def transitive_reduction(edges: Sequence[tuple]) -> list[tuple]:
    """Drop edges implied by longer paths; input must be acyclic."""
    succ: dict[Hashable, list] = {}
    for a, b in edges:
        succ.setdefault(a, []).append(b)
    desc: dict[Hashable, set] = {}
    return [(a, b) for a, b in edges
            if not any(b in _descendants(c, succ, desc) for c in succ[a] if c != b)]


def _roll_up_graph(ordered_sets: Sequence[Sequence[Hashable]]
                   ) -> tuple[dict[Hashable, set], set[Hashable], list[Hashable]]:
    """The roll-up graph the orderings describe, each adding its consecutive
    pairs as edges: every parameter's successors, the parameters something
    rolls up into, and every parameter listed after all it rolls up into."""
    seqs = [tuple(s) for s in ordered_sets]
    if any(len(s) < 2 for s in seqs):
        raise ValueError("orderings must have at least two elements")
    succ: dict[Hashable, set] = {}
    rolled_into: set[Hashable] = set()
    for s in seqs:
        for a, b in zip(s, s[1:]):
            succ.setdefault(a, set()).add(b)
            rolled_into.add(b)
    try:  # the sorter reads succ as predecessor sets; a cycle is one either way
        order = list(TopologicalSorter(succ).static_order())
    except CycleError:
        raise MergeError("cannot merge parameter orderings: the roll-up graph is cyclic") from None
    return succ, rolled_into, order


def merge_parameters(ordered_sets: Sequence[Sequence[Hashable]]) -> set[tuple]:
    """Every maximal chain of the roll-up graph the orderings describe.

    Each ordering adds its consecutive pairs as roll-up edges. The result is
    every path that starts at a parameter nothing rolls up into and ends at
    one that rolls up into nothing. On two-element orderings, which is what
    the pipeline passes, this equals the paper's recursive fusion of
    orderings that overlap on all but one endpoint.
    """
    succ, rolled_into, _ = _roll_up_graph(ordered_sets)
    chains: set[tuple] = set()
    paths = [(n,) for n in succ if n not in rolled_into]
    while paths:
        path = paths.pop()
        nxt = succ.get(path[-1])
        if nxt:
            paths.extend(path + (n,) for n in nxt)
        else:
            chains.add(path)
    return chains


def count_chains(ordered_sets: Sequence[Sequence[Hashable]], first: Hashable,
                 ends: Iterable[Hashable]) -> int:
    """How many chains of :func:`merge_parameters` start at ``first`` and end
    in ``ends``, counted without listing them.

    Each parameter's count of paths to a last parameter in ``ends`` is the
    sum of its successors' counts, so the count takes time linear in the
    graph, however many chains there are. A ``first`` that something rolls
    up into starts no chain.
    """
    succ, rolled_into, order = _roll_up_graph(ordered_sets)
    if first not in succ or first in rolled_into:
        return 0
    ends = set(ends)
    paths: dict[Hashable, int] = {}
    for n in order:  # each after its successors
        nxt = succ.get(n)
        paths[n] = sum(map(paths.__getitem__, nxt)) if nxt else int(n in ends)
    return paths[first]


# ---------------------------------------------------------------------------
# merging one sub-hierarchy pair
# ---------------------------------------------------------------------------

def _project(rows: Rows, names: list[str]) -> list[tuple[Cell, ...]]:
    """Distinct projections of ``rows`` on the columns ``names`` in first-seen order."""
    return list(dict.fromkeys(zip(*map(rows.cells, names))))


def join_segment_rows(tok1: TokenSeq, tok2: TokenSeq,
                      rows1: Rows, rows2: Rows) -> RowList:
    """Inner-join the two projected instance sets on the shared first parameter.

    Projections are deduplicated first, so FD support counts distinct
    projected row combinations. When each side's first column holds each
    value once, as a segment that starts at the root does, every row is its
    own projection and matches at most one row: each column is gathered at
    the matched row positions. Otherwise the distinct projections are joined.
    The join is built as one column per token: the right side's tokens, then
    the left side's own. A matched column takes the left value and falls back
    to the right one where the left is null.
    """
    if tok1[0] != tok2[0]:
        raise MergeError("sub-hierarchy pair does not share its first parameter")
    names1 = [t[1] for t in tok1]
    names2 = [t[2] if t[0] == "p" else t[1] for t in tok2]
    first1, first2 = rows1.cells(names1[0]), rows2.cells(names2[0])
    row2 = dict(zip(first2, range(len(first2))))
    if len(row2) == len(first2) and len(set(first1)) == len(first1):
        row2.pop(None, None)  # a null key matches nothing
        found = list(map(row2.get, first1))
        at1 = [i for i, j in enumerate(found) if j is not None]
        at2 = [j for j in found if j is not None]
        lefts = [list(map(rows1.cells(name).__getitem__, at1)) for name in names1]
        rights = [list(map(rows2.cells(name).__getitem__, at2)) for name in names2]
    else:
        idx2: dict[Cell, list[tuple[Cell, ...]]] = {}
        for t2 in _project(rows2, names2):
            if t2[0] is not None:
                idx2.setdefault(t2[0], []).append(t2)
        pairs1, pairs2 = [], []
        for t1 in _project(rows1, names1):
            matches = idx2.get(t1[0], ())  # a null key is never indexed
            pairs1 += [t1] * len(matches)
            pairs2 += matches
        lefts, rights = list(map(list, zip(*pairs1))), list(map(list, zip(*pairs2)))
    names = tok2 + tuple(t for t in tok1 if t not in tok2)
    if not lefts or not lefts[0]:
        return RowList(names, [[] for _ in names])
    columns = dict(zip(tok1, lefts))
    for tok, right in zip(tok2, rights):
        mine = columns.get(tok)
        columns[tok] = right if mine is None else [r if v is None else v
                                                   for v, r in zip(mine, right)]
    return RowList(names, list(map(columns.get, names)))


def _segment_fd_edges(tok1: TokenSeq, tok2: TokenSeq,
                      rows1: Rows, rows2: Rows,
                      min_support: int) -> list[tuple[Token, Token]]:
    """Reduced FD edges over the joined instances of a sub-hierarchy pair.

    An empty join (no shared values on the first parameter) shows no
    dependency, so it gives no edges. An FD against a roll-up either side
    declares is dropped, so a bijection on the joined rows keeps the
    declared order rather than the tie-break's.
    """
    joined = join_segment_rows(tok1, tok2, rows1, rows2)
    if not joined:
        return []
    attrs = list(tok1) + [t for t in tok2 if t not in tok1]
    raw = enumerate_fds(joined, attrs, min_support)
    raw -= {(b, a) for seq in (tok1, tok2) for i, a in enumerate(seq) for b in seq[i + 1:]}
    dag = resolve_two_cycles(raw, joined)
    return transitive_reduction(dag)


class _TooManyChains(Exception):
    """A sub-hierarchy pair would merge into more chains than allowed; its
    one argument is their count."""


def merge_subhierarchy_pair(tok1: TokenSeq, tok2: TokenSeq,
                            rows1: Rows, rows2: Rows,
                            min_support: int, most: int) -> list[TokenSeq]:
    """Merge one sub-hierarchy pair into one or more parameter chains.

    Containment wins outright; otherwise FD discovery orders the parameters
    and only chains spanning the pair's shared first parameter and reaching
    one of its last parameters survive. Without a spanning chain both sides
    are kept as they are. The chains are counted first (:func:`count_chains`):
    more than ``most`` raise :class:`_TooManyChains` before any is listed.
    """
    set1, set2 = set(tok1), set(tok2)
    if set1 <= set2:
        return [tok2]
    if set2 <= set1:
        return [tok1]
    edges = _segment_fd_edges(tok1, tok2, rows1, rows2, min_support)
    ends = {tok1[-1], tok2[-1]}
    count = count_chains(edges, tok1[0], ends) or 2  # none spans: both sides are kept
    if count > most:
        raise _TooManyChains(count)
    spanning = sorted(c for c in merge_parameters(edges) if c[0] == tok1[0] and c[-1] in ends)
    return spanning or [tok1, tok2]


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

    def chains(self, side: str) -> tuple[TokenSeq, ...]:
        """The merged chains of side ``"l"`` or ``"r"``."""
        return self.merged_left if side == "l" else self.merged_right

    def reached(self, side: str) -> set[str]:
        """The other side's own attributes that ``side``'s merged chains reach."""
        return {t[1] for chain in self.chains(side) for t in chain if t[0] not in ("p", side)}


def merge_hierarchies(h1: Hierarchy, h2: Hierarchy,
                      rows1: Rows, rows2: Rows,
                      pairs: Mapping[str, str],
                      settings: MergeSettings = MergeSettings()) -> HierarchyMergeResult:
    """Merge two hierarchies from different dimensions.

    ``pairs`` maps matched attributes of the first dimension to the second.
    ``rows1``/``rows2`` are the parent dimensions' instances; they feed FD
    discovery for segments whose parameters both sides contribute to.
    Crossing matches raise :class:`MergeError`, and so do segments whose
    chains, the two kept by a segment without a spanning chain included,
    multiply to more than ``settings.chain_cap``: each segment's chains are
    counted before they or the product are listed, so the cap bounds the
    work, not only the result. No other check reads the cap. With no match
    the result is empty.
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

    # steps 2 and 3: slice between consecutive entries and merge each slice
    acc: list[TokenSeq] = []
    segments = list(zip(entries, entries[1:]))
    for n, ((s1, s2), (e1, e2)) in enumerate(segments, 1):
        seg1 = tok1[pos1[s1]:pos1[e1] + 1]
        seg2 = tok2[pos2[s2]:pos2[e2] + 1]
        scale = len(acc) or 1  # at most the cap, so each segment may give one chain
        try:
            pieces = merge_subhierarchy_pair(seg1, seg2, rows1, rows2, settings.min_support,
                                             settings.chain_cap // scale)
        except _TooManyChains as over:
            raise MergeError(
                f"hierarchies {h1.name} and {h2.name} merge into {scale * over.args[0]} chains "
                f"over {n} of their {len(segments)} segments, over the cap of "
                f"{settings.chain_cap}; raise --chain-cap or fix the correspondences") from None
        acc = [extend(a, p) for a in acc for p in pieces] if acc else list(pieces)

    # step 4: prefix each side's parameters below the first matched one, where acc starts
    first = entries[0][0]
    return HierarchyMergeResult(merged_left=tuple(tok1[:pos1[first]] + c for c in acc),
                                merged_right=tuple(tok2[:pos2[first]] + c for c in acc))
