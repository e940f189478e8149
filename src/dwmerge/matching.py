"""Correspondences between attributes and between measures.

The matchers are deterministic and purely syntactic: they pair names whose
normalized forms lie within a configured Levenshtein distance, so distance 0
(the default) pairs equal normalized names only. A user correspondence file
can force extra pairs or forbid unwanted ones; its line grammar is described
in the io module documentation.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

from .errors import UserMapError
from .model import Dimension, Fact, Schema, normalize_name

SOURCE_EXACT = "exact"
SOURCE_EDIT = "edit-distance"
SOURCE_USER = "user-map"


@dataclass(frozen=True)
class Correspondence:
    """A matched pair; sides are (table name, attribute or measure name)."""

    left: tuple[str, str]
    right: tuple[str, str]
    score: float
    source: str


@dataclass(frozen=True)
class UserMapEntry:
    action: str  # "pair" | "forbid"
    left: tuple[str, str]
    right: tuple[str, str]
    line: int


@dataclass(frozen=True)
class UserMap:
    entries: tuple[UserMapEntry, ...] = ()

    def for_pair(self, left_table: str, right_table: str) -> list[UserMapEntry]:
        return [e for e in self.entries
                if e.left[0] == left_table and e.right[0] == right_table]


@dataclass(frozen=True)
class MatcherConfig:
    max_edit_distance: int = 0
    user_map: UserMap | None = None

    def __post_init__(self):
        if self.max_edit_distance < 0:
            raise ValueError("max_edit_distance must be >= 0")


def parse_user_map(text: str, source: str = "<user-map>") -> UserMap:
    """Parse a correspondence file.

    One entry per line: ``pair left.attr right.attr`` or
    ``forbid left.attr right.attr``. Blank lines and ``#`` comments are
    ignored. Qualifiers name a dimension or a fact; the attribute part is
    everything after the first dot.
    """
    entries = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 3 or parts[0] not in ("pair", "forbid"):
            raise UserMapError(
                f"{source}:{lineno}: expected 'pair|forbid left.attr right.attr', got {raw!r}")
        sides = []
        for token in parts[1:]:
            if "." not in token:
                raise UserMapError(
                    f"{source}:{lineno}: {token!r} is not of the form table.attribute")
            table, attr = token.split(".", 1)
            sides.append((table, attr))
        entries.append(UserMapEntry(parts[0], sides[0], sides[1], lineno))
    return UserMap(tuple(entries))


def load_user_map(path: str | Path) -> UserMap:
    p = Path(path)
    try:
        text = p.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise UserMapError(f"cannot read user map {p}: {exc}") from exc
    return parse_user_map(text, source=str(p))


def check_user_map(user_map: UserMap | None, s1: Schema, s2: Schema) -> None:
    """Refuse a user-map entry that no table pair of ``s1`` and ``s2`` would read.

    Its tables must be a dimension or the fact of their star, and of one kind,
    and each attribute must be one of its table's: a dimension's attributes,
    or a fact's measures.
    """
    tables = [{"dimension": {d.name: d.attributes for d in s.dimensions},
               "fact": {s.fact.name: s.fact.measures}} for s in (s1, s2)]
    for e in user_map.entries if user_map else ():
        sides = list(zip((e.left, e.right), tables))
        kinds = []
        for ((table, attr), named), side in zip(sides, ("left", "right")):
            kinds.append({kind for kind, names in named.items() if table in names})
            if not kinds[-1]:
                raise UserMapError(f"user map line {e.line}: {table}.{attr} names no "
                                   f"dimension or fact of the {side} warehouse")
        shared = kinds[0] & kinds[1]
        if not shared:
            raise UserMapError(f"user map line {e.line}: {e.left[0]}.{e.left[1]} and "
                               f"{e.right[0]}.{e.right[1]} pair a dimension with a fact")
        for (table, attr), named in sides:
            if any(attr not in named[kind][table] for kind in shared):
                raise UserMapError(
                    f"user map line {e.line}: {table}.{attr} names an unknown attribute")


def edit_distance(a: str, b: str) -> int:
    """Levenshtein distance, classic two-row dynamic program."""
    if a == b:
        return 0
    if len(a) < len(b):
        a, b = b, a
    prev = list(range(len(b) + 1))
    for i, ca in enumerate(a, start=1):
        cur = [i]
        for j, cb in enumerate(b, start=1):
            cur.append(min(prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + (ca != cb)))
        prev = cur
    return prev[-1]


def _match_names(left_table: str, right_table: str,
                 left_names: Sequence[str], right_names: Sequence[str],
                 cfg: MatcherConfig) -> list[Correspondence]:
    entries = cfg.user_map.for_pair(left_table, right_table) if cfg.user_map else []
    forbidden = {(e.left[1], e.right[1]) for e in entries if e.action == "forbid"}
    out: list[Correspondence] = []
    used_left: set[str] = set()
    used_right: set[str] = set()
    for e in entries:
        if e.action != "pair":
            continue
        for (table, attr), names in ((e.left, left_names), (e.right, right_names)):
            if attr not in names:
                raise UserMapError(
                    f"user map line {e.line}: {table}.{attr} names an unknown attribute")
        l, r = e.left[1], e.right[1]
        if l in used_left or r in used_right:
            raise UserMapError(
                f"user map pairs {left_table}.{l} / {right_table}.{r} more than once")
        used_left.add(l)
        used_right.add(r)
        out.append(Correspondence((left_table, l), (right_table, r), 1.0, SOURCE_USER))

    max_d = cfg.max_edit_distance
    candidates = []
    for l in left_names:
        nl = normalize_name(l)
        for r in right_names:
            if (l, r) in forbidden:
                continue
            nr = normalize_name(r)
            d = 0 if nl == nr else (edit_distance(nl, nr) if max_d else max_d + 1)
            if d <= max_d:
                # Side-symmetric tie break: distance, then the unordered name pair.
                candidates.append((d, tuple(sorted((nl, nr))), nl, nr, l, r))
    for d, _, _, _, l, r in sorted(candidates):
        if l in used_left or r in used_right:
            continue
        used_left.add(l)
        used_right.add(r)
        score = 1.0 if d == 0 else 1.0 - d / max(len(normalize_name(l)), len(normalize_name(r)), 1)
        source = SOURCE_EXACT if d == 0 else SOURCE_EDIT
        out.append(Correspondence((left_table, l), (right_table, r), round(score, 4), source))
    out.sort(key=lambda c: (c.left[1], c.right[1]))
    return out


def match_attributes(d1: Dimension, d2: Dimension, cfg: MatcherConfig) -> list[Correspondence]:
    """One-to-one attribute correspondences between two dimensions."""
    return _match_names(d1.name, d2.name, d1.attributes, d2.attributes, cfg)


def match_measures(f1: Fact, f2: Fact, cfg: MatcherConfig) -> list[Correspondence]:
    """One-to-one measure correspondences between two facts."""
    return _match_names(f1.name, f2.name, f1.measures, f2.measures, cfg)


def matched_root_parameters(d1: Dimension, d2: Dimension,
                            corrs: Iterable[Correspondence]) -> bool:
    """True iff the two dimension identifiers are paired in the correspondences."""
    return any(c.left == (d1.name, d1.root) and c.right == (d2.name, d2.root)
               for c in corrs)


def corr_attr_map(corrs: Iterable[Correspondence]) -> dict[str, str]:
    """Left attribute name -> right attribute name for a single table pair."""
    return {c.left[1]: c.right[1] for c in corrs}
