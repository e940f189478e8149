"""Merge-time settings shared by the dimension, hierarchy and star mergers."""

from __future__ import annotations

from dataclasses import dataclass

CONFLICT_POLICIES = ("left", "right", "error")


@dataclass(frozen=True)
class MergeSettings:
    """Knobs that influence merging; defaults match the documented CLI defaults.

    min_support: joined rows required before a functional dependency counts.
    chain_cap: maximum merged chains one hierarchy pair may produce, over all
        its segments together.
    conflict: what to do when fused rows disagree on a value.
    prune: whether to delete dead or subsumed hierarchies after merging.
    """

    min_support: int = 1
    chain_cap: int = 16
    conflict: str = "left"
    prune: bool = True

    def __post_init__(self):
        if self.min_support < 1:
            raise ValueError("min_support must be >= 1")
        if self.chain_cap < 1:
            raise ValueError("chain_cap must be >= 1")
        if self.conflict not in CONFLICT_POLICIES:
            raise ValueError(f"conflict policy must be one of {CONFLICT_POLICIES}")
