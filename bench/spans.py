"""Per-layer spans and counts, recorded from outside the program.

:func:`traced` replaces the public functions of each layer, at the module
attribute where the caller looks the name up, with a wrapper that records a
span and counts read from the call's arguments and return value. Modules
import names into the caller's namespace, so the wrapper is installed at
every call site listed in ``PATCH_POINTS``, not only where the function is
defined. Every attribute is restored when the context ends.
"""

from __future__ import annotations

import functools
from collections import Counter
from collections.abc import Sized
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import workloads
from dwmerge import cli, dimension_merge, hierarchy_merge, star_merge
from dwmerge import io as dw_io


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    cycle: int


class Tracer:
    """Spans and per-cycle counts kept in memory until the run ends."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: dict[int, Counter] = {}
        self.cycle = -1
        self._stack: list[int] = []

    def open_command(self, name: str, cycle: int) -> Span:
        """Start the root span of one CLI command; its children share ``cycle``."""
        self.cycle = cycle
        self.counts[cycle] = Counter()
        span = Span(name, 0.0, 0.0, None, cycle)
        self.spans.append(span)
        self._stack.append(len(self.spans) - 1)
        return span

    def close_command(self, span: Span, start: float, end: float) -> None:
        span.start, span.end = start, end
        self._stack.pop()

    def wrap(self, name: str, fn, count=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = Span(name, 0.0, 0.0, tracer._stack[-1] if tracer._stack else None,
                        tracer.cycle)
            tracer.spans.append(span)
            tracer._stack.append(len(tracer.spans) - 1)
            span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                tracer._stack.pop()
            counts = tracer.counts.setdefault(tracer.cycle, Counter())
            counts[f"{name}.calls"] += 1
            if count is not None:
                count(counts, args, result)
            return result

        return wrapper

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its child spans cover."""
        own = [s.end - s.start for s in self.spans]
        for s in self.spans:
            if s.parent is not None:
                own[s.parent] -= s.end - s.start
        return own


def _size(x) -> int:
    return len(x) if isinstance(x, Sized) else 0


def _load_rows(c, args, schema):
    c["io.load_dw.rows"] += workloads.schema_rows(schema)


def _written_bytes(c, args, _):
    c["io.write_dw.bytes"] += sum(p.stat().st_size for p in Path(args[1]).iterdir()
                                  if p.is_file())


def _corrs(c, args, result):
    c["matching.match_attributes.pairs_out"] += len(result)


def _facts(c, args, result):
    c["star_merge.merge_facts.rows_out"] += len(result[0].rows)
    c["star_merge.merge_facts.shared"] += result[2]


def _pruned(c, args, result):
    c["star_merge.prune_hierarchies.removed"] += len(result[1])


def _dimension(c, args, res):
    fills = res.completion_log + res.completion_log_left + res.completion_log_right
    c["dimension_merge.merge_dimensions.enrich_calls"] += not res.matched
    c["dimension_merge.fills"] += len(fills)
    c["dimension_merge.ambiguous_fills"] += sum(f.ambiguous for f in fills)


def _instances(c, args, result):
    c["dimension_merge.merge_instances.rows_out"] += len(result[0])
    c["dimension_merge.merge_instances.conflicts"] += len(result[1])


def _join(c, args, result):
    c["hierarchy_merge.join_segment_rows.rows_in"] += _size(args[2]) + _size(args[3])
    c["hierarchy_merge.join_segment_rows.rows_out"] += len(result)


def _fds(c, args, result):
    n_attrs = len(args[1])
    c["hierarchy_merge.enumerate_fds.pair_scans"] += _size(args[0]) * n_attrs * (n_attrs - 1)
    c["hierarchy_merge.enumerate_fds.edges_out"] += len(result)


def _reduced(c, args, result):
    c["hierarchy_merge.transitive_reduction.edges_out"] += len(result)


def _chains(c, args, result):
    c["hierarchy_merge.merge_parameters.chains_out"] += len(result)


# (module, attribute looked up by the caller, span name, count function)
PATCH_POINTS = (
    (cli, "merge_stars", "star_merge.merge_stars", None),
    (cli, "validate", "model.validate", None),
    (dw_io, "load_dw", "io.load_dw", _load_rows),
    (dw_io, "write_dw", "io.write_dw", _written_bytes),
    (dw_io, "write_report", "io.write_report", None),
    (star_merge, "merge_all_dimensions", "star_merge.merge_all_dimensions", None),
    (star_merge, "merge_dimensions", "dimension_merge.merge_dimensions", _dimension),
    (star_merge, "match_attributes", "matching.match_attributes", _corrs),
    (star_merge, "merge_facts", "star_merge.merge_facts", _facts),
    (star_merge, "prune_hierarchies", "star_merge.prune_hierarchies", _pruned),
    (star_merge, "validate", "model.validate", None),
    (dimension_merge, "merge_hierarchies", "hierarchy_merge.merge_hierarchies", None),
    (dimension_merge, "merge_instances", "dimension_merge.merge_instances", _instances),
    (hierarchy_merge, "merge_subhierarchy_pair", "hierarchy_merge.merge_subhierarchy_pair",
     None),
    (hierarchy_merge, "join_segment_rows", "hierarchy_merge.join_segment_rows", _join),
    (hierarchy_merge, "enumerate_fds", "hierarchy_merge.enumerate_fds", _fds),
    (hierarchy_merge, "transitive_reduction", "hierarchy_merge.transitive_reduction",
     _reduced),
    (hierarchy_merge, "merge_parameters", "hierarchy_merge.merge_parameters", _chains),
)


@contextmanager
def traced(tracer: Tracer):
    """Install ``tracer``'s wrappers at every patch point; restore them on exit."""
    saved = []
    try:
        for module, attr, name, count in PATCH_POINTS:
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, tracer.wrap(name, original, count))
        yield tracer
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


# Time metrics: span totals per cycle (one merge plus one validate).
TIME_SPANS = (
    "io.load_dw", "io.write_dw", "io.write_report", "model.validate",
    "matching.match_attributes", "star_merge.merge_stars",
    "star_merge.merge_all_dimensions", "star_merge.merge_facts",
    "star_merge.prune_hierarchies", "dimension_merge.merge_dimensions",
    "dimension_merge.merge_instances", "hierarchy_merge.merge_hierarchies",
    "hierarchy_merge.join_segment_rows", "hierarchy_merge.enumerate_fds",
    "hierarchy_merge.merge_parameters",
)
# Self-time metrics: name reported -> span whose self time it is.
SELF_SPANS = {
    "star_merge.merge_stars.self_s": "star_merge.merge_stars",
    # merge_dimensions minus its merge_hierarchies and merge_instances children;
    # the private completion engine dominates what is left.
    "dimension_merge.completion_s": "dimension_merge.merge_dimensions",
}
COUNTS = (
    "io.load_dw.rows", "io.write_dw.bytes", "model.validate.calls",
    "matching.match_attributes.calls", "matching.match_attributes.pairs_out",
    "star_merge.merge_facts.rows_out", "star_merge.merge_facts.shared",
    "star_merge.prune_hierarchies.removed",
    "dimension_merge.merge_dimensions.calls", "dimension_merge.merge_dimensions.enrich_calls",
    "dimension_merge.merge_instances.rows_out", "dimension_merge.merge_instances.conflicts",
    "dimension_merge.fills", "dimension_merge.ambiguous_fills",
    "hierarchy_merge.merge_hierarchies.calls", "hierarchy_merge.merge_subhierarchy_pair.calls",
    "hierarchy_merge.merge_subhierarchy_pair.contained",
    "hierarchy_merge.join_segment_rows.rows_in", "hierarchy_merge.join_segment_rows.rows_out",
    "hierarchy_merge.enumerate_fds.pair_scans", "hierarchy_merge.enumerate_fds.edges_out",
    "hierarchy_merge.transitive_reduction.edges_out",
    "hierarchy_merge.merge_parameters.chains_out",
)


def cycle_counts(tracer: Tracer, cycles) -> Counter:
    """The layer counts summed over ``cycles``, with the derived ``contained``."""
    total: Counter = Counter()
    for cycle in cycles:
        total.update(tracer.counts.get(cycle, Counter()))
    total["hierarchy_merge.merge_subhierarchy_pair.contained"] = (
        total["hierarchy_merge.merge_subhierarchy_pair.calls"]
        - total["hierarchy_merge.join_segment_rows.calls"])
    return Counter({name: total[name] for name in COUNTS})


def layer_times(tracer: Tracer, n_cycles: int) -> dict[str, float]:
    """Span time per cycle for each layer, plus the two self-time metrics."""
    total: Counter = Counter()
    own: Counter = Counter()
    for span, self_s in zip(tracer.spans, tracer.self_times()):
        total[span.name] += span.end - span.start
        own[span.name] += self_s
    out = {f"{name}.s": total[name] / n_cycles for name in TIME_SPANS}
    out.update({metric: own[name] / n_cycles for metric, name in SELF_SPANS.items()})
    return out


def merge_coverage(tracer: Tracer) -> float:
    """Share of all merge commands' wall time that their direct child spans cover."""
    roots = {i for i, s in enumerate(tracer.spans)
             if s.parent is None and s.name == "cli.merge"}
    covered = sum(s.end - s.start for s in tracer.spans if s.parent in roots)
    return covered / sum(tracer.spans[i].end - tracer.spans[i].start for i in roots)
