"""The merge's algebraic laws as properties over generated warehouse pairs.

The merge is a union at the schema and the instance level, so merging a
warehouse with itself, or a merged warehouse with one of its inputs, should
give back the tables it already has; swapping the inputs swaps the left and
right counts; and every output reloads strictly, validates, and leaves
nothing more for pruning to remove.

Hierarchies are not compared on re-merges. With the default ``min_support``
of 1, ``merge(A, A)`` can add a chain whose FD A's rows satisfy by chance
(on ``divergent``, department -> category where no sampled id crosses the
category boundary), so a re-merge may carry chains its input lacks. On
``star4`` the re-merges return, but on some seeds they add completion
fills and so write tables that differ from AB's; that is an open fault, so
only their return and output contract are asserted there. A ``const22`` merge is a constellation,
which cannot be merged again, so only ``merge(A, A)`` is re-merged there.
"""

import tempfile
from pathlib import Path

from hypothesis import given, settings, strategies as st

from dwmerge import io
from dwmerge.generator import (generate_pair, preset_basic, preset_const22, preset_divergent,
                               preset_star4)
from dwmerge.model import validate
from dwmerge.star_merge import merge_stars, prune_hierarchies

PRESETS = {
    "basic": lambda seed, overlap: preset_basic(seed, rows=200, overlap=overlap, fact_rows=400),
    "divergent": lambda seed, overlap: preset_divergent(seed, rows=600, overlap=overlap,
                                                        fact_rows=400),
    "star4": lambda seed, overlap: preset_star4(seed, overlap=overlap, fact_rows=800),
    "const22": lambda seed, overlap: preset_const22(seed, overlap=overlap),
}
# Presets whose re-merges write the tables of what they re-merge.
TABLES_KEPT = {"basic", "divergent"}


def _tables(directory: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(directory.glob("*.csv"))}


def _merge(s1, s2, out: Path):
    """Merge, write, reload strictly and validate; the report and the tables."""
    res = merge_stars(s1, s2)
    for dim in res.schema.dimensions:
        assert prune_hierarchies(dim)[1] == []
    io.write_dw(res.schema, out)
    assert validate(io.load_dw(out, strict=True)) == []
    return res.report, _tables(out)


def _counts(report, swap=False):
    return {(t.kind, t.table): ((t.n_right, t.n_left) if swap else (t.n_left, t.n_right),
                               t.n_shared, t.n_merged) for t in report.tables}


@settings(max_examples=50, deadline=None)
@given(preset=st.sampled_from(sorted(PRESETS)), seed=st.integers(1, 10_000),
       overlap=st.sampled_from([0.25, 0.5, 0.75, 1.0]))
def test_merge_laws(preset, seed, overlap):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        for name, s in zip("ab", generate_pair(PRESETS[preset](seed, overlap))):
            io.write_dw(s, tmp / name)
        a, b = (io.load_dw(tmp / name, strict=True) for name in "ab")

        ab_report, ab_tables = _merge(a, b, tmp / "ab")
        ba_report, _ = _merge(b, a, tmp / "ba")
        assert _counts(ba_report) == _counts(ab_report, swap=True)

        aa_report, aa_tables = _merge(a, a, tmp / "aa")
        if preset == "const22":
            return
        assert aa_tables == _tables(tmp / "a")
        assert aa_report.completions == aa_report.ambiguous_fills == aa_report.conflicts == []

        merged = io.load_dw(tmp / "ab", strict=True)
        for k, (s1, s2) in enumerate([(merged, a), (a, merged), (merged, merged)]):
            _, tables = _merge(s1, s2, tmp / f"re{k}")
            if preset in TABLES_KEPT:
                assert tables == ab_tables
