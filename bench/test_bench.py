"""Tests of the benchmark itself.

Run from the repository root with ``python3 -m pytest bench -q``; the tier-1
suite (``testpaths = tests``) does not collect them.
"""

from __future__ import annotations

import json
import signal
import time
from pathlib import Path

import pytest

import cycle
import run
import spans
import workloads
from dwmerge import generator
from dwmerge import io as dw_io


@pytest.fixture
def pairs(tmp_path, monkeypatch):
    """One small generated pair written to disk, as set-up writes a workload."""
    monkeypatch.setattr(workloads, "pair_specs", lambda workload, seed: [
        generator.preset_divergent(seed=seed, overlap=0.75, fact_rows=300)])
    root = tmp_path / "tiny"
    workloads.set_up("tiny", 3, root=root)
    return workloads.load_pairs("tiny", root=root)


def _attributes():
    return [(module, attr, getattr(module, attr)) for module, attr, _, _ in spans.PATCH_POINTS]


def test_traced_run_restores_every_patched_attribute(pairs):
    before = _attributes()
    tracer = spans.Tracer()
    result = cycle.run_cycles(pairs, 0, tracer)  # one untraced pass, then one traced
    assert result["failures"] == [] and result["passes"] == 2
    assert {s.name for s in tracer.spans} >= {name for _, _, name, _ in spans.PATCH_POINTS}
    assert [(m, a, getattr(m, a)) for m, a, _ in before] == before
    with pytest.raises(RuntimeError):
        with spans.traced(spans.Tracer()):
            assert all(getattr(m, a) is not f for m, a, f in before)
            raise RuntimeError("cycle crashed")
    assert [(m, a, getattr(m, a)) for m, a, _ in before] == before


@pytest.mark.parametrize("table, caught_by", [
    ("customer.csv", "output digest"),  # a changed label: only the digest sees it
    ("sales.csv", "validate returned"),  # a measure that no longer parses
])
def test_corrupted_output_byte_counts_as_failed_cycle(pairs, monkeypatch, table, caught_by):
    real_write_dw = dw_io.write_dw
    written = []

    def write_then_corrupt(schema, directory):
        real_write_dw(schema, directory)
        written.append(directory)
        if len(written) == 2:
            path = Path(directory, table)
            data = bytearray(path.read_bytes())
            data[-2] = ord("x") if data[-2] != ord("x") else ord("y")
            path.write_bytes(bytes(data))

    monkeypatch.setattr(dw_io, "write_dw", write_then_corrupt)
    result = cycle.run_cycles(pairs * 3, 0)  # the same pair three times in one pass
    assert len(result["merge_s"]) == 3
    assert len(result["failures"]) == 1 and caught_by in result["failures"][0]
    m = run.end_to_end({**result, "peak_rss_mb": 0.0}, [{"setup_s": 1.0, "ref_s": 0.001}])
    assert m["failed_frac"] == pytest.approx(1 / 3)


def test_tail_is_omitted_under_20_samples_and_names_its_percentile():
    assert run.tail([0.5] * 19) is None
    assert run.tail([float(i) for i in range(20)]) == {
        "value": 9.0, "percentile": 50.0, "samples": 20}
    t = run.tail([float(i) for i in range(96)])
    assert t == {"value": 85.0, "percentile": 89.58, "samples": 96}
    assert sum(1 for i in range(96) if i > t["value"]) == run.TAIL_BEYOND


def test_layer_counts_repeat_exactly_and_tracing_keeps_output_bytes(pairs):
    plain = cycle.run_cycles(pairs * 2, 0)
    summaries = []
    for _ in range(2):
        tracer = spans.Tracer()
        run_ = cycle.run_cycles(pairs * 2, 0, tracer)
        assert run_["failures"] == []  # traced cycles match the untraced first cycle
        assert len(run_["traced_merge_s"]) == 2
        assert run_["digests"] == plain["digests"]
        summaries.append(cycle.traced_summary(tracer, run_))
    assert summaries[0]["count_mismatches"] == []
    assert summaries[0]["counts"] == summaries[1]["counts"]
    counts = summaries[0]["counts"]
    assert counts["model.validate.calls"] == 4  # 3 per merge, 1 per validate
    assert counts["hierarchy_merge.join_segment_rows.rows_out"] > 0
    assert counts["dimension_merge.fills"] > 0


def test_manifest_check_flags_a_wrong_row_count(pairs):
    result = cycle.run_cycles(pairs, 0)
    assert result["failures"] == []
    out = Path(pairs[0]["dir"], "out")
    report = json.loads((out / "report.json").read_text(encoding="utf-8"))
    manifest = json.loads(
        Path(pairs[0]["dir"], "manifest.json").read_text(encoding="utf-8"))
    assert cycle.manifest_mismatches(report, manifest) == []
    report["tables"][0]["rowsShared"] += 1
    assert cycle.manifest_mismatches(report, manifest)


def test_benchmark_json_names_every_reported_metric(pairs):
    doc = json.loads((workloads.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    tracer = spans.Tracer()
    result = cycle.run_cycles(pairs, 0, tracer)
    result["traced"] = cycle.traced_summary(tracer, result)
    layers = run.per_layer(result, [{"setup_s": 1.0, "generate_s": 1.0}])
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == {
        name: v["unit"] for name, v in layers.items()}
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == {
        name: unit for name, unit in run.END_TO_END if name not in run.NOT_IN_RESULT}


def test_speed_probe_samples_inside_the_block_and_takes_its_time_out():
    def busy(seconds):
        end = time.perf_counter() + seconds
        while time.perf_counter() < end:
            pass

    probe = cycle.SpeedProbe()
    with probe:
        busy(0.3)
    assert len(probe.samples) >= 2 * cycle.PROBE_EDGE + 3
    assert 0 < probe.spent < 0.3
    assert min(probe.samples) <= probe.ref_s <= max(probe.samples)
    assert signal.getsignal(signal.SIGALRM) == signal.SIG_DFL
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
