"""Closed-loop merge/validate cycles, run in a process of their own.

One caller drives the real CLI entry point in-process: a cycle is
``main(["merge", DW1, DW2, OUT])`` followed by
``main(["validate", "--strict", OUT])``, and the next cycle starts when the
previous one returns. Passes over the workload's pairs repeat while one more
pass of the mean pass length fits in the time; passes are never cut short,
so every pair is measured equally often. With ``--traced``, passes alternate
between untraced and traced, so both kinds see the same machine state and
the difference of their medians is the tracing overhead.

A cycle fails when either command raises or returns non-zero, when
``validate --strict`` prints anything but OK, when the digest of the merged
warehouse plus ``report.json`` differs from that pair's first (untraced)
cycle in the run, or (first cycle only) when the report's row counts or completions
disagree with the generator's manifest.

On a shared 2-vCPU cloud VM the speed swings by up to 1.8x from one second
to the next, so each command of an untraced pass, and each set-up, runs inside a ``SpeedProbe``:
a 1 ms reference loop timed before, every 50 ms during (from a SIGALRM
handler, whose time is taken out of the command's) and after it. ``run.py``
reads each command against its probe.

Usage (from the repository root; ``bench/run.py`` does this):
    python3 bench/cycle.py RESULT_JSON setup WORKLOAD SEED
    python3 bench/cycle.py RESULT_JSON run WORKLOAD SECONDS [--traced SPANS_JSONL]
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import shutil
import signal
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

import spans
import workloads
from dwmerge import cli

REF_LOOPS = 5000
PROBE_EDGE = 3  # reference samples just before and just after the block
PROBE_INTERVAL_S = 0.05


def reference_s() -> float:
    """Wall time of a fixed pure-Python dict loop: the machine's speed right now."""
    start = perf_counter()
    totals: dict[int, int] = {}
    for i in range(REF_LOOPS):
        key = i % 1000
        totals[key] = totals.get(key, 0) + i
    return perf_counter() - start


class SpeedProbe:
    """The machine's speed while a block runs, from reference loops around and inside it.

    ``spent`` is the time the in-block samples took; subtract it from the
    block's wall time. ``ref_s`` is the harmonic mean of the samples, so
    ``wall * nominal / ref_s`` weights the block's time by its speed.
    """

    def __enter__(self) -> SpeedProbe:
        self.samples = [reference_s() for _ in range(PROBE_EDGE)]
        self.spent = 0.0
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def _sample(self, signum, frame) -> None:
        start = perf_counter()
        self.samples.append(reference_s())
        self.spent += perf_counter() - start

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.samples += [reference_s() for _ in range(PROBE_EDGE)]

    @property
    def ref_s(self) -> float:
        return statistics.harmonic_mean(self.samples)


def _command(argv: list[str], tracer, cycle: int,
             probe: SpeedProbe | None = None) -> tuple[object, float, str]:
    """Run one CLI command; return its exit code (or traceback), seconds and stdout.

    With a ``probe``, the seconds exclude the probe's samples.
    """
    root = tracer.open_command(f"cli.{argv[0]}", cycle) if tracer else None
    out = io.StringIO()
    with contextlib.redirect_stdout(out), probe or contextlib.nullcontext():
        start = perf_counter()
        try:
            code: object = cli.main(argv)
        except Exception:  # a crash is a failed cycle, not a failed benchmark
            code = traceback.format_exc()
        end = perf_counter()
    if root is not None:
        tracer.close_command(root, start, end)
    return code, end - start - (probe.spent if probe else 0.0), out.getvalue()


def manifest_mismatches(report: dict, manifest: dict) -> list[str]:
    """Where the merge report disagrees with the generator's ground truth."""
    tables = {(t["kind"], t["table"]): t for t in report["tables"]}
    out = []
    for name, m in manifest["dimensions"].items():
        t = tables.get(("dimension", name))
        if m["dw1Rows"] is None or m["dw2Rows"] is None or t is None:
            continue
        got = (t["rowsLeft"], t["rowsRight"], t["rowsShared"])
        if got != (m["dw1Rows"], m["dw2Rows"], m["sharedKeys"]):
            out.append(f"dimension {name}: rows {got} != manifest")
    if report["result"] == "star":
        for name, m in manifest["facts"].items():
            t = tables.get(("fact", name))
            want = (m["dw1Rows"], m["dw2Rows"], m["sharedKeyTuples"])
            if t is None or (t["rowsLeft"], t["rowsRight"], t["rowsShared"]) != want:
                out.append(f"fact {name}: rows != manifest {want}")
    filled: dict[str, dict[str, int]] = {}
    for c in report["completedAttributes"]:
        filled.setdefault(c["table"], {})[c["attribute"]] = c["filled"]
    for name, attrs in (manifest.get("expectedCompletions") or {}).items():
        if attrs and filled.get(name, {}) != attrs:
            out.append(f"dimension {name}: fills {filled.get(name)} != manifest {attrs}")
    return out


def run_cycles(pairs: list[dict], seconds: float, tracer=None) -> dict:
    """Closed loop over whole passes of ``pairs``: as many as fit in ``seconds``, at least one.

    With a ``tracer``, odd passes run traced and at least one of them runs.
    """
    merge_s: list[float] = []
    validate_s: list[float] = []
    traced_merge_s: list[float] = []
    merge_ref_s: list[float] = []
    validate_ref_s: list[float] = []
    rows_in: list[int] = []
    failures: list[str] = []
    digests: dict[str, str] = {}
    traced_cycles: dict[str, list[int]] = {}
    cycle = passes = 0
    start = perf_counter()
    deadline = start + seconds
    min_passes = 1 if tracer is None else 2
    # Start another pass only if one more pass of the mean length still fits.
    while passes < min_passes or perf_counter() + (perf_counter() - start) / passes <= deadline:
        span_tracer = tracer if passes % 2 == 1 else None
        with spans.traced(span_tracer) if span_tracer else contextlib.nullcontext():
            for pair in pairs:
                d = pair["dir"]
                out = f"{d}/out"
                shutil.rmtree(out, ignore_errors=True)
                reasons = []
                # Spans time the traced passes, so only untraced ones are probed.
                merge_probe, validate_probe = (None, None) if span_tracer else (
                    SpeedProbe(), SpeedProbe())
                code, merge_took, _ = _command(["merge", f"{d}/dw1", f"{d}/dw2", out],
                                               span_tracer, cycle, merge_probe)
                if code != 0:
                    reasons.append(f"merge returned {code}")
                code, validate_took, printed = _command(["validate", "--strict", out],
                                                        span_tracer, cycle + 1, validate_probe)
                if code != 0 or printed != f"{out}: OK\n":
                    reasons.append(f"validate returned {code}: {printed.strip()[:200]}")
                if not reasons:
                    reasons += _output_mismatches(d, out, digests)
                if reasons:
                    failures.append(f"pass {passes} {d}: " + "; ".join(reasons))
                if span_tracer:
                    traced_merge_s.append(merge_took)
                    traced_cycles.setdefault(d, []).append(cycle)
                else:
                    merge_s.append(merge_took)
                    validate_s.append(validate_took)
                    merge_ref_s.append(merge_probe.ref_s)
                    validate_ref_s.append(validate_probe.ref_s)
                    rows_in.append(pair["rows_in"])
                cycle += 2
        passes += 1
    return {"merge_s": merge_s, "validate_s": validate_s, "traced_merge_s": traced_merge_s,
            "merge_ref_s": merge_ref_s, "validate_ref_s": validate_ref_s,
            "rows_in": rows_in, "failures": failures, "passes": passes, "digests": digests,
            "traced_cycles": traced_cycles}


def _output_mismatches(d: str, out: str, digests: dict[str, str]) -> list[str]:
    """Check a pair's output against its first cycle, or the first one against the manifest."""
    digest = workloads.tree_digest(Path(out))
    if d in digests:
        if digest == digests[d]:
            return []
        return [f"output digest {digest[:12]} != first cycle's {digests[d][:12]}"]
    digests[d] = digest
    report = json.loads(Path(out, "report.json").read_text(encoding="utf-8"))
    manifest = json.loads(Path(d, "manifest.json").read_text(encoding="utf-8"))
    return manifest_mismatches(report, manifest)


def traced_summary(tracer, result: dict) -> dict:
    """Per-layer metrics of the traced passes, and the exact-repeat check of their counts."""
    n_cycles = len(result["traced_merge_s"])
    mismatched = []
    for d, cycles in result["traced_cycles"].items():
        per_cycle = [spans.cycle_counts(tracer, (c, c + 1)) for c in cycles]
        if any(c != per_cycle[0] for c in per_cycle):
            mismatched.append(d)
    first_pass = [cycles[0] + k for cycles in result["traced_cycles"].values() for k in (0, 1)]
    return {"times": spans.layer_times(tracer, n_cycles),
            "counts": dict(spans.cycle_counts(tracer, first_pass)),
            "count_mismatches": mismatched,
            "coverage": spans.merge_coverage(tracer), "n_spans": len(tracer.spans)}


def write_spans(tracer, path: Path) -> None:
    with path.open("w", encoding="utf-8") as f:
        for i, s in enumerate(tracer.spans):
            f.write(json.dumps({"id": i, "name": s.name, "start": s.start, "end": s.end,
                                "parent": s.parent, "cycle": s.cycle}) + "\n")


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(prog="cycle.py")
    parser.add_argument("result", type=Path)
    sub = parser.add_subparsers(dest="command", required=True)
    p_setup = sub.add_parser("setup")
    p_setup.add_argument("workload")
    p_setup.add_argument("seed", type=int)
    p_run = sub.add_parser("run")
    p_run.add_argument("workload")
    p_run.add_argument("seconds", type=float)
    p_run.add_argument("--traced", metavar="SPANS_JSONL", type=Path)
    args = parser.parse_args(argv)
    if args.command == "setup":
        with SpeedProbe() as probe:
            result = workloads.set_up(args.workload, args.seed)
        result["setup_s"] -= probe.spent
        result["ref_s"] = probe.ref_s
    else:
        pairs = workloads.load_pairs(args.workload)
        tracer = spans.Tracer() if args.traced else None
        result = run_cycles(pairs, args.seconds, tracer)
        if tracer is not None:
            result["traced"] = traced_summary(tracer, result)
            write_spans(tracer, args.traced)
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    args.result.write_text(json.dumps(result) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
