"""dwmerge benchmark: in-process merge/validate cycles on three workloads.

    python3 bench/run.py --workload bulk|divergent|mixed-small [--seed N]
                         [--seconds S] [--trace 0|1]
    python3 bench/run.py --workload all [--seed N] [--seconds S]

Run from anywhere; paths resolve against the repository root. Set-up
(generate every pair and write it to disk) runs SETUP_REPEATS times, each in
a fresh process, and ``setup_s`` is their median. The timed cycles then run
in another fresh process, which therefore never holds the generator's
memory; its peak RSS is ``peak_rss_mb``. With ``--trace 1`` that process
alternates untraced and traced passes, and the per-layer metrics come from
the traced ones (see ``spans.py``).

The end-to-end times are wall times scaled to a nominal machine speed: each
sample is multiplied by ``REF_NOMINAL_S`` over the reference loop's time
around and during it (``cycle.SpeedProbe``). The plain wall-time medians are
printed beside them.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. ``--workload all``
runs every workload untraced and traced and writes ``bench/baseline.json``.
``BENCHMARK.json`` gates ``bulk`` and ``divergent`` only; ``bench/DESIGN.md``
says why ``mixed-small`` is run by hand.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = Path(".bench_work")
WORKLOADS = ("bulk", "divergent", "mixed-small")  # defined in workloads.pair_specs
DEFAULT_SEED = 1
SETUP_REPEATS = 3
RUN_TIMEOUT_S = 170  # per workload run, all children included
TAIL_MIN_SAMPLES = 20
TAIL_BEYOND = 10
# Nominal wall time of cycle.reference_s: a fixed convention, near the
# loop's median on a 2-vCPU cloud VM. Only ratios between commits matter.
REF_NOMINAL_S = 0.001

END_TO_END = (("merge_s.p50", "s"), ("merge_s.tail", "s"), ("validate_s.p50", "s"),
              ("rows_per_s", "rows/s"), ("peak_rss_mb", "MB"), ("setup_s", "s"),
              ("failed_frac", "ratio"))
# Printed but not in the result's metrics: the tail is absent under
# TAIL_MIN_SAMPLES samples, and failed_frac is 0 on a good run; the result's
# "failed" and "attempted" carry it.
NOT_IN_RESULT = {"merge_s.tail", "failed_frac"}


class ChildFailed(RuntimeError):
    pass


def _child(args: list[str], result: Path, deadline: float) -> dict:
    """Run ``cycle.py`` in a fresh interpreter and return the JSON it wrote.

    The child is killed, and waited for, if it is still running at ``deadline``.
    """
    result.unlink(missing_ok=True)
    proc = subprocess.run([sys.executable, str(BENCH / "cycle.py"), str(result), *args],
                          cwd=ROOT, timeout=max(1.0, deadline - time.monotonic()),
                          check=False)
    if proc.returncode != 0:
        raise ChildFailed(f"cycle.py {args[0]} exited with {proc.returncode}")
    return json.loads(result.read_text(encoding="utf-8"))


def tail(samples: list[float]) -> dict | None:
    """Highest percentile with at least TAIL_BEYOND samples above it.

    None under TAIL_MIN_SAMPLES samples. The value is the order statistic
    with exactly TAIL_BEYOND samples beyond it.
    """
    n = len(samples)
    if n < TAIL_MIN_SAMPLES:
        return None
    return {"value": sorted(samples)[n - TAIL_BEYOND - 1],
            "percentile": round(100 * (n - TAIL_BEYOND) / n, 2), "samples": n}


def scaled(times: list[float], refs: list[float]) -> list[float]:
    """Each time at nominal machine speed: times REF_NOMINAL_S over its reference time."""
    return [t * REF_NOMINAL_S / r for t, r in zip(times, refs, strict=True)]


def end_to_end(run: dict, setups: list[dict]) -> dict:
    n = len(run["merge_s"])
    merge_s = scaled(run["merge_s"], run["merge_ref_s"])
    return {
        "merge_s.p50": statistics.median(merge_s),
        "merge_s.tail": tail(merge_s),
        "validate_s.p50": statistics.median(scaled(run["validate_s"], run["validate_ref_s"])),
        "rows_per_s": sum(run["rows_in"]) / sum(merge_s),
        "peak_rss_mb": run["peak_rss_mb"],
        "setup_s": statistics.median(scaled([s["setup_s"] for s in setups],
                                            [s["ref_s"] for s in setups])),
        "failed_frac": len(run["failures"]) / n,
    }


def per_layer(run: dict, setups: list[dict]) -> dict:
    t = run["traced"]
    out = {name: {"value": v, "unit": "s"} for name, v in t["times"].items()}
    out.update({name: {"value": v, "unit": "B" if name.endswith(".bytes") else "count"}
                for name, v in t["counts"].items()})
    out["generator.generate_pair.s"] = {
        "value": statistics.median(s["generate_s"] for s in setups), "unit": "s"}
    out["trace.overhead_s"] = {
        "value": statistics.median(run["traced_merge_s"]) - statistics.median(run["merge_s"]),
        "unit": "s"}
    out["trace.merge_coverage"] = {"value": t["coverage"], "unit": "ratio"}
    return out


def _print_end_to_end(label: str, m: dict, run: dict) -> None:
    n = len(run["merge_s"])
    print(f"{label}: {run['passes']} passes, {n} untraced cycles, "
          f"{len(run['failures'])} failed")
    for name, unit in END_TO_END:
        v = m[name]
        if name == "merge_s.tail":
            text = (f"omitted ({n} samples < {TAIL_MIN_SAMPLES})" if v is None else
                    f"{v['value']:.6f} s  (p{v['percentile']} of {v['samples']} samples)")
        else:
            text = f"{v:.6f} {unit}"
        print(f"  {name:<16} {text}")
    print(f"  unscaled wall time: merge p50 {statistics.median(run['merge_s']):.6f} s, "
          f"validate p50 {statistics.median(run['validate_s']):.6f} s, reference loop p50 "
          f"{statistics.median(run['merge_ref_s'] + run['validate_ref_s']):.6f} s")
    for failure in run["failures"]:
        print(f"  FAILED {failure}", file=sys.stderr)
    for d, digest in sorted(run["digests"].items()):
        print(f"  digest {d}/out sha256:{digest}")


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """Set up, run the cycles and check them.

    Returns the benchmark's result object, and the printed-only metrics plus
    the output digests of the untraced run.
    """
    work = WORK / workload
    deadline = time.monotonic() + RUN_TIMEOUT_S
    setups = [_child(["setup", workload, str(seed)], ROOT / WORK / f"{workload}.setup.json",
                     deadline)
              for _ in range(SETUP_REPEATS)]
    checks = []
    if len({s["inputs_digest"] for s in setups}) != 1:
        checks.append("set-up wrote different inputs for the same seed")
    if not trace:
        plain = _child(["run", workload, str(seconds)], ROOT / work / "untraced.json", deadline)
        m = end_to_end(plain, setups)
        _print_end_to_end(f"{workload} seed {seed}", m, plain)
        metrics = {name: {"value": m[name], "unit": unit}
                   for name, unit in END_TO_END if name not in NOT_IN_RESULT}
        attempted, failed = len(plain["merge_s"]), len(plain["failures"])
    else:
        plain = _child(["run", workload, str(seconds), "--traced", str(work / "spans.jsonl")],
                       ROOT / work / "traced.json", deadline)
        m = end_to_end(plain, setups)
        _print_end_to_end(f"{workload} seed {seed}", m, plain)
        if plain["traced"]["count_mismatches"]:
            checks.append("layer counts moved between cycles of the same pair: "
                          + ", ".join(plain["traced"]["count_mismatches"]))
        metrics = per_layer(plain, setups)
        print(f"  spans of the traced passes written to {work / 'spans.jsonl'} "
              f"({plain['traced']['n_spans']} spans)")
        for name, v in metrics.items():
            print(f"  {name:<52} {v['value']:.6f} {v['unit']}")
        attempted = len(plain["merge_s"]) + len(plain["traced_merge_s"])
        failed = len(plain["failures"])
    for c in checks:
        print(f"  CHECK FAILED: {c}", file=sys.stderr)
    result = {"correct": failed == 0 and not checks, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    return result, {**{name: m[name] for name in NOT_IN_RESULT}, "digests": plain["digests"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=45)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    os.chdir(ROOT)
    if not (ROOT / "src" / "dwmerge" / "cli.py").is_file():
        print("bench: src/dwmerge not found; run from a full checkout", file=sys.stderr)
        return 2
    try:
        if args.workload != "all":
            result, _ = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
            print(json.dumps(result))
            return 0
        baseline = {"seed": args.seed, "seconds": args.seconds, "workloads": {}}
        for workload in WORKLOADS:
            e2e, printed = run_workload(workload, args.seed, args.seconds, False)
            layers, _ = run_workload(workload, args.seed, args.seconds, True)
            baseline["workloads"][workload] = {"end_to_end": e2e, "printed_only": printed,
                                               "per_layer": layers}
        (BENCH / "baseline.json").write_text(json.dumps(baseline, indent=1) + "\n",
                                             encoding="utf-8")
        print(f"wrote {BENCH / 'baseline.json'}")
        return 0
    except (ChildFailed, subprocess.TimeoutExpired) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
