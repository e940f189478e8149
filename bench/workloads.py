"""Benchmark workloads and the set-up that writes their inputs to disk.

Each workload is a list of generator specs derived from the workload seed.
Set-up generates every pair and writes it under ``WORK/<workload>/pairNN``
(``dw1``, ``dw2``, ``manifest.json``) plus a ``pairs.json`` index. The timed
cycles only ever see those directories. All paths are relative to the
repository root, so the ``config`` echo in each merge report, which records
the input paths, has the same bytes in every run and at every commit.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

from dwmerge import io as dw_io  # noqa: E402
from dwmerge import generator  # noqa: E402
from dwmerge.generator import (GenSpec, preset_basic, preset_const22,  # noqa: E402
                               preset_divergent, preset_star4)

WORK = Path(".bench_work")

# mixed-small: 4 presets x 4 overlaps, each combination twice per pass.
MIXED_PAIRS = 32
MIXED_OVERLAPS = (0.0, 0.5, 0.75, 1.0)
MIXED_MAKERS = (
    lambda seed, overlap: preset_star4(seed=seed, overlap=overlap),
    lambda seed, overlap: preset_const22(seed=seed, overlap=overlap),
    lambda seed, overlap: preset_divergent(seed=seed, rows=600, overlap=overlap),
    lambda seed, overlap: preset_basic(seed=seed, rows=400, overlap=overlap),
)


def pair_specs(workload: str, seed: int) -> list[GenSpec]:
    """The generator specs of one pass of ``workload`` for ``seed``."""
    if workload == "bulk":
        return [preset_basic(seed=seed, rows=10000, fact_rows=100000, overlap=0.75)]
    if workload == "divergent":
        return [preset_divergent(seed=seed, rows=12000, overlap=0.5)]
    if workload == "mixed-small":
        return [MIXED_MAKERS[i % 4](seed * 1000 + i, MIXED_OVERLAPS[(i // 4) % 4])
                for i in range(MIXED_PAIRS)]
    raise ValueError(f"unknown workload {workload!r}")


def schema_rows(schema) -> int:
    """Dimension plus fact rows of a star schema or constellation."""
    facts = schema.facts if hasattr(schema, "facts") else (schema.fact,)
    return sum(len(d.rows) for d in schema.dimensions) + sum(len(f.rows) for f in facts)


def tree_digest(directory: Path) -> str:
    """SHA-256 over the relative path and bytes of every file below ``directory``."""
    h = hashlib.sha256()
    for p in sorted(q for q in directory.rglob("*") if q.is_file()):
        h.update(p.relative_to(directory).as_posix().encode() + b"\0")
        h.update(p.read_bytes())
        h.update(b"\0")
    return h.hexdigest()


def set_up(workload: str, seed: int, root: Path | None = None) -> dict:
    """Generate and write every pair of ``workload``; return the set-up timings."""
    root = WORK / workload if root is None else root
    shutil.rmtree(root, ignore_errors=True)
    pairs = []
    generate_s = 0.0
    start = perf_counter()
    for i, spec in enumerate(pair_specs(workload, seed)):
        t = perf_counter()
        dw1, dw2, manifest = generator.generate_pair(spec)
        generate_s += perf_counter() - t
        pair_dir = root / f"pair{i:02d}"
        dw_io.write_dw(dw1, pair_dir / "dw1")
        dw_io.write_dw(dw2, pair_dir / "dw2")
        (pair_dir / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n",
                                                encoding="utf-8")
        pairs.append({"dir": pair_dir.as_posix(), "preset": spec.name,
                      "overlap": spec.overlap,
                      "rows_in": schema_rows(dw1) + schema_rows(dw2)})
    setup_s = perf_counter() - start
    (root / "pairs.json").write_text(json.dumps(pairs, indent=1) + "\n", encoding="utf-8")
    return {"setup_s": setup_s, "generate_s": generate_s,
            "inputs_digest": tree_digest(root)}


def load_pairs(workload: str, root: Path | None = None) -> list[dict]:
    root = WORK / workload if root is None else root
    return json.loads((root / "pairs.json").read_text(encoding="utf-8"))
