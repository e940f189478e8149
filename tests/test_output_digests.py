"""Byte-identity guard: merge output must not change across refactors.

Each case generates a small seeded pair in-process, runs ``dwmerge merge``
and ``dwmerge validate --strict`` through :func:`dwmerge.cli.main` with
relative paths (so the config echo in ``report.json`` is the same on every
machine), and compares the SHA-256 of the output directory with a recorded
digest. A change that is meant to alter the output bytes must update the
digest here and say why.
"""

import hashlib

import pytest

from dwmerge import cli, io
from dwmerge.generator import (generate_pair, preset_basic, preset_const22, preset_divergent,
                               preset_star4)

CASES = {
    "basic": (lambda: preset_basic(seed=7, rows=400, fact_rows=2000),
              "e23976409c3dde65fa0f9801e0ddea4abcdfd83d7692038810b4e3225bb20fe9"),
    # Constellation output, a side-only dimension from each input, and an
    # enrichment that completes a right dimension.
    "const22": (lambda: preset_const22(seed=7),
                "166ccae87e00168db54bcc2d3adefc288991bdc158c777bc575a8d94f42f4034"),
    "divergent": (lambda: preset_divergent(seed=7, rows=600),
                  "cb55ab695159ac83ad6e1cc1cd1381c6169614914182b9c82e3b00f86d0bfedd"),
    # Cross-enrichment adds an attribute, so merge_all_dimensions re-matches pairs.
    "star4": (lambda: preset_star4(seed=7),
              "fe15f4bf916e7131620249a516a2ed0cf7a022cc8d781b60576e54e568fc504e"),
}


def tree_digest(directory) -> str:
    """SHA-256 over the relative path and bytes of every file below ``directory``."""
    h = hashlib.sha256()
    for p in sorted(q for q in directory.rglob("*") if q.is_file()):
        h.update(p.relative_to(directory).as_posix().encode() + b"\0")
        h.update(p.read_bytes())
        h.update(b"\0")
    return h.hexdigest()


@pytest.mark.parametrize("case", sorted(CASES))
def test_merge_output_digest(case, tmp_path, monkeypatch, capsys):
    spec, want = CASES[case]
    dw1, dw2, _ = generate_pair(spec())
    monkeypatch.chdir(tmp_path)
    io.write_dw(dw1, "dw1")
    io.write_dw(dw2, "dw2")
    assert cli.main(["merge", "dw1", "dw2", "out"]) == cli.EXIT_OK
    capsys.readouterr()
    assert cli.main(["validate", "--strict", "out"]) == cli.EXIT_OK
    assert capsys.readouterr().out == "out: OK\n"
    assert tree_digest(tmp_path / "out") == want
