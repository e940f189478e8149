"""Byte-identity guard: merge and gen output must not change across refactors.

Each merge case generates a small seeded pair in-process, runs ``dwmerge merge``
and ``dwmerge validate --strict`` through :func:`dwmerge.cli.main` with
relative paths (so the config echo in ``report.json`` is the same on every
machine), and compares the SHA-256 of the output directory with a recorded
digest. A change that is meant to alter the output bytes must update the
digest here and say why. The gen cases run ``dwmerge gen`` the same way
and digest both written warehouses plus the manifest.
"""

import hashlib
import json

import pytest

from dwmerge import cli, io
from dwmerge.generator import (GenFact, GenSpec, generate_pair, preset_basic, preset_const22,
                               preset_divergent, preset_star4, spec_to_dict)


def conflict_spec(seed: int = 8, rows: int = 200, fact_rows: int = 600) -> GenSpec:
    spec = preset_basic(seed=seed, rows=rows, fact_rows=fact_rows)
    f = spec.facts[0]
    return GenSpec(spec.name, spec.seed, spec.dimensions,
                   (GenFact(f.name, f.rows, f.dims, f.measures,
                            conflict_measure="price", conflict_fraction=0.5),),
                   spec.overlap)


CASES = {
    "basic": (lambda: preset_basic(seed=7, rows=400, fact_rows=2000), [],
              "e23976409c3dde65fa0f9801e0ddea4abcdfd83d7692038810b4e3225bb20fe9"),
    # Constellation output, a side-only dimension from each input, and an
    # enrichment that completes a right dimension.
    "const22": (lambda: preset_const22(seed=7), [],
                "166ccae87e00168db54bcc2d3adefc288991bdc158c777bc575a8d94f42f4034"),
    # Every row on the customer's merged chain (customer_id, nation, region)
    # is on a longer merged chain too, so that chain is pruned.
    "const22-covered-chain": (lambda: preset_const22(seed=1, overlap=1.0), [],
                              "6e4c50b70ff82330275c7aa29728c4d6ff7c87f94cb7486c8ebed9c864fc7b1a"),
    "divergent": (lambda: preset_divergent(seed=7, rows=600), [],
                  "cb55ab695159ac83ad6e1cc1cd1381c6169614914182b9c82e3b00f86d0bfedd"),
    # Cross-enrichment adds an attribute, so merge_all_dimensions re-matches pairs.
    "star4": (lambda: preset_star4(seed=7), [],
              "fe15f4bf916e7131620249a516a2ed0cf7a022cc8d781b60576e54e568fc504e"),
    # 184 shared fact tuples, 99 of them with a conflicting price: the
    # policy decides which price each fused row keeps.
    "conflict-left": (conflict_spec, ["--conflict", "left"],
                      "1c09c6e1980d48db06e69b1d85f7f73e0ad45beffac6c4741c1a8f8f5aa6e048"),
    "conflict-right": (conflict_spec, ["--conflict", "right"],
                       "af75c3ba6ab0377ce438a7cab7ec0f52bc2dd5504e2f2037e76b653809fb5921"),
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
    spec, flags, want = CASES[case]
    dw1, dw2, _ = generate_pair(spec())
    monkeypatch.chdir(tmp_path)
    io.write_dw(dw1, "dw1")
    io.write_dw(dw2, "dw2")
    assert cli.main(["merge", *flags, "dw1", "dw2", "out"]) == cli.EXIT_OK
    capsys.readouterr()
    assert cli.main(["validate", "--strict", "out"]) == cli.EXIT_OK
    assert capsys.readouterr().out == "out: OK\n"
    assert tree_digest(tmp_path / "out") == want


GEN_CASES = {
    "basic": (["--preset", "basic", "--seed", "1", "--rows", "200", "--fact-rows", "600"],
              "9088ba724ff245c92a030cbde67ef40c980f473975bb9b1e0b95f195f6291bd2"),
    # round(0 * rows) = 0 sampled rows: both warehouses are empty.
    "basic-overlap-0": (["--preset", "basic", "--seed", "2", "--overlap", "0"],
                        "9fcb8ca9182af795c0fd43d91c7ca46071766372d8a4b23bee9a29ce1c1ea765"),
    "const22": (["--preset", "const22", "--seed", "3"],
                "501a5a4d2035d169e73234ae1c050ec1c165ba74fd158650d6867332da88abaa"),
    "divergent": (["--preset", "divergent", "--seed", "4", "--rows", "500",
                   "--fact-rows", "800", "--overlap", "0.3"],
                  "175aa9d002869254ffe5f0ff09f79f32d8b2f4e4c51fce20c66de4121aa0817f"),
    "star4": (["--preset", "star4", "--seed", "5", "--fact-rows", "1000"],
              "96dfc3a088fcfc15fc04e4a6beaecef1824cc79f3679df9bd89d43032654d807"),
    # Side 2 adds 1 to the price of about half the shared fact tuples.
    "conflict-plan": (["--spec", "spec.json"],
                      "5c47ad022270f68b0ba91a128bfe041dd4efa3905e4df2912e7b74aa39871ff3"),
    # 12,000 fact rows with a conflict plan: their measures and conflict
    # draws take 14 blocks of generator output, the cases above 2 at most.
    "conflict-plan-large": (["--spec", "large.json"],
                            "a73170be5f1d3b62c9dd25b5fe8448a23e6b77e3fa0e8fab95cebe9ac8f3e99f"),
}

SPEC_FILES = {"spec.json": conflict_spec,
              "large.json": lambda: conflict_spec(seed=9, rows=2000, fact_rows=12000)}


@pytest.mark.parametrize("case", sorted(GEN_CASES))
def test_gen_output_digest(case, tmp_path, monkeypatch, capsys):
    flags, want = GEN_CASES[case]
    monkeypatch.chdir(tmp_path)
    for name, spec in SPEC_FILES.items():
        (tmp_path / name).write_text(json.dumps(spec_to_dict(spec())))
    assert cli.main(["gen", "out/dw1", "out/dw2", "--manifest", "out/manifest.json",
                     *flags]) == cli.EXIT_OK
    capsys.readouterr()
    assert tree_digest(tmp_path / "out") == want


# Hand-written tables for load paths no generated pair reaches: a repeated
# id, kept first under non-strict loading, in a text and in a numeric id
# column (1 and 1.0 are one number), numeric ids spelt apart on the two
# sides, and quoted text cells holding a comma, a newline and a quote. The
# two customer hierarchies merge into cid -> city -> region -> country.
HAND_WRITTEN = {
    "dw1": {
        "customer.csv": ('cid,city,region\n'
                         '1,"Paris, ile\nde France",idf\n'
                         '2,Lyon,ara\n'
                         '1.0,Dup,dup\n'
                         '4,,south\n'),
        "product.csv": ('pid,label,family\n'
                        'p1,"bolt, 6 mm",hardware\n'
                        'p2,"nut ""M6""",hardware\n'
                        'p1,repeat,ignored\n'),
        "sales.csv": 'cid,pid,qty\n1,p1,3\n2,p2,4\n4,p1,1\n',
        "schema.json": {
            "formatVersion": 1, "name": "hand1",
            "facts": [{"name": "sales", "table": "sales.csv", "measures": ["qty"],
                       "dimensionKeys": [{"dimension": "customer", "column": "cid"},
                                         {"dimension": "product", "column": "pid"}]}],
            "dimensions": [
                {"name": "customer", "table": "customer.csv", "id": "cid",
                 "attributes": ["cid", "city", "region"], "numericAttributes": ["cid"],
                 "hierarchies": [{"name": "geo", "parameters": ["cid", "city", "region"]}]},
                {"name": "product", "table": "product.csv", "id": "pid",
                 "attributes": ["pid", "label", "family"],
                 "hierarchies": [{"name": "kind", "parameters": ["pid", "family"]}]}]},
    },
    "dw2": {
        "customer.csv": ('cid,city,country\n'
                         '1.0,"Paris, ile\nde France",fr\n'
                         '3,Lyon,fr\n'
                         '5,Nice,\n'
                         '4.00,Nice,fr\n'),
        "product.csv": 'pid,family\np1,hardware\np3,paint\n',
        "sales.csv": 'cid,pid,qty\n1.0,p1,5\n3,p3,2\n5,p1,7\n',
        "schema.json": {
            "formatVersion": 1, "name": "hand2",
            "facts": [{"name": "sales", "table": "sales.csv", "measures": ["qty"],
                       "dimensionKeys": [{"dimension": "customer", "column": "cid"},
                                         {"dimension": "product", "column": "pid"}]}],
            "dimensions": [
                {"name": "customer", "table": "customer.csv", "id": "cid",
                 "attributes": ["cid", "city", "country"], "numericAttributes": ["cid"],
                 "hierarchies": [{"name": "geo", "parameters": ["cid", "city", "country"]}]},
                {"name": "product", "table": "product.csv", "id": "pid",
                 "attributes": ["pid", "family"],
                 "hierarchies": [{"name": "kind", "parameters": ["pid", "family"]}]}]},
    },
}


def test_merge_output_digest_of_hand_written_tables(tmp_path, monkeypatch, capsys, caplog):
    for side, files in HAND_WRITTEN.items():
        (tmp_path / side).mkdir()
        for name, body in files.items():
            text = json.dumps(body) if name == "schema.json" else body
            (tmp_path / side / name).write_text(text, encoding="utf-8", newline="")
    monkeypatch.chdir(tmp_path)
    assert cli.main(["merge", "dw1", "dw2", "out"]) == cli.EXIT_OK
    kept_first = [r.getMessage() for r in caplog.records if "keeping the first" in r.getMessage()]
    assert len(kept_first) == 2, kept_first
    capsys.readouterr()
    assert cli.main(["validate", "--strict", "out"]) == cli.EXIT_OK
    assert capsys.readouterr().out == "out: OK\n"
    assert tree_digest(tmp_path / "out") == (
        "e34fc589e5840c404095590d2248c6d28abdf5219a7a1c95fc2dc0341b7dbbf2")
