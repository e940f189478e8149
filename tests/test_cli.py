import filecmp
import json
from decimal import Decimal

import pytest

from dwmerge import io
from dwmerge.cli import main
from dwmerge.generator import GenFact, GenSpec, generate_pair, preset_basic
from dwmerge.model import Constellation, Dimension, Fact, Hierarchy, StarSchema


def gen(tmp_path, *extra):
    rc = main(["gen", str(tmp_path / "dw1"), str(tmp_path / "dw2"),
               "--seed", "5", *extra])
    assert rc == 0
    return tmp_path / "dw1", tmp_path / "dw2"


def test_gen_writes_pair_and_manifest(tmp_path, capsys):
    dw1, dw2 = gen(tmp_path)
    manifest = json.loads((tmp_path / "dw1.manifest.json").read_text())
    assert manifest["seed"] == 5
    assert io.load_dw(dw1).name == "basic1"
    assert io.load_dw(dw2).name == "basic2"


def test_gen_is_byte_deterministic(tmp_path):
    a1, _ = gen(tmp_path / "a")
    b1, _ = gen(tmp_path / "b")
    match, mismatch, errors = filecmp.cmpfiles(
        a1, b1, [p.name for p in sorted(a1.iterdir())], shallow=False)
    assert not mismatch and not errors


def test_merge_end_to_end(tmp_path, capsys):
    dw1, dw2 = gen(tmp_path)
    out = tmp_path / "merged"
    rc = main(["merge", str(dw1), str(dw2), str(out)])
    assert rc == 0
    printed = capsys.readouterr().out
    assert "result: star" in printed
    report = json.loads((out / "report.json").read_text())
    for t in report["tables"]:
        assert t["rowsMerged"] == (t["rowsLeft"] or 0) + (t["rowsRight"] or 0) \
            - t["rowsShared"]
    for c in report["completedAttributes"]:
        assert c["nonNullMerged"] == (c["nonNullLeft"] or 0) \
            + (c["nonNullRight"] or 0) + c["filled"]
    merged = io.load_dw(out)
    assert isinstance(merged, StarSchema)


def test_merge_repeated_runs_byte_identical(tmp_path):
    dw1, dw2 = gen(tmp_path)
    out_a, out_b = tmp_path / "out_a", tmp_path / "out_b"
    assert main(["merge", str(dw1), str(dw2), str(out_a)]) == 0
    assert main(["merge", str(dw1), str(dw2), str(out_b)]) == 0
    names = [p.name for p in sorted(out_a.iterdir())]
    match, mismatch, errors = filecmp.cmpfiles(out_a, out_b, names, shallow=False)
    assert not mismatch and not errors


def test_merge_constellation_round_trips(tmp_path):
    rc = main(["gen", str(tmp_path / "c1"), str(tmp_path / "c2"),
               "--seed", "3", "--preset", "const22"])
    assert rc == 0
    out = tmp_path / "outc"
    assert main(["merge", str(tmp_path / "c1"), str(tmp_path / "c2"), str(out)]) == 0
    merged = io.load_dw(out)
    assert isinstance(merged, Constellation)
    report = json.loads((out / "report.json").read_text())
    assert report["result"] == "constellation"


def test_merge_self_preserves_counts(tmp_path):
    dw1, _ = gen(tmp_path)
    out = tmp_path / "self"
    assert main(["merge", str(dw1), str(dw1), str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    for t in report["tables"]:
        assert t["rowsShared"] == t["rowsLeft"] == t["rowsMerged"]


def test_match_prints_correspondences(tmp_path, capsys):
    dw1, dw2 = gen(tmp_path)
    assert main(["match", str(dw1), str(dw2)]) == 0
    out = capsys.readouterr().out
    assert "attribute customer.customer_id ~ customer.customer_id" in out
    assert "measure sales.quantity ~ sales.quantity" in out


def test_validate_command(tmp_path, capsys):
    dw1, _ = gen(tmp_path)
    assert main(["validate", str(dw1)]) == 0
    assert main(["validate", str(tmp_path / "missing")]) == 2


def test_load_error_exit_code(tmp_path, capsys):
    dw1, dw2 = gen(tmp_path)
    (dw1 / "schema.json").write_text("{broken", encoding="utf-8")
    assert main(["merge", str(dw1), str(dw2), str(tmp_path / "x")]) == 2


def test_unmergeable_exit_code(tmp_path):
    spec1 = preset_basic(seed=1)
    dw1, _, _ = generate_pair(spec1)
    # rename every attribute so nothing matches
    from dwmerge.model import Dimension, Fact, Hierarchy, StarSchema as SS
    dims = []
    for d in dw1.dimensions:
        ren = {a: f"z_{a}" for a in d.attributes}
        rows = {k: {ren[a]: v for a, v in r.items()} for k, r in d.rows.items()}
        dims.append(Dimension(d.name, ren[d.root], tuple(ren[a] for a in d.attributes),
                              tuple(Hierarchy(h.name, tuple(ren[p] for p in h.parameters))
                                    for h in d.hierarchies), rows, frozenset()))
    fact = Fact(dw1.fact.name, dw1.fact.measures,
                tuple((dn, f"z_{c}") for dn, c in dw1.fact.dimension_keys),
                [{(f"z_{c}" if c in dict(dw1.fact.dimension_keys).values() else c): v
                  for c, v in r.items()} for r in dw1.fact.rows], dw1.fact.numeric)
    weird = SS("weird", fact, tuple(dims))
    io.write_dw(weird, tmp_path / "w1")
    dw1_dir = tmp_path / "plain"
    io.write_dw(dw1, dw1_dir)
    assert main(["merge", str(tmp_path / "w1"), str(dw1_dir),
                 str(tmp_path / "out")]) == 3


def test_usage_error_is_exit_5():
    with pytest.raises(SystemExit) as exc:
        main(["merge", "only-one-arg"])
    assert exc.value.code == 5


def test_internal_invariant_exit_code(tmp_path, monkeypatch):
    from dwmerge import cli
    from dwmerge.errors import InternalInvariantError

    def boom(*args, **kwargs):
        raise InternalInvariantError("law broken")

    dw1, dw2 = gen(tmp_path)
    monkeypatch.setattr(cli, "merge_stars", boom)
    assert main(["merge", str(dw1), str(dw2), str(tmp_path / "out")]) == 4


def test_user_map_via_flag(tmp_path, capsys):
    dw1, dw2 = gen(tmp_path)
    umap = tmp_path / "map.txt"
    umap.write_text("forbid customer.region customer.region\n", encoding="utf-8")
    assert main(["match", str(dw1), str(dw2), "--map", str(umap)]) == 0
    out = capsys.readouterr().out
    assert "customer.region ~ customer.region" not in out

    umap.write_text("pair customer.nope customer.region\n", encoding="utf-8")
    assert main(["match", str(dw1), str(dw2), "--map", str(umap)]) == 2


def test_no_prune_and_report_flags(tmp_path):
    dw1, dw2 = gen(tmp_path)
    out = tmp_path / "np"
    report_path = tmp_path / "custom-report.json"
    rc = main(["merge", str(dw1), str(dw2), str(out), "--no-prune",
               "--report", str(report_path), "--conflict", "right",
               "--min-support", "2", "--chain-cap", "8", "--strict"])
    assert rc == 0
    report = json.loads(report_path.read_text())
    assert report["config"]["prune"] is False
    assert report["config"]["conflict"] == "right"
    assert report["config"]["minSupport"] == 2
    assert report["prunedHierarchies"] == []


def test_fact_conflicts_reported_and_fatal_under_error(tmp_path, capsys):
    spec = preset_basic(seed=8, rows=60, fact_rows=200)
    fact = spec.facts[0]
    conflicted = GenSpec(spec.name, spec.seed, spec.dimensions,
                         (GenFact(fact.name, fact.rows, fact.dims, fact.measures,
                                  conflict_measure="price", conflict_fraction=0.3),),
                         spec.overlap)
    dw1, dw2, _ = generate_pair(conflicted)
    io.write_dw(dw1, tmp_path / "dw1")
    io.write_dw(dw2, tmp_path / "dw2")
    left = {(r["customer_id"], r["product_id"]): r["price"] for r in dw1.fact.rows}
    expected = [
        {"table": "sales", "key": f"({r['customer_id']}, {r['product_id']})",
         "attribute": "price", "left": str(left[k]), "right": str(r["price"]),
         "chosen": str(left[k])}
        for r in dw2.fact.rows
        for k in [(r["customer_id"], r["product_id"])]
        if k in left and left[k] != r["price"]]
    assert expected

    out = tmp_path / "merged"
    assert main(["merge", str(tmp_path / "dw1"), str(tmp_path / "dw2"), str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert sorted(report["conflicts"], key=lambda c: c["key"]) == \
        sorted(expected, key=lambda c: c["key"])

    capsys.readouterr()
    failed = tmp_path / "failed"
    assert main(["merge", str(tmp_path / "dw1"), str(tmp_path / "dw2"), str(failed),
                 "--conflict", "error"]) == 3
    assert "price" in capsys.readouterr().err
    assert not failed.exists()


def _two_row_warehouse(path, numeric_id):
    ids = [Decimal(1), Decimal(2)] if numeric_id else ["1", "2"]
    numeric = frozenset({"cust_id"}) if numeric_id else frozenset()
    cust = Dimension("cust", "cust_id", ("cust_id",), (Hierarchy("h", ("cust_id",)),),
                     {k: {"cust_id": k} for k in ids}, numeric)
    fact = Fact("sales", ("qty",), (("cust", "cust_id"),),
                [{"cust_id": k, "qty": Decimal(5)} for k in ids],
                frozenset({"qty"}) | numeric)
    io.write_dw(StarSchema(path.name, fact, (cust,)), path)


def test_numeric_matched_with_text_is_exit_3(tmp_path, capsys):
    _two_row_warehouse(tmp_path / "dw1", numeric_id=True)
    _two_row_warehouse(tmp_path / "dw2", numeric_id=False)
    out = tmp_path / "out"
    assert main(["merge", str(tmp_path / "dw1"), str(tmp_path / "dw2"), str(out)]) == 3
    err = capsys.readouterr().err
    assert err.count("cust.cust_id") == 2 and "numeric" in err
    assert not out.exists()
