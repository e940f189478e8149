import filecmp
import gc
import json
import os
import subprocess
import sys
from decimal import Decimal
from pathlib import Path

import pytest

from dwmerge import __version__, io
from dwmerge.cli import main
from dwmerge.generator import (GenFact, GenSpec, generate_pair, preset_basic, preset_star4,
                               spec_to_dict)
from dwmerge.model import Hierarchy, star_schema

from conftest import dimension_from_rows, fact_from_rows, rows_of


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
    assert merged.fact is not None


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
    assert merged.fact is None
    report = json.loads((out / "report.json").read_text())
    assert report["result"] == "constellation"


def test_constellation_merge_checks_a_map_measure_entry(tmp_path, capsys):
    # The facts are not fused, so no measure matching reads the entry.
    c1, c2, out = tmp_path / "c1", tmp_path / "c2", tmp_path / "out"
    assert main(["gen", str(c1), str(c2), "--seed", "3", "--preset", "const22"]) == 0
    capsys.readouterr()
    umap = tmp_path / "map.txt"
    umap.write_text("pair sales_parts.quantty sales_dates.quantity\n", encoding="utf-8")
    named = "user map line 1: sales_parts.quantty names an unknown attribute"
    for command in (["match", c1, c2], ["merge", c1, c2, out]):
        assert main([*map(str, command), "--map", str(umap)]) == 2
        assert named in capsys.readouterr().err
    assert not out.exists()


def test_merge_self_preserves_counts(tmp_path):
    dw1, _ = gen(tmp_path)
    out = tmp_path / "self"
    assert main(["merge", str(dw1), str(dw1), str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    for t in report["tables"]:
        assert t["rowsShared"] == t["rowsLeft"] == t["rowsMerged"]


def test_remerging_a_star4_output_with_an_input(tmp_path, capsys):
    # Enrichment fills region into every customer row of a, and each of those
    # rows fuses with a row of ab that already holds region: no fill counts.
    a, b, ab = tmp_path / "a", tmp_path / "b", tmp_path / "ab"
    assert main(["gen", str(a), str(b), "--preset", "star4", "--seed", "3"]) == 0
    assert main(["merge", str(a), str(b), str(ab)]) == 0
    for left, right in ((ab, a), (a, ab)):
        out = tmp_path / f"{left.name}_{right.name}"
        assert main(["merge", str(left), str(right), str(out)]) == 0
        assert main(["validate", "--strict", str(out)]) == 0
        assert json.loads((out / "report.json").read_text())["completedAttributes"] == []
    names = [p.name for p in sorted(ab.glob("*.csv"))]
    match, mismatch, errors = filecmp.cmpfiles(ab, tmp_path / "ab_a", names, shallow=False)
    assert match == names


def test_merging_a_const22_warehouse_with_itself(tmp_path, capsys):
    # Both sides enrich the same 300 customer cells with region; each counts once.
    c, d, out = tmp_path / "c", tmp_path / "d", tmp_path / "cc"
    assert main(["gen", str(c), str(d), "--preset", "const22", "--seed", "3"]) == 0
    assert main(["merge", str(c), str(c), str(out)]) == 0
    assert main(["validate", "--strict", str(out)]) == 0
    completed = json.loads((out / "report.json").read_text())["completedAttributes"]
    assert [(e["table"], e["attribute"], e["filled"], e["nonNullMerged"])
            for e in completed] == [("customer", "region", 300, 300)]


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


@pytest.mark.parametrize("command, what, unmade", [
    (["merge", "{dw1}", "{dw2}", "{file}"], "warehouse {file}", []),
    (["merge", "{dw1}", "{dw2}", "{out}", "--report", "{file}/r.json"], "report {file}/r.json",
     ["{out}"]),
    (["gen", "{file}", "{out}"], "warehouse {file}", []),
    (["gen", "{out}", "{out}2", "--manifest", "{file}/m.json"], "manifest {file}/m.json",
     ["{out}", "{out}2"]),
], ids=["merge-out", "merge-report", "gen-out", "gen-manifest"])
def test_unwritable_output_is_exit_2(command, what, unmade, tmp_path, capsys):
    # an existing file stands where a directory is to be made; a report or
    # manifest that cannot be written stops the command before any warehouse
    dw1, dw2 = gen(tmp_path)
    paths = {"dw1": dw1, "dw2": dw2, "file": tmp_path / "f", "out": tmp_path / "out"}
    paths["file"].touch()
    capsys.readouterr()
    assert main([arg.format(**paths) for arg in command]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"dwmerge: cannot write {what.format(**paths)}: ")
    assert err.count("\n") == 1
    assert not [p for p in unmade if Path(p.format(**paths)).exists()]


@pytest.mark.parametrize("command, flag, target", [
    (["merge", "{dw1}", "{dw2}", "{out}", "--report", "{out}/schema.json"], "--report",
     "{out}/schema.json"),
    (["merge", "{dw1}", "{dw2}", "{out}", "--report", "{out}/sales.csv"], "--report",
     "{out}/sales.csv"),
    (["merge", "{dw1}", "{dw2}", "{out}", "--report", "{dw1}/schema.json"], "--report",
     "{dw1}/schema.json"),
    (["merge", "{dw1}", "{dw2}", "{out}", "--report", "{dw2}/../dw2/product.csv"], "--report",
     "{dw2}/product.csv"),
    (["gen", "{out}", "{out}2", "--manifest", "{out}/schema.json"], "--manifest",
     "{out}/schema.json"),
    (["gen", "{out}", "{out}2", "--manifest", "{out}2/customer.csv"], "--manifest",
     "{out}2/customer.csv"),
], ids=["merge-out-descriptor", "merge-out-table", "merge-input-descriptor",
        "merge-input-table", "gen-descriptor", "gen-table"])
def test_report_or_manifest_over_a_warehouse_file_is_exit_5(command, flag, target, tmp_path,
                                                           capsys):
    # Written, such a report or manifest leaves a warehouse that does not
    # reload; it is refused before anything is written.
    dw1, dw2 = gen(tmp_path)
    inputs = {p: p.read_bytes() for p in sorted([*dw1.iterdir(), *dw2.iterdir()])}
    paths = {"dw1": dw1, "dw2": dw2, "out": tmp_path / "out"}
    argv = [arg.format(**paths) for arg in command]
    capsys.readouterr()
    assert main(argv) == 5
    err = capsys.readouterr().err
    assert err == f"dwmerge: {flag} {argv[-1]} would overwrite {target.format(**paths)}\n"
    assert not (tmp_path / "out").exists() and not (tmp_path / "out2").exists()
    assert {p: p.read_bytes() for p in sorted([*dw1.iterdir(), *dw2.iterdir()])} == inputs


def test_unmergeable_exit_code(tmp_path):
    spec1 = preset_basic(seed=1)
    dw1, _, _ = generate_pair(spec1)
    # rename every attribute so nothing matches
    dims = []
    for d in dw1.dimensions:
        ren = {a: f"z_{a}" for a in d.attributes}
        rows = {k: {ren[a]: v for a, v in r.items()} for k, r in rows_of(d).items()}
        hierarchies = tuple(Hierarchy(h.name, tuple(ren[p] for p in h.parameters))
                            for h in d.hierarchies)
        dims.append(dimension_from_rows(d.name, ren[d.root], tuple(ren[a] for a in d.attributes),
                                        hierarchies, rows, frozenset()))
    fact = fact_from_rows(dw1.fact.name, dw1.fact.measures,
                          tuple((dn, f"z_{c}") for dn, c in dw1.fact.dimension_keys),
                          [{(f"z_{c}" if c in dict(dw1.fact.dimension_keys).values() else c): v
                            for c, v in r.items()} for r in rows_of(dw1.fact)], dw1.fact.numeric)
    weird = star_schema("weird", fact, tuple(dims))
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

    # An entry that no table pair would read is refused by match and merge.
    for entry, named in [
            ("pair custmer.city customer.city",
             "custmer.city names no dimension or fact of the left warehouse"),
            ("forbid customer.city sale.quantity",
             "sale.quantity names no dimension or fact of the right warehouse"),
            ("pair customer.city sales.quantity",
             "customer.city and sales.quantity pair a dimension with a fact")]:
        umap.write_text(f"# a typo below\n{entry}\n", encoding="utf-8")
        for command in (["match", dw1, dw2], ["merge", dw1, dw2, tmp_path / "out"]):
            assert main([*map(str, command), "--map", str(umap)]) == 2
            assert f"user map line 2: {named}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("target", ["table", "descriptor", "map"])
def test_non_utf8_input_is_exit_2(target, tmp_path, capsys):
    dw1, dw2 = gen(tmp_path)
    umap = tmp_path / "map.txt"
    umap.write_text("# no entries\n", encoding="utf-8")
    if target == "table":
        # Line 250 lies past the text reader's first decoded block.
        bad = dw1 / "customer.csv"
        lines = bad.read_text(encoding="utf-8").split("\n")
        lines[249] += "\xe9"  # appended to the row's last field
        bad.write_bytes("\n".join(lines).encode("latin-1"))
        where = f"{bad}:250"
    elif target == "descriptor":
        bad = dw1 / "schema.json"
        bad.write_bytes(bad.read_bytes().replace(b'"name": "', b'"name": "\xe9', 1))
        where = str(bad)
    else:
        bad = umap
        bad.write_bytes("forbid customer.r\xe9gion customer.region\n".encode("latin-1"))
        where = str(bad)
    assert main(["merge", str(dw1), str(dw2), str(tmp_path / "out"), "--map", str(umap)]) == 2
    err = capsys.readouterr().err
    assert where in err and "can't decode byte 0xe9" in err
    if target != "map":
        assert main(["validate", str(dw1)]) == 2
        assert where in capsys.readouterr().err


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
    left = {(r["customer_id"], r["product_id"]): r["price"] for r in rows_of(dw1.fact)}
    expected = [
        {"table": "sales", "key": f"({r['customer_id']}, {r['product_id']})",
         "attribute": "price", "left": str(left[k]), "right": str(r["price"]),
         "chosen": str(left[k])}
        for r in rows_of(dw2.fact)
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
    cust = dimension_from_rows("cust", "cust_id", ("cust_id",), (Hierarchy("h", ("cust_id",)),),
                               {k: {"cust_id": k} for k in ids}, numeric)
    fact = fact_from_rows("sales", ("qty",), (("cust", "cust_id"),),
                          [{"cust_id": k, "qty": Decimal(5)} for k in ids],
                          frozenset({"qty"}) | numeric)
    io.write_dw(star_schema(path.name, fact, (cust,)), path)


def test_numeric_matched_with_text_is_exit_3(tmp_path, capsys):
    _two_row_warehouse(tmp_path / "dw1", numeric_id=True)
    _two_row_warehouse(tmp_path / "dw2", numeric_id=False)
    out = tmp_path / "out"
    assert main(["merge", str(tmp_path / "dw1"), str(tmp_path / "dw2"), str(out)]) == 3
    err = capsys.readouterr().err
    assert err.count("cust.cust_id") == 2 and "numeric" in err
    assert not out.exists()


# ---------------------------------------------------------------------------
# the cyclic collector is paused while a command runs
# ---------------------------------------------------------------------------

def collections_during(argv):
    """``main(argv)``'s exit code and the generation of each collection
    that starts while it runs."""
    starts = []

    def hook(phase, info):
        if phase == "start":
            starts.append(info["generation"])

    unhook = gc.callbacks.remove  # bound now: nothing may allocate after main
    gc.collect()  # zero the allocation counts, so no collection is due on entry
    gc.callbacks.append(hook)
    try:
        code = main(argv)
    finally:
        unhook(hook)
    return code, starts


def test_commands_run_with_the_collector_paused(tmp_path, collector, capsys):
    dw1, dw2 = gen(tmp_path)
    out = str(tmp_path / "out")
    gc.enable()
    assert collections_during(["merge", str(dw1), str(dw2), out]) == (0, [])
    assert collections_during(["validate", "--strict", out]) == (0, [])
    assert gc.isenabled()


def exit_code(argv):
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


@pytest.mark.parametrize("enabled", [True, False], ids=["on", "off"])
@pytest.mark.parametrize("argv, code", [
    (["validate", "{num}"], 0),
    (["validate", "{missing}"], 2),
    (["merge", "{num}", "{text}", "{out}"], 3),
    (["--help"], 0),
    (["validate", "--no-such-flag", "{num}"], 5),
], ids=["ok", "load-error", "unmergeable", "help", "unknown-flag"])
def test_main_restores_the_collector(argv, code, enabled, tmp_path, collector, capsys):
    _two_row_warehouse(tmp_path / "num", numeric_id=True)
    _two_row_warehouse(tmp_path / "text", numeric_id=False)
    paths = {name: tmp_path / name for name in ("num", "text", "missing", "out")}
    (gc.enable if enabled else gc.disable)()
    assert exit_code([arg.format(**paths) for arg in argv]) == code
    assert gc.isenabled() is enabled


def cyclic_garbage_of_one_merge(tmp_path, rows):
    dw1, dw2, _ = generate_pair(preset_basic(5, rows=rows))
    io.write_dw(dw1, tmp_path / "dw1")
    io.write_dw(dw2, tmp_path / "dw2")
    gc.collect()
    gc.disable()  # so main leaves it off and the count is all the merge's
    assert main(["merge", str(tmp_path / "dw1"), str(tmp_path / "dw2"),
                 str(tmp_path / "out")]) == 0
    return gc.collect()


def test_a_merge_leaves_cyclic_garbage_of_a_fixed_size(tmp_path, collector, capsys):
    # the parser and the report encoder, whatever the row count: a paused
    # collector holds a fixed amount per command
    small = cyclic_garbage_of_one_merge(tmp_path / "small", 300)
    large = cyclic_garbage_of_one_merge(tmp_path / "large", 1200)
    assert small == large


@pytest.mark.parametrize("flags", [
    ["--preset", "star4", "--rows", "50"],
    ["--preset", "const22", "--rows", "50"],
    ["--preset", "const22", "--fact-rows", "50"],
    ["--spec", "spec.json", "--rows", "50"],
    ["--spec", "spec.json", "--overlap", "0.5"],
    ["--spec", "spec.json", "--fact-rows", "50"],
    ["--spec", "spec.json", "--seed", "3"],
    ["--spec", "spec.json", "--preset", "star4"],
], ids=" ".join)
def test_gen_refuses_flags_it_would_ignore(flags, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "spec.json").write_text(json.dumps(spec_to_dict(preset_star4(seed=1))))
    assert main(["gen", "dw1", "dw2", *flags]) == 5
    assert f"{flags[-2]} does not apply" in capsys.readouterr().err
    assert not (tmp_path / "dw1").exists()


def without(obj: dict, key: str) -> None:
    del obj[key]


# An edit changes the document in place or returns the one to write instead.
@pytest.mark.parametrize("edit, named", [
    (lambda doc: without(doc["dimensions"][0], "rows"), "lacks the required field 'rows'"),
    (lambda doc: without(doc["facts"][0], "measures"), "lacks the required field 'measures'"),
    (lambda doc: without(doc, "seed"), "lacks the required field 'seed'"),
    (lambda doc: doc["facts"][0].update(view2Measures=["quantity", "discount"]),
     "view2Measures names unknown measure 'discount'"),
    (lambda doc: doc["dimensions"][0].update(view1=[]),
     "side 1's view must name at least one chain"),
    (lambda doc: doc["dimensions"][2].update(chains=[]),
     "side 1's view must name at least one chain"),
    (lambda doc: doc["facts"][0].update(dims=["customer", "customer"]), "dims repeat"),
    (lambda doc: doc["facts"][0].update(view1Measures=["quantity", "quantity"]),
     "view1Measures repeat"),
    (lambda doc: [doc], "generator spec must be a JSON object"),
    (lambda doc: doc["dimensions"][0].update(rows="400"), "'rows' must be an integer"),
    (lambda doc: doc["facts"][0].update(rows=-3), "fact lineorder: rows must be >= 0, not -3"),
    (lambda doc: doc["facts"][0].update(conflictFraction=7),
     "fact lineorder: conflictFraction must be within [0, 1]"),
    (lambda doc: doc["facts"][0].update(conflictMeasures="revenue", conflictFraction=0.5),
     "generator spec fact 'lineorder' has an unknown field 'conflictMeasures'"),
    (lambda doc: doc.update(overlapp=0.5),
     "generator spec 'star4' has an unknown field 'overlapp'"),
    (lambda doc: doc["dimensions"][0]["attrs"][1].update(divsor=2),
     "generator spec attr 'city' has an unknown field 'divsor'"),
    (lambda doc: doc["dimensions"][0]["chains"][0].update(params=["customer_id"]),
     "generator spec chain 'c_geo_a' has an unknown field 'params'"),
    (lambda doc: doc["facts"][0].update(conflictFraction=0.5),
     "fact lineorder: conflictFraction 0.5 needs a conflictMeasure"),
    (lambda doc: doc["dimensions"][0].update(rows=-5),
     "dimension customer: rows must be >= 0, not -5"),
    (lambda doc: doc.update(overlap=1.5), "overlap must be within [0, 1]"),
    (lambda doc: doc["dimensions"][0].update(overlap=-0.1),
     "customer: overlap must be within [0, 1]"),
    (lambda doc: doc["dimensions"][1].update(name="customer"), "dimension names repeat"),
    (lambda doc: doc["dimensions"][0]["attrs"][0].update(divisor=2),
     "customer: first attribute must be the id with divisor 1"),
    (lambda doc: doc["dimensions"][0]["attrs"][1].update(divisor=0),
     "customer.city: divisor must be >= 1"),
    (lambda doc: doc["dimensions"][0]["chains"][1].update(name="c_geo_a"),
     "customer: chain 'c_geo_a' repeats"),
    (lambda doc: doc["dimensions"][0]["chains"][0].update(parameters=["city", "nation"]),
     "customer.c_geo_a: chains must start at the id"),
    (lambda doc: doc["dimensions"][0]["chains"][0].update(parameters=["customer_id", "town"]),
     "customer.c_geo_a: unknown attribute 'town'"),
    (lambda doc: doc["dimensions"][0].update(view1=["c_geo_z"]),
     "customer: view references unknown chain 'c_geo_z'"),
    (lambda doc: doc["facts"][0].update(view2=False), "side 2 must carry exactly one fact"),
    (lambda doc: doc["facts"][0].update(dims=["customer", "store"]),
     "fact lineorder: unknown dimension 'store'"),
    (lambda doc: doc["dimensions"][0].update(view2=None),
     "fact lineorder: side 2 lacks dimension 'customer'"),
], ids=["no-dimension-rows", "no-fact-measures", "no-seed", "unknown-view-measure",
        "empty-view", "no-chains", "repeated-fact-dimension", "repeated-view-measure",
        "top-level-list", "text-rows", "negative-fact-rows", "conflict-fraction-above-1",
        "unknown-fact-key", "unknown-top-level-key", "unknown-attr-key", "unknown-chain-key",
        "conflict-fraction-without-measure", "negative-dimension-rows", "overlap-above-1",
        "dimension-overlap-below-0", "repeated-dimension-name", "id-divisor-not-1",
        "divisor-below-1", "repeated-chain-name", "chain-not-from-id",
        "unknown-chain-attribute", "view-unknown-chain", "side-without-fact",
        "fact-unknown-dimension", "side-lacks-fact-dimension"])
def test_gen_spec_errors_are_exit_5(edit, named, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    doc = spec_to_dict(preset_star4(seed=1))
    doc = edit(doc) or doc
    (tmp_path / "spec.json").write_text(json.dumps(doc))
    assert main(["gen", "dw1", "dw2", "--spec", "spec.json"]) == 5
    assert named in capsys.readouterr().err


def test_gen_unreadable_spec_is_exit_5(tmp_path, capsys):
    assert main(["gen", str(tmp_path / "dw1"), str(tmp_path / "dw2"),
                 "--spec", str(tmp_path / "missing.json")]) == 5
    assert "cannot read generator spec" in capsys.readouterr().err


def test_python_m_runs_the_cli_from_a_source_checkout():
    src = Path(__file__).resolve().parents[1] / "src"
    done = subprocess.run([sys.executable, "-m", "dwmerge", "--version"],
                          env={**os.environ, "PYTHONPATH": str(src)},
                          capture_output=True, text=True, timeout=60)
    assert (done.returncode, done.stdout, done.stderr) == (0, f"dwmerge {__version__}\n", "")
