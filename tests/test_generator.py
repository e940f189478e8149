import json
import math
import random

import pytest

from dwmerge import generator
from dwmerge.generator import (GenAttr, GenChain, GenDimension, GenFact, GenSpec,
                               generate_pair, preset_basic, preset_const22,
                               preset_divergent, preset_star4, spec_from_dict,
                               spec_to_dict)
from dwmerge.hierarchy_merge import enumerate_fds
from dwmerge.model import validate

from conftest import reference_fact_world, table
from test_output_digests import conflict_spec


@pytest.mark.parametrize("preset", [preset_basic, preset_divergent, preset_star4,
                                    preset_const22])
def test_generated_schemas_validate(preset):
    dw1, dw2, _ = generate_pair(preset(seed=2))
    assert validate(dw1) == []
    assert validate(dw2) == []


def test_same_seed_same_output():
    a1, a2, m_a = generate_pair(preset_basic(seed=9))
    b1, b2, m_b = generate_pair(preset_basic(seed=9))
    assert m_a == m_b
    for x, y in ((a1, b1), (a2, b2)):
        for dx in x.dimensions:
            assert dx.rows == y.dimension(dx.name).rows
        assert x.fact.rows == y.fact.rows
    c1, _, _ = generate_pair(preset_basic(seed=10))
    assert c1.dimension("customer").rows != a1.dimension("customer").rows


def test_overlap_extremes():
    full1, full2, m = generate_pair(preset_basic(seed=4, overlap=1.0))
    for d in full1.dimensions:
        assert d.rows == full2.dimension(d.name).rows
        assert m["dimensions"][d.name]["sharedKeys"] == len(d.rows)
    empty1, empty2, m0 = generate_pair(preset_basic(seed=4, overlap=0.0))
    for d in empty1.dimensions:
        assert d.rows == {} == empty2.dimension(d.name).rows
        assert m0["dimensions"][d.name]["sharedKeys"] == 0


def test_manifest_counts(tmp_path):
    dw1, dw2, m = generate_pair(preset_basic(seed=1, rows=1000))
    cust = m["dimensions"]["customer"]
    assert cust["worldRows"] == 1000
    assert cust["dw1Rows"] == len(dw1.dimension("customer").rows) == 750
    assert cust["dw2Rows"] == 750
    shared = set(dw1.dimension("customer").rows) & set(dw2.dimension("customer").rows)
    assert cust["sharedKeys"] == len(shared)


def test_rows_respect_declared_chains():
    dw1, dw2, _ = generate_pair(preset_divergent(seed=6))
    for schema in (dw1, dw2):
        for dim in schema.dimensions:
            for h in dim.hierarchies:
                for a, b in zip(h.parameters, h.parameters[1:]):
                    mapping = {}
                    for row in dim.rows.values():
                        assert mapping.setdefault(row[a], row[b]) == row[b]


def test_fd_ground_truth_holds_on_shared_rows():
    dw1, dw2, m = generate_pair(preset_divergent(seed=6))
    c1 = dw1.dimension("customer")
    c2 = dw2.dimension("customer")
    shared = sorted(set(c1.rows) & set(c2.rows))
    rows = [{**c2.rows[k], **c1.rows[k]} for k in shared]
    attrs = sorted(set(c1.attributes) | set(c2.attributes))
    discovered = enumerate_fds(table(rows, attrs), attrs)
    certified = {(a, b) for a, b in m["fdGroundTruth"]["customer"]}
    assert certified <= discovered


def test_fd_ground_truth_exact_on_full_overlap():
    # with full overlap the join covers the whole world, every accidental
    # dependency is contradicted, and discovery equals the certified edges
    dw1, dw2, m = generate_pair(preset_divergent(seed=6, overlap=1.0))
    c1 = dw1.dimension("customer")
    c2 = dw2.dimension("customer")
    shared = sorted(set(c1.rows) & set(c2.rows))
    rows = [{**c2.rows[k], **c1.rows[k]} for k in shared]
    attrs = sorted(set(c1.attributes) | set(c2.attributes))
    discovered = enumerate_fds(table(rows, attrs), attrs)
    certified = {(a, b) for a, b in m["fdGroundTruth"]["customer"]}
    assert discovered == certified


# Every optional field holds a value other than its default.
EVERY_OPTION = GenSpec("options", 4, (
    GenDimension("d", 100, (GenAttr("id"), GenAttr("a", 5)), (GenChain("c", ("id", "a")),),
                 view1=("c",), view2=None, overlap=0.5),
    GenDimension("e", 50, (GenAttr("eid"),), (GenChain("c", ("eid",)),),
                 view1=None, view2=("c",))), (
    GenFact("f1", 20, ("d",), ("m", "n"), view2=False, view1_measures=("m",),
            view2_measures=("n",)),
    GenFact("f2", 20, ("e",), ("p", "q"), view1=False, conflict_measure="p",
            conflict_fraction=0.25)), overlap=0.5)


@pytest.mark.parametrize("spec", [
    *(preset(seed=3) for preset in (preset_basic, preset_divergent, preset_star4,
                                    preset_const22)),
    conflict_spec(), EVERY_OPTION,
], ids=["basic", "divergent", "star4", "const22", "conflict", "every-option"])
def test_spec_round_trip(spec):
    assert spec_from_dict(json.loads(json.dumps(spec_to_dict(spec)))) == spec


def test_spec_json_names():
    doc = spec_to_dict(EVERY_OPTION)
    assert set(doc) == {"formatVersion", "name", "seed", "dimensions", "facts", "overlap"}
    assert set(doc["dimensions"][0]) == {"name", "rows", "attrs", "chains", "view1", "view2",
                                         "overlap"}
    assert set(doc["dimensions"][0]["attrs"][0]) == {"name", "divisor"}
    assert set(doc["dimensions"][0]["chains"][0]) == {"name", "parameters"}
    assert set(doc["facts"][0]) == {"name", "rows", "dims", "measures", "view1", "view2",
                                    "view1Measures", "view2Measures", "conflictMeasure",
                                    "conflictFraction"}


def test_infeasible_divisor_rejected():
    dim = GenDimension("d", 10, (GenAttr("id"), GenAttr("lvl", 50)),
                       (GenChain("c", ("id", "lvl")),))
    fact = GenFact("f", 5, ("d",), ("m",))
    with pytest.raises(ValueError, match="infeasible"):
        generate_pair(GenSpec("bad", 1, (dim,), (fact,)))


def test_non_rolling_chain_rejected():
    dim = GenDimension("d", 100, (GenAttr("id"), GenAttr("a", 6), GenAttr("b", 4)),
                       (GenChain("c", ("id", "a", "b")),))
    fact = GenFact("f", 5, ("d",), ("m",))
    with pytest.raises(ValueError, match="multiple"):
        generate_pair(GenSpec("bad", 1, (dim,), (fact,)))


def test_fact_space_exceeded():
    dim = GenDimension("d", 4, (GenAttr("id"),), (GenChain("c", ("id",)),))
    fact = GenFact("f", 10, ("d",), ("m",))
    with pytest.raises(ValueError, match="key space"):
        generate_pair(GenSpec("bad", 1, (dim,), (fact,)))


def test_conflict_plan_produces_conflicts():
    spec = preset_basic(seed=8)
    fact = spec.facts[0]
    conflicted = GenSpec(spec.name, spec.seed, spec.dimensions,
                         (GenFact(fact.name, fact.rows, fact.dims, fact.measures,
                                  conflict_measure="price", conflict_fraction=0.5),),
                         spec.overlap)
    dw1, dw2, _ = generate_pair(conflicted)
    keys1 = {tuple(r[c] for c in dw1.fact.key_columns()): r for r in dw1.fact.rows}
    diverged = 0
    for r in dw2.fact.rows:
        k = tuple(r[c] for c in dw2.fact.key_columns())
        if k in keys1 and keys1[k]["price"] != r["price"]:
            diverged += 1
    assert diverged > 0


@pytest.mark.parametrize("block", [5, generator._BLOCK])
def test_block_draws_match_random(block, monkeypatch):
    # Draw counts at and across block boundaries; the small block crosses
    # hundreds of them, the real one a few.
    monkeypatch.setattr(generator, "_BLOCK", block)
    counts = (0, 1, block - 1, block, 3 * block + 7)
    seeds = range(250) if block < 100 else range(15)
    stops = (100000, 2, 7, 1000, 3 ** 20)
    for seed in seeds:
        count, stop = counts[seed % 5], stops[seed // 5 % 5]
        rng = random.Random(seed)
        rng.random()  # start mid-stream, as after a fact's sample
        want = random.Random(seed)
        want.random()
        assert generator._draws(rng, count, stop) == [
            want.randrange(1, stop) for _ in range(count)], (seed, count, stop)


def random_fact(rng: random.Random, case: int) -> tuple[GenSpec, GenFact, dict]:
    """A fact over 1-4 dimensions with 0-3 measures, sometimes with a conflict plan."""
    sizes = {f"d{i}": rng.randint(1, 9) for i in range(rng.randint(1, 4))}
    if case % 10 == 9:  # past one block of draws
        sizes["d0"] = 10000
    space = math.prod(sizes.values())
    rows = (0, 1, space, rng.randint(0, space))[case % 4]
    if case % 10 == 9:
        rows = rng.randint(generator._BLOCK // 2, generator._BLOCK)
    measures = tuple(f"m{j}" for j in range(rng.randint(0, 3)))
    conflict = rng.choice(measures) if measures and rng.random() < 0.5 else None
    fact = GenFact(f"f{case}", rows, tuple(sizes), measures, conflict_measure=conflict,
                   conflict_fraction=rng.choice([0.0, 0.3, 1.0]) if conflict else 0.0)
    return GenSpec(f"s{case}", rng.randint(0, 10 ** 6), (), (fact,)), fact, sizes


def test_fact_world_matches_reference():
    rng = random.Random(2020)
    seen = {"rows 0": 0, "full space": 0, "conflict": 0, "no measure": 0, "past a block": 0}
    for case in range(320):
        spec, fact, sizes = random_fact(rng, case)
        keys, measures, divergent = generator._fact_world(spec, fact, sizes)
        assert len(keys) == len(fact.dims) and len(measures) == len(fact.measures)
        rows = [(tuple(c[i] for c in keys), tuple(c[i] for c in measures), divergent[i])
                for i in range(len(divergent))]
        assert rows == reference_fact_world(spec, fact, sizes), case
        seen["rows 0"] += fact.rows == 0
        seen["full space"] += fact.rows == math.prod(sizes.values()) > 1
        seen["conflict"] += any(divergent) and not all(divergent)
        seen["no measure"] += not fact.measures and fact.rows > 1
        # only a fact without a conflict measure draws in blocks
        seen["past a block"] += (fact.conflict_measure is None
                                 and fact.rows * len(fact.measures) > generator._BLOCK)
    assert all(seen.values()), seen
