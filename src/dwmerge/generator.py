"""Seeded synthetic warehouse pairs with a ground-truth manifest.

Every dimension is generated from one "world" table of ``rows`` rows. Each
attribute has a divisor; the value of attribute ``a`` on world row ``i`` is
the token ``f"{a}_{i // divisor:05d}"``, so along any chain whose divisors
divide each other every level functionally determines the next by
construction. Each warehouse side then samples ``round(overlap * rows)``
world rows independently (same seed, same output, always), which yields
both common and side-only instances: overlap 1.0 gives identical key sets,
overlap 0.0 samples no rows, so every table of both sides is empty.

Facts are generated as unique key-index tuples over the participating
dimensions with seeded integer measures; a side's fact keeps the world rows
whose keys were all sampled by that side, so shared fact tuples carry
identical measures unless a conflict plan says otherwise.

Each dimension side and each fact draws from its own ``random.Random``,
seeded from the spec's seed and name and the table's. A fact's draws come in
this order: ``sample`` of the world rows' keys, then for each world row in
key order its measures in declaration order, each ``randrange(1, 100000)``,
then (with a conflict measure) one ``random()`` that decides whether side 2
bumps it.

The manifest records ground truth: per-table sampled and shared counts,
the functional dependencies implied by the divisors, and (where the chain
shapes make it predictable) the number of completable cells per attribute.
"""

from __future__ import annotations

import json
import math
import random
import sys
from array import array
from dataclasses import MISSING, dataclass, fields, is_dataclass
from itertools import chain, compress, islice, repeat
from operator import add, floordiv, mod, rshift
from pathlib import Path
from types import UnionType
from typing import get_args, get_origin, get_type_hints

from .model import Dimension, Fact, Hierarchy, Schema, star_schema
from .report import json_name, to_json

MANIFEST_VERSION = 1
# Fact measures are draws of randrange(1, _MEASURE_STOP).
_MEASURE_STOP = 100000
# Generator outputs _draws reads per getrandbits call.
_BLOCK = 4096


@dataclass(frozen=True)
class GenAttr:
    name: str
    divisor: int = 1


@dataclass(frozen=True)
class GenChain:
    name: str
    parameters: tuple[str, ...]


@dataclass(frozen=True)
class GenDimension:
    """One world dimension plus the view each warehouse side gets of it.

    ``view1``/``view2`` list chain names. With both ``None``, both sides
    carry every chain; with only one ``None``, that side does not carry this
    dimension at all. Attribute sets per side follow from the chains.
    """

    name: str
    rows: int
    attrs: tuple[GenAttr, ...]
    chains: tuple[GenChain, ...]
    view1: tuple[str, ...] | None = None
    view2: tuple[str, ...] | None = None
    overlap: float | None = None


@dataclass(frozen=True)
class GenFact:
    """One world fact over ``dims``; each side may carry it with its own measures."""

    name: str
    rows: int
    dims: tuple[str, ...]
    measures: tuple[str, ...]
    view1: bool = True
    view2: bool = True
    view1_measures: tuple[str, ...] | None = None
    view2_measures: tuple[str, ...] | None = None
    conflict_measure: str | None = None
    conflict_fraction: float = 0.0


@dataclass(frozen=True)
class GenSpec:
    name: str
    seed: int
    dimensions: tuple[GenDimension, ...]
    facts: tuple[GenFact, ...]
    overlap: float = 0.75


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

def _check_spec(spec: GenSpec) -> None:
    if not (0.0 <= spec.overlap <= 1.0):
        raise ValueError("overlap must be within [0, 1]")
    names = [d.name for d in spec.dimensions]
    if len(set(names)) != len(names):
        raise ValueError("dimension names repeat")
    for d in spec.dimensions:
        if d.rows < 0:
            raise ValueError(f"dimension {d.name}: rows must be >= 0, not {d.rows}")
        if d.overlap is not None and not (0.0 <= d.overlap <= 1.0):
            raise ValueError(f"{d.name}: overlap must be within [0, 1]")
        divisors = {a.name: a.divisor for a in d.attrs}
        if not d.attrs or d.attrs[0].divisor != 1:
            raise ValueError(f"{d.name}: first attribute must be the id with divisor 1")
        for a in d.attrs:
            if a.divisor < 1:
                raise ValueError(f"{d.name}.{a.name}: divisor must be >= 1")
            if a.divisor > d.rows:
                raise ValueError(
                    f"{d.name}.{a.name}: divisor {a.divisor} is infeasible for "
                    f"{d.rows} rows")
        chain_names = set()
        for c in d.chains:
            if c.name in chain_names:
                raise ValueError(f"{d.name}: chain {c.name!r} repeats")
            chain_names.add(c.name)
            if not c.parameters or c.parameters[0] != d.attrs[0].name:
                raise ValueError(f"{d.name}.{c.name}: chains must start at the id")
            for p in c.parameters:
                if p not in divisors:
                    raise ValueError(f"{d.name}.{c.name}: unknown attribute {p!r}")
            for a, b in zip(c.parameters, c.parameters[1:]):
                if divisors[b] % divisors[a] != 0 or divisors[b] <= divisors[a]:
                    raise ValueError(
                        f"{d.name}.{c.name}: divisor of {b!r} must be a strict "
                        f"multiple of {a!r}'s so the level rolls up")
        for side in (1, 2):
            view = _view_chains(d, side)
            if view is not None and not view:
                raise ValueError(
                    f"{d.name}: side {side}'s view must name at least one chain")
            for cn in view or ():
                if cn not in chain_names:
                    raise ValueError(f"{d.name}: view references unknown chain {cn!r}")
    by_name = {d.name: d for d in spec.dimensions}
    for side in (1, 2):
        carried = [f for f in spec.facts if (f.view1 if side == 1 else f.view2)]
        if len(carried) != 1:
            raise ValueError(f"side {side} must carry exactly one fact")
    for f in spec.facts:
        for field, names in (("dims", f.dims), ("measures", f.measures),
                             ("view1Measures", f.view1_measures or ()),
                             ("view2Measures", f.view2_measures or ())):
            if len(set(names)) != len(names):
                raise ValueError(f"fact {f.name}: {field} repeat")
        for dn in f.dims:
            if dn not in by_name:
                raise ValueError(f"fact {f.name}: unknown dimension {dn!r}")
            for side, carried in ((1, f.view1), (2, f.view2)):
                if carried and _view_chains(by_name[dn], side) is None:
                    raise ValueError(f"fact {f.name}: side {side} lacks dimension {dn!r}")
        if f.rows < 0:
            raise ValueError(f"fact {f.name}: rows must be >= 0, not {f.rows}")
        if not 0.0 <= f.conflict_fraction <= 1.0:
            raise ValueError(f"fact {f.name}: conflictFraction must be within [0, 1]")
        if f.conflict_fraction > 0 and f.conflict_measure is None:
            raise ValueError(f"fact {f.name}: conflictFraction {f.conflict_fraction} "
                             "needs a conflictMeasure")
        space = math.prod(by_name[dn].rows for dn in f.dims)
        if f.rows > space:
            raise ValueError(f"fact {f.name}: {f.rows} rows exceed the key space {space}")
        named = {"view1Measures": f.view1_measures or (),
                 "view2Measures": f.view2_measures or (),
                 "conflictMeasure": (f.conflict_measure,) if f.conflict_measure else ()}
        for field, names in named.items():
            for m in names:
                if m not in f.measures:
                    raise ValueError(f"fact {f.name}: {field} names unknown measure {m!r}")


def _view_chains(d: GenDimension, side: int) -> tuple[str, ...] | None:
    view = d.view1 if side == 1 else d.view2
    if view is None and (d.view1, d.view2) == (None, None):
        return tuple(c.name for c in d.chains)
    return view


# ---------------------------------------------------------------------------
# generation
# ---------------------------------------------------------------------------

def _view_attrs(d: GenDimension, chains: tuple[str, ...]) -> list[str]:
    """The attributes the chains carry, in first-seen order."""
    by_name = {c.name: c for c in d.chains}
    return list(dict.fromkeys(p for cn in chains for p in by_name[cn].parameters))


def _view_dimension(d: GenDimension, chains: tuple[str, ...], indices: list[int]
                    ) -> Dimension:
    attrs = _view_attrs(d, chains)
    divisors = {a.name: a.divisor for a in d.attrs}
    root = d.attrs[0].name
    by_name = {c.name: c for c in d.chains}
    hierarchies = tuple(Hierarchy(cn, by_name[cn].parameters) for cn in chains)
    columns = []
    for a in attrs:
        # format each distinct group once
        groups = list(map(floordiv, indices, repeat(divisors[a])))
        text = {q: f"{a}_{q:05d}" for q in dict.fromkeys(groups)}
        columns.append(list(map(text.__getitem__, groups)))
    return Dimension(d.name, root, tuple(attrs), hierarchies, columns)


def _draws(rng: random.Random, count: int, stop: int) -> list[int]:
    """What ``count`` calls of ``rng.randrange(1, stop)`` return, in draw order.

    With ``width = stop - 1`` (below 2**32), a draw is 1 plus the top
    ``width.bit_length()`` bits of one 32-bit Mersenne Twister output, an
    output whose bits reach ``width`` being skipped. The outputs are read
    ``_BLOCK`` at a time, so ``rng`` ends past the last one used and must not
    be drawn from again.
    """
    def block() -> array:
        # getrandbits puts the first output in the lowest 32 bits
        words = array("I", rng.getrandbits(32 * _BLOCK).to_bytes(4 * _BLOCK, "little"))
        if sys.byteorder == "big":
            words.byteswap()
        return words
    width = stop - 1
    shift = 32 - width.bit_length()
    words = chain.from_iterable(iter(block, None))
    kept = filter(width.__gt__, map(rshift, words, repeat(shift)))
    return list(map(add, islice(kept, count), repeat(1)))


def _fact_world(spec: GenSpec, f: GenFact, sizes: dict[str, int]
                ) -> tuple[list[list[int]], list[list[int]], list[bool]]:
    """The world fact as columns: the world row index per dimension, each
    measure, and whether side 2 bumps the conflict measure. Each sampled
    value is a key in mixed radix with the first dimension as its least
    significant digit, so the rows come ordered by the last dimension's
    index first."""
    rng = random.Random(f"{spec.seed}:{spec.name}:fact:{f.name}")
    space = math.prod(sizes[dn] for dn in f.dims)
    rest = sorted(rng.sample(range(space), f.rows))
    keys = []
    for dn in f.dims:
        keys.append(list(map(mod, rest, repeat(sizes[dn]))))
        rest = list(map(floordiv, rest, repeat(sizes[dn])))
    n = len(f.measures)
    if f.conflict_measure is None:
        # rng is dropped after this call, so _draws may run it ahead
        ints = _draws(rng, f.rows * n, _MEASURE_STOP)
        divergent = [False] * f.rows
    else:
        ints, divergent = [], []
        for _ in range(f.rows):
            ints.extend(rng.randrange(1, _MEASURE_STOP) for _ in range(n))
            divergent.append(rng.random() < f.conflict_fraction)
    measures = [ints[j::n] for j in range(n)]
    return keys, measures, divergent


def _view_fact(f: GenFact, world: tuple, member: list[bool], ids: list[dict[int, str]],
               roots: tuple[str, ...], side: int) -> Fact:
    """Side ``side``'s fact: the world rows ``member`` keeps, keyed by the
    side's dimension ids (``ids`` maps world row index to id, per dimension)."""
    keys, measures, divergent = world
    view_measures = (f.view1_measures if side == 1 else f.view2_measures) or f.measures
    columns = [list(map(lookup.__getitem__, compress(col, member)))
               for lookup, col in zip(ids, keys)]
    for m in view_measures:
        column = list(compress(measures[f.measures.index(m)], member))
        if side == 2 and m == f.conflict_measure:
            column = [v + 1 if bumped else v
                      for v, bumped in zip(column, compress(divergent, member))]
        columns.append(column)
    return Fact(f.name, tuple(view_measures), tuple(zip(f.dims, roots)), columns,
                frozenset(view_measures))


def generate_pair(spec: GenSpec) -> tuple[Schema, Schema, dict]:
    """Generate the two warehouses and the ground-truth manifest.

    The same spec (seed included) always produces identical output, byte for
    byte once written with :func:`dwmerge.io.write_dw`.
    """
    _check_spec(spec)
    sizes = {d.name: d.rows for d in spec.dimensions}
    # side -> dimension -> sampled world row indices; a side that lacks the
    # dimension has no entry
    sampled: dict[int, dict[str, set[int]]] = {1: {}, 2: {}}
    # side -> dimension -> world row index -> that row's id on the side
    ids: dict[int, dict[str, dict[int, str]]] = {1: {}, 2: {}}
    dims_by_side: dict[int, list[Dimension]] = {1: [], 2: []}
    manifest_dims: dict[str, dict] = {}

    for d in spec.dimensions:
        fraction = d.overlap if d.overlap is not None else spec.overlap
        for side in (1, 2):
            chains = _view_chains(d, side)
            if chains is None:
                continue
            rng = random.Random(f"{spec.seed}:{spec.name}:dim:{d.name}:{side}")
            indices = sorted(rng.sample(range(d.rows), round(fraction * d.rows)))
            sampled[side][d.name] = set(indices)
            dim = _view_dimension(d, chains, indices)
            ids[side][d.name] = dict(zip(indices, dim.cells(dim.root)))
            dims_by_side[side].append(dim)
        kept = [sampled[side].get(d.name) for side in (1, 2)]
        manifest_dims[d.name] = {
            "worldRows": d.rows,
            "dw1Rows": None if kept[0] is None else len(kept[0]),
            "dw2Rows": None if kept[1] is None else len(kept[1]),
            "sharedKeys": len((kept[0] or set()) & (kept[1] or set())),
        }

    manifest_facts: dict[str, dict] = {}
    facts_by_side: dict[int, Fact] = {}
    roots = {d.name: d.attrs[0].name for d in spec.dimensions}
    for f in spec.facts:
        world = _fact_world(spec, f, sizes)
        member: dict[int, list[bool]] = {}
        for side in (1, 2):
            if not (f.view1 if side == 1 else f.view2):
                continue
            flags = [map(sampled[side][dn].__contains__, col)
                     for dn, col in zip(f.dims, world[0])]
            member[side] = list(map(all, zip(*flags))) if flags else [True] * f.rows
            facts_by_side[side] = _view_fact(f, world, member[side],
                                             [ids[side][dn] for dn in f.dims],
                                             tuple(roots[dn] for dn in f.dims), side)
        manifest_facts[f.name] = {
            "worldRows": f.rows,
            "dw1Rows": sum(member[1]) if 1 in member else None,
            "dw2Rows": sum(member[2]) if 2 in member else None,
            # rows both sides keep
            "sharedKeyTuples": sum(map(all, zip(member.get(1, ()), member.get(2, ())))),
        }

    dw1 = star_schema(f"{spec.name}1", facts_by_side[1], tuple(dims_by_side[1]))
    dw2 = star_schema(f"{spec.name}2", facts_by_side[2], tuple(dims_by_side[2]))
    manifest = {
        "formatVersion": MANIFEST_VERSION,
        "name": spec.name,
        "seed": spec.seed,
        "overlap": spec.overlap,
        "dimensions": manifest_dims,
        "facts": manifest_facts,
        "fdGroundTruth": _fd_ground_truth(spec),
        "expectedCompletions": _expected_completions(spec, sampled),
    }
    return dw1, dw2, manifest


# ---------------------------------------------------------------------------
# ground truth
# ---------------------------------------------------------------------------

def _fd_ground_truth(spec: GenSpec) -> dict[str, list[list[str]]]:
    """Edges a -> b guaranteed by construction: divisor(a) divides divisor(b).

    Stated over the union of both sides' attributes. On a full-overlap join
    discovery finds exactly these edges; a sparse sample may additionally
    satisfy accidental dependencies, so in general they are a certified
    subset of whatever discovery finds on the shared instances.
    """
    out: dict[str, list[list[str]]] = {}
    for d in spec.dimensions:
        c1, c2 = _view_chains(d, 1), _view_chains(d, 2)
        if c1 is None or c2 is None:
            continue
        union = _view_attrs(d, c1 + c2)
        div = {a.name: a.divisor for a in d.attrs}
        out[d.name] = [[a, b] for a in union for b in union
                       if a != b and div[b] % div[a] == 0]
    return out


def _expected_completions(spec: GenSpec, sampled) -> dict[str, dict[str, int]] | None:
    """Exact completable-cell counts per attribute, where predictable.

    Predictable means: the dimension exists on both sides, shares no
    attribute name with another dimension (no cross-dimension enrichment),
    and every chain pair either interleaves into one divisor-ordered chain
    or shares only the id while no cross FD is implied. Dimensions outside
    those bounds, or larger than a few thousand rows, are simply omitted.
    """
    SIM_ROW_CAP = 2000
    all_names = {d.name: {a.name for a in d.attrs} for d in spec.dimensions}
    out: dict[str, dict[str, int]] = {}
    for d in spec.dimensions:
        c1, c2 = _view_chains(d, 1), _view_chains(d, 2)
        if c1 is None or c2 is None:
            continue
        if any(all_names[d.name] & names for other, names in all_names.items()
               if other != d.name):
            continue
        virtual = _virtual_chains(d, c1, c2)
        if virtual is None:
            continue
        div = {a.name: a.divisor for a in d.attrs}
        attrs1, attrs2 = _view_attrs(d, c1), _view_attrs(d, c2)
        idx1, idx2 = sampled[1][d.name], sampled[2][d.name]
        if len(idx1 | idx2) > SIM_ROW_CAP:
            continue
        # Row indices never change, only the attribute sets grow.
        order = sorted(idx1 | idx2)
        present = {i: {*(attrs1 if i in idx1 else ()), *(attrs2 if i in idx2 else ())}
                   for i in order}
        fills: dict[str, int] = {}
        changed = True
        while changed:
            changed = False
            for chain in virtual:
                if len(chain) < 2:
                    continue
                for i in order:
                    s = present[i]
                    if chain[1] not in s:
                        continue
                    missing = [p for p in chain if p not in s]
                    if not missing:
                        continue
                    # A donor holds every missing level and agrees with row i
                    # on a level above the first missing one.
                    refs = chain[:chain.index(missing[0])]
                    if any(j != i and all(m in present[j] for m in missing)
                           and any(p in present[j] and j // div[p] == i // div[p]
                                   for p in refs)
                           for j in order):
                        for m in missing:
                            s.add(m)
                            fills[m] = fills.get(m, 0) + 1
                        changed = True
        out[d.name] = dict(sorted(fills.items()))
    return out


def _virtual_chains(d: GenDimension, c1: tuple[str, ...], c2: tuple[str, ...]
                    ) -> list[tuple[str, ...]] | None:
    """The chains of the merged dimension, or None when the merge is unpredictable."""
    by_name = {c.name: c for c in d.chains}
    div = {a.name: a.divisor for a in d.attrs}
    virtual: dict[tuple[str, ...], None] = {}
    for cn1 in c1:
        for cn2 in c2:
            p1, p2 = by_name[cn1].parameters, by_name[cn2].parameters
            if set(p1) & set(p2) == {d.attrs[0].name}:
                if any(div[b] % div[a] == 0 or div[a] % div[b] == 0
                       for a in p1[1:] for b in p2[1:]):
                    return None
                virtual.update(dict.fromkeys((p1, p2)))
            else:
                union = sorted(set(p1) | set(p2), key=lambda a: div[a])
                if any(div[b] % div[a] != 0 or div[a] == div[b]
                       for a, b in zip(union, union[1:])):
                    return None
                virtual[tuple(union)] = None
    return list(virtual)


# ---------------------------------------------------------------------------
# spec serialization and presets
# ---------------------------------------------------------------------------

def spec_to_dict(spec: GenSpec) -> dict:
    """The JSON document of ``spec``: ``formatVersion``, then the spec's fields.

    Each record is an object holding its fields in declaration order, each
    under its name in camelCase (``view1_measures`` is ``view1Measures``);
    each tuple is a list.
    """
    return {"formatVersion": MANIFEST_VERSION, **to_json(spec)}


# What a field of each type may hold in JSON: the kind an error names, and its test.
_KINDS = {
    int: ("an integer", lambda v: type(v) is int),
    float: ("a number", lambda v: type(v) in (int, float)),
    str: ("a string", lambda v: type(v) is str),
    bool: ("true or false", lambda v: type(v) is bool),
    list: ("a list", lambda v: type(v) is list),
    tuple[str, ...]: ("a list of strings",
                      lambda v: type(v) is list and all(type(x) is str for x in v)),
}
_REQUIRED = object()


def _field(obj: dict, key: str, kind, default=_REQUIRED):
    """``obj[key]`` checked to be of ``kind``; ``default`` when absent or null.

    A list comes back as a tuple. ValueError names a field that is missing
    or of the wrong kind.
    """
    value = obj.get(key)
    if value is None:
        if default is _REQUIRED:
            raise ValueError(f"generator spec lacks the required field {key!r}")
        return default
    name, fits = _KINDS[kind]
    if not fits(value):
        raise ValueError(f"generator spec field {key!r} must be {name}, not {value!r}")
    return tuple(value) if type(value) is list else value


def _record(cls: type, obj):
    """The ``cls`` record the JSON object ``obj`` describes, read a field at a time.

    A field with no default is required. A tuple of records is a list whose
    items are read the same way. ValueError names an entry that is not an
    object, and a key that is not one of the record's fields.
    """
    if not isinstance(obj, dict):
        raise ValueError(f"generator spec entry {obj!r} is not a JSON object")
    known = {json_name(f) for f in fields(cls)}
    for key in obj:
        if key not in known:
            record = "" if cls is GenSpec else cls.__name__.removeprefix("Gen").lower() + " "
            raise ValueError(f"generator spec {record}{obj.get('name')!r} has an "
                             f"unknown field {key!r}")
    hints = get_type_hints(cls)
    values = {}
    for f in fields(cls):
        kind = hints[f.name]
        if type(kind) is UnionType:  # ``T | None``: its None default makes it optional
            kind = get_args(kind)[0]
        item = get_args(kind)[0] if get_origin(kind) is tuple else None
        value = _field(obj, json_name(f), list if is_dataclass(item) else kind,
                       _REQUIRED if f.default is MISSING else f.default)
        values[f.name] = tuple(_record(item, x) for x in value) if is_dataclass(item) else value
    return cls(**values)


def spec_from_dict(doc: dict) -> GenSpec:
    """The spec a :func:`spec_to_dict` document describes.

    ValueError names a field that is missing, unknown or of the wrong JSON
    kind.
    """
    if not isinstance(doc, dict):
        raise ValueError("generator spec must be a JSON object")
    return _record(GenSpec, {k: v for k, v in doc.items() if k != "formatVersion"})


def load_spec(path: str | Path) -> GenSpec:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ValueError(f"cannot read generator spec: {exc}") from exc
    return spec_from_dict(json.loads(text))


def preset_basic(seed: int, rows: int = 400, overlap: float = 0.75,
                 fact_rows: int = 1200) -> GenSpec:
    """Two fully shared dimensions, identical chains on both sides."""
    customer = GenDimension(
        "customer", rows,
        attrs=(GenAttr("customer_id"), GenAttr("city", 2), GenAttr("nation", 10),
               GenAttr("region", 50), GenAttr("mktsegment", 3), GenAttr("grp", 21)),
        chains=(GenChain("geo", ("customer_id", "city", "nation", "region")),
                GenChain("seg", ("customer_id", "mktsegment", "grp"))))
    product = GenDimension(
        "product", max(rows // 2, 8),
        attrs=(GenAttr("product_id"), GenAttr("brand", 4), GenAttr("category", 20)),
        chains=(GenChain("brands", ("product_id", "brand", "category")),))
    fact = GenFact("sales", fact_rows, ("customer", "product"),
                   ("quantity", "price"))
    return GenSpec("basic", seed, (customer, product), (fact,), overlap)


def preset_divergent(seed: int, rows: int = 600, overlap: float = 0.75,
                     fact_rows: int = 1500) -> GenSpec:
    """Hierarchies split across the sides so merging must discover the order."""
    customer = GenDimension(
        "customer", rows,
        attrs=(GenAttr("customer_id"), GenAttr("city", 2), GenAttr("department", 10),
               GenAttr("region", 50), GenAttr("country", 100), GenAttr("continent", 500),
               GenAttr("profession", 21), GenAttr("subcategory", 63),
               GenAttr("category", 441)),
        chains=(GenChain("geo_a", ("customer_id", "department", "region", "continent")),
                GenChain("geo_b", ("customer_id", "city", "department", "country",
                                   "continent")),
                GenChain("prof_a", ("customer_id", "profession", "category")),
                GenChain("prof_b", ("customer_id", "profession", "subcategory"))),
        view1=("geo_a", "prof_a"), view2=("geo_b", "prof_b"))
    product = GenDimension(
        "product", max(rows // 3, 8),
        attrs=(GenAttr("product_id"), GenAttr("brand", 4), GenAttr("family", 24)),
        chains=(GenChain("brands", ("product_id", "brand", "family")),))
    fact = GenFact("sales", fact_rows, ("customer", "product"),
                   ("quantity", "price", "tax"),
                   view1_measures=("quantity", "price"),
                   view2_measures=("quantity", "tax"))
    return GenSpec("divergent", seed, (customer, product), (fact,), overlap)


def preset_star4(seed: int, overlap: float = 0.75, fact_rows: int = 4000) -> GenSpec:
    """Four matched dimensions with cross-dimension enrichment; merges to a star."""
    customer = GenDimension(
        "customer", 400,
        attrs=(GenAttr("customer_id"), GenAttr("city", 2), GenAttr("nation", 20),
               GenAttr("mktsegment", 3)),
        chains=(GenChain("c_geo_a", ("customer_id", "city", "nation")),
                GenChain("c_geo_b", ("customer_id", "nation")),
                GenChain("c_seg", ("customer_id", "mktsegment"))),
        view1=("c_geo_a", "c_seg"), view2=("c_geo_b", "c_seg"))
    supplier = GenDimension(
        "supplier", 120,
        attrs=(GenAttr("supplier_id"), GenAttr("nation", 6), GenAttr("region", 30)),
        chains=(GenChain("s_geo_a", ("supplier_id", "nation")),
                GenChain("s_geo_b", ("supplier_id", "nation", "region"))),
        view1=("s_geo_a",), view2=("s_geo_b",))
    part = GenDimension(
        "part", 300,
        attrs=(GenAttr("part_id"), GenAttr("brand", 2), GenAttr("ptype", 10)),
        chains=(GenChain("p_main", ("part_id", "brand", "ptype")),))
    orderdate = GenDimension(
        "orderdate", 720,
        attrs=(GenAttr("date_id"), GenAttr("month", 30), GenAttr("semester", 180),
               GenAttr("year", 360)),
        chains=(GenChain("d_sem", ("date_id", "month", "semester", "year")),
                GenChain("d_plain", ("date_id", "month", "year"))),
        view1=("d_sem",), view2=("d_plain",))
    fact = GenFact("lineorder", fact_rows, ("customer", "supplier", "part", "orderdate"),
                   ("quantity", "revenue", "supplycost"),
                   view1_measures=("quantity", "revenue"),
                   view2_measures=("quantity", "supplycost"))
    return GenSpec("star4", seed, (customer, supplier, part, orderdate), (fact,), overlap)


def preset_const22(seed: int, overlap: float = 0.75) -> GenSpec:
    """Two matched and two side-only dimensions; merges to a constellation."""
    customer = GenDimension(
        "customer", 400,
        attrs=(GenAttr("customer_id"), GenAttr("city", 2), GenAttr("nation", 20)),
        chains=(GenChain("c_geo_a", ("customer_id", "city", "nation")),
                GenChain("c_geo_b", ("customer_id", "nation"))),
        view1=("c_geo_a",), view2=("c_geo_b",))
    supplier = GenDimension(
        "supplier", 120,
        attrs=(GenAttr("supplier_id"), GenAttr("nation", 6), GenAttr("region", 30)),
        chains=(GenChain("s_geo_a", ("supplier_id", "nation", "region")),
                GenChain("s_geo_b", ("supplier_id", "nation"))),
        view1=("s_geo_a",), view2=("s_geo_b",))
    part = GenDimension(
        "part", 300,
        attrs=(GenAttr("part_id"), GenAttr("brand", 2), GenAttr("ptype", 10)),
        chains=(GenChain("p_main", ("part_id", "brand", "ptype")),),
        view1=("p_main",), view2=None)
    orderdate = GenDimension(
        "orderdate", 720,
        attrs=(GenAttr("date_id"), GenAttr("month", 30), GenAttr("year", 360)),
        chains=(GenChain("d_plain", ("date_id", "month", "year")),),
        view1=None, view2=("d_plain",))
    sales_parts = GenFact("sales_parts", 2500, ("customer", "supplier", "part"),
                          ("quantity", "revenue"), view1=True, view2=False)
    sales_dates = GenFact("sales_dates", 2500, ("customer", "supplier", "orderdate"),
                          ("quantity", "supplycost"), view1=False, view2=True)
    return GenSpec("const22", seed, (customer, supplier, part, orderdate),
                   (sales_parts, sales_dates), overlap)


PRESETS = {
    "basic": preset_basic,
    "divergent": preset_divergent,
    "star4": preset_star4,
    "const22": preset_const22,
}
