"""Command line interface.

Exit codes: 0 success, 2 load or validation failure, 3 stars unmergeable, a
numeric column matched with a text one, or merge aborted by policy, 4 internal
invariant violation, 5 bad usage.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import __version__, io
from .config import CONFLICT_POLICIES, MergeSettings
from .errors import (InternalInvariantError, LoadError, MergeError,
                     UserMapError)
from .generator import PRESETS, generate_pair, load_spec
from .matching import (MatcherConfig, load_user_map, match_attributes,
                       match_measures)
from .model import StarSchema, validate
from .star_merge import merge_stars

EXIT_OK = 0
EXIT_LOAD = 2
EXIT_UNMERGEABLE = 3
EXIT_INTERNAL = 4
EXIT_USAGE = 5


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse default exits with 2; we reserve that
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _matcher_config(spec: str, user_map_path: str | None) -> MatcherConfig:
    user_map = load_user_map(user_map_path) if user_map_path else None
    if spec == "exact":
        return MatcherConfig("exact", 0, user_map)
    if spec.startswith("edit:"):
        try:
            k = int(spec.split(":", 1)[1])
        except ValueError:
            raise argparse.ArgumentTypeError(f"bad matcher {spec!r}") from None
        return MatcherConfig("edit-distance", k, user_map)
    raise argparse.ArgumentTypeError(f"matcher must be 'exact' or 'edit:<k>', got {spec!r}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="dwmerge",
                     description="Merge two star-schema data warehouses at the "
                                 "schema and instance levels.")
    parser.add_argument("--version", action="version", version=f"dwmerge {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def add_matcher_flags(p):
        p.add_argument("--matcher", default="exact", metavar="exact|edit:<k>",
                       help="name matcher (default: exact)")
        p.add_argument("--map", dest="user_map", metavar="FILE",
                       help="user correspondence file (pair/forbid entries)")
        p.add_argument("--strict", action="store_true",
                       help="reject duplicate dimension ids and fact key tuples")

    p_merge = sub.add_parser("merge", help="merge two warehouses into one")
    p_merge.add_argument("dw1")
    p_merge.add_argument("dw2")
    p_merge.add_argument("out")
    add_matcher_flags(p_merge)
    p_merge.add_argument("--conflict", choices=CONFLICT_POLICIES, default="left",
                         help="fused-value conflict policy (default: left)")
    p_merge.add_argument("--min-support", type=int, default=1, metavar="N",
                         help="joined rows required per functional dependency (default: 1)")
    p_merge.add_argument("--chain-cap", type=int, default=16, metavar="N",
                         help="maximum merged chains per sub-hierarchy pair (default: 16)")
    p_merge.add_argument("--no-prune", action="store_true",
                         help="keep dead and subsumed hierarchies")
    p_merge.add_argument("--report", metavar="FILE",
                         help="report path (default: <out>/report.json)")

    p_match = sub.add_parser("match", help="print correspondences without merging")
    p_match.add_argument("dw1")
    p_match.add_argument("dw2")
    add_matcher_flags(p_match)

    p_val = sub.add_parser("validate", help="load a warehouse and check its invariants")
    p_val.add_argument("dw")
    p_val.add_argument("--strict", action="store_true")

    p_gen = sub.add_parser("gen", help="generate a seeded warehouse pair")
    p_gen.add_argument("out1")
    p_gen.add_argument("out2")
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--preset", choices=sorted(PRESETS), default="basic")
    p_gen.add_argument("--spec", metavar="FILE", help="generator spec JSON (overrides --preset)")
    p_gen.add_argument("--rows", type=int, metavar="N", help="world rows per dimension")
    p_gen.add_argument("--overlap", type=float, metavar="F",
                       help="sampled fraction per side (default 0.75)")
    p_gen.add_argument("--fact-rows", type=int, metavar="N")
    p_gen.add_argument("--manifest", metavar="FILE",
                       help="manifest path (default: <out1>.manifest.json)")
    return parser


def _load_star(path: str, strict: bool) -> StarSchema:
    schema = io.load_dw(path, strict=strict)
    if not isinstance(schema, StarSchema):
        raise LoadError("expected a star schema (single fact); constellation "
                        "inputs are not supported", path=path)
    violations = validate(schema)
    if violations:
        raise LoadError(f"{path}: schema failed validation: {violations[0]}", path=path)
    return schema


def cmd_merge(args) -> int:
    matcher = _matcher_config(args.matcher, args.user_map)
    settings = MergeSettings(min_support=args.min_support, chain_cap=args.chain_cap,
                             conflict=args.conflict, prune=not args.no_prune)
    s1 = _load_star(args.dw1, args.strict)
    s2 = _load_star(args.dw2, args.strict)
    config_echo = {
        "matcher": args.matcher,
        "userMap": args.user_map,
        "conflict": args.conflict,
        "minSupport": args.min_support,
        "chainCap": args.chain_cap,
        "prune": not args.no_prune,
        "strict": bool(args.strict),
        "left": args.dw1,
        "right": args.dw2,
    }
    result = merge_stars(s1, s2, matcher, settings, config_echo)
    io.write_dw(result.schema, args.out)
    report_path = Path(args.report) if args.report else Path(args.out) / "report.json"
    io.write_report(result.report, report_path)
    print(f"result: {result.report.result_kind}")
    for t in result.report.tables:
        print(f"  {t.kind} {t.table}: {t.n_left or 0} + {t.n_right or 0} "
              f"- {t.n_shared} = {t.n_merged}")
    print(f"merged warehouse: {args.out}")
    print(f"report: {report_path}")
    return EXIT_OK


def cmd_match(args) -> int:
    matcher = _matcher_config(args.matcher, args.user_map)
    s1 = _load_star(args.dw1, args.strict)
    s2 = _load_star(args.dw2, args.strict)
    for d1 in sorted(s1.dimensions, key=lambda d: d.name):
        for d2 in sorted(s2.dimensions, key=lambda d: d.name):
            for c in match_attributes(d1, d2, matcher):
                print(f"attribute {c.left[0]}.{c.left[1]} ~ {c.right[0]}.{c.right[1]} "
                      f"({c.source}, {c.score})")
    for c in match_measures(s1.fact, s2.fact, matcher):
        print(f"measure {c.left[0]}.{c.left[1]} ~ {c.right[0]}.{c.right[1]} "
              f"({c.source}, {c.score})")
    return EXIT_OK


def cmd_validate(args) -> int:
    schema = io.load_dw(args.dw, strict=args.strict)
    violations = validate(schema)
    if violations:
        for v in violations:
            print(str(v))
        return EXIT_LOAD
    print(f"{args.dw}: OK")
    return EXIT_OK


def cmd_gen(args) -> int:
    if args.spec:
        spec = load_spec(args.spec)
    else:
        kwargs = {"seed": args.seed}
        if args.overlap is not None:
            kwargs["overlap"] = args.overlap
        if args.rows is not None and args.preset in ("basic", "divergent"):
            kwargs["rows"] = args.rows
        if args.fact_rows is not None and args.preset != "const22":
            kwargs["fact_rows"] = args.fact_rows
        spec = PRESETS[args.preset](**kwargs)
    dw1, dw2, manifest = generate_pair(spec)
    io.write_dw(dw1, args.out1)
    io.write_dw(dw2, args.out2)
    manifest_path = Path(args.manifest) if args.manifest else Path(f"{args.out1}.manifest.json")
    manifest_path.parent.mkdir(parents=True, exist_ok=True)
    manifest_path.write_text(json.dumps(manifest, indent=2) + "\n", encoding="utf-8")
    print(f"generated {args.out1} and {args.out2}")
    print(f"manifest: {manifest_path}")
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except argparse.ArgumentTypeError as exc:
        print(f"dwmerge: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        if args.command == "merge":
            return cmd_merge(args)
        if args.command == "match":
            return cmd_match(args)
        if args.command == "validate":
            return cmd_validate(args)
        if args.command == "gen":
            return cmd_gen(args)
        return EXIT_USAGE
    except (LoadError, UserMapError) as exc:
        print(f"dwmerge: {exc}", file=sys.stderr)
        return EXIT_LOAD
    except InternalInvariantError as exc:
        print(f"dwmerge: internal invariant violated: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except MergeError as exc:
        print(f"dwmerge: {exc}", file=sys.stderr)
        return EXIT_UNMERGEABLE
    except (ValueError, argparse.ArgumentTypeError) as exc:
        print(f"dwmerge: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
