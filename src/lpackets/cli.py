"""Command line interface.

Exit codes: 0 success, 2 bad configuration, 3 unsupported type or pipeline,
4 internal invariant violation, 5 count mismatch in compare.
"""

from __future__ import annotations

import argparse
import json
import random
import sys

from .errors import (
    CompareMismatch,
    ConfigError,
    InvariantError,
    UnsupportedTypeError,
)
from .oracle import BACKEND, ORACLE_GROUPS, oracle_count
from .report import (
    render_json,
    render_text,
    report_dict,
    spectral_report,
    stratified_report,
)
from .rootdata import (
    NAMED_SPECS,
    _build_datum,
    centralizer_subdatum,
    parse_group_spec,
    parse_type,
)
from .springer import _TABLES, family_groups

_REPORTERS = {"spectral": spectral_report, "stratified": stratified_report}


def _load_spec(args):
    if args.group and args.config:
        raise ConfigError("give --group or --config, not both")
    if args.config:
        try:
            with open(args.config) as fh:
                cfg = json.load(fh)
        except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config {args.config!r}: {exc}") from None
        return parse_group_spec(cfg, q=args.q)
    if not args.group:
        raise ConfigError("give --group NAME or --config FILE")
    return parse_group_spec(args.group, q=args.q)


def _choose(spec, choice: str) -> str:
    if choice == "auto":
        return "spectral" if spec.connected else "stratified"
    return choice


def _rng(args):
    return random.Random(args.seed) if args.seed is not None else None


def cmd_count(args) -> int:
    spec = _load_spec(args)
    choice = _choose(spec, args.pipeline)
    if choice == "both":
        reps = [_REPORTERS[p](spec, rng=_rng(args))
                for p in ("spectral", "stratified")]
        agree = reps[0].total == reps[1].total
        if args.json:
            print(json.dumps({"spectral": report_dict(reps[0]),
                              "stratified": report_dict(reps[1]),
                              "totals_agree": agree}, indent=2))
        else:
            for rep in reps:
                sys.stdout.write(render_text(rep))
            print(f"totals agree: {agree}")
        if not agree:
            raise InvariantError("the two pipelines disagree on the total")
        return 0
    rep = _REPORTERS[choice](spec, rng=_rng(args))
    _emit(rep, args)
    return 0


def cmd_compare(args) -> int:
    spec = _load_spec(args)
    choice = _choose(spec, args.pipeline)
    if choice == "both":
        raise ConfigError("compare uses one pipeline; pick spectral, "
                          "stratified, or auto")
    result = oracle_count(spec.name, spec.q)
    rep = _REPORTERS[choice](spec, rng=_rng(args),
                             oracle_total=result.class_count)
    _emit(rep, args)
    if not rep.match:
        raise CompareMismatch(
            f"{spec.name}/F_{spec.q}: pipeline total {rep.total} != "
            f"oracle {result.class_count}")
    return 0


def cmd_cells(args) -> int:
    from .strata import _subsystem_cells
    try:
        factors, torus = parse_type(args.type)
    except (ConfigError, UnsupportedTypeError):
        factors, torus = (), 0
    if not factors or torus:
        raise ConfigError(
            f"no cell data for type {args.type!r}: cells takes a product "
            "X1x...xXk of A1, A2, B2/C2 and G2 up to semisimple rank 4")
    datum = _build_datum(factors, 0, None)
    sub = centralizer_subdatum(datum, tuple(range(len(datum.roots))))
    cox, cells = _subsystem_cells(sub)
    rows = [{"cell": cox.word_label(members[0]),
             "size": len(members),
             "members": [cox.word_label(i) for i in members],
             "family": "x".join(family_groups(t)[c]
                                for t, c in zip(sub.factor_types, ids))}
            for ids, members in cells]
    if args.json:
        print(json.dumps({"type": args.type, "order": cox.order,
                          "cells": rows}, indent=2))
    else:
        print(f"type {args.type}: reflection group of order {cox.order}, "
              f"{len(rows)} two-sided cells")
        for row in rows:
            print(f"  cell {row['cell']}: size {row['size']} "
                  f"family={row['family']} members {', '.join(row['members'])}")
    return 0


def cmd_tables(args) -> int:
    if args.json:
        data = {
            t: [{"class": r.class_label, "dim": r.dim, "a": r.a_of_u,
                 "abar": r.abar_label, "dual": r.dual_class,
                 "cell": r.cell_id} for r in rows]
            for t, rows in _TABLES.items()
        }
        print(json.dumps(data, indent=2))
        return 0
    for t, rows in _TABLES.items():
        print(f"type {t}:")
        for r in rows:
            print(f"  class {r.class_label:8s} dim {r.dim:2d} a {r.a_of_u} "
                  f"abar {r.abar_label:3s} dual {r.dual_class:8s} "
                  f"cell {r.cell_id}")
    return 0


def cmd_oracle(args) -> int:
    if args.group not in ORACLE_GROUPS:
        raise UnsupportedTypeError(
            f"no oracle model for {args.group!r}; known: "
            f"{', '.join(ORACLE_GROUPS)}")
    if args.q is None:
        raise ConfigError("q is required (--q)")
    result = oracle_count(args.group, args.q)
    if args.json:
        print(json.dumps({"group": result.name, "q": result.q,
                          "order": result.order,
                          "class_count": result.class_count,
                          "backend": BACKEND}, indent=2))
    else:
        print(f"{result.name} over F_{result.q}: order {result.order}, "
              f"{result.class_count} conjugacy classes (backend {BACKEND})")
    return 0


def _emit(rep, args) -> None:
    if args.json:
        print(render_json(rep))
    else:
        sys.stdout.write(render_text(rep))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lpackets",
        description="Parameter and packet counts for reductive groups over "
                    "finite fields, with a brute-force oracle.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_group_args(p, q_help):
        p.add_argument("--group", help="shortcut name, one of: "
                       + ", ".join(sorted(NAMED_SPECS)))
        p.add_argument("--config", help="JSON file with a group description")
        p.add_argument("--q", type=int, default=None, help=q_help)
        p.add_argument("--seed", type=int, default=None,
                       help="shuffle internal exploration order")
        p.add_argument("--json", action="store_true")
        p.add_argument("--pipeline", default="auto",
                       choices=["auto", "spectral", "stratified", "both"])

    p_count = sub.add_parser("count", help="enumerate parameters and packets")
    add_group_args(p_count, "field size (any prime power)")
    p_count.set_defaults(func=cmd_count)

    p_cmp = sub.add_parser("compare",
                           help="count and check against the oracle")
    add_group_args(p_cmp, "field size (prime power up to 64, the limit of "
                          "the oracle's field tables)")
    p_cmp.set_defaults(func=cmd_compare)

    p_cells = sub.add_parser("cells", help="two-sided cells of a Weyl group")
    p_cells.add_argument("--type", required=True)
    p_cells.add_argument("--json", action="store_true")
    p_cells.set_defaults(func=cmd_cells)

    p_tab = sub.add_parser("tables", help="special class tables")
    p_tab.add_argument("--json", action="store_true")
    p_tab.set_defaults(func=cmd_tables)

    p_or = sub.add_parser("oracle", help="brute-force class count")
    p_or.add_argument("--group", required=True)
    p_or.add_argument("--q", type=int, default=None,
                      help="field size (prime power up to 64)")
    p_or.add_argument("--json", action="store_true")
    p_or.set_defaults(func=cmd_oracle)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except UnsupportedTypeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except InvariantError as exc:
        print(f"internal check failed: {exc}", file=sys.stderr)
        return 4
    except CompareMismatch as exc:
        print(f"mismatch: {exc}", file=sys.stderr)
        return 5


if __name__ == "__main__":
    sys.exit(main())
