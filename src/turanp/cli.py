"""Command-line interface.

Subcommands: construct, ep, free, formula, rewrite, oracle, verify,
lemmas.  Results go to stdout (JSON by default, CSV or graph6 via --out);
diagnostics go to stderr.  Exit codes: 0 success, 1 domain error or
failed verification, 2 usage error.  Outputs are byte-stable for fixed
inputs; search statistics sit under a "meta" key.
"""
from __future__ import annotations

import argparse
import csv
import inspect
import json
import random
import sys

from . import families, formulas, oracle, patterns, rewrites, verify
from .graphs import Graph, GraphCapError, Graph6Error, ep_value, g6_decode, g6_encode


def _emit_json(obj) -> None:
    sys.stdout.write(json.dumps(obj, sort_keys=True) + "\n")


def _emit(rows: list[dict], out: str) -> None:
    """Rows as one JSON line each, or as one CSV table when out is csv."""
    if out != "csv":
        for row in rows:
            _emit_json(row)
    elif rows:
        writer = csv.DictWriter(sys.stdout, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)


def _read_graphs(args) -> list[tuple[str, Graph]]:
    """Graphs from --family and/or graph6 lines on stdin (--in -)."""
    out: list[tuple[str, Graph]] = []
    if getattr(args, "family", None):
        g = families.build_family(args.family)
        out.append((g6_encode(g), g))
    if getattr(args, "inp", None) == "-":
        for line in sys.stdin:
            line = line.strip()
            if line:
                out.append((line, g6_decode(line)))
    if not out:
        raise ValueError("no input graph: pass --family or --in -")
    return out


def _parse_int_list(text: str, what: str) -> list[int]:
    try:
        return [int(x) for x in text.split("+")]
    except ValueError as exc:
        raise ValueError(f"bad {what} list {text!r} (use e.g. 5+3)") from exc


def _parse_range(text: str, what: str) -> range:
    lo, sep, hi = text.partition(":")
    if not sep:
        raise ValueError(f"bad {what} range {text!r} (use a:b)")
    lo, hi = int(lo), int(hi)
    if lo > hi:
        raise ValueError(f"empty {what} range {text!r} (need a <= b)")
    return range(lo, hi + 1)


# ---------------------------------------------------------------------
# subcommand handlers
# ---------------------------------------------------------------------

def cmd_construct(args) -> int:
    g = families.build_family(args.family)
    if args.out == "g6":
        sys.stdout.write(g6_encode(g) + "\n")
        return 0
    row = {
        "family": args.family,
        "n": g.n,
        "edges": g.edge_count(),
        "g6": g6_encode(g),
        "degrees": list(sorted(g.degrees(), reverse=True)),
    }
    if args.out == "csv":
        row["degrees"] = "+".join(map(str, row["degrees"]))
    _emit([row], args.out)
    return 0


def cmd_ep(args) -> int:
    rows = [{"g6": g6, "p": args.p, "ep": str(ep_value(g, args.p))}
            for g6, g in _read_graphs(args)]
    _emit(rows, args.out)
    return 0


def cmd_free(args) -> int:
    pattern = patterns.parse_pattern(args.pattern)
    rows = []
    for g6, g in _read_graphs(args):
        res = patterns.is_free(g, pattern, args.budget)
        rows.append({"g6": g6, "pattern": pattern.text(),
                     "free": "unknown" if res is patterns.UNKNOWN else res})
    _emit(rows, args.out)
    return 0


# each formula's parameters are the formula flags it needs
_FORMULAS = {
    "ex_path": formulas.ex_path,
    "eg_bound": lambda n, ell: formulas.FormulaResult(
        formulas.eg_bound(n, ell), True, "upper bound, all n",
        "erdos-gallai-1959"),
    "ex_linear_forest": formulas.ex_linear_forest,
    "ex_kP3": formulas.ex_kP3,
    "ex_star_forest": formulas.ex_star_forest,
    "ex_broom4": formulas.ex_broom4,
    "ex_broom5": formulas.ex_broom5_partial,
    "exp_path": formulas.exp_path,
    "exp_star": formulas.exp_star,
    "exp_star_forest": formulas.exp_star_forest,
    "exp_linear_forest": formulas.exp_linear_forest,
    "exp_kP3": formulas.exp_kP3,
    "exp_broom": formulas.exp_broom,
    "exp_turan_clique": formulas.exp_turan_clique,
}


def cmd_formula(args) -> int:
    if args.name not in _FORMULAS:
        print(f"error: unknown formula {args.name!r}; known: "
              f"{', '.join(sorted(_FORMULAS))}", file=sys.stderr)
        return 2
    fn = _FORMULAS[args.name]
    wanted = inspect.signature(fn).parameters
    missing = [f"--{w}" for w in wanted if getattr(args, w) is None]
    if missing:
        print(f"error: formula {args.name} needs {' '.join(missing)}",
              file=sys.stderr)
        return 2
    res = fn(**{w: getattr(args, w) for w in wanted})
    if isinstance(res, formulas.UnspecifiedBase) and args.resolve_base:
        if res.base_n <= oracle.ORACLE_CAP:
            base = oracle.max_ep(res.base_n, patterns.BroomPattern(5, res.s), 1)
            obj = res.to_json()
            obj["meta"]["base_value"] = str(base.edges)
            obj["value"] = str(res.total_given(base.edges))
            _emit_json(obj)
            return 0
        print(f"error: base instance n={res.base_n} exceeds oracle cap "
              f"{oracle.ORACLE_CAP}", file=sys.stderr)
        return 1
    _emit_json(res.to_json())
    return 0


def cmd_rewrite(args) -> int:
    if not args.demo:
        print("error: only --demo mode is available", file=sys.stderr)
        return 2
    kind = args.kind.replace("-", "_")
    rng = random.Random(args.seed)
    g, v, site = rewrites.demo_instance(kind, args.ell, args.s, rng)
    g2 = rewrites.apply_rewrite(g, v, site, args.ell, args.s)
    pvals = [args.p] if args.p else [2, 3, 4]
    obj = {
        "kind": kind,
        "ell": args.ell,
        "s": args.s,
        "v": v,
        "site": site.to_json(),
        "host": g6_encode(g),
        "result": g6_encode(g2),
        "ep": {str(p): [str(ep_value(g, p)), str(ep_value(g2, p))] for p in pvals},
    }
    _emit_json(obj)
    return 0


def cmd_oracle(args) -> int:
    pattern = patterns.parse_pattern(args.pattern)
    if args.n_range or args.p_range:
        if not (args.n_range and args.p_range):
            print("error: give both --n-range and --p-range", file=sys.stderr)
            return 2
        if args.n is not None or args.p is not None:
            print("error: give --n/--p or --n-range/--p-range, not both",
                  file=sys.stderr)
            return 2
        if args.out == "g6":
            print("error: a range query prints json or csv, not g6",
                  file=sys.stderr)
            return 2
        rows = verify.verify_range(pattern,
                                   _parse_range(args.n_range, "n"),
                                   _parse_range(args.p_range, "p"))
        _emit(rows, args.out)
        return 0
    if args.n is None or args.p is None:
        print("error: give --n and --p (or --n-range/--p-range)", file=sys.stderr)
        return 2
    if args.out == "csv":
        print("error: a single query prints json or g6, not csv",
              file=sys.stderr)
        return 2
    rep = oracle.max_ep(args.n, pattern, args.p)
    if args.out == "g6":
        for g6, _ in rep.maximizers:
            sys.stdout.write(g6 + "\n")
    else:
        _emit_json(rep.to_json())
    return 0


def _run_suite(cfg: dict, only: list[str] | None, out: str) -> int:
    results = verify.run_suite(cfg, only)
    _emit([r.to_json() for r in results], out)
    return 0 if all(r.passed for r in results) else 1


def cmd_verify(args) -> int:
    if args.config:
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise verify.ConfigError(f"cannot read config {args.config!r}: "
                                     f"{exc.strerror}") from exc
        cfg = verify.parse_config(text)
    else:
        cfg = dict(verify.DEFAULT_CONFIG)
    only = args.only.split(",") if args.only else None
    return _run_suite(cfg, only, args.out)


def cmd_lemmas(args) -> int:
    return _run_suite({**verify.DEFAULT_CONFIG, "lemmas.span": args.span},
                      ["lemmas"], args.out)


# ---------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="turanp",
        description="Degree-power Turan numbers for forbidden forests: "
                    "constructions, closed forms, detectors, rewrites, and "
                    "an exhaustive small-n oracle.")
    sub = parser.add_subparsers(dest="cmd", required=True)

    # each subcommand accepts only the output formats it prints
    def add_out(p, *choices, default="json"):
        p.add_argument("--out", choices=choices, default=default)

    p = sub.add_parser("construct", help="build a named family, emit graph6")
    p.add_argument("--family", required=True)
    add_out(p, "json", "csv", "g6", default="g6")
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("ep", help="degree-power sum of graphs")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--family")
    p.add_argument("--in", dest="inp", metavar="-",
                   help="read graph6 lines from stdin")
    add_out(p, "json", "csv")
    p.set_defaults(func=cmd_ep)

    p = sub.add_parser("free", help="decide forbidden-forest freeness")
    p.add_argument("--pattern", required=True)
    p.add_argument("--family")
    p.add_argument("--in", dest="inp", metavar="-")
    p.add_argument("--budget", type=int, default=None,
                   help="step budget; exhausted -> 'unknown'")
    add_out(p, "json", "csv")
    p.set_defaults(func=cmd_free)

    p = sub.add_parser("formula", help="evaluate a closed form")
    p.add_argument("--name", required=True)
    p.add_argument("--n", type=int)
    p.add_argument("--p", type=int)
    p.add_argument("--ell", type=int)
    p.add_argument("--s", type=int)
    p.add_argument("--k", type=int)
    p.add_argument("--r", type=int)
    p.add_argument("--lengths", type=lambda t: _parse_int_list(t, "lengths"))
    p.add_argument("--degrees", type=lambda t: _parse_int_list(t, "degrees"))
    p.add_argument("--resolve-base", action="store_true",
                   help="resolve the B_{5,s} reduction base via the oracle")
    add_out(p, "json")
    p.set_defaults(func=cmd_formula)

    p = sub.add_parser("rewrite", help="demonstrate a pendent-structure rewrite")
    p.add_argument("--kind", required=True,
                   choices=("edge", "triangle", "diamond", "spindle",
                            "spindle-plus", "spindle_plus"))
    p.add_argument("--ell", type=int, default=7)
    p.add_argument("--s", type=int, default=1)
    p.add_argument("--p", type=int)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--demo", action="store_true")
    add_out(p, "json")
    p.set_defaults(func=cmd_rewrite)

    p = sub.add_parser("oracle", help="exhaustive max e_p over pattern-free graphs")
    p.add_argument("--pattern", required=True)
    p.add_argument("--n", type=int)
    p.add_argument("--p", type=int)
    p.add_argument("--n-range", dest="n_range")
    p.add_argument("--p-range", dest="p_range")
    add_out(p, "json", "csv", "g6")
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("verify", help="run verification suites")
    p.add_argument("--config", help="key=value config file")
    p.add_argument("--only", help="comma-separated subset of checks")
    add_out(p, "json", "csv")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("lemmas", help="superadditivity and absorption grids")
    p.add_argument("--span", type=int,
                   default=verify.DEFAULT_CONFIG["lemmas.span"])
    add_out(p, "json")
    p.set_defaults(func=cmd_lemmas)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except BrokenPipeError:
        return 0
    except (GraphCapError, Graph6Error, verify.ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
