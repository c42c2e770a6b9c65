"""Command-line front end.

Subcommands: dim, maxk, product, gen, bound, verify-table, export-dot.
Vertex labels in human-readable output are 1-based (v1, v2, ...); file
formats and command-line vertex arguments are 0-based.  Exit codes: 0
success (an infinite dimension is an answer, not a failure), 2 an input
file that cannot be read or parsed, or a command line that argparse
rejects (a missing ``--k``, an unknown option), 3 an invalid k, missing or
invalid roots / factor files / parameters, or an output file that cannot
be written, 4 internal consistency failure (oracle or distance-formula
mismatch, never expected).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from functools import cache, partial

from . import bounds as bnd
from . import chemgen
from .fileio import graph_to_dot, graph_to_text, read_graph
from .graphs import Graph, GraphError, all_pairs_distances
from .products import RootedGraph, hierarchical_distance, hierarchical_product, link, splice
from .solver import (
    INFINITE,
    ORACLE_SIZE_LIMIT,
    DimResult,
    build_instance_full,
    build_instance_rooted,
    dim_k,
    max_k,
    oracle_solve,
    solve_exact,
)

EXIT_PARSE = 2
EXIT_INVALID = 3
EXIT_MISMATCH = 4


class CliError(Exception):
    def __init__(self, message: str, code: int):
        super().__init__(message)
        self.code = code


def _load_graph(path: str) -> Graph:
    try:
        return read_graph(path)
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc}", EXIT_PARSE) from exc
    except GraphError as exc:
        raise CliError(f"parse error in {path}: {exc}", EXIT_PARSE) from exc


def _parse_roots(spec: str) -> tuple[int, ...]:
    try:
        return tuple(int(tok) for tok in spec.split(",") if tok.strip())
    except ValueError:
        raise CliError(f"invalid root list {spec!r}", EXIT_INVALID) from None


def _digest(g: Graph) -> str:
    return hashlib.sha256(graph_to_text(g).encode()).hexdigest()


def _append_log(path: str, record: dict) -> None:
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(json.dumps(record, sort_keys=True) + "\n")


def _format_basis(basis) -> str:
    return "{" + ", ".join(f"v{v + 1}" for v in basis) + "}"


def _print_dim(res: DimResult, as_json: bool) -> None:
    if as_json:
        print(json.dumps(res.to_json_dict(), sort_keys=True))
        return
    if res.is_infinite:
        print(f"dim_{res.k} = infinite")
    else:
        print(f"dim_{res.k} = {int(res.value)}, basis {_format_basis(res.basis)}")
    print(f"optimal: {'true' if res.optimal else 'false'}")
    s = res.stats
    print(f"stats: nodes={s.nodes} rows={s.rows} pruned={s.pruned}")


def cmd_dim(args) -> int:
    g = _load_graph(args.graph)
    started = time.perf_counter()
    dm = all_pairs_distances(g)
    if args.rooted is None:
        inst = build_instance_full(dm, args.k)
    else:
        inst = build_instance_rooted(RootedGraph(g, _parse_roots(args.rooted)), dm, args.k)
    # The oracle runs before the solve, so an oversized graph is refused at once.
    check = oracle_solve(inst, args.oracle_limit) if args.oracle else None
    res = solve_exact(inst)
    if check is not None and (check.value, check.basis) != (res.value, res.basis):
        raise CliError(
            f"oracle mismatch: solver {res.value} {_format_basis(res.basis)} vs "
            f"oracle {check.value} {_format_basis(check.basis)}",
            EXIT_MISMATCH,
        )
    elapsed = time.perf_counter() - started
    _print_dim(res, args.json)
    if args.log:
        _append_log(args.log, {
            "command": "dim",
            "argv": args.argv,
            "digest": _digest(g),
            "k": args.k,
            "result": res.to_json_dict(),
            "wall_time": elapsed,
        })
    return 0


def cmd_maxk(args) -> int:
    g = _load_graph(args.graph)
    started = time.perf_counter()
    value = max_k(all_pairs_distances(g))
    elapsed = time.perf_counter() - started
    infinite = value == INFINITE
    text = "infinite" if infinite else str(int(value))
    if args.json:
        print(json.dumps({"max_k": None if infinite else int(value), "infinite": infinite},
                         sort_keys=True))
    else:
        print(f"max_k = {text}")
    if args.log:
        _append_log(args.log, {
            "command": "maxk",
            "argv": args.argv,
            "digest": _digest(g),
            "k": None,
            "result": {"max_k": text},
            "wall_time": elapsed,
        })
    return 0


def _emit_graph(args, g: Graph) -> None:
    text = graph_to_dot(g) if args.dot else graph_to_text(g)
    if args.output and args.output != "-":
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_product(args) -> int:
    if (args.second is None) != (args.mode == "bridge"):
        needs = "takes no" if args.mode == "bridge" else "needs a"
        raise CliError(f"{args.mode} product {needs} second factor file", EXIT_INVALID)
    if args.mode == "hier":
        if args.roots is None:
            raise CliError("hier product needs --roots", EXIT_INVALID)
        g = _load_graph(args.graph)
        h = _load_graph(args.second)
        rg = RootedGraph(g, _parse_roots(args.roots))
        product = hierarchical_product(rg, h)
        if args.check_prop1:
            dm_g = all_pairs_distances(g)
            dm_h = all_pairs_distances(h)
            dm_x = all_pairs_distances(product.graph)
            for i in range(product.graph.n):
                for j in range(i + 1, product.graph.n):
                    formula = hierarchical_distance(
                        rg, dm_g, dm_h, product.pair_of(i), product.pair_of(j)
                    )
                    if formula != dm_x[i, j]:
                        raise CliError(
                            f"distance formula mismatch at {i},{j}: "
                            f"{formula} vs BFS {dm_x[i, j]}",
                            EXIT_MISMATCH,
                        )
        out = product.graph
    elif args.mode in ("splice", "link"):
        g = _load_graph(args.graph)
        h = _load_graph(args.second)
        out = splice(g, args.a, h, args.b) if args.mode == "splice" else link(g, args.a, h, args.b)
    else:  # bridge
        out = chemgen.bridge_path_uniform(_load_graph(args.graph), args.root, args.d)
    _emit_graph(args, out)
    return 0


# kmetric gen's families.  Each builder is looked up on chemgen when it is
# called, so a wrapper put in place of the module attribute is what runs.
FAMILIES = {
    "nanotube": lambda a: chemgen.nanotube(a.p, a.q),
    "polyhex": lambda a: chemgen.polyhex_row(a.p),
    "polyhex-stack": lambda a: chemgen.polyhex_stack(a.p, a.levels),
    "armchair": lambda a: chemgen.armchair(a.p, a.levels),
}


def cmd_gen(args) -> int:
    _emit_graph(args, FAMILIES[args.family](args).graph)
    return 0


def _print_report(report: bnd.BoundReport, as_json: bool) -> None:
    if as_json:
        print(json.dumps(report.to_json_dict(), sort_keys=True))
        return
    if not report.preconditions_met:
        print(f"{report.kind} bound: hypothesis not met ({report.reason})")
        return
    line = f"{report.kind} bound: {report.value}"
    if report.exact is not None:
        line += f" (exact {report.exact}, slack {report.slack})"
    print(line)


def cmd_bound(args) -> int:
    if args.which in ("t1", "t2", "splice", "link"):
        if args.graph is None or args.second is None:
            raise CliError(f"{args.which} bound needs --graph and --second", EXIT_INVALID)
        g = _load_graph(args.graph)
        h = _load_graph(args.second)
    if args.which == "t1":
        if args.roots is None:
            raise CliError("t1 bound needs --roots", EXIT_INVALID)
        rg = RootedGraph(g, _parse_roots(args.roots))
        report = bnd.theorem1_upper(rg, h, args.k, compare_exact=args.exact)
    elif args.which == "t2":
        report = bnd.theorem2_exact(g, args.root, h, args.k, compare_exact=args.exact)
    elif args.which in ("splice", "link"):
        report = bnd.splice_link_lower(
            g, args.a, h, args.b, args.k, mode=args.which, compare_exact=args.exact
        )
    elif args.which == "cycle-rooted":
        print(bnd.cycle_rooted_formula(args.p, args.k))
        return 0
    elif args.which == "path-rooted":
        print(bnd.path_rooted_formula(args.p, args.k))
        return 0
    elif args.which == "nanotube":
        print(bnd.nanotube_bound(args.p, args.q, args.k))
        return 0
    else:  # polyhex
        print(bnd.polyhex_bound(args.p, args.k))
        return 0
    _print_report(report, args.json)
    return 0


# Reference table for verify-table: per small family, its graph, its bound
# formula in k, and for k = 2..5 the exact k-metric dimensions and the bound
# values the reference lists.
VERIFY_TABLE = (
    ("F_{4,1}", partial(chemgen.nanotube, 4, 1), partial(bnd.nanotube_bound, 4, 1), (4, 6, 8, 9), (4, 6, 8, 10)),
    ("Gamma_{1,2}", partial(chemgen.polyhex_row, 2), partial(bnd.polyhex_bound, 2), (4, 5, 7, 8), (4, 6, 8, 10)),
    ("Gamma_{1,3}", partial(chemgen.polyhex_row, 3), partial(bnd.polyhex_bound, 3), (4, 5, 7, 9), (4, 6, 8, 10)),
)


def cmd_verify_table(args) -> int:
    failures = 0
    print(f"{'graph':<12} {'k':>2} {'bound':>6} {'exact':>6} {'expected':>8}  status")
    for name, family, bound, exact, listed in VERIFY_TABLE:
        g = family().graph
        for k, expected, table_bound in zip((2, 3, 4, 5), exact, listed):
            formula = bound(k)
            value = int(dim_k(g, k).value)
            if value != expected:
                status = "FAIL"
                failures += 1
            elif formula != table_bound:
                status = (
                    f"ok (known discrepancy: formula bound {formula}, reference "
                    f"lists {table_bound}; exact {value} respects both)"
                )
            else:
                status = "ok"
            shown = formula if formula == table_bound else f"{formula}/{table_bound}"
            print(f"{name:<12} {k:>2} {str(shown):>6} {value:>6} {expected:>8}  {status}")
    if failures:
        print(f"{failures} exact-value mismatches")
        return 1
    print("all 12 exact values reproduced")
    return 0


def cmd_export_dot(args) -> int:
    _emit_graph(args, _load_graph(args.graph))
    return 0


@cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kmetric",
        description="Exact k-metric dimension solver and graph constructors.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_dim = sub.add_parser("dim", help="k-metric dimension of a graph file")
    p_dim.add_argument("graph")
    p_dim.add_argument("--k", type=int, required=True)
    p_dim.add_argument("--rooted", metavar="U", default=None,
                       help="comma-separated 0-based root indices; compute dim_k(G(U))")
    p_dim.add_argument("--oracle", action="store_true",
                       help="cross-check against the exhaustive oracle")
    p_dim.add_argument("--oracle-limit", type=int, default=ORACLE_SIZE_LIMIT)
    p_dim.add_argument("--json", action="store_true")
    p_dim.add_argument("--log", default=None, help="append a JSON run record to this file")
    p_dim.set_defaults(func=cmd_dim)

    p_maxk = sub.add_parser("maxk", help="largest k admitting a k-metric generator")
    p_maxk.add_argument("graph")
    p_maxk.add_argument("--json", action="store_true")
    p_maxk.add_argument("--log", default=None)
    p_maxk.set_defaults(func=cmd_maxk)

    p_prod = sub.add_parser("product", help="construct a product graph")
    p_prod.add_argument("mode", choices=["hier", "splice", "link", "bridge"])
    p_prod.add_argument("graph", help="first factor edge-list file")
    p_prod.add_argument("second", nargs="?", default=None,
                        help="second factor file (hier/splice/link)")
    p_prod.add_argument("--roots", default=None, help="0-based roots of the first factor (hier)")
    p_prod.add_argument("-a", type=int, default=0, help="splice/link vertex in the first factor")
    p_prod.add_argument("-b", type=int, default=0, help="splice/link vertex in the second factor")
    p_prod.add_argument("--root", type=int, default=0, help="bridge root vertex")
    p_prod.add_argument("--d", type=int, default=2, help="bridge copy count")
    p_prod.add_argument("--check-prop1", action="store_true",
                        help="verify the product distance formula pairwise (hier only)")
    p_prod.add_argument("--dot", action="store_true", help="emit DOT instead of edge list")
    p_prod.add_argument("-o", "--output", default="-")
    p_prod.set_defaults(func=cmd_product)

    p_gen = sub.add_parser("gen", help="generate a chemical graph family member")
    p_gen.add_argument("family", choices=list(FAMILIES))
    p_gen.add_argument("--p", type=int, default=2)
    p_gen.add_argument("--q", type=int, default=1, help="nanotube doubling stages")
    p_gen.add_argument("--levels", type=int, default=3, help="polyhex-stack/armchair rows (2^j - 1)")
    p_gen.add_argument("--dot", action="store_true")
    p_gen.add_argument("-o", "--output", default="-")
    p_gen.set_defaults(func=cmd_gen)

    p_bound = sub.add_parser("bound", help="theorem bounds and closed formulas")
    p_bound.add_argument("which", choices=[
        "t1", "t2", "splice", "link", "cycle-rooted", "path-rooted", "nanotube", "polyhex",
    ])
    p_bound.add_argument("--graph", default=None)
    p_bound.add_argument("--second", default=None)
    p_bound.add_argument("--roots", default=None)
    p_bound.add_argument("--root", type=int, default=0)
    p_bound.add_argument("-a", type=int, default=0)
    p_bound.add_argument("-b", type=int, default=0)
    p_bound.add_argument("--k", type=int, required=True)
    p_bound.add_argument("--p", type=int, default=2)
    p_bound.add_argument("--q", type=int, default=1)
    p_bound.add_argument("--exact", action="store_true",
                         help="also solve exactly and report the slack")
    p_bound.add_argument("--json", action="store_true")
    p_bound.set_defaults(func=cmd_bound)

    p_table = sub.add_parser("verify-table",
                             help="reproduce the reference dimension table")
    p_table.set_defaults(func=cmd_verify_table)

    p_dot = sub.add_parser("export-dot", help="convert an edge-list file to DOT")
    p_dot.add_argument("graph")
    p_dot.add_argument("-o", "--output", default="-")
    p_dot.set_defaults(func=cmd_export_dot, dot=True)

    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = build_parser().parse_args(argv)
    args.argv = argv  # for the --log record
    try:
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    # Every input error of the package is a ValueError: GraphError,
    # OutOfRangeError, SizeLimitExceededError and the solver's k check.
    # Input files are read by _load_graph, so an OSError here is an output file.
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
