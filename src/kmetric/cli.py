"""Command-line front end.

Subcommands: dim, maxk, product, gen, bound, verify-table, export-dot.
Each kind of product, gen and bound takes only the flags it reads.
Vertex labels in human-readable output are 1-based (v1, v2, ...); file
formats and command-line vertex arguments are 0-based.  Exit codes: 0
success (an infinite dimension is an answer, not a failure), 2 an input
file that cannot be read or parsed, or a command line that argparse
rejects (a missing ``--k``, ``--graph``, ``--second``, ``--roots`` or
second factor, an unknown option, or a flag the kind does not read), 3 an
invalid k, invalid roots or parameters, or an output file that cannot be
written, 4 internal consistency failure (oracle or distance-formula
mismatch, never expected).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from functools import cache, partial
from itertools import combinations

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


def _log_run(args, g: Graph, k, result, elapsed: float) -> None:
    """Append a --log record; without --log nothing of it is built, ``result()`` included."""
    if args.log:
        record = {"command": args.command, "argv": args.argv, "digest": _digest(g),
                  "k": k, "result": result(), "wall_time": elapsed}
        with open(args.log, "a", encoding="utf-8") as fh:
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
    _log_run(args, g, args.k, res.to_json_dict, elapsed)
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
    _log_run(args, g, None, lambda: {"max_k": text}, elapsed)
    return 0


def _emit_graph(args, g: Graph) -> int:
    text = graph_to_dot(g) if args.dot else graph_to_text(g)
    if args.output and args.output != "-":
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def _factors(args) -> tuple[Graph, Graph]:
    return _load_graph(args.graph), _load_graph(args.second)


def cmd_hier(args) -> int:
    g, h = _factors(args)
    rg = RootedGraph(g, _parse_roots(args.roots))
    product = hierarchical_product(rg, h)
    if args.check_prop1:
        dm_g, dm_h, dm_x = map(all_pairs_distances, (g, h, product.graph))
        for i, j in combinations(range(product.graph.n), 2):
            formula = hierarchical_distance(rg, dm_g, dm_h, product.pair_of(i), product.pair_of(j))
            if formula != dm_x[i, j]:
                raise CliError(f"distance formula mismatch at {i},{j}: "
                               f"{formula} vs BFS {dm_x[i, j]}", EXIT_MISMATCH)
    return _emit_graph(args, product.graph)


# splice and link share one parser, so they are told apart by the name typed.
JOINS = {"splice": splice, "link": link}


def cmd_join(args) -> int:
    g, h = _factors(args)
    return _emit_graph(args, JOINS[args.mode](g, args.a, h, args.b))


def cmd_bridge(args) -> int:
    g = _load_graph(args.graph)
    return _emit_graph(args, chemgen.bridge_path_uniform(g, args.root, args.d))


# kmetric gen's families.  Each builder is looked up on chemgen when it is
# called, so a wrapper put in place of the module attribute is what runs.
FAMILIES = {
    "nanotube": lambda a: chemgen.nanotube(a.p, a.q),
    "polyhex": lambda a: chemgen.polyhex_row(a.p),
    "polyhex-stack": lambda a: chemgen.polyhex_stack(a.p, a.levels),
    "armchair": lambda a: chemgen.armchair(a.p, a.levels),
}


def cmd_gen(args) -> int:
    return _emit_graph(args, FAMILIES[args.family](args).graph)


def _print_report(report: bnd.BoundReport, as_json: bool) -> int:
    if as_json:
        print(json.dumps(report.to_json_dict(), sort_keys=True))
    elif not report.preconditions_met:
        print(f"{report.kind} bound: hypothesis not met ({report.reason})")
    elif report.exact is None:
        print(f"{report.kind} bound: {report.value}")
    else:
        print(f"{report.kind} bound: {report.value} (exact {report.exact}, slack {report.slack})")
    return 0


def cmd_t1(args) -> int:
    g, h = _factors(args)
    rg = RootedGraph(g, _parse_roots(args.roots))
    return _print_report(bnd.theorem1_upper(rg, h, args.k, compare_exact=args.exact), args.json)


def cmd_t2(args) -> int:
    g, h = _factors(args)
    report = bnd.theorem2_exact(g, args.root, h, args.k, compare_exact=args.exact)
    return _print_report(report, args.json)


def cmd_join_bound(args) -> int:
    g, h = _factors(args)
    report = bnd.splice_link_lower(g, args.a, h, args.b, args.k, args.which, args.exact)
    return _print_report(report, args.json)


# kmetric bound's closed formulas, by the name typed.
FORMULAS = {
    "cycle-rooted": lambda a: bnd.cycle_rooted_formula(a.p, a.k),
    "path-rooted": lambda a: bnd.path_rooted_formula(a.p, a.k),
    "polyhex": lambda a: bnd.polyhex_bound(a.p, a.k),
    "nanotube": lambda a: bnd.nanotube_bound(a.p, a.q, a.k),
}


def cmd_formula(args) -> int:
    print(FORMULAS[args.which](args))
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
    return _emit_graph(args, _load_graph(args.graph))


_flags = partial(argparse.ArgumentParser, add_help=False)


@cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kmetric",
        description="Exact k-metric dimension solver and graph constructors.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # Flag groups that several commands and kinds share through parents=.
    need_k = _flags()
    need_k.add_argument("--k", type=int, required=True)
    as_json = _flags()
    as_json.add_argument("--json", action="store_true")
    logged = _flags(parents=[as_json])
    logged.add_argument("--log", default=None, help="append a JSON run record to this file")
    emit = _flags()
    emit.add_argument("--dot", action="store_true", help="emit DOT instead of an edge list")
    emit.add_argument("-o", "--output", default="-")
    factors = _flags()
    factors.add_argument("graph", help="first factor edge-list file")
    factors.add_argument("second", help="second factor edge-list file")
    theorem = _flags(parents=[need_k, as_json])
    theorem.add_argument("--graph", required=True, help="first factor edge-list file")
    theorem.add_argument("--second", required=True, help="second factor edge-list file")
    theorem.add_argument("--exact", action="store_true",
                         help="also solve exactly and report the slack")
    roots = _flags()
    roots.add_argument("--roots", required=True, help="0-based roots of the first factor")
    joint = _flags()
    joint.add_argument("-a", type=int, default=0, help="splice/link vertex in the first factor")
    joint.add_argument("-b", type=int, default=0, help="splice/link vertex in the second factor")
    with_p = _flags()
    with_p.add_argument("--p", type=int, default=2)
    with_pq = _flags(parents=[with_p])
    with_pq.add_argument("--q", type=int, default=1, help="nanotube doubling stages")

    p_dim = sub.add_parser("dim", parents=[need_k, logged],
                           help="k-metric dimension of a graph file")
    p_dim.add_argument("graph")
    p_dim.add_argument("--rooted", metavar="U", default=None,
                       help="comma-separated 0-based root indices; compute dim_k(G(U))")
    p_dim.add_argument("--oracle", action="store_true",
                       help="cross-check against the exhaustive oracle")
    p_dim.add_argument("--oracle-limit", type=int, default=ORACLE_SIZE_LIMIT)
    p_dim.set_defaults(func=cmd_dim)

    p_maxk = sub.add_parser("maxk", parents=[logged],
                            help="largest k admitting a k-metric generator")
    p_maxk.add_argument("graph")
    p_maxk.set_defaults(func=cmd_maxk)

    kinds = sub.add_parser("product", help="construct a product graph").add_subparsers(
        dest="mode", required=True)
    p_hier = kinds.add_parser("hier", parents=[factors, roots, emit])
    p_hier.add_argument("--check-prop1", action="store_true",
                        help="verify the product distance formula pairwise")
    p_hier.set_defaults(func=cmd_hier)
    kinds.add_parser("splice", aliases=["link"], parents=[factors, joint, emit]).set_defaults(
        func=cmd_join)
    p_bridge = kinds.add_parser("bridge", parents=[emit])
    p_bridge.add_argument("graph", help="edge-list file of the rooted graph")
    p_bridge.add_argument("--root", type=int, default=0, help="bridge root vertex")
    p_bridge.add_argument("--d", type=int, default=2, help="bridge copy count")
    p_bridge.set_defaults(func=cmd_bridge)

    kinds = sub.add_parser("gen", help="generate a chemical graph family member").add_subparsers(
        dest="family", required=True)
    kinds.add_parser("nanotube", parents=[with_pq, emit]).set_defaults(func=cmd_gen)
    kinds.add_parser("polyhex", parents=[with_p, emit]).set_defaults(func=cmd_gen)
    p_stack = kinds.add_parser("polyhex-stack", aliases=["armchair"], parents=[with_p, emit])
    p_stack.add_argument("--levels", type=int, default=3, help="rows (2^j - 1)")
    p_stack.set_defaults(func=cmd_gen)

    kinds = sub.add_parser("bound", help="theorem bounds and closed formulas").add_subparsers(
        dest="which", required=True)
    kinds.add_parser("t1", parents=[theorem, roots]).set_defaults(func=cmd_t1)
    p_t2 = kinds.add_parser("t2", parents=[theorem])
    p_t2.add_argument("--root", type=int, default=0, help="root vertex of the first factor")
    p_t2.set_defaults(func=cmd_t2)
    kinds.add_parser("splice", aliases=["link"], parents=[theorem, joint]).set_defaults(
        func=cmd_join_bound)
    kinds.add_parser("cycle-rooted", aliases=["path-rooted", "polyhex"],
                     parents=[need_k, with_p]).set_defaults(func=cmd_formula)
    kinds.add_parser("nanotube", parents=[need_k, with_pq]).set_defaults(func=cmd_formula)

    sub.add_parser("verify-table", help="reproduce the reference dimension table").set_defaults(
        func=cmd_verify_table)

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
