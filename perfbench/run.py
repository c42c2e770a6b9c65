"""Benchmark of kmetric: three workloads, end-to-end and per-layer metrics.

Run from the root of a checkout:

    python3 perfbench/run.py --workload family-search --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 40 --trace 0

One workload runs in one process and one thread.  The benchmark sets up the
inputs SETUP_REPS times (setup_s is the median), then repeats the workload's
pass until the next pass would end after --seconds, and finally checks every
answer of every pass outside the timed region.  With --trace 1 the passes
alternate between untraced and traced; the traced ones give the per-layer
metrics and the untraced ones the tracing overhead.  The last line of
standard output is one JSON object with the keys correct, attempted, failed
and metrics.  ``--workload all`` runs each workload in its own process and
prints a table.  perfbench/README.md says why each workload exists and which
end-to-end metric each layer metric should move.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import math
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from array import array
from pathlib import Path
from typing import NamedTuple

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
EXPECTED = json.loads((BENCH_DIR / "expected.json").read_text(encoding="utf-8"))

sys.path.insert(0, str(BENCH_DIR))
from tracing import Tracer  # noqa: E402

SETUP_REPS = 11
RANDOM_GRAPHS = 300  # catalog-sweep: random graphs added to the 996 catalog graphs
RANDOM_N = (8, 12)


class Answer(NamedTuple):
    """One answer of a pass: a max_k value or a dim_k / dim_k_rooted result."""

    key: tuple
    value: int | None = None  # None: an infinite dimension, or no answer
    basis: tuple = ()
    nodes: int = 0
    kept: int = 0
    pruned: int = 0
    error: str | None = None


def _dim_answer(key, value, basis, stats) -> Answer:
    return Answer(key, value, tuple(basis), stats.nodes, stats.rows, stats.pruned)


def _result_answer(key, result) -> Answer:
    value = None if result.is_infinite else int(result.value)
    return _dim_answer(key, value, result.basis, result.stats)


def load_kmetric(modules: dict):
    """Import kmetric afresh from the checkout's src/ into ``modules``.

    Earlier imports are dropped first, so each set-up repetition pays the
    import again (after the first, from the bytecode cache).
    """
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [m for m in sys.modules if m == "kmetric" or m.startswith("kmetric.")]:
        del sys.modules[name]
    km = importlib.import_module("kmetric")
    importlib.import_module("kmetric.cli")
    importlib.import_module("kmetric.catalog")
    if not Path(km.__file__).resolve().is_relative_to(SRC.resolve()):
        raise ImportError(f"kmetric imported from {km.__file__}, not from {SRC}")
    modules.clear()
    modules.update({m: sys.modules[m] for m in sys.modules if m == "kmetric" or m.startswith("kmetric.")})
    return km


class FamilySearch:
    """The CLI end to end: `kmetric dim FILE --k K --json` on family graphs."""

    name = "family-search"

    def __init__(self, expected=None):
        self.expected = expected or EXPECTED["family-search"]
        self.reference = {(s["graph"], s["k"]): s for s in self.expected["solves"]}

    def setup(self, km, rng, workdir):
        self.files = {}
        for i, (graph, gen_args) in enumerate(self.expected["graphs"].items()):
            path = workdir / f"graph{i}.txt"
            if km.cli.main(["gen", *gen_args, "-o", str(path)]) != 0:
                raise RuntimeError(f"kmetric gen {' '.join(gen_args)} failed")
            self.files[graph] = path
        self.order = list(self.reference)
        rng.shuffle(self.order)

    def run_pass(self, km):
        answers, latencies = [], []
        for graph, k in self.order:
            key = (graph, k)
            out = io.StringIO()
            start = time.perf_counter()
            try:
                with contextlib.redirect_stdout(out):
                    code = km.cli.main(["dim", str(self.files[graph]), "--k", str(k), "--json"])
            except Exception as exc:  # a raised answer is counted, not fatal
                answers.append(Answer(key, error=repr(exc)))
                latencies.append(math.nan)
                continue
            latencies.append(time.perf_counter() - start)
            if code != 0:
                answers.append(Answer(key, error=f"exit code {code}"))
                continue
            res = json.loads(out.getvalue())
            stats = km.SolveStats(**res["stats"])
            answers.append(_dim_answer(key, res["dim"], [v - 1 for v in res["basis"]], stats))
        return answers, latencies

    def reference_answer(self, km, key):
        exp = self.reference[key]
        g = km.fileio.read_graph(self.files[key[0]])
        return exp["dim"], tuple(exp["basis"]), (km.all_pairs_distances(g), key[1], None)


class WideTubes:
    """Large armchair tubes at infeasible k (and armchair(11) at k=1)."""

    name = "wide-tubes"

    def __init__(self, expected=None):
        self.expected = expected or EXPECTED["wide-tubes"]

    def setup(self, km, rng, workdir):
        self.graphs = {t["graph"]: km.chemgen.armchair(t["p"], t["levels"]).graph for t in self.expected}
        self.order = list(self.expected)
        rng.shuffle(self.order)
        self.reference = {}
        for t in self.expected:
            self.reference[(t["graph"], "max_k")] = t["max_k"], ()
            for s in t["solves"]:
                self.reference[(t["graph"], s["k"])] = s["dim"], tuple(s["basis"])

    def run_pass(self, km):
        answers, latencies = [], []
        for tube in self.order:
            graph = tube["graph"]
            try:
                dm = km.all_pairs_distances(self.graphs[graph])
                answers.append(Answer((graph, "max_k"), km.max_k(dm)))
            except Exception as exc:
                answers.append(Answer((graph, "max_k"), error=repr(exc)))
                dm = None  # dim_k then computes the distances itself
            for solve in tube["solves"]:
                key = (graph, solve["k"])
                start = time.perf_counter()
                try:
                    res = km.dim_k(self.graphs[graph], solve["k"], dm)
                except Exception as exc:
                    answers.append(Answer(key, error=repr(exc)))
                    latencies.append(math.nan)
                    continue
                latencies.append(time.perf_counter() - start)
                answers.append(_result_answer(key, res))
        return answers, latencies

    def reference_answer(self, km, key):
        value, basis = self.reference[key]
        if key[1] == "max_k" or value is None:
            return value, basis, None
        return value, basis, (km.all_pairs_distances(self.graphs[key[0]]), key[1], None)


class CatalogSweep:
    """Every catalog graph plus seeded random graphs, at every feasible k."""

    name = "catalog-sweep"

    def setup(self, km, rng, workdir):
        graphs = km.catalog.connected_graphs()
        graphs += [
            km.catalog.random_connected_graph(rng, rng.randint(*RANDOM_N))
            for _ in range(RANDOM_GRAPHS)
        ]
        self.jobs = []
        for g in graphs:
            top = km.max_k(km.all_pairs_distances(g))
            ks = range(1, 2 if top == km.INFINITE else top + 1)
            self.jobs.append((g, km.RootedGraph(g, (rng.randrange(g.n),)), ks))

    def run_pass(self, km):
        answers, latencies = [], []
        clock = time.perf_counter
        for i, (g, rg, ks) in enumerate(self.jobs):
            dm = km.all_pairs_distances(g)
            for k in ks:
                for key, solve, arg in (((i, k, "full"), km.dim_k, g), ((i, k, "rooted"), km.dim_k_rooted, rg)):
                    start = clock()
                    try:
                        res = solve(arg, k, dm)
                    except Exception as exc:
                        answers.append(Answer(key, error=repr(exc)))
                        latencies.append(math.nan)
                        continue
                    latencies.append(clock() - start)
                    answers.append(_result_answer(key, res))
        return answers, latencies

    def reference_answer(self, km, key):
        i, k, kind = key
        g, rg, _ = self.jobs[i]
        dm = km.all_pairs_distances(g)
        if kind == "full":
            ref = km.oracle_solve(km.build_instance_full(dm, k))
            pairs = None
        else:
            ref = km.oracle_solve(km.build_instance_rooted(rg, dm, k))
            pairs = km.sphere_pairs(rg, dm)
        value = None if ref.is_infinite else int(ref.value)
        return value, ref.basis, (dm, k, pairs)


WORKLOADS = {w.name: w for w in (FamilySearch, WideTubes, CatalogSweep)}


def check_answers(workload, km, answers, repeats) -> list[str]:
    """Check answers against the workload's reference; one message per
    wrong or raised answer, ``repeats[i]`` times for ``answers[i]``.

    The reference is the reference table, an answer recorded when the
    benchmark was added, or the exhaustive oracle.  A finite basis must also
    be a k-metric generator of the stated size.
    """
    errors = []
    for ans, times in zip(answers, repeats):
        if ans.error is not None:
            problem = f"raised {ans.error}"
        else:
            value, basis, generator = workload.reference_answer(km, ans.key)
            problem = None
            if (ans.value, ans.basis) != (value, basis):
                problem = f"got {ans.value} {ans.basis}, expected {value} {basis}"
            elif generator is not None:
                dm, k, pairs = generator
                if len(ans.basis) != ans.value or not km.is_k_generator(dm, ans.basis, k, pairs):
                    problem = f"basis {ans.basis} is not a {k}-metric generator of size {ans.value}"
        if problem is not None:
            errors.extend([f"{ans.key}: {problem}"] * times)
    return errors


def pass_counts(answers) -> tuple[int, int, int]:
    return (
        sum(a.nodes for a in answers),
        sum(a.kept for a in answers),
        sum(a.pruned for a in answers),
    )


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (q in 0..1) of a non-empty sample."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def metric(value, unit):
    return {"value": value, "unit": unit}


def run_workload(workload, seed: int, seconds: float, trace: bool) -> dict:
    name = workload.name
    tracer = Tracer() if trace else None
    modules: dict = {}
    workdir = OUT_DIR / f"work-{name}-{seed}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        setup_times = []
        for rep in range(SETUP_REPS):
            gc.collect()
            start = time.perf_counter()
            km = load_kmetric(modules)
            if tracer:
                tracer.group = f"setup{rep}"
                tracer.install(modules)
            workload.setup(km, random.Random(seed), workdir)
            setup_times.append(time.perf_counter() - start)
            if tracer:
                tracer.uninstall()

        # Only the first pass's answers are kept whole; a later answer is
        # kept only where it differs, so memory does not grow with passes.
        first, repeats, differing = None, None, []
        counts = set()
        walls, traced_walls, latencies = [], [], []  # latencies: one array per untraced pass
        deadline = time.perf_counter() + seconds
        while True:
            traced = tracer is not None and len(walls) > len(traced_walls)  # alternate
            if traced:
                tracer.group = len(traced_walls)
                tracer.install(modules)
            gc.collect()
            start = time.perf_counter()
            answers, lat = workload.run_pass(km)
            wall = time.perf_counter() - start
            if traced:
                tracer.uninstall()
                traced_walls.append(wall)
            else:
                walls.append(wall)
                latencies.append(array("d", lat))
            counts.add(pass_counts(answers))
            if first is None:
                first, repeats = answers, [1] * len(answers)
            else:
                for i, (ans, ref) in enumerate(zip(answers, first)):
                    if ans == ref:
                        repeats[i] += 1
                    else:
                        differing.append(ans)
            enough = len(walls) >= 1 and len(traced_walls) >= (1 if tracer else 0)
            if enough and time.perf_counter() + wall > deadline:
                break
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

        attempted = sum(repeats) + len(differing)
        errors = check_answers(workload, km, first + differing, repeats + [1] * len(differing))
        failed = len(errors)
        if len(counts) != 1:
            errors.append(f"node/row counts differ between passes: {sorted(counts)}")
        for line in errors[:20]:
            print(f"error: {line}", file=sys.stderr)

        # Per-solve latency: each solve's median over the untraced passes.
        per_solve = [statistics.median(t) for t in zip(*latencies) if not any(map(math.isnan, t))]
        nodes, kept, pruned = next(iter(counts))
        summary = {
            "workload": name, "seed": seed, "passes": len(walls), "traced_passes": len(traced_walls),
            "pass_walls_s": [round(w, 4) for w in walls],
            "solves_per_pass": len(per_solve), "error_rate": failed / attempted,
            "nodes": nodes, "kept_rows": kept, "pruned_rows": pruned,
        }
        print("summary: " + json.dumps(summary, sort_keys=True))
        if tracer:
            metrics = layer_metrics(tracer, walls, traced_walls)
            tracer.write(OUT_DIR / f"trace-{name}-seed{seed}.tsv")
        else:
            metrics = {
                "wall_s": metric(statistics.median(walls), "s"),
                "setup_s": metric(statistics.median(setup_times), "s"),
                "peak_rss_mb": metric(peak_rss_mb, "MB"),
                "solve_ms.p50": metric(percentile(per_solve, 0.50) * 1e3, "ms"),
                "solve_ms.p99": metric(percentile(per_solve, 0.99) * 1e3, "ms"),
            }
        return {
            "correct": not errors,
            "attempted": attempted,
            "failed": failed,
            "metrics": metrics,
        }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def layer_metrics(tracer: Tracer, walls, traced_walls) -> dict:
    """Per-layer metrics: the median over traced passes (set-up layers: over
    set-up repetitions) of each layer's self time and counts."""
    totals = tracer.layer_totals()
    setups = [t for group, t in totals.items() if isinstance(group, str)]
    passes = [t for group, t in totals.items() if isinstance(group, int)]

    def get(key):
        return lambda t: t[key]

    def per(key, base, scale=1):
        return lambda t: scale * t[key] / max(1, t[base])

    table = (
        ("solver.solve_s", "s", passes, get("solver.solve.self_s")),
        ("solver.solve_calls", "count", passes, get("solver.solve.calls")),
        ("solver.solve_ms_per_call", "ms", passes, per("solver.solve.self_s", "solver.solve.calls", 1e3)),
        ("solver.nodes", "count", passes, get("solver.solve.nodes")),
        ("solver.us_per_node", "us", passes, per("solver.solve.self_s", "solver.solve.nodes", 1e6)),
        ("solver.model_s", "s", passes, get("solver.model.self_s")),
        ("solver.maxk_s", "s", passes, get("solver.maxk.self_s")),
        ("solver.model_rows", "count", passes, get("solver.model.rows")),
        ("solver.kept_rows", "count", passes, get("solver.solve.kept")),
        ("solver.pruned_rows", "count", passes, get("solver.solve.pruned")),
        ("solver.keep_ratio", "ratio", passes, per("solver.solve.kept", "solver.model.rows")),
        ("graphs.apsp_s", "s", passes, get("graphs.apsp.self_s")),
        ("graphs.apsp_calls", "count", passes, get("graphs.apsp.calls")),
        ("chemgen.gen_s", "s", setups, get("chemgen.gen.self_s")),
        ("products.hier_s", "s", setups, get("products.hier.self_s")),
        ("catalog.decode_s", "s", setups, get("catalog.decode.self_s")),
        ("fileio.read_s", "s", passes, get("fileio.read.self_s")),
        ("cli.self_s", "s", passes, get("cli.self_s")),
    )
    out = {name: metric(statistics.median(map(fn, groups)), unit) for name, unit, groups, fn in table}
    overhead = statistics.median(traced_walls) / statistics.median(walls) - 1
    out["trace.overhead_frac"] = metric(overhead, "ratio")
    return out


def run_all(args) -> int:
    """Each workload in its own process; a table, then one combined object."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        error_rate = result["failed"] / result["attempted"]
        print(f"{name}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} error_rate={error_rate:g}")
        for key, m in result["metrics"].items():
            print(f"  {key:<28} {m['value']:>14.6g} {m['unit']}")
            combined["metrics"][f"{name}/{key}"] = m
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
    print(json.dumps(combined, sort_keys=True))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "kmetric" / "__init__.py").is_file():
        print(f"error: kmetric sources not found under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    result = run_workload(WORKLOADS[args.workload](), args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
