"""Spans around kmetric's public layer functions, installed from outside.

The tracer replaces module attributes of an imported ``kmetric`` with
wrappers that record one span per call: id, parent id, group (a set-up
repetition or a pass), name, start and end in nanoseconds, and optional
counts read from the return value.  Spans stay in memory; ``write`` dumps
them when the benchmark ends.  The package's own files are never edited.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict


def _solve_counts(result) -> dict:
    stats = result.stats
    return {"nodes": stats.nodes, "kept": stats.rows, "pruned": stats.pruned}


def _model_counts(instance) -> dict:
    return {"rows": len(instance.rows)}


# (module, public function, span name, counts read from the return value).
# Each row is the entry point of one layer; ``bounds`` is left out because
# its cost is the dim_k/dim_k_rooted calls it makes, which are traced here.
LAYER_FUNCTIONS = (
    ("kmetric.graphs", "all_pairs_distances", "graphs.apsp", None),
    ("kmetric.solver", "build_instance_full", "solver.model", _model_counts),
    ("kmetric.solver", "build_instance_rooted", "solver.model", _model_counts),
    ("kmetric.solver", "max_k", "solver.maxk", None),
    ("kmetric.solver", "solve_exact", "solver.solve", _solve_counts),
    ("kmetric.chemgen", "nanotube", "chemgen.gen", None),
    ("kmetric.chemgen", "polyhex_row", "chemgen.gen", None),
    ("kmetric.chemgen", "polyhex_stack", "chemgen.gen", None),
    ("kmetric.chemgen", "armchair", "chemgen.gen", None),
    ("kmetric.products", "hierarchical_product", "products.hier", None),
    ("kmetric.catalog", "decode_graph6", "catalog.decode", None),
    ("kmetric.fileio", "read_graph", "fileio.read", None),
    ("kmetric.cli", "main", "cli", None),
)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [id, parent, group, name, start, end, counts]
        self.group = None
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    def install(self, modules: dict) -> None:
        """Wrap every LAYER_FUNCTIONS entry wherever ``modules`` bind it.

        ``modules`` maps module names to the loaded ``kmetric`` modules; a
        function imported by name into another module (``from .solver import
        dim_k``) is replaced there too, so calls made inside the package are
        traced as well.
        """
        for mod_name, fn_name, span_name, counter in LAYER_FUNCTIONS:
            original = getattr(modules[mod_name], fn_name)
            wrapper = self._wrap(original, span_name, counter)
            for module in modules.values():
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._patched.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def _wrap(self, fn, name: str, counter):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [len(spans), stack[-1] if stack else -1, self.group, name, clock(), 0, None]
            spans.append(span)
            stack.append(span[0])
            try:
                result = fn(*args, **kwargs)
            finally:
                span[5] = clock()
                stack.pop()
            if counter is not None:
                span[6] = counter(result)
            return result

        return traced

    def layer_totals(self) -> dict:
        """Per group and span name: self seconds, calls and summed counts.

        A span's self time is its duration minus the durations of its
        direct children; spans of one thread nest, so children never overlap.
        """
        child_ns = defaultdict(int)
        for span in self.spans:
            if span[1] >= 0:
                child_ns[span[1]] += span[5] - span[4]
        totals: dict = defaultdict(lambda: defaultdict(int))
        for span in self.spans:
            layer = totals[span[2]]
            name = span[3]
            layer[name + ".self_s"] += (span[5] - span[4] - child_ns[span[0]]) / 1e9
            layer[name + ".calls"] += 1
            for key, value in (span[6] or {}).items():
                layer[name + "." + key] += value
        return totals

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id\tparent\tgroup\tname\tstart_ns\tend_ns\tcounts\n")
            for sid, parent, group, name, start, end, counts in self.spans:
                extra = ",".join(f"{k}={v}" for k, v in (counts or {}).items())
                fh.write(f"{sid}\t{parent}\t{group}\t{name}\t{start}\t{end}\t{extra}\n")
