"""Generators for hexagonal chemical graph families via iterated products.

Every family is built constructively as a chain of hierarchical products
with P_2, so the product identities behind the dimension bounds hold by
construction.  Stage 0 root sets come from the defining texts (alternate
vertices of a cycle, even positions of a path); later stages default to the
rim policy below and accept explicit overrides.

Default rim policy: after each doubling the new outer rim is the top-copy
image of the previous outer rim, and the next root set consists of its
vertices at even 0-based base positions (the images of v_1, v_3, ... of the
original cycle or path).  Rung positions then alternate belt by belt, which
yields the hexagonal face structure and the expected vertex/edge counts.

Vertex labels record (stage, layer, base-index): the doubling stage that
created the vertex, its rim level counted from the original copy, and its
position on the original cycle or path.  The chain tracks them beside the
products and labels the final graph once.
"""

from __future__ import annotations

from .graphs import Graph, GraphError, cycle_graph, path_graph
from .products import ProductGraph, RootedGraph, bridge_path, hierarchical_product


class BadRootSetError(GraphError):
    """An explicit root-set override has wrong arity or invalid members."""


def cycle_with_even_roots(p: int) -> RootedGraph:
    """C_{2p} rooted at every second vertex (0-based odd positions)."""
    if p < 2:
        raise GraphError(f"p must be >= 2, got {p}")
    return RootedGraph(cycle_graph(2 * p), tuple(range(1, 2 * p, 2)))


def path_with_even_roots(p: int) -> RootedGraph:
    """P_{2p+3} rooted at every even 1-based position (0-based 1..2p+1).

    The p+1 roots give the strip generator p hexagonal faces and a pendant
    vertex at each end, and they are the root set under which the closed
    rooted-path dimension formula is exact.
    """
    if p < 1:
        raise GraphError(f"p must be >= 1, got {p}")
    return RootedGraph(path_graph(2 * p + 3), tuple(range(1, 2 * p + 2, 2)))


def _doubling_chain(rg: RootedGraph, num_stages: int, roots) -> ProductGraph:
    """Iterate (current graph)(U) x P_2 for num_stages stages, from rg.

    Each vertex's (stage, level, base) metadata is tracked beside the
    products and applied as its label once, to the final graph.  The top
    copy of each doubling gets mirrored levels so the outer rim is always
    the maximum level.  ``roots``, when given, replaces the root set of
    every stage, stage 0 included.
    """
    if roots is not None and len(roots) != num_stages:
        raise BadRootSetError(f"expected {num_stages} root sets, got {len(roots)}")
    g = rg.graph
    meta = [(0, 0, b) for b in range(g.n)]
    for s in range(num_stages):
        if roots is not None:
            try:
                rg = RootedGraph(g, roots[s])
            except GraphError as exc:
                raise BadRootSetError(f"stage {s}: {exc}") from None
        elif s > 0:
            rim = 2**s - 1
            u = tuple(i for i, (_, lev, b) in enumerate(meta) if lev == rim and b % 2 == 0)
            rg = RootedGraph(g, u)
        product = hierarchical_product(rg, path_graph(2))
        # Vertex x becomes 2x (its bottom copy, unchanged) and 2x + 1 (its top copy).
        top = [(s + 1, 2 ** (s + 1) - 1 - lev, b) for _, lev, b in meta]
        meta = [m for pair in zip(meta, top) for m in pair]
        g = product.graph
    labels = [f"({st},{lev},{b})" for st, lev, b in meta]
    return ProductGraph(g.with_labels(labels), product.factor_dims)


def nanotube(p: int, q: int, roots=None) -> ProductGraph:
    """Zigzag nanotube with 2^q - 1 hexagonal belts of p hexagons each.

    Stage 0 is C_{2p} rooted at alternate vertices; each of the q stages
    doubles via a product with P_2.
    """
    rg = cycle_with_even_roots(p)
    if q < 1:
        raise GraphError(f"q must be >= 1, got {q}")
    return _doubling_chain(rg, q, roots)


def polyhex_row(p: int) -> ProductGraph:
    """One-row polyhex strip: even-rooted P_{2p+3} times P_2."""
    return _doubling_chain(path_with_even_roots(p), 1, None)


def _stack_stage_count(levels: int) -> int:
    if not (levels >= 1 and not levels & (levels + 1)):
        raise GraphError(f"levels must be of the form 2^j - 1, got {levels}")
    return levels.bit_length()


def polyhex_stack(p: int, levels: int, roots=None) -> ProductGraph:
    """Polyhex lattice with the given number of hexagonal rows (2^j - 1)."""
    return _doubling_chain(path_with_even_roots(p), _stack_stage_count(levels), roots)


def armchair(p: int, levels: int = 3, roots=None) -> ProductGraph:
    """Armchair tube: a polyhex stack with one more rim doubling."""
    return _doubling_chain(path_with_even_roots(p), _stack_stage_count(levels) + 1, roots)


def bridge_path_uniform(g: Graph, u: int, d: int) -> Graph:
    """d bridged copies of (g, u), isomorphic to G(u) x P_d: copy j, vertex x
    is the product pair (x, j)."""
    if d < 1:
        raise GraphError(f"d must be >= 1, got {d}")
    return bridge_path([(g, u)] * d)
