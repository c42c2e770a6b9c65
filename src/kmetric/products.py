"""Hierarchical, splice, link, and bridge-path constructions.

The hierarchical product of a rooted graph G(U) with H keeps full copies of
G in every H-position and joins consecutive copies only above root vertices.
U = V(G) recovers the Cartesian product; |U| = 1 the cluster product.
Product vertex (g, h) always sits at index g*n(H) + h, so bases and labels
are reproducible across runs.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graphs import DistanceMatrix, Graph, GraphError, build_graph


class EmptyListError(GraphError):
    """bridge_path was given no parts."""


@dataclass(frozen=True)
class RootedGraph:
    """A graph together with a nonempty root set U."""

    graph: Graph
    roots: tuple[int, ...]

    def __post_init__(self):
        n = self.graph.n
        roots = tuple(sorted(set(self.roots)))
        if not roots:
            raise GraphError("root set must be nonempty")
        if roots[0] < 0 or roots[-1] >= n:
            raise GraphError(f"root set {roots} outside 0..{n - 1}")
        object.__setattr__(self, "roots", roots)


@dataclass(frozen=True)
class ProductGraph:
    """A product graph plus the index <-> factor-pair bijection."""

    graph: Graph
    factor_dims: tuple[int, int]

    def index_of(self, g: int, h: int) -> int:
        return g * self.factor_dims[1] + h

    def pair_of(self, idx: int) -> tuple[int, int]:
        return divmod(idx, self.factor_dims[1])


def through_root_distance(rg: RootedGraph, dm: DistanceMatrix, g: int, g2: int) -> int:
    """Length of a shortest g,g2-walk that touches the root set.

    The touching vertex may be g or g2 themselves, so for g in U this is the
    plain distance.
    """
    return min(dm[g, u] + dm[u, g2] for u in rg.roots)


def hierarchical_product(rg: RootedGraph, h: Graph) -> ProductGraph:
    """G(U) hierarchical-product H with the fixed g*n(H)+h index layout."""
    g = rg.graph
    nh = h.n
    edges: list[tuple[int, int]] = []
    for g1, g2 in g.edges():
        for hv in range(nh):
            edges.append((g1 * nh + hv, g2 * nh + hv))
    for u in rg.roots:
        for h1, h2 in h.edges():
            edges.append((u * nh + h1, u * nh + h2))
    labels = [
        f"({g.label(gv)},{h.label(hv)})" for gv in range(g.n) for hv in range(nh)
    ]
    product = build_graph(g.n * nh, edges, labels=labels)
    return ProductGraph(product, (g.n, nh))


def hierarchical_distance(
    rg: RootedGraph,
    dm_g: DistanceMatrix,
    dm_h: DistanceMatrix,
    p: tuple[int, int],
    q: tuple[int, int],
) -> int:
    """Product distance from the factor matrices, without building the product.

    Same H-position: plain G distance.  Different H-positions: through-root
    distance in G plus the H distance.
    """
    g1, h1 = p
    g2, h2 = q
    if h1 == h2:
        return dm_g[g1, g2]
    return through_root_distance(rg, dm_g, g1, g2) + dm_h[h1, h2]


def splice(g: Graph, a: int, h: Graph, b: int) -> Graph:
    """Identify vertex a of g with vertex b of h.

    The merged vertex keeps a's index; h's other vertices follow g's block
    in h's order.
    """
    _check_vertex(g, a)
    _check_vertex(h, b)

    def h_index(w: int) -> int:
        if w == b:
            return a
        return g.n + w - (1 if w > b else 0)

    edges = g.edges() + [(h_index(u), h_index(v)) for u, v in h.edges()]
    return build_graph(g.n + h.n - 1, edges)


def link(g: Graph, a: int, h: Graph, b: int) -> Graph:
    """Join g and h by the new edge a-b; h's vertices are offset by n(g)."""
    _check_vertex(g, a)
    _check_vertex(h, b)
    edges = g.edges() + [(g.n + u, g.n + v) for u, v in h.edges()]
    edges.append((a, g.n + b))
    return build_graph(g.n + h.n, edges)


def bridge_path(parts: list[tuple[Graph, int]]) -> Graph:
    """Disjoint union of the parts plus bridge edges r_i - r_{i+1}.

    Part j occupies the index block starting at the sum of the preceding
    part orders.
    """
    if not parts:
        raise EmptyListError("bridge_path needs at least one part")
    offsets = []
    total = 0
    for graph, root in parts:
        _check_vertex(graph, root)
        offsets.append(total)
        total += graph.n
    edges: list[tuple[int, int]] = []
    for (graph, _), off in zip(parts, offsets):
        edges.extend((off + u, off + v) for u, v in graph.edges())
    for j in range(len(parts) - 1):
        edges.append((offsets[j] + parts[j][1], offsets[j + 1] + parts[j + 1][1]))
    return build_graph(total, edges)


def _check_vertex(g: Graph, v: int) -> None:
    if not (0 <= v < g.n):
        raise GraphError(f"vertex {v} outside 0..{g.n - 1}")
