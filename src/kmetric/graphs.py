"""Simple connected graphs and unweighted all-pairs shortest paths.

Vertices are dense 0-based indices.  Graphs are validated on construction
(simple, connected, n >= 1) and immutable afterwards, so every downstream
computation can assume a well-formed input.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from functools import cached_property


class GraphError(ValueError):
    """Base class for graph construction failures."""


class SelfLoopError(GraphError):
    """An edge joins a vertex to itself."""


class DisconnectedError(GraphError):
    """The edge set does not connect all vertices."""


class IndexOutOfRangeError(GraphError):
    """A vertex index lies outside 0..n-1."""


@dataclass(frozen=True)
class Graph:
    """Immutable simple connected undirected graph.

    adjacency[v] is the sorted tuple of neighbors of v.  labels, when
    present, carry one display string per vertex (used e.g. for product
    pair labels); they have no structural meaning.
    """

    n: int
    adjacency: tuple[tuple[int, ...], ...]
    labels: tuple[str, ...] | None = None

    def degree(self, v: int) -> int:
        return len(self.adjacency[v])

    @property
    def num_edges(self) -> int:
        return sum(len(a) for a in self.adjacency) // 2

    def edges(self) -> list[tuple[int, int]]:
        """All edges as sorted (u, v) pairs with u < v, lexicographic."""
        return [(u, v) for u in range(self.n) for v in self.adjacency[u] if u < v]

    def has_edge(self, u: int, v: int) -> bool:
        return v in self.adjacency[u]

    def label(self, v: int) -> str:
        return self.labels[v] if self.labels is not None else str(v)

    def with_labels(self, labels: list[str] | tuple[str, ...]) -> "Graph":
        if len(labels) != self.n:
            raise GraphError(f"expected {self.n} labels, got {len(labels)}")
        return Graph(self.n, self.adjacency, tuple(labels))


# _DIGIT[b] spells each byte as the digit "1" when its bit b is set, else "0".
_DIGIT = tuple(bytes(48 + (x >> b & 1) for x in range(256)) for b in range(8))


@dataclass(frozen=True)
class DistanceMatrix:
    """All-pairs shortest-path hop counts of a connected graph."""

    n: int
    d: tuple[tuple[int, ...], ...] = field(repr=False)

    def __getitem__(self, pair: tuple[int, int]) -> int:
        i, j = pair
        return self.d[i][j]

    def row(self, i: int) -> tuple[int, ...]:
        return self.d[i]

    @cached_property
    def planes(self) -> tuple[tuple[int, ...], ...]:
        """planes[b][u]: the bitset of the vertices w for which bit b of
        d(u, w) is set.

        There are max(1, diameter.bit_length()) planes.  Each plane of a row
        is one byte translation of the row, spelled high vertex first, and
        one base-2 parse; a diameter of 256 or more spells the row once per
        byte of the distances.  Computed on first use and kept, so every
        model built from this matrix shares one copy.
        """
        diameter = max(map(max, self.d))
        depth = max(1, diameter.bit_length())
        # spelled[p][u]: byte p of d(u, w) for each w, high vertex first.
        if diameter < 256:
            spelled = [[bytes(row)[::-1] for row in self.d]]
        else:
            spelled = [[bytes(x >> s & 255 for x in reversed(row)) for row in self.d] for s in range(0, depth, 8)]
        return tuple(tuple(int(s.translate(_DIGIT[b % 8]), 2) for s in spelled[b // 8]) for b in range(depth))

    @cached_property
    def pair_models(self) -> dict:
        """The solver's row models of pair families built from this matrix.

        Filled on first use of each family, so every demand k shares one
        copy of the family's rows.
        """
        return {}


def build_graph(
    n: int,
    edges,
    labels: list[str] | tuple[str, ...] | None = None,
) -> Graph:
    """Validate and build a Graph from a vertex count and edge list.

    Edges are deduplicated; adjacency lists come out sorted.  Raises
    SelfLoopError, IndexOutOfRangeError, or DisconnectedError on bad input.
    """
    if n < 1:
        raise GraphError(f"vertex count must be >= 1, got {n}")
    neighbor_sets: list[set[int]] = [set() for _ in range(n)]
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise IndexOutOfRangeError(f"edge ({u},{v}) outside 0..{n - 1}")
        if u == v:
            raise SelfLoopError(f"self-loop at vertex {u}")
        neighbor_sets[u].add(v)
        neighbor_sets[v].add(u)
    g = Graph(n, tuple(tuple(sorted(s)) for s in neighbor_sets))
    unreached = bfs_distances(g, 0).count(-1)
    if unreached:
        raise DisconnectedError(f"graph has {n} vertices but BFS from 0 reaches {n - unreached}")
    if labels is not None:
        g = g.with_labels(labels)
    return g


def bfs_distances(g: Graph, source: int) -> list[int]:
    """Hop counts from source to every vertex (single BFS)."""
    dist = [-1] * g.n
    dist[source] = 0
    queue = deque([source])
    while queue:
        u = queue.popleft()
        du = dist[u]
        for v in g.adjacency[u]:
            if dist[v] < 0:
                dist[v] = du + 1
                queue.append(v)
    return dist


def all_pairs_distances(g: Graph) -> DistanceMatrix:
    """Distance matrix via one BFS per vertex."""
    rows = tuple(tuple(bfs_distances(g, s)) for s in range(g.n))
    return DistanceMatrix(g.n, rows)


def is_rooted_path(g: Graph, u: int) -> bool:
    """True iff g is a path graph and u one of its endpoints."""
    if not (0 <= u < g.n):
        raise IndexOutOfRangeError(f"vertex {u} outside 0..{g.n - 1}")
    if g.n == 1:
        return True
    degs = [g.degree(v) for v in range(g.n)]
    if g.n == 2:
        return True  # P_2, both vertices are endpoints
    if sorted(degs) != [1, 1] + [2] * (g.n - 2):
        return False
    return degs[u] == 1


def girth(g: Graph) -> int | None:
    """Length of a shortest cycle, or None for trees (acyclic graphs)."""
    best: int | None = None
    for root in range(g.n):
        dist = [-1] * g.n
        parent = [-1] * g.n
        dist[root] = 0
        queue = deque([root])
        while queue:
            u = queue.popleft()
            for v in g.adjacency[u]:
                if dist[v] < 0:
                    dist[v] = dist[u] + 1
                    parent[v] = u
                    queue.append(v)
                elif parent[u] != v:
                    cycle = dist[u] + dist[v] + 1
                    if best is None or cycle < best:
                        best = cycle
    return best


# Named constructors for the standard families used throughout.

def path_graph(n: int) -> Graph:
    return build_graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise GraphError(f"cycle needs >= 3 vertices, got {n}")
    return build_graph(n, [(i, (i + 1) % n) for i in range(n)])


def complete_graph(n: int) -> Graph:
    return build_graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])
