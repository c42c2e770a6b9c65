"""Simple connected graphs and unweighted all-pairs shortest paths.

Vertices are dense 0-based indices.  Graphs are validated on construction
(simple, connected, n >= 1) and immutable afterwards, so every downstream
computation can assume a well-formed input.

All-pairs distances come from one breadth-first sweep that grows a ball
around every vertex at once and writes the bit planes of the distances
directly (``all_pairs_distances``); the table of hop counts is spelled from
the planes only when something reads it.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from functools import cached_property
from itertools import count, zip_longest
from operator import or_, xor


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


# _BIT turns the digits of bin() into the bytes 0 and 1.
_BIT = bytes.maketrans(b"01", b"\x00\x01")


@dataclass(frozen=True)
class DistanceMatrix:
    """All-pairs shortest-path hop counts of a connected graph, held as bit
    planes.

    planes[b][u] is the bitset of the vertices w for which bit b of d(u, w)
    is set; there are max(1, diameter.bit_length()) planes.  The hop counts
    themselves (``d``) are spelled from the planes on first use.
    """

    n: int
    planes: tuple[tuple[int, ...], ...] = field(repr=False)

    def __getitem__(self, pair: tuple[int, int]) -> int:
        i, j = pair
        return self.d[i][j]

    def row(self, i: int) -> tuple[int, ...]:
        return self.d[i]

    @cached_property
    def d(self) -> tuple[tuple[int, ...], ...]:
        """d[u][w]: the hop count between u and w, built on first use."""
        return tuple(map(self.distances_from, range(self.n)))

    def distances_from(self, u: int) -> tuple[int, ...]:
        """Row u of ``d``, spelled from the planes without building ``d``.

        Each plane of the row is spelled high vertex first by bin(), each
        digit translated to a byte, so byte w of one parse holds bit b of
        d(u, w) once shifted by b.  Eight planes fill a byte per vertex; a
        diameter of 256 or more takes one such byte string per eight planes.
        """
        n, planes = self.n, self.planes
        spelled = []
        for low in range(0, len(planes), 8):
            digits = 0
            for b, plane in enumerate(planes[low : low + 8]):
                digits |= int.from_bytes(bin(plane[u])[2:].encode().translate(_BIT), "big") << b
            spelled.append(digits.to_bytes(n, "little"))
        if len(spelled) == 1:
            return tuple(spelled[0])
        return tuple(sum(x << 8 * s for s, x in enumerate(column)) for column in zip(*spelled))

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
    """Distance matrix via one breadth-first sweep from every vertex at once.

    ball[v] is the bitset of the vertices within radius r of v.  Growing r
    by one ORs each vertex's neighbours' balls into its own, one neighbour
    slot at a time over all vertices; a vertex short of neighbours reads the
    sentinel ball n, which stays empty.  Distances are symmetric, so bit w
    of ball[v] is set exactly when d(v, w) <= r.  Counting from d(v, w) up
    to D + 1, D the diameter, flips bit b at each r whose low b bits are all
    ones; so the XOR of the balls at those radii is bit b of d(v, w) XOR bit
    b of D + 1, and plane b is that XOR, complemented where bit b of D + 1
    is set.
    """
    n = g.n
    full = (1 << n) - 1
    # The empty iterable gives every slot a last entry n, so the sentinel
    # ORs its own empty ball and each level's lists keep n + 1 entries.
    slots = list(zip_longest(*g.adjacency, (), fillvalue=n))
    ball = [1 << v for v in range(n)] + [0]
    planes: list[list[int]] = []
    for r in count():
        # r -> r + 1 flips bits 0..t of r, t its number of trailing ones.
        for b in range((~r & (r + 1)).bit_length()):
            if b == len(planes):
                planes.append(ball)
            else:
                planes[b] = list(map(xor, planes[b], ball))
        if ball.count(full) == n:
            break
        grown = ball
        for slot in slots:
            grown = list(map(or_, grown, map(ball.__getitem__, slot)))
        ball = grown
    return DistanceMatrix(
        n,
        tuple(
            tuple(x ^ full for x in plane[:n]) if (r + 1) >> b & 1 else tuple(plane[:n])
            for b, plane in enumerate(planes[: max(1, r.bit_length())])
        ),
    )


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
