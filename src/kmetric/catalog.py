"""Stored catalog of all connected graphs on at most 7 vertices.

The catalog ships as graph6 strings (data/connected_le7.g6), one graph per
line, sorted by order: 1, 1, 2, 6, 21, 112, 853 graphs for n = 1..7, the
standard counts of connected graphs up to isomorphism.  It backs the
exhaustive oracle-equivalence and feasibility-boundary test suites.
"""

from __future__ import annotations

import random
from importlib import resources

from .graphs import Graph, build_graph

CONNECTED_COUNTS = {1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112, 7: 853}


def decode_graph6(line: str) -> Graph:
    """Decode one graph6 string (n <= 62 supported, enough for the catalog)."""
    data = [ord(c) - 63 for c in line.strip()]
    if not data or not all(0 <= b < 64 for b in data):
        raise ValueError(f"invalid graph6 data {line!r}")
    n = data[0]
    if n == 63:
        raise ValueError("graph6 long form (n > 62) not supported")
    bits = []
    for b in data[1:]:
        bits.extend((b >> shift) & 1 for shift in range(5, -1, -1))
    need = n * (n - 1) // 2
    if len(bits) < need:
        raise ValueError(f"graph6 string too short for n={n}")
    edges = []
    idx = 0
    for j in range(1, n):
        for i in range(j):
            if bits[idx]:
                edges.append((i, j))
            idx += 1
    return build_graph(n, edges)


def encode_graph6(g: Graph) -> str:
    bits = []
    for j in range(1, g.n):
        for i in range(j):
            bits.append(1 if g.has_edge(i, j) else 0)
    while len(bits) % 6:
        bits.append(0)
    chars = [chr(g.n + 63)]
    for pos in range(0, len(bits), 6):
        val = 0
        for b in bits[pos : pos + 6]:
            val = (val << 1) | b
        chars.append(chr(val + 63))
    return "".join(chars)


def connected_graphs() -> list[Graph]:
    """All catalog graphs, in stored order."""
    text = resources.files("kmetric").joinpath("data/connected_le7.g6").read_text()
    return [decode_graph6(line) for line in text.splitlines() if line.strip()]


def random_connected_graph(rng: random.Random, n: int, extra_edge_prob: float = 0.3) -> Graph:
    """Random connected graph: random attachment tree plus random extras."""
    edges = set()
    for v in range(1, n):
        edges.add((rng.randrange(v), v))
    for u in range(n):
        for v in range(u + 1, n):
            if (u, v) not in edges and rng.random() < extra_edge_prob:
                edges.add((u, v))
    return build_graph(n, sorted(edges))


def random_tree(rng: random.Random, n: int) -> Graph:
    return build_graph(n, [(rng.randrange(v), v) for v in range(1, n)])
