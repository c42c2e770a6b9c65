"""Edge-list text format and DOT export.

Edge-list format: first line ``n m``, then m lines ``u v`` with 0-based
indices, each edge once.  Lines starting with ``#`` are comments;
``# label <index> <text>`` comments carry optional vertex labels.  The
writer is canonical (sorted edges, labels before edges) so write -> read ->
write is byte-identical.
"""

from __future__ import annotations

from .graphs import Graph, GraphError, build_graph


def graph_to_text(g: Graph) -> str:
    lines = [f"{g.n} {g.num_edges}"]
    if g.labels is not None:
        for i, lab in enumerate(g.labels):
            lines.append(f"# label {i} {lab}")
    for u, v in g.edges():
        lines.append(f"{u} {v}")
    return "\n".join(lines) + "\n"


def graph_from_text(text: str) -> Graph:
    header: tuple[int, int] | None = None
    edges: dict[tuple[int, int], int] = {}  # edge (low, high) -> its line
    labels: dict[int, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            parts = line[1:].split(None, 2)
            if len(parts) >= 3 and parts[0] == "label":
                try:
                    labels[int(parts[1])] = parts[2]
                except ValueError:
                    pass  # ordinary comment that happens to start with "label"
            continue
        fields = line.split()
        if len(fields) != 2:
            raise GraphError(f"line {lineno}: expected two integers, got {line!r}")
        try:
            a, b = int(fields[0]), int(fields[1])
        except ValueError:
            raise GraphError(f"line {lineno}: expected two integers, got {line!r}") from None
        if header is None:
            header = (a, b)
        elif (edge := (min(a, b), max(a, b))) in edges:
            raise GraphError(f"line {lineno}: edge {a} {b} repeats line {edges[edge]}")
        else:
            edges[edge] = lineno
    if header is None:
        raise GraphError("empty edge-list input")
    n, m = header
    if len(edges) != m:
        raise GraphError(f"header declares {m} edges but {len(edges)} follow")
    label_list = None
    if labels:
        if set(labels) - set(range(n)):
            raise GraphError("label comment for vertex outside 0..n-1")
        label_list = [labels.get(i, str(i)) for i in range(n)]
    return build_graph(n, edges, labels=label_list)


def read_graph(path) -> Graph:
    with open(path, encoding="utf-8") as fh:
        return graph_from_text(fh.read())


def write_graph(path, g: Graph) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(graph_to_text(g))


def graph_to_dot(g: Graph, name: str = "G") -> str:
    """DOT text for external visualization tools."""
    lines = [f"graph {name} {{"]
    for v in range(g.n):
        if g.labels is not None:
            label = g.labels[v].replace("\\", "\\\\").replace('"', '\\"')
            lines.append(f'  {v} [label="{label}"];')
        else:
            lines.append(f"  {v};")
    for u, v in g.edges():
        lines.append(f"  {u} -- {v};")
    lines.append("}")
    return "\n".join(lines) + "\n"
