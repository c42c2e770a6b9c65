import pytest

from kmetric.fileio import graph_from_text, graph_to_dot, graph_to_text
from kmetric.graphs import GraphError, cycle_graph, path_graph
from kmetric.products import RootedGraph, hierarchical_product


def test_round_trip_bytes():
    g = cycle_graph(5)
    text = graph_to_text(g)
    assert graph_to_text(graph_from_text(text)) == text


def test_round_trip_graph():
    g = path_graph(4)
    g2 = graph_from_text(graph_to_text(g))
    assert g2.n == g.n and g2.adjacency == g.adjacency


def test_labels_round_trip():
    prod = hierarchical_product(RootedGraph(path_graph(3), (0,)), path_graph(2))
    text = graph_to_text(prod.graph)
    assert "# label 0 (0,0)" in text
    g2 = graph_from_text(text)
    assert g2.labels == prod.graph.labels
    assert graph_to_text(g2) == text


def test_comments_and_whitespace_ignored():
    text = "# a comment\n3 2\n\n0 1\n# another\n1 2\n"
    g = graph_from_text(text)
    assert g.n == 3 and g.num_edges == 2


def test_header_edge_count_mismatch():
    with pytest.raises(GraphError):
        graph_from_text("3 5\n0 1\n1 2\n")


@pytest.mark.parametrize("repeat", ["0 1", "1 0"])
def test_repeated_edge_rejected(repeat):
    # Counted toward the header's m, a repeat would hide a missing edge.
    with pytest.raises(GraphError, match="line 4: edge .* repeats line 2"):
        graph_from_text(f"3 3\n0 1\n1 2\n{repeat}\n")


def test_junk_line_rejected():
    with pytest.raises(GraphError):
        graph_from_text("3 2\n0 1\n1 2 7\n")
    with pytest.raises(GraphError):
        graph_from_text("3 2\n0 1\nx y\n")


def test_empty_input_rejected():
    with pytest.raises(GraphError):
        graph_from_text("# nothing here\n")


def test_dot_export():
    dot = graph_to_dot(path_graph(3))
    assert dot.startswith("graph G {")
    assert "0 -- 1;" in dot and "1 -- 2;" in dot


def test_dot_labels_escaped():
    g = graph_from_text('3 2\n# label 0 a"b\n# label 1 c\\d\n# label 2 e\n0 1\n1 2\n')
    dot = graph_to_dot(g)
    assert '  0 [label="a\\"b"];' in dot
    assert '  1 [label="c\\\\d"];' in dot
    assert '  2 [label="e"];' in dot
