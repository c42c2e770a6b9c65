import random

import pytest

from kmetric.graphs import (
    DisconnectedError,
    GraphError,
    IndexOutOfRangeError,
    SelfLoopError,
    all_pairs_distances,
    bfs_distances,
    build_graph,
    complete_graph,
    cycle_graph,
    girth,
    is_rooted_path,
    path_graph,
)
from kmetric.catalog import connected_graphs, random_connected_graph, random_tree

from util import tree_path_length


class TestBuildGraph:
    def test_path_p3(self):
        g = build_graph(3, [(0, 1), (1, 2)])
        assert g.n == 3
        assert g.adjacency == ((1,), (0, 2), (1,))

    def test_single_vertex_is_valid(self):
        g = build_graph(1, [])
        assert g.n == 1 and g.num_edges == 0

    def test_disconnected_rejected(self):
        with pytest.raises(DisconnectedError):
            build_graph(4, [(0, 1), (2, 3)])

    def test_self_loop_rejected(self):
        with pytest.raises(SelfLoopError):
            build_graph(3, [(0, 0), (0, 1), (1, 2)])

    def test_out_of_range_rejected(self):
        with pytest.raises(IndexOutOfRangeError):
            build_graph(3, [(0, 3), (0, 1), (1, 2)])

    def test_zero_vertices_rejected(self):
        with pytest.raises(GraphError):
            build_graph(0, [])

    def test_duplicate_edges_collapse(self):
        g = build_graph(2, [(0, 1), (1, 0), (0, 1)])
        assert g.num_edges == 1

    def test_labels(self):
        g = build_graph(2, [(0, 1)], labels=["a", "b"])
        assert g.label(1) == "b"
        with pytest.raises(GraphError):
            g.with_labels(["only-one"])


def bfs_table(g):
    return tuple(tuple(bfs_distances(g, s)) for s in range(g.n))


def bfs_planes(table):
    """planes[b][u] read off a table of hop counts, bit by bit."""
    depth = max(1, max(map(max, table)).bit_length())
    return tuple(
        tuple(sum(1 << w for w, x in enumerate(row) if x >> b & 1) for row in table) for b in range(depth)
    )


def lollipop(clique: int, tail: int):
    edges = [(i, j) for i in range(clique) for j in range(i + 1, clique)]
    edges += [(v, v + 1) for v in range(clique - 1, clique + tail - 1)]
    return build_graph(clique + tail, edges)


class TestSweepAgainstBFS:
    """The all-pairs sweep's planes, and the table spelled from them, against
    one plain BFS per source."""

    @staticmethod
    def check(g):
        table = bfs_table(g)
        dm = all_pairs_distances(g)
        assert dm.planes == bfs_planes(table)
        assert dm.d == table

    def test_catalog(self):
        for g in connected_graphs():
            self.check(g)

    def test_random(self):
        rng = random.Random(21)
        for _ in range(200):
            self.check(random_connected_graph(rng, rng.randint(8, 40)))

    @pytest.mark.parametrize(
        "g",
        [
            complete_graph(2),
            path_graph(500),
            complete_graph(200),
            build_graph(400, [(0, v) for v in range(1, 400)]),  # K_{1,399}
            lollipop(150, 150),
            cycle_graph(600),
        ],
        ids=["K_2", "P_500", "K_200", "K_1,399", "lollipop", "C_600"],
    )
    def test_extreme_shapes(self, g):
        self.check(g)


class TestDistances:
    def test_p3_matrix(self):
        dm = all_pairs_distances(path_graph(3))
        assert dm.d == ((0, 1, 2), (1, 0, 1), (2, 1, 0))

    def test_k1(self):
        dm = all_pairs_distances(build_graph(1, []))
        assert dm.d == ((0,),)
        assert dm.planes == ((0,),)

    def test_p3_planes(self):
        # Bit w of planes[b][u] is bit b of d(u, w); a diameter of 2 takes two planes.
        dm = all_pairs_distances(path_graph(3))
        assert dm.planes == ((0b010, 0b101, 0b010), (0b100, 0b000, 0b001))

    def test_c600_planes_rebuild_every_distance(self):
        # A diameter of 300 takes nine planes, so d is spelled from a second
        # byte of planes.
        dm = all_pairs_distances(cycle_graph(600))
        assert len(dm.planes) == 9
        for u in range(600):
            rebuilt = tuple(sum((plane[u] >> w & 1) << b for b, plane in enumerate(dm.planes)) for w in range(600))
            assert rebuilt == dm.d[u]

    def test_c4(self):
        dm = all_pairs_distances(cycle_graph(4))
        assert dm[0, 2] == 2 and dm[1, 3] == 2
        for u, v in cycle_graph(4).edges():
            assert dm[u, v] == 1

    def test_symmetry_and_identity_random(self):
        rng = random.Random(7)
        for _ in range(25):
            g = random_connected_graph(rng, rng.randint(2, 12))
            dm = all_pairs_distances(g)
            for _ in range(20):
                i, j = rng.randrange(g.n), rng.randrange(g.n)
                assert dm[i, j] == dm[j, i]
                assert (dm[i, j] == 0) == (i == j)

    def test_edge_iff_distance_one(self):
        rng = random.Random(11)
        for _ in range(10):
            g = random_connected_graph(rng, rng.randint(2, 10))
            dm = all_pairs_distances(g)
            for i in range(g.n):
                for j in range(i + 1, g.n):
                    assert (dm[i, j] == 1) == g.has_edge(i, j)

    def test_triangle_inequality(self):
        rng = random.Random(13)
        g = random_connected_graph(rng, 9)
        dm = all_pairs_distances(g)
        for i in range(g.n):
            for j in range(g.n):
                for k in range(g.n):
                    assert dm[i, k] <= dm[i, j] + dm[j, k]

    def test_degree_sum(self):
        rng = random.Random(17)
        for _ in range(10):
            g = random_connected_graph(rng, rng.randint(2, 12))
            assert sum(g.degree(v) for v in range(g.n)) == 2 * g.num_edges

    def test_tree_distances_against_parent_walk(self):
        rng = random.Random(23)
        for _ in range(30):
            n = rng.randint(2, 12)
            t = random_tree(rng, n)
            dm = all_pairs_distances(t)
            for i in range(n):
                for j in range(n):
                    assert dm[i, j] == tree_path_length(t.adjacency, 0, i, j)


class TestRootedPath:
    def test_endpoint_true(self):
        assert is_rooted_path(path_graph(5), 0)
        assert is_rooted_path(path_graph(5), 4)

    def test_middle_false(self):
        assert not is_rooted_path(path_graph(5), 2)

    def test_cycle_false(self):
        assert not is_rooted_path(cycle_graph(4), 0)

    def test_small_paths(self):
        assert is_rooted_path(build_graph(1, []), 0)
        assert is_rooted_path(path_graph(2), 0)
        assert is_rooted_path(path_graph(2), 1)

    def test_nonpath_false(self):
        assert not is_rooted_path(complete_graph(4), 0)

    def test_bad_vertex(self):
        with pytest.raises(IndexOutOfRangeError):
            is_rooted_path(path_graph(3), 5)


class TestGirth:
    def test_cycle(self):
        assert girth(cycle_graph(4)) == 4
        assert girth(cycle_graph(7)) == 7

    def test_tree_has_none(self):
        assert girth(path_graph(6)) is None

    def test_complete(self):
        assert girth(complete_graph(5)) == 3
