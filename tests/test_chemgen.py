import hashlib

import pytest

from kmetric.chemgen import (
    BadRootSetError,
    armchair,
    bridge_path_uniform,
    cycle_with_even_roots,
    nanotube,
    path_with_even_roots,
    polyhex_row,
    polyhex_stack,
)
from kmetric.fileio import graph_to_text
from kmetric.graphs import GraphError, all_pairs_distances, cycle_graph, girth, path_graph
from kmetric.products import RootedGraph, hierarchical_product
from kmetric.solver import dim_k, dim_k_rooted


class TestBaseFamilies:
    def test_cycle_roots(self):
        rg = cycle_with_even_roots(4)
        assert rg.graph.n == 8 and rg.roots == (1, 3, 5, 7)

    def test_path_roots(self):
        rg = path_with_even_roots(2)
        assert rg.graph.n == 7 and rg.roots == (1, 3, 5)

    def test_domain_checks(self):
        with pytest.raises(GraphError):
            cycle_with_even_roots(1)
        with pytest.raises(GraphError):
            path_with_even_roots(0)


class TestNanotube:
    def test_single_belt_counts(self):
        tube = nanotube(4, 1).graph
        assert tube.n == 16 and tube.num_edges == 20
        degs = sorted(tube.degree(v) for v in range(16))
        assert degs == [2] * 8 + [3] * 8
        assert girth(tube) == 6

    def test_three_belt_counts(self):
        tube = nanotube(4, 2).graph
        assert tube.n == 32 and tube.num_edges == 44
        assert girth(tube) == 6

    def test_smallest_tube(self):
        tube = nanotube(2, 1).graph
        assert tube.n == 8
        assert girth(tube) == 4

    def test_seven_belts(self):
        tube = nanotube(3, 3).graph
        assert tube.n == 2**4 * 3
        assert tube.num_edges == 23 * 3
        assert girth(tube) == 6

    def test_stage_one_equals_plain_product(self):
        rg = cycle_with_even_roots(4)
        direct = hierarchical_product(rg, path_graph(2)).graph
        tube = nanotube(4, 1).graph
        assert tube.n == direct.n
        assert tube.edges() == direct.edges()

    def test_domain_checks(self):
        with pytest.raises(GraphError):
            nanotube(1, 1)
        with pytest.raises(GraphError):
            nanotube(4, 0)

    def test_label_metadata(self):
        tube = nanotube(2, 1).graph
        assert tube.label(0) == "(0,0,0)"   # original copy, level 0, base 0
        assert tube.label(1) == "(1,1,0)"   # created at stage 1, top level


class TestPolyhexRow:
    def test_counts(self):
        for p, n, m in ((2, 14, 15), (3, 18, 20), (7, 34, 40)):
            g = polyhex_row(p).graph
            assert (g.n, g.num_edges) == (n, m)

    def test_pendants_at_both_ends_of_each_copy(self):
        g = polyhex_row(3).graph
        assert sorted(g.degree(v) for v in range(g.n)).count(1) == 4

    def test_hexagonal_faces(self):
        assert girth(polyhex_row(2).graph) == 6


class TestPolyhexStack:
    def test_three_rows_of_seven(self):
        g = polyhex_stack(7, 3).graph
        assert g.n == 68

    def test_levels_one_is_the_row(self):
        row = polyhex_row(2).graph
        stack = polyhex_stack(2, 1).graph
        assert stack.edges() == row.edges()

    def test_small_stack(self):
        assert polyhex_stack(2, 3).graph.n == 28

    def test_bad_levels(self):
        with pytest.raises(GraphError):
            polyhex_stack(2, 4)


class TestArmchair:
    def test_paper_size(self):
        g = armchair(7).graph
        assert g.n == 136

    def test_smallest(self):
        g = armchair(2).graph
        assert g.n == 56
        assert max(g.degree(v) for v in range(g.n)) == 3

    def test_explicit_default_roots_reproduce_default(self):
        # extract the default per-stage root sets by replaying the chain
        default = armchair(2).graph
        stages = []
        rg = path_with_even_roots(2)
        g = rg.graph
        meta = [(0, 0, b) for b in range(g.n)]
        levels = 1
        u = rg.roots
        for s in range(3):
            if s > 0:
                rim = levels - 1
                u = tuple(i for i, (_, lev, b) in enumerate(meta) if lev == rim and b % 2 == 0)
            stages.append(u)
            prod = hierarchical_product(RootedGraph(g, u), path_graph(2))
            new_meta = []
            for x in range(g.n):
                st, lev, b = meta[x]
                new_meta.append((st, lev, b))
                new_meta.append((s + 1, 2 * levels - 1 - lev, b))
            meta = new_meta
            levels *= 2
            g = prod.graph
        override = armchair(2, roots=stages).graph
        assert override.edges() == default.edges()


STACK_GRID = [(p, levels) for p in range(1, 5) for levels in (1, 3, 7)]


@pytest.mark.parametrize("family, grid, digest", [
    (nanotube, [(p, q) for p in range(2, 7) for q in range(1, 4)],
     "aa5ecee6875adf83850801ba10bc440b646aa9149548aa103e7492b3b94dcadd"),
    (polyhex_row, [(p,) for p in range(1, 8)],
     "f4237f9b29ca66cf2ca0bb3cc25790ee7292da2a4ce871b22457920d517b9bc5"),
    (polyhex_stack, STACK_GRID,
     "abf3b4743f6d02ef402330a4706d739d6cea1a7a8bdd56bbe562d727850e85b2"),
    (armchair, STACK_GRID + [(7, 3), (11, 3)],
     "0d59ca825e1d884d5eb2e59579a1daad0baa64d31dca093e3f675026dde7c8e7"),
], ids=["nanotube", "polyhex_row", "polyhex_stack", "armchair"])
def test_family_bytes_pinned(family, grid, digest):
    # Vertex numbering, edges and (stage, level, base) labels, as text: a
    # relabelling or renumbering that keeps every count changes the digest.
    text = "".join(graph_to_text(family(*args).graph) for args in grid)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


class TestExplicitRoots:
    def test_wrong_arity(self):
        with pytest.raises(BadRootSetError):
            nanotube(2, 2, roots=[(1, 3)])

    def test_empty_stage(self):
        with pytest.raises(BadRootSetError):
            nanotube(2, 1, roots=[()])

    def test_out_of_range(self):
        with pytest.raises(BadRootSetError):
            nanotube(2, 1, roots=[(9,)])

    def test_override_changes_structure(self):
        default = nanotube(2, 1).graph
        override = nanotube(2, 1, roots=[(0, 1, 2, 3)]).graph
        assert override.num_edges == 2 * 4 + 4  # Cartesian C_4 x K_2
        assert override.num_edges != default.num_edges


class TestBridgePathUniform:
    def test_single_copy(self):
        g = cycle_graph(4)
        out = bridge_path_uniform(g, 0, 1)
        assert out.edges() == g.edges()

    def test_three_c4(self):
        out = bridge_path_uniform(cycle_graph(4), 0, 3)
        assert out.n == 12 and out.num_edges == 14

    def test_dimension_multiplies(self):
        # t = dim_2(C_4(0)) = 2; three bridged copies give 3 * 2 = 6
        t = int(dim_k_rooted(RootedGraph(cycle_graph(4), (0,)), 2).value)
        out = bridge_path_uniform(cycle_graph(4), 0, 3)
        assert int(dim_k(out, 2).value) == 3 * t

    def test_invalid_d(self):
        with pytest.raises(GraphError):
            bridge_path_uniform(cycle_graph(4), 0, 0)

    @pytest.mark.parametrize("g, u, d", [
        (cycle_graph(4), 0, 1), (cycle_graph(4), 0, 3), (cycle_graph(5), 2, 4),
        (path_graph(4), 1, 2), (path_graph(3), 2, 5),
    ])
    def test_isomorphic_to_rooted_product(self, g, u, d):
        # Copy j, vertex x (index j * n + x) is the product pair (x, j).
        out = bridge_path_uniform(g, u, d)
        product = hierarchical_product(RootedGraph(g, (u,)), path_graph(d))
        n = g.n

        def pair_index(i):
            return product.index_of(i % n, i // n)

        mapped = {tuple(sorted((pair_index(a), pair_index(b)))) for a, b in out.edges()}
        assert out.n == product.graph.n
        assert mapped == set(product.graph.edges())


class TestTableOneFamilies:
    def test_f41_dimensions(self):
        g = nanotube(4, 1).graph
        assert [int(dim_k(g, k).value) for k in (2, 3, 4, 5)] == [4, 6, 8, 9]

    def test_gamma12_dimensions(self):
        g = polyhex_row(2).graph
        assert [int(dim_k(g, k).value) for k in (2, 3, 4, 5)] == [4, 5, 7, 8]

    def test_gamma13_dimensions(self):
        g = polyhex_row(3).graph
        assert [int(dim_k(g, k).value) for k in (2, 3, 4, 5)] == [4, 5, 7, 9]
