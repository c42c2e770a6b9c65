import random
from itertools import combinations

import pytest

from kmetric import solver
from kmetric.graphs import (
    IndexOutOfRangeError,
    all_pairs_distances,
    build_graph,
    complete_graph,
    cycle_graph,
    path_graph,
)
from kmetric.products import RootedGraph
from kmetric.solver import (
    INFINITE,
    DimResult,
    MulticoverInstance,
    SamePairError,
    SizeLimitExceededError,
    SolveStats,
    _PairModel,
    _prune_dominated,
    _Search,
    build_instance_full,
    build_instance_rooted,
    dim_k,
    dim_k_rooted,
    distinguishers,
    is_k_generator,
    max_k,
    oracle_solve,
    representation,
    solve_exact,
    sphere_pairs,
)
from kmetric.catalog import connected_graphs, random_connected_graph
from kmetric.chemgen import armchair, nanotube, polyhex_row

# F_{4,2}, F_{4,3}, F_{5,2}, F_{6,2} and the armchair tubes p = 3 and 7
# (n = 32..136): family instances far beyond the exhaustive oracle.
FAMILY_GRAPHS = {
    "F42": lambda: nanotube(4, 2).graph,
    "F43": lambda: nanotube(4, 3).graph,
    "F52": lambda: nanotube(5, 2).graph,
    "F62": lambda: nanotube(6, 2).graph,
    "armchair3": lambda: armchair(3).graph,
    "armchair7": lambda: armchair(7).graph,
}
FAMILY_DIMS = {
    ("F42", 4): 8, ("F42", 5): 12, ("F42", 6): 14,
    ("F43", 1): 5, ("F43", 2): 8, ("F52", 2): 5, ("F62", 3): 6,
    ("armchair3", 2): 4, ("armchair7", 1): 2,
}


def _largest_deficit(search):
    """The demand the most deficient row still lacks."""
    return max(d for d, rows in enumerate(search.level) if rows)


def _max_deficit_cut(monkeypatch):
    """Cut nodes by the largest deficit of one row instead of the row-packing
    bound; the packing walk still runs in full to record the tightest row,
    and an uncompletable node is still cut by its INFINITE bound."""
    packing_bound = _Search.packing_bound

    def largest_deficit(self, room):
        if packing_bound(self, INFINITE) == INFINITE:
            return INFINITE
        return _largest_deficit(self)

    monkeypatch.setattr(_Search, "packing_bound", largest_deficit)


class TestRepresentation:
    def test_p3_first_row(self):
        dm = all_pairs_distances(path_graph(3))
        assert representation(dm, 0, (0, 1, 2)) == (0, 1, 2)

    def test_empty_landmarks(self):
        dm = all_pairs_distances(path_graph(3))
        assert representation(dm, 1, ()) == ()

    def test_c4(self):
        dm = all_pairs_distances(cycle_graph(4))
        assert representation(dm, 0, (2,)) == (2,)

    def test_vertex_out_of_range_rejected(self):
        # A negative index would wrap round to vertex n - 1.
        dm = all_pairs_distances(path_graph(3))
        with pytest.raises(ValueError, match="vertex -1 outside 0..2"):
            representation(dm, -1, (0,))
        with pytest.raises(ValueError, match="vertex 3 outside 0..2"):
            representation(dm, 0, (1, 3))


class TestDistinguishers:
    def test_p3_endpoints(self):
        dm = all_pairs_distances(path_graph(3))
        assert distinguishers(dm, 0, 2) == (0, 2)

    def test_p3_adjacent(self):
        dm = all_pairs_distances(path_graph(3))
        assert distinguishers(dm, 0, 1) == (0, 1, 2)

    def test_k4_only_the_pair(self):
        dm = all_pairs_distances(complete_graph(4))
        for u in range(4):
            for v in range(u + 1, 4):
                assert distinguishers(dm, u, v) == (u, v)

    def test_always_contains_both(self):
        rng = random.Random(2)
        for _ in range(10):
            g = random_connected_graph(rng, rng.randint(2, 9))
            dm = all_pairs_distances(g)
            for u in range(g.n):
                for v in range(u + 1, g.n):
                    d = distinguishers(dm, u, v)
                    assert u in d and v in d

    def test_same_pair_rejected(self):
        dm = all_pairs_distances(path_graph(3))
        with pytest.raises(SamePairError):
            distinguishers(dm, 1, 1)

    def test_vertex_out_of_range_rejected(self):
        # A negative index would wrap round to vertex n - 1.
        dm = all_pairs_distances(path_graph(3))
        with pytest.raises(IndexOutOfRangeError, match="vertex -1 outside 0..2"):
            distinguishers(dm, -1, 0)
        with pytest.raises(IndexOutOfRangeError, match="vertex 3 outside 0..2"):
            distinguishers(dm, 0, 3)


class TestMaxK:
    def test_p3(self):
        assert max_k(all_pairs_distances(path_graph(3))) == 2

    def test_k4(self):
        assert max_k(all_pairs_distances(complete_graph(4))) == 2

    def test_c4(self):
        assert max_k(all_pairs_distances(cycle_graph(4))) == 2

    def test_single_vertex_infinite_by_convention(self):
        assert max_k(all_pairs_distances(build_graph(1, []))) == INFINITE

    @pytest.mark.parametrize("p, levels, expected", [(11, 3, 53), (15, 3, 61), (7, 7, 73)])
    def test_wide_tubes_pinned(self, p, levels, expected):
        assert max_k(all_pairs_distances(armchair(p, levels).graph)) == expected


class TestIsKGenerator:
    def test_p3_paper_basis(self):
        dm = all_pairs_distances(path_graph(3))
        assert is_k_generator(dm, {0, 2}, 2)

    def test_everything_is_a_1_generator(self):
        rng = random.Random(4)
        for _ in range(10):
            g = random_connected_graph(rng, rng.randint(2, 8))
            dm = all_pairs_distances(g)
            assert is_k_generator(dm, set(range(g.n)), 1)

    def test_middle_vertex_fails(self):
        dm = all_pairs_distances(path_graph(3))
        assert not is_k_generator(dm, {1}, 1)

    def test_restricted_pair_family(self):
        dm = all_pairs_distances(path_graph(3))
        assert is_k_generator(dm, {1}, 1, pairs=[(0, 1)])
        assert not is_k_generator(dm, {1}, 1, pairs=[(0, 2)])

    def test_vertex_out_of_range_rejected(self):
        # Indexing alone would read vertex -1 as vertex 2 of P_3, a 1-generator.
        dm = all_pairs_distances(path_graph(3))
        for bad in (-1, 3, 5):
            with pytest.raises(ValueError, match=f"vertex {bad} outside 0..2"):
                is_k_generator(dm, [bad], 1)
        with pytest.raises(ValueError, match="vertex -1 outside 0..2"):
            is_k_generator(dm, {0}, 1, pairs=[(0, -1)])


class TestMulticoverInstance:
    def test_rows_in_sorted_tuples_out(self):
        inst = MulticoverInstance.from_masks(4, [0b0111, 0b1010], 2)
        assert (inst.universe_size, inst.masks, inst.demand) == (4, (0b0111, 0b1010), 2)
        assert inst.rows == ((0, 1, 2), (1, 3))

    def test_equal_when_model_and_demand_are_shared(self):
        dm = all_pairs_distances(cycle_graph(5))
        inst = build_instance_full(dm, 2)
        assert inst.model is build_instance_full(dm, 1).model
        assert inst == MulticoverInstance(inst.model, 2)
        assert hash(inst) == hash(MulticoverInstance(inst.model, 2))
        assert inst != build_instance_full(dm, 1)
        # Equal rows on a model of their own are another instance.
        assert inst != MulticoverInstance.from_masks(5, inst.masks, 2)

    def test_mask_outside_universe_rejected(self):
        # Every row is checked, not only the first or the last.
        for masks in ((0b100001,), (0b011, 0b1001, 0b110), (0b011, -1)):
            with pytest.raises(ValueError, match="outside universe 0..2"):
                MulticoverInstance.from_masks(3, masks, 1)

    def test_negative_demand_rejected(self):
        with pytest.raises(ValueError, match="demand must be >= 0, got -1"):
            MulticoverInstance.from_masks(3, (0b011,), -1)

    def test_non_integer_demand_rejected(self):
        # 2.0 used to fail deep in the search with a TypeError, and a
        # non-integer demand on an infeasible model read as infinite.
        for k in (2.0, 1.5):
            with pytest.raises(ValueError, match=f"demand must be an int, got {k}"):
                dim_k(path_graph(3), k)
        with pytest.raises(ValueError, match="demand must be an int, got 1.5"):
            MulticoverInstance.from_masks(3, (0b011,), 1.5)

    def test_undersized_row_infeasible(self):
        inst = MulticoverInstance.from_masks(3, (0b011,), 3)
        assert not inst.feasible
        assert solve_exact(inst).is_infinite and oracle_solve(inst).is_infinite
        two = MulticoverInstance.from_masks(3, (0b011,), 2)
        assert two.feasible and solve_exact(two).basis == oracle_solve(two).basis == (0, 1)


class TestBuildInstanceFull:
    def test_p3_rows(self):
        inst = build_instance_full(all_pairs_distances(path_graph(3)), 2)
        assert inst.universe_size == 3 and inst.demand == 2
        assert inst.rows == ((0, 1, 2), (0, 2), (0, 1, 2))

    def test_two_vertices(self):
        inst = build_instance_full(all_pairs_distances(path_graph(2)), 1)
        assert inst.rows == ((0, 1),)

    def test_c4_antipodal_rows(self):
        inst = build_instance_full(all_pairs_distances(cycle_graph(4)), 2)
        assert (0, 2) in inst.rows and (1, 3) in inst.rows


class TestBuildInstanceRooted:
    def test_c4_single_root(self):
        g = cycle_graph(4)
        rg = RootedGraph(g, (0,))
        dm = all_pairs_distances(g)
        assert sphere_pairs(rg, dm) == ((1, 3),)
        inst = build_instance_rooted(rg, dm, 2)
        assert inst.rows == ((1, 3),)

    def test_rooted_path_has_no_rows(self):
        for n in range(2, 11):
            g = path_graph(n)
            rg = RootedGraph(g, (0,))
            inst = build_instance_rooted(rg, all_pairs_distances(g), 2)
            assert inst.rows == ()

    def test_c8_paper_witness(self):
        g = cycle_graph(8)
        rg = RootedGraph(g, (1, 3, 5, 7))
        dm = all_pairs_distances(g)
        inst = build_instance_rooted(rg, dm, 2)
        assert is_k_generator(dm, (0, 2), 2, pairs=sphere_pairs(rg, dm))
        res = solve_exact(inst)
        assert res.value == 2 and res.basis == (0, 2)

    def test_pairs_deduplicated(self):
        g = cycle_graph(6)
        rg = RootedGraph(g, (1, 3, 5))
        dm = all_pairs_distances(g)
        pairs = sphere_pairs(rg, dm)
        assert len(pairs) == len(set(pairs))

    def test_distances_of_another_graph_rejected(self):
        # C_6's matrix used to give P_3 rooted at 0 a 6-vertex instance,
        # solved with basis (1,).
        rg = RootedGraph(path_graph(3), (0,))
        with pytest.raises(ValueError, match="distance matrix has 6 vertices, the graph has 3"):
            build_instance_rooted(rg, all_pairs_distances(cycle_graph(6)), 1)
        # sphere_pairs used to answer () for C_4 rooted at 0 with P_6's
        # matrix, and to raise IndexError for a root past a smaller matrix.
        c4 = RootedGraph(cycle_graph(4), (0,))
        with pytest.raises(ValueError, match="distance matrix has 6 vertices, the graph has 4"):
            sphere_pairs(c4, all_pairs_distances(path_graph(6)))
        with pytest.raises(ValueError, match="distance matrix has 3 vertices, the graph has 4"):
            sphere_pairs(RootedGraph(cycle_graph(4), (3,)), all_pairs_distances(path_graph(3)))


class TestSolveExact:
    def test_p3_worked_example(self):
        inst = build_instance_full(all_pairs_distances(path_graph(3)), 2)
        res = solve_exact(inst)
        assert res.value == 2 and res.basis == (0, 2) and res.optimal

    def test_k4_needs_everything(self):
        res = dim_k(complete_graph(4), 2)
        assert res.value == 4 and res.basis == (0, 1, 2, 3)

    def test_k4_demand_three_infinite(self):
        res = dim_k(complete_graph(4), 3)
        assert res.is_infinite and res.basis == ()

    def test_empty_rows_value_zero(self):
        res = solve_exact(MulticoverInstance.from_masks(5, (), 3))
        assert res.value == 0 and res.basis == ()

    def test_dominance_stats(self):
        inst = build_instance_full(all_pairs_distances(path_graph(3)), 2)
        res = solve_exact(inst)
        assert res.stats.rows == 1 and res.stats.pruned == 2

    def test_demand_zero(self):
        res = solve_exact(MulticoverInstance.from_masks(3, (0b011,), 0))
        assert res.value == 0

    # Node counts of the kernel, per instance.  The test ids carry the count
    # of the same search with the row-packing cut replaced by the largest
    # deficit of one row, which must give the same answer.
    F41_NODES = {2: 45, 3: 111, 4: 219, 5: 108}
    POLYHEX_NODES = {
        (2, 2): 42, (2, 3): 59, (2, 4): 68, (2, 5): 59,
        (3, 2): 50, (3, 3): 218, (3, 4): 168, (3, 5): 261,
    }

    @pytest.mark.parametrize("k, nodes", [(2, 81), (3, 213), (4, 585), (5, 372)])
    def test_f41_search_stats_pinned(self, k, nodes, monkeypatch):
        # The node count fixes the search order: the greedy incumbent, the
        # branching rule, the cut, the prune, the dominated columns and the
        # basis loop all change it, and --json reports it.
        g = nanotube(4, 1).graph
        res = dim_k(g, k)
        assert res.stats == SolveStats(nodes=self.F41_NODES[k], rows=42, pruned=78)
        _max_deficit_cut(monkeypatch)
        uncut = dim_k(g, k)
        assert (uncut.value, uncut.basis) == (res.value, res.basis)
        assert uncut.stats == SolveStats(nodes=nodes, rows=42, pruned=78)

    @pytest.mark.parametrize("p, k, nodes", [
        (2, 2, 92), (2, 3, 141), (2, 4, 282), (2, 5, 327),
        (3, 2, 138), (3, 3, 580), (3, 4, 752), (3, 5, 1047),
    ])
    def test_polyhex_search_stats_pinned(self, p, k, nodes, monkeypatch):
        rows, pruned = {2: (24, 67), 3: (33, 120)}[p]
        g = polyhex_row(p).graph
        res = dim_k(g, k)
        assert res.stats == SolveStats(nodes=self.POLYHEX_NODES[p, k], rows=rows, pruned=pruned)
        _max_deficit_cut(monkeypatch)
        uncut = dim_k(g, k)
        assert (uncut.value, uncut.basis) == (res.value, res.basis)
        assert uncut.stats == SolveStats(nodes=nodes, rows=rows, pruned=pruned)

    def test_armchair11_search_stats_pinned(self):
        # The wide-tubes benchmark's one search: 19,900 rows, 666 kept.
        res = dim_k(armchair(11).graph, 1)
        assert res.value == 2 and res.basis == (0, 192)
        assert res.stats == SolveStats(nodes=257, rows=666, pruned=19234)

    # Bases and search stats of the family solves: search trees over 38 to
    # 444 kept rows.
    FAMILY_SOLVES = {
        ("F42", 4): ((2, 3, 10, 11, 18, 19, 26, 27), SolveStats(2377, 136, 360)),
        ("F42", 5): ((0, 1, 2, 3, 4, 5, 8, 9, 10, 18, 26, 27), SolveStats(13926, 136, 360)),
        ("F42", 6): ((0, 1, 2, 3, 4, 5, 8, 9, 10, 11, 18, 19, 26, 27), SolveStats(8107, 136, 360)),
        ("F43", 1): ((0, 1, 2, 20, 21), SolveStats(659, 38, 1978)),
        ("F43", 2): ((4, 5, 20, 21, 36, 37, 52, 53), SolveStats(38508, 38, 1978)),
        ("F52", 2): ((0, 1, 2, 11, 35), SolveStats(3487, 305, 475)),
        ("F62", 3): ((0, 5, 13, 16, 25, 33), SolveStats(28751, 444, 684)),
        ("armchair3", 2): ((0, 1, 64, 65), SolveStats(131, 102, 2454)),
        ("armchair7", 1): ((0, 128), SolveStats(193, 414, 8766)),
    }

    @pytest.mark.parametrize("name, k", sorted(FAMILY_DIMS))
    def test_family_dims_pinned(self, name, k):
        # With the max-deficit cut alone F_{4,2} at k = 5 and 6 needs
        # millions of nodes; every value and basis is also checked by HiGHS
        # below.
        g = FAMILY_GRAPHS[name]()
        res = dim_k(g, k)
        assert res.value == FAMILY_DIMS[name, k]
        assert (res.basis, res.stats) == self.FAMILY_SOLVES[name, k]
        assert is_k_generator(all_pairs_distances(g), res.basis, k)

    def test_depth_beyond_recursion_limit(self):
        # Every row is {i, 1499}: the greedy takes {1499}, which is optimal
        # and, as no row avoids it, the basis.  From an incumbent of n + 1
        # the tightest-row dive includes 0, 1, ..., 1498 one below the
        # other before it reaches a cover: a search path 1,499 deep.
        n = 1500
        masks = [1 << i | 1 << 1499 for i in range(1499)]
        inst = MulticoverInstance.from_masks(n, masks, 1)
        res = solve_exact(inst)
        assert res.value == 1 and res.basis == (1499,)
        search = _Search(inst.model, 1)
        search.best_value = n + 1
        search.run(True)
        assert search.best_value == 1499 and search.best_mask == (1 << 1499) - 1


class TestPairModelCache:
    """Each matrix builds and prunes each pair family's rows once."""

    def test_root_sets_do_not_share_rows(self):
        g = cycle_graph(6)
        dm = all_pairs_distances(g)
        one, two = RootedGraph(g, (0,)), RootedGraph(g, (0, 1))
        rows_one = build_instance_rooted(one, dm, 1).masks
        rows_two = build_instance_rooted(two, dm, 1).masks
        assert rows_one != rows_two
        assert rows_one == build_instance_rooted(one, all_pairs_distances(g), 2).masks
        assert rows_two == build_instance_rooted(two, all_pairs_distances(g), 2).masks
        assert build_instance_full(dm, 1).masks == build_instance_full(all_pairs_distances(g), 1).masks
        assert dim_k_rooted(one, 2, dm) == dim_k_rooted(one, 2)
        assert dim_k_rooted(two, 2, dm) == dim_k_rooted(two, 2)

    def test_every_k_on_one_matrix_matches_fresh_matrices(self, catalog):
        # Ascending and shuffled k on one matrix each: the cached rows,
        # smallest size, pruned rows and dominated columns must give every
        # k what a matrix of its own gives, stats included, on the full
        # model and on rooted models at one root and at two.
        rng = random.Random(26)
        for g in catalog:
            roots = [(rng.randrange(g.n),)]
            if g.n >= 2:
                roots.append(tuple(sorted(rng.sample(range(g.n), 2))))
            rgs = [RootedGraph(g, r) for r in roots]
            top = max_k(all_pairs_distances(g))
            ks = list(range(1, (1 if top == INFINITE else top) + 2))
            fresh = {k: [dim_k(g, k)] + [dim_k_rooted(rg, k) for rg in rgs] for k in ks}
            for order in (ks, rng.sample(ks, len(ks))):
                dm = all_pairs_distances(g)
                for k in order:
                    assert [dim_k(g, k, dm)] + [dim_k_rooted(rg, k, dm) for rg in rgs] == fresh[k]

    def test_rows_built_and_pruned_once_per_family(self, monkeypatch):
        # The rows, the pruned rows, their columns and the dominated
        # columns are built once per family and matrix, whatever k and in
        # whatever order.
        names = ("_pair_masks", "_prune_dominated", "_dominated")
        calls = dict.fromkeys(names, 0)

        def counting(key, fn):
            def wrapped(*args):
                calls[key] += 1
                return fn(*args)
            return wrapped

        for name in names:
            monkeypatch.setattr(solver, name, counting(name, getattr(solver, name)))
        g = nanotube(4, 1).graph
        dm = all_pairs_distances(g)
        top = max_k(dm)
        for k in range(top + 1, 0, -1):
            dim_k(g, k, dm)
        for k in (2, top):
            dim_k(g, k, dm)
        assert calls == dict.fromkeys(names, 1)
        rg = RootedGraph(g, (0,))
        for k in (1, 2, 1, 3):
            dim_k_rooted(rg, k, dm)
        assert calls == dict.fromkeys(names, 2)

    def test_max_k_is_smallest_distinguisher_set(self, catalog):
        rng = random.Random(28)
        graphs = [g for g in catalog if g.n >= 2 and g.n <= 6]
        graphs += [random_connected_graph(rng, rng.randint(2, 12)) for _ in range(60)]
        for g in graphs:
            dm = all_pairs_distances(g)
            smallest = min(len(distinguishers(dm, u, v)) for u, v in combinations(range(g.n), 2))
            assert max_k(dm) == smallest

    def test_hand_built_instance_prunes_its_own_rows(self):
        masks = (0b0011, 0b0111, 0b1100, 0b1110, 0b0101)
        inst = MulticoverInstance.from_masks(4, masks, 1)
        res = solve_exact(inst)
        assert (res.value, res.basis) == (2, (0, 2))
        assert res.stats.rows == 3 and res.stats.pruned == 2
        assert solve_exact(inst) == res
        two = solve_exact(MulticoverInstance(inst.model, 2))
        assert (two.value, two.stats.rows, two.stats.pruned) == (4, 3, 2)


def _search_state(search):
    return search.free, list(search.level)


def test_search_state_restored_after_each_phase():
    # The kernel restores its saved root state after the greedy incumbent,
    # after the proof search and after the basis loop: the free vertices
    # and every row's level are back at their values at the root.
    rng = random.Random(26)
    for _ in range(200):
        n = rng.randint(3, 12)
        k = rng.randint(1, 3)
        rows = [rng.sample(range(n), rng.randint(k, n)) for _ in range(rng.randint(1, 15))]
        search = _Search(_PairModel(n, tuple(sum(1 << v for v in row) for row in rows)), k)
        root = _search_state(search)
        search.greedy()
        assert _search_state(search) == root
        search.run(False)
        assert _search_state(search) == root
        optimum = search.best_value
        search.lex_smallest()
        assert _search_state(search) == root
        assert search.best_value == search.best_mask.bit_count() == optimum


def _deficits(search):
    """Per row, the level its bit sits at: the demand it still lacks."""
    return [next(d for d, rows in enumerate(search.level) if rows >> r & 1)
            for r in range(len(search.masks))]


def _min_completion(masks, deficit, free):
    """Fewest free vertices that cover every row's deficit, by brute force."""
    free_vs = [v for v in range(free.bit_length()) if free >> v & 1]
    for size in range(len(free_vs) + 1):
        for combo in combinations(free_vs, size):
            chosen = sum(1 << v for v in combo)
            if all((m & chosen).bit_count() >= d for m, d in zip(masks, deficit)):
                return size
    return INFINITE


def test_packing_bound_is_sound():
    # The cut is exact only if the row-packing bound never exceeds the
    # fewest vertices that still complete the node: check it at the root
    # against the oracle and, after random moves, against brute force.
    rng = random.Random(7)
    checked = 0
    while checked < 300:
        n = rng.randint(3, 12)
        k = rng.randint(1, 3)
        rows = [rng.sample(range(n), rng.randint(k, n)) for _ in range(rng.randint(1, 15))]
        model = _PairModel(n, tuple(sum(1 << v for v in row) for row in rows))
        search = _Search(model, k)
        masks = search.masks
        root = search.packing_bound(n + 1)
        assert _largest_deficit(search) <= root <= oracle_solve(MulticoverInstance(model, k)).value
        moved = rng.sample(range(n), rng.randint(1, n - 1))
        for v in moved:
            if rng.random() < 0.5:
                search._include(v)
            else:
                search.free &= ~(1 << v)
        assert search.free == (1 << n) - 1 - sum(1 << v for v in moved)
        deficit = _deficits(search)
        if not _largest_deficit(search):
            continue
        # The bound is infinite exactly when some row cannot be completed.
        feasible = all((m & search.free).bit_count() >= d for m, d in zip(masks, deficit))
        bound = search.packing_bound(INFINITE)
        assert (bound == INFINITE) == (not feasible)
        if not feasible:
            continue
        assert _largest_deficit(search) <= bound
        assert bound <= _min_completion(masks, deficit, search.free)
        checked += 1


@pytest.mark.parametrize("k", [1, 2])
def test_packing_bound_is_zero_with_no_deficient_row(k):
    # With every vertex of P_4 included no row is deficient: nothing is left
    # to include, and no row is recorded as the tightest.
    search = _Search(build_instance_full(all_pairs_distances(path_graph(4)), k).model, k)
    for v in range(4):
        search._include(v)
    assert search.level[0] == search.all_rows
    assert search.packing_bound(INFINITE) == 0
    assert search.tight == 0


def test_run_from_uncompletable_node_stops_at_once():
    # With no incumbent to cut against, only the node test's INFINITE bound
    # stops a node whose free vertices cannot complete some row: run counts
    # that one node and leaves the incumbent and the state as they were.
    rng = random.Random(13)
    checked = 0
    while checked < 100:
        n = rng.randint(3, 12)
        k = rng.randint(1, 3)
        rows = [rng.sample(range(n), rng.randint(k, n)) for _ in range(rng.randint(1, 15))]
        search = _Search(_PairModel(n, tuple(sum(1 << v for v in row) for row in rows)), k)
        for v in rng.sample(range(n), rng.randint(1, n - 1)):
            search.free &= ~(1 << v)
        if all((m & search.free).bit_count() >= k for m in search.masks):
            continue
        search.best_value, search.best_mask = INFINITE, 0b101
        state = _search_state(search)
        search.run(False)
        assert search.nodes == 1
        assert (search.best_value, search.best_mask) == (INFINITE, 0b101)
        assert _search_state(search) == state
        checked += 1


def test_tightest_is_lowest_free_vertex_of_least_slack_row():
    # The search branches on the lowest free vertex of the row of least
    # slack |row & free| - deficit, ties to the higher deficit and then the
    # lower row, whose free members the packing bound records in ``tight``
    # when it walks every deficient row.
    rng = random.Random(9)
    checked = 0
    while checked < 200:
        n = rng.randint(3, 12)
        k = rng.randint(1, 3)
        rows = [rng.sample(range(n), rng.randint(k, n)) for _ in range(rng.randint(1, 15))]
        search = _Search(_PairModel(n, tuple(sum(1 << v for v in row) for row in rows)), k)
        for v in rng.sample(range(n), rng.randint(0, n - 1)):
            search._include(v)
        if not _largest_deficit(search):
            continue
        search.packing_bound(n + 1)
        free, deficit = search.free, _deficits(search)
        _, _, r = min(((m & free).bit_count() - d, -d, r)
                      for r, (m, d) in enumerate(zip(search.masks, deficit)) if d)
        assert search.tight == search.masks[r] & free
        checked += 1


def test_dominated_lists_hold_subset_columns():
    rng = random.Random(11)
    for _ in range(200):
        rows = rng.randint(0, 8)
        col_of = [rng.getrandbits(rows) for _ in range(rng.randint(1, 10))]
        expected = [sum(1 << w for w, cw in enumerate(col_of) if not cw & ~cu) for cu in col_of]
        assert solver._dominated(col_of) == expected


def _twin_and_nested_masks(rng, k):
    """Random rows over vertices whose columns include copies (twins) and
    subsets (nested) of other vertices' columns, in shuffled vertex order."""
    n_rows = rng.randint(1, 12)
    cols = [rng.getrandbits(n_rows) for _ in range(rng.randint(3, 7))]
    for _ in range(rng.randint(1, 12 - len(cols))):
        col = rng.choice(cols)
        cols.append(col if rng.random() < 0.5 else col & rng.getrandbits(n_rows))
    rng.shuffle(cols)
    masks = [sum(1 << v for v, col in enumerate(cols) if col >> r & 1) for r in range(n_rows)]
    return len(cols), [m for m in masks if m.bit_count() >= k]


def test_dominance_is_exact_on_twin_and_nested_columns():
    # Excluding u also excludes every free vertex whose column is a subset
    # of u's.  Value and basis must still be the oracle's, the
    # lexicographically smallest optimum.
    rng = random.Random(13)
    dominating = 0
    for _ in range(400):
        k = rng.randint(1, 3)
        n, masks = _twin_and_nested_masks(rng, k)
        if not masks:
            continue
        inst = MulticoverInstance.from_masks(n, masks, k)
        res, ref = solve_exact(inst), oracle_solve(inst)
        assert (res.value, res.basis) == (ref.value, ref.basis)
        dominating += any(inst.model.pruned()[3])
    assert dominating > 300


def _highs_lex_smallest(masks, n, k):
    """The optimum and the lexicographically smallest optimal cover of the
    rows ``masks`` at demand k, by HiGHS alone.

    One MILP gives the optimum and a first witness.  Then x_0, x_1, ... are
    fixed in turn: x_v = 1 when v is in the witness, or when a MILP with
    x_v = 1, the earlier fixings as bounds and a cardinality row at the
    optimum finds a cover, which becomes the witness; x_v = 0 otherwise.
    """
    import numpy as np
    from scipy.optimize import Bounds, LinearConstraint, milp

    rows = LinearConstraint(np.array([[m >> v & 1 for v in range(n)] for m in masks]), lb=k)
    ones = np.ones(n)

    def cover(lower, upper, size=None):
        if size is None:
            res = milp(ones, constraints=rows, integrality=ones, bounds=Bounds(lower, upper))
        else:
            size_row = LinearConstraint(ones, lb=size, ub=size)
            res = milp(np.zeros(n), constraints=[rows, size_row], integrality=ones,
                       bounds=Bounds(lower, upper))
        assert res.status in (0, 2), res.message  # optimal or infeasible
        return {v for v in range(n) if res.x[v] > 0.5} if res.status == 0 else None

    lower, upper = np.zeros(n), np.ones(n)
    witness = cover(lower, upper)
    optimum = len(witness)
    for v in range(n):
        if lower.sum() == optimum:
            break
        lower[v] = 1
        if v not in witness:
            found = cover(lower, upper, optimum)
            if found is None:
                lower[v] = upper[v] = 0
            else:
                witness = found
    return optimum, tuple(v for v in range(n) if lower[v])


@pytest.mark.parametrize("name, k", sorted(FAMILY_DIMS))
def test_family_dims_match_highs(name, k):
    # An independent MILP solver on the paper's model, at family sizes far
    # beyond the exhaustive oracle: the same optimum and the same
    # lexicographically smallest basis.  Dropping dominated rows leaves
    # the covers unchanged, and the basis is checked on every pair.
    pytest.importorskip("scipy")
    g = FAMILY_GRAPHS[name]()
    dm = all_pairs_distances(g)
    masks, _, _ = _prune_dominated(build_instance_full(dm, k).masks, dm.n)
    optimum, basis = _highs_lex_smallest(masks, dm.n, k)
    assert is_k_generator(dm, basis, k)
    assert (optimum, basis) == (FAMILY_DIMS[name, k], TestSolveExact.FAMILY_SOLVES[name, k][0])


def test_random_bases_match_highs():
    # Sparse random connected graphs with 20 to 40 vertices, full at k = 1
    # and at max_k and rooted at one to three roots at k = 2: value and
    # basis equal HiGHS's lexicographically smallest optimum.
    pytest.importorskip("scipy")
    rng = random.Random(31)
    for _ in range(8):
        g = random_connected_graph(rng, rng.randint(20, 40), 0.05)
        dm = all_pairs_distances(g)
        rg = RootedGraph(g, tuple(sorted(rng.sample(range(g.n), rng.randint(1, 3)))))
        instances = [build_instance_full(dm, 1), build_instance_full(dm, max_k(dm)),
                     build_instance_rooted(rg, dm, 2)]
        for inst in instances:
            if not inst.feasible or not inst.masks:
                continue
            res = solve_exact(inst)
            masks, _, _ = _prune_dominated(inst.masks, dm.n)
            assert (res.value, res.basis) == _highs_lex_smallest(masks, dm.n, inst.demand)


class TestDimK:
    def test_paths_dim2_is_two(self):
        for n in range(2, 11):
            assert dim_k(path_graph(n), 2).value == 2

    def test_c4(self):
        assert dim_k(cycle_graph(4), 2).value == 4

    def test_invalid_k(self):
        with pytest.raises(ValueError):
            dim_k(path_graph(3), 0)

    def test_single_vertex_zero(self):
        assert dim_k(build_graph(1, []), 1).value == 0

    def test_distances_of_another_graph_rejected(self):
        # C_6's matrix used to answer for P_3: value 2, basis (0, 1).
        with pytest.raises(ValueError, match="distance matrix has 6 vertices, the graph has 3"):
            dim_k(path_graph(3), 1, all_pairs_distances(cycle_graph(6)))


class TestDimKRooted:
    def test_c8_even_roots(self):
        rg = RootedGraph(cycle_graph(8), (1, 3, 5, 7))
        assert dim_k_rooted(rg, 2).value == 2
        assert dim_k_rooted(rg, 5).value == 6

    def test_p7_two_roots(self):
        rg = RootedGraph(path_graph(7), (1, 3))
        assert dim_k_rooted(rg, 2).value == 2

    def test_rooted_path_is_zero(self):
        for n in range(2, 11):
            rg = RootedGraph(path_graph(n), (0,))
            assert dim_k_rooted(rg, 2).value == 0

    def test_distances_of_another_graph_rejected(self):
        rg = RootedGraph(path_graph(3), (0,))
        with pytest.raises(ValueError, match="distance matrix has 6 vertices, the graph has 3"):
            dim_k_rooted(rg, 1, all_pairs_distances(cycle_graph(6)))


class TestOracle:
    def test_p3(self):
        res = oracle_solve(build_instance_full(all_pairs_distances(path_graph(3)), 2))
        assert res.value == 2 and res.basis == (0, 2)

    def test_undersized_row_infinite(self):
        res = oracle_solve(MulticoverInstance.from_masks(4, (0b0001,), 2))
        assert res.is_infinite

    def test_c4_rooted(self):
        rg = RootedGraph(cycle_graph(4), (0,))
        res = oracle_solve(build_instance_rooted(rg, all_pairs_distances(rg.graph), 2))
        assert res.value == 2 and res.basis == (1, 3)

    def test_size_limit(self):
        inst = build_instance_full(all_pairs_distances(path_graph(17)), 1)
        with pytest.raises(SizeLimitExceededError):
            oracle_solve(inst)
        assert oracle_solve(inst, limit=17).value == 1


class TestSolverProperties:
    def test_oracle_equivalence_catalog_sample(self, catalog):
        rng = random.Random(6)
        sample = [g for g in catalog if 2 <= g.n <= 6]
        sample += rng.sample([g for g in catalog if g.n == 7], 60)
        for g in sample:
            dm = all_pairs_distances(g)
            mk = int(max_k(dm))
            for k in range(1, mk + 1):
                inst = build_instance_full(dm, k)
                assert solve_exact(inst).value == oracle_solve(inst).value

    def test_oracle_equivalence_random(self):
        rng = random.Random(8)
        for _ in range(120):
            g = random_connected_graph(rng, rng.randint(2, 8))
            dm = all_pairs_distances(g)
            mk = int(max_k(dm))
            for k in range(1, mk + 1):
                inst = build_instance_full(dm, k)
                assert solve_exact(inst).value == oracle_solve(inst).value

    def test_rooted_oracle_equivalence_random(self):
        rng = random.Random(10)
        for _ in range(80):
            g = random_connected_graph(rng, rng.randint(2, 8))
            roots = tuple(sorted(rng.sample(range(g.n), rng.randint(1, g.n))))
            rg = RootedGraph(g, roots)
            k = rng.randint(1, 3)
            a = dim_k_rooted(rg, k)
            b = oracle_solve(build_instance_rooted(rg, all_pairs_distances(g), k))
            assert a.value == b.value

    def test_monotone_in_k(self):
        rng = random.Random(12)
        for _ in range(40):
            g = random_connected_graph(rng, rng.randint(2, 8))
            dm = all_pairs_distances(g)
            mk = int(max_k(dm))
            values = [dim_k(g, k, dm).value for k in range(1, mk + 1)]
            assert all(a <= b for a, b in zip(values, values[1:]))
            assert all(values[k - 1] >= k for k in range(1, mk + 1))

    def test_superset_closure(self):
        rng = random.Random(14)
        for _ in range(30):
            g = random_connected_graph(rng, rng.randint(2, 8))
            dm = all_pairs_distances(g)
            k = rng.randint(1, 2)
            res = dim_k(g, k, dm)
            if res.is_infinite:
                continue
            superset = set(res.basis) | {rng.randrange(g.n)}
            assert is_k_generator(dm, superset, k)
            if k > 1:
                assert is_k_generator(dm, res.basis, k - 1)

    def test_rooted_at_most_full(self):
        rng = random.Random(16)
        for _ in range(40):
            g = random_connected_graph(rng, rng.randint(2, 8))
            roots = tuple(sorted(rng.sample(range(g.n), rng.randint(1, g.n))))
            k = rng.randint(1, 3)
            full = dim_k(g, k)
            if full.is_infinite:
                continue
            assert dim_k_rooted(RootedGraph(g, roots), k).value <= full.value

    def test_feasibility_boundary(self):
        rng = random.Random(18)
        for _ in range(40):
            g = random_connected_graph(rng, rng.randint(2, 9))
            mk = int(max_k(all_pairs_distances(g)))
            assert not dim_k(g, mk).is_infinite
            assert dim_k(g, mk + 1).is_infinite

    def test_basis_satisfies_its_instance(self):
        rng = random.Random(20)
        for _ in range(40):
            g = random_connected_graph(rng, rng.randint(2, 9))
            dm = all_pairs_distances(g)
            k = rng.randint(1, 2)
            inst = build_instance_full(dm, k)
            res = solve_exact(inst)
            if not res.is_infinite:
                assert is_k_generator(dm, res.basis, k)

    def test_deterministic_across_edge_orderings(self):
        rng = random.Random(22)
        for _ in range(20):
            g = random_connected_graph(rng, rng.randint(3, 8))
            edges = g.edges()
            rng.shuffle(edges)
            g2 = build_graph(g.n, [(v, u) for u, v in edges])
            k = rng.randint(1, 2)
            r1, r2 = dim_k(g, k), dim_k(g2, k)
            assert r1.value == r2.value and r1.basis == r2.basis

    def test_basis_is_lexicographically_smallest(self):
        # the oracle scans cardinality-then-lex, so its witness is the
        # lex-smallest optimum; the solver must pick the same set
        rng = random.Random(24)
        for _ in range(60):
            g = random_connected_graph(rng, rng.randint(2, 8))
            dm = all_pairs_distances(g)
            k = rng.randint(1, 2)
            inst = build_instance_full(dm, k)
            a, b = solve_exact(inst), oracle_solve(inst)
            assert a.value == b.value
            if not a.is_infinite:
                assert a.basis == b.basis


class TestDimResultJson:
    def test_round_trip_finite(self):
        res = dim_k(path_graph(3), 2)
        assert DimResult.from_json_dict(res.to_json_dict()) == res

    def test_round_trip_infinite(self):
        res = dim_k(complete_graph(4), 3)
        data = res.to_json_dict()
        assert data["infinite"] and data["dim"] is None
        assert DimResult.from_json_dict(data) == res

    def test_one_based_basis(self):
        res = dim_k(path_graph(3), 2)
        assert res.to_json_dict()["basis"] == [1, 3]
