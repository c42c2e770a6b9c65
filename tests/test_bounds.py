import random

import pytest

from kmetric import bounds
from kmetric.bounds import (
    BoundReport,
    OutOfRangeError,
    cycle_rooted_formula,
    nanotube_bound,
    path_rooted_formula,
    polyhex_bound,
    splice_link_lower,
    theorem1_upper,
    theorem2_exact,
)
from kmetric.chemgen import cycle_with_even_roots, path_with_even_roots
from kmetric.graphs import (
    all_pairs_distances,
    build_graph,
    complete_graph,
    cycle_graph,
    path_graph,
)
from kmetric.products import RootedGraph, hierarchical_product, link, splice
from kmetric.solver import build_instance_full, dim_k, dim_k_rooted, max_k, oracle_solve
from kmetric.catalog import random_connected_graph


class TestClosedFormulas:
    def test_cycle_values(self):
        assert cycle_rooted_formula(4, 2) == 2
        assert cycle_rooted_formula(4, 5) == 6

    def test_cycle_out_of_range(self):
        with pytest.raises(OutOfRangeError):
            cycle_rooted_formula(4, 8)
        with pytest.raises(OutOfRangeError):
            cycle_rooted_formula(4, 0)
        with pytest.raises(OutOfRangeError):
            cycle_rooted_formula(1, 1)

    def test_path_values(self):
        assert path_rooted_formula(2, 4) == 4
        assert path_rooted_formula(2, 5) == 6

    def test_path_out_of_range(self):
        with pytest.raises(OutOfRangeError):
            path_rooted_formula(2, 7)
        with pytest.raises(OutOfRangeError):
            path_rooted_formula(0, 1)

    def test_nanotube_values(self):
        assert nanotube_bound(4, 1, 3) == 6
        assert nanotube_bound(7, 2, 7) == 28
        assert nanotube_bound(4, 1, 5) == 12  # p < k branch: 2(k+1)

    def test_nanotube_out_of_range(self):
        with pytest.raises(OutOfRangeError):
            nanotube_bound(4, 1, 8)
        with pytest.raises(OutOfRangeError):
            nanotube_bound(4, 0, 2)

    def test_polyhex_values(self):
        assert polyhex_bound(7, 9) == 18
        assert polyhex_bound(7, 10) == 22
        assert polyhex_bound(2, 3) == 6

    def test_polyhex_out_of_range(self):
        with pytest.raises(OutOfRangeError):
            polyhex_bound(2, 7)

    def test_structural_identities(self):
        for p in range(2, 9):
            for k in range(1, 2 * p):
                assert nanotube_bound(p, 1, k) == 2 * cycle_rooted_formula(p, k)
        for p in range(1, 8):
            for k in range(1, 2 * p + 3):
                assert polyhex_bound(p, k) == 2 * path_rooted_formula(p, k)


class TestFormulaVsSolver:
    def test_path_formula_matches_solver_everywhere(self):
        for p in range(1, 8):
            rg = path_with_even_roots(p)
            for k in range(1, 2 * p + 3):
                assert dim_k_rooted(rg, k).value == path_rooted_formula(p, k), (p, k)

    def test_cycle_formula_matches_solver_on_valid_range(self):
        # the source formula is exact precisely for even p and k <= 3p/2 - 1
        for p in (2, 4, 6, 8):
            rg = cycle_with_even_roots(p)
            for k in range(1, 3 * p // 2):
                assert dim_k_rooted(rg, k).value == cycle_rooted_formula(p, k), (p, k)

    def test_cycle_formula_known_divergences(self):
        # outside that range the closed form overclaims; the solver is
        # authoritative (analysis in cycle_rooted_formula's docstring).
        # Pin the counterexamples.
        rg6 = cycle_with_even_roots(3)
        assert dim_k_rooted(rg6, 1).value == 2
        assert cycle_rooted_formula(3, 1) == 1
        rg8 = cycle_with_even_roots(4)
        assert dim_k_rooted(rg8, 6).value == 8
        assert cycle_rooted_formula(4, 6) == 7
        assert dim_k_rooted(rg8, 7).is_infinite
        assert cycle_rooted_formula(4, 7) == 8

    def test_cycle_divergence_witness(self):
        # v_1 is equidistant from the sphere pair {v_3, v_5} around v_4, so
        # the claimed one-vertex basis cannot 1-distinguish it
        dm = all_pairs_distances(cycle_graph(6))
        assert dm[0, 2] == dm[0, 4] == 2


class TestTheorem1:
    def test_f41_tight_at_k2(self):
        rg = cycle_with_even_roots(4)
        rep = theorem1_upper(rg, path_graph(2), 2, compare_exact=True)
        assert rep.preconditions_met
        assert rep.value == 4 and rep.exact == 4 and rep.slack == 0

    def test_f41_k5_bound_is_twelve(self):
        # dim_5(C_8(U)) = 6, so the theorem bound is 12 (exact value is 9)
        rg = cycle_with_even_roots(4)
        rep = theorem1_upper(rg, path_graph(2), 5, compare_exact=True)
        assert rep.preconditions_met
        assert rep.value == 12 and rep.exact == 9 and rep.slack == 3

    def test_companion_hypothesis_ratio_is_always_one(self):
        # dim_k(G(U)) >= k whenever pairs exist, so ceil(k/t) = 1 and the
        # companion hypothesis requires only a plain metric basis of H,
        # which every connected graph on >= 2 vertices has (max_k >= 2)
        rng = random.Random(50)
        for _ in range(30):
            g = random_connected_graph(rng, rng.randint(2, 7))
            roots = tuple(sorted(rng.sample(range(g.n), rng.randint(1, g.n))))
            k = rng.randint(1, 3)
            t = dim_k_rooted(RootedGraph(g, roots), k).value
            if t in (0,) or t == float("inf"):
                continue
            assert t >= k
            h = random_connected_graph(rng, rng.randint(2, 4))
            assert max_k(all_pairs_distances(h)) >= 1
            rep = theorem1_upper(RootedGraph(g, roots), h, k)
            assert rep.preconditions_met

    def test_infinite_rooted_dim_reported(self):
        rg = RootedGraph(cycle_graph(8), (1, 3, 5, 7))
        rep = theorem1_upper(rg, path_graph(2), 7)
        assert not rep.preconditions_met

    def test_zero_rooted_dim_reported(self):
        rg = RootedGraph(path_graph(5), (0,))
        rep = theorem1_upper(rg, path_graph(2), 2)
        assert not rep.preconditions_met and "0" in rep.reason

    def test_one_vertex_second_factor_reported(self):
        # G(U) times K_1 is G itself, which the theorem does not cover.
        rep = theorem1_upper(RootedGraph(cycle_graph(4), (0,)), path_graph(1), 1,
                             compare_exact=True)
        assert not rep.preconditions_met and "n(H) < 2" in rep.reason
        assert rep.value is None and rep.exact is None

    def test_one_vertex_second_factor_solves_nothing(self, monkeypatch):
        def no_solve(*args):
            raise AssertionError("the report does not use a rooted solve")

        monkeypatch.setattr(bounds, "dim_k_rooted", no_solve)
        rep = theorem1_upper(RootedGraph(cycle_graph(4), (0,)), path_graph(1), 1)
        assert rep == BoundReport("upper", None, False, "second factor has one vertex (n(H) < 2)")
        with pytest.raises(ValueError, match="k must be >= 1"):
            theorem1_upper(RootedGraph(cycle_graph(4), (0,)), path_graph(1), 0)

    def test_single_root_upper_bounds_hold(self):
        # with one root the bound is valid (and in fact exact); random check
        rng = random.Random(100)
        done = 0
        while done < 40:
            g = random_connected_graph(rng, rng.randint(2, 6))
            h = random_connected_graph(rng, rng.randint(2, 4))
            if g.n * h.n > 21:
                continue
            k = rng.randint(1, 3)
            rep = theorem1_upper(RootedGraph(g, (rng.randrange(g.n),)), h, k,
                                 compare_exact=True)
            if not rep.preconditions_met or rep.exact is None:
                continue
            assert rep.exact <= rep.value
            done += 1

    def test_multi_root_counterexample_pinned(self):
        # the claimed inequality is NOT universally valid for |U| >= 2;
        # smallest witness, confirmed by exhaustive enumeration: C_4 with
        # antipodal roots, H = P_2, k = 1 (see theorem1_upper's docstring)
        rg = RootedGraph(cycle_graph(4), (0, 2))
        assert dim_k_rooted(rg, 1).value == 1
        rep = theorem1_upper(rg, path_graph(2), 1, compare_exact=True)
        assert rep.preconditions_met and rep.value == 2
        assert rep.exact == 3 and rep.slack == -1
        prod = hierarchical_product(rg, path_graph(2)).graph
        assert oracle_solve(build_instance_full(all_pairs_distances(prod), 1)).value == 3


class TestTheorem2:
    def test_c4_times_p3(self):
        rep = theorem2_exact(cycle_graph(4), 0, path_graph(3), 2, compare_exact=True)
        assert rep.preconditions_met
        assert rep.value == 6 and rep.exact == 6 and rep.slack == 0

    def test_rooted_path_hypothesis_reported(self):
        rep = theorem2_exact(path_graph(5), 0, path_graph(2), 2)
        assert not rep.preconditions_met
        assert "rooted path" in rep.reason

    def test_one_vertex_second_factor_reported(self):
        rep = theorem2_exact(cycle_graph(4), 0, path_graph(1), 1, compare_exact=True)
        assert rep.kind == "exact" and not rep.preconditions_met
        assert "n(H) < 2" in rep.reason and rep.value is None

    def test_interior_root_of_path_is_allowed(self):
        rep = theorem2_exact(path_graph(5), 2, path_graph(2), 1, compare_exact=True)
        assert rep.preconditions_met
        assert rep.exact == rep.value

    def test_bridge_path_corollary(self):
        # d copies of (C_4, 0): dim_k = d * dim_k(C_4(0)) when ceil(k/t) <= d-1
        t = int(dim_k_rooted(RootedGraph(cycle_graph(4), (0,)), 2).value)
        assert t == 2
        for d in (3, 4):
            rep = theorem2_exact(cycle_graph(4), 0, path_graph(d), 2, compare_exact=True)
            assert rep.preconditions_met and rep.exact == d * t

    def test_random_equalities(self):
        rng = random.Random(200)
        done = 0
        while done < 12:
            g = random_connected_graph(rng, rng.randint(3, 7))
            u = rng.randrange(g.n)
            from kmetric.graphs import is_rooted_path

            if is_rooted_path(g, u):
                continue
            h = random_connected_graph(rng, rng.randint(2, 3))
            if g.n * h.n > 21:
                continue
            k = rng.randint(1, 2)
            rep = theorem2_exact(g, u, h, k, compare_exact=True)
            if not rep.preconditions_met or rep.exact is None:
                continue
            assert rep.exact == rep.value
            done += 1


class TestSpliceLinkLower:
    def test_pendant_paths_slack_two(self):
        g, h = path_graph(5), path_graph(6)
        rep = splice_link_lower(g, 0, h, 0, 2, mode="splice", compare_exact=True)
        assert rep.preconditions_met
        assert rep.value == 0 and rep.exact == 2 and rep.slack == 2

    def test_c4_splice_c4(self):
        rep = splice_link_lower(cycle_graph(4), 0, cycle_graph(4), 0, 2,
                                mode="splice", compare_exact=True)
        assert rep.preconditions_met and rep.value == 4
        assert rep.exact == int(dim_k(splice(cycle_graph(4), 0, cycle_graph(4), 0), 2).value)
        assert rep.exact >= rep.value

    def test_strict_instance_with_paper_profile(self):
        # search-found analogue of the strict example: both rooted dims 2,
        # splice dimension 5
        g = build_graph(3, [(0, 1), (0, 2)])  # P_3 rooted at its center
        h = build_graph(4, [(0, 3), (1, 2), (1, 3), (2, 3)])  # paw, rooted at hub
        assert dim_k_rooted(RootedGraph(g, (0,)), 2).value == 2
        assert dim_k_rooted(RootedGraph(h, (3,)), 2).value == 2
        rep = splice_link_lower(g, 0, h, 3, 2, mode="splice", compare_exact=True)
        assert rep.value == 4 and rep.exact == 5 and rep.slack == 1

    def test_link_mode(self):
        rep = splice_link_lower(cycle_graph(4), 0, cycle_graph(4), 0, 2,
                                mode="link", compare_exact=True)
        assert rep.preconditions_met
        assert rep.exact == int(dim_k(link(cycle_graph(4), 0, cycle_graph(4), 0), 2).value)
        assert rep.exact >= rep.value

    def test_infinite_term_reported(self):
        # K_4 rooted anywhere: N_1 contains three mutually-adjacent vertices,
        # each pair has only 2 distinguishers, so demand 3 is infeasible
        rep = splice_link_lower(complete_graph(4), 0, path_graph(3), 0, 3)
        assert not rep.preconditions_met

    def test_bad_mode(self):
        with pytest.raises(ValueError):
            splice_link_lower(path_graph(2), 0, path_graph(2), 0, 1, mode="glue")

    def test_random_lower_bounds_hold(self):
        rng = random.Random(300)
        done = 0
        while done < 60:
            g = random_connected_graph(rng, rng.randint(2, 6))
            h = random_connected_graph(rng, rng.randint(2, 6))
            a, b = rng.randrange(g.n), rng.randrange(h.n)
            k = rng.randint(1, 2)
            mode = rng.choice(["splice", "link"])
            rep = splice_link_lower(g, a, h, b, k, mode=mode, compare_exact=True)
            if not rep.preconditions_met or rep.exact is None:
                continue
            assert rep.exact >= rep.value
            done += 1


class TestBoundReportJson:
    def test_round_trip_with_comparison(self):
        rg = cycle_with_even_roots(4)
        rep = theorem1_upper(rg, path_graph(2), 2, compare_exact=True)
        assert BoundReport.from_json_dict(rep.to_json_dict()) == rep

    def test_round_trip_unmet(self):
        rep = theorem2_exact(path_graph(4), 0, path_graph(2), 1)
        data = rep.to_json_dict()
        assert data["value"] is None and "exact" not in data
        assert BoundReport.from_json_dict(data) == rep
