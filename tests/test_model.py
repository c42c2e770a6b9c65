"""Property tests of the distinguisher model built from bit planes of the distances.

Every row mask is checked against a brute-force scan of the distance
matrix, for the full model and the rooted (sphere-pair) model, on random
connected graphs, on catalog graphs and on graphs whose diameter needs
more than one byte.  The dominance prune and the columns it builds are
checked against pairwise and per-bit references.  The models read only the
bit planes, so building and solving them must leave the distance matrix's
table of hop counts unbuilt.
"""

import random
from itertools import combinations
from operator import ne

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kmetric.catalog import connected_graphs
from kmetric.chemgen import armchair, nanotube
from kmetric.graphs import all_pairs_distances, bfs_distances, build_graph, cycle_graph, path_graph
from kmetric.products import RootedGraph, hierarchical_distance, hierarchical_product
from kmetric.solver import (
    INFINITE,
    _prune_dominated,
    build_instance_full,
    build_instance_rooted,
    dim_k,
    dim_k_rooted,
    distinguishers,
    is_k_generator,
    max_k,
    representation,
    sphere_pairs,
)

CATALOG_SAMPLE = connected_graphs()[::5]


@st.composite
def random_connected(draw, max_n=12):
    n = draw(st.integers(1, max_n))
    tree = [(draw(st.integers(0, v - 1)), v) for v in range(1, n)]
    vertex = st.integers(0, n - 1)
    extra = draw(st.lists(st.tuples(vertex, vertex), max_size=2 * n))
    return build_graph(n, tree + [(a, b) for a, b in extra if a != b])


graphs = random_connected() | st.sampled_from(CATALOG_SAMPLE)


def brute_row(dm, u, v):
    return tuple(w for w in range(dm.n) if dm[w, u] != dm[w, v])


def check_rows(inst, dm, pairs):
    assert len(inst.masks) == len(pairs)
    for mask, (u, v) in zip(inst.masks, pairs):
        assert mask == sum(1 << w for w in brute_row(dm, u, v))
        assert mask >> u & 1 and mask >> v & 1
    assert inst.rows == tuple(brute_row(dm, u, v) for u, v in pairs)


@settings(max_examples=150, derandomize=True, deadline=None)
@given(g=graphs, k=st.integers(1, 3))
def test_full_model_matches_brute_force(g, k):
    dm = all_pairs_distances(g)
    inst = build_instance_full(dm, k)
    assert (inst.universe_size, inst.demand) == (g.n, k)
    pairs = [(u, v) for u in range(g.n) for v in range(u + 1, g.n)]
    check_rows(inst, dm, pairs)
    expected = min(m.bit_count() for m in inst.masks) if pairs else INFINITE
    assert max_k(dm) == expected


@settings(max_examples=150, derandomize=True, deadline=None)
@given(data=st.data(), g=graphs, k=st.integers(1, 3))
def test_rooted_model_matches_brute_force(data, g, k):
    roots = data.draw(st.sets(st.integers(0, g.n - 1), min_size=1))
    rg = RootedGraph(g, tuple(sorted(roots)))
    dm = all_pairs_distances(g)
    inst = build_instance_rooted(rg, dm, k)
    assert (inst.universe_size, inst.demand) == (g.n, k)
    pairs = {
        (x, y)
        for u in rg.roots
        for x in range(g.n)
        for y in range(x + 1, g.n)
        if dm[u, x] == dm[u, y] >= 1
    }
    expected = tuple(sorted(pairs))
    assert sphere_pairs(rg, dm) == expected
    check_rows(inst, dm, expected)


def reference_sphere_pairs(g, roots):
    pairs = set()
    for u in roots:
        row = bfs_distances(g, u)
        pairs.update((x, y) for x, y in combinations(range(g.n), 2) if row[x] == row[y] >= 1)
    return tuple(sorted(pairs))


def test_sphere_pairs_match_bfs_rows_on_catalog():
    for g in connected_graphs():
        dm = all_pairs_distances(g)
        for roots in ((0,), (0, g.n - 1)) if g.n > 1 else ((0,),):
            assert sphere_pairs(RootedGraph(g, roots), dm) == reference_sphere_pairs(g, roots)
        assert "d" not in vars(dm)


def test_models_never_build_the_distance_table():
    # The models read the planes alone, so max_k and full and rooted solves
    # leave the n-by-n table of hop counts unbuilt.
    g = armchair(7).graph
    dm = all_pairs_distances(g)
    top = max_k(dm)
    assert dim_k(g, 1, dm).value == 2
    assert dim_k(g, top + 1, dm).value == INFINITE
    rg = RootedGraph(g, (0, 5))
    assert dim_k_rooted(rg, 2, dm).basis
    assert "d" not in vars(dm)
    # The table built afterwards still reads the graph's distances.
    rows = [bfs_distances(g, u) for u in range(g.n)]
    rng = random.Random(7)
    for _ in range(200):
        i, j = rng.randrange(g.n), rng.randrange(g.n)
        assert dm[i, j] == rows[i][j]
    assert all(dm.row(u) == tuple(rows[u]) for u in range(g.n))
    landmarks = (3, 40, 77)
    assert representation(dm, 100, landmarks) == tuple(rows[s][100] for s in landmarks)
    basis = dim_k(g, 1, dm).basis
    assert is_k_generator(dm, basis, 1)
    assert not is_k_generator(dm, basis[:1], 1)
    h = path_graph(3)
    product = hierarchical_product(rg, h)
    dm_h = all_pairs_distances(h)
    for i in rng.sample(range(product.graph.n), 5):
        from_i = bfs_distances(product.graph, i)
        for j in range(product.graph.n):
            assert hierarchical_distance(rg, dm, dm_h, product.pair_of(i), product.pair_of(j)) == from_i[j]


def test_builders_reject_k_below_one():
    g = build_graph(3, [(0, 1), (1, 2)])
    dm = all_pairs_distances(g)
    with pytest.raises(ValueError, match="k must be >= 1, got 0"):
        build_instance_full(dm, 0)
    with pytest.raises(ValueError, match="k must be >= 1, got 0"):
        build_instance_rooted(RootedGraph(g, (1,)), dm, 0)


def test_path_rows_exact_past_one_byte():
    # Distances at least 256 apart agree in their low byte, and only a pair
    # at distance >= 256 can hold two such distances (triangle inequality).
    dm = all_pairs_distances(path_graph(300))
    far = [(u, v) for u, v in combinations(range(300), 2) if v - u >= 256]
    near = [(u, v) for u, v in combinations(range(300), 2) if v - u < 256]
    assert len(far) == 990
    for u, v in far + random.Random(30).sample(near, 500):
        assert distinguishers(dm, u, v) == brute_row(dm, u, v)
    pairs = combinations(range(300), 2)
    assert max_k(dm) == min(sum(map(ne, dm.d[u], dm.d[v])) for u, v in pairs)


def test_cycle_rooted_rows_exact_past_one_byte():
    g = cycle_graph(600)
    dm = all_pairs_distances(g)
    rg = RootedGraph(g, (0,))
    check_rows(build_instance_rooted(rg, dm, 1), dm, sphere_pairs(rg, dm))
    # A rotation takes every pair of the cycle to a pair through vertex 0.
    assert max_k(dm) == min(sum(map(ne, dm.d[0], dm.d[v])) for v in range(1, 600))


def reference_prune(masks):
    """The pairwise prune: rows by (size, value), each tested against every kept row."""
    order = sorted(range(len(masks)), key=lambda i: (masks[i].bit_count(), masks[i]))
    kept, dropped = [], 0
    for i in order:
        m = masks[i]
        if any(km & m == km for km in kept):
            dropped += 1
        else:
            kept.append(m)
    return tuple(kept), dropped


def reference_columns(masks, n):
    return [sum(1 << r for r, m in enumerate(masks) if m >> v & 1) for v in range(n)]


def test_prune_and_columns_match_references():
    cases = []
    for g in connected_graphs() + [armchair(3).graph]:
        dm = all_pairs_distances(g)
        for inst in (build_instance_full(dm, 1), build_instance_rooted(RootedGraph(g, (0,)), dm, 1)):
            cases.append((inst.masks, g.n))
    # Repeated rows, an empty row, and vertex 4 in no row.
    cases += [((0b0110, 0b0011, 0b0110, 0b1111, 0b0011), 5), ((0b1010, 0, 0b0001, 0), 5), ((), 3)]
    cases += [
        ((0b111,), 3),  # a full row alone: no non-member, no kept row to test
        # Full rows after two rows they hold, both holding vertex 0: only
        # the slot of every kept row finds them.
        ((0b1111, 0b0011, 0b1111, 0b1001), 4),
        ((0,), 2),  # an empty row alone
        ((0b11, 0, 0b10), 2),  # an empty row is inside every row
        ((0b101, 0b101, 0b101), 3),  # a row repeated, its first copy kept
        # 0b0110 misses vertex 0 first and 0b0111 misses vertex 3 first, so
        # 0b0111 finds its subset in the list of vertex 3.
        ((0b0111, 0b0110, 0b1000), 4),
    ]
    # Full models of up to 179,700 rows: armchair(7), F_{4,3} and C_600,
    # whose diameter of 300 spans two bytes of bit planes.
    for g in (armchair(7).graph, nanotube(4, 3).graph, cycle_graph(600)):
        cases.append((build_instance_full(all_pairs_distances(g), 1).masks, g.n))
    for masks, n in cases:
        kept, dropped, columns = _prune_dominated(masks, n)
        assert (kept, dropped) == reference_prune(masks)
        assert columns == reference_columns(kept, n)
