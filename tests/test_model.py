"""Property tests of the distinguisher model built from distance levels.

Every row mask is checked against a brute-force scan of the distance
matrix, for the full model and the rooted (sphere-pair) model, on random
connected graphs and on catalog graphs.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kmetric.catalog import connected_graphs
from kmetric.graphs import all_pairs_distances, build_graph
from kmetric.products import RootedGraph
from kmetric.solver import (
    INFINITE,
    build_instance_full,
    build_instance_rooted,
    max_k,
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


def test_builders_reject_k_below_one():
    g = build_graph(3, [(0, 1), (1, 2)])
    dm = all_pairs_distances(g)
    with pytest.raises(ValueError, match="k must be >= 1, got 0"):
        build_instance_full(dm, 0)
    with pytest.raises(ValueError, match="k must be >= 1, got 0"):
        build_instance_rooted(RootedGraph(g, (1,)), dm, 0)
