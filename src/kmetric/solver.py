"""Exact k-metric dimension via 0-1 set multicover.

A vertex w distinguishes the pair (u, v) when d(w,u) != d(w,v).  A set S is
a k-metric generator for a pair family when every pair has at least k
distinguishers inside S; the k-metric dimension is the minimum size of such
a set, or infinite when some pair has fewer than k distinguishers in the
whole graph.  Minimizing |S| subject to per-pair coverage constraints is a
set-multicover problem with uniform demand k, solved here by a purpose-built
branch-and-bound over vertex inclusion.

Every row of the model is an int bitset over the vertices, built from
distance levels: with ``E[u][d]`` the bitset of vertices at distance d from
u (``DistanceMatrix.levels``, computed once per matrix), the vertices that
do not distinguish (u, v) are the OR over d of ``E[u][d] & E[v][d]``, and
the row is the complement of that.  ``max_k``, both model builders, the
solver and the oracle all work on these masks; tuple rows are made only
when a caller reads ``MulticoverInstance.rows``.

One depth-first kernel does all the search and takes its branching rule as
an argument: max-gain (the vertex in the most deficient rows) builds the
greedy incumbent and proves the optimum, then lowest-index finds the
lexicographically smallest basis of that size.  The kernel keeps per-row
deficits and slack, a histogram of deficit levels and row bitsets for the
gains, and updates them in place, so a branching step touches only the rows
of the branched vertex.  It walks the tree with an explicit stack, so the
search depth, which can reach the number of vertices, does not depend on
Python's recursion limit.

A node is cut by two lower bounds on the vertices it still needs.  The
largest deficit of a single row is the cheap one.  The row-packing bound
takes the deficient rows by falling deficit and adds each row's deficit less
its members already claimed by the rows taken before it.  That sum is the
Lagrangian of the model's LP relaxation, sum_r d_r y_r - sum_v (sum_{r ∋ v}
y_r - 1)^+ over the free vertices v, at the 0/1 multiplier y of the rows
that added something.  Every y >= 0 gives a lower bound, and this one is a
sum of integers, so no rounding error can cut a node that holds an optimal
cover.

The solver is sequential and fully deterministic: the optimum value and the
reported basis (the lexicographically smallest optimal vertex set) depend
only on the instance.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass, field
from itertools import combinations, compress, count

from .graphs import DistanceMatrix, Graph, all_pairs_distances
from .products import RootedGraph

INFINITE = math.inf

ORACLE_SIZE_LIMIT = 16


class SamePairError(ValueError):
    """distinguishers() was asked about a pair (u, u)."""


class SizeLimitExceededError(ValueError):
    """The exhaustive oracle was given a universe beyond its size limit."""


@dataclass(frozen=True)
class SolveStats:
    nodes: int = 0
    rows: int = 0
    pruned: int = 0


@dataclass(frozen=True, init=False)
class MulticoverInstance:
    """The coverage model: one binary variable per vertex, one row per pair.

    Each row holds the distinguishers of one vertex pair; a feasible 0-1
    assignment must hit every row at least ``demand`` times.  The objective
    is the number of chosen vertices.

    ``masks`` is the canonical form: row r is the int whose bit v is set
    when vertex v is in the row.  ``MulticoverInstance(n, rows, k)`` takes
    rows as vertex tuples (a repeated vertex counts once), ``from_masks``
    takes the masks themselves, and ``rows`` gives the sorted tuples back,
    made from the masks each time it is read.
    """

    universe_size: int
    masks: tuple[int, ...]
    demand: int

    def __init__(self, universe_size: int, rows, demand: int):
        masks = []
        for row in rows:
            if min(row, default=0) < 0:
                raise ValueError(f"row {row} outside universe 0..{universe_size - 1}")
            masks.append(_mask_of(row))
        self._set(universe_size, tuple(masks), demand)

    @classmethod
    def from_masks(cls, universe_size: int, masks, demand: int) -> "MulticoverInstance":
        inst = object.__new__(cls)
        inst._set(universe_size, tuple(masks), demand)
        return inst

    def _set(self, universe_size: int, masks: tuple[int, ...], demand: int) -> None:
        if demand < 0:
            raise ValueError(f"demand must be >= 0, got {demand}")
        if masks and (min(masks) < 0 or max(masks) >> universe_size):
            bad = next(m for m in masks if m < 0 or m >> universe_size)
            row = _mask_to_tuple(bad) if bad > 0 else f"mask {bad}"
            raise ValueError(f"row {row} outside universe 0..{universe_size - 1}")
        object.__setattr__(self, "universe_size", universe_size)
        object.__setattr__(self, "masks", masks)
        object.__setattr__(self, "demand", demand)

    @property
    def rows(self) -> tuple[tuple[int, ...], ...]:
        return tuple(map(_mask_to_tuple, self.masks))

    @property
    def feasible(self) -> bool:
        return all(m.bit_count() >= self.demand for m in self.masks)

    def satisfied_by(self, selected) -> bool:
        chosen = _mask_of(selected)
        return all((m & chosen).bit_count() >= self.demand for m in self.masks)


@dataclass(frozen=True)
class DimResult:
    """Outcome of an exact solve: optimum value, witness basis, statistics.

    value is INFINITE when some pair cannot be distinguished k times by the
    whole vertex set; the basis is empty then, and also when there are no
    pairs to distinguish (value 0).
    """

    k: int
    value: int | float
    basis: tuple[int, ...]
    optimal: bool = True
    stats: SolveStats = field(default_factory=SolveStats)

    @property
    def is_infinite(self) -> bool:
        return self.value == INFINITE

    def to_json_dict(self) -> dict:
        return {
            "k": self.k,
            "dim": None if self.is_infinite else int(self.value),
            "infinite": self.is_infinite,
            "basis": [v + 1 for v in self.basis],
            "optimal": self.optimal,
            "stats": {
                "nodes": self.stats.nodes,
                "rows": self.stats.rows,
                "pruned": self.stats.pruned,
            },
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "DimResult":
        stats = data.get("stats", {})
        return cls(
            k=data["k"],
            value=INFINITE if data["infinite"] else data["dim"],
            basis=tuple(v - 1 for v in data["basis"]),
            optimal=data["optimal"],
            stats=SolveStats(
                nodes=stats.get("nodes", 0),
                rows=stats.get("rows", 0),
                pruned=stats.get("pruned", 0),
            ),
        )


def representation(dm: DistanceMatrix, v: int, landmarks) -> tuple[int, ...]:
    """Distance vector from v to each landmark, in landmark order."""
    return tuple(dm[s, v] for s in landmarks)


def distinguishers(dm: DistanceMatrix, u: int, v: int) -> tuple[int, ...]:
    """Vertices w with d(w,u) != d(w,v); always contains u and v."""
    if u == v:
        raise SamePairError(f"pair ({u},{v}) is not a pair")
    return _mask_to_tuple(_pair_mask((1 << dm.n) - 1, dm.levels[u], dm.levels[v]))


def _pair_mask(full: int, eu: tuple[int, ...], ev: tuple[int, ...]) -> int:
    """Distinguisher bitset of (u, v) from their distance levels.

    The levels of one vertex are disjoint, so the per-level intersections
    are too, and their sum is their OR: the vertices equidistant from u
    and v.
    """
    return full ^ sum(map(int.__and__, eu, ev))


def _full_masks(dm: DistanceMatrix) -> Iterator[int]:
    """Distinguisher bitsets of all pairs (i, j), i < j, in lexicographic order."""
    levels = dm.levels
    full = (1 << dm.n) - 1
    return (
        _pair_mask(full, eu, ev)
        for i, eu in enumerate(levels)
        for ev in levels[i + 1:]
    )


def max_k(dm: DistanceMatrix) -> int | float:
    """Largest k admitting a k-metric generator.

    Equals the minimum distinguisher-set size over all vertex pairs.  For
    n < 2 there are no pairs and every k works vacuously, reported as
    INFINITE by convention.
    """
    if dm.n < 2:
        return INFINITE
    return min(map(int.bit_count, _full_masks(dm)))


def is_k_generator(dm: DistanceMatrix, selected, k: int, pairs=None) -> bool:
    """Does ``selected`` distinguish every pair at least k times?

    ``pairs`` defaults to all unordered vertex pairs.
    """
    chosen = set(selected)
    if pairs is None:
        pairs = ((u, v) for u in range(dm.n) for v in range(u + 1, dm.n))
    for u, v in pairs:
        du = dm.row(u)
        dv = dm.row(v)
        hits = sum(1 for w in chosen if du[w] != dv[w])
        if hits < k:
            return False
    return True


def build_instance_full(dm: DistanceMatrix, k: int) -> MulticoverInstance:
    """One row per unordered vertex pair, in (i, j) lexicographic order."""
    return MulticoverInstance.from_masks(dm.n, _full_masks(dm), k)


def sphere_pairs(rg: RootedGraph, dm: DistanceMatrix) -> tuple[tuple[int, int], ...]:
    """Deduplicated pairs lying on a common distance sphere around a root.

    A sphere is the set of vertices at one exact distance >= 1 from a root.
    """
    pairs: set[tuple[int, int]] = set()
    for u in rg.roots:
        by_radius: dict[int, list[int]] = {}
        for w in range(dm.n):
            ell = dm[u, w]
            if ell >= 1:
                by_radius.setdefault(ell, []).append(w)
        for members in by_radius.values():
            pairs.update(combinations(members, 2))
    return tuple(sorted(pairs))


def build_instance_rooted(rg: RootedGraph, dm: DistanceMatrix, k: int) -> MulticoverInstance:
    """Rows for sphere pairs only: the rooted dimension's coverage model.

    Minimizing one set that k-distinguishes every sphere pair is equivalent
    to minimizing the union of per-sphere generators, since each per-sphere
    generator may be taken equal to the union.
    """
    levels = dm.levels
    full = (1 << dm.n) - 1
    masks = [_pair_mask(full, levels[x], levels[y]) for x, y in sphere_pairs(rg, dm)]
    return MulticoverInstance.from_masks(dm.n, masks, k)


def _prune_dominated(masks: list[int]) -> tuple[list[int], int]:
    """Drop rows that are supersets of other rows (implied constraints)."""
    order = sorted(range(len(masks)), key=lambda i: (masks[i].bit_count(), masks[i]))
    kept: list[int] = []
    dropped = 0
    for i in order:
        m = masks[i]
        if any(km & m == km for km in kept):
            dropped += 1
        else:
            kept.append(m)
    return kept, dropped


class _Search:
    """Depth-first branch-and-bound over vertex inclusion, updated in place.

    One kernel, ``run``, serves both solve phases; they differ only in the
    branching rule passed in.  ``max_gain`` picks the vertex lying in the
    most deficient rows (smallest index on ties) and drives phase 1 and the
    greedy incumbent.  ``lowest_index`` picks the smallest available vertex
    of some deficient row and drives phase 2.

    The state of the current node is kept incrementally, and a move touches
    only the rows of the branched vertex:

    - ``deficit[r]``: the demand row r still lacks on the include path;
    - ``slack[r]``: ``|row r & avail| - deficit[r]``.  Including a vertex
      leaves it unchanged and excluding one lowers it by 1; the node is
      infeasible exactly when some slack is negative, and ``negative``
      counts those rows;
    - ``hist[d]``: the number of rows with deficit d, for d = 1..k, so the
      largest deficit is the highest non-empty level; ``hist[0]`` counts
      the rows with no deficit left;
    - ``deficient``: the bitset of rows with deficit > 0, and ``cols[v]``:
      the bitset of rows containing v while v is available, 0 once it is
      included or excluded.  The gain of v, the number of deficient rows
      containing it, is ``(cols[v] & deficient).bit_count()``;
    - ``free``: the bitset of vertices neither included nor excluded, for
      the row-packing bound.

    Each move has an exact inverse, so leaving a node restores every piece
    of state.  ``run`` walks the tree with an explicit stack of branched
    vertices instead of recursion, so the depth (up to n) is not bounded by
    Python's recursion limit.
    """

    def __init__(self, masks: list[int], k: int, n: int):
        self.k = k
        self.masks = masks
        self.free = (1 << n) - 1
        self.rows_of = [[] for _ in range(n)]
        for r, m in enumerate(masks):
            for v in _mask_to_tuple(m):
                self.rows_of[v].append(r)
        self.col_of = [sum(1 << r for r in rows) for rows in self.rows_of]
        self.cols = list(self.col_of)
        self.deficient = (1 << len(masks)) - 1
        self.deficit = [k] * len(masks)
        self.slack = [m.bit_count() - k for m in masks]
        self.negative = 0
        self.hist = [0] * (k + 1)
        self.hist[k] = len(masks)
        self.nodes = 0
        self.best_value = 0
        self.best_mask = 0

    def _max_def(self) -> int:
        hist = self.hist
        d = self.k
        while d and not hist[d]:
            d -= 1
        return d

    def _include(self, v: int) -> None:
        deficit, hist = self.deficit, self.hist
        self.cols[v] = 0
        self.free ^= 1 << v
        done = 0
        for r in self.rows_of[v]:
            d = deficit[r]
            deficit[r] = d - 1
            if d > 0:
                hist[d] -= 1
                hist[d - 1] += 1
                if d == 1:
                    done |= 1 << r
        self.deficient ^= done

    def _undo_include(self, v: int) -> None:
        deficit, hist = self.deficit, self.hist
        undone = 0
        for r in self.rows_of[v]:
            d = deficit[r] + 1
            deficit[r] = d
            if d > 0:
                hist[d - 1] -= 1
                hist[d] += 1
                if d == 1:
                    undone |= 1 << r
        self.deficient |= undone
        self.cols[v] = self.col_of[v]
        self.free |= 1 << v

    def _exclude(self, v: int) -> None:
        slack = self.slack
        self.cols[v] = 0
        self.free ^= 1 << v
        short = 0
        for r in self.rows_of[v]:
            s = slack[r]
            slack[r] = s - 1
            if not s:
                short += 1
        self.negative += short

    def _undo_exclude(self, v: int) -> None:
        slack = self.slack
        mended = 0
        for r in self.rows_of[v]:
            s = slack[r] + 1
            slack[r] = s
            if not s:
                mended += 1
        self.negative -= mended
        self.cols[v] = self.col_of[v]
        self.free |= 1 << v

    def packing_bound(self, room: int) -> int:
        """Row-packing lower bound on the vertices still to include.

        Rows are taken by falling deficit; a row adds its deficit minus its
        members already used by the rows taken before it, when that is
        positive, and its free members then count as used.  Stops once the
        bound reaches ``room``.
        """
        deficit, masks, free = self.deficit, self.masks, self.free
        bound = 0
        used = 0
        # A stable sort keeps row order within a deficit level.  Sorting the
        # bits straight into a list, not through a tuple, matters: tuples of
        # every length would fill the interpreter's tuple free lists, which
        # raised peak RSS by 2.5 MB over the catalog's 6,700 solves.
        for r in sorted(_bits(self.deficient), key=deficit.__getitem__, reverse=True):
            m = masks[r]
            gain = deficit[r] - (m & used).bit_count()
            if gain > 0:
                bound += gain
                if bound >= room:
                    break
                used |= m & free
        return bound

    def gains(self) -> list[int]:
        """Per vertex, the deficient rows containing it; 0 when unavailable."""
        deficient = self.deficient
        return [(c & deficient).bit_count() for c in self.cols]

    def max_gain(self) -> int:
        gain = self.gains()
        return gain.index(max(gain))

    def lowest_index(self) -> int:
        deficient = self.deficient
        for v, c in enumerate(self.cols):
            if c & deficient:
                return v
        raise AssertionError("a feasible deficient node has a useful vertex")

    def greedy(self) -> None:
        """Incumbent: include the max-gain vertex until no row is deficient.

        Each deficient row of a feasible instance keeps a free vertex, so a
        vertex of zero gain is never chosen.
        """
        picked = []
        while self._max_def():
            v = self.max_gain()
            self._include(v)
            picked.append(v)
        for v in reversed(picked):
            self._undo_include(v)
        self.best_value = len(picked)
        self.best_mask = sum(1 << v for v in picked)

    def run(self, branch, first_only: bool) -> None:
        """Search the whole tree from the root, include branch first.

        Covers smaller than ``best_value`` replace the incumbent; with
        ``first_only`` the first such cover ends the search.  A node is cut
        when some row cannot be completed from the available vertices, or
        when its largest deficit or its row-packing bound cannot fit under
        the incumbent.  Both cuts drop only nodes that hold no cover smaller
        than ``best_value``, so phase 2, run with the optimum plus one,
        still meets the lexicographically smallest optimal cover first.
        ``path`` holds the branched vertices from the root: v where v was
        included, ~v where it was excluded.
        """
        path: list[int] = []
        count = 0
        chosen = 0
        while True:
            self.nodes += 1
            if not self.negative:
                max_def = self._max_def()
                if not max_def:
                    if count < self.best_value:
                        self.best_value = count
                        self.best_mask = chosen
                    if first_only:
                        break
                elif max_def < (room := self.best_value - count) and self.packing_bound(room) < room:
                    v = branch()
                    self._include(v)
                    path.append(v)
                    count += 1
                    chosen |= 1 << v
                    continue
            # Backtrack: undo the excludes above the deepest include, then
            # turn that include into its exclude branch.
            while path and path[-1] < 0:
                self._undo_exclude(~path.pop())
            if not path:
                return
            v = path[-1]
            self._undo_include(v)
            self._exclude(v)
            path[-1] = ~v
            count -= 1
            chosen ^= 1 << v
        for v in reversed(path):
            if v < 0:
                self._undo_exclude(~v)
            else:
                self._undo_include(v)


_BIT_BYTES = bytes.maketrans(b"01", b"\x00\x01")


def _bits(mask: int) -> Iterator[int]:
    """The set bits of a non-negative mask, ascending."""
    # bin() spells the bits high to low; reversed and turned into 0/1 bytes
    # they select their own indices.
    return compress(count(), bin(mask)[:1:-1].encode().translate(_BIT_BYTES))


def _mask_to_tuple(mask: int) -> tuple[int, ...]:
    """The set bits of a non-negative mask as an ascending tuple."""
    return tuple(_bits(mask))


def _mask_of(vertices) -> int:
    mask = 0
    for v in vertices:
        mask |= 1 << v
    return mask


def solve_exact(inst: MulticoverInstance) -> DimResult:
    """Exact minimum of the multicover objective with a witness basis.

    Infeasibility (a row smaller than the demand) yields value INFINITE; an
    empty row set yields value 0.  Otherwise a two-phase branch-and-bound
    runs: the first phase proves the optimal value starting from a greedy
    incumbent, cutting nodes with the largest row deficit and the exact
    row-packing (integer Lagrangian) bound; the second extracts the
    lexicographically smallest basis of that value under the same cuts.
    """
    n, k, masks = inst.universe_size, inst.demand, inst.masks
    if k == 0 or not masks:
        return DimResult(k, 0, (), True, SolveStats(rows=len(masks)))
    if not inst.feasible:
        return DimResult(k, INFINITE, (), True, SolveStats(rows=len(masks)))
    kept, dropped = _prune_dominated(masks)
    stats_rows = len(kept)

    search = _Search(kept, k, n)
    search.greedy()
    search.run(search.max_gain, False)

    # Phase 2: an incumbent of optimum + 1 lets only covers of the optimal
    # size through.  Ascending-index branching with the include branch first
    # visits equal-size vertex sets in lexicographic order, so the first
    # cover found is the lex-smallest optimal basis.
    optimum = search.best_value
    search.best_value = optimum + 1
    search.run(search.lowest_index, True)
    assert search.best_value == optimum, "phase 2 must rediscover the optimal value"
    return DimResult(
        k,
        optimum,
        _mask_to_tuple(search.best_mask),
        True,
        SolveStats(nodes=search.nodes, rows=stats_rows, pruned=dropped),
    )


def dim_k(g: Graph, k: int, dm: DistanceMatrix | None = None) -> DimResult:
    """k-metric dimension of g; finite exactly when k <= max_k(g)."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if dm is None:
        dm = all_pairs_distances(g)
    return solve_exact(build_instance_full(dm, k))


def dim_k_rooted(rg: RootedGraph, k: int, dm: DistanceMatrix | None = None) -> DimResult:
    """Rooted dimension: k-distinguish only pairs on common root spheres."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if dm is None:
        dm = all_pairs_distances(rg.graph)
    return solve_exact(build_instance_rooted(rg, dm, k))


def oracle_solve(inst: MulticoverInstance, limit: int = ORACLE_SIZE_LIMIT) -> DimResult:
    """Exhaustive reference solver: subsets by increasing cardinality,
    lexicographic within a cardinality, first feasible wins."""
    n, k, masks = inst.universe_size, inst.demand, inst.masks
    if n > limit:
        raise SizeLimitExceededError(f"universe {n} exceeds oracle limit {limit}")
    if k == 0 or not masks:
        return DimResult(k, 0, (), True, SolveStats(rows=len(masks)))
    if not inst.feasible:
        return DimResult(k, INFINITE, (), True, SolveStats(rows=len(masks)))
    for size in range(k, n + 1):
        for combo in combinations(range(n), size):
            chosen = sum(1 << v for v in combo)
            if all((m & chosen).bit_count() >= k for m in masks):
                return DimResult(k, size, combo, True, SolveStats(rows=len(masks)))
    raise AssertionError("feasible instance must have a cover")


def oracle_dim(g: Graph, k: int, limit: int = ORACLE_SIZE_LIMIT) -> DimResult:
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    dm = all_pairs_distances(g)
    return oracle_solve(build_instance_full(dm, k), limit)


def oracle_dim_rooted(rg: RootedGraph, k: int, limit: int = ORACLE_SIZE_LIMIT) -> DimResult:
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    dm = all_pairs_distances(rg.graph)
    return oracle_solve(build_instance_rooted(rg, dm, k), limit)
