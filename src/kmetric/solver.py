"""Exact k-metric dimension via 0-1 set multicover.

A vertex w distinguishes the pair (u, v) when d(w,u) != d(w,v).  A set S is
a k-metric generator for a pair family when every pair has at least k
distinguishers inside S; the k-metric dimension is the minimum size of such
a set, or infinite when some pair has fewer than k distinguishers in the
whole graph.  Minimizing |S| subject to per-pair coverage constraints is a
set-multicover problem with uniform demand k, solved here by a purpose-built
branch-and-bound over vertex inclusion.

A model is a pair family turned into rows.  The full family is every pair
i < j; the rooted family, which the hierarchical-product theorems need,
keeps the pairs on a common distance sphere around a root
(``sphere_pairs``).  One builder, ``_pair_masks``, makes the row of every
pair as an int bitset over the vertices, from bit planes of the distances:
with ``P_b[u]`` the vertices w for which bit b of d(u, w) is set
(``DistanceMatrix.planes``, the form the distances come in),
``P_b[u] ^ P_b[v]`` holds the vertices whose distances from u and v differ
in bit b, so the row of (u, v) is the OR of those XORs over the diameter's
bits.
``max_k``, ``distinguishers`` and both model builders call it, and the
solver and the oracle read the same instance.  No model reads the table of
hop counts (``DistanceMatrix.d``): the rooted family spells only its roots'
rows from the planes, so neither family builds the n-by-n table.

The rows of a family depend on the distances alone, not on k, and so does
the dominance prune: a row that is a superset of another is implied at
every demand.  The prune tests each row only against the kept rows that
miss its lowest non-member, since any kept subset of the row misses it
too.  The prune builds the columns of the kept rows (per vertex, the
bitset of the kept rows holding it) in the same pass.  A ``_PairModel``
holds all of this: the rows, their smallest size and, built on the first
solve that searches, the pruned rows, their columns and the dominated
columns (per vertex u, the vertices whose columns are subsets of u's, u
among them).  Each matrix builds each family's model once, in
``DistanceMatrix.pair_models`` keyed by ``None`` for all pairs or by the
root set, and an instance is that model and a demand.  ``max_k`` is the
smallest row size, an instance is infeasible exactly when its demand
exceeds it, and every k solved on one matrix searches the same pruned
rows and columns.

One depth-first kernel, ``run``, does all the search.  It branches on the
lowest free vertex of the deficient row with the fewest free members to
spare, the "fail-first" rule of Haralick and Elliott, 1980.  A greedy pass
(the vertex in the most deficient rows, until every row is covered) gives
the first incumbent, and ``run`` then proves the optimum.  The kernel keeps
the rows as bitsets per deficit level, ``level[d]`` holding the rows that
still lack d of their demand, so an include is k mask operations and an
exclude one.  Before each include the kernel pushes the levels and the
free vertices onto an explicit stack, and backtracking restores them
whole, so no move needs an inverse, and the search depth, which can reach
the number of vertices, does not depend on Python's recursion limit.

Backtracking into "exclude u" also excludes every free vertex w that u
dominates (Beasley's column dominance, EJOR 1987).  A cover holding w but
not u stays a cover of the same size with w swapped for u, and that cover
lies in the include-u subtree, already searched under an incumbent no
smaller than the current one; so no cover smaller than the incumbent is
lost.

Each node has one test, the row-packing bound on the vertices it still
needs.  Every y >= 0 gives the Lagrangian of the model's LP relaxation,
sum_r d_r y_r - sum_v (sum_{r ∋ v} y_r - 1)^+ over the free vertices v, as
a lower bound, and one walk over the levels from k down evaluates it at
two multipliers.  The unit packing puts y_r = 1 on each row whose deficit
exceeds its members claimed by the rows taken before it, and adds the
difference; its first row adds the largest deficit of any row.  The
one-third packing puts y_r = 1/3 on each row whose deficit exceeds its
members already in three taken rows, so a vertex sits in three taken rows
free of charge, and the differences sum to three times its Lagrangian.
Both sums are integers, so no rounding error can cut a node that holds an
optimal cover; the bound is the larger of the unit sum and the one-third
sum divided by 3, rounded up.  A row walked with fewer free members than
its deficit cannot be completed, and the bound is then infinite.  A node
is cut when its bound does not fit under the incumbent.

The reported basis is the lexicographically smallest optimal cover, found
by fixing x_0, x_1, ... in turn (``_Search.lex_smallest``): each vertex is
included exactly when some optimal cover agrees with the fixings made so
far and holds it.  The loop decides that from a witness cover when the
vertex is in it, and otherwise from one ``run`` that stops at its first
cover.

The solver is sequential and fully deterministic: the optimum value and the
reported basis (the lexicographically smallest optimal vertex set) depend
only on the instance.
"""

from __future__ import annotations

import math
from collections.abc import Iterator, Sequence
from dataclasses import asdict, dataclass, field, fields
from functools import partial, reduce
from itertools import chain, combinations, compress, count, starmap
from operator import or_, xor

from .graphs import _BIT, DistanceMatrix, Graph, IndexOutOfRangeError, all_pairs_distances
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


@dataclass(frozen=True)
class MulticoverInstance:
    """The coverage model: one binary variable per vertex, one row per pair.

    Each row holds the distinguishers of one vertex pair; a feasible 0-1
    assignment must hit every row at least ``demand`` times.  The objective
    is the number of chosen vertices.

    An instance is a demand on a ``_PairModel``, which holds the rows and
    everything else that does not depend on the demand; two instances are
    equal when they share a model and a demand.  The rows are
    int bitsets, ``masks``: bit v of row r is set when vertex v is in the
    row.  ``from_masks`` builds an instance on a model of its own, and
    ``rows`` gives the rows back as sorted tuples, made each time it is read.
    """

    model: _PairModel
    demand: int

    def __post_init__(self):
        if not isinstance(self.demand, int):
            raise ValueError(f"demand must be an int, got {self.demand!r}")
        if self.demand < 0:
            raise ValueError(f"demand must be >= 0, got {self.demand}")

    @classmethod
    def from_masks(cls, universe_size: int, masks, demand: int) -> "MulticoverInstance":
        masks = tuple(masks)
        if masks and (min(masks) < 0 or max(masks) >> universe_size):
            bad = next(m for m in masks if m < 0 or m >> universe_size)
            row = _mask_to_tuple(bad) if bad > 0 else f"mask {bad}"
            raise ValueError(f"row {row} outside universe 0..{universe_size - 1}")
        return cls(_PairModel(universe_size, masks), demand)

    @property
    def universe_size(self) -> int:
        return self.model.n

    @property
    def masks(self) -> tuple[int, ...]:
        return self.model.masks

    @property
    def rows(self) -> tuple[tuple[int, ...], ...]:
        return tuple(map(_mask_to_tuple, self.masks))

    @property
    def feasible(self) -> bool:
        return self.model.min_size >= self.demand


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
            "stats": asdict(self.stats),
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "DimResult":
        # A record without stats, or without some of them, reads the
        # missing ones as the SolveStats defaults.
        stats = data.get("stats", {})
        return cls(
            k=data["k"],
            value=INFINITE if data["infinite"] else data["dim"],
            basis=tuple(v - 1 for v in data["basis"]),
            optimal=data["optimal"],
            stats=SolveStats(**{f.name: stats[f.name] for f in fields(SolveStats) if f.name in stats}),
        )


def _check_vertices(dm: DistanceMatrix, vertices) -> None:
    """Reject the first vertex outside 0..n-1, which indexing would wrap."""
    for v in vertices:
        if not 0 <= v < dm.n:
            raise IndexOutOfRangeError(f"vertex {v} outside 0..{dm.n - 1}")


def representation(dm: DistanceMatrix, v: int, landmarks) -> tuple[int, ...]:
    """Distance vector from v to each landmark, in landmark order."""
    landmarks = tuple(landmarks)
    _check_vertices(dm, (v, *landmarks))
    return tuple(dm[s, v] for s in landmarks)


def distinguishers(dm: DistanceMatrix, u: int, v: int) -> tuple[int, ...]:
    """Vertices w with d(w,u) != d(w,v); always contains u and v."""
    _check_vertices(dm, (u, v))
    if u == v:
        raise SamePairError(f"pair ({u},{v}) is not a pair")
    return _mask_to_tuple(next(_pair_masks(dm, ((u, v),))))


def _pair_masks(dm: DistanceMatrix, pairs=None) -> Iterator[int]:
    """Distinguisher bitsets of ``pairs``, in their order.

    ``None`` means every pair (i, j), i < j, in lexicographic order; other
    pairs come as a sequence.  The XOR of two rows of one bit plane
    (``DistanceMatrix.planes``, which the all-pairs sweep writes) holds the
    vertices whose distances from u and v differ in that bit, so the row of
    (u, v) is the OR of its XORs over the planes.
    """
    if pairs is None:
        diffs = (starmap(xor, combinations(plane, 2)) for plane in dm.planes)
    else:
        # plane.__getitem__ binds each plane as it is reached; a nested
        # generator would read whichever plane the outer loop is on.
        us, vs = [u for u, _ in pairs], [v for _, v in pairs]
        diffs = (map(xor, map(plane.__getitem__, us), map(plane.__getitem__, vs)) for plane in dm.planes)
    # One plane is its own XORs; more are ORed pairwise in C.
    return reduce(partial(map, or_), diffs)


class _PairModel:
    """The rows of one pair family over n vertices, shared by every demand.

    ``min_size`` is the smallest row size, INFINITE when there are no rows,
    so the family admits demand k exactly when ``min_size >= k``.
    ``pruned()`` gives what the search reads, none of which depends on k
    either: the dominance-pruned rows, the dropped count and the columns of
    the kept rows, all three from one ``_prune_dominated`` pass, and the
    dominated columns, built on its first call.
    """

    __slots__ = ("n", "masks", "min_size", "_pruned")

    def __init__(self, n: int, masks: tuple[int, ...]):
        self.n = n
        self.masks = masks
        self.min_size = min(map(int.bit_count, masks), default=INFINITE)
        self._pruned = None

    def pruned(self) -> tuple[tuple[int, ...], int, list[int], list[int]]:
        if self._pruned is None:
            kept, dropped, col_of = _prune_dominated(self.masks, self.n)
            self._pruned = kept, dropped, col_of, _dominated(col_of)
        return self._pruned


def _pair_model(dm: DistanceMatrix, rg: RootedGraph | None = None) -> _PairModel:
    """The model of all pairs, or of the sphere pairs of ``rg``'s roots.

    Built on first use and kept in ``dm.pair_models``, keyed by ``None`` or
    by the root set.
    """
    key = None if rg is None else rg.roots
    model = dm.pair_models.get(key)
    if model is None:
        pairs = None if rg is None else sphere_pairs(rg, dm)
        model = dm.pair_models[key] = _PairModel(dm.n, tuple(_pair_masks(dm, pairs)))
    return model


def max_k(dm: DistanceMatrix) -> int | float:
    """Largest k admitting a k-metric generator.

    Equals the minimum distinguisher-set size over all vertex pairs.  For
    n < 2 there are no pairs and every k works vacuously, reported as
    INFINITE by convention.
    """
    return _pair_model(dm).min_size


def is_k_generator(dm: DistanceMatrix, selected, k: int, pairs=None) -> bool:
    """Does ``selected`` distinguish every pair at least k times?

    ``pairs`` defaults to all unordered vertex pairs.
    """
    chosen = set(selected)
    _check_vertices(dm, chosen)
    if pairs is None:
        pairs = ((u, v) for u in range(dm.n) for v in range(u + 1, dm.n))
    else:
        pairs = tuple(pairs)
        _check_vertices(dm, chain.from_iterable(pairs))
    for u, v in pairs:
        du = dm.row(u)
        dv = dm.row(v)
        hits = sum(1 for w in chosen if du[w] != dv[w])
        if hits < k:
            return False
    return True


def _pair_instance(dm: DistanceMatrix, k: int, rg: RootedGraph | None = None) -> MulticoverInstance:
    """The instance of one pair family at demand k >= 1, on the family's shared model."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    return MulticoverInstance(_pair_model(dm, rg), k)


def build_instance_full(dm: DistanceMatrix, k: int) -> MulticoverInstance:
    """One row per unordered vertex pair, in (i, j) lexicographic order.

    There is no graph to check ``dm`` against, so the rows are those of
    whatever graph the matrix was computed from.
    """
    return _pair_instance(dm, k)


def sphere_pairs(rg: RootedGraph, dm: DistanceMatrix) -> tuple[tuple[int, int], ...]:
    """Deduplicated pairs lying on a common distance sphere around a root.

    A sphere is the set of vertices at one exact distance >= 1 from a root.
    Only the roots' rows are spelled from ``dm``'s planes.  ``dm`` must be
    the distance matrix of ``rg.graph``; one of another vertex count raises
    ValueError.
    """
    dm = _distances_of(rg.graph, dm)
    pairs: set[tuple[int, int]] = set()
    for u in rg.roots:
        row = dm.distances_from(u)
        spheres: list[list[int]] = [[] for _ in range(max(row) + 1)]
        for w, d in enumerate(row):
            spheres[d].append(w)
        for sphere in spheres[1:]:
            pairs.update(combinations(sphere, 2))
    return tuple(sorted(pairs))


def build_instance_rooted(rg: RootedGraph, dm: DistanceMatrix, k: int) -> MulticoverInstance:
    """Rows for sphere pairs only: the rooted dimension's coverage model.

    Minimizing one set that k-distinguishes every sphere pair is equivalent
    to minimizing the union of per-sphere generators, since each per-sphere
    generator may be taken equal to the union.  ``dm`` must be the distance
    matrix of ``rg.graph``; one of another vertex count raises ValueError.
    """
    return _pair_instance(_distances_of(rg.graph, dm), k, rg)


def _prune_dominated(masks: Sequence[int], n: int) -> tuple[tuple[int, ...], int, list[int]]:
    """Drop rows that are supersets of other rows (implied constraints), and
    give the kept rows, the dropped count and the columns of the kept rows:
    per vertex v, the bitset of the kept rows holding v.

    The distinct rows are taken by size, then by value, and one is kept
    when every row kept before it has a member outside it; a repeated row
    is dropped with its first copy kept.  A kept row inside m misses m's
    lowest non-member w, so m is tested only against ``missing[w]``, the
    kept rows without w.  A row with no non-member tests every kept row,
    held in the last slot, ``missing[-1]``; each kept row joins that slot
    and the list of each of its non-members, and sets its bit in
    ``absent`` of each of them, so a column is the kept rows not absent.
    """
    rows = sorted(set(masks))
    rows.sort(key=int.bit_count)
    width = max(masks, default=0).bit_length()
    full = (1 << width) - 1
    missing: list[list[int]] = [[] for _ in range(width + 1)]
    absent = [0] * width
    for m in rows:
        rest = full ^ m
        # The lowest non-member of m, or -1, the last slot, when m has none.
        if all(map(rest.__and__, missing[(rest & -rest).bit_length() - 1])):
            bit = 1 << len(missing[-1])
            missing[-1].append(m)
            while rest:
                low = rest & -rest
                w = low.bit_length() - 1
                missing[w].append(m)
                absent[w] |= bit
                rest ^= low
    kept = tuple(missing[-1])
    everyone = (1 << len(kept)) - 1
    # Vertices from ``width`` on are in no row.
    return kept, len(masks) - len(kept), [everyone ^ a for a in absent] + [0] * (n - width)


def _dominated(col_of: Sequence[int]) -> list[int]:
    """Per vertex u, the bitset of the vertices w whose columns are subsets
    of u's: every kept row holding w holds u.  Equal columns count, and u
    is in its own set."""
    return [sum(1 << w for w, other in enumerate(col_of) if other | col == col) for col in col_of]


class _Search:
    """Depth-first branch-and-bound over vertex inclusion, updated in place.

    One kernel, ``run``, does the search.  It branches on the lowest free
    vertex of the deficient row of least slack ``|row & free| - deficit``
    (ties to the higher deficit, then the lower row), which the node's
    ``packing_bound`` records in ``tight``.  ``greedy`` builds the first
    incumbent, and ``lex_smallest`` turns the optimal incumbent into the
    lexicographically smallest optimal cover.

    The state of the current node is one row bitset per level and the free
    vertices:

    - ``level[d]``, for d = 0..k: bit r is set when row r still lacks d of
      its demand on the include path.  Covered rows sit at level 0, and
      the deficient rows are ``all_rows ^ level[0]``;
    - ``free``: the bitset of vertices neither included nor excluded.

    An include moves ``level[d] & col_of[v]`` down one level for d = 1..k
    in ascending order, so each row of v moves once.  An exclude of u is
    ``free & ~dominated[u]``: u and the vertices whose rows are all rows of
    u leave ``free``.  ``packing_bound`` is the one node test: it is
    infinite at a node where a deficient row has fewer free members than
    its deficit, and otherwise a lower bound on the includes still needed,
    the larger of the Lagrangian at the unit and at the one-third row
    packing, both kept in integers.
    No move is undone: ``run`` saves the state before each include on an
    explicit stack and restores it whole when it backtracks past that
    include, and the stack, not recursion, holds the path, so the depth (up
    to n) is not bounded by Python's recursion limit.
    """

    def __init__(self, model: _PairModel, k: int):
        self.k = k
        self.masks, self.dropped, self.col_of, self.dominated = model.pruned()
        self.free = (1 << model.n) - 1
        self.all_rows = (1 << len(self.masks)) - 1
        self.level = [0] * (k + 1)
        self.level[k] = self.all_rows
        self.nodes = 0
        self.best_value = 0
        self.best_mask = 0

    def _include(self, v: int) -> None:
        level, col = self.level, self.col_of[v]
        self.free ^= 1 << v
        for d in range(1, self.k + 1):
            moved = level[d] & col
            level[d] ^= moved
            level[d - 1] |= moved

    def packing_bound(self, room: int) -> int | float:
        """Row-packing lower bound on the vertices still to include, or
        INFINITE when a deficient row cannot be completed.

        A largest deficit d of ``room`` or more is returned before any
        walk: one row alone needs d more includes.  Otherwise rows are
        walked by falling deficit, by index within a level; a row whose
        slack ``|row & free| - deficit`` is negative ends the walk with
        INFINITE.  The walk evaluates two packings.  In the unit packing a
        row adds its deficit minus its members already used by the rows
        taken before it, when that is positive, and its free members then
        count as used.  In the one-third packing, ``third`` is three times
        its Lagrangian: a row adds its deficit minus its free members
        already in three taken rows (``u3``; ``u1`` and ``u2`` hold those
        in at least one and two), when that is positive, and is then
        taken.  Stops once the unit sum reaches ``room`` or ``third``
        exceeds ``3 * room - 3``, that is once ``ceil(third / 3)`` reaches
        ``room``.  A walk that does not stop early returns the larger of
        the unit sum and ``ceil(third / 3)``, and records in ``tight`` the
        free members of the row of least slack, the first such row in the
        walk's order; with no deficient row the bound and ``tight`` are 0.
        """
        masks, free, level = self.masks, self.free, self.level
        for top in range(self.k, 0, -1):
            if level[top]:
                break
        else:
            self.tight = 0
            return 0
        if top >= room:
            return top
        bound = used = tight = third = u1 = u2 = u3 = 0
        cut = 3 * room - 3
        least = free.bit_count()  # above the slack of any deficient row
        for d in range(top, 0, -1):
            for r in _bits(level[d]):
                m = masks[r]
                rest = m & free
                slack = rest.bit_count() - d
                if slack < least:
                    if slack < 0:
                        return INFINITE
                    least, tight = slack, rest
                gain = d - (m & used).bit_count()
                if gain > 0:
                    bound += gain
                    if bound >= room:
                        return bound
                    used |= rest
                gain = d - (rest & u3).bit_count()
                if gain > 0:
                    third += gain
                    if third > cut:
                        return -(-third // 3)
                    u3 |= rest & u2
                    u2 |= rest & u1
                    u1 |= rest
        self.tight = tight
        return max(bound, -(-third // 3))

    def greedy(self) -> None:
        """Incumbent: include the max-gain vertex, the free vertex in the
        most deficient rows (smallest index on ties), until no row is
        deficient.

        Each deficient row of a feasible instance keeps a free vertex, so a
        vertex of zero gain is never chosen.  The picks are the vertices the
        includes took from ``free``, and the root state is restored after.
        """
        level, free, col_of = self.level[:], self.free, self.col_of
        while deficient := self.all_rows ^ self.level[0]:
            self._include(max(_bits(self.free), key=lambda v: (col_of[v] & deficient).bit_count()))
        self.best_mask = free ^ self.free
        self.best_value = self.best_mask.bit_count()
        self.level, self.free = level, free

    def run(self, first_only: bool) -> None:
        """Search the whole tree from the current node, include branch first.

        Covers smaller than ``best_value`` replace the incumbent, counted
        from this node: ``best_mask`` holds the includes below it.  With
        ``first_only`` the first such cover ends the search.  A node is cut
        when its ``packing_bound`` does not fit under the incumbent, which
        includes every node that the free vertices cannot complete; a node
        that is not cut branches on the lowest vertex of ``tight``.  Every
        cover found below the starting node is smaller than ``best_value``:
        a node branches only when its bound, at least 1 while a row is
        deficient, is below the room left under the incumbent.  ``stack`` holds, per
        include on the current path, the vertex and the ``level`` and
        ``free`` it was made from; its length is the size of the path's
        cover.  Backtracking restores the deepest entry's state and
        excludes its vertex u together with the free vertices u dominates:
        any cover that holds one of them but not u has a swap of the same
        size in the include-u subtree just left.  The starting node's state
        is restored once at the end.
        """
        root = self.level[:], self.free
        stack: list[tuple[int, list[int], int]] = []
        while True:
            self.nodes += 1
            if self.level[0] == self.all_rows:
                self.best_value = len(stack)
                self.best_mask = sum(1 << v for v, _, _ in stack)
                if first_only:
                    break
            elif self.packing_bound(room := self.best_value - len(stack)) < room:
                v = (self.tight & -self.tight).bit_length() - 1
                stack.append((v, self.level[:], self.free))
                self._include(v)
                continue
            if not stack:
                break
            v, self.level, free = stack.pop()
            self.free = free & ~self.dominated[v]
        self.level, self.free = root

    def lex_smallest(self) -> None:
        """Make the optimal incumbent the lexicographically smallest optimal
        cover, fixing x_0, x_1, ... in turn from the root.

        Among covers of one size the lexicographically smallest is the one
        that holds the lowest vertex where two differ.  So v is included
        exactly when some optimal cover agrees with the fixings on 0..v-1
        and holds v, and after v the fixings agree with that smallest cover
        on 0..v.  The loop keeps a witness, an optimal cover that agrees
        with every fixing, starting from the incumbent.  v is included when
        it is in the witness, an include that is never undone.  Otherwise
        one ``run`` probes it: from the fixings with v included, stopping
        at its first cover, it either finds the rest of an optimal cover,
        which with the fixings and v is the new witness, or shows that no
        optimal cover agreeing with the fixings holds v.

        Then v is excluded together with the free vertices it dominates: a
        cover agreeing with the fixings that held one of them but not v
        would swap to one holding v, which the probe found none of; so the
        witness holds none of them.  The loop stops when the includes reach
        the optimum; they are then the witness.  The root state is restored
        at the end.
        """
        root = self.level[:], self.free
        optimum, witness, fixed = self.best_value, self.best_mask, 0
        for v in _bits(self.free):
            if fixed.bit_count() == optimum:
                break
            bit = 1 << v
            if not self.free & bit:
                continue
            if witness & bit:
                self._include(v)
            else:
                level = self.level[:]
                self._include(v)
                self.best_value = left = optimum - fixed.bit_count()
                self.run(True)
                if self.best_value == left:
                    self.level = level
                    self.free &= ~self.dominated[v]
                    continue
                witness = fixed | bit | self.best_mask
            fixed |= bit
        self.best_value, self.best_mask = optimum, fixed
        self.level, self.free = root


def _bits(mask: int) -> Iterator[int]:
    """The set bits of a non-negative mask, ascending."""
    # bin() spells the bits high to low; reversed and turned into 0/1 bytes
    # they select their own indices.
    return compress(count(), bin(mask)[:1:-1].encode().translate(_BIT))


def _mask_to_tuple(mask: int) -> tuple[int, ...]:
    """The set bits of a non-negative mask as an ascending tuple."""
    return tuple(_bits(mask))


def solve_exact(inst: MulticoverInstance) -> DimResult:
    """Exact minimum of the multicover objective with a witness basis.

    Infeasibility (a row smaller than the demand) yields value INFINITE; an
    empty row set yields value 0.  Otherwise a greedy incumbent is taken,
    and one branch-and-bound proves the optimum: it branches on the tightest
    deficient row, cuts nodes with the row-packing bound (the LP
    relaxation's Lagrangian at a unit and at a one-third row packing, both
    exact in integers), and on each exclude also excludes the free vertices
    the excluded vertex dominates.  The basis is then fixed vertex by
    vertex into the lexicographically smallest optimal cover.
    """
    k, masks = inst.demand, inst.masks
    if k == 0 or not masks:
        return DimResult(k, 0, (), True, SolveStats(rows=len(masks)))
    if not inst.feasible:
        return DimResult(k, INFINITE, (), True, SolveStats(rows=len(masks)))
    search = _Search(inst.model, k)
    search.greedy()
    search.run(False)
    search.lex_smallest()
    return DimResult(
        k,
        search.best_value,
        _mask_to_tuple(search.best_mask),
        True,
        SolveStats(nodes=search.nodes, rows=len(search.masks), pruned=search.dropped),
    )


def _distances_of(g: Graph, dm: DistanceMatrix | None) -> DistanceMatrix:
    """``dm``, or the distances of g when it is None; a matrix of another
    vertex count cannot be g's."""
    if dm is None:
        return all_pairs_distances(g)
    if dm.n != g.n:
        raise ValueError(f"distance matrix has {dm.n} vertices, the graph has {g.n}")
    return dm


def dim_k(g: Graph, k: int, dm: DistanceMatrix | None = None) -> DimResult:
    """k-metric dimension of g; finite exactly when k <= max_k(g).

    ``dm``, when given, must be g's distance matrix; the rows built from it
    are kept on it for later solves.
    """
    return solve_exact(build_instance_full(_distances_of(g, dm), k))


def dim_k_rooted(rg: RootedGraph, k: int, dm: DistanceMatrix | None = None) -> DimResult:
    """Rooted dimension: k-distinguish only pairs on common root spheres."""
    return solve_exact(build_instance_rooted(rg, _distances_of(rg.graph, dm), k))


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
