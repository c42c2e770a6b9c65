"""Theorem-derived bounds and closed formulas, checkable against the solver.

Bound operations never raise on a failed theorem hypothesis: they report
preconditions_met=False with a reason and assert no bound.  The closed
formulas, by contrast, raise OutOfRangeError outside their stated (p, k)
domains rather than extrapolating.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .graphs import Graph, is_rooted_path
from .products import RootedGraph, hierarchical_product, link, splice
from .solver import INFINITE, all_pairs_distances, dim_k, dim_k_rooted, max_k


class OutOfRangeError(ValueError):
    """A closed formula was queried outside its stated parameter domain."""


@dataclass(frozen=True)
class BoundReport:
    """A bound (or exact value) claim with its hypothesis status.

    value is None when preconditions_met is False: no claim is made then.
    exact and slack are attached only when a comparison solve was requested;
    slack is bound minus exact for upper/exact kinds and exact minus bound
    for lower kinds, so it is nonnegative whenever the theorem holds.
    """

    kind: str  # "upper" | "lower" | "exact"
    value: int | None
    preconditions_met: bool
    reason: str = ""
    exact: int | None = None
    slack: int | None = None

    def to_json_dict(self) -> dict:
        out = {
            "kind": self.kind,
            "value": self.value,
            "preconditions_met": self.preconditions_met,
            "reason": self.reason,
        }
        if self.exact is not None:
            out["exact"] = self.exact
            out["slack"] = self.slack
        return out

    @classmethod
    def from_json_dict(cls, data: dict) -> "BoundReport":
        return cls(
            kind=data["kind"],
            value=data["value"],
            preconditions_met=data["preconditions_met"],
            reason=data.get("reason", ""),
            exact=data.get("exact"),
            slack=data.get("slack"),
        )


def _hypothesis_ceil_ratio(k: int, t: int | float, h: Graph) -> str:
    """Why the companion hypothesis, dim_{ceil(k/t)}(H) finite, fails; "" if it holds."""
    if t == INFINITE:
        return "rooted dimension of the first factor is infinite"
    if t == 0:
        return "rooted dimension of the first factor is 0, ceil(k/t) undefined"
    ratio = math.ceil(k / t)
    mk = max_k(all_pairs_distances(h))
    if mk < ratio:
        return f"second factor admits no {ratio}-metric generator (max_k={mk})"
    return ""


def theorem1_upper(rg: RootedGraph, h: Graph, k: int, compare_exact: bool = False) -> BoundReport:
    """Claimed upper bound n(H) * rooted-dim on the k-metric dimension of
    the hierarchical product.

    Caution: the claim can fail for multi-root products (smallest witness:
    the 4-cycle with two antipodal roots times P_2 at k=1 has dimension 3,
    above the claimed 2), because two roots may tie in both plain and
    through-root distance against every witness vertex.  For |U| = 1 the
    bound is not only valid but exact; use theorem2_exact there.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if h.n < 2:
        # The product with K_1 is the first factor itself, which the
        # theorems do not cover.
        reason = "second factor has one vertex (n(H) < 2)"
    else:
        t = dim_k_rooted(rg, k).value
        reason = _hypothesis_ceil_ratio(k, t, h)
    if reason:
        return BoundReport("upper", None, False, reason)
    bound = h.n * int(t)
    exact = slack = None
    if compare_exact:
        exact, slack = _compare(hierarchical_product(rg, h).graph, k, bound, upper=True)
    return BoundReport("upper", bound, True, "", exact, slack)


def theorem2_exact(g: Graph, u: int, h: Graph, k: int, compare_exact: bool = False) -> BoundReport:
    """Exact value n(H) * dim_k(G(u)) for single-root products, valid when
    G(u) is not a rooted path and the companion hypothesis holds.  It is the
    Theorem 1 bound at U = {u}."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if is_rooted_path(g, u):
        return BoundReport("exact", None, False, "G(u) is a rooted path")
    return replace(theorem1_upper(RootedGraph(g, (u,)), h, k, compare_exact), kind="exact")


def _compare(product: Graph, k: int, bound: int, upper: bool):
    """Exact dim_k of the product and the bound's slack; (None, None) if infinite."""
    res = dim_k(product, k)
    if res.is_infinite:
        return None, None
    exact = int(res.value)
    return exact, (bound - exact if upper else exact - bound)


def splice_link_lower(
    g: Graph,
    a: int,
    h: Graph,
    b: int,
    k: int,
    mode: str = "splice",
    compare_exact: bool = False,
) -> BoundReport:
    """Lower bound dim_k(G(a)) + dim_k(H(b)) on the splice or link product."""
    if mode not in ("splice", "link"):
        raise ValueError(f"mode must be 'splice' or 'link', got {mode!r}")
    da = dim_k_rooted(RootedGraph(g, (a,)), k).value
    db = dim_k_rooted(RootedGraph(h, (b,)), k).value
    if da == INFINITE or db == INFINITE:
        which = "first" if da == INFINITE else "second"
        return BoundReport("lower", None, False, f"rooted dimension of the {which} factor is infinite")
    bound = int(da) + int(db)
    exact = slack = None
    if compare_exact:
        combined = splice(g, a, h, b) if mode == "splice" else link(g, a, h, b)
        exact, slack = _compare(combined, k, bound, upper=False)
    return BoundReport("lower", bound, True, "", exact, slack)


def cycle_rooted_formula(p: int, k: int) -> int:
    """Claimed rooted dimension of the even-rooted cycle C_{2p}: k, or k+1
    past p.

    Caution: the closed form agrees with the true rooted dimension (see
    dim_k_rooted) only for even p with k <= 3p/2 - 1.  The only vertices
    failing to distinguish a sphere pair {u-l, u+l} are the root u and its
    antipode u+p, so for odd p the antipode of every root is a potential
    witness that cannot help, which raises the true value to k+1 for k < p,
    p+2 at k = p, and k+2 beyond; for even p the true value is k+2 on
    3p/2 - 1 < k <= 2p - 2 and infinite at k = 2p - 1.  The formula is kept
    on its full stated domain because the downstream strip and tube bounds
    are defined in terms of it.
    """
    if p < 2:
        raise OutOfRangeError(f"p must be >= 2, got {p}")
    if not 1 <= k < 2 * p:
        raise OutOfRangeError(f"k={k} outside 1..{2 * p - 1} for p={p}")
    return k if k <= p else k + 1


def path_rooted_formula(p: int, k: int) -> int:
    """Rooted dimension of the even-rooted path P_{2p+3}: k, or k+1 past p+2."""
    if p < 1:
        raise OutOfRangeError(f"p must be >= 1, got {p}")
    if not 1 <= k < 2 * p + 3:
        raise OutOfRangeError(f"k={k} outside 1..{2 * p + 2} for p={p}")
    return k if k <= p + 2 else k + 1


def nanotube_bound(p: int, q: int, k: int) -> int:
    """Upper bound on dim_k of the zigzag nanotube F_{p,2^q-1}."""
    if p < 2:
        raise OutOfRangeError(f"p must be >= 2, got {p}")
    if q < 1:
        raise OutOfRangeError(f"q must be >= 1, got {q}")
    if not 1 <= k < 2 * p:
        raise OutOfRangeError(f"k={k} outside 1..{2 * p - 1} for p={p}")
    return (2**q) * (k if k <= p else k + 1)


def polyhex_bound(p: int, k: int) -> int:
    """Upper bound on dim_k of the one-row polyhex strip."""
    if p < 1:
        raise OutOfRangeError(f"p must be >= 1, got {p}")
    if not 1 <= k < 2 * p + 3:
        raise OutOfRangeError(f"k={k} outside 1..{2 * p + 2} for p={p}")
    return 2 * k if k <= p + 2 else 2 * k + 2
