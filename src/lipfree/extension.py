"""Restriction/extension operators over finite pointed metric spaces.

The scheme: restrict a Lipschitz function to a subset containing the origin,
then extend it back linearly with a partition of unity anchored on the
subset.  The partition weights live on ``subset x (space - subset)``, sum to
one off the subset and vanish on it; their quality is measured by the exact
gentleness constant

    K = max_{x != y} sum_w |psi(w, x) - psi(w, y)| d(w, x) / d(x, y)

(the partition's anchor map is the identity on the subset, with counting
measure).  The smaller K, the better the composite restrict-then-extend
operator approximates the identity; the classical estimate bounds the
extension's Lipschitz inflation by ``3 K``.

Two concrete weight schemes are provided, since no canonical finite-space
choice exists: ``inv-dist`` (truncated support) and ``shepard-p`` (global
inverse-power weights).  Both depend only on distance ratios, so they are
invariant under rescaling the metric, and exactly so when the factor is a
power of two.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from .geometry import as_index, check_magnitude, l1_distances
# lip_constant is unused here but stays importable: perfbench's tracer wraps it in this module
from .interpolation import TabulatedFunction, check_values, lip_constant, max_quotient

SCHEMES = ("inv-dist", "shepard-p")

#: Most points a :class:`FinitePointedMetricSpace` holds.  At 100 points ``bap`` took a median of
#: 28.6 s (28.2-30.4) on the slowest shape measured (16-d ``embed_l1``, ``shepard-p``, ``p`` 64),
#: 21.5 s (21.2-23.9) with distances uniform in [1, 2] and 7.2 s (7.0-7.5) on random 3-d spaces
#: (5 fresh runs each, 2 vCPUs), nearly all of it in :func:`doubling_estimate`.
MAX_SPACE_POINTS = 100


def _check_space_size(k: int) -> None:
    if k > MAX_SPACE_POINTS:
        raise ValueError(f"the metric space has {k} points; at most {MAX_SPACE_POINTS} are supported")


@dataclass(frozen=True, eq=False)
class FinitePointedMetricSpace:
    """A finite metric space with a distinguished origin.

    The distance matrix is validated on construction: finite entries within
    :data:`lipfree.geometry.MAX_MAGNITUDE`, symmetry, zero diagonal,
    positivity off the diagonal, and the triangle inequality (the first
    violating pair or triple is named in the error).
    """

    labels: tuple
    dist: np.ndarray
    origin: int = 0

    def __post_init__(self):
        k = len(self.labels)
        _check_space_size(k)
        d = np.asarray(self.dist, dtype=float)
        if d.shape != (k, k):
            raise ValueError(f"distance matrix shape {d.shape} does not match {k} points")
        if k == 0:
            raise ValueError("need at least one point")
        if not (0 <= self.origin < k):
            raise ValueError("origin index out of range")
        if not np.all(np.isfinite(d)):
            i, j = (int(v) for v in np.argwhere(~np.isfinite(d))[0])
            raise ValueError(f"distance between points ({i}, {j}) is not finite: {d[i, j]}")
        i, j = divmod(int(np.argmax(np.abs(d))), k)
        check_magnitude(d[i, j], "distance between points ({}, {})", i, j)
        scale = max(1.0, float(np.max(d)))
        if np.max(np.abs(d - d.T)) > 1e-12 * scale:
            raise ValueError("distance matrix is not symmetric")
        if np.any(np.diag(d) != 0.0):
            raise ValueError("diagonal distances must be exactly zero")
        off = d + np.eye(k) * scale
        if np.min(off) <= 0.0:
            i, j = divmod(int(np.argmin(off)), k)
            raise ValueError(f"distinct points {i} and {j} are at non-positive distance")
        for l in range(k):
            slack = d - (d[:, l][:, None] + d[l, :][None, :])
            worst = float(np.max(slack))
            if worst > 1e-12 * scale:
                i, j = divmod(int(np.argmax(slack)), k)
                raise ValueError(
                    f"triangle inequality violated by triple ({i}, {l}, {j}): "
                    f"d({i},{j}) = {d[i, j]} > {d[i, l]} + {d[l, j]}"
                )
        d = d.copy()
        d.flags.writeable = False
        object.__setattr__(self, "dist", d)
        object.__setattr__(self, "labels", tuple(self.labels))

    @property
    def size(self) -> int:
        return len(self.labels)

    @classmethod
    def from_l1_points(cls, points, origin: int = 0, labels=None) -> "FinitePointedMetricSpace":
        _check_space_size(len(points))
        with np.errstate(over="ignore", invalid="ignore"):  # validation names the pair
            d = l1_distances(points, points)
        if labels is None:
            labels = tuple(range(len(d)))
        return cls(labels=tuple(labels), dist=d, origin=origin)

    def to_json(self) -> dict:
        return {"points": list(self.labels), "dist": self.dist.tolist(), "origin": self.origin}

    @classmethod
    def from_json(cls, obj: Mapping) -> "FinitePointedMetricSpace":
        origin = as_index(obj.get("origin", 0), "origin")
        if "embed_l1" in obj:
            coords = obj["embed_l1"]
            return cls.from_l1_points(coords, origin=origin, labels=tuple(obj.get("points", range(len(coords)))))
        return cls(labels=tuple(obj["points"]), dist=np.asarray(obj["dist"], dtype=float), origin=origin)


def space_function(space: FinitePointedMetricSpace, values) -> TabulatedFunction:
    """A function on all points of the space, indexed by point position."""
    return TabulatedFunction(
        points=tuple(range(space.size)), values=tuple(values), origin=space.origin
    )


def restrict(f: TabulatedFunction, subset: Iterable[int]) -> TabulatedFunction:
    """Restriction onto a subset of point indices; the origin must stay in."""
    sub = tuple(sorted(set(int(i) for i in subset)))
    origin_point = f.points[f.origin]
    if origin_point not in sub:
        raise ValueError("the subset must contain the origin")
    values = dict(zip(f.points, f.values))
    return TabulatedFunction(points=sub, values=tuple(values[i] for i in sub),
                             origin=sub.index(origin_point))


@dataclass(frozen=True, eq=False)
class GentlePartition:
    """Partition-of-unity weights on ``subset x space`` (zero on subset columns)."""

    space: FinitePointedMetricSpace
    subset: tuple[int, ...]
    weights: np.ndarray  # shape (len(subset), space.size)
    scheme: str

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        if w.shape != (len(self.subset), self.space.size):
            raise ValueError("weight matrix shape mismatch")
        _check_weights(w, list(self.subset))
        w = w.copy()
        w.flags.writeable = False
        object.__setattr__(self, "weights", w)


def _check_weights(w: np.ndarray, sub: list[int]) -> None:
    """Weights ``[anchor, point]`` are nonnegative, zero on the subset columns and sum to one off them."""
    if np.min(w) < 0:
        raise ValueError("weights must be nonnegative")
    if np.any(w[:, sub] != 0.0):
        raise ValueError("weights must vanish on the subset")
    sums = w.sum(axis=0)
    sums[sub] = 1.0  # zero columns, checked above
    if np.max(np.abs(sums - 1.0)) > 1e-12:
        raise ValueError("weights must sum to one off the subset")


def _partition_weights(d: np.ndarray, sub: list[int], scheme: str, p: float):
    """``(w, dx)``: the :func:`build_partition` weights ``w[anchor, point]`` of the sorted
    subset ``sub``, and ``dx[x, anchor] = d(anchor, x)`` in contiguous rows.

    On a prefix ``N`` of :func:`farthest_point_chain`, ``inv-dist`` gives a
    point at most ``D**2`` anchors, ``D`` the doubling constant (at most
    :func:`doubling_estimate`).  Each pick lies at the covering radius of
    the points before it, and that radius never grows, so ``N`` is
    ``s``-separated with ``s`` at least its covering radius ``rho``.  Anchor
    ``w`` weighs at ``x`` only when ``d(x, w) < 2 d(x, N) <= 2 rho <= 2 s``.
    ``B(x, 2s)`` is covered by ``D`` balls of radius ``s``, each by ``D``
    balls of radius ``s / 2``, and each of those holds one point of ``N`` at most.
    """
    if scheme not in SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}; expected one of {SCHEMES}")
    if scheme == "shepard-p" and not 0.0 < p < np.inf:
        raise ValueError(f"the shepard-p exponent p must be positive and finite, got {p}")
    if not sub:
        raise ValueError("the subset must be nonempty")
    dx = d[sub].T.copy()
    outside = np.ones(len(d), dtype=bool)
    outside[sub] = False
    with np.errstate(over="ignore"):  # an overflowing ratio gives weight 0
        ratio = dx[outside] / dx[outside].min(axis=1, keepdims=True)  # exactly 1 at the nearest anchor
    raw = np.maximum(0.0, 2.0 - ratio) ** 2 if scheme == "inv-dist" else ratio ** (-p)
    w = np.zeros((len(sub), len(d)))
    w[:, outside] = (raw / raw.sum(axis=1, keepdims=True)).T  # each row summed as a 1-d array
    return w, dx


def build_partition(space: FinitePointedMetricSpace, subset: Iterable[int],
                    scheme: str = "inv-dist", p: float = 2.0) -> GentlePartition:
    """Concrete partition weights for a subset.

    Each outside point ``x`` measures its anchors in units of its nearest
    one, ``r(w) = d(x, w) / d(x, subset)``.  ``inv-dist``: raw weight
    ``max(0, 2 - r(w))**2`` gives ``x`` a small support of nearby anchors.
    ``shepard-p``: raw weight ``r(w)**(-p)`` touches every anchor.  The
    nearest anchor has raw weight exactly 1, so every total is finite and at
    least 1 at any scale; weights are normalized per outside point.  Scaling
    the metric by a power of two leaves them unchanged bit for bit.  On a
    chain prefix, ``inv-dist`` support is bounded (see :func:`_partition_weights`).
    """
    sub = sorted(set(int(i) for i in subset))
    w, _ = _partition_weights(space.dist, sub, scheme, p)
    return GentlePartition(space=space, subset=tuple(sub), weights=w, scheme=scheme)


def extend(f_sub: TabulatedFunction, part: GentlePartition) -> TabulatedFunction:
    """Linear extension: keep values on the subset, blend anchors elsewhere."""
    if tuple(f_sub.points) != part.subset:
        raise ValueError("function domain does not match the partition subset")
    values = np.asarray(f_sub.values) @ part.weights  # off-subset blend; zero columns inside
    values[list(part.subset)] = f_sub.values
    return TabulatedFunction(points=tuple(range(part.space.size)), values=tuple(values),
                             origin=part.space.origin)


@dataclass(frozen=True)
class GentlenessEstimate:
    k_hat: float
    worst_pair: tuple[int, int] | None


def _gentleness(w: np.ndarray, dx: np.ndarray, den: np.ndarray) -> tuple[float, int]:
    """The largest gentleness ratio and its flat ``(x, y)`` index (the first if tied), from
    ``w[anchor, point]``, ``dx[x, anchor] = d(anchor, x)`` and ``den = d + diag(inf)``."""
    # [x, anchor, y] = |psi(anchor, x) - psi(anchor, y)|; one gemv per x on
    # contiguous slices, so each sum over anchors keeps its order
    gaps = np.subtract(w.T[:, :, None], w, order="C")
    np.abs(gaps, out=gaps)
    nums = np.array([dx[x] @ gaps[x] for x in range(len(den))])
    ratios = nums / den  # the diagonal gives 0
    best = int(np.argmax(ratios))
    return float(ratios.flat[best]), best


def gentleness(part: GentlePartition) -> GentlenessEstimate:
    """Exact gentleness constant of a partition over all ordered pairs.

    ``worst_pair`` is the first pair ``(x, y)`` in row-major order with the
    largest ratio, or None when every ratio is 0.
    """
    k = part.space.size
    d = part.space.dist
    k_hat, best = _gentleness(part.weights, d[list(part.subset)].T.copy(), d + np.diag(np.full(k, np.inf)))
    return GentlenessEstimate(k_hat=k_hat, worst_pair=divmod(best, k) if k_hat > 0 else None)


def approximation_operator(f: TabulatedFunction, part: GentlePartition) -> TabulatedFunction:
    """Restrict to the partition's subset, then extend back with its weights;
    fixes the subset pointwise."""
    return extend(restrict(f, part.subset), part)


# Largest (pair, point, point) array of one block of the doubling sweep: a
# block takes this many // k**2 (radius, variant) pairs.
_SWEEP_BLOCK_ELEMENTS = 1 << 16


def doubling_estimate(space: FinitePointedMetricSpace) -> int:
    """Greedy upper estimate of the doubling constant.

    For every center and every relevant radius, the open ball is covered
    greedily by half-radius balls centered at yet-uncovered members, largest
    new coverage first (ties to the smallest index).  Radii sweep every
    pairwise distance and its double, each in an exact strict and non-strict
    variant, so all limiting open-ball configurations are seen without
    epsilon fudging.  Greedy covers can overshoot the optimal cover, so this
    is an upper estimate of the true constant.

    The sweep runs in blocks of (radius, variant) pairs, each pair with all
    centers at once, and the greedy takes one step on every ball of a block
    together; the configurations, counts and tie rule are those of a loop
    over the balls one by one.  A pair whose member and cover matrices equal
    those of the pair before it is skipped, since it gives the same counts.
    No count exceeds ``k``, so the sweep stops at the first block that reaches it.
    Each array of a block has at most ``max(_SWEEP_BLOCK_ELEMENTS, k**2)``
    entries, whatever the number of radii.
    """
    k = space.size
    if k == 1:
        return 1
    d = space.dist
    values = np.unique(d[np.triu_indices(k, 1)])
    radii = np.repeat(np.unique(np.concatenate([values, 2.0 * values])), 2)
    closed = np.tile([False, True], radii.size // 2)
    step = max(1, _SWEEP_BLOCK_ELEMENTS // (k * k))
    best = 1
    for start in range(0, radii.size, step):
        lo = max(start - 1, 0)  # overlap one pair to compare across blocks
        r = radii[lo:start + step, None, None]
        shut = closed[lo:start + step, None, None]
        members = np.where(shut, d <= r, d < r)  # [pair, center, j]: j in the ball
        # [pair, i, j]: j in the half ball at i; 2d, unlike r / 2, is exact for a subnormal r
        covers = np.where(shut, 2.0 * d <= r, 2.0 * d < r)
        fresh = np.ones(r.shape[0], dtype=bool)
        fresh[1:] = np.any((members[1:] != members[:-1]) | (covers[1:] != covers[:-1]),
                           axis=(1, 2))
        fresh[:start - lo] = False
        best = max(best, _greedy_rounds(members[fresh], covers[fresh]))
        if best == k:  # no ball has more members
            return k
    return best


def _greedy_rounds(uncovered: np.ndarray, covers: np.ndarray) -> int:
    """Largest greedy cover count over the balls ``uncovered[pair, center]``.

    Every ball of a pair shares the pair's cover matrix, so the gains of one
    step are one batched product; its 0/1 terms sum exactly in float32.  A
    ball's count is the number of steps before it is covered, so the largest
    count is the number of steps until every ball is covered.
    """
    covers_t = covers.transpose(0, 2, 1).astype(np.float32)
    rounds, left = 0, np.count_nonzero(uncovered)
    while left:
        live = uncovered.any(axis=(1, 2))
        uncovered, covers, covers_t = uncovered[live], covers[live], covers_t[live]
        rounds += 1
        gains = uncovered.astype(np.float32) @ covers_t  # [pair, center, i]
        gains[~uncovered] = -1  # centers must be uncovered points
        pick = np.argmax(gains, axis=2)  # argmax ties break to smallest index
        uncovered &= ~covers[np.arange(len(covers))[:, None], pick]  # [pair, center, j]: pick's row
        before, left = left, np.count_nonzero(uncovered)
        if left == before:
            raise RuntimeError(f"greedy cover round {rounds} covered no point")
    return rounds


def farthest_point_chain(space: FinitePointedMetricSpace) -> list[tuple[int, ...]]:
    """Nested subsets grown greedily farthest-first from the origin.

    Each pick is the point farthest from the points chosen so far, ties to
    the smallest index; chosen points are at distance 0, every other point
    at a positive distance.
    """
    chosen = [space.origin]
    chain = [tuple(chosen)]
    gap = space.dist[:, space.origin]  # [i] = min over chosen j of d(i, j)
    for _ in range(space.size - 1):
        pick = int(np.argmax(gap))
        chosen.append(pick)
        chain.append(tuple(sorted(chosen)))
        gap = np.minimum(gap, space.dist[:, pick])
    return chain


def covering_radius(space: FinitePointedMetricSpace, subset: Sequence[int]) -> float:
    """max over points of the distance to the subset."""
    return float(space.dist[:, list(subset)].min(axis=1).max())


@dataclass(frozen=True)
class ChainRow:
    size: int
    k_hat: float
    lip_ratio: float
    max_err: float
    cov_radius: float


def chain_table(space: FinitePointedMetricSpace, f: TabulatedFunction,
                scheme: str = "inv-dist", p: float = 2.0) -> list[ChainRow]:
    """Per-step diagnostics of the restrict-extend operator along the chain,
    for ``f`` on the space's points in order (see :func:`space_function`): one
    pass over the pairs, distances and values taken once per table."""
    k = space.size
    if f.points != tuple(range(k)) or f.origin != space.origin:
        raise ValueError("the function must be tabulated on the space's points, in order")
    d = space.dist
    den = d + np.diag(np.full(k, np.inf))
    labels = range(k)
    i, j = np.triu_indices(k, 1)
    pairs = (i, j, d[i, j])
    values = np.asarray(f.values)
    lip_f = max_quotient(values, pairs, labels)
    rows = []
    for subset in farthest_point_chain(space):
        sub = list(subset)
        w, dx = _partition_weights(d, sub, scheme, p)
        _check_weights(w, sub)
        extended = values[sub] @ w  # off-subset blend; zero columns inside
        extended[sub] = values[sub]
        check_values(extended)
        rows.append(
            ChainRow(
                size=len(sub),
                k_hat=_gentleness(w, dx, den)[0],
                lip_ratio=max_quotient(extended, pairs, labels) / lip_f if lip_f > 0 else 0.0,
                max_err=float(np.max(np.abs(extended - values))),
                cov_radius=covering_radius(space, sub),
            )
        )
    return rows
