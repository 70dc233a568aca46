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

from .geometry import check_magnitude, l1_distances
from .interpolation import TabulatedFunction, lip_constant

SCHEMES = ("inv-dist", "shepard-p")

#: Most points a :class:`FinitePointedMetricSpace` holds.  ``bap`` costs about
#: ``k^4``: one run took 6.2-6.4 s at k = 75, 19-21 s at 100, 31-33 s at 110
#: and 47-48 s at 120 (random 3-d ``embed_l1`` spaces, both schemes, 2 vCPUs).
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
        if "embed_l1" in obj:
            coords = obj["embed_l1"]
            return cls.from_l1_points(
                coords,
                origin=int(obj.get("origin", 0)),
                labels=tuple(obj.get("points", range(len(coords)))),
            )
        return cls(
            labels=tuple(obj["points"]),
            dist=np.asarray(obj["dist"], dtype=float),
            origin=int(obj.get("origin", 0)),
        )


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
        k = self.space.size
        if w.shape != (len(self.subset), k):
            raise ValueError("weight matrix shape mismatch")
        if np.min(w) < 0:
            raise ValueError("weights must be nonnegative")
        inside = np.zeros(k, dtype=bool)
        inside[list(self.subset)] = True
        if np.any(w[:, inside] != 0.0):
            raise ValueError("weights must vanish on the subset")
        outside = ~inside
        if np.any(outside):
            sums = w[:, outside].sum(axis=0)
            if np.max(np.abs(sums - 1.0)) > 1e-12:
                raise ValueError("weights must sum to one off the subset")
        w = w.copy()
        w.flags.writeable = False
        object.__setattr__(self, "weights", w)


def build_partition(space: FinitePointedMetricSpace, subset: Iterable[int],
                    scheme: str = "inv-dist", p: float = 2.0) -> GentlePartition:
    """Concrete partition weights for a subset.

    Each outside point ``x`` measures its anchors in units of its nearest
    one, ``r(w) = d(x, w) / d(x, subset)``.  ``inv-dist``: raw weight
    ``max(0, 2 - r(w))**2`` gives ``x`` a small support of nearby anchors.
    ``shepard-p``: raw weight ``r(w)**(-p)`` touches every anchor.  The
    nearest anchor has raw weight exactly 1, so every total is finite and at
    least 1 at any scale; weights are normalized per outside point.  Scaling
    the metric by a power of two leaves them unchanged bit for bit.
    """
    if scheme not in SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}; expected one of {SCHEMES}")
    if scheme == "shepard-p" and not 0.0 < p < np.inf:
        raise ValueError(f"the shepard-p exponent p must be positive and finite, got {p}")
    sub = tuple(sorted(set(int(i) for i in subset)))
    if not sub:
        raise ValueError("the subset must be nonempty")
    outside = np.delete(np.arange(space.size), sub)
    dx = space.dist.T[np.ix_(outside, sub)]  # [x, w] = d(w, x)
    with np.errstate(over="ignore"):  # an overflowing ratio gives weight 0
        ratio = dx / dx.min(axis=1, keepdims=True)  # exactly 1 at the nearest anchor
    raw = np.maximum(0.0, 2.0 - ratio) ** 2 if scheme == "inv-dist" else ratio ** (-p)
    w = np.zeros((len(sub), space.size))
    w[:, outside] = (raw / raw.sum(axis=1, keepdims=True)).T  # each row summed as a 1-d array
    return GentlePartition(space=space, subset=sub, weights=w, scheme=scheme)


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


def gentleness(part: GentlePartition) -> GentlenessEstimate:
    """Exact gentleness constant of a partition over all ordered pairs.

    ``worst_pair`` is the first pair ``(x, y)`` in row-major order with the
    largest ratio, or None when every ratio is 0.
    """
    k = part.space.size
    d = part.space.dist
    w = part.weights  # (|sub|, k), zero on subset columns
    anchors = list(part.subset)
    # one gemv per x, so each sum over anchors keeps its order
    nums = np.array([d[anchors, x] @ np.abs(w[:, [x]] - w) for x in range(k)])
    ratios = nums / (d + np.diag(np.full(k, np.inf)))  # the diagonal gives 0
    best = int(np.argmax(ratios))
    k_hat = float(ratios.flat[best])
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
        uncovered &= ~np.take_along_axis(covers, pick[:, :, None], axis=1)
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
    """Per-step diagnostics of the restrict-extend operator along the chain."""
    lip_f = lip_constant(f, space.dist)
    values = np.asarray(f.values)
    rows = []
    for subset in farthest_point_chain(space):
        part = build_partition(space, subset, scheme=scheme, p=p)
        sf = approximation_operator(f, part)
        lip_sf = lip_constant(sf, space.dist)
        rows.append(
            ChainRow(
                size=len(subset),
                k_hat=gentleness(part).k_hat,
                lip_ratio=lip_sf / lip_f if lip_f > 0 else 0.0,
                max_err=float(np.max(np.abs(np.asarray(sf.values) - values))),
                cov_radius=covering_radius(space, subset),
            )
        )
    return rows
