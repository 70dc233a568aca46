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
inverse-power weights).  Both are invariant under rescaling the metric.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from .geometry import check_magnitude, l1_distances
from .interpolation import TabulatedFunction, lip_constant

SCHEMES = ("inv-dist", "shepard-p")


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
        d = np.asarray(self.dist, dtype=float)
        k = len(self.labels)
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
        scale = max(1.0, float(np.max(d)) if k else 1.0)
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
    mapping = f.as_mapping()
    values = tuple(mapping[i] for i in sub)
    return TabulatedFunction(points=sub, values=values, origin=sub.index(origin_point))


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

    @property
    def vacuous(self) -> bool:
        return len(self.subset) == self.space.size


def build_partition(space: FinitePointedMetricSpace, subset: Iterable[int],
                    scheme: str = "inv-dist", p: float = 2.0) -> GentlePartition:
    """Concrete partition weights for a subset.

    ``inv-dist``: raw weight ``max(0, 2 d(x, subset) - d(x, w))**2`` gives each
    outside point a small support of nearby anchors.  ``shepard-p``: raw
    weight ``d(x, w)**(-p)`` touches every anchor.  Both are normalized per
    outside point and are invariant under metric rescaling.
    """
    sub = tuple(sorted(set(int(i) for i in subset)))
    if not sub:
        raise ValueError("the subset must be nonempty")
    if scheme not in SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}; expected one of {SCHEMES}")
    k = space.size
    w = np.zeros((len(sub), k))
    d = space.dist
    outside = [x for x in range(k) if x not in set(sub)]
    for x in outside:
        dx = d[list(sub), x]
        near = float(np.min(dx))
        if near <= 0.0:
            raise ValueError(f"point {x} is at distance zero from the subset")
        if scheme == "inv-dist":
            raw = np.maximum(0.0, 2.0 * near - dx) ** 2
        else:
            if p <= 0:
                raise ValueError("shepard exponent must be positive")
            raw = dx ** (-p)
        total = float(raw.sum())
        if not np.isfinite(total) or total <= 0.0:
            raise ValueError(f"degenerate weights at point {x}")
        w[:, x] = raw / total
    return GentlePartition(space=space, subset=sub, weights=w, scheme=scheme)


def extend(f_sub: TabulatedFunction, part: GentlePartition) -> TabulatedFunction:
    """Linear extension: keep values on the subset, blend anchors elsewhere."""
    if tuple(f_sub.points) != part.subset:
        raise ValueError("function domain does not match the partition subset")
    k = part.space.size
    anchor_values = np.asarray(f_sub.values)
    values = anchor_values @ part.weights  # off-subset blend; zero columns inside
    out = np.array(values)
    for pos, i in enumerate(part.subset):
        out[i] = f_sub.values[pos]
    origin = part.space.origin
    return TabulatedFunction(points=tuple(range(k)), values=tuple(out), origin=origin)


@dataclass(frozen=True)
class GentlenessEstimate:
    k_hat: float
    worst_pair: tuple[int, int] | None


def gentleness(part: GentlePartition) -> GentlenessEstimate:
    """Exact gentleness constant of a partition by full pair enumeration."""
    k = part.space.size
    d = part.space.dist
    w = part.weights  # (|sub|, k), zero on subset columns
    anchors = list(part.subset)
    best = 0.0
    pair = None
    for x in range(k):
        diff = np.abs(w[:, [x]] - w)  # (|sub|, k) columns indexed by y
        nums = d[anchors, x] @ diff
        for y in range(k):
            if y == x:
                continue
            ratio = nums[y] / d[x, y]
            if ratio > best:
                best = float(ratio)
                pair = (x, y)
    return GentlenessEstimate(k_hat=best, worst_pair=pair)


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
        half = r / 2.0
        members = np.where(shut, d <= r, d < r)  # [pair, center, j]: j in the ball
        covers = np.where(shut, d <= half, d < half)  # [pair, i, j]: j in the half ball at i
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
    rounds = 0
    while True:
        live = uncovered.any(axis=(1, 2))
        if not live.any():
            return rounds
        uncovered, covers, covers_t = uncovered[live], covers[live], covers_t[live]
        rounds += 1
        gains = uncovered.astype(np.float32) @ covers_t  # [pair, center, i]
        gains[~uncovered] = -1  # centers must be uncovered points
        pick = np.argmax(gains, axis=2)  # argmax ties break to smallest index
        uncovered &= ~np.take_along_axis(covers, pick[:, :, None], axis=1)


def farthest_point_chain(space: FinitePointedMetricSpace) -> list[tuple[int, ...]]:
    """Nested subsets grown greedily farthest-first from the origin."""
    chosen = [space.origin]
    chain = [tuple(chosen)]
    d = space.dist
    remaining = [i for i in range(space.size) if i != space.origin]
    while remaining:
        dist_to_set = [min(d[i, j] for j in chosen) for i in remaining]
        pick = remaining[int(np.argmax(dist_to_set))]
        chosen.append(pick)
        remaining.remove(pick)
        chain.append(tuple(sorted(chosen)))
    return chain


def covering_radius(space: FinitePointedMetricSpace, subset: Sequence[int]) -> float:
    """max over points of the distance to the subset."""
    sub = list(subset)
    return float(max(min(space.dist[i, j] for j in sub) for i in range(space.size)))


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
    rows = []
    for subset in farthest_point_chain(space):
        part = build_partition(space, subset, scheme=scheme, p=p)
        sf = approximation_operator(f, part)
        k_hat = 0.0 if part.vacuous else gentleness(part).k_hat
        lip_sf = lip_constant(sf, space.dist)
        ratio = lip_sf / lip_f if lip_f > 0 else 0.0
        err = float(max(abs(a - b) for a, b in zip(sf.values, f.values)))
        rows.append(
            ChainRow(
                size=len(subset),
                k_hat=k_hat,
                lip_ratio=ratio,
                max_err=err,
                cov_radius=covering_radius(space, subset),
            )
        )
    return rows
