"""Loop forms of the chain steps in ``lipfree.extension``, kept as test oracles.

Each walks the points, the ordered pairs or the chain's prefixes one at a
time. The module's array forms must match them bit for bit, ties included.
"""

import numpy as np

from lipfree.extension import (
    ChainRow,
    approximation_operator,
    build_partition,
    covering_radius,
    farthest_point_chain,
    gentleness,
)
from lipfree.interpolation import lip_constant


def looped_farthest_point_chain(space):
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


def looped_covering_radius(space, subset):
    sub = list(subset)
    return float(max(min(space.dist[i, j] for j in sub) for i in range(space.size)))


def looped_partition_weights(space, subset, scheme, p):
    """The weight matrix of ``build_partition``, one outside point at a time."""
    sub = sorted(set(subset))
    w = np.zeros((len(sub), space.size))
    for x in range(space.size):
        if x in sub:
            continue
        dx = space.dist[sub, x]
        with np.errstate(over="ignore"):
            ratio = dx / np.min(dx)
        raw = np.maximum(0.0, 2.0 - ratio) ** 2 if scheme == "inv-dist" else ratio ** (-p)
        w[:, x] = raw / raw.sum()
    return w


def looped_gentleness(part):
    """``(k_hat, worst_pair)``: the first pair in row-major order with the largest ratio."""
    k = part.space.size
    d = part.space.dist
    w = part.weights
    anchors = list(part.subset)
    best = 0.0
    pair = None
    for x in range(k):
        nums = d[anchors, x] @ np.abs(w[:, [x]] - w)
        for y in range(k):
            if y == x:
                continue
            ratio = nums[y] / d[x, y]
            if ratio > best:
                best = float(ratio)
                pair = (x, y)
    return best, pair


def looped_chain_table(space, f, scheme="inv-dist", p=2.0):
    """``chain_table`` one prefix at a time, through a partition and a
    restrict-then-extend function per prefix."""
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
