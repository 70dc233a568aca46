"""Loop forms of the chain steps in ``lipfree.extension``, kept as test oracles.

Each walks the points, the ordered pairs or the chain's prefixes one at a
time. The module's array forms must match them bit for bit, ties included.
They share no code with the module: only the row type is imported.
"""

import numpy as np

from lipfree.extension import ChainRow


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


def looped_gentleness(space, subset, w):
    """``(k_hat, worst_pair)`` of the weights ``w[anchor, point]`` on the sorted
    ``subset``: the first pair in row-major order with the largest ratio."""
    k = space.size
    d = space.dist
    anchors = list(subset)
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


def looped_lip_constant(values, d):
    """The largest ``|values[i] - values[j]| / d[i, j]`` over the pairs ``i < j``;
    the first pair whose quotient overflows is named."""
    best = 0.0
    with np.errstate(over="ignore"):
        for i in range(len(values)):
            for j in range(i + 1, len(values)):
                q = abs(values[i] - values[j]) / d[i, j]
                if not np.isfinite(q):
                    raise ValueError(f"the difference quotient of points {i}, {j} (values {float(values[i])!r}, "
                                     f"{float(values[j])!r} at distance {float(d[i, j])!r}) is not finite")
                best = max(best, float(q))
    return best


def looped_chain_table(space, f, scheme="inv-dist", p=2.0):
    """``chain_table`` one prefix and one point at a time: the loop weights,
    the restrict-then-extend values and the loop gentleness per prefix."""
    d = space.dist
    values = np.asarray(f.values)
    lip_f = looped_lip_constant(values, d)
    rows = []
    for subset in looped_farthest_point_chain(space):
        w = looped_partition_weights(space, subset, scheme, p)
        # the anchors' values blended by one vector-matrix product, whose summation
        # order a per-point dot or sum does not reproduce; zero on the subset
        extended = values[list(subset)] @ w
        for x in subset:
            extended[x] = values[x]
        for x, v in enumerate(extended):
            if not abs(v) <= 1e100:
                raise ValueError(f"value at point {x} is {float(v)!r}, beyond the magnitude bound 1e+100")
        rows.append(
            ChainRow(
                size=len(subset),
                k_hat=looped_gentleness(space, subset, w)[0],
                lip_ratio=looped_lip_constant(extended, d) / lip_f if lip_f > 0 else 0.0,
                max_err=float(max(abs(extended - values))),
                cov_radius=looped_covering_radius(space, subset),
            )
        )
    return rows


# Largest (pair, point, point) array of one block of the swept oracle.
_SWEEP_BLOCK_ELEMENTS = 1 << 16


def swept_doubling_estimate(space):
    """The blocked doubling sweep as it stood before its early stop and
    fancy-index gather: every block, every greedy round to the end."""
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
        lo = max(start - 1, 0)
        r = radii[lo:start + step, None, None]
        shut = closed[lo:start + step, None, None]
        members = np.where(shut, d <= r, d < r)
        covers = np.where(shut, 2.0 * d <= r, 2.0 * d < r)
        fresh = np.ones(r.shape[0], dtype=bool)
        fresh[1:] = np.any((members[1:] != members[:-1]) | (covers[1:] != covers[:-1]),
                           axis=(1, 2))
        fresh[:start - lo] = False
        best = max(best, _swept_greedy_rounds(members[fresh], covers[fresh]))
    return best


def _swept_greedy_rounds(uncovered, covers):
    covers_t = covers.transpose(0, 2, 1).astype(np.float32)
    rounds, left = 0, np.count_nonzero(uncovered)
    while left:
        live = uncovered.any(axis=(1, 2))
        uncovered, covers, covers_t = uncovered[live], covers[live], covers_t[live]
        rounds += 1
        gains = uncovered.astype(np.float32) @ covers_t
        gains[~uncovered] = -1
        pick = np.argmax(gains, axis=2)
        uncovered &= ~np.take_along_axis(covers, pick[:, :, None], axis=1)
        before, left = left, np.count_nonzero(uncovered)
        if left == before:
            raise RuntimeError(f"greedy cover round {rounds} covered no point")
    return rounds
