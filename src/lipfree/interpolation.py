"""Multilinear interpolation of vertex data on hypercubes.

An assignment of one real value per corner of a cube extends to a unique
function on the cube that is affine along every axis-parallel segment.  The
extension is computed here through the tensor-product barycentric weights

    w_delta(x) = prod_i (t_i if delta_i = +1 else 1 - t_i),
    t_i = (x_i - c_i + edge/2) / edge,

which reproduce the corner values exactly (the weights are exact 0/1 products
at corners) and form a convex combination everywhere inside.  The staged
one-axis-at-a-time blend that defines the same function is kept as
:func:`interpolate_recursive` purely as a cross-check oracle.

The central fact used throughout the package: under the l1 norm the Lipschitz
constant of the extension equals the Lipschitz constant of its corner
restriction, so blending never inflates Lipschitz bounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .geometry import MAX_MAGNITUDE, Hypercube, check_magnitude, l1_distances, sign_matrix

# Test-build fault injection: when set, interpolation weights are corrupted
# (left unnormalized) so that negative-control checks can observe a failure.
_WEIGHT_FAULT = False

#: How far outside its cube, relative to the edge, a point may lie for
#: :func:`interpolate_batch` and its one-row views; such points are clipped
#: onto the cube.
OUTSIDE_TOL = 1e-9


@dataclass(frozen=True)
class TabulatedFunction:
    """A real function given by its values on a finite point set.

    ``points`` may be coordinate tuples, finitely supported sequences, or
    integer labels into a metric space; ``points[origin]`` is the
    distinguished base point and its value must be exactly zero.  Values
    must be finite and within :data:`lipfree.geometry.MAX_MAGNITUDE`.
    """

    points: tuple
    values: tuple[float, ...]
    origin: int = 0

    def __post_init__(self):
        if len(self.points) != len(self.values):
            raise ValueError("points and values must have equal length")
        if not self.points:
            raise ValueError("need at least the origin point")
        if not (0 <= self.origin < len(self.points)):
            raise ValueError("origin index out of range")
        if self.values[self.origin] != 0.0:
            raise ValueError("value at the origin must be exactly 0")
        if len(set(self.points)) != len(self.points):
            raise ValueError("points must be pairwise distinct")
        values = tuple(float(v) for v in self.values)
        check_values(np.asarray(values))
        object.__setattr__(self, "values", values)

    def value_at(self, point) -> float:
        try:
            pos = self.points.index(point)
        except ValueError:
            raise KeyError(f"point {point!r} is not tabulated") from None
        return self.values[pos]


def check_values(values: np.ndarray) -> None:
    """Reject, by position, the first value not finite or beyond :data:`~lipfree.geometry.MAX_MAGNITUDE`."""
    bad = np.flatnonzero(~(np.abs(values) <= MAX_MAGNITUDE))  # NaN fails the comparison too
    if bad.size:
        pos = int(bad[0])
        v = float(values[pos])
        if not math.isfinite(v):
            raise ValueError(f"value {v} at point {pos} is not finite")
        check_magnitude(v, "value at point {}", pos)


def max_quotient(vals: np.ndarray, pairs, labels: Sequence) -> float:
    """Largest difference quotient ``|vals[i] - vals[j]| / d`` over the pairs
    ``(i, j, d)`` of the points ``labels`` (0 without pairs).  A pair at
    distance zero, or whose quotient overflows, is rejected by name."""
    i, j, d = pairs
    zero = np.flatnonzero(d <= 0.0)
    if zero.size:
        e = zero[0]
        raise ValueError(f"distinct points {labels[i[e]]!r}, {labels[j[e]]!r} at distance {d[e]}")
    with np.errstate(over="ignore"):  # checked below
        quotients = np.abs(vals[i] - vals[j]) / d
    overflow = np.flatnonzero(~np.isfinite(quotients))
    if overflow.size:
        e = overflow[0]
        raise ValueError(f"the difference quotient of points {labels[i[e]]!r}, {labels[j[e]]!r} "
                         f"(values {float(vals[i[e]])!r}, {float(vals[j[e]])!r} at distance {float(d[e])!r}) is not finite")
    return float(np.max(quotients, initial=0.0))


def lip_constant(f: TabulatedFunction, dist=None) -> float:
    """Exact Lipschitz constant of a tabulated function.

    ``dist`` is a square distance matrix indexed by the integer point labels;
    without it the distances are l1 between the tabulated points.  Distinct
    points at distance zero, and a difference quotient that overflows, are
    rejected, naming the first such pair.
    """
    pts = f.points
    d = l1_distances(pts, pts) if dist is None else np.asarray(dist)[np.ix_(pts, pts)]
    i, j = np.triu_indices(len(pts), 1)
    return max_quotient(np.asarray(f.values), (i, j, d[i, j]), pts)


@dataclass(frozen=True)
class VertexData:
    """One real value per corner of a cube, aligned with :func:`sign_vectors`."""

    cube: Hypercube
    values: tuple[float, ...]

    def __post_init__(self):
        expected = 2 ** self.cube.dim
        if len(self.values) != expected:
            raise ValueError(f"need {expected} corner values, got {len(self.values)}")
        vals = tuple(float(v) for v in self.values)
        if not all(np.isfinite(v) for v in vals):
            raise ValueError("corner values must be finite")
        object.__setattr__(self, "values", vals)

    @classmethod
    def from_function(cls, cube: Hypercube, fn: Callable) -> "VertexData":
        return cls(cube=cube, values=tuple(float(fn(v)) for v in cube.vertices()))

    def corner_lip(self) -> float:
        """Lipschitz constant of the corner restriction under l1.

        Corner pairs differing in ``m`` signs are at l1 distance ``m * edge``.
        """
        signs = sign_matrix(self.cube.dim)
        i, j = np.triu_indices(len(signs), 1)
        ham = np.count_nonzero(signs[i] != signs[j], axis=1)
        vals = np.asarray(self.values)
        return float(np.max(np.abs(vals[i] - vals[j]) / (ham * self.cube.edge), initial=0.0))


def weights_from_offsets(t: np.ndarray) -> np.ndarray:
    """Tensor-product weights from per-axis offsets ``t`` in [0, 1].

    Input of shape (m, d) gives output of shape (m, 2**d) aligned with
    :func:`sign_vectors`; each row is nonnegative and sums to one.
    """
    t = np.atleast_2d(np.asarray(t, dtype=float))
    dim = t.shape[1]
    s = sign_matrix(dim)  # (2**d, d)
    w = np.prod(0.5 + s[None, :, :] * (t[:, None, :] - 0.5), axis=2)
    if _WEIGHT_FAULT:
        w = w.copy()
        w[:, 0] *= 1.25
    return w


def _weights(cube: Hypercube, xs) -> np.ndarray:
    """Rows of :func:`weights_from_offsets` at the :meth:`Hypercube.barycentric`
    offsets of the rows of ``xs``."""
    xs = np.atleast_2d(np.asarray(xs, dtype=float))
    if xs.ndim != 2 or xs.shape[1] != cube.dim:
        raise ValueError(f"expected points of dimension {cube.dim}, got shape {xs.shape}")
    t = cube.barycentric(xs)
    outside = np.flatnonzero(~((t >= -OUTSIDE_TOL) & (t <= 1.0 + OUTSIDE_TOL)).all(axis=1))
    if outside.size:  # NaN offsets fail both comparisons
        raise ValueError(f"point {outside[0]} {xs[outside[0]].tolist()} lies outside cube {cube}")
    return weights_from_offsets(np.clip(t, 0.0, 1.0))


def interpolation_weights(cube: Hypercube, x) -> np.ndarray:
    """Barycentric corner weights of ``x`` in ``cube``: the one row of the
    weights :func:`interpolate_batch` takes.

    Returns the (2**dim,) weight vector aligned with :func:`sign_vectors`.
    """
    return _weights(cube, [x])[0]


def interpolate(data: VertexData, x) -> float:
    """Value at ``x`` of the axis-affine extension of the corner data: the
    one row of :func:`interpolate_batch`."""
    return float(interpolate_batch(data, [x])[0])


def interpolate_batch(data: VertexData, xs) -> np.ndarray:
    """Values of the axis-affine extension at the rows of ``xs``.

    Raises on rows of the wrong dimension, and, naming the first such point
    and the cube, when a point lies outside the cube beyond
    :data:`OUTSIDE_TOL` or has a non-finite coordinate; tiny excursions are
    clipped so weights stay in the simplex.
    Each row is summed on its own, so a row's value does not depend on the
    rest of the batch.
    """
    return (_weights(data.cube, xs) * np.asarray(data.values)).sum(axis=1)


def interpolate_recursive(data: VertexData, x) -> float:
    """Oracle: the staged one-axis-at-a-time blend collapsing axis 1 first.

    Kept only for cross-checking :func:`interpolate`; both compute the same
    function.  The corner values, in :func:`sign_vectors` order, form a
    ``(2,) * dim`` table whose index 0 on an axis is the sign -1.
    """
    table = np.asarray(data.values).reshape((2,) * data.cube.dim)
    for ti in data.cube.barycentric(x):
        table = ti * table[1] + (1.0 - ti) * table[0]
    return float(table)


def sample_axis_segments(cube: Hypercube, count: int, rng: np.random.Generator):
    """Random axis-parallel segments inside the cube."""
    segments = []
    c = np.asarray(cube.center)
    half = 0.5 * cube.edge
    for _ in range(count):
        axis = int(rng.integers(cube.dim))
        base = c + rng.uniform(-half, half, size=cube.dim)
        lo, hi = np.sort(rng.uniform(-half, half, size=2))
        a = base.copy()
        b = base.copy()
        a[axis] = c[axis] + lo
        b[axis] = c[axis] + hi
        segments.append((a, b))
    return segments
