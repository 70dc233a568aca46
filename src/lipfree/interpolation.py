"""Multilinear interpolation of corner data on dyadic cells.

An assignment of one real value per corner of a cell extends to a unique
function on the cell that is affine along every axis-parallel segment: the
blend with the tensor-product weights

    w_delta(t) = prod_i (t_i if delta_i = +1 else 1 - t_i),

``t`` the per-axis offsets of the point in the cell, scaled to [0, 1].  The
weights are exact 0/1 products at corners, so corner values are reproduced,
and they form a convex combination everywhere inside.  They are computed by
:func:`weights_from_offsets`, which :func:`lipfree.operators.cell_weights`
runs on int64 lattice keys; the staged one-axis-at-a-time blend that defines
the same function is kept as :func:`interpolate_recursive`, an oracle only.

The central fact used throughout the package: under the l1 norm the Lipschitz
constant of the blend equals the Lipschitz constant of its corner data, so
blending never inflates Lipschitz bounds.  :func:`lip_constant` and
:func:`max_quotient` give exact constants of tabulated data.
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


def interpolate_recursive(data: VertexData, x) -> float:
    """Oracle: the staged one-axis-at-a-time blend collapsing axis 1 first.

    Kept only for cross-checking :func:`lipfree.operators.cell_weights`;
    both compute the same function.  The corner values, in
    :func:`sign_vectors` order, form a ``(2,) * dim`` table whose index 0 on
    an axis is the sign -1.
    """
    table = np.asarray(data.values).reshape((2,) * data.cube.dim)
    for ti in data.cube.barycentric(x):
        table = ti * table[1] + (1.0 - ti) * table[0]
    return float(table)
