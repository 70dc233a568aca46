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
from functools import lru_cache
from typing import Callable, Mapping, Sequence

import numpy as np

from .geometry import Hypercube, check_magnitude, l1_distances, sign_matrix, sign_vectors

# Test-build fault injection: when set, interpolation weights are corrupted
# (left unnormalized) so that negative-control checks can observe a failure.
_WEIGHT_FAULT = False

#: How far outside its cube, relative to the edge, a point may lie for
#: :func:`interpolation_weights`, :func:`interpolate` and
#: :func:`interpolate_batch`; such points are clipped onto the cube.
OUTSIDE_TOL = 1e-9

#: Largest midpoint deviation that :func:`check_axis_affinity` passes.
AFFINITY_TOL = 1e-10


@lru_cache(maxsize=64)
def _sign_index(dim: int) -> dict[tuple[int, ...], int]:
    return {delta: pos for pos, delta in enumerate(sign_vectors(dim))}


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
        for pos, v in enumerate(values):
            if not math.isfinite(v):
                raise ValueError(f"value {v} at point {pos} is not finite")
            check_magnitude(v, "value at point {}", pos)
        object.__setattr__(self, "values", values)

    def value_at(self, point) -> float:
        try:
            pos = self.points.index(point)
        except ValueError:
            raise KeyError(f"point {point!r} is not tabulated") from None
        return self.values[pos]

    def as_mapping(self) -> dict:
        return dict(zip(self.points, self.values))


def lip_constant(f: TabulatedFunction, dist=None) -> float:
    """Exact Lipschitz constant of a tabulated function.

    ``dist`` is a square distance matrix indexed by the integer point labels;
    without it the distances are l1 between the tabulated points.  Distinct
    points at distance zero are rejected, naming the first such pair.
    """
    pts = f.points
    if len(pts) < 2:
        return 0.0
    d = l1_distances(pts, pts) if dist is None else np.asarray(dist)[np.ix_(pts, pts)]
    i, j = np.triu_indices(len(pts), 1)
    d = d[i, j]
    zero = np.flatnonzero(d <= 0.0)
    if zero.size:
        e = zero[0]
        raise ValueError(f"distinct points {pts[i[e]]!r}, {pts[j[e]]!r} at distance {d[e]}")
    vals = np.asarray(f.values)
    with np.errstate(over="ignore"):  # an overflowing quotient is inf, as in float arithmetic
        return float(np.max(np.abs(vals[i] - vals[j]) / d))


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
    def from_mapping(cls, cube: Hypercube, mapping: Mapping[tuple[int, ...], float]) -> "VertexData":
        order = sign_vectors(cube.dim)
        missing = [d for d in order if tuple(d) not in mapping]
        if missing:
            raise ValueError(f"missing corner values for {missing[:3]}...")
        return cls(cube=cube, values=tuple(float(mapping[d]) for d in order))

    @classmethod
    def from_function(cls, cube: Hypercube, fn: Callable) -> "VertexData":
        return cls(cube=cube, values=tuple(float(fn(v)) for v in cube.vertices()))

    def value(self, delta: tuple[int, ...]) -> float:
        return self.values[_sign_index(self.cube.dim)[tuple(delta)]]

    def vertex_restriction(self) -> TabulatedFunction:
        """The corner values as a tabulated function on the corner points.

        The corner set need not contain the space origin, so the first corner
        is shifted to value zero; Lipschitz constants are shift-invariant.
        """
        pts = tuple(tuple(v) for v in self.cube.vertices())
        shift = self.values[0]
        return TabulatedFunction(points=pts, values=tuple(v - shift for v in self.values), origin=0)

    def corner_lip(self) -> float:
        """Lipschitz constant of the corner restriction under l1.

        Corner pairs differing in ``m`` signs are at l1 distance ``m * edge``.
        """
        dim = self.cube.dim
        signs = sign_vectors(dim)
        vals = self.values
        edge = self.cube.edge
        best = 0.0
        for i in range(len(signs)):
            for j in range(i + 1, len(signs)):
                ham = sum(1 for a, b in zip(signs[i], signs[j]) if a != b)
                q = abs(vals[i] - vals[j]) / (ham * edge)
                if q > best:
                    best = q
        return best


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


def interpolation_weights(cube: Hypercube, x) -> np.ndarray:
    """Barycentric corner weights of ``x`` in ``cube``.

    Returns the (2**dim,) weight vector aligned with :func:`sign_vectors`.
    Raises when ``x`` lies outside the cube beyond :data:`OUTSIDE_TOL`; tiny
    excursions are clipped so weights stay in the simplex.
    """
    t = cube.barycentric(x)
    if np.min(t) < -OUTSIDE_TOL or np.max(t) > 1.0 + OUTSIDE_TOL:
        raise ValueError(f"point {np.asarray(x).tolist()} lies outside cube {cube}")
    t = np.clip(t, 0.0, 1.0)
    return weights_from_offsets(t[None, :])[0]


def interpolate(data: VertexData, x) -> float:
    """Value at ``x`` of the axis-affine extension of the corner data."""
    w = interpolation_weights(data.cube, x)
    return float(w @ np.asarray(data.values))


def interpolate_batch(data: VertexData, xs) -> np.ndarray:
    """Vectorized :func:`interpolate` over rows of ``xs``."""
    xs = np.atleast_2d(np.asarray(xs, dtype=float))
    t = (xs - np.asarray(data.cube.center)) / data.cube.edge + 0.5
    if np.min(t) < -OUTSIDE_TOL or np.max(t) > 1.0 + OUTSIDE_TOL:
        raise ValueError("some points lie outside the cube")
    w = weights_from_offsets(np.clip(t, 0.0, 1.0))
    return w @ np.asarray(data.values)


def interpolate_recursive(data: VertexData, x) -> float:
    """Oracle: the staged one-axis-at-a-time blend collapsing axis 1 first.

    Kept only for cross-checking :func:`interpolate`; both compute the same
    function.
    """
    dim = data.cube.dim
    t = data.cube.barycentric(x)
    table = {
        gamma: t[0] * data.value((1,) + gamma) + (1.0 - t[0]) * data.value((-1,) + gamma)
        for gamma in sign_vectors(dim - 1)
    }
    for j in range(2, dim + 1):
        table = {
            gamma: t[j - 1] * table[(1,) + gamma] + (1.0 - t[j - 1]) * table[(-1,) + gamma]
            for gamma in sign_vectors(dim - j)
        }
    return float(table[()])


@dataclass(frozen=True)
class AffinityReport:
    """Outcome of a midpoint-affinity scan along sampled segments."""

    worst: float
    segments: int
    passed: bool


def check_axis_affinity(data: VertexData, segments: Sequence[tuple[np.ndarray, np.ndarray]]) -> AffinityReport:
    """Check midpoint affinity of the interpolant along given segments.

    For each segment with endpoints ``a, b`` the deviation
    ``|f(mid) - (f(a) + f(b)) / 2|`` is computed; axis-parallel segments must
    pass, oblique ones are expected to fail (report only, never raises).
    """
    worst = 0.0
    for a, b in segments:
        a = np.asarray(a, dtype=float)
        b = np.asarray(b, dtype=float)
        mid = 0.5 * (a + b)
        dev = abs(interpolate(data, mid) - 0.5 * (interpolate(data, a) + interpolate(data, b)))
        worst = max(worst, dev)
    return AffinityReport(worst=worst, segments=len(segments), passed=worst <= AFFINITY_TOL)


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
