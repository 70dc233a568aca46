"""Views of cubes, corner data and tabulated functions that only the tests use."""

from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from lipfree.geometry import GridCell, sign_vectors
from lipfree.interpolation import TabulatedFunction, VertexData
from lipfree.operators import GridLevel, project_values

#: Largest midpoint deviation that :func:`check_axis_affinity` passes.
AFFINITY_TOL = 1e-10


def value_at(f, point):
    """The value a :class:`TabulatedFunction` tabulates at ``point``."""
    return f.values[f.points.index(point)]


def vertex_data(cube, mapping):
    """Corner data from a mapping of sign vectors to values."""
    order = sign_vectors(cube.dim)
    missing = [d for d in order if tuple(d) not in mapping]
    if missing:
        raise ValueError(f"missing corner values for {missing[:3]}...")
    return VertexData(cube=cube, values=tuple(float(mapping[d]) for d in order))


def vertex_restriction(data):
    """The corner values as a tabulated function on the corner points.

    The corner set need not contain the space origin, so the first corner
    is shifted to value zero; Lipschitz constants are shift-invariant.
    """
    pts = tuple(tuple(v) for v in data.cube.vertices())
    shift = data.values[0]
    return TabulatedFunction(points=pts, values=tuple(v - shift for v in data.values), origin=0)


def cube_contains(cube, x):
    """Whether ``x`` lies in the closed cube; a point of another dimension
    raises ValueError, as in the cube's own methods."""
    diff = np.abs(cube._points(x) - np.asarray(cube.center, dtype=float))
    return bool(np.max(diff) <= 0.5 * cube.edge)


def lattice_cube(rng, dim):
    """A random cell of a random level in 1..3, as a cube."""
    level = int(rng.integers(1, 4))
    key = tuple(int(k) for k in rng.integers(0, 1 << (2 * level - 1), size=dim))
    return GridCell(key=key, level=level).cube()


def cell_level(cube):
    """The grid level, in the cube's dimension, whose cells have the cube's edge."""
    return GridLevel(1 - int(np.log2(cube.edge)), dim=cube.dim)


def cell_interpolant(data, xs):
    """Values at the rows ``xs`` of the interpolant of corner data on a cell of
    the tiling, computed as ``project`` computes them: by
    :func:`lipfree.operators.project_values`, of a function that reads each
    weighted corner's value off ``data`` by the corner's side of the centre
    on every axis."""
    cube = data.cube
    place = 2 ** np.arange(cube.dim)[::-1]  # sign_vectors order: the first axis slowest
    values = np.asarray(data.values)
    corners = SimpleNamespace(eval_many=lambda rows: values[(np.asarray(rows) > np.asarray(cube.center)) @ place])
    return project_values(corners, np.asarray(xs, dtype=float).reshape(-1, cube.dim), cell_level(cube))


def axis_segments(cube, count, rng):
    """``count`` random axis-parallel segments inside the cube, as ``(a, b)`` pairs."""
    segments = []
    c = np.asarray(cube.center)
    half = 0.5 * cube.edge
    for _ in range(count):
        axis = int(rng.integers(cube.dim))
        a = c + rng.uniform(-half, half, size=cube.dim)
        b = a.copy()
        a[axis], b[axis] = c[axis] + np.sort(rng.uniform(-half, half, size=2))
        segments.append((a, b))
    return segments


@dataclass(frozen=True)
class AffinityReport:
    """Outcome of a midpoint-affinity scan along sampled segments."""

    worst: float
    passed: bool


def check_axis_affinity(data, segments):
    """Check midpoint affinity of the interpolant along given segments.

    For each segment with endpoints ``a, b`` the deviation
    ``|f(mid) - (f(a) + f(b)) / 2|`` of :func:`cell_interpolant` is computed;
    axis-parallel segments must pass, oblique ones are expected to fail
    (report only, never raises).
    """
    a, b = (np.array([seg[k] for seg in segments], dtype=float).reshape(-1, data.cube.dim) for k in (0, 1))
    fa, fb, fm = (cell_interpolant(data, x) for x in (a, b, 0.5 * (a + b)))
    worst = float(np.max(np.abs(fm - 0.5 * (fa + fb)), initial=0.0))
    return AffinityReport(worst=worst, passed=worst <= AFFINITY_TOL)
