"""Views of cubes and corner data that only the tests use."""

import numpy as np

from lipfree.geometry import sign_vectors
from lipfree.interpolation import TabulatedFunction, VertexData


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
