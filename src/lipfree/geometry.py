"""Dyadic hypercube geometry over l1 spaces.

Everything in this module is organized around the level-n tiling: the big
cube of edge ``2**n`` centered at the origin of R^d is split into cells of
edge ``2**(1 - n)``.  Cell centers, vertices and the uniform vertex grid are
all integer multiples of ``2**(-n)``, so for levels up to :data:`MAX_LEVEL`
every coordinate produced here is exactly representable as a 64-bit float and
equality tests on grid data are exact (no rational arithmetic needed).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Mapping

import numpy as np

#: Largest supported tiling level.  Coordinates stay exact well beyond this;
#: the cap just keeps grid cardinalities within desk scale.
MAX_LEVEL = 20

#: Largest ambient dimension for tilings (a cell has 2**dim corners).
MAX_DIM = 16

#: Ceiling on the number of points :func:`tiling_vertices` will build.
VERTEX_LIMIT = 4_000_000

#: How far (relative to the big cube's half-edge) :func:`locate_cube` accepts
#: a point outside the big cube.
LOCATE_TOL = 1e-9

#: Largest magnitude of an input number: a coordinate, a coefficient, a
#: distance or a tabulated value.  Within it an l1 distance over 16
#: coordinates (at most 3.2e101), a coordinate scaled by ``2**MAX_LEVEL``,
#: and sums of products of two such numbers (the norm's pairing ``c.x``, the
#: squared partition weights) stay far below overflow at 1.8e308.
MAX_MAGNITUDE = 1e100


def check_magnitude(x, what: str, *args) -> None:
    """Raise a ValueError naming ``what.format(*args)`` and ``x`` when ``|x|``
    exceeds :data:`MAX_MAGNITUDE`; the message is built only then."""
    if abs(x) > MAX_MAGNITUDE:
        raise ValueError(f"{what.format(*args)} is {float(x)!r}, beyond the magnitude bound {MAX_MAGNITUDE:g}")


@lru_cache(maxsize=64)
def sign_vectors(dim: int) -> tuple[tuple[int, ...], ...]:
    """All vectors in {-1, +1}**dim in a fixed lexicographic order."""
    if dim < 0:
        raise ValueError("dimension must be nonnegative")
    return tuple(itertools.product((-1, 1), repeat=dim))


@lru_cache(maxsize=64)
def sign_matrix(dim: int) -> np.ndarray:
    """:func:`sign_vectors` stacked as a read-only (2**dim, dim) float array."""
    m = np.array(sign_vectors(dim), dtype=float).reshape(2**dim, dim)
    m.flags.writeable = False
    return m


def _check_signs(delta: tuple[int, ...]) -> None:
    if any(s not in (-1, 1) for s in delta):
        raise ValueError(f"sign vector entries must be -1 or +1, got {delta}")


@dataclass(frozen=True)
class Hypercube:
    """Axis-aligned cube: all points within ``edge / 2`` of ``center`` in sup norm."""

    center: tuple[float, ...]
    edge: float

    def __post_init__(self):
        if not self.center:
            raise ValueError("hypercube needs at least one dimension")
        if not (self.edge > 0):
            raise ValueError(f"edge must be positive, got {self.edge}")
        object.__setattr__(self, "center", tuple(float(c) for c in self.center))
        object.__setattr__(self, "edge", float(self.edge))

    @property
    def dim(self) -> int:
        return len(self.center)

    def vertex(self, delta: tuple[int, ...]) -> np.ndarray:
        """The corner ``center + (edge / 2) * delta``."""
        if len(delta) != self.dim:
            raise ValueError(f"sign vector length {len(delta)} != dimension {self.dim}")
        _check_signs(tuple(delta))
        return np.asarray(self.center, dtype=float) + 0.5 * self.edge * np.asarray(delta, dtype=float)

    def vertices(self) -> np.ndarray:
        """All 2**dim corners, rows aligned with :func:`sign_vectors`."""
        c = np.asarray(self.center, dtype=float)
        return c + 0.5 * self.edge * sign_matrix(self.dim)

    def contains(self, x) -> bool:
        diff = np.abs(np.asarray(x, dtype=float) - np.asarray(self.center, dtype=float))
        return bool(np.max(diff) <= 0.5 * self.edge)

    def barycentric(self, x) -> np.ndarray:
        """Per-axis offsets of ``x`` from the low corner, scaled to [0, 1]."""
        x = np.asarray(x, dtype=float)
        c = np.asarray(self.center, dtype=float)
        return (x - c + 0.5 * self.edge) / self.edge


@dataclass(frozen=True)
class DyadicCubeIndex:
    """Address ``(eps, h, k)`` of a cell in the dyadic tiling.

    The cell has edge ``2**(-k)`` and center
    ``2**(-k-1) * eps + 2**(-k) * (eps_1 h_1, ..., eps_d h_d)`` relative to the
    grid base point.  In the level-n tiling of the big cube, ``k = n - 1`` and
    each ``h_i`` ranges over ``0 .. 2**(2n-2) - 1``.
    """

    eps: tuple[int, ...]
    h: tuple[int, ...]
    k: int

    def __post_init__(self):
        _check_signs(self.eps)
        if len(self.eps) != len(self.h):
            raise ValueError("eps and h must have equal length")
        if any(hi < 0 for hi in self.h):
            raise ValueError("h entries must be nonnegative")
        if self.k < 0:
            raise ValueError("scale k must be nonnegative")

    @property
    def dim(self) -> int:
        return len(self.eps)

    def center(self, base=None) -> np.ndarray:
        """Dyadic grid point ``base + 2**(-k-1) eps + 2**(-k) (eps_i h_i)_i``."""
        base = np.zeros(self.dim) if base is None else np.asarray(base, dtype=float)
        if base.shape != (self.dim,):
            raise ValueError(f"base point has shape {base.shape}, index has dimension {self.dim}")
        eps = np.asarray(self.eps, dtype=float)
        h = np.asarray(self.h, dtype=float)
        return base + 2.0 ** (-self.k - 1) * eps + 2.0 ** (-self.k) * eps * h

    def cube(self, base=None) -> Hypercube:
        return Hypercube(center=tuple(self.center(base)), edge=2.0 ** (-self.k))


def clamp_to_cube(x, edge: float) -> np.ndarray:
    """Coordinatewise clamp onto the origin-centered cube of the given edge.

    The nearest-point retraction onto the cube; 1-Lipschitz in l1 and exact
    (pure comparisons, no rounding).
    """
    if not (edge > 0):
        raise ValueError("edge must be positive")
    half = 0.5 * edge
    return np.clip(np.asarray(x, dtype=float), -half, half)


def _check_level(level: int) -> None:
    if not (1 <= level <= MAX_LEVEL):
        raise ValueError(f"level must be in 1..{MAX_LEVEL}, got {level}")


def slab_indices(u, level: int) -> np.ndarray:
    """Global per-axis slab indices of points inside the level-n big cube.

    Axis slabs are the half-open intervals ``[j*s - half, (j+1)*s - half)``
    of width ``s = 2**(1-n)`` covering ``[-half, half]`` with
    ``half = 2**(n-1)``; the topmost slab also contains its right endpoint.
    Input of shape (..., d) gives integer output of the same shape with
    values in ``0 .. 2**(2n-1) - 1``.
    """
    _check_level(level)
    u = np.asarray(u, dtype=float)
    half = 2.0 ** (level - 1)
    s = 2.0 ** (1 - level)
    per_axis = 1 << (2 * level - 1)
    j = np.floor((u + half) / s).astype(np.int64)
    return np.clip(j, 0, per_axis - 1)


def locate_cube(u, level: int) -> DyadicCubeIndex:
    """Find the level-n cell of the tiling containing ``u``.

    Boundary points are resolved deterministically by the half-open slab
    convention of :func:`slab_indices` (in particular a zero coordinate goes
    to the positive side).  Raises if ``u`` lies outside the big cube beyond
    :data:`LOCATE_TOL` (relative to the cube's half-edge); callers normally
    clamp first.
    """
    _check_level(level)
    u = np.asarray(u, dtype=float)
    if u.ndim != 1 or u.size == 0:
        raise ValueError("expected a nonempty 1-d point")
    if u.size > MAX_DIM:
        raise ValueError(f"dimension {u.size} exceeds cap {MAX_DIM}")
    half = 2.0 ** (level - 1)
    if np.max(np.abs(u)) > half * (1.0 + LOCATE_TOL) + LOCATE_TOL:
        raise ValueError(f"point {u.tolist()} lies outside the level-{level} cube of half-edge {half}")
    j = slab_indices(np.clip(u, -half, half), level)
    n_half = 1 << (2 * level - 2)
    eps = tuple(1 if ji >= n_half else -1 for ji in j)
    h = tuple(int(ji - n_half) if ji >= n_half else int(n_half - 1 - ji) for ji in j)
    return DyadicCubeIndex(eps=eps, h=h, k=level - 1)


def cell_low_corners(u, level: int) -> np.ndarray:
    """Low corners of the level-n cells containing each row of ``u``.

    Vectorized companion of :func:`locate_cube` for batched interpolation:
    ``u`` of shape (m, d) gives (m, d) low corners; the cell spans
    ``[corner, corner + 2**(1-n)]`` per axis.  Points are clamped onto the
    big cube first.
    """
    _check_level(level)
    u = np.atleast_2d(np.asarray(u, dtype=float))
    half = 2.0 ** (level - 1)
    s = 2.0 ** (1 - level)
    j = slab_indices(np.clip(u, -half, half), level)
    return j * s - half


def tiling_vertex_count(level: int, dim: int) -> int:
    """Exact cardinality of the level-n vertex grid: ``(2**(2n-1) + 1)**dim``."""
    _check_level(level)
    if dim < 1:
        raise ValueError("dimension must be positive")
    return ((1 << (2 * level - 1)) + 1) ** dim


def tiling_vertices(level: int, dim: int) -> np.ndarray:
    """The full vertex grid of the level-n tiling as a (count, dim) array.

    This is the uniform grid of spacing ``2**(1-n)`` on the big cube
    ``[-2**(n-1), 2**(n-1)]**dim``.  Raises with the computed cardinality when
    it would exceed :data:`VERTEX_LIMIT`.
    """
    _check_level(level)
    if not (1 <= dim <= MAX_DIM):
        raise ValueError(f"dimension must be in 1..{MAX_DIM}, got {dim}")
    count = tiling_vertex_count(level, dim)
    if count > VERTEX_LIMIT:
        raise ValueError(
            f"vertex grid for level={level}, dim={dim} has {count} points, exceeding the limit {VERTEX_LIMIT}"
        )
    half = 2.0 ** (level - 1)
    s = 2.0 ** (1 - level)
    per_axis = (1 << (2 * level - 1)) + 1
    axis = -half + s * np.arange(per_axis)
    grids = np.meshgrid(*([axis] * dim), indexing="ij")
    return np.stack([g.ravel() for g in grids], axis=1)


@dataclass(frozen=True)
class FiniteSupportPoint:
    """A finitely supported real sequence; the computational model of l1.

    Stored as sorted ``(index, value)`` pairs with 1-based indices and all
    zero values dropped, so equal sequences compare and hash equal.  Values
    are finite and within :data:`MAX_MAGNITUDE`.  The empty point is the
    origin.
    """

    items: tuple[tuple[int, float], ...] = ()

    def __post_init__(self):
        prev = 0
        for idx, val in self.items:
            if not isinstance(idx, int) or idx < 1:
                raise ValueError(f"indices must be integers >= 1, got {idx!r}")
            if idx <= prev:
                raise ValueError(f"indices must be strictly increasing, got {idx} after {prev}")
            if not abs(val) <= MAX_MAGNITUDE:  # NaN fails the comparison too
                if not np.isfinite(val):
                    raise ValueError(f"value at index {idx} is not finite")
                check_magnitude(val, "value at index {}", idx)
            if val == 0.0:
                raise ValueError(f"value at index {idx} is zero; use from_pairs to drop zeros")
            prev = idx

    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple[int, float]]) -> "FiniteSupportPoint":
        merged: dict[int, float] = {}
        for idx, val in pairs:
            merged[int(idx)] = merged.get(int(idx), 0.0) + float(val)
        items = tuple(sorted((i, v) for i, v in merged.items() if v != 0.0))
        return cls(items=items)

    @classmethod
    def from_dict(cls, coords: Mapping) -> "FiniteSupportPoint":
        return cls.from_pairs((int(k), float(v)) for k, v in coords.items())

    @classmethod
    def from_dense(cls, values) -> "FiniteSupportPoint":
        return cls.from_pairs((i + 1, float(v)) for i, v in enumerate(np.asarray(values, dtype=float)))

    @classmethod
    def zero(cls) -> "FiniteSupportPoint":
        return cls(items=())

    @property
    def is_zero(self) -> bool:
        return not self.items

    @property
    def support(self) -> tuple[int, ...]:
        return tuple(i for i, _ in self.items)

    def coord(self, index: int) -> float:
        for i, v in self.items:
            if i == index:
                return v
        return 0.0

    def norm1(self) -> float:
        return float(sum(abs(v) for _, v in self.items))

    def tail(self, n: int) -> float:
        """Exact l1 mass beyond the first ``n`` coordinates."""
        return float(sum(abs(v) for i, v in self.items if i > n))

    def leading(self, n: int) -> np.ndarray:
        """The first ``n`` coordinates as a dense vector."""
        out = np.zeros(n)
        for i, v in self.items:
            if i <= n:
                out[i - 1] = v
        return out

    def to_json(self) -> dict:
        return {"coords": {str(i): v for i, v in self.items}}

    @classmethod
    def from_json(cls, obj: Mapping) -> "FiniteSupportPoint":
        return cls.from_dict(obj["coords"])


def embed_finite(values) -> FiniteSupportPoint:
    """Zero-padded injection of a finite coordinate vector into l1 (isometric)."""
    return FiniteSupportPoint.from_dense(values)


def l1_distance(p, q) -> float:
    """l1 distance between two points given sparsely or densely."""
    if isinstance(p, FiniteSupportPoint) or isinstance(q, FiniteSupportPoint):
        if not isinstance(p, FiniteSupportPoint):
            p = embed_finite(p)
        if not isinstance(q, FiniteSupportPoint):
            q = embed_finite(q)
        rest = dict(q.items)
        total = 0.0
        for i, v in p.items:
            total += abs(v - rest.pop(i, 0.0))
        return total + sum(abs(v) for v in rest.values())
    a = np.asarray(p, dtype=float)
    b = np.asarray(q, dtype=float)
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    return float(np.sum(np.abs(a - b)))


#: Element budget of one block of :func:`l1_distances`: a block of rows of
#: ``a`` against a block of rows of ``b`` holds at most this many coordinate
#: differences (or, for sparse points, this many pair accumulators).
_L1_BLOCK_ELEMENTS = 1 << 16


def l1_distances(a, b) -> np.ndarray:
    """Matrix of :func:`l1_distance` over all pairs: ``[i, j]`` is
    ``l1_distance(a[i], b[j])``, bit for bit.

    ``a`` and ``b`` hold equal-length coordinate rows, or finitely supported
    points (a coordinate row among them is embedded).  Coordinate rows sum
    ``|a_i - b_j|`` along the last axis exactly as ``np.sum`` does on one
    pair.  Sparse points keep the scalar order: one running sum over the
    support of ``a[i]`` and one over the rest of ``b[j]``'s, each in index
    order, added at the end; columns are the indices that occur, so a large
    index costs one column.  Work runs in blocks of at most
    :data:`_L1_BLOCK_ELEMENTS` elements.
    """
    a, b = list(a), list(b)
    out = np.zeros((len(a), len(b)))
    if not a or not b:
        return out
    if any(issubclass(t, FiniteSupportPoint) for t in set(map(type, a + b))):
        a = [p if isinstance(p, FiniteSupportPoint) else embed_finite(p) for p in a]
        b = [q if isinstance(q, FiniteSupportPoint) else embed_finite(q) for q in b]
        width, block = 1, _sparse_l1_block
    else:
        a, b = _coordinate_rows(a), _coordinate_rows(b)
        if a.shape[1] != b.shape[1]:
            raise ValueError(f"dimension mismatch: {a.shape[1:]} vs {b.shape[1:]}")
        width, block = max(a.shape[1], 1), _dense_l1_block
    cols = min(len(b), max(1, _L1_BLOCK_ELEMENTS // width))
    rows = max(1, _L1_BLOCK_ELEMENTS // (cols * width))
    for i in range(0, len(a), rows):
        for j in range(0, len(b), cols):
            out[i:i + rows, j:j + cols] = block(a[i:i + rows], b[j:j + cols])
    return out


def _coordinate_rows(points) -> np.ndarray:
    try:
        rows = np.array(points, dtype=float)
    except ValueError:
        rows = None
    if rows is None or rows.ndim != 2:
        raise ValueError("expected equal-length coordinate rows")
    return rows


def _dense_l1_block(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.abs(a[:, None, :] - b[None, :, :]).sum(-1)


def _sparse_l1_block(ps, qs) -> np.ndarray:
    """:func:`l1_distance` over sparse pairs, one column (index) at a time."""
    by_index: dict[int, tuple[list, list, list, list]] = {}
    for side, pts in ((0, ps), (2, qs)):
        for r, p in enumerate(pts):
            for idx, v in p.items:
                entry = by_index.setdefault(idx, ([], [], [], []))
                entry[side].append(r)
                entry[side + 1].append(v)
    first = np.zeros((len(ps), len(qs)))  # over the support of ps[i]
    rest = np.zeros((len(ps), len(qs)))  # over the rest of the support of qs[j]
    in_p = np.zeros(len(ps), dtype=bool)
    for idx in sorted(by_index):
        p_rows, p_vals, q_rows, q_vals = by_index[idx]
        y = np.zeros(len(qs))
        y[q_rows] = q_vals
        if p_rows:
            first[p_rows] += np.abs(np.array(p_vals)[:, None] - y[None, :])
        if q_rows:
            in_p[p_rows] = True
            rest[:, q_rows] += np.where(in_p[:, None], 0.0, np.abs(q_vals))
            in_p[p_rows] = False
    return first + rest
