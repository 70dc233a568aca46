"""Dyadic hypercube geometry over l1 spaces.

Everything in this module is organized around the level-n tiling: the big
cube of edge ``2**n`` centered at the origin of R^d is split into cells of
edge ``2**(1 - n)``.  Grid data has one name, the int64 lattice key: key
``j`` on an axis is the coordinate ``j * 2**(1-n) - 2**(n-1)``
(:func:`lattice_coords`), so the vertices are keys ``0 .. 2**(2n-1)`` per
axis and a cell is named by the key of its low corner
(:func:`cell_low_corners`, :class:`GridCell`).  Coordinates made from keys
are integer multiples of ``2**(-n)``, exact as 64-bit floats for levels up
to :data:`MAX_LEVEL`, so equality tests on grid data are exact.
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
        if any(s not in (-1, 1) for s in delta):
            raise ValueError(f"sign vector entries must be -1 or +1, got {tuple(delta)}")
        return np.asarray(self.center, dtype=float) + 0.5 * self.edge * np.asarray(delta, dtype=float)

    def vertices(self) -> np.ndarray:
        """All 2**dim corners, rows aligned with :func:`sign_vectors`."""
        c = np.asarray(self.center, dtype=float)
        return c + 0.5 * self.edge * sign_matrix(self.dim)

    def _points(self, x) -> np.ndarray:
        """``x`` as floats, one point per row of its last axis; a point of
        another dimension raises ValueError naming both dimensions."""
        x = np.asarray(x, dtype=float)
        got = x.shape[-1] if x.ndim else 0
        if got != self.dim:
            raise ValueError(f"a point of dimension {got} given to a cube of dimension {self.dim}")
        return x

    def contains(self, x) -> bool:
        diff = np.abs(self._points(x) - np.asarray(self.center, dtype=float))
        return bool(np.max(diff) <= 0.5 * self.edge)

    def barycentric(self, x) -> np.ndarray:
        """Per-axis offsets of ``x`` from the low corner, scaled to [0, 1]."""
        c = np.asarray(self.center, dtype=float)
        return (self._points(x) - c + 0.5 * self.edge) / self.edge


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


def lattice_coords(keys, level: int) -> np.ndarray:
    """Coordinates ``key * 2**(1-n) - 2**(n-1)`` of int64 lattice keys.

    Key ``j`` on an axis names the level-n grid line at that coordinate, so
    the vertex grid is keys ``0 .. 2**(2n-1)`` per axis; exact up to
    :data:`MAX_LEVEL`.
    """
    return np.asarray(keys, dtype=np.int64) * 2.0 ** (1 - level) - 2.0 ** (level - 1)


def pack_key_rows(keys) -> np.ndarray:
    """One void scalar per row of nonnegative int64 keys, big-endian, so that
    byte order is the rows' lexicographic order: ``np.unique`` then sorts and
    groups whole rows, and ``.view(">i8")`` unpacks them."""
    keys = np.asarray(keys, dtype=np.int64)
    return keys.astype(">i8").view(np.dtype((np.void, 8 * keys.shape[1]))).reshape(-1)


def cell_low_corners(u, level: int) -> np.ndarray:
    """Lattice keys of the low corners of the level-n cells containing the
    rows of ``u``.

    Points are clamped onto the big cube first.  Axis slab ``j`` is the
    half-open interval ``[j*s - half, (j+1)*s - half)`` of width
    ``s = 2**(1-n)``, with ``half = 2**(n-1)``; the topmost slab also holds
    its right endpoint.  ``u`` of shape (m, d) gives int64 keys of shape
    (m, d) in ``0 .. 2**(2n-1) - 1``; the cell spans
    ``[lattice_coords(key), lattice_coords(key + 1)]`` per axis.  A row with
    a non-finite coordinate raises ValueError naming it.
    """
    _check_level(level)
    u = np.atleast_2d(np.asarray(u, dtype=float))
    bad = np.flatnonzero(~np.isfinite(u).all(axis=1))
    if bad.size:
        raise ValueError(f"point {bad[0]} {u[bad[0]].tolist()} has a non-finite coordinate")
    half = 2.0 ** (level - 1)
    j = np.floor((np.clip(u, -half, half) + half) / 2.0 ** (1 - level)).astype(np.int64)
    return np.minimum(j, (1 << (2 * level - 1)) - 1)


@dataclass(frozen=True)
class GridCell:
    """The level-n tiling cell whose low corner has lattice key ``key``."""

    key: tuple[int, ...]
    level: int

    def cube(self) -> Hypercube:
        edge = 2.0 ** (1 - self.level)
        return Hypercube(center=tuple(lattice_coords(self.key, self.level) + 0.5 * edge), edge=edge)


def locate_cube(u, level: int) -> GridCell:
    """The level-n cell of the tiling containing ``u``.

    Boundary points are resolved deterministically by the half-open slabs of
    :func:`cell_low_corners` (in particular a zero coordinate goes to the
    positive side).  Raises if ``u`` has a non-finite coordinate, or lies
    outside the big cube beyond :data:`LOCATE_TOL` (relative to the cube's
    half-edge); callers normally clamp first.
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
    return GridCell(key=tuple(cell_low_corners(u, level)[0].tolist()), level=level)


def tiling_vertex_count(level: int, dim: int) -> int:
    """Exact cardinality of the level-n vertex grid: ``(2**(2n-1) + 1)**dim``."""
    _check_level(level)
    if not (1 <= dim <= MAX_DIM):
        raise ValueError(f"dimension must be in 1..{MAX_DIM}, got {dim}")
    return ((1 << (2 * level - 1)) + 1) ** dim


def tiling_vertices(level: int, dim: int) -> np.ndarray:
    """The full vertex grid of the level-n tiling as a (count, dim) array.

    This is the uniform grid of spacing ``2**(1-n)`` on the big cube
    ``[-2**(n-1), 2**(n-1)]**dim``: every lattice key, last axis fastest.
    Raises with the computed cardinality when it would exceed
    :data:`VERTEX_LIMIT`.
    """
    count = tiling_vertex_count(level, dim)
    if count > VERTEX_LIMIT:
        raise ValueError(
            f"vertex grid for level={level}, dim={dim} has {count} points, exceeding the limit {VERTEX_LIMIT}"
        )
    per_axis = (1 << (2 * level - 1)) + 1
    return lattice_coords(np.indices((per_axis,) * dim).reshape(dim, -1).T, level)


@dataclass(frozen=True, order=True)
class FiniteSupportPoint:
    """A finitely supported real sequence; the computational model of l1.

    Stored as sorted ``(index, value)`` pairs with 1-based indices and all
    zero values dropped, so equal sequences compare and hash equal; points are
    ordered by their pairs.  Values are finite and within :data:`MAX_MAGNITUDE`.
    The empty point is the origin.
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


def embed_rows(coords) -> list[FiniteSupportPoint]:
    """:func:`embed_finite` of each row of a 2-d array, from one scan for the
    nonzero entries."""
    coords = np.asarray(coords, dtype=float)
    rows, cols = np.nonzero(coords)
    items = [[] for _ in range(len(coords))]
    for r, i, v in zip(rows.tolist(), (cols + 1).tolist(), coords[rows, cols].tolist()):
        items[r].append((i, v))
    return [FiniteSupportPoint(items=tuple(pairs)) for pairs in items]


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
#: differences (or, for sparse points, this many running-sum terms).
_L1_BLOCK_ELEMENTS = 1 << 16


def l1_distances(a, b) -> np.ndarray:
    """Matrix of :func:`l1_distance` over all pairs: ``[i, j]`` is
    ``l1_distance(a[i], b[j])``, bit for bit.

    ``a`` and ``b`` hold equal-length coordinate rows, or finitely supported
    points (a coordinate row among them is embedded).  Coordinate rows sum
    ``|a_i - b_j|`` along the last axis exactly as ``np.sum`` does on one
    pair.  Sparse points keep the scalar order: one running sum over the
    support of ``a[i]`` and one over the rest of ``b[j]``'s, each in index
    order, added at the end; the work per pair follows the two supports, so
    a large index costs no more than a small one.  Work runs in blocks of at
    most :data:`_L1_BLOCK_ELEMENTS` elements.  A 2-d array is used as it is.
    """
    a, b = (p if isinstance(p, np.ndarray) and p.ndim == 2 else list(p) for p in (a, b))
    out = np.zeros((len(a), len(b)))
    if not len(a) or not len(b):
        return out
    listed = [p for side in (a, b) if isinstance(side, list) for p in side]
    if any(issubclass(t, FiniteSupportPoint) for t in set(map(type, listed))):
        a = [p if isinstance(p, FiniteSupportPoint) else embed_finite(p) for p in a]
        b = [q if isinstance(q, FiniteSupportPoint) else embed_finite(q) for q in b]
        width, block = 2 * max(1, *(len(p.items) for p in a + b)), _sparse_l1_block
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
        rows = np.asarray(points, dtype=float)
    except ValueError:
        rows = None
    if rows is None or rows.ndim != 2:
        raise ValueError("expected equal-length coordinate rows")
    return rows


def _dense_l1_block(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.abs(a[:, None, :] - b[None, :, :]).sum(-1)


def _sparse_l1_block(ps, qs) -> np.ndarray:
    """:func:`l1_distance` over sparse pairs, from their support entries.

    ``terms[e, i, j]`` holds two running-sum terms: ``a[i]``'s ``e``-th
    support entry against ``b[j]`` there, and ``b[j]``'s ``e``-th entry when
    ``a[i]`` lacks its index; both are 0 past a support's end.  Entries that
    share an index are matched through one sort of ``b``'s entries by index
    rank, so the work follows the supports.  The sums over ``e`` add in
    index order, as the scalar does: NumPy adds in plain order along an axis
    that is not the fast one in memory, and the last axis, of length 2,
    keeps it so even for a single pair.
    """
    index = sorted({i for p in (*ps, *qs) for i, _ in p.items})
    rank = {i: r for r, i in enumerate(index)}

    def entries(pts):
        """Index rank, row, position in the support and value of every entry."""
        lens = [len(p.items) for p in pts]
        rows = np.repeat(np.arange(len(pts)), lens)
        return (np.array([rank[i] for p in pts for i, _ in p.items], dtype=np.intp), rows,
                np.arange(len(rows)) - np.repeat(np.cumsum(lens) - lens, lens),
                np.array([v for p in pts for _, v in p.items], dtype=float))

    (ar, ai, ap, av), (br, bj, bq, bv) = entries(ps), entries(qs)
    terms = np.zeros((max(1, *(len(p.items) for p in (*ps, *qs))), len(ps), len(qs), 2))
    terms[ap, ai, :, 0] = np.abs(av)[:, None]
    terms[bq, :, bj, 1] = np.abs(bv)[:, None]
    # Pair each entry e of a with every entry f of b of the same index rank.
    per_rank = np.bincount(br, minlength=len(index))
    count = per_rank[ar]
    e = np.repeat(np.arange(len(ar)), count)
    f = np.argsort(br)[np.repeat((np.cumsum(per_rank) - per_rank)[ar], count)
                       + np.arange(len(e)) - np.repeat(np.cumsum(count) - count, count)]
    terms[ap[e], ai[e], bj[f], 0] = np.abs(av[e] - bv[f])
    terms[bq[f], ai[e], bj[f], 1] = 0.0
    total = np.add.reduce(terms, axis=0)
    return total[:, :, 0] + total[:, :, 1]
