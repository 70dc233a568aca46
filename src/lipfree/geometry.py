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

A point of l1 is a :class:`FiniteSupportPoint`; a batch of them has one
array layout, :class:`SparseBatch` (CSR-style ``indptr``, ``index``,
``value``), made from dense rows by one ``np.nonzero`` or from points by one
pass over their items.  :func:`l1_distances` lays out each side once and
runs its sparse blocks on slices of the layouts.  Points from input are
read by :func:`sparse_point` (one point of l1) and :func:`coordinate_rows`
(a batch of coordinate points, checked in one array pass).
"""

from __future__ import annotations

import itertools
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

#: Largest supported tiling level.  Coordinates stay exact well beyond this;
#: the cap just keeps grid cardinalities within desk scale.
MAX_LEVEL = 20

#: Largest ambient dimension for tilings (a cell has 2**dim corners).
MAX_DIM = 16

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


def as_index(v, what: str) -> int:
    """An index or origin read from input as an int; a value that is not an
    integer (``1.7``, ``"1"``, ``inf``) raises ValueError naming it."""
    if isinstance(v, (int, np.integer)) or isinstance(v, float) and v.is_integer():
        return int(v)
    raise ValueError(f"{what} {v!r} is not an integer")


def coordinate_rows(points, dim: int | None = None) -> np.ndarray:
    """Coordinate points from input as ``(m, dim)`` float rows, checked in one
    array pass: flat, of one dimension (``dim`` when given), finite and within
    :data:`MAX_MAGNITUDE`.  A batch that fails is walked point by point only
    to name its first bad point."""
    points = list(points)
    if not points:
        return np.zeros((0, dim or 0))
    rows = _floats(points)
    if rows is not None and rows.ndim == 2 and dim in (None, rows.shape[1]) and np.all(np.abs(rows) <= MAX_MAGNITUDE):
        return rows  # NaN fails the comparison too
    for p in points:
        arr = _floats(p)
        if arr is None or arr.ndim != 1:
            raise ValueError(f"point {p!r} is not a flat list of coordinates")
        dim = len(arr) if dim is None else dim
        if len(arr) != dim:
            raise ValueError(f"all points must share one dimension: expected points of dimension {dim}, "
                             f"got shape {arr.shape}")
        pt = tuple(arr.tolist())
        if not np.all(np.isfinite(arr)):
            raise ValueError(f"point {pt} has a non-finite coordinate")
        check_magnitude(max(pt, key=abs, default=0.0), "coordinate of point {}", pt)
    raise ValueError("expected equal-length coordinate rows")


def _floats(x) -> np.ndarray | None:
    """``x`` as a float array, or None where it does not convert (a string, a ragged list)."""
    try:
        return np.asarray(x, dtype=float)
    except (TypeError, ValueError, OverflowError):
        return None


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

    def barycentric(self, x) -> np.ndarray:
        """Per-axis offsets of ``x`` from the low corner, scaled to [0, 1]."""
        c = np.asarray(self.center, dtype=float)
        return (self._points(x) - c + 0.5 * self.edge) / self.edge


def _check_level(level) -> None:
    if not np.all((np.asarray(level) >= 1) & (np.asarray(level) <= MAX_LEVEL)):
        raise ValueError(f"level must be in 1..{MAX_LEVEL}, got {level}")


def lattice_coords(keys, level) -> np.ndarray:
    """Coordinates ``key * 2**(1-n) - 2**(n-1)`` of int64 lattice keys.

    Key ``j`` on an axis names the level-n grid line at that coordinate, so
    the vertex grid is keys ``0 .. 2**(2n-1)`` per axis; exact up to
    :data:`MAX_LEVEL`.  ``level`` may be an array broadcast against ``keys``.
    """
    return np.asarray(keys, dtype=np.int64) * 2.0 ** (1 - level) - 2.0 ** (level - 1)


def pack_key_rows(keys) -> np.ndarray:
    """One void scalar per row of nonnegative int64 keys, big-endian, so that
    byte order is the rows' lexicographic order: ``np.unique`` then sorts and
    groups whole rows, and ``.view(">i8")`` unpacks them."""
    keys = np.asarray(keys, dtype=np.int64)
    return keys.astype(">i8").view(np.dtype((np.void, 8 * keys.shape[1]))).reshape(-1)


def cell_low_corners(u, level) -> np.ndarray:
    """Lattice keys of the low corners of the level-n cells containing the
    rows of ``u``.

    Points are clamped onto the big cube first.  Axis slab ``j`` is the
    half-open interval ``[j*s - half, (j+1)*s - half)`` of width
    ``s = 2**(1-n)``, with ``half = 2**(n-1)``; the topmost slab also holds
    its right endpoint.  ``u`` of shape (m, d) gives int64 keys of shape
    (m, d) in ``0 .. 2**(2n-1) - 1``; the cell spans
    ``[lattice_coords(key), lattice_coords(key + 1)]`` per axis.  A row with
    a non-finite coordinate raises ValueError naming it.  ``level`` may be an ``(m, 1)`` column.
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
        return cls.from_pairs((int(k), float(v)) for k, v in obj["coords"].items())


def sparse_point(p) -> FiniteSupportPoint:
    """A point of l1 from input: a :class:`FiniteSupportPoint` as it is, a
    ``{"coords": {...}}`` object, or a dense list of coordinates."""
    if isinstance(p, FiniteSupportPoint):
        return p
    if isinstance(p, Mapping):
        return FiniteSupportPoint.from_json(p)
    return FiniteSupportPoint.from_dense(p)


def embed_finite(values) -> FiniteSupportPoint:
    """Zero-padded injection of a finite coordinate vector into l1 (isometric)."""
    return FiniteSupportPoint.from_dense(values)


class SparseBatch(Sequence):
    """A batch of finitely supported points in one CSR-style array layout.

    Point ``k`` holds the entries ``indptr[k]:indptr[k + 1]`` of ``index``
    (1-based, increasing within a point) and ``value`` (nonzero floats): the
    layout of ``scipy.sparse.csr_array``, in plain NumPy arrays.  ``index``
    is int64, or an object array of Python ints when an index does not fit in
    int64.  Item ``k`` is a :class:`FiniteSupportPoint`, built only when it is
    asked for; a slice is a batch over the same entries.
    """

    def __init__(self, indptr: np.ndarray, index: np.ndarray, value: np.ndarray):
        self.indptr, self.index, self.value = indptr, index, value

    @classmethod
    def from_rows(cls, coords) -> "SparseBatch":
        """:func:`embed_finite` of each row of a 2-d array, from one ``np.nonzero``."""
        coords = np.asarray(coords, dtype=float)
        rows, cols = np.nonzero(coords)
        indptr = np.concatenate(([0], np.cumsum(np.count_nonzero(coords, axis=1))))
        return cls(indptr, cols.astype(np.int64) + 1, coords[rows, cols])

    @classmethod
    def of(cls, points) -> "SparseBatch":
        """``points`` laid out: a batch as it is, a 2-d array by
        :meth:`from_rows`, and finitely supported points in one pass over their
        items; anything else raises TypeError."""
        if isinstance(points, cls):
            return points
        if isinstance(points, np.ndarray) and points.ndim == 2:
            return cls.from_rows(points)
        indptr, index, value = [0], [], []
        for p in points:
            if not isinstance(p, FiniteSupportPoint):
                raise TypeError(f"expected finitely supported points, got {p!r}")
            for i, v in p.items:
                index.append(i)
                value.append(v)
            indptr.append(len(index))
        try:
            index = np.array(index, dtype=np.int64)
        except OverflowError:
            index = np.array(index, dtype=object)
        return cls(np.array(indptr), index, np.array(value, dtype=float))

    def __len__(self) -> int:
        return len(self.indptr) - 1

    def __getitem__(self, k):
        if not isinstance(k, slice):
            k = range(len(self))[k]  # raises the IndexError
            return next(iter(self[k:k + 1]))
        lo, hi, step = k.indices(len(self))
        if step != 1:
            return SparseBatch.of([self[i] for i in range(lo, hi, step)])
        a, b = self.indptr[lo], self.indptr[max(lo, hi)]
        return SparseBatch(self.indptr[lo:max(lo, hi) + 1] - a, self.index[a:b], self.value[a:b])

    def __iter__(self):
        index, value, bounds = self.index.tolist(), self.value.tolist(), self.indptr.tolist()
        for lo, hi in zip(bounds, bounds[1:]):
            yield FiniteSupportPoint(items=tuple(zip(index[lo:hi], value[lo:hi])))

    def entry_rows(self) -> np.ndarray:
        """The point of every entry."""
        return np.repeat(np.arange(len(self)), np.diff(self.indptr))

    def leading(self, n: int) -> np.ndarray:
        """:meth:`FiniteSupportPoint.leading` of every point, as ``(len, n)`` rows."""
        out = np.zeros((len(self), n))
        keep = self.index <= n
        out[self.entry_rows()[keep], self.index[keep].astype(np.intp) - 1] = self.value[keep]
        return out

    def tail(self, n: int) -> np.ndarray:
        """:meth:`FiniteSupportPoint.tail` of every point, added in index order, as floats."""
        far = self.index > n
        return np.bincount(self.entry_rows()[far], weights=np.abs(self.value[far]), minlength=len(self)).astype(float)


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


def l1_batch(points):
    """``points`` in the array form the l1 kernels read: a :class:`SparseBatch` or a 2-d array as
    it is; no points, or points among which one is finitely supported, as a batch (a coordinate
    row among them embedded); other points as rows of a 2-d float array (unequal rows raise ValueError)."""
    if isinstance(points, SparseBatch) or isinstance(points, np.ndarray) and points.ndim == 2:
        return points
    points = list(points)
    if not points or any(isinstance(p, FiniteSupportPoint) for p in points):
        return SparseBatch.of([p if isinstance(p, FiniteSupportPoint) else embed_finite(p) for p in points])
    try:
        rows = np.asarray(points, dtype=float)
    except ValueError:
        rows = None
    if rows is None or rows.ndim != 2:
        raise ValueError("expected equal-length coordinate rows")
    return rows


def l1_distances(a, b) -> np.ndarray:
    """Matrix of :func:`l1_distance` over all pairs: ``[i, j]`` is
    ``l1_distance(a[i], b[j])``, bit for bit.

    Each side is laid out once by :func:`l1_batch`; when one side is a
    :class:`SparseBatch`, coordinate rows on the other are embedded.
    Coordinate rows sum ``|a_i - b_j|`` along the last axis exactly as
    ``np.sum`` does on one pair.  Sparse points keep the scalar order: one
    running sum over the support of ``a[i]`` and one over the rest of
    ``b[j]``'s, each in index order, added at the end; the work per pair
    follows the two supports, so a large index costs no more than a small
    one.  Work runs in blocks of at most :data:`_L1_BLOCK_ELEMENTS` elements,
    each a slice of the two layouts.
    """
    a, b = (l1_batch(a),) * 2 if b is a else (l1_batch(a), l1_batch(b))
    out = np.zeros((len(a), len(b)))
    if not len(a) or not len(b):
        return out
    if isinstance(a, SparseBatch) or isinstance(b, SparseBatch):
        a, b = SparseBatch.of(a), SparseBatch.of(b)
        width, block = 2 * max(1, *(np.diff(s.indptr).max() for s in (a, b))), _sparse_l1_block
    else:
        if a.shape[1] != b.shape[1]:
            raise ValueError(f"dimension mismatch: {a.shape[1:]} vs {b.shape[1:]}")
        width, block = max(a.shape[1], 1), _dense_l1_block
    # rows of a first: a McShane table's few anchors then meet each block of queries once
    rows = min(len(a), max(1, _L1_BLOCK_ELEMENTS // width))
    cols = max(1, _L1_BLOCK_ELEMENTS // (rows * width))
    for i in range(0, len(a), rows):
        for j in range(0, len(b), cols):
            out[i:i + rows, j:j + cols] = block(a[i:i + rows], b[j:j + cols])
    return out


def _dense_l1_block(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.abs(a[:, None, :] - b[None, :, :]).sum(-1)


def _sparse_l1_block(a, b) -> np.ndarray:
    """:func:`l1_distance` over the pairs of two batches of finitely supported
    points, laid out by :meth:`SparseBatch.of`.

    ``terms[e, i, j]`` holds two running-sum terms: ``a[i]``'s ``e``-th
    support entry against ``b[j]`` there, and ``b[j]``'s ``e``-th entry when
    ``a[i]`` lacks its index; both are 0 past a support's end.  Entries that
    share an index are matched by one ``searchsorted`` of ``b``'s indices
    among ``a``'s sorted ones, so the work follows the supports.  The sums
    over ``e`` add in index order, as the scalar does: NumPy adds in plain
    order along an axis that is not the fast one in memory, and the last
    axis, of length 2, keeps it so even for a single pair.
    """
    a, b = SparseBatch.of(a), SparseBatch.of(b)
    ai, bj = a.entry_rows(), b.entry_rows()
    ap, bq = np.arange(ai.size) - a.indptr[ai], np.arange(bj.size) - b.indptr[bj]
    terms = np.zeros((max(1, *(np.diff(s.indptr).max(initial=0) for s in (a, b))), len(a), len(b), 2))
    terms[ap, ai, :, 0] = np.abs(a.value)[:, None]
    terms[bq, :, bj, 1] = np.abs(b.value)[:, None]
    # Pair each entry f of b with every entry e of a at the same index.
    order = np.argsort(a.index)
    lo = np.searchsorted(a.index[order], b.index)
    count = np.searchsorted(a.index[order], b.index, "right") - lo
    f = np.repeat(np.arange(bj.size), count)
    e = order[np.arange(f.size) + np.repeat(lo - np.cumsum(count) + count, count)]
    terms[ap[e], ai[e], bj[f], 0] = np.abs(a.value[e] - b.value[f])
    terms[bq[f], ai[e], bj[f], 1] = 0.0
    total = np.add.reduce(terms, axis=0)
    return total[:, :, 0] + total[:, :, 1]
