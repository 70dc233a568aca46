"""Finite-rank projections of Lipschitz functions through dyadic interpolation.

For a level ``n`` the projection clamps a point onto the big cube of edge
``2**n``, finds the containing tiling cell of edge ``2**(1-n)``, and blends
the function's values at the cell corners with the tensor-product weights of
:mod:`lipfree.interpolation`.  Two ambient modes exist:

* sequence mode (``dim=None``): functions on finitely supported l1 sequences;
  a batch is laid out once as a :class:`~lipfree.geometry.SparseBatch`, each
  point is truncated to its leading ``n`` coordinates, and the corners reach
  the function as one batch of that layout,
* coordinate mode (``dim=N``): functions on R^N under the l1 norm; the level
  only controls the grid, not the dimension.

:func:`cell_weights` is the one corner expansion, shared with the molecule
projection of :mod:`lipfree.freespace`: sparse ``(row, key, weight)``
triplets, a corner named by its int64 lattice index ``key``.  A point with
``s`` nonzero leading coordinates reaches at most ``2**s`` corners.  It takes
points or their rows of leading coordinates, truncated by one function, so
each batch is stacked once; :func:`project_values` expands a batch past
:data:`MAX_CORNERS` in parts, up to :data:`MAX_BATCH_CORNERS` in all.  The
decay estimate is written once too.

The projected function depends on the original only through its values on the
level-n vertex grid, is linear in the function, does not increase Lipschitz
constants, and the projections at different levels commute, with the coarser
level winning.  :class:`ProjectedLipFunction` materializes a projection as a
first-class function that keeps no state besides the base function and the
level, so projections can be composed and paired exactly.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass

import numpy as np

from . import geometry
from .geometry import (
    MAX_DIM,
    MAX_LEVEL,
    FiniteSupportPoint,
    SparseBatch,
    cell_low_corners,
    l1_batch,
    l1_distances,
    lattice_coords,
    pack_key_rows,
)
from .interpolation import TabulatedFunction, lip_constant, weights_from_offsets

#: Anchors of :func:`random_lattice_function` have coordinates, and take
#: values, uniform in ``[-LATTICE_SPREAD, LATTICE_SPREAD]``; in sequence mode
#: their indices lie in ``1 .. LATTICE_INDEX_RANGE``.
LATTICE_SPREAD = 4.0
LATTICE_INDEX_RANGE = 6

#: Most weighted corners :func:`cell_weights` expands in one batch; a point
#: strictly inside its cell along ``a`` axes has ``2**a`` of them.  At this
#: count a ``project`` run took 0.7 s and 162 MB peak in sequence mode (one
#: point with 17 free axes) and 0.4 s and 122 MB in coordinate mode (two
#: 16-d points), on 2 vCPUs; each doubling about doubles both.
MAX_CORNERS = 2**17

#: Most weighted corners :func:`project_values` expands in one batch, in parts.
#: At this count a ``project`` run took 1.95 s with ``max-coordinate``, the
#: slowest builtin, on two 17-coordinate points at ``--n 17`` (median of 3, 2 vCPUs).
MAX_BATCH_CORNERS = 2 * MAX_CORNERS


class TooManyCorners(ValueError):
    """A batch reaches ``corners`` weighted cell corners, more than :data:`MAX_CORNERS`."""

    def __init__(self, message: str, corners: int):
        super().__init__(message)
        self.corners = corners


#: Slack of the convergence bound check in :func:`convergence_checks`.
BOUND_SLACK = 1e-9

#: Largest deviation that :func:`commuting_check` passes.
COMMUTE_TOL = 1e-10


@dataclass(frozen=True)
class GridLevel:
    """A projection level: grid index ``n`` plus the ambient mode."""

    n: int
    dim: int | None = None

    def __post_init__(self):
        if not (1 <= self.n <= MAX_LEVEL):
            raise ValueError(f"level must be in 1..{MAX_LEVEL}, got {self.n}")
        if self.dim is not None and not (1 <= self.dim <= MAX_DIM):
            raise ValueError(f"ambient dimension must be in 1..{MAX_DIM}, got {self.dim}")

    @property
    def cell_dim(self) -> int:
        return self.n if self.dim is None else self.dim


class LipFunction:
    """A real function vanishing at the origin, with an optional Lipschitz bound.

    ``declared_lip`` is a promise from the constructor, used in convergence
    estimates; it is validated probabilistically in the test-suite, never
    enforced here.  An evaluator with an ``eval_many`` method of its own is
    evaluated in batches through it; otherwise one point at a time.
    """

    def __init__(self, evaluator: Callable, declared_lip: float | None = None, label: str = ""):
        if declared_lip is not None and declared_lip < 0:
            raise ValueError("a Lipschitz bound cannot be negative")
        self.evaluator = evaluator
        self.declared_lip = declared_lip
        self.label = label

    def __call__(self, x) -> float:
        return float(self.eval_many([x])[0])

    def eval_many(self, points: Sequence) -> np.ndarray:
        batched = getattr(self.evaluator, "eval_many", None)
        if batched is not None:
            return batched(points)
        return np.array([float(self.evaluator(p)) for p in points])

    def __repr__(self):
        lip = "" if self.declared_lip is None else f", lip<={self.declared_lip:g}"
        return f"LipFunction({self.label or self.evaluator!r}{lip})"


def lip_function(evaluator: Callable, declared_lip: float | None = None, *, dim: int | None = None,
                 label: str = "") -> LipFunction:
    """Wrap an evaluator, checking that it vanishes exactly at the origin."""
    origin = FiniteSupportPoint.zero() if dim is None else np.zeros(dim)
    if float(evaluator(origin)) != 0.0:
        raise ValueError("evaluator must be exactly 0 at the origin")
    return LipFunction(evaluator, declared_lip, label)


def _unit_lip(label: str, on_sparse: Callable, on_coords: Callable) -> LipFunction:
    """A 1-Lipschitz builtin: ``on_sparse`` evaluates finitely supported
    sequences, ``on_coords`` coordinate vectors."""
    def ev(x):
        return on_sparse(x) if isinstance(x, FiniteSupportPoint) else on_coords(np.asarray(x, dtype=float))

    return LipFunction(ev, declared_lip=1.0, label=label)


def coordinate_function(index: int = 1) -> LipFunction:
    """f(x) = x_index; 1-Lipschitz on l1."""
    if index < 1:
        raise ValueError("coordinate indices start at 1")
    return _unit_lip(f"coordinate-{index}", lambda x: x.coord(index), lambda u: float(u[index - 1]))


def l1_norm_function() -> LipFunction:
    """f(x) = sum_i |x_i|; 1-Lipschitz, the canonical norm test function."""
    return _unit_lip("l1-norm", FiniteSupportPoint.norm1, lambda u: float(np.sum(np.abs(u))))


def max_coordinate_function() -> LipFunction:
    """f(x) = max(0, max_i x_i); 1-Lipschitz, kinked off the grid."""
    return _unit_lip("max-coordinate", lambda x: max(0.0, max((v for _, v in x.items), default=0.0)),
                     lambda u: max(0.0, float(np.max(u))))


def mcshane_extension(points: Sequence, values: Sequence[float], lip: float) -> Callable:
    """The largest ``lip``-Lipschitz minorant interpolation of tabulated data.

    ``f(x) = min_p (v_p + lip * d(p, x))`` with the l1 distance agrees with
    the data wherever the data itself is ``lip``-Lipschitz and never exceeds
    that constant.  The returned evaluator takes one point, and its
    ``eval_many`` takes a batch: one :func:`lipfree.geometry.l1_distances`
    matrix per block of queries, the block sized by the kernel's element
    budget, so memory stays bounded for any number of anchors and queries.
    Every value is bit-identical to the scalar minimum over
    :func:`lipfree.geometry.l1_distance`.
    """
    points = tuple(points)
    if not points:
        raise ValueError("the McShane extension needs at least one data point")
    return _McShane(points, np.array([float(v) for v in values]), float(lip))


class _McShane:
    def __init__(self, points: tuple, values: np.ndarray, lip: float):
        self.points, self.values, self.lip = l1_batch(points), values, lip  # laid out once

    def __call__(self, x) -> float:
        return float(self.eval_many([x])[0])

    def eval_many(self, points: Sequence) -> np.ndarray:
        points = l1_batch(points)
        step = max(1, geometry._L1_BLOCK_ELEMENTS // len(self.points))
        out = np.empty(len(points))
        for lo in range(0, len(points), step):
            d = l1_distances(self.points, points[lo:lo + step])
            out[lo:lo + step] = (self.values[:, None] + self.lip * d).min(axis=0)
        return out


def tabulated_lip_function(f: TabulatedFunction) -> LipFunction:
    """Extend a tabulated function to all of its space at its own constant."""
    lip = lip_constant(f)
    return LipFunction(mcshane_extension(f.points, f.values, lip), declared_lip=lip, label="tabulated")


def _random_sparse(rng: np.random.Generator, spread: float = 2.0, max_index: int = 6) -> FiniteSupportPoint:
    """A random point with 1 to 3 nonzero coordinates at distinct indices in
    ``1 .. max_index``, each uniform in ``[-spread, spread]``."""
    idx = rng.choice(np.arange(1, max_index + 1), size=int(rng.integers(1, 4)), replace=False)
    return FiniteSupportPoint.from_pairs((int(i), float(rng.uniform(-spread, spread))) for i in idx)


def random_lattice_function(rng: np.random.Generator, *, dim: int | None = None,
                            anchors: int = 8) -> LipFunction:
    """A reproducible random Lipschitz function with a known exact bound.

    Random anchor points (plus the origin at value zero) get random values;
    the declared constant is the exact constant of that table and the
    function is its tight Lipschitz extension.
    """
    pts: list = [FiniteSupportPoint.zero() if dim is None else tuple(np.zeros(dim))]
    while len(pts) < anchors + 1:
        if dim is None:
            p = _random_sparse(rng, LATTICE_SPREAD, LATTICE_INDEX_RANGE)
        else:
            p = tuple(float(v) for v in rng.uniform(-LATTICE_SPREAD, LATTICE_SPREAD, size=dim))
        if p not in pts:
            pts.append(p)
    vals = [0.0] + [float(rng.uniform(-LATTICE_SPREAD, LATTICE_SPREAD)) for _ in range(anchors)]
    lipf = tabulated_lip_function(TabulatedFunction(points=tuple(pts), values=tuple(vals), origin=0))
    lipf.label = "random-lattice"
    return lipf


def _stack_points(points, level: GridLevel) -> np.ndarray:
    """The one truncation: a batch as ``(m, cell_dim)`` rows of leading
    coordinates, by :meth:`~lipfree.geometry.SparseBatch.leading` of its
    layout in sequence mode and one ``np.asarray`` in coordinate mode.  A 2-d
    array is taken as rows."""
    d = level.cell_dim
    if level.dim is None and not (isinstance(points, np.ndarray) and points.ndim == 2):
        return SparseBatch.of(points).leading(d)
    try:
        rows = np.asarray(points, dtype=float)
        if rows.shape == (len(points), d):
            return rows
    except (TypeError, ValueError):
        pass
    for p in points:  # name the first point that does not fit
        if isinstance(p, FiniteSupportPoint):
            raise TypeError("coordinate mode expects coordinate vectors, not finitely supported points")
        if np.asarray(p, dtype=float).shape != (d,):
            raise ValueError(f"expected points of dimension {d}, got shape {np.shape(p)}")
    return np.asarray(points, dtype=float).reshape(0, d)  # the empty batch; any other raises


def _decay_estimates(points, rows: np.ndarray, level: GridLevel, lip: float = 1.0):
    """Per point of a batch with stacked ``rows``: the decay estimate
    ``2 L (tail + cell_dim 2^(1-n))`` and whether the clamp moves the point."""
    n = level.n
    tails = SparseBatch.of(points).tail(n) if level.dim is None else np.zeros(len(rows))
    return (2.0 * lip * (tails + level.cell_dim * 2.0 ** (1 - n)),
            np.abs(rows).max(axis=1, initial=0.0) > 2.0 ** (n - 1))


def cell_weights(points: Sequence, level: GridLevel):
    """Clamp, locate and weight a batch of points or stacked rows: sparse corner triplets.

    Returns ``(rows, keys, weights)``: point ``rows[e]`` puts weight
    ``weights[e]`` on the cell corner with int64 lattice index ``keys[e]``
    (see :func:`lipfree.geometry.lattice_coords`); the keys of each cell's
    low corner come from :func:`lipfree.geometry.cell_low_corners`.  Only
    corners of nonzero weight appear.  The expansion runs one axis at a
    time, so an axis whose offset in the cell is exactly 0 or 1 adds no
    branch, and a point strictly inside its cell along ``a`` axes gets at
    most ``2**a`` entries.  Entries are ordered by row, then by key.  A batch
    of more than :data:`MAX_CORNERS` such entries raises
    :class:`TooManyCorners`, a ValueError, before any is made.
    """
    u = _stack_points(points, level)
    keys = cell_low_corners(u, level.n)
    m, d = u.shape
    # Per point and axis, the low-side and the high-side weight factor.  A
    # coordinate beyond the big cube is beyond its edge cell too, so clipping
    # its offset onto [0, 1] is the clamp onto the cube.
    offsets = np.clip((u - lattice_coords(keys, level.n)) / 2.0 ** (1 - level.n), 0.0, 1.0)
    factors = weights_from_offsets(offsets.reshape(m * d, 1)).reshape(m, d, 2)
    corners = int((1 << np.count_nonzero(factors.all(axis=2), axis=1)).sum())
    if corners > MAX_CORNERS:
        raise TooManyCorners(f"the points reach {corners} weighted cell corners at level {level.n}, "
                             f"more than the {MAX_CORNERS} one projection expands", corners)
    rows = np.arange(m)
    weights = np.ones(m)
    for axis in range(d):
        branched = (weights[:, None] * factors[rows, axis]).ravel()
        keys = np.repeat(keys, 2, axis=0)
        keys[1::2, axis] += 1
        keep = branched != 0.0
        rows, keys, weights = np.repeat(rows, 2)[keep], keys[keep], branched[keep]
    return rows, keys, weights


def project_values(f, points: Sequence, level: GridLevel) -> np.ndarray:
    """Projected values of ``f`` at a batch of points or stacked rows: one
    ``np.unique`` over the packed key rows gives the distinct weighted corners
    in key order, ``f.eval_many`` gets them in one batch, and one ``bincount``
    sums each point's weighted corner values.  A batch past
    :data:`MAX_CORNERS` is split in halves until each part fits; a single
    point that one expansion cannot hold raises :class:`TooManyCorners`, and
    a batch past :data:`MAX_BATCH_CORNERS` a ValueError."""
    if not len(points):
        return np.zeros(0)
    try:
        rows, keys, weights = cell_weights(points, level)
    except TooManyCorners as exc:
        if len(points) == 1:
            raise
        if exc.corners > MAX_BATCH_CORNERS:
            raise ValueError(f"the points reach {exc.corners} weighted cell corners at level {level.n}, "
                             f"more than the {MAX_BATCH_CORNERS} one batch expands") from None
        u = _stack_points(points, level)
        return np.concatenate([project_values(f, u[:len(u) // 2], level), project_values(f, u[len(u) // 2:], level)])
    distinct, corner_of = np.unique(pack_key_rows(keys), return_inverse=True)
    coords = lattice_coords(distinct.view(">i8").reshape(len(distinct), -1), level.n)
    values = np.asarray(f.eval_many(SparseBatch.from_rows(coords) if level.dim is None else coords), dtype=float)
    return np.bincount(rows, weights=weights * values[corner_of], minlength=len(points))


class ProjectedLipFunction(LipFunction):
    """A materialized projection holding only ``base`` and ``level``: each
    ``eval_many`` call evaluates ``base`` once at the distinct weighted
    corners of its own batch, so one instance can be shared across threads."""

    def __init__(self, base, level: GridLevel):
        self.base, self.level = base, level
        declared = getattr(base, "declared_lip", None)
        label = f"project(n={level.n})[{getattr(base, 'label', '')}]"
        super().__init__(None, declared_lip=declared, label=label)  # evaluated by eval_many only

    def eval_many(self, points: Sequence) -> np.ndarray:
        return project_values(self.base, points, self.level)


def lip_projection(f, level: GridLevel) -> ProjectedLipFunction:
    """The level-n finite-rank projection of ``f`` as a first-class function."""
    return ProjectedLipFunction(f, level)


@dataclass(frozen=True)
class CommutingReport:
    m: int
    n: int
    samples: int
    max_dev: float
    passed: bool


def commuting_check(f, m: int, n: int, samples: Sequence, dim: int | None = None) -> CommutingReport:
    """Compare the composition of two projection levels with the coarser one.

    Evaluates both sides at the given sample points; the composition is
    materialized, so this also exercises projections of projections.
    """
    composed = lip_projection(lip_projection(f, GridLevel(n, dim)), GridLevel(m, dim))
    direct = lip_projection(f, GridLevel(min(m, n), dim))
    worst = float(np.max(np.abs(composed.eval_many(samples) - direct.eval_many(samples)), initial=0.0))
    return CommutingReport(m=m, n=n, samples=len(samples), max_dev=worst, passed=worst <= COMMUTE_TOL)


@dataclass(frozen=True)
class ConvergenceCheck:
    """Projection error at one point against the explicit decay estimate.

    ``bound = 2 * L * (tail + diameter)`` where ``tail`` is the l1 mass of the
    point beyond the truncation and ``diameter`` the l1 diameter of a tiling
    cell.  The estimate is only claimed while the clamp onto the big cube is
    inactive; ``ok`` is None otherwise (report-only regime).
    """

    value: float
    exact: float
    error: float
    bound: float
    clamped: bool
    ok: bool | None


@dataclass(frozen=True, eq=False)
class ConvergenceChecks:
    """:class:`ConvergenceCheck` columns over a batch; ``ok`` is the bound
    test at every point, clamped or not."""

    value: np.ndarray
    exact: np.ndarray
    error: np.ndarray
    bound: np.ndarray
    clamped: np.ndarray
    ok: np.ndarray


def convergence_checks(f, points: Sequence, n: int, dim: int | None = None) -> ConvergenceChecks:
    """:class:`ConvergenceCheck` columns at a batch of points, stacked once:
    one :func:`project_values` call on the stacked rows, one ``f.eval_many``
    call for the exact values."""
    if f.declared_lip is None:
        raise ValueError("convergence estimates need a declared Lipschitz bound")
    level = GridLevel(n, dim)
    points = SparseBatch.of(points) if dim is None else list(points)
    rows = _stack_points(points, level)
    value = project_values(f, rows, level)
    exact = np.asarray(f.eval_many(points), dtype=float)
    error = np.abs(value - exact)
    bound, clamped = _decay_estimates(points, rows, level, f.declared_lip)
    return ConvergenceChecks(value, exact, error, bound, clamped, ok=error <= bound + BOUND_SLACK)


def convergence_check(f, x, n: int, dim: int | None = None) -> ConvergenceCheck:
    """:func:`convergence_checks` at one point; ``ok`` is None where it is clamped."""
    checks = convergence_checks(f, [x], n, dim)
    value, exact, error, bound, clamped, ok = (column[0].item() for column in vars(checks).values())
    return ConvergenceCheck(value, exact, error, bound, clamped, None if clamped else ok)
