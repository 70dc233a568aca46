"""Finite-rank projections of Lipschitz functions through dyadic interpolation.

For a level ``n`` the projection clamps a point onto the big cube of edge
``2**n``, finds the containing tiling cell of edge ``2**(1-n)``, and blends
the function's values at the cell corners with the tensor-product weights of
:mod:`lipfree.interpolation`.  Two ambient modes exist:

* sequence mode (``dim=None``): functions on finitely supported l1 sequences;
  the point is first truncated to its leading ``n`` coordinates, and corner
  evaluations re-embed the corner as a finitely supported sequence,
* coordinate mode (``dim=N``): functions on R^N under the l1 norm; the level
  only controls the grid, not the dimension.

:func:`cell_weights` is the one corner expansion, shared with the molecule
projection of :mod:`lipfree.freespace`.  It yields sparse ``(row, key,
weight)`` triplets: a corner is named by its int64 lattice index ``key``
(coordinates ``key * 2**(1-n) - 2**(n-1)``), and only corners of nonzero
weight appear.  A point with ``s`` nonzero leading coordinates lies on a grid
hyperplane along every other axis, so it reaches at most ``2**s`` corners.

The projected function depends on the original only through its values on the
level-n vertex grid, is linear in the function, does not increase Lipschitz
constants, and the projections at different levels commute, with the coarser
level winning.  :class:`ProjectedLipFunction` materializes a projection as a
first-class function backed by a lazily filled corner-value table keyed by
lattice-index tuples, so projections can be composed and paired exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import geometry
from .geometry import (
    MAX_DIM,
    MAX_LEVEL,
    FiniteSupportPoint,
    cell_low_corners,
    clamp_to_cube,
    embed_finite,
    l1_distances,
)
from .interpolation import TabulatedFunction, lip_constant, weights_from_offsets

#: Anchors of :func:`random_lattice_function` have coordinates, and take
#: values, uniform in ``[-LATTICE_SPREAD, LATTICE_SPREAD]``; in sequence mode
#: their indices lie in ``1 .. LATTICE_INDEX_RANGE``.
LATTICE_SPREAD = 4.0
LATTICE_INDEX_RANGE = 6

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


def _as_coords(x) -> np.ndarray:
    if isinstance(x, FiniteSupportPoint):
        raise TypeError("expected a coordinate vector, got a sparse sequence point")
    return np.asarray(x, dtype=float)


def coordinate_function(index: int = 1) -> LipFunction:
    """f(x) = x_index; 1-Lipschitz on l1."""
    if index < 1:
        raise ValueError("coordinate indices start at 1")

    def ev(x):
        if isinstance(x, FiniteSupportPoint):
            return x.coord(index)
        return float(_as_coords(x)[index - 1])

    return LipFunction(ev, declared_lip=1.0, label=f"coordinate-{index}")


def l1_norm_function() -> LipFunction:
    """f(x) = sum_i |x_i|; 1-Lipschitz, the canonical norm test function."""

    def ev(x):
        if isinstance(x, FiniteSupportPoint):
            return x.norm1()
        return float(np.sum(np.abs(_as_coords(x))))

    return LipFunction(ev, declared_lip=1.0, label="l1-norm")


def max_coordinate_function() -> LipFunction:
    """f(x) = max(0, max_i x_i); 1-Lipschitz, kinked off the grid."""

    def ev(x):
        if isinstance(x, FiniteSupportPoint):
            return max(0.0, max((v for _, v in x.items), default=0.0))
        return max(0.0, float(np.max(_as_coords(x))))

    return LipFunction(ev, declared_lip=1.0, label="max-coordinate")


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
        self.points, self.values, self.lip = points, values, lip

    def __call__(self, x) -> float:
        return float(self.eval_many([x])[0])

    def eval_many(self, points: Sequence) -> np.ndarray:
        points = list(points)
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


def random_lattice_function(rng: np.random.Generator, *, dim: int | None = None,
                            anchors: int = 8) -> LipFunction:
    """A reproducible random Lipschitz function with a known exact bound.

    Random anchor points (plus the origin at value zero) get random values;
    the declared constant is the exact constant of that table and the
    function is its tight Lipschitz extension.
    """
    pts: list = [FiniteSupportPoint.zero() if dim is None else tuple(np.zeros(dim))]
    seen = {pts[0] if dim is not None else pts[0].items}
    while len(pts) < anchors + 1:
        if dim is None:
            size = int(rng.integers(1, 4))
            idx = rng.choice(np.arange(1, LATTICE_INDEX_RANGE + 1), size=size, replace=False)
            p = FiniteSupportPoint.from_pairs(
                (int(i), float(rng.uniform(-LATTICE_SPREAD, LATTICE_SPREAD))) for i in idx
            )
            key = p.items
        else:
            p = tuple(float(v) for v in rng.uniform(-LATTICE_SPREAD, LATTICE_SPREAD, size=dim))
            key = p
        if key in seen:
            continue
        seen.add(key)
        pts.append(p)
    vals = [0.0] + [float(rng.uniform(-LATTICE_SPREAD, LATTICE_SPREAD)) for _ in range(anchors)]
    table = TabulatedFunction(points=tuple(pts), values=tuple(vals), origin=0)
    lipf = tabulated_lip_function(table)
    lipf.label = "random-lattice"
    return lipf


def _stack_points(points: Sequence, level: GridLevel) -> np.ndarray:
    n, dim = level.n, level.dim
    if dim is None:
        return np.array([p.leading(n) for p in points], dtype=float).reshape(len(points), n)
    rows = []
    for p in points:
        u = _as_coords(p)
        if u.shape != (dim,):
            raise ValueError(f"expected points of dimension {dim}, got shape {u.shape}")
        rows.append(u)
    return np.array(rows, dtype=float).reshape(len(points), dim)


def lattice_coords(keys, n: int) -> np.ndarray:
    """Corner coordinates ``key * 2**(1-n) - 2**(n-1)`` of int64 lattice keys.

    Key ``j`` on an axis is the low end of slab ``j`` of
    :func:`lipfree.geometry.slab_indices`, so the level-n vertex grid is keys
    ``0 .. 2**(2n-1)`` per axis; the conversion is exact.
    """
    return np.asarray(keys, dtype=np.int64) * 2.0 ** (1 - n) - 2.0 ** (n - 1)


def cell_weights(points: Sequence, level: GridLevel):
    """Clamp, locate and weight a batch of points: sparse corner triplets.

    Returns ``(rows, keys, weights)``: point ``rows[e]`` puts weight
    ``weights[e]`` on the cell corner with int64 lattice index ``keys[e]``
    (see :func:`lattice_coords`).  Only corners of nonzero weight appear.
    The expansion runs one axis at a time, so an axis whose offset in the
    cell is exactly 0 or 1 adds no branch, and a point strictly inside its
    cell along ``a`` axes gets at most ``2**a`` entries.  Entries are ordered
    by row, then by key.
    """
    u = clamp_to_cube(_stack_points(points, level), 2.0 ** level.n)
    low = cell_low_corners(u, level.n)
    s = 2.0 ** (1 - level.n)
    m, d = u.shape
    # Per point and axis, the low-side and the high-side weight factor.
    factors = weights_from_offsets(((u - low) / s).reshape(m * d, 1)).reshape(m, d, 2)
    rows = np.arange(m)
    keys = ((low + 2.0 ** (level.n - 1)) / s).astype(np.int64)
    weights = np.ones(m)
    for axis in range(d):
        branched = (weights[:, None] * factors[rows, axis]).ravel()
        keys = np.repeat(keys, 2, axis=0)
        keys[1::2, axis] += 1
        keep = branched != 0.0
        rows, keys, weights = np.repeat(rows, 2)[keep], keys[keep], branched[keep]
    return rows, keys, weights


def project_values(f, points: Sequence, level: GridLevel, cache: dict | None = None) -> np.ndarray:
    """Projected values of ``f`` at a batch of points.

    Each distinct weighted corner is passed to ``f.eval_many`` once, in one
    batch; ``cache`` maps lattice-index tuples to corner values and spares
    the corners it already holds.
    """
    if not len(points):
        return np.zeros(0)
    rows, keys, weights = cell_weights(points, level)
    corners, inverse = np.unique(keys, axis=0, return_inverse=True)
    table = {} if cache is None else cache
    corner_keys = [tuple(k) for k in corners.tolist()]
    new = [i for i, k in enumerate(corner_keys) if k not in table]
    if new:
        coords = lattice_coords(corners[new], level.n)
        pts = [embed_finite(c) for c in coords] if level.dim is None else list(coords)
        table.update(zip((corner_keys[i] for i in new), map(float, f.eval_many(pts))))
    values = np.array([table[k] for k in corner_keys])
    return np.bincount(rows, weights=weights * values[inverse.reshape(-1)], minlength=len(points))


class ProjectedLipFunction(LipFunction):
    """A materialized projection: finite corner-value table plus the pipeline.

    The table fills lazily (only weighted corners of visited cells are ever
    computed) and is keyed by integer lattice-index tuples, so composing
    projections and forming pairings is exact and cheap.  Not safe for
    concurrent use while the table is still being filled.
    """

    def __init__(self, base, level: GridLevel):
        self.base = base
        self.level = level
        self.table: dict[tuple[int, ...], float] = {}
        declared = getattr(base, "declared_lip", None)
        label = f"project(n={level.n})[{getattr(base, 'label', '')}]"
        super().__init__(None, declared_lip=declared, label=label)  # evaluated by eval_many only

    def eval_many(self, points: Sequence) -> np.ndarray:
        return project_values(self.base, points, self.level, cache=self.table)


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
    inner = lip_projection(f, GridLevel(n, dim))
    composed = lip_projection(inner, GridLevel(m, dim))
    direct = lip_projection(f, GridLevel(min(m, n), dim))
    dev = np.abs(composed.eval_many(samples) - direct.eval_many(samples))
    worst = float(np.max(dev)) if len(samples) else 0.0
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


def convergence_checks(f, points: Sequence, n: int, dim: int | None = None) -> list[ConvergenceCheck]:
    """:class:`ConvergenceCheck` at each point, from one :func:`project_values`
    call and one ``f.eval_many`` call for the exact values."""
    if f.declared_lip is None:
        raise ValueError("convergence estimates need a declared Lipschitz bound")
    level = GridLevel(n, dim)
    points = list(points)
    if dim is None:
        if not all(isinstance(x, FiniteSupportPoint) for x in points):
            raise TypeError("sequence mode expects finitely supported points")
        leads = [x.leading(n) for x in points]
        tails = [x.tail(n) for x in points]
        cells = n
    else:
        leads = [_as_coords(x) for x in points]
        tails = [0.0] * len(points)
        cells = dim
    values = project_values(f, points, level)
    exacts = f.eval_many(points)
    out = []
    for lead, tail, value, exact in zip(leads, tails, values.tolist(), np.asarray(exacts).tolist()):
        clamped = bool(np.max(np.abs(lead), initial=0.0) > 2.0 ** (n - 1))
        error = abs(value - exact)
        bound = 2.0 * f.declared_lip * (tail + cells * 2.0 ** (1 - n))
        ok = None if clamped else bool(error <= bound + BOUND_SLACK)
        out.append(ConvergenceCheck(value=value, exact=exact, error=error, bound=bound,
                                    clamped=clamped, ok=ok))
    return out


def convergence_check(f, x, n: int, dim: int | None = None) -> ConvergenceCheck:
    """:func:`convergence_checks` at one point."""
    return convergence_checks(f, [x], n, dim)[0]
