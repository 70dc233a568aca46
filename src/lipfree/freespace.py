"""Finitely supported free-space elements and their exact norms.

A molecule is a finite combination ``sum_i a_i * delta(p_i)`` of point
evaluations over a pointed metric space; evaluations at the origin are the
zero element and canonicalization removes them, merges duplicate points and
drops zero coefficients.  Three ambient kinds are supported: sparse l1
sequences (``"l1"``), coordinate vectors under the l1 norm (``"l1N"``), and
finite pointed metric spaces (``"finite"``).

The norm of a molecule is the supremum of its pairing with 1-Lipschitz
functions vanishing at the origin.  Over the finite set ``support + origin``
that supremum is a linear program, and tight Lipschitz extension beyond the
support preserves the constant, so the finite program computes the norm in
the full space exactly.  :func:`free_norms` solves the function-side
programs of a batch of molecules by relay pruning plus one HiGHS solve (the
optimal witness functions fall out of the solution), and :func:`free_norm`
is its one-molecule view; :func:`transport_norm` solves the mass-transport
side, also with HiGHS, and serves as an oracle; :func:`line_norm` evaluates
the closed-form total-variation expression available for molecules on the
real line, with no LP solver.  SciPy is imported by the two solvers when
they run: :func:`solve_box_lp` calls the HiGHS bindings SciPy ships
directly, and :func:`transport_norm` goes through ``linprog``.

The grid projection :func:`molecule_projection` pushes each point's mass onto
the weighted corners of its tiling cell through the same sparse corner
triplets as the function projection; by construction its pairing with any
function equals the pairing of the projected function with the original
molecule.  :func:`decomposition_report` projects each level with it, then
runs array passes over one table of distinct points: one distance matrix,
one relay-pruning pass, one HiGHS solve, and one lattice expansion.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

import numpy as np

from .extension import FinitePointedMetricSpace
from .geometry import (MAX_LEVEL, MAX_MAGNITUDE, FiniteSupportPoint, SparseBatch, as_index, check_magnitude,
                       coordinate_rows, l1_distance, l1_distances, lattice_coords, pack_key_rows, sparse_point)
from .operators import GridLevel, TooManyCorners, _decay_estimates, _stack_points, cell_weights

KINDS = ("l1", "l1N", "finite")

#: Largest support :func:`free_norm` solves.  The relay matrix costs O(k^3)
#: time and the distance matrix O(k^2) memory: at k = 512 one norm took
#: 0.4-0.7 s, at k = 1,024 3.7-5.4 s (random 2-d ``l1N`` molecules and
#: projected 12-coordinate ``l1`` ones, 2 vCPUs).
MAX_NORM_SUPPORT = 512

#: Relay sums :func:`_chain_reach` takes per block of rows (512 KB): all of
#: them up to 40 points, one row per block from 256 points.
_RELAY_ELEMENTS = 2**16

#: Relative tolerance of the certificate check (:func:`check_certificate`).
NORM_TOL = 1e-9

#: Relative slack of :func:`decomposition_report`'s norm, bound and trend checks.
FDD_TOL = 1e-7

#: Coefficient tolerance of :func:`decomposition_report`'s lattice check.
LATTICE_TOL = 1e-10


def _coefficient(a) -> float:
    a = float(a)
    if not abs(a) <= MAX_MAGNITUDE:  # NaN fails the comparison too
        if not math.isfinite(a):
            raise ValueError(f"coefficient {a} is not finite")
        check_magnitude(a, "coefficient")
    return a


@dataclass(frozen=True, eq=False)
class Molecule:
    """Canonical finite combination of point evaluations."""

    kind: str
    terms: tuple[tuple[object, float], ...]
    dim: int | None = None
    space: FinitePointedMetricSpace | None = field(default=None, repr=False)

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown molecule kind {self.kind!r}")
        if self.kind == "finite" and self.space is None:
            raise ValueError("finite-space molecules need their metric space")
        if self.kind == "l1N" and self.terms and self.dim is None:
            raise ValueError("coordinate molecules need a dimension")
        if self.kind != "l1N" and self.dim is not None:
            raise ValueError("only coordinate molecules have a dimension")

    # -- construction -------------------------------------------------------

    @classmethod
    def on_l1(cls, pairs: Iterable[tuple[object, float]]) -> "Molecule":
        terms = [(sparse_point(p), _coefficient(a)) for p, a in pairs]
        return cls(kind="l1", terms=())._rebuild(terms)

    @classmethod
    def on_rn(cls, pairs: Iterable[tuple[object, float]], dim: int | None = None) -> "Molecule":
        """The coefficients checked first, then all points in one :func:`coordinate_rows` pass."""
        pairs = list(pairs)
        coeffs = [_coefficient(a) for _, a in pairs]
        rows = coordinate_rows([p for p, _ in pairs], dim)
        mu = cls(kind="l1N", terms=(), dim=rows.shape[1] if pairs else dim)
        return mu._rebuild(zip(map(tuple, rows.tolist()), coeffs))

    @classmethod
    def on_space(cls, space: FinitePointedMetricSpace,
                 pairs: Iterable[tuple[int, float]]) -> "Molecule":
        terms = []
        for p, a in pairs:
            i = as_index(p, "point index")
            if not (0 <= i < space.size):
                raise ValueError(f"point index {i} outside the space")
            terms.append((i, _coefficient(a)))
        return cls(kind="finite", terms=(), space=space)._rebuild(terms)

    # -- structure ----------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def support(self) -> tuple:
        return tuple(p for p, _ in self.terms)

    @property
    def coefficients(self) -> tuple[float, ...]:
        return tuple(a for _, a in self.terms)

    def total_mass(self) -> float:
        return float(sum(a for _, a in self.terms))

    def point_distance(self, p, q) -> float:
        if self.kind == "finite":
            return float(self.space.dist[p, q])
        return l1_distance(p, q)

    def origin_point(self):
        if self.kind == "l1":
            return FiniteSupportPoint.zero()
        if self.kind == "l1N":
            return tuple(0.0 for _ in range(self.dim)) if self.dim else None
        return self.space.origin

    def _is_origin(self, p) -> bool:
        if self.kind == "l1":
            return p.is_zero
        if self.kind == "l1N":
            return all(v == 0.0 for v in p)
        return p == self.space.origin

    def _rebuild(self, terms) -> "Molecule":
        """The canonical molecule of ``terms`` on this molecule's space: terms
        at equal points merged (the last point kept, so ``-0.0`` may replace
        ``0.0``), zero sums and the origin dropped, sorted by point."""
        merged: dict = {}
        points: dict = {}
        for p, a in terms:
            merged[p] = merged.get(p, 0.0) + float(a)
            points[p] = p
        canon = tuple((points[k], merged[k]) for k in sorted(merged)
                      if merged[k] != 0.0 and not self._is_origin(points[k]))
        return Molecule(kind=self.kind, terms=canon, dim=self.dim, space=self.space)

    def _check_compatible(self, other: "Molecule") -> None:
        if self.kind != other.kind:
            raise ValueError("molecules live in different kinds of space")
        if self.kind == "l1N" and None not in (self.dim, other.dim) and self.dim != other.dim:
            raise ValueError("coordinate molecules have different dimensions")
        if self.kind == "finite" and self.space is not other.space:
            raise ValueError("finite-space molecules live on different spaces")

    def scaled(self, alpha: float) -> "Molecule":
        return self._rebuild([(p, alpha * a) for p, a in self.terms])

    def plus(self, other: "Molecule") -> "Molecule":
        self._check_compatible(other)
        if self.kind == "l1N" and self.dim is None:
            return other
        return self._rebuild(list(self.terms) + list(other.terms))

    def minus(self, other: "Molecule") -> "Molecule":
        return self.plus(other.scaled(-1.0))

    # -- serialization ------------------------------------------------------

    def _point_to_json(self, p):
        if self.kind == "l1":
            return p.to_json()
        if self.kind == "l1N":
            return list(p)
        return int(p)

    def to_json(self) -> dict:
        out = {
            "space": self.kind,
            "terms": [{"point": self._point_to_json(p), "coeff": a} for p, a in self.terms],
        }
        if self.kind == "l1N":
            out["dim"] = self.dim
        if self.kind == "finite":
            out["metric_space"] = self.space.to_json()
        return out

    @classmethod
    def from_json(cls, obj: Mapping) -> "Molecule":
        kind = obj["space"]
        raw = [(t["point"], float(t["coeff"])) for t in obj.get("terms", [])]
        if kind == "l1":
            return cls.on_l1(raw)
        if kind == "l1N":
            dim = obj.get("dim")
            return cls.on_rn(raw, dim=None if dim is None else as_index(dim, "dimension"))
        if kind == "finite":
            if "metric_space" not in obj:
                raise ValueError("finite-space molecules need a metric_space entry")
            return cls.on_space(FinitePointedMetricSpace.from_json(obj["metric_space"]), raw)
        raise ValueError(f"unknown molecule kind {kind!r}")


def molecules_close(a: Molecule, b: Molecule, tol: float = 1e-10) -> bool:
    """Coefficient-wise comparison of canonical molecules (exact points)."""
    a._check_compatible(b)
    da, db = dict(a.terms), dict(b.terms)
    for k in set(da) | set(db):
        if abs(da.get(k, 0.0) - db.get(k, 0.0)) > tol:
            return False
    return True


def pairing(f, mu: Molecule) -> float:
    """``sum_i a_i f(p_i)``; the duality bracket against a function."""
    total = 0.0
    for p, a in mu.terms:
        x = np.asarray(p, dtype=float) if mu.kind == "l1N" else p
        total += a * float(f(x))
    return total


@dataclass(frozen=True)
class NormCertificate:
    """Optimal value together with the witnessing function on the support."""

    value: float
    witness: dict

    def to_json(self, mu: Molecule) -> dict:
        """The value and the witness, its points encoded as in ``mu``'s JSON."""
        entries = [{"point": mu._point_to_json(p), "value": v} for p, v in self.witness.items()]
        return {"value": self.value, "witness": entries}


def check_certificate(cert: NormCertificate, mu: Molecule) -> bool:
    """Witness is 1-Lipschitz on its points and attains the value, to
    :data:`NORM_TOL` relative.  The absolute slacks are :data:`NORM_TOL`
    times the largest distance (times the total mass for the value), capped
    at :data:`NORM_TOL`, so the check is as strict at every scale."""
    pts = list(cert.witness)
    d = _distances(mu, pts)
    f = np.array([cert.witness[p] for p in pts])
    dmax = float(np.max(d, initial=0.0))
    steep = np.abs(f[:, None] - f[None, :]) > d * (1.0 + NORM_TOL) + NORM_TOL * min(1.0, dmax)
    if np.any(np.triu(steep, 1)):
        return False
    paired = sum(a * cert.witness[p] for p, a in mu.terms)
    mass = sum(abs(a) for _, a in mu.terms)
    return abs(paired - cert.value) <= NORM_TOL * max(min(1.0, dmax * mass), abs(cert.value))


def _distances(mu: Molecule, pts: list) -> np.ndarray:
    """Distances between points of ``mu``'s space."""
    if mu.kind == "finite":
        return mu.space.dist[np.ix_(pts, pts)]
    return l1_distances(pts, pts)


def _distance_matrix(mu: Molecule) -> np.ndarray:
    """Distances over origin + support, origin first.

    Entry ``[i, j]`` with ``i < j`` is the distance from point ``i`` to point
    ``j``, mirrored below the diagonal.
    """
    pts = [mu.origin_point()] + list(mu.support)
    if len(pts) == 1:
        return np.zeros((1, 1))
    upper = np.triu(_distances(mu, pts), 1)
    return upper + upper.T


def _chain_reach(d: np.ndarray) -> np.ndarray:
    """Best one-intermediate relay distance in the symmetric distance matrix
    ``d``, excluding trivial relays: off the diagonal, entry ``[i, j]`` is the
    least ``d[i, r] + d[r, j]`` over ``r`` other than ``i`` and ``j``.  An
    infinite diagonal rules the trivial relays out; ``inf`` padding keeps a
    matrix's reach, so ``d`` may be a padded stack.  Each block of rows, about
    :data:`_RELAY_ELEMENTS` sums over the stack, is reduced over all relays at
    once from its first row's column on (the reach is symmetric; the lower
    triangle stays ``inf``)."""
    k = d.shape[-1]
    dd = d + np.diag(np.full(k, np.inf))
    rows = max(1, _RELAY_ELEMENTS // d.size)
    reach = np.full(d.shape, np.inf)
    for lo in range(0, k, rows):
        np.min(dd[..., lo:lo + rows, None] + dd[..., None, lo:], axis=-3, out=reach[..., lo:lo + rows, lo:])
    return reach


class SolverError(RuntimeError):
    """The LP solver did not solve a norm or transport program."""


@dataclass
class LpResult:
    x: np.ndarray
    #: Simplex iterations, as HiGHS reports them.
    iterations: int


def solve_box_lp(c, pairs, b, lower, upper) -> LpResult:
    """Maximize ``c . x`` subject to ``-b[r] <= x[i] - x[j] <= b[r]`` for each
    row ``r = (i, j)`` of the ``(m, 2)`` index array ``pairs`` and to
    ``lower <= x <= upper``: one HiGHS solve with default options, through
    the bindings SciPy ships (``scipy.optimize._highspy``).  The column-wise
    matrix comes straight from ``pairs``: a stable sort of its entries puts
    each column's rows in order, with ``+1`` for ``i`` and ``-1`` for ``j``.
    Any model status but optimal raises :class:`SolverError`, and non-finite input ValueError."""
    from scipy.optimize._highspy import _core

    c, b, lower, upper = arrays = [np.asarray(v, dtype=float) for v in (c, b, lower, upper)]
    if not np.isfinite(np.concatenate(arrays)).all():
        bad = next(i for i, v in enumerate(arrays) if not np.isfinite(v).all())
        raise ValueError(f"the program's {('c', 'b', 'lower', 'upper')[bad]} is not finite")
    flat = np.ravel(pairs)
    order = np.argsort(flat, kind="stable")
    lp = _core.HighsLp()
    lp.num_col_ = lp.a_matrix_.num_col_ = len(c)
    lp.num_row_ = lp.a_matrix_.num_row_ = len(pairs)
    lp.a_matrix_.format_ = _core.MatrixFormat.kColwise
    lp.a_matrix_.start_ = np.searchsorted(flat[order], np.arange(len(c) + 1))
    lp.a_matrix_.index_, lp.a_matrix_.value_ = order // 2, 1.0 - 2.0 * (order % 2)
    lp.col_cost_, lp.col_lower_, lp.col_upper_ = -c, lower, upper
    lp.row_lower_, lp.row_upper_ = -b, b
    highs = _core._Highs()
    highs.setOptionValue("log_to_console", False)
    highs.passModel(lp)
    highs.run()
    status = highs.getModelStatus()
    if status != _core.HighsModelStatus.kOptimal:
        raise SolverError(highs.modelStatusToString(status))
    return LpResult(x=np.array(highs.getSolution().col_value), iterations=highs.getInfo().simplex_iteration_count)


def _power_of_two_above(v: float) -> float:
    """The least power of two strictly above ``v > 0``."""
    return 2.0 ** math.frexp(v)[1]


def _check_norm_size(size: int, what: str) -> None:
    if size > MAX_NORM_SUPPORT:
        raise ValueError(f"{what} has {size} support points; exact norms take at most {MAX_NORM_SUPPORT}")


def free_norm(mu: Molecule) -> NormCertificate:
    """Exact norm of a molecule with the optimal dual witness: the
    one-molecule view of :func:`free_norms`, so HiGHS gets the molecule's own
    program and nothing else."""
    return free_norms([mu])[0]


def _norm_programs(coeffs: Sequence[np.ndarray], ds: Sequence[np.ndarray]) -> list:
    """The scaled ``(c, pairs, b, bound, scale)`` program of each nonzero
    molecule from its coefficients and distances over origin + support.
    Relays are pruned on ``inf``-padded stacks of at most
    :data:`_RELAY_ELEMENTS` entries, so small matrices share blocks."""
    programs, lo = [], 0
    while lo < len(ds):
        hi, size = lo + 1, len(ds[lo])
        while hi < len(ds) and (hi + 1 - lo) * max(size, len(ds[hi])) ** 2 <= _RELAY_ELEMENTS:
            hi, size = hi + 1, max(size, len(ds[hi]))
        stack = np.full((hi - lo, size, size), np.inf)
        for s, d in zip(stack, ds[lo:hi]):
            s[:len(d), :len(d)] = d
        kept = np.triu(_chain_reach(stack) > stack * (1.0 + 1e-12), 1)
        for c, d, keep in zip(coeffs[lo:hi], ds[lo:hi], kept):
            i, j = np.nonzero(keep[1:len(d), 1:len(d)])
            scale = _power_of_two_above(float(np.max(d)))
            programs.append((c / _power_of_two_above(float(np.max(np.abs(c)))), np.column_stack([i, j]),
                             d[i + 1, j + 1] / scale, d[0, 1:] / scale, scale))
        lo = hi
    return programs


def _solve_programs(programs: list) -> list[np.ndarray]:
    """Each program's optimal function, scaled back: the programs share no
    variable, so one HiGHS call solves them stacked block-diagonally."""
    if not programs:
        return []
    c, pairs, b, bound, scales = zip(*programs)
    starts = np.cumsum([0] + [len(ck) for ck in c])
    upper = np.concatenate(bound)
    x = solve_box_lp(np.concatenate(c), np.concatenate([p + s for p, s in zip(pairs, starts)]),
                     np.concatenate(b), -upper, upper).x
    return [x[lo:hi] * scale for lo, hi, scale in zip(starts, starts[1:], scales)]


def free_norms(mus: Sequence[Molecule]) -> list[NormCertificate]:
    """Exact norms of a batch of molecules with their optimal dual witnesses.

    Each norm maximizes the pairing over functions on ``support + origin``
    that vanish at the origin and have all difference quotients at most one.
    A pair with an exact relay through a third point is implied by shorter
    pairs and is dropped; every other pair is one row
    ``-d_ij <= f_i - f_j <= d_ij``, and the distances to the origin are the
    variable bounds.  HiGHS takes bounds of ``1e20`` or more as infinite and
    ignores small reduced costs, so each molecule's distances are divided by
    its own power of two ``2^e >= max d`` and its coefficients by one above
    their largest magnitude; both divisions are exact, and the witness is
    multiplied back.  All programs go to one HiGHS call
    (:func:`_solve_programs`).  Zero molecules take no variable; a batch of
    them solves nothing.  A support larger than :data:`MAX_NORM_SUPPORT`
    raises ValueError before any solve.
    """
    mus = list(mus)
    for mu in mus:
        _check_norm_size(len(mu.terms), "the molecule")
    solved = [mu for mu in mus if not mu.is_zero]
    xs = iter(_solve_programs(_norm_programs([np.asarray(mu.coefficients) for mu in solved],
                                             [_distance_matrix(mu) for mu in solved])))
    certs = []
    for mu in mus:
        origin, value = mu.origin_point(), 0.0
        witness = {} if origin is None else {origin: 0.0}
        if not mu.is_zero:
            xk = next(xs)
            witness.update(zip(mu.support, xk.tolist()))
            value = max(float(np.asarray(mu.coefficients) @ xk), 0.0)
        certs.append(NormCertificate(value=value, witness=witness))
    return certs


def transport_norm(mu: Molecule) -> float:
    """Independent norm computation through the mass-transport program.

    Balances the molecule by letting the origin absorb the net mass, then
    minimizes the cost of moving the positive part onto the negative part.
    Solved with HiGHS (``linprog``) after dividing distances and masses by
    powers of two, as in :func:`free_norm`; used as an oracle against
    :func:`free_norm`.
    """
    from scipy import optimize

    if mu.is_zero:
        return 0.0
    masses = list(mu.terms) + [(mu.origin_point(), -mu.total_mass())]
    pos = [(p, a) for p, a in masses if a > 0.0]
    neg = [(p, -a) for p, a in masses if a < 0.0]
    if not pos or not neg:
        return 0.0
    cost = np.array([mu.point_distance(p, q) for p, _ in pos for q, _ in neg])
    supply = np.array([a for _, a in pos + neg])
    scale, mass = _power_of_two_above(float(np.max(cost))), _power_of_two_above(float(np.max(supply)))
    # One balance row per point, sources first; the last row is redundant.
    a_eq = np.vstack([np.kron(np.eye(len(pos)), np.ones(len(neg))), np.kron(np.ones(len(pos)), np.eye(len(neg)))])
    res = optimize.linprog(cost / scale, A_eq=a_eq[:-1], b_eq=supply[:-1] / mass, bounds=(0, None), method="highs")
    if not res.success:
        raise SolverError(f"transport oracle failed: {res.message}")
    return float(res.fun) * scale * mass


def line_norm(mu: Molecule) -> float:
    """Closed-form norm for molecules on the real line.

    The step function ``g(s) = sum {a_i : s between 0 and t_i, signed}`` is
    the integrable representative of the molecule; its total variation is the
    norm.  Accepts 1-dimensional coordinate molecules and sparse molecules
    supported on the first coordinate.
    """
    coords = []
    for p, a in mu.terms:
        if mu.kind == "l1N":
            if mu.dim != 1:
                raise ValueError("line formula needs 1-dimensional molecules")
            coords.append((p[0], a))
        elif mu.kind == "l1":
            if any(i != 1 for i in p.support):
                raise ValueError("line formula needs support on the first coordinate")
            coords.append((p.coord(1), a))
        else:
            raise ValueError("line formula does not apply to abstract finite spaces")
    if not coords:
        return 0.0
    breaks = sorted({0.0} | {t for t, _ in coords})
    total = 0.0
    for left, right in zip(breaks, breaks[1:]):
        mid = 0.5 * (left + right)
        g = 0.0
        for t, a in coords:
            if 0.0 < mid < t:
                g += a
            elif t < mid < 0.0:
                g -= a
        total += abs(g) * (right - left)
    return total


def molecule_projection(mu: Molecule, n: int) -> Molecule:
    """Push each point's mass onto its tiling-cell corners (the predual step).

    For every term the (clamped, truncated) point is located in the level-n
    tiling and its coefficient is spread over the weighted corners that
    :func:`lipfree.operators.cell_weights` yields; canonicalization merges
    corners shared by several terms and drops those landing on the origin.
    By construction pairing any function against the result equals pairing
    its projection against the input.
    """
    if mu.kind == "finite":
        raise ValueError("grid projections act on l1-type molecules only")
    if mu.is_zero:
        return mu
    level = GridLevel(n, mu.dim)  # sequence mode for l1 molecules, which have no dim
    rows, keys, weights = cell_weights(mu.support, level)
    mass = np.asarray(mu.coefficients)[rows] * weights
    coords = lattice_coords(keys, n)
    points = SparseBatch.from_rows(coords) if mu.kind == "l1" else map(tuple, coords.tolist())
    return mu._rebuild(zip(points, mass.tolist()))


def _projection_estimates(mu: Molecule, n_max: int) -> tuple[np.ndarray, np.ndarray]:
    """Per level ``1..n_max``, the duality transcription of the pointwise
    decay estimate at unit constant, ``sum |a_i| 2 (tail_i + cell_dim
    2^(1-n))`` added in term order (down axis 0), and whether the clamp onto
    the big cube moves some support point."""
    support = SparseBatch.of(mu.support) if mu.kind == "l1" else mu.support
    rows = _stack_points(support, GridLevel(n_max, mu.dim))
    bounds, clamped = _decay_estimates(support, rows, mu.dim, np.arange(1, n_max + 1))
    terms = np.abs(np.asarray(mu.coefficients, dtype=float))[:, None] * bounds
    return np.cumsum(np.vstack([np.zeros(n_max), terms]), axis=0)[-1], clamped.any(axis=0)


@dataclass(frozen=True)
class FddRow:
    n: int
    norm_value: float
    err_value: float
    bound: float
    support_size: int
    clamped: bool
    bound_ok: bool | None


@dataclass(frozen=True)
class FddReport:
    base_norm: float
    rows: tuple[FddRow, ...]
    monotone_ok: bool
    trend_ok: bool
    lattice_ok: bool

    @property
    def passed(self) -> bool:
        return (self.monotone_ok and self.trend_ok and self.lattice_ok
                and all(r.bound_ok is not False for r in self.rows))

    def to_json(self) -> dict:
        return {**vars(self), "rows": [vars(r) for r in self.rows], "passed": self.passed}


def _lattice_ok(coords: np.ndarray, mass: np.ndarray, level_of: np.ndarray, n_max: int, dim: int | None,
                pairs: tuple | None = None) -> bool:
    """True when the level projections commute with the coarser level winning:
    for all levels ``m, n`` in ``1..n_max``, projecting the level-``n``
    projection to level ``m`` gives the level-``min(m, n)`` one, coefficient
    by coefficient within :data:`LATTICE_TOL`.  Pairs with ``m > n`` are
    implied: once ``(n, n)`` holds, a level-``n`` point is a grid point, its
    own expansion with weight exactly 1 at every finer level.

    The rows ``coords`` (at level ``n_max``'s width) have masses ``mass`` and
    levels ``level_of``.  One :func:`cell_weights` call projects the rows of
    every pair ``(m, n)`` to level ``m``; the expected side enters negated at
    exact level-``m`` keys (a point off that grid fails); masses add by ``(m,
    n, key)``, the origin corner left out.  Past the corner cap the ``pairs``
    go in halves."""
    levels = np.arange(1, n_max + 1)
    pair_m, pair_n = pairs or tuple(k + 1 for k in np.triu_indices(n_max))
    span = [np.flatnonzero(level_of == n) for n in range(n_max + 1)]
    count = np.array([len(rows) for rows in span])
    source, target = np.concatenate([span[n] for n in pair_n]), np.repeat(pair_m, count[pair_n])
    try:
        entry, keys, weights = cell_weights(coords[source], GridLevel(n_max, dim), target)
    except TooManyCorners:
        if len(pair_m) == 1:
            raise
        halves = (slice(None, len(pair_m) // 2), slice(len(pair_m) // 2, None))
        return all(_lattice_ok(coords, mass, level_of, n_max, dim, (pair_m[h], pair_n[h])) for h in halves)
    m, source = target[entry], source[entry]
    keep = (keys != (1 << (2 * m - 2))[:, None]).any(axis=1)
    expect, at = np.concatenate([span[k] for k in pair_m]), np.repeat(pair_m, count[pair_m])[:, None]
    scaled = (coords[expect] + 2.0 ** (at - 1)) * 2.0 ** (at - 1)
    if np.any(scaled != np.floor(scaled)) or dim is None and np.any(coords[expect] * (levels > at)):
        return False
    key_rows = np.vstack([np.column_stack([m, level_of[source], keys])[keep],
                          np.column_stack([at, np.repeat(pair_n, count[pair_m]), scaled.astype(np.int64)])])
    _, group_of = np.unique(pack_key_rows(key_rows), return_inverse=True)
    sums = np.bincount(group_of, weights=np.concatenate([mass[source[keep]] * weights[keep], -mass[expect]]))
    return bool(np.all(np.abs(sums) <= LATTICE_TOL))


def _level_programs(mu: Molecule, projections: list[Molecule], n_max: int) -> dict:
    """The norm programs of a report, ``{slot: (c, program)}``: slot 0 the
    input, ``n`` the level-``n`` projection, ``n_max + n`` its error ``P_n -
    mu``.  Runs of levels with at most ``2 * MAX_NORM_SUPPORT + 1`` points
    share one table of distinct points in :class:`Molecule` order, a mass row
    per molecule, and one distance matrix."""
    sizes, programs, lo = [len(proj.terms) for proj in projections], {}, 1
    while lo <= len(sizes):
        hi = lo
        while hi < len(sizes) and len(mu.terms) + sum(sizes[lo - 1:hi + 1]) <= 2 * MAX_NORM_SUPPORT + 1:
            hi += 1
        k, group = hi - lo + 1, [mu, *projections[lo - 1:hi]]
        table = [mu.origin_point(), *sorted({p for part in group for p in part.support})]
        where = {p: i for i, p in enumerate(table)}
        rows = np.zeros((2 * k + 1, len(table)))  # input, projections, errors
        for row, part in zip(rows, group):
            row[[where[p] for p in part.support]] = part.coefficients
        rows[k + 1:] = rows[1:k + 1] - rows[0]
        if lo > 1 or len(mu.terms) > MAX_NORM_SUPPORT:
            rows[0] = 0.0
        used = [(slot, row[i], np.concatenate([[0], i])) for slot, row, i in
                zip([0, *range(lo, hi + 1), *range(n_max + lo, n_max + hi + 1)], rows, map(np.flatnonzero, rows))
                if len(i)]
        dist = np.triu(_distances(mu, table), 1) if used else np.zeros((1, 1))
        dist += dist.T
        cs = [c for _, c, _ in used]
        programs.update(zip([slot for slot, _, _ in used],
                            zip(cs, _norm_programs(cs, [dist[at[:, None], at] for _, _, at in used]))))
        lo = hi + 1
    return programs


def decomposition_report(mu: Molecule, n_max: int) -> FddReport:
    """Per-level diagnostics of the grid projections on one molecule.

    Checks, per level: the projected norm does not exceed the input norm
    (relative :data:`FDD_TOL`); the approximation error respects the duality
    bound while no clamp is active; and across levels the projections form a
    commuting lattice (:func:`_lattice_ok`).  The error trend check asks the
    final error not to exceed the first.  ``n_max`` must lie in
    ``1..MAX_LEVEL``.

    Each level is projected by :func:`molecule_projection`; the norm programs
    are cut from shared distance matrices (:func:`_level_programs`) and solved
    in one HiGHS call.  A level past the corner cap or
    :data:`MAX_NORM_SUPPORT` raises ValueError after the earlier levels.
    """
    if not (1 <= n_max <= MAX_LEVEL):
        raise ValueError(f"n_max must be in 1..{MAX_LEVEL}, got {n_max}")
    if mu.kind == "finite":
        raise ValueError("grid projections act on l1-type molecules only")
    projections, coeff_of = [], dict(mu.terms)
    for n in range(1, n_max + 1):
        proj = molecule_projection(mu, n)
        projections.append(proj)
        _check_norm_size(len(proj.terms), f"the level-{n} projection")
        # |supp(P_n - mu)|: a point of both counts once, and not at all where the coefficients cancel
        same = [coeff_of[p] == a for p, a in proj.terms if p in coeff_of]
        _check_norm_size(len(proj.terms) + len(mu.terms) - len(same) - sum(same), f"the level-{n} projection error")
    programs = _level_programs(mu, projections, n_max)
    _check_norm_size(len(mu.terms), "the molecule")
    values = np.zeros(2 * n_max + 1)
    for k, x in zip(sorted(programs), _solve_programs([programs[k][1] for k in sorted(programs)])):
        values[k] = max(float(programs[k][0] @ x), 0.0)
    report = []
    for n, bound, clamped in zip(range(1, n_max + 1), *(a.tolist() for a in _projection_estimates(mu, n_max))):
        err = float(values[n_max + n])
        report.append(FddRow(n=n, norm_value=float(values[n]), err_value=err, bound=bound,
                             support_size=len(projections[n - 1].terms), clamped=clamped,
                             bound_ok=None if clamped else err <= bound + FDD_TOL * max(1.0, bound)))
    base = float(values[0])
    points = [p for proj in projections for p in proj.support]
    mass = np.array([a for proj in projections for a in proj.coefficients], dtype=float)
    level_of = np.repeat(np.arange(1, n_max + 1), [len(proj.terms) for proj in projections])
    return FddReport(base_norm=base, rows=tuple(report),
                     monotone_ok=all(r.norm_value <= base * (1.0 + FDD_TOL) + FDD_TOL for r in report),
                     trend_ok=report[-1].err_value <= report[0].err_value + FDD_TOL,
                     lattice_ok=_lattice_ok(_stack_points(points, GridLevel(n_max, mu.dim)), mass, level_of, n_max,
                                            mu.dim))
