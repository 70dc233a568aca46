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
the full space exactly.  :func:`free_norm` solves the function-side program
with the package's own simplex (the optimal witness function falls out of
the solution); :func:`transport_norm` solves the mass-transport side with an
independent solver and serves as an oracle; :func:`line_norm` evaluates the
closed-form total-variation expression available for molecules on the real
line.

The grid projection :func:`molecule_projection` pushes each point's mass onto
the weighted corners of its tiling cell through the same sparse corner
triplets as the function projection; by construction its pairing with any
function equals the pairing of the projected function with the original
molecule.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

import numpy as np
from scipy import optimize

from .extension import FinitePointedMetricSpace
from .geometry import MAX_LEVEL, FiniteSupportPoint, check_magnitude, l1_distance, l1_distances
from .lp import SimplexError, solve_box_lp
from .operators import GridLevel, cell_weights, lattice_coords

KINDS = ("l1", "l1N", "finite")

#: Tolerance of the norm program (:func:`free_norm`) and of its certificate
#: check (:func:`check_certificate`).
NORM_TOL = 1e-9

#: Relative slack of :func:`decomposition_report`'s norm, bound and trend checks.
FDD_TOL = 1e-7

#: Coefficient tolerance of :func:`decomposition_report`'s lattice check.
LATTICE_TOL = 1e-10


def _as_l1_point(p) -> FiniteSupportPoint:
    if isinstance(p, FiniteSupportPoint):
        return p
    if isinstance(p, Mapping):
        if "coords" in p:
            return FiniteSupportPoint.from_json(p)
        return FiniteSupportPoint.from_dict(p)
    return FiniteSupportPoint.from_dense(p)


def _coefficient(a) -> float:
    a = float(a)
    if not np.isfinite(a):
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

    # -- construction -------------------------------------------------------

    @classmethod
    def on_l1(cls, pairs: Iterable[tuple[object, float]]) -> "Molecule":
        terms = [(_as_l1_point(p), _coefficient(a)) for p, a in pairs]
        return cls(kind="l1", terms=())._rebuild(terms)

    @classmethod
    def on_rn(cls, pairs: Iterable[tuple[object, float]], dim: int | None = None) -> "Molecule":
        terms = []
        for p, a in pairs:
            arr = np.asarray(p, dtype=float)
            if arr.ndim != 1:
                raise ValueError(f"point {p!r} is not a flat list of coordinates")
            pt = tuple(float(v) for v in arr)
            if dim is None:
                dim = len(pt)
            if len(pt) != dim:
                raise ValueError("all points must share one dimension")
            if not all(np.isfinite(pt)):
                raise ValueError(f"point {pt} has a non-finite coordinate")
            check_magnitude(max(pt, key=abs, default=0.0), "coordinate of point {}", pt)
            terms.append((pt, _coefficient(a)))
        return cls(kind="l1N", terms=(), dim=dim)._rebuild(terms)

    @classmethod
    def on_space(cls, space: FinitePointedMetricSpace,
                 pairs: Iterable[tuple[int, float]]) -> "Molecule":
        terms = []
        for p, a in pairs:
            i = int(p)
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

    def _key(self, p):
        """The key that identifies a point: a sparse point's items, else the point."""
        return p.items if self.kind == "l1" else p

    def _is_origin(self, p) -> bool:
        if self.kind == "l1":
            return p.is_zero
        if self.kind == "l1N":
            return all(v == 0.0 for v in p)
        return p == self.space.origin

    def _rebuild(self, terms) -> "Molecule":
        """The canonical molecule of ``terms`` on this molecule's space: terms
        of equal key merged (the last point kept), zero sums and the origin
        dropped, sorted by key."""
        merged: dict = {}
        points: dict = {}
        for p, a in terms:
            k = self._key(p)
            merged[k] = merged.get(k, 0.0) + float(a)
            points[k] = p
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

    def _encode_point(self, p):
        if self.kind == "l1":
            return p.to_json()
        if self.kind == "l1N":
            return list(p)
        return int(p)

    def to_json(self) -> dict:
        out = {
            "space": self.kind,
            "terms": [{"point": self._encode_point(p), "coeff": a} for p, a in self.terms],
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
            return cls.on_rn(raw, dim=int(dim) if dim is not None else None)
        if kind == "finite":
            if "metric_space" not in obj:
                raise ValueError("finite-space molecules need a metric_space entry")
            return cls.on_space(FinitePointedMetricSpace.from_json(obj["metric_space"]), raw)
        raise ValueError(f"unknown molecule kind {kind!r}")


def molecules_close(a: Molecule, b: Molecule, tol: float = 1e-10) -> bool:
    """Coefficient-wise comparison of canonical molecules (exact point keys)."""
    a._check_compatible(b)
    da = {a._key(p): c for p, c in a.terms}
    db = {b._key(p): c for p, c in b.terms}
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
        entries = [{"point": mu._encode_point(p), "value": v} for p, v in self.witness.items()]
        return {"value": self.value, "witness": entries}


def check_certificate(cert: NormCertificate, mu: Molecule) -> bool:
    """Witness is 1-Lipschitz on support + origin and attains the value, to
    :data:`NORM_TOL`."""
    pts = list(cert.witness)
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            d = mu.point_distance(pts[i], pts[j])
            if abs(cert.witness[pts[i]] - cert.witness[pts[j]]) > d * (1.0 + NORM_TOL) + NORM_TOL:
                return False
    paired = sum(a * cert.witness[p] for p, a in mu.terms)
    return abs(paired - cert.value) <= NORM_TOL * max(1.0, abs(cert.value))


def _distance_matrix(mu: Molecule) -> np.ndarray:
    """Distances over origin + support, origin first.

    Entry ``[i, j]`` with ``i < j`` is the distance from point ``i`` to point
    ``j``, mirrored below the diagonal.
    """
    pts = [mu.origin_point()] + list(mu.support)
    if mu.kind == "finite":
        d = mu.space.dist[np.ix_(pts, pts)]
    elif len(pts) > 1:
        d = l1_distances(pts, pts)
    else:
        return np.zeros((1, 1))
    upper = np.triu(d, 1)
    return upper + upper.T


def _chain_reach(d: np.ndarray) -> np.ndarray:
    """Best one-intermediate relay distance, excluding trivial relays."""
    k = d.shape[0]
    reach = np.full((k, k), np.inf)
    for r in range(k):
        via = d[:, r][:, None] + d[r, :][None, :]
        via[r, :] = np.inf
        via[:, r] = np.inf
        np.minimum(reach, via, out=reach)
    return reach


def free_norm(mu: Molecule) -> NormCertificate:
    """Exact norm of a molecule with the optimal dual witness.

    Maximizes the pairing over functions on ``support + origin`` that vanish
    at the origin and have all difference quotients at most one.  Constraints
    are generated lazily: pairs with an exact relay through a third point are
    implied by shorter pairs and enter only if violated, so the working
    program stays near the size of the active set.  Origin constraints become
    the variable bounds, making the all-lower start feasible by the triangle
    inequality.
    """
    if mu.is_zero:
        witness = {}
        origin = mu.origin_point()
        if origin is not None:
            witness[origin] = 0.0
        return NormCertificate(value=0.0, witness=witness)

    pts = list(mu.support)
    coeffs = np.asarray(mu.coefficients)
    k = len(pts)
    d = _distance_matrix(mu)
    scale = max(1.0, float(np.max(d)))
    vtol = NORM_TOL * scale

    reach = _chain_reach(d)
    candidates: list[tuple[int, int]] = []
    for i in range(1, k + 1):
        for j in range(i + 1, k + 1):
            if reach[i, j] > d[i, j] * (1.0 + 1e-12):
                candidates.append((i, j))

    lower = -d[0, 1:]
    upper = d[0, 1:].copy()

    rows: list[tuple[int, int]] = []
    present: set[tuple[int, int]] = set()

    def add_row(i: int, j: int) -> None:
        if (i, j) not in present:
            present.add((i, j))
            rows.append((i, j))

    # Seed with each point's nearest candidate partner.
    by_point: dict[int, list[tuple[float, int, int]]] = {}
    for i, j in candidates:
        by_point.setdefault(i, []).append((d[i, j], i, j))
        by_point.setdefault(j, []).append((d[i, j], i, j))
    for i in sorted(by_point):
        _, a, b = min(by_point[i])
        add_row(a, b)
        add_row(b, a)

    result = None
    warm = None
    max_rounds = 4 * k + 16
    for round_no in range(max_rounds):
        if rows:
            a_mat = np.zeros((len(rows), k))
            b_vec = np.empty(len(rows))
            for r, (i, j) in enumerate(rows):
                a_mat[r, i - 1] = 1.0
                a_mat[r, j - 1] = -1.0
                b_vec[r] = d[i, j]
        else:
            a_mat, b_vec = None, []
        result = solve_box_lp(coeffs, a_mat, b_vec, lower, upper, tol=NORM_TOL, start_at_upper=warm)
        f = result.x
        warm = f > 0.5 * (lower + upper)
        violated: list[tuple[float, int, int]] = []
        for i, j in candidates:
            gap = f[i - 1] - f[j - 1]
            if gap > d[i, j] + vtol:
                violated.append((gap - d[i, j], i, j))
            elif -gap > d[i, j] + vtol:
                violated.append((-gap - d[i, j], j, i))
        if not violated:
            break
        if rows and round_no < 10:
            # Drop rows that came out slack; they re-enter if ever violated.
            slack = b_vec - a_mat @ f
            kept = [rows[r] for r in range(len(rows)) if slack[r] <= vtol + 1e-7 * scale]
            rows = kept
            present = set(rows)
        violated.sort(key=lambda t: (-t[0], t[1], t[2]))
        for _, i, j in violated[: max(4 * k, 64)]:
            add_row(i, j)
    else:
        raise SimplexError("constraint generation did not converge")

    value = max(float(result.objective), 0.0)
    witness = {mu.origin_point(): 0.0}
    for p, v in zip(pts, result.x):
        witness[p] = float(v)
    return NormCertificate(value=value, witness=witness)


def transport_norm(mu: Molecule) -> float:
    """Independent norm computation through the mass-transport program.

    Balances the molecule by letting the origin absorb the net mass, then
    minimizes the cost of moving the positive part onto the negative part.
    Solved with SciPy's LP solver; used as an oracle against
    :func:`free_norm`.
    """
    if mu.is_zero:
        return 0.0
    masses: list[tuple[object, float]] = list(mu.terms)
    masses.append((mu.origin_point(), -mu.total_mass()))
    pos = [(p, a) for p, a in masses if a > 0.0]
    neg = [(p, -a) for p, a in masses if a < 0.0]
    if not pos or not neg:
        return 0.0
    np_, nn = len(pos), len(neg)
    cost = np.empty(np_ * nn)
    for i, (p, _) in enumerate(pos):
        for j, (q, _) in enumerate(neg):
            cost[i * nn + j] = mu.point_distance(p, q)
    a_eq = np.zeros((np_ + nn - 1, np_ * nn))
    b_eq = np.empty(np_ + nn - 1)
    for i in range(np_):
        a_eq[i, i * nn : (i + 1) * nn] = 1.0
        b_eq[i] = pos[i][1]
    for j in range(nn - 1):  # the last balance row is redundant
        a_eq[np_ + j, j::nn] = 1.0
        b_eq[np_ + j] = neg[j][1]
    res = optimize.linprog(cost, A_eq=a_eq, b_eq=b_eq, bounds=(0, None), method="highs")
    if not res.success:
        raise SimplexError(f"transport oracle failed: {res.message}")
    return float(res.fun)


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
    level = GridLevel(n, dim=None if mu.kind == "l1" else mu.dim)
    rows, keys, weights = cell_weights(mu.support, level)
    mass = np.asarray(mu.coefficients)[rows] * weights
    coords = lattice_coords(keys, n)
    if mu.kind == "l1":
        points = [FiniteSupportPoint.from_dense(c) for c in coords]
    else:
        points = [tuple(c) for c in coords.tolist()]
    return mu._rebuild(list(zip(points, mass.tolist())))


def projection_bound(mu: Molecule, n: int) -> float:
    """Duality transcription of the pointwise decay estimate, unit constant."""
    total = 0.0
    cells = n if mu.kind == "l1" else (mu.dim or 0)
    for p, a in mu.terms:
        tail = p.tail(n) if mu.kind == "l1" else 0.0
        total += abs(a) * 2.0 * (tail + cells * 2.0 ** (1 - n))
    return total


def term_clamped(mu: Molecule, n: int) -> bool:
    """True when some support point is moved by the clamp onto the big cube."""
    half = 2.0 ** (n - 1)
    for p, _ in mu.terms:
        lead = p.leading(n) if mu.kind == "l1" else np.asarray(p, dtype=float)
        if lead.size and float(np.max(np.abs(lead))) > half:
            return True
    return False


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
        return self.monotone_ok and self.trend_ok and self.lattice_ok and all(
            r.bound_ok is not False for r in self.rows
        )

    def to_json(self) -> dict:
        return {
            "base_norm": self.base_norm,
            "rows": [vars(r) | {"bound_ok": r.bound_ok} for r in self.rows],
            "monotone_ok": self.monotone_ok,
            "trend_ok": self.trend_ok,
            "lattice_ok": self.lattice_ok,
            "passed": self.passed,
        }


def decomposition_report(mu: Molecule, n_max: int) -> FddReport:
    """Per-level diagnostics of the grid projections on one molecule.

    Checks, per level: the projected norm does not exceed the input norm
    (relative :data:`FDD_TOL`); the approximation error respects the duality
    bound while no clamp is active; and across levels the projections form a
    commuting lattice (finer following coarser equals coarser, termwise to
    :data:`LATTICE_TOL`).  The error trend check asks the final error not to
    exceed the first.  ``n_max`` must lie in ``1..MAX_LEVEL``.
    """
    if not (1 <= n_max <= MAX_LEVEL):
        raise ValueError(f"n_max must be in 1..{MAX_LEVEL}, got {n_max}")
    base = free_norm(mu).value
    rows = []
    projections = {}
    for n in range(1, n_max + 1):
        proj = molecule_projection(mu, n)
        projections[n] = proj
        norm_value = free_norm(proj).value
        err_value = free_norm(proj.minus(mu)).value
        bound = projection_bound(mu, n)
        clamped = term_clamped(mu, n)
        bound_ok = None if clamped else bool(err_value <= bound + FDD_TOL * max(1.0, bound))
        rows.append(
            FddRow(
                n=n,
                norm_value=norm_value,
                err_value=err_value,
                bound=bound,
                support_size=len(proj.terms),
                clamped=clamped,
                bound_ok=bound_ok,
            )
        )
    monotone_ok = all(r.norm_value <= base * (1.0 + FDD_TOL) + FDD_TOL for r in rows)
    trend_ok = rows[-1].err_value <= rows[0].err_value + FDD_TOL
    lattice_ok = True
    for m in range(1, n_max + 1):
        for n in range(1, n_max + 1):
            left = molecule_projection(projections[n], m)
            right = projections[min(m, n)]
            if not molecules_close(left, right, tol=LATTICE_TOL):
                lattice_ok = False
    return FddReport(
        base_norm=base,
        rows=tuple(rows),
        monotone_ok=monotone_ok,
        trend_ok=trend_ok,
        lattice_ok=lattice_ok,
    )
