"""Seeded self-verification suites covering every module's invariants.

Each suite draws its own generator from the run seed, so a run is a
deterministic function of the seed; the report carries one pass/fail verdict
and a worst-case figure per suite.  These are the library-level counterparts
of the pytest suite, packaged so the command line can re-run them anywhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import extension, freespace, geometry, interpolation, operators
from .operators import _random_sparse

DEFAULT_SEED = 20250810


@dataclass(frozen=True)
class SuiteResult:
    name: str
    passed: bool
    worst: float
    note: str = ""


@dataclass(frozen=True)
class VerificationReport:
    seed: int
    suites: tuple[SuiteResult, ...]

    @property
    def passed(self) -> bool:
        return all(s.passed for s in self.suites)

    def to_json(self) -> dict:
        # Suites may report NumPy scalars, which JSON cannot encode.  A suite
        # that stops at its first failure reports an infinite worst case; JSON
        # has no infinity, so it is written as null.
        return {
            "seed": self.seed,
            "passed": self.passed,
            "suites": [
                {"name": s.name, "passed": bool(s.passed),
                 "worst_case": float(s.worst) if math.isfinite(s.worst) else None, "note": s.note}
                for s in self.suites
            ],
        }


def _random_cell(rng, dim):
    """A random cell of a random level ``n`` in 1..3, by the key of its low
    corner, and random corner values as a ``(2,) * dim`` table indexed by a
    corner's key offset from that low corner."""
    n = int(rng.integers(1, 4))
    return n, rng.integers(0, 1 << (2 * n - 1), size=dim), rng.normal(size=(2,) * dim)


def _corner_offsets(dim: int) -> np.ndarray:
    """The key offsets ``{0, 1}**dim`` of a cell's corners as rows, in the
    order of :func:`lipfree.geometry.sign_vectors`."""
    return np.indices((2,) * dim).reshape(dim, -1).T


def _points_in(rng, n, low, count) -> np.ndarray:
    """``count`` points uniform in the level-n cell with low-corner key ``low``."""
    return geometry.lattice_coords(low, n) + rng.uniform(0.0, 2.0 ** (1 - n), size=(count, len(low)))


class _OutsideCell(ValueError):
    """A blend's weight on a key outside its cell; the suite fails."""


def _blend(xs, n, low, table) -> np.ndarray:
    """Values at the rows ``xs`` that the level-n
    :func:`lipfree.operators.cell_weights` blend from the corner values
    ``table`` of the cell with low-corner key ``low``, or :class:`_OutsideCell`."""
    rows, keys, w = operators.cell_weights(xs, operators.GridLevel(n, dim=len(low)))
    outside = np.flatnonzero(((keys < low) | (keys > low + 1)).any(axis=1))
    if outside.size:
        raise _OutsideCell(f"weight on key {keys[outside[0]].tolist()} outside the level-{n} cell {low.tolist()}")
    return np.bincount(rows, weights=w * table[tuple((keys - low).T)], minlength=len(xs))


def _suite_geometry_retraction(rng) -> SuiteResult:
    """Points beyond the big cube get, bit for bit, the corner weights of their
    coordinatewise clamp, and the clamp is idempotent and 1-Lipschitz in l1
    (the largest signed slack is reported)."""
    worst = -np.inf
    xs = rng.uniform(-8, 8, size=(2_000, 3))
    ys = rng.uniform(-8, 8, size=(2_000, 3))
    for n in (1, 2, 3):
        half = 2.0 ** (n - 1)
        px, py = np.clip(xs, -half, half), np.clip(ys, -half, half)
        if not np.array_equal(np.clip(px, -half, half), px):
            return SuiteResult("geometry-retraction", False, np.inf, "clamp not idempotent")
        level = operators.GridLevel(n, dim=3)
        if not all(map(np.array_equal, operators.cell_weights(xs, level), operators.cell_weights(px, level))):
            return SuiteResult("geometry-retraction", False, np.inf, f"weights beyond the level-{n} cube")
        lhs = np.abs(px - py).sum(axis=1)
        rhs = np.abs(xs - ys).sum(axis=1)
        worst = max(worst, float(np.max(lhs - rhs)))
    return SuiteResult("geometry-retraction", worst <= 0.0, worst)


def _tiling_cells(n: int, dim: int) -> np.ndarray:
    """Centres of every level-n cell, from the paper's addresses.

    The cell with signs ``eps`` in {-1, +1}**dim and offsets ``h`` with each
    ``h_i`` in ``0 .. 2**(2n-2) - 1`` has edge ``2**(-k)``, ``k = n - 1``,
    and centre ``2**(-k-1) eps + 2**(-k) (eps_1 h_1, ..., eps_d h_d)``.  The
    enumeration shares no arithmetic with the lattice keys of
    :mod:`lipfree.geometry`, so it checks :func:`lipfree.geometry.locate_cube`
    and :func:`lipfree.geometry.cell_low_corners` independently.
    """
    per_axis = 1 << (2 * n - 2)
    h = np.tile(np.indices((per_axis,) * dim).reshape(dim, -1).T, (2**dim, 1))
    eps = np.repeat(np.array(geometry.sign_vectors(dim)), per_axis**dim, axis=0)
    k = n - 1
    return 2.0 ** (-k - 1) * eps + 2.0 ** (-k) * eps * h


def _suite_geometry_locate(rng) -> SuiteResult:
    for n in (1, 2, 3):
        for dim in (1, 2, 3):
            half = 2.0 ** (n - 1)
            centers = _tiling_cells(n, dim)
            pts = rng.uniform(-half, half, size=(20, dim))
            for u in pts:
                inside = np.max(np.abs(centers - u), axis=1) <= 2.0 ** (-n) + 1e-12
                cube = geometry.locate_cube(u, n).cube()
                hit = inside & np.all(centers == cube.center, axis=1)
                if cube.edge != 2.0 ** (1 - n) or not hit.any():
                    return SuiteResult(
                        "geometry-locate", False, np.inf, f"point {u.tolist()} at level {n}"
                    )
    return SuiteResult("geometry-locate", True, 0.0)


def _suite_geometry_vertex_count(rng) -> SuiteResult:
    """Every cell's corner keys, its low-corner key plus ``{0, 1}**dim``, are
    the paper's corners, and they make ``(2**(2n-1) + 1)**dim`` vertices."""
    for n in (1, 2, 3):
        for dim in (1, 2, 3):
            centers = _tiling_cells(n, dim)
            # the name cell_weights calls, so that a fault there shows here
            keys = operators.cell_low_corners(centers, n)[:, None, :] + _corner_offsets(dim)
            corners = centers[:, None, :] + 2.0 ** (-n) * geometry.sign_matrix(dim)
            if not np.array_equal(geometry.lattice_coords(keys, n), corners):
                return SuiteResult("geometry-vertex-count", False, np.inf, f"corners at level {n} dim {dim}")
            per_axis = (1 << (2 * n - 1)) + 1
            if len(np.unique(np.ravel_multi_index(keys.reshape(-1, dim).T, (per_axis,) * dim))) != per_axis**dim:
                return SuiteResult("geometry-vertex-count", False, np.inf, f"vertex count at level {n} dim {dim}")
    return SuiteResult("geometry-vertex-count", True, 0.0)


def _suite_interp_weight_simplex(rng) -> SuiteResult:
    """Weights are nonnegative and sum to one, are ``2**-dim`` at a cell's
    centre, and reproduce the corner values exactly."""
    worst = 0.0
    for _ in range(60):
        dim = int(rng.integers(1, 5))
        n, low, table = _random_cell(rng, dim)
        xs = np.vstack([_points_in(rng, n, low, 1), geometry.lattice_coords(low, n) + 2.0 ** -n])  # and the centre
        rows, _, w = operators.cell_weights(xs, operators.GridLevel(n, dim))
        sums = np.bincount(rows, weights=w)
        worst = max(worst, float(np.max(np.abs(sums - 1.0))), max(0.0, float(-np.min(w))),
                    float(np.max(np.abs(w[rows == 1] - 2.0 ** -dim))))
        corners = geometry.lattice_coords(low + _corner_offsets(dim), n)
        if not np.array_equal(_blend(corners, n, low, table), table.ravel()):
            return SuiteResult("interp-weight-simplex", False, np.inf, "corner value not reproduced")
    return SuiteResult("interp-weight-simplex", worst <= 1e-12, worst)


def _suite_interp_recursion(rng) -> SuiteResult:
    """The weights' blend equals the staged one-axis-at-a-time oracle."""
    worst = 0.0
    for _ in range(100):
        dim = int(rng.integers(1, 5))
        n, low, table = _random_cell(rng, dim)
        cube = geometry.GridCell(key=tuple(low.tolist()), level=n).cube()
        data = interpolation.VertexData(cube=cube, values=tuple(table.ravel()))
        xs = _points_in(rng, n, low, 3)
        worst = max(worst, *(abs(a - interpolation.interpolate_recursive(data, x))
                             for a, x in zip(_blend(xs, n, low, table), xs)))
    return SuiteResult("interp-recursion-equivalence", worst <= 1e-12, worst)


def _suite_interp_lip_constant(rng) -> SuiteResult:
    """The blend is Lipschitz in l1 with its corner data's constant, and
    attains it at the corners: the largest signed slack, or a failed gap."""
    worst, attained = -np.inf, 0.0
    for dim in (1, 2, 3, 4):
        i, j = np.triu_indices(2**dim, 1)
        for _ in range(10):
            n, low, table = _random_cell(rng, dim)
            verts = geometry.lattice_coords(low + _corner_offsets(dim), n)
            dist = np.abs(verts[i] - verts[j]).sum(axis=1)
            vals = table.ravel()
            lip = float(np.max(np.abs(vals[i] - vals[j]) / dist))
            xs, ys = _points_in(rng, n, low, 1200).reshape(2, 600, dim)
            fx, fy, at = np.split(_blend(np.vstack([xs, ys, verts]), n, low, table), [600, 1200])
            gaps = np.abs(fx - fy) - lip * np.abs(xs - ys).sum(axis=1) * (1 + 1e-9)
            worst = max(worst, float(np.max(gaps)))
            attained = max(attained, abs(float(np.max(np.abs(at[i] - at[j]) / dist)) - lip))
    worst = max(worst, attained) if attained > 1e-9 else worst
    return SuiteResult("interp-lip-constant", worst <= 1e-9, worst)


def _suite_interp_linearity(rng) -> SuiteResult:
    worst = 0.0
    for _ in range(40):
        dim = int(rng.integers(1, 5))
        n, low, f = _random_cell(rng, dim)
        g = rng.normal(size=f.shape)
        a, b = rng.normal(size=2)
        xs = _points_in(rng, n, low, 3)
        lhs = _blend(xs, n, low, a * f + b * g)
        rhs = a * _blend(xs, n, low, f) + b * _blend(xs, n, low, g)
        worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    return SuiteResult("interp-linearity", worst <= 1e-12, worst)


def _suite_op_contractivity(rng) -> SuiteResult:
    worst = 0.0
    f = operators.random_lattice_function(rng)
    lip = f.declared_lip
    proj = operators.lip_projection(f, operators.GridLevel(3))
    xs = [_random_sparse(rng) for _ in range(10_000)]
    ys = [_random_sparse(rng) for _ in range(10_000)]
    qx = proj.eval_many(xs)
    qy = proj.eval_many(ys)
    for x, y, a, b in zip(xs, ys, qx, qy):
        d = geometry.l1_distance(x, y)
        if d == 0.0:
            continue
        worst = max(worst, abs(a - b) - lip * d * (1 + 1e-9))
    g = operators.random_lattice_function(rng, dim=2)
    projg = operators.lip_projection(g, operators.GridLevel(2, dim=2))
    us = rng.uniform(-3, 3, size=(10_000, 2))
    vs = rng.uniform(-3, 3, size=(10_000, 2))
    qu = projg.eval_many(list(us))
    qv = projg.eval_many(list(vs))
    gaps = np.abs(qu - qv) - g.declared_lip * np.abs(us - vs).sum(axis=1) * (1 + 1e-9)
    worst = max(worst, float(np.max(gaps)))
    return SuiteResult("operators-contractivity", worst <= 0.0, worst)


def _suite_op_finite_rank(rng) -> SuiteResult:
    for _ in range(5):
        n = int(rng.integers(1, 4))
        f = operators.random_lattice_function(rng)

        def bump(x, n=n):
            s = 2.0 ** (1 - n)
            lead = x.leading(n)
            frac = np.abs(lead / s - np.round(lead / s)) * s
            return float(np.sum(frac) + x.tail(n))

        g = operators.LipFunction(lambda x, f=f, bump=bump: f(x) + 0.7 * bump(x), label="perturbed")
        samples = [_random_sparse(rng) for _ in range(20)]
        a = operators.lip_projection(f, operators.GridLevel(n)).eval_many(samples)
        b = operators.lip_projection(g, operators.GridLevel(n)).eval_many(samples)
        if not np.array_equal(a, b):
            return SuiteResult("operators-finite-rank", False, float(np.max(np.abs(a - b))))
    return SuiteResult("operators-finite-rank", True, 0.0)


def _suite_op_commuting(rng) -> SuiteResult:
    worst = 0.0
    for dim in (2, None):
        f = operators.random_lattice_function(rng, dim=dim)
        if dim is None:
            samples = [_random_sparse(rng, spread=3.0) for _ in range(30)]
        else:
            samples = list(rng.uniform(-3, 3, size=(30, dim)))
        for m in (1, 2, 3):
            for n in (1, 2, 3):
                rep = operators.commuting_check(f, m, n, samples, dim=dim)
                worst = max(worst, rep.max_dev)
    return SuiteResult("operators-commuting", worst <= 1e-10, worst)


def _suite_op_linearity(rng) -> SuiteResult:
    worst = 0.0
    f = operators.random_lattice_function(rng)
    g = operators.random_lattice_function(rng)
    a, b = rng.normal(size=2)
    combo = operators.LipFunction(lambda x: a * f(x) + b * g(x))
    level = operators.GridLevel(2)
    samples = [_random_sparse(rng) for _ in range(40)]
    lhs = operators.lip_projection(combo, level).eval_many(samples)
    rhs = a * operators.lip_projection(f, level).eval_many(samples) + b * operators.lip_projection(
        g, level
    ).eval_many(samples)
    worst = float(np.max(np.abs(lhs - rhs)))
    return SuiteResult("operators-linearity", worst <= 1e-12, worst)


def _suite_op_convergence(rng) -> SuiteResult:
    worst = 0.0
    for _ in range(20):
        f = operators.random_lattice_function(rng)
        n = int(rng.integers(1, 7))
        x = _random_sparse(rng, spread=min(1.5, 2.0 ** (n - 1)))
        chk = operators.convergence_check(f, x, n)
        if chk.clamped:
            continue
        worst = max(worst, chk.error - chk.bound)
        if chk.ok is False:
            return SuiteResult("operators-convergence", False, worst)
    return SuiteResult("operators-convergence", True, worst)


def _suite_op_boundary_affinity(rng) -> SuiteResult:
    worst = 0.0
    g = operators.random_lattice_function(rng, dim=2)
    level = operators.GridLevel(1, dim=2)
    for m in (2, 3):
        s = 2.0 ** (1 - m)
        for _ in range(10):
            # cells beyond or touching the level-1 big cube [-1, 1]^2
            ix = int(rng.integers(0, 3))
            low = np.array([1.0 + ix * s, float(rng.integers(-2, 2)) * s])
            # 12 axis-parallel segments a -> b in the cell
            a = low + rng.uniform(0.0, s, size=(12, 2))
            b = a.copy()
            axis = rng.integers(2, size=12)
            b[np.arange(12), axis] = low[axis] + rng.uniform(0.0, s, size=12)
            va, vb, vm = operators.project_values(g, np.vstack([a, b, 0.5 * (a + b)]), level).reshape(3, 12)
            worst = max(worst, float(np.max(np.abs(vm - 0.5 * (va + vb)))))
    return SuiteResult("operators-boundary-affinity", worst <= 1e-10, worst)


def _random_molecule(rng, kind="l1N", dim=2, size=3, space=None) -> freespace.Molecule:
    if kind == "l1N":
        pts = rng.uniform(-2, 2, size=(size, dim))
        return freespace.Molecule.on_rn(
            [(p, float(rng.normal())) for p in pts], dim=dim
        )
    if kind == "l1":
        return freespace.Molecule.on_l1(
            [(_random_sparse(rng), float(rng.normal())) for _ in range(size)]
        )
    idx = rng.choice(space.size, size=min(size, space.size), replace=False)
    return freespace.Molecule.on_space(space, [(int(i), float(rng.normal())) for i in idx])


def _suite_free_norm_axioms(rng) -> SuiteResult:
    worst = 0.0
    for _ in range(8):
        mu = _random_molecule(rng, size=int(rng.integers(1, 4)))
        nu = _random_molecule(rng, size=int(rng.integers(1, 4)))
        cert_mu = freespace.free_norm(mu)
        if not freespace.check_certificate(cert_mu, mu):
            return SuiteResult("freespace-norm-axioms", False, np.inf, "invalid certificate")
        alpha = float(rng.normal())
        scaled = freespace.free_norm(mu.scaled(alpha)).value
        worst = max(worst, abs(scaled - abs(alpha) * cert_mu.value))
        tri = freespace.free_norm(mu.plus(nu)).value
        worst = max(worst, tri - cert_mu.value - freespace.free_norm(nu).value)
    zero = freespace.Molecule.on_rn([((0.0, 0.0), 1.5)], dim=2)
    if not zero.is_zero or freespace.free_norm(zero).value != 0.0:
        return SuiteResult("freespace-norm-axioms", False, np.inf, "zero molecule misbehaves")
    return SuiteResult("freespace-norm-axioms", worst <= 1e-9, worst)


def _suite_free_dirac(rng) -> SuiteResult:
    worst = 0.0
    for _ in range(40):
        p, q = rng.uniform(-3, 3, size=(2, 3))
        mu = freespace.Molecule.on_rn([(p, 1.0), (q, -1.0)], dim=3)
        value = freespace.free_norm(mu).value
        worst = max(worst, abs(value - float(np.abs(p - q).sum())))
    pts = rng.uniform(-2, 2, size=(6, 2))
    space = extension.FinitePointedMetricSpace.from_l1_points(pts)
    for _ in range(20):
        i, j = rng.choice(6, size=2, replace=False)
        mu = freespace.Molecule.on_space(space, [(int(i), 1.0), (int(j), -1.0)])
        worst = max(worst, abs(freespace.free_norm(mu).value - space.dist[i, j]))
    return SuiteResult("freespace-dirac-isometry", worst <= 1e-9, worst)


def _suite_free_line(rng) -> SuiteResult:
    worst = 0.0
    for _ in range(40):
        size = int(rng.integers(1, 9))
        pts = rng.uniform(-4, 4, size=size)
        mu = freespace.Molecule.on_rn([((float(t),), float(rng.normal())) for t in pts], dim=1)
        worst = max(worst, abs(freespace.free_norm(mu).value - freespace.line_norm(mu)))
    return SuiteResult("freespace-line-oracle", worst <= 1e-9, worst)


def _suite_free_transport(rng) -> SuiteResult:
    worst = 0.0
    for _ in range(6):
        mu = _random_molecule(rng, size=4)
        worst = max(worst, abs(freespace.free_norm(mu).value - freespace.transport_norm(mu)))
    pts = rng.uniform(-2, 2, size=(5, 2))
    space = extension.FinitePointedMetricSpace.from_l1_points(pts)
    for _ in range(4):
        mu = _random_molecule(rng, kind="finite", size=4, space=space)
        worst = max(worst, abs(freespace.free_norm(mu).value - freespace.transport_norm(mu)))
    return SuiteResult("freespace-transport-oracle", worst <= 1e-7, worst)


def _suite_free_adjoint(rng) -> SuiteResult:
    worst = 0.0
    for _ in range(60):
        n = int(rng.integers(1, 5))
        if rng.random() < 0.5:
            f = operators.random_lattice_function(rng)
            mu = _random_molecule(rng, kind="l1", size=int(rng.integers(1, 4)))
            level = operators.GridLevel(n)
        else:
            dim = int(rng.integers(1, 4))
            f = operators.random_lattice_function(rng, dim=dim)
            mu = _random_molecule(rng, kind="l1N", dim=dim, size=int(rng.integers(1, 4)))
            level = operators.GridLevel(n, dim=dim)
        lhs = freespace.pairing(operators.lip_projection(f, level), mu)
        rhs = freespace.pairing(f, freespace.molecule_projection(mu, n))
        worst = max(worst, abs(lhs - rhs) / max(1.0, abs(lhs)))
    return SuiteResult("freespace-adjointness", worst <= 1e-12, worst)


def _suite_free_monotone_lattice(rng) -> SuiteResult:
    worst = 0.0
    for _ in range(6):
        kind = "l1" if rng.random() < 0.5 else "l1N"
        mu = _random_molecule(rng, kind=kind, dim=2, size=int(rng.integers(1, 4)))
        base = freespace.free_norm(mu).value
        projections = {}
        for n in range(1, 5):
            proj = freespace.molecule_projection(mu, n)
            projections[n] = proj
            worst = max(worst, freespace.free_norm(proj).value - base * (1 + 1e-7))
        for m in range(1, 5):
            for n in range(1, 5):
                left = freespace.molecule_projection(projections[n], m)
                if not freespace.molecules_close(left, projections[min(m, n)], tol=1e-10):
                    return SuiteResult(
                        "freespace-monotone-lattice", False, np.inf, f"lattice broken at ({m},{n})"
                    )
    return SuiteResult("freespace-monotone-lattice", worst <= 1e-9, worst)


def _random_space(rng, k) -> extension.FinitePointedMetricSpace:
    pts = rng.uniform(-3, 3, size=(k, 2))
    return extension.FinitePointedMetricSpace.from_l1_points(pts)


def _random_function(rng, space) -> interpolation.TabulatedFunction:
    values = [float(rng.normal()) for _ in range(space.size)]
    values[space.origin] = 0.0
    return extension.space_function(space, values)


def _suite_ext_partition(rng) -> SuiteResult:
    """The weights of each chain prefix: nonnegative, zero on the prefix, summing to one off it."""
    worst = 0.0
    for scheme in extension.SCHEMES:
        for _ in range(5):
            space = _random_space(rng, int(rng.integers(4, 12)))
            for subset in extension.farthest_point_chain(space):
                sub = list(subset)
                w, _ = extension._partition_weights(space.dist, sub, scheme, 1.0)
                sums = np.delete(w, sub, axis=1).sum(axis=0)
                worst = max(worst, float(np.max(np.abs(sums - 1.0), initial=0.0)),
                            -float(np.min(w)), float(np.max(np.abs(w[:, sub]))))
    return SuiteResult("extension-partition", worst <= 1e-12, worst)


def _suite_ext_operator(rng) -> SuiteResult:
    """Every chain row: ``max_err <= (1 + lip_ratio) Lip(f) cov_radius``, and the full chain is exact.

    Reports the largest ``max_err`` over that bound among rows of positive
    covering radius, so the margin shows."""
    worst = 0.0
    space = _random_space(rng, 12)
    f = _random_function(rng, space)
    lip_f = interpolation.lip_constant(f, space.dist)
    for scheme in extension.SCHEMES:
        rows = extension.chain_table(space, f, scheme=scheme)
        for row in rows:
            if row.cov_radius > 0.0:
                bound = (1.0 + row.lip_ratio) * lip_f * row.cov_radius * (1 + 1e-9) + 1e-12
                worst = max(worst, row.max_err / bound)
        if rows[-1].max_err != 0.0:
            return SuiteResult("extension-operator", False, rows[-1].max_err, "full chain not exact")
    return SuiteResult("extension-operator", worst <= 1.0, worst)


def _suite_ext_lip_ratio(rng, cap: float = 10.0) -> SuiteResult:
    """The largest Lipschitz inflation along the chain, over both schemes."""
    worst = 0.0
    for _ in range(4):
        space = _random_space(rng, int(rng.integers(10, 40)))
        f = _random_function(rng, space)
        for scheme in extension.SCHEMES:
            worst = max(worst, *(row.lip_ratio for row in extension.chain_table(space, f, scheme=scheme)))
    return SuiteResult("extension-lip-ratio", worst <= cap, worst, f"cap {cap}")


def _suite_ext_scale_invariance(rng) -> SuiteResult:
    """Row by row, the chain's gentleness is unchanged when the metric is scaled by 10."""
    worst = 0.0
    base = extension.FinitePointedMetricSpace.from_l1_points(rng.uniform(-2, 2, size=(8, 2)))
    scaled = extension.FinitePointedMetricSpace(labels=base.labels, dist=base.dist * 10.0, origin=base.origin)
    for scheme in extension.SCHEMES:
        rows, again = (extension.chain_table(space, extension.space_function(space, space.dist[space.origin]),
                                             scheme, p=1.5) for space in (base, scaled))
        for a, b in zip(rows, again):
            worst = max(worst, abs(a.k_hat - b.k_hat) / max(1.0, a.k_hat))
    return SuiteResult("extension-gentleness-scale", worst <= 1e-9, worst)


def _suite_ext_multiplicity(rng) -> SuiteResult:
    """On each chain prefix, ``inv-dist`` gives no point more than ``D**2`` anchors,
    ``D`` the doubling estimate; reports the largest support over ``D**2``.  On
    24 points of a line ``D**2`` is 16 or less, so the bound is not vacuous."""
    worst = 0.0
    for _ in range(3):
        space = extension.FinitePointedMetricSpace.from_l1_points(rng.uniform(-3, 3, size=(24, 1)))
        cap = extension.doubling_estimate(space) ** 2
        for subset in extension.farthest_point_chain(space):
            w, _ = extension._partition_weights(space.dist, list(subset), "inv-dist", 2.0)
            worst = max(worst, int(np.count_nonzero(w > 0.0, axis=0).max()) / cap)
    return SuiteResult("extension-multiplicity", worst <= 1.0, worst)


def _suite_ext_doubling(rng) -> SuiteResult:
    single = extension.FinitePointedMetricSpace(labels=("o",), dist=np.zeros((1, 1)), origin=0)
    if extension.doubling_estimate(single) != 1:
        return SuiteResult("extension-doubling", False, np.inf, "singleton")
    line = extension.FinitePointedMetricSpace.from_l1_points([[float(i)] for i in range(7)])
    if extension.doubling_estimate(line) > 3:
        return SuiteResult("extension-doubling", False, np.inf, "line exceeded 3")
    k = 5
    uniform = extension.FinitePointedMetricSpace(
        labels=tuple(range(k)), dist=np.ones((k, k)) - np.eye(k), origin=0
    )
    if extension.doubling_estimate(uniform) != k:
        return SuiteResult("extension-doubling", False, np.inf, "uniform metric")
    return SuiteResult("extension-doubling", True, 0.0)


_SUITES = (
    ("geometry-retraction", _suite_geometry_retraction),
    ("geometry-locate", _suite_geometry_locate),
    ("geometry-vertex-count", _suite_geometry_vertex_count),
    ("interp-weight-simplex", _suite_interp_weight_simplex),
    ("interp-recursion-equivalence", _suite_interp_recursion),
    ("interp-lip-constant", _suite_interp_lip_constant),
    ("interp-linearity", _suite_interp_linearity),
    ("operators-contractivity", _suite_op_contractivity),
    ("operators-finite-rank", _suite_op_finite_rank),
    ("operators-commuting", _suite_op_commuting),
    ("operators-linearity", _suite_op_linearity),
    ("operators-convergence", _suite_op_convergence),
    ("operators-boundary-affinity", _suite_op_boundary_affinity),
    ("freespace-norm-axioms", _suite_free_norm_axioms),
    ("freespace-dirac-isometry", _suite_free_dirac),
    ("freespace-line-oracle", _suite_free_line),
    ("freespace-transport-oracle", _suite_free_transport),
    ("freespace-adjointness", _suite_free_adjoint),
    ("freespace-monotone-lattice", _suite_free_monotone_lattice),
    ("extension-partition", _suite_ext_partition),
    ("extension-operator", _suite_ext_operator),
    ("extension-lip-ratio", _suite_ext_lip_ratio),
    ("extension-gentleness-scale", _suite_ext_scale_invariance),
    ("extension-doubling", _suite_ext_doubling),
    ("extension-multiplicity", _suite_ext_multiplicity),
)


def suite_names() -> tuple[str, ...]:
    return tuple(name for name, _ in _SUITES)


def run_verification(seed: int = DEFAULT_SEED, only: str | None = None) -> VerificationReport:
    """Run all (or one named) suites deterministically for the given seed."""
    if only is not None and only not in suite_names():
        raise ValueError(f"unknown suite {only!r}")
    results = []
    for pos, (name, fn) in enumerate(_SUITES):
        if only is not None and only != name:
            continue
        rng = np.random.default_rng([seed, pos])
        try:
            results.append(fn(rng))
        except _OutsideCell as exc:
            results.append(SuiteResult(name, False, np.inf, str(exc)))
    return VerificationReport(seed=seed, suites=tuple(results))
