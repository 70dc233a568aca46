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


def _random_cube(rng, dim) -> geometry.Hypercube:
    # Dyadic center and edge, as in the tilings: corner coordinates then stay
    # exact and corner values are reproduced without rounding.
    center = tuple(float(v) * 2.0**-8 for v in rng.integers(-768, 769, size=dim))
    return geometry.Hypercube(center=center, edge=float(rng.integers(128, 1025)) * 2.0**-8)


def _random_vertex_data(rng, dim) -> interpolation.VertexData:
    cube = _random_cube(rng, dim)
    return interpolation.VertexData(cube=cube, values=tuple(rng.normal(size=2**dim)))


def _point_in(rng, cube):
    c = np.asarray(cube.center)
    return c + rng.uniform(-0.5, 0.5, size=cube.dim) * cube.edge


def _random_sparse(rng, spread=2.0, max_index=6) -> geometry.FiniteSupportPoint:
    size = int(rng.integers(1, 4))
    idx = rng.choice(np.arange(1, max_index + 1), size=size, replace=False)
    return geometry.FiniteSupportPoint.from_pairs(
        (int(i), float(rng.uniform(-spread, spread))) for i in idx
    )


def _suite_geometry_retraction(rng) -> SuiteResult:
    worst = 0.0
    xs = rng.uniform(-8, 8, size=(10_000, 3))
    ys = rng.uniform(-8, 8, size=(10_000, 3))
    for edge in (1.0, 2.5, 8.0):
        px = geometry.clamp_to_cube(xs, edge)
        py = geometry.clamp_to_cube(ys, edge)
        if not np.array_equal(geometry.clamp_to_cube(px, edge), px):
            return SuiteResult("geometry-retraction", False, np.inf, "clamp not idempotent")
        lhs = np.abs(px - py).sum(axis=1)
        rhs = np.abs(xs - ys).sum(axis=1)
        worst = max(worst, float(np.max(lhs - rhs)))
    return SuiteResult("geometry-retraction", worst <= 0.0, worst)


def _tiling_cells(n: int, dim: int):
    """``(eps, h, centers)`` of every level-n cell, eps-major as enumerated.

    Built directly from the ``(eps, h)`` addresses with the centre formula of
    :class:`lipfree.geometry.DyadicCubeIndex`, independently of the slab
    arithmetic that :func:`lipfree.geometry.locate_cube` uses.
    """
    per_axis = 1 << (2 * n - 2)
    h_grid = np.indices((per_axis,) * dim).reshape(dim, -1).T
    eps = np.repeat(np.array(geometry.sign_vectors(dim)), len(h_grid), axis=0)
    h = np.tile(h_grid, (2**dim, 1))
    k = n - 1
    centers = 2.0 ** (-k - 1) * eps + 2.0 ** (-k) * eps * h
    return eps, h, centers


def _suite_geometry_locate(rng) -> SuiteResult:
    for n in (1, 2, 3):
        for dim in (1, 2, 3):
            half = 2.0 ** (n - 1)
            eps, h, centers = _tiling_cells(n, dim)
            pts = rng.uniform(-half, half, size=(20, dim))
            for u in pts:
                inside = np.max(np.abs(centers - u), axis=1) <= 2.0 ** (-n) + 1e-12
                located = geometry.locate_cube(u, n)
                hit = inside & np.all(eps == located.eps, axis=1) & np.all(h == located.h, axis=1)
                if located.k != n - 1 or not hit.any():
                    return SuiteResult(
                        "geometry-locate", False, np.inf, f"point {u.tolist()} at level {n}"
                    )
    return SuiteResult("geometry-locate", True, 0.0)


def _unique_rows(a: np.ndarray) -> np.ndarray:
    """Distinct rows in lexicographic order (faster than ``np.unique(axis=0)``)."""
    a = a[np.lexsort(a.T[::-1])]
    return a[np.r_[True, np.any(a[1:] != a[:-1], axis=1)]]


def _suite_geometry_vertex_count(rng) -> SuiteResult:
    for n in (1, 2, 3):
        for dim in (1, 2, 3):
            grid = geometry.tiling_vertices(n, dim)
            expected = geometry.tiling_vertex_count(n, dim)
            _, _, centers = _tiling_cells(n, dim)
            corners = centers[:, None, :] + 2.0 ** (-n) * np.array(geometry.sign_vectors(dim))
            union = _unique_rows(corners.reshape(-1, dim))
            if len(grid) != expected or not np.array_equal(_unique_rows(grid), union):
                return SuiteResult(
                    "geometry-vertex-count", False, np.inf, f"level {n} dim {dim}"
                )
    return SuiteResult("geometry-vertex-count", True, 0.0)


def _suite_interp_weight_simplex(rng) -> SuiteResult:
    worst = 0.0
    for _ in range(60):
        dim = int(rng.integers(1, 5))
        data = _random_vertex_data(rng, dim)
        x = _point_in(rng, data.cube)
        w = interpolation.interpolation_weights(data.cube, x)
        worst = max(worst, abs(float(np.sum(w)) - 1.0), max(0.0, float(-np.min(w))))
        # corners reproduce exactly
        for pos, delta in enumerate(geometry.sign_vectors(dim)):
            if pos % max(1, 2 ** (dim - 1)) == 0:
                val = interpolation.interpolate(data, data.cube.vertex(delta))
                if val != data.values[pos]:
                    return SuiteResult(
                        "interp-weight-simplex", False, np.inf, "corner value not reproduced"
                    )
        wc = interpolation.interpolation_weights(data.cube, np.asarray(data.cube.center))
        worst = max(worst, float(np.max(np.abs(wc - 2.0 ** (-dim)))))
    return SuiteResult("interp-weight-simplex", worst <= 1e-12, worst)


def _suite_interp_recursion(rng) -> SuiteResult:
    worst = 0.0
    for _ in range(100):
        dim = int(rng.integers(1, 4))
        data = _random_vertex_data(rng, dim)
        x = _point_in(rng, data.cube)
        a = interpolation.interpolate(data, x)
        b = interpolation.interpolate_recursive(data, x)
        worst = max(worst, abs(a - b))
    return SuiteResult("interp-recursion-equivalence", worst <= 1e-12, worst)


def _suite_interp_lip_constant(rng) -> SuiteResult:
    worst = 0.0
    for dim in (1, 2, 3):
        for _ in range(10):
            data = _random_vertex_data(rng, dim)
            corner_lip = data.corner_lip()
            xs = np.array([_point_in(rng, data.cube) for _ in range(1500)])
            ys = np.array([_point_in(rng, data.cube) for _ in range(1500)])
            fx = interpolation.interpolate_batch(data, xs)
            fy = interpolation.interpolate_batch(data, ys)
            gaps = np.abs(fx - fy) - corner_lip * np.abs(xs - ys).sum(axis=1) * (1 + 1e-9)
            worst = max(worst, float(np.max(gaps)))
            verts = data.cube.vertices()
            vals = interpolation.interpolate_batch(data, verts)
            best = 0.0
            for i in range(len(verts)):
                for j in range(i + 1, len(verts)):
                    best = max(best, abs(vals[i] - vals[j]) / np.abs(verts[i] - verts[j]).sum())
            worst = max(worst, abs(best - corner_lip))
    return SuiteResult("interp-lip-constant", worst <= 1e-9, worst)


def _suite_interp_linearity(rng) -> SuiteResult:
    worst = 0.0
    for _ in range(40):
        dim = int(rng.integers(1, 4))
        cube = _random_cube(rng, dim)
        f = interpolation.VertexData(cube=cube, values=tuple(rng.normal(size=2**dim)))
        g = interpolation.VertexData(cube=cube, values=tuple(rng.normal(size=2**dim)))
        a, b = rng.normal(size=2)
        combo = interpolation.VertexData(
            cube=cube, values=tuple(a * u + b * v for u, v in zip(f.values, g.values))
        )
        x = _point_in(rng, cube)
        lhs = interpolation.interpolate(combo, x)
        rhs = a * interpolation.interpolate(f, x) + b * interpolation.interpolate(g, x)
        worst = max(worst, abs(lhs - rhs))
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
            cube = geometry.Hypercube(center=tuple(low + s / 2), edge=s)
            for a, b in interpolation.sample_axis_segments(cube, 12, rng):
                va, vb, vm = operators.project_values(g, [a, b, 0.5 * (a + b)], level)
                worst = max(worst, abs(vm - 0.5 * (va + vb)))
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


def _suite_ext_partition(rng) -> SuiteResult:
    worst = 0.0
    for scheme in extension.SCHEMES:
        for _ in range(5):
            k = int(rng.integers(4, 12))
            space = _random_space(rng, k)
            size = int(rng.integers(1, k))
            subset = sorted({space.origin} | set(map(int, rng.choice(k, size=size, replace=False))))
            part = extension.build_partition(space, subset, scheme=scheme, p=1.0)
            outside = [x for x in range(k) if x not in set(subset)]
            if outside:
                sums = part.weights[:, outside].sum(axis=0)
                worst = max(worst, float(np.max(np.abs(sums - 1.0))))
            worst = max(worst, max(0.0, -float(np.min(part.weights))))
    return SuiteResult("extension-partition", worst <= 1e-12, worst)


def _suite_ext_operator(rng) -> SuiteResult:
    worst = 0.0
    k = 12
    space = _random_space(rng, k)
    values = [0.0] + [float(rng.normal()) for _ in range(k - 1)]
    values[space.origin] = 0.0
    f = extension.space_function(space, values)
    lip_f = interpolation.lip_constant(f, space.dist)
    for subset in extension.farthest_point_chain(space):
        sf = extension.approximation_operator(f, extension.build_partition(space, subset))
        for i in subset:
            if sf.value_at(i) != f.value_at(i):
                return SuiteResult("extension-operator", False, np.inf, "subset values moved")
        err = max(abs(a - b) for a, b in zip(sf.values, f.values))
        lip_sf = interpolation.lip_constant(sf, space.dist)
        ratio = lip_sf / lip_f if lip_f else 0.0
        cov = extension.covering_radius(space, subset)
        bound = (1.0 + ratio) * lip_f * cov * (1 + 1e-9) + 1e-12
        worst = max(worst, err - bound)
        if len(subset) == space.size and err != 0.0:
            return SuiteResult("extension-operator", False, err, "full chain not exact")
    return SuiteResult("extension-operator", worst <= 0.0, worst)


def _suite_ext_lip_ratio(rng, cap: float = 10.0) -> SuiteResult:
    worst = 0.0
    for _ in range(4):
        k = int(rng.integers(10, 40))
        space = _random_space(rng, k)
        values = [float(rng.normal()) for _ in range(k)]
        values[space.origin] = 0.0
        f = extension.space_function(space, values)
        lip_f = interpolation.lip_constant(f, space.dist)
        subset = sorted(
            {space.origin} | set(map(int, rng.choice(k, size=k // 2, replace=False)))
        )
        sf = extension.approximation_operator(f, extension.build_partition(space, subset))
        worst = max(worst, interpolation.lip_constant(sf, space.dist) / lip_f)
    return SuiteResult("extension-lip-ratio", worst <= cap, worst, f"cap {cap}")


def _suite_ext_scale_invariance(rng) -> SuiteResult:
    worst = 0.0
    k = 8
    pts = rng.uniform(-2, 2, size=(k, 2))
    for scheme in extension.SCHEMES:
        base = extension.FinitePointedMetricSpace.from_l1_points(pts)
        scaled = extension.FinitePointedMetricSpace(
            labels=base.labels, dist=base.dist * 10.0, origin=base.origin
        )
        subset = (base.origin, 1, 2)
        k1 = extension.gentleness(extension.build_partition(base, subset, scheme, p=1.5)).k_hat
        k2 = extension.gentleness(extension.build_partition(scaled, subset, scheme, p=1.5)).k_hat
        worst = max(worst, abs(k1 - k2) / max(1.0, k1))
    return SuiteResult("extension-gentleness-scale", worst <= 1e-9, worst)


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
        results.append(fn(rng))
    return VerificationReport(seed=seed, suites=tuple(results))
