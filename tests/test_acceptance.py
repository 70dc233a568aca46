"""Acceptance gate: each criterion at its stated tolerance and time budget.

Every test prints one ``PASS/FAIL criterion-k`` line (visible with ``-s`` or
in captured output on failure) and asserts both the numeric contract and the
runtime budget.
"""

import time
from itertools import combinations

import numpy as np
import pytest

from lipfree.extension import (
    FinitePointedMetricSpace,
    approximation_operator,
    build_partition,
    covering_radius,
    doubling_estimate,
    farthest_point_chain,
    gentleness,
)
from lipfree.freespace import (
    Molecule,
    _projection_estimates,
    free_norm,
    line_norm,
    molecule_projection,
    pairing,
    transport_norm,
)
from lipfree.geometry import FiniteSupportPoint, l1_distance, lattice_coords
from lipfree.interpolation import lip_constant
from lipfree.operators import (
    GridLevel,
    LipFunction,
    cell_weights,
    convergence_check,
    lip_projection,
    random_lattice_function,
)
from lipfree.verify import DEFAULT_SEED, run_verification

from cube_helpers import value_at


def _report(name, ok, elapsed, detail=""):
    print(f"{'PASS' if ok else 'FAIL'} {name} ({elapsed:.1f}s) {detail}")


def random_sparse(rng, spread=2.0, max_index=8, size=None):
    size = int(rng.integers(1, min(3, max_index) + 1)) if size is None else size
    idx = rng.choice(np.arange(1, max_index + 1), size=size, replace=False)
    return FiniteSupportPoint.from_pairs((int(i), float(rng.uniform(-spread, spread))) for i in idx)


def random_l1_molecule(rng, size, spread=2.0, max_index=8):
    return Molecule.on_l1(
        [(random_sparse(rng, spread, max_index), float(rng.normal())) for _ in range(size)]
    )


def blend(points, n, low, table):
    """Values at ``points`` that the level-n ``cell_weights`` blend from the
    corner values ``table``, indexed by a corner's key offset from ``low``."""
    rows, keys, w = cell_weights(points, GridLevel(n, dim=len(low)))
    return np.bincount(rows, weights=w * table[tuple((keys - low).T)], minlength=len(points))


def test_criterion_1_interpolation_lipschitz_constant():
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    worst_upper = -np.inf
    worst_attained = 0.0
    for dim in (1, 2, 3, 4):
        offsets = np.indices((2,) * dim).reshape(dim, -1).T
        i, j = np.triu_indices(2**dim, 1)
        for _ in range(50):
            # a random cell of a random level, by its low-corner key, with
            # random corner values indexed by a corner's key offset
            n = int(rng.integers(1, 4))
            low = rng.integers(0, 1 << (2 * n - 1), size=dim)
            table = rng.normal(size=(2,) * dim)
            verts = lattice_coords(low + offsets, n)
            vd = np.abs(verts[i] - verts[j]).sum(axis=1)
            corner = float(np.max(np.abs(table.ravel()[i] - table.ravel()[j]) / vd))
            xs, ys = lattice_coords(low, n) + rng.uniform(0.0, 2.0 ** (1 - n), size=(2, 10_000, dim))
            # one expansion holds at most 2**17 corners: 20,016 points of 16 corners go in three parts
            parts = np.array_split(np.vstack([xs, ys, verts]), 3)
            fx, fy, at = np.split(np.concatenate([blend(part, n, low, table) for part in parts]), [10_000, 20_000])
            dist = np.abs(xs - ys).sum(axis=1)
            keep = dist > 0
            q = np.abs(fx - fy)[keep] / dist[keep]
            worst_upper = max(worst_upper, float(np.max(q - corner * (1 + 1e-9))))
            vertex_max = float(np.max(np.abs(at[i] - at[j]) / vd))
            worst_attained = max(worst_attained, abs(vertex_max - corner))
    elapsed = time.perf_counter() - t0
    ok = worst_upper <= 0.0 and worst_attained <= 1e-9 and elapsed < 10.0
    _report("criterion-1 interpolation-lip-constant", ok, elapsed,
            f"upper-slack={worst_upper:.2e} attained-dev={worst_attained:.2e}")
    assert worst_upper <= 0.0
    assert worst_attained <= 1e-9
    assert elapsed < 10.0


def test_criterion_2_commuting_projections():
    t0 = time.perf_counter()
    rng = np.random.default_rng(102)
    worst = 0.0
    for dim in (1, 2, 3, None):
        f = random_lattice_function(rng, dim=dim)
        if dim is None:
            samples = [random_sparse(rng, spread=3.0) for _ in range(100)]
        else:
            samples = list(rng.uniform(-3, 3, size=(100, dim)))
        inner = {n: lip_projection(f, GridLevel(n, dim)) for n in range(1, 6)}
        for m in range(1, 6):
            for n in range(1, 6):
                composed = lip_projection(inner[n], GridLevel(m, dim))
                dev = np.abs(
                    composed.eval_many(samples) - inner[min(m, n)].eval_many(samples)
                )
                worst = max(worst, float(np.max(dev)))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-10 and elapsed < 30.0
    _report("criterion-2 commuting-projections", ok, elapsed, f"max-dev={worst:.2e}")
    assert worst <= 1e-10
    assert elapsed < 30.0


def test_criterion_3_projection_monotonicity():
    t0 = time.perf_counter()
    rng = np.random.default_rng(103)
    worst_excess = -np.inf
    for i in range(50):
        n = (i % 6) + 1
        size = (i % 6) + 1
        if i < 30:
            dim = (i % 3) + 1
            pts = rng.uniform(-2, 2, size=(size, dim))
            mu = Molecule.on_rn([(p, float(rng.normal())) for p in pts], dim=dim)
        elif i < 48:
            mu = random_l1_molecule(rng, size)
        else:
            n = i - 43  # 5 and 6: the dense worst cases
            terms = [
                (
                    FiniteSupportPoint.from_pairs(
                        (j, float(rng.uniform(-2, 2))) for j in range(1, 7)
                    ),
                    float(rng.normal()),
                )
                for _ in range(6)
            ]
            mu = Molecule.on_l1(terms)
        base = free_norm(mu).value
        projected = free_norm(molecule_projection(mu, n)).value
        worst_excess = max(worst_excess, projected - base * (1 + 1e-7))
    elapsed = time.perf_counter() - t0
    ok = worst_excess <= 1e-12 and elapsed < 30.0
    _report("criterion-3 element-monotonicity", ok, elapsed, f"excess={worst_excess:.2e}")
    assert worst_excess <= 1e-12
    assert elapsed < 30.0


def test_criterion_4_adjointness():
    t0 = time.perf_counter()
    rng = np.random.default_rng(104)
    worst = 0.0
    for i in range(200):
        n = int(rng.integers(1, 6))
        if i % 2 == 0:
            f = random_lattice_function(rng)
            mu = random_l1_molecule(rng, size=int(rng.integers(1, 4)))
            level = GridLevel(n)
        else:
            dim = int(rng.integers(1, 4))
            f = random_lattice_function(rng, dim=dim)
            pts = rng.uniform(-2, 2, size=(int(rng.integers(1, 4)), dim))
            mu = Molecule.on_rn([(p, float(rng.normal())) for p in pts], dim=dim)
            level = GridLevel(n, dim=dim)
        lhs = pairing(lip_projection(f, level), mu)
        rhs = pairing(f, molecule_projection(mu, n))
        worst = max(worst, abs(lhs - rhs))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-12 and elapsed < 5.0
    _report("criterion-4 adjointness", ok, elapsed, f"max-dev={worst:.2e}")
    assert worst <= 1e-12
    assert elapsed < 5.0


def test_criterion_5_quantitative_convergence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(105)
    worst_q = -np.inf
    for _ in range(50):
        n = int(rng.integers(1, 9))
        f = random_lattice_function(rng)
        reach = 0.9 * min(1.5, 2.0 ** (n - 1))
        x = random_sparse(rng, spread=reach)
        chk = convergence_check(f, x, n)
        assert not chk.clamped
        worst_q = max(worst_q, chk.error - chk.bound)
        assert chk.ok
    worst_mu = -np.inf
    for _ in range(12):
        n = int(rng.integers(1, 6))
        reach = 0.9 * min(1.5, 2.0 ** (n - 1))
        mu = random_l1_molecule(rng, size=int(rng.integers(1, 4)), spread=reach)
        bound, clamped = (a[-1] for a in _projection_estimates(mu, n))
        assert not clamped
        err = free_norm(molecule_projection(mu, n).minus(mu)).value
        worst_mu = max(worst_mu, err - bound)
        assert err <= bound + 1e-9
    elapsed = time.perf_counter() - t0
    ok = worst_q <= 1e-9 and worst_mu <= 1e-9 and elapsed < 20.0
    _report("criterion-5 quantitative-convergence", ok, elapsed,
            f"fn-slack={worst_q:.2e} mol-slack={worst_mu:.2e}")
    assert elapsed < 20.0


def brute_force_dual_norm(mu):
    """Exhaustive dual search: enumerate basic points of the constraint polytope."""
    pts = [mu.origin_point()] + list(mu.support)
    k = len(pts) - 1
    rows_a, rows_b = [], []
    for i in range(k + 1):
        for j in range(i + 1, k + 1):
            d = mu.point_distance(pts[i], pts[j])
            v = np.zeros(k)
            if i > 0:
                v[i - 1] = 1.0
            if j > 0:
                v[j - 1] = -1.0
            rows_a += [v, -v]
            rows_b += [d, d]
    a_mat = np.array(rows_a)
    b_vec = np.array(rows_b)
    c = np.array(mu.coefficients)
    combos = np.array(list(combinations(range(len(rows_a)), k)))
    mats = a_mat[combos]
    rhs = b_vec[combos]
    keep = np.abs(np.linalg.det(mats)) > 1e-9
    sols = np.linalg.solve(mats[keep], rhs[keep][..., None])[..., 0]
    feasible = np.all(a_mat @ sols.T <= b_vec[:, None] + 1e-9, axis=0)
    return float(np.max(sols[feasible] @ c))


def test_criterion_6_free_norm_correctness():
    t0 = time.perf_counter()
    rng = np.random.default_rng(106)
    worst_dirac = 0.0
    for _ in range(60):
        p, q = rng.uniform(-3, 3, size=(2, 3))
        mu = Molecule.on_rn([(p, 1.0), (q, -1.0)], dim=3)
        worst_dirac = max(worst_dirac, abs(free_norm(mu).value - float(np.abs(p - q).sum())))
    for _ in range(40):
        pts = rng.uniform(-2, 2, size=(6, 2))
        space = FinitePointedMetricSpace.from_l1_points(pts)
        i, j = rng.choice(6, size=2, replace=False)
        mu = Molecule.on_space(space, [(int(i), 1.0), (int(j), -1.0)])
        worst_dirac = max(worst_dirac, abs(free_norm(mu).value - float(space.dist[i, j])))
    worst_line = 0.0
    for _ in range(100):
        size = int(rng.integers(1, 9))
        pts = rng.uniform(-4, 4, size=size)
        mu = Molecule.on_rn([((float(t),), float(rng.normal())) for t in pts], dim=1)
        worst_line = max(worst_line, abs(free_norm(mu).value - line_norm(mu)))
    worst_brute = 0.0
    for _ in range(20):
        pts = rng.uniform(-2, 2, size=(5, 2))
        space = FinitePointedMetricSpace.from_l1_points(pts)
        idx = rng.choice(5, size=4, replace=False)
        mu = Molecule.on_space(space, [(int(i), float(rng.normal())) for i in idx])
        value = free_norm(mu).value
        worst_brute = max(worst_brute, abs(value - brute_force_dual_norm(mu)))
        worst_brute = max(worst_brute, abs(value - transport_norm(mu)))
    elapsed = time.perf_counter() - t0
    ok = worst_dirac <= 1e-9 and worst_line <= 1e-9 and worst_brute <= 1e-6 and elapsed < 60.0
    _report("criterion-6 free-norm-correctness", ok, elapsed,
            f"dirac={worst_dirac:.2e} line={worst_line:.2e} brute={worst_brute:.2e}")
    assert worst_dirac <= 1e-9
    assert worst_line <= 1e-9
    assert worst_brute <= 1e-6
    assert elapsed < 60.0


def test_criterion_7_finite_rank():
    t0 = time.perf_counter()
    rng = np.random.default_rng(107)
    for _ in range(20):
        n = int(rng.integers(1, 5))
        f = random_lattice_function(rng)

        def off_grid_bump(x, n=n):
            s = 2.0 ** (1 - n)
            lead = x.leading(n)
            frac = np.abs(lead / s - np.round(lead / s)) * s
            return float(np.sum(frac) + x.tail(n))

        g = LipFunction(lambda x, f=f: f(x) + 1.3 * off_grid_bump(x))
        samples = [random_sparse(rng) for _ in range(10)]
        a = lip_projection(f, GridLevel(n)).eval_many(samples)
        b = lip_projection(g, GridLevel(n)).eval_many(samples)
        assert np.array_equal(a, b)

    # support control: counts, grid membership, truncation
    for _ in range(20):
        n = int(rng.integers(1, 6))
        max_index = int(rng.integers(1, 5))
        mu = random_l1_molecule(rng, size=int(rng.integers(1, 5)), max_index=max_index)
        proj = molecule_projection(mu, n)
        assert len(proj.terms) <= 2 ** min(n, max_index) * len(mu.terms)
        half, s = 2.0 ** (n - 1), 2.0 ** (1 - n)
        for p, _ in proj.terms:
            assert all(i <= n for i in p.support)
            for _, v in p.items:
                assert abs(v) <= half
                assert v / s == np.round(v / s)
    elapsed = time.perf_counter() - t0
    ok = elapsed < 5.0
    _report("criterion-7 finite-rank", ok, elapsed)
    assert elapsed < 5.0


def test_criterion_8_extension_harness():
    t0 = time.perf_counter()
    rng = np.random.default_rng(108)
    pts = rng.uniform(-2, 2, size=(20, 2))
    space = FinitePointedMetricSpace.from_l1_points(pts)
    values = rng.normal(size=20)
    values[space.origin] = 0.0
    from lipfree.extension import space_function

    f = space_function(space, values)
    lip_f = lip_constant(f, space.dist)
    chain = farthest_point_chain(space)
    worst_slack = -np.inf
    for subset in chain:
        sf = approximation_operator(f, build_partition(space, subset))
        for i in subset:
            assert value_at(sf, i) == value_at(f, i)
        err = max(abs(a - b) for a, b in zip(sf.values, f.values))
        if len(subset) == space.size:
            assert err == 0.0
            continue
        part = build_partition(space, subset)
        outside = [x for x in range(space.size) if x not in set(subset)]
        sums = part.weights[:, outside].sum(axis=0)
        assert np.max(np.abs(sums - 1.0)) <= 1e-12
        k_hat = gentleness(part).k_hat
        cov = covering_radius(space, subset)
        bound = (1.0 + 3.0 * k_hat) * cov * lip_f * (1 + 1e-6)
        worst_slack = max(worst_slack, err - bound)
        assert err <= bound
    elapsed = time.perf_counter() - t0
    ok = worst_slack <= 0.0 and elapsed < 20.0
    _report("criterion-8 extension-harness", ok, elapsed,
            f"slack={worst_slack:.2e} doubling={doubling_estimate(space)}")
    assert elapsed < 20.0


def test_criterion_9_verification_reproducibility():
    t0 = time.perf_counter()
    base = run_verification(DEFAULT_SEED)
    base_elapsed = time.perf_counter() - t0
    assert base.passed
    assert base_elapsed < 180.0
    verdicts = [(s.name, s.passed) for s in base.suites]
    for seed in range(DEFAULT_SEED + 1, DEFAULT_SEED + 11):
        rep = run_verification(seed)
        assert [(s.name, s.passed) for s in rep.suites] == verdicts
    elapsed = time.perf_counter() - t0
    _report("criterion-9 verification-reproducibility", True, elapsed,
            f"single-run={base_elapsed:.1f}s suites={len(verdicts)}")
