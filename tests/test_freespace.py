import json

import numpy as np
import pytest

from lipfree.extension import FinitePointedMetricSpace
from lipfree.cli import main
from lipfree import freespace, geometry
from bench_workloads import make_pool
from norm_oracle import oracle_free_norm
from lipfree.freespace import (
    MAX_NORM_SUPPORT,
    Molecule,
    NormCertificate,
    _distance_matrix,
    _projection_estimates,
    check_certificate,
    decomposition_report,
    free_norm,
    line_norm,
    molecule_projection,
    molecules_close,
    pairing,
    transport_norm,
)
from lipfree.geometry import FiniteSupportPoint
from lipfree.operators import GridLevel, convergence_checks, l1_norm_function, lip_projection, random_lattice_function
from report_oracle import dict_lattice_ok, lattice_arrays, oracle_report


def sparse(pairs):
    return FiniteSupportPoint.from_pairs(pairs)


def random_l1_molecule(rng, size=3, spread=2.0, max_index=6):
    terms = []
    for _ in range(size):
        k = int(rng.integers(1, 4))
        idx = rng.choice(np.arange(1, max_index + 1), size=k, replace=False)
        p = sparse((int(i), float(rng.uniform(-spread, spread))) for i in idx)
        terms.append((p, float(rng.normal())))
    return Molecule.on_l1(terms)


class TestCanonicalization:
    def test_merges_drops_and_sorts(self):
        mu = Molecule.on_rn(
            [((1.0, 0.0), 2.0), ((1.0, 0.0), -2.0), ((0.0, 0.0), 5.0), ((0.0, 1.0), 1.0)],
            dim=2,
        )
        assert mu.support == ((0.0, 1.0),)
        assert mu.coefficients == (1.0,)

    def test_equal_points_merge_keeping_the_last_and_sort_by_point(self):
        mu = Molecule.on_rn([((0.0, 1.0), 1.0), ((-0.0, 1.0), 2.0)], dim=2)
        assert mu.coefficients == (3.0,) and np.signbit(mu.support[0][0])
        assert molecules_close(mu, Molecule.on_rn([((0.0, 1.0), 3.0)], dim=2), tol=0.0)
        pts = [sparse([(2, 1.0)]), sparse([(1, 3.0), (4, 1.0)]), sparse([(1, -1.0)])]
        assert Molecule.on_l1([(p, 1.0) for p in pts]).support == tuple(sorted(pts, key=lambda p: p.items))

    def test_origin_evaluations_vanish(self):
        assert Molecule.on_l1([(FiniteSupportPoint.zero(), 3.0)]).is_zero

    def test_dimension_check(self):
        with pytest.raises(ValueError):
            Molecule.on_rn([((1.0,), 1.0), ((1.0, 2.0), 1.0)])
        with pytest.raises(ValueError, match="only coordinate molecules have a dimension"):
            Molecule(kind="l1", terms=(), dim=2)

    def test_json_round_trips(self):
        ml1 = random_l1_molecule(np.random.default_rng(0))
        assert molecules_close(Molecule.from_json(ml1.to_json()), ml1, tol=0.0)
        mrn = Molecule.on_rn([((0.5, -1.0), 2.0)], dim=2)
        assert molecules_close(Molecule.from_json(mrn.to_json()), mrn, tol=0.0)
        space = FinitePointedMetricSpace.from_l1_points([[0.0], [1.0], [3.0]])
        mfin = Molecule.on_space(space, [(1, 1.0), (2, -0.5)])
        back = Molecule.from_json(mfin.to_json())
        assert back.support == mfin.support and back.coefficients == mfin.coefficients


class TestPairing:
    def test_single_evaluation(self):
        rng = np.random.default_rng(1)
        f = random_lattice_function(rng)
        p = sparse([(1, 0.7), (4, -0.2)])
        assert pairing(f, Molecule.on_l1([(p, 1.0)])) == pytest.approx(f(p))

    def test_empty_molecule(self):
        assert pairing(lambda x: 1e9, Molecule.on_l1([])) == 0.0

    def test_bilinearity(self):
        rng = np.random.default_rng(2)
        f = random_lattice_function(rng)
        g = random_lattice_function(rng)
        mu = random_l1_molecule(rng)
        nu = random_l1_molecule(rng)
        a, b = rng.normal(size=2)
        lhs = pairing(lambda x: a * f(x) + b * g(x), mu.plus(nu))
        rhs = (
            a * pairing(f, mu) + b * pairing(g, mu) + a * pairing(f, nu) + b * pairing(g, nu)
        )
        assert lhs == pytest.approx(rhs, abs=1e-9)


class TestFreeNorm:
    def test_single_dirac_is_distance_to_origin(self):
        cert = free_norm(Molecule.on_rn([((1.0, 0.0), 1.0)], dim=2))
        assert cert.value == pytest.approx(1.0, abs=1e-12)

    def test_two_point_difference(self):
        mu = Molecule.on_rn([((1.0, 0.0), 1.0), ((0.0, 1.0), -1.0)], dim=2)
        cert = free_norm(mu)
        assert cert.value == pytest.approx(2.0, abs=1e-12)
        assert check_certificate(cert, mu)

    def test_three_term_line_molecule(self):
        mu = Molecule.on_rn([((1.0,), 1.0), ((2.0,), -2.0), ((3.0,), 1.0)], dim=1)
        cert = free_norm(mu)
        assert cert.value == pytest.approx(2.0, abs=1e-9)
        assert line_norm(mu) == pytest.approx(2.0, abs=1e-15)
        assert transport_norm(mu) == pytest.approx(2.0, abs=1e-9)

    def test_empty_molecule(self):
        assert free_norm(Molecule.on_l1([])).value == 0.0

    def test_scaling_and_triangle(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            mu = random_l1_molecule(rng)
            nu = random_l1_molecule(rng)
            a = float(rng.normal())
            assert free_norm(mu.scaled(a)).value == pytest.approx(
                abs(a) * free_norm(mu).value, abs=1e-9
            )
            assert (
                free_norm(mu.plus(nu)).value
                <= free_norm(mu).value + free_norm(nu).value + 1e-9
            )

    def test_certificates_are_valid(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            mu = random_l1_molecule(rng)
            assert check_certificate(free_norm(mu), mu)

    def test_nonzero_canonical_molecules_have_positive_norm(self):
        rng = np.random.default_rng(12)
        for _ in range(10):
            mu = random_l1_molecule(rng)
            if not mu.is_zero:
                assert free_norm(mu).value > 1e-12

    def test_agrees_with_transport_oracle(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            mu = random_l1_molecule(rng, size=4)
            assert free_norm(mu).value == pytest.approx(transport_norm(mu), abs=1e-7)

    def test_line_oracle_on_random_molecules(self):
        rng = np.random.default_rng(6)
        for _ in range(30):
            pts = rng.uniform(-4, 4, size=int(rng.integers(1, 9)))
            mu = Molecule.on_rn([((float(t),), float(rng.normal())) for t in pts], dim=1)
            assert free_norm(mu).value == pytest.approx(line_norm(mu), abs=1e-9)

    def test_finite_space_molecules(self):
        space = FinitePointedMetricSpace.from_l1_points([[0.0, 0.0], [1.0, 1.0], [2.0, 0.0]])
        mu = Molecule.on_space(space, [(1, 1.0)])
        assert free_norm(mu).value == pytest.approx(space.dist[0, 1], abs=1e-12)

    def test_line_norm_rejects_other_spaces(self):
        with pytest.raises(ValueError):
            line_norm(Molecule.on_rn([((1.0, 1.0), 1.0)], dim=2))
        with pytest.raises(ValueError):
            line_norm(Molecule.on_l1([(sparse([(2, 1.0)]), 1.0)]))


class TestMoleculeProjection:
    def test_half_point_splits_onto_nodes(self):
        mu = Molecule.on_l1([(sparse([(1, 0.5)]), 1.0)])
        proj = molecule_projection(mu, 1)
        assert proj.terms == ((sparse([(1, 1.0)]), 0.5),)
        assert free_norm(proj).value == pytest.approx(0.5, abs=1e-12)

    def test_grid_supported_molecules_are_fixed(self):
        p = sparse([(1, 0.5), (2, -1.5)])  # a node of the level-2 grid
        mu = Molecule.on_l1([(p, 2.0)])
        for n in range(2, 6):
            assert molecules_close(molecule_projection(mu, n), mu, tol=0.0)

    def test_adjointness_on_instances(self):
        rng = np.random.default_rng(7)
        for _ in range(40):
            n = int(rng.integers(1, 5))
            f = random_lattice_function(rng)
            mu = random_l1_molecule(rng, size=int(rng.integers(1, 4)))
            lhs = pairing(lip_projection(f, GridLevel(n)), mu)
            rhs = pairing(f, molecule_projection(mu, n))
            assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_norm_never_grows(self):
        rng = np.random.default_rng(8)
        for _ in range(8):
            mu = random_l1_molecule(rng)
            base = free_norm(mu).value
            for n in (1, 2, 3, 4):
                assert free_norm(molecule_projection(mu, n)).value <= base * (1 + 1e-7) + 1e-12

    def test_projection_lattice(self):
        rng = np.random.default_rng(9)
        mu = random_l1_molecule(rng)
        projections = {n: molecule_projection(mu, n) for n in range(1, 5)}
        for m in range(1, 5):
            for n in range(1, 5):
                left = molecule_projection(projections[n], m)
                assert molecules_close(left, projections[min(m, n)], tol=1e-10)

    def test_finite_space_rejected(self):
        space = FinitePointedMetricSpace.from_l1_points([[0.0], [1.0]])
        with pytest.raises(ValueError):
            molecule_projection(Molecule.on_space(space, [(1, 1.0)]), 2)


class TestDecompositionReport:
    def test_non_dyadic_point_converges_but_never_lands(self):
        mu = Molecule.on_l1([(sparse([(1, 1.0 / 3.0)]), 1.0)])
        report = decomposition_report(mu, 12)
        assert report.passed
        errs = [r.err_value for r in report.rows]
        assert errs[-1] < 1e-3
        assert all(e > 0 for e in errs)  # 1/3 is not dyadic, never exact

    def test_grid_supported_molecule_is_exact_from_its_level(self):
        mu = Molecule.on_l1([(sparse([(1, 0.5), (2, 1.0)]), 1.0)])
        report = decomposition_report(mu, 5)
        assert report.passed
        for row in report.rows:
            if row.n >= 2:
                assert row.err_value <= 1e-12

    def test_zero_molecule_trivially_passes(self):
        report = decomposition_report(Molecule.on_l1([]), 4)
        assert report.passed
        assert all(r.norm_value == 0.0 and r.err_value == 0.0 for r in report.rows)

    def test_bound_column_matches_formula(self):
        mu = Molecule.on_l1([(sparse([(1, 0.4), (3, 0.2)]), 2.0)])
        assert _projection_estimates(mu, 2)[0][1] == pytest.approx(2.0 * 2.0 * (0.2 + 2 * 0.5))

    def test_bound_and_clamp_are_the_unit_constant_convergence_columns(self):
        rng = np.random.default_rng(233)
        for _ in range(10):
            mu = random_report_molecule(rng)
            bounds, clamps = _projection_estimates(mu, 8)
            for n in range(1, 9):
                checks = convergence_checks(l1_norm_function(), mu.support, n, dim=mu.dim)
                total = 0.0
                for a, b in zip(mu.coefficients, checks.bound.tolist()):
                    total += abs(a) * b
                assert (bounds[n - 1], clamps[n - 1]) == (total, bool(checks.clamped.any()))


class TestNormSize:
    def test_free_norm_refuses_a_support_beyond_the_cap(self):
        pts = np.random.default_rng(5).uniform(-4.0, 4.0, size=(MAX_NORM_SUPPORT + 1, 2))
        with pytest.raises(ValueError, match=f"{MAX_NORM_SUPPORT + 1} support points"):
            free_norm(Molecule.on_rn([(p, 1.0) for p in pts]))

    def test_report_sizes_every_level_before_solving(self, monkeypatch):
        # 10 free coordinates: level 9 reaches 512 corners, and its error molecule 513 points
        point = sparse([(i, 0.01 + 0.98 * ((i * 0.618034) % 1.0)) for i in range(1, 11)])
        solved = []
        monkeypatch.setattr(freespace, "solve_box_lp", lambda *args: solved.append(args))
        with pytest.raises(ValueError, match="level-9 projection error has 513"):
            decomposition_report(Molecule.on_l1([(point, 1.0)]), 12)
        assert solved == []


class TestDiracIsometry:
    def test_sampled_pairs_in_dimension_three(self):
        rng = np.random.default_rng(10)
        for _ in range(25):
            p, q = rng.uniform(-3, 3, size=(2, 3))
            mu = Molecule.on_rn([(p, 1.0), (q, -1.0)], dim=3)
            assert free_norm(mu).value == pytest.approx(float(np.abs(p - q).sum()), abs=1e-9)

    def test_sampled_pairs_in_random_finite_space(self):
        rng = np.random.default_rng(11)
        pts = rng.uniform(-2, 2, size=(7, 2))
        space = FinitePointedMetricSpace.from_l1_points(pts)
        for _ in range(15):
            i, j = rng.choice(7, size=2, replace=False)
            mu = Molecule.on_space(space, [(int(i), 1.0), (int(j), -1.0)])
            assert free_norm(mu).value == pytest.approx(float(space.dist[i, j]), abs=1e-9)


def looped_distance_matrix(mu):
    """The oracle: one scalar distance per pair ``i < j``, mirrored."""
    pts = [mu.origin_point()] + list(mu.support)
    d = np.zeros((len(pts), len(pts)))
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            d[i, j] = d[j, i] = mu.point_distance(pts[i], pts[j])
    return d


def distance_cases(seed):
    rng = np.random.default_rng(seed)
    yield random_l1_molecule(rng, size=int(rng.integers(1, 30)), spread=3.0, max_index=12)
    for dim in (1, 2, 9):
        pts = rng.normal(size=(int(rng.integers(1, 30)), dim)) * 10.0 ** rng.integers(-3, 4)
        yield Molecule.on_rn([(tuple(p), float(rng.normal())) for p in pts], dim=dim)
    base = FinitePointedMetricSpace.from_l1_points(rng.normal(size=(12, 3)))
    # symmetric only within the space's tolerance: the upper triangle wins
    nudged = base.dist + np.tril(base.dist, -1) * 1e-14
    space = FinitePointedMetricSpace(labels=base.labels, dist=nudged, origin=0)
    yield Molecule.on_space(space, [(int(i), float(rng.normal())) for i in rng.choice(12, size=7)])


class TestDistanceMatrix:
    @pytest.mark.parametrize("seed", range(8))
    def test_matches_per_pair_loop(self, seed):
        for mu in distance_cases(500 + seed):
            assert np.array_equal(_distance_matrix(mu), looped_distance_matrix(mu)), mu.kind

    def test_empty_molecules(self):
        for mu in (Molecule.on_l1([]), Molecule.on_rn([]), Molecule.on_rn([((0.0, 0.0), 1.0)])):
            assert _distance_matrix(mu).tolist() == [[0.0]]

    def test_tiny_blocks_change_nothing(self, monkeypatch):
        cases = list(distance_cases(520))
        expect = [_distance_matrix(mu) for mu in cases]
        monkeypatch.setattr(geometry, "_L1_BLOCK_ELEMENTS", 1)
        for mu, d in zip(cases, expect):
            assert np.array_equal(_distance_matrix(mu), d)


def test_rn_points_must_be_flat():
    for bad in ([[1.0]], 1.0, [[0.5, 0.5]]):
        with pytest.raises(ValueError, match="not a flat list"):
            Molecule.on_rn([(bad, 1.0)])


class TestOnRn:
    """``Molecule.on_rn`` checks all points in one array pass, and names the
    first bad point as the point-by-point checks do."""

    def test_the_canonical_molecule_of_the_terms(self):
        rng = np.random.default_rng(990)
        pts = rng.choice([-1.5, -0.0, 0.0, 0.25, 3.0], size=(40, 3))
        pairs = [(p, float(a)) for p, a in zip(pts, rng.normal(size=40))]
        mu = Molecule.on_rn(pairs)
        expect = Molecule(kind="l1N", terms=(), dim=3)._rebuild([(tuple(map(float, p)), a) for p, a in pairs])
        assert mu.dim == 3 and repr(mu.terms) == repr(expect.terms)  # repr tells -0.0 from 0.0
        assert repr(Molecule.on_rn([(list(p), a) for p, a in pairs], dim=3).terms) == repr(expect.terms)

    @pytest.mark.parametrize("pairs, message", [
        ([((1.0, 2.0), 1.0), ((1.0, float("nan")), 1.0), ((1e200, 0.0), 1.0)], r"point \(1.0, nan\) has a non-finite"),
        ([((1.0, 2.0), 1.0), ((1e200, 0.0), 1.0), ((float("inf"), 0.0), 1.0)], r"coordinate of point \(1e\+200, 0.0\)"),
        ([((1.0, 2.0), float("inf")), ((1e200, 0.0), 1.0)], "coefficient inf is not finite"),
        ([((1.0, 2.0), 1e120), ((float("nan"), 0.0), 1.0)], "coefficient is 1e\\+120"),
        ([((1.0, 2.0), 1.0), ((1.0,), 1.0), ((float("nan"), 0.0), 1.0)], "share one dimension"),
    ])
    def test_the_first_bad_point_is_named(self, pairs, message):
        with pytest.raises(ValueError, match=message):
            Molecule.on_rn(pairs)


def oracle_cases(seed):
    """Seeded unit-scale molecules of up to 40 terms: ``l1``, ``l1N`` in
    dimensions 1, 2 and 6, and ``finite``."""
    rng = np.random.default_rng(seed)
    sizes = rng.integers(1, 41, size=5).tolist()
    yield random_l1_molecule(rng, size=sizes[0], spread=3.0, max_index=8)
    for dim, k in zip((1, 2, 6), sizes[1:]):
        pts = rng.uniform(-3, 3, size=(k, dim))
        yield Molecule.on_rn([(tuple(p), float(rng.normal())) for p in pts], dim=dim)
    space = FinitePointedMetricSpace.from_l1_points(rng.uniform(-2, 2, size=(41, 3)))
    yield Molecule.on_space(space, [(int(i), float(rng.normal())) for i in rng.choice(41, size=sizes[4])])


def plane_molecule(seed, scale=1.0, mass=1.0):
    rng = np.random.default_rng(seed)
    k = int(rng.integers(2, 13))
    pts, coeffs = rng.uniform(-2, 2, size=(k, 2)), rng.normal(size=k)
    return Molecule.on_rn([(p * scale, mass * float(a)) for p, a in zip(pts, coeffs)], dim=2)


class TestAgainstTheSimplexOracle:
    @pytest.mark.parametrize("seed", range(6))
    def test_values_agree_and_witnesses_certify(self, seed):
        for mu in oracle_cases(700 + seed):
            cert = free_norm(mu)
            value, witness = oracle_free_norm(mu)
            assert cert.value == pytest.approx(value, rel=1e-9, abs=0.0), (mu.kind, mu.dim, len(mu.terms))
            assert list(cert.witness) == list(witness)
            assert check_certificate(cert, mu)
            assert check_certificate(NormCertificate(value, witness), mu)


class TestScaleSafety:
    """The norm is 1-homogeneous in the points and linear in the coefficients
    at every scale, and the certificate check is as strict at every scale."""

    @pytest.mark.parametrize("scale", [2.0**-100, 1e-30, 1e25, 1e60])
    def test_scaled_points_scale_the_norm(self, scale):
        for seed in range(40):
            mu = plane_molecule(seed, scale=scale)
            expect = scale * transport_norm(plane_molecule(seed))
            cert = free_norm(mu)
            assert cert.value == pytest.approx(expect, rel=1e-9, abs=0.0)
            assert check_certificate(cert, mu)
            assert transport_norm(mu) == pytest.approx(expect, rel=1e-9, abs=0.0)

    @pytest.mark.parametrize("mass", [2.0**-100, 1e-30, 1e60])
    def test_scaled_coefficients_scale_the_norm(self, mass):
        for seed in range(10):
            mu = plane_molecule(seed, mass=mass)
            expect = mass * transport_norm(plane_molecule(seed))
            assert free_norm(mu).value == pytest.approx(expect, rel=1e-9, abs=0.0)
            assert transport_norm(mu) == pytest.approx(expect, rel=1e-9, abs=0.0)

    def test_absolute_slack_witnesses_are_rejected(self):
        # the oracle's violation tolerance is absolute, so at 2^-100 its
        # witnesses are steeper than 1-Lipschitz and their values too large
        wrong = 0
        for seed in range(40):
            mu = plane_molecule(seed, scale=2.0**-100)
            value, witness = oracle_free_norm(mu)
            if value != pytest.approx(free_norm(mu).value, rel=1e-9, abs=0.0):
                wrong += 1
                assert not check_certificate(NormCertificate(value, witness), mu), seed
        assert wrong >= 30

    def test_inflated_value_is_rejected_at_small_scale(self):
        mu = plane_molecule(3, scale=2.0**-100)
        cert = free_norm(mu)
        assert check_certificate(cert, mu)
        assert not check_certificate(NormCertificate(2.0 * cert.value, cert.witness), mu)


class TestBatchedNorms:
    """``free_norms`` stacks the molecules' programs into one HiGHS solve;
    each block keeps its own scaling, so each entry is the molecule's norm."""

    def batch(self, seed):
        rng = np.random.default_rng(seed)
        space = FinitePointedMetricSpace.from_l1_points([[0.0, 0.0], [1.0, 0.5]])
        mus = [m for s in range(3) for m in oracle_cases(seed + s)]
        mus += [Molecule.on_l1([]), Molecule.on_rn([((0.5, -1.0), 2.0)], dim=2), Molecule.on_space(space, [(1, 1.0)]),
                plane_molecule(seed, scale=2.0**-100), plane_molecule(seed + 1, mass=1e60)]
        return [mus[i] for i in rng.permutation(len(mus))]

    @pytest.mark.parametrize("seed", [900, 910])
    def test_each_entry_is_the_molecules_own_norm(self, seed, monkeypatch):
        mus = self.batch(seed)
        solved = []
        solve_box_lp = freespace.solve_box_lp
        monkeypatch.setattr(freespace, "solve_box_lp", lambda *args: solved.append(len(args[0])) or solve_box_lp(*args))
        certs = freespace.free_norms(mus)
        monkeypatch.undo()
        assert len(solved) == 1 and solved[0] == sum(len(mu.terms) for mu in mus)
        assert len(certs) == len(mus)
        for mu, cert in zip(mus, certs):
            alone = free_norm(mu)
            assert cert.value == pytest.approx(alone.value, rel=1e-12, abs=0.0), (mu.kind, len(mu.terms))
            assert list(cert.witness) == list(alone.witness)
            assert check_certificate(cert, mu)

    def test_one_molecule_batch_is_free_norm_bit_for_bit(self):
        for mu in oracle_cases(920):
            (cert,) = freespace.free_norms([mu])
            alone = free_norm(mu)
            assert cert.value == alone.value
            assert list(cert.witness.items()) == list(alone.witness.items())

    def test_zero_and_one_point_molecules(self, monkeypatch):
        zero = Molecule.on_rn([], dim=2)
        assert freespace.free_norms([]) == []
        monkeypatch.setattr(freespace, "solve_box_lp", lambda *args: pytest.fail("nothing to solve"))
        assert freespace.free_norms([zero, zero]) == [NormCertificate(0.0, {(0.0, 0.0): 0.0})] * 2
        monkeypatch.undo()
        one = Molecule.on_rn([((0.5, -1.0), -2.0)], dim=2)
        certs = freespace.free_norms([zero, one, zero])
        assert [c.value for c in certs] == [0.0, 3.0, 0.0]
        assert certs[1].witness == {(0.0, 0.0): 0.0, (0.5, -1.0): -1.5}

    def test_a_support_beyond_the_cap_raises_before_any_solve(self, monkeypatch):
        pts = np.random.default_rng(5).uniform(-4.0, 4.0, size=(MAX_NORM_SUPPORT + 1, 2))
        monkeypatch.setattr(freespace, "solve_box_lp", lambda *args: pytest.fail("solved"))
        with pytest.raises(ValueError, match=f"{MAX_NORM_SUPPORT + 1} support points"):
            freespace.free_norms([plane_molecule(1), Molecule.on_rn([(p, 1.0) for p in pts])])


class _Captured(Exception):
    """Ends a CLI op once its program has reached the solver."""


def milp_x(c, pairs, b, lower, upper):
    """The same program through ``scipy.optimize.milp``, the oracle of
    :func:`freespace.solve_box_lp`: a CSR matrix, ``milp``'s own CSC
    conversion and its HiGHS wrapper."""
    from scipy import optimize, sparse

    m = len(pairs)
    rows = sparse.csr_array((np.tile([1.0, -1.0], m), np.ravel(pairs), np.arange(0, 2 * m + 1, 2)),
                            shape=(m, len(c)))
    res = optimize.milp(-np.asarray(c, dtype=float), constraints=optimize.LinearConstraint(rows, -b, b),
                        bounds=optimize.Bounds(lower, upper))
    assert res.success, res.message
    return res.x


def assert_solves_like_milp(program):
    res = freespace.solve_box_lp(*program)
    expect = milp_x(*program)
    assert res.x.dtype == expect.dtype and res.x.tobytes() == expect.tobytes()
    return res


class TestSolveBoxLp:
    """``solve_box_lp`` calls SciPy's bundled HiGHS bindings directly; HiGHS
    gets the model ``milp`` would give it, so the witness is ``milp``'s bit for
    bit."""

    @pytest.fixture(scope="class")
    def pool_programs(self, tmp_path_factory):
        """Every program the seed 201-210 ``norm`` and ``fdd`` benchmark pools
        hand the solver, captured as each op's CLI call reaches it."""
        workdir = tmp_path_factory.mktemp("pools")
        programs = []

        def capture(*args):
            programs.append(args)
            raise _Captured

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(freespace, "solve_box_lp", capture)
            for workload in ("norm", "fdd"):
                for seed in range(201, 211):
                    for op in make_pool(workload, seed, workdir):
                        with pytest.raises(_Captured):
                            main(op.argv + ["--output", str(workdir / "out.json")])
        return programs

    def test_pool_programs_solve_like_milp(self, pool_programs):
        assert len(pool_programs) == 2 * 10 * 96
        for program in pool_programs:
            assert_solves_like_milp(program)

    def test_iterations_are_highs_simplex_pivots(self, pool_programs):
        assert freespace.solve_box_lp(*pool_programs[0]).iterations > 0

    def test_a_program_with_no_pairs_sits_on_its_bounds(self):
        program = (np.array([1.0, -0.5, 0.0]), np.empty((0, 2), dtype=np.int64), np.empty(0),
                   np.array([-1.0, -2.0, -3.0]), np.array([1.0, 2.0, 3.0]))
        res = assert_solves_like_milp(program)
        assert res.x[:2].tolist() == [1.0, -2.0]

    def test_an_infeasible_program_raises_naming_the_status(self):
        program = (np.array([1.0, 1.0]), np.array([[0, 1]]), np.array([-1.0]), np.full(2, -1.0), np.full(2, 1.0))
        with pytest.raises(freespace.SolverError, match="^Infeasible$"):
            freespace.solve_box_lp(*program)

    @pytest.mark.parametrize("name", ["c", "b", "lower", "upper"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_a_non_finite_argument_raises_naming_it(self, monkeypatch, name, bad):
        from scipy.optimize._highspy import _core

        program = dict(c=np.array([1.0, 1.0]), pairs=np.array([[0, 1]]), b=np.array([1.0]),
                       lower=np.full(2, -1.0), upper=np.full(2, 1.0))
        program[name] = program[name].copy()
        program[name][-1] = bad
        monkeypatch.setattr(_core, "_Highs", None)  # HiGHS must not see the model
        with pytest.raises(ValueError, match=f"^the program's {name} is not finite$"):
            freespace.solve_box_lp(*program.values())

    def test_the_1e25_scaled_molecule(self, monkeypatch):
        # HiGHS takes bounds of 1e20 or more as infinite; free_norm scales the program first
        mu = Molecule.on_rn([((1e25, 0.0), 1.0), ((0.0, 1e25), -1.0)], dim=2)
        programs, solve_box_lp = [], freespace.solve_box_lp
        monkeypatch.setattr(freespace, "solve_box_lp", lambda *args: programs.append(args) or solve_box_lp(*args))
        assert free_norm(mu).value == pytest.approx(2e25, rel=1e-12)
        monkeypatch.undo()
        (program,) = programs
        assert 0.0 < np.max(program[4]) < 1.0  # the bounds HiGHS sees
        assert_solves_like_milp(program)


def pairwise_lattice_ok(projections):
    """The pairwise lattice check: every ``molecule_projection`` of a level
    against the coarser level, through ``molecules_close``."""
    return all(molecules_close(molecule_projection(projections[n], m), projections[min(m, n)], tol=1e-10)
               for m in projections for n in projections)


def level_projections(mu, n_max):
    return {n: molecule_projection(mu, n) for n in range(1, n_max + 1)}


def random_report_molecule(rng):
    if rng.random() < 0.5:
        return random_l1_molecule(rng, size=int(rng.integers(1, 6)), spread=3.0)
    dim = int(rng.integers(1, 4))
    return Molecule.on_rn([(tuple(rng.uniform(-3, 3, size=dim)), float(rng.normal()))
                           for _ in range(int(rng.integers(1, 6)))], dim=dim)


def perturbed_level(args, n, factor):
    """``lattice_arrays`` output with the masses of level ``n`` scaled by ``factor``."""
    coords, mass, level_of, n_max, dim = args
    return coords, np.where(level_of == n, mass * factor, mass), level_of, n_max, dim


class TestLatticeCheck:
    """The array lattice check, on the rows that ``lattice_arrays`` lays out
    from a dict of projections, against the pairwise check and the
    dict-based oracle."""

    def test_report_flags_one_perturbed_level(self, monkeypatch):
        mu = Molecule.on_l1([(sparse([(1, 1.0 / 3.0), (2, -0.7)]), 1.0), (sparse([(3, 1.3)]), -0.5)])
        assert decomposition_report(mu, 8).lattice_ok
        lattice_ok = freespace._lattice_ok
        monkeypatch.setattr(freespace, "_lattice_ok", lambda *args: lattice_ok(*perturbed_level(args, 5, 1.0 + 1e-6)))
        assert not decomposition_report(mu, 8).lattice_ok

    @pytest.mark.parametrize("change", ["scale", "drop", "move", "tiny"])
    def test_agrees_with_the_pairwise_check_on_a_changed_level(self, change):
        rng = np.random.default_rng(930)
        for _ in range(5):
            mu = random_report_molecule(rng)
            projections = level_projections(mu, 6)
            n = int(rng.integers(1, 7))
            proj = projections[n]
            if change == "scale":
                projections[n] = proj.scaled(1.0 + 1e-6)
            elif change == "drop":
                projections[n] = proj._rebuild(proj.terms[1:])
            elif change == "move":  # half a level-n cell along every axis
                p, a = proj.terms[0]
                moved = (sparse((i, v + 2.0**-n) for i, v in p.items) if mu.kind == "l1"
                         else tuple(v + 2.0**-n for v in p))
                projections[n] = proj._rebuild([(moved, a), *proj.terms[1:]])
            else:
                projections[n] = proj.scaled(1.0 + 1e-14)
            expect = change == "tiny"
            assert freespace._lattice_ok(*lattice_arrays(projections)) == pairwise_lattice_ok(projections) == expect
            assert dict_lattice_ok(projections) == expect

    def test_agrees_with_the_pairwise_check_on_20_random_reports(self):
        rng = np.random.default_rng(940)
        for _ in range(20):
            mu = random_report_molecule(rng)
            n_max = int(rng.integers(1, 9))
            assert decomposition_report(mu, n_max).lattice_ok == pairwise_lattice_ok(level_projections(mu, n_max))

    def test_a_report_projects_each_level_once(self, monkeypatch):
        mu = Molecule.on_l1([(sparse([(1, 1.0 / 3.0), (2, -0.7), (9, 0.2)]), 1.0),
                             (sparse([(3, 1.3), (5, 0.6)]), -0.5)])
        levels, targets, distances = [], [], []
        project, cell_weights = freespace.molecule_projection, freespace.cell_weights
        l1_distances = freespace.l1_distances
        monkeypatch.setattr(freespace, "molecule_projection", lambda mu, n: levels.append(n) or project(mu, n))
        monkeypatch.setattr(freespace, "cell_weights",
                            lambda rows, level, n=None: targets.append(n) or cell_weights(rows, level, n))
        monkeypatch.setattr(freespace, "l1_distances", lambda a, b: distances.append(len(a)) or l1_distances(a, b))
        assert decomposition_report(mu, 8).lattice_ok
        # one projection per level; the lattice check projects them to every target level in one call
        assert levels == list(range(1, 9))
        assert [n is None for n in targets] == [True] * 8 + [False]
        assert sorted(set(targets[-1].tolist())) == list(range(1, 9))
        assert len(distances) == 1

    def test_a_stack_past_the_corner_cap_goes_one_level_at_a_time(self, monkeypatch):
        from lipfree import operators

        # one generic 8-d point: each level expands under the cap, all levels together do not
        mu = Molecule.on_rn([((0.31, -0.72, 1.13, -2.05, 0.48, 2.61, -1.37, 0.09), 1.0)], dim=8)
        projections = level_projections(mu, 8)
        stacked = [sum(len(operators.cell_weights(p.support, GridLevel(m, dim=8))[0]) for p in projections.values())
                   for m in projections]
        assert max(stacked) > operators.MAX_CORNERS
        args = lattice_arrays(projections)
        assert freespace._lattice_ok(*args)
        assert not freespace._lattice_ok(*perturbed_level(args, 4, 1.0 + 1e-6))
        monkeypatch.setattr(operators, "MAX_CORNERS", 2**10)
        with pytest.raises(ValueError, match="weighted cell corners"):
            freespace._lattice_ok(*args)


def fdd_pool_molecules(seed, tmp_path):
    """The molecules of the benchmark's ``fdd`` pool for a seed."""
    return [(Molecule.from_json(json.loads(op.input_path.read_text())), int(op.argv[op.argv.index("--n-max") + 1]))
            for op in make_pool("fdd", seed, tmp_path)]


def edge_molecules():
    """Named ``(molecule, n_max)`` cases at the edges of the report's table."""
    rng = np.random.default_rng(950)
    plane = rng.uniform(-3, 3, size=(12, 2))
    point = [(i, 0.01 + 0.98 * ((i * 0.618034) % 1.0)) for i in range(1, 9)]
    return {
        "zero-l1": (Molecule.on_l1([]), 4),
        "zero-l1N": (Molecule.on_rn([], dim=2), 3),
        "zero-l1N-no-dim": (Molecule.on_rn([]), 3),
        "n_max-1": (random_l1_molecule(rng, size=4, spread=3.0), 1),
        "n_max-1-l1N": (Molecule.on_rn([(p, float(rng.normal())) for p in plane[:4]], dim=2), 1),
        "n_max-12": (random_l1_molecule(rng, size=3, spread=3.0, max_index=14), 12),
        "n_max-12-l1N": (Molecule.on_rn([(p, float(rng.normal())) for p in plane], dim=2), 12),
        "grid-points": (Molecule.on_rn([((0.5, 0.25), 1.0), ((1.0, -2.0), -2.0), ((0.3, 0.1), 0.5)], dim=2), 6),
        "grid-points-l1": (Molecule.on_l1([(sparse([(1, 0.5), (2, 1.0)]), 1.0), (sparse([(1, 0.3)]), 0.7)]), 5),
        # (0.5, 0.5) is a corner at levels 2 and 3
        "corner-of-two-levels": (Molecule.on_rn([((0.3, 0.3), 1.0)], dim=2), 3),
        "error-cancels": (Molecule.on_rn([((0.5, 0.5), 1.0), ((0.75, 0.5), 1.0)], dim=2), 4),
        "error-cancels-l1": (Molecule.on_l1([(sparse([(1, 0.5)]), 1.0), (sparse([(1, 0.75)]), 2.0)]), 4),
        "negative-zero": (Molecule.on_rn([((-0.0, 0.5), 1.0), ((0.3, -0.0), -1.0), ((0.6, 0.5), 0.25)], dim=2), 5),
        "negative-zero-3d": (Molecule.on_rn([((-0.0, -0.0, 0.7), 1.0), ((0.2, -0.0, 0.0), -0.3)], dim=3), 6),
        "indices-past-n_max": (Molecule.on_l1([(sparse([(1, 0.4), (15, 0.2)]), 1.0),
                                               (sparse([(2, -0.3), (30, 1.5)]), 0.5)]), 12),
        "indices-past-int64": (Molecule.on_l1([(sparse([(1, 0.4), (2**70, 0.2)]), 1.0),
                                               (sparse([(2**64 + 3, 1.5)]), -0.5), (sparse([(2, 0.25)]), 0.5)]), 6),
        "clamped": (Molecule.on_rn([((5.0, -7.5), 1.0), ((0.2, 9.0), -1.0), ((1.5, 0.25), 2.0)], dim=2), 5),
        "clamped-l1": (Molecule.on_l1([(sparse([(1, 5.0), (2, -3.0)]), 1.0), (sparse([(3, 2.5)]), -0.3)]), 6),
        # 8 free coordinates: all levels pass 2 * MAX_NORM_SUPPORT + 1 points, so they go in several tables
        "levels-in-runs": (Molecule.on_l1([(sparse(point), 1.0)]), 8),
    }


class TestReportOracle:
    """The array report equals the per-level oracle, ``to_json()`` exactly."""

    @pytest.mark.parametrize("seed", range(201, 211))
    def test_on_the_benchmark_pool(self, seed, tmp_path):
        for mu, n_max in fdd_pool_molecules(seed, tmp_path):
            assert decomposition_report(mu, n_max).to_json() == oracle_report(mu, n_max).to_json()

    @pytest.mark.parametrize("name", edge_molecules())
    def test_on_an_edge_case(self, name):
        mu, n_max = edge_molecules()[name]
        assert decomposition_report(mu, n_max).to_json() == oracle_report(mu, n_max).to_json()

    def test_levels_past_one_table_go_in_runs(self, monkeypatch):
        rng = np.random.default_rng(960)
        mu = Molecule.on_rn([(p, float(rng.normal())) for p in rng.uniform(-3, 3, size=(5, 3))], dim=3)
        monkeypatch.setattr(freespace, "MAX_NORM_SUPPORT", 48)  # a table holds 97 points
        expect = oracle_report(mu, 6).to_json()
        tables, distances = [], freespace._distances
        monkeypatch.setattr(freespace, "_distances", lambda mu, pts: tables.append(len(pts)) or distances(mu, pts))
        assert decomposition_report(mu, 6).to_json() == expect
        assert len(tables) > 1 and max(tables) <= 98  # origin + 97 points

    @pytest.mark.parametrize("cap, refusal", [(2**17, "level-9 projection error has 513"),
                                              (2**8, "512 weighted cell corners at level 9")])
    def test_the_first_refused_level_is_reported(self, monkeypatch, cap, refusal):
        from lipfree import operators

        # 12 free coordinates: level n reaches 2**n corners, and its error molecule 2**n + 1 points
        mu = Molecule.on_l1([(sparse([(i, 0.01 + 0.98 * ((i * 0.618034) % 1.0)) for i in range(1, 13)]), 1.0)])
        monkeypatch.setattr(operators, "MAX_CORNERS", cap)
        with pytest.raises(ValueError, match=refusal) as expect:
            oracle_report(mu, 12)
        with pytest.raises(ValueError) as got:
            decomposition_report(mu, 12)
        assert str(got.value) == str(expect.value)


class TestRelayStack:
    def test_a_padded_stack_keeps_each_reach(self):
        rng = np.random.default_rng(980)
        ds = [_distance_matrix(Molecule.on_rn([(p, 1.0) for p in rng.uniform(-3, 3, size=(k, 2))], dim=2))
              for k in (3, 9, 1, 6)]
        stack = np.full((len(ds), 10, 10), np.inf)
        for s, d in zip(stack, ds):
            s[:len(d), :len(d)] = d
        for d, reach in zip(ds, freespace._chain_reach(stack)):
            alone = freespace._chain_reach(d)
            k = len(d)
            assert np.array_equal(np.triu(reach[:k, :k], 1), np.triu(alone, 1))
            brute = np.array([[min((d[i, r] + d[r, j] for r in range(k) if r not in (i, j)), default=np.inf)
                               for j in range(k)] for i in range(k)])
            assert np.array_equal(np.triu(alone, 1), np.triu(brute, 1))
