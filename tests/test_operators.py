import warnings

import numpy as np
import pytest

from lipfree import geometry, operators
from lipfree.geometry import (
    FiniteSupportPoint,
    Hypercube,
    embed_finite,
    l1_distance,
    lattice_coords,
    locate_cube,
)
from lipfree.interpolation import VertexData, interpolate_recursive, sample_axis_segments
from lipfree.operators import (
    MAX_CORNERS,
    GridLevel,
    LipFunction,
    cell_weights,
    commuting_check,
    convergence_check,
    convergence_checks,
    coordinate_function,
    l1_norm_function,
    lip_function,
    lip_projection,
    max_coordinate_function,
    mcshane_extension,
    project_values,
    random_lattice_function,
    tabulated_lip_function,
)
from lipfree.interpolation import TabulatedFunction


CHECK_FIELDS = ("value", "exact", "error", "bound", "clamped", "ok")


def sparse(pairs):
    return FiniteSupportPoint.from_pairs(pairs)


def grid_value(g, u, n):
    """Level-n grid interpolant of ``g`` at ``u``, in cells of ``u``'s dimension."""
    u = np.asarray(u, dtype=float)
    return project_values(g, [u], GridLevel(n, dim=u.size))[0]


def random_sparse(rng, spread=2.0, max_index=8):
    size = int(rng.integers(1, 4))
    idx = rng.choice(np.arange(1, max_index + 1), size=size, replace=False)
    return sparse((int(i), float(rng.uniform(-spread, spread))) for i in idx)


class TestGridInterpolant:
    def test_identity_reproduced_inside(self):
        assert grid_value(LipFunction(lambda u: float(u[0])), np.array([0.4]), 1) == 0.4

    def test_point_outside_is_clamped_to_node(self):
        assert grid_value(LipFunction(lambda u: float(u[0])), np.array([3.0]), 1) == 1.0

    def test_piecewise_linear_with_grid_breakpoint(self):
        assert grid_value(LipFunction(lambda u: abs(float(u[0]))), np.array([-0.5]), 1) == 0.5


class TestProjectionExamples:
    def test_sequence_mode_drops_tail_coordinates(self):
        f = coordinate_function(1)
        x = sparse([(1, 0.4), (2, 7.0), (3, -2.0)])
        assert project_values(f, [x], GridLevel(1))[0] == 0.4

    def test_origin_always_maps_to_zero(self):
        for f in (coordinate_function(2), l1_norm_function(), max_coordinate_function()):
            for n in (1, 3, 5):
                assert project_values(f, [FiniteSupportPoint.zero()], GridLevel(n))[0] == 0.0

    def test_grid_point_is_reproduced(self):
        f = LipFunction(lambda x: x.coord(1) + x.coord(2), declared_lip=1.0)
        x = sparse([(1, 0.25), (2, 0.25)])
        assert project_values(f, [x], GridLevel(2))[0] == 0.5

    def test_coordinate_mode_norm_example(self):
        value = project_values(l1_norm_function(), [(0.25, -0.25)], GridLevel(2, dim=2))[0]
        assert value == 0.5
        # brute force: the containing cell is [0, .5] x [-.5, 0]; its corner
        # norms are 0, .5, .5, 1 and the offsets are (.5, .5)
        blend = 0.25 * (0.0 + 0.5 + 0.5 + 1.0)
        assert value == blend

    def test_square_function_on_coarse_grid(self):
        f = LipFunction(lambda u: float(np.asarray(u)[0]) ** 2, declared_lip=2.0)
        assert project_values(f, [(0.5,)], GridLevel(1, dim=1))[0] == 0.5
        assert project_values(f, [(0.0,)], GridLevel(1, dim=1))[0] == 0.0

    def test_modes_agree_on_embedded_points(self):
        rng = np.random.default_rng(1)
        for dim in (1, 2, 3):
            f_coords = random_lattice_function(rng, dim=dim)
            f_seq = LipFunction(
                lambda x, dim=dim, f=f_coords: f(x.leading(dim)),
                declared_lip=f_coords.declared_lip,
            )
            for n in range(dim, 6):
                for _ in range(10):
                    u = rng.uniform(-3, 3, size=dim)
                    a = project_values(f_coords, [u], GridLevel(n, dim=dim))[0]
                    b = project_values(f_seq, [embed_finite(u)], GridLevel(n))[0]
                    assert a == pytest.approx(b, abs=1e-12)


class TestMaterializedProjection:
    def test_matches_pointwise_and_caches(self):
        rng = np.random.default_rng(2)
        f = random_lattice_function(rng)
        proj = lip_projection(f, GridLevel(2))
        xs = [random_sparse(rng) for _ in range(20)]
        many = proj.eval_many(xs)
        assert np.array_equal(many, [project_values(f, [x], GridLevel(2))[0] for x in xs])
        assert np.array_equal(proj.eval_many(xs), many)  # a repeated call reads no state
        assert vars(proj).keys() == {"base", "level", "evaluator", "declared_lip", "label"}
        assert proj.declared_lip == f.declared_lip

    def test_projection_of_projection(self):
        rng = np.random.default_rng(3)
        f = random_lattice_function(rng)
        inner = lip_projection(f, GridLevel(3))
        outer = lip_projection(inner, GridLevel(1))
        direct = lip_projection(f, GridLevel(1))
        xs = [random_sparse(rng) for _ in range(25)]
        assert np.allclose(outer.eval_many(xs), direct.eval_many(xs), atol=1e-12)


class TestCommuting:
    def test_same_level_is_projection(self):
        rng = np.random.default_rng(4)
        f = random_lattice_function(rng, dim=2)
        samples = list(rng.uniform(-3, 3, size=(50, 2)))
        report = commuting_check(f, 3, 3, samples, dim=2)
        assert report.passed

    def test_min_rule_both_orders(self):
        rng = np.random.default_rng(5)
        samples = list(rng.uniform(-4, 4, size=(100, 2)))
        f = l1_norm_function()
        r13 = commuting_check(f, 1, 3, samples, dim=2)
        r31 = commuting_check(f, 3, 1, samples, dim=2)
        assert r13.passed and r31.passed
        assert r13.max_dev <= 1e-10 and r31.max_dev <= 1e-10

    def test_sequence_mode(self):
        rng = np.random.default_rng(6)
        f = random_lattice_function(rng)
        samples = [random_sparse(rng) for _ in range(30)]
        for m, n in ((1, 2), (2, 1), (2, 2), (3, 2)):
            assert commuting_check(f, m, n, samples).passed


class TestFiniteRank:
    def test_perturbation_off_grid_is_invisible(self):
        rng = np.random.default_rng(7)
        for n in (1, 2, 3):
            f = random_lattice_function(rng)

            def off_grid_bump(x, n=n):
                s = 2.0 ** (1 - n)
                lead = x.leading(n)
                frac = np.abs(lead / s - np.round(lead / s)) * s
                return float(np.sum(frac) + x.tail(n))

            g = LipFunction(lambda x, f=f: f(x) + 0.9 * off_grid_bump(x))
            samples = [random_sparse(rng) for _ in range(20)]
            a = lip_projection(f, GridLevel(n)).eval_many(samples)
            b = lip_projection(g, GridLevel(n)).eval_many(samples)
            assert np.array_equal(a, b)


class TestConvergence:
    def test_identity_coordinate_case(self):
        chk = convergence_check(coordinate_function(1), sparse([(1, 0.3)]), 4)
        assert chk.error <= 1e-12
        assert chk.bound == 2.0 * (0.0 + 4 * 2.0**-3)
        assert chk.ok

    def test_truncated_coordinate_case(self):
        n = 3
        f = coordinate_function(n + 1)
        x = sparse([(n + 1, 1.0)])
        chk = convergence_check(f, x, n)
        assert chk.error == 1.0
        assert chk.bound >= 2.0
        assert chk.ok

    def test_bound_is_eventually_decreasing_to_zero(self):
        rng = np.random.default_rng(8)
        f = random_lattice_function(rng)
        x = random_sparse(rng)
        bounds = [convergence_check(f, x, n).bound for n in range(1, 16)]
        assert all(b2 <= b1 for b1, b2 in zip(bounds[8:], bounds[9:]))
        assert bounds[-1] < 1e-2

    def test_clamped_points_are_reported_not_asserted(self):
        f = coordinate_function(1)
        chk = convergence_check(f, sparse([(1, 5.0)]), 1)
        assert chk.clamped and chk.ok is None

    def test_declared_lip_required(self):
        with pytest.raises(ValueError):
            convergence_check(LipFunction(lambda x: 0.0), sparse([(1, 1.0)]), 2)


class TestBoundaryAffinity:
    def test_interpolant_is_axis_affine_on_outer_cells(self):
        # cells of finer tilings that poke beyond the level-1 big cube: the
        # clamp flattens them onto a face, where the interpolant stays affine
        rng = np.random.default_rng(9)
        g = random_lattice_function(rng, dim=2)
        worst = 0.0
        for m in (2, 3):
            s = 2.0 ** (1 - m)
            for k in range(3):
                low = np.array([1.0 + k * s, -0.5])
                cell = Hypercube(center=tuple(low + s / 2), edge=s)
                for a, b in sample_axis_segments(cell, 15, rng):
                    mid = 0.5 * (a + b)
                    va = grid_value(g, a, 1)
                    vb = grid_value(g, b, 1)
                    vm = grid_value(g, mid, 1)
                    worst = max(worst, abs(vm - 0.5 * (va + vb)))
        assert worst <= 1e-10


class TestFunctionFactories:
    def test_builtins_vanish_at_origin(self):
        zero_seq = FiniteSupportPoint.zero()
        for f in (coordinate_function(3), l1_norm_function(), max_coordinate_function()):
            assert f(zero_seq) == 0.0
            assert f(np.zeros(4)) == 0.0

    def test_lip_function_rejects_nonvanishing_evaluator(self):
        with pytest.raises(ValueError):
            lip_function(lambda x: 1.0, dim=2)

    def test_declared_bound_is_respected_on_samples(self):
        rng = np.random.default_rng(10)
        f = random_lattice_function(rng)
        for _ in range(300):
            x, y = random_sparse(rng), random_sparse(rng)
            d = l1_distance(x, y)
            if d > 0:
                assert abs(f(x) - f(y)) <= f.declared_lip * d * (1 + 1e-9)

    def test_tabulated_extension_interpolates_its_table(self):
        table = TabulatedFunction(
            points=((0.0, 0.0), (1.0, 0.0), (0.0, 2.0)), values=(0.0, 1.5, -1.0)
        )
        f = tabulated_lip_function(table)
        for p, v in zip(table.points, table.values):
            assert f(np.asarray(p)) == pytest.approx(v, abs=1e-12)

    def test_level_caps(self):
        with pytest.raises(ValueError):
            GridLevel(0)
        with pytest.raises(ValueError):
            GridLevel(21)
        with pytest.raises(ValueError):
            GridLevel(3, dim=17)


class _RecordingFunction(LipFunction):
    """The l1 norm, remembering every batch passed to ``eval_many``."""

    def __init__(self):
        super().__init__(l1_norm_function().evaluator, declared_lip=1.0)
        self.batches = []

    def eval_many(self, points):
        self.batches.append(list(points))
        return super().eval_many(points)


class TestSparseCorners:
    @pytest.mark.parametrize("s", [0, 1, 2, 3, 5])
    def test_sequence_mode_evaluates_only_weighted_corners(self, s):
        # s nonzero leading coordinates in general position, plus a tail
        rng = np.random.default_rng(40 + s)
        idx = rng.choice(np.arange(1, 9), size=s, replace=False)
        x = sparse([(int(i), float(rng.uniform(-3, 3))) for i in idx] + [(11, 0.7)])
        f = _RecordingFunction()
        project_values(f, [x], GridLevel(8))
        assert [len(b) for b in f.batches] == [2**s]
        assert len(set(f.batches[0])) == 2**s

    def test_triplets_are_weighted_corners_of_the_cell(self):
        rng = np.random.default_rng(41)
        level = GridLevel(3, dim=3)
        us = rng.uniform(-3.9, 3.9, size=(40, 3))
        us[::4, 1] = 0.25  # on a grid hyperplane: that axis adds no branch
        us[1::4, 2] = 7.0  # clamped onto the cube's face: no branch either
        rows, keys, weights = cell_weights(list(us), level)
        assert keys.dtype == np.int64
        assert np.all(np.diff(rows) >= 0) and np.all(weights != 0.0)
        assert np.allclose(np.bincount(rows, weights=weights), 1.0, atol=1e-15)
        assert np.bincount(rows).tolist() == [4, 4, 8, 8] * 10
        corners = lattice_coords(keys, level.n)
        clamped = np.clip(us, -4.0, 4.0)[rows]
        assert np.all(np.abs(corners - clamped) <= 2.0 ** (1 - level.n))
        assert np.array_equal(corners / 2.0 ** (1 - level.n), np.round(corners / 2.0 ** (1 - level.n)))

    def test_corner_count_is_capped_before_expansion(self):
        x = np.full(16, 0.3)  # every axis free at level 1
        rows, _, _ = cell_weights([x, -x], GridLevel(1, 16))
        assert len(rows) == MAX_CORNERS == 2 * 2**16
        with pytest.raises(ValueError, match=f"reach {3 * 2**16} weighted cell corners"):
            cell_weights([x, -x, x], GridLevel(1, 16))

    @pytest.mark.parametrize("dim", [None, 3])
    def test_a_batch_past_the_cap_is_projected_in_blocks(self, dim, monkeypatch):
        rng = np.random.default_rng(44)
        level = GridLevel(3, dim)  # three cell axes: one point reaches at most 8 corners
        if dim is None:
            xs = [random_sparse(rng, spread=3.0, max_index=4) for _ in range(9)]
        else:
            xs = list(rng.uniform(-3.9, 3.9, size=(9, dim)))
        whole, blocked = _RecordingFunction(), _RecordingFunction()
        expect = project_values(whole, xs, level)
        monkeypatch.setattr(operators, "MAX_CORNERS", 8)
        assert project_values(blocked, xs, level).tolist() == expect.tolist()
        assert len(whole.batches) == 1 and len(blocked.batches) > 1
        assert all(len(batch) <= 8 for batch in blocked.batches)
        monkeypatch.setattr(operators, "MAX_CORNERS", 4)
        one = FiniteSupportPoint.from_dense([0.3] * 3) if dim is None else np.full(3, 0.3)
        with pytest.raises(ValueError, match="reach 8 weighted cell corners"):
            project_values(blocked, [one], level)

    @pytest.mark.parametrize("dim", [None, 3])
    def test_a_batch_past_the_total_cap_is_refused_before_any_evaluation(self, dim, monkeypatch):
        level = GridLevel(3, dim)
        one = FiniteSupportPoint.from_dense([0.3] * 3) if dim is None else np.full(3, 0.3)  # 8 corners
        monkeypatch.setattr(operators, "MAX_CORNERS", 8)
        monkeypatch.setattr(operators, "MAX_BATCH_CORNERS", 16)
        f = _RecordingFunction()
        assert project_values(f, [one, one], level).tolist() == project_values(f, [one], level).tolist() * 2
        assert len(f.batches) == 3  # at the cap: one part per point
        with pytest.raises(ValueError, match="reach 24 weighted cell corners at level 3, more than the 16 one batch"):
            project_values(f, [one] * 3, level)
        assert len(f.batches) == 3

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_coordinate_is_refused_naming_the_point(self, bad):
        # clamped, an infinite coordinate would land on the cube's face
        points = [np.array([0.1, 0.3]), np.array([bad, 0.3])]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"point 1 \[-?(nan|inf), 0\.3\] has a non-finite"):
                project_values(l1_norm_function(), points, GridLevel(2, dim=2))

    def test_table_is_keyed_by_lattice_indices(self):
        f = _RecordingFunction()
        project_values(f, [np.array([0.3, -0.5])], GridLevel(2, dim=2))
        assert [len(b) for b in f.batches] == [2]  # -0.5 is on the grid: one free axis
        assert [np.asarray(c).tolist() for c in f.batches[0]] == [[0.0, -0.5], [0.5, -0.5]]


class TestRecursiveOracle:
    """project_values against the staged blend on the located cube."""

    @staticmethod
    def oracle(f, x, n, dim):
        half = 2.0 ** (n - 1)
        u = np.clip(x.leading(n) if dim is None else np.asarray(x, dtype=float), -half, half)
        corner = (lambda v: f(embed_finite(v))) if dim is None else f
        data = VertexData.from_function(locate_cube(u, n).cube(), corner)
        return interpolate_recursive(data, u)

    @staticmethod
    def points(rng, n, dim, dyadic):
        half = 2.0 ** (n - 1)
        draw = (lambda k: rng.integers(-(2 ** (2 * n)), 2 ** (2 * n) + 1, size=k) * 2.0 ** -(n + 1)
                if dyadic else rng.uniform(-1.2 * half, 1.2 * half, size=k))
        if dim is not None:
            return [draw(dim) for _ in range(6)]
        out = []
        for _ in range(6):
            idx = rng.choice(np.arange(1, n + 3), size=min(3, n + 2), replace=False)
            out.append(sparse(zip(map(int, idx), draw(len(idx)).tolist())))
        return out

    @pytest.mark.parametrize("n", range(1, 9))
    @pytest.mark.parametrize("dim", [None, 2, 3])
    def test_exact_on_dyadic_points(self, n, dim):
        # dyadic points and dyadic corner values: every sum is exact
        rng = np.random.default_rng(50 + n)
        level = GridLevel(n, dim)
        for f in (l1_norm_function(), max_coordinate_function()):
            xs = self.points(rng, n, dim, dyadic=True)
            got = project_values(f, xs, level)
            assert got.tolist() == [self.oracle(f, x, n, dim) for x in xs]

    @pytest.mark.parametrize("n", range(1, 9))
    @pytest.mark.parametrize("dim", [None, 2, 3])
    def test_close_on_random_points(self, n, dim):
        rng = np.random.default_rng(60 + n)
        f = random_lattice_function(rng, dim=dim)
        xs = self.points(rng, n, dim, dyadic=False)
        got = project_values(f, xs, GridLevel(n, dim))
        for value, x in zip(got, xs):
            expect = self.oracle(f, x, n, dim)
            assert abs(value - expect) <= 1e-12 * max(1.0, abs(expect))


def scalar_mcshane(points, values, lip):
    """The oracle: the McShane minimum with one ``l1_distance`` call per anchor."""

    def ev(x):
        return min(v + lip * l1_distance(p, x) for p, v in zip(points, values))

    return ev


class TestBatchedMcShane:
    """The batched McShane evaluator against the scalar loop, bit for bit."""

    @staticmethod
    def table_and_queries(rng, dim):
        f = random_lattice_function(rng, dim=dim, anchors=int(rng.integers(1, 12)))
        level = GridLevel(int(rng.integers(1, 7)), dim)
        if dim is None:
            xs = [random_sparse(rng, spread=4.0, max_index=10) for _ in range(20)]
            xs.append(sparse([(40, 0.5), (10**6, -1.25)]))  # outside every anchor's support
        else:
            xs = list(rng.uniform(-5.0, 5.0, size=(20, dim)))
        _, keys, _ = cell_weights(xs[:1], level)
        corners = lattice_coords(np.unique(keys, axis=0)[:64], level.n)
        xs += [embed_finite(c) for c in corners] if dim is None else list(corners)
        return f, xs

    @pytest.mark.parametrize("dim", [None, 1, 2, 6, 8, 13, 16])
    @pytest.mark.parametrize("seed", range(4))
    def test_matches_scalar_loop(self, dim, seed):
        rng = np.random.default_rng(400 + seed)
        f, xs = self.table_and_queries(rng, dim)
        ev = f.evaluator
        oracle = scalar_mcshane(ev.points, ev.values.tolist(), ev.lip)
        expect = [oracle(x) for x in xs]
        assert f.eval_many(xs).tolist() == expect
        assert [f(x) for x in xs[:5]] == expect[:5]

    def test_tiny_blocks_change_nothing(self, monkeypatch):
        rng = np.random.default_rng(420)
        cases = [self.table_and_queries(rng, dim) for dim in (None, 3)]
        expect = [f.eval_many(xs) for f, xs in cases]
        monkeypatch.setattr(geometry, "_L1_BLOCK_ELEMENTS", 1)
        for (f, xs), values in zip(cases, expect):
            assert np.array_equal(f.eval_many(xs), values)
        pts = [sparse([(1, 0.75), (3, -0.5)]), sparse([(2, 1.25)]), sparse([(1, -3.0), (9, 0.5)])]
        checks = convergence_checks(cases[0][0], pts, 3)
        monkeypatch.setattr(geometry, "_L1_BLOCK_ELEMENTS", 1 << 16)
        again = convergence_checks(cases[0][0], pts, 3)
        assert all(np.array_equal(getattr(checks, k), getattr(again, k)) for k in CHECK_FIELDS)

    def test_needs_a_data_point(self):
        with pytest.raises(ValueError, match="at least one"):
            mcshane_extension([], [], 1.0)


class TestConvergenceChecks:
    @pytest.mark.parametrize("dim", [None, 2, 6])
    def test_batch_equals_repeated_single_checks(self, dim):
        rng = np.random.default_rng(430)
        f = random_lattice_function(rng, dim=dim)
        if dim is None:
            xs = [random_sparse(rng, spread=6.0, max_index=12) for _ in range(15)]
        else:
            xs = list(rng.uniform(-10.0, 10.0, size=(15, dim)))  # some clamped
        for n in (1, 3, 5):
            batch = convergence_checks(f, xs, n, dim=dim)
            single = [convergence_check(f, x, n, dim=dim) for x in xs]
            for field in CHECK_FIELDS[:-1]:
                assert np.array_equal(getattr(batch, field), [getattr(c, field) for c in single]), field
            assert [None if c else ok for c, ok in zip(batch.clamped, batch.ok)] == [c.ok for c in single]
            assert np.all(batch.ok | batch.clamped)

    @pytest.mark.parametrize("dim", [None, 3])
    def test_stacks_its_batch_once(self, dim, monkeypatch):
        rng = np.random.default_rng(435)
        f = random_lattice_function(rng, dim=dim)
        if dim is None:
            xs = [random_sparse(rng, spread=6.0, max_index=12) for _ in range(12)]
        else:
            xs = list(rng.uniform(-6.0, 6.0, size=(12, dim)))
        stacked, laid_out = [], []
        stack, lay_out = operators._stack_points, geometry.SparseBatch.of

        def spy(pts, level):
            stacked.append(stack(pts, level))
            return stacked[-1]

        def spy_layout(cls, pts):
            laid_out.extend([] if isinstance(pts, (cls, np.ndarray)) else pts)
            return lay_out(pts)

        monkeypatch.setattr(operators, "_stack_points", spy)
        monkeypatch.setattr(geometry.SparseBatch, "of", classmethod(spy_layout))
        convergence_checks(f, xs, 4, dim=dim)
        # rows already stacked come back as the same array, so one stacking gives one array
        assert stacked and all(rows is stacked[0] for rows in stacked)
        # and in sequence mode each point is laid out once, coordinate mode has no layout
        assert sorted(map(id, laid_out)) == (sorted(map(id, xs)) if dim is None else [])

    def test_empty_batch_and_mode_errors(self):
        f = l1_norm_function()
        empty = convergence_checks(f, [], 3)
        assert [getattr(empty, k).shape for k in CHECK_FIELDS] == [(0,)] * len(CHECK_FIELDS)
        with pytest.raises(TypeError):
            convergence_checks(f, [sparse([(1, 0.5)]), np.array([0.5])], 3)
        with pytest.raises(TypeError):
            convergence_checks(f, [sparse([(1, 0.5)])], 3, dim=1)
