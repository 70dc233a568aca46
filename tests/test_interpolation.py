import re

import numpy as np
import pytest

from lipfree.geometry import FiniteSupportPoint, Hypercube, l1_distance, sign_vectors
from lipfree.interpolation import (
    TabulatedFunction,
    VertexData,
    check_axis_affinity,
    interpolate,
    interpolate_batch,
    interpolate_recursive,
    interpolation_weights,
    lip_constant,
    sample_axis_segments,
)

from cube_helpers import vertex_data, vertex_restriction


def dyadic_cube(rng, dim):
    center = tuple(float(v) * 2.0**-8 for v in rng.integers(-768, 769, size=dim))
    return Hypercube(center=center, edge=float(rng.integers(128, 1025)) * 2.0**-8)


def bilinear_bump():
    cube = Hypercube(center=(0, 0), edge=2)
    return vertex_data(cube, {(-1, -1): 0, (-1, 1): 0, (1, -1): 0, (1, 1): 1})


class TestInterpolate:
    def test_one_dim_affine(self):
        data = vertex_data(Hypercube(center=(0,), edge=2), {(-1,): 0, (1,): 4})
        assert interpolate(data, [0.5]) == 3.0  # barycentric offset 0.75

    def test_bilinear_center(self):
        data = bilinear_bump()
        assert interpolate(data, (0, 0)) == 0.25
        # hand expansion: w(1,1) = t1*t2 = 0.25, all others hit value 0
        w = interpolation_weights(data.cube, (0, 0))
        assert np.allclose(w, 0.25)
        # brute-force weight summation agrees with the recursion
        assert interpolate_recursive(data, (0, 0)) == 0.25

    def test_corners_reproduced_exactly(self):
        rng = np.random.default_rng(2)
        for _ in range(30):
            dim = int(rng.integers(1, 5))
            data = VertexData(cube=dyadic_cube(rng, dim), values=tuple(rng.normal(size=2**dim)))
            for pos, delta in enumerate(sign_vectors(dim)):
                assert interpolate(data, data.cube.vertex(delta)) == data.values[pos]

    def test_outside_cube_raises(self):
        data = bilinear_bump()
        with pytest.raises(ValueError):
            interpolate(data, (1.5, 0))

    def test_nan_point_lies_outside(self):
        data = bilinear_bump()
        with pytest.raises(ValueError, match=re.escape(f"point 0 [nan, 0.0] lies outside cube {data.cube}")):
            interpolate(data, [np.nan, 0.0])
        with pytest.raises(ValueError, match="point 0 "):
            interpolation_weights(data.cube, [0.0, np.nan])

    def test_point_of_the_wrong_dimension_is_refused(self):
        data = bilinear_bump()  # a point of dimension 1 or 3 used to be broadcast
        with pytest.raises(ValueError, match=re.escape("expected points of dimension 2, got shape (1, 1)")):
            interpolate(data, [0.5])
        with pytest.raises(ValueError, match=re.escape("expected points of dimension 2, got shape (2, 3)")):
            interpolate_batch(data, np.zeros((2, 3)))

    def test_batch_error_names_the_first_point_outside(self):
        data = bilinear_bump()
        xs = [[0.0, 0.0], [1.0, -1.0], [1.5, 0.0], [np.nan, 0.0]]
        with pytest.raises(ValueError, match=re.escape(f"point 2 [1.5, 0.0] lies outside cube {data.cube}")):
            interpolate_batch(data, xs)


class TestWeights:
    def test_center_weights_are_uniform(self):
        for dim in (1, 2, 3, 4):
            cube = Hypercube(center=tuple(np.zeros(dim)), edge=2)
            w = interpolation_weights(cube, np.zeros(dim))
            assert np.all(w == 2.0**-dim)

    def test_vertex_weights_are_one_hot(self):
        cube = Hypercube(center=(0.5, -0.5), edge=1)
        for pos, delta in enumerate(sign_vectors(2)):
            w = interpolation_weights(cube, cube.vertex(delta))
            expected = np.zeros(4)
            expected[pos] = 1.0
            assert np.array_equal(w, expected)

    def test_simplex_property(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            dim = int(rng.integers(1, 4))
            cube = dyadic_cube(rng, dim)
            x = np.array(cube.center) + rng.uniform(-0.5, 0.5, size=dim) * cube.edge
            w = interpolation_weights(cube, x)
            assert np.min(w) >= 0.0
            assert abs(float(np.sum(w)) - 1.0) <= 1e-12

    def test_matches_recursion_oracle(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            dim = int(rng.integers(1, 4))
            cube = dyadic_cube(rng, dim)
            values = tuple(rng.normal(size=2**dim))
            data = VertexData(cube=cube, values=values)
            x = np.array(cube.center) + rng.uniform(-0.5, 0.5, size=dim) * cube.edge
            direct = float(interpolation_weights(cube, x) @ np.asarray(values))
            assert direct == pytest.approx(interpolate_recursive(data, x), abs=1e-12)
            assert direct == pytest.approx(interpolate(data, x), abs=1e-12)


class TestLinearity:
    def test_random_combinations(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            dim = int(rng.integers(1, 4))
            cube = dyadic_cube(rng, dim)
            va, vb = rng.normal(size=(2, 2**dim))
            alpha, beta = rng.normal(size=2)
            combined = VertexData(cube=cube, values=tuple(alpha * va + beta * vb))
            x = np.array(cube.center) + rng.uniform(-0.5, 0.5, size=dim) * cube.edge
            lhs = interpolate(combined, x)
            rhs = alpha * interpolate(VertexData(cube=cube, values=tuple(va)), x)
            rhs += beta * interpolate(VertexData(cube=cube, values=tuple(vb)), x)
            assert lhs == pytest.approx(rhs, abs=1e-12)


class TestLipConstant:
    def test_line_example(self):
        f = TabulatedFunction(points=((0.0,), (1.0,), (2.0,)), values=(0.0, 1.0, 1.0))
        assert lip_constant(f) == 1.0

    def test_norm_restriction_has_constant_one(self):
        rng = np.random.default_rng(6)
        pts = [tuple(v) for v in rng.uniform(-3, 3, size=(6, 2))]
        pts.append((0.0, 0.0))
        vals = [float(np.abs(p).sum()) for p in pts]
        order = sorted(range(len(pts)), key=lambda i: pts[i])
        f = TabulatedFunction(
            points=tuple(pts[i] for i in order),
            values=tuple(vals[i] for i in order),
            origin=order.index(len(pts) - 1),
        )
        # the (p, origin) pair attains 1 exactly; other pairs may exceed it
        # by an ulp of the distance quotient
        assert lip_constant(f) == pytest.approx(1.0, abs=1e-12)

    def test_bump_vertex_data(self):
        # six corner pairs; the closest value-separating pairs sit at l1
        # distance 2, giving 1/2
        data = bilinear_bump()
        assert data.corner_lip() == 0.5
        assert lip_constant(vertex_restriction(data)) == 0.5

    def test_corner_lip_matches_the_pair_loop(self):
        # the loop corner_lip replaced: every corner pair, at distance
        # (number of differing signs) * edge
        rng = np.random.default_rng(11)
        for dim in (1, 2, 3, 4, 5):
            data = VertexData(cube=dyadic_cube(rng, dim), values=tuple(rng.normal(size=2**dim)))
            signs, vals, best = sign_vectors(dim), data.values, 0.0
            for i in range(len(signs)):
                for j in range(i + 1, len(signs)):
                    ham = sum(1 for a, b in zip(signs[i], signs[j]) if a != b)
                    best = max(best, abs(vals[i] - vals[j]) / (ham * data.cube.edge))
            assert data.corner_lip() == best

    def test_duplicate_points_rejected(self):
        f = TabulatedFunction(points=(0, 1), values=(0.0, 1.0))
        with pytest.raises(ValueError):
            lip_constant(f, dist=np.zeros((2, 2)))

    def test_matrix_metric(self):
        dist = np.array([[0.0, 2.0], [2.0, 0.0]])
        f = TabulatedFunction(points=(0, 1), values=(0.0, 3.0))
        assert lip_constant(f, dist=dist) == 1.5

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_values_rejected(self, bad):
        with pytest.raises(ValueError, match="value .* at point 1 is not finite"):
            TabulatedFunction(points=((0.0,), (1.0,), (2.0,)), values=(0.0, bad, 1.0))


def looped_lip_constant(f, metric):
    """The oracle: one distance quotient per pair, in pair order."""
    best = 0.0
    for i in range(len(f.points)):
        for j in range(i + 1, len(f.points)):
            d = metric(f.points[i], f.points[j])
            if d <= 0.0:
                raise ValueError(f"distinct points {f.points[i]!r}, {f.points[j]!r} at distance {d}")
            best = max(best, abs(f.values[i] - f.values[j]) / d)
    return best


class TestLipConstantOracle:
    """The vectorised constant equals the pair loop bit for bit."""

    @pytest.mark.parametrize("seed", range(6))
    def test_coordinate_sparse_and_matrix_tables(self, seed):
        rng = np.random.default_rng(500 + seed)
        k = int(rng.integers(2, 30))
        coords = [tuple(v) for v in rng.uniform(-3, 3, size=(k, int(rng.integers(1, 17))))]
        sparse = [FiniteSupportPoint.from_pairs((int(i), float(rng.normal())) for i in
                                                rng.choice(40, size=3, replace=False) + 1) for _ in range(k)]
        vals = (0.0,) + tuple(float(v) for v in rng.normal(size=k - 1) * 10.0 ** rng.integers(-3, 4))
        for pts in (coords, sparse):
            f = TabulatedFunction(points=tuple(pts), values=vals, origin=0)
            assert lip_constant(f) == looped_lip_constant(f, l1_distance)
        dist = np.abs(rng.normal(size=(k + 5, k + 5))) + 1.0
        labels = tuple(sorted(int(v) for v in rng.choice(k + 5, size=k, replace=False)))
        f = TabulatedFunction(points=labels, values=vals, origin=0)
        assert lip_constant(f, dist) == looped_lip_constant(f, lambda a, b: float(dist[a, b]))

    def test_first_zero_pair_is_named(self):
        dist = np.ones((4, 4))
        dist[1, 3] = dist[0, 2] = 0.0
        f = TabulatedFunction(points=(0, 1, 2, 3), values=(0.0, 1.0, 2.0, 3.0))
        with pytest.raises(ValueError, match="distinct points 0, 2 at distance 0.0"):
            lip_constant(f, dist)
        with pytest.raises(ValueError, match="distinct points 0, 2 at distance 0.0"):
            looped_lip_constant(f, lambda a, b: float(dist[a, b]))

    def test_first_overflowing_quotient_is_named(self):
        dist = np.ones((4, 4))
        dist[1, 3] = dist[1, 2] = 1e-300
        f = TabulatedFunction(points=(0, 1, 2, 3), values=(0.0, 1e10, 2.0, 3.0))
        with pytest.raises(ValueError, match=r"points 1, 2 \(values 10000000000.0, 2.0 at distance 1e-300\) is not finite"):
            lip_constant(f, dist)
        coords = TabulatedFunction(points=((0.0,), (1e-300,), (1.0,)), values=(0.0, -1e10, 1.0))
        with pytest.raises(ValueError, match=r"points \(0.0,\), \(1e-300,\) .* is not finite"):
            lip_constant(coords)


class TestAffinity:
    def test_affine_data_has_zero_deviation(self):
        cube = Hypercube(center=(0, 0), edge=2)
        data = VertexData.from_function(cube, lambda v: 2 * v[0] - 3 * v[1] + 1)
        rng = np.random.default_rng(7)
        report = check_axis_affinity(data, sample_axis_segments(cube, 50, rng))
        assert report.passed and report.worst <= 1e-12

    def test_bilinear_data_is_axis_affine(self):
        data = bilinear_bump()
        rng = np.random.default_rng(8)
        report = check_axis_affinity(data, sample_axis_segments(data.cube, 100, rng))
        assert report.passed

    def test_batched_scan_matches_the_segment_loop(self):
        # the scan as it was, one interpolate call per endpoint and midpoint
        rng = np.random.default_rng(10)
        for dim in (1, 2, 3, 4):
            data = VertexData(cube=dyadic_cube(rng, dim), values=tuple(rng.normal(size=2**dim)))
            segments = sample_axis_segments(data.cube, 20, rng)
            segments += [tuple(np.asarray(data.cube.center) + rng.uniform(-0.5, 0.5, size=(2, dim))
                               * data.cube.edge)]  # an oblique one
            worst = max(abs(interpolate(data, 0.5 * (a + b)) - 0.5 * (interpolate(data, a) + interpolate(data, b)))
                        for a, b in segments)
            assert check_axis_affinity(data, segments).worst == worst
        assert check_axis_affinity(data, []).worst == 0.0

    def test_diagonal_control_fails(self):
        # along the main diagonal the bump restricts to ((s+1)/2)**2, which is
        # not affine; the full diagonal shows midpoint deviation 0.25
        data = bilinear_bump()
        report = check_axis_affinity(data, [(np.array([-1.0, -1.0]), np.array([1.0, 1.0]))])
        assert not report.passed
        assert report.worst == pytest.approx(0.25)


class TestValidation:
    def test_tabulated_function_invariants(self):
        with pytest.raises(ValueError):
            TabulatedFunction(points=((0.0,), (1.0,)), values=(0.5, 1.0))
        with pytest.raises(ValueError):
            TabulatedFunction(points=((0.0,), (0.0,)), values=(0.0, 1.0))

    def test_vertex_data_needs_all_corners(self):
        cube = Hypercube(center=(0, 0), edge=2)
        with pytest.raises(ValueError):
            vertex_data(cube, {(1, 1): 1.0})
        with pytest.raises(ValueError):
            VertexData(cube=cube, values=(0.0, 1.0, float("nan"), 2.0))

    def test_recursive_oracle_refuses_a_point_of_another_dimension(self):
        with pytest.raises(ValueError, match="dimension 1 .* dimension 2"):
            interpolate_recursive(bilinear_bump(), [0.5])

    def test_batch_matches_scalar(self):
        data = bilinear_bump()
        rng = np.random.default_rng(9)
        xs = rng.uniform(-1, 1, size=(20, 2))
        batch = interpolate_batch(data, xs)
        assert np.array_equal(batch, [interpolate(data, x) for x in xs])


class TestLipConstantPreservation:
    """Interpolation never inflates the corner Lipschitz constant (l1)."""

    @pytest.mark.parametrize("dim", [1, 2, 3, 4])
    def test_random_datasets(self, dim):
        rng = np.random.default_rng(40 + dim)
        for _ in range(10):
            cube = dyadic_cube(rng, dim)
            data = VertexData(cube=cube, values=tuple(rng.normal(size=2**dim)))
            corner = data.corner_lip()
            xs = np.array(cube.center) + rng.uniform(-0.5, 0.5, size=(2000, dim)) * cube.edge
            ys = np.array(cube.center) + rng.uniform(-0.5, 0.5, size=(2000, dim)) * cube.edge
            fx, fy = interpolate_batch(data, xs), interpolate_batch(data, ys)
            dist = np.abs(xs - ys).sum(axis=1)
            assert np.all(np.abs(fx - fy) <= corner * dist * (1 + 1e-9) + 1e-15)
