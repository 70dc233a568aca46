import warnings

import numpy as np
import pytest

from lipfree import geometry
from lipfree.geometry import (
    FiniteSupportPoint,
    GridCell,
    Hypercube,
    SparseBatch,
    cell_low_corners,
    embed_finite,
    l1_distance,
    l1_distances,
    lattice_coords,
    locate_cube,
    sign_vectors,
)
from lipfree.interpolation import interpolate_recursive
from lipfree.operators import GridLevel, cell_weights

from corner_oracles import norm1
from cube_helpers import cube_contains, vertex_data


def all_cells(level, dim):
    """Every cell of the level-n tiling, by explicit enumeration of the
    paper's ``(eps, h)`` addresses: the cell has edge ``2**(-k)``, ``k = n - 1``,
    and centre ``2**(-k-1) eps + 2**(-k) (eps_i h_i)_i``."""
    k = level - 1
    out = []
    for eps in sign_vectors(dim):
        for h in np.ndindex(*([1 << (2 * level - 2)] * dim)):
            center = 2.0 ** (-k - 1) * np.array(eps) + 2.0 ** (-k) * np.array(eps) * np.array(h)
            out.append(Hypercube(center=tuple(center), edge=2.0 ** (-k)))
    return out


def vertex(cube, delta):
    """The row of ``cube.vertices()`` for the sign vector ``delta``."""
    return tuple(cube.vertices()[sign_vectors(cube.dim).index(delta)])


class TestVertex:
    def test_unit_cases(self):
        assert vertex(Hypercube(center=(0, 0), edge=2), (1, -1)) == (1.0, -1.0)
        assert vertex(Hypercube(center=(0.5,), edge=1), (-1,)) == (0.0,)

    def test_rows_follow_the_sign_vectors(self):
        # the order VertexData and the recursive oracle read corner values in
        cube = Hypercube(center=(0.5, -1.0, 2.0), edge=0.5)
        assert cube.vertices().tolist() == [list(np.array(cube.center) + 0.25 * np.array(delta))
                                            for delta in sign_vectors(3)]

    def test_three_dim_cross_checked_by_enumeration(self):
        cube = Hypercube(center=(1, 1, 1), edge=4)
        assert vertex(cube, (1, 1, -1)) == (3.0, 3.0, -1.0)
        verts = cube.vertices()
        assert verts.shape == (8, 3)
        assert len({tuple(v) for v in verts}) == 8
        sup = np.max(np.abs(verts - np.array(cube.center)), axis=1)
        assert np.all(sup == 2.0)

    @pytest.mark.parametrize("x", [[0.5], [0.5, 0.5, 0.5], 0.5])
    def test_point_of_another_dimension_is_refused(self, x):
        cube = Hypercube(center=(0, 0), edge=2)
        for method in (lambda x: cube_contains(cube, x), cube.barycentric):
            with pytest.raises(ValueError, match=f"dimension {np.ndim(x) and len(x)} .* dimension 2"):
                method(x)

    def test_invariants(self):
        with pytest.raises(ValueError):
            Hypercube(center=(0,), edge=0.0)
        with pytest.raises(ValueError):
            Hypercube(center=(), edge=1.0)


class TestGridPoint:
    def test_unit_cases(self):
        # (eps, h, k) = ((1,), (0,), 0): the level-1 cell with low-corner key 1
        assert GridCell(key=(1,), level=1).cube().center == (0.5,)
        # (eps, h, k) = ((-1,), (1,), 1): 2**-2 * (-1) + 2**-1 * (-1 * 1) = -0.75;
        # its low corner -1.0 is key 2 at level 2
        assert GridCell(key=(2,), level=2).cube() == Hypercube(center=(-0.75,), edge=0.5)
        # (eps, h, k) = ((1, -1), (0, 0), 0)
        assert GridCell(key=(1, 0), level=1).cube().center == (0.5, -0.5)

    def test_lattice_coords_are_exact(self):
        keys = np.array([[0, 1], [7, 8]])
        assert lattice_coords(keys, 2).tolist() == [[-2.0, -1.5], [1.5, 2.0]]
        top = 1 << (2 * geometry.MAX_LEVEL - 1)
        assert lattice_coords([0, top - 1, top], geometry.MAX_LEVEL).tolist() == [
            -(2.0 ** 19), 2.0 ** 19 - 2.0 ** -19, 2.0 ** 19]


class TestClamp:
    """Points beyond the big cube are clamped onto it coordinatewise."""

    def test_cube_cases(self):
        # [3, 0.2] clamps to [1, 0.2] on the level-1 cube [-1, 1]**2: the top
        # cell on axis 1, at its far face
        rows, keys, w = cell_weights([[3.0, 0.2], [1.0, 0.2]], GridLevel(1, dim=2))
        assert rows.tolist() == [0, 0, 1, 1]
        assert keys.tolist() == [[2, 1], [2, 2]] * 2 and w.tolist() == [0.8, 0.2] * 2
        assert cell_low_corners([[0.0], [-5.0], [5.0]], 1).tolist() == [[1], [0], [1]]

    def test_weights_beyond_the_cube_are_those_of_the_clamp(self):
        rng = np.random.default_rng(11)
        xs = rng.uniform(-6, 6, size=(10_000, 3))
        for n in (1, 2, 3):
            level, half = GridLevel(n, dim=3), 2.0 ** (n - 1)
            for got, clamped in zip(cell_weights(xs, level), cell_weights(np.clip(xs, -half, half), level)):
                assert np.array_equal(got, clamped)


class TestSparsePoints:
    def test_leading_and_zero(self):
        x = FiniteSupportPoint.from_dense([1, 2, 3])
        assert tuple(x.leading(2)) == (1.0, 2.0)
        assert tuple(FiniteSupportPoint.zero().leading(4)) == (0.0,) * 4

    def test_leading_is_one_lipschitz_sampled(self):
        rng = np.random.default_rng(5)
        for _ in range(300):
            a = FiniteSupportPoint.from_pairs(
                (int(i), float(rng.normal())) for i in rng.choice(9, size=3, replace=False) + 1
            )
            b = FiniteSupportPoint.from_pairs(
                (int(i), float(rng.normal())) for i in rng.choice(9, size=3, replace=False) + 1
            )
            n = int(rng.integers(1, 6))
            lhs = float(np.abs(a.leading(n) - b.leading(n)).sum())
            assert lhs <= l1_distance(a, b) + 1e-15

    def test_embed_is_isometric_section(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            v = rng.normal(size=4)
            x = embed_finite(v)
            assert norm1(x) == pytest.approx(float(np.abs(v).sum()), abs=1e-15)
            assert tuple(x.leading(4)) == tuple(v)
        assert embed_finite([1, -2]).items == ((1, 1.0), (2, -2.0))

    def test_embed_of_leading_fixes_supported_points(self):
        x = FiniteSupportPoint.from_pairs([(1, 0.5), (3, -1.25)])
        assert embed_finite(x.leading(3)) == x
        assert embed_finite(x.leading(5)) == x

    def test_tail_and_validation(self):
        x = FiniteSupportPoint.from_pairs([(1, 1.0), (4, -2.0), (9, 0.5)])
        assert x.tail(3) == 2.5
        assert x.tail(9) == 0.0
        with pytest.raises(ValueError):
            FiniteSupportPoint(items=((0, 1.0),))
        with pytest.raises(ValueError):
            FiniteSupportPoint(items=((1, 1.0), (1, 2.0)))
        with pytest.raises(ValueError):
            FiniteSupportPoint(items=((2, 1.0), (1, 1.0)))
        with pytest.raises(ValueError):
            FiniteSupportPoint(items=((1, 0.0),))
        assert FiniteSupportPoint.from_pairs([(2, 0.0)]).is_zero

    def test_json_round_trip(self):
        x = FiniteSupportPoint.from_pairs([(2, -0.75), (5, 1.5)])
        assert FiniteSupportPoint.from_json(x.to_json()) == x


class TestSparseBatch:
    """The one array layout of a batch of finitely supported points."""

    SP = FiniteSupportPoint.from_pairs
    POINTS = [FiniteSupportPoint.zero(), SP([(2, -0.75)]), SP([(i, 0.5 * i - 3.0) for i in range(1, 9)]),
              FiniteSupportPoint.zero(), SP([(3, 1e-300), (10**30, -2.5)]), SP([(1, 1e100), (6, -0.125)])]

    def test_round_trip_from_points(self):
        batch = SparseBatch.of(self.POINTS)
        assert len(batch) == 6 and list(batch) == self.POINTS
        assert [batch[i] for i in range(-6, 6)] == self.POINTS * 2
        assert list(batch[1:5]) == self.POINTS[1:5] and list(batch[::2]) == self.POINTS[::2]
        assert list(batch[4:2]) == [] and list(batch[2:99]) == self.POINTS[2:]
        assert list(batch[1:5][2:]) == self.POINTS[3:5]
        assert batch.index.dtype == object and SparseBatch.of(self.POINTS[:4]).index.dtype == np.int64
        assert SparseBatch.of(batch) is batch and list(SparseBatch.of([])) == []
        # int64 indices on one side, Python ints beyond int64 on the other
        assert np.array_equal(l1_distances(self.POINTS[:4], batch), pairwise(self.POINTS[:4], self.POINTS))
        assert np.array_equal(l1_distances(batch, self.POINTS[:4]), pairwise(self.POINTS, self.POINTS[:4]))
        with pytest.raises(IndexError):
            batch[6]
        with pytest.raises(TypeError):
            SparseBatch.of([self.POINTS[1], (0.0, 1.0)])

    def test_round_trip_from_dense_rows_matches_embed_finite(self):
        rows = np.array([[0.0, -0.0, 0.0, 0.0], [-0.0, 1.5, 0.0, -2.0], [3.0, -1e-300, 0.25, 1e100],
                         [0.0, 0.0, 0.0, -0.0], [0.0, 0.0, 0.0, 7.0]])
        batch = SparseBatch.from_rows(rows)
        assert list(batch) == [embed_finite(r) for r in rows]
        assert [p.items for p in batch] == [embed_finite(r).items for r in rows]
        assert list(SparseBatch.of(rows)) == list(batch) and list(SparseBatch.from_rows(rows[:0])) == []
        again = batch.leading(4)
        assert np.array_equal(again, rows) and not np.signbit(again[rows == 0.0]).any()  # -0.0 is dropped
        assert list(SparseBatch.from_rows(again)) == list(batch)

    @pytest.mark.parametrize("n", [1, 2, 5, 8, 9])
    def test_leading_and_tail_are_those_of_each_point(self, n):
        rng = np.random.default_rng(130 + n)
        points = self.POINTS + random_sparse_points(rng, 30, index_max=12, size_max=6)
        batch = SparseBatch.of(points)
        assert np.array_equal(batch.leading(n), np.array([p.leading(n) for p in points]))
        assert batch.tail(n).tolist() == [p.tail(n) for p in points]


class TestLocateCube:
    def test_dim1_level1(self):
        cell = locate_cube(np.array([0.4]), 1)
        assert cell == GridCell(key=(1,), level=1)  # (eps, h, k) = ((1,), (0,), 0)
        cube = cell.cube()
        assert (tuple(cube.center), cube.edge) == ((0.5,), 1.0)

    def test_boundary_tie_break_is_positive_side(self):
        assert locate_cube(np.array([0.0]), 1).key == (1,)  # eps = (1,), h = (0,)

    def test_boundary_values_agree_across_the_shared_face(self):
        # Interpolating any data through either adjacent cell gives the same
        # value on the shared face, so the tie-break cannot matter.
        g = {(-1.0,): 2.0, (0.0,): -1.0, (1.0,): 5.0}
        left = vertex_data(
            GridCell(key=(0,), level=1).cube(), {(-1,): g[(-1.0,)], (1,): g[(0.0,)]}
        )
        right = vertex_data(
            GridCell(key=(1,), level=1).cube(), {(-1,): g[(0.0,)], (1,): g[(1.0,)]}
        )
        assert interpolate_recursive(left, [0.0]) == interpolate_recursive(right, [0.0]) == -1.0

    def test_dim2_level2_slab_enumeration(self):
        u = np.array([2.0**-2 * 3, -(2.0**-2)])
        cell = locate_cube(u, 2)
        assert cell == GridCell(key=(5, 3), level=2)  # (eps, h, k) = ((1, -1), (1, 0), 1)
        # oracle: scan all 64 cells of that level for containment
        containing = [c for c in all_cells(2, 2) if cube_contains(c, u)]
        assert cell.cube() in containing

    def test_outside_raises(self):
        with pytest.raises(ValueError):
            locate_cube(np.array([2.5]), 1)

    def test_non_finite_point_is_refused_naming_it(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # refused before any cast can warn
            with pytest.raises(ValueError, match=r"point 0 \[nan, 0\.2\] has a non-finite coordinate"):
                locate_cube([np.nan, 0.2], 2)
            with pytest.raises(ValueError, match=r"point 1 \[0\.3, inf\] has a non-finite coordinate"):
                cell_low_corners([[0.1, 0.2], [0.3, np.inf], [np.nan, 0.0]], 2)

    @pytest.mark.parametrize("level", [1, 2, 3])
    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_brute_force_scan(self, level, dim):
        rng = np.random.default_rng(100 * level + dim)
        cells = all_cells(level, dim)
        centers = np.array([c.center for c in cells])
        half_cell = 2.0 ** (-level)
        for u in rng.uniform(-(2.0 ** (level - 1)), 2.0 ** (level - 1), size=(25, dim)):
            inside = np.max(np.abs(centers - u), axis=1) <= half_cell + 1e-12
            hits = [cells[i] for i in np.nonzero(inside)[0]]
            located = locate_cube(u, level).cube()
            assert located in hits
            if len(hits) == 1:  # interior of a cell: the answer is forced
                assert located == hits[0]


class TestTilingVertices:
    """The vertex grid is every lattice key ``0 .. 2**(2n-1)`` per axis."""

    def test_unit_cases(self):
        assert lattice_coords(np.arange(3), 1).tolist() == [-1.0, 0.0, 1.0]
        assert lattice_coords(np.arange(9), 2).tolist() == [-2.0 + 0.5 * i for i in range(9)]

    @pytest.mark.parametrize("level", [1, 2, 3])
    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_cardinality_matches_brute_force_union(self, level, dim):
        union = set()
        for cell in all_cells(level, dim):
            for v in cell.vertices():
                union.add(tuple(v))
        centers = np.array([cell.center for cell in all_cells(level, dim)])
        offsets = np.indices((2,) * dim).reshape(dim, -1).T
        keys = cell_low_corners(centers, level)[:, None, :] + offsets
        grid = {tuple(v) for v in lattice_coords(keys, level).reshape(-1, dim)}
        assert len(grid) == ((1 << (2 * level - 1)) + 1) ** dim == len(union)
        assert grid == union

    def test_grid_coordinates_are_exact_dyadics(self):
        for level in (1, 2, 3, 5):
            grid = lattice_coords(np.arange((1 << (2 * level - 1)) + 1), level)
            scaled = grid * 2.0 ** (level - 1)
            assert np.array_equal(scaled, np.round(scaled))


def test_l1_distance_dispatch():
    a = FiniteSupportPoint.from_pairs([(1, 1.0), (3, -2.0)])
    b = FiniteSupportPoint.from_pairs([(1, 0.5), (2, 1.0)])
    assert l1_distance(a, b) == pytest.approx(0.5 + 1.0 + 2.0)
    assert l1_distance([1, 2], [2, 0]) == 3.0
    with pytest.raises(ValueError):
        l1_distance([1, 2], [1, 2, 3])


def pairwise(a, b):
    """The oracle: one scalar ``l1_distance`` call per pair."""
    return np.array([[l1_distance(p, q) for q in b] for p in a]).reshape(len(a), len(b))


def random_sparse_points(rng, count, index_max, size_max=4):
    out = []
    for _ in range(count):
        size = int(rng.integers(0, size_max + 1))
        idx = rng.choice(np.arange(1, index_max + 1), size=min(size, index_max), replace=False)
        scale = 10.0 ** rng.integers(-3, 4, size=len(idx))
        out.append(FiniteSupportPoint.from_pairs(zip(map(int, idx), (rng.normal(size=len(idx)) * scale).tolist())))
    return out


class TestL1Distances:
    """The batched kernel equals the scalar distance bit for bit."""

    @pytest.mark.parametrize("dim", range(1, 17))
    def test_coordinate_rows(self, dim):
        # from dim 8 on NumPy sums pairwise; the kernel must sum the same way
        rng = np.random.default_rng(300 + dim)
        a = rng.normal(size=(9, dim)) * 10.0 ** rng.integers(-4, 5, size=(9, 1))
        b = [tuple(row) for row in rng.normal(size=(13, dim)) * 1e3]
        got = l1_distances(a, b)
        assert got.shape == (9, 13)
        assert np.array_equal(got, pairwise(a, b))
        assert np.array_equal(l1_distances(list(a[2:5]), b[3:11]), got[2:5, 3:11])

    @pytest.mark.parametrize("seed", range(20))
    def test_random_sparse_points(self, seed):
        rng = np.random.default_rng(320 + seed)
        a = random_sparse_points(rng, int(rng.integers(1, 9)), index_max=12)
        b = random_sparse_points(rng, int(rng.integers(1, 9)), index_max=12)
        assert np.array_equal(l1_distances(a, b), pairwise(a, b))

    def test_disjoint_nested_and_overlapping_supports(self):
        sp = FiniteSupportPoint.from_pairs
        a = [sp([(1, 0.1), (2, -0.7)]), sp([(3, 1e-3), (7, 2.5)]), sp([(1, 0.3), (2, 0.2), (3, -1.1)]),
             FiniteSupportPoint.zero()]
        b = [sp([(4, 0.9), (5, -0.3)]),        # disjoint from every a
             sp([(2, 0.6)]),                    # nested in a[0] and a[2]
             sp([(1, 0.1), (2, 0.6), (3, 0.7), (7, -2.4)]),  # contains a[0], a[1], a[2]
             sp([(2, 1.0), (3, 1e-3), (6, 0.1)]),  # overlapping
             FiniteSupportPoint.zero()]
        assert np.array_equal(l1_distances(a, b), pairwise(a, b))
        assert np.array_equal(l1_distances(b, a), pairwise(b, a))

    def test_indices_beyond_the_level_cost_one_column(self):
        sp = FiniteSupportPoint.from_pairs
        a = [sp([(1, 0.5), (10**6, 0.25)]), sp([(3, -1.5)]), sp([(10**30, 2.0)])]
        b = [sp([(10**6, -0.125), (2, 0.75)]), sp([(1, 0.5), (9, 1.0)]), sp([(10**30, 0.5)])]
        assert np.array_equal(l1_distances(a, b), pairwise(a, b))

    def test_query_outside_every_anchor_support(self):
        rng = np.random.default_rng(340)
        anchors = random_sparse_points(rng, 8, index_max=6)
        queries = [FiniteSupportPoint.from_pairs([(7, 0.3), (11, -0.9)]),
                   FiniteSupportPoint.from_pairs([(20, 1e-5)])]
        assert np.array_equal(l1_distances(anchors, queries), pairwise(anchors, queries))

    def test_coordinate_rows_among_sparse_points_are_embedded(self):
        p = FiniteSupportPoint.from_pairs([(1, 0.5), (4, 1.0)])
        a = [p, np.array([0.25, -0.5])]
        b = [FiniteSupportPoint.from_pairs([(2, 0.75)]), FiniteSupportPoint.zero()]
        assert np.array_equal(l1_distances(a, b), pairwise(a, b))
        assert np.array_equal(l1_distances([p], [(1.0, 0.0, 3.0), p]), pairwise([p], [(1.0, 0.0, 3.0), p]))

    def test_empty_sides_and_mismatched_rows(self):
        assert l1_distances([], [(1.0, 2.0)]).shape == (0, 1)
        assert l1_distances([FiniteSupportPoint.zero()], []).shape == (1, 0)
        with pytest.raises(ValueError, match="dimension mismatch"):
            l1_distances([(1.0, 2.0)], [(1.0, 2.0, 3.0)])
        with pytest.raises(ValueError, match="equal-length"):
            l1_distances([(1.0, 2.0), (1.0,)], [(1.0, 2.0)])

    @pytest.mark.parametrize("budget", [1, 7])
    def test_tiny_blocks_change_nothing(self, monkeypatch, budget):
        rng = np.random.default_rng(350)
        dense_a, dense_b = rng.normal(size=(6, 11)), rng.normal(size=(5, 11))
        sparse_a = random_sparse_points(rng, 6, index_max=9)
        sparse_b = random_sparse_points(rng, 7, index_max=9)
        expect = l1_distances(dense_a, dense_b), l1_distances(sparse_a, sparse_b)
        monkeypatch.setattr(geometry, "_L1_BLOCK_ELEMENTS", budget)
        assert np.array_equal(l1_distances(dense_a, dense_b), expect[0])
        assert np.array_equal(l1_distances(sparse_a, sparse_b), expect[1])
        assert np.array_equal(expect[1], pairwise(sparse_a, sparse_b))
