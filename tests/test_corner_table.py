"""The corner deduplication and the padded sparse kernel against their oracles.

Every comparison is exact: the same values, and the same corners passed to
``eval_many`` in the same batches.
"""

import os
import resource
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import lipfree
from corner_oracles import DictProjection, dict_project_values, loop_sparse_l1_block
from lipfree import geometry
from lipfree.geometry import FiniteSupportPoint, SparseBatch, l1_distances
from lipfree.operators import (
    GridLevel,
    LipFunction,
    cell_weights,
    lip_projection,
    project_values,
    random_lattice_function,
)


class Recording(LipFunction):
    """``f``, remembering every batch passed to ``eval_many`` as plain lists."""

    def __init__(self, f):
        super().__init__(None, declared_lip=f.declared_lip)
        self.f, self.batches = f, []

    def eval_many(self, points):
        points = list(points)
        self.batches.append([p if isinstance(p, FiniteSupportPoint) else np.asarray(p).tolist() for p in points])
        return self.f.eval_many(points)


def sparse_points(rng, count, index_max, spread):
    out = []
    for _ in range(count):
        size = int(rng.integers(0, min(5, index_max) + 1))
        idx = rng.choice(np.arange(1, index_max + 1), size=size, replace=False)
        out.append(FiniteSupportPoint.from_pairs((int(i), float(rng.uniform(-spread, spread))) for i in idx))
    return out


def dense_points(rng, count, dim, n, on_grid=0):
    """Points in and beyond the level-n big cube; ``on_grid`` leading axes of
    each sit on a grid hyperplane, so they add no branch."""
    half = 2.0 ** (n - 1)
    pts = rng.uniform(-1.5 * half, 1.5 * half, size=(count, dim))
    pts[:, :on_grid] = rng.integers(-(2 ** (2 * n - 2)), 2 ** (2 * n - 2) + 1, size=(count, on_grid)) * 2.0 ** (1 - n)
    return list(pts)


def assert_same(f, xs, level):
    """project_values equals the oracle, corner batches included."""
    new, old = Recording(f), Recording(f)
    got = project_values(new, xs, level)
    assert got.tolist() == dict_project_values(old, xs, level).tolist()
    assert new.batches == old.batches
    return got


class TestAgainstTheDictTable:
    @pytest.mark.parametrize("n", range(1, 9))
    def test_sequence_mode(self, n):
        rng = np.random.default_rng(700 + n)
        f = random_lattice_function(rng)
        xs = sparse_points(rng, 25, n + 3, 1.5 * 2.0 ** (n - 1))  # tails, some clamped
        xs += xs[:5] + [FiniteSupportPoint.zero()]
        assert_same(f, xs, GridLevel(n))

    @pytest.mark.parametrize("dim, n, on_grid", [(1, 3, 0), (2, 5, 0), (6, 4, 0), (6, 4, 3), (16, 2, 12)])
    def test_coordinate_mode(self, dim, n, on_grid):
        rng = np.random.default_rng(720 + dim)
        f = random_lattice_function(rng, dim=dim)
        xs = dense_points(rng, 20, dim, n, on_grid)
        assert_same(f, xs + xs[3:7], GridLevel(n, dim))

    def test_every_axis_free_in_16_dimensions(self):
        rng = np.random.default_rng(730)
        f = random_lattice_function(rng, dim=16)
        x = rng.uniform(-0.95, 0.95, size=16)  # in one cell, all 2**16 corners weighted
        new_f, old_f = Recording(f), Recording(f)
        proj, oracle = lip_projection(new_f, GridLevel(1, 16)), DictProjection(old_f, GridLevel(1, 16))
        assert proj.eval_many([x]).tolist() == oracle.eval_many([x]).tolist()
        assert [len(b) for b in new_f.batches] == [2**16] and new_f.batches == old_f.batches

    def test_clamped_points(self):
        rng = np.random.default_rng(740)
        f = random_lattice_function(rng, dim=3)
        xs = list(rng.choice([-1.0, 1.0], size=(12, 3)) * rng.uniform(2.0, 50.0, size=(12, 3)))
        assert_same(f, xs, GridLevel(2, 3))
        seq = [FiniteSupportPoint.from_pairs([(1, 9.0), (2, -0.3), (5, 1.0)]), FiniteSupportPoint.from_pairs([(2, -40.0)])]
        assert_same(random_lattice_function(rng), seq, GridLevel(3))

    @pytest.mark.parametrize("dim", [None, 2, 6])
    def test_repeated_and_overlapping_batches_share_one_table(self, dim):
        # Nothing is shared between calls: each evaluates its own distinct corners.
        rng = np.random.default_rng(750 + (dim or 0))
        f = random_lattice_function(rng, dim=dim)
        level = GridLevel(3, dim)
        pool = sparse_points(rng, 30, 6, 4.0) if dim is None else dense_points(rng, 30, dim, 3)
        new_f, old_f = Recording(f), Recording(f)
        proj, oracle = lip_projection(new_f, level), DictProjection(old_f, level)
        batches = [pool[:10], pool[:10], pool[5:20], pool[25:] + pool[:3] + pool[25:], pool[18:30]]
        for batch in batches:  # fresh, repeated, overlapping, and a batch repeating points within itself
            assert proj.eval_many(batch).tolist() == oracle.eval_many(batch).tolist()
            _, keys, _ = cell_weights(batch, level)
            assert len(new_f.batches[-1]) == len(np.unique(keys, axis=0))
        assert new_f.batches == old_f.batches
        assert len(new_f.batches) == 5 and new_f.batches[1] == new_f.batches[0]

    @pytest.mark.parametrize("dim", [None, 2])
    def test_projection_of_a_projection(self, dim):
        rng = np.random.default_rng(760 + (dim or 0))
        f = random_lattice_function(rng, dim=dim)
        xs = sparse_points(rng, 30, 7, 5.0) if dim is None else dense_points(rng, 30, dim, 3)
        for inner, outer in ((4, 2), (2, 4), (3, 3)):
            new_f, old_f = Recording(f), Recording(f)
            got = lip_projection(lip_projection(new_f, GridLevel(inner, dim)), GridLevel(outer, dim))
            expect = DictProjection(DictProjection(old_f, GridLevel(inner, dim)), GridLevel(outer, dim))
            assert got.eval_many(xs).tolist() == expect.eval_many(xs).tolist()
            assert len(new_f.batches) == 1 and new_f.batches == old_f.batches

    def test_empty_batch(self):
        f = random_lattice_function(np.random.default_rng(770), dim=2)
        recording = Recording(f)
        proj = lip_projection(recording, GridLevel(2, 2))
        assert project_values(f, [], GridLevel(2, 2)).shape == (0,)
        assert proj.eval_many([]).shape == (0,) and recording.batches == []
        proj.eval_many([np.array([0.3, 0.1])])
        assert proj.eval_many([]).shape == (0,) and [len(b) for b in recording.batches] == [4]


class TestAgainstTheIndexLoop:
    @pytest.mark.parametrize("seed", range(12))
    def test_random_supports(self, seed):
        rng = np.random.default_rng(800 + seed)
        ps = sparse_points(rng, int(rng.integers(1, 15)), int(rng.integers(1, 30)), 3.0)
        qs = sparse_points(rng, int(rng.integers(1, 15)), int(rng.integers(1, 30)), 3.0)
        assert np.array_equal(geometry._sparse_l1_block(ps, qs), loop_sparse_l1_block(ps, qs))
        assert np.array_equal(l1_distances(ps, qs), loop_sparse_l1_block(ps, qs))
        a, b = SparseBatch.of(ps), SparseBatch.of(qs)
        assert np.array_equal(geometry._sparse_l1_block(a, b), loop_sparse_l1_block(ps, qs))
        assert np.array_equal(l1_distances(a, qs), l1_distances(ps, b))

    def test_uneven_supports_large_indices_and_zero_points(self):
        sp = FiniteSupportPoint.from_pairs
        ps = [sp([(i, 0.1 * i) for i in range(1, 40)]), FiniteSupportPoint.zero(), sp([(10**30, 1.5)]),
              sp([(3, -2.0), (10**6, 0.5)])]
        qs = [sp([(2, 0.2), (3, -2.0)]), sp([(10**6, 0.5), (10**30, -1.5)]), FiniteSupportPoint.zero()]
        for a, b in ((ps, qs), (qs, ps), (ps, ps)):
            assert np.array_equal(geometry._sparse_l1_block(a, b), loop_sparse_l1_block(a, b))
            laid_out = geometry._sparse_l1_block(SparseBatch.of(a), SparseBatch.of(b)[:])
            assert np.array_equal(laid_out, loop_sparse_l1_block(a, b))

    def test_one_pair_of_long_supports_adds_in_index_order(self):
        # NumPy sums a lone 1-d run pairwise; these terms round differently
        # that way, so only the index-order sum matches the scalar distance.
        rng = np.random.default_rng(812)
        p = FiniteSupportPoint.from_pairs((i, float(rng.normal() * 10.0 ** rng.integers(-3, 4))) for i in range(1, 41))
        q = FiniteSupportPoint.from_pairs((i, float(rng.normal())) for i in range(20, 61))
        first = [abs(v - q.coord(i)) for i, v in p.items]
        rest = [abs(v) for i, v in q.items if i > 40]
        assert float(np.sum(first)) != sum(first) and float(np.sum(rest)) != sum(rest)
        assert l1_distances([p], [q])[0, 0] == geometry.l1_distance(p, q) == loop_sparse_l1_block([p], [q])[0, 0]
        assert l1_distances([q], [p])[0, 0] == geometry.l1_distance(q, p)

    @pytest.mark.parametrize("budget", [1, 5, 40])
    def test_small_blocks(self, monkeypatch, budget):
        rng = np.random.default_rng(820)
        ps, qs = sparse_points(rng, 11, 9, 2.0), sparse_points(rng, 7, 9, 2.0)
        monkeypatch.setattr(geometry, "_L1_BLOCK_ELEMENTS", budget)
        assert np.array_equal(l1_distances(ps, qs), loop_sparse_l1_block(ps, qs))
        assert np.array_equal(l1_distances(SparseBatch.of(ps), SparseBatch.of(qs)), loop_sparse_l1_block(ps, qs))

    def test_disjoint_supports_run_in_bounded_memory(self):
        # 300 points with 5 private indices each: 1,500 distinct indices, so
        # arrays over their union would grow with the number of points.
        script = textwrap.dedent("""
            import numpy as np
            from corner_oracles import loop_sparse_l1_block
            from lipfree.geometry import FiniteSupportPoint, l1_distances
            pts = [FiniteSupportPoint.from_pairs((5 * r + k + 1, (-1.0) ** k * (r + k + 1) / 7.0) for k in range(5))
                   for r in range(300)]
            got = l1_distances(pts, pts)
            assert np.array_equal(got, loop_sparse_l1_block(pts, pts))
            assert np.all(got[~np.eye(300, dtype=bool)] > 0.0)
            print("ok")
        """)
        src = str(Path(lipfree.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, str(Path(__file__).parent)]),
                   OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
        cap = 1536 * 2**20

        def limit():
            resource.setrlimit(resource.RLIMIT_AS, (cap, cap))

        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env,
                              timeout=120, preexec_fn=limit)
        assert proc.returncode == 0, proc.stderr[-2000:]
        assert proc.stdout.strip() == "ok"
