import json
import os
import subprocess
import sys
import textwrap
import warnings
from pathlib import Path

import numpy as np
import pytest

import lipfree
from lipfree import extension
from lipfree.extension import (
    FinitePointedMetricSpace,
    approximation_operator,
    build_partition,
    chain_table,
    covering_radius,
    doubling_estimate,
    extend,
    farthest_point_chain,
    gentleness,
    restrict,
    space_function,
)
from lipfree.interpolation import lip_constant

from bench_workloads import make_pool
from chain_oracles import (
    looped_chain_table,
    looped_covering_radius,
    looped_farthest_point_chain,
    looped_gentleness,
    looped_partition_weights,
    swept_doubling_estimate,
)
from cube_helpers import value_at


def line_space(k=3, step=1.0):
    return FinitePointedMetricSpace.from_l1_points([[step * i] for i in range(k)])


def random_space(rng, k):
    return FinitePointedMetricSpace.from_l1_points(rng.uniform(-3, 3, size=(k, 2)))


class TestSpaceValidation:
    def test_symmetry_required(self):
        d = np.array([[0.0, 1.0], [2.0, 0.0]])
        with pytest.raises(ValueError, match="symmetric"):
            FinitePointedMetricSpace(labels=(0, 1), dist=d)

    def test_triangle_violation_names_triple(self):
        d = np.array([[0.0, 1.0, 5.0], [1.0, 0.0, 1.0], [5.0, 1.0, 0.0]])
        with pytest.raises(ValueError, match="triangle"):
            FinitePointedMetricSpace(labels=(0, 1, 2), dist=d)

    def test_distinct_points_need_positive_distance(self):
        d = np.zeros((2, 2))
        with pytest.raises(ValueError, match="non-positive"):
            FinitePointedMetricSpace(labels=(0, 1), dist=d)

    def test_nan_distance_named(self):
        nan = float("nan")
        d = np.array([[0.0, 1.0, nan], [1.0, 0.0, 1.0], [nan, 1.0, 0.0]])
        with pytest.raises(ValueError, match=r"\(0, 2\) is not finite"):
            FinitePointedMetricSpace(labels=(0, 1, 2), dist=d)

    def test_infinite_coordinate_rejected_as_non_finite(self):
        with pytest.raises(ValueError, match="not finite"):
            FinitePointedMetricSpace.from_json({"embed_l1": [[0.0], [float("inf")]]})

    def test_overflowing_coordinates_rejected_without_warnings(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"\(0, 1\) is not finite: inf"):
                FinitePointedMetricSpace.from_l1_points([[1e308, 0.0], [-1e308, 1.0]])

    def test_embedding_constructor(self):
        space = FinitePointedMetricSpace.from_l1_points([[0, 0], [1, 2]])
        assert space.dist[0, 1] == 3.0

    def test_json_round_trip(self):
        space = line_space(4)
        again = FinitePointedMetricSpace.from_json(space.to_json())
        assert np.array_equal(again.dist, space.dist)
        embedded = FinitePointedMetricSpace.from_json({"embed_l1": [[0.0], [2.0]], "origin": 0})
        assert embedded.dist[0, 1] == 2.0


class TestRestrict:
    def test_full_subset_is_identity(self):
        space = line_space(4)
        f = space_function(space, [0.0, 1.0, 0.5, 2.0])
        g = restrict(f, range(4))
        assert g.points == f.points and g.values == f.values

    def test_origin_only_gives_zero_function(self):
        space = line_space(4)
        f = space_function(space, [0.0, 1.0, 0.5, 2.0])
        g = restrict(f, [space.origin])
        assert g.values == (0.0,)

    def test_nested_restrictions_compose(self):
        space = line_space(5)
        f = space_function(space, [0.0, 1.0, -1.0, 2.0, 0.5])
        inner = restrict(restrict(f, [0, 1, 2, 4]), [0, 2])
        assert inner.values == restrict(f, [0, 2]).values

    def test_restriction_never_increases_the_constant(self):
        rng = np.random.default_rng(0)
        space = random_space(rng, 8)
        vals = rng.normal(size=8)
        vals[space.origin] = 0.0
        f = space_function(space, vals)
        sub = [space.origin, 2, 5]
        assert lip_constant(restrict(f, sub), space.dist) <= lip_constant(f, space.dist)

    def test_missing_origin_rejected(self):
        space = line_space(3)
        f = space_function(space, [0.0, 1.0, 2.0])
        with pytest.raises(ValueError):
            restrict(f, [1, 2])


class TestPartition:
    def test_vacuous_partition(self):
        space = line_space(3)
        part = build_partition(space, range(3))
        assert gentleness(part).k_hat == 0.0

    def test_midpoint_shepard_weights_are_half(self):
        space = line_space(3)
        part = build_partition(space, [0, 2], scheme="shepard-p", p=1.0)
        assert part.weights[0, 1] == 0.5 and part.weights[1, 1] == 0.5

    def test_inv_dist_matches_on_symmetric_line(self):
        space = line_space(3)
        part = build_partition(space, [0, 2], scheme="inv-dist")
        assert part.weights[0, 1] == 0.5 and part.weights[1, 1] == 0.5

    @pytest.mark.parametrize("scheme", ["inv-dist", "shepard-p"])
    def test_normalization_on_random_spaces(self, scheme):
        rng = np.random.default_rng(1)
        for _ in range(10):
            k = int(rng.integers(4, 12))
            space = random_space(rng, k)
            size = int(rng.integers(1, k))
            subset = sorted({space.origin} | set(map(int, rng.choice(k, size=size, replace=False))))
            part = build_partition(space, subset, scheme=scheme, p=1.5)
            outside = [x for x in range(k) if x not in set(subset)]
            if outside:
                sums = part.weights[:, outside].sum(axis=0)
                assert np.max(np.abs(sums - 1.0)) <= 1e-12
            assert np.min(part.weights) >= 0.0

    def test_empty_subset_rejected(self):
        with pytest.raises(ValueError):
            build_partition(line_space(3), [])

    def test_unknown_scheme_rejected(self):
        with pytest.raises(ValueError):
            build_partition(line_space(3), [0], scheme="kriging")


class TestExtend:
    def test_zero_extends_to_zero(self):
        space = line_space(3)
        part = build_partition(space, [0, 2], scheme="shepard-p", p=1.0)
        f = restrict(space_function(space, [0.0, 123.0, 0.0]), [0, 2])
        assert extend(f, part).values == (0.0, 0.0, 0.0)

    def test_line_midpoint_blends(self):
        space = line_space(3)
        part = build_partition(space, [0, 2], scheme="shepard-p", p=1.0)
        f = restrict(space_function(space, [0.0, 999.0, 2.0]), [0, 2])
        e = extend(f, part)
        assert value_at(e, 1) == 1.0  # 0 * .5 + 2 * .5
        assert value_at(e, 0) == 0.0 and value_at(e, 2) == 2.0

    def test_extension_stays_in_anchor_range(self):
        rng = np.random.default_rng(2)
        space = random_space(rng, 9)
        subset = sorted({space.origin, 1, 4, 7})
        vals = rng.normal(size=9)
        vals[space.origin] = 0.0
        f = restrict(space_function(space, vals), subset)
        e = extend(f, build_partition(space, subset))
        assert min(f.values) - 1e-12 <= min(e.values)
        assert max(e.values) <= max(f.values) + 1e-12

    def test_positivity(self):
        # weights are nonnegative, so pointwise ordering of anchor values
        # survives extension off the subset
        rng = np.random.default_rng(13)
        space = random_space(rng, 8)
        subset = sorted({space.origin, 1, 5})
        part = build_partition(space, subset)
        origin_pos = subset.index(space.origin)
        from lipfree.interpolation import TabulatedFunction

        lowv = rng.normal(size=len(subset))
        lowv[origin_pos] = 0.0
        highv = lowv + rng.uniform(0.0, 2.0, size=len(subset))
        highv[origin_pos] = 0.0
        low = extend(TabulatedFunction(tuple(subset), tuple(lowv), origin_pos), part)
        high = extend(TabulatedFunction(tuple(subset), tuple(highv), origin_pos), part)
        outside = [x for x in range(8) if x not in set(subset)]
        for x in outside:
            assert value_at(low, x) <= value_at(high, x) + 1e-12

    def test_linearity(self):
        rng = np.random.default_rng(3)
        space = random_space(rng, 7)
        subset = sorted({space.origin, 2, 5})
        part = build_partition(space, subset)
        va, vb = rng.normal(size=(2, len(subset)))
        origin_pos = subset.index(space.origin)
        va[origin_pos] = vb[origin_pos] = 0.0
        from lipfree.interpolation import TabulatedFunction

        fa = TabulatedFunction(points=tuple(subset), values=tuple(va), origin=origin_pos)
        fb = TabulatedFunction(points=tuple(subset), values=tuple(vb), origin=origin_pos)
        fc = TabulatedFunction(
            points=tuple(subset), values=tuple(2 * va - 3 * vb), origin=origin_pos
        )
        lhs = np.asarray(extend(fc, part).values)
        rhs = 2 * np.asarray(extend(fa, part).values) - 3 * np.asarray(extend(fb, part).values)
        assert np.allclose(lhs, rhs, atol=1e-12)


class TestGentleness:
    def test_three_point_line_by_hand(self):
        # psi(.,1) = (1/2, 1/2); the six ordered pairs give ratios
        # {1, 1, 1, 1, 0, 0}, so the constant is 1
        space = line_space(3)
        part = build_partition(space, [0, 2], scheme="shepard-p", p=1.0)
        est = gentleness(part)
        enumerated = []
        psi = {0: np.zeros(2), 1: np.array([0.5, 0.5]), 2: np.zeros(2)}
        anchors = [0, 2]
        for x in range(3):
            for y in range(3):
                if x == y:
                    continue
                num = sum(
                    abs(psi[x][w] - psi[y][w]) * space.dist[anchors[w], x] for w in range(2)
                )
                enumerated.append(num / space.dist[x, y])
        assert est.k_hat == max(enumerated) == 1.0

    @pytest.mark.parametrize("scheme", ["inv-dist", "shepard-p"])
    def test_scale_invariance(self, scheme):
        rng = np.random.default_rng(4)
        pts = rng.uniform(-2, 2, size=(8, 2))
        base = FinitePointedMetricSpace.from_l1_points(pts)
        scaled = FinitePointedMetricSpace(labels=base.labels, dist=base.dist * 10.0, origin=0)
        sub = (0, 3, 6)
        k1 = gentleness(build_partition(base, sub, scheme=scheme, p=2.0)).k_hat
        k2 = gentleness(build_partition(scaled, sub, scheme=scheme, p=2.0)).k_hat
        assert k1 == pytest.approx(k2, rel=1e-9)


class TestApproximationOperator:
    def test_full_subset_returns_the_function(self):
        space = line_space(4)
        f = space_function(space, [0.0, 1.0, -1.0, 0.5])
        sf = approximation_operator(f, build_partition(space, range(4)))
        assert sf.values == f.values

    def test_fixes_subset_exactly(self):
        rng = np.random.default_rng(5)
        space = random_space(rng, 10)
        vals = rng.normal(size=10)
        vals[space.origin] = 0.0
        f = space_function(space, vals)
        subset = sorted({space.origin, 1, 3, 8})
        sf = approximation_operator(f, build_partition(space, subset))
        for i in subset:
            assert value_at(sf, i) == value_at(f, i)

    def test_nested_subsets_agree_on_the_smaller(self):
        rng = np.random.default_rng(6)
        space = random_space(rng, 9)
        vals = rng.normal(size=9)
        vals[space.origin] = 0.0
        f = space_function(space, vals)
        small = sorted({space.origin, 2})
        large = sorted({space.origin, 2, 4, 6})
        s_large = approximation_operator(f, build_partition(space, large))
        s_both = approximation_operator(s_large, build_partition(space, small))
        s_small = approximation_operator(f, build_partition(space, small))
        for i in small:
            assert value_at(s_both, i) == value_at(s_small, i) == value_at(f, i)

    def test_chain_converges_and_ends_exact(self):
        rng = np.random.default_rng(7)
        space = random_space(rng, 12)
        vals = rng.normal(size=12)
        vals[space.origin] = 0.0
        f = space_function(space, vals)
        errs = [
            max(
                abs(a - b)
                for a, b in zip(
                    approximation_operator(f, build_partition(space, subset)).values, f.values
                )
            )
            for subset in farthest_point_chain(space)
        ]
        assert errs[-1] == 0.0
        assert errs[-1] <= errs[0]


def looped_doubling_estimate(space):
    """The doubling sweep as one Python loop per ball configuration."""
    k = space.size
    if k == 1:
        return 1
    d = space.dist
    values = sorted(set(float(v) for v in d[np.triu_indices(k, 1)]))
    radii = sorted(set(values) | set(2.0 * v for v in values))
    best = 1
    seen: set[tuple] = set()
    for center in range(k):
        for r in radii:
            for closed in (False, True):
                row = d[center]
                members = np.nonzero(row <= r if closed else row < r)[0]
                key = (center, closed, members.tobytes(), r / 2.0)
                if key in seen or members.size == 0:
                    continue
                seen.add(key)
                half = r / 2.0
                within = d[np.ix_(members, members)]
                covers = within <= half if closed else within < half
                uncovered = np.ones(members.size, dtype=bool)
                count = 0
                while np.any(uncovered):
                    gains = (covers & uncovered[None, :]).sum(axis=1)
                    gains[~uncovered] = -1  # centers must be uncovered points
                    q = int(np.argmax(gains))  # argmax ties break to smallest index
                    count += 1
                    uncovered &= ~covers[q]
                best = max(best, count)
    return best


def sweep_spaces(seed, count):
    """Seeded spaces of at most 13 points: random, lattice, line, uniform, nearly symmetric."""
    rng = np.random.default_rng(seed)
    spaces = [FinitePointedMetricSpace(labels=("o",), dist=np.zeros((1, 1)), origin=0)]
    for i in range(count - 1):
        k = 10 + (i // 10) % 4 if i % 10 == 0 else int(rng.integers(2, 10))
        dim = int(rng.integers(1, 4))
        kind = i % 6
        if kind == 0:
            spaces.append(FinitePointedMetricSpace.from_l1_points(rng.uniform(-3, 3, size=(k, dim))))
        elif kind in (1, 2):  # integer and half-integer lattice points: many tied distances
            pts = np.unique(rng.integers(-2, 3, size=(k, dim)), axis=0) / kind
            spaces.append(FinitePointedMetricSpace.from_l1_points(pts))
        elif kind == 3:
            spaces.append(line_space(k, step=float(rng.choice([1.0, 0.5, 0.3]))))
        elif kind == 4:
            dist = (np.ones((k, k)) - np.eye(k)) * float(rng.uniform(0.5, 2.0))
            spaces.append(FinitePointedMetricSpace(labels=tuple(range(k)), dist=dist))
        else:  # l1 lattice distances, nudged above the diagonal within the symmetry tolerance
            dist = FinitePointedMetricSpace.from_l1_points(
                np.unique(rng.integers(-2, 3, size=(k, dim)), axis=0)).dist
            dist = dist + np.triu(np.full(dist.shape, 1e-14), 1)
            spaces.append(FinitePointedMetricSpace(labels=tuple(range(len(dist))), dist=dist))
    return spaces


class TestDoubling:
    def test_matches_looped_sweep(self):
        spaces = sweep_spaces(0, 210)
        assert {s.size for s in spaces} == set(range(1, 14))
        for space in spaces:
            assert doubling_estimate(space) == looped_doubling_estimate(space)

    @pytest.mark.parametrize("budget", [1, 50])
    def test_tiny_blocks_change_nothing(self, budget, monkeypatch):
        monkeypatch.setattr(extension, "_SWEEP_BLOCK_ELEMENTS", budget)
        for space in sweep_spaces(1, 30):
            assert doubling_estimate(space) == looped_doubling_estimate(space)

    def test_single_point(self):
        space = FinitePointedMetricSpace(labels=("o",), dist=np.zeros((1, 1)), origin=0)
        assert doubling_estimate(space) == 1

    @pytest.mark.parametrize("k", [2, 5, 8, 12])
    def test_line_stays_at_most_three(self, k):
        assert doubling_estimate(line_space(k)) <= 3

    def test_a_pair_at_the_smallest_subnormal_distance_answers(self, tmp_path):
        # r = 5e-324 has r / 2 == 0, so a half ball tested as d < r / 2 held
        # not even its own centre and the greedy cover never ended
        path = tmp_path / "space.json"
        path.write_text(json.dumps({"embed_l1": [[0.0], [5e-324]]}))
        script = textwrap.dedent("""
            import json, sys, time
            from lipfree import cli
            start = time.perf_counter()
            code = cli.main(["bap", "--input", sys.argv[1], "--format", "json", "--output", sys.argv[2]])
            print(json.dumps({"code": code, "seconds": time.perf_counter() - start}))
        """)
        env = dict(os.environ, PYTHONPATH=str(Path(lipfree.__file__).resolve().parent.parent))
        proc = subprocess.run([sys.executable, "-c", script, str(path), str(tmp_path / "out.json")],
                              capture_output=True, text=True, env=env, timeout=60)
        assert proc.returncode == 0, proc.stderr[-2000:]
        run = json.loads(proc.stdout)
        assert run["code"] == 0 and run["seconds"] < 1.0
        estimate = json.loads((tmp_path / "out.json").read_text())["doubling_estimate"]
        assert estimate == doubling_estimate(line_space(2)) == 2

    def test_uniform_metric_needs_every_point(self):
        k = 5
        space = FinitePointedMetricSpace(
            labels=tuple(range(k)), dist=np.ones((k, k)) - np.eye(k), origin=0
        )
        assert doubling_estimate(space) == k


class TestChain:
    def test_chain_is_nested_and_exhausts(self):
        rng = np.random.default_rng(8)
        space = random_space(rng, 7)
        chain = farthest_point_chain(space)
        assert len(chain[0]) == 1 and space.origin in chain[0]
        for a, b in zip(chain, chain[1:]):
            assert set(a) <= set(b)
        assert set(chain[-1]) == set(range(7))

    def test_covering_radius_decreases_to_zero(self):
        rng = np.random.default_rng(9)
        space = random_space(rng, 8)
        radii = [covering_radius(space, subset) for subset in farthest_point_chain(space)]
        assert all(r2 <= r1 + 1e-12 for r1, r2 in zip(radii, radii[1:]))
        assert radii[-1] == 0.0

    def test_chain_table_rows(self):
        rng = np.random.default_rng(10)
        space = random_space(rng, 6)
        vals = rng.normal(size=6)
        vals[space.origin] = 0.0
        f = space_function(space, vals)
        rows = chain_table(space, f)
        assert [r.size for r in rows] == list(range(1, 7))
        assert rows[-1].max_err == 0.0
        assert rows[-1].k_hat == 0.0

    @pytest.mark.parametrize("scheme", extension.SCHEMES)
    @pytest.mark.parametrize("power", [-560, 290])
    def test_chain_table_is_exact_under_power_of_two_scaling(self, scheme, power):
        # the weights of the old formula underflowed or overflowed at these scales
        rng = np.random.default_rng(12)
        base = random_space(rng, 9)
        scale = 2.0 ** power
        scaled = FinitePointedMetricSpace(labels=base.labels, dist=base.dist * scale)
        rows, again = (chain_table(s, space_function(s, s.dist[s.origin]), scheme=scheme, p=4.0)
                       for s in (base, scaled))
        assert len(again) == len(rows) == 9
        for r, s in zip(rows, again):
            assert (s.size, s.k_hat, s.lip_ratio) == (r.size, r.k_hat, r.lip_ratio)
            assert (s.max_err, s.cov_radius) == (r.max_err * scale, r.cov_radius * scale)

    @pytest.mark.parametrize("scheme", extension.SCHEMES)
    def test_chain_table_builds_each_partition_once(self, monkeypatch, scheme):
        rng = np.random.default_rng(11)
        space = random_space(rng, 7)
        vals = rng.normal(size=7)
        vals[space.origin] = 0.0
        f = space_function(space, vals)
        calls = []

        def counted(*args, **kwargs):
            calls.append(args[1])
            return build_partition(*args, **kwargs)

        monkeypatch.setattr(extension, "build_partition", counted)
        rows = chain_table(space, f, scheme=scheme, p=1.5)
        assert len(calls) <= len(rows) == 7
        assert len(calls) == len(set(map(tuple, calls)))


def uniform_space(k, origin=0):
    return FinitePointedMetricSpace(labels=tuple(range(k)), dist=np.ones((k, k)) - np.eye(k),
                                    origin=origin)


def oracle_spaces():
    """Random spaces of 1-40 points, a uniform metric, the 3-point line, and a
    nearly symmetric lattice space, where d(i, j) and d(j, i) differ."""
    rng = np.random.default_rng(14)
    spaces = []
    for k in (1, 2, 3, 12, 40):
        pts = rng.uniform(-3, 3, size=(k, 3))
        spaces.append(FinitePointedMetricSpace.from_l1_points(pts, origin=int(rng.integers(k))))
    lattice = FinitePointedMetricSpace.from_l1_points(
        np.unique(rng.integers(-2, 3, size=(14, 2)), axis=0)).dist
    nudged = lattice + np.triu(np.full(lattice.shape, 1e-14), 1)
    spaces += [uniform_space(6, origin=2), line_space(3),
               FinitePointedMetricSpace(labels=tuple(range(len(nudged))), dist=nudged, origin=3)]
    return spaces


def chain_picks(chain):
    """The points of a chain in the order they were picked."""
    return [chain[0][0]] + [(set(b) - set(a)).pop() for a, b in zip(chain, chain[1:])]


class TestLoopOracles:
    @pytest.mark.parametrize("space", oracle_spaces(), ids=lambda s: f"k{s.size}")
    def test_chain_steps_match_the_loops_bit_for_bit(self, space):
        chain = farthest_point_chain(space)
        assert chain == looped_farthest_point_chain(space)
        for subset in chain:
            assert covering_radius(space, subset) == looped_covering_radius(space, subset)
            for scheme in extension.SCHEMES:
                part = build_partition(space, subset, scheme=scheme, p=1.5)
                assert np.array_equal(part.weights,
                                      looped_partition_weights(space, subset, scheme, 1.5))
                est = gentleness(part)
                assert (est.k_hat, est.worst_pair) == looped_gentleness(space, subset, part.weights)

    @pytest.mark.parametrize("function", ["origin-distance", "random"])
    @pytest.mark.parametrize("p", [1.5, 2.0, 4.0])
    @pytest.mark.parametrize("scheme", extension.SCHEMES)
    @pytest.mark.parametrize("space", oracle_spaces(), ids=lambda s: f"k{s.size}")
    def test_chain_table_matches_the_loop_bit_for_bit(self, space, scheme, p, function):
        if function == "random":
            values = np.random.default_rng(space.size).normal(size=space.size)
            values[space.origin] = 0.0
        else:
            values = space.dist[space.origin]
        f = space_function(space, values)
        rows = chain_table(space, f, scheme=scheme, p=p)
        assert len(rows) == space.size
        assert repr(rows) == repr(looped_chain_table(space, f, scheme=scheme, p=p))  # repr keeps every bit

    def test_an_overflowing_quotient_of_an_extension_names_the_pair(self):
        # f's own quotients are finite, but at the prefix {0, 1} point 2 blends
        # in the origin's 0, 1e-300 away from point 1's 1e100
        dist = np.array([[0.0, 1.0, 1.0], [1.0, 0.0, 1e-300], [1.0, 1e-300, 0.0]])
        space = FinitePointedMetricSpace(labels=(0, 1, 2), dist=dist)
        f = space_function(space, [0.0, 1e100, 1e100])
        assert lip_constant(f, space.dist) == 1e100
        message = r"the difference quotient of points 1, 2 \(values 1e\+100, .* at distance 1e-300\) is not finite"
        for table in (chain_table, looped_chain_table):
            with pytest.raises(ValueError, match=message):
                table(space, f, scheme="shepard-p", p=1e-3)

    def test_an_extended_value_past_the_magnitude_bound_names_the_point(self):
        # weights summing to one plus a rounding blend values at the bound past it
        pts = np.random.default_rng(0).uniform(-3, 3, size=(8, 2))
        pts[0] = [100.0, 100.0]
        space = FinitePointedMetricSpace.from_l1_points(pts)
        f = space_function(space, [0.0] + [1e100] * 7)
        message = r"value at point 6 is 1\.0000000000000002e\+100, beyond the magnitude bound"
        for table in (chain_table, looped_chain_table):
            with pytest.raises(ValueError, match=message):
                table(space, f)

    @pytest.mark.parametrize("scheme", extension.SCHEMES)
    def test_worst_pair_is_the_first_largest_ratio(self, scheme):
        # on the line with anchors {0, 2}, four ordered pairs share the ratio 1
        part = build_partition(line_space(3), [0, 2], scheme=scheme, p=1.0)
        assert gentleness(part) == extension.GentlenessEstimate(k_hat=1.0, worst_pair=(0, 1))

    @pytest.mark.parametrize("origin", [0, 2])
    def test_uniform_metric_picks_in_index_order(self, origin):
        picks = chain_picks(farthest_point_chain(uniform_space(6, origin)))
        assert picks == [origin] + [i for i in range(6) if i != origin]

    @pytest.mark.parametrize("space", oracle_spaces(), ids=lambda s: f"k{s.size}")
    def test_covering_radius_is_the_next_picks_distance(self, space):
        chain = farthest_point_chain(space)
        for prefix, pick in zip(chain, chain_picks(chain)[1:]):
            assert covering_radius(space, prefix) == min(space.dist[pick, j] for j in prefix)
        assert covering_radius(space, chain[-1]) == 0.0


def bap_pool_spaces(seed, tmp_path):
    """The spaces of the benchmark's ``bap`` pool for a seed."""
    return [FinitePointedMetricSpace.from_json(json.loads(op.input_path.read_text()))
            for op in make_pool("bap", seed, tmp_path)]


def largest_inv_dist_support(space):
    """Most anchors with positive ``inv-dist`` weight at one point, over the chain's prefixes."""
    return max(int(np.count_nonzero(build_partition(space, subset).weights > 0.0, axis=0).max())
               for subset in farthest_point_chain(space))


def slow_sweep_spaces(k):
    """The two shapes whose doubling sweep is slowest at the space cap, at ``k``
    points: a 16-d ``embed_l1`` space, and a metric with distances uniform in [1, 2]."""
    high = FinitePointedMetricSpace.from_l1_points(np.random.default_rng(16).uniform(-4.0, 4.0, size=(k, 16)))
    d = np.triu(np.random.default_rng(12).uniform(1.0, 2.0, size=(k, k)), 1)
    return [high, FinitePointedMetricSpace(labels=tuple(range(k)), dist=d + d.T)]


class TestSweptOracle:
    def test_oracle_spaces(self):
        for space in oracle_spaces():
            assert doubling_estimate(space) == swept_doubling_estimate(space)

    def test_benchmark_pool_and_slow_shapes(self, tmp_path):
        for space in bap_pool_spaces(201, tmp_path) + slow_sweep_spaces(30):
            assert doubling_estimate(space) == swept_doubling_estimate(space)


class TestMultiplicity:
    @pytest.mark.parametrize("space", oracle_spaces(), ids=lambda s: f"k{s.size}")
    def test_inv_dist_support_is_at_most_the_squared_estimate(self, space):
        assert largest_inv_dist_support(space) <= doubling_estimate(space) ** 2

    def test_on_the_benchmark_pool_spaces(self, tmp_path):
        spaces = bap_pool_spaces(201, tmp_path)
        assert {s.size for s in spaces} == {10, 11, 12}
        for space in spaces:
            assert largest_inv_dist_support(space) <= doubling_estimate(space) ** 2
