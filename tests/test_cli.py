import csv
import io
import json
import os
import resource
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

import lipfree
from lipfree.cli import main


def write_json(path, obj):
    path.write_text(json.dumps(obj))
    return str(path)


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def fail_milp(monkeypatch):
    """Make every HiGHS solve report failure; the solver imports SciPy when it runs."""
    from scipy import optimize

    def failing(*args, **kwargs):
        return optimize.OptimizeResult(success=False, status=4, message="numerical difficulties", x=None, fun=None)

    monkeypatch.setattr(optimize, "milp", failing)


TWO_POINT = {
    "space": "l1N",
    "dim": 2,
    "terms": [
        {"point": [1.0, 0.0], "coeff": 1.0},
        {"point": [0.0, 1.0], "coeff": -1.0},
    ],
}

LINE_THREE = {
    "space": "l1N",
    "dim": 1,
    "terms": [
        {"point": [1.0], "coeff": 1.0},
        {"point": [2.0], "coeff": -2.0},
        {"point": [3.0], "coeff": 1.0},
    ],
}


class TestNorm:
    def test_two_point_value(self, tmp_path, capsys):
        path = write_json(tmp_path / "mol.json", TWO_POINT)
        code, out, _ = run(capsys, ["norm", "--input", path])
        assert code == 0
        payload = json.loads(out)
        assert payload["value"] == pytest.approx(2.0, abs=1e-9)
        assert any(e["value"] != 0.0 for e in payload["witness"])

    def test_empty_molecule(self, tmp_path, capsys):
        path = write_json(tmp_path / "mol.json", {"space": "l1", "terms": []})
        code, out, _ = run(capsys, ["norm", "--input", path])
        assert code == 0
        assert json.loads(out)["value"] == 0.0

    def test_three_term_line(self, tmp_path, capsys):
        path = write_json(tmp_path / "mol.json", LINE_THREE)
        code, out, _ = run(capsys, ["norm", "--input", path])
        assert code == 0
        assert json.loads(out)["value"] == pytest.approx(2.0, abs=1e-9)

    def test_parse_error_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code, _, err = run(capsys, ["norm", "--input", str(bad)])
        assert code == 2
        assert "error" in err

    def test_missing_file_exits_2(self, capsys):
        code, _, _ = run(capsys, ["norm", "--input", "/nonexistent.json"])
        assert code == 2

    def test_huge_coordinates_exit_0_with_the_scaled_value(self, tmp_path, capsys):
        # HiGHS takes bounds of 1e20 or more as infinite; the program is scaled first
        big = {**TWO_POINT, "terms": [{**t, "point": [1e25 * v for v in t["point"]]} for t in TWO_POINT["terms"]]}
        code, out, err = run(capsys, ["norm", "--input", write_json(tmp_path / "mol.json", big)])
        assert (code, err) == (0, "")
        assert json.loads(out)["value"] == pytest.approx(2e25, rel=1e-12)

    def test_failing_solver_exits_3(self, tmp_path, capsys, monkeypatch):
        fail_milp(monkeypatch)
        code, out, err = run(capsys, ["norm", "--input", write_json(tmp_path / "mol.json", TWO_POINT)])
        assert code == 3
        assert out == "" and err == "solver error: numerical difficulties\n"

    def test_csv_format(self, tmp_path, capsys):
        path = write_json(tmp_path / "mol.json", TWO_POINT)
        code, out, _ = run(capsys, ["norm", "--input", path, "--format", "csv"])
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["point", "value"]
        assert float(rows[1][1]) == pytest.approx(2.0, abs=1e-9)


class TestProject:
    def test_builtin_function_rows(self, tmp_path, capsys):
        pts = write_json(tmp_path / "pts.json", {"points": [{"coords": {"1": 0.4}}, [0.25, 0.25]]})
        code, out, _ = run(capsys, ["project", "--input", pts, "--function", "l1-norm", "--n", "3"])
        assert code == 0
        payload = json.loads(out)
        assert len(payload["rows"]) == 2
        for row in payload["rows"]:
            assert set(row) == {"point", "value", "exact", "error", "bound"}
            assert row["error"] <= row["bound"] + 1e-9

    def test_coordinate_mode(self, tmp_path, capsys):
        pts = write_json(tmp_path / "pts.json", [[0.25, -0.25]])
        code, out, _ = run(
            capsys,
            ["project", "--input", pts, "--function", "l1-norm", "--n", "2", "--dim", "2"],
        )
        assert code == 0
        row = json.loads(out)["rows"][0]
        assert row["value"] == pytest.approx(0.5, abs=1e-12)
        assert row["exact"] == pytest.approx(0.5, abs=1e-12)

    def test_random_lattice_requires_seed(self, tmp_path, capsys):
        pts = write_json(tmp_path / "pts.json", [[0.5]])
        code, _, err = run(
            capsys,
            ["project", "--input", pts, "--function", "random-lattice", "--n", "2", "--dim", "1"],
        )
        assert code == 2
        assert "seed" in err

    def test_random_lattice_deterministic_given_seed(self, tmp_path, capsys):
        pts = write_json(tmp_path / "pts.json", [[0.5, 0.25]])
        argv = [
            "project", "--input", pts, "--function", "random-lattice",
            "--n", "2", "--dim", "2", "--seed", "42",
        ]
        code1, out1, _ = run(capsys, argv)
        code2, out2, _ = run(capsys, argv)
        assert code1 == code2 == 0
        assert out1 == out2

    def test_tabulated_function_file(self, tmp_path, capsys):
        fn = write_json(
            tmp_path / "fn.json",
            {"points": [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]], "values": [0.0, 1.0, -0.5]},
        )
        pts = write_json(tmp_path / "pts.json", [[0.5, 0.5]])
        code, out, _ = run(
            capsys,
            ["project", "--input", pts, "--function-file", fn, "--n", "2", "--dim", "2"],
        )
        assert code == 0
        assert json.loads(out)["rows"][0]["error"] >= 0.0


class TestFunctionFile:
    """A tabulated function file is validated when it is read, naming the file."""

    def run_with(self, tmp_path, capsys, table):
        fn = (tmp_path / "fn.json")
        fn.write_text(table)  # raw text: JSON's NaN and Infinity literals
        pts = write_json(tmp_path / "pts.json", [[0.5, 0.5]])
        return run(capsys, ["project", "--input", pts, "--function-file", str(fn), "--n", "2", "--dim", "2"])

    def test_non_finite_value_exits_2(self, tmp_path, capsys):
        table = '{"points": [[0, 0], [1, 0], [0, 1]], "values": [0, NaN, 1]}'
        code, out, err = self.run_with(tmp_path, capsys, table)
        assert code == 2
        assert out == "" and "fn.json" in err and "not finite" in err

    def test_point_of_wrong_dimension_exits_2(self, tmp_path, capsys):
        table = '{"points": [[0, 0], [1, 0, 0], [0, 1]], "values": [0, 1, 1]}'
        code, out, err = self.run_with(tmp_path, capsys, table)
        assert code == 2
        assert out == "" and "fn.json" in err and "dimension 2" in err

    def test_non_finite_coordinate_exits_2(self, tmp_path, capsys):
        table = '{"points": [[0, 0], [Infinity, 0], [0, 1]], "values": [0, 1, 1]}'
        code, out, err = self.run_with(tmp_path, capsys, table)
        assert code == 2
        assert out == "" and "fn.json" in err and "non-finite" in err

    def test_sequence_mode_non_finite_coordinate_exits_2(self, tmp_path, capsys):
        fn = tmp_path / "fn.json"
        fn.write_text('{"points": [{"coords": {}}, {"coords": {"2": NaN}}], "values": [0, 1]}')
        pts = write_json(tmp_path / "pts.json", [{"coords": {"1": 0.5}}])
        code, out, err = run(capsys, ["project", "--input", pts, "--function-file", str(fn), "--n", "2"])
        assert code == 2
        assert out == "" and "fn.json" in err and "not finite" in err

    def test_overflowing_lip_constant_exits_2_naming_the_pair(self, tmp_path, capsys):
        fn = write_json(tmp_path / "fn.json", {"points": [[0, 0], [1e-300, 0], [0, 1]], "values": [0, 1e10, 1]})
        pts = write_json(tmp_path / "pts.json", [[0.5, 0.5]])
        code, out, err = run(capsys, ["project", "--dim", "2", "--n", "3", "--function-file", fn, "--input", pts])
        assert code == 2
        assert out == "" and "fn.json" in err and "(0.0, 0.0), (1e-300, 0.0)" in err and "not finite" in err


class TestFddTable:
    def test_non_dyadic_molecule_error_decays(self, tmp_path, capsys):
        mol = write_json(
            tmp_path / "mol.json",
            {"space": "l1", "terms": [{"point": {"coords": {"1": 1.0 / 3.0}}, "coeff": 1.0}]},
        )
        code, out, _ = run(capsys, ["fdd-table", "--input", mol, "--n-max", "12"])
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["n", "norm", "err", "bound", "support_size"]
        assert len(rows) == 13
        last_err = float(rows[-1][2])
        assert 0.0 < last_err < 1e-3

    def test_grid_supported_molecule_error_vanishes(self, tmp_path, capsys):
        mol = write_json(
            tmp_path / "mol.json",
            {"space": "l1N", "dim": 1, "terms": [{"point": [0.5], "coeff": 2.0}]},
        )
        code, out, _ = run(capsys, ["fdd-table", "--input", mol, "--n-max", "4", "--format", "csv"])
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))[1:]
        for row in rows:
            if int(row[0]) >= 2:
                assert float(row[2]) <= 1e-12

    def test_support_size_stays_under_rank_bound(self, tmp_path, capsys):
        mol = write_json(
            tmp_path / "mol.json",
            {
                "space": "l1N",
                "dim": 2,
                "terms": [
                    {"point": [0.3, -0.7], "coeff": 1.0},
                    {"point": [1.1, 0.2], "coeff": -2.0},
                ],
            },
        )
        code, out, _ = run(capsys, ["fdd-table", "--input", mol, "--n-max", "4"])
        assert code == 0
        for row in list(csv.reader(io.StringIO(out)))[1:]:
            n, size = int(row[0]), int(row[4])
            # cells of the coordinate mode are always 2-dimensional, so the
            # support lives in the level-n vertex grid of the plane and each
            # input point spreads over at most one cell's corners
            assert size <= ((2 ** (2 * n - 1)) + 1) ** 2
            assert size <= 2 * 2**2

    @pytest.mark.parametrize("n_max", [0, 21])
    def test_n_max_outside_levels_exits_2_before_any_norm(self, tmp_path, capsys, monkeypatch, n_max):
        calls = []

        def counted(mu):
            calls.append(mu)
            return free_norm(mu)

        free_norm = lipfree.freespace.free_norm
        monkeypatch.setattr(lipfree.freespace, "free_norm", counted)
        solve_box_lp = lipfree.freespace.solve_box_lp
        monkeypatch.setattr(lipfree.freespace, "solve_box_lp", lambda *args: calls.append(args) or solve_box_lp(*args))
        mol = write_json(tmp_path / "mol.json", TWO_POINT)
        code, out, err = run(capsys, ["fdd-table", "--input", mol, "--n-max", str(n_max)])
        assert code == 2
        assert out == "" and f"n_max must be in 1..20, got {n_max}" in err
        assert calls == []

    def test_failing_solver_exits_3(self, tmp_path, capsys, monkeypatch):
        fail_milp(monkeypatch)
        mol = write_json(tmp_path / "mol.json", TWO_POINT)
        code, out, err = run(capsys, ["fdd-table", "--input", mol, "--n-max", "3"])
        assert code == 3
        assert out == "" and err == "solver error: numerical difficulties\n"

    def test_json_format_carries_checks(self, tmp_path, capsys):
        mol = write_json(tmp_path / "mol.json", TWO_POINT)
        code, out, _ = run(capsys, ["fdd-table", "--input", mol, "--n-max", "3", "--format", "json"])
        assert code == 0
        payload = json.loads(out)
        assert payload["passed"] is True
        assert payload["monotone_ok"] and payload["lattice_ok"]


class TestVerify:
    def test_single_suite_runs_clean(self, capsys):
        code, out, _ = run(capsys, ["verify", "--suite", "interp-weight-simplex"])
        assert code == 0
        payload = json.loads(out)
        assert payload["passed"] is True
        assert payload["suites"][0]["name"] == "interp-weight-simplex"

    @pytest.mark.parametrize("suite", ["interp-linearity", "operators-boundary-affinity"])
    def test_numpy_scalar_verdicts_render(self, capsys, suite):
        code, out, _ = run(capsys, ["verify", "--suite", suite])
        assert code == 0
        assert json.loads(out)["suites"][0]["passed"] is True

    def test_unknown_suite_exits_2(self, capsys):
        code, _, _ = run(capsys, ["verify", "--suite", "no-such-suite"])
        assert code == 2

    def test_injected_weight_fault_fails_the_suite(self, capsys):
        import lipfree.interpolation as interpolation

        interpolation._WEIGHT_FAULT = True
        try:
            code, out, _ = run(capsys, ["verify", "--suite", "interp-weight-simplex"])
        finally:
            interpolation._WEIGHT_FAULT = False
        assert code == 1
        assert json.loads(out)["passed"] is False


class TestBap:
    def test_chain_rows_and_doubling_header(self, tmp_path, capsys):
        space = write_json(
            tmp_path / "space.json",
            {"embed_l1": [[0.0, 0.0], [1.0, 0.0], [0.0, 2.0], [1.5, 1.5]], "origin": 0},
        )
        code, out, _ = run(capsys, ["bap", "--input", space])
        assert code == 0
        lines = out.splitlines()
        assert lines[0].startswith("# doubling_estimate=")
        rows = list(csv.reader(io.StringIO("\n".join(lines[1:]))))
        assert rows[0] == ["n", "k_hat", "lip_ratio", "max_err"]
        assert float(rows[-1][3]) == 0.0  # full chain reproduces the function

    def test_triangle_violation_exits_2_naming_triple(self, tmp_path, capsys):
        space = write_json(
            tmp_path / "space.json",
            {
                "points": [0, 1, 2],
                "dist": [[0.0, 1.0, 9.0], [1.0, 0.0, 1.0], [9.0, 1.0, 0.0]],
                "origin": 0,
            },
        )
        code, _, err = run(capsys, ["bap", "--input", space])
        assert code == 2
        assert "triangle" in err and "(0, 1, 2)" in err

    def test_random_function_requires_seed(self, tmp_path, capsys):
        space = write_json(tmp_path / "space.json", {"embed_l1": [[0.0], [1.0]], "origin": 0})
        code, _, _ = run(capsys, ["bap", "--input", space, "--function", "random"])
        assert code == 2

    def test_uniform_metric_space_reports_finite_constants(self, tmp_path, capsys):
        k = 5
        dist = [[0.0 if i == j else 1.0 for j in range(k)] for i in range(k)]
        space = write_json(
            tmp_path / "space.json", {"points": list(range(k)), "dist": dist, "origin": 0}
        )
        code, out, _ = run(capsys, ["bap", "--input", space, "--function", "random", "--seed", "3"])
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "# doubling_estimate=5 scheme=inv-dist"
        rows = list(csv.reader(io.StringIO("\n".join(lines[1:]))))[1:]
        for row in rows:
            assert np.isfinite(float(row[1]))

    def test_non_finite_distance_exits_2_naming_pair(self, tmp_path, capsys):
        nan = float("nan")
        space = write_json(
            tmp_path / "space.json",
            {"points": [0, 1, 2], "dist": [[0.0, 1.0, nan], [1.0, 0.0, 1.0], [nan, 1.0, 0.0]]},
        )
        code, out, err = run(capsys, ["bap", "--input", space])
        assert code == 2
        assert out == "" and "(0, 2) is not finite" in err

    @pytest.mark.parametrize("p", ["-1", "nan", "0", "inf"])
    @pytest.mark.parametrize("coords", [[[0.0]], [[0.0], [1.0], [3.0]]])
    def test_bad_shepard_exponent_exits_2_naming_it(self, tmp_path, capsys, coords, p):
        space = write_json(tmp_path / "space.json", {"embed_l1": coords, "origin": 0})
        code, out, err = run(capsys, ["bap", "--input", space, "--scheme", "shepard-p", f"--p={p}"])
        assert code == 2
        assert out == "" and f"shepard-p exponent p must be positive and finite, got {float(p)}" in err

    @pytest.mark.parametrize("coords, extra", [
        ([[0.0], [1e-170], [2e-170]], []),
        ([[0.0], [1e-170], [2e-170]], ["--scheme", "shepard-p"]),
        ([[0.0], [1e90], [3e90]], ["--scheme", "shepard-p", "--p", "4"]),
    ])
    def test_tiny_and_huge_distances_answer_without_warnings(self, tmp_path, capsys, coords, extra):
        space = write_json(tmp_path / "space.json", {"embed_l1": coords, "origin": 0})
        code, out, err = run(capsys, ["bap", "--input", space, "--format", "json", *extra])
        assert code == 0 and err == ""  # and no warning, which the test configuration makes an error
        rows = json.loads(out)["rows"]
        assert rows[-1]["max_err"] == 0.0 and all(r["k_hat"] > 0 for r in rows[:-1])

    def test_json_format(self, tmp_path, capsys):
        space = write_json(
            tmp_path / "space.json", {"embed_l1": [[0.0], [1.0], [3.0]], "origin": 0}
        )
        code, out, _ = run(capsys, ["bap", "--input", space, "--format", "json"])
        assert code == 0
        payload = json.loads(out)
        assert payload["doubling_estimate"] >= 1
        assert payload["rows"][-1]["max_err"] == 0.0


class TestSpaceCap:
    def test_a_space_at_the_cap_answers(self, tmp_path, capsys):
        k = lipfree.extension.MAX_SPACE_POINTS
        dist = [[float(abs(i - j)) for j in range(k)] for i in range(k)]
        for space in ({"embed_l1": [[float(i)] for i in range(k)]}, {"points": list(range(k)), "dist": dist}):
            mol = write_json(tmp_path / "mol.json", {"space": "finite", "metric_space": space,
                                                     "terms": [{"point": k - 1, "coeff": 1.0}]})
            code, out, _ = run(capsys, ["norm", "--input", mol, "--format", "json"])
            assert code == 0 and json.loads(out)["value"] == k - 1

    @pytest.mark.parametrize("argv", [["bap"], ["norm"]])
    def test_one_point_past_the_cap_exits_2_before_any_distance(self, tmp_path, capsys, monkeypatch, argv):
        k = lipfree.extension.MAX_SPACE_POINTS + 1

        def no_distances(*args):
            raise AssertionError("a distance was computed")

        monkeypatch.setattr(lipfree.extension, "l1_distances", no_distances)
        bad = [[0.0 if i == j else (9.0 if {i, j} == {0, 2} else 1.0) for j in range(k)] for i in range(k)]
        for space in ({"embed_l1": [[float(i)] for i in range(k)]}, {"points": list(range(k)), "dist": bad}):
            obj = space if argv == ["bap"] else {"space": "finite", "metric_space": space, "terms": []}
            code, out, err = run(capsys, [*argv, "--input", write_json(tmp_path / "in.json", obj)])
            assert code == 2
            assert out == "" and f"the metric space has {k} points" in err


class TestInputErrors:
    @pytest.mark.parametrize("argv", [
        ["norm"],
        ["project", "--n", "2"],
        ["fdd-table", "--n-max", "2"],
    ])
    def test_tol_is_not_a_flag(self, tmp_path, capsys, argv):
        # the tolerances are fixed: --tol 1 once gave norm 32.11 for 37.10
        path = write_json(tmp_path / "mol.json", TWO_POINT)
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--input", path, "--tol", "1e-9"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --tol" in capsys.readouterr().err

    @pytest.mark.parametrize("coords", [[1, 2, 3], []])
    def test_flat_or_empty_embedding_exits_2_naming_file(self, tmp_path, capsys, coords):
        path = write_json(tmp_path / "space.json", {"embed_l1": coords})
        code, out, err = run(capsys, ["bap", "--input", path])
        assert code == 2
        assert out == "" and "space.json" in err

    @pytest.mark.parametrize("argv, obj, key", [
        (["bap"], {"points": [0, 1]}, "dist"),
        (["project", "--n", "2"], {"pts": [[0.5]]}, "points"),
        (["project", "--n", "2"], [{"index": 1}], "coords"),
    ])
    def test_missing_key_exits_2_naming_it(self, tmp_path, capsys, argv, obj, key):
        path = write_json(tmp_path / "in.json", obj)
        code, out, err = run(capsys, [*argv, "--input", path])
        assert code == 2
        assert out == "" and f"missing key '{key}'" in err

    @pytest.mark.parametrize("flags, message", [
        (["--n", "2", "--dim", "0"], f"ambient dimension must be in 1..{lipfree.operators.MAX_DIM}, got 0"),
        (["--n", "0"], f"level must be in 1..{lipfree.operators.MAX_LEVEL}, got 0"),
        (["--n", "21"], f"level must be in 1..{lipfree.operators.MAX_LEVEL}, got 21"),
    ])
    def test_project_checks_level_and_dimension_before_reading_input(self, tmp_path, capsys, flags, message):
        code, out, err = run(capsys, ["project", "--input", str(tmp_path / "absent.json"), *flags])
        assert code == 2
        assert out == "" and message in err

    def test_malformed_point_exits_2(self, tmp_path, capsys):
        path = write_json(tmp_path / "in.json", [{"coords": 5}])
        code, out, err = run(capsys, ["project", "--input", path, "--n", "2"])
        assert code == 2
        assert out == "" and "in.json" in err

    def test_sparse_point_beyond_dim_exits_2(self, tmp_path, capsys):
        path = write_json(tmp_path / "in.json", [{"coords": {"1": 0.5}}, {"coords": {"5": 1.0}}])
        code, out, err = run(capsys, ["project", "--input", path, "--n", "2", "--dim", "2"])
        assert code == 2
        assert out == "" and "in.json" in err and "beyond dimension 2" in err

    def test_nested_coordinate_point_exits_2_naming_it(self, tmp_path, capsys):
        path = write_json(tmp_path / "in.json", {"space": "l1N", "terms": [{"point": [[1]], "coeff": 1}]})
        code, out, err = run(capsys, ["norm", "--input", path])
        assert code == 2
        assert out == "" and "in.json" in err and "[[1]]" in err

    def test_type_error_in_a_command_is_not_an_input_error(self, tmp_path, monkeypatch):
        def broken(*args, **kwargs):
            raise TypeError("unsupported operand")

        monkeypatch.setattr(lipfree.extension, "chain_table", broken)
        space = write_json(tmp_path / "space.json", {"embed_l1": [[0.0], [1.0]], "origin": 0})
        with pytest.raises(TypeError, match="unsupported operand"):
            main(["bap", "--input", space])


class TestOutputs:
    def test_atomic_output_file(self, tmp_path, capsys):
        mol = write_json(tmp_path / "mol.json", TWO_POINT)
        target = tmp_path / "out.json"
        code, out, _ = run(capsys, ["norm", "--input", mol, "--output", str(target)])
        assert code == 0
        assert out == ""
        assert json.loads(target.read_text())["value"] == pytest.approx(2.0, abs=1e-9)
        assert not (tmp_path / "out.json.tmp").exists()

    def test_reused_parser_matches_a_fresh_one(self, tmp_path, capsys):
        from lipfree.cli import _build_parser

        space = write_json(tmp_path / "space.json", {"embed_l1": [[0.0, 0.0], [1.0, 0.5], [-0.5, 2.0]], "origin": 0})
        norm = ["norm", "--input", write_json(tmp_path / "mol.json", TWO_POINT), "--format", "csv"]
        bap = ["bap", "--input", space, "--scheme", "shepard-p"]
        fresh = {}
        for argv in (norm, bap):
            _build_parser.cache_clear()
            fresh[argv[0]] = run(capsys, argv)
        assert _build_parser() is _build_parser()
        for argv in (norm, bap, norm):
            assert run(capsys, argv) == fresh[argv[0]]

    def test_round_trip_through_own_parsers(self, tmp_path, capsys):
        from lipfree.freespace import Molecule, free_norm

        mol = write_json(tmp_path / "mol.json", LINE_THREE)
        code, out, _ = run(capsys, ["norm", "--input", mol, "--format", "json"])
        assert code == 0
        payload = json.loads(out)
        mu = Molecule.from_json(LINE_THREE)
        assert payload["value"] == pytest.approx(free_norm(mu).value, abs=1e-12)


def run_module(argv, cap_bytes=None, timeout=120):
    """Run ``python -m lipfree.cli`` in a child process, optionally under an
    address-space cap; returns the completed process and its wall time."""
    src = str(Path(lipfree.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (cap_bytes, cap_bytes))

    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "lipfree.cli", *argv], capture_output=True,
                          text=True, env=env, timeout=timeout,
                          preexec_fn=cap if cap_bytes else None)
    return proc, time.perf_counter() - t0


class TestNonFinite:
    def test_nan_coefficient_exits_2(self, tmp_path, capsys):
        mol = {"space": "l1N", "dim": 1, "terms": [{"point": [1.0], "coeff": float("nan")}]}
        code, out, err = run(capsys, ["norm", "--input", write_json(tmp_path / "mol.json", mol)])
        assert code == 2
        assert out == "" and "not finite" in err

    def test_infinite_coordinate_exits_2(self, tmp_path, capsys):
        mol = {"space": "l1N", "dim": 2, "terms": [{"point": [float("inf"), 0.0], "coeff": 1.0}]}
        code, out, err = run(capsys, ["norm", "--input", write_json(tmp_path / "mol.json", mol)])
        assert code == 2
        assert out == "" and "non-finite" in err

    def test_non_finite_result_exits_2(self, tmp_path, capsys):
        # finite inputs whose distance overflows to infinity
        mol = {"space": "l1N", "dim": 1,
               "terms": [{"point": [1e308], "coeff": 1.0}, {"point": [-1e308], "coeff": -1.0}]}
        path = write_json(tmp_path / "mol.json", mol)
        with np.errstate(over="ignore"):
            for fmt in ("json", "csv"):
                code, out, err = run(capsys, ["norm", "--input", path, "--format", fmt])
                assert code == 2
                assert out == "" and "error" in err


class TestMagnitudeBound:
    """Inputs beyond the magnitude bound exit 2 naming the file and the value."""

    def check(self, capsys, argv, name, value):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, argv)
        assert code == 2
        assert out == "" and name in err and value in err and "magnitude bound" in err

    def test_sequence_point_value(self, tmp_path, capsys):
        pts = write_json(tmp_path / "in.json", [{"coords": {"2": 1e101}}])
        self.check(capsys, ["project", "--input", pts, "--n", "2"], "in.json", "1e+101")

    def test_coordinate_point(self, tmp_path, capsys):
        pts = write_json(tmp_path / "in.json", [[0.5, -1e101]])
        self.check(capsys, ["project", "--input", pts, "--n", "2", "--dim", "2"], "in.json", "-1e+101")

    def test_molecule_coordinate(self, tmp_path, capsys):
        mol = {"space": "l1N", "dim": 1,
               "terms": [{"point": [1e308], "coeff": 1.0}, {"point": [-1e308], "coeff": -1.0}]}
        path = write_json(tmp_path / "mol.json", mol)
        self.check(capsys, ["norm", "--input", path], "mol.json", "1e+308")

    def test_molecule_coefficient(self, tmp_path, capsys):
        mol = {"space": "l1N", "dim": 1, "terms": [{"point": [1.0], "coeff": 1e101}]}
        path = write_json(tmp_path / "mol.json", mol)
        self.check(capsys, ["norm", "--input", path], "mol.json", "1e+101")

    def test_metric_space_distance(self, tmp_path, capsys):
        space = write_json(tmp_path / "space.json", {"points": [0, 1], "dist": [[0, 1e101], [1e101, 0]]})
        self.check(capsys, ["bap", "--input", space], "space.json", "1e+101")

    def test_tabulated_value(self, tmp_path, capsys):
        fn = write_json(tmp_path / "fn.json", {"points": [[0, 0], [1, 0], [0, 1]], "values": [0, 1e101, 1]})
        pts = write_json(tmp_path / "pts.json", [[0.5, 0.5]])
        argv = ["project", "--input", pts, "--function-file", fn, "--n", "2", "--dim", "2"]
        self.check(capsys, argv, "fn.json", "1e+101")

    def test_no_runtime_warning_reaches_stderr(self, tmp_path):
        mol = {"space": "l1", "terms": [{"point": {"coords": {"1": 1e308}}, "coeff": 1.0},
                                        {"point": {"coords": {"1": -1e308}}, "coeff": -1.0}]}
        proc, _ = run_module(["norm", "--input", write_json(tmp_path / "mol.json", mol)])
        assert proc.returncode == 2 and proc.stdout == ""
        assert proc.stderr.startswith("error: ") and "mol.json" in proc.stderr
        assert "Warning" not in proc.stderr


class TestModuleEntry:
    def test_importing_the_cli_leaves_scipy_unloaded(self):
        src = str(Path(lipfree.__file__).resolve().parent.parent)
        code = f"import sys; sys.path.insert(0, {src!r}); import lipfree.cli; print('scipy' in sys.modules)"
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60)
        assert (proc.returncode, proc.stdout) == (0, "False\n"), proc.stderr

    def test_python_dash_m_runs_the_cli(self):
        proc, _ = run_module(["verify", "--suite", "geometry-retraction"])
        assert proc.returncode == 0, proc.stderr
        payload = json.loads(proc.stdout)
        assert payload["passed"] is True
        assert [s["name"] for s in payload["suites"]] == ["geometry-retraction"]

    def test_level_20_runs_in_bounded_memory(self, tmp_path):
        # Sparse points reach only the 2**s weighted corners of their cells;
        # a dense expansion of the 2**20 corners needs gigabytes.
        rng = np.random.default_rng(20)

        def sparse_point():
            idx = sorted(int(i) for i in rng.choice(np.arange(1, 31), size=3, replace=False))
            return {"coords": {str(i): float(rng.uniform(-3, 3)) for i in idx}}

        pts = write_json(tmp_path / "pts.json", {"points": [sparse_point() for _ in range(100)]})
        mol = write_json(tmp_path / "mol.json", {"space": "l1", "terms": [
            {"point": sparse_point(), "coeff": float(rng.normal())} for _ in range(5)]})
        commands = (["project", "--input", pts, "--n", "20"],
                    ["fdd-table", "--input", mol, "--n-max", "20", "--format", "json"])
        for argv, rows in zip(commands, (100, 20)):
            out = tmp_path / "out.json"
            proc, elapsed = run_module([*argv, "--output", str(out)], cap_bytes=1536 * 2**20)
            assert proc.returncode == 0, proc.stderr[-2000:]
            assert elapsed < 10.0
            assert len(json.loads(out.read_text())["rows"]) == rows


class TestCornerBlocks:
    def test_points_past_the_corner_cap_answer_in_blocks(self, tmp_path):
        # three 16-d points with every axis free reach 3 * 2**16 corners, past
        # the cap of one expansion; each point alone fits, so the batch answers
        from lipfree import operators

        pts = np.random.default_rng(3).uniform(-0.9, 0.9, size=(3, 16))
        out = tmp_path / "out.json"
        argv = ["project", "--input", write_json(tmp_path / "pts.json", pts.tolist()), "--dim", "16", "--n", "2",
                "--function", "random-lattice", "--seed", "3", "--output", str(out)]
        proc, elapsed = run_module(argv, cap_bytes=1536 * 2**20, timeout=60)
        assert proc.returncode == 0, proc.stderr[-2000:]
        assert elapsed < 10.0
        f = operators.random_lattice_function(np.random.default_rng(3), dim=16)
        alone = [operators.project_values(f, [p], operators.GridLevel(2, 16))[0] for p in pts]
        assert [row["value"] for row in json.loads(out.read_text())["rows"]] == alone

    def test_a_batch_at_the_total_corner_cap_answers(self, tmp_path):
        from lipfree import operators

        pts = np.random.default_rng(4).uniform(-0.9, 0.9, size=(4, 16))  # 4 * 2**16 corners
        assert 4 * 2**16 == operators.MAX_BATCH_CORNERS
        out = tmp_path / "out.json"
        argv = ["project", "--input", write_json(tmp_path / "pts.json", pts.tolist()), "--dim", "16", "--n", "2",
                "--function", "random-lattice", "--seed", "3", "--output", str(out)]
        proc, elapsed = run_module(argv, cap_bytes=1536 * 2**20, timeout=60)
        assert proc.returncode == 0, proc.stderr[-2000:]
        assert elapsed < 10.0
        assert len(json.loads(out.read_text())["rows"]) == 4


class TestBlowUpsRefused:
    """Inputs within the caps whose corner count or norm size explodes exit 2,
    naming the count, before they exhaust memory or run for minutes."""

    COORDS = [0.01 + 0.98 * ((i * 0.618034) % 1.0) for i in range(20)]  # all off the grid

    def check(self, argv, count):
        proc, elapsed = run_module(argv, cap_bytes=1536 * 2**20, timeout=30)
        assert proc.returncode == 2, proc.stderr[-2000:]
        assert proc.stdout == "" and proc.stderr.startswith("error: ") and str(count) in proc.stderr
        assert elapsed < 10.0
        return proc.stderr

    def test_a_batch_past_the_total_corner_cap(self, tmp_path):
        # each point alone fits one expansion; all five reach 5 * 2**16 corners
        pts = np.random.default_rng(4).uniform(-0.9, 0.9, size=(5, 16))
        argv = ["project", "--input", write_json(tmp_path / "pts.json", pts.tolist()), "--dim", "16", "--n", "2",
                "--function", "random-lattice", "--seed", "3"]
        assert f"more than the {2**18} one batch expands" in self.check(argv, 5 * 2**16)

    def test_twenty_free_coordinates_at_level_20(self, tmp_path):
        point = {"coords": {str(i + 1): v for i, v in enumerate(self.COORDS)}}
        self.check(["project", "--input", write_json(tmp_path / "pts.json", [point]), "--n", "20"], 2**20)

    def test_fdd_levels_beyond_the_norm_size(self, tmp_path):
        point = {"coords": {str(i + 1): v for i, v in enumerate(self.COORDS[:12])}}
        mol = write_json(tmp_path / "mol.json", {"space": "l1", "terms": [{"point": point, "coeff": 1.0}]})
        # level 9 spreads the point over 2**9 corners; its error molecule adds the point itself
        self.check(["fdd-table", "--input", mol, "--n-max", "12"], 2**9 + 1)


class TestEmitFailure:
    def test_failed_replace_leaves_no_file(self, tmp_path, capsys, monkeypatch):
        mol = write_json(tmp_path / "mol.json", TWO_POINT)

        def refuse(src, dst):
            raise OSError("replace refused")

        monkeypatch.setattr(os, "replace", refuse)
        code, out, err = run(capsys, ["norm", "--input", mol, "--output", str(tmp_path / "out.json")])
        assert code == 2
        assert "replace refused" in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["mol.json"]
