"""Command line entry points.

Subcommands: ``norm`` (molecule norm with witness), ``project`` (grid
projection of a function at sample points with error and bound),
``fdd-table`` (per-level projection diagnostics of a molecule), ``verify``
(the seeded self-verification suites) and ``bap`` (restrict-extend
diagnostics along a farthest-point chain of a finite metric space).

Exit codes: 0 ok, 1 verification-suite failure, 2 input error or a
non-finite result, 3 solver error.  Output goes to stdout or is written
atomically to ``--output``.  ``python -m lipfree.cli`` runs the command line.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import io
import json
import math
import os
import sys
import tempfile

import numpy as np

from . import extension, freespace, operators, verify
from .geometry import as_index, coordinate_rows, sparse_point
from .interpolation import TabulatedFunction

_BUILTIN_FUNCTIONS = ("identity-coordinate", "l1-norm", "max-coordinate", "random-lattice")


@functools.cache  # built once per process; parse_args returns a fresh namespace
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="lipfree")
    sub = parser.add_subparsers(dest="command", required=True)

    norm = sub.add_parser("norm", help="exact norm of a molecule with the dual witness")
    norm.add_argument("--input", required=True, help="molecule JSON file")
    _io_flags(norm, default_format="json")

    project = sub.add_parser("project", help="grid projection of a function at sample points")
    project.add_argument("--input", required=True, help="sample points JSON file")
    project.add_argument("--function", default="l1-norm",
                         help=f"builtin name {_BUILTIN_FUNCTIONS} or use --function-file")
    project.add_argument("--function-file", help="tabulated function JSON file")
    project.add_argument("--n", type=int, required=True, help="projection level")
    project.add_argument("--dim", type=int, help="coordinate mode dimension (default: sequence mode)")
    project.add_argument("--seed", type=int, help="seed (required for random-lattice)")
    _io_flags(project, default_format="json")

    fdd = sub.add_parser("fdd-table", help="per-level projection table for a molecule")
    fdd.add_argument("--input", required=True, help="molecule JSON file")
    fdd.add_argument("--n-max", type=int, required=True)
    _io_flags(fdd, default_format="csv")

    ver = sub.add_parser("verify", help="run the seeded self-verification suites")
    ver.add_argument("--seed", type=int, default=verify.DEFAULT_SEED)
    ver.add_argument("--suite", help="run a single named suite")
    _io_flags(ver, default_format="json")

    bap = sub.add_parser("bap", help="restrict-extend diagnostics along a farthest-point chain")
    bap.add_argument("--input", required=True, help="metric space JSON file")
    bap.add_argument("--scheme", choices=extension.SCHEMES, default="inv-dist")
    bap.add_argument("--p", type=float, default=2.0, help="shepard exponent")
    bap.add_argument("--function", choices=("origin-distance", "random"), default="origin-distance")
    bap.add_argument("--seed", type=int, help="seed (required for --function random)")
    _io_flags(bap, default_format="csv")
    return parser


def _io_flags(cmd, default_format):
    cmd.add_argument("--format", choices=("json", "csv"), default=default_format)
    cmd.add_argument("--output", help="write here (atomically) instead of stdout")


def _load(path, build):
    """``build`` applied to the JSON in ``path``; a missing key or an invalid
    value is an input error (ValueError) naming the file."""
    with open(path, "r", encoding="utf-8") as fh:
        obj = json.load(fh)
    try:
        return build(obj)
    except KeyError as exc:
        raise ValueError(f"{path}: missing key {exc.args[0]!r}") from exc
    except (ValueError, TypeError, AttributeError, OverflowError) as exc:  # OverflowError: an int past float range
        raise ValueError(f"{path}: {exc}") from exc


def _load_molecule(path) -> freespace.Molecule:
    return _load(path, freespace.Molecule.from_json)


def _read_points(objs, dim):
    """Points read from a file: sparse points by :func:`sparse_point`, or with
    ``dim`` coordinate rows from one :func:`coordinate_rows` pass, a sparse
    point standing for its leading coordinates."""
    if dim is None:
        return [sparse_point(p) for p in objs]
    return coordinate_rows([_leading(sparse_point(p), dim) if isinstance(p, dict) else p for p in objs], dim)


def _leading(point, dim):
    if point.support and point.support[-1] > dim:
        raise ValueError(f"point {point.to_json()} has an index beyond dimension {dim}")
    return point.leading(dim)


def _resolve_function(args) -> operators.LipFunction:
    if args.function_file:
        def build(obj):
            pts = _read_points(obj["points"], args.dim)
            return operators.tabulated_lip_function(TabulatedFunction(
                points=tuple(pts if args.dim is None else map(tuple, pts.tolist())), values=tuple(obj["values"]),
                origin=as_index(obj.get("origin", 0), "origin")))

        return _load(args.function_file, build)
    name = args.function
    if name == "identity-coordinate":
        return operators.coordinate_function(1)
    if name == "l1-norm":
        return operators.l1_norm_function()
    if name == "max-coordinate":
        return operators.max_coordinate_function()
    if name == "random-lattice":
        if args.seed is None:
            raise ValueError("--seed is required for the random-lattice function")
        return operators.random_lattice_function(np.random.default_rng(args.seed), dim=args.dim)
    raise ValueError(f"unknown function {name!r}; builtins are {_BUILTIN_FUNCTIONS}")


def _cmd_norm(args):
    mu = _load_molecule(args.input)
    cert = freespace.free_norm(mu)
    payload = cert.to_json(mu)

    def table():
        rows = [["value", cert.value]]
        rows += [[json.dumps(e["point"]), e["value"]] for e in payload["witness"]]
        return {"columns": ["point", "value"], "rows": rows}

    return payload, table, 0


def _cmd_project(args):
    operators.GridLevel(args.n, args.dim)  # check --n and --dim before reading input
    points = _load(args.input, lambda obj: _read_points(obj["points"] if isinstance(obj, dict) else obj, args.dim))
    f = _resolve_function(args)
    checks = operators.convergence_checks(f, points, args.n, dim=args.dim)
    names = ("value", "exact", "error", "bound")
    columns = [getattr(checks, name).tolist() for name in names]
    encoded = [p.to_json() for p in points] if args.dim is None else points.tolist()
    rows = [{"point": p, **dict(zip(names, r))} for p, *r in zip(encoded, *columns)]
    payload = {"function": f.label, "n": args.n, "rows": rows}

    def table():
        return {"columns": ["point", *names],
                "rows": [[json.dumps(r["point"]), *c] for r, *c in zip(rows, *columns)]}

    return payload, table, 0


def _cmd_fdd_table(args):
    mu = _load_molecule(args.input)
    report = freespace.decomposition_report(mu, args.n_max)
    payload = report.to_json()

    def table():
        return {"columns": ["n", "norm", "err", "bound", "support_size"],
                "rows": [[r.n, r.norm_value, r.err_value, r.bound, r.support_size] for r in report.rows]}

    return payload, table, 0


def _cmd_verify(args):
    report = verify.run_verification(seed=args.seed, only=args.suite)
    payload = report.to_json()

    def table():
        return {"columns": ["suite", "passed", "worst_case"],
                "rows": [[s["name"], s["passed"], s["worst_case"]] for s in payload["suites"]]}

    return payload, table, 0 if report.passed else 1


def _cmd_bap(args):
    space = _load(args.input, extension.FinitePointedMetricSpace.from_json)
    if args.function == "origin-distance":
        values = [float(space.dist[space.origin, i]) for i in range(space.size)]
    else:
        if args.seed is None:
            raise ValueError("--seed is required for --function random")
        rng = np.random.default_rng(args.seed)
        values = [float(v) for v in rng.normal(size=space.size)]
        values[space.origin] = 0.0
    f = extension.space_function(space, values)
    rows = extension.chain_table(space, f, scheme=args.scheme, p=args.p)
    doubling = extension.doubling_estimate(space)
    payload = {
        "doubling_estimate": doubling,
        "scheme": args.scheme,
        "function": args.function,
        "rows": [vars(r) for r in rows],
    }

    def table():
        return {"header": f"# doubling_estimate={doubling} scheme={args.scheme}",
                "columns": ["n", "k_hat", "lip_ratio", "max_err"],
                "rows": [[r.size, r.k_hat, r.lip_ratio, r.max_err] for r in rows]}

    return payload, table, 0


_DISPATCH = {
    "norm": _cmd_norm,
    "project": _cmd_project,
    "fdd-table": _cmd_fdd_table,
    "verify": _cmd_verify,
    "bap": _cmd_bap,
}


def _render(payload, make_table, fmt) -> str:
    """The output text; non-finite numbers raise ValueError in either format.
    ``make_table`` builds the CSV table, so only ``--format csv`` pays for it."""
    if fmt == "json":
        return json.dumps(payload, indent=2, allow_nan=False)
    table = make_table()
    if any(isinstance(v, float) and not math.isfinite(v) for row in table["rows"] for v in row):
        raise ValueError("result is not finite")
    buf = io.StringIO()
    if table.get("header"):
        buf.write(table["header"] + "\n")
    writer = csv.writer(buf)
    writer.writerow(table["columns"])
    writer.writerows(table["rows"])
    return buf.getvalue().rstrip("\n")


def _emit(text: str, output: str | None) -> None:
    """Print, or write ``output`` through a unique temporary file beside it."""
    if not output:
        print(text)
        return
    fd, tmp = tempfile.mkstemp(prefix=os.path.basename(output) + ".",
                               dir=os.path.dirname(os.path.abspath(output)))
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
        os.replace(tmp, output)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        payload, make_table, code = _DISPATCH[args.command](args)
        _emit(_render(payload, make_table, args.format), args.output)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except freespace.SolverError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return 3
    return code


def main_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    main_entry()
