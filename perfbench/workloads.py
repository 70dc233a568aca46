"""Seeded inputs, command lines and output checks for the four workloads.

Each workload is a pool of distinct ops.  An op is one ``lipfree.cli.main``
call on a generated input file, with ``--output`` pointing into the run's
scratch directory.  The timed phase cycles through the pool in order; the
run keeps each op's pool entry next to its output file for the checks.

Generation uses NumPy only: the program sees nothing but the files written
here.  The checks import :mod:`lipfree` and run after the timed phase.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

#: Ops per pool.  Both halves of a mixed workload get half of them.
POOL_SIZE = 96

# See BENCHMARK.json for why each workload exists.  Op sizes cycle through
# fixed schedules, the same for every seed, so each workload's latencies form
# one broad peak: a percentile then moves smoothly when the machine slows for
# part of a run, instead of jumping between the fast and the slow cluster.
PROJECT_SEQ_N, PROJECT_SEQ_POINTS, PROJECT_SEQ_SPARSITY, PROJECT_SEQ_INDEX_MAX = 8, (6, 8, 10, 12, 14), 3, 12
PROJECT_DIM, PROJECT_DIM_N, PROJECT_DIM_POINTS = 6, 4, (14, 19, 24, 29, 34)
NORM_DIM, NORM_TERMS = 2, (60, 68, 76, 84, 92, 100)
FDD_N_MAX, FDD_TERMS, FDD_L1_INDEX_MAX, FDD_L1_SPARSITY, FDD_L1N_DIM = 8, (3, 4, 5, 6), 6, 2, 2
BAP_POINTS, BAP_DIM, BAP_SCHEMES = (10, 11, 12), 3, ("inv-dist", "shepard-p")

PROJECT_SAMPLED_ROWS = (0, -1)  # rows recomputed through the oracle, per distinct input
REL_TOL = 1e-9


@dataclass
class Op:
    """One pool entry: the CLI arguments and what the checks need to know."""

    kind: str
    argv: list[str]
    input_path: Path
    meta: dict = field(default_factory=dict)


def _write_json(path: Path, obj) -> Path:
    path.write_text(json.dumps(obj), encoding="utf-8")
    return path


def _sparse_point(rng, index_max: int, sparsity: int, spread: float) -> dict:
    idx = sorted(int(i) for i in rng.choice(np.arange(1, index_max + 1), size=sparsity, replace=False))
    vals = rng.uniform(-spread, spread, size=sparsity)
    return {"coords": {str(i): float(v) for i, v in zip(idx, vals)}}


def _project_ops(rng, workdir: Path) -> list[Op]:
    ops = []
    for i in range(POOL_SIZE):
        fseed = int(rng.integers(1, 2**31))
        path = workdir / f"project_{i:02d}.json"
        size = (i // 2) % len(PROJECT_SEQ_POINTS)
        if i % 2 == 0:
            # Sequence mode: indices run past n, so every point has a tail.
            pts = [_sparse_point(rng, PROJECT_SEQ_INDEX_MAX, PROJECT_SEQ_SPARSITY, 3.0)
                   for _ in range(PROJECT_SEQ_POINTS[size])]
            level = ["--n", str(PROJECT_SEQ_N)]
            meta = {"n": PROJECT_SEQ_N, "dim": None, "fseed": fseed}
        else:
            pts = rng.uniform(-6.0, 6.0, size=(PROJECT_DIM_POINTS[size], PROJECT_DIM)).tolist()
            level = ["--n", str(PROJECT_DIM_N), "--dim", str(PROJECT_DIM)]
            meta = {"n": PROJECT_DIM_N, "dim": PROJECT_DIM, "fseed": fseed}
        _write_json(path, {"points": pts})
        argv = ["project", "--input", str(path), "--function", "random-lattice",
                *level, "--seed", str(fseed), "--format", "json"]
        meta["useful_corners"] = useful_corners(pts, meta["n"], meta["dim"])
        ops.append(Op("project", argv, path, meta))
    return ops


def useful_corners(points, n: int, dim: int | None) -> int:
    """Cell corners carrying nonzero interpolation weight, summed over points.

    An axis whose offset inside the cell is exactly 0 or 1 contributes a
    factor of 0 or 1 to every corner weight, so a point has ``2**a`` weighted
    corners, ``a`` being the number of axes with offset strictly inside (0, 1).
    """
    if dim is None:
        lead = np.zeros((len(points), n))
        for r, p in enumerate(points):
            for k, v in p["coords"].items():
                if int(k) <= n:
                    lead[r, int(k) - 1] = v
    else:
        lead = np.asarray(points, dtype=float)
    half, s = 2.0 ** (n - 1), 2.0 ** (1 - n)
    u = np.clip(lead, -half, half)
    j = np.clip(np.floor((u + half) / s), 0, 2 ** (2 * n - 1) - 1)
    t = (u + half) / s - j
    active = ((t > 0.0) & (t < 1.0)).sum(axis=1)
    return int(np.sum(2 ** active))


def _distinct_rows(rng, count: int, dim: int, spread: float) -> np.ndarray:
    while True:
        pts = rng.uniform(-spread, spread, size=(count, dim))
        if len({tuple(p) for p in pts}) == count and not np.any(np.all(pts == 0.0, axis=1)):
            return pts


def _l1n_molecule(rng, terms: int, dim: int, spread: float) -> dict:
    pts = _distinct_rows(rng, terms, dim, spread)
    coeffs = rng.normal(size=terms)
    return {"space": "l1N", "dim": dim,
            "terms": [{"point": p.tolist(), "coeff": float(a)} for p, a in zip(pts, coeffs)]}


def _l1_molecule(rng, terms: int) -> dict:
    seen, out = set(), []
    while len(out) < terms:
        p = _sparse_point(rng, FDD_L1_INDEX_MAX, FDD_L1_SPARSITY, 3.0)
        key = tuple(sorted(p["coords"]))
        if key in seen:
            continue
        seen.add(key)
        out.append({"point": p, "coeff": float(rng.normal())})
    return {"space": "l1", "terms": out}


def _norm_ops(rng, workdir: Path) -> list[Op]:
    ops = []
    for i in range(POOL_SIZE):
        k = NORM_TERMS[i % len(NORM_TERMS)]
        path = _write_json(workdir / f"norm_{i:02d}.json", _l1n_molecule(rng, k, NORM_DIM, 4.0))
        ops.append(Op("norm", ["norm", "--input", str(path), "--format", "json"], path))
    return ops


def _fdd_ops(rng, workdir: Path) -> list[Op]:
    ops = []
    for i in range(POOL_SIZE):
        k = FDD_TERMS[(i // 2) % len(FDD_TERMS)]
        if i % 2 == 0:
            mol = _l1_molecule(rng, k)
        else:
            mol = _l1n_molecule(rng, k, FDD_L1N_DIM, 3.0)
        path = _write_json(workdir / f"fdd_{i:02d}.json", mol)
        argv = ["fdd-table", "--input", str(path), "--n-max", str(FDD_N_MAX), "--format", "json"]
        ops.append(Op("fdd", argv, path))
    return ops


def _bap_ops(rng, workdir: Path) -> list[Op]:
    ops = []
    for i in range(POOL_SIZE):
        scheme = BAP_SCHEMES[i % len(BAP_SCHEMES)]
        k = BAP_POINTS[(i // 2) % len(BAP_POINTS)]
        pts = _distinct_rows(rng, k, BAP_DIM, 4.0)
        path = _write_json(workdir / f"bap_{i:02d}.json", {"embed_l1": pts.tolist(), "origin": 0})
        argv = ["bap", "--input", str(path), "--scheme", scheme, "--format", "json"]
        ops.append(Op("bap", argv, path, {"k": k}))
    return ops


GENERATORS = {"project": _project_ops, "norm": _norm_ops, "fdd": _fdd_ops, "bap": _bap_ops}


def make_pool(workload: str, seed: int, workdir: Path) -> list[Op]:
    """The workload's op pool, a pure function of ``(workload, seed)``."""
    rng = np.random.default_rng([seed, sorted(GENERATORS).index(workload)])
    return GENERATORS[workload](rng, workdir)


# -- output checks ------------------------------------------------------------
#
# Each check takes the op and the text of its output file and returns None
# when the output is right, or a one-line reason.  They run after the timed
# phase, once per distinct (pool entry, output digest), and import lipfree
# locally because set-up time is measured before this process loads it.


def _rel_close(a: float, b: float, tol: float = REL_TOL) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(b))


def _check_project(op: Op, payload: dict) -> str | None:
    import lipfree.geometry as geo
    import lipfree.interpolation as itp
    import lipfree.operators as ops

    n, dim = op.meta["n"], op.meta["dim"]
    points = json.loads(op.input_path.read_text(encoding="utf-8"))["points"]
    rows = payload["rows"]
    if len(rows) != len(points):
        return f"{len(rows)} rows for {len(points)} points"
    f = ops.random_lattice_function(np.random.default_rng(op.meta["fseed"]), dim=dim)
    half = 2.0 ** (n - 1)
    cells = n if dim is None else dim
    sampled = {r % len(rows) for r in PROJECT_SAMPLED_ROWS}
    for r, (raw, row) in enumerate(zip(points, rows)):
        if dim is None:
            x = geo.FiniteSupportPoint.from_json(raw)
            lead, tail = x.leading(n), x.tail(n)
        else:
            x = np.asarray(raw, dtype=float)
            lead, tail = x, 0.0
        bound = 2.0 * f.declared_lip * (tail + cells * 2.0 ** (1 - n))
        if not _rel_close(row["bound"], bound, 1e-12):
            return f"row {r}: bound {row['bound']} != {bound}"
        if not _rel_close(row["exact"], f(x), 1e-12):
            return f"row {r}: exact {row['exact']} != {f(x)}"
        if not _rel_close(row["error"], abs(row["value"] - row["exact"]), 1e-12):
            return f"row {r}: error is not |value - exact|"
        clamped = bool(np.max(np.abs(lead), initial=0.0) > half)
        if not clamped and row["error"] > bound + REL_TOL:
            return f"row {r}: error {row['error']} exceeds bound {bound}"
        if r in sampled:
            u = np.clip(lead, -half, half)
            cube = geo.locate_cube(u, n).cube()
            corner = (lambda v: f(geo.embed_finite(v))) if dim is None else f
            expect = itp.interpolate_recursive(itp.VertexData.from_function(cube, corner), u)
            if not _rel_close(row["value"], expect):
                return f"row {r}: value {row['value']} != oracle {expect}"
    return None


def _load_molecule(op: Op):
    from lipfree.freespace import Molecule

    return Molecule.from_json(json.loads(op.input_path.read_text(encoding="utf-8")))


def _check_norm(op: Op, payload: dict) -> str | None:
    from lipfree import freespace as fs

    mu = _load_molecule(op)
    expect = fs.transport_norm(mu)
    if not _rel_close(payload["value"], expect):
        return f"norm {payload['value']} != transport {expect}"
    witness = {tuple(e["point"]): e["value"] for e in payload["witness"]}
    missing = [p for p in (mu.origin_point(),) + mu.support if p not in witness]
    if missing:
        return f"witness misses {len(missing)} points"
    if not fs.check_certificate(fs.NormCertificate(value=payload["value"], witness=witness), mu):
        return "witness certificate fails"
    return None


def _check_fdd(op: Op, payload: dict) -> str | None:
    from lipfree import freespace as fs

    if payload["passed"] is not True:
        return "report did not pass"
    if [r["n"] for r in payload["rows"]] != list(range(1, FDD_N_MAX + 1)):
        return "rows are not levels 1..n_max"
    expect = fs.transport_norm(_load_molecule(op))
    if not _rel_close(payload["base_norm"], expect):
        return f"base_norm {payload['base_norm']} != transport {expect}"
    return None


def _check_bap(op: Op, payload: dict) -> str | None:
    k = op.meta["k"]
    rows = payload["rows"]
    if [r["size"] for r in rows] != list(range(1, k + 1)):
        return "not one row per point"
    if rows[-1]["max_err"] != 0.0:
        return f"last row max_err {rows[-1]['max_err']} != 0"
    d = payload["doubling_estimate"]
    if not (isinstance(d, int) and 1 <= d <= k):
        return f"doubling_estimate {d!r} outside [1, {k}]"
    return None


CHECKS = {"project": _check_project, "norm": _check_norm, "fdd": _check_fdd, "bap": _check_bap}


def check_output(op: Op, text: str) -> str | None:
    try:
        return CHECKS[op.kind](op, json.loads(text))
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return f"unreadable output: {type(exc).__name__}: {exc}"
