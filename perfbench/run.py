"""lipfree benchmark: drives ``lipfree.cli.main`` in process on seeded inputs.

Usage::

    python3 perfbench/run.py --workload {project,norm,fdd,bap} --seed N \
        --seconds S --trace {0,1}

Run from the root of a source checkout; the program is imported from
``src/``.  One closed-loop client in one process: each op is one
``cli.main`` call and the next starts when it returns.

``--trace 0`` measures the end-to-end metrics.  Set-up time is taken first,
in fresh processes, before this process imports the program.  The timed
phase then cycles through the workload's op pool for ``--seconds`` (and at
least ``MIN_OPS`` ops).  ``--trace 1`` runs every pool op twice in a row,
untraced then traced, for whole passes of the pool, and reports per-layer
metrics as means per traced op.

Every op's output is checked after timing (see ``workloads.py``).  The last
stdout line is the JSON result; a run record (machine, versions, BLAS
thread settings, load average, output digests, layer shares) goes to
stderr and is appended to ``.perfbench/runs.jsonl``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
STATE = ROOT / ".perfbench"

MIN_OPS = 100  # so that at least ten ops lie above the 90th percentile
MAX_TIMED_S = 100.0  # keeps a run far below the 180 s limit if ops slow down
SETUP_REPS = 3
WARMUP_OPS = 2
BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
            "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

_SETUP_CHILD = (
    "import sys; sys.path.insert(0, {src!r}); import lipfree.cli; "
    "sys.exit(lipfree.cli.main({argv!r}))"
)


def log(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


def loadavg() -> str:
    try:
        return Path("/proc/loadavg").read_text().strip()
    except OSError:
        return "unavailable"


def measure_setup(op: workloads.Op, workdir: Path) -> list[float]:
    """Wall time of fresh process -> import lipfree.cli -> one warm-up op."""
    code = _SETUP_CHILD.format(src=str(SRC), argv=op.argv + ["--output", str(workdir / "setup.out")])
    times = []
    for _ in range(SETUP_REPS):
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True, timeout=120)
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up op exited {proc.returncode}: {proc.stderr.strip()[-500:]}")
    return times


def import_program():
    sys.path.insert(0, str(SRC))
    import lipfree.cli

    if Path(lipfree.cli.__file__).resolve().parent != (SRC / "lipfree").resolve():
        raise RuntimeError(f"imported lipfree from {lipfree.cli.__file__}, not from {SRC}")
    return lipfree.cli


def call_op(main, argv) -> tuple[int | str, float]:
    """One op; returns its exit code (or the exception's name) and latency."""
    t0 = time.perf_counter()
    try:
        code = main(argv)
    except (Exception, SystemExit) as exc:
        log(f"op {argv[0]} raised {type(exc).__name__}: {exc}")
        log(traceback.format_exc(limit=4))
        code = type(exc).__name__
    return code, time.perf_counter() - t0


def p90(values: list[float]) -> tuple[float, int]:
    """Nearest-rank 90th percentile and the number of samples above its rank."""
    rank = math.ceil(0.9 * len(values))
    return sorted(values)[rank - 1], len(values) - rank


def blas_info() -> dict:
    info = {name: os.environ.get(name) for name in BLAS_ENV}
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        info["numpy_blas"] = {k: deps.get(k, {}).get("name") for k in ("blas", "lapack")}
    except (TypeError, KeyError):
        info["numpy_blas"] = None
    return info


class Run:
    """One benchmark run: generate, set up, time (or trace), then check outputs."""

    def __init__(self, workload: str, seed: int, seconds: float, traced: bool):
        self.workload, self.seed, self.seconds, self.traced = workload, seed, seconds, traced
        self.workdir = STATE / f"work-{os.getpid()}"
        self.record: dict = {
            "workload": workload, "seed": seed, "seconds": seconds, "trace": int(traced),
            "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": np.__version__,
            "blas_threads": blas_info(), "loadavg_start": loadavg(),
        }
        # (pool index, exit code, output path) per op, in run order.
        self.ops: list[tuple[int, int | str, Path]] = []

    def execute(self) -> dict:
        self.workdir.mkdir(parents=True, exist_ok=True)
        try:
            return self._execute()
        finally:
            shutil.rmtree(self.workdir, ignore_errors=True)

    def _execute(self) -> dict:
        pool = workloads.make_pool(self.workload, self.seed, self.workdir)
        metrics = {}
        if not self.traced:
            setup = measure_setup(pool[0], self.workdir)
            self.record["setup_runs_s"] = setup
            metrics["setup_s"] = (statistics.median(setup), "s")
        cli = import_program()
        import scipy

        self.record["scipy"] = scipy.__version__
        for op in pool[:WARMUP_OPS]:
            call_op(cli.main, op.argv + ["--output", str(self.workdir / "warmup.out")])
        if self.traced:
            metrics.update(self._traced_phase(cli, pool))
        else:
            metrics.update(self._timed_phase(cli, pool))
        self.record["loadavg_end"] = loadavg()
        t0 = time.perf_counter()
        failed = self._check(pool)
        self.record["check_s"] = time.perf_counter() - t0
        attempted = len(self.ops)
        self.record.update(attempted=attempted, failed=failed, fail_ratio=failed / attempted)
        if self.traced:
            metrics["fail_ratio"] = (failed / attempted, "ratio")
        self.record["metrics"] = {k: v for k, (v, _) in metrics.items()}
        return {
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }

    def _op(self, main, pool, i: int) -> float:
        """Run pool entry ``i`` once into its own output file; returns the latency."""
        out = self.workdir / f"out_{len(self.ops):05d}.json"
        entry = i % len(pool)
        code, dt = call_op(main, pool[entry].argv + ["--output", str(out)])
        self.ops.append((entry, code, out))
        return dt

    def _timed_phase(self, cli, pool) -> dict:
        latencies = []
        start = time.perf_counter()
        while True:
            latencies.append(self._op(cli.main, pool, len(latencies)))
            elapsed = time.perf_counter() - start
            if (elapsed >= self.seconds and len(latencies) >= MIN_OPS) or elapsed >= MAX_TIMED_S:
                break
        wall = time.perf_counter() - start
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        p90_s, above = p90(latencies)
        self.record.update(timed_wall_s=wall, ops=len(latencies), p90_ops_above=above)
        if above < 10:
            log(f"warning: only {above} ops above the 90th percentile")
        return {
            "op_p50_s": (statistics.median(latencies), "s"),
            "op_p90_s": (p90_s, "s"),
            "ops_per_s": (len(latencies) / wall, "1/s"),
            "peak_rss_mb": (rss_mb, "MB"),
        }

    def _traced_phase(self, cli, pool) -> dict:
        import tracing

        tracer = tracing.Tracer()
        plain = traced = 0.0
        passes = 0
        start = time.perf_counter()
        while passes == 0 or time.perf_counter() - start < self.seconds:
            for i in range(len(pool)):
                plain += self._op(cli.main, pool, i)
                tracer.install()
                try:
                    traced += tracer.run_op(len(self.ops), lambda: self._op(cli.main, pool, i))
                finally:
                    tracer.uninstall()
            passes += 1
        STATE.mkdir(exist_ok=True)
        tracer.dump(STATE / f"spans-{self.workload}-seed{self.seed}.jsonl")
        summary = tracing.summarize(tracer.spans)
        shares = tracing.layer_shares(summary)
        traced_ops = passes * len(pool)
        self.record.update(traced_ops=traced_ops, layer_self_share=shares,
                           spans=len(tracer.spans), span_errors=dict(tracer.errors))
        log("layer self-time share of op time: "
            + ", ".join(f"{k} {v:.1%}" for k, v in sorted(shares.items(), key=lambda kv: -kv[1])))
        out_bytes = sum(p.stat().st_size for _, _, p in self.ops if p.exists()) / len(self.ops)
        useful = sum(op.meta.get("useful_corners", 0) for op in pool) / len(pool)
        return layer_metrics(summary, tracer.errors, traced_ops, out_bytes, useful, traced / plain - 1.0)

    def _check(self, pool) -> int:
        """Check every op's output; returns the number of failed ops."""
        verdicts: dict[tuple[int, str], str | None] = {}
        digests: dict[int, set[str]] = {}
        failed = 0
        for i, code, path in self.ops:
            if code != 0 or not path.exists():
                log(f"op on pool entry {i} failed: exit {code}")
                failed += 1
                continue
            text = path.read_text(encoding="utf-8")
            digest = hashlib.sha256(text.encode()).hexdigest()
            digests.setdefault(i, set()).add(digest)
            if (i, digest) not in verdicts:
                verdicts[i, digest] = workloads.check_output(pool[i], text)
                if verdicts[i, digest]:
                    log(f"pool entry {i}: {verdicts[i, digest]}")
            if verdicts[i, digest] or len(digests[i]) > 1:
                failed += 1
        per_entry = [sorted(digests.get(i, ())) for i in range(len(pool))]
        self.record["output_digests"] = per_entry
        self.record["output_digest"] = hashlib.sha256(json.dumps(per_entry).encode()).hexdigest()
        return failed


def layer_metrics(summary, errors, ops: int, out_bytes: float, useful: float, overhead: float) -> dict:
    """Per-layer metrics as means per traced op; ratios are ratios of sums.

    ``out_bytes`` and ``useful`` (weighted corners) are already per op.
    """

    def total(name, key="s"):
        return summary[name][key] if name in summary else 0.0

    def count(name, key):
        return summary[name]["counts"].get(key, 0) if name in summary else 0

    def ratio(a, b):
        return a / b if b else 0.0

    free_norms = total("freespace.free_norm", "calls")
    lp_solves = total("lp.solve_box_lp", "calls")
    pivots = count("lp.solve_box_lp", "pivots")
    corner_evals = count("operators.eval_many", "corner_evals")
    per_op = {
        "cli.self_s": (total("cli.main", "self_s"), "s/op"),
        "operators.project_values.self_s": (total("operators.project_values", "self_s"), "s/op"),
        "operators.eval_many.s": (total("operators.eval_many"), "s/op"),
        "operators.corner_evals": (corner_evals, "count/op"),
        "operators.cell_weights.s": (total("operators.cell_weights"), "s/op"),
        "geometry.cell_low_corners.s": (total("geometry.cell_low_corners"), "s/op"),
        "interpolation.weights_from_offsets.s": (total("interpolation.weights_from_offsets"), "s/op"),
        "interpolation.lip_constant.s": (total("interpolation.lip_constant"), "s/op"),
        "freespace.free_norm.self_s": (total("freespace.free_norm", "self_s"), "s/op"),
        "freespace.free_norm.calls": (free_norms, "count/op"),
        "freespace.norm_support": (count("freespace.free_norm", "norm_support"), "count/op"),
        "freespace.molecule_projection.self_s": (total("freespace.molecule_projection", "self_s"), "s/op"),
        "freespace.molecule_projection.terms_out": (count("freespace.molecule_projection", "terms_out"),
                                                    "count/op"),
        "freespace.decomposition_report.self_s": (total("freespace.decomposition_report", "self_s"), "s/op"),
        "freespace.molecules_close.s": (total("freespace.molecules_close"), "s/op"),
        "lp.solve_box_lp.s": (total("lp.solve_box_lp"), "s/op"),
        "lp.solves": (lp_solves, "count/op"),
        "lp.pivots": (pivots, "count/op"),
        "lp.rows": (count("lp.solve_box_lp", "rows"), "count/op"),
        "lp.errors": (errors.get("lp.solve_box_lp", 0), "count/op"),
        "extension.doubling_estimate.s": (total("extension.doubling_estimate"), "s/op"),
        "extension.space_points": (count("extension.doubling_estimate", "space_points"), "count/op"),
        "extension.chain_table.self_s": (total("extension.chain_table", "self_s"), "s/op"),
        "extension.gentleness.s": (total("extension.gentleness"), "s/op"),
        "extension.build_partition.s": (total("extension.build_partition"), "s/op"),
        "extension.approximation_operator.self_s": (total("extension.approximation_operator", "self_s"),
                                                    "s/op"),
        "extension.farthest_point_chain.s": (total("extension.farthest_point_chain"), "s/op"),
        "extension.covering_radius.s": (total("extension.covering_radius"), "s/op"),
    }
    metrics = {k: (v / ops, u) for k, (v, u) in per_op.items()}
    metrics["cli.out_bytes"] = (out_bytes, "bytes/op")
    metrics["operators.useful_corner_ratio"] = (ratio(useful, corner_evals / ops), "ratio")
    metrics["lp.s_per_pivot"] = (ratio(total("lp.solve_box_lp"), pivots), "s")
    metrics["lp.rounds_per_norm"] = (ratio(lp_solves, free_norms), "ratio")
    metrics["trace.overhead"] = (overhead, "ratio")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.GENERATORS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "lipfree" / "cli.py").is_file():
        log(f"error: no lipfree sources under {SRC}; run from a source checkout")
        return 2
    run = Run(args.workload, args.seed, args.seconds, bool(args.trace))
    try:
        result = run.execute()
    except (RuntimeError, subprocess.TimeoutExpired, ImportError) as exc:
        log(f"error: {exc}")
        return 1
    STATE.mkdir(exist_ok=True)
    with open(STATE / "runs.jsonl", "a", encoding="utf-8") as fh:
        fh.write(json.dumps(run.record) + "\n")
    log("run record: " + json.dumps({k: v for k, v in run.record.items() if k != "output_digests"}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
