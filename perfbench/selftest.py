"""Self-test of the benchmark on small pools (about half a minute).

    python3 perfbench/selftest.py

Checks that:

* every workload passes its output checks and emits exactly the metrics,
  with their units, that ``BENCHMARK.json`` names, untraced and traced;
* the untraced and traced runs of one seed produce identical output digests;
* the negative control works: with ``lipfree.interpolation._WEIGHT_FAULT``
  set, ``project`` and ``fdd`` ops come back failed (``fail_ratio > 0``);
* in a directory holding only ``BENCHMARK.json`` and the benchmark, the
  benchmark exits nonzero without printing a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import run
import workloads

SEED = 7
FAULTY = ("project", "fdd")


def small(workload: str, traced: bool) -> tuple[dict, dict]:
    r = run.Run(workload, SEED, seconds=0.0, traced=traced)
    return r.execute(), r.record


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    workloads.POOL_SIZE = 8
    run.MIN_OPS, run.SETUP_REPS = 10, 1
    problems = []

    for workload in sorted(w["name"] for w in spec["workloads"]):
        digests = {}
        for traced in (0, 1):
            result, record = small(workload, bool(traced))
            digests[traced] = record["output_digests"]
            emitted = {k: v["unit"] for k, v in result["metrics"].items()}
            if emitted != expected[traced]:
                problems.append(f"{workload} trace={traced}: metrics {sorted(set(emitted) ^ set(expected[traced]))} "
                                "differ from BENCHMARK.json")
            if result["failed"] or not result["correct"]:
                problems.append(f"{workload} trace={traced}: {result['failed']} ops failed")
        if digests[0] != digests[1]:
            problems.append(f"{workload}: output digests differ between untraced and traced runs")

    import lipfree.interpolation as itp

    for workload in FAULTY:
        itp._WEIGHT_FAULT = True
        try:
            result, _ = small(workload, traced=True)
        finally:
            itp._WEIGHT_FAULT = False
        if not result["metrics"]["fail_ratio"]["value"] > 0:
            problems.append(f"{workload}: the weight fault went unnoticed")

    bare = run.STATE / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.ROOT / "perfbench", bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    try:
        proc = subprocess.run([sys.executable, *spec["command"][1:], "--workload", "norm", "--seed", "1",
                               "--seconds", "1", "--trace", "0"],
                              cwd=bare, capture_output=True, text=True, timeout=180)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or proc.stdout.strip():
        problems.append(f"without the program: exit {proc.returncode}, stdout {proc.stdout.strip()[:80]!r}")

    for p in problems:
        print("FAIL", p)
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
