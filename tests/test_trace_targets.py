"""The benchmark's tracer wraps lipfree names where the program looks them up.

``perfbench/tracing.py`` replaces ``owner.__dict__[attr]`` for every entry of
its ``TARGETS``; a renamed or moved function would crash traced benchmark
runs, and a changed result type would break the counts read from a call.
The tracer module is loaded from its file and not modified.
"""

import importlib
import importlib.util
import json
import time
from pathlib import Path

from lipfree.cli import main

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def load_targets():
    return load_tracing().TARGETS


def owner_of(where):
    mod_name, _, cls_name = where.partition(":")
    owner = importlib.import_module(mod_name)
    return getattr(owner, cls_name) if cls_name else owner


def test_every_trace_target_resolves_in_its_owner():
    targets = load_targets()
    assert targets
    for where, attr, name, _ in targets:
        owner = owner_of(where)
        assert attr in owner.__dict__, f"{name}: {where} has no attribute {attr!r} of its own"
        target = owner.__dict__[attr]
        assert callable(getattr(target, "__func__", target)), name


def write(path, obj):
    path.write_text(json.dumps(obj))
    return str(path)


def test_a_traced_run_of_each_workload_counts_with_ints_and_restores_the_program(tmp_path):
    tracing = load_tracing()
    originals = [(where, attr, owner_of(where).__dict__[attr]) for where, attr, _, _ in tracing.TARGETS]
    seq = {"points": [{"coords": {"1": 0.3, "2": -1.2, "9": 0.5}}, {"coords": {"3": 2.5}}]}
    l1 = {"space": "l1", "terms": [{"point": {"coords": {"1": 0.75, "2": 0.3}}, "coeff": 1.0},
                                   {"point": {"coords": {"2": -0.4}}, "coeff": -0.5}]}
    l1n = {"space": "l1N", "dim": 2, "terms": [{"point": [1.0, 0.25], "coeff": 1.0},
                                               {"point": [-0.5, 0.75], "coeff": -2.0},
                                               {"point": [0.3, -1.0], "coeff": 0.5}]}
    space = {"embed_l1": [[0.0, 0.0], [1.0, 0.5], [-0.5, 2.0], [2.0, -1.0]], "origin": 0}
    commands = [
        ["project", "--input", write(tmp_path / "seq.json", seq), "--function", "random-lattice", "--n", "4",
         "--seed", "3"],
        ["norm", "--input", write(tmp_path / "l1n.json", l1n)],
        ["fdd-table", "--input", write(tmp_path / "l1.json", l1), "--n-max", "3"],
        ["bap", "--input", write(tmp_path / "space.json", space)],
    ]
    tracer = tracing.Tracer()
    start = time.perf_counter()
    tracer.install()
    try:
        for op, argv in enumerate(commands):
            code = tracer.run_op(op, lambda: main([*argv, "--output", str(tmp_path / f"out{op}")]))
            assert code == 0, argv
    finally:
        tracer.uninstall()
    assert time.perf_counter() - start < 5.0
    assert dict(tracer.errors) == {}
    counted = {}
    for name, _, _, _, _, counts in tracer.spans:
        for key, value in (counts or {}).items():
            assert type(value) is int, (name, key, type(value))
            counted[key] = counted.get(key, 0) + 1
    expected = {"corner_evals", "norm_support", "terms_out", "pivots", "rows", "space_points"}
    assert set(counted) == expected
    for where, attr, original in originals:
        assert owner_of(where).__dict__[attr] is original, f"{where}.{attr} was not restored"
