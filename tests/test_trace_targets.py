"""The benchmark's tracer wraps lipfree names where the program looks them up.

``perfbench/tracing.py`` replaces ``owner.__dict__[attr]`` for every entry of
its ``TARGETS``; a renamed or moved function would crash traced benchmark
runs.  The tracer module is loaded from its file and not modified.
"""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


def test_every_trace_target_resolves_in_its_owner():
    targets = load_targets()
    assert targets
    for where, attr, name, _ in targets:
        mod_name, _, cls_name = where.partition(":")
        owner = importlib.import_module(mod_name)
        if cls_name:
            owner = getattr(owner, cls_name)
        assert attr in owner.__dict__, f"{name}: {where} has no attribute {attr!r} of its own"
        target = owner.__dict__[attr]
        assert callable(getattr(target, "__func__", target)), name
