"""The benchmark's workload module, loaded from its file for tests.

``perfbench/workloads.py`` is not a package module: it is loaded under the
name ``perfbench_workloads``, registered in ``sys.modules`` while it is in
use, because its dataclass looks the module up.
"""

import contextlib
import importlib.util
import sys
from pathlib import Path

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


@contextlib.contextmanager
def loaded_workloads():
    """The workload module, registered in ``sys.modules`` until the block ends."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[spec.name]


def make_pool(workload, seed, workdir):
    """The ops of the benchmark's pool for ``workload`` and ``seed``, their inputs written to ``workdir``."""
    with loaded_workloads() as workloads:
        return workloads.make_pool(workload, seed, workdir)
