"""The benchmark's output checks accept the program's outputs.

``perfbench/workloads.py`` checks every op's output against oracles built
from lipfree names: ``locate_cube(u, n).cube()``,
``VertexData.from_function``, ``interpolate_recursive``, ``embed_finite``,
``transport_norm`` and ``check_certificate``.  A rename or a changed result
there would make every benchmark op fail its check.  The workloads module is
loaded from its file and not modified; only its pool size is made small.
"""

import pytest

from lipfree import interpolation
from lipfree.cli import main
from bench_workloads import loaded_workloads

SEED = 3


@pytest.fixture
def workloads(monkeypatch):
    with loaded_workloads() as module:
        monkeypatch.setattr(module, "POOL_SIZE", 2)
        yield module


def run_checks(workloads, workload, workdir):
    """Run each op of a two-op pool through ``cli.main``; its check verdicts."""
    workdir.mkdir()
    verdicts = []
    for i, op in enumerate(workloads.make_pool(workload, SEED, workdir)):
        out = workdir / f"out_{i}.json"
        assert main(op.argv + ["--output", str(out)]) == 0, op.argv
        verdicts.append(workloads.check_output(op, out.read_text(encoding="utf-8")))
    return verdicts


@pytest.mark.parametrize("workload", ["project", "norm", "fdd", "bap"])
def test_two_ops_of_each_workload_pass_their_checks(workloads, workload, tmp_path):
    # project and fdd alternate modes, bap alternates schemes: two ops cover both.
    assert run_checks(workloads, workload, tmp_path / workload) == [None, None]


def test_project_check_catches_the_weight_fault(workloads, tmp_path, monkeypatch):
    monkeypatch.setattr(interpolation, "_WEIGHT_FAULT", True)
    verdicts = run_checks(workloads, "project", tmp_path / "project")
    assert None not in verdicts
