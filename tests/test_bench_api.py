"""Guard for the package API that the benchmark calls: bench/run.py parses
its workloads with the package's CLI, and bench/checks.py recomputes the
geometry of each run with the package's point-level functions."""

import importlib.util
from pathlib import Path

import pytest

from cotangent_kahler.cli import build_parser, config_from_args
from cotangent_kahler.suites import RunConfig, run_verification

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_output_checks_pass_on_a_small_run():
    """``report_problems`` and ``geometry_problems`` find nothing, and
    ``count_operations`` counts every check of the report as passed."""
    checks = _load("checks")
    cfg = RunConfig(dims=(2, 3), curvatures=(1.0,), samples=3)
    reports = [run_verification(cfg) for _ in range(2)]
    assert checks.report_problems(cfg, reports) == []
    assert checks.geometry_problems(cfg) == []
    attempted, failed = checks.count_operations(reports[0])
    assert attempted > 0 and failed == 0


@pytest.mark.parametrize("workload", ["sweep", "oracles", "high_dim"])
def test_workload_flags_parse(workload, monkeypatch):
    """Each workload's flags give a config through the CLI, as the set-up
    probe builds it.  Loading ``run.py`` pins the BLAS thread counts in the
    environment; ``monkeypatch`` puts them back afterwards."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "1")
    flags = _load("run").WORKLOADS[workload]
    cfg = config_from_args(build_parser().parse_args(flags + ["--seed", "0"]))
    assert isinstance(cfg, RunConfig) and cfg.seed == 0
