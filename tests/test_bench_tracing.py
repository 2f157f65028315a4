"""Guard for the benchmark's per-layer tracer, bench/tracing.py: its
wrappers must fit the signatures of the functions they wrap."""

import importlib.util
from pathlib import Path

from cotangent_kahler.suites import RunConfig, run_verification

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_run_matches_untraced_run():
    """A traced run completes, records spans and counts field calls, and
    gives the untraced report outside ``timings``."""
    tracing = _load_tracing()
    cfg = RunConfig(dims=(2,), curvatures=(1.0,), samples=2)
    with tracing.traced(tracing.Tracer()) as tracer:
        traced = run_verification(cfg)
    plain = run_verification(cfg)
    assert tracer.spans and tracer.field_evals > 0
    traced.pop("timings")
    plain.pop("timings")
    assert traced == plain


def test_traced_run_times_each_suite():
    """A traced run of one config reports a positive ``suites.<name>.s``,
    the time of the spans around ``run_suite``, for each of the six suites."""
    tracing = _load_tracing()
    cfg = RunConfig(dims=(2,), curvatures=(1.0,), samples=2)
    with tracing.traced(tracing.Tracer()) as tracer:
        run_verification(cfg)
    metrics = tracer.metrics()
    assert list(cfg.suites) == list(tracing.SUITE_NAMES)
    for name in cfg.suites:
        assert metrics[f"suites.{name}.s"] > 0, name
