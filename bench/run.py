"""Benchmark of the cotangent-kahler certifier.

Run from the repository root:

    python3 bench/run.py --workload sweep --seed 0 --seconds 20 --trace 0

``--trace 0`` reports the end-to-end metrics: ``setup_s`` (median time for
a fresh interpreter to import the package and build the workload's config),
``run_s`` (median time of one untraced certification run, up to and
including the serialised JSON report), both scaled to a fixed host speed
(see ``HostSpeed``), and ``peak_rss_mb``.  ``--trace 1`` reports the
per-layer metrics of ``tracing.py`` and the tracing overhead.  The last line
of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; README.md describes the workloads and gives
reference figures.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

# numpy uses OpenBLAS, which would start up to nproc threads for
# eigvalsh/cond; pin every pool to one thread before anything imports numpy,
# here or in the set-up probes, so that all load comes from one process.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

BENCH = Path(__file__).resolve().parent
SRC = Path.cwd().resolve() / "src"

# Command-line flags of each workload, parsed by the package's own CLI.
WORKLOADS = {
    # Closed-form point pipeline: the suites whose cost grows with samples,
    # few configs and many samples, so the fixed-cost FD oracles stay small.
    "sweep": [
        "--dims", "2,3",
        "--curvatures", "1.0",
        "--samples", "300",
        "--suites", "almost_kahler,integrability,curvature,einstein",
    ],
    # Every FD oracle at its full point count on the default grid (dims 2,3
    # x curvatures 0.5,1,2); the per-sample closed-form work is negligible.
    # Five samples, not two: with two, holomorphic_curvature_spread falls
    # below its floor on about one seed in a hundred per config.
    "oracles": ["--samples", "5"],
    # The same layers at n = 4, 5, where frame loops grow as (2n)^2..(2n)^3.
    # The curvature and einstein suites are left out: at n >= 4 their
    # absolute 1e-9 checks (pair_symmetry, difference_closed_form) fail on a
    # few seeds in a hundred.  The witnesses suite still drives the
    # curvature layer here, and the output checks recompute Ricci.
    "high_dim": [
        "--dims", "4,5",
        "--curvatures", "1.0",
        "--samples", "5",
        "--suites", "almost_kahler,integrability,connection,witnesses",
    ],
}

# Timed set-up probes per run, after one untimed probe that fills the
# bytecode caches of a fresh checkout.
SETUP_PROBES = 11

# The host is shared and its speed drifts by up to 2x over tens of seconds,
# in CPU time as much as in wall time.  A fixed reference kernel of small
# numpy calls with Python glue, the kind of work the certifier does, is
# timed around and during each measurement, and times are reported scaled
# by REFERENCE_S / (mean kernel time): seconds at a fixed host speed.
# Short, frequent samples follow the drift more closely than long, rare ones
# at the same cost (about 5% of a run).
REFERENCE_S = 0.005
REFERENCE_ITERATIONS = 400
SAMPLE_PERIOD = 0.1


def reference_kernel() -> float:
    """Seconds taken by a fixed burst of small numpy calls."""
    import numpy as np

    a = np.arange(9.0).reshape(3, 3) / 10.0 + np.eye(3)
    v = np.arange(3.0)
    start = perf_counter()
    for _ in range(REFERENCE_ITERATIONS):
        np.max(np.abs(np.einsum("ij,jk->ik", a, a) - np.outer(v, v)))
    return perf_counter() - start


class HostSpeed:
    """Times ``reference_kernel`` on entry and on exit and, with
    ``during=True``, every SAMPLE_PERIOD s in between from a SIGALRM interval
    timer.  ``pauses`` are the (start, end) times of those in-between
    samples."""

    def __init__(self, during: bool) -> None:
        self.during = during
        self.samples: list[float] = []
        self.pauses: list[tuple[float, float]] = []

    def __enter__(self) -> "HostSpeed":
        self.samples.append(reference_kernel())
        if self.during:
            self.previous = signal.signal(signal.SIGALRM, self._sample)
            signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD, SAMPLE_PERIOD)
        return self

    def _sample(self, signum, frame) -> None:
        start = perf_counter()
        self.samples.append(reference_kernel())
        self.pauses.append((start, perf_counter()))

    def __exit__(self, *exc) -> None:
        if self.during:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, self.previous)
        self.samples.append(reference_kernel())

    @property
    def interrupts(self) -> float:
        """Time the in-between samples took out of the block."""
        return sum(end - start for start, end in self.pauses)

    def scale(self, seconds: float) -> float:
        return seconds * REFERENCE_S / statistics.fmean(self.samples)


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True, help="sampling seed, passed as RunConfig.seed")
    parser.add_argument("--seconds", type=float, required=True, help="time to spend in measured runs")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def time_setup(flags: list[str]) -> list[float]:
    """Scaled seconds from starting a fresh interpreter on probe.py to its
    "ready" line, one per timed probe."""
    pythonpath = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=pythonpath)
    command = [sys.executable, str(BENCH / "probe.py"), *flags]
    times = []
    for probe in range(SETUP_PROBES + 1):
        with HostSpeed(during=False) as speed:
            start = perf_counter()
            with subprocess.Popen(command, stdout=subprocess.PIPE, env=env) as proc:
                line = proc.stdout.readline()
                elapsed = perf_counter() - start
                proc.stdout.read()
                code = proc.wait()
        if code != 0 or line.strip() != b"ready":
            raise SystemExit(f"set-up probe exited with code {code} before it was ready")
        if probe:
            times.append(speed.scale(elapsed))
    return times


def certify(cfg, run_verification) -> tuple[float, dict]:
    """One certification run, timed through its serialised report."""
    start = perf_counter()
    report = run_verification(cfg)
    json.dumps(report, indent=2, sort_keys=True)
    return perf_counter() - start, report


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "cotangent_kahler" / "__init__.py").is_file():
        print(f"error: no package at {SRC / 'cotangent_kahler'}; run from the repository root", file=sys.stderr)
        return 2
    flags = WORKLOADS[args.workload] + ["--seed", str(args.seed)]
    setup_times = [] if args.trace else time_setup(flags)

    sys.path.insert(0, str(SRC))
    import cotangent_kahler
    from cotangent_kahler.cli import build_parser, config_from_args
    from cotangent_kahler.suites import run_verification

    if SRC not in Path(cotangent_kahler.__file__).resolve().parents:
        print(f"error: imported {cotangent_kahler.__file__}, not the package under {SRC}", file=sys.stderr)
        return 2
    import checks
    import tracing

    cfg = config_from_args(build_parser().parse_args(flags))
    reports = []
    wall = {"plain": [], "traced": []}
    scaled = {"plain": [], "traced": []}
    layer_runs = []
    # Whole runs until the measured wall time reaches --seconds.  With
    # tracing, each untraced run is paired with a traced one, measured the
    # same way; the host-speed samples are taken out of its spans.
    while not wall["plain"] or sum(wall["plain"]) + sum(wall["traced"]) < args.seconds:
        with HostSpeed(during=True) as speed:
            seconds, report = certify(cfg, run_verification)
        wall["plain"].append(seconds - speed.interrupts)
        scaled["plain"].append(speed.scale(seconds - speed.interrupts))
        reports.append(report)
        if args.trace:
            tracer = tracing.Tracer()
            with HostSpeed(during=True) as speed, tracing.traced(tracer):
                seconds, report = certify(cfg, run_verification)
            wall["traced"].append(seconds - speed.interrupts)
            scaled["traced"].append(speed.scale(seconds - speed.interrupts))
            reports.append(report)
            layer_runs.append(tracer.metrics(speed.pauses))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    problems = checks.report_problems(cfg, reports) + checks.geometry_problems(cfg)
    attempted = failed = 0
    for report in reports:
        ops, bad = checks.count_operations(report)
        attempted += ops
        failed += bad

    if args.trace:
        values = {}
        for name in layer_runs[0]:
            runs = [run[name] for run in layer_runs]
            if tracing.unit_of(name) == "count":
                values[name] = runs[0]
                if any(value != runs[0] for value in runs):
                    problems.append(f"{name} differs between traced runs: {runs}")
            else:
                values[name] = statistics.median(runs)
        values["trace.overhead_s"] = statistics.median(scaled["traced"]) - statistics.median(scaled["plain"])
        metrics = {name: {"value": value, "unit": tracing.unit_of(name)} for name, value in values.items()}
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
            "run_s": {"value": statistics.median(scaled["plain"]), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MiB"},
        }
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    print(
        f"{args.workload} seed={args.seed}: wall {[round(t, 3) for t in wall['plain']]} s, "
        f"scaled {[round(t, 3) for t in scaled['plain']]} s, "
        f"traced wall {[round(t, 3) for t in wall['traced']]} s, "
        f"set-up scaled {[round(t, 3) for t in setup_times]} s"
    )
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
