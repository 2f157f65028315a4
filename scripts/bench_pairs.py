#!/usr/bin/env python3
"""Run the benchmark in alternating pairs on two checkouts and write BENCH_<label>.json.

Each pair runs the benchmark command of ``BENCHMARK.json`` once on the
parent checkout and once on the changed one, for every workload, with the
same seed and the run length ``BENCHMARK.json`` sets; the side that goes
first alternates from pair to pair, so that a drift in host speed does not
favour either side.  The Tier-1 tests (``python -m pytest -q -p
no:cacheprovider``, run in each checkout without ``PYTHONPATH``) are timed
in as many alternating pairs, as the ``tier1`` entry with metric
``tier1_s``.  A failing benchmark run or Tier-1 run aborts the script.  The
file records every run's end-to-end metrics, each side's median and
quartiles, the pairs the change wins per metric, both commits, the numpy
version and the CPU count.  One traced run per side and workload (``--trace
1``) gives the ``layers`` entry: the ``self_s`` and ``calls`` of every
traced layer, so that a gain can be traced to its spans.

Example, from the repository root, with the parent in a second checkout:

    python3 scripts/bench_pairs.py --parent ../parent --change . \\
        --label fd_stack --seed 19 --pairs 10
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib.metadata import version
from pathlib import Path

SIDES = ("parent", "change")
TIER1_COMMAND = ["python", "-m", "pytest", "-q", "-p", "no:cacheprovider"]


def quartiles(values: list[float]) -> dict[str, float]:
    """Median and quartiles (linear interpolation between order statistics)."""
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": median, "q3": q3}


def summarize(pairs: list[dict], better: dict[str, str]) -> dict[str, dict]:
    """Per metric of ``better`` (name -> "lower" or "higher"): each side's
    quartiles over ``pairs``, each a ``{"parent": run, "change": run}`` of
    metric values; the pairs in which the change is strictly better; the gap
    between the medians, relative to the parent's median; and the parent's
    inter-quartile range, which the median gap must exceed to count."""
    summary = {}
    for name, direction in better.items():
        sign = 1.0 if direction == "lower" else -1.0
        values = {side: [pair[side][name] for pair in pairs] for side in SIDES}
        stats = {side: quartiles(values[side]) for side in SIDES}
        gap = stats["change"]["median"] - stats["parent"]["median"]
        iqr = stats["parent"]["q3"] - stats["parent"]["q1"]
        summary[name] = {
            **stats,
            "change_wins": sum(sign * (c - p) < 0 for p, c in zip(values["parent"], values["change"])),
            "pairs": len(pairs),
            "median_change": gap / stats["parent"]["median"],
            "parent_iqr": iqr,
            "gap_exceeds_parent_iqr": sign * gap < 0 and abs(gap) > iqr,
        }
    return summary


def commit_of(checkout: Path) -> dict:
    """HEAD of the checkout, and whether its files differ from HEAD."""

    def git(*args: str) -> str:
        return subprocess.run(["git", *args], cwd=checkout, capture_output=True, text=True, check=True).stdout

    return {"commit": git("rev-parse", "HEAD").strip(), "dirty": bool(git("status", "--porcelain").strip())}


def _environment() -> dict[str, str]:
    """This process's environment without ``PYTHONPATH``, so that each
    checkout imports its own package."""
    return {key: value for key, value in os.environ.items() if key != "PYTHONPATH"}


def alternating_pairs(count: int, run, label: str) -> list[dict]:
    """``count`` pairs of ``run(side)``, the side that goes first alternating
    from pair to pair."""
    pairs = []
    for index in range(count):
        order = SIDES if index % 2 == 0 else SIDES[::-1]
        pair = {"first": order[0]}
        for side in order:
            pair[side] = run(side)
            print(f"{label} pair {index + 1}/{count} {side}: {pair[side]}", file=sys.stderr)
        pairs.append(pair)
    return pairs


def run_once(checkout: Path, command: list[str], workload: str, seed: int, seconds: float, trace: int = 0) -> dict:
    """One benchmark run, untraced by default; its metric values, whether it
    was correct and its op counts."""
    args = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(command + args, cwd=checkout, env=_environment(), capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"benchmark failed in {checkout} ({workload}):\n{proc.stderr}")
    result = json.loads(proc.stdout.splitlines()[-1])
    run = {name: metric["value"] for name, metric in result["metrics"].items()}
    return {**run, "correct": result["correct"], "attempted": result["attempted"], "failed": result["failed"]}


def trace_once(checkout: Path, command: list[str], workload: str, seed: int, seconds: float) -> dict:
    """One traced benchmark run: each layer's ``self_s`` and ``calls``, and
    whether the run was correct."""
    result = run_once(checkout, command, workload, seed, seconds, trace=1)
    layers = {name: value for name, value in result.items() if name.endswith((".self_s", ".calls"))}
    return {**layers, "correct": result["correct"]}


def time_tier1(checkout: Path) -> dict:
    """Wall time of one Tier-1 run in ``checkout``, in seconds."""
    started = time.perf_counter()
    proc = subprocess.run(TIER1_COMMAND, cwd=checkout, env=_environment(), capture_output=True, text=True)
    elapsed = time.perf_counter() - started
    if proc.returncode != 0:
        raise SystemExit(f"Tier-1 tests failed in {checkout}:\n{proc.stdout[-4000:]}{proc.stderr}")
    return {"tier1_s": elapsed}


def tier1_entry(checkouts: dict[str, Path], count: int) -> dict:
    """The ``tier1`` entry: ``count`` alternating pairs of Tier-1 wall times
    and their summary."""
    pairs = alternating_pairs(count, lambda side: time_tier1(checkouts[side]), "tier1")
    return {"summary": summarize(pairs, {"tier1_s": "lower"}), "runs": pairs}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True, help="checkout of the parent commit")
    parser.add_argument("--change", type=Path, required=True, help="checkout of the change")
    parser.add_argument("--label", required=True, help="writes BENCH_<label>.json in the current directory")
    parser.add_argument("--seed", type=int, required=True, help="sampling seed of every run")
    parser.add_argument("--pairs", type=int, required=True, help="alternating pairs per workload (>= 2)")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.pairs < 2:
        print("error: --pairs must be at least 2 for quartiles", file=sys.stderr)
        return 2
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    spec = json.loads((checkouts["change"] / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    better = {metric["name"]: metric["better"] for metric in spec["end_to_end"]}
    workloads = {}
    for workload in (w["name"] for w in spec["workloads"]):
        pairs = alternating_pairs(
            args.pairs,
            lambda side: run_once(checkouts[side], spec["command"], workload, args.seed, seconds),
            workload,
        )
        workloads[workload] = {"summary": summarize(pairs, better), "runs": pairs}
    layers = {
        workload: {side: trace_once(checkouts[side], spec["command"], workload, args.seed, seconds) for side in SIDES}
        for workload in workloads
    }
    record = {
        "label": args.label,
        "seed": args.seed,
        "pairs": args.pairs,
        "seconds": seconds,
        "command": spec["command"],
        **{side: commit_of(checkouts[side]) for side in SIDES},
        "numpy": version("numpy"),
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "workloads": workloads,
        "layers": layers,
        "tier1": {"command": TIER1_COMMAND, **tier1_entry(checkouts, args.pairs)},
    }
    Path(f"BENCH_{args.label}.json").write_text(json.dumps(record, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
