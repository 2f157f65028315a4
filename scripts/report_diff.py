#!/usr/bin/env python3
"""Compare the reports of two source trees, check by check, on fixed flag sets.

Each tree is a checkout with the package under ``src/``.  For every flag set
of ``FLAG_SETS`` and every seed of ``SEEDS``, ``run_report`` runs ``python -m
cotangent_kahler <flags> --seed <seed> --report -`` once per tree, in a fresh
interpreter with ``PYTHONPATH=<tree>/src``.  The two JSON reports are then
compared per config and check; each check is one of:

* ``identical``: its entry is the same, every bit of the value included;
* ``moved``: only the value differs, by ``abs`` = |change - parent| and
  ``rel`` = ``abs`` / |parent|;
* ``verdict``: ``passed`` differs (``abs`` and ``rel`` as for a move);
* ``note``: the note differs;
* ``missing``: the check is in one report only;
* ``other``: the tolerance or the comparison differs.

``timings`` is ignored.  The rest of each report (its config, notes and
verdicts, per suite and per config) must be equal as a whole, and so must
the exit codes.  The script writes every run's comparison to one JSON file,
prints a Markdown table with one row per flag set and seed, and exits 0 when
everything is identical and 1 otherwise.

With ``--rewrite-goldens`` and no ``--parent``, the script instead runs the
change tree on the flags of each golden report that its
``tests/test_golden.py`` lists in ``GOLDEN``, compares each new report with
the golden it replaces, writes it over that golden under ``tests/golden/``
(in the CLI's own format), and prints and writes the comparison the same
way.  A change that rewrites the goldens pastes that table into CHANGES.md.

Examples, from the repository root, with the parent in a second checkout:

    python3 scripts/report_diff.py --parent ../parent --change . --out report_diff.json
    python3 scripts/report_diff.py --change . --rewrite-goldens
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import subprocess
import sys
from pathlib import Path

# The default battery, the three benchmark workloads, four off-default
# members, the four windows outside the default one, and two sets whose
# reports hold every other form of a check entry.  ``ka0_kb0`` runs the flat
# n = 2 member, where the negative-claim witnesses certify their exception.
# ``rational`` takes 30 samples, so that at n = 3 (25 rows per chunk) its
# Einstein and witness paths cross a chunk boundary; ``witnesses_only``
# takes 30 samples too, so that the witnesses' pass, each member's first
# there, crosses one at n = 3; ``einstein_witnesses`` runs the own member's
# pass before any suite has built ``stencil(1)``; ``integrability_connection``
# reads the own member at both stencils' centers before any suite has built
# its jets on all rows.  ``overflow`` writes
# "nan" values and a ``suite_error`` raised inside a suite;
# ``huge_c`` fails sampling at c = 1e160 and 1e300, so each suite gets a
# ``suite_error`` with 0 samples there.
FLAG_SETS = {
    "default": [],
    "sweep": [
        "--dims", "2,3", "--curvatures", "1.0", "--samples", "300",
        "--suites", "almost_kahler,integrability,curvature,einstein",
    ],
    "oracles": ["--samples", "5"],
    "high_dim": [
        "--dims", "4,5", "--curvatures", "1.0", "--samples", "5",
        "--suites", "almost_kahler,integrability,connection,witnesses",
    ],
    "rational": ["--profile", "rational", "--samples", "30"],
    "ka0": ["--ka", "0", "--samples", "20"],
    "kb0": ["--kb", "0", "--samples", "20"],
    "ka0_kb0": ["--ka", "0", "--kb", "0", "--samples", "20"],
    "offset": ["--a-metric-offset", "0.1", "--samples", "20"],
    "small_t": ["--t-min", "1e-4", "--t-max", "1e-2", "--samples", "5"],
    "large_t": ["--t-min", "1e2", "--t-max", "1e4", "--samples", "20"],
    "extreme_c": ["--curvatures", "0.01,50", "--samples", "20"],
    "dims_4_5": ["--dims", "4,5", "--curvatures", "1.0", "--samples", "5"],
    "overflow": ["--t-min", "1e100", "--t-max", "1e140", "--samples", "4", "--dims", "3", "--curvatures", "1.0"],
    "huge_c": ["--curvatures", "1.0,1e160,1e300", "--samples", "5"],
    "witnesses_only": ["--suites", "witnesses", "--samples", "30"],
    "einstein_witnesses": ["--suites", "einstein,witnesses", "--samples", "30"],
    "integrability_connection": ["--suites", "integrability,connection", "--samples", "5"],
}
SEEDS = (0, 3)
# Report keys left out of the comparison.
IGNORED = ("timings",)
STATUSES = ("identical", "moved", "verdict", "note", "missing", "other")
# Lines of stderr quoted from a crashed run.
CRASH_LINES = 20
# The golden test of a tree, and the directory of its goldens.
GOLDEN_TEST = Path("tests") / "test_golden.py"
GOLDEN_DIR = Path("tests") / "golden"


def run_report(tree: Path, flags: list[str]) -> tuple[int, dict | None]:
    """Exit code and JSON report of the CLI of ``tree`` on ``flags``; no
    report when the CLI refuses the flags (exit 2).

    Any other exit code is a crash, and so is an exit 0 or 1 without a JSON
    report on stdout: Python also exits 1 on an uncaught exception.  A crash
    raises ``SystemExit`` naming the tree, the flags and the tail of stderr.
    """
    env = {key: value for key, value in os.environ.items() if key != "PYTHONPATH"}
    env["PYTHONPATH"] = str(tree / "src")
    command = [sys.executable, "-m", "cotangent_kahler", *flags, "--report", "-"]
    proc = subprocess.run(command, cwd=tree, env=env, capture_output=True, text=True)
    if proc.returncode == 2:
        return 2, None
    if proc.returncode in (0, 1):
        try:
            return proc.returncode, json.loads(proc.stdout)
        except json.JSONDecodeError:
            pass
    tail = "\n".join(proc.stderr.splitlines()[-CRASH_LINES:])
    raise SystemExit(f"cotangent_kahler crashed in {tree} on {flags} (exit {proc.returncode}):\n{tail}")


def _checks(report: dict) -> dict[str, dict]:
    """Every check entry of ``report``, keyed ``suite/check n=<dim> c=<curvature>``."""
    return {
        f"{suite['name']}/{check['name']} n={config['dim']} c={config['curvature']}": check
        for suite in report["suites"]
        for config in suite["configs"]
        for check in config["checks"]
    }


def _rest(report: dict) -> dict:
    """``report`` without its check entries and the ``IGNORED`` keys."""
    rest = {key: value for key, value in report.items() if key not in IGNORED}
    rest["suites"] = [
        {**suite, "configs": [{**config, "checks": None} for config in suite["configs"]]}
        for suite in report["suites"]
    ]
    return rest


def compare_check(old: dict | None, new: dict | None) -> dict:
    """The status of one check (see the module docstring)."""
    if old is None or new is None:
        return {"status": "missing"}
    if old == new:
        return {"status": "identical"}
    if old["passed"] != new["passed"]:
        status = "verdict"
    elif old.get("note") != new.get("note"):
        status = "note"
    elif old["value"] != new["value"]:
        status = "moved"
    else:
        status = "other"
    out = {"status": status, "parent": old, "change": new}
    if old["value"] != new["value"] and not isinstance(old["value"], str) and not isinstance(new["value"], str):
        out["abs"] = abs(new["value"] - old["value"])
        out["rel"] = out["abs"] / abs(old["value"]) if old["value"] else float("inf")
    return out


def compare_runs(parent: tuple[int, dict | None], change: tuple[int, dict | None]) -> dict:
    """The comparison of two ``run_report`` results: the exit codes, whether
    the rest of the reports is equal, the count per status, the largest
    ``abs`` and ``rel`` of the values that differ, and every check that is
    not identical."""
    (old_code, old), (new_code, new) = parent, change
    out = {"exit_codes": [old_code, new_code], "rest_identical": old is None and new is None}
    if old is None or new is None:
        out["counts"] = dict.fromkeys(STATUSES, 0)
        return out
    old_checks, new_checks = _checks(old), _checks(new)
    names = list(old_checks) + [name for name in new_checks if name not in old_checks]
    checks = {name: compare_check(old_checks.get(name), new_checks.get(name)) for name in names}
    out["rest_identical"] = _rest(old) == _rest(new)
    out["counts"] = {status: sum(c["status"] == status for c in checks.values()) for status in STATUSES}
    for key in ("abs", "rel"):
        out[f"max_{key}"] = max((c[key] for c in checks.values() if key in c), default=0.0)
    out["changed"] = {name: c for name, c in checks.items() if c["status"] != "identical"}
    return out


def all_identical(run: dict) -> bool:
    """Whether a comparison found nothing that differs."""
    counts, codes = run["counts"], run["exit_codes"]
    return codes[0] == codes[1] and run["rest_identical"] and sum(counts.values()) == counts["identical"]


def diff_trees(parent: Path, change: Path, flag_sets: dict, seeds) -> dict:
    """``{"<flag set> seed=<seed>": comparison}`` over every flag set and seed."""
    runs = {}
    for name, flags in flag_sets.items():
        for seed in seeds:
            argv = [*flags, "--seed", str(seed)]
            pair = run_report(parent, argv), run_report(change, argv)
            runs[f"{name} seed={seed}"] = compare_runs(*pair)
            print(f"{name} seed={seed}: done", file=sys.stderr)
    return runs


def golden_flags(tree: Path) -> dict[str, list[str]]:
    """``GOLDEN`` of ``tree``'s golden test, the flags of each golden report
    by file name, read without importing the test."""
    module = ast.parse((tree / GOLDEN_TEST).read_text(encoding="utf-8"))
    for node in module.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "GOLDEN" for t in node.targets):
            return ast.literal_eval(node.value)
    raise SystemExit(f"no GOLDEN in {tree / GOLDEN_TEST}")


def rewrite_goldens(tree: Path) -> dict:
    """Run ``tree``'s CLI on the flags of each golden, write each report over
    its golden, and return ``{"golden <name>": comparison}`` of the old
    golden (with the exit code its verdict implies) against the new report."""
    runs = {}
    for name, flags in golden_flags(tree).items():
        path = tree / GOLDEN_DIR / name
        old = json.loads(path.read_text(encoding="utf-8")) if path.exists() else None
        code, report = run_report(tree, flags)
        if report is None:
            raise SystemExit(f"the CLI of {tree} refused the flags of golden {name}: {flags}")
        path.write_text(json.dumps(report, indent=2, sort_keys=True, allow_nan=False) + "\n", encoding="utf-8")
        old_code = None if old is None else 0 if old["passed"] else 1
        runs[f"golden {name}"] = compare_runs((old_code, old), (code, report))
        print(f"golden {name}: rewritten", file=sys.stderr)
    return runs


def format_table(runs: dict) -> str:
    """A Markdown table of ``diff_trees``' result, one row per run."""
    columns = ("flag set, seed", "checks", *STATUSES, "max abs, rel", "exit codes", "rest")
    lines = ["| " + " | ".join(columns) + " |", "|" + " --- |" * len(columns)]
    for label, run in runs.items():
        counts, (old_code, new_code) = run["counts"], run["exit_codes"]
        spread = f"{run['max_abs']:.2g}, {run['max_rel']:.2g}" if counts["moved"] + counts["verdict"] else "-"
        cells = (label, sum(counts.values()), *counts.values(), spread)
        cells += (old_code if old_code == new_code else f"{old_code} -> {new_code}",)
        cells += ("same" if run["rest_identical"] else "differs",)
        lines.append("| " + " | ".join(map(str, cells)) + " |")
    return "\n".join(lines)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, help="source tree of the parent (not with --rewrite-goldens)")
    parser.add_argument("--change", type=Path, required=True, help="source tree of the change")
    parser.add_argument(
        "--rewrite-goldens",
        action="store_true",
        help="rewrite the change tree's golden reports and compare them with the old ones",
    )
    parser.add_argument("--out", type=Path, default=Path("report_diff.json"), help="the JSON file to write")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if (args.parent is None) != args.rewrite_goldens:
        parser.error("give either --parent or --rewrite-goldens")
    if args.rewrite_goldens:
        runs = rewrite_goldens(args.change.resolve())
        record = {"goldens": golden_flags(args.change.resolve()), "ignored": list(IGNORED), "runs": runs}
    else:
        runs = diff_trees(args.parent.resolve(), args.change.resolve(), FLAG_SETS, SEEDS)
        record = {"flag_sets": FLAG_SETS, "seeds": list(SEEDS), "ignored": list(IGNORED), "runs": runs}
    args.out.write_text(json.dumps(record, indent=2) + "\n")
    print(format_table(runs))
    return 0 if all(all_identical(run) for run in runs.values()) else 1


if __name__ == "__main__":
    raise SystemExit(main())
