"""Golden reports: the battery on two tiny configs, against committed reports.

Each golden under ``tests/golden/`` is the CLI's report for the flags that
``GOLDEN`` lists.  To regenerate one, run the CLI on those flags, e.g.

    PYTHONPATH=src python -m cotangent_kahler --samples 3 --seed 0 \\
        --report tests/golden/samples3_seed0.json

or rewrite them all, with a table of what moved, by

    python3 scripts/report_diff.py --change . --rewrite-goldens

Check names, verdicts, notes, the rest of the report and the exit code must
match exactly, ``timings`` aside.  Values match to a relative 1e-12; a value
below 1e-6 of its check's tolerance is rounding noise that BLAS may change
across hosts, so it may move by up to that amount.
"""

import json
from pathlib import Path

import pytest

from cotangent_kahler.cli import main

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

GOLDEN = {
    "samples3_seed0.json": ["--samples", "3", "--seed", "0"],
    "dims4_c1_samples3_seed0.json": [
        "--dims", "4", "--curvatures", "1.0", "--samples", "3", "--seed", "0"
    ],
}


def _split_values(report: dict) -> list[tuple[str, float, float]]:
    """Take every check's value out of ``report``, in place, as ``(label,
    value, tolerance)``; drop ``timings``."""
    report.pop("timings")
    values = []
    for suite in report["suites"]:
        for cfg in suite["configs"]:
            for check in cfg["checks"]:
                label = f"{suite['name']}/{check['name']} n={cfg['dim']} c={cfg['curvature']}"
                values.append((label, check.pop("value"), check["tolerance"]))
    return values


def _value_matches(value, golden, tolerance: float) -> bool:
    if isinstance(golden, str) or isinstance(value, str):
        return value == golden
    if abs(golden) < 1e-6 * tolerance:
        return abs(value - golden) <= 1e-6 * tolerance
    return abs(value - golden) <= 1e-12 * abs(golden)


@pytest.mark.parametrize("name", list(GOLDEN))
def test_report_matches_its_golden(name, tmp_path):
    golden = json.loads((GOLDEN_DIR / name).read_text(encoding="utf-8"))
    out = tmp_path / name
    code = main(GOLDEN[name] + ["--report", str(out)])
    report = json.loads(out.read_text(encoding="utf-8"))
    assert code == (0 if golden["passed"] else 1)
    values, golden_values = _split_values(report), _split_values(golden)
    assert report == golden
    moved = [
        f"{label}: {value!r} against {want!r}"
        for (label, value, tolerance), (_, want, _) in zip(values, golden_values)
        if not _value_matches(value, want, tolerance)
    ]
    assert not moved, "\n".join(moved)
