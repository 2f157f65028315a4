"""The scripts under scripts/: a smoke test of the exploration script
profile_sweep.py, and the summary of bench_pairs.py on fixed numbers."""

import importlib.util
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def _load_script(name="profile_sweep"):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_profile_sweep_runs_on_two_energies(capsys):
    """Two energies give a header, a rule and two rows with a vanishing
    Einstein defect on the family member."""
    assert _load_script().main(["--steps", "2", "--dim", "2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    rows = lines[3:]
    assert len(rows) == 2
    for row in rows:
        t, v, admissibility, gamma, defect, hsc = (float(x) for x in row.split())
        assert admissibility > 0.0
        assert abs(gamma) < 1e-9
        assert defect < 1e-6


def test_profile_sweep_refuses_a_non_finite_profile_constant(capsys):
    """A NaN k_a is bad input: an error on stderr, exit 2 and no table."""
    assert _load_script().main(["--ka", "nan", "--steps", "2", "--dim", "2"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: k_a, k_b: profile constants")


def test_bench_pairs_summary_on_fixed_runs():
    """Quartiles interpolate linearly between order statistics; a pair is a
    win when the change is strictly better in the metric's direction, and
    the median gap is judged against the parent's inter-quartile range."""
    parent = [1.0, 2.0, 3.0, 4.0, 5.0]
    change = [0.5, 2.5, 1.0, 1.5, 2.0]
    pairs = [
        {"parent": {"run_s": p, "score": p}, "change": {"run_s": c, "score": c}}
        for p, c in zip(parent, change)
    ]
    summary = _load_script("bench_pairs").summarize(pairs, {"run_s": "lower", "score": "higher"})
    run_s = summary["run_s"]
    assert run_s["parent"] == {"q1": 2.0, "median": 3.0, "q3": 4.0}
    assert run_s["change"] == {"q1": 1.0, "median": 1.5, "q3": 2.0}
    assert run_s["change_wins"] == 4
    assert run_s["pairs"] == 5
    assert run_s["median_change"] == pytest.approx(-0.5)
    assert run_s["parent_iqr"] == 2.0
    assert run_s["gap_exceeds_parent_iqr"] is False
    score = summary["score"]
    assert score["change_wins"] == 1
    assert score["gap_exceeds_parent_iqr"] is False


def test_bench_pairs_gap_beyond_the_parent_spread_counts():
    pairs = [{"parent": {"run_s": p}, "change": {"run_s": p - 1.0}} for p in (3.0, 3.1, 3.2, 3.3)]
    summary = _load_script("bench_pairs").summarize(pairs, {"run_s": "lower"})["run_s"]
    assert summary["change_wins"] == 4
    assert summary["gap_exceeds_parent_iqr"] is True
