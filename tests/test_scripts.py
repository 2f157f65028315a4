"""The scripts under scripts/: a smoke test of the exploration script
profile_sweep.py, and the summary and Tier-1 entry of bench_pairs.py on
fixed numbers."""

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


def test_bench_pairs_tier1_entry_on_fixed_times(monkeypatch):
    """The Tier-1 pairs alternate which side goes first, and the entry
    summarizes ``tier1_s`` as lower-is-better."""
    bench_pairs = _load_script("bench_pairs")
    times = {"parent": iter([10.0, 11.0, 12.0, 13.0]), "change": iter([9.0, 10.0, 10.5, 11.0])}
    order = []

    def fake_time_tier1(checkout):
        order.append(checkout)
        return {"tier1_s": next(times[checkout])}

    monkeypatch.setattr(bench_pairs, "time_tier1", fake_time_tier1)
    entry = bench_pairs.tier1_entry({side: side for side in bench_pairs.SIDES}, 4)
    assert order == ["parent", "change", "change", "parent"] * 2
    assert [pair["first"] for pair in entry["runs"]] == ["parent", "change"] * 2
    assert [pair["change"]["tier1_s"] for pair in entry["runs"]] == [9.0, 10.0, 10.5, 11.0]
    summary = entry["summary"]["tier1_s"]
    assert summary["parent"] == {"q1": 10.75, "median": 11.5, "q3": 12.25}
    assert summary["change"]["median"] == 10.25
    assert summary["change_wins"] == 4
    assert summary["gap_exceeds_parent_iqr"] is False


def test_bench_pairs_failing_tier1_aborts(monkeypatch, tmp_path):
    """A failing Tier-1 run stops the script; the run gets the Tier-1 command
    in the checkout, without PYTHONPATH."""
    bench_pairs = _load_script("bench_pairs")
    calls = []

    def failing_run(command, cwd, env, **kwargs):
        calls.append((command, cwd, env))
        return bench_pairs.subprocess.CompletedProcess(command, 1, stdout="1 failed", stderr="")

    monkeypatch.setenv("PYTHONPATH", "elsewhere")
    monkeypatch.setattr(bench_pairs.subprocess, "run", failing_run)
    with pytest.raises(SystemExit, match="(?s)Tier-1 tests failed in .*1 failed"):
        bench_pairs.time_tier1(tmp_path)
    [(command, cwd, env)] = calls
    assert command == ["python", "-m", "pytest", "-q", "-p", "no:cacheprovider"]
    assert cwd == tmp_path
    assert "PYTHONPATH" not in env
