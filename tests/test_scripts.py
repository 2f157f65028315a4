"""The scripts under scripts/: a smoke test of the exploration script
profile_sweep.py, and the summary, Tier-1 entry and layer entry of
bench_pairs.py on fixed numbers."""

import importlib.util
import json
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


def test_bench_pairs_trace_keeps_the_layer_metrics(monkeypatch, tmp_path):
    """A traced run is the benchmark command with ``--trace 1``; of its
    metrics it keeps each layer's ``self_s`` and ``calls``, and whether the
    run was correct."""
    bench_pairs = _load_script("bench_pairs")
    metrics = {
        "curvature.curvature_blocks.calls": 32,
        "curvature.curvature_blocks.self_s": 0.016,
        "fd.field_evals": 13,
        "suites.curvature.s": 0.04,
        "trace.overhead_s": 0.001,
    }
    result = {
        "correct": True,
        "attempted": 10,
        "failed": 0,
        "metrics": {name: {"value": value, "unit": "s"} for name, value in metrics.items()},
    }
    calls = []

    def fake_run(command, cwd, env, **kwargs):
        calls.append((command, cwd))
        stdout = "sweep seed=3: wall [0.1] s\n" + json.dumps(result) + "\n"
        return bench_pairs.subprocess.CompletedProcess(command, 0, stdout=stdout, stderr="")

    monkeypatch.setattr(bench_pairs.subprocess, "run", fake_run)
    layers = bench_pairs.trace_once(tmp_path, ["python3", "bench/run.py"], "sweep", 3, 20)
    assert calls == [
        (["python3", "bench/run.py", "--workload", "sweep", "--seed", "3", "--seconds", "20", "--trace", "1"], tmp_path)
    ]
    assert layers == {
        "curvature.curvature_blocks.calls": 32,
        "curvature.curvature_blocks.self_s": 0.016,
        "correct": True,
    }


def test_bench_pairs_writes_one_traced_run_per_side_and_workload(monkeypatch, tmp_path):
    """The record's ``layers`` entry holds, per workload, one traced run of
    each side at the record's seed and run length."""
    bench_pairs = _load_script("bench_pairs")
    checkouts = {side: tmp_path / side for side in bench_pairs.SIDES}
    for checkout in checkouts.values():
        checkout.mkdir()
    spec = {
        "command": ["python3", "bench/run.py"],
        "run_seconds": 20,
        "workloads": [{"name": "sweep"}, {"name": "oracles"}],
        "end_to_end": [{"name": "run_s", "better": "lower"}],
    }
    (checkouts["change"] / "BENCHMARK.json").write_text(json.dumps(spec))
    traced = []

    def fake_trace_once(checkout, command, workload, seed, seconds):
        traced.append((checkout, workload, seed, seconds))
        return {"curvature.curvature_blocks.self_s": float(len(traced)), "correct": True}

    monkeypatch.setattr(bench_pairs, "run_once", lambda checkout, *args: {"run_s": 1.0})
    monkeypatch.setattr(bench_pairs, "trace_once", fake_trace_once)
    monkeypatch.setattr(bench_pairs, "tier1_entry", lambda checkouts, count: {})
    monkeypatch.setattr(bench_pairs, "commit_of", lambda checkout: {"commit": "abc", "dirty": False})
    monkeypatch.chdir(tmp_path)
    argv = ["--parent", "parent", "--change", "change", "--label", "x", "--seed", "7", "--pairs", "2"]
    assert bench_pairs.main(argv) == 0
    assert traced == [
        (checkouts[side], workload, 7, 20) for workload in ("sweep", "oracles") for side in bench_pairs.SIDES
    ]
    record = json.loads((tmp_path / "BENCH_x.json").read_text())
    assert record["layers"] == {
        "sweep": {
            "parent": {"curvature.curvature_blocks.self_s": 1.0, "correct": True},
            "change": {"curvature.curvature_blocks.self_s": 2.0, "correct": True},
        },
        "oracles": {
            "parent": {"curvature.curvature_blocks.self_s": 3.0, "correct": True},
            "change": {"curvature.curvature_blocks.self_s": 4.0, "correct": True},
        },
    }
