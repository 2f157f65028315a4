"""The scripts under scripts/: a smoke test of the exploration script
profile_sweep.py, the summary, Tier-1 entry and layer entry of
bench_pairs.py on fixed numbers, and report_diff.py on fixed reports and on
one tiny flag set run twice on this tree."""

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


def test_bench_pairs_summary_judges_each_bound_on_fixed_runs():
    """A metric with a bound records it, and is within it when the change's
    median is worse than the parent's by at most that fraction of the
    parent's median, in the metric's direction; a metric without one
    records neither."""
    pairs = [
        {
            "parent": {"run_s": p, "rss": p, "score": p, "rows": p},
            "change": {"run_s": c, "rss": c + 0.5, "score": c, "rows": c},
        }
        for p, c in zip([1.0, 2.0, 3.0], [2.0, 3.3, 4.0])
    ]
    better = {"run_s": "lower", "rss": "lower", "score": "higher", "rows": "lower"}
    bounds = {"run_s": 0.1, "rss": 0.25, "score": 0.2}
    summary = _load_script("bench_pairs").summarize(pairs, better, bounds)
    # Medians: parent 2.0; change 3.3 (run_s, score) and 3.8 (rss).
    assert summary["run_s"]["bound"] == 0.1
    assert summary["run_s"]["within_bound"] is False
    assert summary["rss"]["within_bound"] is False
    assert summary["score"]["within_bound"] is True
    assert "bound" not in summary["rows"] and "within_bound" not in summary["rows"]
    pairs = [{"parent": {"run_s": p}, "change": {"run_s": p + 0.25}} for p in (1.0, 2.0, 4.0)]
    for direction, bound, within in [("lower", 0.125, True), ("lower", 0.1, False), ("higher", 0.0, True)]:
        summary = _load_script("bench_pairs").summarize(pairs, {"run_s": direction}, {"run_s": bound})
        assert summary["run_s"]["within_bound"] is within, (direction, bound)
    pairs = [{"parent": {"score": p}, "change": {"score": p - 0.25}} for p in (1.0, 2.0, 4.0)]
    for bound, within in [(0.125, True), (0.1, False)]:
        summary = _load_script("bench_pairs").summarize(pairs, {"score": "higher"}, {"score": bound})
        assert summary["score"]["within_bound"] is within, bound


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


def test_bench_pairs_records_the_bounds_of_the_benchmark_spec(monkeypatch, tmp_path):
    """Each workload's summary carries the ``bound`` of every end-to-end
    metric of ``BENCHMARK.json`` and whether the change's median is within
    it; the Tier-1 entry, which has no bound, carries neither."""
    bench_pairs = _load_script("bench_pairs")
    checkouts = {side: tmp_path / side for side in bench_pairs.SIDES}
    for checkout in checkouts.values():
        checkout.mkdir()
    spec = {
        "command": ["python3", "bench/run.py"],
        "run_seconds": 20,
        "workloads": [{"name": "sweep"}],
        "end_to_end": [
            {"name": "run_s", "better": "lower", "bound": 0.2},
            {"name": "peak_rss_mb", "better": "lower", "bound": 0.1},
        ],
    }
    (checkouts["change"] / "BENCHMARK.json").write_text(json.dumps(spec))
    values = {
        checkouts["parent"]: {"run_s": 1.0, "peak_rss_mb": 40.0},
        checkouts["change"]: {"run_s": 0.5, "peak_rss_mb": 45.0},
    }
    monkeypatch.setattr(bench_pairs, "run_once", lambda checkout, *args: values[checkout])
    monkeypatch.setattr(bench_pairs, "trace_once", lambda *args: {})
    monkeypatch.setattr(bench_pairs, "time_tier1", lambda checkout: {"tier1_s": 1.0})
    monkeypatch.setattr(bench_pairs, "commit_of", lambda checkout: {"commit": "abc", "dirty": False})
    monkeypatch.chdir(tmp_path)
    argv = ["--parent", "parent", "--change", "change", "--label", "x", "--seed", "7", "--pairs", "2"]
    assert bench_pairs.main(argv) == 0
    record = json.loads((tmp_path / "BENCH_x.json").read_text())
    summary = record["workloads"]["sweep"]["summary"]
    assert (summary["run_s"]["bound"], summary["run_s"]["within_bound"]) == (0.2, True)
    assert (summary["peak_rss_mb"]["bound"], summary["peak_rss_mb"]["within_bound"]) == (0.1, False)
    assert "bound" not in record["tier1"]["summary"]["tier1_s"]


def _report(value=1e-12, passed=True, note=None, discrepancy=None):
    check = {"name": "pair_symmetry", "value": value, "tolerance": 1e-9, "comparison": "le", "passed": passed}
    if note is not None:
        check["note"] = note
    config = {"dim": 2, "curvature": 1.0, "samples": 3, "passed": passed, "checks": [check]}
    return {
        "schema_version": 3,
        "suites": [{"name": "curvature", "passed": passed, "configs": [config]}],
        "discrepancy_notes": [] if discrepancy is None else [discrepancy],
        "passed": passed,
        "timings": {"curvature": 0.5},
    }


def test_report_diff_classifies_each_check():
    """Equal reports with other timings are identical; a value that moves is
    ``moved`` with its absolute and relative change; a flipped verdict, a
    new note and a changed discrepancy note are each reported."""
    compare = _load_script("report_diff").compare_runs
    label = "curvature/pair_symmetry n=2 c=1.0"
    same = compare((0, _report()), (0, {**_report(), "timings": {}}))
    assert same["counts"]["identical"] == 1 and same["rest_identical"] is True
    moved = compare((0, _report()), (0, _report(value=1.5e-12)))
    assert moved["changed"][label]["status"] == "moved"
    assert moved["max_abs"] == pytest.approx(0.5e-12) and moved["max_rel"] == pytest.approx(0.5)
    verdict = compare((0, _report()), (1, _report(value=2e-9, passed=False)))
    assert verdict["changed"][label]["status"] == "verdict" and verdict["exit_codes"] == [0, 1]
    note = compare((0, _report()), (0, _report(note="fixed")))
    assert note["changed"][label]["status"] == "note"
    rest = compare((0, _report()), (0, _report(discrepancy="suite: new")))
    assert rest["counts"]["identical"] == 1 and rest["rest_identical"] is False


def test_report_diff_on_the_same_tree_is_identical(tmp_path, monkeypatch, capsys):
    """One tiny flag set at one seed, run twice on this tree: every check is
    byte-identical, the exit codes match, the JSON file records the run and
    the table has its row."""
    report_diff = _load_script("report_diff")
    tiny = ["--dims", "2", "--curvatures", "1.0", "--samples", "2", "--suites", "almost_kahler,connection"]
    monkeypatch.setattr(report_diff, "FLAG_SETS", {"tiny": tiny})
    monkeypatch.setattr(report_diff, "SEEDS", (0,))
    root = str(SCRIPTS.parent)
    out = tmp_path / "diff.json"
    assert report_diff.main(["--parent", root, "--change", root, "--out", str(out)]) == 0
    record = json.loads(out.read_text())
    run = record["runs"]["tiny seed=0"]
    assert run["exit_codes"] == [0, 0] and run["rest_identical"] is True
    assert run["counts"]["identical"] == sum(run["counts"].values()) > 0
    assert "| tiny seed=0 |" in capsys.readouterr().out


def test_report_diff_names_a_crashed_run(tmp_path):
    """A CLI that dies on an uncaught exception exits 1 with no report on
    stdout; the runner stops on it and names the tree, the flags and the
    traceback's last line instead of failing to parse an empty report."""
    package = tmp_path / "src" / "cotangent_kahler"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("")
    (package / "__main__.py").write_text('raise RuntimeError("injected crash")\n')
    flags = ["--dims", "2", "--samples", "2"]
    with pytest.raises(SystemExit) as crash:
        _load_script("report_diff").run_report(tmp_path, flags)
    message = str(crash.value)
    assert message.startswith(f"cotangent_kahler crashed in {tmp_path} on {flags} (exit 1):")
    assert message.endswith("RuntimeError: injected crash")
