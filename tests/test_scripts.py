"""The scripts under scripts/: a smoke test of the exploration script
profile_sweep.py, the summary, Tier-1 entry and layer entry of
bench_pairs.py on fixed numbers, report_diff.py on fixed reports, against
the benchmark's workloads, on one tiny flag set run twice on this tree,
and rewriting the golden of a temporary tree, and mutation_matrix.py on
one mutation and one tiny flag set, on fixed catches, and against the
committed MUTATIONS.json."""

import ast
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


def test_report_diff_runs_the_benchmark_workloads():
    """``report_diff.py``'s ``sweep``, ``oracles`` and ``high_dim`` flag sets
    are the workloads of ``bench/run.py``.  The literal ``WORKLOADS`` is read
    from the source, as importing ``run.py`` sets the BLAS thread variables
    for the rest of the process."""
    tree = ast.parse((SCRIPTS.parent / "bench" / "run.py").read_text(encoding="utf-8"))
    (workloads,) = (
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign) and [ast.unparse(name) for name in node.targets] == ["WORKLOADS"]
    )
    flag_sets = _load_script("report_diff").FLAG_SETS
    assert {name: flag_sets[name] for name in workloads} == workloads


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


def test_report_diff_rewrites_the_goldens_of_a_tree(tmp_path, capsys):
    """A temporary tree with this tree's package, whose golden test lists one
    tiny flag set and whose golden has one value moved by 1: the rewrite
    writes the CLI's report for those flags over it, in the CLI's format,
    reports the one moved value and exits 1; a second rewrite finds every
    golden identical and exits 0."""
    report_diff = _load_script("report_diff")
    tiny = ["--dims", "2", "--curvatures", "1.0", "--samples", "2", "--suites", "almost_kahler"]
    (tmp_path / "src").symlink_to(SCRIPTS.parent / "src")
    golden = tmp_path / "tests" / "golden" / "tiny.json"
    golden.parent.mkdir(parents=True)
    (tmp_path / "tests" / "test_golden.py").write_text(f"GOLDEN = {{'tiny.json': {tiny!r}}}\n")
    code, report = report_diff.run_report(tmp_path, tiny)
    stale = json.loads(json.dumps(report))
    stale["suites"][0]["configs"][0]["checks"][0]["value"] += 1.0
    golden.write_text(json.dumps(stale))
    argv = ["--change", str(tmp_path), "--rewrite-goldens", "--out", str(tmp_path / "diff.json")]
    assert report_diff.main(argv) == 1
    text = golden.read_text()
    written = json.loads(text)
    assert text == json.dumps(written, indent=2, sort_keys=True) + "\n"
    assert {**written, "timings": None} == {**report, "timings": None}
    run = json.loads((tmp_path / "diff.json").read_text())["runs"]["golden tiny.json"]
    assert run["counts"]["moved"] == 1 and run["exit_codes"] == [code, code]
    assert "| golden tiny.json |" in capsys.readouterr().out
    assert report_diff.main(argv) == 0


def _source_bytes(root: Path) -> dict[str, bytes]:
    """Every file under ``root`` outside ``__pycache__``, by relative path."""
    return {
        str(path.relative_to(root)): path.read_bytes()
        for path in sorted(root.rglob("*"))
        if path.is_file() and "__pycache__" not in path.parts
    }


def test_mutation_matrix_catches_one_mutation_on_a_tiny_flag_set(tmp_path, monkeypatch, capsys):
    """The family-constant mutation on the einstein suite at n = 2, c = 1 and
    two samples: ``einstein/einstein_constant`` catches it, the unmutated
    copy fails nothing, the file and the tables are written, and this
    tree's sources are byte-identical afterwards."""
    matrix = _load_script("mutation_matrix")
    [mutation] = [m for m in matrix.CATALOG if m[0] == "family_constant"]
    tiny = ["--dims", "2", "--curvatures", "1.0", "--samples", "2", "--suites", "einstein", "--seed", "0"]
    monkeypatch.setattr(matrix, "CATALOG", (mutation,))
    monkeypatch.setattr(matrix, "FLAG_SETS", {"tiny": tiny})
    monkeypatch.setattr(matrix, "OUT", tmp_path / "MUTATIONS.json")
    before = _source_bytes(SCRIPTS.parent / "src")
    assert matrix.main() == 0
    assert _source_bytes(SCRIPTS.parent / "src") == before
    record = json.loads((tmp_path / "MUTATIONS.json").read_text())
    assert record["clean_failures"] == {"tiny": []}
    assert "einstein/einstein_constant" in record["caught_by"]["family_constant"]["tiny"]
    assert "family_constant" in record["catch_sets"]["einstein/einstein_constant"]
    assert record["survivors"] == []
    assert "| family_constant |" in capsys.readouterr().out


def test_mutation_matrix_records_a_crash_as_no_check():
    """A mutation that kills the CLI before it writes a report is recorded
    as ``<crash>`` on each flag set, not as a failing check."""
    matrix = _load_script("mutation_matrix")
    crash = ("crash", "__main__.py", "raise SystemExit(main())", "raise RuntimeError('mutated')")
    tiny = ["--dims", "2", "--curvatures", "1.0", "--samples", "2", "--suites", "almost_kahler", "--seed", "0"]
    result = matrix.run_matrix(SCRIPTS.parent, [crash], {"tiny": tiny})
    assert result["clean"]["tiny"]["failed"] == []
    assert result["caught_by"] == {"crash": {"tiny": [matrix.CRASH]}}


def test_mutation_matrix_summary_on_fixed_catches():
    """Catch sets join the flag sets; a crash is no check; a mutation caught
    by one check alone names it; a check whose catches all lie in another's
    names that one; a mutation caught by nothing survives."""
    matrix = _load_script("mutation_matrix")
    caught_by = {
        "m1": {"a": ["s/x", "s/y"], "b": ["s/z"]},
        "m2": {"a": ["s/y"], "b": []},
        "m3": {"a": [matrix.CRASH], "b": []},
        "m4": {"a": [], "b": []},
    }
    summary = matrix.summarize(["s/x", "s/y", "s/z", "s/w"], caught_by)
    assert summary["catch_sets"] == {"s/x": ["m1"], "s/y": ["m1", "m2"], "s/z": ["m1"], "s/w": []}
    assert summary["single_catcher"] == {"m2": "s/y"}
    assert summary["subsumed"] == {"s/x": ["s/y", "s/z"], "s/z": ["s/x", "s/y"]}
    assert summary["survivors"] == ["m4"]


def test_mutation_catalog_matches_the_sources_once():
    """Every ``old`` of the catalog occurs exactly once in its file, so no
    mutation has rotted away from the code it names."""
    matrix = _load_script("mutation_matrix")
    for mid, file, old, new in matrix.CATALOG:
        text = (SCRIPTS.parent / matrix.PACKAGE / file).read_text(encoding="utf-8")
        assert text.count(old) == 1, mid
        assert old != new, mid


def test_mutation_matrix_is_not_stale():
    """``MUTATIONS.json`` lists the checks of the default battery's golden
    report, in order, and the catalog of the script: a change that adds or
    removes a check, or edits the catalog, runs the matrix again."""
    matrix = _load_script("mutation_matrix")
    record = json.loads((SCRIPTS.parent / "MUTATIONS.json").read_text())
    golden = json.loads((SCRIPTS.parent / "tests" / "golden" / "samples3_seed0.json").read_text())
    names = [
        f"{suite['name']}/{check['name']}"
        for suite in golden["suites"]
        for config in suite["configs"]
        for check in config["checks"]
    ]
    assert record["checks"] == list(dict.fromkeys(names))
    assert record["catalog"] == [dict(zip(("id", "file", "old", "new"), m)) for m in matrix.CATALOG]
    assert record["flag_sets"] == matrix.FLAG_SETS
