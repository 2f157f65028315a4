"""Verification driver: configuration validation, report schema,
determinism, and process exit codes."""

import io
import json

import numpy as np
import pytest

from cotangent_kahler.base import ModelParams
from cotangent_kahler.cli import _summarize, build_parser, config_from_args, main
from cotangent_kahler.errors import ConfigError
from cotangent_kahler.mtensor import CotangentPoint
from cotangent_kahler.suites import (
    RunConfig,
    SUITE_NAMES,
    Tolerances,
    run_verification,
    sample_points,
)

FAST = dict(
    dims=(2,), curvatures=(1.0,), samples=2, suites=("almost_kahler", "integrability")
)

# ---------------------------------------------------------------------------
# Configuration objects
# ---------------------------------------------------------------------------


class TestRunConfig:
    def test_defaults_are_valid(self):
        cfg = RunConfig()
        assert cfg.dims == (2, 3)
        assert cfg.curvatures == (0.5, 1.0, 2.0)
        assert cfg.samples == 100
        assert (cfg.t_min, cfg.t_max) == (0.1, 10.0)
        assert cfg.a_metric_offset == 0.0
        assert cfg.suites == SUITE_NAMES

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(dims=()),
            dict(dims=(1,)),
            dict(curvatures=(-1.0,)),
            dict(curvatures=()),
            dict(profile="cubic"),
            dict(samples=0),
            dict(t_min=0.0),
            dict(t_min=2.0, t_max=1.0),
            dict(suites=()),
            dict(suites=("almost_kahler", "bogus")),
            dict(a_metric_offset=-1.0),
            dict(t_max=float("inf")),
            dict(curvatures=(float("nan"),)),
            dict(curvatures=(1.0, float("inf"))),
            dict(k_a=-1.0),
            dict(k_b=-0.5),
            dict(k_a=float("nan")),
            dict(k_b=float("inf")),
            dict(a_metric_offset=float("nan")),
            dict(seed=-1),
            dict(suites=("curvature", "curvature")),
            dict(dims=(2, 3, 2)),
            dict(curvatures=(1.0, 2.0, 1.0)),
        ],
    )
    def test_invalid_configurations_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            RunConfig(**kwargs)

    def test_single_sample_needs_no_witnesses(self):
        """The spread witness compares sections at two or more points."""
        with pytest.raises(ConfigError, match="holomorphic_curvature_spread"):
            RunConfig(samples=1, suites=("almost_kahler", "witnesses"))
        assert RunConfig(samples=1, suites=("almost_kahler",)).samples == 1

    def test_nonpositive_tolerance_rejected(self):
        with pytest.raises(ConfigError):
            Tolerances(cross_check=0.0)

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_tolerance_rejected(self, value):
        with pytest.raises(ConfigError):
            Tolerances(closed_form=value)

    def test_parser_round_trip(self):
        args = build_parser().parse_args(
            ["--dims", "2,4", "--curvatures", "0.5,2.0", "--ka", "0.3", "--suites",
             "einstein,witnesses", "--tol-fd-oracle", "1e-3", "--a-metric-offset", "0.1"]
        )
        cfg = config_from_args(args)
        assert cfg.dims == (2, 4)
        assert cfg.curvatures == (0.5, 2.0)
        assert cfg.k_a == pytest.approx(0.3)
        assert cfg.suites == ("einstein", "witnesses")
        assert cfg.tolerances.fd_oracle == pytest.approx(1e-3)
        assert cfg.a_metric_offset == pytest.approx(0.1)


class TestSampling:
    def test_deterministic_for_fixed_seed(self):
        cfg = RunConfig(seed=7)
        params = ModelParams.kahler(n=3, c=1.0, k_b=1.0)
        first = sample_points(cfg, 3, 1.0, params)
        second = sample_points(cfg, 3, 1.0, params)
        for (q1, p1), (q2, p2) in zip(first, second):
            assert np.array_equal(q1, q2) and np.array_equal(p1, p2)

    def test_energies_land_in_window(self):
        cfg = RunConfig(samples=8, t_min=0.5, t_max=1.5, seed=3)
        params = ModelParams.kahler(n=2, c=2.0, k_b=1.0)
        points = sample_points(cfg, 2, 2.0, params)
        assert points.shape == (8, 2, 2)
        for q, p in points:
            t = CotangentPoint.at(q, p, params).t
            assert 0.5 - 1e-12 <= t <= 1.5 + 1e-12


# ---------------------------------------------------------------------------
# Report schema and determinism
# ---------------------------------------------------------------------------


class TestReport:
    def test_schema_and_pass(self):
        report = run_verification(RunConfig(**FAST))
        assert report["schema_version"] == 3
        assert report["passed"] is True
        assert set(report) == {
            "schema_version", "config", "suites", "discrepancy_notes", "passed", "timings",
        }
        names = [suite["name"] for suite in report["suites"]]
        assert names == ["almost_kahler", "integrability"]
        for suite in report["suites"]:
            assert suite["passed"] is True
            for cfg_out in suite["configs"]:
                assert {"dim", "curvature", "samples", "passed", "checks"} <= set(cfg_out)
                assert cfg_out["samples"] == FAST["samples"]
                for check in cfg_out["checks"]:
                    assert {"name", "value", "tolerance", "comparison", "passed"} <= set(check)

    def test_config_echoed(self):
        report = run_verification(RunConfig(**FAST))
        assert report["config"]["dims"] == [2]
        assert report["config"]["curvatures"] == [1.0]
        assert report["config"]["profile"] == "einstein"
        assert report["config"]["a_metric_offset"] == 0.0
        assert report["config"]["tolerances"]["closed_form"] == pytest.approx(1e-9)

    def test_deterministic_up_to_timings(self):
        first = run_verification(RunConfig(**FAST))
        second = run_verification(RunConfig(**FAST))
        first.pop("timings")
        second.pop("timings")
        assert json.dumps(first, sort_keys=True) == json.dumps(second, sort_keys=True)

    def test_all_suites_run_by_default(self):
        report = run_verification(RunConfig(dims=(2,), curvatures=(1.0,), samples=2))
        assert [suite["name"] for suite in report["suites"]] == list(SUITE_NAMES)
        assert report["passed"] is True

    def test_impossible_tolerance_fails_run(self):
        cfg = RunConfig(dims=(2,), curvatures=(1.0,), samples=1,
                        suites=("almost_kahler",),
                        tolerances=Tolerances(closed_form=1e-30))
        report = run_verification(cfg)
        assert report["passed"] is False

    def test_witness_values_reported(self):
        cfg = RunConfig(dims=(2,), curvatures=(1.0,), samples=2, suites=("witnesses",))
        report = run_verification(cfg)
        checks = {
            check["name"]: check
            for check in report["suites"][0]["configs"][0]["checks"]
        }
        for name in ("holomorphic_curvature_spread", "curvature_not_parallel"):
            assert checks[name]["comparison"] == "ge"
            assert checks[name]["value"] > 1e-3
            assert "k_a=1, k_b=1" in checks[name]["note"]

    def test_detuned_coupling_fails_integrability(self):
        cfg = RunConfig(dims=(2,), curvatures=(1.0,), samples=2,
                        suites=("integrability",), a_metric_offset=0.1)
        report = run_verification(cfg)
        assert report["passed"] is False
        checks = {
            check["name"]: check
            for check in report["suites"][0]["configs"][0]["checks"]
        }
        failing = checks["nijenhuis_vanishes"]
        assert failing["passed"] is False
        assert failing["value"] > 1e-3

    def test_numerical_failure_confined_to_its_suite(self):
        cfg = RunConfig(dims=(2,), curvatures=(1.0,), samples=1,
                        suites=("almost_kahler", "einstein"), a_metric_offset=0.1)
        report = run_verification(cfg)
        by_name = {suite["name"]: suite for suite in report["suites"]}
        assert by_name["almost_kahler"]["passed"] is True
        einstein_checks = by_name["einstein"]["configs"][0]["checks"]
        assert einstein_checks[0]["name"] == "suite_error"
        assert einstein_checks[0]["passed"] is False
        assert report["passed"] is False


# ---------------------------------------------------------------------------
# Process-level behavior
# ---------------------------------------------------------------------------


class TestMain:
    ARGS = ["--dims", "2", "--curvatures", "1.0", "--samples", "2",
            "--suites", "almost_kahler,integrability"]

    def test_exit_zero_and_report_file(self, tmp_path, capsys):
        path = tmp_path / "report.json"
        code = main(self.ARGS + ["--report", str(path)])
        assert code == 0
        report = json.loads(path.read_text())
        assert report["passed"] is True
        assert "overall: PASS" in capsys.readouterr().out

    def test_unwritable_report_exits_two_before_the_run(self, tmp_path, capsys, monkeypatch):
        """A report path that cannot be opened is bad input: exit 2 with an
        error line, and the battery does not run."""
        monkeypatch.setattr("cotangent_kahler.cli.run_verification", lambda cfg: pytest.fail("the battery ran"))
        assert main(self.ARGS + ["--report", str(tmp_path / "missing" / "x.json")]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: cannot write the report:")

    def test_report_to_stdout_is_parseable(self, capsys):
        code = main(self.ARGS + ["--report", "-"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["schema_version"] == 3

    def test_failing_tolerance_exits_one(self, capsys):
        code = main(self.ARGS + ["--tol-closed-form", "1e-30"])
        assert code == 1
        out = capsys.readouterr().out
        assert "overall: FAIL" in out
        assert "wanted <=" in out

    def test_bad_config_exits_two(self, capsys):
        assert main(["--dims", "1"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_single_sample_with_default_suites_exits_two(self, capsys):
        assert main(["--samples", "1"]) == 2
        assert "holomorphic_curvature_spread" in capsys.readouterr().err

    def test_single_sample_without_witnesses_exits_zero(self, capsys):
        assert main(["--samples", "1", "--suites", "almost_kahler"]) == 0
        assert "overall: PASS" in capsys.readouterr().out

    def test_fd_step_flag_is_gone(self, capsys):
        """The derivative oracles take complex steps, which need no step
        size, so ``--fd-step`` is an unrecognised argument."""
        with pytest.raises(SystemExit) as exc:
            main(["--fd-step", "1e-4", "--samples", "2", "--dims", "2", "--curvatures", "1"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --fd-step" in capsys.readouterr().err

    def test_empty_suites_exits_two(self, capsys):
        assert main(["--suites", ""]) == 2
        assert "suites" in capsys.readouterr().err

    def test_negative_seed_exits_two(self, capsys):
        assert main(self.ARGS + ["--seed", "-1"]) == 2
        assert "seed must be >= 0" in capsys.readouterr().err

    def test_repeated_suite_exits_two(self, capsys):
        """A repeated suite would run twice but keep one ``timings`` key."""
        assert main(["--suites", "curvature,curvature", "--samples", "2"]) == 2
        assert "suites must not repeat" in capsys.readouterr().err

    def test_unknown_flag_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            main(["--frobnicate"])
        assert exc.value.code == 2


# ---------------------------------------------------------------------------
# Numerical failures and the notes that depend on a check
# ---------------------------------------------------------------------------


def _checks_by_suite(report: dict) -> dict:
    return {
        suite["name"]: [check for cfg_out in suite["configs"] for check in cfg_out["checks"]]
        for suite in report["suites"]
    }


class TestNumericalFailures:
    OVERFLOW = ["--t-min", "1e100", "--t-max", "1e140", "--samples", "4",
                "--dims", "3", "--curvatures", "1.0"]
    # A member whose metric entries overflow in the default window: its
    # report holds both an "inf" and "nan" values.
    HUGE_KA = ["--ka", "1e300", "--samples", "4", "--dims", "3", "--curvatures", "1.0"]

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_overflow_is_recorded_not_raised(self, tmp_path, capsys):
        """Powers of the energy overflow in the curvature and witnesses suites
        (the radial Ricci coefficients and the rational profile's v'');
        each records the error and the run still writes its report."""
        path = tmp_path / "report.json"
        assert main(self.OVERFLOW + ["--report", str(path)]) == 1
        checks = _checks_by_suite(json.loads(path.read_text()))
        assert list(checks) == list(SUITE_NAMES)
        for name in ("curvature", "witnesses"):
            assert checks[name][0]["name"] == "suite_error"
            assert checks[name][0]["note"].startswith("FloatingPointError: overflow")
        assert "overall: FAIL" in capsys.readouterr().out

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_nan_residual_fails_its_check(self, capsys):
        """Every per-sample closed-form difference is NaN in this window; the
        check must report NaN and fail, not drop the samples and pass."""
        assert main(self.OVERFLOW + ["--suites", "einstein", "--report", "-"]) == 1
        checks = _checks_by_suite(json.loads(capsys.readouterr().out))["einstein"]
        closed = next(check for check in checks if check["name"] == "difference_closed_form")
        assert closed["value"] == "nan"
        assert closed["passed"] is False

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_report_with_non_finite_values_is_strict_json(self, capsys):
        """A parser that refuses ``NaN`` and ``Infinity`` reads the report of
        a run whose values overflow: each non-finite value is the string
        ``"nan"``, ``"inf"`` or ``"-inf"``, with its verdict unchanged."""

        def refuse(constant):
            raise ValueError(f"non-standard JSON constant {constant}")

        assert main(self.HUGE_KA + ["--report", "-"]) == 1
        report = json.loads(capsys.readouterr().out, parse_constant=refuse)
        strings = [
            check
            for checks in _checks_by_suite(report).values()
            for check in checks
            if isinstance(check["value"], str)
        ]
        assert {check["value"] for check in strings} == {"nan", "inf"}
        assert not any(check["passed"] for check in strings if check["comparison"] == "le")

    def test_summary_prints_a_non_finite_value_as_it_is(self):
        report = {
            "suites": [{"name": "einstein", "passed": False, "configs": [{
                "dim": 3, "curvature": 1.0, "passed": False,
                "checks": [{"name": "einstein_constant", "value": "nan", "tolerance": 1e-5,
                            "comparison": "le", "passed": False}],
            }]}],
            "discrepancy_notes": [],
            "passed": False,
        }
        out = io.StringIO()
        _summarize(report, out)
        assert "einstein_constant value=nan wanted <= 1e-05" in out.getvalue()

    def test_zero_section_fails_every_suite(self, tmp_path):
        path = tmp_path / "report.json"
        code = main(["--t-min", "1e-14", "--t-max", "1e-13", "--samples", "3",
                     "--report", str(path)])
        assert code == 1
        report = json.loads(path.read_text())
        assert [suite["name"] for suite in report["suites"]] == list(SUITE_NAMES)
        for suite in report["suites"]:
            for cfg_out in suite["configs"]:
                (check,) = cfg_out["checks"]
                assert check["name"] == "suite_error"
                assert check["note"].startswith("ZeroSectionError")

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize(
        "curvature, note",
        [
            ("1e160", "GeometryError: energy density is not finite"),
            ("1e300", "GeometryError: curvature 1e+300 is too large for the sampling seed round(c * 1e9)"),
        ],
        ids=["energy", "seed"],
    )
    def test_a_config_whose_sampling_fails_is_a_suite_error(self, curvature, note, tmp_path):
        """At c = 1e160 the sampled energies overflow, and at c = 1e300 so
        does the seed of the draw.  Each suite records one failed
        ``suite_error`` at that config, with no samples, and the run goes on
        to write its whole report; the c = 1 configs are those of a run at
        c = 1 alone."""
        args = ["--dims", "2", "--samples", "2", "--report"]
        path, alone_path = tmp_path / "report.json", tmp_path / "alone.json"
        assert main(args + [str(path), "--curvatures", f"1.0,{curvature}"]) == 1
        assert main(args + [str(alone_path), "--curvatures", "1.0"]) == 0
        report, alone = json.loads(path.read_text()), json.loads(alone_path.read_text())
        assert [suite["name"] for suite in report["suites"]] == list(SUITE_NAMES)
        for suite, alone_suite in zip(report["suites"], alone["suites"], strict=True):
            kept, failed = suite["configs"]
            assert [kept] == alone_suite["configs"]
            assert (failed["curvature"], failed["samples"], failed["passed"]) == (float(curvature), 0, False)
            (check,) = failed["checks"]
            assert (check["name"], check["passed"], check["note"]) == ("suite_error", False, note)
        assert report["discrepancy_notes"] == alone["discrepancy_notes"]

    @pytest.mark.filterwarnings("error")
    def test_sampling_overflow_warns_nothing(self, capsys):
        """At c = 1e160 the base metric overflows while the points are
        sampled; the energies are refused without a numpy warning, and each
        suite records one ``suite_error`` at that config."""
        args = ["--dims", "2", "--samples", "2", "--curvatures", "1e160", "--report", "-"]
        assert main(args) == 1
        for checks in _checks_by_suite(json.loads(capsys.readouterr().out)).values():
            assert [(check["name"], check["note"]) for check in checks] == [
                ("suite_error", "GeometryError: energy density is not finite")
            ]

    @pytest.mark.parametrize(
        "flag, suite, fragment",
        [
            ("--tol-closed-form", "witnesses", "matched the admissibility-weighted form"),
            ("--tol-fd-oracle", "curvature", "complement below"),
        ],
        ids=["witnesses", "curvature"],
    )
    def test_note_needs_its_check_to_pass(self, flag, suite, fragment, capsys):
        args = ["--dims", "2", "--curvatures", "1.0", "--samples", "2",
                "--suites", suite, "--report", "-"]
        assert main(args) == 0
        assert any(fragment in note for note in json.loads(capsys.readouterr().out)["discrepancy_notes"])
        assert main(args + [flag, "1e-30"]) == 1
        assert not any(fragment in note for note in json.loads(capsys.readouterr().out)["discrepancy_notes"])
