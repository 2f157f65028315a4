"""Suite plumbing: the per-sample reduction, and the geometry and gradients
that the suites share instead of rebuilding."""

import sys

import numpy as np
import pytest

import cotangent_kahler.base
import cotangent_kahler.curvature
import cotangent_kahler.einstein
import cotangent_kahler.fd
import cotangent_kahler.mtensor
import cotangent_kahler.suites
from cotangent_kahler.base import ModelParams, integrable_coupling
from cotangent_kahler.errors import GeometryError
from cotangent_kahler.mtensor import CotangentPoint
from cotangent_kahler.profiles import einstein_profile
from cotangent_kahler.suites import RunConfig, Sample, _check, run_verification, sample_points


class TestCheckReduction:
    @pytest.mark.parametrize("comparison", ["le", "ge"])
    def test_nan_in_a_later_sample_fails(self, comparison):
        check = _check("probe", [0.5, np.nan, 0.25], 1.0, comparison=comparison)
        assert np.isnan(check.value)
        assert check.passed is False

    def test_value_is_the_largest_sample(self):
        assert _check("probe", [0.25, 2.0, 1.0], 1.0).value == 2.0
        assert _check("probe", [0.25, 2.0, 1.0], 1.0, comparison="ge").passed is True

    @pytest.mark.parametrize("comparison", ["le", "ge"])
    def test_nan_in_the_last_chunk_fails(self, comparison):
        chunks = [np.array([0.5, 0.25]), np.array([2.0]), np.array([0.125, np.nan])]
        check = _check("probe", chunks, 1.0, comparison=comparison)
        assert np.isnan(check.value)
        assert check.passed is False

    def test_report_does_not_depend_on_the_chunk_size(self, monkeypatch):
        """One sample per chunk and one chart coordinate per FD field call give
        the report of the default budget, which splits 30 samples at n = 3
        into two chunks: the same checks and verdicts, residuals within 1e-3
        of their tolerance and witnesses within 1e-9 relative."""
        cfg = RunConfig(dims=(3,), curvatures=(1.0,), samples=30)
        default = run_verification(cfg)
        monkeypatch.setattr(cotangent_kahler.base, "_CHUNK_BYTES", 1)
        one_row = run_verification(cfg)
        assert default["discrepancy_notes"] == one_row["discrepancy_notes"]
        for suite, other in zip(default["suites"], one_row["suites"], strict=True):
            for config, other_config in zip(suite["configs"], other["configs"], strict=True):
                for check, other_check in zip(config["checks"], other_config["checks"], strict=True):
                    where = f"{suite['name']}.{check['name']}"
                    assert check["name"] == other_check["name"], where
                    assert check["passed"] == other_check["passed"], where
                    if check["comparison"] == "le":
                        assert other_check["value"] == pytest.approx(
                            check["value"], rel=0, abs=1e-3 * check["tolerance"]
                        ), where
                    else:
                        assert other_check["value"] == pytest.approx(check["value"], rel=1e-9), where


def _patch_everywhere(monkeypatch, original, replacement):
    """Rebind ``original`` to ``replacement`` in every package module that
    imported it by name."""
    for name, module in list(sys.modules.items()):
        if module is None or not name.startswith("cotangent_kahler"):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                monkeypatch.setattr(module, attr, replacement)


# Eight samples at three rows per chunk: chunks of 3, 3 and 2 rows.
SHARED_PASS = dict(dims=(2,), curvatures=(1.0,), samples=8)


def _count_curvature_builds(monkeypatch, fail_at=None):
    """Set three rows per chunk and record the rows of every
    ``curvature_blocks`` call, in order; call number ``fail_at`` raises a
    ``GeometryError`` instead."""
    monkeypatch.setattr(cotangent_kahler.suites, "_chunk_rows", lambda dim: 3)
    original = cotangent_kahler.curvature.curvature_blocks
    calls = []

    def counted(pt, params, jets):
        calls.append(len(pt.t))
        if len(calls) == fail_at:
            raise GeometryError("injected failure")
        return original(pt, params, jets)

    _patch_everywhere(monkeypatch, original, counted)
    return calls


def _configs_by_suite(suites) -> dict:
    report = run_verification(RunConfig(**SHARED_PASS, suites=suites))
    return {suite["name"]: suite["configs"] for suite in report["suites"]}


class TestSharedSample:
    @pytest.mark.parametrize("suite, gradients", [("connection", 1), ("curvature", 1)])
    def test_one_gradient_per_field(self, suite, gradients, monkeypatch):
        """Each oracle field is differentiated once per config, at all of its
        centers together: the Koszul oracle, the compatibility residual and
        parallel J share one metric gradient, and the mixed Ricci block
        traces the suite's one FD curvature."""
        original = cotangent_kahler.fd.frame_gradient
        calls = []

        def counted(*args, **kwargs):
            calls.append(args[0])
            return original(*args, **kwargs)

        _patch_everywhere(monkeypatch, original, counted)
        run_verification(RunConfig(dims=(2,), curvatures=(1.0,), samples=3, suites=(suite,)))
        assert len(calls) == gradients

    def test_connection_suite_field_calls(self, monkeypatch):
        """At n = 2 with 2 samples the connection suite takes 1 frame
        gradient (the metric field at both oracle centers; parallel J reuses
        it), one batched field call of 2 complex rows, one per center, for
        each of the 4 chart coordinates, which fit the byte budget together."""
        original = cotangent_kahler.fd.frame_gradient
        rows = []

        def counted(field, *args, **kwargs):
            def counting_field(q, p):
                rows.append(len(q))
                return field(q, p)

            return original(counting_field, *args, **kwargs)

        _patch_everywhere(monkeypatch, original, counted)
        run_verification(RunConfig(dims=(2,), curvatures=(1.0,), samples=2, suites=("connection",)))
        assert rows == [8]

    def test_field_calls_per_config(self, monkeypatch):
        """At n = 2 with 2 samples one config of all six suites makes 6 field
        calls: six oracle fields (the 2-form, the Nijenhuis frames, the
        metric, the connection, and the witnesses' detuned metric and K),
        each differentiated once over its centers, with the rows of all 2n
        chart coordinates in one call of 2n rows per center; parallel J
        reuses the metric gradients."""
        original = cotangent_kahler.fd.fd_partial
        calls = []

        def counted(f, *args, **kwargs):
            def counting_field(x):
                calls.append(len(x))
                return f(x)

            return original(counting_field, *args, **kwargs)

        monkeypatch.setattr(cotangent_kahler.fd, "fd_partial", counted)
        run_verification(RunConfig(dims=(2,), curvatures=(1.0,), samples=2))
        assert len(calls) == 6
        assert sorted(calls) == [4] * 4 + [8] * 2

    def test_curvature_and_einstein_build_each_chunks_k_once(self, monkeypatch):
        """One ``K`` at the curvature oracle's center, then one per chunk:
        the einstein suite reads the Ricci that the curvature suite's pass
        kept."""
        calls = _count_curvature_builds(monkeypatch)
        configs = _configs_by_suite(("curvature", "einstein"))
        assert calls == [1, 3, 3, 2]
        assert all(config["passed"] for suite in configs.values() for config in suite)

    def test_einstein_alone_builds_each_chunks_k_once(self, monkeypatch):
        calls = _count_curvature_builds(monkeypatch)
        _configs_by_suite(("einstein",))
        assert calls == [3, 3, 2]

    def test_einstein_configs_do_not_depend_on_the_suite_order(self, monkeypatch):
        _count_curvature_builds(monkeypatch)
        alone = _configs_by_suite(("einstein",))["einstein"]
        assert _configs_by_suite(("curvature", "einstein"))["einstein"] == alone
        assert _configs_by_suite(("einstein", "curvature"))["einstein"] == alone

    def test_a_pass_that_raises_keeps_no_ricci(self, monkeypatch):
        """The curvature suite's pass fails at its second chunk; the einstein
        suite then builds every chunk's ``K`` itself and gives the result it
        gives alone, rather than reading the first chunk's Ricci."""
        monkeypatch.setattr(cotangent_kahler.suites, "_chunk_rows", lambda dim: 3)
        alone = _configs_by_suite(("einstein",))["einstein"]
        calls = _count_curvature_builds(monkeypatch, fail_at=3)
        configs = _configs_by_suite(("curvature", "einstein"))
        assert calls == [1, 3, 3, 3, 3, 2]
        (error,) = configs["curvature"][0]["checks"]
        assert error["name"] == "suite_error"
        assert error["note"] == "GeometryError: injected failure"
        assert configs["einstein"] == alone

    def test_kept_ricci_holds_only_the_horizontal_and_vertical_blocks(self):
        """At n = 3 and 300 samples the kept Ricci list owns 2 S n^2 float64
        entries: contiguous ``hh`` and ``vv`` blocks, not views that keep the
        whole ``(rows, 2n, 2n)`` trace and its vanishing mixed blocks alive."""
        n, samples = 3, 300
        params = ModelParams.kahler(n, 1.0, k_a=1.0, k_b=1.0)
        rng = np.random.default_rng(3)
        q, p = rng.uniform(-1.0, 1.0, size=(samples, n)), rng.normal(size=(samples, n))
        sample = Sample(q, p, params, einstein_profile(params))
        blocks = [block for ricci in sample.ricci for block in (ricci.hh, ricci.vv)]
        assert all(block.base is None and block.flags.c_contiguous for block in blocks)
        assert sum(block.nbytes for block in blocks) == 2 * samples * n**2 * 8

    def test_sampled_points_are_built_once(self, monkeypatch):
        """Across all six suites, the config's sampled points are built in
        one ``CotangentPoint.at`` call on their ``(S, n)`` stack, with one
        fiber-jet call for the config's own params and profile; no later
        call rebuilds any sampled point, one at a time or in a batch.  Only
        complex-step rows and the witnesses' other couplings and profiles
        build more."""
        cfg = RunConfig(dims=(2,), curvatures=(1.0,), samples=3, k_a=0.5, k_b=2.0)
        params = ModelParams(n=2, c=1.0, a_metric=integrable_coupling(1.0), k_a=0.5, k_b=2.0)
        own_profile = einstein_profile(params).kind
        sampled = np.stack([np.concatenate(qp) for qp in sample_points(cfg, 2, 1.0, params)])

        def builds(q, p):
            """``"stack"`` for the whole sample, ``"row"`` for a call that
            includes any single sampled point, None otherwise."""
            rows = np.concatenate([q, p], axis=-1)
            if np.array_equal(rows, sampled):
                return "stack"
            rows = rows.reshape(-1, sampled.shape[-1])
            return "row" if (rows[:, None, :] == sampled).all(axis=-1).any() else None

        point_builds, jet_builds = [], []
        original_at = vars(CotangentPoint)["at"].__func__

        def at(cls, q, p, model):
            point_builds.append(builds(q, p))
            return original_at(cls, q, p, model)

        original_jets = cotangent_kahler.mtensor.fiber_jets

        def fiber_jets(pt, model, profile):
            if model == params and profile.kind == own_profile:
                jet_builds.append(builds(pt.q, pt.p))
            return original_jets(pt, model, profile)

        monkeypatch.setattr(CotangentPoint, "at", classmethod(at))
        _patch_everywhere(monkeypatch, original_jets, fiber_jets)
        report = run_verification(cfg)
        assert report["passed"] is True
        assert [b for b in point_builds if b is not None] == ["stack"]
        assert [b for b in jet_builds if b is not None] == ["stack"]


class TestOffFamilyDifference:
    def test_vertical_coefficient_mutation_fails_the_off_family_check(self, monkeypatch):
        """``8.0 -> 8.1`` in the vertical coefficient of
        ``einstein_difference_closed_form``.  On the Einstein profile gamma
        vanishes, so einstein/difference_closed_form still passes; the
        witnesses check on the rational profile fails at every config, and
        the note that depends on it is not emitted."""
        original = cotangent_kahler.einstein.einstein_difference_closed_form

        def mutated(pt, params, profile):
            diff_hh, diff_vv = original(pt, params, profile)
            return diff_hh, diff_vv * (8.0 / 8.1)

        _patch_everywhere(monkeypatch, original, mutated)
        cfg = RunConfig(dims=(2, 3), curvatures=(1.0,), samples=5, suites=("einstein", "witnesses"))
        report = run_verification(cfg)
        by_name = {suite["name"]: suite["configs"] for suite in report["suites"]}
        for name, check_name, passed in (
            ("einstein", "difference_closed_form", True),
            ("witnesses", "einstein_difference_off_family", False),
        ):
            for config in by_name[name]:
                (check,) = [check for check in config["checks"] if check["name"] == check_name]
                assert check["passed"] is passed, (name, config["dim"])
        assert not any("admissibility-weighted" in note for note in report["discrepancy_notes"])
