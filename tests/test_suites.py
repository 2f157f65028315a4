"""Suite plumbing: the per-sample reduction, and the geometry and gradients
that the suites share instead of rebuilding."""

import gc
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
from cotangent_kahler.connection import metric_gradient
from cotangent_kahler.curvature import curvature_fd, nabla_curvature
from cotangent_kahler.errors import GeometryError
from cotangent_kahler.mtensor import CotangentPoint, take_rows
from cotangent_kahler.profiles import einstein_profile, rational_profile
from cotangent_kahler.structure import dform_residual, nijenhuis_numeric
from cotangent_kahler.suites import RunConfig, Sample, _check, run_suite, run_verification, sample_points
from stencils import stencil_at


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
        """One sample per chunk gives the report of the default budget, which
        splits 30 samples at n = 3 into two chunks: the same checks and
        verdicts, residuals within 1e-3 of their tolerance and witnesses
        within 1e-9 relative."""
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


def _count_builds(monkeypatch):
    """Record every ``CotangentPoint.at`` and ``fiber_jets`` call, in order,
    as ``(kind, rows, real)``: ``"point"`` or ``"jets"``, the number of
    rows, and whether they are real."""
    builds = []
    original_at = vars(CotangentPoint)["at"].__func__
    original_jets = cotangent_kahler.mtensor.fiber_jets

    def at(cls, q, p, model):
        builds.append(("point", len(q), not np.iscomplexobj(q)))
        return original_at(cls, q, p, model)

    def fiber_jets(pt, model, profile):
        builds.append(("jets", len(pt.q), not np.iscomplexobj(pt.q)))
        return original_jets(pt, model, profile)

    monkeypatch.setattr(CotangentPoint, "at", classmethod(at))
    _patch_everywhere(monkeypatch, original_jets, fiber_jets)
    return builds


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
    @pytest.mark.parametrize(
        "suite, points, jets",
        [("connection", [8], []), ("curvature", [4], [4])],
        ids=["connection", "curvature"],
    )
    def test_one_stencil_per_center_set(self, suite, points, jets, monkeypatch):
        """At n = 2 with 3 samples a suite builds the point once on the
        complex rows of its center set, the 2n = 4 rows of each center, and
        the fiber jets of a member it differentiates once on them: the Koszul
        oracle, the compatibility residual and parallel J share one metric
        gradient at two centers, and the mixed Ricci block traces the one FD
        curvature at one center."""
        builds = _count_builds(monkeypatch)
        run_verification(RunConfig(dims=(2,), curvatures=(1.0,), samples=3, suites=(suite,)))
        assert [rows for kind, rows, real in builds if kind == "point" and not real] == points
        assert [rows for kind, rows, real in builds if kind == "jets" and not real] == jets

    def test_connection_suite_field_calls(self, monkeypatch):
        """At n = 2 with 2 samples the connection suite takes 1 field call, of
        the metric field at both oracle centers (parallel J reuses its
        gradient): 2 complex rows, one per center, for each of the 4 chart
        coordinates, the rows on which the suite builds its one complex
        point."""
        original = cotangent_kahler.fd.fd_partial
        rows = []

        def counted(f, x, d):
            def counting_field(z):
                rows.append(len(z))
                return f(z)

            return original(counting_field, x, d)

        monkeypatch.setattr(cotangent_kahler.fd, "fd_partial", counted)
        builds = _count_builds(monkeypatch)
        run_verification(RunConfig(dims=(2,), curvatures=(1.0,), samples=2, suites=("connection",)))
        assert rows == [8]
        assert [m for kind, m, real in builds if kind == "point" and not real] == [8]

    @pytest.mark.parametrize(
        "profile, center_jets, curvatures", [("einstein", 1, 5), ("rational", 2, 4)], ids=["einstein", "rational"]
    )
    @pytest.mark.parametrize("n", [2, 5])
    def test_builds_per_config(self, n, profile, center_jets, curvatures, monkeypatch):
        """One config of all six suites at 3 samples builds the point on
        complex rows twice, once per center set (the first two centers, then
        the first one), and the fiber jets on complex rows once per member
        differentiated at the one center: the FD curvature's own member and
        the nabla-K probe's k_a = k_b = 1 member, one member on the Einstein
        profile.  On the real sampled rows it builds the point once and the
        fiber jets three times: the own member, the detuned coupling, and
        whichever of the witnesses' rational profile and k_a = k_b = 1 member
        is not the own one.  It builds ``K`` at the oracle's center, in the
        nabla-K field, and in one pass per member: the own one, which the
        einstein suite reads, the pinned one and, on the Einstein profile,
        the rational one, whose Ricci the witnesses read from the own pass
        on the rational profile."""
        calls = _count_curvature_builds(monkeypatch)
        builds = _count_builds(monkeypatch)
        run_verification(RunConfig(dims=(n,), curvatures=(1.0,), samples=3, profile=profile))
        assert [(kind, rows) for kind, rows, real in builds if not real] == [
            ("point", 4 * n),
            ("point", 2 * n),
        ] + [("jets", 2 * n)] * center_jets
        assert [(kind, rows) for kind, rows, real in builds if real] == [("point", 3)] + [("jets", 3)] * 3
        assert len(calls) == curvatures

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
        sample = Sample(q, p, params)
        kept = sample.ricci_of(params, einstein_profile(params))
        blocks = [block for ricci in kept for block in (ricci.hh, ricci.vv)]
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


class TestRicciPerMember:
    """``Sample.ricci_of`` keeps one full pass's Ricci per member, keyed
    like ``mtensor.Rows``, at eight samples in chunks of three rows."""

    def _setup(self, monkeypatch, fail_at=None):
        cfg = RunConfig(dims=(2,), curvatures=(1.0,), samples=8, k_a=0.5, k_b=2.0)
        params = ModelParams(n=2, c=1.0, a_metric=integrable_coupling(1.0), k_a=0.5, k_b=2.0)
        points = sample_points(cfg, 2, 1.0, params)
        calls = _count_curvature_builds(monkeypatch, fail_at)
        return cfg, params, Sample(points[:, 0], points[:, 1], params), calls

    def test_other_members_never_replace_the_own_entry(self, monkeypatch):
        """The witnesses suite takes one pass on its pinned k_a = k_b = 1
        member and one on the rational profile.  Each keeps its own entry,
        with other values; the own member's entry is the same list, with the
        same values, and no later read builds ``K`` again."""
        cfg, params, sample, calls = self._setup(monkeypatch)
        profile = einstein_profile(params)
        own = sample.ricci_of(params, profile)
        before = [(ricci.hh.copy(), ricci.vv.copy()) for ricci in own]
        run_suite("witnesses", cfg, params, profile, sample)
        witness = ModelParams.kahler(2, 1.0, k_a=1.0, k_b=1.0)
        others = [
            sample.ricci_of(witness, einstein_profile(witness)),
            sample.ricci_of(params, rational_profile()),
        ]
        assert sample.ricci_of(params, profile) is own
        # The own pass, the rational and pinned passes, and nabla-K's center.
        assert calls == [3, 3, 2] * 3 + [1]
        for ricci, (hh, vv) in zip(own, before, strict=True):
            assert np.array_equal(ricci.hh, hh) and np.array_equal(ricci.vv, vv)
        for other in others:
            assert len(other) == 3 and not np.array_equal(other[0].hh, own[0].hh)

    def test_a_pass_that_raises_keeps_nothing(self, monkeypatch):
        """A pass that fails at its second chunk keeps no entry, so the next
        read runs a full pass of its own."""
        _, params, sample, calls = self._setup(monkeypatch, fail_at=2)
        profile = einstein_profile(params)
        with pytest.raises(GeometryError, match="injected"):
            list(sample.curvature_chunks(params, profile))
        assert len(sample.ricci_of(params, profile)) == 3
        assert calls == [3, 3, 3, 3, 2]


class TestOwnership:
    def test_a_run_leaves_no_reference_cycle(self):
        """A config's sample, its rows and its stencils are freed by
        reference counting alone: with the cyclic collector off, a run of
        every suite leaves nothing for ``gc.collect()``.  The sample holds
        its rows and keeps its stencils beside them, so no stencil's base
        refers back to the sample."""
        cfg = RunConfig(dims=(2,), curvatures=(1.0,), samples=3)
        gc.collect()
        gc.disable()
        try:
            run_verification(cfg)
            assert gc.collect() == 0
        finally:
            gc.enable()


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


class TestSharedStencil:
    def test_oracles_through_the_shared_stencil_match_standalone(self, monkeypatch):
        """Each of the five FD oracles gives, bit for bit, the same array
        through the sample's stencil, after the other oracles at its centers
        have built the point and the jets there, as on its own one-use
        stencil on the sample's first rows.  Through the sample the six calls
        build two complex points and one complex jet set."""
        n = 3
        params = ModelParams.kahler(n, 1.0, k_a=1.0, k_b=1.0)
        profile = einstein_profile(params)
        off_params = ModelParams(n=n, c=1.0, a_metric=1.1 * params.a_metric, k_a=1.0, k_b=1.0)
        rng = np.random.default_rng(5)
        sample = Sample(rng.uniform(-1.0, 1.0, size=(4, n)), rng.normal(size=(4, n)), params)
        # The real rows' point and own jets, built before counting as in a run.
        sample.rows.jets_of(params, profile)
        # In the order of the suites: 2-form, Nijenhuis, metric, curvature,
        # then the witnesses' detuned metric and nabla-K.
        oracles = [
            (2, lambda stencil: dform_residual(params, profile, stencil)),
            (1, lambda stencil: nijenhuis_numeric(params, profile, stencil)),
            (2, lambda stencil: metric_gradient(params, profile, stencil)),
            (1, lambda stencil: curvature_fd(params, profile, stencil)),
            (1, lambda stencil: metric_gradient(off_params, profile, stencil)),
            (1, lambda stencil: nabla_curvature(params, profile, stencil)),
        ]
        builds = _count_builds(monkeypatch)
        shared = [oracle(sample.stencil(centers)) for centers, oracle in oracles]
        assert [(kind, rows) for kind, rows, real in builds] == [("point", 12), ("point", 6), ("jets", 6)]
        for (centers, oracle), value in zip(oracles, shared):
            alone = oracle(stencil_at(take_rows(sample.rows.points, slice(centers)), params))
            assert value.dtype == alone.dtype and np.array_equal(value, alone)
