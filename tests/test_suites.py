"""Suite plumbing: the per-sample reduction, and the geometry and gradients
that the suites share instead of rebuilding."""

import gc
import sys
import weakref

import numpy as np
import pytest

import cotangent_kahler.connection
import cotangent_kahler.curvature
import cotangent_kahler.einstein
import cotangent_kahler.fd
import cotangent_kahler.mtensor
import cotangent_kahler.structure
import cotangent_kahler.suites
from cotangent_kahler.base import ModelParams, integrable_coupling
from cotangent_kahler.connection import connection_coefficients, connection_on, metric_gradient
from cotangent_kahler.curvature import center_curvature, curvature_fd, nabla_curvature
from cotangent_kahler.errors import GeometryError
from cotangent_kahler.mtensor import CotangentPoint, take_rows
from cotangent_kahler.profiles import einstein_profile, rational_profile
from cotangent_kahler.structure import dform_residual, nijenhuis_numeric
from cotangent_kahler.suites import (
    SUITE_NAMES,
    RunConfig,
    Sample,
    _check,
    run_suite,
    run_verification,
    sample_points,
)
from stencils import stencil_at


class TestCheckReduction:
    @pytest.mark.parametrize("comparison", ["le", "ge"])
    def test_nan_in_a_later_sample_fails(self, comparison):
        check = _check("probe", [0.5, np.nan, 0.25], 1.0, comparison=comparison)
        assert check["value"] == "nan"
        assert check["passed"] is False

    def test_value_is_the_largest_sample(self):
        assert _check("probe", [0.25, 2.0, 1.0], 1.0)["value"] == 2.0
        assert _check("probe", [0.25, 2.0, 1.0], 1.0, comparison="ge")["passed"] is True

    def test_a_check_is_its_report_entry(self, monkeypatch):
        """``_check`` returns the report's entry, non-finite values written
        as strings and ``note`` only when given, and a report's check
        entries are the very dicts that ``_check`` returned."""
        nan = {"name": "probe", "value": "nan", "tolerance": 1.0, "comparison": "le", "passed": False}
        assert _check("probe", [0.5, np.nan], 1.0) == nan
        assert _check("probe", [0.5, np.inf], 1.0, comparison="ge") == {
            **nan, "value": "inf", "comparison": "ge", "passed": True
        }
        assert "note" not in _check("probe", 0.5, 1.0)
        assert _check("probe", 0.5, 1.0, note="why")["note"] == "why"

        original = cotangent_kahler.suites._check
        returned = []

        def recorded(*args, **kwargs):
            returned.append(original(*args, **kwargs))
            return returned[-1]

        monkeypatch.setattr(cotangent_kahler.suites, "_check", recorded)
        report = run_verification(RunConfig(dims=(2,), curvatures=(1.0,), samples=4))
        checks = [check for suite in report["suites"] for check in suite["configs"][0]["checks"]]
        assert len(checks) == len(returned) > 0
        assert all(check is entry for check, entry in zip(checks, returned))

    @pytest.mark.parametrize(
        "suite, name, func",
        [
            ("curvature", "pair_symmetry", "pair_symmetry_residual"),
            ("witnesses", "holomorphic_curvature_spread", "holomorphic_sectional_curvature"),
        ],
        ids=["le", "ge"],
    )
    def test_nan_in_the_last_row_of_a_pass_fails(self, suite, name, func, monkeypatch):
        """Eight samples at n = 2 in chunks of 3, 3 and 2 rows: a NaN in the
        last row of the last chunk of a curvature pass, the own member's
        pair symmetry (``le``) or the pinned member's sections (``ge``),
        makes the check's value NaN and fails it."""
        monkeypatch.setattr(cotangent_kahler.suites, "_chunk_rows", lambda dim: 3)
        original = getattr(cotangent_kahler.suites, func)
        rows = []

        def nan_in_the_last_row(*args):
            out = original(*args)
            rows.append(len(out))
            if len(rows) == 3:
                out = out.copy()
                out[-1] = np.nan
            return out

        monkeypatch.setattr(cotangent_kahler.suites, func, nan_in_the_last_row)
        (config,) = _configs_by_suite((suite,))[suite]
        assert rows == [3, 3, 2]
        (check,) = [check for check in config["checks"] if check["name"] == name]
        assert check["value"] == "nan"
        assert check["passed"] is False

    def test_report_does_not_depend_on_the_chunk_size(self, monkeypatch):
        """One sample per chunk gives, bit for bit outside ``timings``, the
        report of the default budget, which splits 30 samples at n = 3 into
        two chunks: every check reads one per-row array, whatever the
        chunk."""
        cfg = RunConfig(dims=(3,), curvatures=(1.0,), samples=30)
        default = run_verification(cfg)
        monkeypatch.setattr(cotangent_kahler.suites, "_CHUNK_BYTES", 1)
        one_row = run_verification(cfg)
        assert [suite["name"] for suite in default["suites"]] == list(SUITE_NAMES)
        assert {**one_row, "timings": None} == {**default, "timings": None}

    @pytest.mark.parametrize(
        "k_a, k_b, seed", [(1.0, 1.0, 0), (0.5, 2.0, 0), (1.0, 1.0, 1)], ids=["default", "ka0.5_kb2", "seed1"]
    )
    def test_report_is_bit_identical_at_any_chunk_size(self, k_a, k_b, seed, monkeypatch):
        """20 samples at n = 3 are one chunk under the default budget and
        seven at three rows per chunk.  Each chunk's rows of the connection
        kept on the sample's rows, which a curvature pass reads, equal, bit
        for bit, the connection built on that chunk alone, and the six
        suites' reports are the same, bit for bit: every check reads one
        per-row array, whatever the chunk.  At seed 1 a fit that summed the
        Ricci chunk by chunk would move the fitted Einstein constant by
        2.2e-16.  On the default member the witnesses read the sections of
        their pinned k_a = k_b = 1 member from the own member's pass; on the
        other the pinned member takes a pass of its own.  Every center's
        ``K`` is a pass's."""
        cfg = RunConfig(dims=(3,), curvatures=(1.0,), samples=20, k_a=k_a, k_b=k_b, seed=seed)
        params = ModelParams(n=3, c=1.0, a_metric=integrable_coupling(1.0), k_a=k_a, k_b=k_b)
        default_chunk_rows = cotangent_kahler.suites._chunk_rows
        calls = _count_curvature_builds(monkeypatch)
        points = sample_points(cfg, 3, 1.0, params)
        sample = Sample(points[:, 0], points[:, 1], params)
        profile = einstein_profile(params)
        conn = connection_on(sample.rows, params, profile)

        def same_rows(pt, jets, curv, rows):
            return (np.all(conn[rows] == connection_coefficients(pt, params, jets), axis=(1, 2, 3)),)

        (same,) = sample.curvature_rows(params, profile, same_rows)
        assert same.shape == (20,) and same.all()
        assert calls == [3] * 6 + [2]
        calls.clear()
        passes = 2 if (k_a, k_b) == (1.0, 1.0) else 3
        chunked = run_verification(cfg)
        # The own and the rational pass, then the pinned one if it is not own.
        assert calls == ([3] * 6 + [2]) * passes
        calls.clear()
        monkeypatch.setattr(cotangent_kahler.suites, "_chunk_rows", default_chunk_rows)
        one_chunk = run_verification(cfg)
        assert calls == [20] * passes
        assert [suite["name"] for suite in chunked["suites"]] == list(SUITE_NAMES)
        assert {**one_chunk, "timings": None} == {**chunked, "timings": None}


# The checks that read the first one or two FD centers, by their number of
# centers, and the checks that reduce to a scalar or read the 13 energies of
# the radial ODE; every other check reads one value per sample.
FD_CENTERS = {
    "fundamental_form_closed": 2,
    "nijenhuis_matches_bracket_oracle": 1,
    "koszul_oracle": 2,
    "torsion_free": 2,
    "metric_parallel": 2,
    "complex_structure_parallel": 2,
    "blocks_match_fd_oracle": 1,
    "complement_outputs_vanish": 1,
    "mixed_ricci_vanishes": 1,
    "complex_structure_parallel_detects_coupling": 1,
    "curvature_not_parallel": 1,
}
SCALAR = ("metric_positive_definite", "holomorphic_curvature_spread")
PER_ENERGY = ("family_solves_ode", "gamma_detects_profile")


class TestPerSampleContract:
    def test_each_check_reads_one_per_sample_array(self, monkeypatch):
        """One config of all six suites at 10 samples in chunks of three rows
        hands ``_check`` one array per check: ``(10,)`` for every
        closed-form check, ``(centers,)`` for every FD check, and something
        else only for the named reducing checks."""
        monkeypatch.setattr(cotangent_kahler.suites, "_chunk_rows", lambda dim: 3)
        original = cotangent_kahler.suites._check
        shapes = []

        def recorded(name, values, *args, **kwargs):
            shapes.append((name, np.shape(values)))
            return original(name, values, *args, **kwargs)

        monkeypatch.setattr(cotangent_kahler.suites, "_check", recorded)
        report = run_verification(RunConfig(dims=(2,), curvatures=(1.0,), samples=10))
        assert report["passed"] is True
        checks = [check["name"] for suite in report["suites"] for check in suite["configs"][0]["checks"]]
        assert [name for name, _ in shapes] == checks
        for name, shape in shapes:
            if name in FD_CENTERS:
                assert shape == (FD_CENTERS[name],), name
            elif name in SCALAR:
                assert shape == (), name
            elif name in PER_ENERGY:
                assert shape == (13,), name
            else:
                assert shape == (10,), name
        assert set(FD_CENTERS) | set(SCALAR) | set(PER_ENERGY) <= set(checks)


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
    """Record every ``CotangentPoint.at`` call and every fiber-jets build,
    in order, as ``(kind, rows, real)``: ``"point"`` or ``"jets"``, the
    number of rows, and whether they are real.  Every jets build, by
    ``fiber_jets`` or by ``Rows.jets_of`` on its kept blocks, runs
    ``mtensor._jets_on``."""
    builds = []
    original_at = vars(CotangentPoint)["at"].__func__
    original_jets = cotangent_kahler.mtensor._jets_on

    def at(cls, q, p, model):
        builds.append(("point", len(q), not np.iscomplexobj(q)))
        return original_at(cls, q, p, model)

    def jets_on(pt, model, profile, blocks):
        builds.append(("jets", len(pt.q), not np.iscomplexobj(pt.q)))
        return original_jets(pt, model, profile, blocks)

    monkeypatch.setattr(CotangentPoint, "at", classmethod(at))
    _patch_everywhere(monkeypatch, original_jets, jets_on)
    return builds


# Eight samples at three rows per chunk: chunks of 3, 3 and 2 rows.
SHARED_PASS = dict(dims=(2,), curvatures=(1.0,), samples=8)


def _count_curvature_builds(monkeypatch, fail_at=None):
    """Set three rows per chunk and record the rows of every ``K`` built on
    real points, in order; build number ``fail_at`` raises a
    ``GeometryError`` instead.  Every ``K``, of a pass or at a stencil's
    centers, is built by ``curvature._curvature_block_parts``; the nabla-K
    field's calls on complex rows are not recorded."""
    monkeypatch.setattr(cotangent_kahler.suites, "_chunk_rows", lambda dim: 3)
    original = cotangent_kahler.curvature._curvature_block_parts
    calls = []

    def counted(pt, params, jets, conn):
        if not np.iscomplexobj(pt.q):
            calls.append(len(pt.t))
            if len(calls) == fail_at:
                raise GeometryError("injected failure")
        return original(pt, params, jets, conn)

    monkeypatch.setattr(cotangent_kahler.curvature, "_curvature_block_parts", counted)
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

    @pytest.mark.parametrize("profile, center_jets", [("einstein", 1), ("rational", 2)], ids=["einstein", "rational"])
    @pytest.mark.parametrize("n", [2, 5])
    def test_builds_per_config(self, n, profile, center_jets, monkeypatch):
        """One config of all six suites at 3 samples builds the point on
        complex rows twice, once per center set (the first two centers, then
        the first one), and the fiber jets on complex rows once per member
        differentiated at the one center: the FD curvature's own member and
        the nabla-K probe's k_a = k_b = 1 member, one member on the Einstein
        profile.  On the real sampled rows it builds the point once and the
        fiber jets three times: the own member, the detuned coupling, and
        whichever of the witnesses' rational profile and k_a = k_b = 1 member
        is not the own one.  It builds ``K`` in one pass per member, which
        also keeps it at the one center for the block oracle and the nabla-K
        probe: the own one, which the einstein suite reads, and whichever of
        the rational and the pinned member is not the own one.  That is two
        builds on either profile: on the Einstein profile the witnesses read
        the pinned member's sections from the own pass, and on the rational
        profile the rational member's Ricci."""
        calls = _count_curvature_builds(monkeypatch)
        builds = _count_builds(monkeypatch)
        run_verification(RunConfig(dims=(n,), curvatures=(1.0,), samples=3, profile=profile))
        assert [(kind, rows) for kind, rows, real in builds if not real] == [
            ("point", 4 * n),
            ("point", 2 * n),
        ] + [("jets", 2 * n)] * center_jets
        assert [(kind, rows) for kind, rows, real in builds if real] == [("point", 3)] + [("jets", 3)] * 3
        assert calls == [3, 3]

    @pytest.mark.parametrize("profile, pinned", [("einstein", 0), ("rational", 1)], ids=["einstein", "rational"])
    @pytest.mark.parametrize("n", [2, 5])
    def test_metric_blocks_once_per_member_and_row_set(self, n, profile, pinned, monkeypatch):
        """One config of all six suites at 3 samples builds no member's
        metric blocks twice on the same rows.  On the real rows: the own
        member, the detuned coupling and the witnesses' other member.  On
        complex rows: the own member on ``stencil(2)``, then on
        ``stencil(1)``, where the Nijenhuis oracle reads the blocks and the FD
        curvature and nabla-K read the jets built on them; the detuned
        coupling on ``stencil(1)``; and, on the rational profile, the pinned
        k_a = k_b = 1 member there for nabla-K."""
        original = cotangent_kahler.mtensor.metric_blocks
        seen = []

        def metric_blocks(pt, model, member_profile):
            seen.append((pt, model, member_profile))
            return original(pt, model, member_profile)

        _patch_everywhere(monkeypatch, original, metric_blocks)
        run_verification(RunConfig(dims=(n,), curvatures=(1.0,), samples=3, profile=profile))
        inputs = [(id(pt), model, member_profile) for pt, model, member_profile in seen]
        assert len(set(inputs)) == len(inputs)
        assert [(len(pt.q), not np.iscomplexobj(pt.q)) for pt, _, _ in seen] == [
            (3, True),
            (4 * n, False),
            (2 * n, False),
            (3, True),
            (2 * n, False),
            (3, True),
        ] + [(2 * n, False)] * pinned

    @pytest.mark.parametrize("profile, members", [("einstein", 1), ("rational", 2)], ids=["einstein", "rational"])
    def test_stencil_connections_once_per_member_and_center_k_from_the_pass(self, profile, members, monkeypatch):
        """One config of all six suites at 3 samples builds the connection on
        the 2n complex rows of ``stencil(1)`` once per member it
        differentiates there (``curvature_fd`` and the nabla-K field share
        it): the own member and the pinned k_a = k_b = 1 one, which on the
        Einstein profile is the own one.  A member is told by its metric
        block.  ``K`` at the one center, which the block oracle and nabla-K
        share, is no build of its own: each member's pass keeps it.  Nor is
        the centers' connection (see the next test)."""
        n = 2
        original = cotangent_kahler.connection.connection_coefficients
        connections, curvatures = [], _count_curvature_builds(monkeypatch)

        def counted(pt, params, jets):
            connections.append((len(pt.t), np.iscomplexobj(pt.q), jets.gh.tobytes()))
            return original(pt, params, jets)

        _patch_everywhere(monkeypatch, original, counted)
        run_verification(RunConfig(dims=(n,), curvatures=(1.0,), samples=3, profile=profile))
        on_rows = [gh for rows, complex_rows, gh in connections if complex_rows and rows == 2 * n]
        assert len(on_rows) == len(set(on_rows)) == members
        assert curvatures == [3, 3]

    @pytest.mark.parametrize("profile", ["einstein", "rational"])
    def test_each_members_connection_on_real_points_is_built_once(self, profile, monkeypatch):
        """One config of all six suites at 3 samples in chunks of one row
        builds the connection on real points once per member: on all three
        sampled rows for the own member and for the rational profile (on the
        Einstein profile) or the pinned k_a = k_b = 1 member (on the rational
        profile), and on the one center of ``stencil(1)`` for the witnesses'
        detuned coupling, the only rows of it that are read.  The two-path
        check, every chunk of every curvature pass and every stencil's
        centers read their rows of a member's connection on all rows, and
        never build one of their own."""
        monkeypatch.setattr(cotangent_kahler.suites, "_chunk_rows", lambda dim: 1)
        original = cotangent_kahler.connection.connection_coefficients
        real = []

        def counted(pt, params, jets):
            if not np.iscomplexobj(pt.q):
                real.append((len(pt.t), jets.gh.tobytes()))
            return original(pt, params, jets)

        _patch_everywhere(monkeypatch, original, counted)
        run_verification(RunConfig(dims=(2,), curvatures=(1.0,), samples=3, profile=profile))
        assert [rows for rows, _ in real] == [3, 1, 3]
        assert len({gh for _, gh in real}) == 3

    def test_only_the_curvature_pass_splits_rows(self, monkeypatch):
        """One config of all six suites at 4 samples in chunks of one row
        computes the checks that need no curvature in one call over all
        rows: on real rows the closed-form Nijenhuis tensor runs on all 4
        rows once per member, the own one and the detuned coupling, besides
        the integrability oracle's one center, and the closed-form Kahler
        connection runs once, on all 4 rows.  Every curvature pass still
        builds ``K`` once per chunk, and keeps it at the centers."""
        calls = _count_curvature_builds(monkeypatch)
        monkeypatch.setattr(cotangent_kahler.suites, "_chunk_rows", lambda dim: 1)
        closed = {}
        for module, name in (
            (cotangent_kahler.structure, "nijenhuis_closed_form"),
            (cotangent_kahler.connection, "kahler_connection_coefficients"),
        ):
            seen = closed[name] = []

            def counted(pt, params, *args, original=getattr(module, name), seen=seen):
                if not np.iscomplexobj(pt.q):
                    seen.append((len(pt.t), params.a_metric))
                return original(pt, params, *args)

            _patch_everywhere(monkeypatch, getattr(module, name), counted)
        report = run_verification(RunConfig(dims=(2,), curvatures=(1.0,), samples=4))
        assert report["passed"] is True
        a_metric = integrable_coupling(1.0)
        assert closed["nijenhuis_closed_form"] == [(1, a_metric), (4, a_metric), (4, 1.1 * a_metric)]
        assert closed["kahler_connection_coefficients"] == [(4, a_metric)]
        # The own pass, which the pinned witness reads, and the rational one.
        assert calls == [1] * 8

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
        """One ``K`` per chunk, whose first row the curvature oracle reads at
        its center: the einstein suite reads the Ricci that the curvature
        suite's pass kept."""
        calls = _count_curvature_builds(monkeypatch)
        configs = _configs_by_suite(("curvature", "einstein"))
        assert calls == [3, 3, 2]
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
        calls = _count_curvature_builds(monkeypatch, fail_at=2)
        configs = _configs_by_suite(("curvature", "einstein"))
        assert calls == [3, 3, 3, 3, 2]
        (error,) = configs["curvature"][0]["checks"]
        assert error["name"] == "suite_error"
        assert error["note"] == "GeometryError: injected failure"
        assert configs["einstein"] == alone

    def test_kept_ricci_holds_only_the_horizontal_and_vertical_blocks(self):
        """At n = 3 and 300 samples the kept Ricci owns 2 S n^2 float64
        entries: contiguous ``hh`` and ``vv`` blocks over all rows, not views
        that keep the whole ``(rows, 2n, 2n)`` trace and its vanishing mixed
        blocks alive."""
        n, samples = 3, 300
        params = ModelParams.kahler(n, 1.0, k_a=1.0, k_b=1.0)
        rng = np.random.default_rng(3)
        q, p = rng.uniform(-1.0, 1.0, size=(samples, n)), rng.normal(size=(samples, n))
        sample = Sample(q, p, params)
        kept = sample.ricci_of(params, einstein_profile(params))
        blocks = [kept.hh, kept.vv]
        assert kept.hh.shape == kept.vv.shape == (samples, n, n)
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

        original_jets = cotangent_kahler.mtensor._jets_on

        def jets_on(pt, model, profile, blocks):
            if model == params and profile.kind == own_profile:
                jet_builds.append(builds(pt.q, pt.p))
            return original_jets(pt, model, profile, blocks)

        monkeypatch.setattr(CotangentPoint, "at", classmethod(at))
        _patch_everywhere(monkeypatch, original_jets, jets_on)
        report = run_verification(cfg)
        assert report["passed"] is True
        assert [b for b in point_builds if b is not None] == ["stack"]
        assert [b for b in jet_builds if b is not None] == ["stack"]


class TestPinnedWitness:
    @pytest.mark.parametrize("n", [2, 3])
    def test_witness_entries_do_not_depend_on_which_pass_serves_them(self, n, monkeypatch):
        """At 30 samples in chunks of seven rows, the pinned k_a = k_b = 1
        member's two witnesses are the same entries, bit for bit, whether
        they read the curvature suite's pass on the own member (all six
        suites, or curvature and witnesses), a pass of their own on the own
        member (witnesses alone), or a pass on a pinned member that is not
        the config's (k_a = 0.5, k_b = 2)."""
        monkeypatch.setattr(cotangent_kahler.suites, "_chunk_rows", lambda dim: 7)
        names = ("holomorphic_curvature_spread", "curvature_not_parallel")
        runs = [
            {},
            {"suites": ("witnesses",)},
            {"suites": ("curvature", "witnesses")},
            {"k_a": 0.5, "k_b": 2.0},
        ]
        entries = []
        for flags in runs:
            report = run_verification(RunConfig(dims=(n,), curvatures=(1.0,), samples=30, **flags))
            (witnesses,) = [suite for suite in report["suites"] if suite["name"] == "witnesses"]
            entries.append([check for check in witnesses["configs"][0]["checks"] if check["name"] in names])
        assert [check["name"] for check in entries[0]] == list(names)
        assert all(entry == entries[0] for entry in entries[1:])


class TestRicciPerMember:
    """``Sample.ricci_of`` keeps one full pass's Ricci over all rows per
    member, keyed like ``mtensor.Rows``, at eight samples in chunks of three
    rows."""

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
        same values, and no later read builds ``K`` again.  The nabla-K
        probe reads its center's ``K`` from the pinned pass."""
        cfg, params, sample, calls = self._setup(monkeypatch)
        profile = einstein_profile(params)
        own = sample.ricci_of(params, profile)
        before = own.hh.copy(), own.vv.copy()
        run_suite("witnesses", cfg, params, profile, sample)
        witness = ModelParams.kahler(2, 1.0, k_a=1.0, k_b=1.0)
        others = [
            sample.ricci_of(witness, einstein_profile(witness)),
            sample.ricci_of(params, rational_profile()),
        ]
        assert sample.ricci_of(params, profile) is own
        # The own pass, then the rational and the pinned pass.
        assert calls == [3, 3, 2] * 3
        assert np.array_equal(own.hh, before[0]) and np.array_equal(own.vv, before[1])
        for other in others:
            assert other.hh.shape == (8, 2, 2) and not np.array_equal(other.hh, own.hh)

    def test_a_pass_that_raises_keeps_nothing(self, monkeypatch):
        """A pass that fails at its second chunk keeps no entry, so the next
        read runs a full pass of its own."""
        _, params, sample, calls = self._setup(monkeypatch, fail_at=2)
        profile = einstein_profile(params)
        with pytest.raises(GeometryError, match="injected"):
            sample.curvature_rows(params, profile, lambda *_: ())
        assert sample.ricci_of(params, profile).hh.shape == (8, 2, 2)
        assert calls == [3, 3, 3, 3, 2]


class TestKeepRule:
    """A config keeps per-row values, the Ricci trace among them, and no
    pass's ``K`` outlives its chunk but at a stencil's centers, on a sample
    of one chunk as on one of several."""

    @pytest.mark.parametrize("chunk_rows", [8, 3, 1], ids=["one_chunk", "three_chunks", "one_row"])
    def test_a_second_pass_builds_every_k_again(self, chunk_rows, monkeypatch):
        """Eight samples at n = 2 with stencils at one and two centers: a
        second pass builds every chunk's ``K`` again, with the same values,
        and the sample's rows keep only the point and the member's metric
        blocks, jets and connection; the jets hold the very arrays of the
        kept blocks.  Each stencil keeps only its centers' rows of the first
        pass's ``K``, which hold two rows of it, whichever chunks they lie
        in, and builds nothing on its complex rows."""
        calls = _count_curvature_builds(monkeypatch)
        monkeypatch.setattr(cotangent_kahler.suites, "_chunk_rows", lambda dim: chunk_rows)
        params = ModelParams.kahler(2, 1.0, k_a=1.0, k_b=1.0)
        profile = einstein_profile(params)
        rng = np.random.default_rng(2)
        sample = Sample(rng.uniform(-1.0, 1.0, size=(8, 2)), rng.normal(size=(8, 2)), params)
        stencils = [sample.stencil(1), sample.stencil(2)]
        first, second = [], []
        for seen in (first, second):
            sample.curvature_rows(params, profile, lambda pt, jets, curv, rows: seen.append(curv) or ())
        assert calls == [min(chunk_rows, 8 - start) for start in range(0, 8, chunk_rows)] * 2
        assert all(a is not b and np.array_equal(a, b) for a, b in zip(first, second, strict=True))
        member = (params, profile)
        memo = sample.rows._memo
        assert set(memo) == {"points", ("blocks", *member), ("jets", *member), ("connection", *member)}
        blocks, jets = memo[("blocks", *member)], memo[("jets", *member)]
        assert blocks.gh is jets.gh and blocks.gv is jets.gv
        for centers, stencil in enumerate(stencils, start=1):
            assert set(stencil._memo) == {("center curvature", *member)}
            kept = stencil._memo[("center curvature", *member)]
            assert np.array_equal(kept, np.concatenate(first)[:centers])
            assert (kept if kept.base is None else kept.base).shape[0] == 2

    @pytest.mark.parametrize("chunk_rows", [3, 1], ids=["three_chunks", "one_row"])
    def test_no_blocks_k_outlives_its_block(self, chunk_rows, monkeypatch):
        """Eight samples at n = 2 with stencils at one and two centers, the
        pinned member's sections included: when a pass reaches a block,
        nothing holds the ``K`` of an earlier one, not even the rows it
        keeps at the centers."""
        monkeypatch.setattr(cotangent_kahler.suites, "_chunk_rows", lambda dim: chunk_rows)
        params = ModelParams.kahler(2, 1.0, k_a=1.0, k_b=1.0)
        profile = einstein_profile(params)
        rng = np.random.default_rng(2)
        sample = Sample(rng.uniform(-1.0, 1.0, size=(8, 2)), rng.normal(size=(8, 2)), params)
        sample.witness = params, profile, rng.normal(size=(8, 4))
        sample.stencil(1), sample.stencil(2)
        refs = []

        def record(pt, jets, curv, rows):
            assert [ref() for ref in refs] == [None] * len(refs)
            refs.append(weakref.ref(curv))
            return ()

        sample.curvature_rows(params, profile, record)
        assert len(refs) == -(-8 // chunk_rows)
        assert sample.holomorphic_of().shape == (8,)


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
    @pytest.mark.parametrize("pass_first", [False, True], ids=["no_pass", "pass_first"])
    def test_oracles_through_the_shared_stencil_match_standalone(self, pass_first, monkeypatch):
        """Each of the five FD oracles gives, bit for bit, the same array
        through the sample's stencil, after the other oracles at its centers
        have built the point and the jets there, as on its own one-use
        stencil on the sample's first rows.  Through the sample the six calls
        build two complex points and one complex jet set.  When the
        member's curvature pass ran first, in chunks of three rows, the
        centers' ``K`` that nabla-K reads is the pass's, bit for bit the
        ``K`` a one-use stencil builds on its centers."""
        n = 3
        params = ModelParams.kahler(n, 1.0, k_a=1.0, k_b=1.0)
        profile = einstein_profile(params)
        off_params = ModelParams(n=n, c=1.0, a_metric=1.1 * params.a_metric, k_a=1.0, k_b=1.0)
        rng = np.random.default_rng(5)
        sample = Sample(rng.uniform(-1.0, 1.0, size=(4, n)), rng.normal(size=(4, n)), params)
        # The real rows' point and own jets, built before counting as in a run.
        sample.rows.jets_of(params, profile)
        curvatures = _count_curvature_builds(monkeypatch)
        if pass_first:
            sample.stencil(1), sample.stencil(2)
            sample.curvature_rows(params, profile, lambda *_: ())
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
        # The pass's two chunks, or nabla-K's one build at the center.
        assert curvatures == ([3, 1] if pass_first else [1])
        for (centers, oracle), value in zip(oracles, shared):
            alone = oracle(stencil_at(take_rows(sample.rows.points, slice(centers)), params))
            assert value.dtype == alone.dtype and np.array_equal(value, alone)
        kept = center_curvature(params, profile, sample.stencil(1))
        alone = center_curvature(params, profile, stencil_at(take_rows(sample.rows.points, slice(1)), params))
        assert kept.dtype == alone.dtype and np.array_equal(kept, alone)
