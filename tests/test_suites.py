"""Suite plumbing: the per-sample reduction, and the geometry and gradients
that the suites share instead of rebuilding."""

import sys

import numpy as np
import pytest

import cotangent_kahler
from cotangent_kahler import (
    CotangentPoint,
    ModelParams,
    RunConfig,
    einstein_profile,
    integrable_coupling,
    run_verification,
    sample_points,
)
from cotangent_kahler.suites import _check


class TestCheckReduction:
    @pytest.mark.parametrize("comparison", ["le", "ge"])
    def test_nan_in_a_later_sample_fails(self, comparison):
        check = _check("probe", [0.5, np.nan, 0.25], 1.0, comparison=comparison)
        assert np.isnan(check.value)
        assert check.passed is False

    def test_value_is_the_largest_sample(self):
        assert _check("probe", [0.25, 2.0, 1.0], 1.0).value == 2.0
        assert _check("probe", [0.25, 2.0, 1.0], 1.0, comparison="ge").passed is True


def _patch_everywhere(monkeypatch, original, replacement):
    """Rebind ``original`` to ``replacement`` in every package module that
    imported it by name."""
    for name, module in list(sys.modules.items()):
        if module is None or not name.startswith("cotangent_kahler"):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                monkeypatch.setattr(module, attr, replacement)


class TestSharedSample:
    @pytest.mark.parametrize("suite, per_point, fd_points", [("connection", 2, 2), ("curvature", 1, 1)])
    def test_one_gradient_per_field_per_point(self, suite, per_point, fd_points, monkeypatch):
        """The Koszul oracle and the compatibility residual share one metric
        gradient; the mixed Ricci block traces the suite's one FD curvature."""
        original = cotangent_kahler.fd.frame_gradient
        calls = []

        def counted(*args, **kwargs):
            calls.append(args[0])
            return original(*args, **kwargs)

        _patch_everywhere(monkeypatch, original, counted)
        run_verification(RunConfig(dims=(2,), curvatures=(1.0,), samples=3, suites=(suite,)))
        assert len(calls) == per_point * fd_points

    def test_connection_suite_field_calls(self, monkeypatch):
        """At n = 2 with 2 samples the connection suite takes 4 frame
        gradients (metric and J fields at each oracle point), each one batched
        field call of 8 stencil rows per chart coordinate: 16 calls."""
        original = cotangent_kahler.fd.frame_gradient
        rows = []

        def counted(field, *args, **kwargs):
            def counting_field(q, p):
                rows.append(len(q))
                return field(q, p)

            return original(counting_field, *args, **kwargs)

        _patch_everywhere(monkeypatch, original, counted)
        run_verification(RunConfig(dims=(2,), curvatures=(1.0,), samples=2, suites=("connection",)))
        assert rows == [8] * 16

    def test_sampled_points_are_built_once(self, monkeypatch):
        """Across all six suites, each sampled (q, p) gets one point and one
        set of fiber jets for the config's own params; only stencil points and
        the witnesses' other couplings and profiles build more."""
        cfg = RunConfig(dims=(2,), curvatures=(1.0,), samples=3, k_a=0.5, k_b=2.0)
        params = ModelParams(n=2, c=1.0, a_metric=integrable_coupling(1.0), k_a=0.5, k_b=2.0)
        own_profile = einstein_profile(params).kind
        sampled = sample_points(cfg, 2, 1.0, params)

        def index_of(q, p):
            for index, (qs, ps) in enumerate(sampled):
                if np.array_equal(q, qs) and np.array_equal(p, ps):
                    return index
            return None

        point_builds, jet_builds = [], []
        original_at = vars(CotangentPoint)["at"].__func__

        def at(cls, q, p, model):
            point_builds.append(index_of(q, p))
            return original_at(cls, q, p, model)

        original_jets = cotangent_kahler.mtensor.fiber_jets

        def fiber_jets(pt, model, profile):
            if model == params and profile.kind == own_profile:
                jet_builds.append(index_of(pt.q, pt.p))
            return original_jets(pt, model, profile)

        monkeypatch.setattr(CotangentPoint, "at", classmethod(at))
        _patch_everywhere(monkeypatch, original_jets, fiber_jets)
        report = run_verification(cfg)
        assert report["passed"] is True
        assert [i for i in point_builds if i is not None] == [0, 1, 2]
        assert [i for i in jet_builds if i is not None] == [0, 1, 2]
