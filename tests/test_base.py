"""Base space form: metric jet, Christoffel symbols, curvature convention."""

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cotangent_kahler import (
    GeometryError,
    ModelParams,
    SingularMetricError,
    base_curvature,
    christoffel,
    christoffel_derivative,
    conformal_jet,
    fd_partial,
    integrable_coupling,
    sectional_curvature,
    space_form_metric,
)

# ---------------------------------------------------------------------------
# Parameter validation
# ---------------------------------------------------------------------------


class TestModelParams:
    def test_rejects_low_dimension(self):
        with pytest.raises(GeometryError):
            ModelParams(n=1, c=1.0, a_metric=1.0)

    def test_rejects_nonpositive_curvature(self):
        with pytest.raises(GeometryError):
            ModelParams(n=2, c=0.0, a_metric=1.0)
        with pytest.raises(GeometryError):
            ModelParams(n=2, c=-2.0, a_metric=1.0)

    def test_rejects_nonpositive_coupling(self):
        with pytest.raises(GeometryError):
            ModelParams(n=2, c=1.0, a_metric=0.0)

    @pytest.mark.parametrize("constant", ["k_a", "k_b"])
    @pytest.mark.parametrize("value", [-0.1, np.nan, np.inf])
    def test_rejects_negative_profile_constants(self, constant, value):
        """Negative and non-finite profile constants are refused; NaN would
        pass a bare ``< 0`` test."""
        with pytest.raises(GeometryError, match="profile constants"):
            ModelParams(n=2, c=1.0, a_metric=1.0, **{constant: value})

    def test_kahler_constructor_pins_coupling(self):
        params = ModelParams.kahler(n=3, c=2.0)
        assert params.a_metric == pytest.approx(2.0)
        assert params.is_integrable

    def test_detuned_coupling_is_not_integrable(self):
        params = ModelParams(n=3, c=2.0, a_metric=2.0 * 1.1)
        assert not params.is_integrable

    @given(c=st.floats(0.1, 10.0))
    @settings(max_examples=20, deadline=None)
    def test_integrable_coupling_square(self, c):
        """a^2 = 2c at the integrable coupling."""
        assert integrable_coupling(c) ** 2 == pytest.approx(2.0 * c)


# ---------------------------------------------------------------------------
# Metric 2-jet
# ---------------------------------------------------------------------------


class TestMetricJet:
    def test_inverse_is_exact(self, rng):
        params = ModelParams(n=4, c=1.3, a_metric=1.0)
        jet = space_form_metric(rng.uniform(-2, 2, size=4), params)
        npt.assert_allclose(jet.g @ jet.g_inv, np.eye(4), atol=1e-14)

    def test_first_derivatives_match_fd(self, rng):
        params = ModelParams(n=3, c=0.9, a_metric=1.0)
        x0 = rng.uniform(-1.5, 1.5, size=3)
        jet = space_form_metric(x0, params)
        step = 1e-3

        def g_flat(x):
            return space_form_metric(x, params).g.reshape(len(x), -1)

        for k in range(3):
            npt.assert_allclose(
                jet.dg[k],
                fd_partial(g_flat, x0, k, step).reshape(3, 3),
                atol=1e-10,
                err_msg=f"d_{k} g vs finite differences",
            )

    def test_second_derivatives_match_fd(self, rng):
        params = ModelParams(n=3, c=0.9, a_metric=1.0)
        x0 = rng.uniform(-1.5, 1.5, size=3)
        jet = space_form_metric(x0, params)
        step = 1e-3

        def dg_flat(x):
            return space_form_metric(x, params).dg.reshape(len(x), -1)

        for l in range(3):
            npt.assert_allclose(
                jet.ddg[l],
                fd_partial(dg_flat, x0, l, step).reshape(3, 3, 3),
                atol=1e-8,
                err_msg=f"d_{l} dg vs finite differences",
            )

    def test_conformal_jet_rejects_nonpositive_factor(self):
        with pytest.raises(SingularMetricError):
            conformal_jet(np.zeros(2), 0.0, np.zeros(2), np.zeros((2, 2)))

    def test_dimension_mismatch_rejected(self):
        params = ModelParams(n=3, c=1.0, a_metric=1.0)
        with pytest.raises(GeometryError):
            space_form_metric(np.zeros(2), params)


# ---------------------------------------------------------------------------
# Christoffel symbols and curvature
# ---------------------------------------------------------------------------


class TestChristoffel:
    def test_symmetry_in_lower_indices(self, rng):
        params = ModelParams(n=3, c=1.7, a_metric=1.0)
        jet = space_form_metric(rng.uniform(-2, 2, size=3), params)
        gamma = christoffel(jet)
        npt.assert_allclose(gamma, np.swapaxes(gamma, 1, 2), atol=0)

    def test_metric_compatibility(self, rng):
        """d_k g_ij = Gamma^l_{ki} g_lj + Gamma^l_{kj} g_il."""
        params = ModelParams(n=4, c=0.6, a_metric=1.0)
        jet = space_form_metric(rng.uniform(-2, 2, size=4), params)
        gamma = christoffel(jet)
        reconstructed = np.einsum("lki,lj->kij", gamma, jet.g) + np.einsum(
            "lkj,il->kij", gamma, jet.g
        )
        npt.assert_allclose(jet.dg, reconstructed, atol=1e-13)

    def test_derivative_matches_fd(self, rng):
        params = ModelParams(n=3, c=1.1, a_metric=1.0)
        x0 = rng.uniform(-1.5, 1.5, size=3)
        jet = space_form_metric(x0, params)
        dgamma = christoffel_derivative(jet)
        step = 1e-3

        def gamma_flat(x):
            return christoffel(space_form_metric(x, params)).reshape(len(x), -1)

        for m in range(3):
            npt.assert_allclose(
                dgamma[m],
                fd_partial(gamma_flat, x0, m, step).reshape(3, 3, 3),
                atol=1e-8,
                err_msg=f"d_{m} Gamma vs finite differences",
            )


class TestCurvature:
    def test_space_form_identity(self, rng):
        """R^h_{kij} = c (delta^h_i g_jk - delta^h_j g_ik) on the space form."""
        for n, c in [(2, 1.0), (3, 1.4), (4, 0.5)]:
            params = ModelParams(n=n, c=c, a_metric=1.0)
            x = rng.uniform(-2, 2, size=n)
            jet = space_form_metric(x, params)
            curv = base_curvature(jet)
            eye = np.eye(n)
            expected = c * (
                np.einsum("hi,jk->hkij", eye, jet.g) - np.einsum("hj,ik->hkij", eye, jet.g)
            )
            npt.assert_allclose(
                curv.riemann,
                expected,
                atol=1e-8,
                err_msg=f"space-form curvature identity at n={n}, c={c}",
            )

    def test_first_bianchi(self, rng):
        """R^h_{kij} + R^h_{ijk} + R^h_{jki} = 0."""
        params = ModelParams(n=3, c=2.2, a_metric=1.0)
        jet = space_form_metric(rng.uniform(-1, 1, size=3), params)
        r = base_curvature(jet).riemann
        cyclic = r + np.einsum("hijk->hkij", r) + np.einsum("hjki->hkij", r)
        npt.assert_allclose(cyclic, 0.0, atol=1e-10)

    def test_antisymmetry_in_last_pair(self, rng):
        params = ModelParams(n=4, c=0.8, a_metric=1.0)
        jet = space_form_metric(rng.uniform(-1, 1, size=4), params)
        r = base_curvature(jet).riemann
        npt.assert_allclose(r, -np.einsum("hkji->hkij", r), atol=1e-12)

    def test_sectional_curvature_is_constant(self, rng):
        for n, c in [(2, 1.0), (3, 1.4), (5, 3.0)]:
            params = ModelParams(n=n, c=c, a_metric=1.0)
            jet = space_form_metric(rng.uniform(-2, 2, size=n), params)
            curv = base_curvature(jet)
            u = rng.normal(size=n)
            w = rng.normal(size=n)
            npt.assert_allclose(
                sectional_curvature(jet, curv, u, w),
                c,
                atol=1e-9,
                err_msg=f"sectional curvature at n={n}",
            )

    def test_degenerate_plane_rejected(self, rng):
        params = ModelParams(n=3, c=1.0, a_metric=1.0)
        jet = space_form_metric(np.zeros(3), params)
        curv = base_curvature(jet)
        u = np.array([1.0, 0.0, 0.0])
        with pytest.raises(GeometryError):
            sectional_curvature(jet, curv, u, 2.0 * u)

    def test_perturbed_conformal_factor_breaks_identity(self, rng):
        """A cubic bump in f destroys constant curvature (witness check)."""
        c = 1.0
        x = np.array([0.4, -0.7, 0.9])
        f = 1.0 + 0.25 * c * float(x @ x) + 0.05 * x[0] ** 3
        grad_f = 0.5 * c * x + np.array([0.15 * x[0] ** 2, 0.0, 0.0])
        hess_f = 0.5 * c * np.eye(3)
        hess_f[0, 0] += 0.3 * x[0]
        jet = conformal_jet(x, f, grad_f, hess_f)
        curv = base_curvature(jet)
        eye = np.eye(3)
        expected = c * (
            np.einsum("hi,jk->hkij", eye, jet.g) - np.einsum("hj,ik->hkij", eye, jet.g)
        )
        assert np.max(np.abs(curv.riemann - expected)) > 1e-3
