"""Einstein condition: the scalar obstruction gamma, the radial Euler
equation, the profile family that solves it, and its Einstein constant."""

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cotangent_kahler.einstein
from cotangent_kahler.base import ModelParams
from cotangent_kahler.curvature import curvature_blocks, ricci_from_blocks
from cotangent_kahler.einstein import (
    einstein_difference,
    einstein_difference_closed_form,
    einstein_residual,
    euler_ode_residual,
    family_einstein_constant,
    fit_einstein_constant,
    gamma_factor,
)
from cotangent_kahler.errors import GeometryError
from cotangent_kahler.fd import fd_partial
from cotangent_kahler.mtensor import CotangentPoint, fiber_jets
from cotangent_kahler.profiles import einstein_profile, rational_profile, zero_profile

T_GRID = np.linspace(0.3, 4.0, 23)

# ---------------------------------------------------------------------------
# The scalar obstruction and the radial ODE
# ---------------------------------------------------------------------------


class TestGammaFactor:
    def test_spot_value_for_rational_profile(self):
        """v = 1/(1+t), n = 2, c = 1, t = 1: only the derivative terms
        survive and gamma = (3/2) sqrt(2)."""
        params = ModelParams.kahler(n=2, c=1.0)
        gam = gamma_factor(params, rational_profile(), 1.0)
        npt.assert_allclose(gam, 1.5 * np.sqrt(2.0), atol=1e-12)

    def test_vanishes_on_family(self):
        """gamma = 0 identically for every member of the Einstein family."""
        for n, c, k_a, k_b in [(2, 1.0, 0.4, 0.9), (3, 1.4, 0.7, 0.4), (4, 2.0, 0.0, 1.5)]:
            params = ModelParams.kahler(n=n, c=c, k_a=k_a, k_b=k_b)
            gam = gamma_factor(params, einstein_profile(params), T_GRID)
            npt.assert_allclose(gam, 0.0, atol=1e-12, err_msg=f"gamma on family at n={n}")

    def test_ode_residual_vanishes_on_family(self):
        for n, c, k_a, k_b in [(2, 1.0, 0.4, 0.9), (3, 1.4, 0.7, 0.4)]:
            params = ModelParams.kahler(n=n, c=c, k_a=k_a, k_b=k_b)
            resid = euler_ode_residual(params, einstein_profile(params), T_GRID)
            npt.assert_allclose(resid, 0.0, atol=1e-11)

    def test_gamma_is_scaled_ode_residual(self):
        """gamma = -4 sqrt(2) sqrt(t) * (Euler residual), for any profile."""
        params = ModelParams.kahler(n=3, c=1.4)
        profile = rational_profile()
        gam = gamma_factor(params, profile, T_GRID)
        resid = euler_ode_residual(params, profile, T_GRID)
        npt.assert_allclose(gam, -4.0 * np.sqrt(2.0) * np.sqrt(T_GRID) * resid, atol=1e-12)

    def test_constant_profiles_obstructed_only_by_dimension(self):
        """For v' = v'' = 0 the obstruction is the constant (2-n) sqrt(c)."""
        params2 = ModelParams.kahler(n=2, c=1.7)
        params5 = ModelParams.kahler(n=5, c=1.7)
        npt.assert_allclose(gamma_factor(params2, zero_profile(), T_GRID), 0.0, atol=0)
        npt.assert_allclose(
            gamma_factor(params5, zero_profile(), T_GRID), -3.0 * np.sqrt(1.7), atol=1e-14
        )


class TestProfileJets:
    @pytest.mark.parametrize("profile_name", ["einstein", "rational"])
    def test_derivatives_match_fd(self, profile_name):
        params = ModelParams.kahler(n=3, c=1.4, k_a=0.7, k_b=0.4)
        profile = einstein_profile(params) if profile_name == "einstein" else rational_profile()
        for t0 in (0.4, 1.0, 2.7):
            dv_fd = fd_partial(lambda z: profile.v(z[:, 0]), np.array([t0]), 0)
            d2v_fd = fd_partial(lambda z: profile.dv(z[:, 0]), np.array([t0]), 0)
            npt.assert_allclose(float(profile.dv(t0)), dv_fd, rtol=1e-8)
            npt.assert_allclose(float(profile.d2v(t0)), d2v_fd, rtol=1e-8)

    @given(t=st.floats(0.2, 5.0), k_a=st.floats(0.0, 2.0), k_b=st.floats(0.0, 2.0))
    @settings(max_examples=30, deadline=None)
    def test_family_profile_is_admissible(self, t, k_a, k_b):
        """All k_a, k_b >= 0 members keep v above the positivity bound."""
        params = ModelParams.kahler(n=3, c=1.4, k_a=k_a, k_b=k_b)
        assert einstein_profile(params).v(t) > -params.a_metric / (2.0 * np.sqrt(t))


# ---------------------------------------------------------------------------
# Einstein differences: direct subtraction vs the gamma prediction
# ---------------------------------------------------------------------------


def _block_trace(pt, params, jets):
    return ricci_from_blocks(curvature_blocks(pt, params, jets))


class TestEinsteinDifference:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_direct_subtraction_matches_gamma_form(self, n, rng):
        """Ric - lambda(t) G computed from traced curvature blocks equals the
        rank-one gamma expressions, here for a profile NOT in the family."""
        params = ModelParams.kahler(n=n, c=1.2)
        profile = rational_profile()
        q = rng.uniform(-1.5, 1.5, size=n)
        p = rng.normal(size=n)
        p *= 1.1 / np.linalg.norm(p)
        pt = CotangentPoint.at(q, p, params)
        jets = fiber_jets(pt, params, profile)
        diff_hh, diff_vv = einstein_difference(pt, params, profile, jets, _block_trace(pt, params, jets))
        pred_hh, pred_vv = einstein_difference_closed_form(pt, params, profile)
        npt.assert_allclose(diff_hh, pred_hh, atol=1e-9, err_msg="horizontal difference")
        npt.assert_allclose(diff_vv, pred_vv, atol=1e-9, err_msg="vertical difference")

    def test_unweighted_horizontal_variant_is_wrong(self, rng):
        """Dropping the admissibility weight sqrt(c) + sqrt(2t) v from the
        horizontal difference breaks the identity by a visible margin."""
        params = ModelParams.kahler(n=3, c=1.2)
        profile = rational_profile()
        q = rng.uniform(-1.0, 1.0, size=3)
        p = rng.normal(size=3)
        p *= 1.1 / np.linalg.norm(p)
        pt = CotangentPoint.at(q, p, params)
        jets = fiber_jets(pt, params, profile)
        diff_hh, _ = einstein_difference(pt, params, profile, jets, _block_trace(pt, params, jets))
        c, t = params.c, pt.t
        gam = float(gamma_factor(params, profile, t))
        unweighted = (np.sqrt(c) * gam / (4.0 * t)) * np.outer(pt.p, pt.p)
        assert np.max(np.abs(diff_hh - unweighted)) > 1e-3

    def test_closed_form_requires_integrable_coupling(self, generic_point, generic_params, generic_profile):
        with pytest.raises(GeometryError):
            einstein_difference_closed_form(generic_point, generic_params, generic_profile)

    def test_direct_subtraction_requires_the_ricci(self, kahler_point, kahler_params, kahler_profile):
        """The direct route takes its block-trace Ricci from the caller and
        builds no curvature of its own."""
        jets = fiber_jets(kahler_point, kahler_params, kahler_profile)
        with pytest.raises(TypeError, match="ricci"):
            einstein_difference(kahler_point, kahler_params, kahler_profile, jets)
        assert not {"curvature_blocks", "ricci_from_blocks"} & set(vars(cotangent_kahler.einstein))


# ---------------------------------------------------------------------------
# The Einstein family
# ---------------------------------------------------------------------------


class TestEinsteinFamily:
    @pytest.mark.parametrize("n,c,k_a,k_b", [(2, 1.0, 0.4, 0.9), (3, 1.4, 0.7, 0.4)])
    def test_family_members_are_einstein(self, n, c, k_a, k_b, rng):
        """Ric = -(n+1) k_b / 2 * G pointwise, via traced curvature blocks."""
        params = ModelParams.kahler(n=n, c=c, k_a=k_a, k_b=k_b)
        profile = einstein_profile(params)
        for _ in range(3):
            q = rng.uniform(-1.5, 1.5, size=n)
            p = rng.normal(size=n)
            p *= rng.uniform(0.8, 1.8) / np.linalg.norm(p)
            pt = CotangentPoint.at(q, p, params)
            jets = fiber_jets(pt, params, profile)
            ricci = ricci_from_blocks(curvature_blocks(pt, params, jets))
            assert einstein_residual(params, jets, ricci) < 1e-6

    def test_zero_kb_member_is_ricci_flat(self, rng):
        params = ModelParams.kahler(n=3, c=1.4, k_a=0.9, k_b=0.0)
        profile = einstein_profile(params)
        q = rng.uniform(-1.0, 1.0, size=3)
        p = rng.normal(size=3)
        p *= 1.2 / np.linalg.norm(p)
        pt = CotangentPoint.at(q, p, params)
        ricci = ricci_from_blocks(curvature_blocks(pt, params, fiber_jets(pt, params, profile)))
        assert family_einstein_constant(params) == 0.0
        npt.assert_allclose(ricci.hh, 0.0, atol=1e-10)
        npt.assert_allclose(ricci.vv, 0.0, atol=1e-10)

    def test_fitted_constant_matches_theory_across_fiber_scales(self, rng):
        """A least-squares fit over sample points lands on -(n+1) k_b / 2 and
        is stable under rescaling the momenta."""
        params = ModelParams.kahler(n=3, c=1.0, k_a=0.3, k_b=1.1)
        profile = einstein_profile(params)
        q = rng.uniform(-1.0, 1.0, size=3)
        p = rng.normal(size=3)
        p *= 1.0 / np.linalg.norm(p)

        def fit_at(scale):
            pairs = []
            for s in (1.0, 1.4):
                pt = CotangentPoint.at(q, scale * s * p, params)
                jets = fiber_jets(pt, params, profile)
                pairs.append((ricci_from_blocks(curvature_blocks(pt, params, jets)), jets))
            return fit_einstein_constant(pairs)

        theory = family_einstein_constant(params)
        assert theory == pytest.approx(-2.0 * 1.1 / 1.0)
        npt.assert_allclose(fit_at(1.0), theory, atol=1e-9)
        npt.assert_allclose(fit_at(2.0), theory, atol=1e-9)

    def test_fit_rejects_empty_input(self):
        with pytest.raises(GeometryError):
            fit_einstein_constant([])

    def test_family_is_exactly_the_ode_kernel(self):
        """Perturbing a family member off the solution space re-excites gamma."""
        params = ModelParams.kahler(n=3, c=1.4, k_a=0.7, k_b=0.4)
        base = einstein_profile(params)
        bent = rational_profile()

        class Mixed:
            v = staticmethod(lambda t: base.v(t) + 0.05 * bent.v(t))
            dv = staticmethod(lambda t: base.dv(t) + 0.05 * bent.dv(t))
            d2v = staticmethod(lambda t: base.d2v(t) + 0.05 * bent.d2v(t))

        gam = gamma_factor(params, Mixed, T_GRID)
        assert np.max(np.abs(gam)) > 1e-3
