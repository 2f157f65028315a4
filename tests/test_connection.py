"""Levi-Civita connection in the adapted frame: two independent construction
routes, the Koszul finite-difference oracle, and the defining residuals."""

import numpy as np
import numpy.testing as npt
import pytest

from cotangent_kahler import (
    CotangentPoint,
    GeometryError,
    ModelParams,
    connection_coefficients,
    connection_fiber_derivatives,
    covariant_field_derivative,
    fd_partial,
    fiber_jets,
    frame_brackets,
    kahler_connection_coefficients,
    koszul_nabla,
    metric_compatibility_residual,
    metric_gradient,
    parallel_j_residual,
    rational_profile,
    torsion_residual,
    zero_profile,
)
from cotangent_kahler.profiles import einstein_profile

# ---------------------------------------------------------------------------
# Coefficient routes
# ---------------------------------------------------------------------------


class TestCoefficientRoutes:
    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("profile_name", ["einstein", "rational"])
    def test_general_route_matches_closed_form(self, n, profile_name, rng):
        """Fiber-jet coefficients equal the (c, t, v, v') closed form at the
        integrable coupling, for any admissible profile."""
        params = ModelParams.kahler(n=n, c=1.3, k_a=0.5, k_b=0.7)
        profile = einstein_profile(params) if profile_name == "einstein" else rational_profile()
        q = rng.uniform(-1.5, 1.5, size=n)
        p = rng.normal(size=n)
        p *= 1.2 / np.linalg.norm(p)
        pt = CotangentPoint.at(q, p, params)
        general = connection_coefficients(pt, params, fiber_jets(pt, params, profile))
        closed = kahler_connection_coefficients(pt, params, profile)
        h, v = slice(None, n), slice(n, None)
        npt.assert_allclose(general[v, v], closed[v, v], atol=1e-9, err_msg="vertical/vertical")
        npt.assert_allclose(general[v, h], closed[v, h], atol=1e-9, err_msg="vertical/horizontal")
        npt.assert_allclose(general[h], closed[h], atol=1e-9, err_msg="horizontal direction")

    def test_closed_form_requires_integrable_coupling(self, generic_params, generic_point):
        with pytest.raises(GeometryError):
            kahler_connection_coefficients(generic_point, generic_params, rational_profile())

    def test_vertical_pair_hand_value(self):
        """At the chart origin with v = 0 and t = 1/2:
        Gamma[3+i, 3+j, 3+h] = -(delta_ih p_j + delta_jh p_i)/2 + delta_ij p_h / 2,
        and a vertical pair has no horizontal output."""
        params = ModelParams.kahler(n=3, c=1.0)
        p = np.array([1.0, 0.0, 0.0])
        pt = CotangentPoint.at(np.zeros(3), p, params)
        assert pt.t == pytest.approx(0.5)
        conn = kahler_connection_coefficients(pt, params, zero_profile())
        eye = np.eye(3)
        expected = -0.5 * (
            np.einsum("ih,j->ijh", eye, p) + np.einsum("jh,i->ijh", eye, p)
        ) + 0.5 * np.einsum("ij,h->ijh", eye, p)
        npt.assert_allclose(conn[3:, 3:, 3:], expected, atol=1e-14)
        npt.assert_allclose(conn[3:, 3:, :3], 0.0, atol=0)

    def test_vertical_pair_is_symmetric(self, generic_point, generic_params, generic_profile):
        conn = connection_coefficients(
            generic_point, generic_params, fiber_jets(generic_point, generic_params, generic_profile)
        )
        vv = conn[3:, 3:]
        npt.assert_allclose(vv, np.swapaxes(vv, 0, 1), atol=1e-13)

    def test_horizontal_antisymmetric_part_is_curvature(
        self, generic_point, generic_params, generic_profile
    ):
        """Gamma[i, j, 3+h] - Gamma[j, i, 3+h] = p . R^._{hij}: torsion-freeness
        pins the antisymmetric part to half the bracket, twice."""
        conn = connection_coefficients(
            generic_point, generic_params, fiber_jets(generic_point, generic_params, generic_profile)
        )
        hh = conn[:3, :3, 3:]
        npt.assert_allclose(
            hh - np.swapaxes(hh, 0, 1), np.einsum("hij->ijh", generic_point.p_riemann), atol=1e-12
        )

    def test_horizontal_block_extra_symmetry_when_integrable(self, kahler_point, kahler_params, kahler_profile):
        """At the integrable coupling the vertical output of a horizontal pair
        is symmetric under swapping its output and second input."""
        conn = kahler_connection_coefficients(kahler_point, kahler_params, kahler_profile)
        hh = conn[:3, :3, 3:]
        npt.assert_allclose(hh, np.swapaxes(hh, 1, 2), atol=1e-12)


# ---------------------------------------------------------------------------
# Koszul oracle and defining residuals
# ---------------------------------------------------------------------------


class TestKoszulOracle:
    @pytest.mark.parametrize("integrable", [True, False])
    def test_all_frame_pairs(self, sample_qp, fd_cfg, integrable):
        """nabla from the finite-difference Koszul formula agrees with the
        closed coefficients on every one of the 2n x 2n frame pairs."""
        q, p = sample_qp
        c = 1.4
        a = np.sqrt(2 * c) if integrable else 1.9
        params = ModelParams(n=3, c=c, a_metric=a)
        profile = rational_profile()
        pt = CotangentPoint.at(q, p, params)
        jets = fiber_jets(pt, params, profile)
        conn = connection_coefficients(pt, params, jets)
        oracle = koszul_nabla(pt, jets, metric_gradient(params, profile, pt, fd_cfg))
        assert oracle.shape == (6, 6, 6)
        npt.assert_allclose(oracle, conn, atol=1e-5)

    def test_torsion_free(self, generic_point, generic_params, generic_profile):
        conn = connection_coefficients(
            generic_point, generic_params, fiber_jets(generic_point, generic_params, generic_profile)
        )
        assert torsion_residual(generic_point, conn) < 1e-12

    def test_metric_compatibility(self, sample_qp, generic_params, generic_profile, fd_cfg):
        q, p = sample_qp
        pt = CotangentPoint.at(q, p, generic_params)
        jets = fiber_jets(pt, generic_params, generic_profile)
        conn = connection_coefficients(pt, generic_params, jets)
        metric_grad = metric_gradient(generic_params, generic_profile, pt, fd_cfg)
        assert metric_compatibility_residual(conn, jets, metric_grad) < 1e-5


# ---------------------------------------------------------------------------
# Parallelism of the complex structure
# ---------------------------------------------------------------------------


class TestParallelComplexStructure:
    def test_integrable_coupling_makes_j_parallel(
        self, sample_qp, kahler_params, kahler_profile, fd_cfg
    ):
        q, p = sample_qp
        pt = CotangentPoint.at(q, p, kahler_params)
        jets = fiber_jets(pt, kahler_params, kahler_profile)
        assert parallel_j_residual(kahler_params, kahler_profile, pt, jets, fd_cfg) < 1e-5

    def test_detuned_coupling_leaves_witness(self, sample_qp, generic_params, generic_profile, fd_cfg):
        """Off the integrable coupling J is compatible but not parallel."""
        q, p = sample_qp
        pt = CotangentPoint.at(q, p, generic_params)
        jets = fiber_jets(pt, generic_params, generic_profile)
        assert parallel_j_residual(generic_params, generic_profile, pt, jets, fd_cfg) > 1e-3


# ---------------------------------------------------------------------------
# Fiber derivatives of the coefficients
# ---------------------------------------------------------------------------


class TestCoefficientFiberDerivatives:
    def test_match_finite_differences(self, sample_qp, generic_params, generic_profile, fd_cfg):
        q, p = sample_qp
        pt = CotangentPoint.at(q, p, generic_params)
        derivs = connection_fiber_derivatives(pt, generic_params, fiber_jets(pt, generic_params, generic_profile))

        def coeffs_at(pp):
            ptz = CotangentPoint.at(q, pp, generic_params)
            return connection_coefficients(ptz, generic_params, fiber_jets(ptz, generic_params, generic_profile))

        for m in range(3):
            npt.assert_allclose(derivs[m], fd_partial(coeffs_at, p, m, fd_cfg), atol=1e-6)

    def test_bracket_consistency_of_covariant_derivative(
        self, sample_qp, kahler_params, kahler_profile, fd_cfg
    ):
        """nabla_a e_b - nabla_b e_a equals the frame bracket when both sides
        are produced by the field-level covariant derivative."""
        q, p = sample_qp
        pt = CotangentPoint.at(q, p, kahler_params)
        conn = connection_coefficients(pt, kahler_params, fiber_jets(pt, kahler_params, kahler_profile))

        def basis_fields(qq, pp):
            return np.eye(6)

        nabla = covariant_field_derivative(pt, conn, basis_fields, np.eye(6), fd_cfg)
        torsion_free = np.einsum("acb->abc", nabla) - np.einsum("bca->abc", nabla)
        npt.assert_allclose(torsion_free, frame_brackets(pt), atol=1e-9)
