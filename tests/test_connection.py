"""Levi-Civita connection in the adapted frame: two independent construction
routes, the Koszul finite-difference oracle, and the defining residuals."""

import numpy as np
import numpy.testing as npt
import pytest

import kernel_reference
from cotangent_kahler.base import ModelParams
from cotangent_kahler.connection import (
    connection_coefficients,
    kahler_connection_coefficients,
    koszul_nabla,
    metric_compatibility_residual,
    metric_gradient,
    parallel_j_residual,
    torsion_residual,
)
from cotangent_kahler.errors import GeometryError
from cotangent_kahler.fd import fd_partial
from cotangent_kahler.mtensor import CotangentPoint, fiber_jets, frame_brackets
from cotangent_kahler.profiles import einstein_profile, rational_profile, zero_profile
from cotangent_kahler.structure import assemble_complex_structure
from stencils import frame_gradient, stencil_at

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
    def test_all_frame_pairs(self, sample_qp, integrable):
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
        oracle = koszul_nabla(pt, jets, metric_gradient(params, profile, stencil_at(pt, params)))
        assert oracle.shape == (6, 6, 6)
        npt.assert_allclose(oracle, conn, atol=1e-5)

    def test_torsion_free(self, generic_point, generic_params, generic_profile):
        conn = connection_coefficients(
            generic_point, generic_params, fiber_jets(generic_point, generic_params, generic_profile)
        )
        assert torsion_residual(generic_point, conn) < 1e-12

    def test_metric_compatibility(self, sample_qp, generic_params, generic_profile):
        q, p = sample_qp
        pt = CotangentPoint.at(q, p, generic_params)
        jets = fiber_jets(pt, generic_params, generic_profile)
        conn = connection_coefficients(pt, generic_params, jets)
        metric_grad = metric_gradient(generic_params, generic_profile, stencil_at(pt, generic_params))
        assert metric_compatibility_residual(conn, jets, metric_grad) < 1e-5


# ---------------------------------------------------------------------------
# Parallelism of the complex structure
# ---------------------------------------------------------------------------


class TestParallelComplexStructure:
    def test_integrable_coupling_makes_j_parallel(
        self, sample_qp, kahler_params, kahler_profile
    ):
        q, p = sample_qp
        pt = CotangentPoint.at(q, p, kahler_params)
        jets = fiber_jets(pt, kahler_params, kahler_profile)
        conn = connection_coefficients(pt, kahler_params, jets)
        metric_grad = metric_gradient(kahler_params, kahler_profile, stencil_at(pt, kahler_params))
        assert parallel_j_residual(conn, jets, metric_grad) < 1e-5

    def test_detuned_coupling_leaves_witness(self, sample_qp, generic_params, generic_profile):
        """Off the integrable coupling J is compatible but not parallel."""
        q, p = sample_qp
        pt = CotangentPoint.at(q, p, generic_params)
        jets = fiber_jets(pt, generic_params, generic_profile)
        conn = connection_coefficients(pt, generic_params, jets)
        metric_grad = metric_gradient(generic_params, generic_profile, stencil_at(pt, generic_params))
        assert parallel_j_residual(conn, jets, metric_grad) > 1e-3

    @pytest.mark.parametrize("detune", [0.0, 0.1])
    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_j_field_gradient_is_m_times_metric_gradient(self, n, detune):
        """``J = M G`` with ``M = [[0, -I], [I, 0]]``, so the frame gradient of
        the J field equals ``M`` times the metric gradient, entry for entry,
        at the integrable and a detuned coupling, on 2 centers."""
        kahler = ModelParams.kahler(n=n, c=1.3, k_a=0.5, k_b=0.7)
        params = ModelParams(n=n, c=1.3, a_metric=(1.0 + detune) * kahler.a_metric, k_a=0.5, k_b=0.7)
        profile = einstein_profile(params)
        rng = np.random.default_rng([3, n])
        q, p = rng.uniform(-1.0, 1.0, size=(2, n)), rng.normal(size=(2, n))
        pt = CotangentPoint.at(q, p, params)

        def j_field(qq, pp):
            return assemble_complex_structure(fiber_jets(CotangentPoint.at(qq, pp, params), params, profile))

        m = np.block([[np.zeros((n, n)), -np.eye(n)], [np.eye(n), np.zeros((n, n))]])
        grad_j = frame_gradient(j_field, pt)
        assert np.array_equal(grad_j, m @ metric_gradient(params, profile, stencil_at(pt, params)))


# ---------------------------------------------------------------------------
# Fiber derivatives of the coefficients
# ---------------------------------------------------------------------------


class TestCoefficientFiberDerivatives:
    def test_match_finite_differences(self, sample_qp, generic_params, generic_profile):
        q, p = sample_qp
        pt = CotangentPoint.at(q, p, generic_params)
        jets = fiber_jets(pt, generic_params, generic_profile)
        derivs = kernel_reference.assembled_fiber_derivatives(pt, generic_params, jets)

        def coeffs_at(pp):
            ptz = CotangentPoint.at(np.broadcast_to(q, pp.shape), pp, generic_params)
            return connection_coefficients(ptz, generic_params, fiber_jets(ptz, generic_params, generic_profile))

        for m in range(3):
            npt.assert_allclose(derivs[m], fd_partial(coeffs_at, p, m), atol=1e-6)

    def test_bracket_consistency_of_covariant_derivative(
        self, sample_qp, kahler_params, kahler_profile
    ):
        """nabla_a e_b - nabla_b e_a equals the frame bracket when both sides
        are produced by the field-level covariant derivative."""
        q, p = sample_qp
        pt = CotangentPoint.at(q, p, kahler_params)
        conn = connection_coefficients(pt, kahler_params, fiber_jets(pt, kahler_params, kahler_profile))

        def basis_fields(qq, pp):
            return np.broadcast_to(np.eye(6), (len(qq), 6, 6))

        nabla = kernel_reference.covariant_field_derivative(pt, conn, basis_fields, np.eye(6))
        torsion_free = np.einsum("acb->abc", nabla) - np.einsum("bca->abc", nabla)
        npt.assert_allclose(torsion_free, frame_brackets(pt), atol=1e-9)
