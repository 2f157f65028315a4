"""Almost-complex structure: J^2 = -id, Hermitian symmetry, closed 2-form,
and the integrability tensor with its independent bracket-level oracle."""

import numpy as np
import numpy.testing as npt
import pytest

from base_reference import bumped_geometry
from cotangent_kahler.base import ModelParams, integrable_coupling
from cotangent_kahler.fd import Stencil
from cotangent_kahler.mtensor import CotangentPoint, Rows, assemble_metric, chart_frame, fiber_jets
from cotangent_kahler.structure import (
    assemble_complex_structure,
    canonical_coordinate_form,
    complex_structure_squared_residual,
    coordinate_form,
    dform_residual,
    fundamental_form,
    hermitian_residual,
    nijenhuis_closed_form,
    nijenhuis_numeric,
)
from stencils import stencil_at

# ---------------------------------------------------------------------------
# Pointwise structure equations
# ---------------------------------------------------------------------------


class TestComplexStructure:
    def test_squares_to_minus_identity(self, kahler_point, kahler_params, kahler_profile):
        jets = fiber_jets(kahler_point, kahler_params, kahler_profile)
        j_op = assemble_complex_structure(jets)
        assert complex_structure_squared_residual(j_op) < 1e-12

    def test_squares_to_minus_identity_generic(self, generic_point, generic_params, generic_profile):
        """J^2 = -id needs no integrability: it holds at any coupling."""
        jets = fiber_jets(generic_point, generic_params, generic_profile)
        j_op = assemble_complex_structure(jets)
        assert complex_structure_squared_residual(j_op) < 1e-12

    def test_metric_is_hermitian(self, generic_point, generic_params, generic_profile):
        """G(JX, JY) = G(X, Y) across the whole adapted frame."""
        jets = fiber_jets(generic_point, generic_params, generic_profile)
        assert hermitian_residual(assemble_metric(jets), assemble_complex_structure(jets)) < 1e-10

    def test_rotates_horizontal_into_vertical(self, kahler_point, kahler_params, kahler_profile):
        jets = fiber_jets(kahler_point, kahler_params, kahler_profile)
        j_op = assemble_complex_structure(jets)
        jx = j_op @ np.eye(6)[1]
        npt.assert_allclose(jx[:3], 0.0, atol=0)
        npt.assert_allclose(jx[3:], jets.gh[:, 1], atol=0)

    def test_is_constant_rotation_of_metric(self, generic_point, generic_params, generic_profile):
        """``J = M G`` with ``M = [[0, -I], [I, 0]]``, entry for entry: what
        lets parallel J reuse the metric gradient."""
        jets = fiber_jets(generic_point, generic_params, generic_profile)
        m = np.block([[np.zeros((3, 3)), -np.eye(3)], [np.eye(3), np.zeros((3, 3))]])
        assert np.array_equal(assemble_complex_structure(jets), m @ assemble_metric(jets))


class TestFundamentalForm:
    def test_frame_blocks_are_canonical(self, generic_point, generic_params, generic_profile):
        """phi(X, Y) = G(X, JY) pairs the frames by +/- identity."""
        jets = fiber_jets(generic_point, generic_params, generic_profile)
        phi = fundamental_form(assemble_metric(jets), assemble_complex_structure(jets))
        eye = np.eye(3)
        npt.assert_allclose(phi[:3, :3], 0.0, atol=1e-13)
        npt.assert_allclose(phi[:3, 3:], -eye, atol=1e-13)
        npt.assert_allclose(phi[3:, :3], eye, atol=1e-13)
        npt.assert_allclose(phi[3:, 3:], 0.0, atol=1e-13)

    def test_chart_components_are_symplectic(self, generic_point, generic_params, generic_profile):
        """In chart coordinates phi is the constant matrix of dp ^ dq."""
        jets = fiber_jets(generic_point, generic_params, generic_profile)
        phi = fundamental_form(assemble_metric(jets), assemble_complex_structure(jets))
        npt.assert_allclose(
            coordinate_form(generic_point, phi),
            canonical_coordinate_form(3),
            atol=1e-12,
            err_msg="chart components of the fundamental form",
        )

    def test_form_is_closed(self, sample_qp, kahler_params, kahler_profile):
        """d phi = 0, measured by antisymmetrized chart derivatives."""
        q, p = sample_qp
        pt = CotangentPoint.at(q, p, kahler_params)
        assert dform_residual(kahler_params, kahler_profile, stencil_at(pt, kahler_params)) < 1e-6

    def test_form_is_closed_off_coupling(self, sample_qp, generic_params, generic_profile):
        """Closedness holds for every coupling, not only the integrable one."""
        q, p = sample_qp
        pt = CotangentPoint.at(q, p, generic_params)
        assert dform_residual(generic_params, generic_profile, stencil_at(pt, generic_params)) < 1e-6


# ---------------------------------------------------------------------------
# Chart/frame conversions
# ---------------------------------------------------------------------------


class TestFrameConversion:
    def test_roundtrip(self, kahler_point, rng):
        """Frame components ``(2I - E) z`` of a chart vector map back to z."""
        z = rng.normal(size=6)
        frame = chart_frame(kahler_point)
        back = frame @ ((2.0 * np.eye(6) - frame) @ z)
        npt.assert_allclose(back, z, atol=1e-14)

    def test_horizontal_basis_has_christoffel_tail(self, kahler_point):
        """delta_i in chart coordinates is (e_i, p . Gamma_i)."""
        z = chart_frame(kahler_point)[:, 0]
        npt.assert_allclose(z[:3], [1.0, 0.0, 0.0], atol=0)
        npt.assert_allclose(z[3:], kahler_point.p_gamma[0], atol=0)


# ---------------------------------------------------------------------------
# Integrability tensor
# ---------------------------------------------------------------------------


class TestNijenhuis:
    def test_vanishes_at_integrable_coupling(self, kahler_point, kahler_params, kahler_profile):
        """N = 0 exactly when a^2 = 2c."""
        jets = fiber_jets(kahler_point, kahler_params, kahler_profile)
        tensor = nijenhuis_closed_form(kahler_point, kahler_params, jets)
        assert np.max(np.abs(tensor)) < 1e-8

    def test_detuned_coupling_leaves_witness(self, sample_qp, generic_profile):
        """A 10% detuning of the coupling leaves a visible obstruction."""
        q, p = sample_qp
        c = 1.4
        params = ModelParams(n=3, c=c, a_metric=1.1 * integrable_coupling(c))
        pt = CotangentPoint.at(q, p, params)
        jets = fiber_jets(pt, params, generic_profile)
        tensor = nijenhuis_closed_form(pt, params, jets)
        assert np.max(np.abs(tensor)) > 1e-3

    def test_blocks_are_antisymmetric(self, generic_point, generic_params, generic_profile):
        jets = fiber_jets(generic_point, generic_params, generic_profile)
        tensor = nijenhuis_closed_form(generic_point, generic_params, jets)
        npt.assert_allclose(tensor, -np.swapaxes(tensor, 0, 1), atol=1e-14)

    @pytest.mark.parametrize("detune", [1.0, 1.15])
    def test_closed_form_matches_bracket_oracle(self, sample_qp, generic_profile, detune):
        """The closed form reproduces N(X, Y) = [JX, JY] - J[JX, Y] - J[X, JY]
        - [X, Y] computed from chart-level Lie brackets, on every frame pair."""
        q, p = sample_qp
        c = 1.4
        params = ModelParams(n=3, c=c, a_metric=detune * integrable_coupling(c))
        pt = CotangentPoint.at(q, p, params)
        jets = fiber_jets(pt, params, generic_profile)
        tensor = nijenhuis_closed_form(pt, params, jets)
        numeric = nijenhuis_numeric(params, generic_profile, stencil_at(pt, params))
        npt.assert_allclose(numeric, tensor, atol=1e-5)

    def test_closed_form_holds_off_space_forms(self, generic_profile):
        """The same block formulas verify against the oracle when the base
        conformal factor carries a cubic bump, so the identity is not an
        artifact of constant curvature."""
        n, c, eps = 3, 1.4, 0.05
        params = ModelParams(n=n, c=c, a_metric=1.3)

        def point_factory(qq, pp):
            return CotangentPoint.from_base(qq, pp, bumped_geometry(qq, c, eps))

        q = np.array([0.5, -0.3, 0.8])
        p = np.array([0.9, 0.4, -0.7])
        pt = point_factory(q, p)
        jets = fiber_jets(pt, params, generic_profile)
        tensor = nijenhuis_closed_form(pt, params, jets)
        assert np.max(np.abs(tensor)) > 1e-3  # nothing trivial is being compared
        numeric = nijenhuis_numeric(params, generic_profile, Stencil(Rows(q, p, point_factory)))
        npt.assert_allclose(numeric, tensor, atol=1e-5)
