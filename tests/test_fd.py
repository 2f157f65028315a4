"""Finite-difference engine: order of accuracy, exactness, frame calculus."""

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cotangent_kahler.fd
from cotangent_kahler import (
    CotangentPoint,
    FDConfig,
    ModelParams,
    StencilError,
    chart_frame,
    curvature_fd,
    fd_gradient,
    fd_partial,
    fiber_jets,
    frame_gradient,
    nabla_curvature_probe,
    nijenhuis_numeric,
    parallel_j_residual,
)
from cotangent_kahler.fd import richardson_extrapolate

# ---------------------------------------------------------------------------
# Stencil order and exactness
# ---------------------------------------------------------------------------


class TestStencilOrder:
    def test_fourth_order_convergence_on_exp(self):
        """Halving the step divides the error by more than 2^4 = 16.

        With exp every Taylor coefficient is positive, so the next-order
        term pushes the ratio strictly above 16 rather than oscillating
        around it.
        """
        x0 = np.array([0.3, -0.2])
        target = np.exp(0.3 - 0.1)

        def f(z):
            return np.exp(z[0] + 0.5 * z[1])

        coarse = FDConfig(base_step=0.05, richardson_levels=1, relative=False)
        fine = FDConfig(base_step=0.025, richardson_levels=1, relative=False)
        e1 = abs(fd_partial(f, x0, 0, coarse) - target)
        e2 = abs(fd_partial(f, x0, 0, fine) - target)
        assert e1 / e2 > 16.0

    def test_quartic_exact_without_extrapolation(self):
        """The 5-point central stencil differentiates degree <= 4 exactly."""
        cfg = FDConfig(base_step=0.1, richardson_levels=1, relative=False)

        def f(z):
            return z[0] ** 4 - 3.0 * z[0] ** 2 + 2.0 * z[0]

        x0 = np.array([0.7])
        npt.assert_allclose(
            fd_partial(f, x0, 0, cfg),
            4 * 0.7**3 - 6 * 0.7 + 2.0,
            atol=1e-11,
            err_msg="stencil should be exact on quartics",
        )

    def test_quintic_exact_with_one_richardson_level(self):
        """One extrapolation level removes the h^4 term, so degree 5 is exact."""
        cfg = FDConfig(base_step=0.1, richardson_levels=2, relative=False)

        def f(z):
            return z[0] ** 5

        x0 = np.array([0.4])
        npt.assert_allclose(fd_partial(f, x0, 0, cfg), 5 * 0.4**4, atol=1e-12)

    def test_richardson_combination_weights(self):
        """(16 fine - coarse) / 15 for a fourth-order pair."""
        npt.assert_allclose(richardson_extrapolate(1.0, 1.0, order=4), 1.0, atol=0)
        npt.assert_allclose(richardson_extrapolate(0.0, 15.0, order=4), 16.0, atol=1e-14)

    @given(
        a=st.floats(-3, 3),
        b=st.floats(-3, 3),
        c=st.floats(-3, 3),
        x=st.floats(-1, 1),
    )
    @settings(max_examples=25, deadline=None)
    def test_quadratic_exact_property(self, a, b, c, x):
        """d/dx (a x^2 + b x + c) recovered to roundoff for any coefficients."""
        cfg = FDConfig(base_step=1e-3, richardson_levels=1, relative=False)

        def f(z):
            return a * z[0] ** 2 + b * z[0] + c

        expected = 2 * a * x + b
        assert abs(fd_partial(f, np.array([x]), 0, cfg) - expected) < 1e-8


class TestGuards:
    def test_non_finite_raises_stencil_error(self):
        cfg = FDConfig(base_step=0.5, relative=False)

        def f(z):
            # undefined to the left of the origin, as under the wide stencil
            return np.nan if z[0] < 0 else np.sqrt(z[0])

        with pytest.raises(StencilError):
            fd_partial(f, np.array([0.3]), 0, cfg)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            FDConfig(base_step=-1.0)
        with pytest.raises(ValueError):
            FDConfig(richardson_levels=0)

    def test_relative_step_scales_with_coordinate(self):
        cfg = FDConfig(base_step=1e-4, relative=True)
        assert cfg.step_for(200.0) == pytest.approx(2e-2)
        assert cfg.step_for(0.001) == pytest.approx(1e-4)


# ---------------------------------------------------------------------------
# Frame derivatives on the bundle
# ---------------------------------------------------------------------------


class TestFrameCalculus:
    def test_gradient_matches_componentwise_partials(self, rng, fd_cfg):
        def f(z):
            return np.array([np.sin(z[0] * z[1]), z[2] ** 2])

        x0 = rng.uniform(-1, 1, size=3)
        grad = fd_gradient(f, x0, fd_cfg)
        for d in range(3):
            npt.assert_allclose(grad[d], fd_partial(f, x0, d, fd_cfg), atol=0)

    def test_energy_density_is_horizontally_constant(self, sample_qp, kahler_params, fd_cfg):
        """delta t / delta q = 0: the energy only varies along the fiber."""
        q, p = sample_qp
        pt = CotangentPoint.at(q, p, kahler_params)

        def energy(qq, pp):
            return np.array([CotangentPoint.at(qq, pp, kahler_params).t])

        grad = frame_gradient(energy, q, p, pt.gamma, fd_cfg)
        npt.assert_allclose(grad[:3], 0.0, atol=1e-9, err_msg="horizontal energy derivative")

    def test_energy_fiber_derivative_is_raised_momentum(self, sample_qp, kahler_params, fd_cfg):
        """dt/dp_i = g^{ik} p_k."""
        q, p = sample_qp
        pt = CotangentPoint.at(q, p, kahler_params)

        def energy(qq, pp):
            return np.array([CotangentPoint.at(qq, pp, kahler_params).t])

        grad = frame_gradient(energy, q, p, pt.gamma, fd_cfg)
        npt.assert_allclose(grad[3:, 0], pt.p_up, atol=1e-9)

    def test_frame_gradient_consistent_with_frame_derivative(
        self, sample_qp, kahler_params, fd_cfg
    ):
        """Row a of the frame gradient is the derivative along the chart
        vector of e_a, a column of the chart frame."""
        q, p = sample_qp
        pt = CotangentPoint.at(q, p, kahler_params)
        frame = chart_frame(pt)

        def field(qq, pp):
            return np.array([qq[0] * pp[1], np.cos(pp[2]) + qq[2] ** 2])

        grad = frame_gradient(field, q, p, pt.gamma, fd_cfg)
        z0 = np.concatenate([q, p])
        for a in range(6):

            def along(s):
                z = z0 + s[0] * frame[:, a]
                return field(z[:3], z[3:])

            npt.assert_allclose(grad[a], fd_partial(along, np.zeros(1), 0, fd_cfg), atol=1e-10)

    def test_horizontal_commutator_is_curvature_bracket(
        self, sample_qp, kahler_params, fd_cfg
    ):
        """[delta_i, delta_j] f = (p . R)_{kij} df/dp_k on scalars."""
        q, p = sample_qp
        pt = CotangentPoint.at(q, p, kahler_params)
        i, j = 0, 1

        def scalar(qq, pp):
            return np.array([np.sin(qq[0] + 2 * pp[1]) + qq[1] * pp[0] ** 2 + pp[2] * qq[2] ** 2])

        def pair_of_derivs(qq, pp):
            ptz = CotangentPoint.at(qq, pp, kahler_params)
            g = frame_gradient(scalar, qq, pp, ptz.gamma, fd_cfg)
            return np.array([g[i, 0], g[j, 0]])

        outer = frame_gradient(pair_of_derivs, q, p, pt.gamma, fd_cfg)
        commutator = outer[i][1] - outer[j][0]
        fiber_grad = frame_gradient(scalar, q, p, pt.gamma, fd_cfg)[3:, 0]
        expected = pt.p_riemann[:, i, j] @ fiber_grad
        npt.assert_allclose(commutator, expected, atol=1e-6)


# ---------------------------------------------------------------------------
# One frame gradient per oracle
# ---------------------------------------------------------------------------


class TestOneGradientPerOracle:
    @pytest.mark.parametrize(
        "oracle",
        [parallel_j_residual, curvature_fd, nabla_curvature_probe, nijenhuis_numeric],
        ids=["_parallel_j", "curvature_fd", "nabla_curvature_probe", "_nijenhuis"],
    )
    def test_each_oracle_takes_one_gradient(
        self, oracle, kahler_point, kahler_params, kahler_profile, fd_cfg, monkeypatch
    ):
        """Every finite-difference oracle differentiates one array-valued
        field once: exactly 2n coordinate partials at an n = 3 point."""
        calls = []
        original = cotangent_kahler.fd.fd_partial

        def counted(*args, **kwargs):
            calls.append(args[2])
            return original(*args, **kwargs)

        jets = fiber_jets(kahler_point, kahler_params, kahler_profile)
        monkeypatch.setattr(cotangent_kahler.fd, "fd_partial", counted)
        oracle(kahler_params, kahler_profile, kahler_point, jets, fd_cfg)
        assert calls == list(range(6))
