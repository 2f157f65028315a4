"""Finite-difference engine: order of accuracy, exactness, frame calculus."""

import sys

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cotangent_kahler.fd
from cotangent_kahler import (
    CotangentPoint,
    ModelParams,
    StencilError,
    chart_frame,
    curvature_fd,
    dform_residual,
    einstein_profile,
    fd_gradient,
    fd_partial,
    fiber_jets,
    frame_gradient,
    metric_gradient,
    nabla_curvature_probe,
    nijenhuis_numeric,
)

# ---------------------------------------------------------------------------
# Stencil order and exactness
# ---------------------------------------------------------------------------


class TestStencilOrder:
    def test_sixth_order_convergence_on_exp(self):
        """Halving the step divides the error by more than 2^6 = 64: the
        Richardson level cancels the stencil's h^4 term.

        With exp every Taylor coefficient is positive, so the next-order
        term pushes the ratio strictly above 64 rather than oscillating
        around it; steps this large keep rounding far below the h^6 error.
        """
        x0 = np.array([0.3, -0.2])
        target = np.exp(0.3 - 0.1)

        def f(z):
            return np.exp(z[:, 0] + 0.5 * z[:, 1])

        e1 = abs(fd_partial(f, x0, 0, 0.4) - target)
        e2 = abs(fd_partial(f, x0, 0, 0.2) - target)
        assert e1 / e2 > 64.0

    def test_quintic_exact_with_one_richardson_level(self):
        """The extrapolation level removes the h^4 term, so degree 5 is exact."""

        def f(z):
            return z[:, 0] ** 5

        x0 = np.array([0.4])
        npt.assert_allclose(fd_partial(f, x0, 0, 0.1), 5 * 0.4**4, atol=1e-12)

    @given(
        a=st.floats(-3, 3),
        b=st.floats(-3, 3),
        c=st.floats(-3, 3),
        x=st.floats(-1, 1),
    )
    @settings(max_examples=25, deadline=None)
    def test_quadratic_exact_property(self, a, b, c, x):
        """d/dx (a x^2 + b x + c) recovered to roundoff for any coefficients."""

        def f(z):
            return a * z[:, 0] ** 2 + b * z[:, 0] + c

        expected = 2 * a * x + b
        assert abs(fd_partial(f, np.array([x]), 0, 1e-3) - expected) < 1e-8


class TestGuards:
    def test_non_finite_raises_stencil_error(self):
        def f(z):
            # undefined to the left of the origin, as under the wide stencil
            return np.sqrt(np.where(z[:, 0] < 0, np.nan, z[:, 0]))

        with pytest.raises(StencilError):
            fd_partial(f, np.array([0.3]), 0, 0.5)

    def test_stencil_error_names_the_failing_offset(self):
        """Only the +h/2 point of the Richardson level (h = 0.5) is
        non-finite; the error names its coordinate and offset."""

        def f(z):
            return np.where(z[:, 0] == 0.3 + 0.25, np.nan, z[:, 0] ** 2)

        with pytest.raises(StencilError, match=r"at coordinate 0, offset \+2\.500e-01$"):
            fd_partial(f, np.array([0.3]), 0, 0.5)

    def test_stencil_error_names_the_last_coordinate_of_a_stacked_call(self):
        """All three coordinates go to the field in one call; only the +h/2
        point along the last one is non-finite, and the error names it."""
        calls = []

        def f(z):
            calls.append(len(z))
            return np.where(z[:, 2] == 0.3 + 0.25, np.nan, z[:, 0] * z[:, 2])

        with pytest.raises(StencilError, match=r"at coordinate 2, offset \+2\.500e-01$"):
            fd_gradient(f, np.array([0.1, 0.2, 0.3]), 0.5)
        assert calls == [24]

    def test_relative_step_scales_with_coordinate(self):
        """The step along x_d is step * max(1, |x_d|), per center."""
        calls = []

        def f(z):
            calls.append(z.copy())
            return z[:, 0]

        centers = np.array([[200.0], [0.001]])
        fd_partial(f, centers, 0, 1e-4)
        (points,) = calls
        shifts = (points[:, 0] - np.tile(centers[:, 0], 8)).reshape(8, 2)
        npt.assert_allclose(np.abs(shifts).max(axis=0), [2 * 2e-2, 2 * 1e-4], rtol=1e-6)


class TestBatchedStencil:
    def test_one_field_call_per_partial(self):
        """The whole stencil along one coordinate is one call on 8 rows:
        offsets -2, -1, +1, +2 of the step h, then of h/2."""
        calls = []

        def f(z):
            calls.append(z.copy())
            return np.sin(z[:, 0]) * z[:, 1]

        x0 = np.array([0.2, 0.7])
        fd_partial(f, x0, 1, 0.01)
        assert len(calls) == 1
        (points,) = calls
        assert points.shape == (8, 2)
        offsets = np.concatenate([np.array([-2.0, -1.0, 1.0, 2.0]) * h for h in (0.01, 0.005)])
        npt.assert_allclose(points[:, 1] - x0[1], offsets, rtol=1e-12)
        npt.assert_array_equal(points[:, 0], x0[0])

    def test_stacked_centers_match_single_centers(self, rng):
        """Centers of shape (2, 3) give their axes first, then the coordinate,
        then the field's; each equals its own single-center gradient."""

        def f(z):
            return np.stack([np.sin(z[:, 0] * z[:, 1]), z[:, 2] ** 3 * z[:, 0]], axis=-1)

        centers = rng.uniform(-2, 2, size=(2, 3))
        grad = fd_gradient(f, centers, 1e-4)
        assert grad.shape == (2, 3, 2)
        for m in range(2):
            npt.assert_array_equal(grad[m], fd_gradient(f, centers[m], 1e-4))

    @pytest.mark.parametrize("center_shape", [(3,), (2, 3)], ids=["one", "two"])
    def test_gradient_is_the_stack_of_single_coordinate_partials(self, rng, center_shape):
        """Coordinates stacked into one call give, bit for bit, the partials
        of one call per coordinate."""

        def f(z):
            return np.stack([np.sin(z[:, 0] * z[:, 1]), z[:, 2] ** 3 * np.exp(z[:, 0])], axis=-1)

        centers = rng.uniform(-2, 2, size=center_shape)
        single = np.stack([fd_partial(f, centers, d, 1e-4) for d in range(3)], axis=len(center_shape) - 1)
        assert np.array_equal(fd_gradient(f, centers, 1e-4), single)

    @pytest.mark.parametrize(
        "n, centers, rows",
        [(2, 2, [64]), (3, 1, [24, 24]), (3, 2, [16, 80]), (5, 1, [8, 72]), (5, 2, [16, 144])],
        ids=["n2-two", "n3-one", "n3-two", "n5-one", "n5-two"],
    )
    def test_frame_gradient_calls_the_field_once_per_coordinate_group(self, rng, fd_step, n, centers, rows):
        """The first call takes the 8 stencil rows per center of as many chart
        coordinates as fit the byte budget at 8 (2n)^4 bytes per row, and
        never fewer than one coordinate: all four at n = 2, three at n = 3
        with one center, one from n = 3 with two.  The rest are grouped by
        the bytes per row the first call returned, 16 here, so they all fit
        one more call."""
        params = ModelParams.kahler(n=n, c=1.4, k_a=0.7, k_b=0.4)
        qs = rng.uniform(-1.5, 1.5, size=(centers, n))
        ps = rng.normal(size=(centers, n))
        pt = CotangentPoint.at(qs, ps, params)
        shapes = []

        def field(qq, pp):
            shapes.append(qq.shape + pp.shape)
            return np.stack([qq[:, 0] * pp[:, 1], np.cos(pp[:, -1])], axis=-1)

        assert frame_gradient(field, pt, fd_step).shape == (centers, 2 * n, 2)
        assert shapes == [(m, n, m, n) for m in rows]

    def test_a_curvature_sized_field_takes_one_coordinate_per_call(self, rng, fd_step):
        """A field with (2n)^4 values per row, the size of ``K``, at n = 5
        fills the byte budget with the 8 rows of one coordinate, so every
        call takes one coordinate, as the first call does."""
        n = 5
        params = ModelParams.kahler(n=n, c=1.4, k_a=0.7, k_b=0.4)
        pt = CotangentPoint.at(rng.uniform(-1.5, 1.5, size=(1, n)), rng.normal(size=(1, n)), params)
        scale = np.arange((2 * n) ** 4, dtype=float).reshape((2 * n,) * 4)
        rows = []

        def field(qq, pp):
            rows.append(len(qq))
            return np.multiply.outer(qq[:, 0] * pp[:, 1], scale)

        assert frame_gradient(field, pt, fd_step).shape == (1, 2 * n) + (2 * n,) * 4
        assert rows == [8] * 10


# ---------------------------------------------------------------------------
# Frame derivatives on the bundle
# ---------------------------------------------------------------------------


class TestFrameCalculus:
    def test_gradient_matches_componentwise_partials(self, rng, fd_step):
        def f(z):
            return np.stack([np.sin(z[:, 0] * z[:, 1]), z[:, 2] ** 2], axis=-1)

        x0 = rng.uniform(-1, 1, size=3)
        grad = fd_gradient(f, x0, fd_step)
        for d in range(3):
            npt.assert_allclose(grad[d], fd_partial(f, x0, d, fd_step), atol=0)

    def test_energy_density_is_horizontally_constant(self, sample_qp, kahler_params, fd_step):
        """delta t / delta q = 0: the energy only varies along the fiber."""
        q, p = sample_qp
        pt = CotangentPoint.at(q, p, kahler_params)

        def energy(qq, pp):
            return CotangentPoint.at(qq, pp, kahler_params).t[:, None]

        grad = frame_gradient(energy, pt, fd_step)
        npt.assert_allclose(grad[:3], 0.0, atol=1e-9, err_msg="horizontal energy derivative")

    def test_energy_fiber_derivative_is_raised_momentum(self, sample_qp, kahler_params, fd_step):
        """dt/dp_i = g^{ik} p_k."""
        q, p = sample_qp
        pt = CotangentPoint.at(q, p, kahler_params)

        def energy(qq, pp):
            return CotangentPoint.at(qq, pp, kahler_params).t[:, None]

        grad = frame_gradient(energy, pt, fd_step)
        npt.assert_allclose(grad[3:, 0], pt.p_up, atol=1e-9)

    def test_frame_gradient_consistent_with_frame_derivative(
        self, sample_qp, kahler_params, fd_step
    ):
        """Row a of the frame gradient is the derivative along the chart
        vector of e_a, a column of the chart frame."""
        q, p = sample_qp
        pt = CotangentPoint.at(q, p, kahler_params)
        frame = chart_frame(pt)

        def field(qq, pp):
            return np.stack([qq[:, 0] * pp[:, 1], np.cos(pp[:, 2]) + qq[:, 2] ** 2], axis=-1)

        grad = frame_gradient(field, pt, fd_step)
        z0 = np.concatenate([q, p])
        for a in range(6):

            def along(s):
                z = z0 + s[:, :1] * frame[:, a]
                return field(z[:, :3], z[:, 3:])

            npt.assert_allclose(grad[a], fd_partial(along, np.zeros(1), 0, fd_step), atol=1e-10)

    def test_horizontal_commutator_is_curvature_bracket(
        self, sample_qp, kahler_params, fd_step
    ):
        """[delta_i, delta_j] f = (p . R)_{kij} df/dp_k on scalars."""
        q, p = sample_qp
        pt = CotangentPoint.at(q, p, kahler_params)
        i, j = 0, 1

        def scalar(qq, pp):
            value = np.sin(qq[:, 0] + 2 * pp[:, 1]) + qq[:, 1] * pp[:, 0] ** 2 + pp[:, 2] * qq[:, 2] ** 2
            return value[:, None]

        def pair_of_derivs(qq, pp):
            return frame_gradient(scalar, CotangentPoint.at(qq, pp, kahler_params), fd_step)[:, [i, j], 0]

        outer = frame_gradient(pair_of_derivs, pt, fd_step)
        commutator = outer[i][1] - outer[j][0]
        fiber_grad = frame_gradient(scalar, pt, fd_step)[3:, 0]
        expected = pt.p_riemann[:, i, j] @ fiber_grad
        npt.assert_allclose(commutator, expected, atol=1e-6)


# ---------------------------------------------------------------------------
# One frame gradient per oracle
# ---------------------------------------------------------------------------


def _metric_gradient(params, profile, pt, jets, step):
    return metric_gradient(params, profile, pt, step)


class TestOneGradientPerOracle:
    @pytest.mark.parametrize(
        "oracle",
        [_metric_gradient, curvature_fd, nabla_curvature_probe, nijenhuis_numeric],
        ids=["metric_gradient", "curvature_fd", "nabla_curvature_probe", "_nijenhuis"],
    )
    def test_each_oracle_takes_one_gradient(
        self, oracle, kahler_point, kahler_params, kahler_profile, fd_step, monkeypatch
    ):
        """Every finite-difference oracle differentiates one array-valued
        field once: its field calls cover the 2n chart coordinates of an
        n = 3 point exactly once, in order."""
        calls = []
        original = cotangent_kahler.fd.fd_partial

        def counted(*args, **kwargs):
            calls.append(np.atleast_1d(args[2]))
            return original(*args, **kwargs)

        jets = fiber_jets(kahler_point, kahler_params, kahler_profile)
        monkeypatch.setattr(cotangent_kahler.fd, "fd_partial", counted)
        oracle(kahler_params, kahler_profile, kahler_point, jets, fd_step)
        assert np.concatenate(calls).tolist() == list(range(6))


class TestFieldsBuildOnlyTheBlocks:
    @pytest.mark.parametrize("n", [2, 3])
    def test_metric_two_form_and_nijenhuis_oracles_run_without_fiber_jets(self, rng, fd_step, n, monkeypatch):
        """The fields of ``metric_gradient``, ``dform_residual`` and
        ``nijenhuis_numeric`` read only the metric blocks: with ``fiber_jets``
        raising in every module of the package, the three oracles still run
        on two centers and return the same arrays."""
        params = ModelParams.kahler(n=n, c=1.4, k_a=0.7, k_b=0.4)
        profile = einstein_profile(params)
        pt = CotangentPoint.at(rng.uniform(-1.5, 1.5, size=(2, n)), rng.normal(size=(2, n)), params)
        jets = fiber_jets(pt, params, profile)
        oracles = {
            "metric_gradient": lambda: metric_gradient(params, profile, pt, fd_step),
            "dform_residual": lambda: dform_residual(params, profile, pt, fd_step),
            "nijenhuis_numeric": lambda: nijenhuis_numeric(params, profile, pt, jets, fd_step),
        }
        expected = {name: oracle() for name, oracle in oracles.items()}

        def forbidden(*args, **kwargs):
            raise AssertionError("a field that reads only the metric blocks built the fiber jets")

        for name, module in list(sys.modules.items()):
            if name.startswith("cotangent_kahler") and getattr(module, "fiber_jets", None) is fiber_jets:
                monkeypatch.setattr(module, "fiber_jets", forbidden)
        for name, oracle in oracles.items():
            assert np.array_equal(oracle(), expected[name]), name
