"""Complex-step derivative engine: exactness, guards, batching, frame
calculus, and agreement with the real reference stencil of ``fd_reference``
on every oracle field."""

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cotangent_kahler.fd
import cotangent_kahler.mtensor
import fd_reference
from cotangent_kahler.base import ModelParams
from cotangent_kahler.connection import metric_gradient
from cotangent_kahler.curvature import curvature_fd, nabla_curvature, nabla_curvature_probe
from cotangent_kahler.errors import StencilError
from cotangent_kahler.fd import fd_gradient, fd_partial
from cotangent_kahler.mtensor import CotangentPoint, chart_frame
from cotangent_kahler.profiles import einstein_profile
from cotangent_kahler.structure import dform_residual, nijenhuis_numeric
from stencils import frame_gradient, stencil_at

# ---------------------------------------------------------------------------
# Exactness
# ---------------------------------------------------------------------------


class TestExactness:
    @given(x=st.floats(-300, 300), y=st.floats(-300, 300))
    @settings(max_examples=50, deadline=None)
    def test_exact_on_exp_at_any_center(self, x, y):
        """Both partials of ``exp(x + y/2)`` to a relative 1e-14 at any
        center: there is no step to tune and no subtraction to cancel."""

        def f(z):
            return np.exp(z[:, 0] + 0.5 * z[:, 1])

        exact = np.exp(x + 0.5 * y) * np.array([1.0, 0.5])
        grad = fd_gradient(f, np.array([x, y]))
        assert np.all(np.abs(grad - exact) <= 1e-14 * exact)

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
        assert abs(fd_partial(f, np.array([x]), 0) - expected) < 1e-8

    def test_float32_centers_step_in_complex128(self):
        """float32 centers get ``complex128`` rows, as float64 ones do: the
        imaginary part ``1e-30 * 1e-12`` is subnormal in ``complex64`` and
        would lose the derivative's digits there."""
        rows = []

        def f(z):
            rows.append(z.dtype)
            return 1e-12 * z[:, 0] ** 2

        x = np.array([0.5, 0.25], dtype=np.float32)
        assert fd_partial(f, x, 0) == fd_partial(f, x.astype(np.float64), 0) == 1e-12
        assert rows == [np.complex128, np.complex128]


class TestGuards:
    def test_non_finite_raises_stencil_error(self):
        def f(z):
            # undefined to the left of the origin
            return np.where(z[:, 0].real > 0, np.sqrt(z[:, 0]), np.nan)

        with pytest.raises(StencilError):
            fd_partial(f, np.array([-0.3]), 0)

    def test_stencil_error_names_the_coordinate_and_center(self):
        """Only the row along coordinate 1 at the second center is
        non-finite; the error names that coordinate and center."""

        def f(z):
            bad = (z[:, 1].imag != 0) & (z[:, 0].real == 0.4)
            return np.where(bad, np.nan, z[:, 0] * z[:, 1])

        with pytest.raises(StencilError, match=r"at coordinate 1, center \[0\.4, 0\.5\]$"):
            fd_gradient(f, np.array([[0.1, 0.2], [0.4, 0.5]]))

    def test_stencil_error_names_the_last_coordinate_of_a_stacked_call(self):
        """All three coordinates go to the field in one call; only the row
        along the last one is non-finite, and the error names it."""
        calls = []

        def f(z):
            calls.append(len(z))
            return np.where(z[:, 2].imag != 0, np.nan, z[:, 0] * z[:, 2])

        with pytest.raises(StencilError, match=r"at coordinate 2, center \[0\.1, 0\.2, 0\.3\]$"):
            fd_gradient(f, np.array([0.1, 0.2, 0.3]))
        assert calls == [3]

    def test_complex_centers_are_refused(self, sample_qp, kahler_params):
        """A complex center would lose its imaginary part to the step, so
        both entry points refuse it, and so does a frame gradient nested in
        the field of another."""

        def f(z):
            return z[:, 0] ** 2

        center = np.array([0.3 + 1e-3j])
        with pytest.raises(TypeError, match="real centers"):
            fd_partial(f, center, 0)
        with pytest.raises(TypeError, match="real centers"):
            fd_gradient(f, center)

        def nested(qq, pp):
            return frame_gradient(lambda q2, p2: q2[:, :1] * p2[:, :1], CotangentPoint.at(qq, pp, kahler_params))

        q, p = sample_qp
        with pytest.raises(TypeError, match="real centers"):
            frame_gradient(nested, CotangentPoint.at(q, p, kahler_params))


class TestBatchedStencil:
    def test_one_field_call_per_partial(self):
        """A partial is one call on one row: the center with an imaginary
        step along the coordinate."""
        calls = []

        def f(z):
            calls.append(z.copy())
            return np.sin(z[:, 0]) * z[:, 1]

        x0 = np.array([0.2, 0.7])
        fd_partial(f, x0, 1)
        assert len(calls) == 1
        (points,) = calls
        assert points.shape == (1, 2)
        npt.assert_array_equal(points.real, [x0])
        npt.assert_array_equal(points.imag, [[0.0, 1e-30]])

    def test_stacked_centers_match_single_centers(self, rng):
        """Centers of shape (2, 3) give their axes first, then the coordinate,
        then the field's; each equals its own single-center gradient."""

        def f(z):
            return np.stack([np.sin(z[:, 0] * z[:, 1]), z[:, 2] ** 3 * z[:, 0]], axis=-1)

        centers = rng.uniform(-2, 2, size=(2, 3))
        grad = fd_gradient(f, centers)
        assert grad.shape == (2, 3, 2)
        for m in range(2):
            npt.assert_array_equal(grad[m], fd_gradient(f, centers[m]))

    @pytest.mark.parametrize("center_shape", [(3,), (2, 3)], ids=["one", "two"])
    def test_gradient_is_the_stack_of_single_coordinate_partials(self, rng, center_shape):
        """Coordinates stacked into one call give, bit for bit, the partials
        of one call per coordinate."""

        def f(z):
            return np.stack([np.sin(z[:, 0] * z[:, 1]), z[:, 2] ** 3 * np.exp(z[:, 0])], axis=-1)

        centers = rng.uniform(-2, 2, size=center_shape)
        single = np.stack([fd_partial(f, centers, d) for d in range(3)], axis=len(center_shape) - 1)
        assert np.array_equal(fd_gradient(f, centers), single)

    @pytest.mark.parametrize(
        "n, centers",
        [(2, 2), (3, 1), (3, 2), (5, 1), (5, 2)],
        ids=["n2-two", "n3-one", "n3-two", "n5-one", "n5-two"],
    )
    def test_frame_gradient_calls_the_field_once(self, rng, n, centers):
        """A frame gradient is one field call on the 2n rows of every center,
        whatever the field's size."""
        params = ModelParams.kahler(n=n, c=1.4, k_a=0.7, k_b=0.4)
        qs = rng.uniform(-1.5, 1.5, size=(centers, n))
        ps = rng.normal(size=(centers, n))
        pt = CotangentPoint.at(qs, ps, params)
        shapes = []

        def field(qq, pp):
            shapes.append(qq.shape + pp.shape)
            return np.stack([qq[:, 0] * pp[:, 1], np.cos(pp[:, -1])], axis=-1)

        assert frame_gradient(field, pt).shape == (centers, 2 * n, 2)
        m = 2 * n * centers
        assert shapes == [(m, n, m, n)]

    def test_a_curvature_sized_field_takes_all_rows_in_one_call(self, rng):
        """A field with (2n)^4 values per row, the size of ``K``, at n = 5
        takes the ten rows of its center in one call: a stencil is sized by
        its centers, not by the byte budget of ``suites._chunk_rows``."""
        n = 5
        params = ModelParams.kahler(n=n, c=1.4, k_a=0.7, k_b=0.4)
        pt = CotangentPoint.at(rng.uniform(-1.5, 1.5, size=(1, n)), rng.normal(size=(1, n)), params)
        scale = np.arange((2 * n) ** 4, dtype=float).reshape((2 * n,) * 4)
        rows = []

        def field(qq, pp):
            rows.append(len(qq))
            return np.multiply.outer(qq[:, 0] * pp[:, 1], scale)

        assert frame_gradient(field, pt).shape == (1, 2 * n) + (2 * n,) * 4
        assert rows == [10]

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_nabla_curvature_field_calls(self, rng, n, monkeypatch):
        """The field of ``nabla_curvature`` returns the six stored blocks of
        ``K``, 6 n^4 values per row.  At one center it is one call on the 2n
        complex rows, at n = 5 too, where the coordinates used to go
        ``[1, 4, 4, 1]`` to a call under the byte budget; the point and the
        fiber jets are built once, on those same 2n rows."""
        params = ModelParams.kahler(n=n, c=1.4, k_a=0.7, k_b=0.4)
        pt = CotangentPoint.at(rng.uniform(-1.5, 1.5, size=(1, n)), rng.normal(size=(1, n)), params)
        profile = einstein_profile(params)
        stencil = stencil_at(pt, params)
        stencil.center_jets(params, profile)
        original = cotangent_kahler.fd.fd_partial
        calls, builds = [], []

        def counted(f, x, d):
            def counting_field(z):
                calls.append(len(z))
                return f(z)

            return original(counting_field, x, d)

        original_at = vars(CotangentPoint)["at"].__func__
        original_jets = cotangent_kahler.mtensor._jets_on

        def at(cls, q, p, model):
            builds.append(("point", len(q)))
            return original_at(cls, q, p, model)

        def counted_jets(point, model, prof, blocks):
            builds.append(("jets", len(point.q)))
            return original_jets(point, model, prof, blocks)

        monkeypatch.setattr(cotangent_kahler.fd, "fd_partial", counted)
        monkeypatch.setattr(CotangentPoint, "at", classmethod(at))
        monkeypatch.setattr(cotangent_kahler.mtensor, "_jets_on", counted_jets)
        assert nabla_curvature(params, profile, stencil).shape == (1,) + (2 * n,) * 5
        assert calls == [2 * n]
        assert builds == [("point", 2 * n), ("jets", 2 * n)]


# ---------------------------------------------------------------------------
# Frame derivatives on the bundle
# ---------------------------------------------------------------------------


class TestFrameCalculus:
    def test_gradient_matches_componentwise_partials(self, rng):
        def f(z):
            return np.stack([np.sin(z[:, 0] * z[:, 1]), z[:, 2] ** 2], axis=-1)

        x0 = rng.uniform(-1, 1, size=3)
        grad = fd_gradient(f, x0)
        for d in range(3):
            npt.assert_allclose(grad[d], fd_partial(f, x0, d), atol=0)

    def test_energy_density_is_horizontally_constant(self, sample_qp, kahler_params):
        """delta t / delta q = 0: the energy only varies along the fiber."""
        q, p = sample_qp
        pt = CotangentPoint.at(q, p, kahler_params)

        def energy(qq, pp):
            return CotangentPoint.at(qq, pp, kahler_params).t[:, None]

        grad = frame_gradient(energy, pt)
        npt.assert_allclose(grad[:3], 0.0, atol=1e-9, err_msg="horizontal energy derivative")

    def test_energy_fiber_derivative_is_raised_momentum(self, sample_qp, kahler_params):
        """dt/dp_i = g^{ik} p_k."""
        q, p = sample_qp
        pt = CotangentPoint.at(q, p, kahler_params)

        def energy(qq, pp):
            return CotangentPoint.at(qq, pp, kahler_params).t[:, None]

        grad = frame_gradient(energy, pt)
        npt.assert_allclose(grad[3:, 0], pt.p_up, atol=1e-9)

    def test_frame_gradient_consistent_with_frame_derivative(
        self, sample_qp, kahler_params
    ):
        """Row a of the frame gradient is the derivative along the chart
        vector of e_a, a column of the chart frame."""
        q, p = sample_qp
        pt = CotangentPoint.at(q, p, kahler_params)
        frame = chart_frame(pt)

        def field(qq, pp):
            return np.stack([qq[:, 0] * pp[:, 1], np.cos(pp[:, 2]) + qq[:, 2] ** 2], axis=-1)

        grad = frame_gradient(field, pt)
        z0 = np.concatenate([q, p])
        for a in range(6):

            def along(s):
                z = z0 + s[:, :1] * frame[:, a]
                return field(z[:, :3], z[:, 3:])

            npt.assert_allclose(grad[a], fd_partial(along, np.zeros(1), 0), atol=1e-10)

    def test_horizontal_commutator_is_curvature_bracket(
        self, sample_qp, kahler_params
    ):
        """[delta_i, delta_j] f = (p . R)_{kij} df/dp_k on scalars; the outer
        derivative comes from the real reference stencil, as complex steps
        do not nest."""
        q, p = sample_qp
        pt = CotangentPoint.at(q, p, kahler_params)
        i, j = 0, 1

        def scalar(qq, pp):
            value = np.sin(qq[:, 0] + 2 * pp[:, 1]) + qq[:, 1] * pp[:, 0] ** 2 + pp[:, 2] * qq[:, 2] ** 2
            return value[:, None]

        def pair_of_derivs(qq, pp):
            return frame_gradient(scalar, CotangentPoint.at(qq, pp, kahler_params))[:, [i, j], 0]

        outer = fd_reference.frame_gradient(pair_of_derivs, pt)
        commutator = outer[i][1] - outer[j][0]
        fiber_grad = frame_gradient(scalar, pt)[3:, 0]
        expected = pt.p_riemann[:, i, j] @ fiber_grad
        npt.assert_allclose(commutator, expected, atol=1e-6)


# ---------------------------------------------------------------------------
# One frame gradient per oracle
# ---------------------------------------------------------------------------


class TestOneGradientPerOracle:
    @pytest.mark.parametrize(
        "oracle",
        [metric_gradient, curvature_fd, nabla_curvature_probe, nijenhuis_numeric],
        ids=["metric_gradient", "curvature_fd", "nabla_curvature_probe", "_nijenhuis"],
    )
    def test_each_oracle_takes_one_gradient(
        self, oracle, kahler_point, kahler_params, kahler_profile, monkeypatch
    ):
        """Every finite-difference oracle differentiates one array-valued
        field once: its field calls cover the 2n chart coordinates of an
        n = 3 point exactly once, in order."""
        calls = []
        original = cotangent_kahler.fd.fd_partial

        def counted(*args, **kwargs):
            calls.append(np.atleast_1d(args[2]))
            return original(*args, **kwargs)

        monkeypatch.setattr(cotangent_kahler.fd, "fd_partial", counted)
        oracle(kahler_params, kahler_profile, stencil_at(kahler_point, kahler_params))
        assert np.concatenate(calls).tolist() == list(range(6))


class TestFieldsBuildOnlyTheBlocks:
    @pytest.mark.parametrize("n", [2, 3])
    def test_metric_two_form_and_nijenhuis_oracles_run_without_fiber_jets(self, rng, n, monkeypatch):
        """The fields of ``metric_gradient``, ``dform_residual`` and
        ``nijenhuis_numeric`` read only the metric blocks: with every fiber-jets
        build (``mtensor._jets_on``, which ``fiber_jets`` and ``Rows.jets_of``
        call) raising on complex rows, the three oracles still run on two
        centers and return the same arrays.  The Nijenhuis oracle reads its
        centers' jets from the real base rows, which may still build them."""
        params = ModelParams.kahler(n=n, c=1.4, k_a=0.7, k_b=0.4)
        profile = einstein_profile(params)
        pt = CotangentPoint.at(rng.uniform(-1.5, 1.5, size=(2, n)), rng.normal(size=(2, n)), params)
        oracles = {
            "metric_gradient": lambda: metric_gradient(params, profile, stencil_at(pt, params)),
            "dform_residual": lambda: dform_residual(params, profile, stencil_at(pt, params)),
            "nijenhuis_numeric": lambda: nijenhuis_numeric(params, profile, stencil_at(pt, params)),
        }
        expected = {name: oracle() for name, oracle in oracles.items()}

        original_jets = cotangent_kahler.mtensor._jets_on

        def forbidden(point, *args):
            if np.iscomplexobj(point.q):
                raise AssertionError("a field that reads only the metric blocks built the fiber jets")
            return original_jets(point, *args)

        monkeypatch.setattr(cotangent_kahler.mtensor, "_jets_on", forbidden)
        for name, oracle in oracles.items():
            assert np.array_equal(oracle(), expected[name]), name


def _assert_every_oracle_field_matches_the_reference_stencil(rng, n, dtype, monkeypatch):
    """Run the five oracles at two centers in ``dtype`` and compare each
    ``fd_partial`` call with the real stencil of ``fd_reference``."""
    params = ModelParams(n=n, c=1.4, a_metric=1.1 * np.sqrt(2.8), k_a=0.7, k_b=0.4)
    profile = einstein_profile(params)
    q, p = rng.uniform(-1.5, 1.5, size=(2, n)), rng.normal(size=(2, n))
    pt = CotangentPoint.at(q.astype(dtype), p.astype(dtype), params)
    original = cotangent_kahler.fd.fd_partial
    calls = []

    def recorded(f, x, d):
        out = original(f, x, d)
        calls.append((f, x, d, out))
        return out

    monkeypatch.setattr(cotangent_kahler.fd, "fd_partial", recorded)
    oracles = {
        "metric": lambda: metric_gradient(params, profile, stencil_at(pt, params)),
        "2-form": lambda: dform_residual(params, profile, stencil_at(pt, params)),
        "nijenhuis": lambda: nijenhuis_numeric(params, profile, stencil_at(pt, params)),
        "connection": lambda: curvature_fd(params, profile, stencil_at(pt, params)),
        "K": lambda: nabla_curvature(params, profile, stencil_at(pt, params)),
    }
    for name, oracle in oracles.items():
        calls.clear()
        oracle()
        assert calls, name
        for f, x, coords, out in calls:
            assert out.dtype == dtype, name
            expected = np.stack([fd_reference.fd_partial(f, x, d) for d in coords], axis=x.ndim - 1)
            scale = max(np.max(np.abs(expected)), np.max(np.abs(f(x.reshape(-1, x.shape[-1])))))
            npt.assert_allclose(out, expected, rtol=0, atol=1e-8 * scale, err_msg=name)


class TestEnginesAgree:
    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_every_oracle_field_matches_the_reference_stencil(self, rng, n, monkeypatch):
        """Every field an oracle differentiates -- the metric, the 2-form, the
        Nijenhuis frame fields, the connection and ``K`` -- gets the same
        partials from the complex engine as from the real stencil of
        ``fd_reference``, relative to the largest field value or partial of
        the call (the 2-form's chart components are constant).  A
        conjugating or non-analytic operation (``abs``, ``vecdot``,
        ``.real``) on a field's path would give a wrong imaginary part, and
        fail here."""
        _assert_every_oracle_field_matches_the_reference_stencil(rng, n, np.float64, monkeypatch)

    @pytest.mark.skipif(
        np.finfo(np.longdouble).eps == np.finfo(np.float64).eps, reason="np.longdouble is float64 here"
    )
    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_every_oracle_field_is_analytic_in_clongdouble(self, rng, n, monkeypatch):
        """The same comparison on ``np.longdouble`` centers, whose rows are
        ``np.clongdouble``: every oracle field keeps its imaginary part in
        that dtype too, and its partials stay ``np.longdouble``."""
        _assert_every_oracle_field_matches_the_reference_stencil(rng, n, np.longdouble, monkeypatch)
