"""The leading batch axis of the stencil path, of the generic base
reference, of the values the suites check and of the finite-difference
oracles: one call on stacked points equals one call per point, and every
guard fires when one row fails it."""

import dataclasses

import numpy as np
import numpy.testing as npt
import pytest

import cotangent_kahler.fd
from base_reference import (
    christoffel,
    christoffel_derivative,
    conformal_jet,
    constant_profile,
    geometry,
    space_form_jet,
)
from cotangent_kahler.base import ModelParams, space_form_metric
from cotangent_kahler.connection import (
    _fiber_derivative_blocks,
    center_connection,
    connection_coefficients,
    connection_on,
    kahler_connection_coefficients,
    koszul_nabla,
    metric_compatibility_residual,
    metric_gradient,
    parallel_j_residual,
    torsion_residual,
)
from cotangent_kahler.curvature import (
    curvature_blocks,
    curvature_fd,
    holomorphic_sectional_curvature,
    nabla_curvature_probe,
    pair_symmetry_residual,
    ricci_closed_form,
    ricci_from_blocks,
)
from cotangent_kahler.einstein import (
    einstein_difference,
    einstein_difference_closed_form,
    einstein_residual,
)
from cotangent_kahler.errors import GeometryError, PositivityError, ZeroSectionError
from cotangent_kahler.mtensor import (
    CotangentPoint,
    _check_positivity,
    _w_jet,
    assemble_metric,
    chart_frame,
    energy_density,
    fiber_jets,
    metric_blocks,
)
from cotangent_kahler.profiles import einstein_profile, rational_profile, zero_profile
from cotangent_kahler.structure import (
    assemble_complex_structure,
    complex_structure_squared_residual,
    coordinate_form,
    dform_residual,
    fundamental_form,
    hermitian_residual,
    nijenhuis_closed_form,
    nijenhuis_numeric,
)
from cotangent_kahler.suites import Sample
from stencils import stencil_at

BATCH = 8


def _setup(n, profile_name):
    if profile_name == "einstein":
        params = ModelParams.kahler(n=n, c=1.3, k_a=0.7, k_b=0.4)
        return params, einstein_profile(params)
    return ModelParams(n=n, c=1.3, a_metric=1.9), rational_profile()


def _points(n, seed=5):
    rng = np.random.default_rng([seed, n])
    q = rng.uniform(-1.5, 1.5, size=(BATCH, n))
    p = rng.normal(size=(BATCH, n))
    p *= rng.uniform(0.5, 2.0, size=(BATCH, 1)) / np.linalg.norm(p, axis=1, keepdims=True)
    return q, p


def _layers(q, p, params, profile):
    """Every stencil-path layer at ``(q, p)``, one point or a batch, and the
    generic reference route that the closed-form base is checked against."""
    c, a = params.c, params.a_metric
    f = 1.0 + 0.25 * c * np.einsum("...i,...i->...", q, q)
    base = space_form_metric(q, params)
    jet = space_form_jet(q, params)
    reference = geometry(jet)
    pt = CotangentPoint.at(q, p, params)
    jets = fiber_jets(pt, params, profile)
    metric = assemble_metric(jets)
    j_op = assemble_complex_structure(jets)
    phi = fundamental_form(metric, j_op)
    return {
        "space_form_metric": (base.g, base.g_inv, base.gamma, base.riemann),
        "conformal_jet": conformal_jet(q, f, 0.5 * c * q, 0.5 * c * np.eye(params.n)).ddg,
        "christoffel": christoffel(jet),
        "christoffel_derivative": christoffel_derivative(jet),
        "base_curvature": (reference.gamma, reference.riemann),
        "energy_density": energy_density(base.g_inv, p),
        "CotangentPoint.at": (pt.t, pt.p_up, pt.p_gamma, pt.p_riemann),
        "CotangentPoint.from_base": CotangentPoint.from_base(q, p, base).p_riemann,
        "_check_positivity": _check_positivity(pt, a, profile.v(pt.t)),
        "_w_jet": _w_jet(pt.t, a, *profile.jet(pt.t)),
        "metric_blocks": metric_blocks(pt, params, profile),
        "fiber_jets": (jets.gh, jets.gv, jets.dgh, jets.ddgh, jets.dgv, jets.ddgv),
        "assemble_metric": metric,
        "chart_frame": chart_frame(pt),
        "assemble_complex_structure": j_op,
        "fundamental_form": phi,
        "coordinate_form": coordinate_form(pt, phi),
        "connection_coefficients": connection_coefficients(pt, params, jets),
        "_fiber_derivative_blocks": _fiber_derivative_blocks(pt, params, jets),
        "curvature_blocks": curvature_blocks(pt, params, jets),
    }


LAYERS = (
    "space_form_metric",
    "conformal_jet",
    "christoffel",
    "christoffel_derivative",
    "base_curvature",
    "energy_density",
    "CotangentPoint.at",
    "CotangentPoint.from_base",
    "_check_positivity",
    "_w_jet",
    "metric_blocks",
    "fiber_jets",
    "assemble_metric",
    "chart_frame",
    "assemble_complex_structure",
    "fundamental_form",
    "coordinate_form",
    "connection_coefficients",
    "_fiber_derivative_blocks",
    "curvature_blocks",
)


class TestBatchMatchesPointwise:
    @pytest.mark.parametrize("profile_name", ["einstein", "rational"])
    @pytest.mark.parametrize("n", [2, 5])
    @pytest.mark.parametrize("layer", LAYERS)
    def test_one_call_on_stacked_points(self, layer, n, profile_name):
        """One call on 8 stacked points equals 8 single-point calls, to 1e-13
        relative to the largest entry: entries that cancel to rounding
        residue (the structurally zero curvature entries) are judged on that
        scale, as numpy's vectorised powers may differ from scalar ones in
        the last bit."""
        params, profile = _setup(n, profile_name)
        q, p = _points(n)
        batched = _layers(q, p, params, profile)[layer]
        single = [_layers(q[m], p[m], params, profile)[layer] for m in range(BATCH)]
        batched = batched if isinstance(batched, tuple) else (batched,)
        single = [s if isinstance(s, tuple) else (s,) for s in single]
        for index, array in enumerate(batched):
            expected = np.stack([np.asarray(s[index]) for s in single])
            assert np.shape(array) == expected.shape
            scale = np.max(np.abs(expected))
            npt.assert_allclose(
                array, expected, rtol=1e-13, atol=1e-13 * scale, err_msg=f"{layer}[{index}]"
            )


class TestRealPointsStayFloat64:
    @pytest.mark.parametrize("profile_name", ["einstein", "rational", "zero"])
    def test_every_layer_is_float64(self, profile_name):
        """The point pipeline works in the dtype of its input, so that the
        rows of a complex-step derivative pass through it; real points still
        give float64 arrays at every layer, so closed-form values keep their
        bits."""
        if profile_name == "zero":
            params, profile = ModelParams.kahler(n=3, c=1.3), zero_profile()
        else:
            params, profile = _setup(3, profile_name)
        q, p = _points(3)
        for layer, value in _layers(q, p, params, profile).items():
            for index, array in enumerate(value if isinstance(value, tuple) else (value,)):
                assert np.asarray(array).dtype == np.float64, f"{layer}[{index}]"


@pytest.mark.skipif(
    np.finfo(np.longdouble).eps == np.finfo(np.float64).eps, reason="np.longdouble is float64 here"
)
class TestLongdoublePointsKeepTheirPrecision:
    def test_koszul_inverse_keeps_longdouble(self):
        """The Koszul connection is metric compatible for any metric gradient
        symmetric in its last two slots, so its residual is rounding of the
        inverse metric alone.  ``G = diag(3 I, I / 3)`` has the exact inverse
        ``diag(I / 3, 3 I)``, and 1/3 in longdouble is not a float64: the
        residual stays at longdouble rounding only if the inverse does
        (4 eps here; 2704 eps with a float64 inverse)."""
        params, profile = _setup(3, "einstein")
        q, p = (x.astype(np.longdouble) for x in _points(3))
        pt = CotangentPoint.at(q, p, params)
        eye = np.broadcast_to(np.eye(3, dtype=np.longdouble), (BATCH, 3, 3))
        jets = dataclasses.replace(fiber_jets(pt, params, profile), gh=3 * eye, gv=eye / 3)
        grad = np.random.default_rng(11).normal(size=(BATCH, 6, 6, 6)).astype(np.longdouble)
        grad += np.swapaxes(grad, -2, -1)
        residual = metric_compatibility_residual(koszul_nabla(pt, jets, grad), jets, grad)
        assert np.max(residual) <= 16 * np.finfo(np.longdouble).eps * np.max(np.abs(grad))

    def test_metric_gradient_keeps_longdouble(self, monkeypatch):
        """On longdouble centers the complex-step rows are ``clongdouble`` and
        ``metric_gradient`` returns longdouble, which agrees with the float64
        gradient at the same points to float64 rounding; float64 centers
        keep ``complex128`` rows."""
        params, profile = _setup(3, "einstein")
        q, p = _points(3)
        original = cotangent_kahler.fd.fd_partial
        rows = []

        def recorded(f, x, d):
            def field(z):
                rows.append(z.dtype)
                return f(z)

            return original(field, x, d)

        monkeypatch.setattr(cotangent_kahler.fd, "fd_partial", recorded)
        long_q, long_p = q.astype(np.longdouble), p.astype(np.longdouble)
        wide = metric_gradient(params, profile, stencil_at(CotangentPoint.at(long_q, long_p, params), params))
        narrow = metric_gradient(params, profile, stencil_at(CotangentPoint.at(q, p, params), params))
        assert rows == [np.clongdouble, np.complex128]
        assert wide.dtype == np.longdouble and narrow.dtype == np.float64
        scale = np.max(np.abs(wide))
        npt.assert_allclose(narrow, wide.astype(np.float64), rtol=0, atol=16 * np.finfo(np.float64).eps * scale)

    def test_memoised_center_connection_and_kept_k_keep_longdouble(self):
        """On a sample of longdouble points the connection kept on the
        complex rows of ``stencil(1)`` is ``clongdouble``, the connection at
        its center is a longdouble view of the one kept on the sample's rows,
        and the ``K`` a pass keeps at the first row is longdouble and the same
        array on a second request; both agree with the float64 ones to
        float64 rounding."""
        params, profile = _setup(3, "einstein")
        q, p = _points(3)
        wide = Sample(q.astype(np.longdouble), p.astype(np.longdouble), params)
        narrow = Sample(q, p, params)
        assert connection_on(wide.stencil(1), params, profile).dtype == np.clongdouble
        assert center_connection(params, profile, wide.stencil(1)).base is connection_on(wide.rows, params, profile)
        assert wide.kept(params, profile) is wide.kept(params, profile)
        for center in (
            lambda sample: center_connection(params, profile, sample.stencil(1)),
            lambda sample: sample.kept(params, profile).center,
        ):
            value, expected = center(wide), center(narrow)
            assert value.dtype == np.longdouble
            scale = np.max(np.abs(expected))
            npt.assert_allclose(value.astype(np.float64), expected, rtol=0, atol=16 * np.finfo(np.float64).eps * scale)

    def test_nijenhuis_closed_form_is_longdouble(self):
        params, profile = _setup(3, "rational")
        q, p = (x.astype(np.longdouble) for x in _points(3))
        pt = CotangentPoint.at(q, p, params)
        assert nijenhuis_closed_form(pt, params, fiber_jets(pt, params, profile)).dtype == np.longdouble


def test_metric_gradient_steps_float32_points_in_complex128(monkeypatch):
    """float32 centers are promoted to ``complex128`` rows, not stepped in
    ``complex64``, where an imaginary part below float32's smallest normal
    would lose the derivative's digits; the float32 adapted frame of the
    centers still rounds the recombined gradient, so it agrees with the
    float64 one to float32 rounding."""
    params, profile = _setup(3, "einstein")
    q, p = _points(3)
    original = cotangent_kahler.fd.fd_partial
    rows = []

    def recorded(f, x, d):
        def field(z):
            rows.append(z.dtype)
            return f(z)

        return original(field, x, d)

    monkeypatch.setattr(cotangent_kahler.fd, "fd_partial", recorded)
    narrow_pt = CotangentPoint.at(q.astype(np.float32), p.astype(np.float32), params)
    narrow = metric_gradient(params, profile, stencil_at(narrow_pt, params))
    wide = metric_gradient(params, profile, stencil_at(CotangentPoint.at(q, p, params), params))
    assert rows == [np.complex128, np.complex128]
    assert narrow.dtype == np.float64
    scale = np.max(np.abs(wide))
    npt.assert_allclose(narrow, wide, rtol=0, atol=64 * np.finfo(np.float32).eps * scale)


def _suite_values(q, p, params, profile):
    """The closed-form quantities the suites check, one point or a batch.

    The closed forms need the integrable coupling, so they run at the Kahler
    member with the same base and profile; the sections are built from the
    point's own coordinates, so a batch and its single points see the same
    vectors."""
    kahler = ModelParams.kahler(params.n, params.c, params.k_a, params.k_b)
    pt = CotangentPoint.at(q, p, params)
    jets = fiber_jets(pt, params, profile)
    kahler_jets = fiber_jets(pt, kahler, profile)
    metric = assemble_metric(jets)
    j_op = assemble_complex_structure(jets)
    curv = curvature_blocks(pt, params, jets)
    kahler_ricci = ricci_from_blocks(curvature_blocks(pt, kahler, kahler_jets))
    x = np.concatenate([q, p], axis=-1)
    vectors = np.stack([x, np.roll(x, 1, axis=-1), x**2, np.cos(x)], axis=-2)[..., None, :, :]
    closed = ricci_closed_form(pt, kahler, profile)
    return {
        "complex_structure_squared_residual": complex_structure_squared_residual(j_op),
        "hermitian_residual": hermitian_residual(metric, j_op),
        "nijenhuis_closed_form": nijenhuis_closed_form(pt, params, jets),
        "kahler_connection_coefficients": kahler_connection_coefficients(pt, kahler, profile),
        "ricci_from_blocks": (kahler_ricci.hh, kahler_ricci.vv),
        "ricci_closed_form": (closed.hh, closed.vv),
        "pair_symmetry_residual": pair_symmetry_residual(curv, metric, vectors),
        "holomorphic_sectional_curvature": holomorphic_sectional_curvature(curv, metric, j_op, x),
        "einstein_difference": einstein_difference(pt, kahler, profile, kahler_jets, kahler_ricci),
        "einstein_difference_closed_form": einstein_difference_closed_form(pt, kahler, profile),
        "einstein_residual": einstein_residual(kahler, kahler_jets, kahler_ricci),
    }


class TestSuiteValuesOverTheBatch:
    @pytest.mark.parametrize("profile_name", ["einstein", "rational"])
    @pytest.mark.parametrize("n", [2, 5])
    @pytest.mark.parametrize("name", list(_suite_values(*_points(2), *_setup(2, "einstein"))))
    def test_one_call_on_stacked_points(self, name, n, profile_name):
        """One call on 8 stacked points gives the 8 single-point values, each
        a numpy value (one point is a batch of shape ``()``, never a Python
        float), to 1e-13 relative to the largest value or absolute,
        whichever is larger: residuals are rounding residue of terms of
        order one, so they are judged on that scale."""
        params, profile = _setup(n, profile_name)
        q, p = _points(n)
        batched = _suite_values(q, p, params, profile)[name]
        single = [_suite_values(q[m], p[m], params, profile)[name] for m in range(BATCH)]
        batched = batched if isinstance(batched, tuple) else (batched,)
        single = [s if isinstance(s, tuple) else (s,) for s in single]
        for index, array in enumerate(batched):
            assert all(isinstance(s[index], (np.ndarray, np.generic)) for s in single), f"{name}[{index}]"
            expected = np.stack([np.asarray(s[index]) for s in single])
            assert np.shape(array) == expected.shape
            scale = max(np.max(np.abs(expected)), 1.0)
            npt.assert_allclose(
                array, expected, rtol=1e-13, atol=1e-13 * scale, err_msg=f"{name}[{index}]"
            )


def _oracle_values(q, p, params, profile):
    """Every finite-difference oracle at the centers ``(q, p)``, one center or
    a batch."""
    pt = CotangentPoint.at(q, p, params)
    jets = fiber_jets(pt, params, profile)
    conn = connection_coefficients(pt, params, jets)
    stencil = stencil_at(pt, params)
    metric_grad = metric_gradient(params, profile, stencil)
    curv = curvature_blocks(pt, params, jets)
    return {
        "dform_residual": dform_residual(params, profile, stencil),
        "nijenhuis_numeric": nijenhuis_numeric(params, profile, stencil),
        "koszul_nabla": (metric_grad, koszul_nabla(pt, jets, metric_grad)),
        "torsion_residual": torsion_residual(pt, conn),
        "metric_compatibility_residual": metric_compatibility_residual(conn, jets, metric_grad),
        "parallel_j_residual": parallel_j_residual(conn, jets, metric_grad),
        "curvature_fd": curvature_fd(params, profile, stencil),
        "nabla_curvature_probe": nabla_curvature_probe(params, profile, stencil, curv),
    }


class TestOraclesOverTheBatch:
    @pytest.mark.parametrize("profile_name", ["einstein", "rational"])
    @pytest.mark.parametrize("n", [2, 5])
    def test_stacked_centers_match_single_centers(self, n, profile_name):
        """Every oracle on 2 stacked centers gives the 2 single-center values,
        each a numpy value (one center is a batch of shape ``()``), to 1e-13
        relative to the largest value or absolute, whichever is larger."""
        params, profile = _setup(n, profile_name)
        q, p = (x[:2] for x in _points(n))
        batched = _oracle_values(q, p, params, profile)
        single = [_oracle_values(q[m], p[m], params, profile) for m in range(2)]
        for name, value in batched.items():
            value = value if isinstance(value, tuple) else (value,)
            rows = [s[name] if isinstance(s[name], tuple) else (s[name],) for s in single]
            for index, array in enumerate(value):
                assert all(isinstance(r[index], (np.ndarray, np.generic)) for r in rows), f"{name}[{index}]"
                expected = np.stack([np.asarray(r[index]) for r in rows])
                assert np.shape(array) == expected.shape, f"{name}[{index}]"
                scale = max(np.max(np.abs(expected)), 1.0)
                npt.assert_allclose(
                    array, expected, rtol=1e-13, atol=1e-13 * scale, err_msg=f"{name}[{index}]"
                )


class TestGuardsOverTheBatch:
    def test_zero_section_in_one_row(self):
        params, _ = _setup(3, "einstein")
        q, p = _points(3)
        p[5] = 0.0
        with pytest.raises(ZeroSectionError, match="energy density 0.000e"):
            CotangentPoint.at(q, p, params)

    def test_positivity_in_one_row(self):
        """With ``v = -1/2`` and ``a = 1`` the bound holds for ``t < 1`` only."""
        params = ModelParams(n=3, c=1.0, a_metric=1.0)
        q, p = _points(3)
        pt0 = CotangentPoint.at(q, p, params)
        scale = np.full(BATCH, 0.25)
        scale[3] = 4.0
        pt = CotangentPoint.at(q, p * np.sqrt(scale / pt0.t)[:, None], params)
        with pytest.raises(PositivityError, match=r"at t = 4$"):
            fiber_jets(pt, params, constant_profile(-0.5))

    def test_non_finite_chart_point_in_one_row(self):
        params, _ = _setup(3, "einstein")
        q, p = _points(3)
        q[6, 1] = np.nan
        with pytest.raises(GeometryError, match="chart point must be finite"):
            CotangentPoint.at(q, p, params)

    def test_null_section_in_one_row(self):
        params, profile = _setup(3, "einstein")
        q, p = _points(3)
        pt = CotangentPoint.at(q, p, params)
        jets = fiber_jets(pt, params, profile)
        x = np.ones((BATCH, 6))
        x[4] = 0.0
        with pytest.raises(GeometryError, match="nonnull vector"):
            holomorphic_sectional_curvature(
                curvature_blocks(pt, params, jets), assemble_metric(jets), assemble_complex_structure(jets), x
            )
