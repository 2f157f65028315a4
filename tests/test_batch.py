"""The leading batch axis of the stencil path: one call on stacked points
equals one call per point, and every guard fires when one row fails it."""

import numpy as np
import numpy.testing as npt
import pytest

from cotangent_kahler import (
    CotangentPoint,
    GeometryError,
    MetricJet,
    ModelParams,
    PositivityError,
    SingularMetricError,
    ZeroSectionError,
    assemble_complex_structure,
    assemble_metric,
    base_curvature,
    chart_frame,
    christoffel,
    christoffel_derivative,
    conformal_jet,
    connection_coefficients,
    connection_fiber_derivatives,
    constant_profile,
    coordinate_form,
    curvature_blocks,
    einstein_profile,
    energy_density,
    fiber_jets,
    fundamental_form,
    rational_profile,
    space_form_metric,
)
from cotangent_kahler.mtensor import _check_positivity, _w_jet

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
    """Every stencil-path layer at ``(q, p)``, one point or a batch."""
    c, a = params.c, params.a_metric
    f = 1.0 + 0.25 * c * np.einsum("...i,...i->...", q, q)
    jet = space_form_metric(q, params)
    curv = base_curvature(jet)
    pt = CotangentPoint.at(q, p, params)
    jets = fiber_jets(pt, params, profile)
    metric = assemble_metric(jets)
    j_op = assemble_complex_structure(jets)
    phi = fundamental_form(metric, j_op)
    return {
        "space_form_metric": (jet.g, jet.g_inv, jet.dg, jet.ddg),
        "conformal_jet": conformal_jet(q, f, 0.5 * c * q, 0.5 * c * np.eye(params.n)).ddg,
        "christoffel": christoffel(jet),
        "christoffel_derivative": christoffel_derivative(jet),
        "base_curvature": (curv.gamma, curv.riemann),
        "energy_density": energy_density(jet.g_inv, p),
        "CotangentPoint.at": (pt.t, pt.p_up, pt.p_gamma, pt.p_riemann),
        "CotangentPoint.from_jet": CotangentPoint.from_jet(q, p, jet).p_riemann,
        "_check_positivity": _check_positivity(pt, a, np.asarray(profile.v(pt.t))),
        "_w_jet": _w_jet(pt.t, a, *(np.asarray(x) for x in profile.jet(pt.t))),
        "fiber_jets": (jets.gh, jets.gv, jets.dgh, jets.ddgh, jets.dgv, jets.ddgv),
        "assemble_metric": metric,
        "chart_frame": chart_frame(pt),
        "assemble_complex_structure": j_op,
        "fundamental_form": phi,
        "coordinate_form": coordinate_form(pt, phi),
        "connection_coefficients": connection_coefficients(pt, params, jets),
        "connection_fiber_derivatives": connection_fiber_derivatives(pt, params, jets),
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
    "CotangentPoint.from_jet",
    "_check_positivity",
    "_w_jet",
    "fiber_jets",
    "assemble_metric",
    "chart_frame",
    "assemble_complex_structure",
    "fundamental_form",
    "coordinate_form",
    "connection_coefficients",
    "connection_fiber_derivatives",
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

    def test_cond_limit_in_one_row(self):
        g = np.broadcast_to(np.eye(2), (BATCH, 2, 2)).copy()
        g[2] = np.diag([1.0, 1e-15])
        jet = MetricJet(
            g=g,
            g_inv=np.linalg.inv(g),
            dg=np.zeros((BATCH, 2, 2, 2)),
            ddg=np.zeros((BATCH, 2, 2, 2, 2)),
        )
        with pytest.raises(SingularMetricError, match="condition number 1.000e\\+15"):
            christoffel(jet)

    def test_non_finite_chart_point_in_one_row(self):
        params, _ = _setup(3, "einstein")
        q, p = _points(3)
        q[6, 1] = np.nan
        with pytest.raises(GeometryError, match="chart point must be finite"):
            CotangentPoint.at(q, p, params)
