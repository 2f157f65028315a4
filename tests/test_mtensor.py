"""Bundle pointwise data: energy density, metric blocks, fiber jets, brackets."""

from dataclasses import replace

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fd_reference
from base_reference import bumped_geometry, constant_profile
from cotangent_kahler.base import ModelParams
from cotangent_kahler.errors import GeometryError, PositivityError, ZeroSectionError
from cotangent_kahler.fd import fd_partial
from cotangent_kahler.mtensor import (
    CotangentPoint,
    Rows,
    energy_density,
    fiber_jets,
    frame_brackets,
    metric_blocks,
)
from cotangent_kahler.profiles import einstein_profile, rational_profile
from cotangent_kahler.structure import assemble_complex_structure
from stencils import frame_gradient

# ---------------------------------------------------------------------------
# Energy density and point data
# ---------------------------------------------------------------------------


class TestEnergyDensity:
    def test_matches_definition(self, kahler_point):
        expected = 0.5 * kahler_point.p @ kahler_point.g_inv @ kahler_point.p
        assert kahler_point.t == pytest.approx(expected)

    def test_zero_section_rejected(self):
        with pytest.raises(ZeroSectionError):
            energy_density(np.eye(3), np.full(3, 1e-9))

    def test_non_finite_rejected(self):
        with pytest.raises(GeometryError):
            energy_density(np.eye(2), np.array([np.inf, 0.0]))

    def test_fiber_gradient_is_raised_momentum(self, sample_qp, kahler_params):
        """dt/dp_k = g^{kl} p_l."""
        q, p = sample_qp
        pt = CotangentPoint.at(q, p, kahler_params)

        def t_of_p(pp):
            return energy_density(pt.g_inv, pp)

        for k in range(3):
            npt.assert_allclose(fd_partial(t_of_p, p, k), pt.p_up[k], atol=1e-9)

    def test_momentum_shape_checked(self, kahler_params):
        with pytest.raises(GeometryError):
            CotangentPoint.at(np.zeros(3), np.array([1.0, 0.0]), kahler_params)


# ---------------------------------------------------------------------------
# Metric blocks
# ---------------------------------------------------------------------------


class TestMetricBlocks:
    def test_vertical_block_inverts_horizontal(self, kahler_point, kahler_params, kahler_profile):
        jets = fiber_jets(kahler_point, kahler_params, kahler_profile)
        npt.assert_allclose(jets.gh @ jets.gv, np.eye(3), atol=1e-13)

    def test_momentum_is_radial_eigenvector(self, generic_point, generic_params, generic_profile):
        """gh p^ = (a sqrt(t) + 2 t v) p: the radial direction diagonalizes."""
        pt = generic_point
        gh = fiber_jets(pt, generic_params, generic_profile).gh
        v = generic_profile.v(pt.t)
        radial = generic_params.a_metric * np.sqrt(pt.t) + 2.0 * pt.t * v
        npt.assert_allclose(gh @ pt.p_up, radial * pt.p, atol=1e-12)

    def test_positivity_bound_enforced(self):
        params = ModelParams(n=2, c=1.0, a_metric=1.0)
        profile = constant_profile(-0.8)
        pt = CotangentPoint.at(np.zeros(2), np.array([1.0, 0.0], dtype=float), params)
        assert pt.t == pytest.approx(0.5)
        # a sqrt(t) + 2 t v = 1/sqrt(2) - 0.8 < 0
        with pytest.raises(PositivityError):
            fiber_jets(pt, params, profile)

    def test_marginally_admissible_profile_accepted(self):
        params = ModelParams(n=2, c=1.0, a_metric=1.0)
        profile = constant_profile(-0.6)
        pt = CotangentPoint.at(np.zeros(2), np.array([1.0, 0.0], dtype=float), params)
        gh = fiber_jets(pt, params, profile).gh
        assert np.all(np.linalg.eigvalsh(gh) > 0)

    @given(
        k_a=st.floats(0.0, 3.0),
        k_b=st.floats(0.0, 3.0),
        t_target=st.floats(0.3, 3.0),
    )
    @settings(max_examples=30, deadline=None)
    def test_einstein_family_is_positive_definite(self, k_a, k_b, t_target):
        """Every k_a, k_b >= 0 member yields a positive horizontal block."""
        params = ModelParams.kahler(n=3, c=1.0, k_a=k_a, k_b=k_b)
        profile = einstein_profile(params)
        p = np.array([1.0, 0.5, -0.25])
        pt0 = CotangentPoint.at(np.zeros(3), p, params)
        pt = CotangentPoint.at(np.zeros(3), p * np.sqrt(t_target / pt0.t), params)
        gh = fiber_jets(pt, params, profile).gh
        assert np.all(np.linalg.eigvalsh(gh) > 0)

    @pytest.mark.parametrize("base_name", ["space_form", "bumped"])
    @pytest.mark.parametrize("profile_name", ["einstein", "rational"])
    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_blocks_are_the_fiber_jets_blocks_bit_for_bit(self, n, profile_name, base_name):
        """``metric_blocks`` is the one formula of ``gh`` and ``gv``: on an
        8-row batch, on the space form and off it, it equals the blocks of
        ``fiber_jets`` exactly."""
        rng = np.random.default_rng([n, len(profile_name), len(base_name)])
        q = rng.uniform(-1.0, 1.0, size=(8, n))
        p = rng.normal(size=(8, n))
        if base_name == "space_form":
            params = ModelParams.kahler(n, 1.4, k_a=0.7, k_b=0.4)
            pt = CotangentPoint.at(q, p, params)
        else:
            params = ModelParams(n=n, c=1.4, a_metric=1.3, k_a=0.7, k_b=0.4)
            pt = CotangentPoint.from_base(q, p, bumped_geometry(q, 1.4, 0.05))
        profile = einstein_profile(params) if profile_name == "einstein" else rational_profile()
        blocks = metric_blocks(pt, params, profile)
        jets = fiber_jets(pt, params, profile)
        assert np.array_equal(blocks.gh, jets.gh)
        assert np.array_equal(blocks.gv, jets.gv)

    def test_non_admissible_profile_raises_the_same_error_from_both(self):
        params = ModelParams(n=2, c=1.0, a_metric=1.0)
        pt = CotangentPoint.at(np.zeros((2, 2)), np.array([[0.5, 0.0], [1.0, 0.0]]), params)
        errors = []
        for build in (metric_blocks, fiber_jets):
            with pytest.raises(PositivityError) as raised:
                build(pt, params, constant_profile(-0.8))
            errors.append(str(raised.value))
        assert errors[0] == errors[1]
        assert errors[0].endswith("at t = 0.5")


# ---------------------------------------------------------------------------
# Fiber jets of the metric blocks
# ---------------------------------------------------------------------------


class TestFiberJets:
    @pytest.fixture(params=["kahler", "generic"])
    def setup(self, request, kahler_params, kahler_profile, generic_params, generic_profile, sample_qp):
        if request.param == "kahler":
            params, profile = kahler_params, kahler_profile
        else:
            params, profile = generic_params, generic_profile
        q, p = sample_qp
        return params, profile, CotangentPoint.at(q, p, params)

    def test_first_fiber_derivatives_match_fd(self, setup):
        params, profile, pt = setup
        jets = fiber_jets(pt, params, profile)

        def gh_field(pp):
            ptz = CotangentPoint.at(np.broadcast_to(pt.q, pp.shape), pp, params)
            return fiber_jets(ptz, params, profile).gh

        def gv_field(pp):
            ptz = CotangentPoint.at(np.broadcast_to(pt.q, pp.shape), pp, params)
            return fiber_jets(ptz, params, profile).gv

        for k in range(3):
            npt.assert_allclose(
                jets.dgh[k],
                fd_partial(gh_field, pt.p, k),
                atol=1e-7,
                err_msg="d gh / dp vs finite differences",
            )
            npt.assert_allclose(
                jets.dgv[k],
                fd_partial(gv_field, pt.p, k),
                atol=1e-7,
                err_msg="d gv / dp vs finite differences",
            )

    def test_second_fiber_derivatives_match_fd(self, setup):
        params, profile, pt = setup

        def dgh_field(pp):
            ptz = CotangentPoint.at(np.broadcast_to(pt.q, pp.shape), pp, params)
            return fiber_jets(ptz, params, profile).dgh.reshape(len(pp), -1)

        def dgv_field(pp):
            ptz = CotangentPoint.at(np.broadcast_to(pt.q, pp.shape), pp, params)
            return fiber_jets(ptz, params, profile).dgv.reshape(len(pp), -1)

        jets = fiber_jets(pt, params, profile)
        for l in range(3):
            npt.assert_allclose(
                jets.ddgh[l],
                fd_partial(dgh_field, pt.p, l).reshape(3, 3, 3),
                atol=1e-6,
            )
            npt.assert_allclose(
                jets.ddgv[l],
                fd_partial(dgv_field, pt.p, l).reshape(3, 3, 3),
                atol=1e-6,
            )

    def test_inverse_chain_rule_first_order(self, setup):
        """d gv = -gv (d gh) gv: the closed form agrees with the matrix route."""
        params, profile, pt = setup
        jets = fiber_jets(pt, params, profile)
        chain = -np.einsum("ka,mab,bl->mkl", jets.gv, jets.dgh, jets.gv)
        npt.assert_allclose(jets.dgv, chain, atol=1e-12)

    def test_inverse_chain_rule_second_order(self, setup):
        """d2 gv from differentiating -gv (d gh) gv once more."""
        params, profile, pt = setup
        jets = fiber_jets(pt, params, profile)
        chain = (
            -np.einsum("rka,mab,bl->rmkl", jets.dgv, jets.dgh, jets.gv)
            - np.einsum("ka,rmab,bl->rmkl", jets.gv, jets.ddgh, jets.gv)
            - np.einsum("ka,mab,rbl->rmkl", jets.gv, jets.dgh, jets.dgv)
        )
        npt.assert_allclose(jets.ddgv, chain, atol=1e-12)

    def test_second_derivatives_are_symmetric(self, setup):
        params, profile, pt = setup
        jets = fiber_jets(pt, params, profile)
        npt.assert_allclose(jets.ddgh, np.swapaxes(jets.ddgh, 0, 1), atol=1e-12)
        npt.assert_allclose(jets.ddgv, np.swapaxes(jets.ddgv, 0, 1), atol=1e-12)


# ---------------------------------------------------------------------------
# Horizontal parallelism of M-tensors
# ---------------------------------------------------------------------------


def _christoffel_corrections(gamma, components, variance):
    """Predicted horizontal frame derivative ``out[k, ...]`` of a field built
    from the momentum and the base metric: ``+Gamma^l_{km} T[..l..]`` on
    each lower slot, ``-Gamma^m_{kl} T[..l..]`` on each upper slot."""
    out = np.zeros((gamma.shape[0],) + components.shape)
    for axis, var in enumerate(variance):
        moved = np.moveaxis(components, axis, 0)
        if var == "d":
            corr = np.einsum("lkm,l...->km...", gamma, moved)
        else:
            corr = -np.einsum("mkl,l...->km...", gamma, moved)
        out += np.moveaxis(corr, 1, axis + 1)
    return out


class TestHorizontalRule:
    """Frame derivatives of momentum-built fields reduce to Christoffel terms."""

    @pytest.mark.parametrize(
        "variance,field_name",
        [("dd", "gh"), ("uu", "gv"), ("u", "p_up")],
    )
    def test_horizontal_derivative_is_christoffel_bookkeeping(
        self, variance, field_name, kahler_params, kahler_profile, sample_qp
    ):
        q, p = sample_qp
        pt = CotangentPoint.at(q, p, kahler_params)

        def field(qq, pp):
            ptz = CotangentPoint.at(qq, pp, kahler_params)
            if field_name == "gh":
                return fiber_jets(ptz, kahler_params, kahler_profile).gh
            if field_name == "gv":
                return fiber_jets(ptz, kahler_params, kahler_profile).gv
            return ptz.p_up

        value = field(q, p)
        predicted = _christoffel_corrections(pt.gamma, value, variance)
        measured = frame_gradient(field, pt)[:3]
        npt.assert_allclose(
            measured,
            predicted,
            atol=1e-7,
            err_msg=f"horizontal rule for variance {variance!r}",
        )


class TestRowsMemo:
    def test_members_that_differ_never_share_an_entry(self, rng):
        """Members that differ only in ``a_metric``, in ``k_a``, in ``k_b`` or
        in the profile each build their own metric blocks and fiber jets on
        the same rows, although ``fiber_jets`` reads neither ``k_a`` nor
        ``k_b``; an equal member, with its equal params and their Einstein
        profile built anew, shares the first entry."""
        params = ModelParams.kahler(n=2, c=1.0, k_a=1.0, k_b=1.0)
        members = [
            (params, einstein_profile(params)),
            (replace(params, a_metric=1.1 * params.a_metric), einstein_profile(params)),
            (replace(params, k_a=0.5), einstein_profile(params)),
            (replace(params, k_b=0.5), einstein_profile(params)),
            (params, rational_profile()),
        ]
        point_at = lambda q, p: CotangentPoint.at(q, p, params)
        rows = Rows(rng.uniform(-1, 1, size=(3, 2)), rng.normal(size=(3, 2)), point_at)
        equal = ModelParams.kahler(n=2, c=1.0, k_a=1.0, k_b=1.0)
        for build in (rows.blocks_of, rows.jets_of):
            built = [build(*member) for member in members]
            assert len({id(value) for value in built}) == len(members)
            assert build(equal, einstein_profile(equal)) is built[0]

    def test_a_build_that_raises_is_not_kept(self):
        """A point build that fails raises again on the next access instead
        of leaving a broken entry behind."""
        calls = []

        def point_at(q, p):
            calls.append(len(q))
            raise GeometryError("injected failure")

        rows = Rows(np.zeros((2, 2)), np.ones((2, 2)), point_at)
        for _ in range(2):
            with pytest.raises(GeometryError, match="injected failure"):
                rows.points
        assert calls == [2, 2]


# ---------------------------------------------------------------------------
# Adapted-frame containers and brackets
# ---------------------------------------------------------------------------


class TestAdaptedFrame:
    def test_operator_compose_matches_apply(self, kahler_point, kahler_params, kahler_profile, rng):
        """J composed with itself is -I, and composing equals applying twice."""
        j_op = assemble_complex_structure(fiber_jets(kahler_point, kahler_params, kahler_profile))
        x = rng.normal(size=6)
        npt.assert_allclose(j_op @ j_op, -np.eye(6), atol=1e-12)
        npt.assert_allclose((j_op @ j_op) @ x, j_op @ (j_op @ x), atol=1e-12)

    def test_vertical_fields_commute(self, kahler_point):
        brackets = frame_brackets(kahler_point)
        npt.assert_allclose(brackets[3:, 3:], 0.0, atol=0)

    def test_mixed_bracket_is_antisymmetric(self, kahler_point):
        brackets = frame_brackets(kahler_point)
        npt.assert_allclose(brackets[3:, :3], -np.swapaxes(brackets[:3, 3:], 0, 1), atol=0)
        npt.assert_allclose(brackets[..., :3], 0.0, atol=0)

    def test_mixed_bracket_matches_nested_derivatives(
        self, sample_qp, kahler_params
    ):
        """[d/dp_i, delta_j] f = Gamma^i_{jl} df/dp_l on scalars; the outer
        derivative comes from the real reference stencil, as complex steps
        do not nest."""
        q, p = sample_qp
        pt = CotangentPoint.at(q, p, kahler_params)
        i, j = 2, 0

        def scalar(qq, pp):
            return (np.cos(qq[:, 0] * pp[:, 2]) + pp[:, 1] ** 2 * qq[:, 2])[:, None]

        def pair_of_derivs(qq, pp):
            return frame_gradient(scalar, CotangentPoint.at(qq, pp, kahler_params))[:, [3 + i, j], 0]

        outer = fd_reference.frame_gradient(pair_of_derivs, pt)
        commutator = outer[3 + i][1] - outer[j][0]
        fiber_grad = frame_gradient(scalar, pt)[3:, 0]
        expected = frame_brackets(pt)[3 + i, j, 3:] @ fiber_grad
        npt.assert_allclose(commutator, expected, atol=1e-6)

    def test_rational_profile_everywhere_admissible(self):
        """v(t) > -a / (2 sqrt(t)) at every energy, even at a small coupling."""
        t = np.linspace(0.05, 50.0, 200)
        assert np.all(rational_profile().v(t) > -0.1 / (2.0 * np.sqrt(t)))
