"""Curvature of the bundle metric: block assembly vs the definition, Ricci
by trace vs closed form, symmetries, and the homothety of the family."""

import numpy as np
import numpy.testing as npt
import pytest

from cotangent_kahler.base import ModelParams
from cotangent_kahler.curvature import (
    curvature_blocks,
    curvature_fd,
    holomorphic_sectional_curvature,
    nabla_curvature,
    odd_slots,
    pair_symmetry_residual,
    ricci_closed_form,
    ricci_from_blocks,
)
from cotangent_kahler.errors import GeometryError
from cotangent_kahler.mtensor import CotangentPoint, assemble_metric, fiber_jets
from cotangent_kahler.profiles import einstein_profile, rational_profile
from cotangent_kahler.structure import assemble_complex_structure
from stencils import center_k, stencil_at

# block name -> slots of K[a, b, c, d] (inputs a, b, c, output d) holding it
H, V = slice(None, 3), slice(3, None)
BLOCK_SLOTS = {
    "hhh": (H, H, H, H),
    "hhv": (H, H, V, V),
    "vvh": (V, V, H, H),
    "vvv": (V, V, V, V),
    "vhh": (V, H, H, V),
    "vhv": (V, H, V, H),
}

# ---------------------------------------------------------------------------
# Blocks against the finite-difference definition
# ---------------------------------------------------------------------------


class TestBlocksAgainstDefinition:
    @pytest.mark.parametrize("name", sorted(BLOCK_SLOTS))
    def test_block_matches_fd_curvature(
        self, name, sample_qp, kahler_params, kahler_profile
    ):
        """Each stored block equals K(e_a, e_b)e_c from differenced nablas,
        and the complementary output part of the same inputs vanishes."""
        q, p = sample_qp
        pt = CotangentPoint.at(q, p, kahler_params)
        jets = fiber_jets(pt, kahler_params, kahler_profile)
        curv = curvature_blocks(pt, kahler_params, jets)
        probe = curvature_fd(kahler_params, kahler_profile, stencil_at(pt, kahler_params))
        a, b, c, d = BLOCK_SLOTS[name]
        other = V if d == H else H
        npt.assert_allclose(
            probe[a, b, c, d], curv[a, b, c, d], atol=1e-4,
            err_msg=f"{name} block vs finite differences",
        )
        npt.assert_allclose(
            probe[a, b, c, other], 0.0, atol=1e-4,
            err_msg=f"complementary output of the {name} block",
        )

    def test_blocks_hold_off_integrable_coupling(self, sample_qp, generic_params, generic_profile):
        """The assembly needs only the block-diagonal metric, not Kahlerness."""
        q, p = sample_qp
        pt = CotangentPoint.at(q, p, generic_params)
        jets = fiber_jets(pt, generic_params, generic_profile)
        curv = curvature_blocks(pt, generic_params, jets)
        probe = curvature_fd(generic_params, generic_profile, stencil_at(pt, generic_params))
        odd = odd_slots(3)
        npt.assert_allclose(probe[~odd], curv[~odd], atol=1e-4)
        npt.assert_allclose(probe[odd], 0.0, atol=1e-4)
        npt.assert_allclose(curv[odd], 0.0, atol=0)


# ---------------------------------------------------------------------------
# Algebraic symmetries
# ---------------------------------------------------------------------------


class TestSymmetries:
    def test_antisymmetry_in_first_arguments(self, kahler_point, kahler_params, kahler_profile, rng):
        curv = curvature_blocks(
            kahler_point, kahler_params, fiber_jets(kahler_point, kahler_params, kahler_profile)
        )
        for _ in range(4):
            x, y, z = rng.normal(size=(3, 6))
            lhs = np.einsum("abcd,a,b,c->d", curv, x, y, z)
            rhs = np.einsum("abcd,a,b,c->d", curv, y, x, z)
            npt.assert_allclose(lhs, -rhs, atol=1e-10)

    def test_pair_symmetry(self, kahler_point, kahler_params, kahler_profile, rng):
        """<K(X,Y)Z, W> = <K(Z,W)X, Y> on random adapted vectors."""
        jets = fiber_jets(kahler_point, kahler_params, kahler_profile)
        curv = curvature_blocks(kahler_point, kahler_params, jets)
        metric = assemble_metric(jets)
        vectors = rng.normal(size=(6, 4, 6))
        assert pair_symmetry_residual(curv, metric, vectors) < 1e-9

    def test_complex_structure_pairs_blocks(self, kahler_point, kahler_params, kahler_profile):
        """With J parallel, K[i,j,3+k,3+h] = -K[i,j,h,k] and
        K[3+i,3+j,3+k,3+h] = -K[3+i,3+j,h,k]."""
        curv = curvature_blocks(
            kahler_point, kahler_params, fiber_jets(kahler_point, kahler_params, kahler_profile)
        )
        npt.assert_allclose(curv[H, H, V, V], -np.swapaxes(curv[H, H, H, H], 2, 3), atol=1e-12)
        npt.assert_allclose(curv[V, V, V, V], -np.swapaxes(curv[V, V, H, H], 2, 3), atol=1e-12)

    @pytest.mark.parametrize("scale", [-3.0, 0.1, 2.5])
    def test_holomorphic_sectional_curvature_scale_invariant(self, kahler_params, kahler_profile, rng, scale):
        """H(sX) = H(X) on a batch of rows, each with its own section: H has
        degree 0 in X for every K, G and J, so the report does not check it."""
        q, p = rng.uniform(-1.5, 1.5, size=(6, 3)), rng.normal(size=(6, 3))
        pt = CotangentPoint.at(q, p, kahler_params)
        jets = fiber_jets(pt, kahler_params, kahler_profile)
        curv = curvature_blocks(pt, kahler_params, jets)
        metric, j_op = assemble_metric(jets), assemble_complex_structure(jets)
        x = rng.normal(size=(6, 6))
        h = holomorphic_sectional_curvature(curv, metric, j_op, x)
        assert h.shape == (6,)
        npt.assert_allclose(holomorphic_sectional_curvature(curv, metric, j_op, scale * x), h, rtol=1e-10)

    def test_contractions_match_index_loops(self, kahler_point, kahler_params, kahler_profile, rng):
        """The array contractions equal the sums over frame indices that
        define them: <K(X,Y)Z, W> and G(K(X, JX)JX, X) / G(X, X)^2."""
        jets = fiber_jets(kahler_point, kahler_params, kahler_profile)
        curv = curvature_blocks(kahler_point, kahler_params, jets)
        metric = assemble_metric(jets)
        j_op = assemble_complex_structure(jets)
        x, y, z, w = rng.normal(size=(4, 6))

        def pairing(a, b, c, d):
            total = 0.0
            for i in range(6):
                for j in range(6):
                    for k in range(6):
                        for l in range(6):
                            for m in range(6):
                                total += curv[i, j, k, l] * a[i] * b[j] * c[k] * metric[l, m] * d[m]
            return total

        lhs, rhs = pairing(x, y, z, w), pairing(z, w, x, y)
        assert pair_symmetry_residual(curv, metric, [[x, y, z, w]]) == pytest.approx(
            abs(lhs - rhs), abs=1e-12
        )
        jx = j_op @ x
        expected = pairing(x, jx, jx, x) / (x @ metric @ x) ** 2
        assert holomorphic_sectional_curvature(curv, metric, j_op, x) == pytest.approx(
            expected, rel=1e-12
        )

    def test_null_vector_rejected(self, kahler_point, kahler_params, kahler_profile):
        jets = fiber_jets(kahler_point, kahler_params, kahler_profile)
        curv = curvature_blocks(kahler_point, kahler_params, jets)
        with pytest.raises(GeometryError):
            holomorphic_sectional_curvature(
                curv, assemble_metric(jets), assemble_complex_structure(jets), np.zeros(6),
            )


# ---------------------------------------------------------------------------
# Ricci tensor, two routes
# ---------------------------------------------------------------------------


class TestRicci:
    @pytest.mark.parametrize("n,c", [(2, 1.0), (3, 1.4)])
    @pytest.mark.parametrize("profile_name", ["einstein", "rational"])
    def test_trace_matches_closed_form(self, n, c, profile_name, rng):
        """Tracing the blocks reproduces the (c, t, v, v', v'') closed form."""
        params = ModelParams.kahler(n=n, c=c, k_a=0.6, k_b=0.5)
        profile = einstein_profile(params) if profile_name == "einstein" else rational_profile()
        q = rng.uniform(-1.5, 1.5, size=n)
        p = rng.normal(size=n)
        p *= 1.3 / np.linalg.norm(p)
        pt = CotangentPoint.at(q, p, params)
        traced = ricci_from_blocks(curvature_blocks(pt, params, fiber_jets(pt, params, profile)))
        closed = ricci_closed_form(pt, params, profile)
        npt.assert_allclose(traced.hh, closed.hh, atol=1e-9, err_msg="horizontal Ricci block")
        npt.assert_allclose(traced.vv, closed.vv, atol=1e-9, err_msg="vertical Ricci block")

    def test_closed_form_requires_integrable_coupling(self, generic_point, generic_params, generic_profile):
        with pytest.raises(GeometryError):
            ricci_closed_form(generic_point, generic_params, generic_profile)

    def test_blocks_are_symmetric(self, kahler_point, kahler_params, kahler_profile):
        ric = ricci_from_blocks(
            curvature_blocks(kahler_point, kahler_params, fiber_jets(kahler_point, kahler_params, kahler_profile))
        )
        npt.assert_allclose(ric.hh, ric.hh.T, atol=1e-12)
        npt.assert_allclose(ric.vv, ric.vv.T, atol=1e-12)

    def test_mixed_block_vanishes(self, sample_qp, kahler_params, kahler_profile):
        """Ric(horizontal, vertical) = 0, by tracing the FD curvature."""
        q, p = sample_qp
        pt = CotangentPoint.at(q, p, kahler_params)
        probe = curvature_fd(kahler_params, kahler_profile, stencil_at(pt, kahler_params))
        mixed = np.einsum("abca->bc", probe)[:3, 3:]
        npt.assert_allclose(mixed, 0.0, atol=1e-6)


# ---------------------------------------------------------------------------
# Covariant derivative of the curvature
# ---------------------------------------------------------------------------


class TestNablaCurvature:
    def test_second_bianchi(self, sample_qp, kahler_params, kahler_profile):
        """cyclic_{W,A,B} (nabla_W K)(A, B)Z = 0 on every frame entry."""
        q, p = sample_qp
        pt = CotangentPoint.at(q, p, kahler_params)
        stencil = stencil_at(pt, kahler_params)
        nabla = nabla_curvature(kahler_params, kahler_profile, stencil, center_k(kahler_params, kahler_profile, stencil))
        cyclic = nabla + np.einsum("abwcd->wabcd", nabla) + np.einsum("bwacd->wabcd", nabla)
        assert np.max(np.abs(cyclic)) < 1e-6

    def test_momentum_scaling_maps_family_members(self):
        """Rescaling the fiber by lambda is a homothety onto the member with
        constants (lambda^-n k_a, lambda k_b): on horizontal inputs,
        horizontal outputs of nabla K agree and vertical outputs pick up one
        factor of lambda."""
        n, c, lam = 3, 1.0, 1.3
        k_a, k_b = 0.8, 0.5
        params_up = ModelParams.kahler(n=n, c=c, k_a=k_a, k_b=k_b)
        params_dn = ModelParams.kahler(n=n, c=c, k_a=lam ** -n * k_a, k_b=lam * k_b)
        q = np.array([0.4, -0.6, 0.2])
        p = np.array([0.9, 0.3, -0.5])


        def nabla_at(params, momentum):
            profile = einstein_profile(params)
            pt = CotangentPoint.at(q, momentum, params)
            stencil = stencil_at(pt, params)
            return nabla_curvature(params, profile, stencil, center_k(params, profile, stencil))

        out_up = nabla_at(params_up, lam * p)[H, H, H, H]
        out_dn = nabla_at(params_dn, p)[H, H, H, H]
        assert np.max(np.abs(out_up)) > 1e-3
        npt.assert_allclose(out_up[..., H], out_dn[..., H], atol=1e-6, err_msg="horizontal part")
        npt.assert_allclose(out_up[..., V], lam * out_dn[..., V], atol=1e-6, err_msg="vertical part")
