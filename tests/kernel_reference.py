"""The einsum forms of the curvature path, the reference for its matmul kernels.

``base.space_form_metric``'s curvature, ``connection.connection_fiber_derivatives``,
``curvature.curvature_blocks``, ``curvature.pair_symmetry_residual`` and
``curvature.holomorphic_sectional_curvature`` contract their arrays with one
batched ``@`` per term, and so do the Leibniz terms of the finite-difference
oracles: ``connection.parallel_j_residual``, ``curvature.curvature_fd`` and
``curvature.nabla_curvature``.  This module keeps the same formulas written
term by term as index expressions or one ``np.matvec`` per vector, in the
math layout of the connection and curvature module docstrings, so the tests
can compare the two forms entry for entry.  ``curvature_blocks`` here
assembles ``K`` from the package's ``connection_coefficients`` and this
module's ``connection_fiber_derivatives``; ``nabla_curvature`` here
differentiates the package's assembled ``K``, all ``(2n)^4`` entries per
row.  Every function takes a leading batch axis, like the package.
"""

import numpy as np

from cotangent_kahler.base import ModelParams, _max_abs, _scale
from cotangent_kahler.connection import _assemble, connection_coefficients
from cotangent_kahler.curvature import curvature_blocks as package_curvature_blocks
from cotangent_kahler.errors import GeometryError
from cotangent_kahler.mtensor import CotangentPoint, FiberJets, fiber_jets, frame_brackets
from cotangent_kahler.structure import assemble_complex_structure, canonical_coordinate_form
from stencils import frame_gradient


def space_form_riemann(x: np.ndarray, params: ModelParams) -> np.ndarray:
    """``R^h_{kij} = c (delta^h_i g_jk - delta^h_j g_ik)`` at ``[h, k, i,
    j]``, two outer products of the identity with ``g = I / f^2``."""
    f = 1.0 + 0.25 * params.c * np.vecdot(x.conj(), x)
    eye = np.eye(params.n)
    g = eye / _scale(f**2, 2)
    return params.c * (np.einsum("hi,...jk->...hkij", eye, g) - np.einsum("hj,...ik->...hkij", eye, g))


def connection_fiber_derivatives(
    pt: CotangentPoint, params: ModelParams, jets: FiberJets
) -> np.ndarray:
    """Fiber 1-jet ``dGamma[m, a, b, c] = d Gamma[a, b, c] / dp_m``."""
    gh, gv, dgh, dgv = jets.gh, jets.gv, jets.dgh, jets.dgv
    ddgh, ddgv = jets.ddgh, jets.ddgv
    pr, riem = pt.p_riemann, pt.riemann

    sym = dgv + np.einsum("...jik->...ijk", dgv) - np.einsum("...kij->...ijk", dgv)
    dsym = ddgv + np.einsum("...mjik->...mijk", ddgv) - np.einsum("...mkij->...mijk", ddgv)
    dvv = 0.5 * np.einsum("...mhk,...ijk->...mijh", dgh, sym) + 0.5 * np.einsum(
        "...hk,...mijk->...mijh", gh, dsym
    )

    inner = dgh - np.einsum("...il,...ljk->...ijk", gv, pr)
    dinner = (
        ddgh
        - np.einsum("...mil,...ljk->...mijk", dgv, pr)
        - np.einsum("...il,...mljk->...mijk", gv, riem)
    )
    dvh = 0.5 * np.einsum("...mhk,...ijk->...mhij", dgv, inner) + 0.5 * np.einsum(
        "...hk,...mijk->...mhij", gv, dinner
    )

    dhh = (
        -0.5 * np.einsum("...mhk,...kij->...mhij", dgh, dgh)
        - 0.5 * np.einsum("...hk,...mkij->...mhij", gh, ddgh)
        + 0.5 * riem
    )

    return _assemble(np.zeros_like(dhh), dvv, dvh, dhh)


def curvature_blocks(pt: CotangentPoint, params: ModelParams, jets: FiberJets) -> np.ndarray:
    """``K[a, b, c, d]`` from six blocks in math layout ``[output, in1, in2,
    in3]``, each term one einsum."""
    n = pt.n
    conn = connection_coefficients(pt, params, jets)
    der = connection_fiber_derivatives(pt, params, jets)
    vv = conn[..., n:, n:, n:]
    vh = np.einsum("...ijh->...hij", conn[..., n:, :n, :n])
    hh = np.einsum("...ijh->...hij", conn[..., :n, :n, n:])
    dvv = der[..., n:, n:, n:]
    dvh = np.einsum("...mijh->...mhij", der[..., n:, :n, :n])
    dhh = np.einsum("...mijh->...mhij", der[..., :n, :n, n:])
    riem, pr = pt.riemann, pt.p_riemann

    hhh = (
        np.einsum("...hkij->...hijk", riem)
        - np.einsum("...hlk,...lij->...hijk", vh, pr)
        + np.einsum("...hli,...ljk->...hijk", vh, hh)
        - np.einsum("...hlj,...lik->...hijk", vh, hh)
    )
    hhv = (
        -np.einsum("...khij->...hijk", riem)
        + np.einsum("...lkj,...hil->...hijk", vh, hh)
        - np.einsum("...lki,...hjl->...hijk", vh, hh)
        - np.einsum("...lkh,...lij->...hijk", vv, pr)
    )
    vvh = (
        np.einsum("...ihjk->...hijk", dvh)
        - np.einsum("...jhik->...hijk", dvh)
        + np.einsum("...hil,...ljk->...hijk", vh, vh)
        - np.einsum("...hjl,...lik->...hijk", vh, vh)
    )
    vvv = (
        np.einsum("...ijkh->...hijk", dvv)
        - np.einsum("...jikh->...hijk", dvv)
        + np.einsum("...jkl,...ilh->...hijk", vv, vv)
        - np.einsum("...ikl,...jlh->...hijk", vv, vv)
    )
    vhh = (
        np.einsum("...ihjk->...hijk", dhh)
        + np.einsum("...ilh,...ljk->...hijk", vv, hh)
        - np.einsum("...lik,...hjl->...hijk", vh, hh)
    )
    vhv = (
        np.einsum("...ihkj->...hijk", dvh)
        + np.einsum("...hil,...lkj->...hijk", vh, vh)
        - np.einsum("...hlj,...ikl->...hijk", vh, vv)
    )
    h, v = slice(None, n), slice(n, None)
    out = np.zeros(pt.p.shape[:-1] + (2 * n,) * 4)
    out[..., h, h, h, h] = np.einsum("...hijk->...ijkh", hhh)
    out[..., h, h, v, v] = np.einsum("...hijk->...ijkh", hhv)
    out[..., v, v, h, h] = np.einsum("...hijk->...ijkh", vvh)
    out[..., v, v, v, v] = np.einsum("...hijk->...ijkh", vvv)
    out[..., v, h, h, v] = np.einsum("...hijk->...ijkh", vhh)
    out[..., h, v, h, v] = -np.einsum("...hijk->...jikh", vhh)
    out[..., v, h, v, h] = np.einsum("...hijk->...ijkh", vhv)
    out[..., h, v, v, h] = -np.einsum("...hijk->...jikh", vhv)
    return out


def pair_symmetry_residual(curvature: np.ndarray, metric: np.ndarray, vectors):
    """``max |<K(X,Y)Z, W> - <K(Z,W)X, Y>|`` over ``vectors[..., m, :, :] = (X,
    Y, Z, W)``, contracting one vector at a time."""
    lowered = (curvature @ metric[..., None, None, :, :])[..., None, :, :, :, :]
    x, y, z, w = np.moveaxis(np.asarray(vectors, dtype=float), -2, 0)

    def form(x, y, z, w):
        kzw = np.matvec(np.matvec(lowered, w[..., None, None, :]), z[..., None, :])
        return np.vecdot(np.matvec(kzw, y), x)

    return _max_abs(form(x, y, z, w) - form(z, w, x, y), rank=1)


def holomorphic_sectional_curvature(
    curvature: np.ndarray, metric: np.ndarray, j_op: np.ndarray, x: np.ndarray
):
    """``G(K(X, JX)JX, X) / G(X, X)^2``, contracting one vector at a time."""
    jx = np.matvec(j_op, x)
    gx = np.matvec(metric, x)
    norm_sq = np.vecdot(x, gx)
    if np.any(norm_sq <= 0.0):
        raise GeometryError("holomorphic sectional curvature needs a nonnull vector")
    k_jx_jx = np.matvec(np.matvec(curvature, gx[..., None, None, :]), jx[..., None, :])
    return np.vecdot(x, np.matvec(k_jx_jx, jx)) / norm_sq**2


# ---- Leibniz terms of the finite-difference oracles ----


def covariant_field_derivative(pt: CotangentPoint, conn: np.ndarray, field, value: np.ndarray) -> np.ndarray:
    """``out[..., a, c, ...]``, the ``c``-th component of ``nabla_{e_a} V``,
    with the frame rotation ``V^b Gamma[a, b, c]`` as one einsum."""
    grad = frame_gradient(field, pt)
    columns = value.reshape(pt.p.shape[:-1] + (2 * pt.n, -1))
    return grad + np.einsum("...abc,...br->...acr", conn, columns).reshape(grad.shape)


def parallel_j_residual(conn: np.ndarray, jets: FiberJets, metric_grad: np.ndarray):
    """``max |nabla_a (J e_b) - J nabla_a e_b|`` per center, with both
    connection terms as einsums."""
    j_op = assemble_complex_structure(jets)
    grad_j = canonical_coordinate_form(j_op.shape[-1] // 2) @ metric_grad
    nabla_j = grad_j + np.einsum("...abc,...br->...acr", conn, j_op)
    expected = np.einsum("...cd,...abd->...acb", j_op, conn)
    return _max_abs(nabla_j - expected, rank=3)


def _vector_field(build, params: ModelParams, profile):
    """Field ``(q, p) -> build(point, params, jets)``, output index (last)
    moved next to the batch axis."""

    def field(q: np.ndarray, p: np.ndarray) -> np.ndarray:
        point = CotangentPoint.at(q, p, params)
        return np.moveaxis(build(point, params, fiber_jets(point, params, profile)), -1, 1)

    return field


def curvature_fd(params: ModelParams, profile, pt: CotangentPoint, jets: FiberJets) -> np.ndarray:
    """``K(e_a, e_b)e_c`` from the definition, with the bracket term as one
    einsum."""
    conn = connection_coefficients(pt, params, jets)
    field = _vector_field(connection_coefficients, params, profile)
    value = np.moveaxis(conn, -1, -3)
    second = np.moveaxis(covariant_field_derivative(pt, conn, field, value), -3, -1)
    bracket_term = np.einsum("...abf,...fcd->...abcd", frame_brackets(pt), conn)
    return second - np.swapaxes(second, -4, -3) - bracket_term


def nabla_curvature(params: ModelParams, profile, pt: CotangentPoint, jets: FiberJets) -> np.ndarray:
    """``(nabla_{e_w} K)[..., w, a, b, c, d]``: one frame gradient of the
    assembled ``K`` field, and one einsum per connection term."""
    conn = connection_coefficients(pt, params, jets)
    curv = package_curvature_blocks(pt, params, jets)
    field = _vector_field(package_curvature_blocks, params, profile)
    value = np.moveaxis(curv, -1, -4)
    nabla = np.moveaxis(covariant_field_derivative(pt, conn, field, value), -4, -1)
    nabla -= np.einsum("...waf,...fbcd->...wabcd", conn, curv)
    nabla -= np.einsum("...wbf,...afcd->...wabcd", conn, curv)
    nabla -= np.einsum("...wcf,...abfd->...wabcd", conn, curv)
    return nabla
