"""The einsum forms of every layer, the reference for its broadcast and matmul kernels.

``base.space_form_metric``'s Christoffel symbols and curvature, the fiber
jets ``mtensor._jets_on``, both connection routes
(``connection.connection_coefficients`` and
``connection.kahler_connection_coefficients``),
``connection._fiber_derivative_blocks``, ``curvature.curvature_blocks``,
``curvature.pair_symmetry_residual``,
``curvature.holomorphic_sectional_curvature``, ``curvature.constant_h_tensor``,
``curvature.curvature_inner`` and the Nijenhuis closed form
``structure.nijenhuis_closed_form`` build each outer product as one
broadcast multiply and contract their arrays with one batched ``@`` per
term, and so do the Leibniz terms of the finite-difference oracles
(``connection.parallel_j_residual``, ``curvature.curvature_fd`` and
``curvature.nabla_curvature``) and the chart brackets of
``structure.nijenhuis_numeric``.  This module keeps the same formulas
written term by term as index expressions or one ``np.matvec`` per vector,
in the math layout of the mtensor, connection, curvature and structure
module docstrings, so the tests can compare the two forms entry for entry.
``curvature_blocks`` here assembles ``K`` from this module's
``connection_coefficients`` and ``connection_fiber_derivatives``;
``nabla_curvature`` here differentiates the package's assembled ``K``, all
``(2n)^4`` entries per row.  ``assembled_fiber_derivatives`` puts the
package's three fiber blocks into the whole array that
``connection_fiber_derivatives`` here gives.  Every function but
``sample_points`` takes a leading batch axis, like the package.

``sample_points`` here is ``suites.sample_points`` as one loop of
``Generator.uniform`` and ``Generator.normal`` calls per sample, with the
scaling inside the loop; the package's draws must match it bit for bit.
"""

import numpy as np

from cotangent_kahler.base import ModelParams, _max_abs, _outer, _scale, space_form_metric
from cotangent_kahler.connection import _assemble, _fiber_derivative_blocks
from cotangent_kahler.connection import connection_coefficients as package_connection_coefficients
from cotangent_kahler.curvature import curvature_blocks as package_curvature_blocks
from cotangent_kahler.errors import GeometryError
from cotangent_kahler.mtensor import (
    CotangentPoint,
    FiberJets,
    MetricBlocks,
    _w_jet,
    chart_frame,
    energy_density,
    fiber_jets,
    frame_brackets,
)
from cotangent_kahler.structure import assemble_complex_structure, canonical_coordinate_form
from cotangent_kahler.suites import RunConfig, _curvature_seed
from stencils import frame_gradient


def space_form_gamma(x: np.ndarray, params: ModelParams) -> np.ndarray:
    """``Gamma^k_{ij} = delta^k_i d_j phi + delta^k_j d_i phi - delta_ij d_k
    phi`` at ``[k, i, j]``, three outer products of the identity."""
    f = 1.0 + 0.25 * params.c * np.vecdot(x.conj(), x)
    dphi = -0.5 * params.c * x / _scale(f, 1)
    eye = np.eye(params.n)
    return (
        np.einsum("ki,...j->...kij", eye, dphi)
        + np.einsum("kj,...i->...kij", eye, dphi)
        - np.einsum("ij,...k->...kij", eye, dphi)
    )


def space_form_riemann(x: np.ndarray, params: ModelParams) -> np.ndarray:
    """``R^h_{kij} = c (delta^h_i g_jk - delta^h_j g_ik)`` at ``[h, k, i,
    j]``, two outer products of the identity with ``g = I / f^2``."""
    f = 1.0 + 0.25 * params.c * np.vecdot(x.conj(), x)
    eye = np.eye(params.n)
    g = eye / _scale(f**2, 2)
    return params.c * (np.einsum("hi,...jk->...hkij", eye, g) - np.einsum("hj,...ik->...hkij", eye, g))


def jets_on(pt: CotangentPoint, params: ModelParams, profile, blocks: MetricBlocks) -> FiberJets:
    """``mtensor._jets_on``: the first and second fiber jets on the kept
    ``blocks``, each term of the product rule one einsum, with ``dpp`` and ``dpupu`` the fiber
    derivatives of ``p p`` and ``p^ p^``."""
    gh, gv = blocks
    n, t, a = pt.n, pt.t, params.a_metric
    st = np.sqrt(t)
    g, g_inv, p, pu = pt.g, pt.g_inv, pt.p, pt.p_up
    v, dv, d2v = profile.jet(t)
    eye = np.eye(n)

    pp = _outer(p, p)
    dpp = np.einsum("ki,...j->...kij", eye, p) + np.einsum("kj,...i->...kij", eye, p)
    dgh = (
        _scale(0.5 * a / st, 3) * np.einsum("...k,...ij->...kij", pu, g)
        + _scale(dv, 3) * np.einsum("...k,...ij->...kij", pu, pp)
        + _scale(v, 3) * dpp
    )
    ddgh = (
        a * np.einsum("...ij,...lk->...lkij", g, g_inv / _scale(2.0 * st, 2) - _outer(pu, pu) / _scale(4.0 * t * st, 2))
        + _scale(d2v, 4) * np.einsum("...l,...k,...ij->...lkij", pu, pu, pp)
        + _scale(dv, 4)
        * (
            np.einsum("...lk,...ij->...lkij", g_inv, pp)
            + np.einsum("...k,...lij->...lkij", pu, dpp)
            + np.einsum("...l,...kij->...lkij", pu, dpp)
        )
        + _scale(v, 4) * (np.einsum("ki,lj->lkij", eye, eye) + np.einsum("kj,li->lkij", eye, eye))
    )

    w, w1, w2 = _w_jet(t, a, v, dv, d2v)
    pupu = _outer(pu, pu)
    dpupu = np.einsum("...mk,...l->...mkl", g_inv, pu) + np.einsum("...ml,...k->...mkl", g_inv, pu)
    dgv = (
        -np.einsum("...kl,...m->...mkl", g_inv, pu) / _scale(2.0 * a * t * st, 3)
        + _scale(w1, 3) * np.einsum("...m,...kl->...mkl", pu, pupu)
        + _scale(w, 3) * dpupu
    )
    ddgv = (
        np.einsum(
            "...kl,...rm->...rmkl",
            g_inv,
            3.0 * pupu / _scale(4.0 * a * t * t * st, 2) - g_inv / _scale(2.0 * a * t * st, 2),
        )
        + _scale(w2, 4) * np.einsum("...r,...m,...kl->...rmkl", pu, pu, pupu)
        + _scale(w1, 4)
        * (
            np.einsum("...mr,...kl->...rmkl", g_inv, pupu)
            + np.einsum("...m,...rkl->...rmkl", pu, dpupu)
            + np.einsum("...r,...mkl->...rmkl", pu, dpupu)
        )
        + _scale(w, 4)
        * (np.einsum("...mk,...rl->...rmkl", g_inv, g_inv) + np.einsum("...ml,...rk->...rmkl", g_inv, g_inv))
    )
    return FiberJets(gh=gh, gv=gv, dgh=dgh, ddgh=ddgh, dgv=dgv, ddgv=ddgv)


def connection_coefficients(pt: CotangentPoint, params: ModelParams, jets: FiberJets) -> np.ndarray:
    """The fiber-jet route's ``Gamma[a, b, c]``, each contraction one einsum
    in the math layout of the connection module docstring."""
    gh, gv, dgh, dgv = jets.gh, jets.gv, jets.dgh, jets.dgv
    pr = pt.p_riemann
    sym = dgv + np.einsum("...jik->...ijk", dgv) - np.einsum("...kij->...ijk", dgv)
    vv = 0.5 * np.einsum("...hk,...ijk->...ijh", gh, sym)
    vh = 0.5 * np.einsum("...hk,...ijk->...hij", gv, dgh - np.einsum("...il,...ljk->...ijk", gv, pr))
    hh = -0.5 * np.einsum("...hk,...kij->...hij", gh, dgh) + 0.5 * pr
    return _assemble(pt.gamma, vv, vh, hh)


def kahler_connection_coefficients(pt: CotangentPoint, params: ModelParams, profile) -> np.ndarray:
    """The closed-form route's ``Gamma[a, b, c]`` at the integrable
    coupling, each outer product one einsum."""
    n, c, t = pt.n, params.c, pt.t
    v, dv, _ = profile.jet(t)
    sq = np.sqrt(2.0 * c * t)
    eye = np.eye(n)
    p, pu, g, g_inv = pt.p, pt.p_up, pt.g, pt.g_inv
    vv = (
        -_scale(1.0 / (4.0 * t), 3)
        * (np.einsum("ih,...j->...ijh", eye, pu) + np.einsum("jh,...i->...ijh", eye, pu))
        + _scale((c - sq * v) / (4.0 * c * t), 3) * np.einsum("...ij,...h->...ijh", g_inv, p)
        + _scale((v * v - sq * dv) / (4.0 * t * (c + sq * v)), 3) * np.einsum("...i,...j,...h->...ijh", pu, pu, p)
    )
    hh = (
        -_scale((c + sq * v) / 2.0, 3)
        * (np.einsum("...ij,...h->...hij", g, p) + np.einsum("...hi,...j->...hij", g, p))
        + _scale((c - sq * v) / 2.0, 3) * np.einsum("...hj,...i->...hij", g, p)
        - _scale((2.0 * v * v + sq * dv + 2.0 * t * v * dv) / 2.0, 3)
        * np.einsum("...h,...i,...j->...hij", p, p, p)
    )
    return _assemble(pt.gamma, vv, -np.einsum("...ihj->...hij", vv), hh)


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


def assembled_fiber_derivatives(pt: CotangentPoint, params: ModelParams, jets: FiberJets) -> np.ndarray:
    """``dGamma[m, a, b, c]`` from the package's ``_fiber_derivative_blocks``,
    zero on the base Christoffel blocks, which do not depend on ``p``."""
    dvv, dvh, dhh = _fiber_derivative_blocks(pt, params, jets)
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


def constant_h_tensor(metric: np.ndarray, j_op: np.ndarray) -> np.ndarray:
    """``T[a, b, c, d]``, the five terms of ``[g(Y,Z)X - g(X,Z)Y + g(JY,Z)JX -
    g(JX,Z)JY + 2 g(X,JY)JZ] / 4`` at ``X, Y, Z = e_a, e_b, e_c`` as einsums,
    with ``(J e_b)^d = J[d, b]``."""
    eye = np.eye(metric.shape[-1])
    jg = np.einsum("...eb,...ec->...bc", j_op, metric)
    gj = np.einsum("...ae,...eb->...ab", metric, j_op)
    return 0.25 * (
        np.einsum("...bc,ad->...abcd", metric, eye)
        - np.einsum("...ac,bd->...abcd", metric, eye)
        + np.einsum("...bc,...da->...abcd", jg, j_op)
        - np.einsum("...ac,...db->...abcd", jg, j_op)
        + 2.0 * np.einsum("...ab,...dc->...abcd", gj, j_op)
    )


def curvature_inner(x: np.ndarray, y: np.ndarray, metric: np.ndarray):
    """``G^aa' G^bb' G^cc' G_dd' x[a, b, c, d] y[a', b', c', d']``, one einsum."""
    inverse = np.linalg.inv(metric)
    operands = (x, inverse, inverse, inverse, metric, y)
    return np.einsum("...abcd,...ae,...bf,...cg,...dh,...efgh->...", *operands, optimize=True)


def nijenhuis_closed_form(pt: CotangentPoint, params: ModelParams, jets: FiberJets) -> np.ndarray:
    """``N[a, b, c]`` with each routing of the core through two copies of the
    vertical block as one three-operand einsum."""
    n = pt.n
    flat = np.einsum("...i,...jk->...kij", pt.p, pt.g) - np.einsum("...j,...ik->...kij", pt.p, pt.g)
    core0 = 0.5 * params.a_metric**2 * flat - np.einsum("...h,...hkij->...kij", pt.p, pt.riemann)
    gv = jets.gv
    mixed = np.einsum("...kl,...jr,...lir->...ijk", gv, gv, core0)
    out = np.zeros(pt.p.shape[:-1] + (2 * n,) * 3, np.result_type(core0, gv))
    out[..., :n, :n, n:] = np.einsum("...kij->...ijk", core0)
    out[..., :n, n:, :n] = mixed
    out[..., n:, :n, :n] = -np.swapaxes(mixed, -3, -2)
    out[..., n:, n:, n:] = np.einsum("...ir,...jl,...klr->...ijk", gv, gv, core0)
    return out


# ---- Leibniz terms of the finite-difference oracles ----


def brackets(x, dx, y, dy) -> np.ndarray:
    """Chart Lie brackets ``[X_a, Y_b]`` at ``[..., a, b, chart]``, each
    term one einsum over the chart direction ``g``."""
    return np.einsum("...gkb,...ga->...abk", dy, x) - np.einsum("...gka,...gb->...abk", dx, y)


def nijenhuis_numeric(params: ModelParams, profile, stencil) -> np.ndarray:
    """``structure.nijenhuis_numeric`` with this module's ``brackets`` and
    each bracket's push to the frame as one einsum."""
    pt, n = stencil.centers, stencil.centers.n

    def frame_fields(rows):
        frame = chart_frame(rows.points)
        return np.stack([frame, frame @ assemble_complex_structure(rows.blocks_of(params, profile))], axis=-3)

    x = chart_frame(pt)
    j0 = assemble_complex_structure(stencil.center_blocks(params, profile))
    jx = x @ j0
    dx, djx = np.moveaxis(stencil.chart_gradient(frame_fields), -3, 0)
    to_frame = 2.0 * np.eye(2 * n) - x
    return np.einsum(
        "...ck,...abk->...abc", to_frame, brackets(jx, djx, jx, djx) - brackets(x, dx, x, dx)
    ) - np.einsum("...ck,...abk->...abc", j0 @ to_frame, brackets(jx, djx, x, dx) + brackets(x, dx, jx, djx))


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
    conn = package_connection_coefficients(pt, params, jets)
    field = _vector_field(package_connection_coefficients, params, profile)
    value = np.moveaxis(conn, -1, -3)
    second = np.moveaxis(covariant_field_derivative(pt, conn, field, value), -3, -1)
    bracket_term = np.einsum("...abf,...fcd->...abcd", frame_brackets(pt), conn)
    return second - np.swapaxes(second, -4, -3) - bracket_term


def nabla_curvature(params: ModelParams, profile, pt: CotangentPoint, jets: FiberJets) -> np.ndarray:
    """``(nabla_{e_w} K)[..., w, a, b, c, d]``: one frame gradient of the
    assembled ``K`` field, and one einsum per connection term."""
    conn = package_connection_coefficients(pt, params, jets)
    curv = package_curvature_blocks(pt, params, jets)
    field = _vector_field(package_curvature_blocks, params, profile)
    value = np.moveaxis(curv, -1, -4)
    nabla = np.moveaxis(covariant_field_derivative(pt, conn, field, value), -4, -1)
    nabla -= np.einsum("...waf,...fbcd->...wabcd", conn, curv)
    nabla -= np.einsum("...wbf,...afcd->...wabcd", conn, curv)
    nabla -= np.einsum("...wcf,...abfd->...wabcd", conn, curv)
    return nabla


# ---- sampling ----


def sample_points(cfg: RunConfig, n: int, c: float, params: ModelParams) -> np.ndarray:
    """Each sample's base point, unit momentum direction and target energy
    drawn and scaled inside the loop, by ``Generator.uniform``,
    ``Generator.normal`` and ``np.linalg.norm``."""
    rng = np.random.default_rng([cfg.seed, n, _curvature_seed(c)])
    draws = []
    for _ in range(cfg.samples):
        q = rng.uniform(-2.0, 2.0, size=n)
        direction = rng.normal(size=n)
        draws.append((q, direction / np.linalg.norm(direction), rng.uniform(cfg.t_min, cfg.t_max)))
    q, direction, t_target = (np.array(column) for column in zip(*draws))
    with np.errstate(over="ignore", invalid="ignore"):
        t0 = energy_density(space_form_metric(q, params).g_inv, direction)
    return np.stack([q, direction * np.sqrt(t_target / t0)[:, None]], axis=1)
