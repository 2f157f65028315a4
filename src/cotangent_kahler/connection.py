"""Levi-Civita connection of the bundle metric in the adapted frame.

The connection is one array ``Gamma[a, b, c]``, the ``c``-th component of
``nabla_{e_a} e_b`` over the frame ``0..2n-1`` (horizontal first).  Besides
the base Christoffel symbols it has three fiber blocks, written in math
layout by the formulas here: ``vv[i, j, h] = Gamma[n+i, n+j, n+h]``, the
vertical output of a vertical pair; ``vh[h, i, j] = Gamma[n+i, j, h] =
Gamma[j, n+i, h]``, the horizontal output of a mixed pair; and ``hh[h, i, j]
= Gamma[i, j, n+h]``, the vertical correction of a horizontal pair.  Two
independent routes produce the same coefficients: the general fiber-jet
formulas here, and a finite-difference Koszul evaluation that never sees
them.  Everything here keeps the point's leading batch axis; the
finite-difference oracle differentiates on a stencil (``fd.Stencil``).

``connection_fiber_derivatives`` feeds the curvature, and
``parallel_j_residual`` applies the connection terms of the parallel-J
oracle; both keep the contraction rule of ``base``: each term is one
batched ``@`` (``base._contract`` or a transposed ``Gamma``), and
``np.einsum`` only permutes axes.  Their einsum forms are the test-side
reference, ``tests/kernel_reference.py``.
"""

from __future__ import annotations

import numpy as np

from .base import ModelParams, _contract, _max_abs, _scale
from .errors import GeometryError
from .fd import Stencil
from .mtensor import CotangentPoint, FiberJets, MetricBlocks, assemble_metric, frame_brackets
from .structure import assemble_complex_structure, canonical_coordinate_form

__all__ = [
    "connection_coefficients",
    "kahler_connection_coefficients",
    "connection_fiber_derivatives",
    "koszul_nabla",
    "torsion_residual",
    "metric_compatibility_residual",
    "parallel_j_residual",
    "metric_gradient",
]


def _assemble(gamma: np.ndarray, vv: np.ndarray, vh: np.ndarray, hh: np.ndarray) -> np.ndarray:
    """``Gamma[..., a, b, c]`` from the base Christoffel symbols and the three
    fiber blocks; leading axes are carried through."""
    n = vv.shape[-1]
    out = np.zeros(vv.shape[:-3] + (2 * n, 2 * n, 2 * n), np.result_type(gamma, vv, vh, hh))
    out[..., :n, :n, :n] = np.einsum("...hij->...ijh", gamma)
    out[..., :n, :n, n:] = np.einsum("...hij->...ijh", hh)
    out[..., :n, n:, :n] = np.einsum("...hji->...ijh", vh)
    out[..., :n, n:, n:] = -np.einsum("...jih->...ijh", gamma)
    out[..., n:, :n, :n] = np.einsum("...hij->...ijh", vh)
    out[..., n:, n:, n:] = vv
    return out


def connection_coefficients(
    pt: CotangentPoint, params: ModelParams, jets: FiberJets
) -> np.ndarray:
    """General-profile coefficients from the metric fiber jets.

    These are the Koszul formula specialized to the adapted frame, with the
    frame's nonvanishing brackets (curvature and Christoffel rows) folded in.
    """
    gh, gv, dgh, dgv = jets.gh, jets.gv, jets.dgh, jets.dgv
    pr = pt.p_riemann

    sym = dgv + np.einsum("...jik->...ijk", dgv) - np.einsum("...kij->...ijk", dgv)
    vv = 0.5 * np.einsum("...hk,...ijk->...ijh", gh, sym)

    vh = 0.5 * np.einsum(
        "...hk,...ijk->...hij", gv, dgh - np.einsum("...il,...ljk->...ijk", gv, pr)
    )

    hh = -0.5 * np.einsum("...hk,...kij->...hij", gh, dgh) + 0.5 * pr

    return _assemble(pt.gamma, vv, vh, hh)


def kahler_connection_coefficients(
    pt: CotangentPoint, params: ModelParams, profile
) -> np.ndarray:
    """Closed-form coefficients at the integrable coupling ``a = sqrt(2c)``.

    Written directly in terms of ``(c, t, v, v')``; independent of the
    fiber-jet route, so agreement between the two is a real check.
    """
    if not params.is_integrable:
        raise GeometryError(
            "closed-form connection requires the integrable coupling a = sqrt(2c)"
        )
    n, c, t = pt.n, params.c, pt.t
    v, dv, _ = profile.jet(t)
    sq = np.sqrt(2.0 * c * t)
    eye = np.eye(n)
    p, pu, g, g_inv = pt.p, pt.p_up, pt.g, pt.g_inv

    vv = (
        -_scale(1.0 / (4.0 * t), 3)
        * (np.einsum("ih,...j->...ijh", eye, pu) + np.einsum("jh,...i->...ijh", eye, pu))
        + _scale((c - sq * v) / (4.0 * c * t), 3) * np.einsum("...ij,...h->...ijh", g_inv, p)
        + _scale((v * v - sq * dv) / (4.0 * t * (c + sq * v)), 3)
        * np.einsum("...i,...j,...h->...ijh", pu, pu, p)
    )

    vh = -np.einsum("...ihj->...hij", vv)

    hh = (
        -_scale((c + sq * v) / 2.0, 3)
        * (np.einsum("...ij,...h->...hij", g, p) + np.einsum("...hi,...j->...hij", g, p))
        + _scale((c - sq * v) / 2.0, 3) * np.einsum("...hj,...i->...hij", g, p)
        - _scale((2.0 * v * v + sq * dv + 2.0 * t * v * dv) / 2.0, 3)
        * np.einsum("...h,...i,...j->...hij", p, p, p)
    )

    return _assemble(pt.gamma, vv, vh, hh)


def connection_fiber_derivatives(
    pt: CotangentPoint, params: ModelParams, jets: FiberJets
) -> np.ndarray:
    """Fiber 1-jet ``dGamma[m, a, b, c] = d Gamma[a, b, c] / dp_m``, used by
    the curvature assembly.

    Differentiates the general formulas termwise; the only genuinely new
    ingredient is ``d(p . R)/dp_m``, which returns the bare curvature.  The
    base Christoffel block does not depend on ``p``.
    """
    gh, gv, dgh, dgv = jets.gh, jets.gv, jets.dgh, jets.dgv
    ddgh, ddgv = jets.ddgh, jets.ddgv
    pr, riem = pt.p_riemann, pt.riemann
    # The factors that the metric blocks contract with are built with the
    # summed index k first: sym[k, i, j] and inner[k, i, j] of
    # connection_coefficients, and their fiber derivatives dsym[m, k, i, j]
    # and dinner[m, k, i, j].  gh_m and gv_m broadcast over that m.
    gh_m, gv_m = gh[..., None, :, :], gv[..., None, :, :]

    sym = np.einsum("...ijk->...kij", dgv) + np.einsum("...jik->...kij", dgv) - dgv
    dsym = np.einsum("...mijk->...mkij", ddgv) + np.einsum("...mjik->...mkij", ddgv) - ddgv
    dvv = 0.5 * np.einsum(
        "...mhij->...mijh", _contract(dgh, sym, 3) + _contract(gh_m, dsym, 3)
    )

    inner = np.einsum("...ijk->...kij", dgh - _contract(gv, pr, 3))
    dinner = np.einsum(
        "...mijk->...mkij", ddgh - _contract(dgv, pr, 3) - _contract(gv_m, riem, 3)
    )
    dvh = 0.5 * (_contract(dgv, inner, 3) + _contract(gv_m, dinner, 3))

    dhh = -0.5 * (_contract(dgh, dgh, 3) + _contract(gh_m, ddgh, 3)) + 0.5 * riem

    return _assemble(np.zeros_like(dhh), dvv, dvh, dhh)


# ---- covariant derivatives of fields ----


def parallel_j_residual(conn: np.ndarray, jets: FiberJets, metric_grad: np.ndarray):
    """``max |nabla_a (J e_b) - J nabla_a e_b|`` over all frame pairs, per
    center; ``jets`` are the fiber jets at the centers.

    ``J = M G`` with the constant ``M = [[0, -I], [I, 0]]``, the matrix of
    ``canonical_coordinate_form``, so the frame gradient of the ``J`` field
    is ``M`` times ``metric_grad`` (see ``metric_gradient``), entry for
    entry.
    """
    j_op = assemble_complex_structure(jets)
    grad_j = canonical_coordinate_form(j_op.shape[-1] // 2) @ metric_grad
    # [a, c, b]: sum_b' Gamma[a, b', c] J[b', b] and sum_d J[c, d] Gamma[a, b, d].
    conn_t = np.swapaxes(conn, -2, -1)
    nabla_j = grad_j + conn_t @ j_op[..., None, :, :]
    expected = j_op[..., None, :, :] @ conn_t
    return _max_abs(nabla_j - expected, rank=3)


# ---- independent Koszul route ----


def metric_gradient(params: ModelParams, profile, stencil: Stencil) -> np.ndarray:
    """``dG[..., a, b, c] = e_a G[b, c]`` at the centers of ``stencil``: one
    frame gradient of the metric field, shared by the Koszul oracle, the
    compatibility residual and the parallel-J residual."""
    return stencil.frame_gradient(lambda rows: assemble_metric(rows.blocks_of(params, profile)))


def koszul_nabla(pt: CotangentPoint, jets: FiberJets, metric_grad: np.ndarray) -> np.ndarray:
    """``Gamma[..., a, b, c]`` from the Koszul formula with finite differences.

    ``2 G(nabla_a b, c) = a<b,c> + b<a,c> - c<a,b> + <[a,b],c> - <[a,c],b>
    - <[b,c],a>``; derivative terms come from ``metric_grad`` (see
    ``metric_gradient``), bracket terms from the closed-form structure
    constants, and ``jets`` give the metric at ``pt``.
    """
    lowered = frame_brackets(pt) @ assemble_metric(jets)[..., None, :, :]
    rhs = (
        metric_grad
        + np.einsum("...bac->...abc", metric_grad)
        - np.einsum("...cab->...abc", metric_grad)
        + lowered
        - np.einsum("...acb->...abc", lowered)
        - np.einsum("...bca->...abc", lowered)
    )
    inverse = assemble_metric(MetricBlocks(gh=jets.gv, gv=jets.gh))
    return 0.5 * rhs @ inverse[..., None, :, :]


# ---- residuals ----


def torsion_residual(pt: CotangentPoint, conn: np.ndarray):
    """``max |nabla_a b - nabla_b a - [a, b]|`` over all frame pairs."""
    return _max_abs(conn - np.swapaxes(conn, -3, -2) - frame_brackets(pt), rank=3)


def metric_compatibility_residual(conn: np.ndarray, jets: FiberJets, metric_grad: np.ndarray):
    """``max |e_a<b,c> - <nabla_a b, c> - <b, nabla_a c>|`` over frame
    triples, with ``e_a<b,c>`` from ``metric_grad`` (see ``metric_gradient``)."""
    lowered = conn @ assemble_metric(jets)[..., None, :, :]
    return _max_abs(metric_grad - lowered - np.swapaxes(lowered, -2, -1), rank=3)
