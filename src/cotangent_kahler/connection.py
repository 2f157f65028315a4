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

Both routes, ``_fiber_derivative_blocks``, the fiber derivatives of the
three fiber blocks, which feed the curvature, and ``parallel_j_residual``,
the connection terms of the parallel-J oracle, keep the contraction rule of
``base``: each outer product is one broadcast multiply, each sum one batched
``@`` (``base._contract`` or a transposed ``Gamma``), and ``np.einsum``
only permutes axes.  The fiber-jet route and the fiber derivatives keep its
permutation rule too: an axis permutation that feeds arithmetic is one
``base._permute`` gather.  Their einsum forms are the test-side reference,
``tests/kernel_reference.py``.

``connection_on`` keeps a member's coefficients with the rows they are
built on (``mtensor.Rows.memo``), as the rows keep its jets;
``center_connection`` reads a stencil's centers out of its base's.
"""

from __future__ import annotations

import numpy as np

from .base import ModelParams, _contract, _max_abs, _outer, _pair_outer, _permute, _scale
from .errors import GeometryError
from .fd import Stencil
from .mtensor import CotangentPoint, FiberJets, MetricBlocks, Rows, assemble_metric, frame_brackets
from .structure import assemble_complex_structure, canonical_coordinate_form

__all__ = [
    "connection_coefficients",
    "kahler_connection_coefficients",
    "connection_on",
    "center_connection",
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
    # The factors that the blocks contract with put the summed index k first,
    # sym[k, i, j] and inner[k, i, j], as in _fiber_derivative_blocks.
    sym = _permute(dgv, "jik->kij") + _permute(dgv, "ijk->kij") - dgv
    vv = 0.5 * np.einsum("...hij->...ijh", _contract(gh, sym, 3))

    inner = _permute(dgh - _contract(gv, pr, 3), "ijk->kij")
    vh = 0.5 * _contract(gv, inner, 3)

    hh = -0.5 * _contract(gh, dgh, 3) + 0.5 * pr

    return _assemble(pt.gamma, vv, vh, hh)


def connection_on(rows: Rows, params: ModelParams, profile) -> np.ndarray:
    """The member's ``connection_coefficients`` on all of ``rows``, built
    once per member and kept with the rows, keyed as ``Rows.jets_of``."""
    return rows.memo(
        ("connection", params, profile),
        lambda: connection_coefficients(rows.points, params, rows.jets_of(params, profile)),
    )


def center_connection(params: ModelParams, profile, stencil: Stencil) -> np.ndarray:
    """The member's connection at the centers of ``stencil``: the centers'
    rows of its ``connection_on`` the stencil's base, as ``center_jets``."""
    return connection_on(stencil.base, params, profile)[stencil.index]


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
    c, t = params.c, pt.t
    v, dv, _ = profile.jet(t)
    sq = np.sqrt(2.0 * c * t)
    p, pu, g, g_inv = pt.p, pt.p_up, pt.g, pt.g_inv

    # vv[i, j, h]: the Kronecker terms, and the i, j factor of p_h.
    vv = -np.einsum("...hij->...ijh", _pair_outer(np.eye(pt.n), pu / _scale(4.0 * t, 1))) + (
        _scale((c - sq * v) / (4.0 * c * t), 2) * g_inv
        + _scale((v * v - sq * dv) / (4.0 * t * (c + sq * v)), 2) * _outer(pu, pu)
    )[..., None] * p[..., None, None, :]

    vh = -np.einsum("...ihj->...hij", vv)

    # hh[h, i, j]: the i, j factor of p_h, then g_hi p_j and g_hj p_i.
    plus, minus = _scale((c + sq * v) / 2.0, 2) * g, _scale((c - sq * v) / 2.0, 2) * g
    cubic = _scale((2.0 * v * v + sq * dv + 2.0 * t * v * dv) / 2.0, 2) * _outer(p, p)
    hh = p[..., :, None, None] * (-plus - cubic)[..., None, :, :] - plus[..., None] * p[..., None, None, :]
    hh = hh + minus[..., :, None, :] * p[..., None, :, None]

    return _assemble(pt.gamma, vv, vh, hh)


def _fiber_derivative_blocks(pt: CotangentPoint, params: ModelParams, jets: FiberJets):
    """The fiber 1-jet of the connection, ``d Gamma[a, b, c] / dp_m``, as its
    three fiber blocks ``(dvv, dvh, dhh)``, each ``[..., m, ...]`` with the
    rest in the math layout of the module docstring; the curvature needs no
    more, as the base Christoffel block does not depend on ``p``.

    Differentiates the general formulas termwise; the only genuinely new
    ingredient is ``d(p . R)/dp_m``, which returns the bare curvature.
    """
    gh, gv, dgh, dgv = jets.gh, jets.gv, jets.dgh, jets.dgv
    ddgh, ddgv = jets.ddgh, jets.ddgv
    pr, riem = pt.p_riemann, pt.riemann
    # The factors that the metric blocks contract with are built with the
    # summed index k first: sym[k, i, j] and inner[k, i, j] of
    # connection_coefficients, and their fiber derivatives dsym[m, k, i, j]
    # and dinner[m, k, i, j].  gh_m and gv_m broadcast over that m.
    gh_m, gv_m = gh[..., None, :, :], gv[..., None, :, :]

    sym = _permute(dgv, "ijk->kij") + _permute(dgv, "jik->kij") - dgv
    dsym = _permute(ddgv, "mijk->mkij") + _permute(ddgv, "mjik->mkij") - ddgv
    dvv = 0.5 * np.einsum(
        "...mhij->...mijh", _contract(dgh, sym, 3) + _contract(gh_m, dsym, 3)
    )

    inner = _permute(dgh - _contract(gv, pr, 3), "ijk->kij")
    dinner = _permute(ddgh - _contract(dgv, pr, 3) - _contract(gv_m, riem, 3), "mijk->mkij")
    dvh = 0.5 * (_contract(dgv, inner, 3) + _contract(gv_m, dinner, 3))

    dhh = -0.5 * (_contract(dgh, dgh, 3) + _contract(gh_m, ddgh, 3)) + 0.5 * riem
    return dvv, dvh, dhh


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
