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
them.  Both coefficient routes and ``connection_fiber_derivatives`` keep
the point's leading batch axis; the fields differentiated here are built at
all stencil points of a coordinate in one call.
"""

from __future__ import annotations

import numpy as np

from .base import ModelParams, _scale
from .errors import GeometryError
from .fd import FDConfig, frame_gradient
from .mtensor import CotangentPoint, FiberJets, assemble_metric, fiber_jets, frame_brackets
from .structure import assemble_complex_structure

__all__ = [
    "connection_coefficients",
    "kahler_connection_coefficients",
    "connection_fiber_derivatives",
    "covariant_field_derivative",
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
    out = np.zeros(vv.shape[:-3] + (2 * n, 2 * n, 2 * n))
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


# ---- covariant derivatives of fields ----


def covariant_field_derivative(
    pt: CotangentPoint, conn: np.ndarray, field, value: np.ndarray, cfg: FDConfig
) -> np.ndarray:
    """``nabla_{e_a}`` of a field of frame vectors, along every direction.

    ``field(q, p)`` takes a batch of points, ``q`` and ``p`` of shape ``(m,
    n)``, and returns ``(m, ...)``: per point, axis 0 holds frame components
    and further axes label independent vector fields.  ``value`` is the field
    at ``pt`` itself, which the caller already has.  The result is ``out[a,
    c, ...]``, the ``c``-th component of ``nabla_{e_a} V``: one frame
    gradient differentiates the components, and the frame's own rotation
    enters through ``conn``.
    """
    grad = frame_gradient(field, pt.q, pt.p, pt.gamma, cfg)
    grad += np.einsum("abc,b...->ac...", conn, value)
    return grad


def parallel_j_residual(
    params: ModelParams, profile, pt: CotangentPoint, jets: FiberJets, cfg: FDConfig
) -> float:
    """``max |nabla_a (J e_b) - J nabla_a e_b|`` over all frame pairs, from
    one frame gradient of the ``J`` field; ``jets`` are the fiber jets at
    ``pt``."""

    def j_field(q: np.ndarray, p: np.ndarray) -> np.ndarray:
        point = CotangentPoint.at(q, p, params)
        return assemble_complex_structure(fiber_jets(point, params, profile))

    conn = connection_coefficients(pt, params, jets)
    j_op = assemble_complex_structure(jets)
    nabla_j = covariant_field_derivative(pt, conn, j_field, j_op, cfg)
    expected = np.einsum("cd,abd->acb", j_op, conn)
    return float(np.max(np.abs(nabla_j - expected)))


# ---- independent Koszul route ----


def metric_gradient(params: ModelParams, profile, pt: CotangentPoint, cfg: FDConfig) -> np.ndarray:
    """``dG[a, b, c] = e_a G[b, c]``: one frame gradient of the metric field
    ``(q, p) -> G``, shared by the Koszul oracle and the compatibility
    residual."""

    def field(q: np.ndarray, p: np.ndarray) -> np.ndarray:
        point = CotangentPoint.at(q, p, params)
        return assemble_metric(fiber_jets(point, params, profile))

    return frame_gradient(field, pt.q, pt.p, pt.gamma, cfg)


def koszul_nabla(pt: CotangentPoint, jets: FiberJets, metric_grad: np.ndarray) -> np.ndarray:
    """``Gamma[a, b, c]`` from the Koszul formula with finite differences.

    ``2 G(nabla_a b, c) = a<b,c> + b<a,c> - c<a,b> + <[a,b],c> - <[a,c],b>
    - <[b,c],a>``; derivative terms come from ``metric_grad`` (see
    ``metric_gradient``), bracket terms from the closed-form structure
    constants, and ``jets`` give the metric at ``pt``.
    """
    n = pt.n
    lowered = frame_brackets(pt) @ assemble_metric(jets)
    rhs = (
        metric_grad
        + np.einsum("bac->abc", metric_grad)
        - np.einsum("cab->abc", metric_grad)
        + lowered
        - np.einsum("acb->abc", lowered)
        - np.einsum("bca->abc", lowered)
    )
    zero = np.zeros((n, n))
    inverse = np.block([[jets.gv, zero], [zero, jets.gh]])
    return 0.5 * rhs @ inverse


# ---- residuals ----


def torsion_residual(pt: CotangentPoint, conn: np.ndarray) -> float:
    """``max |nabla_a b - nabla_b a - [a, b]|`` over all frame pairs."""
    return float(np.max(np.abs(conn - np.swapaxes(conn, 0, 1) - frame_brackets(pt))))


def metric_compatibility_residual(
    conn: np.ndarray, jets: FiberJets, metric_grad: np.ndarray
) -> float:
    """``max |e_a<b,c> - <nabla_a b, c> - <b, nabla_a c>|`` over frame
    triples, with ``e_a<b,c>`` from ``metric_grad`` (see ``metric_gradient``)."""
    lowered = conn @ assemble_metric(jets)
    return float(np.max(np.abs(metric_grad - lowered - np.swapaxes(lowered, 1, 2))))
