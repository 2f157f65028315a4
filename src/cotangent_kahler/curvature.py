"""Curvature tensor of the bundle metric: assembly, Ricci, probes.

The curvature is one ``(2n)^4`` array ``K[a, b, c, d]``, the ``d``-th
component of ``K(e_a, e_b) e_c`` over the frame ``0..2n-1`` (horizontal
first).  It is assembled from six closed-form blocks, written in math
layout ``[output, in1, in2, in3]`` and named by their input kinds: ``hhh``,
``vvh`` and ``vhv`` have horizontal outputs, ``hhv``, ``vvv`` and ``vhh``
vertical ones, and antisymmetry in the first two slots supplies the
horizontal/vertical inputs.  Every entry with an odd number of vertical
slots vanishes (a fact the finite-difference oracle checks rather than
assumes).

The Ricci tensor is produced twice: by tracing ``K``, and from closed
forms in ``(c, t, v, v', v'')`` valid at the integrable coupling.  The two
routes share no code.  Everything but the finite-difference oracles keeps
the point's leading batch axis: the covariant derivative of ``K`` builds its
field at all stencil points of a coordinate in one call, and the suites
check a whole sample at once; probes are per point, a float for one point.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .base import ModelParams, _max_abs, _outer, _per_point, _scale
from .connection import (
    connection_coefficients,
    connection_fiber_derivatives,
    covariant_field_derivative,
)
from .errors import GeometryError
from .fd import FDConfig
from .mtensor import CotangentPoint, FiberJets, fiber_jets, frame_brackets

__all__ = [
    "RicciBlocks",
    "odd_slots",
    "curvature_blocks",
    "ricci_from_blocks",
    "ricci_closed_form",
    "ricci_trace_coefficient",
    "pair_symmetry_residual",
    "holomorphic_sectional_curvature",
    "curvature_fd",
    "nabla_curvature",
    "nabla_curvature_probe",
    "second_bianchi_residual",
]


@dataclass(frozen=True)
class RicciBlocks:
    """Ricci tensor blocks on (horizontal, horizontal) and (vertical,
    vertical) frame pairs; the mixed blocks vanish."""

    hh: np.ndarray
    vv: np.ndarray


def odd_slots(n: int) -> np.ndarray:
    """Mask of the ``(2n)^4`` curvature entries with an odd number of
    vertical slots, which vanish for the block-diagonal metric."""
    vertical = (np.arange(2 * n) >= n).astype(int)
    return sum(np.ix_(vertical, vertical, vertical, vertical)) % 2 == 1


def curvature_blocks(pt: CotangentPoint, params: ModelParams, jets: FiberJets) -> np.ndarray:
    """Assemble ``K[a, b, c, d]`` from the connection and its fiber 1-jet.

    Horizontal derivatives of the coefficient arrays never appear: every
    coefficient is an M-tensor, so its horizontal frame derivative is
    Christoffel bookkeeping that cancels inside the commutators, leaving
    base curvature terms and fiber derivatives only.
    """
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


# ---- Ricci, two routes ----


def ricci_from_blocks(curvature: np.ndarray) -> RicciBlocks:
    """``Ric(e_b, e_c) = K[a, b, c, a]``, traced over the whole frame."""
    n = curvature.shape[-1] // 2
    ricci = np.einsum("...abca->...bc", curvature)
    return RicciBlocks(hh=ricci[..., :n, :n], vv=ricci[..., n:, n:])


def ricci_trace_coefficient(params: ModelParams, profile, t):
    """Coefficient of ``g_jk/2`` in the horizontal Ricci block:
    ``(n-2) c - (n+1) sqrt(2c) sqrt(t) v - 2 sqrt(2c) t^(3/2) v'``."""
    n, c = params.n, params.c
    v, dv, _ = profile.jet(t)
    s2c = np.sqrt(2.0 * c)
    return (n - 2.0) * c - (n + 1.0) * s2c * np.sqrt(t) * v - 2.0 * s2c * t ** 1.5 * dv


@np.errstate(over="raise")
def _radial_coefficients(params: ModelParams, profile, t):
    """Coefficients of the rank-one parts of the two Ricci blocks.

    Their powers of ``t`` overflow far outside the default energy window;
    that raises, on an array as on a float, rather than giving an ``inf``."""
    n, c = params.n, params.c
    v, dv, d2v = profile.jet(t)
    s2c = np.sqrt(2.0 * c)
    alpha = (
        (2.0 - n) * c
        - (2.0 * n + 2.0) * t * v * v
        - (2.0 * n + 6.0) * s2c * t**1.5 * dv
        - (4.0 * n + 16.0) * t**2 * v * dv
        - 4.0 * s2c * t**2.5 * d2v
        - 8.0 * t**3 * v * d2v
    )
    beta = (
        (2.0 - n) * c
        - (n - 2.0) * s2c * np.sqrt(t) * v
        + 2.0 * (n + 1.0) * t * v * v
        + 4.0 * t**2 * v * dv
        - 2.0 * (n + 3.0) * s2c * t**1.5 * dv
        - 4.0 * s2c * t**2.5 * d2v
    )
    return alpha, beta


def ricci_closed_form(pt: CotangentPoint, params: ModelParams, profile) -> RicciBlocks:
    """Closed-form Ricci blocks at the integrable coupling.

    Horizontal block: ``(a/2) g_jk + (alpha/4t) p_j p_k``.  Vertical block:
    ``(a/4ct) g^jk`` plus a rank-one part along the raised momentum whose
    denominator carries the admissibility quantity ``sqrt(c) + sqrt(2t) v``.
    """
    if not params.is_integrable:
        raise GeometryError("closed-form Ricci requires the integrable coupling a = sqrt(2c)")
    c, t = params.c, pt.t
    v = profile.jet(t)[0]
    a_tr = ricci_trace_coefficient(params, profile, t)
    alpha, beta = _radial_coefficients(params, profile, t)
    admis = np.sqrt(c) + np.sqrt(2.0 * t) * v
    hh = _scale(0.5 * a_tr, 2) * pt.g + _scale(alpha / (4.0 * t), 2) * _outer(pt.p, pt.p)
    vv = _scale(a_tr / (4.0 * c * t), 2) * pt.g_inv + _scale(
        beta / (8.0 * np.sqrt(c) * t**2 * admis), 2
    ) * _outer(pt.p_up, pt.p_up)
    return RicciBlocks(hh=hh, vv=vv)


# ---- pointwise probes ----


def pair_symmetry_residual(curvature: np.ndarray, metric: np.ndarray, vectors):
    """``max |<K(X,Y)Z, W> - <K(Z,W)X, Y>|`` over ``vectors[..., m, :, :] = (X,
    Y, Z, W)``, an array of shape ``(..., m, 4, 2n)``."""
    lowered = curvature @ metric[..., None, None, :, :]
    x, y, z, w = np.moveaxis(np.asarray(vectors, dtype=float), -2, 0)
    lhs = np.einsum("...abcd,...ma,...mb,...mc,...md->...m", lowered, x, y, z, w)
    rhs = np.einsum("...abcd,...ma,...mb,...mc,...md->...m", lowered, z, w, x, y)
    return _max_abs(lhs - rhs, rank=1)


def holomorphic_sectional_curvature(
    curvature: np.ndarray, metric: np.ndarray, j_op: np.ndarray, x: np.ndarray
):
    """``G(K(X, JX)JX, X) / G(X, X)^2``, invariant under rescaling of X."""
    jx = np.matvec(j_op, x)
    gx = np.matvec(metric, x)
    norm_sq = np.vecdot(x, gx)
    if np.any(norm_sq <= 0.0):
        raise GeometryError("holomorphic sectional curvature needs a nonnull vector")
    k_jx_jx = np.matvec(np.matvec(curvature, gx[..., None, None, :]), jx[..., None, :])
    return _per_point(np.vecdot(x, np.matvec(k_jx_jx, jx)) / norm_sq**2)


# ---- finite-difference oracles ----


def _vector_field(build, params: ModelParams, profile):
    """Field ``(q, p) -> build(point, params, jets)`` over a batch of points,
    with the output index (last) moved next to the batch axis, as
    ``covariant_field_derivative`` expects."""

    def field(q: np.ndarray, p: np.ndarray) -> np.ndarray:
        point = CotangentPoint.at(q, p, params)
        return np.moveaxis(build(point, params, fiber_jets(point, params, profile)), -1, 1)

    return field


def curvature_fd(
    params: ModelParams, profile, pt: CotangentPoint, jets: FiberJets, cfg: FDConfig
) -> np.ndarray:
    """``K(e_a, e_b)e_c = nabla_a nabla_b e_c - nabla_b nabla_a e_c -
    nabla_[a,b] e_c`` from the definition, by one frame gradient of the
    connection field; ``jets`` are the fiber jets at ``pt``.  The curvature
    block formulas are never consulted, and tracing the result over ``a =
    d`` gives the Ricci tensor, mixed block included."""
    conn = connection_coefficients(pt, params, jets)
    field = _vector_field(connection_coefficients, params, profile)
    value = np.moveaxis(conn, -1, 0)
    second = np.moveaxis(covariant_field_derivative(pt, conn, field, value, cfg), 1, -1)
    bracket_term = np.einsum("abf,fcd->abcd", frame_brackets(pt), conn)
    return second - np.swapaxes(second, 0, 1) - bracket_term


# ---- covariant derivative of the curvature ----


def nabla_curvature(
    params: ModelParams, profile, pt: CotangentPoint, jets: FiberJets, cfg: FDConfig
) -> np.ndarray:
    """``(nabla_{e_w} K)[w, a, b, c, d]`` by the Leibniz rule.

    The value term is one frame gradient of the assembled ``K`` field; the
    three correction terms use ``K`` and the connection at ``pt``, built
    from its fiber ``jets``.
    """
    conn = connection_coefficients(pt, params, jets)
    curv = curvature_blocks(pt, params, jets)
    field = _vector_field(curvature_blocks, params, profile)
    value = np.moveaxis(curv, -1, 0)
    nabla = np.moveaxis(covariant_field_derivative(pt, conn, field, value, cfg), 1, -1)
    nabla -= np.einsum("waf,fbcd->wabcd", conn, curv)
    nabla -= np.einsum("wbf,afcd->wabcd", conn, curv)
    nabla -= np.einsum("wcf,abfd->wabcd", conn, curv)
    return nabla


def nabla_curvature_probe(
    params: ModelParams, profile, pt: CotangentPoint, jets: FiberJets, cfg: FDConfig
) -> float:
    """Largest component of ``nabla K`` at one point.

    A value above a small floor witnesses the failure of local symmetry.
    """
    return float(np.max(np.abs(nabla_curvature(params, profile, pt, jets, cfg))))


def second_bianchi_residual(
    params: ModelParams, profile, pt: CotangentPoint, jets: FiberJets, cfg: FDConfig
) -> float:
    """``max |cyclic_{W,A,B} (nabla_W K)(A, B)Z|`` over every frame entry."""
    nabla = nabla_curvature(params, profile, pt, jets, cfg)
    cyclic = nabla + np.einsum("abwcd->wabcd", nabla) + np.einsum("bwacd->wabcd", nabla)
    return float(np.max(np.abs(cyclic)))
