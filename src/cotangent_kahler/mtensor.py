"""Pointwise data on the punctured cotangent bundle and the fiber metric jets.

Every field of interest here is an M-tensor: its components at ``(q, p)``
are built from the base metric, the momentum covector, and the energy
density ``t = g^{ik} p_i p_k / 2``.  Such fields are parallel along the
horizontal distribution -- their frame derivative ``d/dq^k + p . Gamma_k
d/dp`` equals the usual Christoffel corrections -- so all genuinely new
information sits in the fiber derivatives ``d/dp_k``, which this module
supplies in closed form through second order.

The adapted frame is indexed ``0..2n-1``: ``e_i = delta_i = d/dq^i +
p_k Gamma^k_{ih} d/dp_h`` for ``i < n`` (horizontal), ``e_{n+i} = d/dp_i``
(vertical).  Every frame object is one array over these indices, with any
output index last.  The bundle metric ``G`` is block diagonal in this frame:
a weighted Sasaki-type block ``a sqrt(t) g_ij + v(t) p_i p_j`` on horizontal
vectors and its matrix inverse on vertical ones.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .base import (
    MetricJet,
    ModelParams,
    base_curvature,
    space_form_metric,
)
from .errors import GeometryError, PositivityError, ZeroSectionError

__all__ = [
    "ZERO_SECTION_TOL",
    "energy_density",
    "CotangentPoint",
    "FiberJets",
    "horizontal_metric",
    "vertical_metric",
    "fiber_jets",
    "assemble_metric",
    "frame_brackets",
    "chart_frame",
]

ZERO_SECTION_TOL = 1e-12


def energy_density(g_inv: np.ndarray, p: np.ndarray) -> float:
    """``t = g^{ik} p_i p_k / 2``; rejects points on the zero section."""
    with np.errstate(invalid="ignore", over="ignore"):
        t = 0.5 * float(p @ g_inv @ p)
    if not np.isfinite(t):
        raise GeometryError("energy density is not finite")
    if t < ZERO_SECTION_TOL:
        raise ZeroSectionError(
            f"energy density {t:.3e} below {ZERO_SECTION_TOL:.0e}; "
            "the structure degenerates on the zero section"
        )
    return t


# ---- point data ----


@dataclass(frozen=True)
class CotangentPoint:
    """Everything the fiberwise formulas need at one point ``(q, p)``.

    ``g``, ``g_inv``, ``gamma[k, i, j] = Gamma^k_{ij}`` and ``riemann[h, k,
    i, j] = R^h_{kij}`` describe the base at ``q``; ``p_up`` is the momentum
    with raised index, ``p_gamma[i, h] = p_k Gamma^k_{ih}`` feeds the
    horizontal frame, and ``p_riemann[k, i, j] = p_h R^h_{kij}`` is the
    curvature contracted with the momentum.
    """

    q: np.ndarray
    p: np.ndarray
    t: float
    g: np.ndarray = field(repr=False)
    g_inv: np.ndarray = field(repr=False)
    gamma: np.ndarray = field(repr=False)
    riemann: np.ndarray = field(repr=False)
    p_up: np.ndarray = field(repr=False)
    p_gamma: np.ndarray = field(repr=False)
    p_riemann: np.ndarray = field(repr=False)

    @property
    def n(self) -> int:
        return self.p.shape[0]

    @classmethod
    def from_jet(cls, q: np.ndarray, p: np.ndarray, jet: MetricJet) -> "CotangentPoint":
        p = np.asarray(p, dtype=float)
        if p.shape != (jet.n,):
            raise GeometryError(f"momentum shape {p.shape} does not match dimension {jet.n}")
        curv = base_curvature(jet)
        return cls(
            q=np.asarray(q, dtype=float),
            p=p,
            t=energy_density(jet.g_inv, p),
            g=jet.g,
            g_inv=jet.g_inv,
            gamma=curv.gamma,
            riemann=curv.riemann,
            p_up=jet.g_inv @ p,
            p_gamma=np.einsum("k,kih->ih", p, curv.gamma),
            p_riemann=np.einsum("h,hkij->kij", p, curv.riemann),
        )

    @classmethod
    def at(cls, q: np.ndarray, p: np.ndarray, params: ModelParams) -> "CotangentPoint":
        """The point over the curvature-``c`` space form; reads only
        ``params.n`` and ``params.c``, so one point serves every coupling
        and profile."""
        return cls.from_jet(q, p, space_form_metric(q, params))


# ---- bundle metric blocks and their fiber jets ----


@dataclass(frozen=True)
class FiberJets:
    """Metric blocks with fiber derivatives through second order.

    ``gh`` is the horizontal block, ``gv`` the vertical one; ``dgh[k, i, j]
    = d gh_ij / d p_k`` and likewise ``ddgh[l, k, i, j]``, ``dgv[m, k, l]``,
    ``ddgv[r, m, k, l]``.
    """

    gh: np.ndarray
    gv: np.ndarray
    dgh: np.ndarray
    ddgh: np.ndarray
    dgv: np.ndarray
    ddgv: np.ndarray


def _check_positivity(pt: CotangentPoint, a: float, v: float) -> float:
    """Radial eigenvalue ``a sqrt(t) + 2 t v``; the metric is positive iff
    it is (the complementary eigenvalue ``a sqrt(t)`` always is)."""
    radial = a * np.sqrt(pt.t) + 2.0 * pt.t * v
    if radial <= 0.0:
        raise PositivityError(
            f"horizontal block degenerates: a*sqrt(t) + 2*t*v = {radial:.3e} <= 0 "
            f"at t = {pt.t:.6g}"
        )
    return radial


def horizontal_metric(pt: CotangentPoint, params: ModelParams, profile) -> np.ndarray:
    """``a sqrt(t) g_ij + v(t) p_i p_j`` with the positivity bound enforced."""
    v = float(profile.v(pt.t))
    _check_positivity(pt, params.a_metric, v)
    return params.a_metric * np.sqrt(pt.t) * pt.g + v * np.outer(pt.p, pt.p)


def vertical_metric(pt: CotangentPoint, params: ModelParams, profile) -> np.ndarray:
    """Matrix inverse of the horizontal block, in closed form:
    ``g^kl / (a sqrt(t)) + w p^k p^l`` with ``w = -v / (a t (a + 2 sqrt(t) v))``."""
    a = params.a_metric
    v = float(profile.v(pt.t))
    _check_positivity(pt, a, v)
    w = -v / (a * pt.t * (a + 2.0 * np.sqrt(pt.t) * v))
    return pt.g_inv / (a * np.sqrt(pt.t)) + w * np.outer(pt.p_up, pt.p_up)


def _w_jet(t: float, a: float, v: float, dv: float, d2v: float) -> tuple[float, float, float]:
    """``w = -v/D`` with ``D = a^2 t + 2 a t^(3/2) v``, plus ``w'``, ``w''``."""
    st = np.sqrt(t)
    d0 = a * a * t + 2.0 * a * t * st * v
    d1 = a * a + 3.0 * a * st * v + 2.0 * a * t * st * dv
    d2 = 1.5 * a * v / st + 6.0 * a * st * dv + 2.0 * a * t * st * d2v
    w = -v / d0
    w1 = -dv / d0 + v * d1 / d0**2
    w2 = -d2v / d0 + (2.0 * dv * d1 + v * d2) / d0**2 - 2.0 * v * d1**2 / d0**3
    return w, w1, w2


def fiber_jets(pt: CotangentPoint, params: ModelParams, profile) -> FiberJets:
    """Metric blocks and their first and second fiber derivatives.

    Everything follows from ``dt/dp_k = p^k`` and the product rule; the
    vertical block's jet uses the quotient-rule chain for ``w`` rather than
    differentiating the matrix inverse, so tests can cross-check one route
    against the other.
    """
    n, t, a = pt.n, pt.t, params.a_metric
    st = np.sqrt(t)
    g, g_inv, p, pu = pt.g, pt.g_inv, pt.p, pt.p_up
    v, dv, d2v = (float(x) for x in profile.jet(t))
    _check_positivity(pt, a, v)
    eye = np.eye(n)

    pp = np.outer(p, p)
    dpp = np.einsum("ki,j->kij", eye, p) + np.einsum("kj,i->kij", eye, p)

    gh = a * st * g + v * pp
    dgh = (
        (0.5 * a / st) * np.einsum("k,ij->kij", pu, g)
        + dv * np.einsum("k,ij->kij", pu, pp)
        + v * dpp
    )
    ddgh = (
        a * np.einsum("ij,lk->lkij", g, g_inv / (2.0 * st) - np.outer(pu, pu) / (4.0 * t * st))
        + d2v * np.einsum("l,k,ij->lkij", pu, pu, pp)
        + dv
        * (
            np.einsum("lk,ij->lkij", g_inv, pp)
            + np.einsum("k,lij->lkij", pu, dpp)
            + np.einsum("l,kij->lkij", pu, dpp)
        )
        + v * (np.einsum("ki,lj->lkij", eye, eye) + np.einsum("kj,li->lkij", eye, eye))
    )

    w, w1, w2 = _w_jet(t, a, v, dv, d2v)
    pupu = np.outer(pu, pu)
    dpupu = np.einsum("mk,l->mkl", g_inv, pu) + np.einsum("ml,k->mkl", g_inv, pu)

    gv = g_inv / (a * st) + w * pupu
    dgv = (
        -np.einsum("kl,m->mkl", g_inv, pu) / (2.0 * a * t * st)
        + w1 * np.einsum("m,kl->mkl", pu, pupu)
        + w * dpupu
    )
    ddgv = (
        np.einsum(
            "kl,rm->rmkl",
            g_inv,
            3.0 * np.outer(pu, pu) / (4.0 * a * t * t * st) - g_inv / (2.0 * a * t * st),
        )
        + w2 * np.einsum("r,m,kl->rmkl", pu, pu, pupu)
        + w1
        * (
            np.einsum("mr,kl->rmkl", g_inv, pupu)
            + np.einsum("m,rkl->rmkl", pu, dpupu)
            + np.einsum("r,mkl->rmkl", pu, dpupu)
        )
        + w * (np.einsum("mk,rl->rmkl", g_inv, g_inv) + np.einsum("ml,rk->rmkl", g_inv, g_inv))
    )

    return FiberJets(gh=gh, gv=gv, dgh=dgh, ddgh=ddgh, dgv=dgv, ddgv=ddgv)


def assemble_metric(jets: FiberJets) -> np.ndarray:
    """The ``(2n, 2n)`` bundle metric ``G``: horizontal and vertical blocks
    on the diagonal, no mixing in the adapted frame."""
    n = jets.gh.shape[0]
    out = np.zeros((2 * n, 2 * n))
    out[:n, :n] = jets.gh
    out[n:, n:] = jets.gv
    return out


def frame_brackets(pt: CotangentPoint) -> np.ndarray:
    """Structure constants ``C[a, b, c]`` of the adapted frame,
    ``[e_a, e_b] = C[a, b, c] e_c``.

    Every bracket is vertical: two horizontals give the momentum-contracted
    curvature, a vertical and a horizontal give a Christoffel row, two
    verticals commute.
    """
    n = pt.n
    out = np.zeros((2 * n, 2 * n, 2 * n))
    out[:n, :n, n:] = np.einsum("kij->ijk", pt.p_riemann)
    out[n:, :n, n:] = pt.gamma
    out[:n, n:, n:] = -np.einsum("jik->ijk", pt.gamma)
    return out


def chart_frame(pt: CotangentPoint) -> np.ndarray:
    """Chart components of the frame, ``E = [[I, 0], [p_gamma^T, I]]``:
    column ``a`` holds ``e_a`` in the ``(q, p)`` chart.  ``E`` is unipotent,
    so its inverse is ``2 I - E``."""
    n = pt.n
    out = np.eye(2 * n)
    out[n:, :n] = pt.p_gamma.T
    return out
