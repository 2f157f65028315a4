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

The point data, the fiber jets and the frame arrays carry a leading batch
axis: ``CotangentPoint.at`` on ``q, p`` of shape ``(..., n)`` gives a point
whose ``t`` has shape ``(...)`` and whose arrays start with ``...``, and the
functions below keep that axis.  A single point has no batch axis and a
float ``t``.  The guards (zero section, positivity) raise if any point of a
batch fails them, naming the first failing value.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

import numpy as np

from .base import (
    MetricJet,
    ModelParams,
    _outer,
    _per_point,
    _scale,
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
    "take_rows",
]

ZERO_SECTION_TOL = 1e-12


def energy_density(g_inv: np.ndarray, p: np.ndarray):
    """``t = g^{ik} p_i p_k / 2``; rejects points on the zero section.

    A float for one point, an array over the batch for ``p`` of shape
    ``(..., n)``.
    """
    with np.errstate(invalid="ignore", over="ignore"):
        t = 0.5 * np.vecdot(np.vecmat(p, g_inv), p)
    if not np.isfinite(t).all():
        raise GeometryError("energy density is not finite")
    low = t < ZERO_SECTION_TOL
    if low.any():
        raise ZeroSectionError(
            f"energy density {np.extract(low, t)[0]:.3e} below {ZERO_SECTION_TOL:.0e}; "
            "the structure degenerates on the zero section"
        )
    return _per_point(t)


# ---- point data ----


@dataclass(frozen=True)
class CotangentPoint:
    """Everything the fiberwise formulas need at one point ``(q, p)``, or at
    a batch of points (every field with a leading ``...``).

    ``g``, ``g_inv``, ``gamma[k, i, j] = Gamma^k_{ij}`` and ``riemann[h, k,
    i, j] = R^h_{kij}`` describe the base at ``q``; ``p_up`` is the momentum
    with raised index, ``p_gamma[i, h] = p_k Gamma^k_{ih}`` feeds the
    horizontal frame, and ``p_riemann[k, i, j] = p_h R^h_{kij}`` is the
    curvature contracted with the momentum.
    """

    q: np.ndarray
    p: np.ndarray
    t: float | np.ndarray
    g: np.ndarray = field(repr=False)
    g_inv: np.ndarray = field(repr=False)
    gamma: np.ndarray = field(repr=False)
    riemann: np.ndarray = field(repr=False)
    p_up: np.ndarray = field(repr=False)
    p_gamma: np.ndarray = field(repr=False)
    p_riemann: np.ndarray = field(repr=False)

    @property
    def n(self) -> int:
        return self.p.shape[-1]

    @classmethod
    def from_jet(cls, q: np.ndarray, p: np.ndarray, jet: MetricJet) -> "CotangentPoint":
        p = np.asarray(p, dtype=float)
        if p.shape != jet.g.shape[:-1]:
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
            p_up=np.matvec(jet.g_inv, p),
            p_gamma=np.einsum("...k,...kih->...ih", p, curv.gamma),
            p_riemann=np.einsum("...h,...hkij->...kij", p, curv.riemann),
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
    ``ddgv[r, m, k, l]``, each after the point's batch axes.
    """

    gh: np.ndarray
    gv: np.ndarray
    dgh: np.ndarray
    ddgh: np.ndarray
    dgv: np.ndarray
    ddgv: np.ndarray


def take_rows(batch, index):
    """The rows ``index`` of a batched ``CotangentPoint`` or ``FiberJets``: a
    slice gives a smaller batch of views, an integer one point (float ``t``)."""
    return type(batch)(**{f.name: _per_point(getattr(batch, f.name)[index]) for f in fields(batch)})


def _check_positivity(pt: CotangentPoint, a: float, v):
    """Radial eigenvalue ``a sqrt(t) + 2 t v``; the metric is positive iff
    it is (the complementary eigenvalue ``a sqrt(t)`` always is)."""
    radial = a * np.sqrt(pt.t) + 2.0 * pt.t * v
    bad = radial <= 0.0
    if bad.any():
        raise PositivityError(
            "horizontal block degenerates: a*sqrt(t) + 2*t*v = "
            f"{np.extract(bad, radial)[0]:.3e} <= 0 at t = {np.extract(bad, pt.t)[0]:.6g}"
        )
    return radial


def horizontal_metric(pt: CotangentPoint, params: ModelParams, profile) -> np.ndarray:
    """``a sqrt(t) g_ij + v(t) p_i p_j`` with the positivity bound enforced."""
    v = np.asarray(profile.v(pt.t), dtype=float)[()]
    _check_positivity(pt, params.a_metric, v)
    return _scale(params.a_metric * np.sqrt(pt.t), 2) * pt.g + _scale(v, 2) * _outer(pt.p, pt.p)


def vertical_metric(pt: CotangentPoint, params: ModelParams, profile) -> np.ndarray:
    """Matrix inverse of the horizontal block, in closed form:
    ``g^kl / (a sqrt(t)) + w p^k p^l`` with ``w = -v / (a t (a + 2 sqrt(t) v))``."""
    a = params.a_metric
    v = np.asarray(profile.v(pt.t), dtype=float)[()]
    _check_positivity(pt, a, v)
    w = -v / (a * pt.t * (a + 2.0 * np.sqrt(pt.t) * v))
    return pt.g_inv / _scale(a * np.sqrt(pt.t), 2) + _scale(w, 2) * _outer(pt.p_up, pt.p_up)


def _w_jet(t, a: float, v, dv, d2v):
    """``w = -v/D`` with ``D = a^2 t + 2 a t^(3/2) v``, plus ``w'``, ``w''``;
    elementwise over the batch."""
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
    v, dv, d2v = profile.jet(t)
    _check_positivity(pt, a, v)
    eye = np.eye(n)

    pp = _outer(p, p)
    dpp = np.einsum("ki,...j->...kij", eye, p) + np.einsum("kj,...i->...kij", eye, p)

    gh = _scale(a * st, 2) * g + _scale(v, 2) * pp
    dgh = (
        _scale(0.5 * a / st, 3) * np.einsum("...k,...ij->...kij", pu, g)
        + _scale(dv, 3) * np.einsum("...k,...ij->...kij", pu, pp)
        + _scale(v, 3) * dpp
    )
    ddgh = (
        a
        * np.einsum(
            "...ij,...lk->...lkij",
            g,
            g_inv / _scale(2.0 * st, 2) - _outer(pu, pu) / _scale(4.0 * t * st, 2),
        )
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

    gv = g_inv / _scale(a * st, 2) + _scale(w, 2) * pupu
    dgv = (
        -np.einsum("...kl,...m->...mkl", g_inv, pu) / _scale(2.0 * a * t * st, 3)
        + _scale(w1, 3) * np.einsum("...m,...kl->...mkl", pu, pupu)
        + _scale(w, 3) * dpupu
    )
    ddgv = (
        np.einsum(
            "...kl,...rm->...rmkl",
            g_inv,
            3.0 * _outer(pu, pu) / _scale(4.0 * a * t * t * st, 2)
            - g_inv / _scale(2.0 * a * t * st, 2),
        )
        + _scale(w2, 4) * np.einsum("...r,...m,...kl->...rmkl", pu, pu, pupu)
        + _scale(w1, 4)
        * (
            np.einsum("...mr,...kl->...rmkl", g_inv, pupu)
            + np.einsum("...m,...rkl->...rmkl", pu, dpupu)
            + np.einsum("...r,...mkl->...rmkl", pu, dpupu)
        )
        + _scale(w, 4)
        * (
            np.einsum("...mk,...rl->...rmkl", g_inv, g_inv)
            + np.einsum("...ml,...rk->...rmkl", g_inv, g_inv)
        )
    )

    return FiberJets(gh=gh, gv=gv, dgh=dgh, ddgh=ddgh, dgv=dgv, ddgv=ddgv)


def assemble_metric(jets: FiberJets) -> np.ndarray:
    """The ``(..., 2n, 2n)`` bundle metric ``G``: horizontal and vertical
    blocks on the diagonal, no mixing in the adapted frame."""
    n = jets.gh.shape[-1]
    out = np.zeros(jets.gh.shape[:-2] + (2 * n, 2 * n))
    out[..., :n, :n] = jets.gh
    out[..., n:, n:] = jets.gv
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
    out = np.zeros(pt.p.shape[:-1] + (2 * n, 2 * n))
    out[..., :, :] = np.eye(2 * n)
    out[..., n:, :n] = np.swapaxes(pt.p_gamma, -1, -2)
    return out
