"""Pointwise data on the punctured cotangent bundle and the fiber metric jets.

Every field of interest here is an M-tensor: its components at ``(q, p)``
are built from the base metric, the momentum covector, and the energy
density ``t = g^{ik} p_i p_k / 2``.  Such fields are parallel along the
horizontal distribution -- their frame derivative ``d/dq^k + p . Gamma_k
d/dp`` equals the usual Christoffel corrections -- so all genuinely new
information sits in the fiber derivatives ``d/dp_k``, which this module
supplies in closed form through second order (``fiber_jets``).  The metric
blocks alone come from ``metric_blocks``, which ``fiber_jets`` builds on;
a finite-difference field builds only what it differentiates, so the
metric, 2-form and Nijenhuis fields skip the ``n^4`` second jets.  The jets
keep ``base``'s contraction rule: each term is a broadcast product, with
its scalar coefficients folded into ``n^2`` factors first, and its
permutation rule: a second jet is symmetrized by two ``_permute`` gathers.
Their einsum forms are the test-side reference,
``tests/kernel_reference.py``.

The adapted frame is indexed ``0..2n-1``: ``e_i = delta_i = d/dq^i +
p_k Gamma^k_{ih} d/dp_h`` for ``i < n`` (horizontal), ``e_{n+i} = d/dp_i``
(vertical).  Every frame object is one array over these indices, with any
output index last.  The bundle metric ``G`` is block diagonal in this frame:
a weighted Sasaki-type block ``a sqrt(t) g_ij + v(t) p_i p_j`` on horizontal
vectors and its matrix inverse on vertical ones.

The point data, the fiber jets and the frame arrays carry a leading batch
axis: ``CotangentPoint.at`` on ``q, p`` of shape ``(..., n)`` gives a point
whose ``t`` has shape ``(...)`` and whose arrays start with ``...``, and the
functions below keep that axis.  A single point is a batch of shape
``()``, with a 0-d ``t``.  The guards (zero section, positivity) raise if
any point of a batch fails them, naming the first failing value.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import NamedTuple

import numpy as np

from .base import BaseGeometry, ModelParams, _outer, _pair_outer, _pair_outer4, _scale, space_form_metric
from .errors import GeometryError, PositivityError, ZeroSectionError

__all__ = [
    "ZERO_SECTION_TOL",
    "energy_density",
    "CotangentPoint",
    "MetricBlocks",
    "metric_blocks",
    "FiberJets",
    "fiber_jets",
    "assemble_metric",
    "frame_brackets",
    "chart_frame",
    "take_rows",
    "Rows",
]

ZERO_SECTION_TOL = 1e-12


def energy_density(g_inv: np.ndarray, p: np.ndarray):
    """``t = g^{ik} p_i p_k / 2`` over the batch of ``p``, of shape ``(...,
    n)``; rejects points on the zero section."""
    # vecmat and vecdot conjugate their first argument; the conj() calls undo
    # that (see base.space_form_metric).
    with np.errstate(invalid="ignore", over="ignore"):
        t = 0.5 * np.vecdot(np.vecmat(p.conj(), g_inv).conj(), p)
    if not np.isfinite(t).all():
        raise GeometryError("energy density is not finite")
    low = t.real < ZERO_SECTION_TOL
    if low.any():
        raise ZeroSectionError(
            f"energy density {np.extract(low, t.real)[0]:.3e} below {ZERO_SECTION_TOL:.0e}; "
            "the structure degenerates on the zero section"
        )
    return t


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
    t: np.ndarray
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
    def from_base(cls, q: np.ndarray, p: np.ndarray, base: BaseGeometry) -> "CotangentPoint":
        """The point over the base geometry ``base`` at ``q``."""
        p = np.asarray(p)
        if p.shape != base.g.shape[:-1]:
            raise GeometryError(f"momentum shape {p.shape} does not match dimension {base.g.shape[-1]}")
        return cls(
            q=np.asarray(q),
            p=p,
            t=energy_density(base.g_inv, p),
            g=base.g,
            g_inv=base.g_inv,
            gamma=base.gamma,
            riemann=base.riemann,
            p_up=np.matvec(base.g_inv, p),
            p_gamma=np.einsum("...k,...kih->...ih", p, base.gamma),
            p_riemann=np.einsum("...h,...hkij->...kij", p, base.riemann),
        )

    @classmethod
    def at(cls, q: np.ndarray, p: np.ndarray, params: ModelParams) -> "CotangentPoint":
        """The point over the curvature-``c`` space form; reads only
        ``params.n`` and ``params.c``, so one point serves every coupling
        and profile."""
        return cls.from_base(q, p, space_form_metric(q, params))


# ---- bundle metric blocks and their fiber jets ----


class MetricBlocks(NamedTuple):
    """The horizontal block ``gh`` and the vertical block ``gv`` of the
    bundle metric, each after the point's batch axes."""

    gh: np.ndarray
    gv: np.ndarray


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
    slice gives a smaller batch of views, ``...`` the whole batch, an integer
    a batch of shape ``()``."""
    return type(batch)(**{f.name: getattr(batch, f.name)[index] for f in fields(batch)})


def _check_positivity(pt: CotangentPoint, a: float, v):
    """Radial eigenvalue ``a sqrt(t) + 2 t v``; the metric is positive iff
    it is (the complementary eigenvalue ``a sqrt(t)`` always is)."""
    radial = a * np.sqrt(pt.t) + 2.0 * pt.t * v
    bad = radial.real <= 0.0
    if bad.any():
        raise PositivityError(
            "horizontal block degenerates: a*sqrt(t) + 2*t*v = "
            f"{np.extract(bad, radial.real)[0]:.3e} <= 0 at t = {np.extract(bad, pt.t.real)[0]:.6g}"
        )
    return radial


def _w_denominator(t, a: float, v):
    """``D = a^2 t + 2 a t^(3/2) v``, so that ``w = -v/D``; elementwise over
    the batch."""
    return a * a * t + 2.0 * a * t * np.sqrt(t) * v


def _w_jet(t, a: float, v, dv, d2v):
    """``w = -v/D`` (see ``_w_denominator``), plus ``w'``, ``w''``;
    elementwise over the batch."""
    st = np.sqrt(t)
    d0 = _w_denominator(t, a, v)
    d1 = a * a + 3.0 * a * st * v + 2.0 * a * t * st * dv
    d2 = 1.5 * a * v / st + 6.0 * a * st * dv + 2.0 * a * t * st * d2v
    w = -v / d0
    w1 = -dv / d0 + v * d1 / d0**2
    w2 = -d2v / d0 + (2.0 * dv * d1 + v * d2) / d0**2 - 2.0 * v * d1**2 / d0**3
    return w, w1, w2


def metric_blocks(pt: CotangentPoint, params: ModelParams, profile) -> MetricBlocks:
    """The metric blocks alone, with the positivity bound enforced.

    The horizontal block is ``a sqrt(t) g_ij + v(t) p_i p_j``; the vertical
    block is its matrix inverse in closed form, ``g^kl / (a sqrt(t)) + w p^k
    p^l`` with ``w = -v / (a t (a + 2 sqrt(t) v))``.
    """
    t, a = pt.t, params.a_metric
    v = np.asarray(profile.v(t))
    _check_positivity(pt, a, v)
    st = np.sqrt(t)
    gh = _scale(a * st, 2) * pt.g + _scale(v, 2) * _outer(pt.p, pt.p)
    w = -v / _w_denominator(t, a, v)
    gv = pt.g_inv / _scale(a * st, 2) + _scale(w, 2) * _outer(pt.p_up, pt.p_up)
    return MetricBlocks(gh=gh, gv=gv)


def fiber_jets(pt: CotangentPoint, params: ModelParams, profile) -> FiberJets:
    """Metric blocks (from ``metric_blocks``) and their first and second
    fiber derivatives.

    Everything follows from ``dt/dp_k = p^k`` and the product rule; the
    vertical block's jet uses the quotient-rule chain for ``w`` rather than
    differentiating the matrix inverse, so tests can cross-check one route
    against the other.
    """
    return _jets_on(pt, params, profile, metric_blocks(pt, params, profile))


def _outer4(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """``x[l, k] y[i, j]`` at ``[..., l, k, i, j]``."""
    return x[..., :, :, None, None] * y[..., None, None, :, :]


def _jets_on(pt: CotangentPoint, params: ModelParams, profile, blocks: MetricBlocks) -> FiberJets:
    """``fiber_jets`` on the member's ``metric_blocks``, built already.  Each
    second jet is three broadcast products of size ``n^4``, of factors of
    size ``n^2`` that hold the scalar coefficients."""
    gh, gv = blocks
    t, a = pt.t, params.a_metric
    st = np.sqrt(t)
    g, g_inv, p, pu = pt.g, pt.g_inv, pt.p, pt.p_up
    v, dv, d2v = profile.jet(t)
    eye = np.eye(pt.n)
    pp, pupu = _outer(p, p), _outer(pu, pu)

    dgh = pu[..., :, None, None] * (_scale(0.5 * a / st, 2) * g + _scale(dv, 2) * pp)[..., None, :, :]
    dgh = dgh + _pair_outer(eye, _scale(v, 1) * p)
    # ddgh[l, k, i, j]: the Kronecker terms carry v/2 on their factor's diagonal.
    ddgh = (
        _outer4(a * (g_inv / _scale(2.0 * st, 2) - pupu / _scale(4.0 * t * st, 2)), g)
        + _outer4(_scale(d2v, 2) * pupu + _scale(dv, 2) * g_inv, pp)
        + _pair_outer4(eye, _scale(dv, 2) * _outer(pu, p) + _scale(0.5 * v, 2) * eye)
    )

    w, w1, w2 = _w_jet(t, a, v, dv, d2v)
    dgv = pu[..., :, None, None] * (_scale(w1, 2) * pupu - g_inv / _scale(2.0 * a * t * st, 2))[..., None, :, :]
    dgv = dgv + _pair_outer(g_inv, _scale(w, 1) * pu)
    ddgv = (
        _outer4(3.0 * pupu / _scale(4.0 * a * t * t * st, 2) - g_inv / _scale(2.0 * a * t * st, 2), g_inv)
        + _outer4(_scale(w2, 2) * pupu + _scale(w1, 2) * g_inv, pupu)
        + _pair_outer4(g_inv, _scale(w1, 2) * pupu + _scale(0.5 * w, 2) * g_inv)
    )

    return FiberJets(gh=gh, gv=gv, dgh=dgh, ddgh=ddgh, dgv=dgv, ddgv=ddgv)


class Rows:
    """Chart rows ``q, p`` of shape ``(m, n)``, or ``(n,)`` for one point,
    real or complex, with the point ``points = point_at(q, p)`` and each
    member's metric blocks and fiber jets built once: the jets are built on
    the kept blocks.  A member is its params and its profile object, so
    members that differ in the coupling, ``k_a``/``k_b`` or the profile
    never share an entry.  Other layers keep their own per-member values
    with the rows through ``memo``.  Everything kept lives as long as the
    rows; a build that raises is not kept.  Real rows are the base of the
    ``fd.Stencil`` at their first rows, which builds its point on the same
    ``point_at``."""

    def __init__(self, q: np.ndarray, p: np.ndarray, point_at) -> None:
        self.q, self.p, self._point_at = q, p, point_at
        self._memo: dict = {}

    def memo(self, key, build):
        """``build()``, called on the first request for ``key`` and kept as
        long as the rows are."""
        if key not in self._memo:
            self._memo[key] = build()
        return self._memo[key]

    @property
    def points(self) -> CotangentPoint:
        return self.memo("points", lambda: self._point_at(self.q, self.p))

    def blocks_of(self, params: ModelParams, profile) -> MetricBlocks:
        return self.memo(("blocks", params, profile), lambda: metric_blocks(self.points, params, profile))

    def jets_of(self, params: ModelParams, profile) -> FiberJets:
        build = lambda: _jets_on(self.points, params, profile, self.blocks_of(params, profile))
        return self.memo(("jets", params, profile), build)


def assemble_metric(blocks: MetricBlocks | FiberJets) -> np.ndarray:
    """The ``(..., 2n, 2n)`` bundle metric ``G``: horizontal and vertical
    blocks on the diagonal, no mixing in the adapted frame.  Reads only
    ``blocks.gh`` and ``blocks.gv``."""
    n = blocks.gh.shape[-1]
    out = np.zeros(blocks.gh.shape[:-2] + (2 * n, 2 * n), np.result_type(blocks.gh, blocks.gv))
    out[..., :n, :n] = blocks.gh
    out[..., n:, n:] = blocks.gv
    return out


def frame_brackets(pt: CotangentPoint) -> np.ndarray:
    """Structure constants ``C[a, b, c]`` of the adapted frame,
    ``[e_a, e_b] = C[a, b, c] e_c``.

    Every bracket is vertical: two horizontals give the momentum-contracted
    curvature, a vertical and a horizontal give a Christoffel row, two
    verticals commute.
    """
    n = pt.n
    out = np.zeros(pt.p.shape[:-1] + (2 * n,) * 3, np.result_type(pt.p_riemann, pt.gamma))
    out[..., :n, :n, n:] = np.einsum("...kij->...ijk", pt.p_riemann)
    out[..., n:, :n, n:] = pt.gamma
    out[..., :n, n:, n:] = -np.einsum("...jik->...ijk", pt.gamma)
    return out


def chart_frame(pt: CotangentPoint) -> np.ndarray:
    """Chart components of the frame, ``E = [[I, 0], [p_gamma^T, I]]``:
    column ``a`` holds ``e_a`` in the ``(q, p)`` chart.  ``E`` is unipotent,
    so its inverse is ``2 I - E``."""
    n = pt.n
    out = np.zeros(pt.p.shape[:-1] + (2 * n, 2 * n), pt.p_gamma.dtype)
    out[..., :, :] = np.eye(2 * n)
    out[..., n:, :n] = np.swapaxes(pt.p_gamma, -1, -2)
    return out
