"""Almost-complex structure, fundamental 2-form, and integrability tensor.

All frame objects are arrays over the adapted frame ``0..2n-1``
(horizontal first).  ``J`` is the ``(2n, 2n)`` matrix with ``J e_b = J[a, b]
e_a``: it sends horizontal to vertical through the horizontal metric block
and vertical to horizontal through minus the vertical block.  Its
fundamental 2-form has constant canonical components ``dp_i ^ dq^i`` in the
chart -- the pair is almost Kahler for every admissible profile -- so the
only obstruction to Kahler is the integrability tensor ``N[a, b, c]``, the
``c``-th component of ``N(e_a, e_b)``.  That tensor is controlled by a
single core object,

    core^h_{kij} = (a^2/2) (delta^h_i g_jk - delta^h_j g_ik) - R^h_{kij},

which vanishes exactly when ``a^2/2`` matches the sectional curvature of
the base, i.e. at the coupling ``a = sqrt(2 c)``.  Its closed form,
``nijenhuis_closed_form``, and the brackets of its oracle follow
``base``'s contraction rule, with their einsum forms in
``tests/kernel_reference.py``.

Everything here keeps a point's leading batch axis; the finite-difference
oracles differentiate on a stencil (``fd.Stencil``).  Residuals give one
value per point of the batch.
"""

from __future__ import annotations

import numpy as np

from .base import ModelParams, _contract, _max_abs
from .fd import Stencil
from .mtensor import CotangentPoint, FiberJets, MetricBlocks, Rows, assemble_metric, chart_frame

__all__ = [
    "assemble_complex_structure",
    "complex_structure_squared_residual",
    "hermitian_residual",
    "fundamental_form",
    "canonical_coordinate_form",
    "coordinate_form",
    "dform_residual",
    "nijenhuis_closed_form",
    "nijenhuis_numeric",
]


# ---- the endomorphism and its algebra ----


def assemble_complex_structure(blocks: MetricBlocks | FiberJets) -> np.ndarray:
    """``J = [[0, -gv], [gh, 0]]`` in the adapted frame; reads only
    ``blocks.gh`` and ``blocks.gv``."""
    n = blocks.gh.shape[-1]
    out = np.zeros(blocks.gh.shape[:-2] + (2 * n, 2 * n), np.result_type(blocks.gh, blocks.gv))
    out[..., :n, n:] = -blocks.gv
    out[..., n:, :n] = blocks.gh
    return out


def complex_structure_squared_residual(j_op: np.ndarray):
    """``max |J^2 + id|`` over all entries."""
    return _max_abs(j_op @ j_op + np.eye(j_op.shape[-1]), rank=2)


def hermitian_residual(metric: np.ndarray, j_op: np.ndarray):
    """``max |G(JX, JY) - G(X, Y)|`` over frame pairs."""
    return _max_abs(np.swapaxes(j_op, -1, -2) @ metric @ j_op - metric, rank=2)


def fundamental_form(metric: np.ndarray, j_op: np.ndarray) -> np.ndarray:
    """``phi(X, Y) = G(X, JY)`` on the frame."""
    return metric @ j_op


# ---- chart components of the 2-form ----


def canonical_coordinate_form(n: int) -> np.ndarray:
    """Chart components of ``dp_i ^ dq^i`` in the ordering ``(q, p)``."""
    out = np.zeros((2 * n, 2 * n))
    out[:n, n:] = -np.eye(n)
    out[n:, :n] = np.eye(n)
    return out


def coordinate_form(pt: CotangentPoint, form: np.ndarray) -> np.ndarray:
    """Push the frame components of a bilinear form to chart components.

    The chart vectors are the columns of ``E^-1 = 2 I - E``, so the chart
    components are ``E^-T form E^-1``; ``d/dq^i = delta_i - p_gamma[i, h]
    d/dp_h`` puts momentum-Christoffel corrections into the mixed blocks.
    """
    inverse = 2.0 * np.eye(2 * pt.n) - chart_frame(pt)
    return np.swapaxes(inverse, -1, -2) @ form @ inverse


def dform_residual(params: ModelParams, profile, stencil: Stencil):
    """``max |d phi|`` at each center of ``stencil``, from finite differences
    of the chart components.

    The exterior derivative of a 2-form in chart coordinates is the
    antisymmetrized partial derivative of its component matrix; evaluating
    it numerically exercises the whole metric/endomorphism pipeline rather
    than the constancy of the canonical matrix alone.
    """

    def phi_field(rows: Rows) -> np.ndarray:
        blocks = rows.blocks_of(params, profile)
        phi = fundamental_form(assemble_metric(blocks), assemble_complex_structure(blocks))
        return coordinate_form(rows.points, phi)

    grad = stencil.chart_gradient(phi_field)
    dphi = grad - np.einsum("...bac->...abc", grad) + np.einsum("...cab->...abc", grad)
    return _max_abs(dphi, rank=3)


# ---- integrability tensor ----


def nijenhuis_closed_form(
    pt: CotangentPoint, params: ModelParams, blocks: MetricBlocks | FiberJets
) -> np.ndarray:
    """``N[a, b, c]`` from the momentum-contracted core of the module
    docstring; reads only ``blocks.gv``.

    Two horizontals and two verticals give vertical outputs; mixed
    arguments give horizontal ones, routed through two copies of the
    vertical block, as batched ``@`` on ``shared[l, i, j] = core0[l, i, r]
    gv[j, r]``.
    """
    n = pt.n
    # p_i g_jk at [k, i, j], one broadcast product, less its (i, j) swap, and
    # the point's own p_h R^h_{kij}.
    pg = pt.p[..., None, :, None] * pt.g[..., :, None, :]
    core0 = 0.5 * params.a_metric**2 * (pg - np.swapaxes(pg, -2, -1)) - pt.p_riemann
    gv = blocks.gv[..., None, :, :]
    gv_t = np.swapaxes(gv, -1, -2)
    shared = core0 @ gv_t
    mixed = np.einsum("...lij->...ijl", shared) @ gv_t
    out = np.zeros(pt.p.shape[:-1] + (2 * n,) * 3, np.result_type(core0, gv))
    out[..., :n, :n, n:] = np.einsum("...kij->...ijk", core0)
    out[..., :n, n:, :n] = mixed
    out[..., n:, :n, :n] = -np.swapaxes(mixed, -3, -2)
    out[..., n:, n:, n:] = gv @ np.swapaxes(shared, -3, -1)
    return out


# ---- the numeric oracle ----


def _brackets(x, dx, y, dy) -> np.ndarray:
    """Chart Lie brackets ``[X_a, Y_b] = (dY_b) X_a - (dX_a) Y_b`` of the
    column fields of ``x`` and ``y``, indexed ``[..., a, chart, b]``; each
    term sums over the chart direction of the derivative as one batched
    ``@``."""
    dx_y = _contract(np.swapaxes(y, -1, -2), dx, 3)
    return _contract(np.swapaxes(x, -1, -2), dy, 3) - np.swapaxes(dx_y, -1, -3)


def nijenhuis_numeric(params: ModelParams, profile, stencil: Stencil) -> np.ndarray:
    """``N(X, Y) = [JX, JY] - J[JX, Y] - J[X, JY] - [X, Y]`` on every pair of
    frame fields at the centers of ``stencil``, assembled from chart-level
    brackets with no use of the closed form.

    The frame fields are the columns of the chart frame ``E`` and their
    images the columns of ``E J``; one finite-difference gradient of the
    stacked field ``(E, E J)`` yields every bracket.  A stencil on a base
    ``Rows`` built with another ``point_at`` runs the same oracle over bases
    that are not space forms.
    """
    pt, n = stencil.centers, stencil.centers.n

    def frame_fields(rows: Rows) -> np.ndarray:
        frame = chart_frame(rows.points)
        return np.stack([frame, frame @ assemble_complex_structure(rows.blocks_of(params, profile))], axis=-3)

    x = chart_frame(pt)
    j0 = assemble_complex_structure(stencil.center_blocks(params, profile))
    jx = x @ j0
    dx, djx = np.moveaxis(stencil.chart_gradient(frame_fields), -3, 0)
    # Each bracket's chart components go to the frame by one @, giving [a, c, b].
    to_frame = (2.0 * np.eye(2 * n) - x)[..., None, :, :]
    out = to_frame @ (_brackets(jx, djx, jx, djx) - _brackets(x, dx, x, dx))
    out = out - (j0[..., None, :, :] @ to_frame) @ (_brackets(jx, djx, x, dx) + _brackets(x, dx, jx, djx))
    return np.swapaxes(out, -1, -2)
