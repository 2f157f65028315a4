"""Curvature tensor of the bundle metric: assembly, Ricci, probes.

The curvature is one ``(2n)^4`` array ``K[a, b, c, d]``, the ``d``-th
component of ``K(e_a, e_b) e_c`` over the frame ``0..2n-1`` (horizontal
first).  It is assembled from six closed-form blocks, each built in the
layout it is stored in, ``[in1, in2, in3, output]``, and named by the kinds
of its three inputs: ``hhh``, ``vvh`` and ``vhv`` have horizontal outputs,
``hhv``, ``vvv`` and ``vhh`` vertical ones, and antisymmetry in the first
two slots supplies the horizontal/vertical inputs.  Every entry with an
odd number of vertical slots vanishes (a fact the finite-difference oracle
checks rather than assumes).  The six blocks hold all of ``K`` in 6 n^4
entries, against the 16 n^4 of the assembled array, and the assembly is
linear: ``nabla_curvature`` differentiates the field of the six blocks,
stacked on one axis, and assembles their gradient once.

Every function here keeps the contraction rule of ``base``: each product
term is one batched ``@`` (``base._contract``, a lowered matrix or a
reshaped ``K``), and ``np.einsum`` only permutes axes or takes a trace.
That covers the Leibniz terms of the finite-difference oracles too: the
connection terms of ``curvature_fd`` and ``nabla_curvature`` and the
bracket term of ``curvature_fd``.  The six blocks keep its permutation
rule: an axis permutation that feeds arithmetic is one ``base._permute``
gather.  Their einsum and ``matvec`` forms are the test-side reference,
``tests/kernel_reference.py``.

The Ricci tensor is produced twice: by tracing ``K``, and from closed
forms in ``(c, t, v, v', v'')`` valid at the integrable coupling.  The two
routes share no code.  Everything here keeps the point's leading batch
axis; the finite-difference oracles differentiate on a stencil
(``fd.Stencil``).  Probes give one value per point of the batch.

``K`` is built by ``curvature_from_connection`` from a given connection
and the three fiber blocks of its fiber 1-jet
(``connection._fiber_derivative_blocks``).  Nothing here keeps a ``K``:
``nabla_curvature`` is handed the centers' ``K``, which the suites read
from a curvature pass's record (``suites.Sample.kept``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .base import ModelParams, _contract, _max_abs, _outer, _permute, _scale
from .connection import _fiber_derivative_blocks, center_connection, connection_coefficients, connection_on
from .errors import GeometryError
from .fd import Stencil
from .mtensor import CotangentPoint, FiberJets, Rows, frame_brackets

__all__ = [
    "RicciBlocks",
    "odd_slots",
    "curvature_from_connection",
    "curvature_blocks",
    "ricci_from_blocks",
    "ricci_closed_form",
    "ricci_trace_coefficient",
    "pair_symmetry_residual",
    "holomorphic_sectional_curvature",
    "curvature_fd",
    "nabla_curvature",
    "nabla_curvature_probe",
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


def _curvature_block_parts(pt: CotangentPoint, params: ModelParams, jets: FiberJets, conn: np.ndarray):
    """The six stored blocks of ``K``, ``(hhh, hhv, vvh, vvv, vhh, vhv)``,
    each ``[..., i, j, k, d]`` in the layout of the module docstring, built
    from the connection ``conn`` at ``pt`` and the three fiber blocks of its
    fiber 1-jet.

    Horizontal derivatives of the coefficient arrays never appear: every
    coefficient is an M-tensor, so its horizontal frame derivative is
    Christoffel bookkeeping that cancels inside the commutators, leaving
    base curvature terms and fiber derivatives only.
    """
    n = pt.n
    h, v = slice(None, n), slice(n, None)
    # The connection blocks in frame layout, output last, as contiguous
    # copies: vh[i, j, d] = Gamma[n+i, j, d], hh[i, j, d] = Gamma[i, j, n+d]
    # and so on.  The *_l gathers put the summed index first.  The fiber
    # derivatives dvh[m, d, i, j] = d vh[i, j, d] / dp_m and dhh keep the
    # math layout, output second, and each use below gathers them.
    blocks = conn[..., v, v, v], conn[..., v, h, h], conn[..., h, h, v]
    vv, vh, hh = (np.ascontiguousarray(x) for x in blocks)
    dvv, dvh, dhh = _fiber_derivative_blocks(pt, params, jets)
    vv_l, vh_l, hh_l = (_permute(x, "ild->lid") for x in (vv, vh, hh))
    pr_l = _permute(pt.p_riemann, "lij->ijl")
    riem = pt.riemann

    # The eight products, each [x, y, z, d] = sum_l a[x, y, l] b[l, z, d].
    pr_vh, pr_vv = _contract(pr_l, vh, 3), _contract(pr_l, vv, 3)
    hh_vh, vh_hh = _contract(hh, vh, 3), _contract(vh, hh_l, 3)
    vh_vh, vv_vv = _contract(vh, vh_l, 3), _contract(vv, vv_l, 3)
    hh_vv, vv_vh = _contract(hh, vv_l, 3), _contract(vv, vh, 3)
    # Drop the copies: the blocks below are where this function's memory peaks.
    del vv, vh, hh, vv_l, vh_l, hh_l, pr_l

    def skew(x):
        """``x[j, k, i, d] - x[i, k, j, d]`` at ``[i, j, k, d]``: a product
        antisymmetrized in the first two inputs, as in a commutator."""
        return _permute(x, "jkid->ijkd") - _permute(x, "ikjd->ijkd")

    # Each block holds component d of K(e_i, e_j) e_k at [i, j, k, d], with
    # e_i, e_j, e_k of the frame kinds its name spells.
    hhh = _permute(riem, "dkij->ijkd") - pr_vh + skew(hh_vh)
    hhv = _permute(vh_hh, "kjid->ijkd") - _permute(vh_hh, "kijd->ijkd") - _permute(riem, "kdij->ijkd") - pr_vv
    vvh = _permute(dvh, "idjk->ijkd") - _permute(dvh, "jdik->ijkd") + skew(vh_vh)
    vvv = dvv - _permute(dvv, "jikd->ijkd") + skew(vv_vv)
    vhh = _permute(dhh, "idjk->ijkd") + _permute(hh_vv, "jkid->ijkd") - _permute(vh_hh, "ikjd->ijkd")
    vhv = _permute(dvh, "idkj->ijkd") - _permute(vv_vh, "ikjd->ijkd") + _permute(vh_vh, "kjid->ijkd")
    return hhh, hhv, vvh, vvv, vhh, vhv


def _assemble_curvature(hhh, hhv, vvh, vvv, vhh, vhv) -> np.ndarray:
    """``K[..., a, b, c, d]`` from its six stored blocks, leading axes
    carried through; linear in the blocks, so it also assembles their
    derivatives."""
    n = hhh.shape[-1]
    h, v = slice(None, n), slice(n, None)
    out = np.zeros(hhh.shape[:-4] + (2 * n,) * 4, np.result_type(hhh, hhv, vvh, vvv, vhh, vhv))
    out[..., h, h, h, h] = hhh
    out[..., h, h, v, v] = hhv
    out[..., v, v, h, h] = vvh
    out[..., v, v, v, v] = vvv
    out[..., v, h, h, v] = vhh
    out[..., h, v, h, v] = -np.swapaxes(vhh, -4, -3)
    out[..., v, h, v, h] = vhv
    out[..., h, v, v, h] = -np.swapaxes(vhv, -4, -3)
    return out


def curvature_from_connection(
    pt: CotangentPoint, params: ModelParams, jets: FiberJets, conn: np.ndarray
) -> np.ndarray:
    """Assemble ``K[a, b, c, d]`` from the connection ``conn`` at ``pt`` and
    its fiber 1-jet."""
    return _assemble_curvature(*_curvature_block_parts(pt, params, jets, conn))


def curvature_blocks(pt: CotangentPoint, params: ModelParams, jets: FiberJets) -> np.ndarray:
    """``curvature_from_connection`` on the connection built at ``pt``."""
    return curvature_from_connection(pt, params, jets, connection_coefficients(pt, params, jets))


# ---- Ricci, two routes ----


def ricci_from_blocks(curvature: np.ndarray) -> RicciBlocks:
    """``Ric(e_b, e_c) = K[a, b, c, a]``, traced over the whole frame."""
    n = curvature.shape[-1] // 2
    ricci = np.einsum("...abca->...bc", curvature)
    # Copies, so that a kept block does not hold the vanishing mixed ones.
    return RicciBlocks(hh=ricci[..., :n, :n].copy(), vv=ricci[..., n:, n:].copy())


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
    Y, Z, W)``, an array of shape ``(..., m, 4, 2n)``.

    The lowered curvature ``<K(e_a, e_b)e_c, e_d>`` is one ``(2n)^2 x
    (2n)^2`` matrix per point, rows ``ab`` and columns ``cd``: each side of
    the identity is one ``@`` of the ``X (x) Y`` rows against it and a
    ``vecdot`` with ``Z (x) W``, and the swapped pair reuses the matrix.
    """
    dim = curvature.shape[-1]
    lowered = _contract(curvature, metric, 2).reshape(curvature.shape[:-4] + (dim * dim,) * 2)
    x, y, z, w = np.moveaxis(np.asarray(vectors, dtype=float), -2, 0)
    xy = _outer(x, y).reshape(x.shape[:-1] + (dim * dim,))
    zw = _outer(z, w).reshape(z.shape[:-1] + (dim * dim,))
    return _max_abs(np.vecdot(xy @ lowered, zw) - np.vecdot(zw @ lowered, xy), rank=1)


def holomorphic_sectional_curvature(
    curvature: np.ndarray, metric: np.ndarray, j_op: np.ndarray, x: np.ndarray
):
    """``G(K(X, JX)JX, X) / G(X, X)^2``, invariant under rescaling of X.

    ``K`` is contracted with ``G X`` in its output slot and then with ``J X``
    in its third, each one batched ``@`` of ``K`` reshaped to a matrix."""
    jx = np.matvec(j_op, x)
    gx = np.matvec(metric, x)
    norm_sq = np.vecdot(x, gx)
    if np.any(norm_sq <= 0.0):
        raise GeometryError("holomorphic sectional curvature needs a nonnull vector")
    dim = x.shape[-1]
    k_gx = curvature.reshape(curvature.shape[:-4] + (dim**3, dim)) @ gx[..., None]
    k_jx_jx = k_gx.reshape(k_gx.shape[:-2] + (dim * dim, dim)) @ jx[..., None]
    k_jx_jx = k_jx_jx.reshape(k_jx_jx.shape[:-2] + (dim, dim))
    return np.vecdot(x, np.matvec(k_jx_jx, jx)) / norm_sq**2


# ---- finite-difference oracles ----


def curvature_fd(params: ModelParams, profile, stencil: Stencil) -> np.ndarray:
    """``K(e_a, e_b)e_c = nabla_a nabla_b e_c - nabla_b nabla_a e_c -
    nabla_[a,b] e_c`` at the centers of ``stencil`` from the definition, by
    one frame gradient of the connection field.  The curvature block
    formulas are never consulted, and tracing the result over ``a = d``
    gives the Ricci tensor, mixed block included."""
    pt, conn = stencil.centers, center_connection(params, profile, stencil)
    # (nabla_w nabla_a e_b)[c]: the gradient of conn[a, b, c] plus the
    # frame's rotation, conn[a, b, f] conn[w, f, c].
    second = stencil.frame_gradient(lambda rows: connection_on(rows, params, profile))
    second = second + _contract(conn[..., None, :, :, :], conn, 2)
    bracket_term = _contract(frame_brackets(pt), conn, 3)
    return second - np.swapaxes(second, -4, -3) - bracket_term


# ---- covariant derivative of the curvature ----


def nabla_curvature(params: ModelParams, profile, stencil: Stencil, curv: np.ndarray) -> np.ndarray:
    """``(nabla_{e_w} K)[..., w, a, b, c, d]`` at the centers of ``stencil``
    by the Leibniz rule, ``curv`` the member's ``K`` at those centers.

    The value term is one frame gradient of the field of the six stored
    blocks, assembled once, on the connection that ``curvature_fd``'s field
    keeps on the same rows; the four connection terms, one per slot of
    ``K``, are each one batched ``@`` of ``curv`` and the centers'
    ``center_connection``.
    """
    conn = center_connection(params, profile, stencil)

    def field(rows: Rows) -> np.ndarray:
        jets, rows_conn = rows.jets_of(params, profile), connection_on(rows, params, profile)
        return np.stack(_curvature_block_parts(rows.points, params, jets, rows_conn), axis=1)

    nabla = _assemble_curvature(*np.moveaxis(stencil.frame_gradient(field), -5, 0))
    # + conn[w, f, d] K[a, b, c, f], then - conn[w, s, f] K[.., f, ..] with
    # f in slot s = a, b, c: K is permuted to put f first, the product to
    # put w, a, b, c, d in order.
    nabla += _contract(curv[..., None, :, :, :, :], conn, 2)
    nabla -= _contract(conn, curv, 4)
    nabla -= np.swapaxes(_contract(conn, np.moveaxis(curv, -3, -4), 4), -4, -3)
    nabla -= np.moveaxis(_contract(conn, np.moveaxis(curv, -2, -4), 4), -4, -2)
    return nabla


def nabla_curvature_probe(params: ModelParams, profile, stencil: Stencil, curv: np.ndarray):
    """Largest component of ``nabla K`` at each center of ``stencil``, as in
    ``nabla_curvature``.

    A value above a small floor witnesses the failure of local symmetry.
    """
    return _max_abs(nabla_curvature(params, profile, stencil, curv), rank=5)
