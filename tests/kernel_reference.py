"""The einsum forms of the curvature path, the reference for its matmul kernels.

``connection.connection_fiber_derivatives``, ``curvature.curvature_blocks``
and ``curvature.pair_symmetry_residual`` contract their arrays with one
batched ``@`` per term.  This module keeps the same formulas written term by
term as index expressions, in the math layout of the connection and
curvature module docstrings, so the tests can compare the two forms entry
for entry.  ``curvature_blocks`` here assembles ``K`` from the package's
``connection_coefficients`` and this module's ``connection_fiber_derivatives``.
Every function takes a leading batch axis, like the package.
"""

import numpy as np

from cotangent_kahler import CotangentPoint, FiberJets, ModelParams, connection_coefficients
from cotangent_kahler.base import _max_abs
from cotangent_kahler.connection import _assemble


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
