"""The generic base-geometry route, the reference for ``cotangent_kahler.base``.

``base.space_form_metric`` builds Christoffel symbols and curvature from two
closed forms that hold on a space form only.  This module builds them the
long way, for any conformally flat metric ``g = I / f(x)^2``: the exact
2-jet of ``g`` from the 2-jet of the conformal factor ``f``, the Christoffel
symbols from the Koszul bracket of ``dg``, their coordinate derivative from
``ddg``, and the curvature tensor in the package's convention

    R^h_{kij} = d_i Gamma^h_{jk} - d_j Gamma^h_{ik}
                + Gamma^h_{il} Gamma^l_{jk} - Gamma^h_{jl} Gamma^l_{ik}.

Nothing here assumes constant curvature.  The tests compare the closed forms
against it, and the off-space-form fixtures hand its ``geometry`` to
``CotangentPoint.from_base``.  Every function takes a leading batch axis,
like the package, and works in the dtype of its input, so that a complex-step
derivative runs through it.  ``constant_profile`` is the constant fiber
profile ``v(t) = v0`` that the batch and metric-block tests build on.
"""

from dataclasses import dataclass

import numpy as np

from cotangent_kahler.base import BaseGeometry, ModelParams
from cotangent_kahler.profiles import VProfile


@dataclass(frozen=True)
class MetricJet:
    """2-jet of the base metric: ``dg[..., k, i, j] = d_k g_ij`` and
    ``ddg[..., l, k, i, j] = d_l d_k g_ij``."""

    g: np.ndarray
    g_inv: np.ndarray
    dg: np.ndarray
    ddg: np.ndarray


def _scalar(x, rank: int) -> np.ndarray:
    return np.asarray(x)[(...,) + (None,) * rank]


def conformal_jet(x: np.ndarray, f, grad_f: np.ndarray, hess_f: np.ndarray) -> MetricJet:
    """Exact 2-jet of ``g = I / f^2`` from the 2-jet of ``f`` at ``x``:
    ``f`` has shape ``(...)``, ``grad_f`` ``(..., n)`` and ``hess_f``
    ``(..., n, n)``."""
    eye = np.eye(np.shape(x)[-1])
    # d_k (f^-2) = -2 f^-3 d_k f
    dg = np.einsum("ij,...k->...kij", eye, -2.0 * grad_f / _scalar(f**3, 1))
    # d_l d_k (f^-2) = 6 f^-4 (d_l f)(d_k f) - 2 f^-3 d_l d_k f
    outer = grad_f[..., :, None] * grad_f[..., None, :]
    dd_factor = 6.0 * outer / _scalar(f**4, 2) - 2.0 * hess_f / _scalar(f**3, 2)
    ddg = np.einsum("ij,...lk->...lkij", eye, dd_factor)
    return MetricJet(g=eye / _scalar(f**2, 2), g_inv=eye * _scalar(f**2, 2), dg=dg, ddg=ddg)


def space_form_jet(x: np.ndarray, params: ModelParams) -> MetricJet:
    """The 2-jet of the curvature-``c`` space form in the stereographic
    chart, ``f = 1 + c |x|^2 / 4``."""
    x = np.asarray(x)
    c = params.c
    f = 1.0 + 0.25 * c * np.einsum("...i,...i->...", x, x)
    hess_f = np.broadcast_to(0.5 * c * np.eye(params.n), x.shape + (params.n,))
    return conformal_jet(x, f, 0.5 * c * x, hess_f)


def _koszul_bracket(dg: np.ndarray) -> np.ndarray:
    """``b[..., i, j, l] = d_i g_jl + d_j g_il - d_l g_ij``."""
    return dg + np.einsum("...jil->...ijl", dg) - np.einsum("...lij->...ijl", dg)


def christoffel(jet: MetricJet) -> np.ndarray:
    """Christoffel symbols ``Gamma^k_{ij}``, indexed ``[..., k, i, j]``."""
    return 0.5 * np.einsum("...kl,...ijl->...kij", jet.g_inv, _koszul_bracket(jet.dg))


def christoffel_derivative(jet: MetricJet) -> np.ndarray:
    """Coordinate derivatives ``d_m Gamma^k_{ij}``, indexed ``[..., m, k, i, j]``."""
    dginv = -np.einsum("...ka,...mab,...bl->...mkl", jet.g_inv, jet.dg, jet.g_inv)
    # d_m b[i, j, l] with ddg[m, k, i, j] = d_m d_k g_ij
    dbracket = jet.ddg + np.einsum("...mjil->...mijl", jet.ddg) - np.einsum("...mlij->...mijl", jet.ddg)
    return 0.5 * np.einsum("...mkl,...ijl->...mkij", dginv, _koszul_bracket(jet.dg)) + 0.5 * np.einsum(
        "...kl,...mijl->...mkij", jet.g_inv, dbracket
    )


def geometry(jet: MetricJet) -> BaseGeometry:
    """Metric, inverse, Christoffel symbols and curvature tensor of the jet."""
    gamma = christoffel(jet)
    dgamma = christoffel_derivative(jet)
    riemann = (
        np.einsum("...ihjk->...hkij", dgamma)
        - np.einsum("...jhik->...hkij", dgamma)
        + np.einsum("...hil,...ljk->...hkij", gamma, gamma)
        - np.einsum("...hjl,...lik->...hkij", gamma, gamma)
    )
    return BaseGeometry(g=jet.g, g_inv=jet.g_inv, gamma=gamma, riemann=riemann)


def bumped_geometry(x: np.ndarray, c: float, eps: float) -> BaseGeometry:
    """The geometry of ``f = 1 + c |x|^2 / 4 + eps x_0^3``: the space form's
    conformal factor with a cubic bump, so ``R`` is not of constant
    curvature.  The fixture of the tests that leave the space forms."""
    x = np.asarray(x)
    f = 1.0 + 0.25 * c * np.einsum("...i,...i->...", x, x) + eps * x[..., 0] ** 3
    grad_f = 0.5 * c * x
    grad_f[..., 0] += 3.0 * eps * x[..., 0] ** 2
    hess_f = np.broadcast_to(0.5 * c * np.eye(x.shape[-1]), x.shape + x.shape[-1:]).astype(x.dtype)
    hess_f[..., 0, 0] += 6.0 * eps * x[..., 0]
    return geometry(conformal_jet(x, f, grad_f, hess_f))


def constant_profile(v0: float) -> VProfile:
    """``v(t) = v0``, with zero derivatives."""
    return VProfile(
        kind=f"constant({v0})",
        v=lambda t: np.full(np.shape(t), v0),
        dv=lambda t: np.zeros(np.shape(t)),
        d2v=lambda t: np.zeros(np.shape(t)),
    )
