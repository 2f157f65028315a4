"""Base manifold: a space form of constant positive sectional curvature.

The chart is the stereographic one, in which the round metric of sectional
curvature ``c > 0`` is conformally flat:

    g_ij(x) = delta_ij / f(x)^2,      f(x) = 1 + (c/4) |x|^2.

Everything downstream needs the 2-jet of ``g`` (values, first and second
coordinate derivatives), the Christoffel symbols, and the curvature tensor
with the sign convention

    R^h_{kij} = d_i Gamma^h_{jk} - d_j Gamma^h_{ik}
                + Gamma^h_{il} Gamma^l_{jk} - Gamma^h_{jl} Gamma^l_{ik},

pinned so that a space form satisfies
``R^l_{kij} = c (delta^l_i g_jk - delta^l_j g_ik)``.

General bases are not a production input; ``conformal_jet`` is exposed so
tests can build non-constant-curvature fixtures for falsification checks.

Every function here takes a leading batch axis: chart points of shape
``(..., n)`` give jets, Christoffel symbols and curvature with the same
leading ``...``, and a guard raises if any point of the batch fails it,
naming the first failing value.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import GeometryError, SingularMetricError

__all__ = [
    "ModelParams",
    "MetricJet",
    "BaseCurvature",
    "integrable_coupling",
    "conformal_jet",
    "space_form_metric",
    "christoffel",
    "christoffel_derivative",
    "base_curvature",
    "sectional_curvature",
]


def integrable_coupling(c: float) -> float:
    """The coupling value ``sqrt(2 c)`` at which the bundle structure is
    integrable (and only there)."""
    return math.sqrt(2.0 * c)


@dataclass(frozen=True)
class ModelParams:
    """Parameters of one verification configuration.

    Attributes:
        n: base dimension (>= 2).
        c: sectional curvature of the base space form (> 0).
        a_metric: coupling constant of the bundle metric (> 0); the Kahler
            case is ``a_metric = sqrt(2 c)``.
        k_a, k_b: nonnegative constants selecting a member of the
            Einstein profile family.
    """

    n: int
    c: float
    a_metric: float
    k_a: float = 0.0
    k_b: float = 0.0

    def __post_init__(self) -> None:
        if self.n < 2:
            raise GeometryError(f"n: base dimension must be >= 2, got {self.n}")
        if not (self.c > 0.0 and np.isfinite(self.c)):
            raise GeometryError(f"c: curvature must be positive and finite, got {self.c}")
        if not (self.a_metric > 0.0 and np.isfinite(self.a_metric)):
            raise GeometryError(f"a_metric: coupling must be positive, got {self.a_metric}")
        if not (0.0 <= self.k_a < np.inf and 0.0 <= self.k_b < np.inf):
            raise GeometryError(
                f"k_a, k_b: profile constants must be finite and >= 0, got ({self.k_a}, {self.k_b})"
            )

    @classmethod
    def kahler(cls, n: int, c: float, k_a: float = 0.0, k_b: float = 0.0) -> "ModelParams":
        """Parameters with the coupling pinned to the integrable value."""
        return cls(n=n, c=c, a_metric=integrable_coupling(c), k_a=k_a, k_b=k_b)

    @property
    def is_integrable(self) -> bool:
        crit = integrable_coupling(self.c)
        return abs(self.a_metric - crit) <= 1e-12 * max(1.0, crit)


@dataclass(frozen=True)
class MetricJet:
    """2-jet of the base metric at one chart point, or a batch of them.

    Index conventions: ``dg[..., k, i, j] = d_k g_ij`` and
    ``ddg[..., l, k, i, j] = d_l d_k g_ij``.
    """

    g: np.ndarray
    g_inv: np.ndarray
    dg: np.ndarray
    ddg: np.ndarray

    @property
    def n(self) -> int:
        return self.g.shape[-1]


@dataclass(frozen=True)
class BaseCurvature:
    """Christoffel symbols and curvature tensor of the base metric.

    ``gamma[..., k, i, j] = Gamma^k_{ij}``; ``riemann[..., h, k, i, j] =
    R^h_{kij}``.
    """

    gamma: np.ndarray
    riemann: np.ndarray


def _scale(x, rank: int):
    """A scalar over the batch with ``rank`` trailing unit axes, so it scales
    arrays that carry ``rank`` more axes than the batch.  One point's scalar
    is returned as is: a scalar multiply costs far less than broadcasting a
    one-element array, and the per-point formulas use dozens of them."""
    return x[(...,) + (None,) * rank] if np.ndim(x) else x


def _per_point(x):
    """A value over the batch as is; one point's value as a float."""
    return x if np.ndim(x) else float(x)


def _max_abs(*arrays: np.ndarray, rank: int):
    """Largest ``|entry|`` of ``arrays`` over their last ``rank`` axes, per
    point of the batch (a float for one point); a NaN makes it NaN."""
    axes = tuple(range(-rank, 0))
    return _per_point(functools.reduce(np.maximum, (np.max(np.abs(x), axis=axes) for x in arrays)))


# Byte budget of one batched call: a batch of rows is sized so that one
# (2n)^4 float64 array per row, the curvature K, fits it.  Batching is what
# makes the closed-form checks and the FD stencils fast, but one batch of
# everything raises the process's peak RSS past the 10% bound of the
# benchmark: the whole 300-sample sweep in one batch costs about 7 MiB at
# n = 3, and all 2n coordinates of an FD gradient in one field call peak at
# 4.6 MiB of temporaries at n = 5 (tracemalloc, 160 rows) against 2.1 MiB
# for one coordinate.  The rows scale as dim^-4 because the point pipeline's
# largest per-row arrays do: 128 rows at n = 2, 25 at n = 3, 3 at n = 5.
_CHUNK_BYTES = 256 * 1024


def _chunk_rows(dim: int) -> int:
    """Rows per batched call whose ``dim^4`` float64 arrays fit
    ``_CHUNK_BYTES``; at least one."""
    return max(1, _CHUNK_BYTES // (8 * dim**4))


def _outer(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    return x[..., :, None] * y[..., None, :]


def conformal_jet(x: np.ndarray, f, grad_f: np.ndarray, hess_f: np.ndarray) -> MetricJet:
    """Exact 2-jet of the conformally flat metric ``g = I / f(x)^2`` from the
    2-jet of the conformal factor ``f`` at ``x``: ``f`` has shape ``(...)``,
    ``grad_f`` ``(..., n)`` and ``hess_f`` ``(..., n, n)``."""
    x = np.asarray(x, dtype=float)
    n = x.shape[-1]
    bad = ~np.isfinite(f) | (f <= 0.0)
    if bad.any():
        raise SingularMetricError(f"conformal factor must be positive, got {np.extract(bad, f)[0]}")
    eye = np.eye(n)
    g = eye / _scale(f**2, 2)
    g_inv = eye * _scale(f**2, 2)
    # d_k (f^-2) = -2 f^-3 d_k f
    dg = np.einsum("ij,...k->...kij", eye, -2.0 * grad_f / _scale(f**3, 1))
    # d_l d_k (f^-2) = 6 f^-4 (d_l f)(d_k f) - 2 f^-3 d_l d_k f
    dd_factor = 6.0 * _outer(grad_f, grad_f) / _scale(f**4, 2) - 2.0 * hess_f / _scale(f**3, 2)
    ddg = np.einsum("ij,...lk->...lkij", eye, dd_factor)
    return MetricJet(g=g, g_inv=g_inv, dg=dg, ddg=ddg)


def space_form_metric(x: np.ndarray, params: ModelParams) -> MetricJet:
    """Stereographic-chart 2-jet of the curvature-``c`` space form at ``x``,
    of shape ``(..., n)``."""
    x = np.asarray(x, dtype=float)
    if x.shape[-1:] != (params.n,):
        raise GeometryError(
            f"chart point has dimension {x.shape[-1] if x.ndim else 1}, expected {params.n}"
        )
    if not np.isfinite(x).all():
        raise GeometryError("chart point must be finite")
    c = params.c
    f = 1.0 + 0.25 * c * np.vecdot(x, x)
    grad_f = 0.5 * c * x
    hess_f = 0.5 * c * np.eye(params.n)
    return conformal_jet(x, f, grad_f, hess_f)


def _koszul_bracket(dg: np.ndarray) -> np.ndarray:
    """``b[..., i, j, l] = d_i g_jl + d_j g_il - d_l g_ij``."""
    return (
        np.einsum("...ijl->...ijl", dg)
        + np.einsum("...jil->...ijl", dg)
        - np.einsum("...lij->...ijl", dg)
    )


def christoffel(jet: MetricJet) -> np.ndarray:
    """Christoffel symbols ``Gamma^k_{ij}`` of the metric 2-jet."""
    return 0.5 * np.einsum("...kl,...ijl->...kij", jet.g_inv, _koszul_bracket(jet.dg))


def christoffel_derivative(jet: MetricJet) -> np.ndarray:
    """Coordinate derivatives ``d_m Gamma^k_{ij}``, indexed ``[..., m, k, i, j]``."""
    dginv = -np.einsum("...ka,...mab,...bl->...mkl", jet.g_inv, jet.dg, jet.g_inv)
    bracket = _koszul_bracket(jet.dg)
    # d_m b[i, j, l] with ddg[m, k, i, j] = d_m d_k g_ij
    dbracket = (
        np.einsum("...mijl->...mijl", jet.ddg)
        + np.einsum("...mjil->...mijl", jet.ddg)
        - np.einsum("...mlij->...mijl", jet.ddg)
    )
    return 0.5 * np.einsum("...mkl,...ijl->...mkij", dginv, bracket) + 0.5 * np.einsum(
        "...kl,...mijl->...mkij", jet.g_inv, dbracket
    )


def base_curvature(jet: MetricJet) -> BaseCurvature:
    """Christoffel symbols and curvature tensor from the metric 2-jet."""
    gamma = christoffel(jet)
    dgamma = christoffel_derivative(jet)
    riemann = (
        np.einsum("...ihjk->...hkij", dgamma)
        - np.einsum("...jhik->...hkij", dgamma)
        + np.einsum("...hil,...ljk->...hkij", gamma, gamma)
        - np.einsum("...hjl,...lik->...hkij", gamma, gamma)
    )
    return BaseCurvature(gamma=gamma, riemann=riemann)


def sectional_curvature(jet: MetricJet, curv: BaseCurvature, u: np.ndarray, w: np.ndarray) -> float:
    """Sectional curvature of the plane spanned by ``u`` and ``w``."""
    r_low = np.einsum("ah,hkij->akij", jet.g, curv.riemann)
    num = float(np.einsum("akij,a,k,i,j->", r_low, u, w, u, w))
    gu, gw = jet.g @ u, jet.g @ w
    denom = float((u @ gu) * (w @ gw) - (u @ gw) ** 2)
    if abs(denom) < 1e-14:
        raise GeometryError("degenerate plane for sectional curvature")
    return num / denom
