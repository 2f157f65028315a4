"""Base manifold: a space form of constant positive sectional curvature.

The chart is the stereographic one, in which the round metric of sectional
curvature ``c > 0`` is conformally flat:

    g_ij(x) = delta_ij / f(x)^2,      f(x) = 1 + (c/4) |x|^2.

Downstream needs the metric, its inverse, the Christoffel symbols and the
curvature tensor, with the sign convention

    R^h_{kij} = d_i Gamma^h_{jk} - d_j Gamma^h_{ik}
                + Gamma^h_{il} Gamma^l_{jk} - Gamma^h_{jl} Gamma^l_{ik}.

Both come from closed forms.  With ``g = e^{2 phi} I`` and ``phi = -log
f``, the Christoffel symbols are

    Gamma^k_{ij} = delta^k_i d_j phi + delta^k_j d_i phi - delta_ij d_k phi,

and constant curvature ``c`` fixes ``R^h_{kij} = c (delta^h_i g_jk -
delta^h_j g_ik)``.  The generic route -- the metric 2-jet of any conformal
factor, Christoffel symbols by the Koszul bracket and ``R`` from their
derivative -- lives in the tests (``tests/base_reference.py``), as the
oracle of these two formulas and as the base of the fixtures that leave the
space forms.

Every function here takes a leading batch axis: chart points of shape
``(..., n)`` give a metric, Christoffel symbols and curvature with the same
leading ``...``, and a guard raises if any point of the batch fails it,
naming the first failing value.  A single point is a batch of shape ``()``.

The contraction rule of every layer, from the point and its fiber jets
through the connection and the curvature to the Nijenhuis form: an outer
product is one broadcast multiply (``_outer``, ``_pair_outer``), a term that
sums over an index is one batched ``@`` on reshaped or permuted views
(``_contract``), and ``np.einsum`` only permutes axes.  A two-operand
``einsum`` runs in numpy's own loops, several times slower than either at
these sizes.  The one exception is a contraction with a single vector, the
momentum in ``mtensor.CotangentPoint``, where ``einsum`` is the faster form;
``tests/test_kernels.py`` names these and fails on any other.

The permutation rule beside it: in the per-row kernels an axis permutation
that feeds arithmetic is one ``_permute`` gather, with the bits of the
einsum view, since a strided view fed into an add runs 2-10x slower than
contiguous operands when the innermost axis has length 2..5.  A
permutation that only lays out a result stays a view.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import GeometryError, SingularMetricError

__all__ = [
    "ModelParams",
    "BaseGeometry",
    "integrable_coupling",
    "space_form_metric",
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
class BaseGeometry:
    """The base metric at one chart point, or a batch of them, with its
    inverse, Christoffel symbols and curvature tensor.

    ``gamma[..., k, i, j] = Gamma^k_{ij}``; ``riemann[..., h, k, i, j] =
    R^h_{kij}``.
    """

    g: np.ndarray
    g_inv: np.ndarray
    gamma: np.ndarray
    riemann: np.ndarray


def _scale(x, rank: int) -> np.ndarray:
    """A scalar over the batch with ``rank`` trailing unit axes, so it scales
    arrays that carry ``rank`` more axes than the batch."""
    return np.asarray(x)[(...,) + (None,) * rank]


def _max_abs(*arrays: np.ndarray, rank: int):
    """Largest ``|entry|`` of ``arrays`` over their last ``rank`` axes, per
    point of the batch; a NaN makes it NaN."""
    axes = tuple(range(-rank, 0))
    return functools.reduce(np.maximum, (np.max(np.abs(x), axis=axes) for x in arrays))


def _outer(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    return x[..., :, None] * y[..., None, :]


def _pair_outer(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """``x[k, i] y[j] + x[k, j] y[i]`` at ``[..., k, i, j]``: one broadcast
    product, symmetrized in ``(i, j)``."""
    out = x[..., :, :, None] * y[..., None, None, :]
    return out + np.swapaxes(out, -2, -1)


def _pair_outer4(x: np.ndarray, m: np.ndarray) -> np.ndarray:
    """``x[l, i] m[k, j]`` at ``[..., l, k, i, j]``, one broadcast product,
    symmetrized in ``(i, j)`` and then in ``(l, k)``: four terms."""
    out = x[..., :, None, :, None] * m[..., None, :, None, :]
    out += _permute(out, "lkij->lkji")
    out += _permute(out, "lkij->klij")
    return out


def _contract(x: np.ndarray, y: np.ndarray, rank: int) -> np.ndarray:
    """``sum_k x[..., A, k] y[..., k, B]``, laid out ``[..., A, B]``, as one
    batched ``@``: the batch ``...`` is every axis of ``y`` but its last
    ``rank``, ``x`` carries as many batch axes (size-1 ones broadcast, as in
    ``@``), and the axes ``A`` and ``B`` are flattened into one matrix
    dimension each."""
    lead = y.ndim - rank
    k = y.shape[lead]
    out = x.reshape(x.shape[:lead] + (-1, k)) @ y.reshape(y.shape[:lead] + (k, -1))
    return out.reshape(out.shape[:-2] + x.shape[lead:-1] + y.shape[lead + 1 :])


@functools.cache
def _permutation_index(n: int, spec: str) -> np.ndarray:
    """The flat gather index of ``spec`` over trailing axes of size ``n``;
    read-only, as it is shared."""
    inputs, outputs = spec.split("->")
    axes = [inputs.index(label) for label in outputs]
    index = np.arange(n ** len(inputs)).reshape((n,) * len(inputs)).transpose(axes).ravel()
    index.setflags(write=False)
    return index


def _permute(x: np.ndarray, spec: str) -> np.ndarray:
    """The permutation ``spec`` of the trailing axes of ``x``, all of one
    size, as one contiguous gather: for ``"ijk->kij"``, the values of
    ``np.einsum("...ijk->...kij", x)`` in a new array.  A strided permuted
    view fed into arithmetic runs several times slower than contiguous
    operands at these sizes."""
    index = _permutation_index(x.shape[-1], spec)
    return x.reshape(x.shape[: -spec.index("-")] + (-1,)).take(index, axis=-1).reshape(x.shape)


@functools.cache
def _riemann_signs(n: int) -> np.ndarray:
    """The constant ``delta^h_i delta_jk - delta^h_j delta_ik`` at ``[h, k,
    i, j]``, entries -1, 0 and 1; read-only, as it is shared."""
    signs = np.eye(n)[:, None, :, None] * np.eye(n)[:, None, :]
    signs = signs - np.swapaxes(signs, -2, -1)
    signs.setflags(write=False)
    return signs


def space_form_metric(x: np.ndarray, params: ModelParams) -> BaseGeometry:
    """Stereographic-chart metric, Christoffel symbols and curvature of the
    curvature-``c`` space form at ``x``, of shape ``(..., n)``."""
    x = np.asarray(x)
    if x.shape[-1:] != (params.n,):
        raise GeometryError(
            f"chart point has dimension {x.shape[-1] if x.ndim else 1}, expected {params.n}"
        )
    if not np.isfinite(x).all():
        raise GeometryError("chart point must be finite")
    c = params.c
    # vecdot conjugates its first argument; conj() undoes that, so a
    # complex-step row sees x . x and the float64 bits of real x are kept.
    f = 1.0 + 0.25 * c * np.vecdot(x.conj(), x)
    bad = ~np.isfinite(f) | (f.real <= 0.0)
    if bad.any():
        raise SingularMetricError(f"conformal factor must be positive, got {np.extract(bad, f)[0]}")
    eye = np.eye(params.n)
    g = eye / _scale(f**2, 2)
    # d_k phi = -d_k f / f with d_k f = c x_k / 2
    dphi = -0.5 * c * x / _scale(f, 1)
    # Gamma^k_{ij} at [k, i, j]: each term is one broadcast product.
    gamma = eye[:, :, None] * dphi[..., None, None, :] + eye[:, None, :] * dphi[..., None, :, None]
    gamma = gamma - eye * dphi[..., :, None, None]
    # R^h_{kij} = c (delta^h_i g_jk - delta^h_j g_ik) with g = I / f^2.
    riemann = (c * _riemann_signs(params.n)) * _scale(1.0 / f**2, 4)
    return BaseGeometry(g=g, g_inv=eye * _scale(f**2, 2), gamma=gamma, riemann=riemann)
