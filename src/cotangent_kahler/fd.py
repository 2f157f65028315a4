"""Finite-difference derivative engine used by every numerical oracle.

All cross-checks in this package compare closed-form expressions against
derivatives that are recomputed numerically from scratch.  The engine is
deliberately simple and well characterised, and its only parameter is the
step:

* first derivatives use the 4th-order central stencil
  ``(-f(x+2h) + 8 f(x+h) - 8 f(x-h) + f(x-2h)) / (12 h)``,
* one level of Richardson extrapolation combines step ``h`` with step
  ``h/2`` as ``(16 fine - coarse) / 15``, which cancels the leading
  ``O(h^4)`` term and gives ``O(h^6)``,
* the step is relative to the coordinate being displaced:
  ``h = step * max(1, |x_d|)``.

Fields are batched: ``f(X)`` takes ``X`` of shape ``(m, dim)`` and returns
``(m, ...)``, one row per point.  Centers carry the package's leading batch
axis, ``x`` of shape ``(..., dim)``.  ``fd_partial`` stacks the stencil of
every center along one coordinate -- offsets ``-2, -1, +1, +2`` of ``h``,
then of ``h/2``, 8 rows per center -- and evaluates it in one call.  Results
put the centers' axes first, then the derivative direction (for gradients),
then the field's own axes; one center without a batch axis gives a result
without one.

Frame derivatives on the punctured cotangent bundle (the adapted frame
``d/dq^i + p_k Gamma^k_{ih} d/dp_h`` and ``d/dp_i``, indexed ``0..2n-1``
with the horizontal directions first) are built on top of plain partial
derivatives in the chart coordinates ``(q, p)``.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .errors import StencilError

__all__ = ["fd_partial", "fd_gradient", "frame_gradient"]

# The 4th-order central first-derivative stencil, offsets (-2, -1, +1, +2)
# in units of the step, and the two Richardson steps h and h/2.
_STENCIL_OFFSETS = np.array([-2.0, -1.0, 1.0, 2.0])
_STENCIL_WEIGHTS = np.array([1.0, -8.0, 8.0, -1.0]) / 12.0
_LEVELS = np.array([1.0, 0.5])


def fd_partial(f: Callable[[np.ndarray], np.ndarray], x: np.ndarray, d: int, step: float) -> np.ndarray:
    """Partial derivative of ``f`` with respect to coordinate ``d`` at the
    centers ``x`` of shape ``(..., dim)``.

    ``f`` maps a batch of points ``(m, dim)`` to ``(m, ...)`` with a scalar
    or any fixed shape per point; the result has shape ``x.shape[:-1]``
    followed by that shape.  All 8 stencil rows of every center go to ``f``
    in one call, ordered by step, then offset, then center.
    """
    x = np.asarray(x, dtype=float)
    h = step * np.maximum(1.0, np.abs(x[..., d]))
    shifts = np.multiply.outer(np.multiply.outer(_LEVELS, _STENCIL_OFFSETS), h)
    points = np.broadcast_to(x, shifts.shape + x.shape[-1:]).copy()
    points[..., d] += shifts
    values = np.asarray(f(points.reshape(-1, x.shape[-1])), dtype=float)
    bad = ~np.isfinite(values.reshape(shifts.size, -1)).all(axis=1)
    if bad.any():
        raise StencilError(
            f"non-finite stencil value at coordinate {d}, offset {shifts.ravel()[np.argmax(bad)]:+.3e}"
        )
    values = values.reshape(shifts.shape + values.shape[1:])
    field_axes = (1,) * (values.ndim - shifts.ndim)
    coarse, fine = (
        sum(w * v for w, v in zip(_STENCIL_WEIGHTS, level)) / np.reshape(scale * h, h.shape + field_axes)
        for level, scale in zip(values, _LEVELS)
    )
    return (16.0 * fine - coarse) / 15.0


def fd_gradient(f, x: np.ndarray, step: float) -> np.ndarray:
    """All partial derivatives of the batched field ``f`` at the centers
    ``x`` of shape ``(..., dim)``; the axis after the centers' indexes the
    coordinate.  One field call per coordinate."""
    x = np.asarray(x, dtype=float)
    return np.stack([fd_partial(f, x, d, step) for d in range(x.shape[-1])], axis=x.ndim - 1)


# ---------------------------------------------------------------------------
# frame derivatives on the cotangent bundle
# ---------------------------------------------------------------------------


def frame_gradient(field, q: np.ndarray, p: np.ndarray, gamma: np.ndarray, step: float) -> np.ndarray:
    """Derivatives of ``field(q, p)`` along all 2n adapted-frame directions.

    ``field(Q, P)`` takes a batch of points, ``Q`` and ``P`` of shape ``(m,
    n)``, and returns ``(m, ...)``.  The centers ``q``, ``p`` have shape
    ``(..., n)`` and ``gamma`` the matching ``(..., n, n, n)``.  The axis
    after the centers' indexes the frame: entries ``0..n-1`` are the
    horizontal directions, entries ``n..2n-1`` the vertical ones.  The 2n
    chart partials are evaluated once (one field call each, for every
    center) and recombined with the chart frame: ``delta_i = d/dq^i +
    p_gamma[i, h] d/dp_h``.
    """
    q = np.asarray(q, dtype=float)
    p = np.asarray(p, dtype=float)
    n = q.shape[-1]
    partials = fd_gradient(lambda z: field(z[..., :n], z[..., n:]), np.concatenate([q, p], axis=-1), step)
    p_gamma = np.einsum("...k,...kih->...ih", p, gamma)
    grad = partials.reshape(p.shape[:-1] + (2 * n, -1))
    grad[..., :n, :] += p_gamma @ grad[..., n:, :]
    return grad.reshape(partials.shape)
