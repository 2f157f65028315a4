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
axis, ``x`` of shape ``(..., dim)``.  A center's stencil along one
coordinate is 8 rows, offsets ``-2, -1, +1, +2`` of ``h`` then of ``h/2``.
``fd_partial`` stacks these rows for every center and for one or several
coordinates, and evaluates them in one field call.  ``fd_gradient`` groups
the coordinates so that a call holds at most ``base._chunk_rows(dim)`` rows,
the byte budget that also sizes the sample chunks of the suites, but never
less than one whole coordinate.  Results put the centers' axes first, then
the derivative direction (for gradients), then the field's own axes; one
center is a batch of shape ``()``.

Frame derivatives on the punctured cotangent bundle (the adapted frame
``d/dq^i + p_k Gamma^k_{ih} d/dp_h`` and ``d/dp_i``, indexed ``0..2n-1``
with the horizontal directions first) are built on top of plain partial
derivatives in the chart coordinates ``(q, p)``.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .base import _chunk_rows
from .errors import StencilError
from .mtensor import CotangentPoint

__all__ = ["fd_partial", "fd_gradient", "frame_gradient"]

# The 4th-order central first-derivative stencil, offsets (-2, -1, +1, +2)
# in units of the step, and the two Richardson steps h and h/2.
_STENCIL_OFFSETS = np.array([-2.0, -1.0, 1.0, 2.0])
_STENCIL_WEIGHTS = np.array([1.0, -8.0, 8.0, -1.0]) / 12.0
_LEVELS = np.array([1.0, 0.5])


def fd_partial(f: Callable[[np.ndarray], np.ndarray], x: np.ndarray, d, step: float) -> np.ndarray:
    """Partial derivatives of ``f`` with respect to coordinate ``d`` at the
    centers ``x`` of shape ``(..., dim)``.

    ``f`` maps a batch of points ``(m, dim)`` to ``(m, ...)`` with a scalar
    or any fixed shape per point.  ``d`` is one coordinate, giving a result
    of shape ``x.shape[:-1]`` followed by the field's shape, or a 1-D array
    of coordinates, whose axis comes after the centers' axes.  All stencil
    rows go to ``f`` in one call, ordered by coordinate, then step, then
    offset, then center.
    """
    x = np.asarray(x, dtype=float)
    centers, dim = x.shape[:-1], x.shape[-1]
    coords = np.atleast_1d(d)
    # Work on the centers flattened to (C, dim); the shapes below are
    # (k coordinates, 2 steps, 4 offsets, C centers[, field values]).
    x = x.reshape(-1, dim)
    h = step * np.maximum(1.0, np.abs(x[:, coords].T))
    shifts = np.multiply.outer(np.multiply.outer(_LEVELS, _STENCIL_OFFSETS), h).transpose(2, 0, 1, 3)
    points = np.broadcast_to(x, shifts.shape + (dim,)).copy()
    points[np.arange(len(coords)), ..., coords] += shifts
    values = np.asarray(f(points.reshape(-1, dim)), dtype=float)
    field = values.shape[1:]
    values = values.reshape(shifts.shape + (-1,))
    bad = ~np.isfinite(values).all(axis=-1).ravel()
    if bad.any():
        row = np.argmax(bad)
        raise StencilError(
            f"non-finite stencil value at coordinate {coords[row // shifts[0].size]}, "
            f"offset {shifts.ravel()[row]:+.3e}"
        )
    coarse, fine = (
        sum(w * v for w, v in zip(_STENCIL_WEIGHTS, level)) / (scale * h)[..., None]
        for level, scale in zip(values.transpose(1, 2, 0, 3, 4), _LEVELS)
    )
    partials = (16.0 * fine - coarse) / 15.0
    if np.ndim(d) == 0:
        return partials[0].reshape(centers + field)
    return partials.transpose(1, 0, 2).reshape(centers + coords.shape + field)


def fd_gradient(f, x: np.ndarray, step: float) -> np.ndarray:
    """All partial derivatives of the batched field ``f`` at the centers
    ``x`` of shape ``(..., dim)``; the axis after the centers' indexes the
    coordinate.  Each field call takes the stencils of as many coordinates
    as fit the byte budget of ``base._chunk_rows(dim)``, and never fewer
    than one."""
    x = np.asarray(x, dtype=float)
    dim = x.shape[-1]
    per_call = max(1, _chunk_rows(dim) // (8 * (x.size // dim)))
    coords = np.arange(dim)
    return np.concatenate(
        [fd_partial(f, x, coords[start : start + per_call], step) for start in range(0, dim, per_call)],
        axis=x.ndim - 1,
    )


# ---------------------------------------------------------------------------
# frame derivatives on the cotangent bundle
# ---------------------------------------------------------------------------


def frame_gradient(field, pt: CotangentPoint, step: float) -> np.ndarray:
    """Derivatives of ``field(q, p)`` along all 2n adapted-frame directions
    at the centers ``pt``.

    ``field(Q, P)`` takes a batch of points, ``Q`` and ``P`` of shape ``(m,
    n)``, and returns ``(m, ...)``.  The axis after the centers' indexes the
    frame: entries ``0..n-1`` are the horizontal directions, entries
    ``n..2n-1`` the vertical ones.  The 2n chart partials are evaluated once
    (see ``fd_gradient``) and recombined with the point's horizontal frame:
    ``delta_i = d/dq^i + pt.p_gamma[i, h] d/dp_h``.
    """
    n = pt.n
    centers = np.concatenate([pt.q, pt.p], axis=-1)
    partials = fd_gradient(lambda z: field(z[..., :n], z[..., n:]), centers, step)
    grad = partials.reshape(pt.p.shape[:-1] + (2 * n, -1))
    grad[..., :n, :] += pt.p_gamma @ grad[..., n:, :]
    return grad.reshape(partials.shape)
