"""The real finite-difference stencil, the reference for ``cotangent_kahler.fd``.

The package takes every first derivative by the complex step ``Im f(x + i h
e_d) / h``, which is exact to rounding but holds only for fields written with
analytic operations.  This module keeps the real route it replaced, which
asks nothing of the field:

* the 4th-order central stencil ``(-f(x+2h) + 8 f(x+h) - 8 f(x-h) +
  f(x-2h)) / (12 h)``,
* one level of Richardson extrapolation, ``(16 fine - coarse) / 15`` for the
  steps ``h`` and ``h/2``, which leaves an ``O(h^6)`` error,
* a step relative to the coordinate, ``h = step * max(1, |x_d|)``.

The tests compare the complex engine against it on every oracle field, so a
conjugating or non-analytic operation that enters a field fails a test
rather than a derivative.  Tests that nest two derivatives take the outer
one from here, since complex steps do not nest.  Fields and centers follow
the package's conventions (see ``cotangent_kahler.fd``); each coordinate is
one field call of 8 rows per center, with no byte budget.
"""

import numpy as np

STEP = 1e-4

# Offsets (-2, -1, +1, +2) in units of the step, and the two Richardson steps.
_OFFSETS = np.array([-2.0, -1.0, 1.0, 2.0])
_WEIGHTS = np.array([1.0, -8.0, 8.0, -1.0]) / 12.0
_LEVELS = np.array([1.0, 0.5])


def fd_partial(f, x, d: int, step: float = STEP) -> np.ndarray:
    """Partial derivative of the batched field ``f`` along coordinate ``d``
    at the centers ``x`` of shape ``(..., dim)``: the centers' axes, then the
    field's."""
    x = np.asarray(x, dtype=float)
    centers, dim = x.shape[:-1], x.shape[-1]
    x = x.reshape(-1, dim)
    h = step * np.maximum(1.0, np.abs(x[:, d]))
    shifts = np.multiply.outer(np.multiply.outer(_LEVELS, _OFFSETS), h)
    points = np.broadcast_to(x, shifts.shape + (dim,)).copy()
    points[..., d] += shifts
    values = np.asarray(f(points.reshape(-1, dim)), dtype=float)
    field = values.shape[1:]
    values = values.reshape(shifts.shape + (-1,))
    coarse, fine = (
        np.tensordot(_WEIGHTS, level, axes=1) / (scale * h)[:, None] for level, scale in zip(values, _LEVELS)
    )
    return ((16.0 * fine - coarse) / 15.0).reshape(centers + field)


def fd_gradient(f, x, step: float = STEP) -> np.ndarray:
    """All partial derivatives of ``f`` at the centers ``x``; the axis after
    the centers' indexes the coordinate."""
    x = np.asarray(x, dtype=float)
    return np.stack([fd_partial(f, x, d, step) for d in range(x.shape[-1])], axis=x.ndim - 1)


def frame_gradient(field, pt, step: float = STEP) -> np.ndarray:
    """Derivatives of ``field(q, p)`` along the 2n adapted-frame directions
    at the centers ``pt``, as ``cotangent_kahler.fd.Stencil.frame_gradient``
    lays them out: ``delta_i = d/dq^i + pt.p_gamma[i, h] d/dp_h``, then
    ``d/dp_i``."""
    n = pt.n
    centers = np.concatenate([pt.q, pt.p], axis=-1)
    partials = fd_gradient(lambda z: field(z[..., :n], z[..., n:]), centers, step)
    grad = partials.reshape(pt.p.shape[:-1] + (2 * n, -1))
    grad[..., :n, :] += pt.p_gamma @ grad[..., n:, :]
    return grad.reshape(partials.shape)
