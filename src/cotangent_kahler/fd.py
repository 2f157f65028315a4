"""Complex-step derivative engine used by every numerical oracle.

All cross-checks in this package compare closed-form expressions against
derivatives that are recomputed numerically from scratch.  The engine takes
each first derivative from one complex evaluation,

    d f / d x_d  =  Im f(x + i h e_d) / h,      h = 1e-30,

which holds for any field that is analytic in its real inputs (Squire &
Trapp, SIAM Review 40(1), 1998; Martins, Sturdza & Alonso, ACM TOMS 29(3),
2003).  There is no subtraction, so nothing cancels and the step needs no
tuning: the truncation error is ``O(h^2)``, far below float64 rounding.  In
exchange every field must work in the dtype of its input with analytic
operations only: no ``abs``, no ``.real``, no cast to float and no
conjugating contraction (``np.vecdot`` and ``np.vecmat`` conjugate their
first argument) on the path from ``x`` to ``f(x)``.  The real stencil of
``tests/fd_reference.py`` checks every oracle field against that.  Complex
steps do not nest, so the centers must be real.

Fields are batched: ``f(X)`` takes ``X`` of shape ``(m, dim)`` and returns
``(m, ...)``, one row per point.  Centers carry the package's leading batch
axis, ``x`` of shape ``(..., dim)``.  A center takes one complex row per
coordinate.  ``fd_partial`` stacks these rows for every center and for one
or several coordinates, and evaluates them in one field call, under
``np.errstate(over="raise")``: a power that overflows in complex arithmetic
raises rather than leaving an ``inf``.  ``fd_gradient`` sizes its calls by
the field's output against ``base._CHUNK_BYTES``, the byte budget that also
sizes the sample chunks of the suites: the first call holds as many
coordinates as fit if each row returned ``dim^4`` complex entries, and the
other coordinates are grouped by the bytes per row that the first call
actually returned.  A call never holds less than one whole coordinate.
Results put the centers' axes first, then the derivative direction (for
gradients), then the field's own axes; one center is a batch of shape
``()``.

Frame derivatives on the punctured cotangent bundle (the adapted frame
``d/dq^i + p_k Gamma^k_{ih} d/dp_h`` and ``d/dp_i``, indexed ``0..2n-1``
with the horizontal directions first) are built on top of plain partial
derivatives in the chart coordinates ``(q, p)``.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .base import _fitting
from .errors import StencilError
from .mtensor import CotangentPoint

__all__ = ["fd_partial", "fd_gradient", "frame_gradient"]

# The imaginary step.  The truncation error is O(h^2) relative, so any h far
# below the square root of float64 epsilon is exact to rounding, at any
# center; the imaginary parts, h times the derivatives, stay normal floats.
_H = 1e-30


def fd_partial(f: Callable[[np.ndarray], np.ndarray], x: np.ndarray, d) -> np.ndarray:
    """Partial derivatives of ``f`` with respect to coordinate ``d`` at the
    real centers ``x`` of shape ``(..., dim)``.

    ``f`` maps a batch of points ``(m, dim)`` to ``(m, ...)`` with a scalar
    or any fixed shape per point.  ``d`` is one coordinate, giving a result
    of shape ``x.shape[:-1]`` followed by the field's shape, or a 1-D array
    of coordinates, whose axis comes after the centers' axes.  All rows go
    to ``f`` in one call, ordered by coordinate, then center.
    """
    if np.iscomplexobj(x):
        raise TypeError("complex-step derivatives need real centers: complex steps do not nest")
    x = np.asarray(x, dtype=float)
    centers, dim = x.shape[:-1], x.shape[-1]
    coords = np.atleast_1d(d)
    # Work on the centers flattened to (C, dim); the rows below are
    # (k coordinates, C centers[, field values]).
    x = x.reshape(-1, dim)
    points = np.broadcast_to(x, (len(coords),) + x.shape).astype(complex)
    points[np.arange(len(coords)), :, coords] += 1j * _H
    with np.errstate(over="raise"):
        values = np.asarray(f(points.reshape(-1, dim)))
    field = values.shape[1:]
    values = values.reshape(len(coords), len(x), -1)
    bad = ~np.isfinite(values).all(axis=-1)
    if bad.any():
        coord, center = np.unravel_index(np.argmax(bad), bad.shape)
        raise StencilError(f"non-finite value at coordinate {coords[coord]}, center {x[center].tolist()}")
    partials = values.imag / _H
    if np.ndim(d) == 0:
        return partials[0].reshape(centers + field)
    return partials.transpose(1, 0, 2).reshape(centers + coords.shape + field)


def fd_gradient(f, x: np.ndarray) -> np.ndarray:
    """All partial derivatives of the batched field ``f`` at the real centers
    ``x`` of shape ``(..., dim)``; the axis after the centers' indexes the
    coordinate.

    The first field call takes the rows of as many coordinates as fit
    ``base._CHUNK_BYTES`` if each row returned ``dim^4`` complex entries.
    The rest are grouped so that each call's output fits ``base._CHUNK_BYTES``
    at the bytes per row that the first call returned.  Every call takes at
    least one coordinate."""
    x = np.asarray(x)
    dim = x.shape[-1]
    rows = x.size // dim
    first = min(dim, _fitting(rows * 16 * dim**4))
    parts = [fd_partial(f, x, np.arange(first))]
    # A coordinate's rows return one complex entry, 16 bytes, per float64
    # entry of its partials.
    per_call = _fitting(2 * parts[0].nbytes // first)
    parts += [fd_partial(f, x, np.arange(d, min(d + per_call, dim))) for d in range(first, dim, per_call)]
    return np.concatenate(parts, axis=x.ndim - 1)


# ---------------------------------------------------------------------------
# frame derivatives on the cotangent bundle
# ---------------------------------------------------------------------------


def frame_gradient(field, pt: CotangentPoint) -> np.ndarray:
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
    partials = fd_gradient(lambda z: field(z[..., :n], z[..., n:]), centers)
    grad = partials.reshape(pt.p.shape[:-1] + (2 * n, -1))
    grad[..., :n, :] += pt.p_gamma @ grad[..., n:, :]
    return grad.reshape(partials.shape)
