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
raises rather than leaving an ``inf``.  ``fd_gradient`` puts every
coordinate in that one call.  The rows follow the precision of the centers:
float64 centers give ``complex128`` rows, ``np.longdouble`` ones
``np.clongdouble`` rows.  Results put the centers' axes first, then the
derivative direction (for gradients), then the field's own axes; one center
is a batch of shape ``()``.

Every oracle differentiates on a ``Stencil``: the rows of all 2n chart
coordinates at the first centers of a real ``mtensor.Rows``, its base.  A
stencil is sized by its centers: the point and each member's metric blocks,
fiber jets and connection are built on its rows once, and every oracle at
the same centers shares them (``suites.Sample`` keeps one stencil per
center set for the config's lifetime).  The centers' own values are the
base's first rows.  Each gradient is one ``fd_partial`` call on all its
rows.

Frame derivatives on the punctured cotangent bundle (the adapted frame
``d/dq^i + p_k Gamma^k_{ih} d/dp_h`` and ``d/dp_i``, indexed ``0..2n-1``
with the horizontal directions first) are built on top of plain partial
derivatives in the chart coordinates ``(q, p)``.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .base import ModelParams
from .errors import StencilError
from .mtensor import FiberJets, MetricBlocks, Rows, _jets_on, take_rows

__all__ = ["fd_partial", "fd_gradient", "Stencil"]

# The imaginary step.  The truncation error is O(h^2) relative, so any h far
# below the square root of float64 epsilon is exact to rounding, at any
# center; the imaginary parts, h times the derivatives, stay normal floats.
_H = 1e-30


def _step_rows(x: np.ndarray, coords: np.ndarray) -> np.ndarray:
    """The complex rows ``(k coordinates, C centers, dim)`` of the real
    centers ``x`` of shape ``(C, dim)``, each with the imaginary step along
    its coordinate, in ``complex128`` or a wider dtype if ``x`` has one."""
    points = np.broadcast_to(x, (len(coords),) + x.shape).astype(np.result_type(x, np.float64, 1j))
    points[np.arange(len(coords)), :, coords] += 1j * _H
    return points


def fd_partial(f: Callable[[np.ndarray], np.ndarray], x: np.ndarray, d) -> np.ndarray:
    """Partial derivatives of ``f`` with respect to coordinate ``d`` at the
    real centers ``x`` of shape ``(..., dim)``.

    ``f`` maps a batch of points ``(m, dim)`` to ``(m, ...)`` with a scalar
    or any fixed shape per point.  ``d`` is one coordinate, giving a result
    of shape ``x.shape[:-1]`` followed by the field's shape, or a 1-D array
    of coordinates, whose axis comes after the centers' axes.  All rows go
    to ``f`` in one call, ordered by coordinate, then center.  The rows are
    ``complex128``, or ``np.clongdouble`` for ``np.longdouble`` centers,
    and the partials follow the field's precision.
    """
    if np.iscomplexobj(x):
        raise TypeError("complex-step derivatives need real centers: complex steps do not nest")
    x = np.asarray(x)
    centers, dim = x.shape[:-1], x.shape[-1]
    coords = np.atleast_1d(d)
    # Work on the centers flattened to (C, dim); the rows below are
    # (k coordinates, C centers[, field values]).
    x = x.reshape(-1, dim)
    with np.errstate(over="raise"):
        values = np.asarray(f(_step_rows(x, coords).reshape(-1, dim)))
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
    ``x`` of shape ``(..., dim)``, in one field call of ``dim`` rows per
    center; the axis after the centers' indexes the coordinate."""
    return fd_partial(f, x, np.arange(np.shape(x)[-1]))


# ---------------------------------------------------------------------------
# the stencil: every chart coordinate's rows at a batch of centers
# ---------------------------------------------------------------------------


class Stencil(Rows):
    """The complex-step rows of all 2n chart coordinates at the first
    ``centers`` rows of the real ``base`` (all of them by default), ordered
    by coordinate, then center, as ``Rows`` on the base's ``point_at``.

    ``centers`` is the centers' batched ``CotangentPoint`` and
    ``center_jets`` their fiber jets, the rows ``index`` of the base's, so
    an oracle reads its centers from its stencil alone.  A field takes the
    ``Rows`` it is handed and returns ``(m, ...)``: the stencil itself in its
    gradients, and rows of their own anywhere else, such as in a reference
    stencil, so a field is a function of its rows alone."""

    def __init__(self, base: Rows, centers: int | None = None) -> None:
        self.base = base
        # A slice keeps the centers' batch axis; the default takes a base of
        # one point, of batch shape (), as it is.
        self.index = ... if centers is None else slice(centers)
        self.centers = take_rows(base.points, self.index)
        self._x = np.concatenate([self.centers.q, self.centers.p], axis=-1)
        n = self.centers.n
        self._z = _step_rows(self._x.reshape(-1, 2 * n), np.arange(2 * n)).reshape(-1, 2 * n)
        super().__init__(self._z[:, :n], self._z[:, n:], base._point_at)

    def center_jets(self, params: ModelParams, profile) -> FiberJets:
        """The fiber jets of a member at the centers: the rows ``index`` of
        the base's if it keeps them, else built once on the centers from those
        rows of its metric blocks, with the same bits (a jet reads its row)."""
        if ("jets", params, profile) in self.base._memo:
            return take_rows(self.base.jets_of(params, profile), self.index)
        blocks = MetricBlocks(*(block[self.index] for block in self.base.blocks_of(params, profile)))
        return self.memo(("center jets", params, profile), lambda: _jets_on(self.centers, params, profile, blocks))

    def chart_gradient(self, field) -> np.ndarray:
        """The 2n chart partials of ``field`` at the centers."""
        n = self.centers.n
        rows = lambda z: self if np.array_equal(z, self._z) else Rows(z[:, :n], z[:, n:], self._point_at)
        return fd_gradient(lambda z: field(rows(z)), self._x)

    def frame_gradient(self, field) -> np.ndarray:
        """Derivatives of ``field`` along all 2n adapted-frame directions at
        the centers: the axis after the centers' indexes the frame, entries
        ``0..n-1`` horizontal and ``n..2n-1`` vertical.  The chart partials
        are recombined with the centers' horizontal frame, ``delta_i =
        d/dq^i + p_gamma[i, h] d/dp_h``."""
        pt, n = self.centers, self.centers.n
        partials = self.chart_gradient(field)
        grad = partials.reshape(pt.p.shape[:-1] + (2 * n, -1))
        horizontal = grad[..., :n, :] + pt.p_gamma @ grad[..., n:, :]
        return np.concatenate([horizontal, grad[..., n:, :]], axis=-2).reshape(partials.shape)
