"""One-use stencils for the tests, built the way the package builds its own.

The package's FD oracles take an ``fd.Stencil``, which covers the first rows
of a real ``mtensor.Rows`` (see ``cotangent_kahler.fd``).  The suites build
one per center set of a ``suites.Sample``; a test that holds a bare
``CotangentPoint`` builds one here instead:

* ``stencil_at(pt, params)`` is the stencil at the centers ``pt`` over the
  space form of ``params``, for any oracle;
* ``frame_gradient(field, pt)`` is the frame gradient of a field of a batch
  of points ``Q, P`` of shape ``(m, n)``, at the centers ``pt``;
* ``center_k(params, profile, stencil)`` is a member's ``K`` at the
  centers of a stencil, the ``curv`` that ``nabla_curvature`` takes.
"""

import numpy as np

from cotangent_kahler.base import ModelParams
from cotangent_kahler.curvature import curvature_blocks
from cotangent_kahler.fd import Stencil
from cotangent_kahler.mtensor import CotangentPoint, Rows


def stencil_at(pt: CotangentPoint, params: ModelParams) -> Stencil:
    """The stencil at all the centers ``pt`` (a batch, or one point of batch
    shape ``()``) on rows whose point is ``CotangentPoint.at`` over the
    space form of ``params``."""
    return Stencil(Rows(pt.q, pt.p, lambda q, p: CotangentPoint.at(q, p, params)))


def frame_gradient(field, pt: CotangentPoint) -> np.ndarray:
    """``Stencil.frame_gradient`` of ``field(Q, P)`` at the centers ``pt``,
    which may lie over any base: the field reads only the rows' ``q`` and
    ``p``, so the base rows hand back ``pt`` as their point."""
    return Stencil(Rows(pt.q, pt.p, lambda q, p: pt)).frame_gradient(lambda rows: field(rows.q, rows.p))


def center_k(params: ModelParams, profile, stencil: Stencil) -> np.ndarray:
    """``curvature_blocks`` of the member at the centers of ``stencil``, on
    their fiber jets."""
    return curvature_blocks(stencil.centers, params, stencil.center_jets(params, profile))
