"""Finite-difference derivative engine used by every numerical oracle.

All cross-checks in this package compare closed-form expressions against
derivatives that are recomputed numerically from scratch.  The engine is
deliberately simple and well characterised:

* first derivatives use the 4th-order central stencil
  ``(-f(x+2h) + 8 f(x+h) - 8 f(x-h) + f(x-2h)) / (12 h)``,
* one optional level of Richardson extrapolation combines step ``h`` with
  step ``h/2`` and cancels the leading ``O(h^4)`` term, giving ``O(h^6)``,
* steps scale with the magnitude of the coordinate being displaced.

Fields are batched: ``f(X)`` takes ``X`` of shape ``(m, dim)`` and returns
``(m, ...)``, one row per point.  ``fd_partial`` stacks the whole stencil
along one coordinate -- offsets ``-2, -1, +1, +2`` at each of the
``richardson_levels`` steps -- and evaluates it in one call.

Frame derivatives on the punctured cotangent bundle (the adapted frame
``d/dq^i + p_k Gamma^k_{ih} d/dp_h`` and ``d/dp_i``, indexed ``0..2n-1``
with the horizontal directions first) are built on top of plain partial
derivatives in the chart coordinates ``(q, p)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import StencilError

__all__ = [
    "FDConfig",
    "fd_partial",
    "fd_gradient",
    "richardson_extrapolate",
    "frame_gradient",
]

# Coefficients of the 4th-order central first-derivative stencil, offsets
# (-2, -1, +1, +2) in units of the step.
_STENCIL_OFFSETS = np.array([-2.0, -1.0, 1.0, 2.0])
_STENCIL_WEIGHTS = np.array([1.0, -8.0, 8.0, -1.0]) / 12.0


@dataclass(frozen=True)
class FDConfig:
    """Step policy for the finite-difference engine.

    Attributes:
        base_step: nominal displacement before relative scaling.
        richardson_levels: number of step sizes combined by Richardson
            extrapolation; 1 means the raw 4th-order stencil, 2 adds one
            extrapolation level (the default).
        relative: if true, the step for coordinate ``x_d`` is
            ``base_step * max(1, |x_d|)``.
    """

    base_step: float = 1e-4
    richardson_levels: int = 2
    relative: bool = True

    def __post_init__(self) -> None:
        if not (self.base_step > 0.0 and np.isfinite(self.base_step)):
            raise StencilError(f"base_step must be positive and finite, got {self.base_step}")
        if self.richardson_levels < 1:
            raise StencilError(f"richardson_levels must be >= 1, got {self.richardson_levels}")

    def step_for(self, coordinate: float) -> float:
        h = self.base_step * max(1.0, abs(coordinate)) if self.relative else self.base_step
        if h <= 0.0 or not np.isfinite(h):
            raise StencilError(f"degenerate finite-difference step {h}")
        return h


def richardson_extrapolate(coarse: np.ndarray, fine: np.ndarray, order: int = 4, ratio: float = 2.0):
    """Combine estimates at step ``h`` (coarse) and ``h / ratio`` (fine) for a
    method whose leading error is ``O(h^order)``."""
    weight = ratio**order
    return (weight * fine - coarse) / (weight - 1.0)


def fd_partial(
    f: Callable[[np.ndarray], np.ndarray],
    x: np.ndarray,
    d: int,
    cfg: FDConfig | None = None,
) -> np.ndarray:
    """Partial derivative of ``f`` with respect to coordinate ``d`` at ``x``.

    ``f`` maps a batch of points ``(m, dim)`` to ``(m, ...)`` with a scalar
    or any fixed shape per point; the result has that shape.  All
    ``4 * richardson_levels`` stencil points go to ``f`` in one call, offsets
    ``-2, -1, +1, +2`` of the first step, then of each halved step.
    """
    cfg = cfg or FDConfig()
    x = np.asarray(x, dtype=float)
    steps = cfg.step_for(x[d]) * 0.5 ** np.arange(cfg.richardson_levels)
    shifts = np.outer(steps, _STENCIL_OFFSETS).ravel()
    points = np.repeat(x[None, :], shifts.size, axis=0)
    points[:, d] += shifts
    values = np.asarray(f(points), dtype=float)
    bad = ~np.isfinite(values.reshape(shifts.size, -1)).all(axis=1)
    if bad.any():
        raise StencilError(
            f"non-finite stencil value at coordinate {d}, offset {shifts[np.argmax(bad)]:+.3e}"
        )
    estimate = None
    for h, level in zip(steps, values.reshape(steps.shape + (4,) + values.shape[1:])):
        acc = None
        for weight, value in zip(_STENCIL_WEIGHTS, level):
            acc = weight * value if acc is None else acc + weight * value
        finer = acc / h
        estimate = finer if estimate is None else richardson_extrapolate(estimate, finer, order=4)
    return estimate


def fd_gradient(f, x, cfg: FDConfig | None = None) -> np.ndarray:
    """All partial derivatives of the batched field ``f`` at ``x``; axis 0
    indexes the coordinate."""
    x = np.asarray(x, dtype=float)
    return np.stack([fd_partial(f, x, d, cfg) for d in range(x.size)])


# ---------------------------------------------------------------------------
# frame derivatives on the cotangent bundle
# ---------------------------------------------------------------------------


def _joint(field, n: int):
    """Wrap a batched field of (q, p) as a field of the joint 2n-vectors
    z = (q, p)."""

    def f(z: np.ndarray):
        return field(z[..., :n], z[..., n:])

    return f


def frame_gradient(
    field,
    q: np.ndarray,
    p: np.ndarray,
    gamma: np.ndarray,
    cfg: FDConfig | None = None,
) -> np.ndarray:
    """Derivatives of ``field(q, p)`` along all 2n adapted-frame directions.

    ``field(Q, P)`` takes a batch of points, ``Q`` and ``P`` of shape ``(m,
    n)``, and returns ``(m, ...)``.  Axis 0 of the result indexes the frame:
    entries ``0..n-1`` are the horizontal directions, entries ``n..2n-1`` the
    vertical ones.  The 2n chart partials are evaluated once (one
    ``fd_partial`` call, hence one field call, each) and recombined with the
    chart frame: ``delta_i = d/dq^i + p_gamma[i, h] d/dp_h``.
    """
    q = np.asarray(q, dtype=float)
    p = np.asarray(p, dtype=float)
    n = q.size
    partials = fd_gradient(_joint(field, n), np.concatenate([q, p]), cfg)
    p_gamma = np.einsum("k,kih->ih", p, gamma)
    partials[:n] += np.tensordot(p_gamma, partials[n:], axes=1)
    return partials
