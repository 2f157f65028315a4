"""Finite-difference derivative engine used by every numerical oracle.

All cross-checks in this package compare closed-form expressions against
derivatives that are recomputed numerically from scratch.  The engine is
deliberately simple and well characterised:

* first derivatives use the 4th-order central stencil
  ``(-f(x+2h) + 8 f(x+h) - 8 f(x-h) + f(x-2h)) / (12 h)``,
* one optional level of Richardson extrapolation combines step ``h`` with
  step ``h/2`` and cancels the leading ``O(h^4)`` term, giving ``O(h^6)``,
* steps scale with the magnitude of the coordinate being displaced.

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


def _stencil_eval(f: Callable[[np.ndarray], np.ndarray], x: np.ndarray, d: int, h: float):
    acc = None
    for offset, weight in zip(_STENCIL_OFFSETS, _STENCIL_WEIGHTS):
        shifted = np.array(x, dtype=float)
        shifted[d] += offset * h
        value = np.asarray(f(shifted), dtype=float)
        if not np.all(np.isfinite(value)):
            raise StencilError(
                f"non-finite stencil value at coordinate {d}, offset {offset * h:+.3e}"
            )
        acc = weight * value if acc is None else acc + weight * value
    return acc / h


def fd_partial(
    f: Callable[[np.ndarray], np.ndarray],
    x: np.ndarray,
    d: int,
    cfg: FDConfig | None = None,
) -> np.ndarray:
    """Partial derivative of ``f`` with respect to coordinate ``d`` at ``x``.

    ``f`` may return a scalar or an ndarray of any fixed shape; the result
    has the same shape.
    """
    cfg = cfg or FDConfig()
    x = np.asarray(x, dtype=float)
    h = cfg.step_for(x[d])
    estimate = _stencil_eval(f, x, d, h)
    for _ in range(cfg.richardson_levels - 1):
        h *= 0.5
        finer = _stencil_eval(f, x, d, h)
        estimate = richardson_extrapolate(estimate, finer, order=4)
    return estimate


def fd_gradient(f, x, cfg: FDConfig | None = None) -> np.ndarray:
    """All partial derivatives of ``f`` at ``x``; axis 0 indexes the coordinate."""
    x = np.asarray(x, dtype=float)
    return np.stack([fd_partial(f, x, d, cfg) for d in range(x.size)])


# ---------------------------------------------------------------------------
# frame derivatives on the cotangent bundle
# ---------------------------------------------------------------------------


def _joint(field, n: int):
    """Wrap a field of (q, p) as a field of the joint 2n-vector z = (q, p)."""

    def f(z: np.ndarray):
        return field(z[:n], z[n:])

    return f


def frame_gradient(
    field,
    q: np.ndarray,
    p: np.ndarray,
    gamma: np.ndarray,
    cfg: FDConfig | None = None,
) -> np.ndarray:
    """Derivatives of ``field(q, p)`` along all 2n adapted-frame directions.

    Axis 0 of the result indexes the frame: entries ``0..n-1`` are the
    horizontal directions, entries ``n..2n-1`` the vertical ones.  The 2n
    chart partials are evaluated once (one ``fd_partial`` call each) and
    recombined with the chart frame: ``delta_i = d/dq^i + p_gamma[i, h]
    d/dp_h``.
    """
    q = np.asarray(q, dtype=float)
    p = np.asarray(p, dtype=float)
    n = q.size
    partials = fd_gradient(_joint(field, n), np.concatenate([q, p]), cfg)
    p_gamma = np.einsum("k,kih->ih", p, gamma)
    partials[:n] += np.tensordot(p_gamma, partials[n:], axes=1)
    return partials
