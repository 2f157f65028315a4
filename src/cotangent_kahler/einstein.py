"""Einstein condition for the bundle metric: reduction to a radial ODE.

At the integrable coupling both Ricci blocks differ from multiples of the
metric blocks by rank-one terms along the momentum, and both rank-one
coefficients are controlled by one scalar factor

    gamma(t) = (2 - n) sqrt(c) - 2 (n + 3) sqrt(2) t^(3/2) v'
               - 4 sqrt(2) t^(5/2) v'',

which is ``-4 sqrt(2) sqrt(t)`` times the residual of the Euler equation

    t^2 v'' + (n + 3)/2 t v' = (2 - n) sqrt(c) / (4 sqrt(2)) t^(-1/2)

for every profile: an identity of the two formulas, which the tests pin
and the report does not check, as no input can break it.

The metric is Einstein iff gamma vanishes identically; the general
admissible solution adds ``k_a t^(-(n+1)/2) + k_b`` to the particular
power, and the Einstein constant is ``-(n + 1) k_b / 2``.

The pointwise functions keep the point's leading batch axis.
"""

from __future__ import annotations

import math

import numpy as np

from .base import ModelParams, _max_abs, _outer, _scale
from .curvature import RicciBlocks, ricci_trace_coefficient
from .errors import GeometryError
from .mtensor import CotangentPoint, FiberJets

__all__ = [
    "gamma_factor",
    "euler_ode_residual",
    "einstein_difference",
    "einstein_difference_closed_form",
    "family_einstein_constant",
    "einstein_residual",
]


def gamma_factor(params: ModelParams, profile, t) -> np.ndarray:
    """The scalar obstruction to the Einstein condition at energy ``t``, in ``t``'s dtype."""
    n, c = params.n, params.c
    t = np.asarray(t)
    _, dv, d2v = profile.jet(t)
    s2 = math.sqrt(2.0)
    return (2.0 - n) * math.sqrt(c) - 2.0 * (n + 3.0) * s2 * t**1.5 * dv - 4.0 * s2 * t**2.5 * d2v


def euler_ode_residual(params: ModelParams, profile, t) -> np.ndarray:
    """``t^2 v'' + (n+3)/2 t v' - (2-n) sqrt(c) / (4 sqrt(2)) t^(-1/2)``.

    Vanishes exactly on the Einstein family; relates to the obstruction by
    ``gamma = -4 sqrt(2) sqrt(t) * residual``.  In ``t``'s dtype.
    """
    n, c = params.n, params.c
    t = np.asarray(t)
    _, dv, d2v = profile.jet(t)
    rhs = (2.0 - n) * math.sqrt(c) / (4.0 * math.sqrt(2.0)) * t**-0.5
    return t**2 * d2v + 0.5 * (n + 3.0) * t * dv - rhs


def _proportionality(params: ModelParams, profile, t):
    """Candidate Einstein factor ``a(t) / (2 sqrt(2 c t))`` that kills the
    isotropic parts of both Ricci blocks."""
    a_tr = ricci_trace_coefficient(params, profile, t)
    return a_tr / (2.0 * np.sqrt(2.0 * params.c * t))


def einstein_difference(
    pt: CotangentPoint, params: ModelParams, profile, jets: FiberJets, ricci: RicciBlocks
) -> tuple[np.ndarray, np.ndarray]:
    """``Ric - lambda(t) G`` blockwise, by direct subtraction.

    ``ricci`` is the block-trace Ricci of the same member at the same
    points (``ricci_from_blocks``), so nothing here leans on the
    closed-form Ricci displays.  What remains is rank one along the
    momentum in each block; its size is the pointwise failure of the
    Einstein condition.
    """
    lam = _scale(_proportionality(params, profile, pt.t), 2)
    return ricci.hh - lam * jets.gh, ricci.vv - lam * jets.gv


def einstein_difference_closed_form(
    pt: CotangentPoint, params: ModelParams, profile
) -> tuple[np.ndarray, np.ndarray]:
    """Predicted rank-one differences, entirely in terms of ``gamma``.

    Horizontal: ``(sqrt(c) + sqrt(2t) v) gamma / (4t) * p p``.  Vertical:
    ``gamma / (8 t^2 (sqrt(c) + sqrt(2t) v)) * p^ p^``.
    """
    if not params.is_integrable:
        raise GeometryError("the Einstein reduction requires the coupling a = sqrt(2c)")
    c, t = params.c, pt.t
    v = profile.jet(t)[0]
    gam = gamma_factor(params, profile, t)
    admis = math.sqrt(c) + np.sqrt(2.0 * t) * v
    diff_hh = _scale(admis * gam / (4.0 * t), 2) * _outer(pt.p, pt.p)
    diff_vv = _scale(gam / (8.0 * t**2 * admis), 2) * _outer(pt.p_up, pt.p_up)
    return diff_hh, diff_vv


def family_einstein_constant(params: ModelParams) -> float:
    """``Ric = -(n+1) k_b / 2 * G`` on the Einstein family."""
    return -0.5 * (params.n + 1.0) * params.k_b


def einstein_residual(params: ModelParams, jets: FiberJets, ricci: RicciBlocks) -> np.ndarray:
    """``max |Ric - lambda_family G|`` over both blocks, with the family's
    theoretical constant (not a fitted one)."""
    lam = family_einstein_constant(params)
    return _max_abs(ricci.hh - lam * jets.gh, ricci.vv - lam * jets.gv, rank=2)

