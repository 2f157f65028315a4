"""Radial profile functions ``v(t)`` of the fiber energy density.

A profile enters the bundle metric through ``G_ij = a sqrt(t) g_ij +
v(t) p_i p_j`` and must satisfy the positivity bound ``v(t) > -a /
(2 sqrt(t))``.  Profiles carry exact first and second derivatives because
the connection and curvature formulas consume ``v'`` and ``v''``
analytically; finite differences are used only to cross-check them.

The distinguished family

    v(t) = (n - 2) sqrt(c) / (n sqrt(2)) * t^(-1/2)
           + k_a * t^(-(n+1)/2) + k_b,        k_a, k_b >= 0,

is the general admissible solution of the radial Euler equation that makes
the bundle metric Einstein; ``k_b = 0`` gives the Ricci-flat members.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .base import ModelParams

__all__ = [
    "VProfile",
    "constant_profile",
    "zero_profile",
    "rational_profile",
    "einstein_profile",
    "profile_from_name",
]


@dataclass(frozen=True)
class VProfile:
    """A radial profile with exact derivatives.

    The callables accept scalars or ndarrays of ``t > 0`` and broadcast.
    """

    kind: str
    v: Callable
    dv: Callable
    d2v: Callable

    def jet(self, t):
        """``(v, v', v'')`` at ``t``: float arrays over a batch of energies,
        numpy floats at one."""
        return tuple(np.asarray(f(t), dtype=float)[()] for f in (self.v, self.dv, self.d2v))

    def admissible(self, t, a_metric: float) -> bool:
        """Positivity bound ``v(t) > -a / (2 sqrt(t))`` at every given ``t``."""
        t = np.asarray(t, dtype=float)
        return bool(np.all(self.v(t) > -a_metric / (2.0 * np.sqrt(t))))


def constant_profile(v0: float) -> VProfile:
    return VProfile(
        kind=f"constant({v0})",
        v=lambda t: np.full_like(np.asarray(t, dtype=float), v0, dtype=float)
        if np.ndim(t)
        else v0,
        dv=lambda t: np.zeros_like(np.asarray(t, dtype=float)) if np.ndim(t) else 0.0,
        d2v=lambda t: np.zeros_like(np.asarray(t, dtype=float)) if np.ndim(t) else 0.0,
    )


def zero_profile() -> VProfile:
    return constant_profile(0.0)


def rational_profile() -> VProfile:
    """``v(t) = 1 / (1 + t)``: a smooth, everywhere-admissible profile that is
    not in the Einstein family.  Used to exercise generic-``v`` code paths."""
    return VProfile(
        kind="rational",
        v=lambda t: 1.0 / (1.0 + t),
        dv=lambda t: -1.0 / (1.0 + t) ** 2,
        # An overflow raises on an array as on a float, not a silent zero.
        d2v=np.errstate(over="raise")(lambda t: 2.0 / (1.0 + t) ** 3),
    )


def einstein_profile(params: ModelParams) -> VProfile:
    """The Einstein-family profile selected by ``params.k_a, params.k_b``."""
    n, c, ka, kb = params.n, params.c, params.k_a, params.k_b
    lead = (n - 2.0) * math.sqrt(c) / (n * math.sqrt(2.0))
    ex = -(n + 1.0) / 2.0

    def v(t):
        t = np.asarray(t, dtype=float)
        return lead * t**-0.5 + ka * t**ex + kb

    def dv(t):
        t = np.asarray(t, dtype=float)
        return -0.5 * lead * t**-1.5 + ka * ex * t ** (ex - 1.0)

    def d2v(t):
        t = np.asarray(t, dtype=float)
        return 0.75 * lead * t**-2.5 + ka * ex * (ex - 1.0) * t ** (ex - 2.0)

    return VProfile(kind=f"einstein(k_a={ka}, k_b={kb})", v=v, dv=dv, d2v=d2v)


def profile_from_name(name: str, params: ModelParams) -> VProfile:
    """Profile selector used by the command-line driver."""
    if name == "einstein":
        return einstein_profile(params)
    if name == "rational":
        return rational_profile()
    if name == "zero":
        return zero_profile()
    raise ValueError(f"unknown profile {name!r}; expected einstein, rational, or zero")
