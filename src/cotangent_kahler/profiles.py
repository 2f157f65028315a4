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

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .base import ModelParams

__all__ = [
    "VProfile",
    "zero_profile",
    "rational_profile",
    "einstein_profile",
    "PROFILES",
    "profile_from_name",
]


@dataclass(frozen=True)
class VProfile:
    """A radial profile with exact derivatives.

    The callables take a batch of energies ``t > 0``, an ndarray of any
    shape (``()`` for one energy), and return values over that batch.
    """

    kind: str
    v: Callable
    dv: Callable
    d2v: Callable

    def jet(self, t):
        """``(v, v', v'')`` at ``t``: arrays over the batch of energies,
        complex where they depend on a complex ``t``."""
        return tuple(np.asarray(f(t)) for f in (self.v, self.dv, self.d2v))


@functools.cache
def zero_profile() -> VProfile:
    zeros = lambda t: np.zeros(np.shape(t))
    return VProfile(kind="constant(0.0)", v=zeros, dv=zeros, d2v=zeros)


@functools.cache
def rational_profile() -> VProfile:
    """``v(t) = 1 / (1 + t)``: a smooth, everywhere-admissible profile that is
    not in the Einstein family.  Used to exercise generic-``v`` code paths;
    one object, so that equal members share ``mtensor.Rows``."""
    return VProfile(
        kind="rational",
        v=lambda t: 1.0 / (1.0 + t),
        dv=lambda t: -1.0 / (1.0 + t) ** 2,
        # An overflow raises on an array as on a float, not a silent zero.
        d2v=np.errstate(over="raise")(lambda t: 2.0 / (1.0 + t) ** 3),
    )


@functools.cache
def einstein_profile(params: ModelParams) -> VProfile:
    """The Einstein-family profile selected by ``params.k_a, params.k_b``;
    one object per params, so that equal members share ``mtensor.Rows``."""
    n, c, ka, kb = params.n, params.c, params.k_a, params.k_b
    lead = (n - 2.0) * math.sqrt(c) / (n * math.sqrt(2.0))
    ex = -(n + 1.0) / 2.0

    def v(t):
        t = np.asarray(t)
        return lead * t**-0.5 + ka * t**ex + kb

    def dv(t):
        t = np.asarray(t)
        return -0.5 * lead * t**-1.5 + ka * ex * t ** (ex - 1.0)

    def d2v(t):
        t = np.asarray(t)
        return 0.75 * lead * t**-2.5 + ka * ex * (ex - 1.0) * t ** (ex - 2.0)

    return VProfile(kind=f"einstein(k_a={ka}, k_b={kb})", v=v, dv=dv, d2v=d2v)


# Name -> builder from the model params, for the command-line ``--profile``.
PROFILES = {
    "einstein": einstein_profile,
    "rational": lambda params: rational_profile(),
    "zero": lambda params: zero_profile(),
}


def profile_from_name(name: str, params: ModelParams) -> VProfile:
    """Profile selector used by the command-line driver."""
    if name not in PROFILES:
        raise ValueError(f"unknown profile {name!r}; expected {', '.join(PROFILES)}")
    return PROFILES[name](params)
