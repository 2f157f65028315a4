"""Shared fixtures: deterministic sample points and standard configurations."""

import numpy as np
import pytest

from cotangent_kahler.base import ModelParams
from cotangent_kahler.mtensor import CotangentPoint
from cotangent_kahler.profiles import einstein_profile, rational_profile


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def kahler_params():
    """Integrable coupling in dimension 3 with both family modes on."""
    return ModelParams.kahler(n=3, c=1.4, k_a=0.7, k_b=0.4)


@pytest.fixture
def kahler_profile(kahler_params):
    return einstein_profile(kahler_params)


@pytest.fixture
def generic_params():
    """Detuned coupling: almost Kahler but not Kahler."""
    return ModelParams(n=3, c=1.4, a_metric=1.9)


@pytest.fixture
def generic_profile():
    return rational_profile()


@pytest.fixture
def sample_qp(rng):
    """One generic point (q, p) in dimension 3 with energy of order one."""
    q = rng.uniform(-1.5, 1.5, size=3)
    p = rng.normal(size=3)
    p *= 1.1 / np.linalg.norm(p)
    return q, p


@pytest.fixture
def kahler_point(sample_qp, kahler_params):
    q, p = sample_qp
    return CotangentPoint.at(q, p, kahler_params)


@pytest.fixture
def generic_point(sample_qp, generic_params):
    q, p = sample_qp
    return CotangentPoint.at(q, p, generic_params)
