"""The matmul kernels of the curvature path against their einsum reference
(``tests/kernel_reference.py``): ``connection_fiber_derivatives``,
``curvature_blocks``, ``pair_symmetry_residual`` and
``holomorphic_sectional_curvature`` on an 8-row batch, on the space forms and
off them, each within 1e-13 of the largest entry of the reference array."""

import numpy as np
import numpy.testing as npt
import pytest

import kernel_reference as reference
from base_reference import bumped_geometry
from cotangent_kahler import (
    CotangentPoint,
    ModelParams,
    assemble_complex_structure,
    assemble_metric,
    connection_fiber_derivatives,
    curvature_blocks,
    einstein_profile,
    fiber_jets,
    holomorphic_sectional_curvature,
    pair_symmetry_residual,
    rational_profile,
)

BATCH = 8
C = 1.4
PROFILES = ("einstein", "rational")
BASES = ("space_form", "bumped")


def _batch(n, profile_name, base_name):
    """An 8-row batch of points with its params and fiber jets.  The bumped
    base has the detuned coupling of the off-space-form fixture in
    ``test_structure``."""
    rng = np.random.default_rng([n, PROFILES.index(profile_name), BASES.index(base_name)])
    q = rng.uniform(-1.0, 1.0, size=(BATCH, n))
    p = rng.normal(size=(BATCH, n))
    if base_name == "space_form":
        params = ModelParams.kahler(n, C, k_a=0.7, k_b=0.4)
        pt = CotangentPoint.at(q, p, params)
    else:
        params = ModelParams(n=n, c=C, a_metric=1.3, k_a=0.7, k_b=0.4)
        pt = CotangentPoint.from_base(q, p, bumped_geometry(q, C, 0.05))
    profile = einstein_profile(params) if profile_name == "einstein" else rational_profile()
    return pt, params, fiber_jets(pt, params, profile), rng


def _assert_matches(actual, expected):
    scale = np.max(np.abs(expected))
    assert scale > 1e-3  # nothing trivial is being compared
    assert actual.shape == expected.shape
    npt.assert_allclose(actual, expected, rtol=0.0, atol=1e-13 * scale)


CASES = pytest.mark.parametrize(
    "n, profile_name, base_name",
    [
        (n, profile_name, base_name)
        for n in (2, 3, 5)
        for profile_name in PROFILES
        for base_name in BASES
    ],
)


@CASES
def test_connection_fiber_derivatives(n, profile_name, base_name):
    pt, params, jets, _ = _batch(n, profile_name, base_name)
    _assert_matches(
        connection_fiber_derivatives(pt, params, jets),
        reference.connection_fiber_derivatives(pt, params, jets),
    )


@CASES
def test_curvature_blocks(n, profile_name, base_name):
    pt, params, jets, _ = _batch(n, profile_name, base_name)
    _assert_matches(curvature_blocks(pt, params, jets), reference.curvature_blocks(pt, params, jets))


@CASES
def test_pair_symmetry_residual(n, profile_name, base_name):
    """On ``K`` plus a random tensor of its size, so that the residual is of
    the size of ``K`` and not rounding residue."""
    pt, params, jets, rng = _batch(n, profile_name, base_name)
    curv = reference.curvature_blocks(pt, params, jets)
    curv = curv + np.max(np.abs(curv)) * rng.normal(size=curv.shape)
    metric = assemble_metric(jets)
    vectors = rng.normal(size=(BATCH, 4, 4, 2 * n))
    _assert_matches(
        pair_symmetry_residual(curv, metric, vectors),
        reference.pair_symmetry_residual(curv, metric, vectors),
    )


@CASES
def test_holomorphic_sectional_curvature(n, profile_name, base_name):
    """On ``K`` plus a random tensor of its size, as for the pair symmetry,
    with one section per row."""
    pt, params, jets, rng = _batch(n, profile_name, base_name)
    curv = reference.curvature_blocks(pt, params, jets)
    curv = curv + np.max(np.abs(curv)) * rng.normal(size=curv.shape)
    metric, j_op = assemble_metric(jets), assemble_complex_structure(jets)
    x = rng.normal(size=(BATCH, 2 * n))
    _assert_matches(
        holomorphic_sectional_curvature(curv, metric, j_op, x),
        reference.holomorphic_sectional_curvature(curv, metric, j_op, x),
    )
