"""The matmul kernels of the curvature path against their einsum reference
(``tests/kernel_reference.py``): ``connection_fiber_derivatives``,
``curvature_blocks``, ``pair_symmetry_residual`` and
``holomorphic_sectional_curvature`` on an 8-row batch, on the space forms and
off them, each within 1e-13 of the largest entry of the reference array; the
Leibniz terms of ``curvature_fd``, ``nabla_curvature`` and
``parallel_j_residual`` at two centers, on the Kahler and a detuned coupling,
within 1e-12; and the space-form curvature, bit for bit."""

import numpy as np
import numpy.testing as npt
import pytest

import kernel_reference as reference
from base_reference import bumped_geometry
from cotangent_kahler.base import ModelParams, space_form_metric
from cotangent_kahler.connection import (
    connection_coefficients,
    connection_fiber_derivatives,
    metric_gradient,
    parallel_j_residual,
)
from cotangent_kahler.curvature import (
    curvature_blocks,
    curvature_fd,
    holomorphic_sectional_curvature,
    nabla_curvature,
    pair_symmetry_residual,
)
from cotangent_kahler.mtensor import CotangentPoint, assemble_metric, fiber_jets
from cotangent_kahler.profiles import einstein_profile, rational_profile
from cotangent_kahler.structure import assemble_complex_structure
from stencils import stencil_at

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


def _assert_matches(actual, expected, rel=1e-13):
    scale = np.max(np.abs(expected))
    assert scale > 1e-3  # nothing trivial is being compared
    assert actual.shape == expected.shape
    npt.assert_allclose(actual, expected, rtol=0.0, atol=rel * scale)


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


ORACLE_CASES = pytest.mark.parametrize(
    "n, coupling", [(n, coupling) for n in (2, 3, 4, 5) for coupling in ("kahler", "detuned")]
)


def _centers(n, coupling):
    """Two oracle centers on the space form, with params, profile and fiber
    jets, at the integrable coupling or 10% off it."""
    rng = np.random.default_rng([n, ("kahler", "detuned").index(coupling)])
    params = ModelParams.kahler(n, C, k_a=0.7, k_b=0.4)
    if coupling == "detuned":
        params = ModelParams(n=n, c=C, a_metric=1.1 * params.a_metric, k_a=0.7, k_b=0.4)
    profile = einstein_profile(params)
    pt = CotangentPoint.at(rng.uniform(-1.0, 1.0, size=(2, n)), rng.normal(size=(2, n)), params)
    return pt, params, profile, fiber_jets(pt, params, profile), rng


@ORACLE_CASES
def test_curvature_fd(n, coupling):
    pt, params, profile, jets, _ = _centers(n, coupling)
    _assert_matches(
        curvature_fd(params, profile, stencil_at(pt, params)),
        reference.curvature_fd(params, profile, pt, jets),
        rel=1e-12,
    )


@ORACLE_CASES
def test_nabla_curvature(n, coupling):
    """The gradient of the six stored blocks, assembled, against that of the
    assembled ``K``."""
    pt, params, profile, jets, _ = _centers(n, coupling)
    _assert_matches(
        nabla_curvature(params, profile, stencil_at(pt, params)),
        reference.nabla_curvature(params, profile, pt, jets),
        rel=1e-12,
    )


@ORACLE_CASES
def test_parallel_j_residual(n, coupling):
    """On the metric gradient plus a random tensor of its size, so that the
    residual is of the size of its terms at the Kahler coupling too."""
    pt, params, profile, jets, rng = _centers(n, coupling)
    conn = connection_coefficients(pt, params, jets)
    grad = metric_gradient(params, profile, stencil_at(pt, params))
    grad = grad + np.max(np.abs(grad)) * rng.normal(size=grad.shape)
    _assert_matches(
        parallel_j_residual(conn, jets, grad),
        reference.parallel_j_residual(conn, jets, grad),
        rel=1e-12,
    )


@pytest.mark.parametrize("n", [2, 3, 5])
def test_space_form_riemann_is_bit_identical(n):
    """The constant sign tensor times ``c / f^2`` gives the bits of the two
    outer products with the identity: on real rows, on one point, on
    complex rows with a zero imaginary part and on a complex-step row."""
    params = ModelParams.kahler(n, C)
    x = np.random.default_rng(n).uniform(-2.0, 2.0, size=(72, n))
    step = x[:1].astype(complex)
    step[0, -1] += 1e-30j
    for rows in (x, x[0], x[:1], x.astype(complex), step):
        actual = space_form_metric(rows, params).riemann
        expected = reference.space_form_riemann(rows, params)
        assert actual.dtype == expected.dtype and actual.shape == expected.shape
        assert actual.tobytes() == expected.tobytes()
