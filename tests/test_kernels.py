"""The broadcast and matmul kernels of every layer against their einsum
reference (``tests/kernel_reference.py``): the fiber jets, both connection
routes, the Nijenhuis closed form and the chart brackets of its oracle at
n = 2..5, on real rows and on the complex-step rows of a stencil, within
1e-13 of the largest entry of each part of the reference array; the
connection's fiber derivatives,
``curvature_blocks``, ``pair_symmetry_residual`` and
``holomorphic_sectional_curvature`` on an 8-row batch, on the space forms and
off them, each within 1e-13 of the largest entry of the reference array; the
Leibniz terms of ``curvature_fd``, ``nabla_curvature`` and
``parallel_j_residual`` at two centers, on the Kahler and a detuned coupling,
within 1e-12; the Nijenhuis closed form on both couplings, within 1e-14; the space-form
Christoffel symbols exactly; and the space-form curvature and the sampled
points, bit for bit.  An AST guard keeps ``np.einsum`` in the package to permuting axes,
but for the named contractions with one vector.  ``base._permute`` gives the
einsum view's bits at every spec the package passes, found by the AST, on
real, one-row, strided, complex-step, longdouble and object rows, and its
cached indices are read-only."""

import ast
import itertools
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest

import kernel_reference as reference
from base_reference import bumped_geometry
import cotangent_kahler
from cotangent_kahler.base import ModelParams, _permutation_index, _permute, space_form_metric
from cotangent_kahler.connection import (
    connection_coefficients,
    kahler_connection_coefficients,
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
from cotangent_kahler.fd import Stencil
from cotangent_kahler.mtensor import CotangentPoint, Rows, _jets_on, assemble_metric, fiber_jets
from cotangent_kahler.profiles import einstein_profile, rational_profile
from cotangent_kahler.structure import _brackets, assemble_complex_structure, nijenhuis_closed_form, nijenhuis_numeric
from cotangent_kahler.suites import RunConfig, sample_points
from stencils import center_k, stencil_at

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
def test_fiber_derivative_blocks(n, profile_name, base_name):
    pt, params, jets, _ = _batch(n, profile_name, base_name)
    _assert_matches(
        reference.assembled_fiber_derivatives(pt, params, jets),
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
    stencil = stencil_at(pt, params)
    _assert_matches(
        nabla_curvature(params, profile, stencil, center_k(params, profile, stencil)),
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


ROWS = ("real", "stencil")


def _rows(n, rows, base_name):
    """Three real rows over the space form, at the integrable coupling, or
    over the bumped base of ``_batch``, at its detuned coupling, or the 2n
    complex-step rows per center of a stencil at them: the point, its
    params and Einstein profile, and the member's metric blocks."""
    rng = np.random.default_rng([n, ROWS.index(rows), BASES.index(base_name)])
    q, p = rng.uniform(-1.0, 1.0, size=(3, n)), rng.normal(size=(3, n))
    if base_name == "space_form":
        params = ModelParams.kahler(n, C, k_a=0.7, k_b=0.4)
        real = Rows(q, p, lambda qq, pp: CotangentPoint.at(qq, pp, params))
    else:
        params = ModelParams(n=n, c=C, a_metric=1.3, k_a=0.7, k_b=0.4)
        real = Rows(q, p, lambda qq, pp: CotangentPoint.from_base(qq, pp, bumped_geometry(qq, C, 0.05)))
    on = real if rows == "real" else Stencil(real)
    profile = einstein_profile(params)
    return on.points, params, profile, on.blocks_of(params, profile)


def _assert_parts_match(actual, expected, rel=1e-13):
    """Entry for entry within ``rel`` of the largest entry: the real parts,
    and on complex-step rows the imaginary parts, of the size of the step
    1e-30 times a derivative, on their own scale."""
    assert actual.dtype == expected.dtype and actual.shape == expected.shape
    parts = (np.real, np.imag) if np.iscomplexobj(expected) else (np.real,)
    for part, floor in zip(parts, (1e-3, 1e-33)):
        scale = np.max(np.abs(part(expected)))
        assert scale > floor  # nothing trivial is being compared
        npt.assert_allclose(part(actual), part(expected), rtol=0.0, atol=rel * scale)


ROW_CASES = pytest.mark.parametrize(
    "n, rows, base_name", [(n, rows, base_name) for n in (2, 3, 4, 5) for rows in ROWS for base_name in BASES]
)


@ROW_CASES
def test_fiber_jets(n, rows, base_name):
    pt, params, profile, blocks = _rows(n, rows, base_name)
    actual, expected = _jets_on(pt, params, profile, blocks), reference.jets_on(pt, params, profile, blocks)
    for name in ("dgh", "ddgh", "dgv", "ddgv"):
        _assert_parts_match(getattr(actual, name), getattr(expected, name))


@ROW_CASES
def test_connection_coefficients(n, rows, base_name):
    """Both forms on the same jets, the reference's."""
    pt, params, profile, blocks = _rows(n, rows, base_name)
    jets = reference.jets_on(pt, params, profile, blocks)
    _assert_parts_match(connection_coefficients(pt, params, jets), reference.connection_coefficients(pt, params, jets))


@pytest.mark.parametrize("n, rows", [(n, rows) for n in (2, 3, 4, 5) for rows in ROWS])
def test_kahler_connection_coefficients(n, rows):
    pt, params, profile, _ = _rows(n, rows, "space_form")
    _assert_parts_match(
        kahler_connection_coefficients(pt, params, profile),
        reference.kahler_connection_coefficients(pt, params, profile),
    )


@pytest.mark.parametrize("n, rows", [(n, rows) for n in (2, 3, 4, 5) for rows in ROWS])
def test_nijenhuis_closed_form_on_rows(n, rows):
    """On the bumped base, whose detuned coupling keeps ``N`` away from
    rounding residue; the closed form reads only the vertical block."""
    pt, params, _, blocks = _rows(n, rows, "bumped")
    _assert_parts_match(nijenhuis_closed_form(pt, params, blocks), reference.nijenhuis_closed_form(pt, params, blocks))


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_chart_brackets(n):
    """On random fields and gradients at two centers: the package's layout
    ``[a, chart, b]`` against the reference's ``[a, b, chart]``."""
    rng = np.random.default_rng(n)
    x, y = rng.normal(size=(2, 2, 2 * n, 2 * n))
    dx, dy = rng.normal(size=(2, 2, 2 * n, 2 * n, 2 * n))
    _assert_matches(np.swapaxes(_brackets(x, dx, y, dy), -1, -2), reference.brackets(x, dx, y, dy))


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_nijenhuis_numeric(n):
    """The bracket oracle at two centers on the detuned coupling, where ``N``
    is not rounding residue."""
    pt, params, profile, _, _ = _centers(n, "detuned")
    _assert_matches(
        nijenhuis_numeric(params, profile, stencil_at(pt, params)),
        reference.nijenhuis_numeric(params, profile, stencil_at(pt, params)),
        rel=1e-12,
    )


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_space_form_gamma_is_exact(n):
    """The three broadcast products give the values of the three einsums
    with the identity, every bit but the sign of a zero, on the rows of
    ``test_space_form_riemann_is_bit_identical``."""
    params = ModelParams.kahler(n, C)
    x = np.random.default_rng(n).uniform(-2.0, 2.0, size=(72, n))
    step = x[:1].astype(complex)
    step[0, -1] += 1e-30j
    for rows in (x, x[0], x[:1], x.astype(complex), step):
        actual, expected = space_form_metric(rows, params).gamma, reference.space_form_gamma(rows, params)
        assert actual.dtype == expected.dtype and actual.shape == expected.shape
        assert np.array_equal(actual, expected)


# The one kind of two-operand einsum the package keeps: a contraction with
# the momentum, a single vector, per module and subscripts.
VECTOR_CONTRACTIONS = {
    ("mtensor.py", "...k,...kih->...ih"),
    ("mtensor.py", "...h,...hkij->...kij"),
}


def test_einsum_only_permutes_axes_but_for_vector_contractions():
    """Every ``np.einsum`` call in the package has one array operand, but for
    the contractions with the momentum of ``VECTOR_CONTRACTIONS``, each of
    which is still there: an outer product is a broadcast multiply and a sum
    over an index a batched ``@`` (``base``'s contraction rule)."""
    found = set()
    for path in sorted(Path(cotangent_kahler.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr == "einsum":
                key = (path.name, ast.literal_eval(node.args[0]))
                assert len(node.args) == 2 or key in VECTOR_CONTRACTIONS, f"{key}, line {node.lineno}"
                found.add(key)
    assert VECTOR_CONTRACTIONS <= found


def _permute_specs():
    """Every spec the package passes to ``base._permute``, read from its AST."""
    specs = set()
    for path in sorted(Path(cotangent_kahler.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "_permute":
                specs.add(ast.literal_eval(node.args[1]))
    return sorted(specs)


PERMUTE_SPECS = _permute_specs()


def _permute_inputs(n, rank):
    """Arrays with ``rank`` trailing axes of size ``n``: real rows, one row
    (a ``()`` batch), a non-contiguous slice of a connection (rank 3) or of
    ``K`` (rank 4), complex-step rows, longdouble rows and object rows."""
    pt, params, jets, rng = _batch(n, "einstein", "space_form")
    if rank == 3:
        view = connection_coefficients(pt, params, jets)[..., n:, :n, n:]
    else:
        view = curvature_blocks(pt, params, jets)[..., :n, n:, :n, n:]
    assert not view.flags.c_contiguous
    real = rng.normal(size=(3,) + (n,) * rank)
    return {
        "real": real,
        "one": real[0],
        "view": view,
        "step": real + 1e-30j * rng.normal(size=real.shape),
        "longdouble": real.astype(np.longdouble),
        "object": real.astype(object),
    }


def test_permute_covers_the_package():
    assert len(PERMUTE_SPECS) >= 10
    assert all(sorted(spec.split("->")[0]) == sorted(spec.split("->")[1]) for spec in PERMUTE_SPECS)


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("spec", PERMUTE_SPECS)
def test_permute_is_the_einsum_view(spec, n):
    """The gather gives the einsum view's bits, or for object rows its very
    objects, in a new array that shares no memory with its input."""
    for name, x in _permute_inputs(n, spec.index("-")).items():
        actual, expected = _permute(x, spec), np.einsum("..." + spec.replace("->", "->..."), x)
        assert actual.dtype == expected.dtype and actual.shape == expected.shape, name
        assert actual.flags.c_contiguous and not np.shares_memory(actual, x), name
        if name == "object":
            assert all(a is b for a, b in zip(actual.ravel(), expected.ravel()))
        else:
            assert actual.tobytes() == expected.tobytes(), name


@pytest.mark.parametrize("n", [2, 3])
def test_gather_indices_are_read_only(n):
    for index in [_permutation_index(n, spec) for spec in PERMUTE_SPECS]:
        assert not index.flags.writeable
        with pytest.raises(ValueError):
            index[0] = 1


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


@pytest.mark.parametrize("coupling", ["kahler", "detuned"])
@pytest.mark.parametrize("profile_name", PROFILES)
@pytest.mark.parametrize("n", [2, 3, 5])
def test_nijenhuis_closed_form(n, profile_name, coupling):
    """On an 8-row batch of the space form, at the integrable coupling, where
    ``N`` is rounding residue, and at the witnesses' detuned coupling ``1.1
    sqrt(2c)``, where it is not."""
    rng = np.random.default_rng([n, PROFILES.index(profile_name), ("kahler", "detuned").index(coupling)])
    params = ModelParams.kahler(n, C, k_a=0.7, k_b=0.4)
    if coupling == "detuned":
        params = ModelParams(n=n, c=C, a_metric=1.1 * params.a_metric, k_a=0.7, k_b=0.4)
    profile = einstein_profile(params) if profile_name == "einstein" else rational_profile()
    pt = CotangentPoint.at(rng.uniform(-2.0, 2.0, size=(BATCH, n)), rng.normal(size=(BATCH, n)), params)
    jets = fiber_jets(pt, params, profile)
    expected = reference.nijenhuis_closed_form(pt, params, jets)
    scale = np.max(np.abs(expected))
    assert scale > (1e-3 if coupling == "detuned" else 0.0)
    actual = nijenhuis_closed_form(pt, params, jets)
    assert actual.shape == expected.shape
    npt.assert_allclose(actual, expected, rtol=0.0, atol=1e-14 * scale)


WINDOWS = ((0.1, 10.0), (1e-4, 1e-2), (1e2, 1e4), (1e100, 1e140))


@pytest.mark.parametrize("n", [2, 3, 5])
def test_sample_points_is_bit_identical(n):
    """The package's draws against the per-sample loop, with equal bits on
    every seed, curvature, energy window and sample count of a small grid.
    This is what fails if a numpy release changes the arithmetic of
    ``Generator.uniform`` or ``Generator.normal``."""
    for seed, c, (t_min, t_max), samples in itertools.product((0, 7), (0.01, 1.0, 50.0), WINDOWS, (1, 2, 37)):
        cfg = RunConfig(
            dims=(n,), curvatures=(c,), samples=samples, t_min=t_min, t_max=t_max, seed=seed, suites=("integrability",)
        )
        params = ModelParams.kahler(n, c)
        actual, expected = sample_points(cfg, n, c, params), reference.sample_points(cfg, n, c, params)
        assert actual.dtype == expected.dtype and actual.shape == expected.shape == (samples, 2, n)
        assert actual.tobytes() == expected.tobytes()
