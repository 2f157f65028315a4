"""Acceptance gate: one test per headline guarantee of the package.

Each test pins the tolerances the package promises to hold, independently
of the (often stricter) defaults used by the verification suites.  Run
with ``pytest -v tests/test_acceptance.py`` to get one pass/fail line per
guarantee.  The full default verification run is executed once through
the command-line entry point and shared by the tests that grade it.
"""

import json

import numpy as np
import numpy.testing as npt
import pytest

import fd_reference
from cotangent_kahler.base import ModelParams, integrable_coupling
from cotangent_kahler.cli import main
from cotangent_kahler.curvature import (
    curvature_blocks,
    curvature_fd,
    holomorphic_sectional_curvature,
    nabla_curvature_probe,
    ricci_from_blocks,
)
from cotangent_kahler.einstein import (
    einstein_residual,
    euler_ode_residual,
    family_einstein_constant,
    gamma_factor,
)
from cotangent_kahler.mtensor import CotangentPoint, assemble_metric, fiber_jets
from cotangent_kahler.profiles import einstein_profile
from cotangent_kahler.structure import (
    assemble_complex_structure,
    canonical_coordinate_form,
    complex_structure_squared_residual,
    coordinate_form,
    dform_residual,
    fundamental_form,
    hermitian_residual,
    nijenhuis_closed_form,
    nijenhuis_numeric,
)
from cotangent_kahler.suites import RunConfig, run_verification, sample_points
from stencils import center_k, frame_gradient, stencil_at

GRID = [(n, c) for n in (2, 3) for c in (0.5, 1.0, 2.0)]


def _member(n, c, k_a=1.0, k_b=1.0):
    params = ModelParams.kahler(n=n, c=c, k_a=k_a, k_b=k_b)
    return params, einstein_profile(params)


def _suite_configs(report, suite_name):
    suite = next(s for s in report["suites"] if s["name"] == suite_name)
    for cfg_out in suite["configs"]:
        label = f"n={cfg_out['dim']}, c={cfg_out['curvature']:g}"
        checks = {ch["name"]: ch["value"] for ch in cfg_out["checks"]}
        yield label, cfg_out, checks


@pytest.fixture(scope="module")
def default_run(tmp_path_factory):
    """Exit code and report of one full default verification run."""
    path = tmp_path_factory.mktemp("acceptance") / "report.json"
    code = main(["--report", str(path)])
    return code, json.loads(path.read_text())


# ---------------------------------------------------------------------------
# 1. almost-Kahler structure
# ---------------------------------------------------------------------------


def test_almost_kahler_identities_across_grid():
    """J^2 = -I, G Hermitian, phi canonical and closed, at 100 points per config."""
    cfg = RunConfig()
    for n, c in GRID:
        params, profile = _member(n, c)
        j_sq = herm = canon = dphi = 0.0
        points = sample_points(cfg, n, c, params)
        assert len(points) == 100
        for q, p in points:
            pt = CotangentPoint.at(q, p, params)
            jets = fiber_jets(pt, params, profile)
            j_op = assemble_complex_structure(jets)
            metric = assemble_metric(jets)
            j_sq = max(j_sq, complex_structure_squared_residual(j_op))
            herm = max(herm, hermitian_residual(metric, j_op))
            phi = fundamental_form(metric, j_op)
            canon = max(
                canon,
                float(np.max(np.abs(coordinate_form(pt, phi) - canonical_coordinate_form(n)))),
            )
            dphi = max(dphi, dform_residual(params, profile, stencil_at(pt, params)))
        label = f"n={n}, c={c:g}"
        assert j_sq < 1e-11, f"J^2 + I residual {j_sq:.3e} at {label}"
        assert herm < 1e-10, f"Hermitian residual {herm:.3e} at {label}"
        assert canon < 1e-12, f"fundamental form vs canonical {canon:.3e} at {label}"
        assert dphi < 1e-6, f"d(phi) residual {dphi:.3e} at {label}"


# ---------------------------------------------------------------------------
# 2. integrability dichotomy in the coupling
# ---------------------------------------------------------------------------


def test_integrability_dichotomy_in_coupling(default_run):
    """N vanishes iff the coupling is sqrt(2c); 10% detuning is always visible."""
    _, report = default_run
    for label, _, checks in _suite_configs(report, "integrability"):
        value = checks["nijenhuis_vanishes"]
        assert value < 1e-8, f"closed-form N {value:.3e} at tuned coupling, {label}"
        value = checks["nijenhuis_matches_bracket_oracle"]
        assert value < 1e-5, f"bracket-oracle mismatch {value:.3e} at {label}"

    cfg = RunConfig(samples=25)
    for n, c in GRID:
        detuned = ModelParams(
            n=n, c=c, a_metric=1.1 * integrable_coupling(c), k_a=1.0, k_b=1.0
        )
        profile = einstein_profile(detuned)
        points = sample_points(cfg, n, c, detuned)
        witness = []
        for q, p in points:
            pt = CotangentPoint.at(q, p, detuned)
            jets = fiber_jets(pt, detuned, profile)
            witness.append(np.max(np.abs(nijenhuis_closed_form(pt, detuned, jets))))
        assert min(witness) > 1e-3, (
            f"detuned-coupling N witness {min(witness):.3e} at n={n}, c={c:g}"
        )
        q, p = points[0]
        pt = CotangentPoint.at(q, p, detuned)
        numeric = nijenhuis_numeric(detuned, profile, stencil_at(pt, detuned))
        assert np.max(np.abs(numeric)) > 1e-3


# ---------------------------------------------------------------------------
# 3. Levi-Civita connection in the adapted frame
# ---------------------------------------------------------------------------


def test_connection_routes_and_parallel_tensors(default_run):
    """Coefficient routes agree; Koszul, torsion, nabla-G and nabla-J hold."""
    _, report = default_run
    for label, _, checks in _suite_configs(report, "connection"):
        assert checks["coefficients_two_path"] < 1e-9, label
        assert checks["koszul_oracle"] < 1e-5, label
        assert checks["torsion_free"] < 1e-5, label
        assert checks["metric_parallel"] < 1e-5, label
        assert checks["complex_structure_parallel"] < 1e-5, label


# ---------------------------------------------------------------------------
# 4. curvature blocks and Ricci contraction
# ---------------------------------------------------------------------------


def test_curvature_blocks_and_ricci(default_run):
    """Traced Ricci matches the radial closed form; mixed block vanishes;
    blocks match the finite-difference definition of the curvature."""
    _, report = default_run
    for label, _, checks in _suite_configs(report, "curvature"):
        assert checks["ricci_two_path"] < 1e-5, label
        assert checks["mixed_ricci_vanishes"] < 1e-6, label
        assert checks["blocks_match_fd_oracle"] < 1e-4, label


# ---------------------------------------------------------------------------
# 5. Einstein family
# ---------------------------------------------------------------------------


def test_einstein_family_certification(default_run):
    """The two-parameter profile family is Einstein with constant -k_b(n+1)/2."""
    ts = np.linspace(0.1, 10.0, 100)
    for n, c in GRID:
        for k_a, k_b in ((1.0, 1.0), (0.4, 0.9)):
            params, profile = _member(n, c, k_a=k_a, k_b=k_b)
            gam = float(np.max(np.abs(gamma_factor(params, profile, ts))))
            ode = float(np.max(np.abs(euler_ode_residual(params, profile, ts))))
            label = f"n={n}, c={c:g}, k_a={k_a}, k_b={k_b}"
            assert gam < 1e-12, f"gamma {gam:.3e} on family member {label}"
            assert ode < 1e-11, f"Euler ODE residual {ode:.3e} on {label}"

    _, report = default_run
    for label, _, checks in _suite_configs(report, "einstein"):
        assert checks["einstein_constant"] < 1e-6, (
            f"closed-route Einstein residual {checks['einstein_constant']:.3e} at {label}"
        )

    # Fully numerical route: Ricci traced from finite-difference curvature.
    n, c = 2, 1.0
    params, profile = _member(n, c)
    q, p = sample_points(RunConfig(samples=1, suites=("einstein",)), n, c, params)[0]
    pt = CotangentPoint.at(q, p, params)
    jets = fiber_jets(pt, params, profile)
    ricci = np.einsum("abca->bc", curvature_fd(params, profile, stencil_at(pt, params)))
    hh, vv = ricci[:n, :n], ricci[n:, n:]
    lam = family_einstein_constant(params)
    npt.assert_allclose(lam, -(params.k_b * (n + 1)) / 2.0, atol=1e-15)
    numeric = max(
        float(np.max(np.abs(hh - lam * jets.gh))),
        float(np.max(np.abs(vv - lam * jets.gv))),
    )
    assert numeric < 1e-4, f"fully numerical Einstein residual {numeric:.3e}"

    # k_b = 0 members are Ricci-flat.
    for n, c in ((2, 1.0), (3, 1.4)):
        params, profile = _member(n, c, k_a=1.0, k_b=0.0)
        for q, p in sample_points(RunConfig(samples=3), n, c, params):
            pt = CotangentPoint.at(q, p, params)
            jets = fiber_jets(pt, params, profile)
            ric = ricci_from_blocks(curvature_blocks(pt, params, jets))
            flat = max(float(np.max(np.abs(ric.hh))), float(np.max(np.abs(ric.vv))))
            assert flat < 1e-6, f"k_b=0 Ricci residual {flat:.3e} at n={n}, c={c:g}"


# ---------------------------------------------------------------------------
# 6. non-constancy witnesses
# ---------------------------------------------------------------------------


def test_nonconstancy_witnesses_reported():
    """The generic member's holomorphic sectional curvature varies and its
    curvature tensor is not parallel; exact sampled values are printed."""
    n, c = 3, 1.0
    params, profile = _member(n, c, k_a=1.0, k_b=1.0)
    points = sample_points(RunConfig(samples=50), n, c, params)
    rng = np.random.default_rng(20240817)
    values = []
    for q, p in points:
        pt = CotangentPoint.at(q, p, params)
        jets = fiber_jets(pt, params, profile)
        curv = curvature_blocks(pt, params, jets)
        metric = assemble_metric(jets)
        j_op = assemble_complex_structure(jets)
        x = rng.normal(size=2 * n)
        values.append(holomorphic_sectional_curvature(curv, metric, j_op, x))
    spread = float(np.max(values) - np.min(values))
    print(
        f"holomorphic sectional curvature over 50 samples: "
        f"spread={spread!r}, range=[{min(values)!r}, {max(values)!r}]"
    )
    assert spread > 1e-3, f"holomorphic curvature spread {spread!r} over 50 samples"

    probe = 0.0
    for q, p in points[:2]:
        pt = CotangentPoint.at(q, p, params)
        stencil = stencil_at(pt, params)
        probe = max(probe, nabla_curvature_probe(params, profile, stencil, center_k(params, profile, stencil)))
    print(f"nabla-K probe max: {probe!r}")
    assert probe > 1e-3, f"nabla-K probe max {probe!r}"


NEGATIVE_CLAIMS = ("constant_h_distance_closed_form", "holomorphic_curvature_not_constant", "curvature_not_parallel")


@pytest.mark.parametrize("k_b", [0.0, 1.0])
@pytest.mark.parametrize("k_a", [0.0, 1.0])
@pytest.mark.parametrize("n", [2, 3, 4])
def test_negative_claims_on_the_own_member(n, k_a, k_b):
    """The witnesses suite on one sample at each energy from 0.1 to 1e4 (a
    window of relative width 1e-9): the closed form of ``|K + k_b T|^2``
    holds, and so do the two witnesses, ``ge`` where the claims hold and
    ``le`` at their exception, n = 2 and k_a = 0.  ``curvature_not_parallel``
    off the exception is pinned at t <= 10 only: its raw frame component
    falls below the floor at larger t (n = 2, k_a = 1, k_b = 0 reads about
    2.5e-4 near t = 4e3)."""
    exception = n == 2 and k_a == 0.0
    member = dict(dims=(n,), curvatures=(1.0,), k_a=k_a, k_b=k_b, samples=1, suites=("witnesses",))
    for t in (0.1, 1.0, 10.0, 1e2, 1e3, 1e4):
        report = run_verification(RunConfig(**member, t_min=t, t_max=t * (1.0 + 1e-9)))
        checks = {check["name"]: check for check in report["suites"][0]["configs"][0]["checks"]}
        print(f"n={n} k_a={k_a} k_b={k_b} t={t:g}:", *(f"{name}={checks[name]['value']!r}" for name in NEGATIVE_CLAIMS))
        assert [checks[name]["comparison"] for name in NEGATIVE_CLAIMS] == ["le"] + ["le" if exception else "ge"] * 2
        for name in NEGATIVE_CLAIMS:
            if name != "curvature_not_parallel" or exception or t <= 10.0:
                assert checks[name]["passed"], (name, t, checks[name]["value"])
            if exception and name != "constant_h_distance_closed_form":
                assert "n = 2, k_a = 0 exception" in checks[name]["note"]


# ---------------------------------------------------------------------------
# 7. oracle health
# ---------------------------------------------------------------------------


def test_finite_difference_oracle_health():
    """Frame commutators reproduce the curvature bracket.  Complex steps do
    not nest, so the outer derivative comes from the real reference stencil
    of ``fd_reference``."""
    params, _ = _member(3, 1.0)
    q, p = sample_points(RunConfig(samples=1, suites=("einstein",)), 3, 1.0, params)[0]
    pt = CotangentPoint.at(q, p, params)
    i, j = 0, 1

    def scalar(qq, pp):
        value = np.sin(qq[:, 0] + 2 * pp[:, 1]) + qq[:, 1] * pp[:, 0] ** 2 + pp[:, 2] * qq[:, 2] ** 2
        return value[:, None]

    def pair_of_derivs(qq, pp):
        return frame_gradient(scalar, CotangentPoint.at(qq, pp, params))[:, [i, j], 0]

    outer = fd_reference.frame_gradient(pair_of_derivs, pt)
    commutator = outer[i][1] - outer[j][0]
    fiber_grad = frame_gradient(scalar, pt)[3:, 0]
    expected = pt.p_riemann[:, i, j] @ fiber_grad
    npt.assert_allclose(
        commutator,
        expected,
        atol=1e-6,
        err_msg="horizontal commutator does not match the curvature bracket",
    )


# ---------------------------------------------------------------------------
# 8. determinism and process interface
# ---------------------------------------------------------------------------


def test_report_determinism_and_exit_codes(default_run, capsys, tmp_path):
    """Reports are byte-identical up to timings; exit codes are 0/1/2 for
    pass, detected failure, and configuration error."""
    fast = RunConfig(dims=(2,), curvatures=(1.0,), samples=2)
    first, second = run_verification(fast), run_verification(fast)
    first.pop("timings")
    second.pop("timings")
    blob = json.dumps(first, indent=2, sort_keys=True)
    assert blob == json.dumps(second, indent=2, sort_keys=True)

    code, report = default_run
    assert code == 0, "default verification run must pass"
    assert report["passed"] is True

    code = main(["--a-metric-offset", "0.1", "--suites", "integrability", "--report", "-"])
    report = json.loads(capsys.readouterr().out)
    assert code == 1
    assert report["passed"] is False
    for label, _, checks in _suite_configs(report, "integrability"):
        assert checks["nijenhuis_vanishes"] > 1e-3, label

    assert main(["--suites", ""]) == 2
    assert "error:" in capsys.readouterr().err
