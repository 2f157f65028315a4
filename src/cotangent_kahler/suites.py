"""Named verification suites over sampled points, with machine-readable results.

Each suite bundles related checks: a value, a tolerance, and a comparison
direction (``le`` for residuals, ``ge`` for witnesses that must stay away
from zero).  Sampling is deterministic per ``(seed, dim, curvature)``, so a
fixed configuration yields an identical report.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .base import ModelParams, integrable_coupling
from .connection import (
    connection_coefficients,
    kahler_connection_coefficients,
    koszul_nabla,
    metric_compatibility_residual,
    parallel_j_residual,
    torsion_residual,
)
from .curvature import (
    curvature_blocks,
    curvature_fd,
    holomorphic_sectional_curvature,
    mixed_ricci_fd,
    nabla_curvature_probe,
    odd_slots,
    pair_symmetry_residual,
    ricci_closed_form,
    ricci_from_blocks,
)
from .einstein import (
    einstein_difference,
    einstein_difference_closed_form,
    einstein_residual,
    euler_ode_residual,
    family_einstein_constant,
    fit_einstein_constant,
    gamma_factor,
)
from .errors import ConfigError, GeometryError
from .fd import FDConfig
from .mtensor import CotangentPoint, assemble_metric, fiber_jets
from .profiles import einstein_profile, profile_from_name, rational_profile
from .structure import (
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

__all__ = [
    "SUITE_NAMES",
    "Tolerances",
    "RunConfig",
    "CheckResult",
    "SuiteResult",
    "sample_points",
    "run_suite",
    "run_verification",
]

SUITE_NAMES = (
    "almost_kahler",
    "integrability",
    "connection",
    "curvature",
    "einstein",
    "witnesses",
)

_PROFILE_NAMES = ("einstein", "rational", "zero")

# Relative coupling detuning used by the witness checks that must see the
# integrability and parallel-structure detectors fire.
_WITNESS_DETUNE = 0.1


@dataclass(frozen=True)
class Tolerances:
    """Tolerance tiers: exact algebra, analytic cross-checks, finite
    differences, and the floor a witness must exceed."""

    closed_form: float = 1e-9
    cross_check: float = 1e-5
    fd_oracle: float = 1e-4
    witness_floor: float = 1e-3

    def __post_init__(self) -> None:
        for name in ("closed_form", "cross_check", "fd_oracle", "witness_floor"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"tolerance {name} must be positive")


@dataclass(frozen=True)
class RunConfig:
    """Full configuration of a verification run."""

    dims: tuple[int, ...] = (2, 3)
    curvatures: tuple[float, ...] = (0.5, 1.0, 2.0)
    k_a: float = 1.0
    k_b: float = 1.0
    profile: str = "einstein"
    samples: int = 100
    t_min: float = 0.1
    t_max: float = 10.0
    seed: int = 0
    fd_step: float = 1e-4
    tolerances: Tolerances = field(default_factory=Tolerances)
    suites: tuple[str, ...] = SUITE_NAMES
    a_metric_offset: float = 0.0

    def __post_init__(self) -> None:
        if not self.dims or any(d < 2 for d in self.dims):
            raise ConfigError("dims must be a nonempty list of integers >= 2")
        if not self.curvatures or any(c <= 0 for c in self.curvatures):
            raise ConfigError("curvatures must be a nonempty list of positive reals")
        if self.profile not in _PROFILE_NAMES:
            raise ConfigError(f"profile must be one of {_PROFILE_NAMES}")
        if self.samples < 1:
            raise ConfigError("samples must be >= 1")
        if not (0 < self.t_min < self.t_max):
            raise ConfigError("need 0 < t_min < t_max")
        if self.fd_step <= 0:
            raise ConfigError("fd_step must be positive")
        if not self.suites:
            raise ConfigError("suites must name at least one suite")
        unknown = set(self.suites) - set(SUITE_NAMES)
        if unknown:
            raise ConfigError(f"unknown suites: {sorted(unknown)}")
        if self.samples < 2 and "witnesses" in self.suites:
            raise ConfigError(
                "samples must be >= 2 with the witnesses suite: "
                "holomorphic_curvature_spread compares sections at two or more points"
            )
        if self.a_metric_offset <= -1.0:
            raise ConfigError("a_metric_offset must keep the coupling positive (> -1)")


@dataclass(frozen=True)
class CheckResult:
    """One named check: residuals satisfy ``value <= tolerance``, witnesses
    ``value >= tolerance``."""

    name: str
    value: float
    tolerance: float
    comparison: str = "le"
    note: str | None = None

    @property
    def passed(self) -> bool:
        if self.comparison == "le":
            return bool(self.value <= self.tolerance)
        return bool(self.value >= self.tolerance)

    def as_dict(self) -> dict:
        out = {
            "name": self.name,
            "value": float(self.value),
            "tolerance": float(self.tolerance),
            "comparison": self.comparison,
            "passed": self.passed,
        }
        if self.note is not None:
            out["note"] = self.note
        return out


@dataclass
class SuiteResult:
    name: str
    dim: int
    curvature: float
    checks: list[CheckResult] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)
    samples: int = 0

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def as_dict(self) -> dict:
        return {
            "dim": self.dim,
            "curvature": self.curvature,
            "samples": self.samples,
            "passed": self.passed,
            "checks": [c.as_dict() for c in self.checks],
        }


# ---- sampling ----


def sample_points(cfg: RunConfig, n: int, c: float, params: ModelParams) -> list[tuple[np.ndarray, np.ndarray]]:
    """Deterministic base points and momenta with energies in the window.

    Momentum directions are drawn uniformly on the sphere, then rescaled so
    the energy density lands exactly on a uniform draw from
    ``[t_min, t_max]``.
    """
    rng = np.random.default_rng([cfg.seed, n, int(round(c * 1e9))])
    points = []
    for _ in range(cfg.samples):
        q = rng.uniform(-2.0, 2.0, size=n)
        direction = rng.normal(size=n)
        direction /= np.linalg.norm(direction)
        t_target = rng.uniform(cfg.t_min, cfg.t_max)
        pt0 = CotangentPoint.at(q, direction, params)
        p = direction * math.sqrt(t_target / pt0.t)
        points.append((q, p))
    return points


def _max_abs(*arrays) -> float:
    return float(max(np.max(np.abs(a)) for a in arrays))


def _fd_points(points, limit: int = 2):
    return points[: max(1, min(limit, len(points)))]


# ---- individual suites ----


def _suite_almost_kahler(cfg, params, profile, points, fd_cfg) -> SuiteResult:
    tol = cfg.tolerances
    res = SuiteResult("almost_kahler", params.n, params.c)
    j_sq = herm = canon = 0.0
    min_eig = math.inf
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
            _max_abs(coordinate_form(pt, phi) - canonical_coordinate_form(pt.n)),
        )
        min_eig = min(
            min_eig,
            float(np.min(np.linalg.eigvalsh(jets.gh))),
            float(np.min(np.linalg.eigvalsh(jets.gv))),
        )
    dphi = 0.0
    for q, p in _fd_points(points):
        pt = CotangentPoint.at(q, p, params)
        dphi = max(dphi, dform_residual(params, profile, pt, fd_cfg))
    res.checks.append(CheckResult("complex_structure_squared", j_sq, tol.closed_form))
    res.checks.append(CheckResult("metric_hermitian", herm, tol.closed_form))
    res.checks.append(CheckResult("fundamental_form_canonical", canon, tol.closed_form))
    res.checks.append(CheckResult("fundamental_form_closed", dphi, tol.cross_check))
    res.checks.append(
        CheckResult("metric_positive_definite", min_eig, 0.0, comparison="ge")
    )
    return res


def _suite_integrability(cfg, params, profile, points, fd_cfg) -> SuiteResult:
    tol = cfg.tolerances
    res = SuiteResult("integrability", params.n, params.c)
    closed_max = 0.0
    for q, p in points:
        pt = CotangentPoint.at(q, p, params)
        jets = fiber_jets(pt, params, profile)
        closed_max = max(closed_max, _max_abs(nijenhuis_closed_form(pt, params, jets)))
    res.checks.append(CheckResult("nijenhuis_vanishes", closed_max, tol.closed_form))

    oracle = 0.0
    for q, p in _fd_points(points, limit=1):
        pt = CotangentPoint.at(q, p, params)
        closed = nijenhuis_closed_form(pt, params, fiber_jets(pt, params, profile))
        numeric = nijenhuis_numeric(params, profile, q, p, fd_cfg)
        oracle = max(oracle, _max_abs(numeric - closed))
    res.checks.append(CheckResult("nijenhuis_matches_bracket_oracle", oracle, tol.cross_check))
    return res


def _suite_connection(cfg, params, profile, points, fd_cfg) -> SuiteResult:
    tol = cfg.tolerances
    res = SuiteResult("connection", params.n, params.c)

    two_path = 0.0
    if params.is_integrable:
        for q, p in points:
            pt = CotangentPoint.at(q, p, params)
            general = connection_coefficients(pt, params, fiber_jets(pt, params, profile))
            closed = kahler_connection_coefficients(pt, params, profile)
            two_path = max(two_path, _max_abs(general - closed))
        res.checks.append(CheckResult("coefficients_two_path", two_path, tol.closed_form))

    koszul = torsion = compat = parallel_j = 0.0
    for q, p in _fd_points(points):
        pt = CotangentPoint.at(q, p, params)
        conn = connection_coefficients(pt, params, fiber_jets(pt, params, profile))
        koszul = max(koszul, _max_abs(koszul_nabla(params, profile, pt, fd_cfg) - conn))
        torsion = max(torsion, torsion_residual(pt, conn))
        compat = max(
            compat, metric_compatibility_residual(params, profile, pt, conn, fd_cfg)
        )
        if params.is_integrable:
            parallel_j = max(
                parallel_j, parallel_j_residual(params, profile, pt, conn, fd_cfg)
            )
    res.checks.append(CheckResult("koszul_oracle", koszul, tol.cross_check))
    res.checks.append(CheckResult("torsion_free", torsion, tol.closed_form))
    res.checks.append(CheckResult("metric_parallel", compat, tol.cross_check))
    if params.is_integrable:
        res.checks.append(
            CheckResult("complex_structure_parallel", parallel_j, tol.cross_check)
        )
    return res


def _suite_curvature(cfg, params, profile, points, fd_cfg) -> SuiteResult:
    tol = cfg.tolerances
    res = SuiteResult("curvature", params.n, params.c)
    n = params.n
    h, v = slice(None, n), slice(n, None)

    oracle = complement = 0.0
    odd = odd_slots(n)
    for q, p in _fd_points(points, limit=1):
        pt = CotangentPoint.at(q, p, params)
        closed = curvature_blocks(pt, params, fiber_jets(pt, params, profile))
        diff = curvature_fd(params, profile, pt, fd_cfg) - closed
        oracle = max(oracle, _max_abs(diff[~odd]))
        complement = max(complement, _max_abs(diff[odd]))
    res.checks.append(CheckResult("blocks_match_fd_oracle", oracle, tol.fd_oracle))
    res.checks.append(CheckResult("complement_outputs_vanish", complement, tol.fd_oracle))
    res.notes.append(
        "mixed-argument block with vertical third slot produced a horizontal "
        f"output (complement below {tol.fd_oracle:.0e}), fixing its frame kind"
    )

    symmetry = relations = two_path = hsc_spread = 0.0
    rng = np.random.default_rng([cfg.seed, 7, n])
    for q, p in points:
        pt = CotangentPoint.at(q, p, params)
        jets = fiber_jets(pt, params, profile)
        curv = curvature_blocks(pt, params, jets)
        metric = assemble_metric(jets)
        vectors = rng.normal(size=(4, 4, 2 * n))
        symmetry = max(symmetry, pair_symmetry_residual(curv, metric, vectors))
        if params.is_integrable:
            relations = max(
                relations,
                _max_abs(curv[h, h, v, v] + np.swapaxes(curv[h, h, h, h], 2, 3)),
                _max_abs(curv[v, v, v, v] + np.swapaxes(curv[v, v, h, h], 2, 3)),
            )
            ric_closed = ricci_closed_form(pt, params, profile)
            ric_trace = ricci_from_blocks(curv)
            two_path = max(
                two_path,
                _max_abs(ric_trace.hh - ric_closed.hh, ric_trace.vv - ric_closed.vv),
            )
            j_op = assemble_complex_structure(jets)
            x = rng.normal(size=2 * n)
            h1 = holomorphic_sectional_curvature(curv, metric, j_op, x)
            h2 = holomorphic_sectional_curvature(curv, metric, j_op, 2.5 * x)
            hsc_spread = max(hsc_spread, abs(h1 - h2))
    res.checks.append(CheckResult("pair_symmetry", symmetry, tol.closed_form))
    if params.is_integrable:
        res.checks.append(CheckResult("kahler_block_relations", relations, tol.closed_form))
        res.checks.append(CheckResult("ricci_two_path", two_path, tol.cross_check))
        res.checks.append(
            CheckResult("holomorphic_curvature_scale_invariant", hsc_spread, tol.closed_form)
        )

    mixed = 0.0
    for q, p in _fd_points(points, limit=1):
        pt = CotangentPoint.at(q, p, params)
        mixed = max(mixed, _max_abs(mixed_ricci_fd(params, profile, pt, fd_cfg)))
    res.checks.append(CheckResult("mixed_ricci_vanishes", mixed, tol.cross_check))
    return res


def _suite_einstein(cfg, params, profile, points, fd_cfg) -> SuiteResult:
    tol = cfg.tolerances
    res = SuiteResult("einstein", params.n, params.c)

    ts = np.linspace(cfg.t_min, cfg.t_max, 13)
    gam = gamma_factor(params, profile, ts)
    ode = euler_ode_residual(params, profile, ts)
    relation = _max_abs(gam + 4.0 * math.sqrt(2.0) * np.sqrt(ts) * ode)
    res.checks.append(CheckResult("gamma_matches_ode_residual", relation, tol.closed_form))

    closed_vs_direct = 0.0
    pairs = []
    einstein_worst = 0.0
    for q, p in points:
        pt = CotangentPoint.at(q, p, params)
        jets = fiber_jets(pt, params, profile)
        ricci = ricci_from_blocks(curvature_blocks(pt, params, jets))
        direct = einstein_difference(pt, params, profile, jets, ricci=ricci)
        closed = einstein_difference_closed_form(pt, params, profile)
        closed_vs_direct = max(
            closed_vs_direct, _max_abs(direct[0] - closed[0], direct[1] - closed[1])
        )
        pairs.append((ricci, jets))
        if cfg.profile == "einstein":
            einstein_worst = max(
                einstein_worst, einstein_residual(pt, params, jets, ricci)
            )
    res.checks.append(
        CheckResult("difference_closed_form", closed_vs_direct, tol.closed_form)
    )

    if cfg.profile == "einstein":
        res.checks.append(
            CheckResult(
                "family_solves_ode", _max_abs(ode), tol.closed_form
            )
        )
        res.checks.append(
            CheckResult("einstein_constant", einstein_worst, tol.cross_check)
        )
        fitted = fit_einstein_constant(pairs)
        res.checks.append(
            CheckResult(
                "fitted_constant_matches",
                abs(fitted - family_einstein_constant(params)),
                tol.cross_check,
            )
        )
        res.notes.append(
            "horizontal Einstein defect matched the admissibility-weighted form "
            "(sqrt(c) + sqrt(2t) v) gamma / (4t) p p, not the unweighted variant"
        )
    return res


def _suite_witnesses(cfg, params, profile, points, fd_cfg) -> SuiteResult:
    tol = cfg.tolerances
    res = SuiteResult("witnesses", params.n, params.c)
    n, c = params.n, params.c

    off_params = ModelParams(
        n=n,
        c=c,
        a_metric=(1.0 + _WITNESS_DETUNE) * integrable_coupling(c),
        k_a=params.k_a,
        k_b=params.k_b,
    )
    nij = 0.0
    for q, p in points:
        pt = CotangentPoint.at(q, p, off_params)
        jets = fiber_jets(pt, off_params, profile)
        nij = max(nij, _max_abs(nijenhuis_closed_form(pt, off_params, jets)))
    res.checks.append(
        CheckResult("nijenhuis_detects_coupling", nij, tol.witness_floor, comparison="ge")
    )

    parallel = 0.0
    for q, p in _fd_points(points, limit=1):
        pt = CotangentPoint.at(q, p, off_params)
        jets = fiber_jets(pt, off_params, profile)
        conn = connection_coefficients(pt, off_params, jets)
        parallel = max(parallel, parallel_j_residual(off_params, profile, pt, conn, fd_cfg))
    res.checks.append(
        CheckResult(
            "complex_structure_parallel_detects_coupling",
            parallel,
            tol.witness_floor,
            comparison="ge",
        )
    )

    generic = rational_profile()
    gam_witness = float(np.max(np.abs(gamma_factor(params, generic, np.linspace(cfg.t_min, cfg.t_max, 13)))))
    res.checks.append(
        CheckResult("gamma_detects_profile", gam_witness, tol.witness_floor, comparison="ge")
    )

    defect = 0.0
    for q, p in points:
        pt = CotangentPoint.at(q, p, params)
        jets = fiber_jets(pt, params, generic)
        diff = einstein_difference(pt, params, generic, jets)
        defect = max(defect, _max_abs(diff[0], diff[1]))
    res.checks.append(
        CheckResult("einstein_detects_profile", defect, tol.witness_floor, comparison="ge")
    )

    # Non-constancy witnesses probe a fixed generic family member: with
    # k_a = 0 some members (n = 2 in particular) are genuinely locally
    # symmetric, so the generic claim is pinned to k_a = k_b = 1.
    witness_params = ModelParams(
        n=n, c=c, a_metric=integrable_coupling(c), k_a=1.0, k_b=1.0
    )
    witness_profile = einstein_profile(witness_params)
    rng = np.random.default_rng([cfg.seed, 11, n, int(round(c * 1e9))])
    values = []
    for q, p in points:
        pt = CotangentPoint.at(q, p, witness_params)
        jets = fiber_jets(pt, witness_params, witness_profile)
        curv = curvature_blocks(pt, witness_params, jets)
        metric = assemble_metric(jets)
        j_op = assemble_complex_structure(jets)
        x = rng.normal(size=2 * n)
        values.append(holomorphic_sectional_curvature(curv, metric, j_op, x))
    spread = float(np.max(values) - np.min(values))
    res.checks.append(
        CheckResult(
            "holomorphic_curvature_spread",
            spread,
            tol.witness_floor,
            comparison="ge",
            note=(
                f"sectional values in [{min(values):.6g}, {max(values):.6g}] over "
                f"{len(values)} random sections of the k_a=1, k_b=1 member"
            ),
        )
    )

    probe = 0.0
    for q, p in _fd_points(points, limit=1):
        pt = CotangentPoint.at(q, p, witness_params)
        probe = max(
            probe, nabla_curvature_probe(witness_params, witness_profile, pt, fd_cfg)
        )
    res.checks.append(
        CheckResult(
            "curvature_not_parallel",
            probe,
            tol.witness_floor,
            comparison="ge",
            note=f"max nabla-K component {probe:.6g} on the k_a=1, k_b=1 member",
        )
    )
    return res


_SUITE_FUNCS = {
    "almost_kahler": _suite_almost_kahler,
    "integrability": _suite_integrability,
    "connection": _suite_connection,
    "curvature": _suite_curvature,
    "einstein": _suite_einstein,
    "witnesses": _suite_witnesses,
}


def run_suite(name: str, cfg: RunConfig, params: ModelParams, profile, points, fd_cfg) -> SuiteResult:
    """Run one suite; numerical failures become a failed check, never an abort."""
    try:
        func = _SUITE_FUNCS[name]
    except KeyError:
        raise ConfigError(f"unknown suite {name!r}") from None
    try:
        result = func(cfg, params, profile, points, fd_cfg)
    except GeometryError as exc:
        result = SuiteResult(name, params.n, params.c)
        result.checks.append(
            CheckResult("suite_error", 1.0, 0.0, note=f"{type(exc).__name__}: {exc}")
        )
    result.samples = len(points)
    return result


def run_verification(cfg: RunConfig) -> dict:
    """Run the requested suites over every (dim, curvature) pair.

    Points are sampled once per pair and shared by every suite.  Returns the
    full report as a JSON-serializable dict, suite by suite; wall-clock
    timings live in their own key so reports stay comparable across runs.
    """
    import time

    fd_cfg = FDConfig(base_step=cfg.fd_step)
    configs_out: list[list[dict]] = [[] for _ in cfg.suites]
    suite_notes: list[list[str]] = [[] for _ in cfg.suites]
    seconds = [0.0] * len(cfg.suites)
    for n in cfg.dims:
        for c in cfg.curvatures:
            params = ModelParams(
                n=n,
                c=c,
                a_metric=(1.0 + cfg.a_metric_offset) * integrable_coupling(c),
                k_a=cfg.k_a,
                k_b=cfg.k_b,
            )
            profile = profile_from_name(cfg.profile, params)
            points = sample_points(cfg, n, c, params)
            for index, suite_name in enumerate(cfg.suites):
                started = time.perf_counter()
                result = run_suite(suite_name, cfg, params, profile, points, fd_cfg)
                seconds[index] += time.perf_counter() - started
                configs_out[index].append(result.as_dict())
                suite_notes[index].extend(result.notes)

    suites_out = []
    notes: list[str] = []
    timings: dict[str, float] = {}
    for suite_name, configs, raw_notes, spent in zip(cfg.suites, configs_out, suite_notes, seconds):
        for note in raw_notes:
            tagged = f"{suite_name}: {note}"
            if tagged not in notes:
                notes.append(tagged)
        timings[suite_name] = round(spent, 6)
        suites_out.append(
            {
                "name": suite_name,
                "passed": all(cfg_out["passed"] for cfg_out in configs),
                "configs": configs,
            }
        )

    report = {
        "schema_version": 1,
        "config": {
            "dims": list(cfg.dims),
            "curvatures": list(cfg.curvatures),
            "k_a": cfg.k_a,
            "k_b": cfg.k_b,
            "profile": cfg.profile,
            "samples": cfg.samples,
            "t_min": cfg.t_min,
            "t_max": cfg.t_max,
            "seed": cfg.seed,
            "fd_step": cfg.fd_step,
            "tolerances": {
                "closed_form": cfg.tolerances.closed_form,
                "cross_check": cfg.tolerances.cross_check,
                "fd_oracle": cfg.tolerances.fd_oracle,
                "witness_floor": cfg.tolerances.witness_floor,
            },
            "suites": list(cfg.suites),
            "a_metric_offset": cfg.a_metric_offset,
        },
        "suites": suites_out,
        "discrepancy_notes": notes,
        "passed": all(s["passed"] for s in suites_out),
        "timings": timings,
    }
    return report
