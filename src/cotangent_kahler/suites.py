"""Named verification suites over sampled points, with machine-readable results.

Each suite bundles related checks: a value, a tolerance, and a comparison
direction (``le`` for residuals, ``ge`` for witnesses that must stay away
from zero).  Sampling is deterministic per ``(seed, dim, curvature)``, so a
fixed configuration yields an identical report.

The points of a config, and their fiber jets for the config's own params
and profile, are built once (``Sample``) and shared by every suite; the
finite-difference oracles visit the leading few.  Each check is a
reduction: its value is the largest of its per-sample values, and a NaN in
any sample fails it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .base import ModelParams, integrable_coupling
from .connection import (
    connection_coefficients,
    kahler_connection_coefficients,
    koszul_nabla,
    metric_compatibility_residual,
    metric_gradient,
    parallel_j_residual,
    torsion_residual,
)
from .curvature import (
    curvature_blocks,
    curvature_fd,
    holomorphic_sectional_curvature,
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
from .mtensor import CotangentPoint, FiberJets, assemble_metric, fiber_jets
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
    "Sample",
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


class Sample:
    """The sampled points of one ``(n, c)`` config, shared by every suite.

    ``points`` holds the ``CotangentPoint`` of each ``(q, p)`` pair in
    ``qp``; it serves every coupling and profile, as a point reads only
    ``n`` and ``c``.  ``with_jets`` pairs each point with its fiber jets for
    the config's own params and profile.  Each is built on first use; a
    build that raises is not kept, so every suite that needs it records the
    error.
    """

    def __init__(self, qp: list[tuple[np.ndarray, np.ndarray]], params: ModelParams, profile) -> None:
        self.qp = qp
        self._params = params
        self._profile = profile

    @cached_property
    def points(self) -> list[CotangentPoint]:
        return [CotangentPoint.at(q, p, self._params) for q, p in self.qp]

    @cached_property
    def with_jets(self) -> list[tuple[CotangentPoint, FiberJets]]:
        return [(pt, fiber_jets(pt, self._params, self._profile)) for pt in self.points]


def _check(name: str, values, tolerance: float, comparison: str = "le", note: str | None = None) -> CheckResult:
    """A check whose value is the largest of its per-sample ``values``; a
    NaN in any sample makes the value NaN, which fails either comparison."""
    return CheckResult(name, float(np.max(values)), tolerance, comparison, note)


def _max_abs(*arrays) -> float:
    return float(np.max([np.max(np.abs(a)) for a in arrays]))


# ---- individual suites ----


def _suite_almost_kahler(cfg, params, profile, sample, fd_cfg) -> SuiteResult:
    tol = cfg.tolerances
    canonical = canonical_coordinate_form(params.n)
    rows = []
    for pt, jets in sample.with_jets:
        j_op = assemble_complex_structure(jets)
        metric = assemble_metric(jets)
        phi = fundamental_form(metric, j_op)
        eigenvalues = np.concatenate([np.linalg.eigvalsh(jets.gh), np.linalg.eigvalsh(jets.gv)])
        rows.append(
            (
                complex_structure_squared_residual(j_op),
                hermitian_residual(metric, j_op),
                _max_abs(coordinate_form(pt, phi) - canonical),
                np.min(eigenvalues),
            )
        )
    j_sq, herm, canon, min_eig = zip(*rows)
    dphi = [dform_residual(params, profile, pt, fd_cfg) for pt in sample.points[:2]]
    checks = [
        _check("complex_structure_squared", j_sq, tol.closed_form),
        _check("metric_hermitian", herm, tol.closed_form),
        _check("fundamental_form_canonical", canon, tol.closed_form),
        _check("fundamental_form_closed", dphi, tol.cross_check),
        _check("metric_positive_definite", np.min(min_eig), 0.0, comparison="ge"),
    ]
    return SuiteResult("almost_kahler", params.n, params.c, checks)


def _suite_integrability(cfg, params, profile, sample, fd_cfg) -> SuiteResult:
    tol = cfg.tolerances
    built = sample.with_jets
    closed = [_max_abs(nijenhuis_closed_form(pt, params, jets)) for pt, jets in built]
    oracle = [
        _max_abs(
            nijenhuis_numeric(params, profile, pt, jets, fd_cfg)
            - nijenhuis_closed_form(pt, params, jets)
        )
        for pt, jets in built[:1]
    ]
    checks = [
        _check("nijenhuis_vanishes", closed, tol.closed_form),
        _check("nijenhuis_matches_bracket_oracle", oracle, tol.cross_check),
    ]
    return SuiteResult("integrability", params.n, params.c, checks)


def _suite_connection(cfg, params, profile, sample, fd_cfg) -> SuiteResult:
    tol = cfg.tolerances
    built = sample.with_jets
    checks = []
    if params.is_integrable:
        two_path = [
            _max_abs(
                connection_coefficients(pt, params, jets)
                - kahler_connection_coefficients(pt, params, profile)
            )
            for pt, jets in built
        ]
        checks.append(_check("coefficients_two_path", two_path, tol.closed_form))

    koszul, torsion, compat, parallel_j = [], [], [], []
    for pt, jets in built[:2]:
        conn = connection_coefficients(pt, params, jets)
        metric_grad = metric_gradient(params, profile, pt, fd_cfg)
        koszul.append(_max_abs(koszul_nabla(pt, jets, metric_grad) - conn))
        torsion.append(torsion_residual(pt, conn))
        compat.append(metric_compatibility_residual(conn, jets, metric_grad))
        if params.is_integrable:
            parallel_j.append(parallel_j_residual(params, profile, pt, jets, fd_cfg))
    checks.append(_check("koszul_oracle", koszul, tol.cross_check))
    checks.append(_check("torsion_free", torsion, tol.closed_form))
    checks.append(_check("metric_parallel", compat, tol.cross_check))
    if params.is_integrable:
        checks.append(_check("complex_structure_parallel", parallel_j, tol.cross_check))
    return SuiteResult("connection", params.n, params.c, checks)


def _suite_curvature(cfg, params, profile, sample, fd_cfg) -> SuiteResult:
    tol = cfg.tolerances
    n = params.n
    h, v = slice(None, n), slice(n, None)
    built = sample.with_jets

    # One finite-difference curvature per oracle point serves the block
    # oracle, the odd-slot complement and the mixed Ricci block.
    oracle, complement, mixed = [], [], []
    odd = odd_slots(n)
    for pt, jets in built[:1]:
        fd = curvature_fd(params, profile, pt, jets, fd_cfg)
        diff = fd - curvature_blocks(pt, params, jets)
        oracle.append(_max_abs(diff[~odd]))
        complement.append(_max_abs(diff[odd]))
        mixed.append(_max_abs(np.einsum("abca->bc", fd)[:n, n:]))
    checks = [
        _check("blocks_match_fd_oracle", oracle, tol.fd_oracle),
        _check("complement_outputs_vanish", complement, tol.fd_oracle),
    ]
    notes = []
    if checks[-1].passed:
        notes.append(
            "mixed-argument block with vertical third slot produced a horizontal "
            f"output (complement below {tol.fd_oracle:.0e}), fixing its frame kind"
        )

    symmetry, relations, two_path, hsc_spread = [], [], [], []
    rng = np.random.default_rng([cfg.seed, 7, n])
    for pt, jets in built:
        curv = curvature_blocks(pt, params, jets)
        metric = assemble_metric(jets)
        vectors = rng.normal(size=(4, 4, 2 * n))
        symmetry.append(pair_symmetry_residual(curv, metric, vectors))
        if params.is_integrable:
            relations.append(
                _max_abs(
                    curv[h, h, v, v] + np.swapaxes(curv[h, h, h, h], 2, 3),
                    curv[v, v, v, v] + np.swapaxes(curv[v, v, h, h], 2, 3),
                )
            )
            ric_closed = ricci_closed_form(pt, params, profile)
            ric_trace = ricci_from_blocks(curv)
            two_path.append(
                _max_abs(ric_trace.hh - ric_closed.hh, ric_trace.vv - ric_closed.vv)
            )
            j_op = assemble_complex_structure(jets)
            x = rng.normal(size=2 * n)
            h1 = holomorphic_sectional_curvature(curv, metric, j_op, x)
            h2 = holomorphic_sectional_curvature(curv, metric, j_op, 2.5 * x)
            hsc_spread.append(abs(h1 - h2))
    checks.append(_check("pair_symmetry", symmetry, tol.closed_form))
    if params.is_integrable:
        checks.append(_check("kahler_block_relations", relations, tol.closed_form))
        checks.append(_check("ricci_two_path", two_path, tol.cross_check))
        checks.append(
            _check("holomorphic_curvature_scale_invariant", hsc_spread, tol.closed_form)
        )
    checks.append(_check("mixed_ricci_vanishes", mixed, tol.cross_check))
    return SuiteResult("curvature", n, params.c, checks, notes)


def _suite_einstein(cfg, params, profile, sample, fd_cfg) -> SuiteResult:
    tol = cfg.tolerances

    ts = np.linspace(cfg.t_min, cfg.t_max, 13)
    gam = gamma_factor(params, profile, ts)
    ode = euler_ode_residual(params, profile, ts)
    relation = _max_abs(gam + 4.0 * math.sqrt(2.0) * np.sqrt(ts) * ode)
    checks = [_check("gamma_matches_ode_residual", relation, tol.closed_form)]

    closed_vs_direct, einstein_worst, pairs = [], [], []
    for pt, jets in sample.with_jets:
        ricci = ricci_from_blocks(curvature_blocks(pt, params, jets))
        direct = einstein_difference(pt, params, profile, jets, ricci=ricci)
        closed = einstein_difference_closed_form(pt, params, profile)
        closed_vs_direct.append(_max_abs(direct[0] - closed[0], direct[1] - closed[1]))
        pairs.append((ricci, jets))
        if cfg.profile == "einstein":
            einstein_worst.append(einstein_residual(pt, params, jets, ricci))
    checks.append(_check("difference_closed_form", closed_vs_direct, tol.closed_form))

    notes = []
    if cfg.profile == "einstein":
        if checks[-1].passed:
            notes.append(
                "horizontal Einstein defect matched the admissibility-weighted form "
                "(sqrt(c) + sqrt(2t) v) gamma / (4t) p p, not the unweighted variant"
            )
        fitted = fit_einstein_constant(pairs)
        checks.append(_check("family_solves_ode", _max_abs(ode), tol.closed_form))
        checks.append(_check("einstein_constant", einstein_worst, tol.cross_check))
        checks.append(
            _check(
                "fitted_constant_matches",
                abs(fitted - family_einstein_constant(params)),
                tol.cross_check,
            )
        )
    return SuiteResult("einstein", params.n, params.c, checks, notes)


def _suite_witnesses(cfg, params, profile, sample, fd_cfg) -> SuiteResult:
    tol = cfg.tolerances
    n, c = params.n, params.c
    points = sample.points

    off_params = ModelParams(
        n=n,
        c=c,
        a_metric=(1.0 + _WITNESS_DETUNE) * integrable_coupling(c),
        k_a=params.k_a,
        k_b=params.k_b,
    )
    off_built = [(pt, fiber_jets(pt, off_params, profile)) for pt in points]
    nij = [_max_abs(nijenhuis_closed_form(pt, off_params, jets)) for pt, jets in off_built]
    parallel = [
        parallel_j_residual(off_params, profile, pt, jets, fd_cfg)
        for pt, jets in off_built[:1]
    ]
    checks = [
        _check("nijenhuis_detects_coupling", nij, tol.witness_floor, comparison="ge"),
        _check(
            "complex_structure_parallel_detects_coupling",
            parallel,
            tol.witness_floor,
            comparison="ge",
        ),
    ]

    generic = rational_profile()
    gam_witness = _max_abs(gamma_factor(params, generic, np.linspace(cfg.t_min, cfg.t_max, 13)))
    checks.append(_check("gamma_detects_profile", gam_witness, tol.witness_floor, comparison="ge"))

    defect = []
    for pt in points:
        diff = einstein_difference(pt, params, generic, fiber_jets(pt, params, generic))
        defect.append(_max_abs(diff[0], diff[1]))
    checks.append(_check("einstein_detects_profile", defect, tol.witness_floor, comparison="ge"))

    # Non-constancy witnesses probe a fixed generic family member: with
    # k_a = 0 some members (n = 2 in particular) are genuinely locally
    # symmetric, so the generic claim is pinned to k_a = k_b = 1.
    witness_params = ModelParams(
        n=n, c=c, a_metric=integrable_coupling(c), k_a=1.0, k_b=1.0
    )
    witness_profile = einstein_profile(witness_params)
    witness_built = [(pt, fiber_jets(pt, witness_params, witness_profile)) for pt in points]
    rng = np.random.default_rng([cfg.seed, 11, n, int(round(c * 1e9))])
    values = []
    for pt, jets in witness_built:
        curv = curvature_blocks(pt, witness_params, jets)
        metric = assemble_metric(jets)
        j_op = assemble_complex_structure(jets)
        x = rng.normal(size=2 * n)
        values.append(holomorphic_sectional_curvature(curv, metric, j_op, x))
    low, high = np.min(values), np.max(values)
    checks.append(
        _check(
            "holomorphic_curvature_spread",
            high - low,
            tol.witness_floor,
            comparison="ge",
            note=(
                f"sectional values in [{low:.6g}, {high:.6g}] over "
                f"{len(values)} random sections of the k_a=1, k_b=1 member"
            ),
        )
    )

    probe = [
        nabla_curvature_probe(witness_params, witness_profile, pt, jets, fd_cfg)
        for pt, jets in witness_built[:1]
    ]
    checks.append(
        _check(
            "curvature_not_parallel",
            probe,
            tol.witness_floor,
            comparison="ge",
            note=f"max nabla-K component {np.max(probe):.6g} on the k_a=1, k_b=1 member",
        )
    )
    return SuiteResult("witnesses", n, c, checks)


_SUITE_FUNCS = {
    "almost_kahler": _suite_almost_kahler,
    "integrability": _suite_integrability,
    "connection": _suite_connection,
    "curvature": _suite_curvature,
    "einstein": _suite_einstein,
    "witnesses": _suite_witnesses,
}


def run_suite(name: str, cfg: RunConfig, params: ModelParams, profile, sample: Sample, fd_cfg) -> SuiteResult:
    """Run one suite over a shared sample.

    Numerical failures never abort the run: a ``GeometryError`` (zero
    section, positivity, singular metric, stencil) or an ``ArithmeticError``
    (such as a float overflow) becomes one failed ``suite_error`` check.
    """
    try:
        func = _SUITE_FUNCS[name]
    except KeyError:
        raise ConfigError(f"unknown suite {name!r}") from None
    try:
        result = func(cfg, params, profile, sample, fd_cfg)
    except (GeometryError, ArithmeticError) as exc:
        result = SuiteResult(name, params.n, params.c)
        result.checks.append(
            CheckResult("suite_error", 1.0, 0.0, note=f"{type(exc).__name__}: {exc}")
        )
    result.samples = len(sample.qp)
    return result


def run_verification(cfg: RunConfig) -> dict:
    """Run the requested suites over every (dim, curvature) pair.

    Points are sampled and built once per pair and shared by every suite
    (see ``Sample``).  Returns the
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
            sample = Sample(sample_points(cfg, n, c, params), params, profile)
            for index, suite_name in enumerate(cfg.suites):
                started = time.perf_counter()
                result = run_suite(suite_name, cfg, params, profile, sample, fd_cfg)
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
