"""Named verification suites over sampled points, with machine-readable results.

Each suite bundles related checks: a value, a tolerance, and a comparison
direction (``le`` for residuals, ``ge`` for witnesses that must stay away
from zero).  Sampling is deterministic per ``(seed, dim, curvature)``, so a
fixed configuration yields an identical report.

A config's sampled points are one batch (``Sample``), built once with their
fiber jets and shared by every suite.  Each closed-form check is one
batched call per chunk of rows, giving a value per sample; only the
``(2n)^3`` and ``(2n)^4`` arrays are built a chunk at a time.  The
curvature ``K`` of the config's own member is built once per chunk, in one
pass that the ``curvature`` suite consumes; the pass keeps each chunk's
Ricci trace, which the ``einstein`` suite reads instead of building ``K``
again.  Each
finite-difference oracle takes the leading one or two rows as one batch of
centers.  A check's value is the largest of its per-sample values; a NaN in
any sample fails it.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, replace
from functools import cached_property

import numpy as np

from .base import ModelParams, _chunk_rows, _max_abs, integrable_coupling, space_form_metric
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
    RicciBlocks,
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
from .mtensor import (
    CotangentPoint,
    FiberJets,
    assemble_metric,
    energy_density,
    fiber_jets,
    take_rows,
)
from .profiles import PROFILES, einstein_profile, profile_from_name, rational_profile
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
            if not 0 < getattr(self, name) < math.inf:
                raise ConfigError(f"tolerance {name} must be positive and finite")


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
    tolerances: Tolerances = field(default_factory=Tolerances)
    suites: tuple[str, ...] = SUITE_NAMES
    a_metric_offset: float = 0.0

    def __post_init__(self) -> None:
        if not self.dims or any(d < 2 for d in self.dims):
            raise ConfigError("dims must be a nonempty list of integers >= 2")
        if not self.curvatures or not all(0 < c < math.inf for c in self.curvatures):
            raise ConfigError("curvatures must be a nonempty list of positive finite reals")
        if not (0 <= self.k_a < math.inf and 0 <= self.k_b < math.inf):
            raise ConfigError("k_a and k_b must be finite and >= 0")
        if self.profile not in PROFILES:
            raise ConfigError(f"profile must be one of {tuple(PROFILES)}")
        if self.samples < 1:
            raise ConfigError("samples must be >= 1")
        if not (0 < self.t_min < self.t_max < math.inf):
            raise ConfigError("need 0 < t_min < t_max, both finite")
        if self.seed < 0:
            raise ConfigError("seed must be >= 0")
        if not self.suites:
            raise ConfigError("suites must name at least one suite")
        unknown = set(self.suites) - set(SUITE_NAMES)
        if unknown:
            raise ConfigError(f"unknown suites: {sorted(unknown)}")
        for name in ("dims", "curvatures", "suites"):
            if len(set(getattr(self, name))) < len(getattr(self, name)):
                raise ConfigError(f"{name} must not repeat a value")
        if self.samples < 2 and "witnesses" in self.suites:
            raise ConfigError(
                "samples must be >= 2 with the witnesses suite: "
                "holomorphic_curvature_spread compares sections at two or more points"
            )
        if not -1.0 < self.a_metric_offset < math.inf:
            raise ConfigError("a_metric_offset must be finite and keep the coupling positive (> -1)")


@dataclass(frozen=True)
class CheckResult:
    """One named check: residuals satisfy ``value <= tolerance``, witnesses
    ``value >= tolerance``.  In the report a non-finite value is the string
    ``"nan"``, ``"inf"`` or ``"-inf"``, as JSON has no number for it."""

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
        value = float(self.value)
        out = {
            "name": self.name,
            "value": value if math.isfinite(value) else str(value),
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


def sample_points(cfg: RunConfig, n: int, c: float, params: ModelParams) -> np.ndarray:
    """Deterministic base points and momenta with energies in the window.

    Momentum directions are drawn uniformly on the sphere, then rescaled so
    the energy density lands exactly on a uniform draw from
    ``[t_min, t_max]``.  The result has shape ``(S, 2, n)``: row ``s`` is
    the pair ``(q_s, p_s)``, and ``[:, 0]``, ``[:, 1]`` are the ``(S, n)``
    batches of base points and momenta.
    """
    rng = np.random.default_rng([cfg.seed, n, int(round(c * 1e9))])
    draws = []
    for _ in range(cfg.samples):
        q = rng.uniform(-2.0, 2.0, size=n)
        direction = rng.normal(size=n)
        draws.append((q, direction / np.linalg.norm(direction), rng.uniform(cfg.t_min, cfg.t_max)))
    q, direction, t_target = (np.array(column) for column in zip(*draws))
    t0 = energy_density(space_form_metric(q, params).g_inv, direction)
    return np.stack([q, direction * np.sqrt(t_target / t0)[:, None]], axis=1)


class Sample:
    """The sampled points of one ``(n, c)`` config, one batch shared by
    every suite.

    ``q`` and ``p`` are the ``(S, n)`` base points and momenta, and
    ``points`` is one batched ``CotangentPoint`` over them; it serves every
    coupling and profile, as a point reads only ``n`` and ``c``.  ``jets``
    are its fiber jets for the config's own params and profile.  Each is
    built on first use; a build that raises is not kept, so every suite that
    needs it records the error.

    ``curvature_chunks`` is one pass over the chunks that builds each
    chunk's curvature ``K`` once; ``ricci`` holds the Ricci trace of every
    chunk from the last pass that ran to its end, O(S n^2) numbers, and runs
    such a pass if none has.  A pass that raises keeps nothing, and no
    chunk's ``K`` outlives its pass.
    """

    def __init__(self, q: np.ndarray, p: np.ndarray, params: ModelParams, profile) -> None:
        self.q, self.p = q, p
        self._params = params
        self._profile = profile
        self._ricci: list[RicciBlocks] | None = None

    def __len__(self) -> int:
        return len(self.q)

    @cached_property
    def points(self) -> CotangentPoint:
        return CotangentPoint.at(self.q, self.p, self._params)

    @cached_property
    def jets(self) -> FiberJets:
        return fiber_jets(self.points, self._params, self._profile)

    def chunks(self, jets: FiberJets | None = None):
        """``(points, jets)`` over consecutive blocks of rows, in order, with
        ``jets`` the own ones by default; a block's curvature fits the
        byte budget of ``base._chunk_rows``."""
        jets = self.jets if jets is None else jets
        rows = _chunk_rows(2 * self.q.shape[-1])
        for start in range(0, len(self), rows):
            block = slice(start, start + rows)
            yield take_rows(self.points, block), take_rows(jets, block)

    def curvature_chunks(self):
        """``(points, jets, K)`` over the chunks of ``chunks()``, with ``K``
        the own member's curvature; a pass that runs to its end keeps each
        chunk's Ricci trace as ``ricci``."""
        ricci = []
        for pt, jets in self.chunks():
            curv = curvature_blocks(pt, self._params, jets)
            ricci.append(ricci_from_blocks(curv))
            yield pt, jets, curv
        self._ricci = ricci

    @property
    def ricci(self) -> list[RicciBlocks]:
        """Each chunk's ``ricci_from_blocks(K)``, in the order of
        ``chunks()``, from the last full pass; runs one if none has."""
        if self._ricci is None:
            for _ in self.curvature_chunks():
                pass
        return self._ricci


def _check(name: str, values, tolerance: float, comparison: str = "le", note: str | None = None) -> CheckResult:
    """A check whose value is the largest of its per-sample ``values``, a list
    of per-chunk arrays or of scalars; a NaN in any sample makes the value
    NaN, which fails either comparison."""
    value = np.max(np.concatenate([np.ravel(v) for v in values]))
    return CheckResult(name, float(value), tolerance, comparison, note)


# ---- individual suites ----


def _suite_almost_kahler(cfg, params, profile, sample) -> SuiteResult:
    tol = cfg.tolerances
    jets = sample.jets
    j_op = assemble_complex_structure(jets)
    metric = assemble_metric(jets)
    phi = fundamental_form(metric, j_op)
    canon = _max_abs(coordinate_form(sample.points, phi) - canonical_coordinate_form(params.n), rank=2)
    eigenvalues = np.concatenate([np.linalg.eigvalsh(jets.gh), np.linalg.eigvalsh(jets.gv)], axis=-1)
    dphi = dform_residual(params, profile, take_rows(sample.points, slice(2)))
    checks = [
        _check("complex_structure_squared", [complex_structure_squared_residual(j_op)], tol.closed_form),
        _check("metric_hermitian", [hermitian_residual(metric, j_op)], tol.closed_form),
        _check("fundamental_form_canonical", [canon], tol.closed_form),
        _check("fundamental_form_closed", [dphi], tol.cross_check),
        _check("metric_positive_definite", [np.min(eigenvalues)], 0.0, comparison="ge"),
    ]
    return SuiteResult("almost_kahler", params.n, params.c, checks)


def _suite_integrability(cfg, params, profile, sample) -> SuiteResult:
    tol = cfg.tolerances
    closed = [_max_abs(nijenhuis_closed_form(pt, params, jets), rank=3) for pt, jets in sample.chunks()]
    pt, jets = take_rows(sample.points, slice(1)), take_rows(sample.jets, slice(1))
    oracle = nijenhuis_numeric(params, profile, pt, jets) - nijenhuis_closed_form(pt, params, jets)
    checks = [
        _check("nijenhuis_vanishes", closed, tol.closed_form),
        _check("nijenhuis_matches_bracket_oracle", [_max_abs(oracle, rank=3)], tol.cross_check),
    ]
    return SuiteResult("integrability", params.n, params.c, checks)


def _suite_connection(cfg, params, profile, sample) -> SuiteResult:
    tol = cfg.tolerances
    checks = []
    if params.is_integrable:
        two_path = [
            _max_abs(
                connection_coefficients(pt, params, jets)
                - kahler_connection_coefficients(pt, params, profile),
                rank=3,
            )
            for pt, jets in sample.chunks()
        ]
        checks.append(_check("coefficients_two_path", two_path, tol.closed_form))

    pt, jets = take_rows(sample.points, slice(2)), take_rows(sample.jets, slice(2))
    conn = connection_coefficients(pt, params, jets)
    metric_grad = metric_gradient(params, profile, pt)
    koszul = _max_abs(koszul_nabla(pt, jets, metric_grad) - conn, rank=3)
    checks.append(_check("koszul_oracle", [koszul], tol.cross_check))
    checks.append(_check("torsion_free", [torsion_residual(pt, conn)], tol.closed_form))
    compat = metric_compatibility_residual(conn, jets, metric_grad)
    checks.append(_check("metric_parallel", [compat], tol.cross_check))
    if params.is_integrable:
        parallel_j = parallel_j_residual(conn, jets, metric_grad)
        checks.append(_check("complex_structure_parallel", [parallel_j], tol.cross_check))
    return SuiteResult("connection", params.n, params.c, checks)


def _suite_curvature(cfg, params, profile, sample) -> SuiteResult:
    tol = cfg.tolerances
    n = params.n
    h, v = slice(None, n), slice(n, None)

    # One finite-difference curvature at the oracle point serves the block
    # oracle, the odd-slot complement and the mixed Ricci block.
    pt, jets = take_rows(sample.points, slice(1)), take_rows(sample.jets, slice(1))
    fd = curvature_fd(params, profile, pt, jets)
    diff = fd - curvature_blocks(pt, params, jets)
    odd = odd_slots(n)
    checks = [
        _check("blocks_match_fd_oracle", [_max_abs(diff[..., ~odd], rank=1)], tol.fd_oracle),
        _check("complement_outputs_vanish", [_max_abs(diff[..., odd], rank=1)], tol.fd_oracle),
    ]
    notes = []
    if checks[-1].passed:
        notes.append(
            "mixed-argument block with vertical third slot produced a horizontal "
            f"output (complement below {tol.fd_oracle:.0e}), fixing its frame kind"
        )

    # Each sample draws 16 vectors (four quadruples) and, at the integrable
    # coupling, one section; the generator fills a (rows, 17, 2n) draw in
    # that same order.
    rng = np.random.default_rng([cfg.seed, 7, n])
    draws = 17 if params.is_integrable else 16
    symmetry, relations, ric_closed, hsc_spread = [], [], [], []
    for pt, jets, curv in sample.curvature_chunks():
        drawn = rng.normal(size=(len(pt.t), draws, 2 * n))
        metric = assemble_metric(jets)
        quadruples = drawn[:, :16].reshape(-1, 4, 4, 2 * n)
        symmetry.append(pair_symmetry_residual(curv, metric, quadruples))
        if params.is_integrable:
            relations.append(
                _max_abs(
                    curv[..., h, h, v, v] + np.swapaxes(curv[..., h, h, h, h], -2, -1),
                    curv[..., v, v, v, v] + np.swapaxes(curv[..., v, v, h, h], -2, -1),
                    rank=4,
                )
            )
            ric_closed.append(ricci_closed_form(pt, params, profile))
            j_op = assemble_complex_structure(jets)
            x = drawn[:, 16]
            h1 = holomorphic_sectional_curvature(curv, metric, j_op, x)
            h2 = holomorphic_sectional_curvature(curv, metric, j_op, 2.5 * x)
            hsc_spread.append(np.abs(h1 - h2))
    checks.append(_check("pair_symmetry", symmetry, tol.closed_form))
    if params.is_integrable:
        checks.append(_check("kahler_block_relations", relations, tol.closed_form))
        two_path = [
            _max_abs(trace.hh - closed.hh, trace.vv - closed.vv, rank=2)
            for trace, closed in zip(sample.ricci, ric_closed, strict=True)
        ]
        checks.append(_check("ricci_two_path", two_path, tol.cross_check))
        checks.append(_check("holomorphic_curvature_scale_invariant", hsc_spread, tol.closed_form))
    mixed = np.einsum("...abca->...bc", fd)[..., :n, n:]
    checks.append(_check("mixed_ricci_vanishes", [_max_abs(mixed, rank=2)], tol.cross_check))
    return SuiteResult("curvature", n, params.c, checks, notes)


def _suite_einstein(cfg, params, profile, sample) -> SuiteResult:
    tol = cfg.tolerances

    ts = np.linspace(cfg.t_min, cfg.t_max, 13)
    gam = gamma_factor(params, profile, ts)
    ode = euler_ode_residual(params, profile, ts)
    relation = gam + 4.0 * math.sqrt(2.0) * np.sqrt(ts) * ode
    checks = [_check("gamma_matches_ode_residual", [np.abs(relation)], tol.closed_form)]

    closed_vs_direct, einstein_worst, pairs = [], [], []
    for (pt, jets), ricci in zip(sample.chunks(), sample.ricci, strict=True):
        direct = einstein_difference(pt, params, profile, jets, ricci=ricci)
        closed = einstein_difference_closed_form(pt, params, profile)
        closed_vs_direct.append(_max_abs(direct[0] - closed[0], direct[1] - closed[1], rank=2))
        pairs.append((ricci, jets))
        if cfg.profile == "einstein":
            einstein_worst.append(einstein_residual(pt, params, jets, ricci))
    checks.append(_check("difference_closed_form", closed_vs_direct, tol.closed_form))

    if cfg.profile == "einstein":
        fitted = fit_einstein_constant(pairs)
        checks.append(_check("family_solves_ode", [np.abs(ode)], tol.closed_form))
        checks.append(_check("einstein_constant", einstein_worst, tol.cross_check))
        fit_error = abs(fitted - family_einstein_constant(params))
        checks.append(_check("fitted_constant_matches", [fit_error], tol.cross_check))
    return SuiteResult("einstein", params.n, params.c, checks)


def _suite_witnesses(cfg, params, profile, sample) -> SuiteResult:
    tol = cfg.tolerances
    n, c = params.n, params.c
    points = sample.points

    off_params = replace(params, a_metric=(1.0 + _WITNESS_DETUNE) * integrable_coupling(c))
    off_jets = fiber_jets(points, off_params, profile)
    nij = [
        _max_abs(nijenhuis_closed_form(pt, off_params, jets), rank=3)
        for pt, jets in sample.chunks(off_jets)
    ]
    center, off_center_jets = take_rows(points, slice(1)), take_rows(off_jets, slice(1))
    parallel = parallel_j_residual(
        connection_coefficients(center, off_params, off_center_jets),
        off_center_jets,
        metric_gradient(off_params, profile, center),
    )
    checks = [
        _check("nijenhuis_detects_coupling", nij, tol.witness_floor, comparison="ge"),
        _check("complex_structure_parallel_detects_coupling", [parallel], tol.witness_floor, comparison="ge"),
    ]

    generic = rational_profile()
    gam_witness = np.abs(gamma_factor(params, generic, np.linspace(cfg.t_min, cfg.t_max, 13)))
    checks.append(_check("gamma_detects_profile", [gam_witness], tol.witness_floor, comparison="ge"))

    # Off the family gamma does not vanish, so the rational profile's
    # defect also tests the closed-form difference; on the Einstein profile
    # both sides of einstein/difference_closed_form are zero.
    defect, off_family = [], []
    for pt, jets in sample.chunks(fiber_jets(points, params, generic)):
        direct = einstein_difference(pt, params, generic, jets)
        defect.append(_max_abs(*direct, rank=2))
        if params.is_integrable:
            closed = einstein_difference_closed_form(pt, params, generic)
            off_family.append(_max_abs(direct[0] - closed[0], direct[1] - closed[1], rank=2))
    checks.append(_check("einstein_detects_profile", defect, tol.witness_floor, comparison="ge"))
    notes = []
    if params.is_integrable:
        checks.append(_check("einstein_difference_off_family", off_family, tol.closed_form))
        if checks[-1].passed:
            notes.append(
                "horizontal Einstein defect matched the admissibility-weighted form "
                "(sqrt(c) + sqrt(2t) v) gamma / (4t) p p, not the unweighted variant, "
                "on the rational profile"
            )

    # Non-constancy witnesses probe a fixed generic family member: with
    # k_a = 0 some members (n = 2 in particular) are genuinely locally
    # symmetric, so the generic claim is pinned to k_a = k_b = 1.
    witness_params = ModelParams.kahler(n, c, k_a=1.0, k_b=1.0)
    witness_profile = einstein_profile(witness_params)
    witness_jets = fiber_jets(points, witness_params, witness_profile)
    rng = np.random.default_rng([cfg.seed, 11, n, int(round(c * 1e9))])
    values = np.concatenate([
        holomorphic_sectional_curvature(
            curvature_blocks(pt, witness_params, jets),
            assemble_metric(jets),
            assemble_complex_structure(jets),
            rng.normal(size=(len(pt.t), 2 * n)),
        )
        for pt, jets in sample.chunks(witness_jets)
    ])
    low, high = np.min(values), np.max(values)
    checks.append(
        _check(
            "holomorphic_curvature_spread",
            [high - low],
            tol.witness_floor,
            comparison="ge",
            note=(
                f"sectional values in [{low:.6g}, {high:.6g}] over "
                f"{len(values)} random sections of the k_a=1, k_b=1 member"
            ),
        )
    )

    probe = nabla_curvature_probe(witness_params, witness_profile, center, take_rows(witness_jets, slice(1)))
    checks.append(
        _check(
            "curvature_not_parallel",
            [probe],
            tol.witness_floor,
            comparison="ge",
            note=f"max nabla-K component {probe[0]:.6g} on the k_a=1, k_b=1 member",
        )
    )
    return SuiteResult("witnesses", n, c, checks, notes)


_SUITE_FUNCS = {
    "almost_kahler": _suite_almost_kahler,
    "integrability": _suite_integrability,
    "connection": _suite_connection,
    "curvature": _suite_curvature,
    "einstein": _suite_einstein,
    "witnesses": _suite_witnesses,
}


def run_suite(name: str, cfg: RunConfig, params: ModelParams, profile, sample: Sample) -> SuiteResult:
    """Run one suite over a shared sample.

    Numerical failures never abort the run: a ``GeometryError`` (zero
    section, positivity, singular metric, non-finite FD row) or an ``ArithmeticError``
    (such as a float overflow) becomes one failed ``suite_error`` check.
    """
    try:
        func = _SUITE_FUNCS[name]
    except KeyError:
        raise ConfigError(f"unknown suite {name!r}") from None
    try:
        result = func(cfg, params, profile, sample)
    except (GeometryError, ArithmeticError) as exc:
        result = SuiteResult(name, params.n, params.c)
        result.checks.append(
            CheckResult("suite_error", 1.0, 0.0, note=f"{type(exc).__name__}: {exc}")
        )
    result.samples = len(sample)
    return result


def run_verification(cfg: RunConfig) -> dict:
    """Run the requested suites over every (dim, curvature) pair.

    Points are sampled and built once per pair, as one batch shared by every
    suite (see ``Sample``).  Returns the full report as a JSON-serializable
    dict, suite by suite; wall-clock timings live in their own key so
    reports stay comparable across runs.
    """
    import time

    configs_out: list[list[dict]] = [[] for _ in cfg.suites]
    suite_notes: list[list[str]] = [[] for _ in cfg.suites]
    seconds = [0.0] * len(cfg.suites)
    for n in cfg.dims:
        for c in cfg.curvatures:
            a_metric = (1.0 + cfg.a_metric_offset) * integrable_coupling(c)
            params = ModelParams(n=n, c=c, a_metric=a_metric, k_a=cfg.k_a, k_b=cfg.k_b)
            profile = profile_from_name(cfg.profile, params)
            points = sample_points(cfg, n, c, params)
            sample = Sample(points[:, 0], points[:, 1], params, profile)
            for index, suite_name in enumerate(cfg.suites):
                started = time.perf_counter()
                result = run_suite(suite_name, cfg, params, profile, sample)
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

    config = asdict(cfg)
    config.update((key, list(config[key])) for key in ("dims", "curvatures", "suites"))
    report = {
        "schema_version": 3,
        "config": config,
        "suites": suites_out,
        "discrepancy_notes": notes,
        "passed": all(s["passed"] for s in suites_out),
        "timings": timings,
    }
    return report
