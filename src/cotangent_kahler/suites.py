"""Named verification suites over sampled points, with machine-readable results.

Each suite bundles related checks: a value, a tolerance, and a comparison
direction (``le`` for residuals, ``ge`` for witnesses that must stay away
from zero).  A check is its report entry, the dict ``_check`` returns; a
suite returns its checks and its notes, and ``_config_entry`` writes a
config's entry.  Sampling is deterministic per ``(seed, dim, curvature)``,
so a fixed configuration yields an identical report.

A config's sampled points are one batch (``Sample``), built once and
shared by every suite, which names the member it checks.  Each closed-form
check reads one array with a value per sample; a check that needs no
curvature computes it in one call over all rows.  Only the curvature pass
(``Sample.curvature_rows``) splits the rows into blocks, so that a
member's ``K`` and its block parts, ``(2n)^4`` numbers per row, are built
once per block and no value depends on the block size; no other code
builds a member's ``K`` on the sampled rows.  The ``curvature`` suite
consumes the own member's pass; every other read of a pass's values goes
through the one record each pass keeps (``Kept``).  The finite-difference
oracles differentiate on the sample's stencils at the first center or the
first two (``Sample.stencil``).  What a config keeps is said once, in
``Sample``.  A check's value is the largest of its per-sample values; a
NaN in any sample fails it.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .base import ModelParams, _max_abs, integrable_coupling, space_form_metric
from .connection import (
    center_connection,
    connection_coefficients,
    connection_on,
    kahler_connection_coefficients,
    koszul_nabla,
    metric_compatibility_residual,
    metric_gradient,
    parallel_j_residual,
    torsion_residual,
)
from .curvature import (
    RicciBlocks,
    curvature_fd,
    curvature_from_connection,
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
    gamma_factor,
)
from .errors import ConfigError, GeometryError
from .fd import Stencil
from .mtensor import CotangentPoint, Rows, assemble_metric, energy_density, take_rows
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

# Byte budget of one block of a curvature pass.  A block of sample rows is
# sized so that one (2n)^4 float64 array per row, the curvature K, fits it:
# 128 rows at n = 2, 25 at n = 3, 3 at n = 5.  Building K over all rows at
# once raises the process's peak RSS past the 10% bound of the benchmark:
# the whole 300-sample sweep in one block costs about 7 MiB at n = 3.
_CHUNK_BYTES = 256 * 1024


def _chunk_rows(dim: int) -> int:
    """Rows per block whose ``dim^4`` float64 arrays fit ``_CHUNK_BYTES``;
    at least one."""
    return max(1, _CHUNK_BYTES // (8 * dim**4))


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


# ---- sampling ----


def _curvature_seed(c: float) -> int:
    """The curvature's part of every sampling seed, ``round(c * 1e9)``."""
    if not math.isfinite(c * 1e9):
        raise GeometryError(f"curvature {c:g} is too large for the sampling seed round(c * 1e9)")
    return int(round(c * 1e9))


def sample_points(cfg: RunConfig, n: int, c: float, params: ModelParams) -> np.ndarray:
    """Deterministic base points and momenta with energies in the window.

    Momentum directions are drawn uniformly on the sphere, then rescaled so
    the energy density lands exactly on a uniform draw from
    ``[t_min, t_max]``.  The result has shape ``(S, 2, n)``: row ``s`` is
    the pair ``(q_s, p_s)``, and ``[:, 0]``, ``[:, 1]`` are the ``(S, n)``
    batches of base points and momenta.

    The draw contract, which fixes every sampled bit: per sample, in order,
    ``n`` uniforms on ``[0, 1)``, ``n`` standard normals and one uniform.
    The loop makes two generator calls per sample, each into a preallocated
    row: the normals, then one draw of the sample's energy uniform and the
    next sample's ``n`` uniforms (the last such ``n`` go unused).  All
    arithmetic runs on the stacked draws after the loop, with the bits of
    ``Generator.uniform`` and ``np.linalg.norm`` per sample.
    """
    rng = np.random.default_rng([cfg.seed, n, _curvature_seed(c)])
    # Row s holds the energy uniform of sample s - 1 and the uniforms of s.
    uniforms, normal = np.empty((cfg.samples + 1, n + 1)), np.empty((cfg.samples, n))
    rng.random(out=uniforms[0, 1:])
    for s in range(cfg.samples):
        rng.standard_normal(out=normal[s])
        rng.random(out=uniforms[s + 1])
    u, u_t = uniforms[:-1, 1:], uniforms[1:, 0]
    q = -2.0 + 4.0 * u
    direction = normal / np.sqrt(np.vecdot(normal, normal))[:, None]
    t_target = cfg.t_min + (cfg.t_max - cfg.t_min) * u_t
    with np.errstate(over="ignore", invalid="ignore"):  # energy_density refuses an overflow
        t0 = energy_density(space_form_metric(q, params).g_inv, direction)
    return np.stack([q, direction * np.sqrt(t_target / t0)[:, None]], axis=1)


@dataclass(frozen=True)
class Kept:
    """The record of a member's curvature pass: its Ricci trace on all rows,
    its ``K`` at the first row, the one center of ``Sample.stencil(1)``, as
    a one-row copy, and its holomorphic sectional curvature at the sample's
    ``sections``, one per row, or ``None`` on a sample without them."""

    ricci: RicciBlocks
    center: np.ndarray
    holomorphic: np.ndarray | None


class Sample:
    """The sampled points of one ``(n, c)`` config, one batch shared by
    every suite; it holds no member, and each method takes the member
    ``(params, profile)``.

    ``rows`` are the ``Rows`` of the ``(S, n)`` base points and momenta.
    They keep ``points``, one batched ``CotangentPoint`` that serves every
    member, as a point reads only ``n`` and ``c``, and each member's values
    per row.  ``stencil(centers)`` is the ``fd.Stencil`` on the first
    ``centers`` rows, shared by every oracle at those centers.  The sample
    keeps its stencils beside the rows that are their base, so no stencil
    refers back to the sample.  Each is built on first use; a build that
    raises is not kept, so every suite that needs it records the error.
    ``sections`` is ``None`` or one random tangent vector per row, which the
    run draws when it includes the witnesses suite.

    ``curvature_rows`` is the one place that builds a member's ``K`` on the
    rows: once per block of as many rows as keep ``(2n)^4`` float64 numbers
    per row within the byte budget of ``_chunk_rows``, from the block's
    rows of the member's ``connection_on`` the rows.  It returns one
    per-row array per check, whatever the budget.  A pass that runs to its
    end keeps the member's ``Kept``, keyed as in ``Rows``; ``kept`` reads
    it and runs a pass if none has kept one.  A pass that raises keeps
    nothing.

    The keep rule: a config keeps per-row values on all S rows (the point,
    and each member's metric blocks, fiber jets, connection, Ricci trace
    and sectional values), so these grow with S.  It keeps ``K`` only at
    the first row: no pass's ``K`` or block part outlives its block, so
    what a pass adds is bounded per block.
    """

    def __init__(self, q: np.ndarray, p: np.ndarray, params: ModelParams, sections=None) -> None:
        self.rows = Rows(q, p, lambda qq, pp: CotangentPoint.at(qq, pp, params))
        self.sections = sections
        self._stencils: dict[int, Stencil] = {}
        self._kept: dict = {}

    def __len__(self) -> int:
        return len(self.rows.q)

    def stencil(self, centers: int) -> Stencil:
        if centers not in self._stencils:
            self._stencils[centers] = Stencil(self.rows, centers)
        return self._stencils[centers]

    def curvature_rows(self, params: ModelParams, profile, fn) -> tuple:
        """``fn(points, jets, K, rows)`` of the member on each block of rows,
        in order, ``rows`` the block's slice and ``K`` the member's curvature
        on the block; the tuples of per-row arrays it returns, joined over all
        rows.  Keeps the member's ``Kept``."""
        jets, conn = self.rows.jets_of(params, profile), connection_on(self.rows, params, profile)
        step = _chunk_rows(2 * self.rows.q.shape[-1])
        parts = []
        for start in range(0, len(self), step):
            rows = slice(start, start + step)
            pt, block_jets = take_rows(self.rows.points, rows), take_rows(jets, rows)
            curv = curvature_from_connection(pt, params, block_jets, conn[rows])
            ricci = ricci_from_blocks(curv)
            # A copy, so that the kept first row does not hold the block's K.
            kept = [ricci.hh, ricci.vv, curv[: int(start == 0)].copy()]
            if self.sections is not None:
                metric, j_op = assemble_metric(block_jets), assemble_complex_structure(block_jets)
                kept.append(holomorphic_sectional_curvature(curv, metric, j_op, self.sections[rows]))
            parts.append((*kept, *fn(pt, block_jets, curv, rows)))
        hh, vv, center, *values = (np.concatenate(column) for column in zip(*parts))
        holomorphic = None if self.sections is None else values.pop(0)
        self._kept[params, profile] = Kept(RicciBlocks(hh, vv), center, holomorphic)
        return tuple(values)

    def kept(self, params: ModelParams, profile) -> Kept:
        """The member's record from its last full pass; runs one if none has."""
        if (params, profile) not in self._kept:
            self.curvature_rows(params, profile, lambda *_: ())
        return self._kept[params, profile]


def _check(name: str, values, tolerance: float, comparison: str = "le", note: str | None = None) -> dict:
    """The report entry of a check whose value is the largest of ``values``
    (one per sample, per FD center or per energy, or one scalar), passed at
    ``value <= tolerance`` (``le``) or ``value >= tolerance`` (``ge``).  A NaN
    in any of ``values`` fails either; a non-finite value is written as
    ``"nan"``, ``"inf"`` or ``"-inf"``, as JSON has no number for it.  A
    ``note`` is written only when given."""
    value = float(np.max(values))
    entry = {
        "name": name,
        "value": value if math.isfinite(value) else str(value),
        "tolerance": float(tolerance),
        "comparison": comparison,
        "passed": bool(value <= tolerance if comparison == "le" else value >= tolerance),
    }
    if note is not None:
        entry["note"] = note
    return entry


# ---- individual suites ----


def _suite_almost_kahler(cfg, params, profile, sample) -> tuple[list[dict], list[str]]:
    tol = cfg.tolerances
    jets = sample.rows.jets_of(params, profile)
    j_op = assemble_complex_structure(jets)
    metric = assemble_metric(jets)
    phi = fundamental_form(metric, j_op)
    canon = _max_abs(coordinate_form(sample.rows.points, phi) - canonical_coordinate_form(params.n), rank=2)
    eigenvalues = np.concatenate([np.linalg.eigvalsh(jets.gh), np.linalg.eigvalsh(jets.gv)], axis=-1)
    dphi = dform_residual(params, profile, sample.stencil(2))
    checks = [
        _check("complex_structure_squared", complex_structure_squared_residual(j_op), tol.closed_form),
        _check("metric_hermitian", hermitian_residual(metric, j_op), tol.closed_form),
        _check("fundamental_form_canonical", canon, tol.closed_form),
        _check("fundamental_form_closed", dphi, tol.cross_check),
        _check("metric_positive_definite", np.min(eigenvalues), 0.0, comparison="ge"),
    ]
    return checks, []


def _nijenhuis_rows(sample, params, profile) -> np.ndarray:
    """The member's closed-form Nijenhuis tensor, largest entry per row."""
    rows = sample.rows
    return _max_abs(nijenhuis_closed_form(rows.points, params, rows.blocks_of(params, profile)), rank=3)


def _suite_integrability(cfg, params, profile, sample) -> tuple[list[dict], list[str]]:
    tol = cfg.tolerances
    stencil = sample.stencil(1)
    oracle = nijenhuis_numeric(params, profile, stencil) - nijenhuis_closed_form(
        stencil.centers, params, stencil.center_jets(params, profile)
    )
    checks = [
        _check("nijenhuis_vanishes", _nijenhuis_rows(sample, params, profile), tol.closed_form),
        _check("nijenhuis_matches_bracket_oracle", _max_abs(oracle, rank=3), tol.cross_check),
    ]
    return checks, []


def _suite_connection(cfg, params, profile, sample) -> tuple[list[dict], list[str]]:
    tol = cfg.tolerances
    checks = []
    if params.is_integrable:
        conn = connection_on(sample.rows, params, profile)
        two_path = _max_abs(conn - kahler_connection_coefficients(sample.rows.points, params, profile), rank=3)
        checks.append(_check("coefficients_two_path", two_path, tol.closed_form))

    stencil = sample.stencil(2)
    pt, jets = stencil.centers, stencil.center_jets(params, profile)
    conn = center_connection(params, profile, stencil)
    metric_grad = metric_gradient(params, profile, stencil)
    koszul = _max_abs(koszul_nabla(pt, jets, metric_grad) - conn, rank=3)
    checks.append(_check("koszul_oracle", koszul, tol.cross_check))
    checks.append(_check("torsion_free", torsion_residual(pt, conn), tol.closed_form))
    compat = metric_compatibility_residual(conn, jets, metric_grad)
    checks.append(_check("metric_parallel", compat, tol.cross_check))
    if params.is_integrable:
        parallel_j = parallel_j_residual(conn, jets, metric_grad)
        checks.append(_check("complex_structure_parallel", parallel_j, tol.cross_check))
    return checks, []


def _suite_curvature(cfg, params, profile, sample) -> tuple[list[dict], list[str]]:
    tol = cfg.tolerances
    n = params.n
    h, v = slice(None, n), slice(n, None)

    # Four quadruples (X, Y, Z, W) per sample, the same at every coupling.
    rng = np.random.default_rng([cfg.seed, 7, n])
    quadruples = rng.normal(size=(len(sample), 4, 4, 2 * n))

    def per_block(pt, jets, curv, rows):
        symmetry = pair_symmetry_residual(curv, assemble_metric(jets), quadruples[rows])
        if not params.is_integrable:
            return (symmetry,)
        relations = _max_abs(
            curv[..., h, h, v, v] + np.swapaxes(curv[..., h, h, h, h], -2, -1),
            curv[..., v, v, v, v] + np.swapaxes(curv[..., v, v, h, h], -2, -1),
            rank=4,
        )
        return symmetry, relations

    symmetry, *relations = sample.curvature_rows(params, profile, per_block)

    # One finite-difference curvature at the oracle point serves the block
    # oracle, the odd-slot complement and the mixed Ricci block.
    fd = curvature_fd(params, profile, sample.stencil(1))
    diff = fd - sample.kept(params, profile).center
    odd = odd_slots(n)
    checks = [
        _check("blocks_match_fd_oracle", _max_abs(diff[..., ~odd], rank=1), tol.fd_oracle),
        _check("complement_outputs_vanish", _max_abs(diff[..., odd], rank=1), tol.fd_oracle),
    ]
    notes = []
    if checks[-1]["passed"]:
        notes.append(
            "mixed-argument block with vertical third slot produced a horizontal "
            f"output (complement below {tol.fd_oracle:.0e}), fixing its frame kind"
        )
    checks.append(_check("pair_symmetry", symmetry, tol.closed_form))
    if params.is_integrable:
        checks.append(_check("kahler_block_relations", relations[0], tol.closed_form))
        trace, closed = sample.kept(params, profile).ricci, ricci_closed_form(sample.rows.points, params, profile)
        two_path = _max_abs(trace.hh - closed.hh, trace.vv - closed.vv, rank=2)
        checks.append(_check("ricci_two_path", two_path, tol.cross_check))
    mixed = np.einsum("...abca->...bc", fd)[..., :n, n:]
    checks.append(_check("mixed_ricci_vanishes", _max_abs(mixed, rank=2), tol.cross_check))
    return checks, notes


def _suite_einstein(cfg, params, profile, sample) -> tuple[list[dict], list[str]]:
    tol = cfg.tolerances
    pt, jets, ricci = sample.rows.points, sample.rows.jets_of(params, profile), sample.kept(params, profile).ricci
    direct = einstein_difference(pt, params, profile, jets, ricci)
    closed = einstein_difference_closed_form(pt, params, profile)
    closed_vs_direct = _max_abs(direct[0] - closed[0], direct[1] - closed[1], rank=2)
    checks = [_check("difference_closed_form", closed_vs_direct, tol.closed_form)]

    if cfg.profile == "einstein":
        ode = euler_ode_residual(params, profile, np.linspace(cfg.t_min, cfg.t_max, 13))
        checks.append(_check("family_solves_ode", np.abs(ode), tol.closed_form))
        checks.append(_check("einstein_constant", einstein_residual(params, jets, ricci), tol.cross_check))
    return checks, []


def _suite_witnesses(cfg, params, profile, sample) -> tuple[list[dict], list[str]]:
    if sample.sections is None:
        raise ConfigError("the witnesses suite needs a sample with sections: Sample(q, p, params, sections)")
    tol = cfg.tolerances
    n, c = params.n, params.c
    stencil = sample.stencil(1)

    off_params = replace(params, a_metric=(1.0 + _WITNESS_DETUNE) * integrable_coupling(c))
    off_jets = stencil.center_jets(off_params, profile)
    parallel = parallel_j_residual(
        connection_coefficients(stencil.centers, off_params, off_jets),
        off_jets,
        metric_gradient(off_params, profile, stencil),
    )
    nij = _nijenhuis_rows(sample, off_params, profile)
    # Detuned, the mixed block of N is nonzero, so the oracle tests its sign.
    closed = nijenhuis_closed_form(stencil.centers, off_params, off_jets)
    oracle = _max_abs(nijenhuis_numeric(off_params, profile, stencil) - closed, rank=3)
    checks = [
        _check("nijenhuis_detects_coupling", nij, tol.witness_floor, comparison="ge"),
        _check("nijenhuis_matches_bracket_oracle_detuned", oracle, tol.cross_check),
        _check("complex_structure_parallel_detects_coupling", parallel, tol.witness_floor, comparison="ge"),
    ]

    generic = rational_profile()
    gam_witness = np.abs(gamma_factor(params, generic, np.linspace(cfg.t_min, cfg.t_max, 13)))
    checks.append(_check("gamma_detects_profile", gam_witness, tol.witness_floor, comparison="ge"))

    # Off the family gamma does not vanish, so the rational profile's
    # defect also tests the closed-form difference; on the Einstein profile
    # both sides of einstein/difference_closed_form are zero.
    pt, ricci = sample.rows.points, sample.kept(params, generic).ricci
    direct = einstein_difference(pt, params, generic, sample.rows.jets_of(params, generic), ricci)
    defect = _max_abs(*direct, rank=2)
    checks.append(_check("einstein_detects_profile", defect, tol.witness_floor, comparison="ge"))
    notes = []
    if params.is_integrable:
        closed = einstein_difference_closed_form(pt, params, generic)
        off_family = _max_abs(direct[0] - closed[0], direct[1] - closed[1], rank=2)
        checks.append(_check("einstein_difference_off_family", off_family, tol.closed_form))
        if checks[-1]["passed"]:
            notes.append(
                "horizontal Einstein defect matched the admissibility-weighted form "
                "(sqrt(c) + sqrt(2t) v) gamma / (4t) p p, not the unweighted variant, "
                "on the rational profile"
            )

    # Non-constancy witnesses probe a fixed generic family member: with
    # k_a = 0 some members (n = 2 in particular) are genuinely locally
    # symmetric, so the generic claim is pinned to k_a = k_b = 1.
    pinned = ModelParams.kahler(n, c, k_a=1.0, k_b=1.0)
    pinned_profile = einstein_profile(pinned)
    kept = sample.kept(pinned, pinned_profile)
    values = kept.holomorphic
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

    probe = nabla_curvature_probe(pinned, pinned_profile, stencil, kept.center)
    checks.append(
        _check(
            "curvature_not_parallel",
            probe,
            tol.witness_floor,
            comparison="ge",
            note=f"max nabla-K component {probe[0]:.6g} on the k_a=1, k_b=1 member",
        )
    )
    return checks, notes


_SUITE_FUNCS = {
    "almost_kahler": _suite_almost_kahler,
    "integrability": _suite_integrability,
    "connection": _suite_connection,
    "curvature": _suite_curvature,
    "einstein": _suite_einstein,
    "witnesses": _suite_witnesses,
}


def _suite_error(exc: Exception) -> dict:
    """The one failed ``suite_error`` check of a suite that raised ``exc``;
    its note names the exception."""
    return _check("suite_error", 1.0, 0.0, note=f"{type(exc).__name__}: {exc}")


def _config_entry(params: ModelParams, samples: int, checks: list[dict]) -> dict:
    """A config's report entry in one suite: passed when all ``checks`` are."""
    passed = all(check["passed"] for check in checks)
    return {"dim": params.n, "curvature": params.c, "samples": samples, "passed": passed, "checks": checks}


def run_suite(name: str, cfg: RunConfig, params: ModelParams, profile, sample: Sample) -> tuple[dict, list[str]]:
    """Run one suite over a shared sample; return the config's report entry
    and the suite's discrepancy notes.

    Numerical failures never abort the run: a ``GeometryError`` (zero
    section, positivity, singular metric, non-finite FD row), an
    ``ArithmeticError`` (such as a float overflow) or a
    ``np.linalg.LinAlgError`` (such as eigenvalues that do not converge)
    becomes one failed ``suite_error`` check.
    """
    try:
        func = _SUITE_FUNCS[name]
    except KeyError:
        raise ConfigError(f"unknown suite {name!r}") from None
    try:
        checks, notes = func(cfg, params, profile, sample)
    except (GeometryError, ArithmeticError, np.linalg.LinAlgError) as exc:
        checks, notes = [_suite_error(exc)], []
    return _config_entry(params, len(sample), checks), notes


def run_verification(cfg: RunConfig) -> dict:
    """Run the requested suites over every (dim, curvature) pair.

    Points are sampled and built once per pair, as one batch shared by every
    suite (see ``Sample``).  A config whose sampling raises a
    ``GeometryError`` or an ``ArithmeticError`` gets one failed
    ``suite_error`` check in each suite, with no samples, and the run goes
    on.  Returns the full report as a JSON-serializable dict, suite by
    suite, built from the entries of ``run_suite``; the discrepancy notes
    go suite by suite, in config order, each at its first occurrence.
    Wall-clock timings live in their own key so reports stay comparable
    across runs.
    """
    import time

    configs: dict[str, list[dict]] = {name: [] for name in cfg.suites}
    notes: dict[str, list[str]] = {name: [] for name in cfg.suites}
    seconds = dict.fromkeys(cfg.suites, 0.0)
    for n in cfg.dims:
        for c in cfg.curvatures:
            a_metric = (1.0 + cfg.a_metric_offset) * integrable_coupling(c)
            params = ModelParams(n=n, c=c, a_metric=a_metric, k_a=cfg.k_a, k_b=cfg.k_b)
            profile = profile_from_name(cfg.profile, params)
            try:
                points = sample_points(cfg, n, c, params)
            except (GeometryError, ArithmeticError) as exc:
                for suite_name in cfg.suites:
                    configs[suite_name].append(_config_entry(params, 0, [_suite_error(exc)]))
                continue
            sections = None
            if "witnesses" in cfg.suites:
                rng = np.random.default_rng([cfg.seed, 11, n, _curvature_seed(c)])
                sections = rng.normal(size=(len(points), 2 * n))
            sample = Sample(points[:, 0], points[:, 1], params, sections)
            for suite_name in cfg.suites:
                started = time.perf_counter()
                entry, suite_notes = run_suite(suite_name, cfg, params, profile, sample)
                seconds[suite_name] += time.perf_counter() - started
                configs[suite_name].append(entry)
                notes[suite_name] += (f"{suite_name}: {note}" for note in suite_notes)

    suites_out = [
        {"name": name, "passed": all(entry["passed"] for entry in entries), "configs": entries}
        for name, entries in configs.items()
    ]
    config = asdict(cfg)
    config.update((key, list(config[key])) for key in ("dims", "curvatures", "suites"))
    return {
        "schema_version": 3,
        "config": config,
        "suites": suites_out,
        "discrepancy_notes": list(dict.fromkeys(note for suite_notes in notes.values() for note in suite_notes)),
        "passed": all(s["passed"] for s in suites_out),
        "timings": {name: round(spent, 6) for name, spent in seconds.items()},
    }
