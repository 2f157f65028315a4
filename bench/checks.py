"""Output checks on certifier runs, made outside the timed region.

None of them compares against stored output.  They rest on properties the
method must have and on quantities recomputed here from the paper's
formulas:

* every (suite, config) the run asked for is in the report, with the
  requested sample count, and repeated runs give the same report outside
  ``timings``;
* at a few sampled points per config, ``Ric = lambda G`` with the family's
  constant ``lambda = -k_b (n + 1) / 2`` computed here, judged relative to
  ``max |Ric|``;
* every sampled energy ``t = g^{ik} p_i p_k / 2``, recomputed here from the
  stereographic metric ``g = I / (1 + c |q|^2 / 4)^2``, lies in
  ``[t_min, t_max]``.
"""

from __future__ import annotations

import json

import numpy as np

from cotangent_kahler.base import ModelParams, integrable_coupling
from cotangent_kahler.curvature import curvature_blocks, ricci_from_blocks
from cotangent_kahler.mtensor import CotangentPoint, fiber_jets
from cotangent_kahler.profiles import profile_from_name
from cotangent_kahler.suites import sample_points

# Sampled points per config at which the Einstein property is recomputed.
EINSTEIN_POINTS = 4
# ``max |Ric - lambda G| / max |Ric|`` allowed; float64 rounding in the
# curvature blocks stays far below this inside the default energy window.
EINSTEIN_RTOL = 1e-8
# Relative slack on the energy window, for rounding in the rescaling.
ENERGY_RTOL = 1e-12


def count_operations(report: dict) -> tuple[int, int]:
    """``(attempted, failed)``: one operation is one (suite, config, check);
    a check that did not pass, ``suite_error`` included, failed."""
    attempted = failed = 0
    for suite in report["suites"]:
        for cfg_out in suite["configs"]:
            for check in cfg_out["checks"]:
                attempted += 1
                failed += not check["passed"]
    return attempted, failed


def _without_timings(report: dict) -> str:
    return json.dumps({k: v for k, v in report.items() if k != "timings"}, sort_keys=True)


def report_problems(cfg, reports: list[dict]) -> list[str]:
    """Shape of the first report against ``cfg``, and sameness of the rest."""
    problems = []
    first = reports[0]
    if [s["name"] for s in first["suites"]] != list(cfg.suites):
        problems.append(f"report suites {[s['name'] for s in first['suites']]} != {list(cfg.suites)}")
    grid = [(n, c) for n in cfg.dims for c in cfg.curvatures]
    for suite in first["suites"]:
        got = [(o["dim"], o["curvature"]) for o in suite["configs"]]
        if got != grid:
            problems.append(f"{suite['name']}: configs {got} != {grid}")
        for cfg_out in suite["configs"]:
            if cfg_out["samples"] != cfg.samples:
                problems.append(
                    f"{suite['name']} n={cfg_out['dim']} c={cfg_out['curvature']}: "
                    f"{cfg_out['samples']} samples, asked for {cfg.samples}"
                )
    reference = _without_timings(first)
    for index, report in enumerate(reports[1:], start=1):
        if _without_timings(report) != reference:
            problems.append(f"report {index} differs from report 0 outside timings")
    return problems


def geometry_problems(cfg) -> list[str]:
    """Einstein property and energy window at the run's own sampled points."""
    problems = []
    for n in cfg.dims:
        for c in cfg.curvatures:
            params = ModelParams(
                n=n,
                c=c,
                a_metric=(1.0 + cfg.a_metric_offset) * integrable_coupling(c),
                k_a=cfg.k_a,
                k_b=cfg.k_b,
            )
            points = sample_points(cfg, n, c, params)
            where = f"n={n} c={c}"
            for index, (q, p) in enumerate(points):
                t = (1.0 + 0.25 * c * float(q @ q)) ** 2 * float(p @ p) / 2.0
                if not cfg.t_min * (1 - ENERGY_RTOL) <= t <= cfg.t_max * (1 + ENERGY_RTOL):
                    problems.append(f"{where} sample {index}: energy {t!r} outside the window")
            profile = profile_from_name(cfg.profile, params)
            lam = -cfg.k_b * (n + 1) / 2.0
            picks = np.linspace(0, len(points) - 1, min(EINSTEIN_POINTS, len(points)))
            for index in sorted({int(round(x)) for x in picks}):
                q, p = points[index]
                pt = CotangentPoint.at(q, p, params)
                jets = fiber_jets(pt, params, profile)
                ric = ricci_from_blocks(curvature_blocks(pt, params, jets))
                scale = max(np.max(np.abs(ric.hh)), np.max(np.abs(ric.vv)))
                resid = max(
                    np.max(np.abs(ric.hh - lam * jets.gh)),
                    np.max(np.abs(ric.vv - lam * jets.gv)),
                )
                if not resid <= EINSTEIN_RTOL * scale:
                    problems.append(
                        f"{where} sample {index}: |Ric - lambda G| / max|Ric| = {resid / scale:.3e}"
                    )
    return problems
