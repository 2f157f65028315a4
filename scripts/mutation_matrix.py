#!/usr/bin/env python3
"""Mutation kill matrix: which checks of the report catch which faults.

``CATALOG`` is a fixed list of one-token mutations ``(id, file, old, new)``
of the closed forms the report certifies, ``file`` relative to
``src/cotangent_kahler``; each ``old`` must occur exactly once in its file.
The probes that only read a closed form (pair symmetry, the G-inner product
of two curvature tensors, the residual helpers) are not mutated.

``run_matrix`` copies the tree's ``src`` to a temporary directory for the
unmutated runs and again for each mutation, applies the mutation there and
never to the tree itself, and runs the CLI on each flag set of
``FLAG_SETS`` through ``report_diff.run_report``.  A mutation is caught by
the ``suite/check`` names that fail on it and pass on the unmutated copy; a
run that crashes is recorded as ``<crash>`` and a refusal of the flags as
``<refused>``, not as a check.

``main`` runs the catalog on this repository, writes ``MUTATIONS.json`` at
its root and prints two Markdown tables: per mutation, how many checks
caught it on each flag set and the one check that alone catches it, if
any; per check, how many mutations it catches and the checks whose catch
set contains its own.  The file holds the flag sets, the catalog, every
check of the unmutated reports with the ones that fail there, what caught
each mutation per flag set, each check's catch set over all flag sets, the
mutations that only one check catches, the checks whose nonempty catch set
lies inside another's, and the survivors, which no flag set catches.

A change that adds, moves or removes a check or a route runs it again,
commits the new file, and says whether any catch set shrank:

    python3 scripts/mutation_matrix.py
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from report_diff import run_report  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
OUT = ROOT / "MUTATIONS.json"
PACKAGE = Path("src") / "cotangent_kahler"
# What a run that produced no report is recorded as.
CRASH, REFUSED = "<crash>", "<refused>"

FLAG_SETS = {
    "default": ["--samples", "5", "--seed", "0"],
    "rational": ["--samples", "5", "--profile", "rational", "--seed", "0"],
}

CATALOG = (
    # base Gamma and R
    ("base_gamma_sign", "base.py", "- eye * dphi[..., :, None, None]", "+ eye * dphi[..., :, None, None]"),
    ("base_riemann_sign", "base.py", "riemann = (c * _riemann_signs", "riemann = (-c * _riemann_signs"),
    # metric blocks and fiber jets
    ("metric_w_sign", "mtensor.py", "w = -v / _w_denominator(t, a, v)", "w = v / _w_denominator(t, a, v)"),
    ("jets_dgh_coefficient", "mtensor.py", "_scale(0.5 * a / st, 2)", "_scale(0.25 * a / st, 2)"),
    ("jets_ddgh_coefficient", "mtensor.py", "pupu / _scale(4.0 * t * st, 2)", "pupu / _scale(2.0 * t * st, 2)"),
    ("jets_w1_coefficient", "mtensor.py", "d1 = a * a + 3.0 * a * st * v", "d1 = a * a + 2.0 * a * st * v"),
    (
        "jets_ddgv_coefficient",
        "mtensor.py",
        "3.0 * pupu / _scale(4.0 * a * t * t * st, 2)",
        "1.5 * pupu / _scale(4.0 * a * t * t * st, 2)",
    ),
    # both connection routes and the fiber derivative blocks
    ("connection_hh_sign", "connection.py", "dgh, 3) + 0.5 * pr", "dgh, 3) - 0.5 * pr"),
    (
        "connection_vv_sym_sign",
        "connection.py",
        '_permute(dgv, "ijk->kij") - dgv',
        '_permute(dgv, "ijk->kij") + dgv',
    ),
    ("kahler_connection_vv", "connection.py", "(c - sq * v) / (4.0 * c * t)", "(c + sq * v) / (4.0 * c * t)"),
    ("fiber_derivative_dhh_sign", "connection.py", "+ 0.5 * riem", "- 0.5 * riem"),
    # the six stored curvature blocks and the assembly signs
    ("block_hhh", "curvature.py", "- pr_vh + skew(hh_vh)", "+ pr_vh + skew(hh_vh)"),
    ("block_hhv", "curvature.py", "- pr_vv", "+ pr_vv"),
    ("block_vvh", "curvature.py", "+ skew(vh_vh)", "- skew(vh_vh)"),
    ("block_vvv", "curvature.py", "+ skew(vv_vv)", "- skew(vv_vv)"),
    ("block_vhh", "curvature.py", '"idjk->ijkd") + _permute(hh_vv', '"idjk->ijkd") - _permute(hh_vv'),
    ("block_vhv", "curvature.py", "- _permute(vv_vh", "+ _permute(vv_vh"),
    (
        "assembly_hvhv_sign",
        "curvature.py",
        "out[..., h, v, h, v] = -np.swapaxes",
        "out[..., h, v, h, v] = np.swapaxes",
    ),
    (
        "assembly_hvvh_sign",
        "curvature.py",
        "out[..., h, v, v, h] = -np.swapaxes",
        "out[..., h, v, v, h] = np.swapaxes",
    ),
    # the constant-H tensor and the closed form of |K + k_b T|^2
    ("constant_h_skew_sign", "curvature.py", "pair - np.swapaxes(pair", "pair + np.swapaxes(pair"),
    ("constant_h_jz_factor", "curvature.py", "+ 2.0 * twice", "+ 1.0 * twice"),
    ("constant_h_a_coefficient", "curvature.py", "(n - 2) * (n * n - 1)", "(n - 2) * (n * n + 1)"),
    ("constant_h_b_coefficient", "curvature.py", "(n + 1) * (n + 2) * params.k_a", "(n + 1) * (n + 1) * params.k_a"),
    # a_tr, alpha, beta, gamma and the Euler residual
    ("ricci_a_tr", "curvature.py", "(n + 1.0) * s2c * np.sqrt(t) * v", "(n + 2.0) * s2c * np.sqrt(t) * v"),
    ("ricci_alpha_tvv", "curvature.py", "- (2.0 * n + 2.0) * t * v * v", "- (2.0 * n + 4.0) * t * v * v"),
    ("ricci_beta_t2vdv", "curvature.py", "+ 4.0 * t**2 * v * dv", "+ 2.0 * t**2 * v * dv"),
    ("gamma_t52_coefficient", "einstein.py", "- 4.0 * s2 * t**2.5 * d2v", "- 2.0 * s2 * t**2.5 * d2v"),
    ("euler_residual_n3", "einstein.py", "0.5 * (n + 3.0) * t * dv", "0.5 * (n + 2.0) * t * dv"),
    # both rank-one Einstein differences
    ("difference_hh", "einstein.py", "admis * gam / (4.0 * t)", "admis * gam / (2.0 * t)"),
    ("difference_vv", "einstein.py", "gam / (8.0 * t**2 * admis)", "gam / (4.0 * t**2 * admis)"),
    # the family constant and the profile
    (
        "family_constant",
        "einstein.py",
        "-0.5 * (params.n + 1.0) * params.k_b",
        "-0.5 * (params.n + 2.0) * params.k_b",
    ),
    ("profile_lead", "profiles.py", "lead = (n - 2.0) * math.sqrt(c)", "lead = (n - 1.0) * math.sqrt(c)"),
    ("profile_exponent", "profiles.py", "ex = -(n + 1.0) / 2.0", "ex = -(n + 2.0) / 2.0"),
    ("profile_d2v_lead", "profiles.py", "0.75 * lead * t**-2.5", "0.5 * lead * t**-2.5"),
    # J and the Nijenhuis form
    (
        "complex_structure_sign",
        "structure.py",
        "out[..., n:, :n] = blocks.gh",
        "out[..., n:, :n] = -blocks.gh",
    ),
    ("nijenhuis_core", "structure.py", "0.5 * params.a_metric**2 * (pg", "0.25 * params.a_metric**2 * (pg"),
    (
        "nijenhuis_mixed_sign",
        "structure.py",
        "out[..., n:, :n, :n] = -np.swapaxes(mixed",
        "out[..., n:, :n, :n] = np.swapaxes(mixed",
    ),
)


def apply_mutation(tree: Path, file: str, old: str, new: str) -> None:
    """Replace the one occurrence of ``old`` by ``new`` in ``file`` of the
    package of ``tree``; raise when ``old`` does not occur exactly once."""
    path = tree / PACKAGE / file
    text = path.read_text(encoding="utf-8")
    if text.count(old) != 1:
        raise ValueError(f"{file}: {old!r} occurs {text.count(old)} times, not once")
    path.write_text(text.replace(old, new), encoding="utf-8")


def _names(report: dict, failed_only: bool) -> list[str]:
    """The ``suite/check`` names of ``report``, in report order, each once;
    with ``failed_only``, those that fail in some config."""
    names = (
        f"{suite['name']}/{check['name']}"
        for suite in report["suites"]
        for config in suite["configs"]
        for check in config["checks"]
        if not (failed_only and check["passed"])
    )
    return list(dict.fromkeys(names))


def _report(copy: Path, flags: list[str]) -> dict | str:
    """The report of the CLI of ``copy`` on ``flags``, or ``CRASH`` or
    ``REFUSED`` when it gives none."""
    try:
        _, report = run_report(copy, flags)
    except SystemExit:
        return CRASH
    return REFUSED if report is None else report


def _run_copy(tree: Path, mutation, flag_sets: dict) -> dict[str, dict | str]:
    """``_report`` per flag set of ``flag_sets``, on one temporary copy of
    ``tree``'s ``src`` with ``mutation`` (or none) applied."""
    with tempfile.TemporaryDirectory(prefix="mutation_") as tmp:
        copy = Path(tmp)
        shutil.copytree(tree / "src", copy / "src", ignore=shutil.ignore_patterns("__pycache__"))
        if mutation is not None:
            apply_mutation(copy, *mutation[1:])
        return {name: _report(copy, flags) for name, flags in flag_sets.items()}


def run_matrix(tree: Path, catalog, flag_sets: dict) -> dict:
    """Run every mutation of ``catalog`` on each flag set of ``flag_sets``
    against a copy of ``tree``'s ``src``.

    Returns ``{"clean": {set: {"checks", "failed"}}, "caught_by": {id: {set:
    [names]}}}``: the unmutated run's check names and failures per flag
    set, and per mutation and flag set the checks that caught it, or
    ``[CRASH]`` or ``[REFUSED]``.
    """
    clean = {}
    for name, report in _run_copy(tree, None, flag_sets).items():
        if isinstance(report, str):
            raise SystemExit(f"the unmutated tree gave no report on {name}: {report}")
        clean[name] = {"checks": _names(report, False), "failed": _names(report, True)}
    caught_by = {}
    for mutation in catalog:
        caught_by[mutation[0]] = {}
        for name, report in _run_copy(tree, mutation, flag_sets).items():
            failed = [report] if isinstance(report, str) else _names(report, True)
            caught_by[mutation[0]][name] = [check for check in failed if check not in clean[name]["failed"]]
        print(f"{mutation[0]}: done", file=sys.stderr)
    return {"clean": clean, "caught_by": caught_by}


def summarize(checks: list[str], caught_by: dict) -> dict:
    """Catch sets, single catchers, subsumed checks and survivors of
    ``caught_by`` (see ``run_matrix``), over all its flag sets."""
    caught = {
        mid: list(dict.fromkeys(check for names in per_set.values() for check in names))
        for mid, per_set in caught_by.items()
    }
    catch_sets = {check: [mid for mid, names in caught.items() if check in names] for check in checks}
    subsumed = {}
    for check, mids in catch_sets.items():
        inside = [other for other, more in catch_sets.items() if other != check and set(mids) <= set(more)]
        if mids and inside:
            subsumed[check] = inside
    return {
        "catch_sets": catch_sets,
        "single_catcher": {
            mid: names[0]
            for mid, names in caught.items()
            if len(names) == 1 and names[0] not in (CRASH, REFUSED)
        },
        "subsumed": subsumed,
        "survivors": [mid for mid, names in caught.items() if not names],
    }


def format_tables(matrix: dict) -> str:
    """The two Markdown tables of ``main`` (see the module docstring)."""
    flag_sets = list(matrix["flag_sets"])
    lines = ["| mutation | " + " | ".join(flag_sets) + " | only caught by |"]
    lines.append("|" + " --- |" * (len(flag_sets) + 2))
    for mid, per_set in matrix["caught_by"].items():
        cells = [names[0] if names[:1] in ([CRASH], [REFUSED]) else str(len(names)) for names in per_set.values()]
        lines.append(f"| {mid} | " + " | ".join(cells) + f" | {matrix['single_catcher'].get(mid, '')} |")
    lines += ["", "| check | catches | catch set inside |", "| --- | --- | --- |"]
    for check, mids in matrix["catch_sets"].items():
        lines.append(f"| {check} | {len(mids)} | {', '.join(matrix['subsumed'].get(check, []))} |")
    lines += ["", f"survivors: {', '.join(matrix['survivors']) or 'none'}"]
    return "\n".join(lines)


def main() -> int:
    result = run_matrix(ROOT, CATALOG, FLAG_SETS)
    checks = list(dict.fromkeys(c for clean in result["clean"].values() for c in clean["checks"]))
    matrix = {
        "flag_sets": FLAG_SETS,
        "catalog": [dict(zip(("id", "file", "old", "new"), mutation)) for mutation in CATALOG],
        "checks": checks,
        "clean_failures": {name: clean["failed"] for name, clean in result["clean"].items()},
        "caught_by": result["caught_by"],
        **summarize(checks, result["caught_by"]),
    }
    OUT.write_text(json.dumps(matrix, indent=2) + "\n", encoding="utf-8")
    print(format_tables(matrix))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
