#!/usr/bin/env python3
"""Sweep the fiber energy and tabulate the radial geometry of one member.

For a fixed base point and momentum direction, rescale the momentum so the
energy density walks a log-spaced grid, and print at each energy:

* the profile value v(t) and the admissibility factor a*sqrt(t) + 2 t v(t),
* gamma(t), the scalar whose vanishing certifies the Einstein equation,
* the Einstein defect |Ric - lambda G| of the member under study,
* the holomorphic sectional curvature of a fixed section, whose drift
  along the sweep exhibits the non-constancy of the generic member.

Examples:
    python3 scripts/profile_sweep.py
    python3 scripts/profile_sweep.py --dim 2 --curvature 2.0 --ka 0 --kb 1
    python3 scripts/profile_sweep.py --detune 0.05   # leave the family
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from cotangent_kahler.base import ModelParams, integrable_coupling
from cotangent_kahler.curvature import (
    curvature_blocks,
    holomorphic_sectional_curvature,
    ricci_from_blocks,
)
from cotangent_kahler.einstein import einstein_residual, family_einstein_constant, gamma_factor
from cotangent_kahler.errors import GeometryError
from cotangent_kahler.mtensor import CotangentPoint, assemble_metric, fiber_jets
from cotangent_kahler.profiles import VProfile, einstein_profile
from cotangent_kahler.structure import assemble_complex_structure


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--dim", type=int, default=3, help="base dimension (default: 3)")
    parser.add_argument("--curvature", type=float, default=1.0, help="base curvature c > 0")
    parser.add_argument("--ka", type=float, default=1.0, help="decaying-mode weight")
    parser.add_argument("--kb", type=float, default=1.0, help="constant-mode weight")
    parser.add_argument(
        "--detune",
        type=float,
        default=0.0,
        help="admix this fraction of 1/(1+t) to the profile, leaving the family",
    )
    parser.add_argument("--t-min", type=float, default=0.1)
    parser.add_argument("--t-max", type=float, default=10.0)
    parser.add_argument("--steps", type=int, default=12, help="energies in the sweep")
    parser.add_argument("--seed", type=int, default=0, help="base point / section seed")
    return parser


def detuned_profile(member: VProfile, detune: float) -> VProfile:
    """Family member plus ``detune/(1+t)``: Einstein exactly when detune = 0."""
    return VProfile(
        kind=f"{member.kind} + {detune:g}/(1+t)",
        v=lambda t: member.v(t) + detune / (1.0 + t),
        dv=lambda t: member.dv(t) - detune / (1.0 + t) ** 2,
        d2v=lambda t: member.d2v(t) + 2.0 * detune / (1.0 + t) ** 3,
    )


def sweep(args: argparse.Namespace):
    """The member's params, its Einstein constant and one table row per
    energy of the sweep."""
    params = ModelParams(
        n=args.dim,
        c=args.curvature,
        a_metric=integrable_coupling(args.curvature),
        k_a=args.ka,
        k_b=args.kb,
    )
    profile = detuned_profile(einstein_profile(params), args.detune)

    rng = np.random.default_rng(args.seed)
    q = rng.uniform(-1.0, 1.0, size=args.dim)
    direction = rng.normal(size=args.dim)
    direction /= np.linalg.norm(direction)
    section = rng.normal(size=2 * args.dim)

    ts = np.geomspace(args.t_min, args.t_max, args.steps)
    base = CotangentPoint.at(q, direction, params)
    p = direction * np.sqrt(ts / base.t)[:, None]
    pt = CotangentPoint.at(np.tile(q, (args.steps, 1)), p, params)
    jets = fiber_jets(pt, params, profile)
    curv = curvature_blocks(pt, params, jets)
    defect = einstein_residual(params, jets, ricci_from_blocks(curv))
    hsc = holomorphic_sectional_curvature(
        curv, assemble_metric(jets), assemble_complex_structure(jets), section
    )
    v = profile.v(ts)
    admissibility = params.a_metric * np.sqrt(ts) + 2.0 * ts * v
    gamma = gamma_factor(params, profile, ts)
    return params, family_einstein_constant(params), zip(ts, v, admissibility, gamma, defect, hsc)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        params, lam, rows = sweep(args)
    except GeometryError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    print(
        f"n={args.dim}  c={args.curvature:g}  a={params.a_metric:.6g}  "
        f"k_a={args.ka:g}  k_b={args.kb:g}  detune={args.detune:g}  "
        f"family lambda={lam:g}"
    )
    header = f"{'t':>10}  {'v(t)':>12}  {'admissibility':>13}  {'gamma':>10}  {'einstein defect':>15}  {'hol. sect. curv.':>16}"
    print(header)
    print("-" * len(header))
    for row in rows:
        print("{:>10.4f}  {:>12.6g}  {:>13.6g}  {:>10.2e}  {:>15.3e}  {:>16.8f}".format(*row))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
