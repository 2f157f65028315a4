"""Command-line driver: configure a verification run, emit a JSON report.

Exit status is 0 when every requested suite passes, 1 when any check
fails, and 2 for unusable arguments.  Reports are deterministic for a
fixed configuration up to the ``timings`` key, and strict JSON: a
non-finite check value is written as a string (see ``suites._check``).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys

from .errors import ConfigError
from .profiles import PROFILES
from .suites import SUITE_NAMES, RunConfig, Tolerances, run_verification

__all__ = ["build_parser", "config_from_args", "main"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cotangent-kahler",
        description=(
            "Verify the Kahler-Einstein structure on the punctured cotangent "
            "bundle of a positively curved space form, suite by suite."
        ),
    )
    parser.add_argument(
        "--dims", default="2,3", help="comma-separated base dimensions (default: 2,3)"
    )
    parser.add_argument(
        "--curvatures",
        default="0.5,1.0,2.0",
        help="comma-separated base sectional curvatures, all positive (default: 0.5,1.0,2.0)",
    )
    parser.add_argument("--ka", type=float, default=1.0, help="decaying-mode weight k_a >= 0")
    parser.add_argument("--kb", type=float, default=1.0, help="constant-mode weight k_b >= 0")
    parser.add_argument(
        "--profile",
        choices=tuple(PROFILES),
        default="einstein",
        help="radial profile of the metric (default: einstein)",
    )
    parser.add_argument("--samples", type=int, default=100, help="points per configuration")
    parser.add_argument("--t-min", type=float, default=0.1, help="lower energy bound")
    parser.add_argument("--t-max", type=float, default=10.0, help="upper energy bound")
    parser.add_argument("--seed", type=int, default=0, help="sampling seed")
    parser.add_argument("--tol-closed-form", type=float, default=1e-9)
    parser.add_argument("--tol-cross-check", type=float, default=1e-5)
    parser.add_argument("--tol-fd-oracle", type=float, default=1e-4)
    parser.add_argument("--tol-witness-floor", type=float, default=1e-3)
    parser.add_argument(
        "--suites",
        default=",".join(SUITE_NAMES),
        help=f"comma-separated subset of {', '.join(SUITE_NAMES)}",
    )
    parser.add_argument(
        "--a-metric-offset",
        type=float,
        default=0.0,
        help=(
            "relative detuning of the metric coupling away from its integrable "
            "value, for falsification runs (default: 0)"
        ),
    )
    parser.add_argument(
        "--report",
        default=None,
        metavar="PATH",
        help="write the JSON report here ('-' prints it to stdout instead of the summary)",
    )
    return parser


def _parse_list(text: str, cast):
    items = [piece.strip() for piece in text.split(",") if piece.strip()]
    return tuple(cast(piece) for piece in items)


def config_from_args(args: argparse.Namespace) -> RunConfig:
    return RunConfig(
        dims=_parse_list(args.dims, int),
        curvatures=_parse_list(args.curvatures, float),
        k_a=args.ka,
        k_b=args.kb,
        profile=args.profile,
        samples=args.samples,
        t_min=args.t_min,
        t_max=args.t_max,
        seed=args.seed,
        tolerances=Tolerances(
            closed_form=args.tol_closed_form,
            cross_check=args.tol_cross_check,
            fd_oracle=args.tol_fd_oracle,
            witness_floor=args.tol_witness_floor,
        ),
        suites=_parse_list(args.suites, str),
        a_metric_offset=args.a_metric_offset,
    )


def _summarize(report: dict, stream) -> None:
    for suite in report["suites"]:
        status = "PASS" if suite["passed"] else "FAIL"
        print(f"[{status}] {suite['name']}", file=stream)
        for cfg_out in suite["configs"]:
            if cfg_out["passed"]:
                continue
            for check in cfg_out["checks"]:
                if check["passed"]:
                    continue
                op = "<=" if check["comparison"] == "le" else ">="
                value = check["value"]
                shown = value if isinstance(value, str) else f"{value:.3e}"
                print(
                    f"    n={cfg_out['dim']} c={cfg_out['curvature']:g}: "
                    f"{check['name']} value={shown} "
                    f"wanted {op} {check['tolerance']:.0e}",
                    file=stream,
                )
    for note in report["discrepancy_notes"]:
        print(f"note: {note}", file=stream)
    verdict = "PASS" if report["passed"] else "FAIL"
    print(f"overall: {verdict}", file=stream)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = config_from_args(args)
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    # The report file is opened before the run, so an unwritable path is
    # refused as an argument and not after the whole battery has run.
    try:
        handle = None if args.report in (None, "-") else open(args.report, "w", encoding="utf-8")
    except OSError as exc:
        print(f"error: cannot write the report: {exc}", file=sys.stderr)
        return 2
    with handle or contextlib.nullcontext():
        report = run_verification(cfg)
        payload = json.dumps(report, indent=2, sort_keys=True, allow_nan=False)
        if handle is not None:
            handle.write(payload + "\n")

    if args.report == "-":
        print(payload)
    else:
        _summarize(report, sys.stdout)
    return 0 if report["passed"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
