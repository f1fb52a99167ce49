"""Command-line orchestration: load a spec, run selected check suites, and
emit deterministic human- or machine-readable reports.

``check`` selects rows of one table keyed by flag; every spec block the
selected rows read is evaluated once per chunk of sample points, and each row
reduces its kernel's residuals to a report; ``free`` does the same over the
quotient truncation.  A non-finite residual fails its check.

Exit codes: 0 all selected checks pass, 1 at least one check fails, 2 input
or schema error (an expression deeper than ``exprjet.MAX_DEPTH`` too), an
expression that cannot be evaluated at a sample point (the message names the
entry, the subexpression and the point) or differentiated, or a metric not
positive definite there, 3 numerical indeterminacy (free-algebroid rank
ambiguity).  Reports with the same config (including seed) are byte-identical.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import sys

import numpy as np

from . import calculus as ca
from . import foliation as fo
from . import freealg as fa
from .exprjet import ExprError
from .spec_model import (
    ANCHOR_MORPHISM, JACOBI, AlgebroidSpec, CheckReport, SchemaError,
    check_values, load_cube, load_spec_file, reduce_checks, run_checks,
    sample_points, tolerance_of, validate_spec, DEFAULT_POINTS, DEFAULT_SEED,
)

__all__ = ["main", "run_check_suite", "InputError"]

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_INPUT = 2
EXIT_INDETERMINATE = 3


class InputError(Exception):
    """Bad invocation or spec content that maps to exit code 2."""


def run_check_suite(spec: AlgebroidSpec, points, flags, tol_override=None,
                    psi_candidate=None) -> list[CheckReport]:
    """Execute the selected checks; returns one CheckReport per check."""
    lie, metric = spec.mode == "lie", spec.metric is not None
    # (flag, what the input must satisfy, error otherwise, checks in report order)
    table = (
        ("axioms", lie, "--axioms needs a lie-mode spec (anchored bundles carry "
                        "no bracket; use `validate` instead)", (ANCHOR_MORPHISM, JACOBI)),
        ("cartan", lie, "--cartan needs a lie-mode spec", ca.CARTAN_CHECKS),
        ("killing", metric, "--killing needs a metric block", (ca.KILLING,)),
        ("generalized", metric and spec.two_form is not None,
         "--generalized needs both metric and two_form blocks", (ca.GENERALIZED,)),
        ("symplectic", spec.symplectic is not None,
         "--symplectic needs a symplectic block", (ca.SYMPLECTIC,)),
        ("poisson", spec.poisson is not None, "--poisson needs a poisson block",
         (ca.POISSON,)),
        ("koszul", psi_candidate is not None, "--koszul needs --psi-file", ()),
        ("koszul", metric, "--koszul needs a metric block",
         (ca.koszul_check(psi_candidate),) if psi_candidate else ()),
        ("flat_frame", lie, "--flat-frame needs a lie-mode spec",
         (ca.FLAT_FRAME_GATE,)),
    )
    checks = []
    for flag, ok, message, rows in table:
        if flags.get(flag):
            if not ok:
                raise InputError(message)
            checks += rows
    reports = run_checks(spec, points, checks, tol_override)
    if flags.get("flat_frame") and reports[-1].passed:    # the flat_frame_gate
        try:
            _, probe_reports = ca.flat_frame_probe(spec, spec.chart.center(),
                                                   tol_override=tol_override)
        except ca.FlatnessGateError as exc:     # curved at a grid node
            probe_reports = [exc.report]
        reports.extend(probe_reports)
    return reports


def _load_psi_cube(path, spec: AlgebroidSpec):
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    cube = doc.get("psi", doc) if isinstance(doc, dict) else doc
    return load_cube(cube, spec.chart.coords, spec.rank, spec.dimension, "psi")


# --------------------------------------------------------------------------
# Report emission


def _emit(payload: dict, fmt: str, out_path) -> None:
    if fmt == "json":
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    else:
        lines = []
        for key, value in payload.items():
            if key == "checks":
                continue
            if isinstance(value, dict):
                value = {k: v for k, v in value.items() if k != "per_point"}
            lines.append(f"{key}: {value}")
        for check in payload.get("checks", []):
            status = "PASS" if check["pass"] else "FAIL"
            lines.append(
                f"[{status}] {check['name']}: max={check['max_residual']:.6e} "
                f"mean={check['mean_residual']:.6e} tol={check['tolerance']:.1e} "
                f"worst_point={check['worst_point']}")
        text = "\n".join(lines) + "\n"
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _finish(payload, reports, args) -> int:
    payload["checks"] = [r.to_dict() for r in reports]
    payload["verdict"] = "pass" if all(r.passed for r in reports) else "fail"
    _emit(payload, args.format, args.out)
    return EXIT_PASS if payload["verdict"] == "pass" else EXIT_FAIL


# --------------------------------------------------------------------------
# Subcommands


def _cmd_validate(args) -> int:
    spec = load_spec_file(args.spec)
    points = sample_points(spec.chart, args.points, args.seed)
    reports = validate_spec(spec, points, tolerance=args.tol)
    payload = {"spec": args.spec, "seed": args.seed, "points": args.points}
    return _finish(payload, reports, args)


def _cmd_check(args) -> int:
    spec = load_spec_file(args.spec)
    points = sample_points(spec.chart, args.points, args.seed)
    flags = {
        "axioms": args.axioms, "cartan": args.cartan, "killing": args.killing,
        "generalized": args.generalized, "symplectic": args.symplectic,
        "poisson": args.poisson, "koszul": args.koszul,
        "flat_frame": args.flat_frame,
    }
    if not any(flags.values()):
        flags["axioms"] = True
    psi = _load_psi_cube(args.psi_file, spec) if args.psi_file else None
    reports = run_check_suite(spec, points, flags, tol_override=args.tol,
                              psi_candidate=psi)
    payload = {"spec": args.spec, "seed": args.seed, "points": args.points}
    return _finish(payload, reports, args)


def _cmd_free(args) -> int:
    spec = load_spec_file(args.spec)
    points = sample_points(spec.chart, args.points, args.seed)
    quotient = fa.free_extend(spec, args.degree, "quotient", seed=args.seed)
    almost = fa.free_extend(spec, args.degree, "almost", seed=args.seed)

    # one pass over the quotient truncation for its checks and rank profile
    checks = [fa.cartan_extended_check(quotient)]
    if spec.metric is not None:
        checks += fa.killing_checks(quotient)
    *values, profile = check_values(
        quotient, points, checks + [fa.rank_profile_check(quotient)])
    reports = reduce_checks(checks, values, points, args.tol)
    if args.degree >= 3:
        reports.insert(1, fa.jacobiator_check(almost, points, args.tol))

    profile = fa.profile_of(profile)
    per_point = [{"point": [float(c) for c in p], **entry}
                 for p, entry in zip(points, profile)]
    payload = {
        "spec": args.spec, "seed": args.seed, "points": args.points,
        "degree": args.degree,
        "basis_counts": quotient.counts(),
        "almost_basis_counts": almost.counts(),
        "hall_order": quotient.hall_order,
        "propagation_checked": reports[-1].name == "killing_extended",
        "anchor_rank_profile": {
            "rank_generators_min": min(e["rank_generators"] for e in profile),
            "rank_generators_max": max(e["rank_generators"] for e in profile),
            "rank_extended_min": min(e["rank_extended"] for e in profile),
            "rank_extended_max": max(e["rank_extended"] for e in profile),
            "max_closure_defect": float(np.max([e["closure_defect"] for e in profile])),
            "per_point": per_point,
        },
    }
    return _finish(payload, reports, args)


def _cmd_geodesic(args) -> int:
    spec = load_spec_file(args.spec)
    try:
        x0 = [float(v) for v in args.x0.split(",")]
        v0 = [float(v) for v in args.v0.split(",")]
    except ValueError as exc:
        raise InputError(f"bad --x0/--v0: {exc}") from exc
    if len(x0) != spec.dimension or len(v0) != spec.dimension:
        raise InputError(f"--x0/--v0 must have {spec.dimension} components")
    trace = fo.geodesic_integrate(spec, x0, v0, args.t_max, args.h)
    reports = [fo.orthogonality_monitor(spec, trace, tol_override=args.tol)]
    energy = CheckReport(
        name="geodesic_energy_drift", points=len(trace.times),
        max_residual=trace.energy_drift,
        mean_residual=float(np.mean(np.abs(trace.energies - trace.energies[0]))),
        tolerance=tolerance_of("geodesic_energy_drift", args.tol),
        worst_point=tuple(float(c) for c in trace.positions[-1]))
    reports.append(energy)

    if args.trace_csv:
        n, r = spec.dimension, spec.rank
        with open(args.trace_csv, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["t"] + [f"x_{c}" for c in spec.chart.coords]
                            + [f"v_{c}" for c in spec.chart.coords]
                            + ["energy"] + [f"orth_{a + 1}" for a in range(r)])
            for k in range(len(trace.times)):
                writer.writerow([repr(float(trace.times[k]))]
                                + [repr(float(x)) for x in trace.positions[k]]
                                + [repr(float(v)) for v in trace.velocities[k]]
                                + [repr(float(trace.energies[k]))]
                                + [repr(float(o)) for o in trace.orth_raw[k]])

    payload = {"spec": args.spec, "x0": x0, "v0": v0, "t_max": args.t_max,
               "h": args.h, "exited_domain": trace.exited,
               "exit_time": trace.exit_time}
    return _finish(payload, reports, args)


# --------------------------------------------------------------------------


def _join_vector_values(argv) -> list[str]:
    """Rewrite ``--x0 V`` as ``--x0=V`` (likewise ``--v0``): argparse would
    take a value such as ``-0.5,0.3`` for an option."""
    out = list(argv)
    for k in range(len(out) - 2, -1, -1):
        if out[k] in ("--x0", "--v0"):
            out[k:k + 2] = [f"{out[k]}={out[k + 1]}"]
    return out


@functools.cache
def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="algebroid",
        description="Check compatibility structures on anchored bundles and "
                    "Lie algebroids with connections, at sampled chart points.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--spec", required=True, help="spec JSON file")
        p.add_argument("--points", type=int, default=DEFAULT_POINTS)
        p.add_argument("--seed", type=int, default=DEFAULT_SEED)
        p.add_argument("--tol", type=float, default=None,
                       help="override the per-check default tolerances")
        p.add_argument("--format", choices=("text", "json"), default="json")
        p.add_argument("--out", default=None,
                       help="write the report here (default: stdout)")

    p_validate = sub.add_parser("validate", help="structural axioms and "
                                                 "definiteness/nondegeneracy")
    common(p_validate)

    p_check = sub.add_parser("check", help="compatibility residual checks")
    common(p_check)
    p_check.add_argument("--axioms", action="store_true",
                         help="anchor-morphism and Jacobi checks (default)")
    p_check.add_argument("--cartan", action="store_true",
                         help="compatibility tensor S, formula agreement, "
                              "intertwining, induced flatness")
    p_check.add_argument("--killing", action="store_true")
    p_check.add_argument("--generalized", action="store_true")
    p_check.add_argument("--symplectic", action="store_true")
    p_check.add_argument("--poisson", action="store_true")
    p_check.add_argument("--koszul", action="store_true",
                         help="connection-perturbation test; needs --psi-file")
    p_check.add_argument("--flat-frame", action="store_true", dest="flat_frame")
    p_check.add_argument("--psi-file", dest="psi_file", default=None)

    p_free = sub.add_parser("free", help="free Cartan-Lie algebroid truncation")
    common(p_free)
    p_free.add_argument("--degree", type=int, default=3)

    p_geo = sub.add_parser("geodesic", help="geodesic orthogonality monitor")
    common(p_geo)
    p_geo.add_argument("--x0", required=True, help="comma-separated start point")
    p_geo.add_argument("--v0", required=True, help="comma-separated start velocity")
    p_geo.add_argument("--t-max", dest="t_max", type=float, default=1.0)
    p_geo.add_argument("--h", type=float, default=1e-3)
    p_geo.add_argument("--trace-csv", dest="trace_csv", default=None,
                       help="dump the trace as CSV")
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(_join_vector_values(
        sys.argv[1:] if argv is None else argv))
    handlers = {"validate": _cmd_validate, "check": _cmd_check,
                "free": _cmd_free, "geodesic": _cmd_geodesic}
    try:
        if args.points < 1:
            raise InputError("--points must be >= 1")
        if args.tol is not None and not 0.0 < args.tol < np.inf:
            raise InputError("--tol must be finite and positive")
        return handlers[args.command](args)
    except (SchemaError, ExprError, ca.SingularMetricError,
            InputError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (fa.IndeterminateRankError, fa.NonLocallyFreeError) as exc:
        print(f"indeterminate: {exc}", file=sys.stderr)
        return EXIT_INDETERMINATE


if __name__ == "__main__":
    sys.exit(main())
