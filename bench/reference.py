"""Frozen reference reports and the comparison that decides whether an
invocation failed.

``python3 bench/reference.py`` rewrites ``bench/reference/*.json`` from the
code in the checkout, at the reference seed, for every workload and size. Do
that only when a report is meant to change, and say why in CHANGES.md.

At the reference seed an invocation fails when any of these differ from the
reference: the exit code; the number of checks, or any check's name or
verdict; the report's overall verdict; any integer field anywhere in the
report (basis counts, ranks, point counts); or any residual by more than
``REL_BOUND`` of its size plus ``FLOOR`` times the check's tolerance (the
floor lets residuals at rounding level, far below their tolerance, move with
the order of floating-point operations). At any other seed only exit codes
and verdicts are compared.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
from pathlib import Path

REL_BOUND = 1e-6
FLOOR = 1e-3
# closure defects carry no tolerance; 1e-10 is the rank cut they are read against
DEFECT_SCALE = 1e-10
RESIDUALS = ("max_residual", "mean_residual")
DEFECTS = ("max_closure_defect", "closure_defect")

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"


def reference_path(workload: str, size: str) -> Path:
    return REFERENCE_DIR / f"{workload}-{size}.json"


def load(workload: str, size: str) -> list[dict]:
    with open(reference_path(workload, size), encoding="utf-8") as fh:
        return json.load(fh)["invocations"]


def run_invocation(main, argv) -> tuple[int, str]:
    """Run one ``algebroid`` invocation in-process; returns (exit code, stdout)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:          # argparse rejects the argv
            code = exc.code if isinstance(exc.code, int) else 2
    return code, out.getvalue()


def parse_report(stdout: str):
    return json.loads(stdout) if stdout.strip() else None


def _close(a: float, b: float, scale: float) -> bool:
    return abs(a - b) <= REL_BOUND * max(abs(a), abs(b)) + FLOOR * scale


def _verdicts(report) -> tuple:
    if report is None:
        return (None, ())
    return (report.get("verdict"),
            tuple((c["name"], c["pass"]) for c in report.get("checks", ())))


def _full_diff(ref, got, path: str, scale: float, out: list[str]) -> None:
    """Integer fields exactly, residuals within the bound; other floats
    (sample coordinates, tolerances, worst points) are not compared."""
    if isinstance(ref, dict) and isinstance(got, dict):
        if ref.keys() != got.keys():
            out.append(f"{path}: keys {sorted(ref)} != {sorted(got)}")
            return
        if "tolerance" in ref:
            scale = ref["tolerance"]
        for key in ref:
            _full_diff(ref[key], got[key], f"{path}.{key}", scale, out)
            if key in DEFECTS and not _close(ref[key], got[key], DEFECT_SCALE):
                out.append(f"{path}.{key}: {got[key]!r} != {ref[key]!r}")
            if key in RESIDUALS and not _close(ref[key], got[key], scale):
                out.append(f"{path}.{key}: {got[key]!r} != {ref[key]!r}")
    elif isinstance(ref, list) and isinstance(got, list):
        if len(ref) != len(got):
            out.append(f"{path}: length {len(got)} != {len(ref)}")
            return
        for k, (r, g) in enumerate(zip(ref, got)):
            _full_diff(r, g, f"{path}[{k}]", scale, out)
    elif isinstance(ref, int) and not isinstance(ref, bool):
        if not (isinstance(got, int) and not isinstance(got, bool) and got == ref):
            out.append(f"{path}: {got!r} != {ref!r}")
    elif isinstance(ref, float) != isinstance(got, float):
        out.append(f"{path}: {got!r} != {ref!r}")


def compare(ref: dict, argv: list[str], code: int, stdout: str,
            full: bool) -> list[str]:
    """Differences of one invocation's outcome from its reference entry."""
    diffs = []
    if full and argv != ref["argv"]:
        diffs.append(f"argv {argv} != reference {ref['argv']}")
    if code != ref["exit"]:
        diffs.append(f"exit code {code} != {ref['exit']}")
    try:
        report = parse_report(stdout)
    except json.JSONDecodeError as exc:
        return diffs + [f"unreadable report: {exc}"]
    if _verdicts(report) != _verdicts(ref["report"]):
        diffs.append(f"verdicts {_verdicts(report)} != {_verdicts(ref['report'])}")
    elif full and report is not None:
        _full_diff(ref["report"], report, "report", 0.0, diffs)
    return diffs


def freeze() -> None:
    """Rewrite every reference file from the code in this checkout."""
    import workloads
    from algebroid import cli

    REFERENCE_DIR.mkdir(exist_ok=True)
    for workload in workloads.WORKLOADS:
        for size in workloads.SIZES:
            entries = []
            for argv in workloads.build(workload, workloads.REFERENCE_SEED, size):
                code, stdout = run_invocation(cli.main, argv)
                entries.append({"argv": argv, "exit": code,
                                "report": parse_report(stdout)})
            doc = {"workload": workload, "size": size,
                   "seed": workloads.REFERENCE_SEED, "invocations": entries}
            with open(reference_path(workload, size), "w", encoding="utf-8") as fh:
                json.dump(doc, fh, indent=1, sort_keys=True)
                fh.write("\n")
            print(f"{workload}-{size}: {len(entries)} invocations, exit codes "
                  f"{[e['exit'] for e in entries]}")


if __name__ == "__main__":
    os.chdir(Path(__file__).resolve().parent.parent)
    sys.path.insert(0, "src")
    freeze()
