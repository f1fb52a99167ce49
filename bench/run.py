"""Benchmark entry point.

    python3 bench/run.py --workload free_deep --seed 42 --seconds 50 --trace 0

Runs one workload of ``bench/workloads.py`` in a child process with the BLAS
and OpenMP thread counts pinned to 1, and prints one line per metric (name,
value, unit, with median, maximum and sample count for timings), the
machine record, and as its last line one JSON object:
``{"correct", "attempted", "failed", "metrics"}``. ``attempted`` and
``failed`` are the invocations run and the invocations whose output did not
match the frozen reference (the ``ops`` and ``ops_failed`` of the notes).

``--trace 0`` reports the end-to-end metrics: ``wall_s``, ``setup_s`` and
``peak_rss_mb``. ``--trace 1`` reports the per-layer metrics of
``bench/tracing.py`` from traced passes, and writes the spans of the last
one under ``bench/results``. ``--size tiny`` shrinks every workload for the
smoke test. See ``bench/NOTES.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import SIZES, WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RESULTS_DIR = BENCH / "results"
# Fresh interpreters timed for setup_s; the median is reported.
SETUP_REPEATS = 5
# Seconds a child may take beyond the measured time before it is stopped.
CHILD_GRACE_S = 90
PINNED_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                  "MKL_NUM_THREADS": "1"}


class BenchError(Exception):
    """The benchmark could not run or its child failed."""


def _child(args, *extra, timeout) -> str:
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--size", args.size, *extra]
    env = {**os.environ, **PINNED_THREADS}
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{' '.join(cmd)} took over {timeout} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    return proc.stdout


def _setup_seconds(args) -> list[float]:
    samples = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        _child(args, "--setup-only", timeout=CHILD_GRACE_S)
        samples.append(time.perf_counter() - start)
    return samples


def _summary(samples, unit="s") -> dict:
    # counts repeat exactly, so their median is one of them
    median = statistics.median_low if unit == "count" else statistics.median
    return {"median": median(samples), "max": max(samples),
            "n": len(samples), "samples": samples}


def _line(name, value, unit, summary=None) -> str:
    text = f"{name:<52} {value:>14.6g} {unit}"
    if summary is not None:
        text += f"   (median of n={summary['n']}, max {summary['max']:.6g})"
    return text


def run(args) -> tuple[dict, list[str]]:
    if not (ROOT / "src" / "algebroid" / "cli.py").is_file():
        raise BenchError(f"no algebroid sources under {ROOT / 'src'}")
    setup = None if args.trace else _setup_seconds(args)
    out = _child(args, "--seconds", str(args.seconds), "--trace", str(args.trace),
                 timeout=args.seconds + CHILD_GRACE_S)
    child = json.loads(out.strip().splitlines()[-1])

    lines = [f"workload {args.workload}  seed {args.seed}  size {args.size}  "
             f"trace {args.trace}  seconds {args.seconds}"]
    metrics, record = {}, {"environment": child["environment"]}
    wall = _summary(child["wall_s"])
    if args.trace:
        traced = _summary(child["traced_wall_s"])
        record["traced_wall_s"] = traced
        for name, entry in child["layers"].items():
            summary = _summary(entry["samples"], entry["unit"])
            metrics[name] = {"value": summary["median"], "unit": entry["unit"]}
            record[name] = summary
            lines.append(_line(name, summary["median"], entry["unit"],
                               summary if entry["unit"] == "s" else None))
        lines.append(_line("traced wall_s", traced["median"], "s", traced))
        lines.append(_line("untraced wall_s", wall["median"], "s", wall))
        lines.append(_line("tracing overhead (traced - untraced wall_s)",
                           traced["median"] - wall["median"], "s"))
    else:
        setup_summary = _summary(setup)
        metrics = {"wall_s": {"value": wall["median"], "unit": "s"},
                   "setup_s": {"value": setup_summary["median"], "unit": "s"},
                   "peak_rss_mb": {"value": child["peak_rss_mb"], "unit": "MB"}}
        record.update(wall_s=wall, setup_s=setup_summary,
                      peak_rss_mb=child["peak_rss_mb"])
        lines.append(_line("wall_s", wall["median"], "s", wall))
        lines.append(_line("setup_s", setup_summary["median"], "s", setup_summary))
        lines.append(_line("peak_rss_mb", child["peak_rss_mb"], "MB"))
    lines.append(_line("ops", child["attempted"], "count"))
    lines.append(_line("ops_failed", child["failed"], "count"))
    lines += [f"mismatch: {m}" for m in child["mismatches"]]
    lines += [f"COUNT MISMATCH: {e}" for e in child["count_errors"]]
    env = child["environment"]
    lines.append(f"machine: nproc {env['nproc']} (cpus allowed {env['cpus_allowed']}), "
                 f"python {env['python']}, numpy {env['numpy']}, blas {env['blas']}, "
                 f"threads {env['threads']}")

    result = {"correct": child["failed"] == 0 and not child["count_errors"],
              "attempted": child["attempted"], "failed": child["failed"],
              "metrics": metrics}
    record.update(args=vars(args), result=result, mismatches=child["mismatches"],
                  count_errors=child["count_errors"])
    RESULTS_DIR.mkdir(exist_ok=True)
    name = f"{args.workload}-{args.size}-seed{args.seed}-trace{args.trace}.json"
    with open(RESULTS_DIR / name, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    return result, lines


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="measured time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=SIZES, default="full")
    args = parser.parse_args()
    try:
        result, lines = run(args)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print("\n".join(lines))
    print(json.dumps(result))
    sys.stdout.flush()
    if any(line.startswith("COUNT MISMATCH") for line in lines):
        print("machine-independent counts did not repeat; see COUNT MISMATCH "
              "above", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
