"""The benchmark's child process: runs one workload in-process and prints one
JSON line of raw samples for ``bench/run.py``.

    python3 bench/worker.py --workload W --seed S --seconds T --trace 0|1
    python3 bench/worker.py --workload W --seed S --setup-only

It runs from the checkout root with ``src`` on ``sys.path``. A warm-up pass
of the workload's tiny size comes first. Then whole passes over the
invocation list run until ``--seconds`` have gone by; with ``--trace 1``
traced and untraced passes alternate, so the run measures its own tracing
overhead. Every invocation's exit code and report is compared with the
frozen reference (``bench/reference.py``).
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import reference  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

COUNTS_DIR = ROOT / "bench" / ".counts"
RESULTS_DIR = ROOT / "bench" / "results"
MAX_REPORTED_MISMATCHES = 5


def _import_program():
    import algebroid
    from algebroid import cli
    if Path(algebroid.__file__).resolve().parent != ROOT / "src" / "algebroid":
        raise ImportError(f"algebroid imported from {algebroid.__file__}, "
                          f"not from this checkout")
    return cli


def _points_of(report) -> int:
    """Sample points of one invocation: the report's point count, or for a
    geodesic the number of trajectory points it monitored."""
    if report is None:
        return 0
    if "points" in report:
        return report["points"]
    return report["checks"][0]["points"]


class Runner:
    def __init__(self, cli, workload, seed, size):
        self.cli = cli
        self.invocations = workloads.build(workload, seed, size)
        self.references = reference.load(workload, size)
        if len(self.references) != len(self.invocations):
            raise RuntimeError(f"{workload}-{size}: {len(self.invocations)} "
                               f"invocations but {len(self.references)} references")
        self.full = seed == workloads.REFERENCE_SEED
        self.attempted = 0
        self.failed = 0
        self.mismatches: list[str] = []

    def run_pass(self, tracer=None) -> tuple[float, dict[int, int]]:
        """One pass over the invocation list; returns its wall seconds and the
        sample points of each invocation. Outputs are checked after timing."""
        outcomes = []
        gc.collect()        # so no pass pays for the garbage of the one before
        start = time.perf_counter()
        for k, argv in enumerate(self.invocations):
            if tracer is not None:
                tracer.invocation = k
            outcomes.append(reference.run_invocation(self.cli.main, argv))
        elapsed = time.perf_counter() - start
        points = {}
        for k, (argv, ref, (code, stdout)) in enumerate(
                zip(self.invocations, self.references, outcomes)):
            self.attempted += 1
            diffs = reference.compare(ref, argv, code, stdout, self.full)
            if diffs:
                self.failed += 1
                if len(self.mismatches) < MAX_REPORTED_MISMATCHES:
                    self.mismatches.append(f"{' '.join(argv)}: {'; '.join(diffs)}")
            try:
                points[k] = _points_of(reference.parse_report(stdout))
            except (json.JSONDecodeError, KeyError, IndexError):
                points[k] = 0
        return elapsed, points


def _setup_only(args) -> None:
    """What setup_s times in a fresh interpreter: import the CLI, build the
    invocation list, load every spec it names and sample its points."""
    _import_program()
    from algebroid.spec_model import load_spec_file, sample_points
    for argv in workloads.build(args.workload, args.seed, args.size):
        spec = load_spec_file(workloads.option(argv, "--spec"))
        if argv[0] != "geodesic":
            sample_points(spec.chart, int(workloads.option(argv, "--points")),
                          int(workloads.option(argv, "--seed")))


def _code_digest() -> str:
    digest = hashlib.sha256()
    src = ROOT / "src"
    files = (sorted(src.rglob("*.py")) + sorted(src.rglob("*.json"))
             + sorted((ROOT / "bench").glob("*.py")))
    for path in files:
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def _check_counts(args, passes: list[dict]) -> list[str]:
    """Machine-independent counts must repeat exactly: between the traced
    passes of this run, and between runs of the same code, workload, size
    and seed (recorded under bench/.counts)."""
    counts = {name: passes[0][name][0] for name in tracing.EXACT_COUNTS}
    errors = [f"{name} differs between passes: "
              f"{[p[name][0] for p in passes]}"
              for name in tracing.EXACT_COUNTS
              if any(p[name][0] != counts[name] for p in passes)]
    record = COUNTS_DIR / (f"{args.workload}-{args.size}-seed{args.seed}-"
                           f"{_code_digest()}.json")
    if record.exists():
        before = json.loads(record.read_text(encoding="utf-8"))
        errors += [f"{name} = {counts[name]}, an earlier run counted "
                   f"{before.get(name)}" for name in tracing.EXACT_COUNTS
                   if before.get(name) != counts[name]]
    else:
        COUNTS_DIR.mkdir(parents=True, exist_ok=True)
        record.write_text(json.dumps(counts, sort_keys=True), encoding="utf-8")
    return errors


def _environment() -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {v: os.environ.get(v) for v in (
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def _measure(args) -> dict:
    cli = _import_program()
    warm_up = Runner(cli, args.workload, args.seed, "tiny")
    warm_up.run_pass()
    runner = Runner(cli, args.workload, args.seed, args.size)
    untraced, traced, layer_passes = [], [], []
    spans = None
    deadline = time.perf_counter() + args.seconds
    while True:
        if args.trace:
            tracer = tracing.Tracer()
            tracer.install()
            try:
                elapsed, points = runner.run_pass(tracer)
            finally:
                tracer.uninstall()
            traced.append(elapsed)
            layer_passes.append(tracing.layer_metrics(tracer, points))
            spans = tracer.spans
        elapsed, _ = runner.run_pass()
        untraced.append(elapsed)
        if time.perf_counter() >= deadline:
            break

    result = {"wall_s": untraced,
              "attempted": warm_up.attempted + runner.attempted,
              "failed": warm_up.failed + runner.failed,
              "mismatches": (warm_up.mismatches + runner.mismatches)[
                  :MAX_REPORTED_MISMATCHES],
              # ru_maxrss is in KiB on Linux
              "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
              "environment": _environment(), "count_errors": []}
    if args.trace:
        result["traced_wall_s"] = traced
        result["count_errors"] = _check_counts(args, layer_passes)
        result["layers"] = {
            name: {"unit": unit, "samples": [p[name][0] for p in layer_passes]}
            for name, (_, unit) in layer_passes[0].items()}
        _write_spans(args, spans)
    return result


def _write_spans(args, spans) -> None:
    """The spans of the last traced pass, as laid out in tracing.SPAN_FIELDS."""
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    path = RESULTS_DIR / f"spans-{args.workload}-{args.size}-seed{args.seed}.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"fields": tracing.SPAN_FIELDS, "spans": spans}, fh)


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", choices=workloads.SIZES, default="full")
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()
    os.chdir(ROOT)
    if args.setup_only:
        _setup_only(args)
        return
    print(json.dumps(_measure(args)))


if __name__ == "__main__":
    main()
