"""The benchmark workloads: fixed lists of ``algebroid`` invocations built
from a workload seed.

Every invocation is an argv list for ``algebroid.cli.main``. Paths in it are
relative to the checkout root, which is the working directory of every
benchmark process, so reports name the same spec paths wherever the checkout
lives. Why each workload exists is recorded in ``bench/NOTES.md``.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
FIXTURE_DIR = "src/algebroid/fixtures"
WORK_DIR = "bench/.work"

WORKLOADS = ("free_deep", "check_sweep")
SIZES = ("full", "tiny")
# The seed the frozen reference reports were made at. Only at this seed are
# residuals and integer fields compared; at other seeds, exit codes and
# verdicts are.
REFERENCE_SEED = 42

FIXTURES = (
    "fx_action_so2", "fx_bla", "fx_bla_const", "fx_bla_nojacobi", "fx_flat_exp",
    "fx_foliation_flat", "fx_free_abelian", "fx_free_heis",
    "fx_killing_nonabelian", "fx_nonriem_fol", "fx_omega_xdy",
    "fx_poisson_linear", "fx_rho0_n1", "fx_so2_conformal", "fx_so3_sphere",
    "fx_sympl_conf", "fx_taucurv", "fx_tm_flat",
)

# Per-size knobs. "tiny" runs the same fixtures and subcommands with fewer
# points and a lower degree, in well under a second; it is the warm-up pass of
# every run, and the smoke test's size.
_FREE = {"full": {"degree": "4", "so3_points": "5", "points": "100"},
         "tiny": {"degree": "3", "so3_points": "2", "points": "5"}}
_CHECK_POINTS = {"full": "100", "tiny": "3"}

# Each workload ends with a short tail that touches the layers its main list
# does not, so that every per-layer metric is measured on every workload. The
# tail is a few percent of a pass.
_COVER_FREE = ["free", "--spec", f"{FIXTURE_DIR}/fx_free_abelian.json",
               "--degree", "3", "--points", "3"]
_COVER_FLAT_FRAME = ["check", "--spec", f"{FIXTURE_DIR}/fx_flat_exp.json",
                     "--flat-frame", "--points", "3"]


def spec_path(name: str) -> str:
    return f"{FIXTURE_DIR}/{name}.json"


def _fixture_doc(name: str) -> dict:
    with open(ROOT / spec_path(name), encoding="utf-8") as fh:
        return json.load(fh)


def _zero_psi_file(rank: int, dim: int) -> str:
    """Write (once) a psi file of zeros with shape (rank, rank, dim)."""
    rel = f"{WORK_DIR}/psi_zero_r{rank}_n{dim}.json"
    path = ROOT / rel
    if not path.exists():
        path.parent.mkdir(parents=True, exist_ok=True)
        cube = [[["0"] * dim for _ in range(rank)] for _ in range(rank)]
        path.write_text(json.dumps({"psi": cube}), encoding="utf-8")
    return rel


def _free_deep(seed: int, size: str) -> list[list[str]]:
    knobs = _FREE[size]
    invocations = [["free", "--spec", spec_path("fx_so3_sphere"),
                    "--degree", knobs["degree"], "--points", knobs["so3_points"],
                    "--seed", str(seed)]]
    for name in ("fx_free_heis", "fx_free_abelian", "fx_killing_nonabelian"):
        invocations.append(["free", "--spec", spec_path(name),
                            "--degree", knobs["degree"], "--points", knobs["points"],
                            "--seed", str(seed)])
    return invocations + [_COVER_FLAT_FRAME + ["--seed", str(seed)],
                          _geodesic_cover(seed)]


def _check_flags(doc: dict, size: str) -> list[str]:
    flags = []
    if doc.get("mode", "lie") == "lie":
        flags += ["--axioms", "--cartan"]
        # the probe's grid does not shrink with --points, so the tiny size
        # leaves it to the tail
        if size == "full":
            flags.append("--flat-frame")
    if "metric" in doc:
        flags.append("--killing")
    if "metric" in doc and "two_form" in doc:
        flags.append("--generalized")
    if "symplectic" in doc:
        flags.append("--symplectic")
    if "poisson" in doc:
        flags.append("--poisson")
    return flags


def _check_sweep(seed: int, size: str) -> list[list[str]]:
    points = _CHECK_POINTS[size]
    invocations = []
    for name in FIXTURES:
        doc = _fixture_doc(name)
        common = ["--spec", spec_path(name), "--points", points, "--seed", str(seed)]
        invocations.append(["validate"] + common)
        flags = _check_flags(doc, size)
        if not flags:
            continue        # an anchored spec without a metric has no check
        if doc.get("mode", "lie") == "lie" and "metric" in doc:
            psi = _zero_psi_file(doc["rank"], len(doc["chart"]["coords"]))
            flags += ["--koszul", "--psi-file", psi]
        invocations.append(["check"] + common + flags)
    tail = [_COVER_FREE + ["--seed", str(seed)], _geodesic_cover(seed)]
    if size == "tiny":
        tail.append(_COVER_FLAT_FRAME + ["--seed", str(seed)])
    return invocations + tail


def _fmt(vec) -> str:
    return ",".join(repr(float(c)) for c in vec)


def geodesic_start(name: str, seed: int) -> tuple[str, str]:
    """A seeded (x0, v0) pair for one fixture, formatted for ``--x0=``/``--v0=``.

    x0 is uniform in the middle 40 % of the chart box; v0 is a seeded direction
    made g-orthogonal to the anchor span at x0, scaled to Euclidean length
    0.4. Where the anchors span the whole tangent space there is no
    orthogonal direction, and the seeded direction is used as it is.
    """
    from algebroid import foliation
    from algebroid.spec_model import load_spec_file

    spec = load_spec_file(ROOT / spec_path(name))
    # stream 1 is the one the frozen references were drawn with
    rng = np.random.default_rng([seed % 2**64, 1])
    lo = np.array([d[0] for d in spec.chart.domain])
    hi = np.array([d[1] for d in spec.chart.domain])
    x0 = lo + (0.3 + 0.4 * rng.random(lo.shape)) * (hi - lo)
    direction = rng.random(lo.shape) - 0.5
    v0 = foliation.orthogonal_velocity(spec, x0, direction)
    if np.linalg.norm(v0) < 1e-3:
        v0 = direction
    v0 = 0.4 * v0 / np.linalg.norm(v0)
    return _fmt(x0), _fmt(v0)


def _geodesic_cover(seed: int) -> list[str]:
    x0, v0 = geodesic_start("fx_foliation_flat", seed)
    # "--x0=<v>" and not "--x0 <v>": argparse reads a leading minus in a
    # separate value as an option and exits 2.
    return ["geodesic", "--spec", spec_path("fx_foliation_flat"), f"--x0={x0}",
            f"--v0={v0}", "--t-max", "0.02", "--h", "1e-3"]


_BUILDERS = {"free_deep": _free_deep, "check_sweep": _check_sweep}


def build(workload: str, seed: int, size: str = "full") -> list[list[str]]:
    """The invocation list of ``workload`` at ``seed``; writes the input files
    the invocations read under ``bench/.work``."""
    return _BUILDERS[workload](seed, size)


def option(argv: list[str], flag: str) -> str:
    """The value given to ``flag`` in an invocation built here."""
    return argv[argv.index(flag) + 1]
