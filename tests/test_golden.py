"""Golden reports: every report in a fixed fixture x subcommand matrix must
match, byte for byte, the report frozen under ``tests/golden/``.

The matrix is ``validate`` and ``check`` on all bundled fixtures at 20 points
(each check flag a fixture's blocks allow, one at a time and all together,
``--koszul`` with a zero psi file), ``free --degree 3`` on the three
generator fixtures and on ``fx_nonriem_fol`` (failing generator Killing
check), ``free --degree 4`` on ``fx_so3_sphere`` (5 points),
``fx_killing_nonabelian``, and ``fx_free_heis`` and ``fx_free_abelian`` (100
points), and one 20-step geodesic.  Only the echoed spec path is normalized.
Exit codes are frozen alongside in ``exit_codes.json``.

Block fingerprints are frozen in ``block_fingerprints.json``: the sha256 of
the value and derivative array bytes (so the sign of zero counts) of every
block of every fixture at orders 0-2 at 5 sample points, and of the extended
anchor and connection of the degree-4 quotient and almost truncations of
every fixture at order 1 at 3 points, with their constant structure array
followed by its zero first derivative at each point.
They are checked with the points read one at a time and as one batch.
The entries of every block of every fixture are frozen in
``block_entries.json``: each block's shape, label and ``(index, sign,
repr(expr))`` list, in order (``repr`` keeps the sign of a zero literal).
Frame fingerprints are frozen in ``frame_fingerprints.json``: the sha256 of
``FrameSamples.frames`` of the flat-frame probe on every lie-mode fixture, at
the default grid around the chart center, or the gate's message where the
connection is curved at a grid node.

Freeze (only when a report is meant to change, and say why in CHANGES.md)::

    PYTHONPATH=src python tests/test_golden.py --freeze
"""

import hashlib
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from algebroid import calculus, fixture_path, load_spec_file, sample_points
from algebroid.cli import main
from algebroid.exprjet import eval_block
from algebroid.freealg import free_extend

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
EXIT_CODES = GOLDEN_DIR / "exit_codes.json"
FINGERPRINTS = GOLDEN_DIR / "block_fingerprints.json"
FRAME_PRINTS = GOLDEN_DIR / "frame_fingerprints.json"
ENTRIES = GOLDEN_DIR / "block_entries.json"

FIXTURES = (
    "fx_action_so2", "fx_bla", "fx_bla_const", "fx_bla_nojacobi", "fx_flat_exp",
    "fx_foliation_flat", "fx_free_abelian", "fx_free_heis",
    "fx_killing_nonabelian", "fx_nonriem_fol", "fx_omega_xdy",
    "fx_poisson_linear", "fx_rho0_n1", "fx_so2_conformal", "fx_so3_sphere",
    "fx_sympl_conf", "fx_taucurv", "fx_tm_flat",
)
POINTS = "20"


def _check_flags(doc: dict) -> list[str]:
    lie = doc["mode"] == "lie"
    flags = ["--axioms", "--cartan", "--flat-frame"] if lie else []
    if "metric" in doc:
        flags.append("--killing")
        if "two_form" in doc:
            flags.append("--generalized")
        if lie:
            flags.append("--koszul")
    for block in ("symplectic", "poisson"):
        if block in doc:
            flags.append(f"--{block}")
    return flags


def cases() -> dict[str, list[str]]:
    """Case id -> argv, with the spec given by fixture name."""
    out = {}
    for name in FIXTURES:
        doc = json.loads(fixture_path(name).read_text())
        common = ["--spec", name, "--points", POINTS]
        out[f"validate__{name}"] = ["validate"] + common
        flags = _check_flags(doc)
        for flag in flags:
            out[f"check__{name}__{flag[2:]}"] = ["check"] + common + [flag]
        if len(flags) > 1:
            out[f"check__{name}__all"] = ["check"] + common + flags
    for name in ("fx_free_heis", "fx_free_abelian", "fx_killing_nonabelian"):
        out[f"free__{name}"] = ["free", "--spec", name, "--degree", "3",
                                "--points", POINTS]
    for case, name, degree, points in (
            ("free__fx_nonriem_fol", "fx_nonriem_fol", "3", POINTS),
            ("free__fx_so3_sphere__degree4", "fx_so3_sphere", "4", "5"),
            ("free__fx_killing_nonabelian__degree4", "fx_killing_nonabelian",
             "4", POINTS),
            ("free__fx_free_heis__degree4", "fx_free_heis", "4", "100"),
            ("free__fx_free_abelian__degree4", "fx_free_abelian", "4", "100")):
        out[case] = ["free", "--spec", name, "--degree", degree,
                     "--points", points]
    out["geodesic__fx_foliation_flat"] = [
        "geodesic", "--spec", "fx_foliation_flat", "--x0=-0.5,0.3",
        "--v0=0.4,0.0", "--t-max", "0.02", "--h", "1e-3"]
    return out


def _zero_psi(doc: dict, directory: Path) -> str:
    r, n = doc["rank"], len(doc["chart"]["coords"])
    path = directory / "psi_zero.json"
    path.write_text(json.dumps({"psi": [[["0"] * n for _ in range(r)]
                                        for _ in range(r)]}))
    return str(path)


def run_case(argv: list[str], directory: Path) -> tuple[int, str]:
    """Run one case; returns (exit code, report with the spec path normalized)."""
    argv = list(argv)
    name = argv[argv.index("--spec") + 1]
    spec = str(fixture_path(name))
    argv[argv.index("--spec") + 1] = spec
    if "--koszul" in argv:
        doc = json.loads(fixture_path(name).read_text())
        argv += ["--psi-file", _zero_psi(doc, directory)]
    out = directory / "report.json"
    code = main(argv + ["--out", str(out)])
    text = out.read_text() if out.exists() else ""
    return code, text.replace(json.dumps(spec), json.dumps(f"{name}.json"))


CASES = cases()


def _fingerprint(source, block, points, order, batched) -> str:
    """sha256 of the arrays point by point, read as one batch of all the
    points or one point at a time."""
    digest = hashlib.sha256()
    batches = [np.array(points)] if batched else [[p] for p in points]
    for batch in batches:
        arrays = eval_block(source.block_entries[block], np.array(batch), order)
        for k in range(len(batch)):
            for array in arrays:
                digest.update(np.ascontiguousarray(array[k]).tobytes())
    return digest.hexdigest()


def block_fingerprints(batched: bool = False) -> dict[str, str]:
    """Case id -> sha256 of the block arrays at the sample points."""
    out = {}
    for name in FIXTURES:
        spec = load_spec_file(fixture_path(name))
        points = sample_points(spec.chart, 5)
        for block in spec.block_entries:
            for order in range(3):
                out[f"{name}/{block}/o{order}"] = _fingerprint(
                    spec, block, points, order, batched)
    for name in FIXTURES:
        spec = load_spec_file(fixture_path(name))
        points = sample_points(spec.chart, 3)
        for mode in ("quotient", "almost"):
            free = free_extend(spec, 4, mode)
            for block in ("anchor", "connection"):
                out[f"free/{name}/{mode}/{block}"] = _fingerprint(
                    free, block, points, 1, batched)
            # the constant structure and its zero first derivative, per point
            digest = hashlib.sha256()
            for _ in points:
                digest.update(free.structure.tobytes())
                digest.update(np.zeros(free.structure.shape + points.shape[-1:]).tobytes())
            out[f"free/{name}/{mode}/structure"] = digest.hexdigest()
    return out


def block_entry_listing() -> dict[str, dict]:
    """``fixture/block`` -> shape, label and ``[index, sign, repr(expr)]``
    entries of that block, in the order the spec lists them."""
    out = {}
    for name in FIXTURES:
        spec = load_spec_file(fixture_path(name))
        for block, entries in spec.block_entries.items():
            out[f"{name}/{block}"] = {
                "shape": list(entries.shape), "label": entries.label,
                "entries": [[list(index), sign, repr(e)]
                            for index, sign, e in entries.entries]}
    return out


def frame_fingerprints() -> dict[str, str]:
    """Lie-mode fixture -> sha256 of the probe's frames at the chart center."""
    out = {}
    for name in FIXTURES:
        spec = load_spec_file(fixture_path(name))
        if spec.mode != "lie":
            continue
        samples, reports = calculus.flat_frame_probe(spec, spec.chart.center())
        if samples is None:         # the failing grid gate
            g = reports[0]
            out[name] = (f"connection curvature {g.max_residual:.3e} exceeds "
                         f"the gate at grid node {g.worst_point}")
        else:
            out[name] = hashlib.sha256(samples.frames.tobytes()).hexdigest()
    return out


@pytest.fixture(scope="module")
def exit_codes():
    return json.loads(EXIT_CODES.read_text())


@pytest.mark.parametrize("case", sorted(CASES))
def test_golden_report(case, exit_codes, tmp_path):
    code, text = run_case(CASES[case], tmp_path)
    assert code == exit_codes[case]
    assert text == (GOLDEN_DIR / f"{case}.json").read_text()


def test_block_fingerprints():
    assert block_fingerprints() == json.loads(FINGERPRINTS.read_text())


def test_block_fingerprints_batched():
    assert block_fingerprints(batched=True) == json.loads(FINGERPRINTS.read_text())


def test_block_entries():
    assert block_entry_listing() == json.loads(ENTRIES.read_text())


def test_frame_fingerprints():
    assert frame_fingerprints() == json.loads(FRAME_PRINTS.read_text())


def freeze() -> None:
    import tempfile
    GOLDEN_DIR.mkdir(exist_ok=True)
    codes = {}
    with tempfile.TemporaryDirectory() as tmp:
        for case in sorted(CASES):
            code, text = run_case(CASES[case], Path(tmp))
            codes[case] = code
            (GOLDEN_DIR / f"{case}.json").write_text(text)
    EXIT_CODES.write_text(json.dumps(codes, indent=2, sort_keys=True) + "\n")
    prints = block_fingerprints()
    FINGERPRINTS.write_text(json.dumps(prints, indent=2, sort_keys=True) + "\n")
    frames = frame_fingerprints()
    FRAME_PRINTS.write_text(json.dumps(frames, indent=2, sort_keys=True) + "\n")
    listing = block_entry_listing()
    ENTRIES.write_text(json.dumps(listing, indent=1, sort_keys=True) + "\n")
    print(f"froze {len(codes)} reports, {len(prints)} block fingerprints, "
          f"{len(frames)} frame fingerprints and {len(listing)} block entry "
          f"lists under {GOLDEN_DIR}")


if __name__ == "__main__":
    if sys.argv[1:] != ["--freeze"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_golden.py --freeze")
    freeze()
