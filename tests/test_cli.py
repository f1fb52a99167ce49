import contextlib
import csv
import io
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import algebroid
from algebroid import fixture_path
from algebroid import foliation as fo
from algebroid import freealg as fa
from algebroid import spec_model
from algebroid.exprjet import MAX_DEPTH, parse_expr, render, tree_depth
from algebroid.cli import main

from conftest import block_exprs


def fx(name):
    return str(fixture_path(name))


def run(tmp_path, *argv):
    out = tmp_path / "report.out"
    code = main(list(argv) + ["--out", str(out)])
    return code, out.read_text() if out.exists() else None


def test_check_passes_on_compatible_fixture(tmp_path):
    code, text = run(tmp_path, "check", "--spec", fx("fx_action_so2"),
                     "--killing", "--cartan", "--points", "25")
    assert code == 0
    report = json.loads(text)
    assert report["verdict"] == "pass"
    names = [c["name"] for c in report["checks"]]
    assert "cartan_s_frame" in names and "killing_frame" in names


def test_check_fails_on_obstructed_fixture(tmp_path):
    code, text = run(tmp_path, "check", "--spec", fx("fx_rho0_n1"),
                     "--killing", "--points", "25")
    assert code == 1
    report = json.loads(text)
    killing = next(c for c in report["checks"] if c["name"] == "killing_frame")
    assert killing["max_residual"] == 2.0
    assert not killing["pass"]
    assert report["verdict"] == "fail"


def test_schema_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "malformed.json"
    bad.write_text('{"chart": ')
    assert main(["check", "--spec", str(bad)]) == 2
    bad.write_text('{"chart": {"coords": ["x"], "domain": [[0, 1]]}}')
    assert main(["check", "--spec", str(bad)]) == 2
    assert main(["check", "--spec", str(tmp_path / "missing.json")]) == 2


def test_a_number_literal_that_overflows_is_rejected_at_load(tmp_path, capsys):
    doc = json.loads(Path(fx("fx_action_so2")).read_text())
    doc["anchor"][0][0] = "1e400*x"
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(doc))
    code, text = run(tmp_path, "validate", "--spec", str(spec))
    assert code == 2 and text is None
    assert capsys.readouterr().err == (
        "error: anchor[0][0]: expression error: number '1e400' overflows to inf "
        "(at byte offset 0)\n")


def test_axioms_require_lie_mode(tmp_path):
    code, _ = run(tmp_path, "check", "--spec", fx("fx_free_heis"))
    assert code == 2


def test_koszul_requires_psi_file(tmp_path):
    code, _ = run(tmp_path, "check", "--spec", fx("fx_action_so2"), "--koszul")
    assert code == 2
    psi = tmp_path / "psi.json"
    psi.write_text(json.dumps({"psi": [[["0", "0"]]]}))
    code, text = run(tmp_path, "check", "--spec", fx("fx_action_so2"),
                     "--koszul", "--psi-file", str(psi), "--points", "10")
    assert code == 0
    report = json.loads(text)
    assert report["checks"][0]["name"] == "koszul_delta"


def test_psi_file_with_the_wrong_block_count_exits_2(tmp_path, capsys):
    psi = tmp_path / "psi.json"
    psi.write_text(json.dumps({"psi": [[["0", "0"]], [["0", "0"]]]}))
    code, text = run(tmp_path, "check", "--spec", fx("fx_action_so2"),
                     "--koszul", "--psi-file", str(psi), "--points", "5")
    assert code == 2 and text is None
    assert capsys.readouterr().err == "error: psi: expected 1 blocks\n"


def test_psi_file_with_invalid_json_exits_2_naming_psi(tmp_path, capsys):
    psi = tmp_path / "psi.json"
    psi.write_text('{"psi"\n')
    code, text = run(tmp_path, "check", "--spec", fx("fx_action_so2"),
                     "--koszul", "--psi-file", str(psi), "--points", "5")
    assert code == 2 and text is None
    assert capsys.readouterr().err == (
        "error: psi: invalid JSON: Expecting ':' delimiter: line 2 column 1 (char 7)\n")


def test_default_selection_is_axioms(tmp_path):
    code, text = run(tmp_path, "check", "--spec", fx("fx_so3_sphere"),
                     "--points", "10")
    assert code == 0
    names = [c["name"] for c in json.loads(text)["checks"]]
    assert names == ["anchor_morphism", "jacobi"]


def test_reports_are_byte_identical(tmp_path):
    args = ["check", "--spec", fx("fx_so3_sphere"), "--cartan", "--killing",
            "--points", "40", "--seed", "7"]
    _, first = run(tmp_path, *args)
    _, second = run(tmp_path, *args)
    assert first == second
    _, shifted = run(tmp_path, *(args[:-1] + ["8"]))
    assert first != shifted


def test_report_schema(tmp_path):
    _, text = run(tmp_path, "check", "--spec", fx("fx_action_so2"),
                  "--points", "10")
    report = json.loads(text)
    assert set(report) == {"spec", "seed", "points", "checks", "verdict"}
    for check in report["checks"]:
        assert set(check) == {"name", "points", "max_residual", "mean_residual",
                              "tolerance", "pass", "worst_point"}


def test_validate_subcommand(tmp_path):
    code, text = run(tmp_path, "validate", "--spec", fx("fx_sympl_conf"),
                     "--points", "20")
    assert code == 0
    doc = json.loads(fixture_path("fx_action_so2").read_text())
    doc["metric"] = [["1", "0"], ["0", "-1"]]
    bad = tmp_path / "indefinite.json"
    bad.write_text(json.dumps(doc))
    code, text = run(tmp_path, "validate", "--spec", str(bad), "--points", "20")
    assert code == 1
    failing = [c["name"] for c in json.loads(text)["checks"] if not c["pass"]]
    assert "metric_positive_definite" in failing


def test_free_subcommand_summary(tmp_path):
    code, text = run(tmp_path, "free", "--spec", fx("fx_free_heis"),
                     "--points", "20", "--degree", "3")
    assert code == 0
    report = json.loads(text)
    assert report["basis_counts"] == [2, 1, 2]
    assert report["almost_basis_counts"] == [2, 1, 2]
    names = {c["name"] for c in report["checks"]}
    assert {"cartan_extended", "jacobiator_covariant_constancy"} <= names
    assert report["anchor_rank_profile"]["rank_extended_max"] == 2
    assert not report["propagation_checked"]


def test_free_subcommand_with_propagation(tmp_path):
    code, text = run(tmp_path, "free", "--spec", fx("fx_killing_nonabelian"),
                     "--points", "15")
    assert code == 0
    report = json.loads(text)
    assert report["propagation_checked"]
    names = {c["name"] for c in report["checks"]}
    assert {"killing_generators", "killing_extended"} <= names


def test_free_generator_failure_is_reported(tmp_path):
    doc = json.loads(fixture_path("fx_rho0_n1").read_text())
    doc["mode"] = "anchored"
    doc.pop("structure")
    spec_file = tmp_path / "rho0_anchored.json"
    spec_file.write_text(json.dumps(doc))
    code, text = run(tmp_path, "free", "--spec", str(spec_file), "--points", "10")
    assert code == 1
    report = json.loads(text)
    gen = next(c for c in report["checks"] if c["name"] == "killing_generators")
    assert not gen["pass"]
    assert all(c["name"] != "killing_extended" for c in report["checks"])


def test_free_tolerance_override_reaches_the_propagation_gate(tmp_path):
    doc = json.loads(fixture_path("fx_killing_nonabelian").read_text())
    doc["metric"][0][0] = "exp(2*y) + 1e-5*x"      # generator residual ~2e-5
    spec_file = tmp_path / "near_killing.json"
    spec_file.write_text(json.dumps(doc))
    code, text = run(tmp_path, "free", "--spec", str(spec_file), "--degree", "2",
                     "--points", "5", "--tol", "1e-3")
    assert code == 0
    report = json.loads(text)
    assert report["propagation_checked"]
    assert [c["name"] for c in report["checks"]][-1] == "killing_extended"


def test_geodesic_subcommand_with_trace(tmp_path):
    trace_file = tmp_path / "trace.csv"
    out = tmp_path / "report.json"
    code = main(["geodesic", "--spec", fx("fx_foliation_flat"),
                 "--x0", "0,0", "--v0", "1,0", "--t-max", "0.5", "--h", "0.001",
                 "--trace-csv", str(trace_file), "--out", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["exited_domain"] is False
    with open(trace_file) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["t", "x_x", "x_y", "v_x", "v_y", "energy", "orth_1"]
    assert len(rows) == 502
    assert float(rows[-1][1]) == pytest.approx(0.5, abs=1e-12)


def test_geodesic_argument_validation(tmp_path):
    code, _ = run(tmp_path, "geodesic", "--spec", fx("fx_foliation_flat"),
                  "--x0", "0,0,0", "--v0", "1,0")
    assert code == 2
    code, _ = run(tmp_path, "geodesic", "--spec", fx("fx_foliation_flat"),
                  "--x0", "0,zero", "--v0", "1,0")
    assert code == 2
    # no step to take, or no finite number of them
    for steps in (["--t-max", "-1"], ["--t-max", "0.04", "--h", "0.1"],
                  ["--t-max", "inf"], ["--h", "nan"]):
        code, text = run(tmp_path, "geodesic", "--spec", fx("fx_foliation_flat"),
                         "--x0", "0,0", "--v0", "1,0", *steps)
        assert code == 2 and text is None, steps


def test_geodesic_outside_the_chart_names_the_point_as_floats(tmp_path, capsys):
    code, text = run(tmp_path, "geodesic", "--spec", fx("fx_foliation_flat"),
                     "--x0=9,0", "--v0=1,0")
    assert code == 2 and text is None
    assert capsys.readouterr().err == (
        "error: initial point (9.0, 0.0) outside chart domain\n")


@pytest.mark.parametrize("v0", ["nan,0", "inf,0"])
def test_geodesic_rejects_a_non_finite_initial_velocity(tmp_path, capsys, v0):
    code, text = run(tmp_path, "geodesic", "--spec", fx("fx_foliation_flat"),
                     "--x0=0,0", f"--v0={v0}")
    assert code == 2 and text is None
    assert capsys.readouterr().err == (
        f"error: initial velocity ({float(v0.split(',')[0])}, 0.0) not finite\n")


def test_the_energy_row_names_the_point_of_largest_drift(tmp_path):
    # as every other row does, and not the last point of the trace
    code, text = run(tmp_path, "geodesic", "--spec", fx("fx_nonriem_fol"),
                     "--x0=0,1", "--v0=1.2,0.4", "--t-max", "0.5", "--h", "0.01")
    energy = next(c for c in json.loads(text)["checks"]
                  if c["name"] == "geodesic_energy_drift")
    assert energy["worst_point"] == [0.4559977576479542, 1.2948485896570043]
    trace = fo.geodesic_integrate(spec_model.load_spec_file(fx("fx_nonriem_fol")),
                                  [0.0, 1.0], [1.2, 0.4], 0.5, 0.01)
    drift = np.abs(trace.energies - trace.energies[0])
    assert energy["worst_point"] == list(trace.positions[np.argmax(drift)])
    assert energy["worst_point"] != list(trace.positions[-1])
    assert (energy["points"], energy["max_residual"], energy["mean_residual"]) == (
        len(trace.times), trace.energy_drift, float(np.mean(drift)))


def test_geodesic_failure_exit_code(tmp_path):
    code, text = run(tmp_path, "geodesic", "--spec", fx("fx_nonriem_fol"),
                     "--x0", "0,1", "--v0", "0.7,0")
    assert code == 1
    report = json.loads(text)
    drift = next(c for c in report["checks"]
                 if c["name"] == "orthogonality_raw_span")
    assert drift["max_residual"] >= 1e-2


def test_text_format(tmp_path, capsys):
    code = main(["check", "--spec", fx("fx_action_so2"), "--points", "5",
                 "--format", "text"])
    assert code == 0
    captured = capsys.readouterr().out
    assert "[PASS] anchor_morphism" in captured
    assert "verdict: pass" in captured
    code = main(["free", "--spec", fx("fx_free_heis"), "--degree", "3",
                 "--points", "5", "--format", "text"])
    assert code == 0
    captured = capsys.readouterr().out
    assert "basis_counts: [2, 1, 2]" in captured
    assert "[PASS] cartan_extended" in captured
    assert "[PASS] jacobiator_covariant_constancy" in captured
    assert "per_point" not in captured and "verdict: pass" in captured


def test_flat_frame_flag(tmp_path):
    code, text = run(tmp_path, "check", "--spec", fx("fx_so3_sphere"),
                     "--flat-frame", "--points", "20")
    assert code == 0
    names = [c["name"] for c in json.loads(text)["checks"]]
    assert "flat_frame_gate" in names
    assert "flat_frame_structure_constancy" in names
    # gate fails on a curved connection and the probe is skipped
    code, text = run(tmp_path, "check", "--spec", fx("fx_taucurv"),
                     "--flat-frame", "--points", "20")
    assert code == 1
    names = [c["name"] for c in json.loads(text)["checks"]]
    assert names == ["flat_frame_gate"]


def test_tolerance_override(tmp_path):
    code, text = run(tmp_path, "check", "--spec", fx("fx_so3_sphere"),
                     "--points", "10", "--tol", "1e-20")
    assert code == 1  # anchor morphism round-off exceeds an absurd tolerance


def test_config_invariants_rejected(tmp_path):
    code, _ = run(tmp_path, "check", "--spec", fx("fx_action_so2"),
                  "--points", "0")
    assert code == 2
    code, _ = run(tmp_path, "check", "--spec", fx("fx_action_so2"),
                  "--tol=-1e-9")
    assert code == 2
    for tol in ("inf", "nan"):
        code, text = run(tmp_path, "check", "--spec", fx("fx_bla_nojacobi"),
                         "--tol", tol)
        assert code == 2 and text is None, tol
    code, _ = run(tmp_path, "free", "--spec", fx("fx_free_heis"),
                  "--degree", "5", "--points", "5")
    assert code == 2


def _anchor_spec(tmp_path, anchor_x):
    """Rank-1 lie spec over [-2, 2]^2 with anchor (anchor_x, 0)."""
    doc = {"chart": {"coords": ["x", "y"], "domain": [[-2.0, 2.0], [-2.0, 2.0]]},
           "rank": 1, "mode": "lie", "anchor": [[anchor_x, "0"]],
           "connection": [[["0", "0"]]]}
    path = tmp_path / "anchor_spec.json"
    path.write_text(json.dumps(doc))
    return str(path)


def test_non_finite_residual_fails(tmp_path, capsys, recwarn):
    # x^1000 overflows the bracket to inf - inf = nan at some sample points
    code, text = run(tmp_path, "validate", "--spec",
                     _anchor_spec(tmp_path, "x^1000"), "--points", "20")
    assert code == 1
    check = next(c for c in json.loads(text)["checks"]
                 if c["name"] == "anchor_morphism")
    assert not check["pass"]
    assert check["max_residual"] != check["max_residual"]      # NaN
    assert abs(check["worst_point"][0]) > 1.0
    # a velocity of 1e200 overflows the energy g(v, v) to inf, and its drift to NaN
    code, text = run(tmp_path, "geodesic", "--spec", fx("fx_foliation_flat"),
                     "--x0=0,0", "--v0=1e200,0")
    assert code == 1
    energy = next(c for c in json.loads(text)["checks"]
                  if c["name"] == "geodesic_energy_drift")
    assert not energy["pass"]
    assert energy["max_residual"] != energy["max_residual"]    # NaN
    # the report names the NaN; numpy must not warn about it as well
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]
    assert "RuntimeWarning" not in capsys.readouterr().err


def test_reciprocal_derivative_overflow_fails_the_check(tmp_path, capsys):
    # d(1/x)/dx = -1/x^2 at x near 1e-170 overflows to -inf, and the anchor
    # morphism reads it: a NaN residual (exit 1), not a division by zero (exit 2)
    doc = {"chart": {"coords": ["x", "y"], "domain": [[1e-170, 2e-170], [-1.0, 1.0]]},
           "rank": 1, "mode": "lie", "anchor": [["1/x", "0"]],
           "connection": [[["0", "0"]]]}
    path = tmp_path / "reciprocal.json"
    path.write_text(json.dumps(doc))
    code, text = run(tmp_path, "check", "--spec", str(path), "--axioms",
                     "--points", "5")
    assert code == 1 and capsys.readouterr().err == ""
    check = next(c for c in json.loads(text)["checks"]
                 if c["name"] == "anchor_morphism")
    assert not check["pass"] and check["max_residual"] != check["max_residual"]


def test_reciprocal_of_a_huge_coordinate_passes_the_axioms(tmp_path, capsys):
    # d(1/x)/dx = -1/x^2 at x near 1e200 underflows to -0.0 where x^2
    # overflows: the anchor morphism reads finite values and passes
    doc = {"chart": {"coords": ["x", "y"], "domain": [[1e200, 2e200], [-1.0, 1.0]]},
           "rank": 1, "mode": "lie", "anchor": [["1/x", "0"]],
           "connection": [[["0", "0"]]]}
    path = tmp_path / "reciprocal.json"
    path.write_text(json.dumps(doc))
    code, text = run(tmp_path, "check", "--spec", str(path), "--axioms",
                     "--points", "3")
    assert code == 0 and capsys.readouterr().err == ""
    assert all(c["pass"] for c in json.loads(text)["checks"])


@pytest.mark.parametrize("expr, reason", [
    ("ln(x)", "ln of nonpositive value in 'ln(x)'"),
    ("exp(exp(exp(10*x)))", "overflow in 'exp(exp(10.0*x))'"),
])
def test_evaluation_failure_exits_2_with_entry_and_point(tmp_path, capsys,
                                                         expr, reason):
    code, text = run(tmp_path, "validate", "--spec",
                     _anchor_spec(tmp_path, expr), "--points", "20")
    assert code == 2 and text is None
    err = capsys.readouterr().err
    assert f"error: anchor[0][0]: {reason} at point (" in err


def test_geodesic_accepts_negative_separate_values(tmp_path):
    common = ["geodesic", "--spec", fx("fx_foliation_flat"), "--t-max", "0.01"]
    code, separate = run(tmp_path, *common, "--x0", "-0.5,0.3", "--v0", "-0.4,0")
    assert code == 0
    code, joined = run(tmp_path, *common, "--x0=-0.5,0.3", "--v0=-0.4,0")
    assert code == 0
    assert separate == joined
    assert json.loads(separate)["x0"] == [-0.5, 0.3]


def _variant(tmp_path, fixture, **fields):
    doc = json.loads(fixture_path(fixture).read_text())
    doc.update(fields)
    path = tmp_path / f"{fixture}_variant.json"
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.mark.parametrize("argv", [
    ["check", "--killing", "--points", "5"],
    ["geodesic", "--x0=0.1,0.2", "--v0=1,0"],
])
def test_indefinite_metric_exits_2_naming_block_and_point(tmp_path, capsys, argv):
    spec = _variant(tmp_path, "fx_action_so2", metric=[["1", "0"], ["0", "-1"]])
    code, text = run(tmp_path, *argv[:1], "--spec", spec, *argv[1:])
    assert code == 2 and text is None
    err = capsys.readouterr().err
    assert err.startswith("error: metric: leading minors [1.0, -1.0] not all "
                          "positive at point (")
    if argv[0] == "geodesic":
        assert "at point (0.1, 0.2)" in err


def test_flat_frame_grid_gate_is_a_failing_check(tmp_path):
    # flat at the 3 sample points, curvature 1 at the chart center (a grid node)
    spec = tmp_path / "bump.json"
    spec.write_text(json.dumps({
        "chart": {"coords": ["x", "y"], "domain": [[-1, 1], [-1, 1]]},
        "rank": 1, "mode": "lie", "anchor": [["0", "0"]],
        "connection": [[["0", "x*exp(-200*x^2-200*y^2)"]]]}))
    code, text = run(tmp_path, "check", "--spec", str(spec), "--flat-frame",
                     "--points", "3")
    assert code == 1
    checks = json.loads(text)["checks"]
    assert [(c["name"], c["pass"]) for c in checks] == [
        ("flat_frame_gate", True), ("flat_frame_grid_gate", False)]
    assert checks[1]["worst_point"] == [0.0, 0.0]
    assert checks[1]["max_residual"] == 1.0


@pytest.mark.parametrize("argv, without, with_tol", [
    (["check", "--flat-frame", "--points", "5"], None, "flat_section_killing"),
    (["geodesic", "--x0=-0.5,0.3", "--v0=0.4,0.0", "--t-max", "0.02"],
     "orthogonality_raw_span", "orthogonality_flat_frame"),
])
def test_tolerance_override_reaches_the_killing_gates(tmp_path, argv, without,
                                                       with_tol):
    # a Killing residual of 1e-5: over the 1e-7 default, under the override
    doc = json.loads(fixture_path("fx_foliation_flat").read_text())
    spec = _variant(tmp_path, "fx_foliation_flat",
                    metric=[doc["metric"][0], ["0", "1 + 1e-5*y"]])
    names = []
    for tol in ([], ["--tol", "1e-3"]):
        code, text = run(tmp_path, *argv[:1], "--spec", spec, *argv[1:], *tol)
        assert code == 0
        names.append({c["name"] for c in json.loads(text)["checks"]})
    assert with_tol in names[1] and with_tol not in names[0]
    assert without is None or without in names[0]


def test_free_reads_each_block_once_per_point(tmp_path, monkeypatch):
    built = []
    free_extend = fa.free_extend

    def recording_extend(*args, **kwargs):
        built.append(free_extend(*args, **kwargs))
        return built[-1]

    reads = Counter()          # (id of the block, point) -> evaluations

    def counting(eval_block):
        def wrapped(block, points, order=0):
            # one point, or each point of a batch
            for point in np.reshape(points, (-1, np.shape(points)[-1])):
                reads[id(block), tuple(point)] += 1
            return eval_block(block, points, order)
        return wrapped

    monkeypatch.setattr(fa, "free_extend", recording_extend)
    monkeypatch.setattr(spec_model, "eval_block", counting(spec_model.eval_block))
    code, _ = run(tmp_path, "free", "--spec", fx("fx_killing_nonabelian"),
                  "--degree", "3", "--points", "20")
    assert code == 0
    quotient, = (free for free in built if free.mode == "quotient")
    points = [tuple(p) for p in spec_model.sample_points(quotient.spec.chart, 20, 42)]
    anchor = quotient.block_entries["anchor"]
    metric = quotient.spec.block_entries["metric"]
    assert [reads[id(anchor), p] for p in points] == [1] * 20
    assert all(reads[id(metric), p] <= 1 for p in points)
    assert sum(reads[id(metric), p] for p in points) == 20



CHART = {"coords": ["x", "y"], "domain": [[-1.0, 1.0], [-1.0, 1.0]]}


def _sample(count):
    chart = spec_model.ChartSpec(("x", "y"), ((-1.0, 1.0), (-1.0, 1.0)))
    return spec_model.sample_points(chart, count)


def _vanishing_at(point) -> str:
    """An expression over x, y that is exactly 0 at ``point`` and positive
    at every other point."""
    x, y = (repr(float(c)) for c in point)
    return f"(x - ({x}))^2 + (y - ({y}))^2"


def test_kernel_error_at_an_earlier_point_wins(tmp_path, capsys):
    # the metric is singular at sample point 3, where the Killing kernel
    # raises, and the anchor takes ln(0) at sample point 5
    points = _sample(8)
    path = tmp_path / "two_errors.json"
    path.write_text(json.dumps({
        "chart": CHART, "rank": 1, "mode": "anchored",
        "anchor": [[f"ln({_vanishing_at(points[5])})", "0"]],
        "connection": [[["0", "0"]]],
        "metric": [["1", "0"], ["0", _vanishing_at(points[3])]]}))
    code, text = run(tmp_path, "check", "--spec", str(path), "--killing",
                     "--points", "8")
    assert code == 2 and text is None
    point = tuple(float(c) for c in points[3])
    assert capsys.readouterr().err == (
        f"error: metric: leading minors [1.0, 0.0] not all positive at point "
        f"{point}\n")


@pytest.mark.parametrize("psi_at, metric_at", [(2, 5), (2, 2)])
def test_kernel_errors_within_one_chunk_keep_the_point_order(tmp_path, capsys,
                                                              psi_at, metric_at):
    # all 8 points are one chunk; the Killing row comes before the Koszul row,
    # whose kernel reads the psi candidate, and the earlier point's error wins
    points = _sample(8)
    path = tmp_path / "two_kernel_errors.json"
    path.write_text(json.dumps({
        "chart": CHART, "rank": 1, "mode": "anchored", "anchor": [["1", "x"]],
        "connection": [[["0", "0"]]],
        "metric": [["1", "0"], ["0", _vanishing_at(points[metric_at])]]}))
    psi = tmp_path / "psi.json"
    psi.write_text(json.dumps({"psi": [[[f"ln({_vanishing_at(points[psi_at])})",
                                         "0"]]]}))
    code, text = run(tmp_path, "check", "--spec", str(path), "--killing",
                     "--koszul", "--psi-file", str(psi), "--points", "8")
    assert code == 2 and text is None
    err = capsys.readouterr().err
    point = tuple(float(c) for c in points[2])
    if metric_at == psi_at:
        assert err == (f"error: metric: leading minors [1.0, 0.0] not all positive "
                       f"at point {point}\n")
    else:
        assert err.startswith("error: psi[0][0][0]: ln of nonpositive value in '")
        assert err.endswith(f"' at point {point}\n")


def test_geodesic_step_count_is_bounded(tmp_path, capsys):
    code, text = run(tmp_path, "geodesic", "--spec", fx("fx_foliation_flat"),
                     "--x0=0,0", "--v0=0,0", "--t-max", "1", "--h", "1e-9")
    assert code == 2 and text is None
    assert "asks for 1000000000 RK4 steps, more than MAX_STEPS = 1000000" \
        in capsys.readouterr().err


def test_evaluation_failure_at_the_last_point_names_it(tmp_path, capsys):
    points = _sample(20)
    path = tmp_path / "last_point.json"
    path.write_text(json.dumps({
        "chart": CHART, "rank": 1, "mode": "lie",
        "anchor": [["1", f"ln({_vanishing_at(points[-1])})"]],
        "connection": [[["0", "0"]]]}))
    code, text = run(tmp_path, "validate", "--spec", str(path), "--points", "20")
    assert code == 2 and text is None
    anchor = block_exprs(spec_model.load_spec_file(path).block_entries["anchor"])
    entry = render(anchor[0, 1])
    point = tuple(float(c) for c in points[-1])
    assert capsys.readouterr().err == (
        f"error: anchor[0][1]: ln of nonpositive value in '{entry}' at point "
        f"{point}\n")


def test_validate_fails_a_metric_that_overflows(tmp_path):
    # metric[0][0] = (x+4)^4096 by 12 nested squares overflows to inf on the
    # whole chart: its leading minors are not finite, which must fail the
    # check rather than pass it with a margin of -inf
    doc = json.loads(fixture_path("fx_so3_sphere").read_text())
    entry = "(x+4)"
    for _ in range(12):
        entry = f"({entry})^2"
    doc["metric"][0][0] = entry
    path = tmp_path / "inf_metric.json"
    path.write_text(json.dumps(doc))
    code, text = run(tmp_path, "validate", "--spec", str(path), "--points", "5")
    assert code == 1
    checks = {c["name"]: c for c in json.loads(text)["checks"]}
    assert not checks["metric_positive_definite"]["pass"]
    assert np.isnan(checks["metric_positive_definite"]["max_residual"])


def test_geodesic_rejects_an_indefinite_metric_at_the_last_point(tmp_path, capsys):
    # metric diag(1, y): falling toward y = 0, the 25th RK4 step of this
    # size keeps its stages at y > 0 but lands at y = -2.6e-5; the last of
    # the 26 stored points starts no step and is off the monitor's stride 2
    path = tmp_path / "diag_y.json"
    path.write_text(json.dumps({
        "chart": CHART, "rank": 1, "mode": "lie", "anchor": [["1", "0"]],
        "connection": [[["0", "0"]]], "metric": [["1", "0"], ["0", "y"]]}))
    h = 0.04814061990234344
    code, text = run(tmp_path, "geodesic", "--spec", str(path), "--x0=0,0.9",
                     "--v0=0,-0.5", "--t-max", repr(25 * h), "--h", repr(h))
    assert code == 2 and text is None
    err = capsys.readouterr().err
    assert err.startswith("error: metric: leading minors [1.0, -2.62895")
    assert err.endswith("not all positive at point (0.0, -2.6289511472446514e-05)\n")


def test_one_process_runs_subcommands_as_separate_processes_do(tmp_path):
    # main() reuses one parser per process: a subcommand must parse the same
    # after another one ran, with no option or default carried over
    invocations = [
        ["check", "--spec", fx("fx_rho0_n1"), "--killing", "--points", "5",
         "--tol", "0.5", "--format", "text"],
        ["free", "--spec", fx("fx_free_heis"), "--degree", "2", "--points", "3"],
        ["check", "--spec", fx("fx_rho0_n1"), "--killing", "--points", "5"],
        ["validate", "--spec", fx("fx_action_so2"), "--points", "4", "--seed", "7"],
    ]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(Path(algebroid.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]))
    for k, argv in enumerate(invocations):
        code, text = run(tmp_path, *argv)
        out = tmp_path / f"separate{k}.out"
        separate = subprocess.run(
            [sys.executable, "-c", "import sys; from algebroid.cli import main; "
                                   "sys.exit(main(sys.argv[1:]))",
             *argv, "--out", str(out)], env=env, capture_output=True, text=True)
        assert (code, text) == (separate.returncode, out.read_text()), argv
    assert [run(tmp_path, *argv)[0] for argv in invocations] == [1, 0, 1, 0]


# --------------------------------------------------------------------------
# Deep expressions

# Each wrapper adds one level to the tree, and one to the parser's nesting,
# around an expression of at least two levels: deep sums, differences,
# products, quotients, powers, calls and parentheses
_WRAPPERS = ("({})+y", "x - ({})", "y*({})", "-y*({})", "({})/(y+2)",
             "({})^2", "sin({})", "exp({})")
_DEEP_RUNS = (["validate"], ["check", "--cartan", "--killing"],
              ["free", "--degree", "2"],
              ["geodesic", "--x0=0.1,0.2", "--v0=0.3,0.1", "--t-max", "0.02",
               "--h", "0.01"])
_DEEP_SLOTS = (("anchor", 0, 0), ("connection", 1, 0, 1), ("metric", 0, 0))


def _spec_with(tmp, slot, text):
    """fx_so3_sphere with ``text`` at ``slot`` (block, indices), in ``tmp``."""
    doc = json.loads(fixture_path("fx_so3_sphere").read_text())
    entries = doc
    for key in slot[:-1]:
        entries = entries[key]
    entries[slot[-1]] = text
    path = tmp / "spec.json"
    path.write_text(json.dumps(doc))
    return str(path)


def _quiet_main(argv):
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


@pytest.mark.parametrize("block, squarings, x0, v0, at_start", [
    ("anchor", 12, "0.1,0.2", "0.1,0", True),   # the anchor is inf
    ("anchor", 10, "-0.5,0.2", "0.1,0", True),  # finite, its Gram matrix is not
    ("anchor", 10, "-0.7,0.2", "1,0", False),   # the Gram matrix overflows at x > -0.59
    ("metric", 12, "0.1,0.2", "0.1,0", True),
])
def test_geodesic_on_an_overflowing_anchor_span_exits_2_naming_the_point(
        tmp_path, capfd, block, squarings, x0, v0, at_start):
    # the raw-span monitor names the earliest trace point where g(rho_a, rho_b)
    # or g(rho_a, v) is not finite, before LAPACK sees it: LAPACK would print
    # its own DLASCL lines, or never return.  A metric that is inf at the
    # start has inf leading minors, which the first RK4 stage rejects there
    text = "(x+2)"
    for _ in range(squarings):
        text = f"({text})^2"
    spec = _spec_with(tmp_path, (block, 0, 0), text)
    loaded = spec_model.load_spec_file(spec)
    start = np.array(x0.split(","), dtype=float)
    if block == "metric":
        with pytest.raises(spec_model.SingularMetricError), \
                np.errstate(over="ignore", invalid="ignore"):
            fo.geodesic_integrate(loaded, start, np.array(v0.split(","), dtype=float),
                                  0.2, 1e-2)
        expected = (f"metric: leading minors [inf, inf] not all positive at point "
                    f"{tuple(float(c) for c in start)}")
    else:
        trace = fo.geodesic_integrate(loaded, start, np.array(v0.split(","), dtype=float),
                                      0.2, 1e-2)
        f = spec_model.point_fields(loaded, trace.positions, {"metric": 0, "anchor": 0})
        with np.errstate(over="ignore", invalid="ignore"):
            gram = np.einsum("tai,tij,tbj->tab", f.rho, f.g, f.rho)
        k = np.argmin(np.isfinite(gram).all((1, 2)))
        assert (k == 0) == at_start and not np.isfinite(gram[k]).all()
        expected = (f"anchor Gram matrix not finite at trace point "
                    f"{tuple(float(c) for c in trace.positions[k])}")
    capfd.readouterr()
    code = main(["geodesic", "--spec", spec, f"--x0={x0}", f"--v0={v0}",
                 "--t-max", "0.2", "--h", "1e-2"])
    out, err = capfd.readouterr()
    assert (code, out) == (2, "")
    assert err == f"error: {expected}\n"


@pytest.mark.parametrize("levels", [MAX_DEPTH - 1, MAX_DEPTH, MAX_DEPTH + 1])
@given(wrappers=st.lists(st.sampled_from(_WRAPPERS), min_size=1, max_size=6),
       slot=st.sampled_from(_DEEP_SLOTS))
@settings(max_examples=6, deadline=None)
def test_deep_expressions_load_or_exit_2(tmp_path_factory, levels, wrappers, slot):
    # to the bound every subcommand runs (exit 0, 1 or 2 by the spec's
    # content); past it each exits 2 naming the entry and its depth
    text = "x*y"
    for k in range(levels - 2):
        text = wrappers[k % len(wrappers)].format(text)
    assert tree_depth(parse_expr(text, ["x", "y"])) == levels
    spec = _spec_with(tmp_path_factory.mktemp("deep"), slot, text)
    entry = slot[0] + "".join(f"[{i}]" for i in slot[1:])
    for argv in _DEEP_RUNS:
        code, err = _quiet_main([argv[0], "--spec", spec, "--points", "2"]
                                + argv[1:])
        if levels > MAX_DEPTH:
            assert (code, err) == (2, f"error: {entry}: expression is {levels} "
                                      f"levels deep, more than MAX_DEPTH = "
                                      f"{MAX_DEPTH}\n")
        else:
            assert code in (0, 1, 2) and "MAX_DEPTH" not in err


@pytest.mark.parametrize("text, nesting", [
    ("(" * 63 + "x" + ")" * 63, 64), ("-" * 63 + "x", 64),
    ("sin(" * 63 + "x" + ")" * 63, 64), ("(" * 64 + "x" + ")" * 64, 65),
    ("x" + "^1" * 63, 64), ("-" * 64 + "x", 65), ("x" + "^1" * 64, 65),
])
def test_the_parser_nests_to_the_bound(tmp_path, text, nesting):
    spec = _spec_with(tmp_path, ("anchor", 0, 0), text)
    code, err = _quiet_main(["validate", "--spec", spec, "--points", "2"])
    if nesting <= MAX_DEPTH:
        assert code in (0, 1)
    else:
        assert code == 2
        assert err.startswith(f"error: anchor[0][0]: expression error: nested "
                              f"more than MAX_DEPTH = {MAX_DEPTH} levels deep")


def test_free_at_degree_4_builds_at_the_depth_bound(tmp_path):
    # quotients nested on the left: a degree-4 derivative tree is about ten
    # times as deep as its anchor entry, the deepest growth measured
    text = "x*y"
    for _ in range(MAX_DEPTH - 2):
        text = f"({text})/(y+2)"
    spec = _spec_with(tmp_path, ("anchor", 0, 0), text)
    code, err = _quiet_main(["free", "--spec", spec, "--degree", "4",
                             "--points", "2"])
    assert code == 1 and err == ""


def _assert_free_names_the_exponent(tmp_path, slot):
    # the entry is named when the spec loads, before any build or evaluation
    spec = _spec_with(tmp_path, slot, "x^y")
    entry = slot[0] + "".join(f"[{i}]" for i in slot[1:])
    for degree in ("1", "2"):
        assert _quiet_main(["free", "--spec", spec, "--degree", degree,
                            "--points", "2"]) == (
            2, f"error: {entry}: expression error: exponent reads coordinate 'y' "
               f"(at byte offset 2)\n")


def test_free_on_a_non_constant_exponent_exits_2(tmp_path):
    _assert_free_names_the_exponent(tmp_path, ("anchor", 0, 0))


def test_free_names_a_connection_entry_with_a_non_constant_exponent(tmp_path):
    _assert_free_names_the_exponent(tmp_path, ("connection", 1, 2, 0))


@pytest.mark.parametrize("slot", [("anchor", 0, 0), ("connection", 1, 2, 0)])
@pytest.mark.parametrize("text, literal", [
    ("x^1^1", "x^1"), ("x^(1+1)", "x^2"), ("(x+3)^sqrt(0)", "(x+3)^0")])
def test_free_on_an_exponent_that_folds_matches_its_literal(tmp_path, capfd, slot,
                                                             text, literal):
    # the exponent is a number once the spec loads, so free differentiates it
    runs = []
    for spelling in (text, literal):
        spec = _spec_with(tmp_path, slot, spelling)
        code = main(["free", "--spec", spec, "--degree", "3", "--points", "5"])
        runs.append((code,) + tuple(capfd.readouterr()))
    assert runs[0] == runs[1] and runs[0][0] in (0, 1)


@pytest.mark.parametrize("text, message", [
    ("x^(y-y)", "exponent reads coordinate 'y' (at byte offset 2)"),
    ("(x+3)^ln(0)", "ln of nonpositive value in 'ln(0.0)' (at byte offset 6)"),
])
def test_a_bad_exponent_is_rejected_at_load(tmp_path, text, message):
    spec = _spec_with(tmp_path, ("anchor", 0, 0), text)
    assert _quiet_main(["validate", "--spec", spec]) == (
        2, f"error: anchor[0][0]: expression error: {message}\n")


def test_a_non_ascii_space_is_rejected_at_load(tmp_path):
    spec = _spec_with(tmp_path, ("anchor", 0, 0), "x\xa0+ 1")
    assert _quiet_main(["validate", "--spec", spec]) == (
        2, "error: anchor[0][0]: expression error: unexpected character "
           "'\\xa0' (at byte offset 1)\n")


@pytest.mark.parametrize("base, squarings, at", [("x+2", 12, 0), ("2-x", 10, 1)])
def test_free_on_a_non_finite_anchor_exits_2_naming_the_point(tmp_path, capfd,
                                                              base, squarings, at):
    # the earliest sample point whose extended anchor overflows is named, and
    # LAPACK never sees it (it would print its own DLASCL lines)
    text = f"({base})"
    for _ in range(squarings):
        text = f"({text})^2"
    spec = _spec_with(tmp_path, ("anchor", 0, 0), text)
    point = spec_model.sample_points(spec_model.load_spec_file(spec).chart, 2, 42)[at]
    for degree in ("1", "2"):          # deeper, the first point overflows too
        code = main(["free", "--spec", spec, "--degree", degree, "--points", "2"])
        out, err = capfd.readouterr()
        assert (code, out) == (2, "")
        assert err == (f"error: extended anchor not finite at point "
                       f"{tuple(float(c) for c in point)}\n")
