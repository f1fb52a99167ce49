"""Acceptance gate: every criterion at its stated tolerance, one printed
pass/fail line per criterion.  Run with `pytest -s tests/test_acceptance.py`
to see the lines."""

import json
import time

import numpy as np
import pytest

from algebroid import calculus as ca
from algebroid import foliation as fo
from algebroid import freealg as fa
from algebroid import fixture_path, load_spec, load_spec_file
from algebroid.cli import main
from algebroid.spec_model import (
    eval_fields, run_checks, sample_points, splitmix_uniforms,
)

from conftest import LIE_FIXTURES, METRIC_FIXTURES, fixture_doc, load_doc, max_abs


def _verdict(number, label, ok):
    print(f"criterion {number:02d} {'PASS' if ok else 'FAIL'}: {label}")
    assert ok, f"criterion {number} failed: {label}"


def _spec(name):
    return load_spec_file(fixture_path(name))


def _points(spec, count=100, seed=42):
    return sample_points(spec.chart, count, seed)


FRAME = ca._FRAME1
TAU = {"anchor": 2, "structure": 0, "connection": 1}


def test_criterion_01_s_formula_agreement():
    start = time.perf_counter()
    worst = 0.0
    for name in ("fx_action_so2", "fx_so3_sphere", "fx_bla", "fx_bla_const",
                 "fx_omega_xdy"):
        spec = _spec(name)
        for p in _points(spec, 100):
            f = eval_fields(spec, p, FRAME)
            frame = ca._s_frame(f)
            cov = ca.s_covariant_components(f.rho, f.drho, f.C, f.dC, f.omega,
                                            f.domega)
            worst = max(worst, float(np.max(np.abs(frame - cov))))
    elapsed = time.perf_counter() - start
    _verdict(1, f"S frame vs covariant agreement {worst:.2e} <= 1e-9 "
                f"in {elapsed:.2f}s < 5s", worst <= 1e-9 and elapsed < 5.0)


def test_criterion_02_cartan_fixtures():
    worst_flat = 0.0
    for name in ("fx_action_so2", "fx_bla_const"):
        spec = _spec(name)
        for p in _points(spec, 100):
            worst_flat = max(worst_flat,
                             max_abs(ca._s_frame(eval_fields(spec, p, FRAME))))
    spec = _spec("fx_bla")
    worst_value = 0.0
    for p in _points(spec, 100):
        S = ca._s_frame(eval_fields(spec, p, FRAME))
        worst_value = max(worst_value, abs(S[2, 0, 1, 0] + 1.0))
    ok = worst_flat <= 1e-10 and worst_value <= 1e-10
    _verdict(2, f"Cartan fixtures: max|S| {worst_flat:.2e} <= 1e-10 and "
                f"|S^3_12x + 1| {worst_value:.2e} <= 1e-10", ok)


def test_criterion_03_killing_equivalence():
    worst = 0.0
    verdicts_agree = True
    for name in METRIC_FIXTURES:
        spec = _spec(name)
        frame_max = sym_max = 0.0
        for p in _points(spec, 100):
            f = eval_fields(spec, p, ca.KILLING.reads)
            frame, sym = ca._killing_frame(f), ca._killing_sym(f)
            worst = max(worst, float(np.max(np.abs(frame - 2.0 * sym))))
            frame_max = max(frame_max, float(np.max(np.abs(frame))))
            sym_max = max(sym_max, float(np.max(np.abs(sym))))
        verdicts_agree &= (frame_max <= 1e-7) == (2.0 * sym_max <= 1e-7)
    ok = worst <= 1e-10 and verdicts_agree
    _verdict(3, f"Killing frame = 2 x sym within {worst:.2e} <= 1e-10, "
                f"verdicts coincide", ok)


def test_criterion_04_obstruction_reproduction():
    rng = np.random.default_rng(4)
    worst = 0.0
    for _ in range(50):
        doc = fixture_doc("fx_rho0_n1")
        c = rng.uniform(-10, 10, size=(2, 6))
        doc["connection"] = [[[
            f"{c[i][0]} + {c[i][1]}*x + {c[i][2]}*y + {c[i][3]}*x^2 "
            f"+ {c[i][4]}*x*y + {c[i][5]}*y^2" for i in range(2)]]]
        spec = load_doc(doc)
        y0 = rng.uniform(-1, 1)
        K = ca._killing_frame(eval_fields(spec, (0.0, y0), ca.KILLING.reads))
        worst = max(worst, abs(K[0, 0, 0] - 2.0))
    _verdict(4, f"obstruction K_1xx = 2 within {worst:.2e} <= 1e-12 for 50 "
                f"random polynomial connections", worst <= 1e-12)


def test_criterion_05_cartan_implies_flat_and_intertwine():
    flat_ok = True
    intertwine_worst = 0.0
    for name in LIE_FIXTURES:
        spec = _spec(name)
        points = _points(spec, 100)
        s_max = max(max_abs(ca._s_frame(eval_fields(spec, p, FRAME)))
                    for p in points)
        if s_max <= 1e-9:
            for p in points:
                alpha = ca._alpha_curvature(eval_fields(spec, p, FRAME))
                tau = ca._tau_curvature(eval_fields(spec, p, TAU))
                flat_ok &= max_abs(alpha) <= 1e-7
                flat_ok &= max_abs(tau) <= 1e-7
        report, = run_checks(spec, points, [ca.TAU_INTERTWINE])
        intertwine_worst = max(intertwine_worst, report.max_residual)
    ok = flat_ok and intertwine_worst <= 1e-10
    _verdict(5, f"Cartan fixtures have flat induced connections; intertwine "
                f"residual {intertwine_worst:.2e} <= 1e-10", ok)


def test_criterion_06_free_algebroid():
    start = time.perf_counter()
    heis = load_doc({**fixture_doc("fx_free_heis")})
    so3 = fixture_doc("fx_so3_sphere")
    so3["mode"] = "anchored"
    so3.pop("structure")
    so3 = load_doc(so3)

    counts_ok = True
    for spec, expected in ((heis, [2, 1, 2]), (so3, [3, 3, 8])):
        for d in (1, 2, 3):
            free = fa.free_extend(spec, d, "quotient")
            counts_ok &= free.counts() == expected[:d]

    points = _points(heis, 100)
    quotient = fa.free_extend(heis, 3, "quotient")
    cartan, = run_checks(quotient, points, [fa.cartan_extended_check(quotient)])
    jac = fa.jacobiator_check(fa.free_extend(heis, 3, "almost"), points)
    elapsed = time.perf_counter() - start
    ok = (counts_ok and cartan.max_residual <= 1e-8
          and jac.max_residual <= 1e-8 and elapsed < 30.0)
    _verdict(6, f"free algebroid: Witt counts, extended max|S| "
                f"{cartan.max_residual:.2e} <= 1e-8, Jacobiator "
                f"{jac.max_residual:.2e} <= 1e-8, {elapsed:.2f}s < 30s", ok)


def test_criterion_07_compatibility_propagation():
    worst = 0.0
    for name in ("fx_free_abelian", "fx_killing_nonabelian"):
        spec = _spec(name)
        points = _points(spec, 100)
        gen_worst = max(max_abs(ca._killing_frame(
            eval_fields(spec, p, ca.KILLING.reads))) for p in points)
        assert gen_worst <= 1e-7, "generator-level oracle must pass first"
        free = fa.free_extend(spec, 3, "quotient")
        _, report = run_checks(free, points, fa.killing_checks(free))
        worst = max(worst, report.max_residual)
    _verdict(7, f"extended Killing residual {worst:.2e} <= 1e-7 at all "
                f"degrees <= 3", worst <= 1e-7)


def test_criterion_08_riemannian_foliation():
    uniforms = iter(splitmix_uniforms(8, 400))      # drawn in stream order
    drift_worst = 0.0
    starts = 0
    for name in ("fx_action_so2", "fx_foliation_flat", "fx_so2_conformal"):
        spec = _spec(name)
        per_fixture = 0
        wanted = 6 if name == "fx_foliation_flat" else 7
        while per_fixture < wanted:
            # the next candidates, as many as are still wanted, in one batch;
            # a start that leaves the chart is replaced by the next one drawn
            x0s, v0s = [], []
            while len(x0s) < wanted - per_fixture:
                x0 = np.array([lo + 0.3 * (hi - lo) + 0.4 * (hi - lo) * next(uniforms)
                               for lo, hi in spec.chart.domain])
                raw = np.array([next(uniforms) - 0.5, next(uniforms) - 0.5])
                v0 = fo.orthogonal_velocity(spec, x0, raw)
                if np.linalg.norm(v0) < 1e-3:
                    continue
                x0s.append(x0)
                v0s.append(0.4 * v0 / np.linalg.norm(v0))
            for trace in fo.geodesic_integrate(spec, np.array(x0s),
                                               np.array(v0s), 1.0, 1e-3):
                if trace.exited:
                    continue
                report = fo.orthogonality_monitor(spec, trace)
                drift_worst = max(drift_worst, report.max_residual)
                per_fixture += 1
                starts += 1
    assert starts == 20

    nonriem = _spec("fx_nonriem_fol")
    v0 = fo.orthogonal_velocity(nonriem, [0.0, 1.0], [1.0, 0.0])
    v0 = v0 / np.linalg.norm(v0) / np.sqrt(2.0)
    trace = fo.geodesic_integrate(nonriem, [0.0, 1.0], v0, 1.0, 1e-3)
    counter = fo.orthogonality_monitor(nonriem, trace)

    dh = fo.geodesic_integrate(nonriem, [0.0, 1.0], [1.2, 0.4], 1.0, 0.05)
    dh2 = fo.geodesic_integrate(nonriem, [0.0, 1.0], [1.2, 0.4], 1.0, 0.025)
    ratio = dh.energy_drift / dh2.energy_drift

    ok = (drift_worst <= 1e-6 and counter.max_residual >= 1e-2 and ratio >= 8.0)
    _verdict(8, f"20 orthogonal starts drift {drift_worst:.2e} <= 1e-6; "
                f"counterexample drift {counter.max_residual:.2e} >= 1e-2; "
                f"energy halving ratio {ratio:.1f} >= 8", ok)


def test_criterion_09_generalized_symplectic_poisson():
    base = _spec("fx_action_so2")
    zeroB = fixture_doc("fx_action_so2")
    zeroB["two_form"] = [["0", "0"], ["0", "0"]]
    zeroB = load_doc(zeroB)
    exact = True
    rot_worst = conf_worst = 0.0
    for p in _points(base, 100):
        sym, skew = ca._generalized(eval_fields(zeroB, p, ca.GENERALIZED.reads))
        K = ca._killing_frame(eval_fields(base, p, ca.KILLING.reads))
        exact &= np.array_equal(sym, K)
        exact &= not np.any(skew)
        rot_worst = max(rot_worst, *map(max_abs, ca.GENERALIZED.kernel(
            eval_fields(base, p, ca.GENERALIZED.reads))))
    conf = _spec("fx_sympl_conf")
    for p in _points(conf, 100):
        symplectic = ca._symplectic_residual(
            eval_fields(conf, p, ca.SYMPLECTIC.reads))
        poisson = ca._poisson_residual(eval_fields(conf, p, ca.POISSON.reads))
        conf_worst = max(conf_worst, max_abs(symplectic), max_abs(poisson))
    ok = exact and rot_worst <= 1e-10 and conf_worst <= 1e-10
    _verdict(9, f"degeneration exact; rotation-invariant pair {rot_worst:.2e} "
                f"<= 1e-10; conformal symplectic/Poisson {conf_worst:.2e} "
                f"<= 1e-10", ok)


def test_criterion_10_deterministic_reports(tmp_path):
    configs = [
        ["check", "--spec", str(fixture_path("fx_so3_sphere")), "--cartan",
         "--killing", "--points", "60", "--seed", "5"],
        ["validate", "--spec", str(fixture_path("fx_sympl_conf")),
         "--points", "30"],
        ["free", "--spec", str(fixture_path("fx_free_heis")), "--points", "20"],
        ["geodesic", "--spec", str(fixture_path("fx_so2_conformal")),
         "--x0", "1,0.4", "--v0", "0.2,-0.05", "--t-max", "0.5", "--h", "0.01"],
    ]
    ok = True
    for argv in configs:
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        main(argv + ["--out", str(a)])
        main(argv + ["--out", str(b)])
        ok &= a.read_bytes() == b.read_bytes()
    _verdict(10, "byte-identical JSON reports for repeated runs", ok)
