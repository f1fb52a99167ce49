from itertools import product

import numpy as np
import pytest

from algebroid import calculus as ca, spec_model
from algebroid.exprjet import eval_block
from algebroid.spec_model import SchemaError, eval_fields, run_checks, sample_points

from conftest import (
    LIE_FIXTURES, METRIC_FIXTURES, dual_coefficients, fixture_doc, load_doc,
    max_abs,
)

# the blocks each kernel below reads, and to which derivative order
METRIC = {"metric": 1}
FRAME0 = {"anchor": 0, "structure": 0, "connection": 0}
FRAME = ca._FRAME1
TAU = {"anchor": 2, "structure": 0, "connection": 1}
KILLING = ca.KILLING.reads
CONNECTION = ca.FLAT_FRAME_GATE.reads


def _gamma(f):
    return ca.christoffel_components(f.g, f.dg, f.point)[0]


def _torsion(f):
    return ca.a_torsion_components(f.rho, f.omega, f.C)


def _curvature(f):
    return ca.curvature_components(f.omega, f.domega)


def _s_cov(f):
    return ca.s_covariant_components(f.rho, f.drho, f.C, f.dC, f.omega, f.domega)


def _fd_arrays(spec, p, h=1e-5):
    """Order-1 frame arrays with all derivatives from central differences."""
    n, r = spec.dimension, spec.rank

    def at(point):
        f = eval_fields(spec, point, FRAME0)
        return f.rho, f.C, f.omega

    rho, C, omega = at(p)
    drho = np.zeros((r, n, n))
    dC = np.zeros((r, r, r, n))
    domega = np.zeros((r, r, n, n))
    for j in range(n):
        shift = np.zeros(n)
        shift[j] = h
        rp, Cp, op = at(p + shift)
        rm, Cm, om = at(p - shift)
        drho[:, :, j] = (rp - rm) / (2 * h)
        dC[:, :, :, j] = (Cp - Cm) / (2 * h)
        domega[:, :, :, j] = (op - om) / (2 * h)
    return rho, drho, C, dC, omega, domega


# --------------------------------------------------------------------------
# Christoffel symbols


def test_christoffel_flat_metric(spec_of):
    spec = spec_of("fx_action_so2")
    gamma = _gamma(eval_fields(spec, (0.7, -0.3), METRIC))
    assert np.array_equal(gamma, np.zeros((2, 2, 2)))


def test_christoffel_hand_values(spec_of):
    # g = (1+y^2) dx^2 + dy^2 at (0, 1)
    spec = spec_of("fx_nonriem_fol")
    gamma = _gamma(eval_fields(spec, (0.0, 1.0), METRIC))
    assert gamma[1, 0, 0] == pytest.approx(-1.0, abs=1e-14)
    assert gamma[0, 0, 1] == pytest.approx(0.5, abs=1e-14)
    assert np.array_equal(gamma, gamma.transpose(0, 2, 1))


def test_christoffel_matches_metric_finite_differences(spec_of, points_of):
    spec = spec_of("fx_so3_sphere")
    h = 1e-5
    n = spec.dimension
    for p in points_of(spec, 10):
        g = eval_fields(spec, p, {"metric": 0}).g
        dg = np.zeros((n, n, n))
        for k in range(n):
            shift = np.zeros(n)
            shift[k] = h
            dg[:, :, k] = (eval_fields(spec, p + shift, {"metric": 0}).g
                           - eval_fields(spec, p - shift, {"metric": 0}).g) / (2 * h)
        gamma_fd, _ = ca.christoffel_components(g, dg, p)
        gamma = _gamma(eval_fields(spec, p, METRIC))
        assert float(np.max(np.abs(gamma - gamma_fd))) <= 1e-6


def test_christoffel_singular_metric_error(points_of):
    doc = fixture_doc("fx_action_so2")
    doc["metric"] = [["x", "0"], ["0", "1"]]
    doc["chart"]["domain"] = [[-2.0, 2.0], [-2.0, 2.0]]
    spec = load_doc(doc)
    with pytest.raises(ca.SingularMetricError):
        _gamma(eval_fields(spec, (-0.5, 0.0), METRIC))


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_require_positive_definite_rejects_a_non_finite_minor(bad):
    # of a stack, the first metric whose minors are not all finite and
    # positive names its point; an inf minor is no pass
    g = np.array([np.eye(2), [[1.0, 0.0], [0.0, bad]], [[bad, 0.0], [0.0, 1.0]]])
    points = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
    with pytest.raises(ca.SingularMetricError, match=r"at point \(1\.0, 0\.0\)$"), \
            np.errstate(invalid="ignore"):
        ca.require_positive_definite(g, points)
    ca.require_positive_definite(g[:1], points[:1])


# --------------------------------------------------------------------------
# A-torsion, curvature of the connection


def test_a_torsion_rank_one_vanishes(spec_of):
    spec = spec_of("fx_action_so2")
    assert max_abs(_torsion(eval_fields(spec, (0.3, 0.8), FRAME0))) == 0.0


def test_a_torsion_bundle_of_lie_algebras(spec_of):
    # rho = 0 so the torsion is minus the structure functions
    spec = spec_of("fx_bla")
    at = _torsion(eval_fields(spec, (1.3, 0.4), FRAME0))
    assert at[0, 1, 2] == -1.3
    assert at[1, 0, 2] == 1.3
    C = eval_fields(spec, (1.3, 0.4), {"structure": 0}).C
    assert np.array_equal(at, -C)


def test_a_torsion_so3(spec_of):
    spec = spec_of("fx_so3_sphere")
    at = _torsion(eval_fields(spec, (0.2, -0.1), FRAME0))
    C = eval_fields(spec, (0.2, -0.1), {"structure": 0}).C
    assert np.array_equal(at, -C)
    assert at[0, 1, 2] == -1.0


def test_curvature_constant_connection_vanishes():
    doc = fixture_doc("fx_omega_xdy")
    doc["connection"] = [[["3", "-2"]]]
    spec = load_doc(doc)
    assert max_abs(_curvature(eval_fields(spec, (0.5, 0.5), CONNECTION))) == 0.0


def test_curvature_x_dy(spec_of):
    spec = spec_of("fx_omega_xdy")
    F = _curvature(eval_fields(spec, (0.7, -1.1), CONNECTION))
    assert F[0, 0, 0, 1] == 1.0
    assert F[0, 0, 1, 0] == -1.0


def test_flat_connection_curvature_and_transport(spec_of):
    # omega = d(xy) is gauge-trivial: F = 0 and the transported frame is
    # covariantly constant across the grid (checked by finite differences,
    # so the bound is the O(h^2) truncation error at the grid spacing)
    spec = spec_of("fx_flat_exp")
    points = sample_points(spec.chart, 50, 42)
    assert max(max_abs(_curvature(eval_fields(spec, p, CONNECTION)))
               for p in points) <= 1e-8
    samples, _ = ca.flat_frame_probe(spec, (0.0, 0.0), grid_steps=8)
    by_offset = {off: k for k, off in enumerate(samples.offsets)}
    h = samples.points[by_offset[(1, 0)]][0] - samples.points[by_offset[(0, 0)]][0]
    checked = 0
    for (ox, oy), k in by_offset.items():
        right = by_offset.get((ox + 1, oy))
        left = by_offset.get((ox - 1, oy))
        if right is None or left is None:
            continue
        dU = (samples.frames[right] - samples.frames[left]) / (2 * h)
        omega = eval_fields(spec, samples.points[k], {"connection": 0}).omega
        expected = -(omega[:, :, 0].T @ samples.frames[k])
        assert float(np.max(np.abs(dU - expected))) <= h * h
        checked += 1
    assert checked > 50


# --------------------------------------------------------------------------
# Compatibility tensor


def test_s_frame_action_algebroid_is_cartan(spec_of, points_of):
    spec = spec_of("fx_action_so2")
    for p in points_of(spec, 50):
        assert max_abs(ca._s_frame(eval_fields(spec, p, FRAME))) == 0.0


def test_s_frame_bla_nonconstant(spec_of):
    spec = spec_of("fx_bla")
    S = ca._s_frame(eval_fields(spec, (1.7, 0.2), FRAME))
    assert S[2, 0, 1, 0] == -1.0
    assert S[2, 1, 0, 0] == 1.0
    mask = np.ones_like(S, dtype=bool)
    mask[2, 0, 1, 0] = mask[2, 1, 0, 0] = False
    assert float(np.max(np.abs(S[mask]))) == 0.0


def test_s_frame_bla_constant_is_cartan(spec_of, points_of):
    spec = spec_of("fx_bla_const")
    for p in points_of(spec, 50):
        assert max_abs(ca._s_frame(eval_fields(spec, p, FRAME))) == 0.0


def test_s_covariant_bla(spec_of):
    spec = spec_of("fx_bla")
    S = _s_cov(eval_fields(spec, (1.7, 0.2), FRAME))
    assert S[2, 0, 1, 0] == -1.0


@pytest.mark.parametrize("name", LIE_FIXTURES)
def test_s_formulas_agree(name, spec_of, points_of):
    spec = spec_of(name)
    for p in points_of(spec, 100):
        f = eval_fields(spec, p, FRAME)
        assert float(np.max(np.abs(ca._s_frame(f) - _s_cov(f)))) <= 1e-9


def test_s_antisymmetric_in_frame_pair(spec_of, points_of):
    spec = spec_of("fx_taucurv")
    for p in points_of(spec, 20):
        S = ca._s_frame(eval_fields(spec, p, FRAME))
        assert np.array_equal(S, -S.transpose(0, 2, 1, 3))


# --------------------------------------------------------------------------
# Killing residuals


def test_killing_rotation_isometry(spec_of, points_of):
    spec = spec_of("fx_action_so2")
    for p in points_of(spec, 50):
        assert max_abs(ca._killing_frame(eval_fields(spec, p, KILLING))) == 0.0


def test_killing_obstruction_value(spec_of):
    spec = spec_of("fx_rho0_n1")
    f = eval_fields(spec, (0.0, 0.37), KILLING)
    K = ca._killing_frame(f)
    assert K[0, 0, 0] == 2.0
    Ks = ca._killing_sym(f)
    assert Ks[0, 0, 0] == 1.0


def test_killing_obstruction_connection_independent():
    # the x = 0 residual cannot be absorbed by any connection choice
    rng = np.random.default_rng(0)
    for _ in range(10):
        doc = fixture_doc("fx_rho0_n1")
        c = rng.uniform(-10, 10, size=(2, 6))
        doc["connection"] = [[[
            f"{c[i][0]} + {c[i][1]}*x + {c[i][2]}*y + {c[i][3]}*x^2 "
            f"+ {c[i][4]}*x*y + {c[i][5]}*y^2" for i in range(2)]]]
        spec = load_doc(doc)
        K = ca._killing_frame(eval_fields(spec, (0.0, 0.7), KILLING))
        assert K[0, 0, 0] == 2.0


def test_killing_sym_standard_algebroid_flat(spec_of, points_of):
    # rho-bar equals the flat metric, so the full covariant derivative is zero
    spec = spec_of("fx_tm_flat")
    for p in points_of(spec, 20):
        assert max_abs(ca._killing_sym(eval_fields(spec, p, KILLING))) == 0.0


def test_killing_sym_vanishes_for_zero_anchor(points_of):
    doc = fixture_doc("fx_bla")
    doc["metric"] = [["1 + x^2", "0"], ["0", "2"]]
    doc["connection"][0][1] = ["y", "x"]
    spec = load_doc(doc)
    for p in points_of(spec, 20):
        assert max_abs(ca._killing_sym(eval_fields(spec, p, KILLING))) == 0.0


@pytest.mark.parametrize("name", METRIC_FIXTURES)
def test_killing_frame_is_twice_sym(name, spec_of, points_of):
    spec = spec_of(name)
    for p in points_of(spec, 100):
        f = eval_fields(spec, p, KILLING)
        frame, sym = ca._killing_frame(f), ca._killing_sym(f)
        assert float(np.max(np.abs(frame - 2.0 * sym))) <= 1e-10


# --------------------------------------------------------------------------
# Dual A-connection, induced curvatures, intertwining


def test_dual_connection_bundle_of_lie_algebras(spec_of):
    spec = spec_of("fx_bla")
    D = dual_coefficients(eval_fields(spec, (1.2, -0.5), FRAME0))
    C = eval_fields(spec, (1.2, -0.5), {"structure": 0}).C
    assert np.array_equal(D, C)


def test_dual_connection_so3(spec_of):
    spec = spec_of("fx_so3_sphere")
    D = dual_coefficients(eval_fields(spec, (0.4, 0.1), FRAME0))
    assert D[0, 1, 2] == 1.0 and D[1, 0, 2] == -1.0 and D[1, 2, 0] == 1.0


def test_dual_reflexivity_holds_on_mixed_fixture(spec_of, points_of):
    # nonzero rho, omega, and C at once; internal exact assertions must pass
    spec = spec_of("fx_omega_xdy")
    for p in points_of(spec, 20):
        dual_coefficients(eval_fields(spec, p, FRAME0))


def test_a_curvature_flat_for_cartan(spec_of, points_of):
    for name in ("fx_action_so2", "fx_bla_const", "fx_so3_sphere"):
        spec = spec_of(name)
        for p in points_of(spec, 30):
            alpha = ca._alpha_curvature(eval_fields(spec, p, FRAME))
            tau = ca._tau_curvature(eval_fields(spec, p, TAU))
            assert max_abs(alpha) <= 1e-12, name
            assert max_abs(tau) <= 1e-12, name


def test_alpha_curvature_zero_despite_s_nonzero(spec_of, points_of):
    # flatness of one induced connection does not certify compatibility
    spec = spec_of("fx_bla")
    for p in points_of(spec, 30):
        f = eval_fields(spec, p, FRAME)
        assert max_abs(ca._alpha_curvature(f)) == 0.0
        assert max_abs(ca._s_frame(f)) >= 1.0


def test_tau_curvature_nonzero(spec_of):
    spec = spec_of("fx_taucurv")
    R = ca._tau_curvature(eval_fields(spec, (0.9, 0.2), TAU))
    assert R[0, 0, 1, 0] == -1.0
    assert R[0, 1, 0, 0] == 1.0


def test_a_curvature_rank_one_vanishes_by_antisymmetry(spec_of, points_of):
    # A-curvature is antisymmetric in its frame pair, so rank 1 forces zero
    spec = spec_of("fx_omega_xdy")
    for p in points_of(spec, 20):
        assert max_abs(ca._tau_curvature(eval_fields(spec, p, TAU))) == 0.0
        assert max_abs(ca._alpha_curvature(eval_fields(spec, p, FRAME))) == 0.0


@pytest.mark.parametrize("name", LIE_FIXTURES)
def test_intertwining_of_induced_connections(name, spec_of, points_of):
    spec = spec_of(name)
    report, = run_checks(spec, points_of(spec, 100), [ca.TAU_INTERTWINE])
    assert report.max_residual <= 1e-10, name


# --------------------------------------------------------------------------
# Generalized residuals


def test_generalized_degenerates_to_killing_exactly(spec_of, points_of):
    doc = fixture_doc("fx_action_so2")
    doc["two_form"] = [["0", "0"], ["0", "0"]]
    spec = load_doc(doc)
    base = load_doc(fixture_doc("fx_action_so2"))
    for p in points_of(spec, 30):
        sym, skew = ca._generalized(eval_fields(spec, p, ca.GENERALIZED.reads))
        K = ca._killing_frame(eval_fields(base, p, KILLING))
        assert np.array_equal(sym, K)
        assert np.array_equal(skew, np.zeros_like(skew))


def test_generalized_rotation_invariant_pair(spec_of, points_of):
    spec = spec_of("fx_action_so2")  # carries B = dx ^ dy
    for p in points_of(spec, 50):
        f = eval_fields(spec, p, ca.GENERALIZED.reads)
        assert max(map(max_abs, ca.GENERALIZED.kernel(f))) <= 1e-15


def test_generalized_lie_derivative_oracle(points_of):
    # B = x dx ^ dy is not rotation invariant: skew residual is -y
    doc = fixture_doc("fx_action_so2")
    doc["two_form"] = [["0", "x"], ["-x", "0"]]
    spec = load_doc(doc)
    h = 1e-5
    for p in points_of(spec, 10):
        _, skew = ca._generalized(eval_fields(spec, p, ca.GENERALIZED.reads))
        assert skew[0, 0, 1] == pytest.approx(-p[1], rel=1e-12, abs=1e-12)
        # independent oracle: Lie derivative via the flow by finite differences
        x, y = p
        B = lambda q: q[0]
        phi = lambda q, t: np.array([q[0] * np.cos(t) - q[1] * np.sin(t),
                                     q[0] * np.sin(t) + q[1] * np.cos(t)])
        # pullback of B under the rotation flow; d/dt at 0 of B(phi_t) J(phi_t)
        lie_fd = (B(phi(p, h)) - B(phi(p, -h))) / (2 * h)
        assert skew[0, 0, 1] == pytest.approx(lie_fd, abs=1e-8)


def test_generalized_reads_the_spec_psi_block(points_of):
    # fx_action_so2's residuals are 0 at psi = 0; a psi block moves them by
    # -(psi_vee + psi_vee^T) and -(psi_wedge - psi_wedge^T), with
    # psi_vee = psi (x) rho^T B = psi (x) (-x, -y) and
    # psi_wedge = psi (x) rho^T g = psi (x) (-y, x)
    doc = fixture_doc("fx_action_so2")
    doc["psi"] = [[["x", "1 + y"]]]
    spec = load_doc(doc)
    for p in points_of(spec, 10):
        x, y = p
        sym, skew = ca._generalized(eval_fields(spec, p, ca.GENERALIZED.reads))
        psi = np.array([x, 1.0 + y])
        vee, wedge = np.outer(psi, [-x, -y]), np.outer(psi, [-y, x])
        np.testing.assert_allclose(sym[0], -(vee + vee.T), rtol=0.0, atol=1e-14)
        np.testing.assert_allclose(skew[0], -(wedge - wedge.T), rtol=0.0, atol=1e-14)
    doc["psi"] = [[["x"]]]
    with pytest.raises(SchemaError, match=r"^psi\[0\]\[0\]: expected 2 entries$"):
        load_doc(doc)


def test_generalized_requires_blocks(spec_of, points_of):
    spec = spec_of("fx_tm_flat")
    with pytest.raises(ValueError):
        ca._generalized(eval_fields(spec, (0.0, 0.0), ca.GENERALIZED.reads))


# --------------------------------------------------------------------------
# Symplectic / Poisson residuals


def test_symplectic_rotation_preserves_area_form(spec_of, points_of):
    spec = spec_of("fx_action_so2")
    for p in points_of(spec, 50):
        closed, residual = map(max_abs, ca.SYMPLECTIC.kernel(
            eval_fields(spec, p, ca.SYMPLECTIC.reads)))
        assert residual <= 1e-15
        assert closed == 0.0


def test_symplectic_conformal_needs_connection(points_of):
    doc = fixture_doc("fx_sympl_conf")
    doc["connection"] = [[["0", "0"]]]
    spec = load_doc(doc)
    res = ca._symplectic_residual(eval_fields(spec, (0.8, 0.1),
                                              ca.SYMPLECTIC.reads))
    assert res[0, 0, 1] == pytest.approx(1.6, rel=1e-12)


def test_symplectic_conformal_absorbed(spec_of, points_of):
    spec = spec_of("fx_sympl_conf")
    for p in points_of(spec, 50):
        f = eval_fields(spec, p, ca.SYMPLECTIC.reads)
        assert max_abs(ca._symplectic_residual(f)) <= 1e-14


def test_poisson_residuals(spec_of, points_of):
    linear = spec_of("fx_poisson_linear")
    res = ca._poisson_residual(eval_fields(linear, (0.4, -0.9), ca.POISSON.reads))
    assert res[0, 0, 1] == 1.0
    conf = spec_of("fx_sympl_conf")
    for p in points_of(conf, 50):
        f = eval_fields(conf, p, ca.POISSON.reads)
        assert max_abs(ca._poisson_residual(f)) <= 1e-14


# --------------------------------------------------------------------------
# Koszul perturbation test


def _psi_cube(entries, coords):
    return spec_model.load_cube(entries, coords, len(entries), len(coords), "psi")


def test_koszul_zero_perturbation(spec_of, points_of):
    spec = spec_of("fx_action_so2")
    psi = _psi_cube([[["0", "0"]]], ["x", "y"])
    report, = run_checks(spec, points_of(spec, 30), [ca.koszul_check(psi)])
    assert report.max_residual == 0.0


def test_koszul_admissible_perturbation_on_flat_frame(spec_of, points_of):
    # psi with (frame, form) antisymmetry after lowering: delta(psi) = 0, and
    # the extended Killing equations still hold for the perturbed connection
    spec = spec_of("fx_tm_flat")
    points = points_of(spec, 30)
    psi_entries = [[["0", "-(1 + x*y)"], ["1 + x*y", "0"]],
                   [["0", "exp(x)"], ["-exp(x)", "0"]]]
    psi = _psi_cube(psi_entries, ["x", "y"])
    report, = run_checks(spec, points, [ca.koszul_check(psi)])
    assert report.max_residual <= 1e-15
    doc = fixture_doc("fx_tm_flat")
    doc["connection"] = psi_entries
    perturbed = load_doc(doc)
    for p in points:
        assert max_abs(ca._killing_frame(eval_fields(perturbed, p, KILLING))) <= 1e-15


def test_koszul_inadmissible_perturbation(spec_of, points_of):
    spec = spec_of("fx_action_so2")
    points = points_of(spec, 30)
    psi = _psi_cube([[["1", "0"]]], ["x", "y"])
    report, = run_checks(spec, points, [ca.koszul_check(psi)])
    assert report.max_residual > 0.1
    doc = fixture_doc("fx_action_so2")
    doc["connection"] = [[["1", "0"]]]
    perturbed = load_doc(doc)
    worst = max(max_abs(ca._killing_frame(eval_fields(perturbed, p, KILLING)))
                for p in points)
    assert worst > 0.1


def test_koszul_builds_its_psi_block_once(spec_of, points_of, monkeypatch):
    spec = spec_of("fx_tm_flat")
    psi = _psi_cube([[["0", "x"], ["y", "0"]], [["1", "0"], ["0", "x*y"]]],
                    ["x", "y"])
    own = list(spec.block_entries.values())
    blocks = []             # the psi block read, once per point read

    def counting(block, points, order=0):
        if not any(block is b for b in own):
            blocks.extend([block] * len(np.reshape(points, (-1, spec.dimension))))
        return eval_block(block, points, order)
    monkeypatch.setattr(spec_model, "eval_block", counting)
    run_checks(spec, points_of(spec, 5), [ca.koszul_check(psi)])
    assert len(blocks) == 5 and all(block is blocks[0] for block in blocks)


# --------------------------------------------------------------------------
# Flat-frame probe


def test_probe_action_so2_trivial(spec_of):
    spec = spec_of("fx_action_so2")
    samples, reports = ca.flat_frame_probe(spec, (0.5, 0.5), grid_steps=3)
    assert np.array_equal(samples.frames,
                          np.broadcast_to(np.eye(1), samples.frames.shape))
    by_name = {r.name: r for r in reports}
    assert by_name["flat_frame_structure_constancy"].max_residual == 0.0
    assert by_name["flat_section_killing"].max_residual == 0.0


def test_probe_so3_structure_constants(spec_of):
    spec = spec_of("fx_so3_sphere")
    _, reports = ca.flat_frame_probe(spec, (0.2, -0.3), grid_steps=4)
    by_name = {r.name: r for r in reports}
    assert by_name["flat_frame_structure_constancy"].max_residual <= 1e-6
    assert by_name["flat_frame_path_independence"].max_residual <= 1e-6
    assert by_name["flat_section_killing"].max_residual <= 1e-6


def test_probe_bla_detects_nonconstant_bracket(spec_of):
    spec = spec_of("fx_bla")
    _, reports = ca.flat_frame_probe(spec, (1.25, 0.0), grid_steps=4)
    constancy = next(r for r in reports
                     if r.name == "flat_frame_structure_constancy")
    assert not constancy.passed
    assert constancy.max_residual >= 0.3  # comparable to the grid extent


def test_probe_requires_lie_mode(spec_of):
    # the CLI checks the mode before it calls the probe
    with pytest.raises(ValueError) as exc:
        ca.flat_frame_probe(spec_of("fx_free_heis"), (0.0, 0.0))
    assert str(exc.value) == "flat_frame_probe requires lie mode, spec is 'anchored'"


def test_probe_outside_the_chart_names_the_basepoint_as_floats(spec_of):
    with pytest.raises(ValueError) as exc:
        ca.flat_frame_probe(spec_of("fx_flat_exp"), (9.0, 0.0))
    assert str(exc.value) == "basepoint (9.0, 0.0) outside chart domain"


def test_probe_transport_matches_exact_solution(spec_of):
    # for omega = d(xy) the transport factor is exp(-xy)
    spec = spec_of("fx_flat_exp")
    samples, reports = ca.flat_frame_probe(spec, (0.0, 0.0), grid_steps=3)
    expected = np.exp(-samples.points[:, 0] * samples.points[:, 1])
    assert float(np.max(np.abs(samples.frames[:, 0, 0] - expected))) <= 1e-6
    assert all(r.passed for r in reports)


# omega = df with f = x + 2y - z: the transport factor is exp(-(f - f(base)))
EXACT_3D = {"chart": {"coords": ["x", "y", "z"], "domain": [[-1, 1]] * 3},
            "rank": 1, "mode": "lie", "anchor": [["0", "0", "0"]],
            "connection": [[["1", "2", "-1"]]]}
EXACT_3D_BASE = (0.1, -0.2, 0.3)


def test_probe_three_dimensional_exact_connection():
    # the grid's two axis orders, (x, y, z) and (z, y, x), must agree
    base = np.array(EXACT_3D_BASE)
    samples, reports = ca.flat_frame_probe(load_doc(EXACT_3D), base, grid_steps=3)
    assert len(samples.offsets) == 6 ** 3
    f = samples.points @ np.array([1.0, 2.0, -1.0])
    expected = np.exp(-(f - base @ np.array([1.0, 2.0, -1.0])))
    assert float(np.max(np.abs(samples.frames[:, 0, 0] - expected))) <= 1e-4
    assert [r.name for r in reports] == ["flat_frame_structure_constancy",
                                         "flat_frame_path_independence"]
    assert all(r.passed for r in reports)


def _sequential_grids(spec, grid_pts, ranges, axis_orders):
    """The probe's grids by RK4 on U itself, walk by walk and step by step,
    with each segment's connection read alone: the transport that the
    per-segment propagators replace, kept as their oracle."""
    offsets = list(product(*ranges))
    at = dict(zip(offsets, grid_pts))
    grids = []
    for order in axis_orders:
        frames = {(0,) * len(ranges): np.eye(spec.rank)}
        for axis in order:
            for start in list(frames):
                for d in (1, -1):
                    node = start
                    for i in sorted((i for i in ranges[axis] if i * d > 0), key=abs):
                        step = node[:axis] + (i,) + node[axis + 1:]
                        W = ca._segment_connections(spec, at[node][None],
                                                    at[step][None])
                        frames[step] = ca._transport(W, frames[node][None])[0]
                        node = step
        grids.append([frames[off] for off in offsets])
    return np.array(grids)


@pytest.mark.parametrize("name", LIE_FIXTURES + ["exact_3d"])
def test_probe_propagators_match_sequential_transport(monkeypatch, spec_of, name):
    # one _transport call per probe (none when the gate fails); frames within
    # 8 ULP of max |U| of the sequential transport, and the same verdicts (or
    # the same failing gate report)
    if name == "exact_3d":
        spec, base, steps = load_doc(EXACT_3D), EXACT_3D_BASE, 3
    else:
        spec = spec_of(name)
        base, steps = spec.chart.center(), 4
    calls, transport = [], ca._transport
    monkeypatch.setattr(ca, "_transport",
                        lambda W, U: calls.append(len(W)) or transport(W, U))
    samples, reports = ca.flat_frame_probe(spec, base, grid_steps=steps)
    assert len(calls) == (0 if samples is None else 1)
    monkeypatch.setattr(ca, "_transport_grids", _sequential_grids)
    oracle, oracle_reports = ca.flat_frame_probe(spec, base, grid_steps=steps)
    if oracle is None:
        assert samples is None
        assert [r.name for r in reports] == ["flat_frame_grid_gate"]
        assert reports == oracle_reports
        return
    assert samples.offsets == oracle.offsets
    assert np.array_equal(samples.points, oracle.points)
    ulp = np.spacing(np.max(np.abs(oracle.frames)))
    assert np.max(np.abs(samples.frames - oracle.frames)) <= 8 * ulp
    assert ([(r.name, r.passed) for r in reports]
            == [(r.name, r.passed) for r in oracle_reports])


def test_probe_flatness_gate(spec_of):
    spec = spec_of("fx_taucurv")
    samples, reports = ca.flat_frame_probe(spec, (0.0, 0.0))
    assert samples is None
    [gate] = reports
    assert gate.name == "flat_frame_grid_gate" and not gate.passed


def test_probe_rejects_outside_basepoint(spec_of):
    with pytest.raises(ValueError):
        ca.flat_frame_probe(spec_of("fx_action_so2"), (5.0, 0.0))


# --------------------------------------------------------------------------
# Cross-cutting invariants


@pytest.mark.parametrize("name", LIE_FIXTURES)
def test_cartan_implies_flat_induced_connections(name, spec_of, points_of):
    spec = spec_of(name)
    points = points_of(spec, 100)
    s_max = max(max_abs(ca._s_frame(eval_fields(spec, p, FRAME))) for p in points)
    if s_max <= 1e-9:
        for p in points:
            assert max_abs(ca._alpha_curvature(eval_fields(spec, p, FRAME))) <= 1e-7
            assert max_abs(ca._tau_curvature(eval_fields(spec, p, TAU))) <= 1e-7


@pytest.mark.parametrize("name", LIE_FIXTURES)
def test_first_derivatives_against_finite_differences(name, spec_of, points_of):
    # rebuild S from finite-difference derivative arrays and compare
    spec = spec_of(name)
    a, b = np.divmod(np.arange(spec.rank ** 2), spec.rank)
    for p in points_of(spec, 10):
        fd = ca.s_frame_components(*_fd_arrays(spec, p), a, b)
        jet = ca._s_frame(eval_fields(spec, p, FRAME))[:, a, b, :]
        assert float(np.max(np.abs(fd - jet))) <= 1e-6


@pytest.mark.parametrize("name", METRIC_FIXTURES)
def test_killing_derivatives_against_finite_differences(name, spec_of, points_of):
    spec = spec_of(name)
    h = 1e-5
    n = spec.dimension
    for p in points_of(spec, 10):
        rho, drho, *_ , omega, _ = _fd_arrays(spec, p)
        g = eval_fields(spec, p, {"metric": 0}).g
        dg = np.zeros((n, n, n))
        for k in range(n):
            shift = np.zeros(n)
            shift[k] = h
            dg[:, :, k] = (eval_fields(spec, p + shift, {"metric": 0}).g
                           - eval_fields(spec, p - shift, {"metric": 0}).g) / (2 * h)
        K_fd = ca.killing_frame_components(rho, drho, g, dg, omega)
        K = ca._killing_frame(eval_fields(spec, p, KILLING))
        assert float(np.max(np.abs(K - K_fd))) <= 1e-6
