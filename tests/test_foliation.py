import numpy as np
import pytest

from algebroid import foliation as fo
from algebroid.spec_model import SplitMix64, eval_anchor, eval_metric

from conftest import fixture_doc, load_doc


# --------------------------------------------------------------------------
# Integrator


def test_flat_metric_straight_lines(spec_of):
    spec = spec_of("fx_foliation_flat")
    trace = fo.geodesic_integrate(spec, [0.2, -0.3], [0.4, 0.1], 1.0, 1e-3)
    assert trace.energy_drift == 0.0
    expected = np.array([0.2, -0.3]) + trace.times[-1] * np.array([0.4, 0.1])
    assert np.allclose(trace.positions[-1], expected, atol=1e-14)
    assert not trace.exited


def test_initial_acceleration_sign(spec_of):
    # g = (1+y^2) dx^2 + dy^2: ydotdot(0) = y xdot^2 > 0, so y rises
    spec = spec_of("fx_nonriem_fol")
    v0 = 1.0 / np.sqrt(2.0)
    trace = fo.geodesic_integrate(spec, [0.0, 1.0], [v0, 0.0], 0.1, 1e-3)
    assert trace.velocities[10, 1] > 0.0
    measured = trace.velocities[10, 1] / trace.times[10]
    assert measured == pytest.approx(1.0 * v0 ** 2, rel=1e-2)


def test_energy_conserved_on_round_sphere_chart(spec_of):
    spec = spec_of("fx_so3_sphere")
    trace = fo.geodesic_integrate(spec, [0.3, -0.2], [0.8, 0.5], 1.0, 1e-3)
    assert trace.energy_drift <= 1e-8


def test_energy_drift_fourth_order_convergence(spec_of):
    spec = spec_of("fx_nonriem_fol")
    drift_h = fo.geodesic_integrate(spec, [0.0, 1.0], [1.2, 0.4], 1.0,
                                    0.05).energy_drift
    drift_h2 = fo.geodesic_integrate(spec, [0.0, 1.0], [1.2, 0.4], 1.0,
                                     0.025).energy_drift
    assert drift_h / drift_h2 >= 8.0


def test_domain_exit_flagged(spec_of):
    spec = spec_of("fx_nonriem_fol")
    trace = fo.geodesic_integrate(spec, [2.5, 1.0], [2.0, 0.0], 1.0, 1e-2)
    assert trace.exited
    assert trace.exit_time is not None and trace.exit_time <= 0.3
    assert spec.chart.contains(trace.positions[-1])


@pytest.mark.parametrize("v0, exits", [([0.4, 0.1], False), ([400.0, 0.0], True)])
def test_metric_read_once_per_stage(spec_of, monkeypatch, v0, exits):
    # four RK4 stages per step; a stored point's metric is stage k1's, and only
    # a last point that started no step reads it again
    reads = []
    monkeypatch.setattr(fo, "eval_metric",
                        lambda spec, x, order=0: reads.append(order)
                        or eval_metric(spec, x, order))
    trace = fo.geodesic_integrate(spec_of("fx_foliation_flat"), [0.2, -0.3], v0,
                                  0.01, 1e-3)
    assert trace.exited == exits
    steps = len(trace.times) - 1 + exits
    assert reads == [1] * 4 * steps + ([] if exits else [0])


def test_integrator_argument_validation(spec_of):
    spec = spec_of("fx_foliation_flat")
    with pytest.raises(ValueError):
        fo.geodesic_integrate(spec, [9.0, 0.0], [1.0, 0.0], 1.0, 1e-3)
    with pytest.raises(ValueError):
        fo.geodesic_integrate(spec, [0.0, 0.0], [1.0, 0.0], 1.0, -1e-3)
    bare = load_doc(fixture_doc("fx_omega_xdy"))
    with pytest.raises(ValueError):
        fo.geodesic_integrate(bare, [0.0, 0.0], [1.0, 0.0], 1.0, 1e-3)


# --------------------------------------------------------------------------
# Orthogonal starts


def test_orthogonal_velocity_is_orthogonal(spec_of):
    spec = spec_of("fx_so2_conformal")
    x0 = np.array([1.0, 0.4])
    v = fo.orthogonal_velocity(spec, x0, [0.5, -0.1])
    g = eval_metric(spec, x0, order=0)
    rho = eval_anchor(spec, x0, order=0)
    assert abs(v @ g @ rho[0]) <= 1e-12


def test_orthogonal_velocity_at_anchor_rank_drop(spec_of):
    # the rotation anchor vanishes at the origin: nothing to project out
    spec = spec_of("fx_action_so2")
    v = fo.orthogonal_velocity(spec, [0.0, 0.0], [0.3, 0.4])
    assert np.array_equal(v, np.array([0.3, 0.4]))


# --------------------------------------------------------------------------
# Orthogonality monitoring


def test_vertical_foliation_orthogonality(spec_of):
    spec = spec_of("fx_foliation_flat")
    trace = fo.geodesic_integrate(spec, [-1.0, 0.3], [1.5, 0.0], 1.0, 1e-3)
    report = fo.orthogonality_monitor(spec, trace)
    assert report.name == "orthogonality_flat_frame"
    assert report.max_residual == 0.0


def test_nonriemannian_foliation_drifts(spec_of):
    # the Killing check fails for every connection on this fixture, and the
    # geodesic picks up a leafward component past any 1e-2 threshold
    spec = spec_of("fx_nonriem_fol")
    v0 = fo.orthogonal_velocity(spec, [0.0, 1.0], [1.0, 0.0])
    v0 = v0 / np.linalg.norm(v0) / np.sqrt(2.0)
    trace = fo.geodesic_integrate(spec, [0.0, 1.0], v0, 1.0, 1e-3)
    report = fo.orthogonality_monitor(spec, trace)
    assert report.name == "orthogonality_raw_span"
    assert report.max_residual >= 1e-2


def test_so2_radial_geodesic_stays_radial(spec_of):
    spec = spec_of("fx_action_so2")
    v0 = fo.orthogonal_velocity(spec, [1.0, 0.0], [0.7, 0.2])
    trace = fo.geodesic_integrate(spec, [1.0, 0.0], v0, 1.0, 1e-3)
    report = fo.orthogonality_monitor(spec, trace)
    assert report.max_residual <= 1e-6


def test_orthogonality_random_starts_conformal(spec_of):
    # curved rotation-invariant metric: radial geodesics bend in speed but
    # stay orthogonal to the orbits
    spec = spec_of("fx_so2_conformal")
    rng = SplitMix64(2024)
    passes = 0
    while passes < 20:
        x0 = np.array([0.8 + rng.uniform(), 0.8 + rng.uniform()])
        raw = np.array([rng.uniform() - 0.5, rng.uniform() - 0.5])
        v0 = fo.orthogonal_velocity(spec, x0, raw)
        if np.linalg.norm(v0) < 1e-3:
            continue
        v0 = 0.5 * v0 / np.linalg.norm(v0)
        trace = fo.geodesic_integrate(spec, x0, v0, 1.0, 1e-3)
        assert not trace.exited
        report = fo.orthogonality_monitor(spec, trace)
        assert report.max_residual <= 1e-6
        passes += 1


def test_monitor_flags_raw_mode_only_without_killing(spec_of):
    spec = spec_of("fx_so2_conformal")
    trace = fo.geodesic_integrate(spec, [1.0, 0.0], [0.5, 0.0], 0.5, 1e-3)
    report = fo.orthogonality_monitor(spec, trace)
    assert report.name == "orthogonality_flat_frame"
