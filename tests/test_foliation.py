import numpy as np
import pytest

from algebroid import foliation as fo
from algebroid.calculus import SingularMetricError
from algebroid.spec_model import (
    eval_anchor, eval_metric, sample_points, splitmix_uniforms,
)

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


@pytest.mark.parametrize("v0, exits", [
    ([0.4, 0.1], False), ([400.0, 0.0], True),
    ([[0.4, 0.1], [400.0, 0.0]], [False, True]),     # the second leaves mid-run
])
def test_metric_read_once_per_stage(spec_of, monkeypatch, v0, exits):
    # four RK4 stages per step, each reading the metric once at the starts
    # still inside the chart (read: (order, points)); a stored point's metric
    # is stage k1's, and only a last point that started no step reads it again
    reads = []
    monkeypatch.setattr(fo, "eval_metric",
                        lambda spec, x, order=0: reads.append((order, np.size(x) // 2))
                        or eval_metric(spec, x, order))
    x0 = np.broadcast_to([0.2, -0.3], np.shape(v0))
    traces = fo.geodesic_integrate(spec_of("fx_foliation_flat"), x0, v0,
                                   0.01, 1e-3)
    if np.ndim(v0) == 1:
        traces, exits = [traces], [exits]
    assert [trace.exited for trace in traces] == exits
    steps = [len(trace.times) - 1 + trace.exited for trace in traces]
    live = [sum(s > k for s in steps) for k in range(max(steps))]
    assert reads == ([(1, count) for count in live for _ in range(4)]
                     + [(0, 1)] * exits.count(False))


def test_integrator_argument_validation(spec_of):
    spec = spec_of("fx_foliation_flat")
    with pytest.raises(ValueError):
        fo.geodesic_integrate(spec, [9.0, 0.0], [1.0, 0.0], 1.0, 1e-3)
    with pytest.raises(ValueError):
        fo.geodesic_integrate(spec, [0.0, 0.0], [1.0, 0.0], 1.0, -1e-3)
    bare = load_doc(fixture_doc("fx_omega_xdy"))
    with pytest.raises(ValueError):
        fo.geodesic_integrate(bare, [0.0, 0.0], [1.0, 0.0], 1.0, 1e-3)
    with pytest.raises(ValueError, match="outside chart"):
        fo.geodesic_integrate(spec, [[0.0, 0.0], [9.0, 0.0]], [[1.0, 0.0]] * 2,
                              1.0, 1e-3)


@pytest.mark.parametrize("x0, v0", [
    ([0.0, 0.0], [[1.0, 0.0]]),
    ([[0.0, 0.0]], [1.0, 0.0]),
    ([[0.0, 0.0], [0.1, 0.0]], [[1.0, 0.0]] * 3),
    ([[[0.0, 0.0]]], [[[1.0, 0.0]]]),
    (np.zeros((0, 2)), np.zeros((0, 2))),
])
def test_starts_and_velocities_of_other_shapes_are_rejected(spec_of, x0, v0):
    with pytest.raises(ValueError, match="shape"):
        fo.geodesic_integrate(spec_of("fx_foliation_flat"), x0, v0, 1.0, 1e-3)


# --------------------------------------------------------------------------
# Batches of starts

# a conformally flat metric on R^3 with the so(3) rotation anchors and a
# connection with no zero entry, so that every contraction is exercised
SO3_CONFORMAL_R3 = {
    "chart": {"coords": ["x", "y", "z"], "domain": [[-1.5, 1.5]] * 3},
    "rank": 3, "mode": "lie",
    "anchor": [["0", "-z", "y"], ["z", "0", "-x"], ["-y", "x", "0"]],
    "structure": [{"a": 1, "b": 2, "c": 3, "expr": "-1"},
                  {"a": 1, "b": 3, "c": 2, "expr": "1"},
                  {"a": 2, "b": 3, "c": 1, "expr": "-1"}],
    "connection": [[[f"{0.1 * (a + 1)}*x - {0.2 * (b + 1)}*y*z + {0.3 * (i + 1)}"
                     for i in range(3)] for b in range(3)] for a in range(3)],
    "metric": [["exp(x^2 + y^2 + z^2)" if i == j else "0" for j in range(3)]
               for i in range(3)],
}


def _batch_starts(spec, count, seed):
    """``count`` starts drawn in the chart with velocities in [-1, 1)^n, and
    second in the batch, one near the upper end of the first coordinate that
    heads out of the chart in a few steps."""
    n = spec.dimension
    x0 = sample_points(spec.chart, count, seed)
    v0 = 2.0 * splitmix_uniforms(seed + 1, count * n).reshape(count, n) - 1.0
    lo, hi = spec.chart.domain[0]
    leave, out = spec.chart.center(), np.zeros(n)
    leave[0], out[0] = hi - 0.05 * (hi - lo), hi - lo
    return np.insert(x0, 1, leave, axis=0), np.insert(v0, 1, out, axis=0)


@pytest.mark.parametrize("name", ["fx_so3_sphere", "fx_nonriem_fol",
                                  "fx_killing_nonabelian", "so3_conformal_r3"])
def test_each_start_of_a_batch_matches_its_run_alone(spec_of, name):
    spec = (load_doc(SO3_CONFORMAL_R3) if name == "so3_conformal_r3"
            else spec_of(name))
    x0, v0 = _batch_starts(spec, 5, 7)
    batch = fo.geodesic_integrate(spec, x0, v0, 0.15, 1e-2)
    assert len(batch) == 6
    assert batch[1].exited and 1 < len(batch[1].times) < 15
    assert not all(trace.exited for trace in batch)
    for trace, x, v in zip(batch, x0, v0):
        alone = fo.geodesic_integrate(spec, x, v, 0.15, 1e-2)
        for field, value in vars(alone).items():
            got = getattr(trace, field)
            if isinstance(value, np.ndarray):
                assert (got.shape, got.dtype, got.tobytes()) == (
                    value.shape, value.dtype, value.tobytes()), field
            else:
                assert type(got) is type(value) and got == value, field


def test_a_batch_raises_the_error_of_the_earliest_step_then_lowest_start():
    # metric diag(1, y): a start falling toward y = 0 fails the metric test
    # there; the lower start fails first, and of two that fail at the same
    # step, the one with the lower index names its point
    doc = fixture_doc("fx_foliation_flat")
    doc["metric"] = [["1", "0"], ["0", "y"]]
    spec = load_doc(doc)
    late, early = [0.0, 0.5], [0.0, 0.05]
    early_too = [0.3, 0.05]
    fall = [0.0, -1.0]
    messages = {}
    for key, x0 in (("late", late), ("early", early), ("early_too", early_too)):
        with pytest.raises(SingularMetricError) as alone:
            fo.geodesic_integrate(spec, x0, fall, 1.0, 1e-2)
        messages[key] = str(alone.value)
    assert len(set(messages.values())) == 3
    for starts, first in (([late, early], "early"), ([early, late], "early"),
                          ([early_too, early, late], "early_too")):
        with pytest.raises(SingularMetricError) as batch:
            fo.geodesic_integrate(spec, starts, [fall] * len(starts), 1.0, 1e-2)
        assert str(batch.value) == messages[first]


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
    uniforms = iter(splitmix_uniforms(2024, 400))   # drawn in stream order
    x0s, v0s = [], []
    while len(x0s) < 20:
        x0 = np.array([0.8 + next(uniforms), 0.8 + next(uniforms)])
        raw = np.array([next(uniforms) - 0.5, next(uniforms) - 0.5])
        v0 = fo.orthogonal_velocity(spec, x0, raw)
        if np.linalg.norm(v0) < 1e-3:
            continue
        x0s.append(x0)
        v0s.append(0.5 * v0 / np.linalg.norm(v0))
    for trace in fo.geodesic_integrate(spec, np.array(x0s), np.array(v0s),
                                       1.0, 1e-3):
        assert not trace.exited
        report = fo.orthogonality_monitor(spec, trace)
        assert report.max_residual <= 1e-6


def test_monitor_flags_raw_mode_only_without_killing(spec_of):
    spec = spec_of("fx_so2_conformal")
    trace = fo.geodesic_integrate(spec, [1.0, 0.0], [0.5, 0.0], 0.5, 1e-3)
    report = fo.orthogonality_monitor(spec, trace)
    assert report.name == "orthogonality_flat_frame"
