import tracemalloc

import numpy as np
import pytest

from algebroid import foliation as fo, spec_model
from algebroid.calculus import SingularMetricError
from algebroid.exprjet import EvalDomainError, eval_block
from algebroid.spec_model import (
    eval_fields, point_fields, report_from_residuals, sample_points,
    splitmix_uniforms, tolerance_of,
)

from conftest import METRIC_FIXTURES, fixture_doc, load_doc


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
    spec = spec_of("fx_foliation_flat")
    metric, reads = spec.block_entries["metric"], []

    def counting(block, x, order=0):
        if block is metric:
            reads.append((order, np.size(x) // 2))
        return eval_block(block, x, order)
    monkeypatch.setattr(spec_model, "eval_block", counting)
    x0 = np.broadcast_to([0.2, -0.3], np.shape(v0))
    traces = fo.geodesic_integrate(spec, x0, v0, 0.01, 1e-3)
    if np.ndim(v0) == 1:
        traces, exits = [traces], [exits]
    assert [trace.exited for trace in traces] == exits
    steps = [len(trace.times) - 1 + trace.exited for trace in traces]
    live = [sum(s > k for s in steps) for k in range(max(steps))]
    assert reads == ([(1, count) for count in live for _ in range(4)]
                     + [(0, 1)] * exits.count(False))


def test_a_trace_takes_no_per_step_snapshot(spec_of):
    # the steps are written into arrays allocated once; a list of per-step
    # snapshot arrays took about 0.9 KB a step here
    spec = spec_of("fx_foliation_flat")
    fo.geodesic_integrate(spec, [-0.5, 0.3], [0.001, 0.0], 0.01, 1e-3)
    tracemalloc.start()
    try:
        fo.geodesic_integrate(spec, [-0.5, 0.3], [0.001, 0.0], 0.2, 1e-3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 200 * 500


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


@pytest.mark.parametrize("x0, v0, message", [
    ([0.0, 0.0], [np.nan, 0.0], "initial velocity (nan, 0.0) not finite"),
    ([0.0, 0.0], [0.0, -np.inf], "initial velocity (0.0, -inf) not finite"),
    ([[0.0, 0.0], [0.1, 0.0], [0.2, 0.0]], [[1.0, 0.0], [np.inf, 0.0], [np.nan] * 2],
     "initial velocity (inf, 0.0) not finite"),
], ids=["nan", "-inf", "second start of a batch"])
def test_a_non_finite_initial_velocity_is_rejected(spec_of, x0, v0, message):
    # the first start with a non-finite velocity is named
    with pytest.raises(ValueError) as err:
        fo.geodesic_integrate(spec_of("fx_foliation_flat"), x0, v0, 1.0, 1e-3)
    assert str(err.value) == message


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


@pytest.mark.parametrize("metric_yy, singular", [
    ("y+ln(y+3)*0", [0.5, -1.0]),       # B's metric is indefinite
    ("1+ln(y+1)*0", [0.5, -1.5]),       # B's metric entry leaves its domain
])
def test_a_batch_raises_what_its_lowest_failing_start_raises_alone(metric_yy, singular):
    # start A reads a metric that passes and a connection entry that fails;
    # B fails its metric read or test at the same stage: each stage runs the
    # metric read, its test and the connection read start by start once a
    # batch meets an error, so the lower index names its point
    doc = fixture_doc("fx_foliation_flat")
    doc["metric"] = [["1", "0"], ["0", metric_yy]]
    doc["connection"] = [[["ln(x+1)*0", "0"]]]
    spec = load_doc(doc)
    starts = {"A": [-1.5, 0.5], "B": singular}
    messages = {}
    for key, x0 in starts.items():
        with pytest.raises(Exception) as alone:
            fo.geodesic_integrate(spec, x0, [0.0, 0.1], 0.1, 1e-2)
        messages[key] = (type(alone.value), str(alone.value))
    assert messages["A"][1].startswith("connection[0][0][0]: ")
    assert messages["A"] != messages["B"]
    for order in ("AB", "BA"):
        with pytest.raises(Exception) as batch:
            fo.geodesic_integrate(spec, [starts[k] for k in order],
                                  [[0.0, 0.1]] * 2, 0.1, 1e-2)
        assert (type(batch.value), str(batch.value)) == messages[order[0]]


def test_an_anchor_failing_at_two_trace_points_names_the_earlier_one():
    # the trace runs x = -0.5, -0.46, -0.42, -0.38; anchor[0][0] fails only
    # at the last point and anchor[0][1] only at the first, so a read of the
    # whole trace at once meets the later point first
    doc = fixture_doc("fx_foliation_flat")
    doc["anchor"] = [["ln(-0.4-x)", "ln(x+0.48)"]]
    spec = load_doc(doc)
    with pytest.raises(EvalDomainError) as err:
        fo.geodesic_integrate(spec, [-0.5, 0.3], [0.4, 0.0], 0.3, 0.1)
    assert str(err.value).startswith("anchor[0][1]: ln of nonpositive value in ")
    assert err.value.point == (-0.5, 0.3)


# --------------------------------------------------------------------------
# Orthogonal starts


def test_orthogonal_velocity_is_orthogonal(spec_of):
    spec = spec_of("fx_so2_conformal")
    x0 = np.array([1.0, 0.4])
    v = fo.orthogonal_velocity(spec, x0, [0.5, -0.1])
    f = eval_fields(spec, x0, {"metric": 0, "anchor": 0})
    g, rho = f.g, f.rho
    assert abs(v @ g @ rho[0]) <= 1e-12


def test_orthogonal_velocity_at_anchor_rank_drop(spec_of):
    # the rotation anchor vanishes at the origin: nothing to project out
    spec = spec_of("fx_action_so2")
    v = fo.orthogonal_velocity(spec, [0.0, 0.0], [0.3, 0.4])
    assert np.array_equal(v, np.array([0.3, 0.4]))


def test_orthogonal_velocity_projects_out_a_span_of_rank_two():
    # the conformal metric keeps the rotation orbits orthogonal to the radius,
    # so what is left is the radial part of the direction; the third rotation
    # field lies in the span of the first two and is skipped
    spec = load_doc(SO3_CONFORMAL_R3)
    x0, d = np.array([0.3, -0.2, 0.5]), np.array([0.1, 0.7, -0.4])
    v = fo.orthogonal_velocity(spec, x0, d)
    assert np.allclose(v, (d @ x0) / (x0 @ x0) * x0, rtol=0.0, atol=1e-15)
    assert np.max(np.abs(np.cross(v, x0))) <= 1e-15


def test_orthogonal_velocity_is_zero_where_the_anchors_span_the_tangent_space(spec_of):
    v = fo.orthogonal_velocity(spec_of("fx_tm_flat"), [0.3, -0.7], [0.4, 1.1])
    assert np.array_equal(v, np.zeros(2))


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


def test_the_raw_span_monitor_reads_the_metric_and_anchor_of_the_trace(
        spec_of, monkeypatch):
    # the trace keeps the metric (stage k1's order-1 read) and the anchor the
    # integrator read at each point; they equal an order-0 read bit for bit,
    # so the report is the one a fresh read of both gives
    spec = spec_of("fx_nonriem_fol")
    trace = fo.geodesic_integrate(spec, [0.0, 1.0], [1.2, 0.4], 0.5, 1e-2)
    f = point_fields(spec, trace.positions, {"metric": 0, "anchor": 0})
    assert trace.metrics.tobytes() == np.ascontiguousarray(f.g).tobytes()
    assert trace.anchors.tobytes() == np.ascontiguousarray(f.rho).tobytes()
    norms = _raw_span_norms(f.g, f.rho, trace.velocities, trace.positions)
    fresh = report_from_residuals("orthogonality_raw_span", np.abs(norms - norms[0]),
                                  trace.positions, tolerance_of("geodesic_orthogonality"))

    def no_read(*args, **kwargs):
        raise AssertionError("the monitor read a block")
    monkeypatch.setattr(fo, "point_fields", no_read)
    report = fo.orthogonality_monitor(spec, trace)
    assert report == fresh
    assert (report.max_residual, report.worst_point) == (
        0.6124309521905976, (0.5167628711878359, 1.3632989791368897))


def _raw_span_norms(g, rho, v, points):
    """The raw-span monitor's norms: the g-norm of v's projection onto the
    anchor span at each point."""
    coeff, G = fo._span_projection(g, rho, v, points)
    return np.sqrt(np.maximum(np.einsum("ta,tab,tb->t", coeff, G, coeff), 0.0))


# a lone anchor of g-norm 1e-12: it still spans the x axis
LONE_SMALL_ANCHOR = {
    "chart": {"coords": ["x", "y"], "domain": [[-1.0, 1.0], [-1.0, 1.0]]},
    "rank": 1, "mode": "anchored", "anchor": [["1e-12", "0"]],
    "connection": [[["0", "0"]]], "metric": [["1", "0"], ["0", "1"]],
}


@pytest.mark.parametrize("name", METRIC_FIXTURES + ["lone_small_anchor"])
def test_an_orthogonal_start_has_no_raw_span_component(spec_of, name):
    # the launch and the monitor draw the anchor span by one rule, so the
    # monitor reads an orthogonal start as orthogonal at its first point
    spec = (load_doc(LONE_SMALL_ANCHOR) if name == "lone_small_anchor"
            else spec_of(name))
    x0s = sample_points(spec.chart, 4, 3)
    directions = splitmix_uniforms(4, x0s.size).reshape(x0s.shape) - 0.5
    for x0, d in zip(x0s, directions):
        v = fo.orthogonal_velocity(spec, x0, d)
        trace = fo.geodesic_integrate(spec, x0, v, 1e-2, 1e-2)
        norm = _raw_span_norms(trace.metrics, trace.anchors, trace.velocities,
                               trace.positions)[0]
        # against the direction: where the anchors span the tangent space,
        # v is rounding left over from d
        assert norm <= 1e-12 * np.linalg.norm(d)


def test_the_lone_small_anchor_is_projected_out():
    v = fo.orthogonal_velocity(load_doc(LONE_SMALL_ANCHOR), [0.1, 0.2], [1.0, 1.0])
    assert np.array_equal(v, np.array([0.0, 1.0]))


def test_the_batched_raw_span_norms_match_a_per_point_lstsq(spec_of):
    def lstsq_norm(g, rho, v):
        G, b = rho @ g @ rho.T, rho @ g @ v
        rcond = 1e-10 * max(1.0, float(np.max(np.abs(G))))
        coeff = np.linalg.lstsq(G, b, rcond=rcond)[0]
        return np.sqrt(max(float(coeff @ G @ coeff), 0.0))
    spec = spec_of("fx_nonriem_fol")
    x0, v0 = _batch_starts(spec, 5, 11)
    for trace in fo.geodesic_integrate(spec, x0, v0, 0.5, 1e-2):
        norms = _raw_span_norms(trace.metrics, trace.anchors, trace.velocities,
                                trace.positions)
        oracle = [lstsq_norm(*at) for at in zip(trace.metrics, trace.anchors,
                                                trace.velocities)]
        assert np.max(np.abs(norms - oracle)) <= 1e-15


def test_monitor_flags_raw_mode_only_without_killing(spec_of):
    spec = spec_of("fx_so2_conformal")
    trace = fo.geodesic_integrate(spec, [1.0, 0.0], [0.5, 0.0], 0.5, 1e-3)
    report = fo.orthogonality_monitor(spec, trace)
    assert report.name == "orthogonality_flat_frame"
