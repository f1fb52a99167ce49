"""Geodesic integration and leaf-orthogonality monitoring.

The Riemannian-foliation property under test: a geodesic that starts
orthogonal to the anchor distribution stays orthogonal.  The integrator is
classical fixed-step RK4 over one start or a batch of starts, bitwise
reproducible and the same for a start in any batch; alongside position and
velocity it transports the frame with the pullback connection, so the
monitored quantity can be taken against covariantly constant sections when
the spec passes the Killing check.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .spec_model import (
    AlgebroidSpec, CheckReport, check_values, chunked, eval_fields,
    point_fields, report_from_residuals, tolerance_of,
)
from .calculus import KILLING, christoffel_components, require_positive_definite

__all__ = ["GeodesicTrace", "geodesic_integrate", "orthogonality_monitor",
           "orthogonal_velocity", "MAX_STEPS"]

MAX_STEPS = 1_000_000       # RK4 steps one geodesic may ask for


@dataclass
class GeodesicTrace:
    """Uniform-step geodesic record with per-step diagnostics.

    ``orth_raw[t, a]`` is g(gamma', rho_a) against the frame at the current
    point; ``orth_flat[t, a]`` the same against the parallel-transported
    frame; ``energies[t]`` is g(gamma', gamma'), all from the ``metrics`` and
    ``anchors`` read at each point.  A trajectory that left the chart box
    ends at its last point inside, with ``exited`` set."""

    times: np.ndarray
    positions: np.ndarray        # (T, n)
    velocities: np.ndarray       # (T, n)
    energies: np.ndarray         # (T,)
    orth_raw: np.ndarray         # (T, r)
    orth_flat: np.ndarray        # (T, r)
    frames: np.ndarray           # (T, r, r) transported frame matrices
    metrics: np.ndarray          # (T, n, n) the metric read at each point
    anchors: np.ndarray          # (T, r, n) the anchor read at each point
    exited: bool = False
    exit_time: float | None = None

    @property
    def energy_drift(self) -> float:
        return float(np.max(np.abs(self.energies - self.energies[0])))


def _rhs(spec: AlgebroidSpec, x, v, U):
    """Derivatives of (x, v, U) over a batch, and the metric read at x.  The
    chunk loop reads the metric, tests it, then reads the connection."""
    def run(f):
        return f.g, christoffel_components(f.g, f.dg, f.point)[0], f.omega()[0]
    g, gamma, omega = (np.concatenate(a) for a in zip(*chunked(
        spec, x, {"metric": 1}, run,
        [("omega", spec.block_entries["connection"], 0)])))
    acc = -np.einsum("...kij,...i,...j->...k", gamma, v, v)
    # C order, as a one-start batch reads it: a trace does not depend on its batch
    W = np.einsum("...i,...qai->...aq", v, np.ascontiguousarray(omega))
    return v, acc, -W @ U, g


def geodesic_integrate(spec: AlgebroidSpec, x0, v0, t_max: float, h: float):
    """Integrate the geodesic equation from (x0, v0) in round(t_max / h)
    fixed steps of size h, at least one and at most ``MAX_STEPS``,
    transporting the frame along the trajectory.

    One start of shape ``(n,)`` gives one ``GeodesicTrace``, a ``(P, n)``
    batch a list of P traces; the batch holds ``steps + 1`` rows per start
    (at most ``MAX_STEPS + 1``), filled as the starts run.  Each RK4 stage
    reads the metric and the connection once over the live starts (the exit
    mask): a start that leaves the chart stops with its truncated trace and
    the others go on, so a trace does not depend on its batch.  A batch
    raises the error of the earliest step, then of the lowest start index
    that meets it.
    """
    if not (0.0 < h < np.inf and abs(t_max / h) < np.inf
            and round(t_max / h) >= 1):
        raise ValueError(f"need a finite positive h and a finite t_max of at "
                         f"least one step, got t_max={t_max}, h={h}")
    steps = int(round(t_max / h))
    if steps > MAX_STEPS:
        raise ValueError(f"t_max={t_max}, h={h} asks for {steps} RK4 steps, "
                         f"more than MAX_STEPS = {MAX_STEPS}")
    if not (np.shape(x0) == np.shape(v0) and np.ndim(x0) in (1, 2)
            and np.size(x0)):
        raise ValueError(f"x0 and v0 must share a shape (n,) or (P, n), P > 0, "
                         f"got {np.shape(x0)} and {np.shape(v0)}")
    x, v = (np.array(a, dtype=float, ndmin=2) for a in (x0, v0))
    for p, u in zip(x, v):
        if not spec.chart.contains(p):
            raise ValueError(f"initial point {tuple(map(float, p))} outside chart domain")
        if not np.isfinite(u).all():
            raise ValueError(f"initial velocity {tuple(map(float, u))} not finite")
    U = np.tile(np.eye(spec.rank), (len(x), 1, 1))

    # row k: the state at step k of the starts live there, G the metric k1 read
    X, V, F, G = (np.zeros((steps + 1,) + shape) for shape in (
        x.shape, v.shape, U.shape, x.shape + x.shape[-1:]))
    live, ends = np.arange(len(x)), np.full(len(x), steps)
    for k in range(steps):
        k1x, k1v, k1U, G[k, live] = _rhs(spec, x, v, U)
        X[k, live], V[k, live], F[k, live] = x, v, U
        k2x, k2v, k2U, _ = _rhs(spec, x + h / 2 * k1x, v + h / 2 * k1v,
                                U + h / 2 * k1U)
        k3x, k3v, k3U, _ = _rhs(spec, x + h / 2 * k2x, v + h / 2 * k2v,
                                U + h / 2 * k2U)
        k4x, k4v, k4U, _ = _rhs(spec, x + h * k3x, v + h * k3v, U + h * k3U)
        x = x + h / 6 * (k1x + 2 * k2x + 2 * k3x + k4x)
        v = v + h / 6 * (k1v + 2 * k2v + 2 * k3v + k4v)
        U = U + h / 6 * (k1U + 2 * k2U + 2 * k3U + k4U)
        inside = [spec.chart.contains(p) for p in x]
        if not all(inside):     # the exit mask: a start that left ends at k
            ends[live[np.logical_not(inside)]] = k
            live, x, v, U = (a[inside] for a in (live, x, v, U))
            if not live.size:
                break
    X[steps, live], V[steps, live], F[steps, live] = x, v, U

    traces = []
    for p, end in enumerate(ends):
        xp, vp, Up, gp = (A[:end + 1, p].copy() for A in (X, V, F, G))
        if end == steps:        # the last point started no step
            gp[-1] = eval_fields(spec, xp[-1], {"metric": 0}).g
            require_positive_definite(gp[-1], xp[-1])
        rho = point_fields(spec, xp, {"anchor": 0}).rho
        rho_flat = np.einsum("tpa,tpj->taj", Up, rho)
        traces.append(GeodesicTrace(
            times=np.arange(end + 1) * h, positions=xp, velocities=vp,
            energies=((vp[:, None, :] @ gp) @ vp[:, :, None])[:, 0, 0],
            orth_raw=np.einsum("ti,tij,taj->ta", vp, gp, rho),
            orth_flat=np.einsum("ti,tij,taj->ta", vp, gp, rho_flat),
            frames=Up, metrics=gp, anchors=rho, exited=bool(end < steps),
            exit_time=float((end + 1) * h) if end < steps else None))
    return traces[0] if np.ndim(x0) == 1 else traces


def _span_projection(g, rho, v, points):
    """Coefficients on the rho_a of the g-orthogonal projection of v onto
    their span, and G = g(rho_a, rho_b), over any leading axes: one stacked
    pinv of G, cutting singular values at 1e-10 max(1, max|G|) of the largest.
    A G or g(rho_a, v) not finite raises, naming the earliest such point."""
    with np.errstate(over="ignore", invalid="ignore"):
        G = rho @ g @ np.swapaxes(rho, -1, -2)
        b = (rho @ g @ v[..., None])[..., 0]
    finite = np.isfinite(G).all(axis=(-2, -1)) & np.isfinite(b).all(axis=-1)
    if not finite.all():        # pinv would fail or hang on it
        raise ValueError(f"anchor Gram matrix not finite at trace point "
                         f"{tuple(map(float, np.atleast_2d(points)[finite.argmin()]))}")
    scale = np.maximum(1.0, np.max(np.abs(G), axis=(-2, -1)))
    coeff = (np.linalg.pinv(G, rcond=1e-10 * scale) @ b[..., None])[..., 0]
    return coeff, G


def orthogonality_monitor(spec: AlgebroidSpec, trace: GeodesicTrace,
                          tol_override: float | None = None) -> CheckReport:
    """Drift report for the orthogonality values along a trace.

    If the spec passes the Killing check on the trace points, the monitored
    quantity is g(gamma', rho(e~_a)) for the transported flat frame, whose
    constancy is the content of the Riemannian-foliation statement.  For
    specs failing the Killing check there is no canonical flat frame, so the
    raw surrogate is the distance of gamma' from the orthogonal complement of
    the realized anchor span (flagged by the report name), from the metric
    and anchor on the trace; the Killing probe is the only block read here.
    ``tol_override`` replaces the table tolerances (``tolerance_of``).
    """
    if trace.positions.shape[0] == 0:
        raise ValueError("empty trace")
    probe = trace.positions[:: max(1, trace.positions.shape[0] // 10)]
    killing, = check_values(spec, probe, [KILLING])

    if float(np.max(killing[:, 0])) <= tolerance_of("killing_frame", tol_override):
        drift = np.max(np.abs(trace.orth_flat - trace.orth_flat[0]), axis=1)
        name = "orthogonality_flat_frame"
    else:
        coeff, G = _span_projection(trace.metrics, trace.anchors,
                                    trace.velocities, trace.positions)
        norms = np.sqrt(np.maximum(np.einsum("ta,tab,tb->t", coeff, G, coeff), 0.0))
        drift = np.abs(norms - norms[0])
        name = "orthogonality_raw_span"

    return report_from_residuals(name, drift, trace.positions,
                                 tolerance_of("geodesic_orthogonality", tol_override))


def orthogonal_velocity(spec: AlgebroidSpec, x0, direction) -> np.ndarray:
    """The candidate direction less its g-orthogonal projection onto the
    realized span of {rho_a(x0)} (``_span_projection``, the rule the raw-span
    monitor measures by), so an anchor rank drop is allowed.  Returns the
    zero vector when the realized span already fills the tangent space."""
    v = np.array(direction, dtype=float)
    f = eval_fields(spec, x0, {"metric": 0, "anchor": 0})
    coeff, _ = _span_projection(f.g, f.rho, v, x0)
    return v - coeff @ f.rho
