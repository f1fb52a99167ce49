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
    AlgebroidSpec, CheckReport, check_values, eval_anchor, eval_connection,
    eval_metric, point_fields, report_from_residuals, tolerance_of,
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
    frame; ``energies[t]`` is g(gamma', gamma').  A trajectory that left the
    chart box ends at its last point inside, with ``exited`` set."""

    times: np.ndarray
    positions: np.ndarray        # (T, n)
    velocities: np.ndarray       # (T, n)
    energies: np.ndarray         # (T,)
    orth_raw: np.ndarray         # (T, r)
    orth_flat: np.ndarray        # (T, r)
    frames: np.ndarray           # (T, r, r) transported frame matrices
    exited: bool = False
    exit_time: float | None = None

    @property
    def energy_drift(self) -> float:
        return float(np.max(np.abs(self.energies - self.energies[0])))


def _rhs(spec: AlgebroidSpec, x, v, U):
    """Derivatives of (x, v, U) over a batch, and the metric read at x."""
    g, dg = eval_metric(spec, x, order=1)
    gamma, _ = christoffel_components(g, dg, x)
    acc = -np.einsum("...kij,...i,...j->...k", gamma, v, v)
    W = np.einsum("...i,...qai->...aq", v, eval_connection(spec, x, order=0))
    return v, acc, -W @ U, g


def geodesic_integrate(spec: AlgebroidSpec, x0, v0, t_max: float, h: float):
    """Integrate the geodesic equation from (x0, v0) in round(t_max / h)
    fixed steps of size h, at least one and at most ``MAX_STEPS``,
    transporting the frame along the trajectory.

    One start of shape ``(n,)`` gives one ``GeodesicTrace``, a ``(P, n)``
    batch a list of P traces.  Each RK4 stage reads the metric and the
    connection once over the live starts (the exit mask): a start that leaves
    the chart stops with its truncated trace and the others go on, so a trace
    does not depend on its batch.  A batch raises the error of the earliest
    step, then of the lowest start index that meets it.
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
    for p in x:
        if not spec.chart.contains(p):
            raise ValueError(f"initial point {tuple(p)} outside chart domain")
    U = np.tile(np.eye(spec.rank), (len(x), 1, 1))

    # states[k] = (live, x, v, U, g): the starts inside the chart at step k
    # and their state alone, g the metric stage k1 read at x
    live, ends, states = np.arange(len(x)), np.full(len(x), steps), []
    for k in range(steps):
        k1x, k1v, k1U, g = _rhs(spec, x, v, U)
        states.append((live, x, v, U, g))
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
    states.append((live, x, v, U, np.zeros(x.shape + x.shape[-1:])))

    X, V, F, G = (np.zeros((len(states),) + a.shape) for a in states[0][1:])
    for k, (at, *state) in enumerate(states):
        X[k, at], V[k, at], F[k, at], G[k, at] = state
    traces = []
    for p, end in enumerate(ends):
        xp, vp, Up, gp = (A[:end + 1, p].copy() for A in (X, V, F, G))
        if end == steps:        # the last point started no step
            gp[-1] = eval_metric(spec, xp[-1], order=0)
            require_positive_definite(gp[-1], xp[-1])
        rho = eval_anchor(spec, xp, order=0)
        rho_flat = np.einsum("tpa,tpj->taj", Up, rho)
        traces.append(GeodesicTrace(
            times=np.arange(end + 1) * h, positions=xp, velocities=vp,
            energies=((vp[:, None, :] @ gp) @ vp[:, :, None])[:, 0, 0],
            orth_raw=np.einsum("ti,tij,taj->ta", vp, gp, rho),
            orth_flat=np.einsum("ti,tij,taj->ta", vp, gp, rho_flat),
            frames=Up, exited=bool(end < steps),
            exit_time=float((end + 1) * h) if end < steps else None))
    return traces[0] if np.ndim(x0) == 1 else traces


def _span_projection_norm(g, rho, v):
    """g-norm of the projection of v onto span{rho_a}: the distance of v
    from the orthogonal complement of the realized anchor span."""
    G = rho @ g @ rho.T
    b = rho @ g @ v
    scale = max(1.0, float(np.max(np.abs(G))))
    coeff, *_ = np.linalg.lstsq(G + 0.0, b, rcond=1e-10 * scale)
    return float(np.sqrt(max(float(coeff @ G @ coeff), 0.0)))


def orthogonality_monitor(spec: AlgebroidSpec, trace: GeodesicTrace,
                          tol_override: float | None = None) -> CheckReport:
    """Drift report for the orthogonality values along a trace.

    If the spec passes the Killing check on the trace points, the monitored
    quantity is g(gamma', rho(e~_a)) for the transported flat frame, whose
    constancy is the content of the Riemannian-foliation statement.  For
    specs failing the Killing check there is no canonical flat frame, so the
    raw surrogate is the distance of gamma' from the orthogonal complement of
    the realized anchor span (flagged by the report name).  ``tol_override``
    replaces the table tolerances (``tolerance_of``).
    """
    if trace.positions.shape[0] == 0:
        raise ValueError("empty trace")
    probe = trace.positions[:: max(1, trace.positions.shape[0] // 10)]
    killing, = check_values(spec, probe, [KILLING])

    if float(np.max(killing[:, 0])) <= tolerance_of("killing_frame", tol_override):
        drift = np.max(np.abs(trace.orth_flat - trace.orth_flat[0]), axis=1)
        name = "orthogonality_flat_frame"
    else:
        f = point_fields(spec, trace.positions, {"metric": 0, "anchor": 0})
        norms = np.array([_span_projection_norm(g, rho, v)
                          for g, rho, v in zip(f.g, f.rho, trace.velocities)])
        drift = np.abs(norms - norms[0])
        name = "orthogonality_raw_span"

    return report_from_residuals(name, drift, trace.positions,
                                 tolerance_of("geodesic_orthogonality", tol_override))


def orthogonal_velocity(spec: AlgebroidSpec, x0, direction) -> np.ndarray:
    """Gram-Schmidt the candidate direction against {rho_a(x0)} in the metric
    at x0; at anchor rank drops the complement of the realized span is used.
    Returns the zero vector when the realized span already fills the tangent
    space."""
    v = np.array(direction, dtype=float)
    g = eval_metric(spec, x0, order=0)
    rho = eval_anchor(spec, x0, order=0)
    basis = []
    for a in range(spec.rank):
        w = rho[a].copy()
        for u in basis:
            w = w - (u @ g @ w) * u
        norm = float(np.sqrt(max(w @ g @ w, 0.0)))
        if norm > 1e-10:
            basis.append(w / norm)
    for u in basis:
        v = v - (u @ g @ v) * u
    return v
