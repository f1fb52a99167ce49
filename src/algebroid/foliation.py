"""Geodesic integration and leaf-orthogonality monitoring.

The Riemannian-foliation property under test: a geodesic that starts
orthogonal to the anchor distribution stays orthogonal.  The integrator is
classical fixed-step RK4 (bitwise reproducible); alongside position and
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

__all__ = [
    "GeodesicTrace", "geodesic_integrate", "orthogonality_monitor",
    "orthogonal_velocity", "MAX_STEPS",
]

MAX_STEPS = 1_000_000       # RK4 steps one geodesic may ask for


@dataclass
class GeodesicTrace:
    """Uniform-step geodesic record with per-step diagnostics.

    ``orth_raw[t, a]`` is g(gamma', rho_a) against the frame at the current
    point; ``orth_flat[t, a]`` is the same pairing against the parallel-
    transported frame.  ``energy`` is g(gamma', gamma').  If the trajectory
    left the chart box the trace is truncated and flagged.
    """

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
    """Derivatives of (x, v, U), and the metric read at x."""
    g, dg = eval_metric(spec, x, order=1)
    gamma, _ = christoffel_components(g, dg, x)
    acc = -np.einsum("kij,i,j->k", gamma, v, v)
    omega = eval_connection(spec, x, order=0)
    W = np.einsum("i,qai->aq", v, omega)
    return v, acc, -W @ U, g


def geodesic_integrate(spec: AlgebroidSpec, x0, v0, t_max: float,
                       h: float) -> GeodesicTrace:
    """Integrate the geodesic equation from (x0, v0) in round(t_max / h)
    fixed steps of size h, at least one and at most ``MAX_STEPS``,
    transporting the frame along the trajectory."""
    if not (0.0 < h < np.inf and abs(t_max / h) < np.inf
            and round(t_max / h) >= 1):
        raise ValueError(f"need a finite positive h and a finite t_max of at "
                         f"least one step, got t_max={t_max}, h={h}")
    steps = int(round(t_max / h))
    if steps > MAX_STEPS:
        raise ValueError(f"t_max={t_max}, h={h} asks for {steps} RK4 steps, "
                         f"more than MAX_STEPS = {MAX_STEPS}")
    x = np.asarray(x0, dtype=float).copy()
    v = np.asarray(v0, dtype=float).copy()
    if not spec.chart.contains(x):
        raise ValueError(f"initial point {tuple(x)} outside chart domain")
    r = spec.rank
    U = np.eye(r)

    times, xs, vs, Us = [0.0], [x.copy()], [v.copy()], [U.copy()]
    gs = []                     # the metric at xs[k], read by stage k1
    exited = False
    exit_time = None
    for k in range(steps):
        k1x, k1v, k1U, g = _rhs(spec, x, v, U)
        gs.append(g)
        k2x, k2v, k2U, _ = _rhs(spec, x + h / 2 * k1x, v + h / 2 * k1v,
                                U + h / 2 * k1U)
        k3x, k3v, k3U, _ = _rhs(spec, x + h / 2 * k2x, v + h / 2 * k2v,
                                U + h / 2 * k2U)
        k4x, k4v, k4U, _ = _rhs(spec, x + h * k3x, v + h * k3v, U + h * k3U)
        x = x + h / 6 * (k1x + 2 * k2x + 2 * k3x + k4x)
        v = v + h / 6 * (k1v + 2 * k2v + 2 * k3v + k4v)
        U = U + h / 6 * (k1U + 2 * k2U + 2 * k3U + k4U)
        t = (k + 1) * h
        if not spec.chart.contains(x):
            exited = True
            exit_time = t
            break
        times.append(t)
        xs.append(x.copy())
        vs.append(v.copy())
        Us.append(U.copy())

    T = len(times)
    if len(gs) < T:             # the last stored point started no step
        gs.append(eval_metric(spec, xs[-1], order=0))
        require_positive_definite(gs[-1], xs[-1])
    rhos = eval_anchor(spec, np.array(xs), order=0)
    energies = np.zeros(T)
    orth_raw = np.zeros((T, r))
    orth_flat = np.zeros((T, r))
    for k, (g, rho) in enumerate(zip(gs, rhos)):
        energies[k] = float(vs[k] @ g @ vs[k])
        orth_raw[k] = np.einsum("i,ij,aj->a", vs[k], g, rho)
        rho_flat = np.einsum("pa,pj->aj", Us[k], rho)
        orth_flat[k] = np.einsum("i,ij,aj->a", vs[k], g, rho_flat)

    return GeodesicTrace(times=np.array(times), positions=np.array(xs),
                         velocities=np.array(vs), energies=energies,
                         orth_raw=orth_raw, orth_flat=orth_flat,
                         frames=np.array(Us), exited=exited,
                         exit_time=exit_time)


def _span_projection_norm(g, rho, v):
    """g-norm of the projection of v onto span{rho_a}: the distance of v
    from the orthogonal complement of the realized anchor span."""
    G = rho @ g @ rho.T
    b = rho @ g @ v
    scale = max(1.0, float(np.max(np.abs(G))))
    coeff, *_ = np.linalg.lstsq(G + 0.0, b, rcond=1e-10 * scale)
    val = float(coeff @ G @ coeff)
    return float(np.sqrt(max(val, 0.0)))


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
    killing_worst = float(np.max(killing[:, 0]))

    if killing_worst <= tolerance_of("killing_frame", tol_override):
        values = trace.orth_flat
        drift = np.max(np.abs(values - values[0]), axis=1)
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
    x0 = np.asarray(x0, dtype=float)
    v = np.asarray(direction, dtype=float).copy()
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
