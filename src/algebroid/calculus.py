"""Tensor calculus for anchored bundles and Lie algebroids with connections,
as kernels over the fields of a spec and the ``spec_model.Check`` rows that
``algebroid check`` runs once per chunk of sample points: compatibility
tensor (frame and covariant forms), connection and induced-connection
curvatures, Killing residuals in both formulations, generalized Riemannian /
symplectic / Poisson residuals, the Koszul perturbation test, and the
covariantly-constant-frame probe.

Index conventions used throughout (all arrays numpy; a kernel reads them with
any leading point axes, which its ``...`` einsums and negative axes carry
through, and which ``eval_block`` and ``take`` keep innermost in memory):

    rho[a, i]          anchor components rho_a^i
    drho[a, i, j]      d_j rho_a^i
    C[a, b, c]         structure functions, [e_a, e_b] = C[a,b,c] e_c
    omega[a, b, i]     connection forms, nabla e_a = omega[a,b,i] dx^i (x) e_b
    g[i, j], dg[i,j,k] metric and d_k g_{ij}
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

import numpy as np

from .exprjet import Block
from .spec_model import (
    AlgebroidSpec, Check, SingularMetricError, anchor_bracket, leading_minors,
    per_point, point_fields, report_from_residuals, tolerance_of,
)

__all__ = [
    "CARTAN_CHECKS", "TAU_INTERTWINE", "KILLING", "GENERALIZED", "SYMPLECTIC",
    "POISSON", "FLAT_FRAME_GATE", "koszul_check", "FrameSamples",
    "SingularMetricError", "flat_frame_probe",
]


# --------------------------------------------------------------------------
# Array-level kernels (shared with the free-algebroid extension)


def take(x, k, axis):
    """``x.take(k, axis)`` for a negative ``axis``, by indexing, which keeps a
    point axis innermost in memory (a take copies ``x`` and its result to C order)."""
    return x[(Ellipsis, k) + (slice(None),) * (-1 - axis)]


def lie_derivative_cov2(rho, drho, T, dT):
    """(L_{rho_a} T)_{ij} for a covariant 2-tensor, all frame rows at once."""
    return (np.einsum("...ak,...ijk->...aij", rho, dT)
            + np.einsum("...aki,...kj->...aij", drho, T)
            + np.einsum("...akj,...ik->...aij", drho, T))


def curvature_components(omega, domega):
    """F[a,c,i,j] = F^c_{a,ij} = d_i omega^c_{a,j} - d_j omega^c_{a,i}
    + omega^q_{a,j} omega^c_{q,i} - omega^q_{a,i} omega^c_{q,j}."""
    d1 = np.swapaxes(domega, -2, -1)         # d1[a,c,i,j] = d_i omega^c_{a,j}
    quad = np.einsum("...aqj,...qci->...acij", omega, omega)
    return d1 - np.swapaxes(d1, -2, -1) + quad - np.swapaxes(quad, -2, -1)


def a_torsion_components(rho, omega, C):
    """AT[a,b,c] = rho_a^j omega^c_{b,j} - rho_b^j omega^c_{a,j} - C^c_{ab}."""
    t = np.einsum("...aj,...bcj->...abc", rho, omega)
    return t - np.swapaxes(t, -3, -2) - C


def s_frame_components(rho, drho, C, dC, omega, domega, a, b):
    """S[c,k,i] = S^c_{a[k] b[k], i} from the local-frame expansion of the
    splitting curvature, for the frame index pairs listed in ``a`` and ``b``.
    Each component is summed in the same order whichever pairs are listed."""
    N, k = rho.shape[-2], len(a)
    # the terms S antisymmetrizes, once per distinct ordered pair (u, v)
    # among the listed pairs and their swaps; at[k] is the slot of pair k
    slots: dict = {}
    at = np.array([slots.setdefault(key, len(slots)) for key in
                   np.concatenate([a * N + b, b * N + a]).tolist()], dtype=int)
    u, v = np.divmod(np.array(list(slots), dtype=int), N)
    omega_u, omega_v = take(omega, u, -3), take(omega, v, -3)
    lie = (np.einsum("...kj,...kcij->...cki", take(rho, u, -2), take(domega, v, -4))
           + np.einsum("...kji,...kcj->...cki", take(drho, u, -3), omega_v))
    # omega_v(rho_q), then contracted with omega_u: two pairwise einsums, not
    # numpy's nested loop over all three operands
    quad = np.einsum("...kcq,...kqi->...cki",
                     np.einsum("...qj,...kcj->...kcq", rho, omega_v), omega_u)
    mix = np.einsum("...kqi,...kqc->...cki", omega_v, take(C, u, -3))
    ab, ba = at[:k], at[k:]
    asym = (take(lie, ab, -2) - take(lie, ba, -2)
            - (take(quad, ab, -2) - take(quad, ba, -2))
            + (take(mix, ab, -2) - take(mix, ba, -2)))
    nabla_bracket = (np.swapaxes(dC[..., a, b, :, :], -3, -2)
                     + np.einsum("...kq,...qci->...cki", C[..., a, b, :], omega))
    return asym - nabla_bracket


def s_covariant_components(rho, drho, C, dC, omega, domega):
    """S[c,a,b,i] from the tensorial identity: covariant derivative of the
    A-torsion plus the antisymmetrized anchor-curvature contraction."""
    AT = a_torsion_components(rho, omega, C)
    dAT = (np.einsum("...aji,...bcj->...abci", drho, omega)
           + np.einsum("...aj,...bcji->...abci", rho, domega))
    dAT = dAT - np.swapaxes(dAT, -4, -3) - dC
    F = curvature_components(omega, domega)
    cov = (np.moveaxis(dAT, -2, -4)
           + np.einsum("...qci,...abq->...cabi", omega, AT)
           - np.einsum("...aqi,...qbc->...cabi", omega, AT)
           - np.einsum("...bqi,...aqc->...cabi", omega, AT))
    anchor_F = np.einsum("...aj,...bcji->...cabi", rho, F)
    return cov + anchor_F - np.swapaxes(anchor_F, -3, -2)


def killing_frame_components(rho, drho, g, dg, omega):
    """K[a,i,j] = (L_{rho_a} g)_{ij} - omega^b_{a,i} (i_{rho_b} g)_j
    - omega^b_{a,j} (i_{rho_b} g)_i."""
    lie = lie_derivative_cov2(rho, drho, g, dg)
    rbar = np.einsum("...ak,...kj->...aj", rho, g)
    vee = np.einsum("...abi,...bj->...aij", omega, rbar)
    return lie - vee - np.swapaxes(vee, -2, -1)


def require_positive_definite(g, point):
    """Raise SingularMetricError unless the leading minors of the metric g
    read at ``point`` are all finite and positive; of a stack of metrics read
    at a ``(P, n)`` batch of points, the first one that fails names its point."""
    n = g.shape[-1]
    for k, minors in enumerate(leading_minors(g).reshape(-1, n).tolist()):
        if not all(0.0 < m < np.inf for m in minors):
            at = tuple(map(float, np.reshape(point, (-1, n))[k]))
            raise SingularMetricError(f"metric: leading minors {minors} not all "
                                      f"positive at point {at}")


def christoffel_components(g, dg, point):
    """Gamma[k,i,j] and the inverse metric of g, dg read at ``point``."""
    require_positive_definite(g, point)
    ginv = np.linalg.inv(g)
    gamma = 0.5 * (np.einsum("...kl,...jli->...kij", ginv, dg)
                   + np.einsum("...kl,...ilj->...kij", ginv, dg)
                   - np.einsum("...kl,...ijl->...kij", ginv, dg))
    return gamma, ginv


def tau_coefficients(rho, drho, omega):
    """Theta[a,i,j] with tau-nabla_{e_a} d_j = Theta[a,i,j] d_i; equals
    [rho_a, d_j] + rho(nabla_{d_j} e_a) = (-d_j rho_a^i + omega^b_{a,j} rho_b^i) d_i."""
    return -drho + np.einsum("...abj,...bi->...aij", omega, rho)


# --------------------------------------------------------------------------
# Kernels over the fields (spec_model.eval_fields: f.rho, f.dC...) at a point
# or, with a leading point axis, at a chunk of points


def _s_frame(f):
    """S[c,a,b,i] over all pairs of frame indices."""
    r, n = f.rho.shape[-2:]
    a, b = np.divmod(np.arange(r * r), r)
    S = s_frame_components(f.rho, f.drho, f.C, f.dC, f.omega, f.domega, a, b)
    return S.reshape(S.shape[:-2] + (r, r, n))


def _killing_frame(f):
    return killing_frame_components(f.rho, f.drho, f.g, f.dg, f.omega)


def _killing_sym(f):
    """Symmetrized covariant derivative of rho-bar, the metric dual of the
    anchor, [a,i,j]; vanishing is equivalent to the frame Killing equations."""
    g, dg, rho = f.g, f.dg, f.rho
    gamma, _ = christoffel_components(g, dg, f.point)
    rbar = np.einsum("...jk,...ak->...aj", g, rho)
    drbar = (np.einsum("...jki,...ak->...aji", dg, rho)
             + np.einsum("...jk,...aki->...aji", g, f.drho))   # d_i rbar_{a,j}
    M = (np.swapaxes(drbar, -2, -1)                            # [a, i, j]
         - np.einsum("...kij,...ak->...aij", gamma, rbar)
         - np.einsum("...abi,...bj->...aij", f.omega, rbar))
    return 0.5 * (M + np.swapaxes(M, -2, -1))


def _alpha_curvature(f):
    """Curvature R^d_{abc} of the dual A-connection on the bundle, [d,a,b,c]."""
    rho, C = f.rho, f.C
    D = C + np.einsum("...bj,...acj->...abc", rho, f.omega)
    dD = (f.dC + np.einsum("...bji,...acj->...abci", f.drho, f.omega)
          + np.einsum("...bj,...acji->...abci", rho, f.domega))
    rhoD = np.einsum("...ai,...bcdi->...abcd", rho, dD)
    R = (rhoD - np.swapaxes(rhoD, -4, -3)
         + np.einsum("...bce,...aed->...abcd", D, D)
         - np.einsum("...ace,...bed->...abcd", D, D)
         - np.einsum("...abe,...ecd->...abcd", C, D))
    return np.moveaxis(R, -1, -4)


def _tau_curvature(f):
    """Curvature R^i_{ab,j} of the induced A-connection on coordinate vector
    fields, [i,a,b,j]."""
    rho, drho, omega = f.rho, f.drho, f.omega
    theta = tau_coefficients(rho, drho, omega)
    dtheta = (-f.d2rho + np.einsum("...abjk,...bi->...aijk", f.domega, rho)
              + np.einsum("...abj,...bik->...aijk", omega, drho))
    rho_theta = np.einsum("...ak,...bijk->...abij", rho, dtheta)
    R = (rho_theta - np.swapaxes(rho_theta, -4, -3)
         + np.einsum("...bkj,...aik->...abij", theta, theta)
         - np.einsum("...akj,...bik->...abij", theta, theta)
         - np.einsum("...abe,...eij->...abij", f.C, theta))
    return np.moveaxis(R, -2, -4)


def _tau_intertwine(f):
    """(tau-nabla_{e_a} rho(e_b))^i - rho(alpha-nabla_{e_a} e_b)^i, [a,b,i]."""
    rho = f.rho
    lhs = anchor_bracket(rho, f.drho) + np.einsum("...bj,...acj,...ci->...abi",
                                                  rho, f.omega, rho)
    D = f.C + np.einsum("...bj,...acj->...abc", rho, f.omega)
    return lhs - np.einsum("...abc,...ci->...abi", D, rho)


def _generalized(f):
    """(sym, skew) blocks of the combined residual for Phi = g + B with the
    endomorphism-valued 1-form psi."""
    rho, drho, omega, psi = f.rho, f.drho, f.omega, f.psi
    rbar_g = np.einsum("...ak,...kj->...aj", rho, f.g)
    rbar_B = np.einsum("...ak,...kj->...aj", rho, f.B)

    sym = killing_frame_components(rho, drho, f.g, f.dg, omega)
    psi_vee = np.einsum("...abi,...bj->...aij", psi, rbar_B)
    sym = sym - (psi_vee + np.swapaxes(psi_vee, -2, -1))

    lie_B = lie_derivative_cov2(rho, drho, f.B, f.dB)
    om_wedge = np.einsum("...abi,...bj->...aij", omega, rbar_B)
    psi_wedge = np.einsum("...abi,...bj->...aij", psi, rbar_g)
    skew = (lie_B - (om_wedge - np.swapaxes(om_wedge, -2, -1))
            - (psi_wedge - np.swapaxes(psi_wedge, -2, -1)))
    return sym, skew


def _closedness(f):
    """d_{[i} Omega_{jk]} (identically zero for n = 2)."""
    t = np.moveaxis(f.dOm, -1, -3)          # t[i,j,k] = d_i Omega_{jk}
    return t + np.moveaxis(t, -3, -1) + np.moveaxis(t, -1, -3)


def _symplectic_residual(f):
    """tau-nabla residual of the symplectic form (covariant slots)."""
    lie = lie_derivative_cov2(f.rho, f.drho, f.Om, f.dOm)
    iota = np.einsum("...bk,...kj->...bj", f.rho, f.Om)
    wedge = np.einsum("...abi,...bj->...aij", f.omega, iota)
    return lie - (wedge - np.swapaxes(wedge, -2, -1))


def _poisson_residual(f):
    """tau-nabla residual of the Poisson bivector (contravariant slots,
    left/right contraction placement)."""
    rho, drho, P = f.rho, f.drho, f.P
    lie = (np.einsum("...ak,...ijk->...aij", rho, f.dP)
           - np.einsum("...aik,...kj->...aij", drho, P)
           - np.einsum("...ajk,...ik->...aij", drho, P))
    left = np.einsum("...bi,...abk,...kj->...aij", rho, f.omega, P)
    right = np.einsum("...ik,...abk,...bj->...aij", P, f.omega, rho)
    return lie + left + right


# --------------------------------------------------------------------------
# Checks over sample points: the rows that `algebroid check` selects by flag

_FRAME1 = {"anchor": 1, "structure": 1, "connection": 1}


def _cartan(f):
    S = _s_frame(f)
    return S, S - s_covariant_components(f.rho, f.drho, f.C, f.dC, f.omega, f.domega)


def _killing(f):
    K = _killing_frame(f)
    return K, K - 2.0 * _killing_sym(f)


TAU_INTERTWINE = Check(("tau_intertwine",),
                       {"anchor": 1, "structure": 0, "connection": 0},
                       lambda f: (_tau_intertwine(f),))
CARTAN_CHECKS = (
    Check(("cartan_s_frame", "s_frame_vs_covariant"), _FRAME1, _cartan),
    TAU_INTERTWINE,
    # Cartan compatibility implies both induced connections are flat
    Check(("alpha_curvature_flat",), _FRAME1,
          lambda f: (_alpha_curvature(f),), gate="cartan_s_frame"),
    Check(("tau_curvature_flat",), {"anchor": 2, "structure": 0, "connection": 1},
          lambda f: (_tau_curvature(f),), gate="cartan_s_frame"),
)
KILLING = Check(("killing_frame", "killing_frame_vs_sym"),
                {"anchor": 1, "metric": 1, "connection": 0}, _killing)
GENERALIZED = Check(("generalized_sym", "generalized_skew"),
                    {"anchor": 1, "metric": 1, "two_form": 1, "connection": 0,
                     "psi": 0}, _generalized)
SYMPLECTIC = Check(("symplectic_closed", "symplectic_residual"),
                   {"anchor": 1, "symplectic": 1, "connection": 0},
                   lambda f: (_closedness(f), _symplectic_residual(f)))
POISSON = Check(("poisson_residual",), {"anchor": 1, "poisson": 1, "connection": 0},
                lambda f: (_poisson_residual(f),))
FLAT_FRAME_GATE = Check(("flat_frame_gate",), {"connection": 1},
                        lambda f: (curvature_components(f.omega, f.domega),))


def koszul_check(psi_block: Block) -> Check:
    """Koszul obstruction for perturbing the connection by the [a][b][i]
    ``psi_block`` (``spec_model.load_cube``): symmetrized contraction of psi
    against the metric dual of the anchor."""
    def kernel(f):
        psi, = f.psi_candidate()
        half = np.einsum("...abi,...bj->...aij", psi,
                         np.einsum("...ak,...kj->...aj", f.rho, f.g))
        return 0.5 * (half + np.swapaxes(half, -2, -1)),
    return Check(("koszul_delta",), {"anchor": 0, "metric": 0}, kernel,
                 blocks=(("psi_candidate", psi_block, 0),))


# --------------------------------------------------------------------------
# Covariantly constant frame probe


@dataclass(frozen=True)
class FrameSamples:
    """Parallel-transported frames on an axis-aligned grid around a basepoint.

    ``frames[k]`` is the transport matrix U at ``points[k]``; transported
    sections are e~_a = U[:, a]-weighted combinations of the original frame.
    """

    offsets: tuple[tuple[int, ...], ...]
    points: np.ndarray        # (num_nodes, n)
    frames: np.ndarray        # (num_nodes, r, r)


_SUBSTEPS = 8       # RK4 steps per segment, so t runs over multiples of 1/16


def _segment_connections(spec, q0, q1):
    """-omega(gamma') along the segments q0[s] -> q1[s] at the times m/16 an
    RK4 step visits, from one batched read: shape (segments, 17, r, r)."""
    dx = q1 - q0
    times = np.arange(2 * _SUBSTEPS + 1) / (2 * _SUBSTEPS)
    at = q0[:, None, :] + times[None, :, None] * dx[:, None, :]
    omega = point_fields(spec, at.reshape(-1, dx.shape[1]), {"connection": 0}).omega
    return -np.einsum("si,stqai->staq", dx,
                      omega.reshape(at.shape[:2] + omega.shape[1:]))


def _transport(W, U):
    """RK4 for dU/dt = -omega(gamma')U over t in [0, 1], for a stack of
    segments with their ``_segment_connections`` W and start frames U.  The
    step is linear in U, so U = 1 gives each segment's propagator."""
    h = 1.0 / _SUBSTEPS
    for k in range(_SUBSTEPS):
        k1 = W[:, 2 * k] @ U
        k2 = W[:, 2 * k + 1] @ (U + h / 2.0 * k1)
        k3 = W[:, 2 * k + 1] @ (U + h / 2.0 * k2)
        k4 = W[:, 2 * k + 2] @ (U + h * k3)
        U = U + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return U


def _grid_offsets(chart, basepoint, grid_steps):
    deltas, ranges = [], []
    for (lo, hi), x in zip(chart.domain, basepoint):
        delta = (hi - lo) / (2.0 * grid_steps)
        k_minus = min(grid_steps, int(np.floor((x - lo) / delta + 1e-12)))
        k_plus = min(grid_steps, int(np.floor((hi - x) / delta + 1e-12)))
        deltas.append(delta)
        ranges.append(range(-k_minus, k_plus + 1))
    return np.array(deltas), ranges


def _transport_grids(spec, grid_pts, ranges, axis_orders):
    """U at the grid nodes (C order of ``ranges``), shape (orders, nodes, r, r),
    transported axis by axis in each order: stage k walks the order's k-th axis
    both ways from every node filled so far (each is zero on the axes still to
    come).  Each distinct segment's propagator is transported once, from one
    read of the connection; then the j-th steps of the k-th stages of all
    orders are one stacked product U[dst] = P[segment] @ U[src]."""
    count, zero = len(grid_pts), [-rg.start for rg in ranges]
    nodes = np.arange(count).reshape([len(rg) for rg in ranges])
    steps: dict = {}            # (stage, step) -> its (src, dst) rows, all orders
    for o, order in enumerate(axis_orders):
        for k, axis in enumerate(order):
            at = tuple(slice(z, z + 1) if a in order[k + 1:] else slice(None)
                       for a, z in enumerate(zero))
            line = np.moveaxis(nodes[at], axis, 0).reshape(len(ranges[axis]), -1)
            for i in ranges[axis]:
                if i:           # node offset i on the axis, from the one before it
                    steps.setdefault((k, abs(i)), []).append(
                        o * count + line[[zero[axis] + i - np.sign(i), zero[axis] + i]])
    moves = [np.hstack(steps[key]) for key in sorted(steps)]
    src, dst = np.hstack(moves) % count
    ids: dict = {}              # not np.unique, whose sort pages in 0.5 MB of code
    segment = [ids.setdefault(c, len(ids)) for c in (src * count + dst).tolist()]
    ends = np.array(list(ids))
    P = _transport(_segment_connections(spec, grid_pts[ends // count],
                                        grid_pts[ends % count]), np.eye(spec.rank))
    U = np.zeros((len(axis_orders) * count, spec.rank, spec.rank))
    U[nodes[tuple(zero)] + count * np.arange(len(axis_orders))] = np.eye(spec.rank)
    first = 0
    for src, dst in moves:
        U[dst] = P[segment[first:first + len(dst)]] @ U[src]
        first += len(dst)
    return U.reshape((len(axis_orders), count) + U.shape[1:])


def flat_frame_probe(spec: AlgebroidSpec, basepoint, grid_steps: int = 4,
                     tol_override: float | None = None):
    """Build a covariantly constant frame around ``basepoint`` by parallel
    transport along axis-aligned grid paths, then check that the transformed
    structure functions are constant over the grid; when the spec carries a
    metric that passes the Killing check, also monitor the metric Lie
    derivative along each transported flat section.

    The node fields are read as one batch, and the gate, the transformed
    structure functions and the flat-section Killing residual each run once
    over it.  The connection is read as one batch at every RK4 time of every
    grid segment, each segment's propagator is transported once, and the
    grid of both axis orders is filled stage by stage from the propagators.

    Returns ``(FrameSamples, [CheckReport, ...])``: structure constancy, path
    independence, and (when applicable) the flat-section Killing residual.
    If the connection is curved at a grid node, no frame is built, and it
    returns ``(None, [gate])``, the failing ``flat_frame_grid_gate`` report.
    ``tol_override`` replaces the table tolerances (``tolerance_of``).
    """
    if spec.mode != "lie":
        raise ValueError(f"flat_frame_probe requires lie mode, spec is '{spec.mode}'")
    basepoint = np.asarray(basepoint, dtype=float)
    if not spec.chart.contains(basepoint):
        raise ValueError(f"basepoint {tuple(map(float, basepoint))} outside chart domain")

    deltas, ranges = _grid_offsets(spec.chart, basepoint, grid_steps)
    offsets = list(product(*ranges))
    grid_pts = basepoint + deltas * np.array(offsets, dtype=float)

    reads = {"anchor": 0, "structure": 0, "connection": 1}
    if "metric" in spec.block_entries:
        reads.update(anchor=1, metric=1)
    f = point_fields(spec, grid_pts, reads)
    count = len(offsets)

    gate = report_from_residuals(
        "flat_frame_grid_gate", per_point(*FLAT_FRAME_GATE.kernel(f), count),
        grid_pts, tolerance_of("flat_frame_gate", tol_override))
    if not gate.passed:
        return None, [gate]
    tolerance = tolerance_of("flat_frame", tol_override)

    axis_order = list(range(spec.dimension))
    U, U_rev = _transport_grids(spec, grid_pts, ranges, [axis_order, axis_order[::-1]])
    samples = FrameSamples(offsets=tuple(offsets), points=grid_pts, frames=U)

    # transformed structure functions, using covariant constancy of the frame
    rho_t = np.einsum("...pa,...pi->...ai", U, f.rho)       # anchors of e~_a
    total = (np.einsum("...pa,...qb,...pqe->...abe", U, U, f.C)
             - np.einsum("...ai,...qei,...qb->...abe", rho_t, f.omega, U)
             + np.einsum("...bi,...qei,...qa->...abe", rho_t, f.omega, U))
    C_t = np.einsum("...abe,...ec->...abc", total,
                    np.swapaxes(np.linalg.inv(U), -2, -1))
    C_base = C_t[offsets.index((0,) * len(ranges))]         # where U = 1
    reports = [
        report_from_residuals("flat_frame_structure_constancy",
                              per_point(C_t - C_base, count), grid_pts, tolerance),
        report_from_residuals("flat_frame_path_independence",
                              per_point(U - U_rev, count), grid_pts, tolerance)]

    if "metric" in spec.block_entries:
        killing = killing_frame_components(f.rho, f.drho, f.g, f.dg, f.omega)
        if float(np.max(per_point(killing, count))) <= tolerance_of(
                "killing_frame", tol_override):
            v = np.einsum("...pa,...pk->...ak", U, f.rho)
            # d_i v^k via nabla e~ = 0: d_i U^p_a = -omega^p_{q,i} U^q_a
            dv = (-np.einsum("...qpi,...qa,...pk->...aki", f.omega, U, f.rho)
                  + np.einsum("...pa,...pki->...aki", U, f.drho))
            reports.append(report_from_residuals(
                "flat_section_killing",
                per_point(lie_derivative_cov2(v, dv, f.g, f.dg), count),
                grid_pts, tolerance))

    return samples, reports
