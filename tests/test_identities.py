"""Identity checks on randomized spec data and independent operator oracles.

The structural identities (frame/covariant agreement, the Killing factor-2
bridge, dual reflexivity) are exact consequences of the component formulas,
so they must survive arbitrary coefficient data, not just the curated
fixtures.  The induced-curvature formulas additionally get an independent
second path: composing the induced derivative operators numerically with
finite differences.
"""

import numpy as np
import pytest

from algebroid import calculus as ca
from algebroid.exprjet import eval_block
from algebroid.spec_model import eval_fields, load_spec, sample_points

from conftest import dual_coefficients, max_abs

FRAME = ca._FRAME1


def _poly(rng, scale=1.0):
    c = np.round(rng.uniform(-scale, scale, 6), 3)
    return (f"{c[0]} + {c[1]}*x + {c[2]}*y + {c[3]}*x^2 + {c[4]}*x*y "
            f"+ {c[5]}*y^2")


def _random_doc(seed, rank=2, with_metric=False):
    rng = np.random.default_rng(seed)
    n = 2
    doc = {
        "chart": {"coords": ["x", "y"], "domain": [[-1.0, 1.0], [-1.0, 1.0]]},
        "rank": rank,
        "mode": "lie",
        "anchor": [[_poly(rng) for _ in range(n)] for _ in range(rank)],
        "structure": [{"a": a + 1, "b": b + 1, "c": c + 1, "expr": _poly(rng)}
                      for a in range(rank) for b in range(a + 1, rank)
                      for c in range(rank)],
        "connection": [[[_poly(rng) for _ in range(n)] for _ in range(rank)]
                       for _ in range(rank)],
    }
    if with_metric:
        # identity plus a small symmetric quadratic stays positive definite
        # on the unit box
        off = _poly(rng, 0.1)
        doc["metric"] = [[f"2 + {_poly(rng, 0.1)}", off],
                         [off, f"2 + {_poly(rng, 0.1)}"]]
    return doc


@pytest.mark.parametrize("seed", range(12))
def test_s_formula_agreement_on_random_data(seed):
    # the two evaluation routes agree for arbitrary (rho, C, omega), with no
    # Lie algebroid axioms assumed
    spec = load_spec(_random_doc(seed))
    for p in sample_points(spec.chart, 25, seed):
        f = eval_fields(spec, p, FRAME)
        frame = ca._s_frame(f)
        cov = ca.s_covariant_components(f.rho, f.drho, f.C, f.dC, f.omega,
                                        f.domega)
        scale = max(1.0, float(np.max(np.abs(frame))))
        assert float(np.max(np.abs(frame - cov))) <= 1e-12 * scale


@pytest.mark.parametrize("seed", range(12))
def test_killing_factor_two_on_random_data(seed):
    spec = load_spec(_random_doc(seed, with_metric=True))
    for p in sample_points(spec.chart, 25, seed):
        f = eval_fields(spec, p, ca.KILLING.reads)
        frame, sym = ca._killing_frame(f), ca._killing_sym(f)
        scale = max(1.0, float(np.max(np.abs(frame))))
        assert float(np.max(np.abs(frame - 2.0 * sym))) <= 1e-12 * scale


@pytest.mark.parametrize("seed", range(12))
def test_dual_connection_identities_on_random_data(seed):
    # reflexivity and opposite torsion are asserted inside dual_coefficients
    spec = load_spec(_random_doc(seed, rank=3))
    for p in sample_points(spec.chart, 10, seed):
        f = eval_fields(spec, p, {"anchor": 0, "structure": 0, "connection": 0})
        D = dual_coefficients(f)
        rho, omega, C = f.rho, f.omega, f.C
        assert np.allclose(D, C + np.einsum("bj,acj->abc", rho, omega),
                           rtol=0, atol=0)


@pytest.mark.parametrize("seed", range(8))
def test_fiberwise_bracket_preservation_criterion(seed):
    # for a zero anchor, the compatibility tensor is exactly minus the
    # covariant derivative of the structure functions: the connection is
    # compatible iff it preserves the fiberwise bracket
    rng = np.random.default_rng(100 + seed)
    doc = _random_doc(100 + seed, rank=3)
    doc["anchor"] = [["0", "0"] for _ in range(3)]
    spec = load_spec(doc)
    for p in sample_points(spec.chart, 15, seed):
        S = ca._s_frame(eval_fields(spec, p, FRAME))
        C, dC = eval_block(spec.block_entries["structure"], p, 1)
        omega = eval_fields(spec, p, {"connection": 0}).omega
        nabla_C = (dC.transpose(2, 0, 1, 3)
                   + np.einsum("qci,abq->cabi", omega, C)
                   - np.einsum("aqi,qbc->cabi", omega, C)
                   - np.einsum("bqi,aqc->cabi", omega, C))
        assert float(np.max(np.abs(S + nabla_C))) <= 1e-12


# --------------------------------------------------------------------------
# Operator-composition oracles for the induced curvatures


def _tau_nabla(spec, a, field, x, h=1e-5):
    """tau-nabla_{e_a} of a vector field given as a callable, evaluated at x:
    [rho_a, X] + rho(nabla_X e_a), with dX from central differences."""
    n = spec.dimension
    rho, drho = eval_block(spec.block_entries["anchor"], x, 1)
    omega = eval_fields(spec, x, {"connection": 0}).omega
    X = field(x)
    dX = np.zeros((n, n))          # dX[i, j] = d_j X^i
    for j in range(n):
        shift = np.zeros(n)
        shift[j] = h
        dX[:, j] = (field(x + shift) - field(x - shift)) / (2 * h)
    return (dX @ rho[a] - X @ drho[a].T
            + np.einsum("j,bj,bi->i", X, omega[a], rho))


def _alpha_nabla(spec, a, section, x, h=1e-5):
    """alpha-nabla_{e_a} of a section given by coefficient functions:
    [e_a, s] + nabla_{rho(s)} e_a."""
    n, r = spec.dimension, spec.rank
    f = eval_fields(spec, x, {"anchor": 0, "connection": 0, "structure": 0})
    rho, omega, C = f.rho, f.omega, f.C
    s = section(x)
    ds = np.zeros((r, n))
    for j in range(n):
        shift = np.zeros(n)
        shift[j] = h
        ds[:, j] = (section(x + shift) - section(x - shift)) / (2 * h)
    D = C + np.einsum("bj,acj->abc", rho, omega)
    return ds @ rho[a] + np.einsum("e,ed->d", s, D[a])


@pytest.mark.parametrize("seed", [0, 3])
def test_tau_curvature_against_operator_composition(seed):
    spec = load_spec(_random_doc(seed))
    n, r = spec.dimension, spec.rank
    for p in sample_points(spec.chart, 4, seed + 50):
        R = ca._tau_curvature(eval_fields(           # [i, a, b, j]
            spec, p, {"anchor": 2, "structure": 0, "connection": 1}))
        C = eval_fields(spec, p, {"structure": 0}).C
        for a in range(r):
            for b in range(r):
                for j in range(n):
                    def inner_b(x, b=b, j=j):
                        basis = np.zeros(n)
                        basis[j] = 1.0
                        return _tau_nabla(spec, b, lambda q: basis, x)

                    def inner_a(x, a=a, j=j):
                        basis = np.zeros(n)
                        basis[j] = 1.0
                        return _tau_nabla(spec, a, lambda q: basis, x)

                    composed = (_tau_nabla(spec, a, inner_b, p)
                                - _tau_nabla(spec, b, inner_a, p))
                    for e in range(r):
                        basis = np.zeros(n)
                        basis[j] = 1.0
                        composed -= C[a, b, e] * _tau_nabla(
                            spec, e, lambda q: basis, p)
                    assert float(np.max(np.abs(composed - R[:, a, b, j]))) \
                        <= 1e-5


@pytest.mark.parametrize("seed", [1, 4])
def test_alpha_curvature_against_operator_composition(seed):
    spec = load_spec(_random_doc(seed))
    r = spec.rank
    for p in sample_points(spec.chart, 4, seed + 60):
        R = ca._alpha_curvature(eval_fields(spec, p, FRAME))   # [d, a, b, c]
        C = eval_fields(spec, p, {"structure": 0}).C
        for a in range(r):
            for b in range(r):
                for c in range(r):
                    basis = np.zeros(r)
                    basis[c] = 1.0

                    def inner_b(x, b=b, basis=basis):
                        return _alpha_nabla(spec, b, lambda q: basis, x)

                    def inner_a(x, a=a, basis=basis):
                        return _alpha_nabla(spec, a, lambda q: basis, x)

                    composed = (_alpha_nabla(spec, a, inner_b, p)
                                - _alpha_nabla(spec, b, inner_a, p))
                    for e in range(r):
                        composed -= C[a, b, e] * _alpha_nabla(
                            spec, e, lambda q: basis, p)
                    assert float(np.max(np.abs(composed - R[:, a, b, c]))) \
                        <= 1e-5


# --------------------------------------------------------------------------
# Gauge-twisted probe: nonconstant structure functions, flat twisted frame


def test_probe_recovers_constant_bracket_through_gauge_twist():
    # scaling the third frame section by h = 1 + x^2 turns the constant
    # two-step nilpotent bracket into C^3_12 = 1/h with connection d(ln h);
    # the transported frame must undo the twist and see constant structure
    doc = {
        "chart": {"coords": ["x", "y"], "domain": [[-1.0, 1.0], [-1.0, 1.0]]},
        "rank": 3,
        "mode": "lie",
        "anchor": [["0", "0"], ["0", "0"], ["0", "0"]],
        "structure": [{"a": 1, "b": 2, "c": 3, "expr": "1/(1 + x^2)"}],
        "connection": [
            [["0", "0"], ["0", "0"], ["0", "0"]],
            [["0", "0"], ["0", "0"], ["0", "0"]],
            [["0", "0"], ["0", "0"], ["2*x/(1 + x^2)", "0"]],
        ],
    }
    spec = load_spec(doc)
    points = sample_points(spec.chart, 30, 42)
    for p in points[:10]:
        f = eval_fields(spec, p, FRAME)
        assert max_abs(ca._s_frame(f)) <= 1e-15
        assert max_abs(*ca.FLAT_FRAME_GATE.kernel(f)) <= 1e-15
    samples, reports = ca.flat_frame_probe(spec, (0.3, 0.0), grid_steps=4)
    by_name = {r.name: r for r in reports}
    assert by_name["flat_frame_structure_constancy"].max_residual <= 1e-6
    assert by_name["flat_frame_path_independence"].max_residual <= 1e-6
    # the transport really is nontrivial here
    assert float(np.max(np.abs(samples.frames - np.eye(3)))) > 0.1
