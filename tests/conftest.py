import json

import numpy as np
import pytest

from algebroid import fixture_path, load_spec, load_spec_file, sample_points
from algebroid.exprjet import Block, Jet, eval_block

FIXTURES = [
    "fx_action_so2", "fx_so3_sphere", "fx_bla", "fx_bla_const",
    "fx_bla_nojacobi", "fx_rho0_n1", "fx_omega_xdy", "fx_tm_flat",
    "fx_foliation_flat", "fx_nonriem_fol", "fx_so2_conformal",
    "fx_killing_nonabelian", "fx_free_heis", "fx_free_abelian",
    "fx_sympl_conf", "fx_taucurv", "fx_flat_exp", "fx_poisson_linear",
]

LIE_FIXTURES = [name for name in FIXTURES
                if json.loads(fixture_path(name).read_text())["mode"] == "lie"]

METRIC_FIXTURES = [name for name in FIXTURES
                   if "metric" in json.loads(fixture_path(name).read_text())]


def fixture_doc(name: str) -> dict:
    return json.loads(fixture_path(name).read_text())


@pytest.fixture
def spec_of():
    return lambda name: load_spec_file(fixture_path(name))


@pytest.fixture
def points_of():
    def _points(spec, count=100, seed=42):
        return sample_points(spec.chart, count, seed)
    return _points


def load_doc(doc: dict):
    return load_spec(doc)


def max_abs(x) -> float:
    return float(np.max(np.abs(x))) if np.size(x) else 0.0


def block_exprs(block) -> np.ndarray:
    """The expressions of a block that lists every entry, as an object array
    of its shape (a mirrored entry holds the expression it mirrors)."""
    out = np.empty(block.shape, dtype=object)
    for index, _, e in block.entries:
        out[index] = e
    return out


def eval_jet(e, point, order: int = 1, n: int | None = None) -> Jet:
    """The jet of ``e`` at ``point`` with all partials up to ``order``: the
    block evaluator on a block of the one entry, at the one point, whose
    ``len(point)`` coordinates are the chart's (``n``, if given)."""
    assert n in (None, len(point))
    return Jet(eval_block(Block([((), 1, e)], (), ""), point, order))


def fd_crosscheck(e, point, h: float = 1e-4) -> float:
    """Max over coordinates of |jet first partial - central finite difference|."""
    point = np.asarray(point, dtype=float)
    n = point.shape[0]
    jet = eval_jet(e, point, order=1, n=n)
    worst = 0.0
    for i in range(n):
        shift = np.zeros(n)
        shift[i] = h
        plus = eval_jet(e, point + shift, order=0, n=n).value
        minus = eval_jet(e, point - shift, order=0, n=n).value
        worst = max(worst, abs(jet.grad[i] - (plus - minus) / (2.0 * h)))
    return worst


def dual_coefficients(f):
    """Coefficients D^c_{ab} of the dual A-connection [s,s'] + nabla_{rho(s')}s,
    stored [a,b,c], from the fields of ``spec_model.eval_fields`` (anchor,
    structure and connection values).  Asserts reflexivity of the duality and
    that the dual's A-torsion is the exact negative of the original one."""
    C = f.C
    N = np.einsum("aj,bcj->abc", f.rho, f.omega)   # nabla_{rho_a} e_b coefficients
    D = C + N.transpose(1, 0, 2)                   # the dual of N
    # association-safe evaluation keeps both identities exact in floats:
    # C + C^T vanishes entrywise because mirror entries are stored negations
    double_dual = (C + C.transpose(1, 0, 2)) + N
    if not np.array_equal(double_dual, N):
        raise AssertionError("dual A-connection reflexivity violated")
    M = N.transpose(1, 0, 2)
    dual_torsion = C + (M - M.transpose(1, 0, 2))
    original_torsion = (M.transpose(1, 0, 2) - M) - C
    if not np.array_equal(dual_torsion, -original_torsion):
        raise AssertionError("dual A-connection torsion is not the exact opposite")
    return D
