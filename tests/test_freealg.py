import gc
import inspect
from collections import Counter
from dataclasses import replace
from itertools import combinations, product
from types import SimpleNamespace

import numpy as np
import pytest

from algebroid import calculus as ca
from algebroid import exprjet, fixture_path, spec_model
from algebroid import freealg as fa
from algebroid.cli import main
from algebroid.exprjet import (
    Num, diff, e_add, e_mul, e_neg, e_sub, parse_expr, render,
)
from algebroid.spec_model import (
    check_values, eval_fields, run_checks, sample_points,
)

from conftest import (
    FIXTURES, block_exprs, eval_jet, fixture_doc, load_doc, max_abs,
)


def _anchored(name, **blocks):
    doc = fixture_doc(name)
    doc["mode"] = "anchored"
    doc.pop("structure", None)
    return load_doc({**doc, **blocks})


def _witt(r, d):
    def mobius(m):
        out, k, p = 1, m, 2
        while p * p <= k:
            if k % p == 0:
                k //= p
                if k % p == 0:
                    return 0
                out = -out
            p += 1
        if k > 1:
            out = -out
        return out
    return sum(mobius(e) * r ** (d // e) for e in range(1, d + 1) if d % e == 0) // d


def _magma_count(r, d):
    counts = {1: r}
    for m in range(2, d + 1):
        total = sum(counts[p] * counts[m - p] for p in range(m - 1, m // 2, -1))
        if m % 2 == 0:
            c = counts[m // 2]
            total += c * (c - 1) // 2
        counts[m] = total
    return counts[d]


def _constant_structure(free):
    """The truncation's structure array C and its zero derivative dC."""
    return free.structure, np.zeros(free.structure.shape + (free.spec.dimension,))


# --------------------------------------------------------------------------
# Hall and magma bases


@pytest.mark.parametrize("r, expected", [(2, [2, 1, 2]), (3, [3, 3, 8]),
                                         (1, [1, 0, 0])])
def test_hall_counts(r, expected):
    assert [len(level) for level in fa.hall_basis(r, 3)] == expected


@pytest.mark.parametrize("r", [1, 2, 3, 4])
@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_hall_counts_match_witt_formula(r, d):
    levels = fa.hall_basis(r, d)
    assert len(levels[d - 1]) == _witt(r, d)


@pytest.mark.parametrize("r", [1, 2, 3])
@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_magma_counts_match_recursion(r, d):
    assert len(fa.magma_basis(r, d)[d - 1]) == _magma_count(r, d)


def test_magma_vs_hall_divergence():
    # anticommutative magma counts first exceed Witt at degree 4 for r = 2
    assert [len(l) for l in fa.magma_basis(2, 4)] == [2, 1, 2, 4]
    assert [len(l) for l in fa.hall_basis(2, 4)] == [2, 1, 2, 3]
    # for three generators they already diverge at degree 3
    assert len(fa.magma_basis(3, 3)[2]) == 9


def test_degree_out_of_range():
    with pytest.raises(ValueError):
        fa.hall_basis(2, 5)
    with pytest.raises(ValueError):
        fa.hall_basis(2, 0)
    with pytest.raises(ValueError):
        fa.magma_basis(0, 2)


def test_hall_words_are_subtree_closed():
    for level in fa.hall_basis(3, 4):
        for w in level:
            stack = [w]
            while stack:
                v = stack.pop()
                assert fa.is_hall(v)
                if v.parts:
                    stack.extend(v.parts)


# --------------------------------------------------------------------------
# free_extend


def test_heisenberg_truncation():
    spec = _anchored("fx_free_heis")
    free = fa.free_extend(spec, 3, "quotient")
    assert free.counts() == [2, 1, 2]
    w = free.basis[1][0]
    # [e2, e1] with rho(e1) = d_x, rho(e2) = x d_y: anchor is -d_y
    vals = [eval_jet(c, (0.3, 0.7), order=0, n=2).value for c in free.anchor[w]]
    assert vals == [0.0, -1.0]
    # all generator data covariantly constant: nothing survives in nabla[w]
    assert free.conn[w] == {}


def test_rank_one_truncates_to_generators():
    spec = _anchored("fx_rho0_n1")
    free = fa.free_extend(spec, 3, "quotient")
    assert free.counts() == [1, 0, 0]


def test_quotient_counts_equal_hall_for_three_generators():
    spec = _anchored("fx_so3_sphere")
    free = fa.free_extend(spec, 3, "quotient")
    assert free.counts() == [3, 3, 8]
    hall_words = {w for level in fa.hall_basis(3, 3) for w in level}
    assert set(free.words) == hall_words
    almost = fa.free_extend(spec, 3, "almost")
    assert almost.counts() == [3, 3, 9]


def test_free_extend_validates_arguments():
    spec = _anchored("fx_free_heis")
    with pytest.raises(ValueError):
        fa.free_extend(spec, 5, "quotient")
    with pytest.raises(ValueError):
        fa.free_extend(spec, 3, "lie")


def test_anchor_extension_is_bracket_morphism():
    # anchors of composite words match finite-difference commutators of their
    # sub-anchors (independent of both the jet and the formal-derivative path)
    spec = _anchored("fx_so3_sphere")
    free = fa.free_extend(spec, 3, "almost")
    points = sample_points(spec.chart, 20, 11)
    h = 1e-5
    n = 2

    def value(comps, p):
        return np.array([eval_jet(c, p, order=0, n=n).value for c in comps])

    for w in free.words:
        if w.gen is not None:
            continue
        u, v = w.parts
        for p in points:
            fd = np.zeros(n)
            for j in range(n):
                shift = np.zeros(n)
                shift[j] = h
                du = (value(free.anchor[v], p + shift)
                      - value(free.anchor[v], p - shift)) / (2 * h)
                dv = (value(free.anchor[u], p + shift)
                      - value(free.anchor[u], p - shift)) / (2 * h)
                fd += value(free.anchor[u], p)[j] * du \
                    - value(free.anchor[v], p)[j] * dv
            assert float(np.max(np.abs(value(free.anchor[w], p) - fd))) <= 1e-6


def test_bracket_table_antisymmetric():
    for mode in ("quotient", "almost"):
        table = fa.free_extend(_anchored("fx_so3_sphere"), 3, mode).bracket_table
        assert table
        for (u, v), expansion in table.items():
            assert table[(v, u)] == {w: -c for w, c in expansion.items()}


# --------------------------------------------------------------------------
# Cartan check on the extension


def test_cartan_extended_heisenberg():
    spec = _anchored("fx_free_heis")
    free = fa.free_extend(spec, 3, "quotient")
    points = sample_points(spec.chart, 50, 42)
    report, = run_checks(free, points, [fa.cartan_extended_check(free)])
    assert report.max_residual <= 1e-8


def test_cartan_extended_rank_one():
    spec = _anchored("fx_rho0_n1")
    free = fa.free_extend(spec, 3, "quotient")
    points = sample_points(spec.chart, 20, 42)
    report, = run_checks(free, points, [fa.cartan_extended_check(free)])
    assert report.max_residual == 0.0


def test_cartan_extended_with_curved_generator_connection():
    # rho = 0 with F != 0 on the generators: extension still keeps S = 0, and
    # the generator-pair block agrees with the pointwise tensor from calculus
    doc = fixture_doc("fx_free_heis")
    doc["anchor"] = [["0", "0"], ["0", "0"]]
    doc["connection"][0][0] = ["0", "x"]
    spec = load_doc(doc)
    free = fa.free_extend(spec, 2, "quotient")
    points = sample_points(spec.chart, 30, 42)
    report, = run_checks(free, points, [fa.cartan_extended_check(free)])
    assert report.max_residual <= 1e-8

    lie_doc = fixture_doc("fx_free_heis")
    lie_doc["anchor"] = [["0", "0"], ["0", "0"]]
    lie_doc["connection"][0][0] = ["0", "x"]
    lie_doc["mode"] = "lie"
    lie_doc["structure"] = []
    lie_spec = load_doc(lie_doc)
    for p in points[:10]:
        assert max_abs(ca._s_frame(eval_fields(lie_spec, p, ca._FRAME1))) <= 1e-8


@pytest.mark.parametrize("name", ["fx_so3_sphere", "fx_free_heis",
                                  "fx_free_abelian", "fx_killing_nonabelian"])
@pytest.mark.parametrize("degree", [2, 3, 4])
def test_s_on_listed_pairs_matches_all_pairs_bit_for_bit(name, degree):
    # S over the truncation's pairs only is the same bits, sign of zero
    # included, as those pairs gathered from S over all pairs
    spec = load_doc(fixture_doc(name))
    free = fa.free_extend(spec, degree, "quotient")
    words, n = free.words, spec.dimension
    N = len(words)
    a, b = np.array([(a, b) for a, u in enumerate(words) for b, v in enumerate(words)
                     if a != b and u.degree + v.degree <= degree]).T
    every_a, every_b = np.divmod(np.arange(N * N), N)
    for p in sample_points(spec.chart, 2, 42):
        f = eval_fields(free, p, {"anchor": 1, "connection": 1})
        fields = (f.rho, f.drho, *_constant_structure(free), f.omega, f.domega)
        every = ca.s_frame_components(*fields, every_a, every_b).reshape(N, N, N, n)
        listed = ca.s_frame_components(*fields, a, b)
        assert listed.shape == (N, len(a), n)
        assert (np.ascontiguousarray(listed).tobytes()
                == np.ascontiguousarray(every[:, a, b, :]).tobytes())


# --------------------------------------------------------------------------
# Jacobiator covariant constancy


def test_jacobiator_requires_almost_mode():
    spec = _anchored("fx_free_heis")
    free = fa.free_extend(spec, 3, "quotient")
    with pytest.raises(ValueError):
        fa.jacobiator_check(free, [spec.chart.center()])
    low = fa.free_extend(spec, 2, "almost")
    with pytest.raises(ValueError):
        fa.jacobiator_check(low, [spec.chart.center()])


def test_jacobiator_rank_one_trivial():
    spec = _anchored("fx_rho0_n1")
    free = fa.free_extend(spec, 3, "almost")
    points = sample_points(spec.chart, 10, 42)
    assert fa.jacobiator_check(free, points).max_residual == 0.0


def test_jacobiator_heisenberg():
    spec = _anchored("fx_free_heis")
    free = fa.free_extend(spec, 3, "almost")
    points = sample_points(spec.chart, 50, 42)
    assert fa.jacobiator_check(free, points).max_residual <= 1e-8


def test_jacobiator_three_generators():
    spec = _anchored("fx_so3_sphere")
    free = fa.free_extend(spec, 3, "almost")
    points = sample_points(spec.chart, 30, 42)
    assert fa.jacobiator_check(free, points).max_residual <= 1e-8


def test_jacobiator_degree_four():
    spec = _anchored("fx_killing_nonabelian")
    free = fa.free_extend(spec, 4, "almost")
    points = sample_points(spec.chart, 10, 42)
    assert fa.jacobiator_check(free, points).max_residual <= 1e-8


def test_jacobiator_lists_every_triple_and_reads_only_its_shifted_rows(monkeypatch):
    # every triple of degree sum <= 4 gets residual rows, and the shifted
    # Jacobiator is one constant row per listed (triple, slot, word), not a
    # dense (triples, 3, N, N) block: the degree-4 fx_so3_sphere pass reads
    # its 5 points in one chunk, not one point per chunk
    spec = load_doc(fixture_doc("fx_so3_sphere"))
    free = fa.free_extend(spec, 4, "almost")
    points = sample_points(spec.chart, 5, 42)
    run, rows = fa.run_checks, []
    monkeypatch.setattr(fa, "run_checks", lambda *args: rows.extend(args[2]) or run(*args))
    read, sizes = spec_model.eval_block, []
    monkeypatch.setattr(spec_model, "eval_block", lambda block, points, order=0: (
        sizes.append(len(points)) or read(block, points, order)))
    fa.jacobiator_check(free, points)
    assert sizes and set(sizes) == {5}
    (residual,), = spec_model.chunked(free, points, rows[0].reads, rows[0].kernel)
    triples = [t for t in combinations(free.words, 3) if sum(w.degree for w in t) <= 4]
    assert residual.shape == (5, len(triples), spec.dimension, len(free.words))


# rank 3 over a plane, anchored, with every one of its 18 connection entries written
RANK3_ALL_CONNECTIONS = {
    "chart": {"coords": ["x", "y"], "domain": [[-1.0, 1.0], [-1.0, 1.0]]},
    "rank": 3, "mode": "anchored",
    "anchor": [["1", "x"], ["y", "1"], ["x*y", "0"]],
    "connection": [[[f"{0.1 * (a + 1)}*x - {0.2 * (b + 1)}*y*x + {0.3 * (i + 1)}"
                     for i in range(2)] for b in range(3)] for a in range(3)],
}


def test_the_stacked_jacobiator_rows_match_the_row_loop(monkeypatch):
    # the shifted rows are subtracted in one step; each element is still one
    # subtraction of one product in row order, so the loop gives the same bytes
    spec = load_doc(RANK3_ALL_CONNECTIONS)
    free = fa.free_extend(spec, 4, "almost")
    points = sample_points(spec.chart, 7, 42)
    run, rows = fa.run_checks, []
    monkeypatch.setattr(fa, "run_checks", lambda *args: rows.extend(args[2]) or run(*args))
    fa.jacobiator_check(free, points)
    captured = inspect.getclosurevars(rows[0].kernel).nonlocals
    jac, shifted_jac = captured["jac"], captured["shifted_jac"]
    assert (len(jac), len(shifted_jac)) == (10, 75)

    def loop(f):
        residual = np.einsum("...tv,...vwi->...tiw", jac, f.omega)
        for t, kh, kq, vec in zip(captured["ts"], captured["hosts"], captured["qs"],
                                  shifted_jac):
            residual[..., t, :, :] -= np.einsum(
                "...i,...w->...iw", f.omega[..., kh, kq, :], vec)
        return residual,
    stacked, looped = (np.concatenate([residual for residual, in spec_model.chunked(
        free, points, rows[0].reads, kernel)]) for kernel in (rows[0].kernel, loop))
    assert stacked.tobytes() == looped.tobytes() and np.abs(stacked).max() > 0


# --------------------------------------------------------------------------
# Compatibility propagation


def test_propagation_abelian_translations():
    spec = load_doc(fixture_doc("fx_free_abelian"))
    free = fa.free_extend(spec, 3, "quotient")
    points = sample_points(spec.chart, 50, 42)
    _, report = run_checks(free, points, fa.killing_checks(free))
    assert report.max_residual == 0.0


def test_propagation_nonabelian_killing_fixture():
    # generator-level oracle first, then the extension at all degrees <= 3
    spec = load_doc(fixture_doc("fx_killing_nonabelian"))
    points = sample_points(spec.chart, 50, 42)
    assert max(max_abs(ca._killing_frame(eval_fields(spec, p, ca.KILLING.reads)))
               for p in points) <= 1e-12
    free = fa.free_extend(spec, 3, "quotient")
    _, report = run_checks(free, points, fa.killing_checks(free))
    assert report.max_residual <= 1e-7


def test_propagation_rejects_incompatible_generators():
    doc = fixture_doc("fx_rho0_n1")
    doc["mode"] = "anchored"
    doc.pop("structure")
    spec = load_doc(doc)
    free = fa.free_extend(spec, 2, "quotient")
    points = sample_points(spec.chart, 20, 42)
    # the failing generator row gates the extended row out of the reports
    generators, = run_checks(free, points, fa.killing_checks(free))
    assert generators.name == "killing_generators" and not generators.passed


def test_killing_checks_require_a_metric():
    bare = _anchored("fx_free_heis")
    free = fa.free_extend(bare, 3, "quotient")
    points = sample_points(bare.chart, 5, 42)
    with pytest.raises(ValueError):
        run_checks(free, points, fa.killing_checks(free))


def test_propagation_with_explicit_metric_block():
    # a metric-free generator spec can still be checked against a metric
    bare = _anchored("fx_free_heis")
    points = sample_points(bare.chart, 10, 42)
    flat = [["1", "0"], ["0", "1"]]
    free = fa.free_extend(_anchored("fx_free_heis", metric=flat), 2, "quotient")
    # rho(e2) = x d_y is not Killing for the flat metric
    generators, = run_checks(free, points, fa.killing_checks(free))
    assert not generators.passed
    abelian = load_doc({**fixture_doc("fx_free_abelian"), "metric": flat})
    free_ab = fa.free_extend(abelian, 3, "quotient")
    _, report = run_checks(free_ab, points, fa.killing_checks(free_ab))
    assert report.max_residual == 0.0


# --------------------------------------------------------------------------
# Connection extension: well-definedness under the function-linearity relation


def _lie_one_form(rho, theta, n):
    out = []
    for i in range(n):
        total = Num(0.0)
        for j in range(n):
            total = e_add(total, e_mul(rho[j], diff(theta[i], j)))
            total = e_add(total, e_mul(diff(rho[j], i), theta[j]))
        out.append(total)
    return tuple(out)


def _sec_anchor(free, sec, n):
    comps = [Num(0.0)] * n
    for w, f in sec.items():
        for i in range(n):
            comps[i] = e_add(comps[i], e_mul(f, free.anchor[w][i]))
    return tuple(comps)


def _sec_bracket(free, s1, s2, n):
    out = {}
    for u, f in s1.items():
        for v, g in s2.items():
            for w, c in free.bracket_table.get((u, v), {}).items():
                _acc(out, w, e_mul(e_mul(f, g), Num(float(c))))
            # Leibniz terms: f rho_u(g) v - g rho_v(f) u
            rug = Num(0.0)
            rvf = Num(0.0)
            for j in range(n):
                rug = e_add(rug, e_mul(free.anchor[u][j], diff(g, j)))
                rvf = e_add(rvf, e_mul(free.anchor[v][j], diff(f, j)))
            _acc(out, v, e_mul(f, rug))
            _acc(out, u, e_neg(e_mul(g, rvf)))
    return out


def _acc(store, w, expr):
    cur = store.get(w, Num(0.0))
    store[w] = e_add(cur, expr)


def _acc_form(store, w, comps):
    cur = store.get(w)
    if cur is None:
        store[w] = tuple(comps)
    else:
        store[w] = tuple(e_add(a, b) for a, b in zip(cur, comps))


def _sec_nabla(free, sec, n):
    out = {}
    for w, f in sec.items():
        _acc_form(out, w, tuple(diff(f, i) for i in range(n)))
        for w2, theta in free.conn[w].items():
            _acc_form(out, w2, tuple(e_mul(f, theta[i]) for i in range(n)))
    return out


def _cov_bracket_formula(free, s1, s2, n):
    """nabla[s1,s2] from the defining identity, on arbitrary sections."""
    out = {}

    def lie_part(s, nabla_other, sign):
        rho_s = _sec_anchor(free, s, n)
        for w, theta in nabla_other.items():
            lie = _lie_one_form(rho_s, theta, n)
            _acc_form(out, w, tuple(e_mul(Num(sign), c) for c in lie))
            br = _sec_bracket(free, s, {w: Num(1.0)}, n)
            for w2, c in br.items():
                _acc_form(out, w2,
                          tuple(e_mul(Num(sign), e_mul(c, theta[i]))
                                for i in range(n)))

    def contraction_part(nabla_a, s_other, sign):
        for w1, theta in nabla_a.items():
            rho_w1 = free.anchor[w1]
            for v, g in s_other.items():
                rg = Num(0.0)
                for j in range(n):
                    rg = e_add(rg, e_mul(rho_w1[j], diff(g, j)))
                _acc_form(out, v, tuple(e_mul(Num(sign), e_mul(theta[i], rg))
                                        for i in range(n)))
                for v2, phi in free.conn[v].items():
                    scal = Num(0.0)
                    for j in range(n):
                        scal = e_add(scal, e_mul(rho_w1[j], phi[j]))
                    comps = tuple(e_mul(Num(sign),
                                        e_mul(g, e_mul(theta[i], scal)))
                                  for i in range(n))
                    _acc_form(out, v2, comps)

    n1 = _sec_nabla(free, s1, n)
    n2 = _sec_nabla(free, s2, n)
    lie_part(s1, n2, +1.0)
    lie_part(s2, n1, -1.0)
    contraction_part(n1, s2, -1.0)
    contraction_part(n2, s1, +1.0)
    return out


def _form_values(form, p, words, n):
    out = {}
    for w in words:
        comps = form.get(w)
        if comps is None:
            out[w] = np.zeros(n)
        else:
            out[w] = np.array([eval_jet(c, p, order=0, n=n).value
                               for c in comps])
    return out


def test_connection_extension_well_defined_under_function_linearity():
    # nabla[s, f s'] computed (a) by expanding the bracket with the Leibniz
    # rule and applying the stored extension, and (b) by the defining formula
    # on the function-multiplied section directly, must agree.
    spec = load_doc(fixture_doc("fx_killing_nonabelian"))
    n = spec.dimension
    free = fa.free_extend(spec, 3, "almost")
    e1, e2 = free.basis[0]
    f = parse_expr("1 + x*y", ["x", "y"])
    s1 = {e1: Num(1.0)}
    s2 = {e2: f}

    route_a = _sec_nabla(free, _sec_bracket(free, s1, s2, n), n)
    route_b = _cov_bracket_formula(free, s1, s2, n)

    points = sample_points(spec.chart, 20, 3)
    for p in points:
        va = _form_values(route_a, p, free.words, n)
        vb = _form_values(route_b, p, free.words, n)
        worst = max(float(np.max(np.abs(va[k] - vb[k]))) for k in va)
        assert worst <= 1e-9


def test_quotient_connection_descends_from_almost_mode():
    # the connection preserves the Jacobi relations: reducing the almost-mode
    # extension by the degree-3 relation reproduces the quotient-mode one
    doc = fixture_doc("fx_so3_sphere")
    doc["mode"] = "anchored"
    doc.pop("structure")
    doc["connection"][0][0] = ["y", "0"]
    doc["connection"][1][0] = ["1", "0"]   # routes [.,e1] brackets into the
    doc["connection"][2][0] = ["0", "x"]   # non-Hall word [[e3,e2],e1]
    doc["connection"][2][1] = ["x*y", "1"]
    spec = load_doc(doc)
    n = spec.dimension
    almost = fa.free_extend(spec, 3, "almost")
    quotient = fa.free_extend(spec, 3, "quotient")
    eliminated = set(almost.words) - set(quotient.words)
    assert len(eliminated) == 1
    w_elim, = eliminated

    coeffs = fa._jacobiator(almost.bracket_table, *almost.basis[0])
    pivot = coeffs.pop(w_elim)
    substitution = {w: -c / pivot for w, c in coeffs.items()}

    touches_eliminated = sum(1 for w in quotient.words
                             if w_elim in almost.conn[w])
    assert touches_eliminated > 0  # the substitution path is exercised

    points = sample_points(spec.chart, 10, 9)
    for w in quotient.words:
        for q in points:
            reduced = {}
            for w2, comps in almost.conn[w].items():
                vals = np.array([eval_jet(c, q, order=0, n=n).value
                                 for c in comps])
                if w2 == w_elim:
                    for w3, factor in substitution.items():
                        reduced[w3] = reduced.get(w3, 0.0) + factor * vals
                else:
                    reduced[w2] = reduced.get(w2, 0.0) + vals
            stored = {w2: np.array([eval_jet(c, q, order=0, n=n).value
                                    for c in comps])
                      for w2, comps in quotient.conn[w].items()}
            keys = set(reduced) | set(stored)
            for key in keys:
                a = reduced.get(key, np.zeros(n))
                b = stored.get(key, np.zeros(n))
                assert float(np.max(np.abs(a - b))) <= 1e-12


def test_formula_reproduces_stored_extension_on_basis_pairs():
    spec = load_doc(fixture_doc("fx_killing_nonabelian"))
    n = spec.dimension
    free = fa.free_extend(spec, 3, "almost")
    e1, e2 = free.basis[0]
    w = free.basis[1][0]          # [e2, e1]
    formula = _cov_bracket_formula(free, {e2: Num(1.0)}, {e1: Num(1.0)}, n)
    points = sample_points(spec.chart, 10, 5)
    for p in points:
        va = _form_values(formula, p, free.words, n)
        vb = _form_values(free.conn[w], p, free.words, n)
        worst = max(float(np.max(np.abs(va[k] - vb[k]))) for k in va)
        assert worst <= 1e-12


# --------------------------------------------------------------------------
# Rank profile


def test_anchor_rank_growth_at_degenerate_point():
    spec = _anchored("fx_free_heis")
    free = fa.free_extend(spec, 2, "quotient")
    values, = check_values(free, [np.array([0.0, 0.5])],
                           [fa.rank_profile_check(free)])
    (rank_gen, rank_ext, defect), = values
    assert (rank_gen, rank_ext) == (1, 2)
    assert defect <= 1e-12


@pytest.mark.parametrize("degree", [1, 2, 3])
def test_the_closure_defect_of_the_contact_distribution(degree):
    # span{d/dx, d/dy + x d/dz}: their commutator d/dz lies off it by the
    # normal component 1/sqrt(1 + x^2), and the degree-2 word spans it
    spec = load_doc({"chart": {"coords": ["x", "y", "z"], "domain": [[-2.0, 2.0]] * 3},
                     "rank": 2, "mode": "anchored",
                     "anchor": [["1", "0", "0"], ["0", "1", "x"]],
                     "connection": [[["0", "0", "0"]] * 2 for _ in range(2)]})
    free = fa.free_extend(spec, degree, "quotient")
    points = sample_points(spec.chart, 20, 42)
    values, = check_values(free, points, [fa.rank_profile_check(free)])
    rank_gen, rank_ext, defect = values.T
    assert rank_gen.tolist() == [2.0] * 20
    if degree == 1:
        assert rank_ext.tolist() == [2.0] * 20
        exact = 1.0 / np.sqrt(1.0 + points[:, 0] ** 2)
        np.testing.assert_allclose(defect, exact, rtol=1e-15, atol=0.0)
    else:
        assert rank_ext.tolist() == [3.0] * 20
        assert np.all(defect <= 1e-15)


@pytest.mark.parametrize("rank", [1, 2, 3, 4])
def test_the_almost_table_has_constant_unit_coefficients_at_every_rank(rank):
    # jacobiator_check reads each coefficient as a finite constant
    table = fa.free_extend(_synthetic_anchored(rank), 4, "almost").bracket_table
    coeffs = [c for expansion in table.values() for c in expansion.values()]
    assert all(type(c) is int and abs(c) == 1 for c in coeffs)
    assert (rank == 1) == (not coeffs)


# --------------------------------------------------------------------------
# Exact Hall rewriting of the quotient brackets


def _synthetic_anchored(rank):
    """An anchored spec of ``rank`` generators on the plane, with anchor row
    k (k+1)x d/dx + y d/dy and a zero connection."""
    return load_doc({"chart": {"coords": ["x", "y"], "domain": [[-1.0, 1.0], [-1.0, 1.0]]},
                     "rank": rank, "mode": "anchored",
                     "anchor": [[f"{k + 1}*x", "y"] for k in range(rank)],
                     "connection": [[["0", "0"]] * rank for _ in range(rank)]})


def _matrix_of(w, gens):
    """The word ``w`` as nested commutators of the generator matrices."""
    if w.gen is not None:
        return gens[w.gen]
    a, b = (_matrix_of(part, gens) for part in w.parts)
    return a @ b - b @ a


def test_hall_rewriting_matches_integer_matrix_commutators():
    # an independent oracle: the free Lie algebra maps to matrices, so each
    # expansion evaluated in integer matrices must equal the commutator exactly
    rng = np.random.default_rng(20)
    checked = 0
    for rank in range(1, 6):
        gens = rng.integers(-3, 4, size=(rank, 5, 5), dtype=np.int64)
        words = [w for level in fa.hall_basis(rank, 4) for w in level]
        memo: dict = {}
        for u in words:
            for v in words:
                if u == v or u.degree + v.degree > 4:
                    continue
                expansion = fa._hall_bracket(u, v, memo)
                assert expansion and all(fa.is_hall(w) for w in expansion)
                assert all(type(c) is int for c in expansion.values())
                mu, mv = _matrix_of(u, gens), _matrix_of(v, gens)
                total = sum(c * _matrix_of(w, gens) for w, c in expansion.items())
                assert np.array_equal(total, mu @ mv - mv @ mu)
                checked += 1
        table = fa.free_extend(_synthetic_anchored(rank), 4, "quotient").bracket_table
        for expansion in table.values():
            assert list(expansion) == sorted(expansion)
            assert all(type(c) is int for c in expansion.values())
    assert checked == 952


@pytest.mark.parametrize("rank", [1, 2, 3, 4])
def test_quotient_structure_is_a_lie_algebra(rank):
    # N = 90 words at rank 4; the dense structure grows as N^3 past it
    free = fa.free_extend(_synthetic_anchored(rank), 4, "quotient")
    assert free.counts() == [_witt(rank, d) for d in range(1, 5)]
    C, words = free.structure, free.words
    low = [k for k, w in enumerate(words) if w.degree <= 2]
    for a, b, c in product(low, repeat=3):
        if words[a].degree + words[b].degree + words[c].degree <= 4:
            jacobi = C[b, c] @ C[a] + C[c, a] @ C[b] + C[a, b] @ C[c]
            assert np.all(jacobi == 0.0)


# --------------------------------------------------------------------------
# Differential tests against the earlier paths of S, the anchors and the
# rank profile


def _s_frame_three_operand(rho, drho, C, dC, omega, domega, a, b):
    # s_frame_components with its quadratic term as one three-operand einsum
    N, k = rho.shape[-2], len(a)
    slots: dict = {}
    at = np.array([slots.setdefault(key, len(slots)) for key in
                   np.concatenate([a * N + b, b * N + a]).tolist()], dtype=int)
    u, v = np.divmod(np.array(list(slots), dtype=int), N)
    omega_u, omega_v = omega.take(u, -3), omega.take(v, -3)
    lie = (np.einsum("...kj,...kcij->...cki", rho.take(u, -2), domega.take(v, -4))
           + np.einsum("...kji,...kcj->...cki", drho.take(u, -3), omega_v))
    quad = np.einsum("...qj,...kcj,...kqi->...cki", rho, omega_v, omega_u)
    mix = np.einsum("...kqi,...kqc->...cki", omega_v, C.take(u, -3))
    ab, ba = at[:k], at[k:]
    asym = (lie.take(ab, -2) - lie.take(ba, -2)
            - (quad.take(ab, -2) - quad.take(ba, -2))
            + (mix.take(ab, -2) - mix.take(ba, -2)))
    nabla_bracket = (np.swapaxes(dC[..., a, b, :, :], -3, -2)
                     + np.einsum("...kq,...qci->...cki", C[..., a, b, :], omega))
    return asym - nabla_bracket


def test_pairwise_quad_matches_the_three_operand_einsum():
    # The pairwise contraction sums each quad component in another order than
    # the three-operand einsum, so on random data S differs in the last bits:
    # by at most 1e-13 of its largest component (about 2e-16 here; a component
    # near zero can differ by more, relative to itself).  On the fixtures both
    # give the same bytes, which the goldens and the check-value fingerprints
    # hold and the degree-4 fx_so3_sphere case below shows.
    rng = np.random.default_rng(9)
    P, N, n = 4, 7, 3
    fields = (rng.normal(size=(P, N, n)), rng.normal(size=(P, N, n, n)),
              rng.normal(size=(P, N, N, N)), rng.normal(size=(P, N, N, N, n)),
              rng.normal(size=(P, N, N, n)), rng.normal(size=(P, N, N, n, n)))
    a, b = np.array([(a, b) for a in range(N) for b in range(N) if a != b]).T
    for stack in (fields, [x[0] for x in fields]):        # with and without points
        new = ca.s_frame_components(*stack, a, b)
        old = _s_frame_three_operand(*stack, a, b)
        assert new.shape == old.shape
        np.testing.assert_allclose(new, old, rtol=0.0,
                                   atol=1e-13 * np.max(np.abs(old)))
    spec = load_doc(fixture_doc("fx_so3_sphere"))
    free = fa.free_extend(spec, 4, "quotient")
    a, b = np.array([(a, b) for a, u in enumerate(free.words)
                     for b, v in enumerate(free.words)
                     if a != b and u.degree + v.degree <= 4]).T
    f = eval_fields(free, sample_points(spec.chart, 3, 42), {"anchor": 1, "connection": 1})
    fields = (f.rho, f.drho, *_constant_structure(free), f.omega, f.domega)
    assert (ca.s_frame_components(*fields, a, b).tobytes()
            == _s_frame_three_operand(*fields, a, b).tobytes())


def _anchors_by_pair_diff(spec, levels):
    # the magma anchors with every Jacobian entry taken again for each pair
    n = spec.dimension
    rows = block_exprs(spec.block_entries["anchor"])
    anchor = {w: tuple(rows[a]) for a, w in enumerate(levels[0])}
    for level in levels[1:]:
        for w in level:
            u, v = w.parts
            comps = []
            for i in range(n):
                total = Num(0.0)
                for j in range(n):
                    total = e_add(total, e_sub(
                        e_mul(anchor[u][j], diff(anchor[v][i], j)),
                        e_mul(anchor[v][j], diff(anchor[u][i], j))))
                comps.append(total)
            anchor[w] = tuple(comps)
    return anchor


@pytest.mark.parametrize("name", FIXTURES)
def test_magma_anchors_match_the_per_pair_diff_path(name):
    spec = load_doc(fixture_doc(name))
    levels = fa.magma_basis(spec.rank, 4)
    new, old = fa._magma_anchors(spec, levels), _anchors_by_pair_diff(spec, levels)
    assert list(new) == list(old)
    for w in old:
        assert [render(c) for c in new[w]] == [render(c) for c in old[w]], w


def _rank_profile_by_pair(closure, r, f):
    # the rank profile kernel with two einsums, a norm and a public lstsq per
    # closure pair and point; also the largest commutator norm at each point
    mat, drho = f.rho, f.drho
    scale = np.fmax(1.0, np.max(np.abs(mat), axis=(-2, -1)))
    rank_gen = np.linalg.matrix_rank(mat[..., :r, :], tol=1e-10 * scale)
    rank_ext = np.linalg.matrix_rank(mat, tol=1e-10 * scale)
    defect, size = np.zeros(scale.shape), np.zeros(scale.shape)
    for ku, kv in closure:
        vecs = (np.einsum("...j,...ij->...i", mat.take(ku, -2), drho.take(kv, -3))
                - np.einsum("...j,...ij->...i", mat.take(kv, -2), drho.take(ku, -3)))
        for p in np.ndindex(defect.shape):
            vec, A = vecs[p], np.swapaxes(mat[p], -2, -1)
            norm = np.linalg.norm(vec)
            size[p] = np.fmax(size[p], norm)
            if norm != 0.0:
                sol, *_ = np.linalg.lstsq(A, vec, rcond=None)
                defect[p] = np.maximum(defect[p], np.linalg.norm(A @ sol - vec))  # NaN kept
    return (rank_gen, rank_ext, defect), size


def _closure(free):
    idx = free.index
    return [(idx[u], idx[v]) for u in free.words for v in free.words
            if u < v and u.degree + v.degree == free.degree + 1]


def _assert_profiles_agree(free, f):
    with np.errstate(invalid="ignore", over="ignore"):      # as check_values runs it
        gen, ext, defect = fa.rank_profile_check(free).kernel(f)
    (gen0, ext0, defect0), size = _rank_profile_by_pair(
        _closure(free), len(free.basis[0]), f)
    assert np.shape(gen) == np.shape(ext) == np.shape(defect) == np.shape(size)
    assert np.array_equal(gen, gen0) and np.array_equal(ext, ext0)
    assert np.array_equal(np.isnan(defect), np.isnan(defect0))
    kept = ~np.isnan(defect0)
    assert np.all(np.abs(defect - defect0)[kept] <= 1e-13 * np.fmax(1.0, size[kept]))
    return defect, size


def test_rank_profile_kernel_matches_the_per_pair_kernel():
    spec = load_doc(fixture_doc("fx_so3_sphere"))
    free = fa.free_extend(spec, 3, "quotient")
    ku, kv = _closure(free)[0]
    N, n = len(free.words), spec.dimension
    rng = np.random.default_rng(3)
    rho, drho = rng.normal(size=(6, N, n)), rng.normal(size=(6, N, n, n))
    rho[1], drho[1] = 0.0, 0.0                   # every commutator is zero
    drho[2, [ku, kv]] = 0.0                      # the first pair's is zero
    drho[3, 4, 1, 0] = np.nan                    # NaN commutators
    drho[4, 5, 0, 1] = np.inf                    # infinite ones
    rho[5] *= 1e-170                             # squares that underflow
    defect, _ = _assert_profiles_agree(free, SimpleNamespace(rho=rho, drho=drho))
    _assert_profiles_agree(free, SimpleNamespace(rho=rho[0], drho=drho[0]))  # no point axis
    assert np.isnan(defect).tolist() == [False] * 3 + [True] * 2 + [False]


def test_stacked_solve_matches_the_public_lstsq_on_random_stacks():
    spec = load_doc(fixture_doc("fx_so3_sphere"))
    free = fa.free_extend(spec, 3, "quotient")
    N, n = len(free.words), spec.dimension
    rng = np.random.default_rng(11)
    rho, drho = rng.normal(size=(6, N, n)), rng.normal(size=(6, N, n, n))
    rho[1, :, 1] = 2.0 * rho[1, :, 0]            # rank-deficient rho
    rho[2, 1:] = 0.0                             # rho^T zero but for one column
    rho[3] *= 1e-170                             # tiny rho, commutators of size 1
    drho[3] *= 1e170
    # a singular value ratio between eps * n and the lstsq cutoff eps * max(n, N)
    rho[4, :, 1] = 2.0 * rho[4, :, 0] + 1e-14 * rng.normal(size=N)
    high, low = np.linalg.svd(rho[4], compute_uv=False)[[0, -1]]
    assert n < low / high / np.finfo(float).eps < N
    defect, _ = _assert_profiles_agree(free, SimpleNamespace(rho=rho, drho=drho))
    _assert_profiles_agree(free, SimpleNamespace(rho=rho[0], drho=drho[0]))  # no point axis
    assert not np.isnan(defect).any()


@pytest.mark.parametrize("name", ["fx_so3_sphere", "fx_free_heis", "fx_free_abelian",
                                  "fx_killing_nonabelian"])  # the degree-4 bench fixtures
def test_stacked_solve_matches_the_public_lstsq_at_degree_4(name):
    spec = load_doc(fixture_doc(name))
    free = fa.free_extend(spec, 4, "quotient")
    f = eval_fields(free, sample_points(spec.chart, 5 if spec.rank > 2 else 20, 42),
                    {"anchor": 1})
    defect, size = _assert_profiles_agree(free, f)
    # the anchors of the two free fixtures commute to degree 4: every commutator is 0
    assert np.any(size > 0) == (name not in ("fx_free_heis", "fx_free_abelian"))
    assert np.all(defect[size == 0] == 0.0)


def _failing_svd(monkeypatch, fail):
    """np.linalg.svd, recording each call's matrix stack; a call that ``fail``
    picks (given the calls so far) raises as a failed LAPACK SVD does."""
    svd, calls = np.linalg.svd, []

    def patched(a, *args, **kwargs):
        calls.append(a)
        if fail(calls):
            raise np.linalg.LinAlgError("SVD did not converge")
        return svd(a, *args, **kwargs)
    monkeypatch.setattr(np.linalg, "svd", patched)
    return calls


def test_a_failed_svd_reruns_its_chunk_point_by_point(monkeypatch):
    spec = load_doc(fixture_doc("fx_killing_nonabelian"))
    free = fa.free_extend(spec, 4, "quotient")
    points = sample_points(spec.chart, 6, 42)
    checks = [fa.rank_profile_check(free)]
    monkeypatch.setattr(spec_model, "CHUNK_BYTES", 1 << 30)      # one chunk
    expected, = check_values(free, points, checks)
    calls = _failing_svd(monkeypatch, lambda calls: len(calls) == 1)
    values, = check_values(free, points, checks)
    assert values.tobytes() == expected.tobytes()
    assert [len(a) for a in calls] == [len(points)] + [1] * len(points)


def test_a_failed_svd_exits_2_with_its_message(monkeypatch, capsys):
    _failing_svd(monkeypatch, lambda calls: True)
    code = main(["free", "--spec", str(fixture_path("fx_so3_sphere")),
                 "--degree", "3", "--points", "3"])
    assert code == 2
    assert capsys.readouterr().err == "error: SVD did not converge\n"


def test_each_derivative_is_built_once_per_build(monkeypatch):
    spec = load_doc(fixture_doc("fx_so3_sphere"))
    diff_of, calls, memos = exprjet.diff, [], []

    def counted(e, index, memo=None):
        if not any(m is memo for m in memos):
            memos.append(memo)
        calls.append(((id(e), index), (id(e), index) in memo))
        return diff_of(e, index, memo)
    monkeypatch.setattr(exprjet, "diff", counted)     # the recursive calls
    monkeypatch.setattr(fa, "diff", counted)
    fa.free_extend(spec, 4, "quotient")
    built = Counter(key for key, held in calls if not held)
    assert len(memos) == 1 and set(built.values()) == {1}
    assert len(built) == len(memos[0]) < len(calls)
    assert gc.get_referrers(memos[0]) == [memos]     # the build let it go


def _rebuilt(w):
    return fa.leaf(w.gen) if w.gen is not None else fa.pair(*map(_rebuilt, w.parts))


def _structure(w):
    return w.gen if w.gen is not None else tuple(map(_structure, w.parts))


def _flat_key(w):
    # the Hall order as a flat tuple: degree, then the generator or both parts'
    # keys; a prefix code, since degree 1 takes one label and a pair two words
    if w.gen is not None:
        return (1, w.gen)
    return (w.degree,) + _flat_key(w.parts[0]) + _flat_key(w.parts[1])


def _oracle_levels(rank, degree):
    """Magma words per degree, paired and sorted by ``_flat_key`` alone."""
    levels = [[fa.leaf(a) for a in range(rank)]]
    for d in range(2, degree + 1):
        levels.append(sorted((fa.pair(u, v) for p in range(1, d) for u in levels[p - 1]
                              for v in levels[d - p - 1] if _flat_key(u) > _flat_key(v)),
                             key=_flat_key))
    return levels


def test_hall_words_compare_and_hash_by_structure():
    # past MAX_DEGREE by pairing: degree 6 at ranks 1-3, degree 5 at rank 4
    rng = np.random.default_rng(25)
    words = []
    for rank, top in ((1, 6), (2, 6), (3, 6), (4, 5)):
        levels = _oracle_levels(rank, top)
        for d in range(1, fa.MAX_DEGREE + 1):
            assert fa.magma_basis(rank, d) == levels[:d]
            assert [len(level) for level in fa.hall_basis(rank, d)] == [
                _witt(rank, k) for k in range(1, d + 1)]
        assert [sum(map(fa.is_hall, level)) for level in levels] == [
            _witt(rank, k) for k in range(1, top + 1)]
        flat = [w for level in levels for w in level]
        assert len(set(flat)) == len(flat)
        words += flat
    assert len(words) == 1417
    shuffled = [words[k] for k in rng.permutation(len(words))]
    assert sorted(shuffled) == sorted(shuffled, key=_flat_key)

    copies = [_rebuilt(w) for w in words]
    keys, shapes = [_flat_key(w) for w in words], [_structure(w) for w in words]
    for i, j in rng.integers(len(words), size=(20_000, 2)).tolist() + [
            (k, k) for k in range(len(words))]:
        u, v = words[i], copies[j]
        assert (u < v) == (keys[i] < keys[j])
        assert (u == v) == (keys[i] == keys[j]) == (shapes[i] == shapes[j])
        if u == v:
            assert hash(u) == hash(v) and u is not v


# --------------------------------------------------------------------------
# Structural zeros: the rows skip the terms a zero connection makes void


ZERO_OMEGA_FIXTURES = [name for name in FIXTURES
                       if all(v == "0" for plane in fixture_doc(name)["connection"]
                              for row in plane for v in row)]


def _full_s_values(free, source, points):
    """Per-point max |S| of the full frame formula, on ``source``'s anchor and
    connection blocks and ``free``'s constant structure."""
    words = free.words
    a, b = np.array([(a, b) for a, u in enumerate(words) for b, v in enumerate(words)
                     if a != b and u.degree + v.degree <= free.degree],
                    dtype=int).reshape(-1, 2).T
    f = eval_fields(source, points, {"anchor": 1, "connection": 1})
    return spec_model.per_point(ca.s_frame_components(
        f.rho, f.drho, *_constant_structure(free), f.omega, f.domega, a, b), len(points))


@pytest.mark.parametrize("name", ZERO_OMEGA_FIXTURES)
def test_s_without_a_connection_is_the_full_formula_bit_for_bit(name):
    spec = load_doc(fixture_doc(name))
    points = sample_points(spec.chart, 4, 42)
    assert len(ZERO_OMEGA_FIXTURES) == 13
    for degree in (2, 3, 4):
        for mode in ("almost", "quotient"):
            free = fa.free_extend(spec, degree, mode)
            check = fa.cartan_extended_check(free)
            assert not free.block_entries["connection"].written
            assert "connection" not in check.reads
            values, = check_values(free, points, [check])
            assert np.array_equal(values[:, 0], _full_s_values(free, free, points))


def _overflowing(points, base) -> exprjet.Expr:
    """``base`` plus an expression that overflows at the point with the
    largest x and is finite, with finite partials, at every other point."""
    xs = sorted(float(p[0]) for p in points)
    text = f"exp(x - ({(xs[-1] + xs[-2]) / 2!r}))"
    for _ in range(20):                         # exp(gap/2)^(2^20) overflows
        text = f"({text})^2"
    assert xs[-1] - xs[-2] > 2e-3
    return e_add(base, parse_expr(text, ["x", "y"]))


# the structure is an array of finite constants: rho is the input that can overflow
@pytest.mark.parametrize("block, listed", [("anchor", True)])
def test_s_without_a_connection_is_nan_where_the_full_formula_is(block, listed):
    spec = load_doc(fixture_doc("fx_free_heis"))
    free = fa.free_extend(spec, 3, "quotient")
    points = sample_points(spec.chart, 6, 42)
    entries = list(free.block_entries[block].entries)
    index, sign, e = entries[0]         # rho of a generator
    entries[0] = (index, sign, _overflowing(points, e))
    source = SimpleNamespace(block_entries={**free.block_entries, block: exprjet.Block(
        entries, free.block_entries[block].shape, block)})
    values, = check_values(source, points, [fa.cartan_extended_check(free)])
    full = _full_s_values(free, source, points)
    assert np.array_equal(values[:, 0], full, equal_nan=True)
    worst = np.argmax([p[0] for p in points])
    assert np.isnan(full).tolist() == [listed and k == worst for k in range(6)]


@pytest.mark.parametrize("rank", [1, 2, 3])
@pytest.mark.parametrize("degree", [3, 4])
def test_jacobi_triples_are_the_filtered_combinations(rank, degree):
    for levels in (fa.magma_basis(rank, degree), fa.hall_basis(rank, degree)):
        words = [w for level in levels for w in level]
        every = [t for t in combinations(range(len(words)), 3)
                 if sum(words[k].degree for k in t) <= degree]
        assert fa._triples(words, degree) == every


def test_pruned_jacobiator_residual_is_the_unpruned_one(monkeypatch):
    # fx_killing_nonabelian has omega != 0; listing every (triple, slot, q)
    # with deg q <= deg host again gives the same residual up to zero signs
    spec = load_doc(fixture_doc("fx_killing_nonabelian"))
    free = fa.free_extend(spec, 4, "almost")
    zeros = (Num(0.0),) * spec.dimension
    padded = replace(free, conn={h: {**entries, **{q: zeros for q in free.words
                                                   if q.degree <= h.degree
                                                   and q not in entries}}
                                 for h, entries in free.conn.items()})
    assert padded.block_entries["connection"].written == \
        free.block_entries["connection"].written
    points = sample_points(spec.chart, 5, 42)
    run, rows = fa.run_checks, []
    monkeypatch.setattr(fa, "run_checks", lambda *args: rows.extend(args[2]) or run(*args))
    # each check takes the Jacobiator of every triple and of every shifted row
    # it lists
    jacobiator, calls = fa._jacobiator, []
    monkeypatch.setattr(fa, "_jacobiator", lambda *args: calls.append(args)
                        or jacobiator(*args))
    triples = len(fa._triples(free.words, free.degree))
    reports, shifted = [], []
    for t in (free, padded):
        calls.clear()
        reports.append(fa.jacobiator_check(t, points))
        shifted.append(len(calls) - triples)
    assert reports[0] == reports[1]
    (pruned,), = spec_model.chunked(free, points, rows[0].reads, rows[0].kernel)
    (every,), = spec_model.chunked(padded, points, rows[1].reads, rows[1].kernel)
    assert np.array_equal(np.abs(pruned), np.abs(every))
    assert 0 < shifted[0] < shifted[1]


@pytest.mark.parametrize("name", ["fx_so3_sphere", "fx_killing_nonabelian"])
def test_the_almost_table_has_constant_unit_coefficients(name):
    free = fa.free_extend(load_doc(fixture_doc(name)), 4, "almost")
    coeffs = [c for expansion in free.bracket_table.values() for c in expansion.values()]
    assert coeffs and all(type(c) is int and abs(c) == 1 for c in coeffs)
