import numpy as np
import pytest

from algebroid import spec_model
from algebroid.exprjet import EvalDomainError, eval_jet
from algebroid.spec_model import (
    ANCHOR_MORPHISM, JACOBI, SchemaError, eval_fields, max_abs,
    eval_structure, load_spec, run_checks, sample_points, splitmix_uniforms,
    validate_spec,
)

from conftest import fixture_doc, load_doc


# --------------------------------------------------------------------------
# Loading and schema validation


def test_load_action_so2(spec_of):
    spec = spec_of("fx_action_so2")
    assert spec.rank == 1
    assert spec.dimension == 2
    assert spec.mode == "lie"
    assert spec.metric is not None


def test_load_spec_accepts_json_text():
    import json
    doc = fixture_doc("fx_action_so2")
    spec = load_spec(json.dumps(doc))
    assert spec.rank == 1
    with pytest.raises(SchemaError, match="invalid JSON"):
        load_spec("{broken")


def test_blocks_compile_at_first_evaluation():
    spec = load_doc(fixture_doc("fx_so3_sphere"))
    blocks = spec.block_entries
    assert not any("program" in vars(block) for block in blocks.values())
    eval_structure(spec, spec.chart.center(), order=1)
    assert [name for name, block in blocks.items() if "program" in vars(block)] \
        == ["structure"]


def test_load_so3_sphere(spec_of):
    spec = spec_of("fx_so3_sphere")
    assert spec.rank == 3
    assert len(spec.structure) == 3


def test_metric_not_symmetric():
    doc = fixture_doc("fx_action_so2")
    doc["metric"] = [["1", "x"], ["y", "1"]]
    with pytest.raises(SchemaError, match="not symmetric"):
        load_spec(doc)


def test_two_form_not_antisymmetric():
    doc = fixture_doc("fx_action_so2")
    doc["two_form"] = [["0", "x"], ["x", "0"]]
    with pytest.raises(SchemaError, match="not antisymmetric"):
        load_spec(doc)
    doc["two_form"] = [["1", "x"], ["-x", "0"]]
    with pytest.raises(SchemaError, match="diagonal"):
        load_spec(doc)


@pytest.mark.parametrize("mutate, match", [
    (lambda d: d.pop("anchor"), "missing field"),
    (lambda d: d.update(rank=0), "rank"),
    (lambda d: d.update(mode="other"), "mode"),
    (lambda d: d.update(unknown_key=1), "unknown fields"),
    (lambda d: d["chart"].update(domain=[[1, 1], [-2, 2]]), "lo < hi"),
    (lambda d: d["chart"].update(coords=["x", "x"]), "distinct"),
    (lambda d: d["chart"].update(coords=["sin", "y"]), "shadows"),
    (lambda d: d.update(anchor=[["-y", "x", "0"]]), "entries"),
    (lambda d: d.update(rank=True), "rank: .* got True"),
    (lambda d: d.update(rank=1.5), "rank: .* got 1.5"),
    (lambda d: d.update(structure=[{"a": "1", "b": 2, "c": 1, "expr": "x"}]),
     "a='1' is not an integer"),
    (lambda d: d.update(structure=[{"a": 1, "b": 1.7, "c": 1, "expr": "x"}]),
     "b=1.7 is not an integer"),
    (lambda d: d.update(structure=[{"a": 1, "b": 1, "c": True, "expr": "x"}]),
     "c=True is not an integer"),
    pytest.param(lambda d: d["chart"].update(domain=[[-1e308, 1e308], [-2, 2]]),
                 "must be finite", id="infinite width"),
    pytest.param(lambda d: d["chart"].update(domain=[[0, float("inf")], [-2, 2]]),
                 "must be finite", id="infinite bound"),
    pytest.param(lambda d: d["chart"].update(domain=[[float("nan"), 1], [-2, 2]]),
                 "must be finite", id="nan bound"),
    (lambda d: d["chart"].update(domain=[["0", 1], [-2, 2]]), "numbers"),
])
def test_schema_errors(mutate, match):
    doc = fixture_doc("fx_action_so2")
    mutate(doc)
    with pytest.raises(SchemaError, match=match):
        load_spec(doc)


def test_expression_error_carries_field_path():
    doc = fixture_doc("fx_action_so2")
    doc["anchor"] = [["-y", "x +"]]
    with pytest.raises(SchemaError, match=r"anchor\[0\]\[1\]"):
        load_spec(doc)


def test_structure_entry_validation():
    doc = fixture_doc("fx_bla")
    doc["structure"] = [{"a": 2, "b": 1, "c": 3, "expr": "x"}]
    with pytest.raises(SchemaError, match="a < b"):
        load_spec(doc)
    doc["structure"] = [{"a": 1, "b": 2, "c": 5, "expr": "x"}]
    with pytest.raises(SchemaError, match="out of range"):
        load_spec(doc)
    doc["structure"] = [{"a": 1, "b": 2, "c": 3, "expr": "x"},
                        {"a": 1, "b": 2, "c": 3, "expr": "y"}]
    with pytest.raises(SchemaError, match="duplicate"):
        load_spec(doc)


def test_structure_forbidden_in_anchored_mode():
    doc = fixture_doc("fx_free_heis")
    doc["structure"] = [{"a": 1, "b": 2, "c": 1, "expr": "1"}]
    with pytest.raises(SchemaError, match="anchored"):
        load_spec(doc)


# --------------------------------------------------------------------------
# Storage antisymmetry


def test_structure_storage_antisymmetry(spec_of, points_of):
    spec = spec_of("fx_so3_sphere")
    for p in points_of(spec, 20):
        C = eval_structure(spec, p)
        assert np.array_equal(C + C.transpose(1, 0, 2), np.zeros_like(C))


# --------------------------------------------------------------------------
# Sampling


def test_sampling_deterministic_and_in_box(spec_of):
    spec = spec_of("fx_bla")
    a = sample_points(spec.chart, 50, seed=42)
    b = sample_points(spec.chart, 50, seed=42)
    c = sample_points(spec.chart, 50, seed=43)
    assert all(np.array_equal(x, y) for x, y in zip(a, b))
    assert any(not np.array_equal(x, y) for x, y in zip(a, c))
    for p in a:
        assert spec.chart.contains(p)


def _splitmix_loop(seed, count):
    """SplitMix64 uniforms one at a time in Python integers: the reference
    for the vectorized draw."""
    mask, state, out = (1 << 64) - 1, seed & ((1 << 64) - 1), []
    for _ in range(count):
        state = (state + 0x9E3779B97F4A7C15) & mask
        z = ((state ^ (state >> 30)) * 0xBF58476D1CE4E5B9) & mask
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
        out.append(((z ^ (z >> 31)) >> 11) * (1.0 / (1 << 53)))
    return out


@pytest.mark.parametrize("seed", [0, 1, 7, 42, 2**63 + 5, 2**64 - 1, 2**70 + 3, -3])
def test_splitmix_draw_matches_the_one_at_a_time_loop(seed):
    values = splitmix_uniforms(seed, 257)
    assert values.dtype == np.float64
    assert values.tolist() == _splitmix_loop(seed, 257)
    assert splitmix_uniforms(seed, 0).shape == (0,)


def test_splitmix_uniform_range():
    values = splitmix_uniforms(7, 1000)
    assert all(0.0 <= v < 1.0 for v in values)
    assert 0.4 < float(np.mean(values)) < 0.6


# --------------------------------------------------------------------------
# Anchor morphism


def test_anchor_morphism_rank_one(spec_of, points_of):
    spec = spec_of("fx_action_so2")
    report, = run_checks(spec, points_of(spec, 50), [ANCHOR_MORPHISM])
    assert report.passed and report.max_residual == 0.0


def test_anchor_morphism_so3(spec_of, points_of):
    spec = spec_of("fx_so3_sphere")
    points = points_of(spec, 100)
    report, = run_checks(spec, points, [ANCHOR_MORPHISM])
    assert report.max_residual <= 1e-10


def test_anchor_morphism_so3_independent_bracket_oracle(spec_of, points_of):
    # commutators by central finite differences, no jets involved
    spec = spec_of("fx_so3_sphere")
    h = 1e-5
    n, r = spec.dimension, spec.rank
    for p in points_of(spec, 10):
        rho = np.array([[eval_jet(spec.anchor[a][i], p, order=0, n=n).value
                         for i in range(n)] for a in range(r)])
        drho = np.zeros((r, n, n))
        for j in range(n):
            shift = np.zeros(n)
            shift[j] = h
            for a in range(r):
                for i in range(n):
                    drho[a, i, j] = (
                        eval_jet(spec.anchor[a][i], p + shift, order=0, n=n).value
                        - eval_jet(spec.anchor[a][i], p - shift, order=0, n=n).value
                    ) / (2 * h)
        C = eval_structure(spec, p)
        bracket = np.einsum("aj,bij->abi", rho, drho)
        defect = bracket - bracket.transpose(1, 0, 2) \
            - np.einsum("abc,ci->abi", C, rho)
        assert float(np.max(np.abs(defect))) <= 1e-6


def test_anchor_morphism_detects_sign_flip(points_of):
    doc = fixture_doc("fx_so3_sphere")
    for entry in doc["structure"]:
        if entry["a"] == 1 and entry["b"] == 2:
            entry["expr"] = "-1"
    spec = load_doc(doc)
    report, = run_checks(spec, points_of(spec, 100), [ANCHOR_MORPHISM])
    assert report.max_residual >= 0.1


# --------------------------------------------------------------------------
# Jacobi


def test_jacobi_so3_and_bla(spec_of, points_of):
    for name in ("fx_so3_sphere", "fx_bla"):
        spec = spec_of(name)
        report, = run_checks(spec, points_of(spec, 50), [JACOBI])
        assert report.max_residual <= 1e-12, name


def test_jacobi_violation_detected(spec_of, points_of):
    spec = spec_of("fx_bla_nojacobi")
    points = points_of(spec, 50)
    report, = run_checks(spec, points, [JACOBI])
    # [e1,[e2,e3]] + cyc = [e2,-e1] + [e3, x e3] = x e3 at this fixture
    assert report.max_residual >= 0.5
    assert not report.passed


def _assert_jacobi_oracle(spec, points):
    # independent expansion with explicit loops, no einsum (the anchor is zero)
    r = spec.rank
    for p in points:
        C = eval_structure(spec, p)
        worst = 0.0
        for a in range(r):
            for b in range(r):
                for c in range(r):
                    for d in range(r):
                        total = 0.0
                        for x, y, z in ((a, b, c), (b, c, a), (c, a, b)):
                            for e in range(r):
                                total += C[y, z, e] * C[x, e, d]
                        if a < b < c:
                            worst = max(worst, abs(total))
        residual = max_abs(*JACOBI.kernel(eval_fields(spec, p, JACOBI.reads)))
        assert worst == pytest.approx(residual, rel=1e-12)


def test_jacobi_brute_force_oracle(spec_of, points_of):
    spec = spec_of("fx_bla_nojacobi")
    _assert_jacobi_oracle(spec, points_of(spec, 10))


def _zero_anchor_doc(rank: int, structure: list) -> dict:
    zeros = ["0", "0"]
    return {"chart": {"coords": ["x", "y"], "domain": [[0.5, 2.0], [-1.0, 1.0]]},
            "rank": rank, "mode": "lie", "anchor": [zeros] * rank,
            "structure": structure,
            "connection": [[zeros] * rank for _ in range(rank)]}


def test_jacobi_oracle_sees_every_jacobiator_component(points_of):
    # fx_bla_nojacobi with its frame relabelled so that its Jacobiator points
    # along the first frame vector, and constant random structure functions
    # of rank 4, whose Jacobiators have every component
    relabelled = load_doc(_zero_anchor_doc(3, [
        {"a": 2, "b": 3, "c": 1, "expr": "x"}, {"a": 1, "b": 2, "c": 2, "expr": "-1"}]))
    rng = np.random.default_rng(11)
    random = load_doc(_zero_anchor_doc(4, [
        {"a": a, "b": b, "c": c, "expr": f"{rng.uniform(-1.0, 1.0):.3f}"}
        for a in range(1, 5) for b in range(a + 1, 5) for c in range(1, 5)]))
    for spec in (relabelled, random):
        _assert_jacobi_oracle(spec, points_of(spec, 10))


# --------------------------------------------------------------------------
# validate_spec


def test_validate_action_so2(spec_of, points_of):
    spec = spec_of("fx_action_so2")
    reports = validate_spec(spec, points_of(spec, 50))
    assert all(r.passed for r in reports)
    names = {r.name for r in reports}
    assert {"structure_antisymmetry", "metric_positive_definite",
            "anchor_morphism", "jacobi",
            "symplectic_nondegenerate"} <= names


def test_validate_indefinite_metric(points_of):
    doc = fixture_doc("fx_action_so2")
    doc["metric"] = [["1", "0"], ["0", "-1"]]
    spec = load_doc(doc)
    reports = validate_spec(spec, points_of(spec, 20))
    pd = next(r for r in reports if r.name == "metric_positive_definite")
    assert not pd.passed


def test_validate_poisson_bivector_two_dim(spec_of, points_of):
    # any bivector on a 2-dimensional chart is Poisson
    spec = spec_of("fx_poisson_linear")
    reports = validate_spec(spec, points_of(spec, 30))
    pj = next(r for r in reports if r.name == "poisson_jacobi")
    assert pj.passed and pj.max_residual <= 1e-15


def test_report_verdict_matches_tolerance(spec_of, points_of):
    spec = spec_of("fx_so3_sphere")
    report, = run_checks(spec, points_of(spec, 20), [ANCHOR_MORPHISM], 0.0)
    assert report.passed == (report.max_residual <= 0.0)
    as_dict = report.to_dict()
    assert set(as_dict) == {"name", "points", "max_residual", "mean_residual",
                            "tolerance", "pass", "worst_point"}


def test_nan_residual_fails_and_names_its_point():
    from algebroid.spec_model import report_from_residuals
    points = [(0.0, 0.0), (1.0, 0.0), (2.0, 0.0), (3.0, 0.0)]
    report = report_from_residuals("probe", [0.0, 1e-12, float("nan"), 5e-13],
                                   points, 1e-9)
    assert not report.passed
    assert np.isnan(report.max_residual)
    assert report.worst_point == (2.0, 0.0)
    inf_report = report_from_residuals("probe", [0.0, float("inf")], points, 1e-9)
    assert not inf_report.passed and inf_report.worst_point == (1.0, 0.0)


# --------------------------------------------------------------------------
# Chunked reads


@pytest.mark.parametrize("chunk_points", [1, 3, 7])
def test_chunks_give_the_same_reports_and_errors(monkeypatch, chunk_points):
    spec = load_doc(fixture_doc("fx_so3_sphere"))
    points = sample_points(spec.chart, 20)
    whole = [r.to_dict() for r in validate_spec(spec, points)]
    # the budget of exactly chunk_points points of the blocks validate reads
    orders = {"structure": 1, "metric": 0, "anchor": 1}
    per_point = sum(spec.block_entries[b].point_bytes(2, o) for b, o in orders.items())
    monkeypatch.setattr(spec_model, "CHUNK_BYTES", chunk_points * per_point)
    assert [r.to_dict() for r in validate_spec(spec, points)] == whole
    # an anchor that cannot be evaluated at sample point 10 only
    x, y = (repr(float(c)) for c in points[10])
    doc = fixture_doc("fx_so3_sphere")
    doc["anchor"][1][0] = f"ln((x - ({x}))^2 + (y - ({y}))^2)"
    with pytest.raises(EvalDomainError, match=r"^anchor\[1\]\[0\]: ln of nonpositive "
                       rf"value in .* at point \({x}, {y}\)$"):
        validate_spec(load_doc(doc), points)


# --------------------------------------------------------------------------
# Frame-relabeling invariance


def _permuted_so3_doc(perm):
    doc = fixture_doc("fx_so3_sphere")
    anchor = doc["anchor"]
    doc["anchor"] = [anchor[perm.index(a)] for a in range(3)]
    entries = []
    for entry in doc["structure"]:
        a, b, c = perm[entry["a"] - 1] + 1, perm[entry["b"] - 1] + 1, \
            perm[entry["c"] - 1] + 1
        expr = entry["expr"]
        if a > b:
            a, b = b, a
            expr = expr[1:] if expr.startswith("-") else f"-{expr}"
        entries.append({"a": a, "b": b, "c": c, "expr": expr})
    doc["structure"] = entries
    return doc


@pytest.mark.parametrize("perm", [(1, 2, 0), (2, 1, 0), (0, 2, 1)])
def test_residuals_invariant_under_frame_relabeling(spec_of, points_of, perm):
    base = spec_of("fx_so3_sphere")
    permuted = load_doc(_permuted_so3_doc(list(perm)))
    for p in points_of(base, 20):
        for row in (ANCHOR_MORPHISM, JACOBI):
            assert abs(max_abs(*row.kernel(eval_fields(base, p, row.reads)))
                       - max_abs(*row.kernel(eval_fields(permuted, p, row.reads)))) <= 1e-12


def test_rank_one_anchored_bundle_has_canonical_bracket(points_of):
    # with r = 1 the zero bracket always satisfies the anchor-morphism axiom
    doc = fixture_doc("fx_rho0_n1")
    doc["mode"] = "lie"
    doc["structure"] = []
    spec = load_doc(doc)
    report, = run_checks(spec, points_of(spec, 50), [ANCHOR_MORPHISM])
    assert report.max_residual == 0.0
