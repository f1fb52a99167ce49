"""Differential tests of the chunked check pass.

Every ``Check`` row run once per chunk of points must give the same bytes as
the same rows run one point per chunk (``CHUNK_BYTES`` = 1), on all bundled
fixtures at 100 points and on the degree-3 free truncations; no chunk may fall
back to its one-point rerun.

The rows must also give the same bytes when ``eval_block`` returns C-ordered
copies of its arrays, whose point axis is not innermost in memory.

Both passes must also match the per-point values of the point-by-point kernels
the chunked ones replaced: the sha256 of each row's ``check_values`` array
(dtype, shape and bytes) in every case is frozen in
``golden/check_value_fingerprints.json``.  Freeze (only when a value is meant
to change, and say why in CHANGES.md)::

    PYTHONPATH=src python tests/test_chunked_kernels.py --freeze
"""

import hashlib
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from algebroid import fixture_path, spec_model
from algebroid import freealg as fa
from algebroid.cli import main, run_check_suite

from conftest import load_doc

FIXTURES = (
    "fx_action_so2", "fx_bla", "fx_bla_const", "fx_bla_nojacobi", "fx_flat_exp",
    "fx_foliation_flat", "fx_free_abelian", "fx_free_heis",
    "fx_killing_nonabelian", "fx_nonriem_fol", "fx_omega_xdy",
    "fx_poisson_linear", "fx_rho0_n1", "fx_so2_conformal", "fx_so3_sphere",
    "fx_sympl_conf", "fx_taucurv", "fx_tm_flat",
)
FREE_FIXTURES = ("fx_free_heis", "fx_free_abelian", "fx_killing_nonabelian",
                 "fx_nonriem_fol", "fx_so3_sphere")
PRINTS = Path(__file__).resolve().parent / "golden" / "check_value_fingerprints.json"
CHECK_VALUES = spec_model.check_values


def _check_flags(spec):
    blocks = spec.block_entries
    flags = {"axioms": spec.mode == "lie", "cartan": spec.mode == "lie",
             "flat_frame": spec.mode == "lie", "killing": "metric" in blocks,
             "koszul": "metric" in blocks,
             "generalized": "metric" in blocks and "two_form" in blocks}
    for block in ("symplectic", "poisson"):
        flags[block] = block in blocks
    return flags


def _suite_case(name):
    spec = spec_model.load_spec_file(fixture_path(name))
    points = spec_model.sample_points(spec.chart, 100)
    # the connection cube as a psi candidate, so the Koszul kernel reads a
    # block that varies over the chart

    def run():
        reports = spec_model.validate_spec(spec, points)
        return reports + run_check_suite(spec, points, _check_flags(spec),
                                         psi_candidate=spec.block_entries["connection"])
    return run


def _free_case(name):
    spec = spec_model.load_spec_file(fixture_path(name))
    points = spec_model.sample_points(spec.chart, 100 if spec.rank < 3 else 10)
    quotient = fa.free_extend(spec, 3, "quotient")
    almost = fa.free_extend(spec, 3, "almost")
    checks = [fa.cartan_extended_check(quotient), fa.rank_profile_check(quotient)]
    if "metric" in spec.block_entries:
        checks += fa.killing_checks(quotient)

    def run():
        spec_model.check_values(quotient, points, checks)
        return [fa.jacobiator_check(almost, points)]
    return run


# x^1000 overflows the anchor-morphism bracket to inf - inf = nan
NON_FINITE = {"chart": {"coords": ["x", "y"], "domain": [[-2.0, 2.0], [-2.0, 2.0]]},
              "rank": 1, "mode": "lie", "anchor": [["x^1000", "0"]],
              "connection": [[["0", "0"]]]}


def _non_finite_case():
    spec = load_doc(NON_FINITE)
    points = np.array(spec_model.sample_points(spec.chart, 100))

    def run():
        with np.errstate(invalid="ignore"):
            return spec_model.validate_spec(spec, points)
    return run


CASES = {**{name: lambda name=name: _suite_case(name) for name in FIXTURES},
         **{f"free/{name}": lambda name=name: _free_case(name)
            for name in FREE_FIXTURES},
         "non_finite": _non_finite_case}


def _passes(monkeypatch, chunk_bytes, run):
    """The reports of ``run()`` with ``CHUNK_BYTES`` set to ``chunk_bytes``,
    each check_values call's (names, values) per check, and the size of each
    batch of points read.  Each call must read each of its points once: a
    chunk that ran again point by point would read its points twice."""
    calls, reads = [], []
    eval_fields = spec_model.eval_fields

    def recording(source, points, checks):
        first = len(reads)
        out = CHECK_VALUES(source, points, checks)
        assert sum(reads[first:]) == len(points)
        calls.extend(("+".join(check.names), values)
                     for check, values in zip(checks, out))
        return out

    def counting(source, p, orders):
        reads.append(len(p))
        return eval_fields(source, p, orders)
    with monkeypatch.context() as m:
        m.setattr(spec_model, "CHUNK_BYTES", chunk_bytes)
        m.setattr(spec_model, "check_values", recording)
        m.setattr(spec_model, "eval_fields", counting)
        reports = [r.to_dict() for r in run()]
    return reports, calls, reads


def _fingerprints(calls) -> dict[str, str]:
    """Call index and check names -> sha256 of the values' dtype, shape, bytes."""
    out = {}
    for k, (names, values) in enumerate(calls):
        digest = hashlib.sha256(f"{values.dtype.str}{values.shape}".encode())
        digest.update(np.ascontiguousarray(values).tobytes())
        out[f"{k}/{names}"] = digest.hexdigest()
    return out


def _same_bytes(monkeypatch, case):
    run = CASES[case]()
    reports, chunked, reads = _passes(monkeypatch, spec_model.CHUNK_BYTES, run)
    single_reports, single, single_reads = _passes(monkeypatch, 1, run)
    assert max(reads) > 1 and max(single_reads) == 1
    assert len(chunked) == len(single) > 0
    for (name, a), (single_name, b) in zip(chunked, single):
        assert name == single_name
        assert a.shape == b.shape and a.tobytes() == b.tobytes()
    assert json.dumps(reports) == json.dumps(single_reports)
    assert _fingerprints(chunked) == json.loads(PRINTS.read_text())[case]
    return [values for _, values in chunked]


@pytest.mark.parametrize("name", FIXTURES)
def test_check_rows_chunked_match_one_point_chunks(monkeypatch, name):
    _same_bytes(monkeypatch, name)


@pytest.mark.parametrize("name", FREE_FIXTURES)
def test_free_rows_chunked_match_one_point_chunks(monkeypatch, name):
    _same_bytes(monkeypatch, f"free/{name}")


def _c_ordered(eval_block):
    """``eval_block`` giving C-ordered copies of its arrays."""
    return lambda *args: [np.ascontiguousarray(a) for a in eval_block(*args)]


@pytest.mark.parametrize("case", sorted(CASES))
def test_rows_do_not_depend_on_the_memory_layout(monkeypatch, case):
    # eval_block keeps the point axis innermost in memory; an einsum's
    # summation order follows its operands' strides, so every row (the probe's
    # included) must give the bytes it gives on C-ordered arrays
    run = CASES[case]()
    reports, built, _ = _passes(monkeypatch, spec_model.CHUNK_BYTES, run)
    with monkeypatch.context() as m:
        m.setattr(spec_model, "eval_block", _c_ordered(spec_model.eval_block))
        c_reports, c_ordered, _ = _passes(m, spec_model.CHUNK_BYTES, run)
    assert [name for name, _ in built] == [name for name, _ in c_ordered]
    for (_, a), (_, b) in zip(built, c_ordered):
        assert a.shape == b.shape and a.tobytes() == b.tobytes()
    assert json.dumps(reports) == json.dumps(c_reports)


def test_non_finite_residual_in_the_same_place(monkeypatch):
    values = _same_bytes(monkeypatch, "non_finite")
    points = np.array(spec_model.sample_points(load_doc(NON_FINITE).chart, 100))
    nan = np.isnan(values[-2][:, 0])        # the anchor_morphism row
    assert nan.any() and not nan.all()
    assert np.all(np.abs(points[nan, 0]) > 1.0)


def test_only_a_point_error_reruns_a_chunk(monkeypatch):
    # a defect of the batched shapes must raise from the chunk, not hide in
    # the one-point rerun
    spec = spec_model.load_spec_file(fixture_path("fx_bla"))
    points = spec_model.sample_points(spec.chart, 10)
    reads = []
    eval_fields = spec_model.eval_fields

    def counting(source, p, orders):
        reads.append(len(p))
        return eval_fields(source, p, orders)

    def kernel(f):
        return f.rho[..., 5, :],
    monkeypatch.setattr(spec_model, "eval_fields", counting)
    with pytest.raises(IndexError):
        spec_model.check_values(spec, points, [spec_model.Check(
            ("broken",), {"anchor": 0}, kernel)])
    assert reads == [10]


def _chunk_reads(monkeypatch, run) -> list[int]:
    """The size of each batch of points that ``run()`` reads."""
    reads = []
    eval_fields = spec_model.eval_fields

    def counting(source, p, orders):
        reads.append(len(p))
        return eval_fields(source, p, orders)
    with monkeypatch.context() as m:
        m.setattr(spec_model, "eval_fields", counting)
        run()
    return reads


def test_free_degree_four_reads_its_five_points_as_one_chunk(monkeypatch):
    # the structure and the Jacobiators are constant arrays, not blocks: the
    # quotient pass reads the extended anchor alone (omega = 0), and both
    # passes read the 5 points of degree-4 fx_so3_sphere at once
    path = str(fixture_path("fx_so3_sphere"))
    reads = _chunk_reads(monkeypatch, lambda: main(
        ["free", "--spec", path, "--degree", "4", "--points", "5"]))
    assert reads == [5, 5]


def test_a_pass_of_constant_blocks_still_reads_in_chunks(monkeypatch):
    # no block of fx_bla_const reads a coordinate: a chunk is still sized by
    # each block's point_bytes
    spec = spec_model.load_spec_file(fixture_path("fx_bla_const"))
    points = spec_model.sample_points(spec.chart, 20000)
    reads = _chunk_reads(monkeypatch, lambda: spec_model.validate_spec(spec, points))
    assert len(reads) > 1 and sum(reads) == len(points)


def freeze() -> None:
    prints = {}
    with pytest.MonkeyPatch.context() as m:
        for case, make in CASES.items():
            _, calls, _ = _passes(m, spec_model.CHUNK_BYTES, make())
            prints[case] = _fingerprints(calls)
    PRINTS.write_text(json.dumps(prints, indent=2, sort_keys=True) + "\n")
    print(f"froze {sum(map(len, prints.values()))} check value fingerprints "
          f"of {len(prints)} cases in {PRINTS}")


if __name__ == "__main__":
    if sys.argv[1:] != ["--freeze"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_chunked_kernels.py --freeze")
    freeze()
