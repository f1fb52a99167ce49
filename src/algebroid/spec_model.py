"""Serialized description of an anchored bundle / Lie algebroid over a chart.

A spec document is a JSON object carrying a chart, an anchor matrix, structure
functions (stored for a<b only, so antisymmetry cannot be violated by input),
connection forms, and optional geometric structures (metric, 2-form, psi,
symplectic form, Poisson bivector), all as expression strings over the chart
coordinates.  Loading parses every expression and enforces the shape and
symmetry contracts; `validate_spec` then samples the chart box and checks the
numeric axioms (positive definiteness, anchor morphism, Jacobi, bivector
Jacobi, nondegeneracy).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import cached_property, partial
from itertools import combinations
from types import SimpleNamespace
from typing import Callable, Mapping, NamedTuple, Sequence

import numpy as np

from .exprjet import (
    Block, EvalDomainError, Expr, Num, Neg, FUNCTIONS, MAX_DEPTH, ParseError,
    eval_block, parse_expr, tree_depth,
)

__all__ = [
    "ChartSpec", "AlgebroidSpec", "CheckReport", "SchemaError", "Check",
    "TOLERANCES", "load_spec", "load_spec_file", "sample_points",
    "eval_fields", "point_fields", "check_values", "reduce_checks", "run_checks",
    "ANCHOR_MORPHISM", "JACOBI", "validate_spec",
]

DEFAULT_POINTS = 100
DEFAULT_SEED = 42

_DEFINITENESS_FLOOR = 1e-12

# Bytes of evaluation slots and block arrays a chunk of point_fields takes
CHUNK_BYTES = 1 << 20

# Default tolerance of every check, by report name.  A zero entry marks an
# exact or margin test, which a --tol override leaves alone.
TOLERANCES = {
    "structure_antisymmetry": 0.0,
    "metric_positive_definite": 0.0,
    "symplectic_nondegenerate": 0.0,
    "anchor_morphism": 1e-9,
    "jacobi": 1e-9,
    "poisson_jacobi": 1e-9,
    "cartan_s_frame": 1e-9,
    "s_frame_vs_covariant": 1e-9,
    "tau_intertwine": 1e-10,
    "alpha_curvature_flat": 1e-7,
    "tau_curvature_flat": 1e-7,
    "killing_frame": 1e-7,
    "killing_frame_vs_sym": 1e-10,
    "generalized_sym": 1e-9,
    "generalized_skew": 1e-9,
    "symplectic_closed": 1e-9,
    "symplectic_residual": 1e-9,
    "poisson_residual": 1e-9,
    "koszul_delta": 1e-9,
    "flat_frame_gate": 1e-7,
    "flat_frame": 1e-6,
    "cartan_extended": 1e-8,
    "jacobiator_covariant_constancy": 1e-8,
    "killing_generators": 1e-7,
    "killing_extended": 1e-7,
    "geodesic_orthogonality": 1e-6,
    "geodesic_energy_drift": 1e-8,
}


class SchemaError(Exception):
    """Spec document violates the schema (missing field, wrong shape, ...)."""

    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")
        self.path = path


class SingularMetricError(Exception):
    """Metric failed the leading-minor positivity test at a point."""


# The errors a block read or a kernel meets at a sample point
POINT_ERRORS = (EvalDomainError, SingularMetricError, np.linalg.LinAlgError)


@dataclass(frozen=True)
class ChartSpec:
    coords: tuple[str, ...]
    domain: tuple[tuple[float, float], ...]

    @property
    def dimension(self) -> int:
        return len(self.coords)

    def contains(self, point) -> bool:
        return all(lo <= x <= hi for x, (lo, hi) in zip(point, self.domain))

    def center(self) -> np.ndarray:
        return np.array([(lo + hi) / 2.0 for lo, hi in self.domain])


@dataclass(frozen=True)
class AlgebroidSpec:
    """Parsed spec. Symmetric/antisymmetric blocks keep only their canonical
    triangle; evaluation reconstructs the mirror entries exactly."""

    chart: ChartSpec
    rank: int
    mode: str                                   # "anchored" | "lie"
    anchor: tuple[tuple[Expr, ...], ...]        # [a][i]
    structure: Mapping[tuple[int, int, int], Expr] = field(default_factory=dict)
    connection: tuple = ()                      # [a][b][i]
    metric: Mapping[tuple[int, int], Expr] | None = None        # i <= j
    two_form: Mapping[tuple[int, int], Expr] | None = None      # i < j
    psi: tuple | None = None                    # [a][b][i]
    symplectic: Mapping[tuple[int, int], Expr] | None = None    # i < j
    poisson: Mapping[tuple[int, int], Expr] | None = None       # i < j

    @property
    def dimension(self) -> int:
        return self.chart.dimension

    @cached_property
    def block_entries(self) -> dict:
        """block -> ``exprjet.Block`` of every block it carries (an absent
        psi is carried as zero); mirror entries of a stored triangle reuse its
        expression with sign +1 (symmetric) or -1 (antisymmetric)."""
        r, n = self.rank, self.dimension
        out = {"anchor": Block([((a, i), 1, e) for a, row in enumerate(self.anchor)
                                for i, e in enumerate(row)], (r, n), "anchor"),
               "structure": Block([t for (a, b, c), e in self.structure.items()
                                   for t in (((a, b, c), 1, e), ((b, a, c), -1, e))],
                                  (r, r, r), "structure"),
               "connection": Block(cube_entries(self.connection), (r, r, n),
                                   "connection"),
               "psi": Block(cube_entries(self.psi or ()), (r, r, n), "psi")}
        for block in ("metric", "two_form", "symplectic", "poisson"):
            sign = 1 if block == "metric" else -1
            if getattr(self, block) is not None:
                out[block] = Block([t for (i, j), e in getattr(self, block).items()
                                    for t in (((i, j), 1, e), ((j, i), sign, e))],
                                   (n, n), block)
        return out


@dataclass
class CheckReport:
    """Residual statistics for one named check over a sampled point set."""

    name: str
    points: int
    max_residual: float
    mean_residual: float
    tolerance: float
    worst_point: tuple[float, ...]

    @property
    def passed(self) -> bool:
        return self.max_residual <= self.tolerance

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "points": self.points,
            "max_residual": self.max_residual,
            "mean_residual": self.mean_residual,
            "tolerance": self.tolerance,
            "pass": self.passed,
            "worst_point": list(self.worst_point),
        }


def report_from_residuals(name: str, residuals: Sequence[float],
                          points: Sequence, tolerance: float) -> CheckReport:
    """Max/mean reduction of per-point residuals.  A NaN propagates into the
    max, so the check fails and ``worst_point`` is the first NaN point."""
    residuals = np.asarray(residuals, dtype=float)
    worst = int(np.argmax(residuals))
    return CheckReport(
        name=name,
        points=len(residuals),
        max_residual=float(residuals[worst]),
        mean_residual=float(np.mean(residuals)),
        tolerance=tolerance,
        worst_point=tuple(float(x) for x in points[worst]),
    )


# --------------------------------------------------------------------------
# Deterministic sampling (splitmix64)

def splitmix_uniforms(seed: int, count: int) -> np.ndarray:
    """The first ``count`` uniforms in [0, 1) of the SplitMix64 stream of
    ``seed``.  The stream drives all point sampling, so reports are
    bit-reproducible across runs and platforms; uint64 arithmetic wraps."""
    z = np.arange(1, count + 1, dtype=np.uint64) * 0x9E3779B97F4A7C15 + seed % 2**64
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB
    return ((z ^ (z >> 31)) >> 11) * (1.0 / (1 << 53))


def sample_points(chart: ChartSpec, count: int = DEFAULT_POINTS,
                  seed: int = DEFAULT_SEED) -> np.ndarray:
    """Draw ``count`` points uniformly from the chart domain box, as a
    ``(count, n)`` array."""
    lo, hi = np.array(chart.domain, dtype=float).reshape(-1, 2).T
    u = splitmix_uniforms(seed, count * len(lo)).reshape(count, len(lo))
    return lo + u * (hi - lo)


# --------------------------------------------------------------------------
# Loading

_TOP_LEVEL_KEYS = {"chart", "rank", "mode", "anchor", "structure", "connection",
                   "metric", "two_form", "psi", "symplectic", "poisson",
                   "name", "notes"}


def _parse_at(text, coords, path: str) -> Expr:
    if not isinstance(text, str):
        raise SchemaError(path, f"expected expression string, got {type(text).__name__}")
    try:
        e = parse_expr(text, coords)
    except ParseError as exc:
        raise SchemaError(path, f"expression error: {exc}") from exc
    if tree_depth(e) > MAX_DEPTH:
        raise SchemaError(path, f"expression is {tree_depth(e)} levels deep, "
                                f"more than MAX_DEPTH = {MAX_DEPTH}")
    return e


def _negation_of(e: Expr) -> Expr:
    if isinstance(e, Neg):
        return e.arg
    if isinstance(e, Num):
        return Num(-e.value)
    return Neg(e)


def _is_zero(e: Expr) -> bool:
    return isinstance(e, Num) and e.value == 0.0


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _load_chart(doc, path="chart") -> ChartSpec:
    if not isinstance(doc, Mapping):
        raise SchemaError(path, "expected object with 'coords' and 'domain'")
    coords = doc.get("coords")
    domain = doc.get("domain")
    if not isinstance(coords, Sequence) or not coords or isinstance(coords, str):
        raise SchemaError(f"{path}.coords", "expected nonempty list of names")
    coords = tuple(str(c) for c in coords)
    if len(set(coords)) != len(coords):
        raise SchemaError(f"{path}.coords", "coordinate names must be distinct")
    for c in coords:
        if c in FUNCTIONS:
            raise SchemaError(f"{path}.coords", f"coordinate name '{c}' shadows a function")
    if not isinstance(domain, Sequence) or len(domain) != len(coords):
        raise SchemaError(f"{path}.domain", "expected one [lo, hi] pair per coordinate")
    intervals = []
    for k, pair in enumerate(domain):
        if not isinstance(pair, Sequence) or len(pair) != 2:
            raise SchemaError(f"{path}.domain[{k}]", "expected [lo, hi]")
        if not all(_is_int(v) or isinstance(v, float) for v in pair):
            raise SchemaError(f"{path}.domain[{k}]", f"expected numbers, got {pair!r}")
        lo, hi = float(pair[0]), float(pair[1])
        if not all(map(math.isfinite, (lo, hi, hi - lo))):
            raise SchemaError(f"{path}.domain[{k}]", f"bounds and width must be "
                                                     f"finite, got [{lo}, {hi}]")
        if not lo < hi:
            raise SchemaError(f"{path}.domain[{k}]", f"need lo < hi, got [{lo}, {hi}]")
        intervals.append((lo, hi))
    return ChartSpec(coords, tuple(intervals))


def _load_matrix(doc, coords, rows, cols, path) -> tuple:
    if not isinstance(doc, Sequence) or len(doc) != rows:
        raise SchemaError(path, f"expected {rows} rows")
    out = []
    for a, row in enumerate(doc):
        if not isinstance(row, Sequence) or isinstance(row, str) or len(row) != cols:
            raise SchemaError(f"{path}[{a}]", f"expected {cols} entries")
        out.append(tuple(_parse_at(row[i], coords, f"{path}[{a}][{i}]")
                         for i in range(cols)))
    return tuple(out)


def load_cube(doc, coords, r, n, path) -> tuple:
    """Parse an [a][b][i] cube of expression strings of shape (r, r, n)."""
    if not isinstance(doc, Sequence) or len(doc) != r:
        raise SchemaError(path, f"expected {r} blocks")
    return tuple(_load_matrix(doc[a], coords, r, n, f"{path}[{a}]") for a in range(r))


def _load_symmetric(doc, coords, n, path):
    mat = _load_matrix(doc, coords, n, n, path)
    stored = {}
    for i in range(n):
        for j in range(i, n):
            if j > i and mat[i][j] != mat[j][i]:
                kind = path.split(".")[-1]
                raise SchemaError(path, f"{kind} not symmetric: entry ({j+1},{i+1}) "
                                        f"must equal entry ({i+1},{j+1})")
            stored[(i, j)] = mat[i][j]
    return stored


def _load_antisymmetric(doc, coords, n, path):
    mat = _load_matrix(doc, coords, n, n, path)
    stored = {}
    for i in range(n):
        if not _is_zero(mat[i][i]):
            raise SchemaError(path, f"not antisymmetric: diagonal entry ({i+1},{i+1}) "
                                    f"must be 0")
        for j in range(i + 1, n):
            if mat[j][i] != _negation_of(mat[i][j]) and mat[i][j] != _negation_of(mat[j][i]):
                raise SchemaError(path, f"not antisymmetric: entry ({j+1},{i+1}) must "
                                        f"be the negation of entry ({i+1},{j+1})")
            stored[(i, j)] = mat[i][j]
    return stored


def _load_structure(doc, coords, r, path="structure"):
    if not isinstance(doc, Sequence):
        raise SchemaError(path, "expected list of {a, b, c, expr} entries")
    stored = {}
    for k, entry in enumerate(doc):
        where = f"{path}[{k}]"
        if not isinstance(entry, Mapping):
            raise SchemaError(where, "expected object {a, b, c, expr}")
        try:
            a, b, c = entry["a"], entry["b"], entry["c"]
            text = entry["expr"]
        except KeyError as exc:
            raise SchemaError(where, f"missing field {exc}") from exc
        for label, v in (("a", a), ("b", b), ("c", c)):
            if not _is_int(v):
                raise SchemaError(where, f"index {label}={v!r} is not an integer")
            if not 1 <= v <= r:
                raise SchemaError(where, f"index {label}={v} out of range 1..{r}")
        if not a < b:
            raise SchemaError(where, f"need a < b (got a={a}, b={b}); store only the "
                                     f"a < b component")
        key = (a - 1, b - 1, c - 1)
        if key in stored:
            raise SchemaError(where, f"duplicate entry for (a={a}, b={b}, c={c})")
        stored[key] = _parse_at(text, coords, f"{where}.expr")
    return stored


def load_spec(document) -> AlgebroidSpec:
    """Validate and parse a spec document (a JSON object or its text)."""
    if isinstance(document, (str, bytes)):
        try:
            document = json.loads(document)
        except json.JSONDecodeError as exc:
            raise SchemaError("$", f"invalid JSON: {exc}") from exc
    if not isinstance(document, Mapping):
        raise SchemaError("$", "expected a JSON object")
    unknown = set(document) - _TOP_LEVEL_KEYS
    if unknown:
        raise SchemaError("$", f"unknown fields: {sorted(unknown)}")
    for required in ("chart", "rank", "mode", "anchor", "connection"):
        if required not in document:
            raise SchemaError("$", f"missing field '{required}'")

    chart = _load_chart(document["chart"])
    coords = list(chart.coords)
    n = chart.dimension

    rank = document["rank"]
    if not _is_int(rank) or rank < 1:
        raise SchemaError("rank", f"expected integer >= 1, got {rank!r}")
    r = rank

    mode = document["mode"]
    if mode not in ("anchored", "lie"):
        raise SchemaError("mode", f"expected 'anchored' or 'lie', got {mode!r}")

    anchor = _load_matrix(document["anchor"], coords, r, n, "anchor")
    connection = load_cube(document["connection"], coords, r, n, "connection")

    structure = {}
    if "structure" in document:
        if mode == "anchored" and document["structure"]:
            raise SchemaError("structure", "structure functions are not allowed in "
                                           "anchored mode (no bracket)")
        structure = _load_structure(document["structure"], coords, r)

    metric = two_form = symplectic = poisson = None
    psi = None
    if "metric" in document:
        metric = _load_symmetric(document["metric"], coords, n, "metric")
    if "two_form" in document:
        two_form = _load_antisymmetric(document["two_form"], coords, n, "two_form")
    if "symplectic" in document:
        symplectic = _load_antisymmetric(document["symplectic"], coords, n, "symplectic")
    if "poisson" in document:
        poisson = _load_antisymmetric(document["poisson"], coords, n, "poisson")
    if "psi" in document:
        psi = load_cube(document["psi"], coords, r, n, "psi")

    return AlgebroidSpec(chart=chart, rank=r, mode=mode, anchor=anchor,
                         structure=structure, connection=connection,
                         metric=metric, two_form=two_form, psi=psi,
                         symplectic=symplectic, poisson=poisson)


def load_spec_file(path) -> AlgebroidSpec:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            document = json.load(fh)
        except json.JSONDecodeError as exc:
            raise SchemaError("$", f"invalid JSON: {exc}") from exc
    return load_spec(document)


# --------------------------------------------------------------------------
# Numeric evaluation of spec blocks (values plus derivative arrays)

# block -> names of its value and derivative arrays in the fields at a point
FIELD_NAMES = {
    "anchor": ("rho", "drho", "d2rho"), "structure": ("C", "dC"),
    "connection": ("omega", "domega"), "psi": ("psi", "dpsi"),
    "metric": ("g", "dg"), "two_form": ("B", "dB"),
    "symplectic": ("Om", "dOm"), "poisson": ("P", "dP"),
}


def cube_entries(cube) -> list:
    """``Block`` entries of an [a][b][i] cube of expressions."""
    return [((a, b, i), 1, e) for a, plane in enumerate(cube)
            for b, row in enumerate(plane) for i, e in enumerate(row)]


def _eval_spec_block(source, block, p, order):
    if block not in source.block_entries:
        raise ValueError(f"spec carries no {block} block")
    arrays = eval_block(source.block_entries[block], p, order)
    return arrays[0] if order == 0 else tuple(arrays)


def eval_anchor(spec: AlgebroidSpec, p, order: int = 0):
    """rho[a,i] = rho_a^i; drho[a,i,j] = d_j rho_a^i; d2rho[a,i,j,k]."""
    return _eval_spec_block(spec, "anchor", p, order)


def eval_structure(spec: AlgebroidSpec, p, order: int = 0):
    """C[a,b,c] = C^c_{ab} with C[b,a,c] = -C[a,b,c] exactly; dC[a,b,c,k]."""
    return _eval_spec_block(spec, "structure", p, order)


def eval_connection(spec: AlgebroidSpec, p, order: int = 0):
    """omega[a,b,i] = omega^b_{a,i} (so that nabla e_a = omega_a^b e_b)."""
    return _eval_spec_block(spec, "connection", p, order)


def eval_psi(spec: AlgebroidSpec, p, order: int = 0):
    return _eval_spec_block(spec, "psi", p, order)


def eval_metric(spec: AlgebroidSpec, p, order: int = 0):
    return _eval_spec_block(spec, "metric", p, order)


def eval_two_form(spec: AlgebroidSpec, p, order: int = 0):
    return _eval_spec_block(spec, "two_form", p, order)


def eval_symplectic(spec: AlgebroidSpec, p, order: int = 0):
    return _eval_spec_block(spec, "symplectic", p, order)


def eval_poisson(spec: AlgebroidSpec, p, order: int = 0):
    return _eval_spec_block(spec, "poisson", p, order)


def eval_fields(source, p, orders: Mapping[str, int]):
    """Each block named in ``orders`` evaluated once at ``p`` up to its order;
    the arrays are attributes named by FIELD_NAMES (``f.rho``, ``f.dC``...).
    ``source`` is any block source: an object with ``block_entries``, such as
    an ``AlgebroidSpec`` or a ``freealg.FreeTruncation``.  ``p`` is a point,
    or a ``(P, n)`` batch whose arrays then lead with the point axis."""
    readers = {"anchor": eval_anchor, "structure": eval_structure,
               "connection": eval_connection, "psi": eval_psi,
               "metric": eval_metric, "two_form": eval_two_form,
               "symplectic": eval_symplectic, "poisson": eval_poisson}
    fields = SimpleNamespace(point=p)
    for block, order in orders.items():
        arrays = readers[block](source, p, order)
        arrays = arrays if order else (arrays,)
        for name, array in zip(FIELD_NAMES[block], arrays):
            setattr(fields, name, array)
    return fields


def _chunked(source, points, orders: Mapping[str, int], run, blocks=()) -> list:
    """``run(f)`` on each chunk of as many ``points`` as fit ``CHUNK_BYTES``
    (at least one): ``f`` holds the chunk's ``eval_fields`` and, for each
    ``(name, Block, order)`` of ``blocks``, ``f.<name>()`` reading that block
    over the chunk; the chunk size counts both.  A chunk that raises one of
    ``POINT_ERRORS`` runs again point by point, so the error is the one a
    point-by-point pass meets.  Kernels run with numpy's overflow and
    invalid-value warnings off: a non-finite residual fails its report."""
    # a block the source lacks is left to its reader, which raises naming it
    n, entries = np.shape(points)[-1], source.block_entries
    point_bytes = sum(entries[block].point_bytes(n, order)
                      for block, order in orders.items() if block in entries)
    point_bytes += sum(block.point_bytes(n, order) for _, block, order in blocks)
    size = max(1, CHUNK_BYTES // max(1, point_bytes))

    def run_at(chunk):
        f = eval_fields(source, chunk, orders)
        for name, block, order in blocks:
            setattr(f, name, partial(eval_block, block, chunk, order))
        with np.errstate(invalid="ignore", over="ignore"):
            return run(f)
    out = []
    for start in range(0, len(points), size):
        chunk = np.array(points[start:start + size], dtype=float)
        try:
            out.append(run_at(chunk))
        except POINT_ERRORS:
            if len(chunk) == 1:
                raise
            out += [run_at(chunk[k:k + 1]) for k in range(len(chunk))]
    return out


def point_fields(source, points, orders: Mapping[str, int]):
    """``eval_fields`` over a ``(P, n)`` batch of ``points``, read chunk by
    chunk as ``check_values`` reads them, with the same error order."""
    chunks = _chunked(source, points, orders, vars)
    return SimpleNamespace(point=np.array(points, dtype=float), **{
        name: np.concatenate([chunk[name] for chunk in chunks])
        for name in chunks[0] if name != "point"})


# --------------------------------------------------------------------------
# Checks: a kernel over the fields of a chunk of points, reduced per point


def max_abs(x) -> float:
    return float(np.max(np.abs(x))) if np.size(x) else 0.0


def per_point(residual, count: int) -> np.ndarray:
    """max |residual| over the axes after its point axis (0.0 if they are empty);
    a residual with no further axis (a margin, a profile entry) is kept."""
    residual = np.asarray(residual, dtype=float)
    if residual.ndim == 1:
        return residual
    residual = np.abs(residual.reshape(count, -1))
    return residual.max(axis=1) if residual.shape[1] else np.zeros(count)


def tolerance_of(name: str, override: float | None = None) -> float:
    """TOLERANCES entry of a check; ``override`` replaces it unless it is
    zero, which marks an exact or margin test."""
    tol = TOLERANCES[name]
    return override if override is not None and tol != 0.0 else tol


class Check(NamedTuple):
    """One kernel over the fields of a chunk of points, giving one residual
    tensor per name; written over leading axes, it also runs at one point."""

    names: tuple[str, ...]
    reads: Mapping[str, int]            # block -> highest derivative order read
    kernel: Callable
    gate: str | None = None             # reported only if the check so named passed
    blocks: tuple = ()                  # (name, Block, order): read as f.<name>()


def check_values(source, points, checks) -> list[np.ndarray]:
    """One streaming pass over ``points`` (``_chunked``): each block the checks
    read is evaluated once per chunk, at the highest order any of them reads,
    and each kernel runs once per chunk; ``per_point`` reduces its residuals,
    so a NaN is kept.  Returns each check's values, shape (points, names)."""
    orders: dict[str, int] = {}
    for check in checks:
        for block, order in check.reads.items():
            orders[block] = max(order, orders.get(block, 0))

    def run(f):
        return [np.stack([per_point(t, len(f.point)) for t in check.kernel(f)], axis=1)
                for check in checks]
    chunks = _chunked(source, points, orders, run,
                      [named for check in checks for named in check.blocks])
    return [np.concatenate(values) for values in zip(*chunks)]


def reduce_checks(checks, values, points,
                  tol_override: float | None = None) -> list[CheckReport]:
    """One report per check name, in order, from ``check_values``; a check
    whose gate failed gets none."""
    reports: dict[str, CheckReport] = {}
    for check, v in zip(checks, values):
        if check.gate is None or reports[check.gate].passed:
            for k, name in enumerate(check.names):
                reports[name] = report_from_residuals(
                    name, v[:, k], points, tolerance_of(name, tol_override))
    return list(reports.values())


def run_checks(source, points, checks,
               tol_override: float | None = None) -> list[CheckReport]:
    """One report per check name, in order, from one pass over the points."""
    return reduce_checks(checks, check_values(source, points, checks), points,
                         tol_override)


def _anchor_morphism(f):
    bracket = np.einsum("...aj,...bij->...abi", f.rho, f.drho)
    bracket = bracket - np.swapaxes(bracket, -3, -2)
    return bracket - np.einsum("...abc,...ci->...abi", f.C, f.rho),


def _jacobi(f):
    term = (np.einsum("...aj,...bcdj->...abcd", f.rho, f.dC)
            + np.einsum("...bce,...aed->...abcd", f.C, f.C))
    jac = term + np.moveaxis(term, -4, -2) + np.moveaxis(term, -2, -4)
    triples = np.array(list(combinations(range(f.C.shape[-1]), 3)), dtype=int)
    return jac[(Ellipsis, *triples.reshape(-1, 3).T, slice(None))],


def _bivector_jacobi(f):
    term = np.einsum("...il,...jkl->...ijk", f.P, f.dP)
    return term + np.moveaxis(term, -3, -1) + np.moveaxis(term, -1, -3),


def leading_minors(mat: np.ndarray) -> np.ndarray:
    """[..., k]: det of the leading (k + 1) x (k + 1) block of each matrix."""
    out = np.empty(mat.shape[:-1])
    for k in range(mat.shape[-1]):
        out[..., k] = np.linalg.det(mat[..., :k + 1, :k + 1])
    return out


ANCHOR_MORPHISM = Check(("anchor_morphism",), {"anchor": 1, "structure": 0},
                        _anchor_morphism)
JACOBI = Check(("jacobi",), {"anchor": 0, "structure": 1}, _jacobi)
# storage antisymmetry of the structure functions (exact by construction)
STRUCTURE_ANTISYMMETRY = Check(("structure_antisymmetry",), {"structure": 0},
                               lambda f: (f.C + np.swapaxes(f.C, -3, -2),))
METRIC_POSITIVE_DEFINITE = Check(
    ("metric_positive_definite",), {"metric": 0},
    lambda f: (_DEFINITENESS_FLOOR - np.min(leading_minors(f.g), axis=-1),))


def validate_spec(spec: AlgebroidSpec, points,
                  tolerance: float | None = None) -> list[CheckReport]:
    """Run every applicable structural check; failures are reported, not
    thrown.  ``tolerance`` overrides the table for the identity checks."""
    checks = [STRUCTURE_ANTISYMMETRY]
    if spec.metric is not None:
        checks.append(METRIC_POSITIVE_DEFINITE)
    if spec.mode == "lie":
        checks += [ANCHOR_MORPHISM, JACOBI]
    if spec.symplectic is not None:
        # the amount by which |det| falls short of the nondegeneracy floor
        checks.append(Check(("symplectic_nondegenerate",), {"symplectic": 0}, lambda f: (
            _DEFINITENESS_FLOOR - np.abs(np.linalg.det(f.Om)),)))
    if spec.poisson is not None:
        checks.append(Check(("poisson_jacobi",), {"poisson": 1}, _bivector_jacobi))
    return run_checks(spec, points, checks, tolerance)
