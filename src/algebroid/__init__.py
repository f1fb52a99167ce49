"""Symbolic-numeric toolkit for anchored bundles and Lie algebroids with
connections: compatibility checks over Riemannian, symplectic, and Poisson
bases, plus the degree-truncated free Cartan-Lie algebroid construction."""

from importlib import resources

from .exprjet import (
    Expr, Jet, ExprError, ParseError, UndeclaredIdentifierError,
    EvalDomainError, parse_expr, render, diff,
)
from .spec_model import (
    AlgebroidSpec, ChartSpec, CheckReport, SchemaError,
    load_spec, load_spec_file, sample_points, validate_spec,
)

__version__ = "0.1.0"

__all__ = [
    "Expr", "Jet", "ExprError", "ParseError", "UndeclaredIdentifierError",
    "EvalDomainError", "parse_expr", "render", "diff", "AlgebroidSpec",
    "ChartSpec", "CheckReport", "SchemaError", "load_spec", "load_spec_file",
    "sample_points", "validate_spec", "fixture_path",
]


def fixture_path(name: str):
    """Filesystem path of a bundled example spec, e.g. 'fx_action_so2'."""
    if not name.endswith(".json"):
        name = f"{name}.json"
    return resources.files("algebroid").joinpath("fixtures", name)
