"""Scalar expression DSL over chart coordinates, evaluated as truncated jets.

An :class:`Expr` is an immutable AST over coordinate identifiers, literals,
arithmetic, and a small set of elementary functions.  Evaluation produces a
:class:`Jet`: the value together with all partial derivatives up to a
configurable order (0..3), propagated by truncated Taylor arithmetic.
``fd_crosscheck`` provides the independent finite-difference oracle for the
first-order slots.

Expressions are evaluated in blocks over a batch of points.  A :class:`Block`
is a list of ``(index, sign, expr)`` entries filling a dense array; at its
first evaluation it compiles its entries once into a topologically ordered
list of distinct nodes (hash-consing on node type, leaf value with its sign
of zero, and child nodes).  An evaluation runs that list over a ``(P, n)``
array of points as forward-mode Taylor arithmetic on arrays with a leading
point axis (Griewank & Walther, *Evaluating Derivatives*, 2nd ed., ch. 13),
one ``Jet`` per distinct node, with the operations a walk of each entry at
each point would use: shared subexpressions cost once per batch, and each
point's arrays are bit-identical to a walk of each entry there.  Denominator
and exponent checks run where the walk ran them, and a batch that fails runs
again one point at a time, so a failure names the earliest failing point, the
subexpression and the first entry that reaches it.  :func:`eval_jet` runs
the same evaluator on one expression at one point.

Grammar (whitespace insignificant)::

    expr   := term (("+" | "-") term)*
    term   := factor (("*" | "/") factor)*
    factor := base ("^" factor)?
    base   := number | ident | "(" expr ")" | "-" base | ident "(" expr ")"

Precedence is ``^`` > unary minus > ``*``,``/`` > ``+``,``-`` and ``^`` is
right-associative; where the raw grammar is ambiguous against that ranking
(``-x^2``), precedence wins, so ``-x^2`` parses as ``-(x^2)``.
"""

from __future__ import annotations

import math
import re
from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

__all__ = [
    "Expr", "Num", "Var", "Neg", "Add", "Sub", "Mul", "Div", "Pow", "Call",
    "Jet", "Block", "ExprError", "ParseError", "UndeclaredIdentifierError",
    "EvalDomainError", "parse_expr", "render", "diff", "eval_jet",
    "eval_block", "fd_crosscheck", "tree_depth", "FUNCTIONS", "MAX_DEPTH",
]

FUNCTIONS = ("sin", "cos", "tan", "exp", "ln", "sqrt", "tanh", "abs")

# Levels a parsed expression may nest: the tree walks recurse once per level,
# and at degree 4 a free truncation's derivative trees grow to about ten times
# the depth of the anchor entry they come from
MAX_DEPTH = 64


class ExprError(Exception):
    """Base class for expression-layer failures."""


class ParseError(ExprError):
    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at byte offset {offset})")
        self.offset = offset


class UndeclaredIdentifierError(ParseError):
    def __init__(self, name: str, offset: int):
        ParseError.__init__(self, f"undeclared identifier '{name}'", offset)
        self.name = name


class EvalDomainError(ExprError):
    """Raised when a subexpression leaves its real domain (or the float
    range) at a point; ``path`` names the block entry when known."""

    def __init__(self, reason: str, subexpr: "Expr", point, path: str = ""):
        pt = tuple(float(v) for v in point)
        where = f"{path}: " if path else ""
        super().__init__(f"{where}{reason} in '{render(subexpr)}' at point {pt}")
        self.reason = reason
        self.subexpr = subexpr
        self.point = pt
        self.path = path


# --------------------------------------------------------------------------
# AST


@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Var:
    name: str
    index: int


@dataclass(frozen=True)
class Neg:
    arg: "Expr"


@dataclass(frozen=True)
class Add:
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Sub:
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Mul:
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Div:
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Pow:
    base: "Expr"
    exponent: "Expr"


@dataclass(frozen=True)
class Call:
    func: str
    arg: "Expr"


Expr = Num | Var | Neg | Add | Sub | Mul | Div | Pow | Call

ZERO = Num(0.0)
ONE = Num(1.0)


# --------------------------------------------------------------------------
# Parser

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<op>[-+*/^()]))"
)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            rest = text[pos:].lstrip()
            if not rest:
                break
            raise ParseError(f"unexpected character {rest[0]!r}", len(text) - len(rest))
        if m.lastgroup is not None:
            tokens.append((m.lastgroup, m.group(m.lastgroup), m.start(m.lastgroup)))
        pos = m.end()
    return tokens


class _Parser:
    def __init__(self, text: str, coords: list[str]):
        self.text = text
        self.coords = {name: i for i, name in enumerate(coords)}
        self.tokens = _tokenize(text)
        self.pos = 0
        self.nesting = 0

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def next(self):
        tok = self.peek()
        if tok is not None:
            self.pos += 1
        return tok

    def expect_op(self, op: str):
        tok = self.next()
        if tok is None:
            raise ParseError(f"expected '{op}', found end of input", len(self.text))
        if tok[0] != "op" or tok[1] != op:
            raise ParseError(f"expected '{op}', found {tok[1]!r}", tok[2])

    def parse(self) -> Expr:
        e = self.expr()
        if (tok := self.peek()) is not None:
            raise ParseError(f"trailing input {tok[1]!r}", tok[2])
        return e

    def op_in(self, ops: str):
        """The next token if it is one of the operators ``ops``, else None."""
        tok = self.peek()
        return tok if tok is not None and tok[0] == "op" and tok[1] in ops else None

    def expr(self) -> Expr:
        e = self.term()
        while tok := self.op_in("+-"):
            self.next()
            e = (Add if tok[1] == "+" else Sub)(e, self.term())
        return e

    def term(self) -> Expr:
        e = self.factor()
        while tok := self.op_in("*/"):
            self.next()
            e = (Mul if tok[1] == "*" else Div)(e, self.factor())
        return e

    def factor(self) -> Expr:
        # each recursion of the parser passes here: this bounds its stack
        tok = self.peek()
        self.nesting += 1
        if self.nesting > MAX_DEPTH:
            raise ParseError(f"nested more than MAX_DEPTH = {MAX_DEPTH} levels "
                             f"deep", tok[2] if tok else len(self.text))
        if self.op_in("-"):
            # unary minus sits between */ and ^ in the precedence ranking
            self.next()
            e = Neg(self.factor())
        else:
            e = self.base()
            if self.op_in("^"):
                self.next()
                e = Pow(e, self.factor())
        self.nesting -= 1
        return e

    def base(self) -> Expr:
        tok = self.next()
        if tok is None:
            raise ParseError("unexpected end of input", len(self.text))
        kind, value, offset = tok
        if kind == "num":
            return Num(float(value))
        if kind == "ident":
            if self.op_in("("):
                if value not in FUNCTIONS:
                    raise ParseError(f"unknown function '{value}'", offset)
                self.next()
                arg = self.expr()
                self.expect_op(")")
                return Call(value, arg)
            if value not in self.coords:
                raise UndeclaredIdentifierError(value, offset)
            return Var(value, self.coords[value])
        if kind == "op" and value == "(":
            e = self.expr()
            self.expect_op(")")
            return e
        raise ParseError(f"unexpected token {value!r}", offset)


def parse_expr(text: str, coords) -> Expr:
    """Parse ``text`` against the ordered coordinate list ``coords``."""
    if not text or not text.strip():
        raise ParseError("empty expression", 0)
    coords = list(coords)
    if not coords:
        raise ValueError("coordinate list must be nonempty")
    if len(set(coords)) != len(coords):
        raise ValueError("coordinate names must be duplicate-free")
    return _Parser(text, coords).parse()


def tree_depth(e: Expr) -> int:
    """Levels of the tree ``e`` (a leaf is one), counted without recursion."""
    level, depth = [e], 0
    while level:
        level, depth = [c for node in level for c in vars(node).values()
                        if not isinstance(c, (str, int, float))], depth + 1
    return depth


# --------------------------------------------------------------------------
# Rendering (inverse of parse up to structural equality)

_PREC = {Add: 1, Sub: 1, Mul: 2, Div: 2, Neg: 3, Pow: 4, Num: 5, Var: 5, Call: 5}


def _render(e: Expr, parent_prec: int) -> str:
    prec = _PREC[type(e)]
    if isinstance(e, Num):
        if e.value == 0.0:
            s = "0.0"  # folds the sign of zero; -0.0 compares equal anyway
        elif e.value < 0:
            s = f"({repr(e.value)})"
        else:
            s = repr(e.value)
    elif isinstance(e, Var):
        s = e.name
    elif isinstance(e, Call):
        s = f"{e.func}({_render(e.arg, 0)})"
    elif isinstance(e, Neg):
        s = f"-{_render(e.arg, 3)}"
    elif isinstance(e, Pow):
        s = f"{_render(e.base, 5)}^{_render(e.exponent, 3)}"
    elif isinstance(e, Add):
        s = f"{_render(e.left, 1)} + {_render(e.right, 2)}"
    elif isinstance(e, Sub):
        s = f"{_render(e.left, 1)} - {_render(e.right, 2)}"
    elif isinstance(e, Mul):
        s = f"{_render(e.left, 2)}*{_render(e.right, 3)}"
    elif isinstance(e, Div):
        s = f"{_render(e.left, 2)}/{_render(e.right, 3)}"
    else:  # pragma: no cover
        raise TypeError(f"not an Expr: {e!r}")
    if prec < parent_prec:
        return f"({s})"
    return s


def render(e: Expr) -> str:
    """Serialize to the surface grammar; parse(render(e)) == e structurally."""
    return _render(e, 0)


# --------------------------------------------------------------------------
# Formal differentiation (with light folding so nested derivatives stay small)


def _const(e: Expr):
    """Return the float value of a constant expression, else None."""
    if isinstance(e, Num):
        return e.value
    if isinstance(e, Neg):
        v = _const(e.arg)
        return None if v is None else -v
    return None


def e_add(a: Expr, b: Expr) -> Expr:
    if _const(a) == 0.0:
        return b
    if _const(b) == 0.0:
        return a
    va, vb = _const(a), _const(b)
    if va is not None and vb is not None:
        return Num(va + vb)
    return Add(a, b)


def e_sub(a: Expr, b: Expr) -> Expr:
    if _const(b) == 0.0:
        return a
    if _const(a) == 0.0:
        return Neg(b)
    va, vb = _const(a), _const(b)
    if va is not None and vb is not None:
        return Num(va - vb)
    return Sub(a, b)


def e_mul(a: Expr, b: Expr) -> Expr:
    va, vb = _const(a), _const(b)
    if va == 0.0 or vb == 0.0:
        return ZERO
    if va == 1.0:
        return b
    if vb == 1.0:
        return a
    if va is not None and vb is not None:
        return Num(va * vb)
    return Mul(a, b)


def e_div(a: Expr, b: Expr) -> Expr:
    if _const(a) == 0.0:
        return ZERO
    if _const(b) == 1.0:
        return a
    return Div(a, b)


def e_neg(a: Expr) -> Expr:
    v = _const(a)
    if v is not None:
        return Num(-v)
    if isinstance(a, Neg):
        return a.arg
    return Neg(a)


def diff(e: Expr, index: int, memo: dict | None = None) -> Expr:
    """Formal partial derivative with respect to coordinate ``index``, each
    (node, index) taken once per ``memo`` (keyed on node identity, holding the node)."""
    memo = {} if memo is None else memo
    if (id(e), index) in memo:
        return memo[id(e), index][1]
    if isinstance(e, Num):
        out = ZERO
    elif isinstance(e, Var):
        out = ONE if e.index == index else ZERO
    elif isinstance(e, Neg):
        out = e_neg(diff(e.arg, index, memo))
    elif isinstance(e, Add):
        out = e_add(diff(e.left, index, memo), diff(e.right, index, memo))
    elif isinstance(e, Sub):
        out = e_sub(diff(e.left, index, memo), diff(e.right, index, memo))
    elif isinstance(e, Mul):
        out = e_add(e_mul(diff(e.left, index, memo), e.right),
                    e_mul(e.left, diff(e.right, index, memo)))
    elif isinstance(e, Div):
        num = e_sub(e_mul(diff(e.left, index, memo), e.right),
                    e_mul(e.left, diff(e.right, index, memo)))
        out = e_div(num, e_mul(e.right, e.right))
    elif isinstance(e, Pow):
        p = _const(e.exponent)
        if p is None:
            raise ExprError(f"non-constant exponent in '{render(e)}'")
        out = ZERO if p == 0.0 else e_mul(
            Num(p), e_mul(Pow(e.base, Num(p - 1.0)), diff(e.base, index, memo)))
    elif isinstance(e, Call):
        du = diff(e.arg, index, memo)
        u = e.arg
        if e.func == "sin":
            out = e_mul(Call("cos", u), du)
        elif e.func == "cos":
            out = e_mul(e_neg(Call("sin", u)), du)
        elif e.func == "tan":
            t = Call("tan", u)
            out = e_mul(e_add(ONE, e_mul(t, t)), du)
        elif e.func == "exp":
            out = e_mul(Call("exp", u), du)
        elif e.func == "ln":
            out = e_div(du, u)
        elif e.func == "sqrt":
            out = e_div(du, e_mul(Num(2.0), Call("sqrt", u)))
        elif e.func == "tanh":
            t = Call("tanh", u)
            out = e_mul(e_sub(ONE, e_mul(t, t)), du)
        elif e.func == "abs":
            out = e_mul(e_div(u, Call("abs", u)), du)
        else:  # pragma: no cover
            raise ExprError(f"unknown function '{e.func}'")
    else:
        raise TypeError(f"not an Expr: {e!r}")
    memo[id(e), index] = (e, out)
    return out


# --------------------------------------------------------------------------
# Jets over a batch of points
#
# The array operations are elementwise in the point axis, so each point of a
# batch gets the bytes a batch of one gives it.  The scalar coefficients of
# a function (math.*, ``**``, reciprocals) and the domain checks run point by
# point in Python floats: numpy's SIMD functions may differ from libm in the
# last bit, and they do not raise.


class Jet:
    """Truncated Taylor data of a scalar over a batch of points: ``parts[k]``
    holds the k-th partials in ``n`` chart coordinates up to the order, shape
    ``(P,) + (n,) * k``, or ``(n,) * k`` for the one point ``eval_jet``
    returns.  Second and third partials are symmetric by construction."""

    __slots__ = ("parts",)

    def __init__(self, parts):
        self.parts = parts

    order = property(lambda self: len(self.parts) - 1)
    value = property(lambda self: self.parts[0])
    grad = property(lambda self: self.parts[1] if self.order >= 1 else None)
    hess = property(lambda self: self.parts[2] if self.order >= 2 else None)
    third = property(lambda self: self.parts[3] if self.order >= 3 else None)

    @staticmethod
    def constant(values, n: int, order: int) -> "Jet":
        """Values ``values`` (an array, one per point) with zero partials."""
        return Jet([values] + [np.zeros(values.shape + (n,) * k)
                               for k in range(1, order + 1)])

    def __add__(self, other: "Jet") -> "Jet":
        return Jet([a + b for a, b in zip(self.parts, other.parts)])

    def __sub__(self, other: "Jet") -> "Jet":
        return Jet([a - b for a, b in zip(self.parts, other.parts)])

    def __neg__(self) -> "Jet":
        return Jet([-a for a in self.parts])

    def __mul__(self, other: "Jet") -> "Jet":
        u, v = self.parts, other.parts
        out = [u[0] * v[0]]
        if len(u) > 1:
            uv, vv = u[0][..., None], v[0][..., None]
            out.append(u[1] * vv + uv * v[1])
        if len(u) > 2:
            uv, vv = uv[..., None], vv[..., None]
            gg = u[1][..., :, None] * v[1][..., None, :]
            out.append(u[2] * vv + uv * v[2] + gg + gg.swapaxes(-1, -2))
        if len(u) > 3:
            a = np.einsum("...ij,...k->...ijk", u[2], v[1])
            b = np.einsum("...ij,...k->...ijk", v[2], u[1])
            mixed = (a + a.swapaxes(-1, -2) + _cycle(a)
                     + b + b.swapaxes(-1, -2) + _cycle(b))
            out.append(u[3] * vv[..., None] + uv[..., None] * v[3] + mixed)
        return Jet(out)

    def compose(self, f0, f1, f2, f3) -> "Jet":
        """Chain rule: apply a univariate function whose derivatives at each
        point's value are ``f0``..``f3`` (arrays, one entry per point)."""
        out, g, h, t = [f0], self.grad, self.hess, self.third
        if g is not None:
            f1 = f1[..., None]
            out.append(f1 * g)
        if h is not None:
            f1, f2 = f1[..., None], f2[..., None, None]
            out.append(f2 * (g[..., :, None] * g[..., None, :]) + f1 * h)
        if t is not None:
            a = np.einsum("...ij,...k->...ijk", h, g)
            out.append(f3[..., None, None, None]
                       * np.einsum("...i,...j,...k->...ijk", g, g, g)
                       + f2[..., None] * (a + a.swapaxes(-1, -2) + _cycle(a))
                       + f1[..., None] * t)
        return Jet(out)

    def int_pow(self, k: int) -> "Jet":
        """Nonnegative integer power by repeated multiplication."""
        out = Jet([np.ones(self.value.shape)]
                  + [np.zeros(part.shape) for part in self.parts[1:]])
        for _ in range(k):
            out = out * self
        return out


def _cycle(a):
    """``a.transpose(2, 0, 1)`` on the last three axes of ``a``."""
    return a.swapaxes(-1, -2).swapaxes(-2, -3)


def _pointwise(rule, node, points, *columns) -> list:
    """``rule(*values, point)`` at each point, over the per-point values of
    ``columns`` as Python floats; a float error names its point."""
    out = []
    for point, *values in zip(points, *(c.tolist() for c in columns)):
        try:
            out.append(rule(*values, point))
        except tuple(_ARITH_REASONS) as exc:
            raise EvalDomainError(_ARITH_REASONS[type(exc)], node, point) from None
    return out


def _compose(u: Jet, rule, node, points) -> Jet:
    """``u`` composed with the function whose derivatives ``rule`` gives at
    a point's value."""
    return u.compose(*np.array(_pointwise(rule, node, points, u.value), dtype=float).T)


def _reciprocal(u: Jet, node, points) -> Jet:
    return _compose(u, lambda v, _: (1.0 / v, -1.0 / v**2, 2.0 / v**3, -6.0 / v**4),
                    node, points)


def _call_rule(func: str, order: int, node: Expr):
    """The derivatives of ``func`` at a point's value."""
    def rule(v, point):
        if func == "sin":
            s, c = math.sin(v), math.cos(v)
            return s, c, -s, -c
        if func == "cos":
            s, c = math.sin(v), math.cos(v)
            return c, -s, -c, s
        if func == "tan":
            t = math.tan(v)
            sec2 = 1.0 + t * t
            return t, sec2, 2.0 * t * sec2, sec2 * (2.0 + 6.0 * t * t)
        if func == "exp":
            ev = math.exp(v)
            return ev, ev, ev, ev
        if func == "ln":
            if v <= 0.0:
                raise EvalDomainError("ln of nonpositive value", node, point)
            return math.log(v), 1.0 / v, -1.0 / v**2, 2.0 / v**3
        if func == "sqrt":
            if v < 0.0:
                raise EvalDomainError("sqrt of negative value", node, point)
            s = math.sqrt(v)
            if order == 0:
                return s, 0.0, 0.0, 0.0
            if v == 0.0:
                raise EvalDomainError("sqrt derivative at zero", node, point)
            return s, 0.5 / s, -0.25 / v**1.5, 0.375 / v**2.5
        if func == "tanh":
            t = math.tanh(v)
            d1 = 1.0 - t * t
            return t, d1, -2.0 * t * d1, d1 * (6.0 * t * t - 2.0)
        if func == "abs":
            sign = 0.0 if v == 0.0 else math.copysign(1.0, v)
            return abs(v), sign, 0.0, 0.0
        raise ExprError(f"unknown function '{func}'")  # pragma: no cover
    return rule


def _power(base: Jet, p, node: Expr, points) -> Jet:
    """``base`` raised to the constant exponent values ``p``: an integer
    power by repeated multiplication (or its reciprocal), else the chain
    rule.  Points whose exponents differ go one at a time."""
    def rule(p, v, point):
        if p == round(p) and abs(p) <= 1024:
            k = int(round(p))
            if k < 0 and v == 0.0:
                raise EvalDomainError("division by zero", node, point)
            return k
        if v <= 0.0:
            raise EvalDomainError("non-integer power of nonpositive base", node, point)
        return p        # a float: non-integral, or too large for repeated products

    keys = _pointwise(rule, node, points, p, base.value)
    if len(set(keys)) > 1:
        rows = [_power(Jet([part[k:k + 1] for part in base.parts]), p[k:k + 1], node,
                       points[k:k + 1]) for k in range(len(keys))]
        return Jet([np.concatenate(parts) for parts in zip(*(j.parts for j in rows))])
    key = keys[0]
    if type(key) is int:
        jet = base.int_pow(abs(key))
        return _reciprocal(jet, node, points) if key < 0 else jet
    return _compose(base, lambda v, _: (
        v**key, key * v**(key - 1.0), key * (key - 1.0) * v**(key - 2.0),
        key * (key - 1.0) * (key - 2.0) * v**(key - 3.0)), node, points)


# --------------------------------------------------------------------------
# Compiled blocks
#
# A value step makes the jet of one distinct node; ``raised`` marks a node
# under an exponent, which is evaluated at order >= 1 (its key includes the
# mark).  A guard step makes no jet: it checks a denominator for zero or an
# exponent for a nonzero gradient before the rest of its parent is evaluated.
# Steps are emitted in the order a recursive walk of the entries first
# reaches them, so the first failing step is the one that walk would meet.

_NUM, _VAR, _NEG, _ADD, _SUB, _MUL, _DIV, _POW, _CALL = range(9)
_NONZERO, _CONSTANT = 9, 10                 # guards: they make no jet
_BINARY = {Add: _ADD, Sub: _SUB, Mul: _MUL}


class _Program:
    """The steps of a block's entries, and where each entry's jet lands."""

    def __init__(self, exprs):
        self.steps = []             # (op, a, b, raised, node)
        self.ends = []              # per entry: steps emitted by then
        self._slots = {}            # structural key -> slot
        self._seen = {}             # (id(expr), raised) -> slot
        self._guarded = set()
        self.roots = []
        for e in exprs:
            self.roots.append(self._visit(e, False))
            self.ends.append(len(self.steps))
        del self._slots, self._seen, self._guarded

    def _emit(self, key, node, raised) -> int:
        slot = self._slots.get(key)
        if slot is None:
            slot = self._slots[key] = len(self._slots)
            self.steps.append((key[0], key[1], key[2], raised, node))
        return slot

    def _guard(self, op, slot, node, raised):
        if (op, slot) not in self._guarded:
            self._guarded.add((op, slot))
            self.steps.append((op, slot, None, raised, node))

    def _visit(self, e, raised: bool) -> int:
        seen = self._seen.get((id(e), raised))
        if seen is not None:
            return seen
        kind = type(e)
        if kind is Num:
            key = (_NUM, e.value, math.copysign(1.0, e.value), raised)
        elif kind is Var:
            key = (_VAR, e.index, None, raised)
        elif kind is Neg:
            key = (_NEG, self._visit(e.arg, raised), None, raised)
        elif kind in _BINARY:
            left = self._visit(e.left, raised)
            key = (_BINARY[kind], left, self._visit(e.right, raised), raised)
        elif kind is Div:
            denom = self._visit(e.right, raised)
            self._guard(_NONZERO, denom, e, raised)
            key = (_DIV, self._visit(e.left, raised), denom, raised)
        elif kind is Pow:
            exponent = self._visit(e.exponent, True)
            self._guard(_CONSTANT, exponent, e, raised)
            key = (_POW, self._visit(e.base, raised), exponent, raised)
        elif kind is Call:
            key = (_CALL, e.func, self._visit(e.arg, raised), raised)
        else:
            raise TypeError(f"not an Expr: {e!r}")
        slot = self._seen[(id(e), raised)] = self._emit(key, e, raised)
        return slot

    # overflow makes inf or nan, which the checks report as failures
    @np.errstate(over="ignore", invalid="ignore")
    def run(self, points, n: int, order: int) -> list:
        """The jet of every slot over the ``(P, n)`` array ``points``; a
        failure raises :class:`EvalDomainError` at a failing point, with
        ``step`` set to the failing step."""
        if not 0 <= order <= 3:
            raise ValueError("jet order must be in 0..3")
        jets = []
        append = jets.append
        raised_order = max(order, 1)
        for step, (op, a, b, raised, node) in enumerate(self.steps):
            o = raised_order if raised else order
            try:
                if op == _NUM:
                    append(Jet.constant(np.full(len(points), a), n, o))
                elif op == _VAR:
                    append(Jet.constant(points[:, a], n, o))
                    if o:
                        jets[-1].parts[1][:, a] = 1.0
                elif op == _MUL:
                    append(jets[a] * jets[b])
                elif op == _ADD:
                    append(jets[a] + jets[b])
                elif op == _SUB:
                    append(jets[a] - jets[b])
                elif op == _NEG:
                    append(-jets[a])
                elif op == _CALL:
                    append(_compose(jets[b], _call_rule(a, o, node), node, points))
                elif op == _DIV:
                    append(jets[a] * _reciprocal(jets[b], node, points))
                elif op == _POW:
                    append(_power(jets[a], jets[b].value, node, points))
                elif op == _NONZERO:
                    zero = jets[a].value == 0.0
                    if zero.any():
                        raise EvalDomainError("division by zero", node,
                                              points[int(np.argmax(zero))])
                elif np.count_nonzero(jets[a].grad):            # _CONSTANT
                    varies = (jets[a].grad != 0.0).any(axis=1)
                    raise EvalDomainError("non-constant exponent", node,
                                          points[int(np.argmax(varies))])
            except EvalDomainError as err:
                err.step = step
                raise
        return jets

    def entry_of(self, step: int) -> int:
        """The entry whose compilation emitted ``step``."""
        return bisect_right(self.ends, step)


# float and math-module failures, reported against the node that raised them
_ARITH_REASONS = {OverflowError: "overflow", ZeroDivisionError: "division by zero",
                  ValueError: "math domain error"}


@dataclass(frozen=True, eq=False)
class Block:
    """A block of expressions: ``entries`` is a sequence of
    ``(index, sign, expr)``, and the jet of ``expr`` fills ``index`` of an
    array of ``shape``, negated where ``sign`` is -1; unlisted entries are
    zero.  ``label`` names an entry in error messages as ``label[i][j]``.
    The entries compile once, at the first evaluation."""

    entries: Sequence
    shape: tuple
    label: str = "block"

    @cached_property
    def written(self) -> list:
        """The entries that write, in order: a ``+0.0`` entry keeps the zero
        fill (its derivatives are zero too)."""
        return [(tuple(index), sign, e) for index, sign, e in self.entries
                if not (sign > 0 and type(e) is Num and e.value == 0.0
                        and math.copysign(1.0, e.value) > 0)]

    @cached_property
    def program(self) -> _Program:
        return _Program([e for _, _, e in self.written])

    def point_bytes(self, n: int, order: int) -> int:
        """Bytes a point takes in the slots and arrays of an evaluation."""
        def floats(o):
            return sum(n ** k for k in range(o + 1))
        return 8 * (sum(floats(max(order, 1) if raised else order)
                        for op, _, _, raised, _ in self.program.steps if op <= _CALL)
                    + math.prod(self.shape) * floats(order))


def eval_jet(e: Expr, point, order: int = 1, n: int | None = None) -> Jet:
    """Evaluate ``e`` at ``point`` together with all partials up to ``order``.

    ``point`` supplies one real per chart coordinate; ``n`` defaults to
    ``len(point)``.  This is the block evaluator on one entry, at a batch of
    one point; the jet it returns has no point axis.
    """
    point = np.asarray(point, dtype=float)
    if n is None:
        n = point.shape[0]
    program = _Program([e])
    jet = program.run(point.reshape(1, -1), n, order)[program.roots[0]]
    return Jet([part[0] for part in jet.parts])


def eval_block(block: Block, points, order: int = 0):
    """Dense value and derivative arrays of a :class:`Block` at a point, or
    at each point of a ``(P, n)`` batch (with a leading point axis).

    Each distinct subexpression of the block's entries is evaluated once per
    batch, so a mirrored entry is an exact copy or an exact negation.
    Returns ``[value, d1, ...]`` up to ``order``, of shapes ``shape``,
    ``shape + (n,)``, ...  A failure raises :class:`EvalDomainError` naming
    the entry as ``label[i][j]...`` and the earliest failing point.
    """
    points = np.asarray(points, dtype=float)
    batch = points.reshape(-1, points.shape[-1])
    count, n = batch.shape
    program = block.program
    try:
        jets = program.run(batch, n, order)
    except EvalDomainError as exc:
        if count > 1:           # the earliest failing point raises its own error
            for point in batch:
                eval_block(block, point, order)
        index = block.written[program.entry_of(exc.step)][0]
        path = block.label + "".join(f"[{i}]" for i in index)
        raise EvalDomainError(exc.reason, exc.subexpr, exc.point, path) from None
    arrays = [np.zeros((count,) + block.shape + (n,) * k) for k in range(order + 1)]
    for (index, sign, _), slot in zip(block.written, program.roots):
        at = (slice(None),) + index
        for array, part in zip(arrays, jets[slot].parts):
            array[at] = part if sign > 0 else -part
    return arrays if points.ndim > 1 else [array[0] for array in arrays]


def fd_crosscheck(e: Expr, point, h: float = 1e-4) -> float:
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
