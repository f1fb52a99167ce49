import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from algebroid.exprjet import (
    Add, Block, Call, Div, EvalDomainError, Jet, Mul, Neg, Num, ParseError,
    Pow, Sub, UndeclaredIdentifierError, Var, _VAR, _over, diff, eval_block,
    parse_expr, render,
)
from algebroid.spec_model import eval_fields, load_spec, sample_points

from conftest import FIXTURES, eval_jet, fd_crosscheck, fixture_doc, load_doc

XY = ["x", "y"]


# --------------------------------------------------------------------------
# Parsing


def test_parse_power_and_call():
    e = parse_expr("x^2 + sin(y)", XY)
    assert e == Add(Pow(Var("x", 0), Num(2.0)), Call("sin", Var("y", 1)))


def test_parse_nested_division():
    e = parse_expr("1/(1+y^2)", XY)
    assert e == Div(Num(1.0), Add(Num(1.0), Pow(Var("y", 1), Num(2.0))))


def test_parse_undeclared_identifier():
    with pytest.raises(UndeclaredIdentifierError) as err:
        parse_expr("x + z", XY)
    assert err.value.name == "z"
    assert err.value.offset == 4


def test_parse_syntax_error_offset():
    with pytest.raises(ParseError) as err:
        parse_expr("x + * y", XY)
    assert err.value.offset == 4
    with pytest.raises(ParseError):
        parse_expr("x @ y", XY)
    with pytest.raises(ParseError):
        parse_expr("(x + y", XY)
    with pytest.raises(ParseError):
        parse_expr("x y", XY)
    with pytest.raises(ParseError):
        parse_expr("", XY)
    with pytest.raises(ParseError):
        parse_expr("foo(x)", XY)


@pytest.mark.parametrize("text, message", [
    ("x\xa0+ q", "unexpected character '\\xa0' (at byte offset 1)"),
    ("x +\u2003q", "unexpected character '\\u2003' (at byte offset 3)"),
    ("\u0663*x", "unexpected character '\u0663' (at byte offset 0)"),
    ("\uff11+x", "unexpected character '\uff11' (at byte offset 0)"),
    ("x\xa0", "unexpected character '\\xa0' (at byte offset 1)"),
], ids=["no-break space", "em space", "arabic-indic digit", "fullwidth digit",
        "trailing no-break space"])
def test_digits_and_whitespace_are_ascii(text, message):
    # the first character outside the ASCII grammar is the one reported, so
    # its offset is a byte offset of the UTF-8 text too
    with pytest.raises(ParseError) as err:
        parse_expr(text, ["x"])
    assert str(err.value) == message
    assert len(text[:err.value.offset].encode()) == err.value.offset


@pytest.mark.parametrize("text", ["x ", "x\t", " x \n"])
def test_trailing_ascii_whitespace_parses(text):
    assert parse_expr(text, XY) == Var("x", 0)


def test_parse_rejects_a_number_literal_that_overflows():
    for text, literal, offset in (("1e400*x", "1e400", 0), ("-1e309", "1e309", 1)):
        with pytest.raises(ParseError) as err:
            parse_expr(text, XY)
        assert str(err.value) == (f"number '{literal}' overflows to inf "
                                  f"(at byte offset {offset})")
    assert parse_expr("1.7e308", XY) == Num(1.7e308)       # finite, kept


def test_precedence():
    # ^ binds tighter than unary minus, which binds tighter than *
    assert parse_expr("-x^2", XY) == Neg(Pow(Var("x", 0), Num(2.0)))
    assert parse_expr("-x*y", XY) == Mul(Neg(Var("x", 0)), Var("y", 1))
    assert parse_expr("x - -y", XY) == Sub(Var("x", 0), Neg(Var("y", 1)))
    # right associativity of ^: the exponent 2^3 is folded to 8
    e = parse_expr("x^2^3", XY)
    assert e == Pow(Var("x", 0), Num(8.0))
    assert parse_expr("2e-3", XY) == Num(0.002)
    assert parse_expr("x^-2", XY) == Pow(Var("x", 0), Num(-2.0))


def _exprs(coords):
    # literal tokens are unsigned in the grammar; negatives come from Neg; no
    # coordinates gives the expressions that read none
    leaves = st.floats(min_value=0, max_value=4, allow_nan=False).map(
        lambda v: Num(round(v, 3)))
    if coords:
        leaves |= st.sampled_from([Var(c, i) for i, c in enumerate(coords)])

    def extend(children):
        return st.one_of(
            st.tuples(children, children).map(lambda ab: Add(*ab)),
            st.tuples(children, children).map(lambda ab: Sub(*ab)),
            st.tuples(children, children).map(lambda ab: Mul(*ab)),
            st.tuples(children, children).map(lambda ab: Div(*ab)),
            children.map(Neg),
            st.tuples(children, st.integers(0, 3)).map(
                lambda ek: Pow(ek[0], Num(float(ek[1])))),
            st.tuples(st.sampled_from(["sin", "cos", "exp", "tanh"]),
                      children).map(lambda fe: Call(*fe)),
        )

    return st.recursive(leaves, extend, max_leaves=12)


@given(_exprs(XY))
@settings(max_examples=200, deadline=None)
def test_render_parse_roundtrip(e):
    assert parse_expr(render(e), XY) == e


# --------------------------------------------------------------------------
# Exponents: each is folded to a number when it is parsed


def _outcome(e, order):
    try:
        return [a.tobytes() for a in eval_block(Block([((), 1, e)], ()), POINTS, order)]
    except EvalDomainError as exc:
        return str(exc)


@given(_exprs([]))
@settings(max_examples=200, deadline=None)
def test_an_exponent_that_reads_no_coordinate_folds_to_its_value(c):
    # the folded power evaluates as the power of the folded value's literal
    try:
        e = parse_expr(f"x^({render(c)})", XY)
    except ParseError:
        return
    assert type(e.exponent) is Num and math.isfinite(e.exponent.value)
    literal = parse_expr(f"x^({e.exponent.value!r})", XY)
    assert e == Pow(Var("x", 0), e.exponent) == literal
    for order in range(3):
        assert _outcome(e, order) == _outcome(literal, order)


@pytest.mark.parametrize("text, literal", [
    ("x^(1+1)", "x^2"), ("x^(1/4)", "x^0.25"), ("x^2^3", "x^8"),
    ("x^sqrt(2)", "x^1.4142135623730951"), ("x^1^1", "x^1"),
    ("(x+3)^sqrt(0)", "(x+3)^0"),
])
def test_an_exponent_folds_to_its_literal(text, literal):
    assert parse_expr(text, XY) == parse_expr(literal, XY)


@pytest.mark.parametrize("text, message", [
    ("ln(x)^x", "exponent reads coordinate 'x' (at byte offset 6)"),
    ("y^sqrt(x-x)", "exponent reads coordinate 'x' (at byte offset 2)"),
    ("sqrt(x-x) + y^sqrt(x-x)", "exponent reads coordinate 'x' (at byte offset 14)"),
    ("(exp(exp(exp(x)))*y)^(ln(y)-ln(y))",
     "exponent reads coordinate 'y' (at byte offset 21)"),
    ("(x+3)^ln(0)", "ln of nonpositive value in 'ln(0.0)' (at byte offset 6)"),
    ("x^(1/(1-1))", "division by zero in '1.0/(1.0 - 1.0)' (at byte offset 2)"),
    ("x^exp(1000)", "overflow in 'exp(1000.0)' (at byte offset 2)"),
    ("x^(1e300*1e300)", "exponent '1e+300*1e+300' is not finite (at byte offset 2)"),
    # the depth is checked before any tree walk could reach the recursion limit
    pytest.param("x^(" + "+".join(["1"] * 3000) + ")",
                 "exponent is 3000 levels deep, more than MAX_DEPTH = 64 "
                 "(at byte offset 2)", id="3000-term sum"),
])
def test_an_exponent_error_names_its_byte_offset(text, message):
    with pytest.raises(ParseError) as err:
        parse_expr(text, XY)
    assert str(err.value) == message


# --------------------------------------------------------------------------
# Jets


def test_eval_product_rule():
    jet = eval_jet(parse_expr("x*y", XY), (2.0, 3.0), order=1)
    assert jet.value == 6.0
    assert jet.grad.tolist() == [3.0, 2.0]


def test_eval_sine_second_order():
    jet = eval_jet(parse_expr("sin(x)", XY), (0.0, 0.7), order=2)
    assert jet.value == 0.0
    assert jet.grad.tolist() == [1.0, 0.0]
    assert jet.hess[0, 0] == 0.0


def test_eval_polynomial():
    jet = eval_jet(parse_expr("1+y^2", XY), (0.0, 1.0), order=1)
    assert jet.value == 2.0
    assert jet.grad.tolist() == [0.0, 2.0]


def test_integer_power_exact():
    jet = eval_jet(parse_expr("x^3", XY), (2.0, 0.0), order=2)
    assert jet.value == 8.0
    assert jet.grad[0] == 12.0
    assert jet.hess[0, 0] == 12.0


@pytest.mark.parametrize("text, point, reason", [
    ("1/x", (0.0, 1.0), "division by zero"),
    ("ln(x)", (0.0, 1.0), "ln of nonpositive"),
    ("ln(x)", (-1.0, 1.0), "ln of nonpositive"),
    ("sqrt(x)", (-1.0, 1.0), "sqrt of negative"),
    ("x^0.5", (-1.0, 1.0), "non-integer power"),
])
def test_domain_errors(text, point, reason):
    with pytest.raises(EvalDomainError) as err:
        eval_jet(parse_expr(text, XY), point, order=1)
    assert reason.split()[0] in str(err.value)


def test_sqrt_at_zero_has_a_value_and_no_derivative():
    # sqrt(0) = 0, but its derivative 1 / (2 sqrt(0)) is not finite
    e = parse_expr("sqrt(x)", XY)
    assert eval_jet(e, (0.0, 1.0), order=0).value == 0.0
    for order in (1, 2):
        with pytest.raises(EvalDomainError) as err:
            eval_jet(e, (0.0, 1.0), order=order)
        assert str(err.value) == "sqrt derivative at zero in 'sqrt(x)' at point (0.0, 1.0)"


def test_domain_error_reports_subexpression_and_point():
    with pytest.raises(EvalDomainError) as err:
        eval_jet(parse_expr("1 + ln(y - 2)", XY), (0.0, 1.0), order=0)
    assert "ln(y - 2" in str(err.value)
    assert "1.0" in str(err.value)


def test_float_range_failures_are_domain_errors():
    with pytest.raises(EvalDomainError, match="overflow in 'exp"):
        eval_jet(parse_expr("exp(exp(exp(10*x)))", XY), (2.0, 0.0), order=1)
    with pytest.raises(EvalDomainError, match="math domain error"):
        eval_jet(parse_expr("sin(exp(x)*exp(x))", XY), (400.0, 0.0), order=0)


def test_overflow_names_a_call_or_non_integer_power_and_gives_inf_elsewhere():
    # the float-range contract of EvalDomainError and of the README: a call
    # or a non-integer power that overflows raises naming its entry; +, -, *,
    # / and integer powers overflow to inf, which reaches the checks
    at = np.array([1000.0, 0.0])
    for text, shown in (("exp(x)", "exp(x)"), ("x^1000.5", "x^1000.5")):
        block = Block([((0,), 1, parse_expr(text, XY))], (1,), "anchor")
        with pytest.raises(EvalDomainError) as err:
            eval_block(block, at, 1)
        assert str(err.value) == f"anchor[0]: overflow in '{shown}' at point (1000.0, 0.0)"
    for text, value in (("x^1000", math.inf), ("x^999 + x^999", math.inf),
                        ("-x^999 - x^999", -math.inf), ("x^999 * x", math.inf),
                        ("x^999 / 0.001", math.inf)):
        block = Block([((0,), 1, parse_expr(text, XY))], (1,), "anchor")
        assert eval_block(block, at, 0)[0][0] == value, text


def test_jet_order_above_two_is_rejected():
    with pytest.raises(ValueError, match=r"^jet order must be in 0\.\.2$"):
        eval_block(Block([((0,), 1, parse_expr("x", XY))], (1,)), (1.0, 1.0), 3)


@pytest.mark.parametrize("text, x, value", [
    ("x/x", 1e80, 1.0), ("1/x", 1e-100, 1e100), ("x^0.5", 1e-200, 1e-100)])
@pytest.mark.parametrize("order", [0, 1, 2])
def test_no_failure_from_a_derivative_above_order_two(text, x, value, order):
    # a rule computes no third derivative, so none (v**4, v**-2.5) can
    # overflow or underflow into a zero divisor
    assert eval_jet(parse_expr(text, XY), (x, 1.0), order).value == value


@pytest.mark.parametrize("text, x, value", [
    ("1/x", 1e-110, 1.0 / 1e-110), ("ln(x)", 1e-170, math.log(1e-170)),
    ("x^0.5", 1e-300, 1e-300**0.5), ("sqrt(x)", 1e-250, math.sqrt(1e-250))])
@pytest.mark.parametrize("order", [0, 1])
def test_no_failure_from_a_derivative_term_the_order_does_not_read(text, x, value,
                                                                   order):
    # the second derivatives (2/v^3, -1/v^2, -0.25/v^1.5, v^-1.5) underflow
    # into a zero divisor or overflow here; below order 2 they are not computed
    assert eval_jet(parse_expr(text, XY), (x, 1.0), order).value == value


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_reciprocal_derivative_terms_overflow_to_inf(sign):
    # x^2 at 1e-170 and x^3 at 1e-110 underflow to 0: -1/x^2 and 2/x^3 are
    # then inf of their sign, where Python's float division would raise
    first = eval_jet(parse_expr("1/x", XY), (sign * 1e-170, 1.0), 1)
    assert first.value == sign * 1e170 and first.grad[0] == -math.inf
    second = eval_jet(parse_expr("1/x", XY), (sign * 1e-110, 1.0), 2)
    assert second.grad[0] == -1.0 / 1e-110**2 and second.hess[0, 0] == sign * math.inf


@pytest.mark.parametrize("text, x, order, grad, hess", [
    ("1/x", 1.7e200, 1, 0.0, None), ("1/x", 1.7e200, 2, 0.0, 0.0),
    ("ln(x)", 1.7e200, 2, 1.0 / 1.7e200, 0.0),
    ("ln(x)", 1e-170, 2, 1.0 / 1e-170, -math.inf),
    ("sqrt(x)", 1e-250, 2, 0.5 / math.sqrt(1e-250), -math.inf),
    ("x^0.5", 1e-300, 2, 0.5 * 1e-300**-0.5, -math.inf)])
def test_derivative_terms_are_zero_or_inf_where_a_power_overflows(
        text, x, order, grad, hess):
    # x^2 and x^-1.5 overflow, where Python's ** raises, and x^2 and x^1.5
    # underflow to a zero divisor: each term is then 0 or inf, of its sign
    jet = eval_jet(parse_expr(text, XY), (x, 1.0), order)
    assert math.isfinite(jet.value) and jet.grad[0] == grad
    assert order < 2 or jet.hess[0, 0] == hess


@pytest.mark.parametrize("text, x, hess", [
    ("ln(x)", 1e-170, -math.inf), ("1/x", 1e-110, math.inf),
    ("1/x", -1e-110, -math.inf)])
def test_an_infinite_second_derivative_meets_a_zero_gradient_as_zero(text, x, hess):
    # f''(v) is inf here, and the chain rule's f'' (g g^T) term would put
    # inf * 0 = NaN in the partials through y, which the jet does not depend on
    jet = eval_jet(parse_expr(text, XY), (x, 1.0), 2)
    assert jet.hess.tolist() == [[hess, 0.0], [0.0, 0.0]]


def test_a_nan_value_still_gives_nan_second_partials():
    # in one batch: at y = 1 the value is 1e-110, f'' = inf and the gradient's
    # y-component is exactly 0; at y = 10, y^1000 - y^1000 is inf - inf = NaN
    e = parse_expr("1/(x + (y^1000 - y^1000))", XY)
    with np.errstate(invalid="ignore", over="ignore"):
        value, _, hess = eval_block(Block([((), 1, e)], (), ""),
                                    [(1e-110, 1.0), (1e-110, 10.0)], 2)
    assert value[0] == 1e110 and hess[0].tolist() == [[math.inf, 0.0], [0.0, 0.0]]
    assert np.isnan(value[1]) and np.isnan(hess[1]).all()


@pytest.mark.parametrize("c, v, k, quotient", [
    (-1.0, 1.7e200, 2, -0.0), (-1.0, -1.7e200, 2, -0.0), (2.0, 1.7e200, 3, 0.0),
    (2.0, -1.7e200, 3, -0.0), (2.0, -1e-110, 3, -math.inf), (-1.0, 1e-170, 2, -math.inf),
    (-0.25, 1e-250, 1.5, -math.inf), (-0.25, 1e300, 1.5, -0.0)])
def test_a_term_over_a_power_out_of_range_keeps_its_sign(c, v, k, quotient):
    got = _over(c, v, k)
    assert got == quotient and math.copysign(1.0, got) == math.copysign(1.0, quotient)


@pytest.mark.parametrize("name", FIXTURES)
def test_eval_block_keeps_the_point_axis_innermost_in_memory(name):
    # the arrays lead with the point axis, which has the smallest stride
    spec = load_doc(fixture_doc(name))
    points = sample_points(spec.chart, 5, 42)
    for block in spec.block_entries.values():
        for array in eval_block(block, points, 2):
            assert array.shape[0] == 5 and array.strides[0] == array.itemsize
            assert all(stride > array.itemsize for stride in array.strides[1:])


def test_eval_block_mirrors_and_names_failing_entry():
    e = parse_expr("x*y + exp(x)", XY)
    value, grad = eval_block(Block([((0, 1), 1, e), ((1, 0), -1, e)], (2, 2),
                                   "two_form"), (0.3, -1.1), order=1)
    jet = eval_jet(e, (0.3, -1.1), order=1)
    assert value[0, 1] == jet.value and value[1, 0] == -jet.value
    assert np.array_equal(grad[1, 0], -jet.grad) and value[0, 0] == 0.0
    with pytest.raises(EvalDomainError, match=r"^metric\[1\]\[0\]: ln of "):
        eval_block(Block([((1, 0), 1, parse_expr("ln(x)", XY))], (2, 2),
                         "metric"), (-1.0, 0.0))


def test_block_evaluates_each_distinct_subexpression_once():
    # x*y built twice as separate objects; a +0.0 entry is the zero fill
    # and a -0.0 entry is written
    entries = [((0,), 1, parse_expr("sin(x*y) + x*y", XY)),
               ((1,), 1, parse_expr("x*y", XY)),
               ((2,), 1, Num(0.0)), ((3,), 1, Num(-0.0))]
    block = Block(entries, (4,))
    assert len(block.program.steps) == 6      # x, y, x*y, sin, +, -0.0
    value, = eval_block(block, (0.5, 2.0))
    assert value[1] == 1.0 and math.copysign(1.0, value[3]) == -1.0
    assert math.copysign(1.0, value[2]) == 1.0


# The first failure in evaluation order is the one reported: operands are
# evaluated left to right, and a division checks its denominator before it
# evaluates the numerator. An exponent that reads a coordinate fails first of
# all: the parser rejects it, before any point or order is looked at. Its rows
# keep, as their message, the error that evaluation at the point reported
# while exponents were checked only there; that error is no longer reached.
_EXPONENT_READS_A_COORDINATE = {
    "ln(x)^x": "exponent reads coordinate 'x' (at byte offset 6)",
    "y^sqrt(x-x)": "exponent reads coordinate 'x' (at byte offset 2)",
    "sqrt(x-x) + y^sqrt(x-x)": "exponent reads coordinate 'x' (at byte offset 14)",
    "(exp(exp(exp(x)))*y)^(ln(y)-ln(y))":
        "exponent reads coordinate 'y' (at byte offset 21)",
}


@pytest.mark.parametrize("text, point, message", [
    ("ln(x)/(x-x)", (-1.0, 0.5),
     "division by zero in 'ln(x)/(x - x)' at point (-1.0, 0.5)"),
    ("ln(x)^x", (-1.0, 0.5),
     "non-constant exponent in 'ln(x)^x' at point (-1.0, 0.5)"),
    ("y^sqrt(x-x)", (0.5, 2.0),
     "sqrt derivative at zero in 'sqrt(x - x)' at point (0.5, 2.0)"),
    ("sqrt(x-x) + y^sqrt(x-x)", (0.5, 2.0),
     "sqrt derivative at zero in 'sqrt(x - x)' at point (0.5, 2.0)"),
    ("exp(exp(x))^2/(y-y)", (8.0, 1.0),
     "division by zero in 'exp(exp(x))^2.0/(y - y)' at point (8.0, 1.0)"),
    ("(exp(exp(exp(x)))*y)^(ln(y)-ln(y))", (3.0, -1.0),
     "ln of nonpositive value in 'ln(y)' at point (3.0, -1.0)"),
    ("(x-x)^-1 + ln(y)", (0.5, -1.0),
     "division by zero in '(x - x)^(-1.0)' at point (0.5, -1.0)"),
    ("ln(y) + (x-x)^-1", (0.5, -1.0),
     "ln of nonpositive value in 'ln(y)' at point (0.5, -1.0)"),
    ("(y-y)^-2/ln(x)", (-1.0, 0.5),
     "ln of nonpositive value in 'ln(x)' at point (-1.0, 0.5)"),
])
@pytest.mark.parametrize("order", [0, 1, 2])
def test_domain_error_order(text, point, message, order):
    if text in _EXPONENT_READS_A_COORDINATE:
        with pytest.raises(ParseError) as err:
            parse_expr(text, XY)
        assert str(err.value) == _EXPONENT_READS_A_COORDINATE[text] != message
        return
    with pytest.raises(EvalDomainError) as err:
        eval_jet(parse_expr(text, XY), point, order=order)
    assert str(err.value) == message


@pytest.mark.parametrize("anchor, message", [
    ([["1", "y + ln(x)"], ["ln(x)", "1"]],
     "anchor[0][1]: ln of nonpositive value in 'ln(x)' at point (-1.5, 0.5)"),
    ([["1", "ln(x)/(x-x)"], ["ln(x)", "1"]],
     "anchor[0][1]: division by zero in 'ln(x)/(x - x)' at point (-1.5, 0.5)"),
])
@pytest.mark.parametrize("order", [0, 1])
def test_block_error_names_first_entry(anchor, message, order):
    zero = [["0", "0"], ["0", "0"]]
    spec = load_spec({"chart": {"coords": XY, "domain": [[-2, -1], [0, 1]]},
                      "rank": 2, "mode": "anchored", "anchor": anchor,
                      "connection": [zero, zero]})
    with pytest.raises(EvalDomainError) as err:
        eval_fields(spec, (-1.5, 0.5), {"anchor": order})
    assert str(err.value) == message


def _assert_points_match_one_point_runs(block, points, order):
    batch = eval_block(block, points, order)
    for k, point in enumerate(points):
        for array, alone in zip(batch, eval_block(block, point, order)):
            assert array[k].tobytes() == alone.tobytes()


def test_batch_power_tests_its_base_over_the_batch():
    # a failure names the point a one-point evaluation names
    points = np.array([[0.5, 0.3], [1.5, 0.2], [0.25, -0.1], [2.0, 0.9]])
    for text, bad in (("x^-2", 0.0), ("x^0.5", -0.25)):
        block = Block([((0,), 1, parse_expr(text, XY))], (1,))
        failing = points.copy()
        failing[2, 0] = bad
        for order in range(3):
            _assert_points_match_one_point_runs(block, points, order)
            with pytest.raises(EvalDomainError) as err:
                eval_block(block, failing, order)
            with pytest.raises(EvalDomainError) as alone:
                eval_block(block, failing[2], order)
            assert err.value.point == tuple(failing[2])
            assert str(err.value) == str(alone.value)


# --------------------------------------------------------------------------
# Constant blocks: a block that reads no coordinate is evaluated at every point


POINTS = np.array([[0.5, 0.3], [1.5, 0.2], [0.25, -0.1]])


@pytest.mark.parametrize("order", [0, 1, 2])
def test_constant_blocks_give_each_point_its_own_bytes(order):
    # each fixture block that reads no coordinate, over two batches, against
    # a new block of its entries evaluated at each point alone
    for name in FIXTURES:
        spec = load_spec(fixture_doc(name))
        points = sample_points(spec.chart, 3)
        for block in spec.block_entries.values():
            if any(op == _VAR for op, *_ in block.program.steps):
                continue
            for batch in (eval_block(block, points, order),
                          eval_block(block, points[1:], order)):
                for k, point in enumerate(points[-len(batch[0]):]):
                    alone = eval_block(Block(block.entries, block.shape), point, order)
                    for array, single in zip(batch, alone):
                        assert array[k].tobytes() == single.tobytes()


def test_failing_constant_entry_names_the_first_point_of_each_batch():
    # each batch raises at its own first point
    block = Block([((0,), 1, parse_expr("1/(1-1)", XY))], (1,), "structure")
    for points in (POINTS, POINTS[1:], POINTS[2]):
        with pytest.raises(EvalDomainError) as err:
            eval_block(block, points)
        first = tuple(np.reshape(points, (-1, 2))[0].tolist())
        assert str(err.value) == (f"structure[0]: division by zero in "
                                  f"'1.0/(1.0 - 1.0)' at point {first}")


def test_non_constant_exponent_rejected():
    with pytest.raises(ParseError, match=r"^exponent reads coordinate 'y' "
                                         r"\(at byte offset 2\)$"):
        parse_expr("x^y", XY)


# --------------------------------------------------------------------------
# Finite-difference oracle


def test_fd_crosscheck_cubic():
    # central differences have O(h^2) error: h = 1e-4 gives ~1e-8 on x^3
    e = parse_expr("x^3", ["x"])
    assert fd_crosscheck(e, (1.0,), h=1e-4) <= 1e-7
    jet = eval_jet(e, (1.0,), order=1)
    plus = eval_jet(e, (1.0 + 1e-4,), order=0).value
    minus = eval_jet(e, (1.0 - 1e-4,), order=0).value
    independent = abs(jet.grad[0] - (plus - minus) / 2e-4)
    assert fd_crosscheck(e, (1.0,), h=1e-4) == pytest.approx(independent)


def test_fd_crosscheck_constant_and_exp():
    assert fd_crosscheck(parse_expr("5", XY), (0.3, -0.2)) ==pytest.approx(0.0, abs=1e-12)
    assert fd_crosscheck(parse_expr("exp(x)", ["x"]), (0.0,), h=1e-4) <= 1e-7


def test_fd_crosscheck_all_fixture_expressions():
    # every expression of every fixture, 100 seeded points each
    for name in FIXTURES:
        spec = load_doc(fixture_doc(name))
        points = sample_points(spec.chart, 100, seed=42)
        # each stored expression once: a mirror entry shares its object
        exprs = {id(e): e for block in spec.block_entries.values()
                 for _, _, e in block.entries}
        for e in exprs.values():
            for p in points:
                assert fd_crosscheck(e, p, h=1e-4) <= 1e-6, (name, render(e), p)


# --------------------------------------------------------------------------
# Jet arithmetic properties


def _random_jet(rng, points=4, n=2):
    """A random second-order jet over a batch of points."""
    h = rng.uniform(-2, 2, size=(points, n, n))
    return Jet([rng.uniform(-2, 2, size=points), rng.uniform(-2, 2, size=(points, n)),
                h + np.swapaxes(h, 1, 2)])


def _jet_close(a, b, rel=1e-12):
    # the same test as one point at a time: each point's scale is its own
    for k in range(len(a.value)):
        ok = abs(a.value[k] - b.value[k]) <= rel * max(1.0, abs(a.value[k]))
        for pa, pb in zip(a.parts[1:], b.parts[1:]):
            scale = max(1.0, float(np.max(np.abs(pa[k]))))
            ok = ok and float(np.max(np.abs(pa[k] - pb[k]))) <= rel * scale
        if not ok:
            return False
    return True


@pytest.mark.parametrize("seed", range(5))
def test_jet_add_mul_commutative_associative(seed):
    rng = np.random.default_rng(seed)
    a, b, c = (_random_jet(rng) for _ in range(3))
    assert _jet_close(a + b, b + a)
    assert _jet_close(a * b, b * a)
    assert _jet_close((a + b) + c, a + (b + c))
    assert _jet_close((a * b) * c, a * (b * c))


def test_order_consistency_exact():
    # lower-order slots agree bitwise with the same slots at higher order
    exprs = ["x*y + sin(x)*exp(y)", "1/(1 + x^2)", "sqrt(1 + y^2)*tanh(x)"]
    points = [(0.3, -1.2), (1.7, 0.4)]
    for text in exprs:
        e = parse_expr(text, XY)
        for p in points:
            for k in range(2):
                lo = eval_jet(e, p, order=k)
                hi = eval_jet(e, p, order=k + 1)
                assert lo.value == hi.value
                if k >= 1:
                    assert np.array_equal(lo.grad, hi.grad)


def test_hessian_symmetry():
    e = parse_expr("sin(x*y) + x^3/(2 + cos(y))", XY)
    jet = eval_jet(e, (0.7, -0.4), order=2)
    assert np.array_equal(jet.hess, jet.hess.T)


# --------------------------------------------------------------------------
# Formal derivative (used by the free-algebroid extension)


@pytest.mark.parametrize("text", [
    "x^2*y", "sin(x*y)", "exp(x)/(1 + y^2)", "sqrt(1 + x^2)", "tanh(x)*ln(2 + y)",
    "tan(x/4)", "abs(1 + x^2)", "cos(x*y)",
])
def test_diff_matches_jet_gradient(text):
    e = parse_expr(text, XY)
    for p in [(0.4, 0.8), (1.1, -0.3)]:
        jet = eval_jet(e, p, order=1)
        for i in range(2):
            val = eval_jet(diff(e, i), p, order=0).value
            assert val == pytest.approx(jet.grad[i], rel=1e-12, abs=1e-12)
