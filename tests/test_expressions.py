"""Expression grammar: precedence climbing, round-trip, byte offsets."""

import math

import numpy as np
import pytest

from ousym.errors import (ArityMismatch, EvaluationDomainError,
                          ExpressionSyntaxError, UnknownIdentifier)
from ousym.expressions import (BinOp, Func, Neg, NormX, Num, Var,
                               parse_components, parse_expression,
                               parse_force_expression)


def ev(text, n, xs):
    return parse_expression(text, n).evaluate(list(xs))


def test_literals_and_variables():
    assert ev("3.5", 1, [0.0]) == 3.5
    assert ev("x1", 1, [2.0]) == 2.0
    assert ev(".5e1", 1, [0.0]) == 5.0
    assert ev("2e-2", 1, [0.0]) == 0.02


@pytest.mark.parametrize("text,expected", [
    ("1+2*3", 7.0),
    ("(1+2)*3", 9.0),
    ("2^3^2", 512.0),        # right associative
    ("8/4/2", 1.0),          # left associative
    ("1-2-3", -4.0),
    ("-2^2", -4.0),          # unary minus binds weaker than ^
    ("(-2)^2", 4.0),
    ("2*-3", -6.0),
    ("--2", 2.0),
])
def test_precedence(text, expected):
    assert ev(text, 1, [0.0]) == expected


def test_precedence_matches_python_eval():
    rng = np.random.default_rng(5)
    exprs = ["x1*2 + 3*x1^2 - 1", "x1 - x1/4 + 2^x1", "-x1^2 + (x1-1)*(x1+1)"]
    for text in exprs:
        tree = parse_expression(text, 1)
        py = text.replace("^", "**")
        for _ in range(10):
            x = float(rng.uniform(0.2, 2.0))
            assert tree.evaluate([x]) == pytest.approx(
                eval(py, {"x1": x}), rel=1e-13)


def test_functions():
    assert ev("sin(0)", 1, [0.0]) == 0.0
    assert ev("cos(0)", 1, [0.0]) == 1.0
    assert ev("exp(1)", 1, [0.0]) == pytest.approx(math.e)
    assert ev("log(exp(2))", 1, [0.0]) == pytest.approx(2.0)
    assert ev("sqrt(4)", 1, [0.0]) == 2.0
    assert ev("abs(-3)", 1, [0.0]) == 3.0


def test_norm_special_form():
    assert ev("norm(x)", 2, [3.0, 4.0]) == pytest.approx(5.0)
    assert ev("norm(x)^2", 2, [1.0, 2.0]) == pytest.approx(5.0)


def test_round_trip_is_identity():
    samples = [
        "4*x1 + 3",
        "(1+norm(x)^2)*x1",
        "-x1^2",
        "x1^(x2+1)",
        "x1 - (x2 - x1)",
        "sin(x1)*cos(x2)/(1+x1^2)",
        "x1/x2/x1",
        "2^x1^2",
    ]
    for text in samples:
        n = 2
        tree = parse_expression(text, n)
        rendered = tree.render()
        again = parse_expression(rendered, n)
        assert again == tree, f"{text!r} -> {rendered!r}"
        xs = [0.7, 1.3]
        assert again.evaluate(xs) == pytest.approx(tree.evaluate(xs))


def test_render_then_parse_is_the_identity_on_drawn_trees():
    # the module promises parse(render(tree)) == tree for every tree; a
    # literal is nonnegative, a negative one being Neg(Num) once parsed
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    leaves = st.one_of(
        st.floats(min_value=0.0, allow_nan=False, allow_infinity=False).map(
            Num),
        st.integers(0, 2).map(Var), st.just(NormX()))
    trees = st.recursive(leaves, lambda kids: st.one_of(
        kids.map(Neg),
        st.builds(Func, st.sampled_from(
            ["sin", "cos", "exp", "log", "sqrt", "abs"]), kids),
        st.builds(BinOp, st.sampled_from(list("+-*/^")), kids, kids)),
        max_leaves=10)

    @hypothesis.settings(max_examples=200, deadline=None)
    @hypothesis.given(trees)
    def check(tree):
        assert parse_expression(tree.render(), 3) == tree

    check()


def test_syntax_error_offset_example():
    with pytest.raises(ExpressionSyntaxError) as err:
        parse_expression("4*x1 +", 1)
    assert err.value.offset == 7
    assert "offset 7" in str(err.value)


def test_syntax_error_positions():
    with pytest.raises(ExpressionSyntaxError) as err:
        parse_expression("4**x1", 1)
    assert err.value.offset == 3
    with pytest.raises(ExpressionSyntaxError) as err:
        parse_expression("(x1", 1)
    assert err.value.offset == 4
    with pytest.raises(ExpressionSyntaxError) as err:
        parse_expression("x1 5", 1)
    assert err.value.offset == 4


def test_unknown_identifiers():
    with pytest.raises(UnknownIdentifier):
        parse_expression("x3", 2)
    with pytest.raises(UnknownIdentifier):
        parse_expression("tan(x1)", 1)
    with pytest.raises(UnknownIdentifier):
        parse_expression("y1", 1)


def test_component_arity():
    with pytest.raises(ArityMismatch):
        parse_components("x1; x2", 3)
    trees = parse_components("x2; -x1", 2)
    assert trees[0].evaluate([1.0, 2.0]) == 2.0
    assert trees[1].evaluate([1.0, 2.0]) == -1.0


def test_component_offsets_are_global():
    # the error is in the second component; offsets count from the start
    # of the whole string
    with pytest.raises(ExpressionSyntaxError) as err:
        parse_components("x1; x2 +", 2)
    assert err.value.offset == 9


def test_domain_errors_at_evaluation():
    tree = parse_expression("log(x1)", 1)
    with pytest.raises(EvaluationDomainError):
        tree.evaluate([-1.0])
    tree = parse_expression("sqrt(x1)", 1)
    with pytest.raises(EvaluationDomainError):
        tree.evaluate([-4.0])
    tree = parse_expression("x1^0.5", 1)
    with pytest.raises(EvaluationDomainError):
        tree.evaluate([-4.0])


def test_whitespace_insignificant():
    a = parse_expression("4*x1+3", 1)
    b = parse_expression("  4 * x1   + 3 ", 1)
    assert a == b


def test_force_expression_matches_linear():
    from ousym.model import LinearForce
    force = parse_force_expression("4*x1 + 3", 1)
    lin = LinearForce([[4.0]], [3.0])
    rng = np.random.default_rng(0)
    for _ in range(20):
        x = [float(rng.uniform(-2, 2))]
        assert force.evaluate(x)[0] == pytest.approx(lin.evaluate(x)[0],
                                                     rel=1e-14)


def test_force_expression_isotropic_family():
    force = parse_force_expression(
        "(1 + norm(x)^2)*x1; (1 + norm(x)^2)*x2", 2)
    x = [0.5, -1.0]
    r2 = 0.25 + 1.0
    vals = force.evaluate(x)
    assert vals[0] == pytest.approx((1 + r2) * 0.5)
    assert vals[1] == pytest.approx((1 + r2) * -1.0)
