"""Parser and jet arithmetic tests for the expression module."""

import time
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from capflow.expr import (
    Bin,
    Const,
    EvalDomainError,
    Expression,
    ExprError,
    ExprSyntaxError,
    Neg,
    Pow,
    Var,
    evaluate,
    jet_rows,
    parse,
    triangle_matrices,
    triple_tensors,
)
from finite_differences import finite_difference_jet


def ev(src, pts, dim=3, order=2):
    return evaluate(parse(src, dim=dim), np.atleast_2d(np.asarray(pts, float)), order=order)


class TestParsing:
    def test_precedence_mul_over_add(self):
        assert ev("x+y*z", [2.0, 3.0, 4.0])[0, 0] == pytest.approx(14.0)

    def test_power_binds_tighter_than_unary_minus(self):
        # -x^2 is -(x^2)
        assert ev("-x^2", [3.0, 0.0, 0.0])[0, 0] == pytest.approx(-9.0)

    def test_power_right_associative(self):
        assert ev("x^3^2", [2.0, 0.0, 0.0])[0, 0] == pytest.approx(2.0**9)

    def test_fractional_exponent(self):
        assert ev("(x^2)^(1/2)", [5.0, 0.0, 0.0])[0, 0] == pytest.approx(5.0)

    def test_parens_override(self):
        assert ev("(x+y)*z", [1.0, 2.0, 3.0])[0, 0] == pytest.approx(9.0)

    @pytest.mark.parametrize("bad", ["x+", "(x", "x^^2", "x**y", "2x", "w+1"])
    def test_syntax_errors(self, bad):
        with pytest.raises(ExprSyntaxError):
            parse(bad, dim=3)

    def test_dim_controls_variables(self):
        parse("x+y+z+w", dim=4)
        with pytest.raises(ExprSyntaxError):
            parse("w", dim=3)


# inputs where Python's grammar, which parse reads the source with, differs
# from the formula grammar, each with the outcome of the hand-written parser
# that parse replaced: a tree, or None for ExprSyntaxError
EDGE_INPUTS = [
    ("x\n+y", Bin("+", Var(0), Var(1))),
    ("x\\\n+y", None),
    ("05", Const(5.0)),
    ("00.5", Const(0.5)),
    ("1e05", Const(1e5)),
    ("0x1", None),
    ("1_0", None),
    ("1j", None),
    ("True", None),
    ("x # c", None),
    ("x**y", None),
    ("x^^2", None),
    ("x % y", None),
    ("x // y", None),
    ("x if y else z", None),
    ("sqrt(x, y)", None),
    ("abs(x)", None),
    ("x.real", None),
    ("x[0]", None),
    ("w", None),
    # Python reads these as a call with a trailing comma, a parenthesized
    # callee, a non-ASCII identifier folded to x, and a warning-raising numeral
    ("sqrt(x,)", None),
    ("(sqrt)(x)", None),
    ("\U0001d465", None),
    ("1if", None),
    ("\t x ^ -2", Pow(Var(0), Fraction(-2))),
]


@pytest.mark.parametrize("source,tree", EDGE_INPUTS)
def test_edge_inputs_keep_their_outcome(source, tree, capfd):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        if tree is None:
            with pytest.raises(ExprSyntaxError) as info:
                parse(source, dim=3)
            assert 0 <= info.value.offset <= len(source)
        else:
            assert parse(source, dim=3) == Expression(tree, 3)
    # nothing is printed or warned, though Python warns of "1if"
    assert not caught and capfd.readouterr().err == ""


@pytest.mark.parametrize("source", ["x^(0^(-1))", "x^1e999"])
def test_unfoldable_exponent_is_a_syntax_error(source):
    # the hand-written parser raised ZeroDivisionError and OverflowError here
    with pytest.raises(ExprSyntaxError, match="exponent must be a constant"):
        parse(source, dim=3)


class TestLimits:
    def test_huge_constant_power_is_refused_before_it_is_computed(self):
        start = time.perf_counter()
        with pytest.raises(ExprError, match="1024 bits"):
            parse("x^9^9^9", dim=3)
        assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize("source, want", [
        ("x^0.1", Fraction(1, 10)), ("x^(0.1+0.2)", Fraction(3, 10)),
        ("x^(1/3)", Fraction(1, 3)), ("x^2.5", Fraction(5, 2)),
        # no fraction of denominator <= 1e9 rounds back to these: exact binary
        ("x^1e-12", Fraction(1e-12)), ("x^2.0000000001", Fraction(2.0000000001)),
    ])
    def test_float_exponent_reads_back_to_its_value(self, source, want):
        assert parse(source, dim=3).ast == Pow(Var(0), want)

    @pytest.mark.parametrize("value", [1e-12, 0.1234567890123, 1e-300, 123456.789012345,
                                       2.0**-60, 0.3333333333])
    def test_folded_float_rounds_back_to_the_float(self, value):
        exponent = parse(f"x^{value!r}", dim=3).ast.exponent
        assert exponent != 0 and float(exponent) == value

    @given(st.floats(1e-300, 1e6))
    @settings(max_examples=200, deadline=None)
    def test_any_float_exponent_rounds_back(self, value):
        assert float(parse(f"x^{value!r}", dim=3).ast.exponent) == value

    def test_refusal_counts_bits_not_exponents(self):
        assert parse("x^(2^1024/2^1023)", dim=3).ast == Pow(Var(0), Fraction(2))
        assert parse("x^(1^(10^9))", dim=3).ast == Pow(Var(0), Fraction(1))

    @pytest.mark.parametrize("source", ["x" + "+x" * 9999, "-" * 5000 + "x", "x" + "^1" * 3000],
                             ids=["sum", "unary", "power"])
    def test_too_deep_to_parse_is_an_expr_error(self, source):
        with pytest.raises(ExprError, match="nested too deeply"):
            parse(source, dim=3)

    def test_too_deep_to_evaluate_is_an_expr_error(self):
        tree = Var(0)
        for _ in range(5000):
            tree = Neg(tree)
        with pytest.raises(ExprError, match="cannot evaluate"):
            evaluate(Expression(tree, 3), np.ones((1, 3)))

    def test_sum_as_long_as_the_evaluator_reaches_parses(self):
        # a left-associative chain is converted by a loop, so the tree depth
        # the evaluator reaches, not the parser, bounds a long sum
        expr = parse("x" + "+x" * 799, dim=3)
        assert evaluate(expr, np.ones((1, 3)))[0, 0] == 800.0


class TestJets:
    # every derivative order is checked against central differences on the
    # same expression, so the jet rules carry their own oracle

    @pytest.mark.parametrize(
        "src",
        [
            "x^2+y^2+z^2",
            "(x^2+y^2+z^2)^(1/2)",
            "((x^2+y^2+z^2)*(x^2+y^2)+z^4)^(1/4)",
            "x*y*z+x^3",
            "(x^4+2*y^4+z^4)^(1/4)",
        ],
    )
    def test_matches_finite_differences(self, src):
        expr = parse(src, dim=3)
        rng = np.random.default_rng(7)
        pts = rng.uniform(0.3, 1.2, size=(5, 3))
        jet = evaluate(expr, pts, order=3)
        hess, third = triangle_matrices(jet[4:10], 3), triple_tensors(jet[10:], 3)

        def func(p):
            return float(evaluate(expr, p[None, :], order=0)[0, 0])

        for i, p in enumerate(pts):
            fd = finite_difference_jet(func, p)
            assert jet[0, i] == pytest.approx(fd.value, abs=1e-12)
            assert np.allclose(jet[1:4, i], fd.grad, atol=1e-6)
            assert np.allclose(hess[i], fd.hess, atol=1e-4)
            assert np.allclose(third[i], fd.third, atol=5e-3)

    def test_hessian_bitwise_symmetric(self):
        jet = ev("((x^2+y^2+z^2)*(x^2+y^2)+z^4)^(1/4)",
                 np.random.default_rng(0).normal(size=(20, 3)), order=3)
        hess, third = triangle_matrices(jet[4:10], 3), triple_tensors(jet[10:], 3)
        assert np.array_equal(hess, hess.transpose(0, 2, 1))
        for perm in [(0, 1, 3, 2), (0, 2, 1, 3), (0, 3, 2, 1)]:
            assert np.array_equal(third, third.transpose(*perm))

    def test_negative_base_fractional_power_raises(self):
        with pytest.raises(EvalDomainError):
            ev("(x)^(1/2)", [-1.0, 0.0, 0.0])

    def test_zero_base_negative_power_raises(self):
        with pytest.raises(EvalDomainError):
            ev("x^(-1)", [0.0, 1.0, 1.0])

    @given(
        st.floats(0.2, 2.0), st.floats(0.2, 2.0), st.floats(0.2, 2.0),
    )
    @settings(max_examples=25, deadline=None)
    def test_homogeneity_of_norm_like_expression(self, x, y, z):
        jet1 = ev("((x^2+y^2+z^2)*(x^2+y^2)+z^4)^(1/4)", [x, y, z])
        jet2 = ev("((x^2+y^2+z^2)*(x^2+y^2)+z^4)^(1/4)", [2 * x, 2 * y, 2 * z])
        assert jet2[0, 0] == pytest.approx(2 * jet1[0, 0], rel=1e-12)
        # gradient of a 1-homogeneous function is 0-homogeneous
        assert np.allclose(jet2[1:4, 0], jet1[1:4, 0], rtol=1e-10, atol=1e-12)

    def test_order_below_three_skips_third(self):
        jet = ev("x*y*z", [1.0, 2.0, 3.0], order=2)
        assert jet.shape == (jet_rows(3, 2), 1)
