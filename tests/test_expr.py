"""Parser and jet arithmetic tests for the expression module."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from capflow.expr import (
    EvalDomainError,
    ExprSyntaxError,
    evaluate,
    finite_difference_jet,
    jet_rows,
    parse,
    triangle_matrices,
    triple_tensors,
)


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
