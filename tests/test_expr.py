"""Expression grammar: parsing, precedence, printing, evaluation."""

import numpy as np
import pytest

from ltcsim import ExprError, compile_expression, parse_expression, parse_field


def ev(text, *xs):
    return compile_expression(parse_expression(text))(np.array(xs, dtype=float))


class TestParsingAndEval:
    def test_rotation_field_readoff(self):
        fld = parse_field(["x2", "-x1"], [[-1.5, 1.5], [-1.5, 1.5]])
        assert fld.dim == 2
        assert fld([1.0, 0.0]).tolist() == [0.0, -1.0]

    def test_sin_at_zero(self):
        assert ev("sin(3*x1)", 0.0) == 0.0

    def test_power_example(self):
        assert ev("x1^2 - 1", 2.0) == 3.0

    def test_precedence(self):
        assert ev("1 + 2*3") == 7.0
        assert ev("2*3^2") == 18.0
        assert ev("(1 + 2)*3") == 9.0
        assert ev("8/4/2") == 1.0  # left associative
        assert ev("8 - 4 - 2") == 2.0

    def test_leading_sign(self):
        assert ev("-x1", 2.0) == -2.0
        assert ev("+x1", 2.0) == 2.0
        assert ev("-x1 + 1", 2.0) == -1.0
        assert ev("3 - (-2)") == 5.0

    def test_functions(self):
        assert ev("cos(x1)", 0.0) == 1.0
        assert ev("exp(x1)", 1.0) == pytest.approx(np.e)
        assert ev("tanh(x1)", 100.0) == pytest.approx(1.0)
        assert ev("abs(x1)", -3.0) == 3.0

    def test_scientific_literals(self):
        assert ev("1e-2 + 2.5E3") == pytest.approx(2500.01)

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            ev("1/x1", 0.0)

    def test_exp_overflow_saturates(self):
        assert ev("exp(x1)", 1e4) == np.inf


class TestErrors:
    def test_syntax_error_carries_column(self):
        with pytest.raises(ExprError) as info:
            parse_expression("x1 + * 2")
        assert info.value.position == 5

    def test_unbalanced_paren(self):
        with pytest.raises(ExprError):
            parse_expression("(x1 + 2")

    def test_unknown_function(self):
        with pytest.raises(ExprError, match="unknown function"):
            parse_expression("foo(x1)")

    def test_unknown_identifier(self):
        with pytest.raises(ExprError, match="unknown identifier"):
            parse_expression("x1 + banana")

    def test_fractional_exponent_rejected(self):
        with pytest.raises(ExprError, match="unsigned integer"):
            parse_expression("x1^2.5")

    def test_signed_exponent_rejected(self):
        with pytest.raises(ExprError):
            parse_expression("x1^-2")

    def test_variable_index_out_of_range(self):
        with pytest.raises(ExprError, match="x3"):
            parse_field(["x3"], [[-1.0, 1.0]])

    def test_field_reports_first_bad_expression(self):
        # expressions are tokenized and parsed in turn: expression 0's syntax
        # error wins over expression 1's bad character
        with pytest.raises(ExprError, match="unexpected end of input"):
            parse_field(["x1 +", "x1 $"], [[-1.0, 1.0]] * 2)
        # and every syntax error wins over an out-of-range variable
        with pytest.raises(ExprError, match="unexpected end of input"):
            parse_field(["x5", "x1 +"], [[-1.0, 1.0]] * 2)
        with pytest.raises(ExprError, match="expression 1 references x4"):
            parse_field(["x2", "x4 * x1 + x3"], [[-1.0, 1.0]] * 2)

    def test_variable_zero_rejected(self):
        with pytest.raises(ExprError):
            parse_expression("x0")

    def test_empty_input(self):
        with pytest.raises(ExprError):
            parse_expression("")


class TestPrintRoundtrip:
    CASES = [
        "x2",
        "-x1",
        "1 + 2*3",
        "2*3^2",
        "(1 + 2)*3",
        "sin(3*x1)",
        "x1^2 - 1",
        "-x1*x2 + x3/(x1 - 2)",
        "tanh(exp(-x1) + abs(x2 - 0.5))",
        "8 - 4 - 2",
        "8/4/2",
        "1 - (2 - 3)",
        "(x1 + x2)^3*0.25",
        "-(x1 + 1)",
    ]

    @pytest.mark.parametrize("text", CASES)
    def test_parse_print_parse_fixpoint(self, text):
        tree = parse_expression(text)
        printed = str(tree)
        assert parse_expression(printed) == tree
        # printing is idempotent from the first reprint on
        assert str(parse_expression(printed)) == printed

    @pytest.mark.parametrize("text", CASES)
    def test_print_preserves_value(self, text):
        tree = parse_expression(text)
        fn1 = compile_expression(tree)
        fn2 = compile_expression(parse_expression(str(tree)))
        rng = np.random.default_rng(0)
        for _ in range(10):
            x = rng.uniform(2.1, 3.0, 3)  # away from the x1-2 pole
            assert fn1(x) == fn2(x)
