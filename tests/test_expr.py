"""Expression grammar: parsing, precedence, printing, evaluation."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ltcsim import ExprError, compile_expression, parse_expression, parse_field
from ltcsim.expr import BinOp, Call, Neg, Num, Pow, Var
from helpers import expr_trees


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

    def test_denominator_before_numerator(self):
        # 1e300^2 overflows, but the zero denominator is found first
        with pytest.raises(ZeroDivisionError, match="division by zero in field expression"):
            ev("1e300^2/x1", 0.0)
        with pytest.raises(OverflowError):
            ev("1e300^2/x1", 1.0)

    def test_negation_keeps_nan_sign(self):
        # -(0*inf) negates the NaN that 0*inf makes; (-0)*inf makes a new one
        nan = 0.0 * math.inf
        assert math.copysign(1.0, ev("-(0*x1)", math.inf)) == -math.copysign(1.0, nan)
        assert math.copysign(1.0, ev("-0*x1", math.inf)) == -math.copysign(1.0, nan)


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

    @pytest.mark.parametrize("text, column", [("x1^" + "1" * 5000, 3), ("x" + "1" * 5000, 0)],
                             ids=["exponent", "index"])
    def test_integer_too_long(self, text, column):
        with pytest.raises(ExprError, match="integer too long") as info:
            parse_expression(text)
        assert info.value.position == column

    def test_variable_zero_rejected(self):
        with pytest.raises(ExprError):
            parse_expression("x0")

    def test_empty_input(self):
        with pytest.raises(ExprError):
            parse_expression("")

    @pytest.mark.parametrize("text, column", [
        ("x²", 1), ("x1^²", 3), ("²", 0), ("x١", 1), ("١", 0), ("xⅣ", 1),
    ])
    def test_non_ascii_rejected(self, text, column):
        with pytest.raises(ExprError, match="unexpected character") as info:
            parse_expression(text)
        assert info.value.position == column


class TestNesting:
    # Each field is 1.0 at x1 = 1.  In the compiled source a call or a
    # denominator costs one of the 200 nested parentheses Python allows.
    FLOOR = {
        "sum": "(" + "+".join(["x1"] * 200) + ")/200",
        "parentheses": "(" * 64 + "x1" + ")" * 64,
        "calls": "abs(" * 64 + "x1" + ")" * 64,
        "denominators": "1/(" * 64 + "x1" + ")" * 64,
        "numerators": "(" * 64 + "x1" + "/1)" * 64,
        "mixed": "1/(abs(" * 64 + "x1" + "))" * 64,
    }

    @pytest.mark.parametrize("kind", FLOOR)
    def test_floor_compiles(self, kind):
        fld = parse_field([self.FLOOR[kind]], [[-1.0, 1.0]])
        assert fld([1.0]).tolist() == [1.0]

    @pytest.mark.parametrize("text", [
        "+".join(["x1"] * 1200),
        "(" * 260 + "x1" + ")" * 260,
        "abs(" * 200 + "x1" + ")" * 200,
        "1/(abs(" * 120 + "x1" + "))" * 120,
    ], ids=["sum", "parentheses", "calls", "mixed"])
    def test_too_deep_is_a_parse_error(self, text):
        with pytest.raises(ExprError, match="nested too deeply"):
            parse_field([text], [[-1.0, 1.0]])


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
        "1e999*x1",
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


def oracle(node, x):
    """Evaluate a tree directly, in the order compiled code must keep:
    operands left to right, but a denominator before its numerator."""
    if isinstance(node, Num):
        return node.value
    if isinstance(node, Var):
        return float(x[node.index - 1])
    if isinstance(node, Neg):
        return -oracle(node.child, x)
    if isinstance(node, Pow):
        return oracle(node.base, x) ** node.exponent
    if isinstance(node, Call):
        v = oracle(node.arg, x)
        if node.func == "exp":
            try:
                return math.exp(v)
            except OverflowError:
                return math.inf
        return {"sin": math.sin, "cos": math.cos, "tanh": math.tanh, "abs": abs}[node.func](v)
    assert isinstance(node, BinOp)
    if node.op == "/":
        den = oracle(node.right, x)
        if den == 0.0:
            raise ZeroDivisionError("division by zero in field expression")
        return oracle(node.left, x) / den
    a, b = oracle(node.left, x), oracle(node.right, x)
    return a + b if node.op == "+" else a - b if node.op == "-" else a * b


def outcome(fn, x):
    """The value's type and bits, or the exception's type and message.

    When two NaNs meet, CPython returns one or the other depending on
    whether the instruction has been specialized yet, so NaNs compare as one.
    """
    try:
        v = fn(x)
    except Exception as exc:
        return type(exc), str(exc)
    a = np.asarray(v, dtype=float)
    return type(v), np.where(np.isnan(a), np.nan, a).tobytes()


POINTS = st.sampled_from([0.0, -0.0, 710.0, -710.0, 1e308, -1e308, 5e-324, -5e-324,
                          2.2250738585072014e-308, 1e-310, 1.0, -1.0]) | st.floats()


class TestCompiledEqualsOracle:
    @given(st.lists(expr_trees(), min_size=3, max_size=3),
           st.lists(POINTS, min_size=3, max_size=3))
    def test_compiled_equals_oracle(self, trees, x):
        x = np.array(x)
        for tree in trees:
            assert outcome(compile_expression(tree), x) == outcome(lambda x: oracle(tree, x), x)
        # a field compiles all its coordinates into one function
        fld = parse_field([str(t) for t in trees], [[-1.0, 1.0]] * 3)
        expected = outcome(lambda x: np.array([oracle(t, x) for t in trees]), x)
        assert outcome(fld.fn, x) == expected

    @given(expr_trees())
    def test_print_parses_back(self, tree):
        assert parse_expression(str(tree)) == tree
