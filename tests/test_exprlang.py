"""Parser, printer, and evaluation backends of the expression language."""

import math
import operator

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from locmech.errors import DomainEvalError, ValidationError
from locmech.exprlang import (
    MATH_FUNCS,
    MAX_EXPONENT,
    QUIET,
    BinOp,
    Call,
    Const,
    ExprSyntaxError,
    Neg,
    Num,
    Pow,
    ScalarExpr,
    UnknownIdentifierError,
    Var,
    at_shape,
    compile_tuple,
    parse_expr,
    to_text,
)
from locmech.fields import from_components


def ev(source, x=0.0, y=0.0):
    return parse_expr(source).evaluate(x, y)


def test_precedence_and_arithmetic():
    assert ev("2+3*4") == 14.0
    assert ev("(2+3)*4") == 20.0
    assert ev("1+2*3^2") == 19.0
    assert ev("7-4-2") == 1.0
    assert ev("8/4/2") == 1.0
    assert ev("6/3*2") == 4.0


def test_power_is_right_associative_and_collapsed():
    tree = parse_expr("2^3^2")
    assert tree.root == Pow(base=Num(2.0), exponent=9)
    assert tree.evaluate(0.0, 0.0) == 512.0


@pytest.mark.parametrize("source", [
    "x^9^9^9",      # would fold to a 10^369693100-digit integer
    "x^10^400",     # a 401-digit exponent
    "x^0^-1",       # 0^-1 is no integer
    "x^2^-1",       # 2^-1 = 0.5 is no integer
    "x^2^11",       # 2048
    f"x^{MAX_EXPONENT + 1}",
    f"x^-{MAX_EXPONENT + 1}",
])
def test_exponent_towers_leaving_the_integer_bound_are_refused(source):
    with pytest.raises(ExprSyntaxError):
        parse_expr(source)


def test_exponent_towers_within_the_bound_fold():
    assert parse_expr("x^2^10").root == Pow(Var("x"), MAX_EXPONENT)
    assert parse_expr(f"x^-{MAX_EXPONENT}").root == Pow(Var("x"), -MAX_EXPONENT)
    assert parse_expr("x^1^-5").root == Pow(Var("x"), 1)
    assert parse_expr("x^0^0").root == Pow(Var("x"), 1)
    assert parse_expr("x^-2^2").root == Pow(Var("x"), -4)


@pytest.mark.parametrize("source", ["1e999", "x+1E400", "-1e309*y",
                                    pytest.param("1" + "0" * 400, id="401-digits")])
def test_literals_beyond_the_double_range_are_refused(source):
    with pytest.raises(ExprSyntaxError) as info:
        parse_expr(source)
    assert "double range" in str(info.value)


def test_large_finite_literals_still_parse():
    assert parse_expr("1e308").root == Num(1e308)
    assert parse_expr("x*1.7976931348623157e308").evaluate(1.0, 0.0) == 1.7976931348623157e308
    assert parse_expr("1e-999").root == Num(0.0)


def test_unary_minus_binds_looser_than_power():
    assert ev("-2^2") == -4.0
    assert ev("(-2)^2") == 4.0


def test_negative_exponent():
    assert ev("x^-2", x=2.0) == 0.25
    assert ev("x^-1", x=8.0) == 0.125


def test_functions_and_pi():
    assert ev("pi") == math.pi
    assert ev("sin(pi/2)") == pytest.approx(1.0, abs=1e-15)
    assert ev("atan2(y,x)", x=1.0, y=1.0) == math.atan2(1.0, 1.0)
    assert ev("sqrt(x)", x=9.0) == 3.0
    assert ev("abs(0-3)") == 3.0


def test_exp_log_round_trip_is_exact():
    e = parse_expr("exp(log(x))")
    assert e.evaluate(2.5, 0.0) == 2.5


def test_syntax_errors_carry_byte_offsets():
    with pytest.raises(ExprSyntaxError) as info:
        parse_expr("2+")
    assert "byte 2" in str(info.value)
    assert info.value.offset == 2

    with pytest.raises(ExprSyntaxError):
        parse_expr("2**3")
    with pytest.raises(ExprSyntaxError):
        parse_expr("(1+2")
    with pytest.raises(ExprSyntaxError):
        parse_expr("")
    # non-literal exponents are rejected at parse time
    with pytest.raises(ExprSyntaxError):
        parse_expr("x^y")


def test_unknown_identifiers():
    with pytest.raises(UnknownIdentifierError):
        parse_expr("q+1")
    with pytest.raises(UnknownIdentifierError):
        parse_expr("foo(1)")
    # arity is checked too
    with pytest.raises(ExprSyntaxError):
        parse_expr("sin(x,y)")


def test_domain_errors_instead_of_inf_nan():
    with pytest.raises(DomainEvalError):
        ev("1/x", x=0.0)
    with pytest.raises(DomainEvalError):
        ev("log(x)", x=-1.0)
    with pytest.raises(DomainEvalError):
        ev("sqrt(x)", x=-4.0)
    with pytest.raises(DomainEvalError) as info:
        ev("1/(x-1)", x=1.0)
    assert "x-1" in str(info.value).replace(" ", "")
    with pytest.raises(DomainEvalError, match="int too large"):
        ev("x^400", x=10)
    with pytest.raises(DomainEvalError, match="int too large"):
        from_components("x^400", "0").eval_at(10, 0)


@pytest.mark.parametrize("source, want", [
    ("1/(x*1e308*10)", 0.0),
    ("atan2(x*1e308*10, 1)", math.pi / 2),
    ("exp(-x*1e308*10)", 0.0),
])
def test_an_absorbed_overflow_has_one_value_in_every_evaluator(source, want):
    # Python float arithmetic and numpy both carry x*1e308*10 as inf into a
    # step that absorbs it, so evaluate, eval_at and eval_array agree
    field = from_components(source, "0")
    assert parse_expr(source).evaluate(1.0, 0.0) == field.eval_at(1.0, 0.0)[0] == want
    fx, _ = field.eval_array(np.array([1.0]), np.array([0.0]))
    assert fx.tolist() == [want]


def test_alternate_variable_tuples():
    e = parse_expr("t^2+1", variables=("t",))
    assert e.evaluate(3.0) == 10.0
    g = parse_expr("x*y*z", variables=("x", "y", "z"))
    assert g.evaluate(2.0, 3.0, 4.0) == 24.0


def test_evaluate_and_to_source():
    e = parse_expr("x+2*y")
    assert e.evaluate(1.0, 2.0) == 5.0
    assert parse_expr(e.to_source()).root == e.root


def test_printer_emits_minimal_parens():
    cases = {
        "x+y*y": "x+y*y",
        "(x+y)*y": "(x+y)*y",
        "-(x+y)": "-(x+y)",
        "x-(y-1.0)": "x-(y-1.0)",
        "(x+1.0)^2": "(x+1.0)^2",
        "x/(y*y)": "x/(y*y)",
    }
    for source, expected in cases.items():
        assert parse_expr(source).to_source() == expected


def _random_source(rng, depth):
    """A random expression with explicit parens everywhere."""
    if depth == 0 or rng.random() < 0.25:
        kind = rng.integers(0, 4)
        if kind == 0:
            return repr(round(float(rng.uniform(0.1, 9.0)), 3))
        if kind == 1:
            return "x"
        if kind == 2:
            return "y"
        return "pi"
    kind = rng.integers(0, 4)
    if kind == 0:
        op = rng.choice(["+", "-", "*", "/"])
        a = _random_source(rng, depth - 1)
        b = _random_source(rng, depth - 1)
        return f"({a}){op}({b})"
    if kind == 1:
        return f"-({_random_source(rng, depth - 1)})"
    if kind == 2:
        e = int(rng.integers(0, 5))
        return f"({_random_source(rng, depth - 1)})^{e}"
    fn = rng.choice(["sin", "cos", "exp", "abs"])
    return f"{fn}({_random_source(rng, depth - 1)})"


def test_print_parse_round_trip_random():
    rng = np.random.default_rng(20260823)
    for _ in range(1000):
        source = _random_source(rng, int(rng.integers(1, 5)))
        tree = parse_expr(source)
        again = parse_expr(tree.to_source())
        assert again.root == tree.root


_RAISES = (ArithmeticError, ValueError)     # what math and Python float arithmetic raise
_ARITH = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}


def _walk(node, env):
    """The tree's value by plain recursion over math, refusing nothing: a
    reference for the compiled closures that to_text did not write."""
    t = type(node)
    if t is Num:
        return node.value
    if t is Const:
        return getattr(math, node.name)
    if t is Var:
        return env[node.name]
    if t is Neg:
        return -_walk(node.operand, env)
    if t is Pow:
        return _walk(node.base, env) ** node.exponent
    if t is BinOp:
        return _ARITH[node.op](_walk(node.left, env), _walk(node.right, env))
    fn = abs if node.func == "abs" else getattr(math, node.func)
    return fn(*[_walk(a, env) for a in node.args])


def test_compiled_backends_match_tree_walk():
    rng = np.random.default_rng(7)
    sources = [
        "x+2*y",
        "sin(x)*cos(y)",
        "exp(0.1*x)-y^3",
        "abs(x-y)+sqrt(abs(x)+1.0)",
        "atan2(y,x+3.0)",
    ]
    for source in sources:
        e = parse_expr(source)
        xs = rng.uniform(-2.0, 2.0, size=64)
        ys = rng.uniform(-2.0, 2.0, size=64)
        walked = np.array([_walk(e.root, {"x": a, "y": b}) for a, b in zip(xs, ys)])
        compiled = np.array([e.scalar_fn(a, b) for a, b in zip(xs, ys)])
        evaluated = np.array([e.evaluate(a, b) for a, b in zip(xs, ys)])
        vectorized = e.array_fn(xs, ys)
        assert np.array_equal(walked, compiled)
        assert np.array_equal(walked, evaluated)
        # numpy's transcendental kernels differ from libm by a few ulp
        assert np.allclose(vectorized, walked, rtol=1e-13, atol=0.0)


def test_array_backend_broadcasts_constants():
    e = parse_expr("pi")
    out = e.array_fn(np.zeros(5), np.zeros(5))
    assert out.shape == (5,)
    assert np.all(out == math.pi)


def test_tree_nodes_compare_structurally():
    a = parse_expr("x+sin(y)")
    b = parse_expr("x + sin( y )")
    assert a.root == b.root
    assert a.root == BinOp("+", Var("x"), Call("sin", (Var("y"),)))


def test_folded_negative_numbers_print_in_parentheses():
    e = ScalarExpr(Pow(Num(-2.0), 2))
    assert e.to_source() == "(-2.0)^2"
    assert e.evaluate(0.0, 0.0) == e.scalar_fn(0.0, 0.0) == 4.0
    assert parse_expr(e.to_source()).evaluate(0.0, 0.0) == 4.0


# ---------------------------------------------------------------------------
# derivatives

def test_diff_rules_against_closed_forms():
    x, y = 0.7, -1.3
    cases = {
        "sin(x*y)": y * math.cos(x * y),
        "cos(x)": -math.sin(x),
        "exp(2*x)": 2 * math.exp(2 * x),
        "log(x)": 1 / x,
        "sqrt(x)": 0.5 / math.sqrt(x),
        "abs(y*x)": abs(y),
        "atan2(y,x)": -y / (x * x + y * y),
        "x^-3": -3 * x ** -4,
        "x/y": 1 / y,
        "y/x": -y / x ** 2,
        "-x+pi": -1.0,
        "x^0": 0.0,
    }
    for source, want in cases.items():
        got = parse_expr(source).diff("x").evaluate(x, y)
        assert got == pytest.approx(want, rel=1e-15, abs=1e-300), source


def test_diff_folds_constants_and_is_memoized():
    e = parse_expr("x*y+3*y")
    assert e.diff("x").root == Var("y")
    assert e.diff("y").root == BinOp("+", Var("x"), Num(3.0))
    assert parse_expr("2+pi*y").diff("x").root == Num(0.0)
    assert parse_expr("x^2").diff("x").root == BinOp("*", Num(2.0), Var("x"))
    assert parse_expr("-x").diff("x").root == Num(-1.0)
    assert e.diff("x") is e.diff("x")
    assert e.diff("x").variables == ("x", "y")
    with pytest.raises(ValidationError):
        e.diff("t")


def test_the_vortex_is_exactly_closed_at_a_point():
    fx = parse_expr("-y/(x^2+y^2)")
    fy = parse_expr("x/(x^2+y^2)")
    for x, y in ((1.0, 2.0), (0.5, -0.25), (-3.0, 1e-3)):
        dfx_dy, dfy_dx = fx.diff("y").evaluate(x, y), fy.diff("x").evaluate(x, y)
        assert abs(dfx_dy - dfy_dx) <= 4e-16 * abs(dfx_dy)


# ---------------------------------------------------------------------------
# properties on random trees

_LEAVES = st.one_of(
    st.floats(0.1, 9.0).map(lambda v: Num(round(v, 3))),
    st.sampled_from([Var("x"), Var("y"), Const("pi")]),
    st.sampled_from([Var("x"), Var("y")]),
)


@st.composite
def _tree(draw, functions, depth=4):
    """A random tree of up to depth levels, over every node type."""
    kind = draw(st.integers(0, 5)) if depth else 0
    if kind == 0:
        return draw(_LEAVES)

    def kid():
        return draw(_tree(functions, depth - 1))

    if kind == 1:
        return Neg(kid())
    if kind == 2:
        return BinOp(draw(st.sampled_from("+-*/")), kid(), kid())
    if kind == 3:
        return Pow(kid(), draw(st.integers(-3, 4)))
    if kind == 4:
        return Call(draw(st.sampled_from(functions)), (kid(),))
    return Call("atan2", (kid(), kid()))


TREES = _tree(["sin", "cos", "exp", "log", "sqrt", "abs"])
# abs has a kink where a central difference cannot stand in for the
# derivative; its rule is checked against a closed form above
SMOOTH_TREES = _tree(["sin", "cos", "exp", "log", "sqrt"])
COORD = st.floats(-2.0, 2.0)


@given(TREES)
def test_print_parse_round_trip_on_random_trees(root):
    assert parse_expr(ScalarExpr(root).to_source()).root == root


@given(TREES, COORD, COORD)
def test_backends_agree_on_random_trees(root, x, y):
    e = ScalarExpr(root)
    try:
        walked = _walk(root, {"x": x, "y": y})
    except _RAISES:
        walked = math.nan
    if not math.isfinite(walked):
        with pytest.raises(DomainEvalError):
            e.evaluate(x, y)
        return
    assert e.evaluate(x, y) == e.scalar_fn(x, y) == walked
    # numpy's transcendental kernels differ from libm by a few ulp
    vectorized = e.array_fn(np.array([x, x]), np.array([y, y]))
    assert vectorized.shape == (2,)
    assert vectorized[0] == pytest.approx(walked, rel=1e-9, abs=1e-12)


# positive coordinates keep more samples inside the domains of log and
# sqrt, where the difference quotient can be compared
@settings(max_examples=200)
@given(SMOOTH_TREES, st.floats(0.25, 2.0), st.floats(0.25, 2.0))
def test_diff_matches_a_central_difference(root, x, y):
    e = ScalarExpr(root)
    for var, (ex, ey) in (("x", (1.0, 0.0)), ("y", (0.0, 1.0))):
        try:
            exact = e.diff(var).evaluate(x, y)
            fd = [(e.evaluate(x + h * ex, y + h * ey) - e.evaluate(x - h * ex, y - h * ey))
                  / (2.0 * h) for h in (1e-3, 5e-4, 2.5e-4)]
        except DomainEvalError:
            continue
        # Halving h cuts a smooth function's h^2 error about four times;
        # across a pole, a branch cut or a domain edge the differences
        # grow instead, and there they are no reference.
        noise = 1e-7 * (1.0 + abs(fd[2]))
        if abs(fd[1] - fd[2]) > 0.5 * abs(fd[0] - fd[1]) + noise:
            continue
        assert abs(exact - fd[2]) <= abs(fd[1] - fd[2]) + noise


# ---------------------------------------------------------------------------
# one closure for a tuple of trees


def _one_by_one(exprs, backend, *args):
    """The values of the trees compiled one by one, in order, up to the first
    that raises; and that exception or None."""
    out = []
    for e in exprs:
        try:
            out.append(compile_tuple((e,), backend)(*args))
        except _RAISES as exc:
            return out, exc
    return out, None


def _assert_tuple_matches(exprs, x, y):
    """Both backends: the same values, sign bits and nans included, or the
    same first exception (a constant subtree is Python arithmetic under
    numpy too, and may raise)."""
    for backend, args in (("math", (x, y)), ("numpy", (np.array([x, -x]), np.array([y, 0.5])))):
        with np.errstate(**QUIET):
            want, exc = _one_by_one(exprs, backend, *args)
            try:
                got = compile_tuple(exprs, backend)(*args)
            except _RAISES as raised:
                assert exc is not None and (type(raised), str(raised)) == (type(exc), str(exc))
                continue
        assert exc is None
        for a, b in zip(got, want):
            a, b = at_shape(a, args), at_shape(b, args)
            assert np.array_equal(a, b, equal_nan=True)
            assert np.array_equal(np.signbit(a), np.signbit(b))


@given(TREES, TREES, COORD, COORD)
def test_a_pair_closure_gives_the_closures_one_by_one_bit_for_bit(a, b, x, y):
    _assert_tuple_matches((ScalarExpr(a), ScalarExpr(b)), x, y)


@settings(max_examples=60)
@given(SMOOTH_TREES, TREES, COORD, COORD)
def test_a_tree_with_its_own_partials_compiles_as_one_by_one(a, b, x, y):
    # a tree shares most of its subtrees with its partials (u, u', f(u), ...)
    e = ScalarExpr(a)
    _assert_tuple_matches((e, e.diff("x"), ScalarExpr(b), e.diff("y")), x, y)


def test_zero_and_negative_zero_stay_apart():
    # Num(0.0) == Num(-0.0) as trees; x + 0.0 and x + -0.0 differ at x = -0.0
    plus, minus = (ScalarExpr(BinOp("+", Var("x"), Num(z))) for z in (0.0, -0.0))
    assert plus.root == minus.root
    got = compile_tuple((plus, minus))(-0.0, 1.0)
    assert [math.copysign(1.0, v) for v in got] == [1.0, -1.0]
    arr = compile_tuple((plus, minus), "numpy")(np.array([-0.0]), np.array([1.0]))
    assert [bool(np.signbit(v[0])) for v in arr] == [False, True]


def test_repeated_subtrees_are_evaluated_once_in_post_order():
    fx, fy = parse_expr("-y/(x^2+y^2)"), parse_expr("x/(x^2+y^2)")
    assert to_text([fx.root, fy.root], MATH_FUNCS) == ["-y/(_3:=x**2+y**2)", "x/_3"]
    # hoisting log(y) ahead of 1/(x-1) would raise "math domain error" instead
    field = from_components("1/(x-1)+log(y)", "log(y)")
    with pytest.raises(DomainEvalError, match="float division by zero"):
        field.eval_at(1.0, -1.0)
    with pytest.raises(ZeroDivisionError):
        field.pair_fn(1.0, -1.0)
    assert str(pytest.raises(ValueError, field.pair_fn, 2.0, -1.0).value) == "math domain error"
