"""Small arithmetic expression language for scalar fields on the plane.

Grammar (recursive descent, one token lookahead):

    expr     := term (("+" | "-") term)*
    term     := unary (("*" | "/") unary)*
    unary    := "-" unary | power
    power    := atom ("^" exponent)?
    exponent := "-" exponent | INT ("^" exponent)?
    atom     := NUMBER | IDENT | IDENT "(" expr ("," expr)* ")" | "(" expr ")"

Binding, tightest first: ^, unary minus, * /, + -.  "^" is right
associative and its exponent must be an integer literal (possibly negated
or itself an integer power), so "2^3^2" is 2^(3^2) = 512 and "x^-2" is
1/x^2.  No implicit multiplication.  Functions: sin cos exp log atan2
sqrt abs.  Constant: pi.  Variables default to (x, y); other variable
tuples such as ("t",) or ("x", "y", "z") can be requested at parse time.

Trees are immutable.  Evaluation is IEEE-754 double arithmetic; division
by zero, log of a non-positive value and similar escapes raise
DomainEvalError instead of returning inf or nan.
"""

import math
import re
from dataclasses import dataclass

import numpy as np

from .errors import DomainEvalError, ValidationError

FUNCTIONS = {
    "sin": 1,
    "cos": 1,
    "exp": 1,
    "log": 1,
    "atan2": 2,
    "sqrt": 1,
    "abs": 1,
}

CONSTANTS = {"pi": math.pi}

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+\.\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?"
    r"|\d+(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^(),]))"
)


class ExprError(ValidationError):
    """Base for parse-stage failures; carries a byte offset into the source."""

    def __init__(self, message, offset):
        self.offset = offset
        super().__init__(message)


class ExprSyntaxError(ExprError):
    def __init__(self, source, pos, expected):
        offset = len(source[:pos].encode("utf-8"))
        self.expected = tuple(expected)
        super().__init__(
            f"parse error at byte {offset}: expected {', '.join(expected)}", offset
        )


class UnknownIdentifierError(ExprError):
    def __init__(self, source, pos, name):
        offset = len(source[:pos].encode("utf-8"))
        self.name = name
        super().__init__(
            f"parse error at byte {offset}: unknown identifier '{name}'", offset
        )


@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Const:
    name: str


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Neg:
    operand: object


@dataclass(frozen=True)
class BinOp:
    op: str
    left: object
    right: object


@dataclass(frozen=True)
class Pow:
    base: object
    exponent: int


@dataclass(frozen=True)
class Call:
    func: str
    args: tuple


_PREC = {"+": 1, "-": 1, "*": 2, "/": 2}
_ATOM_PREC = 5


def _prec(node):
    if isinstance(node, BinOp):
        return _PREC[node.op]
    if isinstance(node, Neg):
        return 3
    if isinstance(node, Pow):
        return 4
    return _ATOM_PREC


def _to_source(node, ctx=0):
    if isinstance(node, Num):
        return repr(node.value)
    if isinstance(node, Const):
        return node.name
    if isinstance(node, Var):
        return node.name
    if isinstance(node, Call):
        return f"{node.func}({','.join(_to_source(a, 1) for a in node.args)})"
    p = _prec(node)
    if isinstance(node, Neg):
        body = "-" + _to_source(node.operand, 3)
    elif isinstance(node, Pow):
        body = f"{_to_source(node.base, _ATOM_PREC)}^{node.exponent}"
    else:
        body = (
            _to_source(node.left, p)
            + node.op
            + _to_source(node.right, p + 1)
        )
    return f"({body})" if p < ctx else body


class _Lexer:
    def __init__(self, source):
        self.source = source
        self.tokens = []
        pos = 0
        n = len(source)
        while pos < n:
            m = _TOKEN_RE.match(source, pos)
            if m is None or m.end() == m.start():
                stripped = source[pos:].lstrip()
                if not stripped:
                    break
                bad_at = n - len(stripped)
                raise ExprSyntaxError(source, bad_at, ["a valid token"])
            if m.lastgroup == "num":
                self.tokens.append(("num", m.group("num"), m.start("num")))
            elif m.lastgroup == "ident":
                self.tokens.append(("ident", m.group("ident"), m.start("ident")))
            else:
                self.tokens.append((m.group("op"), m.group("op"), m.start("op")))
            pos = m.end()
        self.tokens.append(("end", "", n))


class _Parser:
    def __init__(self, source, variables):
        self.source = source
        self.variables = variables
        self.tokens = _Lexer(source).tokens
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def advance(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def fail(self, expected):
        kind, _, pos = self.peek()
        raise ExprSyntaxError(self.source, pos, expected)

    def expect(self, kind, expected):
        if self.peek()[0] != kind:
            self.fail(expected)
        return self.advance()

    def parse(self):
        node = self.expr()
        if self.peek()[0] != "end":
            self.fail(["an operator", "end of input"])
        return node

    def expr(self):
        node = self.term()
        while self.peek()[0] in ("+", "-"):
            op = self.advance()[0]
            node = BinOp(op, node, self.term())
        return node

    def term(self):
        node = self.unary()
        while self.peek()[0] in ("*", "/"):
            op = self.advance()[0]
            node = BinOp(op, node, self.unary())
        return node

    def unary(self):
        if self.peek()[0] == "-":
            self.advance()
            return Neg(self.unary())
        return self.power()

    def power(self):
        base = self.atom()
        if self.peek()[0] == "^":
            self.advance()
            return Pow(base, self.exponent())
        return base

    def exponent(self):
        # Integer literals only, with optional negation and right-nested
        # integer powers, so 2^3^2 collapses to 2^9 at parse time.
        if self.peek()[0] == "-":
            self.advance()
            return -self.exponent()
        kind, text, pos = self.peek()
        if kind != "num" or not text.isdigit():
            self.fail(["an integer exponent"])
        self.advance()
        value = int(text)
        if self.peek()[0] == "^":
            self.advance()
            value = value ** self.exponent()
        return value

    def atom(self):
        kind, text, pos = self.peek()
        if kind == "num":
            self.advance()
            return Num(float(text))
        if kind == "ident":
            self.advance()
            if self.peek()[0] == "(":
                if text not in FUNCTIONS:
                    raise UnknownIdentifierError(self.source, pos, text)
                self.advance()
                args = [self.expr()]
                while self.peek()[0] == ",":
                    self.advance()
                    args.append(self.expr())
                self.expect(")", ["','", "')'"])
                if len(args) != FUNCTIONS[text]:
                    raise ExprSyntaxError(
                        self.source, pos,
                        [f"{FUNCTIONS[text]} argument(s) to {text}"],
                    )
                return Call(text, tuple(args))
            if text in self.variables:
                return Var(text)
            if text in CONSTANTS:
                return Const(text)
            raise UnknownIdentifierError(self.source, pos, text)
        if kind == "(":
            self.advance()
            node = self.expr()
            self.expect(")", ["')'"])
            return node
        self.fail(["a number", "an identifier", "'('", "'-'"])


_MATH_FUNCS = {
    "sin": "math.sin", "cos": "math.cos", "exp": "math.exp",
    "log": "math.log", "atan2": "math.atan2", "sqrt": "math.sqrt",
    "abs": "abs",
}
_NP_FUNCS = {
    "sin": "np.sin", "cos": "np.cos", "exp": "np.exp",
    "log": "np.log", "atan2": "np.arctan2", "sqrt": "np.sqrt",
    "abs": "np.abs",
}


def _codegen(node, funcs):
    if isinstance(node, Num):
        return repr(node.value)
    if isinstance(node, Const):
        return repr(CONSTANTS[node.name])
    if isinstance(node, Var):
        return node.name
    if isinstance(node, Neg):
        return f"(-{_codegen(node.operand, funcs)})"
    if isinstance(node, BinOp):
        return (
            f"({_codegen(node.left, funcs)}{node.op}"
            f"{_codegen(node.right, funcs)})"
        )
    if isinstance(node, Pow):
        return f"({_codegen(node.base, funcs)}**{node.exponent})"
    if isinstance(node, Call):
        args = ",".join(_codegen(a, funcs) for a in node.args)
        return f"{funcs[node.func]}({args})"
    raise TypeError(f"unexpected node {node!r}")


class ScalarExpr:
    """Immutable expression tree with interpreted and compiled evaluation.

    evaluate() walks the tree and raises DomainEvalError naming the
    offending subexpression.  scalar_fn/array_fn are compiled closures
    for tight loops and vectorized quadrature; the array form leaves
    inf/nan screening to the caller.
    """

    __slots__ = ("root", "variables", "_scalar_fn", "_array_fn")

    def __init__(self, root, variables=("x", "y")):
        self.root = root
        self.variables = tuple(variables)
        self._scalar_fn = None
        self._array_fn = None

    def __eq__(self, other):
        return (
            isinstance(other, ScalarExpr)
            and self.root == other.root
            and self.variables == other.variables
        )

    def __hash__(self):
        return hash((self.root, self.variables))

    def __repr__(self):
        return f"ScalarExpr({self.to_source()!r}, variables={self.variables})"

    def to_source(self):
        return _to_source(self.root)

    def evaluate(self, *values):
        if len(values) != len(self.variables):
            raise ValidationError(
                f"expected {len(self.variables)} value(s) for {self.variables}"
            )
        env = dict(zip(self.variables, values))
        return _eval_node(self.root, env)

    __call__ = evaluate

    @property
    def scalar_fn(self):
        if self._scalar_fn is None:
            self._scalar_fn = self._compile(_MATH_FUNCS, {"math": math, "abs": abs})
        return self._scalar_fn

    @property
    def array_fn(self):
        if self._array_fn is None:
            raw = self._compile(_NP_FUNCS, {"np": np})
            def wrapped(*args, _raw=raw):
                with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                    out = _raw(*args)
                # constant expressions collapse to scalars; broadcast back
                if args and np.ndim(out) == 0:
                    out = np.full(np.shape(args[0]), float(out))
                return out
            self._array_fn = wrapped
        return self._array_fn

    def _compile(self, funcs, env):
        src = f"lambda {','.join(self.variables)}: {_codegen(self.root, funcs)}"
        return eval(src, {"__builtins__": {}, **env})

    def substitute(self, name, replacement):
        """Replace a variable with another tree (used to reverse parametric
        paths); returns a new ScalarExpr over the same variable tuple."""
        def walk(node):
            if isinstance(node, Var):
                return replacement.root if node.name == name else node
            if isinstance(node, Neg):
                return Neg(walk(node.operand))
            if isinstance(node, BinOp):
                return BinOp(node.op, walk(node.left), walk(node.right))
            if isinstance(node, Pow):
                return Pow(walk(node.base), node.exponent)
            if isinstance(node, Call):
                return Call(node.func, tuple(walk(a) for a in node.args))
            return node
        return ScalarExpr(walk(self.root), self.variables)


def _eval_node(node, env):
    if isinstance(node, Num):
        return node.value
    if isinstance(node, Const):
        return CONSTANTS[node.name]
    if isinstance(node, Var):
        return env[node.name]
    if isinstance(node, Neg):
        return -_eval_node(node.operand, env)
    if isinstance(node, BinOp):
        a = _eval_node(node.left, env)
        b = _eval_node(node.right, env)
        if node.op == "+":
            v = a + b
        elif node.op == "-":
            v = a - b
        elif node.op == "*":
            v = a * b
        else:
            if b == 0.0:
                raise DomainEvalError(
                    f"division by zero in '{_to_source(node)}'"
                )
            v = a / b
        return _require_finite(v, node)
    if isinstance(node, Pow):
        base = _eval_node(node.base, env)
        try:
            v = base ** node.exponent
        except (ZeroDivisionError, OverflowError) as exc:
            raise DomainEvalError(
                f"domain error in '{_to_source(node)}': {exc}"
            ) from None
        return _require_finite(v, node)
    if isinstance(node, Call):
        args = [_eval_node(a, env) for a in node.args]
        fn = getattr(math, node.func) if node.func != "abs" else abs
        if node.func == "atan2":
            return fn(args[0], args[1])
        try:
            v = fn(args[0])
        except (ValueError, OverflowError) as exc:
            raise DomainEvalError(
                f"domain error in '{_to_source(node)}': {exc}"
            ) from None
        return _require_finite(v, node)
    raise TypeError(f"unexpected node {node!r}")


def _require_finite(v, node):
    if not math.isfinite(v):
        raise DomainEvalError(f"non-finite value in '{_to_source(node)}'")
    return v


def parse_expr(source, variables=("x", "y")):
    """Parse source into a ScalarExpr over the given variable names."""
    if not isinstance(source, str):
        raise ValidationError("expression source must be a string")
    return ScalarExpr(_Parser(source, tuple(variables)).parse(), variables)

