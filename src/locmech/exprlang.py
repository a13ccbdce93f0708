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
1/x^2.  A tower folds at parse time only while it stays an integer of
magnitude at most MAX_EXPONENT: "x^9^9", "x^2^-1" and "x^0^-1" are
syntax errors.  No implicit multiplication.  Functions: sin cos exp log
atan2 sqrt abs.  Constant: pi.  Variables default to (x, y); other
variable tuples such as ("t",) or ("x", "y", "z") can be requested at
parse time.

Trees are immutable.  ScalarExpr.evaluate runs the compiled math closure:
where math raises or the value is not finite, it raises DomainEvalError
instead of returning inf or nan; an overflow that a later step absorbs,
as in 1/(x*1e308*10) at x = 1, is accepted.  ScalarExpr.diff builds the
exact partial derivative as another tree, with light constant folding
(Griewank & Walther, Evaluating Derivatives, SIAM 2008).

compile_tuple compiles trees over the same variables into one closure
(math or numpy) for their values.  Its text (to_text) nests as the trees
do and binds a repeated subtree by := where it is first evaluated, so it
runs once (Aho, Lam, Sethi & Ullman, Compilers, 2nd ed., 6.1); Python's
post-order keeps each value, bit for bit, and the first operation to raise.
"""

import math
import operator
import re
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from itertools import chain

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

MAX_EXPONENT = 1024

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


def to_text(roots, funcs=None):
    """The text of each tree in roots with the least parentheses: source, or,
    given funcs (function names to Python callees), Python in which a subtree
    that occurs again is bound by := where it is first evaluated and read by
    name after.  Subtrees are keyed by their leaves' reprs, so Num(0.0) and
    Num(-0.0), equal as trees, differ."""
    names, ops, bound = {}, {}, set()

    def ref(node):      # a leaf's text, or the name of node's operation in ops
        t = type(node)
        if t is Num:
            return repr(node.value)
        if t is Var or t is Const:
            return node.name
        if t is BinOp:
            key = (node.op, ref(node.left), ref(node.right))
        elif t is Neg:
            key = ("-", ref(node.operand))
        elif t is Pow:
            key = ("^", ref(node.base), node.exponent)
        else:
            key = (node.func, *map(ref, node.args))
        name = names.setdefault(key, f"_{len(names)}")
        ops[name] = key
        return name

    def render(r, ctx):     # binding: + - 1, * / 2, unary minus 3, power 4, atom 5
        key = ops.get(r)
        if key is None or r in bound:   # a leaf, whose minus binds as unary, or a name
            return f"({r})" if ctx > 3 and r[0] == "-" else r
        tag = key[0]
        if len(key) == 3 and tag in _PREC:
            p = _PREC[tag]
            text = render(key[1], p) + tag + render(key[2], p + 1)
        elif tag == "-":
            p, text = 3, "-" + render(key[1], 3)
        elif tag == "^":
            p, text = 4, f"{render(key[1], _ATOM_PREC)}{'**' if funcs else '^'}{key[2]}"
        else:
            args = ",".join([render(a, 1) for a in key[1:]])
            p, text = _ATOM_PREC, f"{funcs[tag] if funcs else tag}({args})"
        if funcs and uses[r] > 1:
            bound.add(r)
            return f"({r}:={text})"
        return f"({text})" if p < ctx else text

    roots = [ref(root) for root in roots]
    uses = Counter(chain(roots, *(key[1:] for key in ops.values())))
    return [render(r, 0) for r in roots]


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
        # integer powers, so 2^3^2 collapses to 2^9 at parse time.  Every
        # level must stay an integer in [-MAX_EXPONENT, MAX_EXPONENT]; a
        # base of at least 2 over an exponent outside [0, 11] would leave
        # that range, so it is refused before the power is taken.
        if self.peek()[0] == "-":
            self.advance()
            return -self.exponent()
        kind, text, pos = self.peek()
        expected = [f"an integer exponent of magnitude at most {MAX_EXPONENT}"]
        if kind != "num" or not text.isdigit():
            self.fail(expected)
        self.advance()
        value = int(text)
        if self.peek()[0] == "^":
            self.advance()
            e = self.exponent()
            if (value == 0 and e < 0) or (value > 1 and not 0 <= e <= 11):
                raise ExprSyntaxError(self.source, pos, expected)
            value **= e
        if value > MAX_EXPONENT:
            raise ExprSyntaxError(self.source, pos, expected)
        return value

    def atom(self):
        kind, text, pos = self.peek()
        if kind == "num":
            if not math.isfinite(float(text)):
                self.fail(["a number literal within the double range"])
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


MATH_FUNCS = {f: "abs" if f == "abs" else f"math.{f}" for f in FUNCTIONS}
_NP_FUNCS = {f: "np.arctan2" if f == "atan2" else f"np.{f}" for f in FUNCTIONS}
PYTHON_GLOBALS = {"__builtins__": {}, **CONSTANTS, "math": math, "abs": abs}
_BACKENDS = {"math": (MATH_FUNCS, PYTHON_GLOBALS),
             "numpy": (_NP_FUNCS, {**PYTHON_GLOBALS, "np": np})}


QUIET = {"divide": "ignore", "invalid": "ignore", "over": "ignore"}
MATH_ERRORS = (ZeroDivisionError, ValueError, OverflowError)   # what a math closure raises


def at_shape(out, args):
    """An array closure's result, a constant's scalar broadcast to the
    shape of the first argument."""
    if type(out) is np.ndarray or not args or np.ndim(out):
        return out
    return np.full(np.shape(args[0]), float(out))


def compile_tuple(exprs, backend="math"):
    """One closure over the variables of exprs giving their values, by
    backend "math" or "numpy"; one expression gives its value alone."""
    return exprs[0]._compile(backend, *exprs[1:])


class ScalarExpr:
    """Immutable expression tree with compiled evaluation.

    scalar_fn/array_fn are its math and numpy closures, the one-tree case
    of compile_tuple.  evaluate() calls scalar_fn and raises
    DomainEvalError, naming the source, where math raises or the value is
    not finite; the array form leaves inf/nan screening to the caller.
    """

    def __init__(self, root, variables=("x", "y")):
        self.root = root
        self.variables = tuple(variables)
        self._diffs = {}

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
        return to_text([self.root])[0]

    def evaluate(self, *values):
        if len(values) != len(self.variables):
            raise ValidationError(
                f"expected {len(self.variables)} value(s) for {self.variables}"
            )
        if type(self.root) is Num:      # finite by construction; no closure to build
            return self.root.value
        try:
            v = self.scalar_fn(*values)
            if math.isfinite(v):    # OverflowError for an int past the double range
                return v
        except MATH_ERRORS as exc:
            raise DomainEvalError(f"domain error in '{self.to_source()}': {exc}") from None
        raise DomainEvalError(f"non-finite value in '{self.to_source()}'")

    __call__ = evaluate

    @cached_property
    def scalar_fn(self):
        return self._compile("math")

    @cached_property
    def array_fn(self):
        """The numpy closure under QUIET; a constant at the first argument's shape."""
        def wrapped(*args, _raw=self._compile("numpy")):
            with np.errstate(**QUIET):
                return at_shape(_raw(*args), args)
        return wrapped

    def _compile(self, backend, *others):
        """The one compiler (see compile_tuple); alone, self's value."""
        funcs, names = _BACKENDS[backend]
        outs = to_text([e.root for e in (self, *others)], funcs)
        return eval(f"lambda {','.join(self.variables)}: ({','.join(outs)})", names)

    def diff(self, var):
        """Exact partial derivative in var, over the same variables;
        memoized per variable, like the compiled closures."""
        if var not in self._diffs:
            if var not in self.variables:
                raise ValidationError(f"{var!r} is not one of {self.variables}")
            self._diffs[var] = ScalarExpr(_diff(self.root, var), self.variables)
        return self._diffs[var]


_ZERO, _ONE = Num(0.0), Num(1.0)
_ARITH = dict(zip("+-*/", (operator.add, operator.sub, operator.mul, operator.truediv)))


def fold(op, a, b):
    """BinOp(op, a, b) with light constant folding: u+0, 0+u, u-0, 0-u,
    0*u, u*0, 0/u, 1*u, u*1, u/1, and number op number when finite."""
    x = a.value if type(a) is Num else None
    y = b.value if type(b) is Num else None
    if y == 0.0 and op in "+-":
        return a
    if x == 0.0:
        return b if op == "+" else neg(b) if op == "-" else _ZERO
    if y == 0.0 and op == "*":
        return _ZERO
    if y == 1.0 and op in "*/":
        return a
    if x == 1.0 and op == "*":
        return b
    if x is not None and y is not None and y != 0.0:
        v = _ARITH[op](x, y)
        if math.isfinite(v):
            return Num(v)
    return BinOp(op, a, b)


def neg(a):
    if type(a) is Num:
        return Num(-a.value)
    return a.operand if type(a) is Neg else Neg(a)


def _power(base, n):
    return _ONE if n == 0 else base if n == 1 else Pow(base, n)


# f'(u) for the one-argument functions, as trees in u and f(u)
_CHAIN = {
    "sin": lambda u, fu: Call("cos", (u,)),
    "cos": lambda u, fu: Neg(Call("sin", (u,))),
    "exp": lambda u, fu: fu,
    "log": lambda u, fu: fold("/", _ONE, u),
    "sqrt": lambda u, fu: fold("/", Num(0.5), fu),
    "abs": lambda u, fu: fold("/", u, fu),    # sign(u), undefined at u = 0
}


def _diff(node, var):
    t = type(node)
    if t is Var:
        return _ONE if node.name == var else _ZERO
    if t is Num or t is Const:
        return _ZERO
    if t is Neg:
        return neg(_diff(node.operand, var))
    if t is Pow:    # n u^(n-1) u', n an integer (see _Parser.exponent)
        n, u = node.exponent, node.base
        return fold("*", fold("*", Num(float(n)), _power(u, n - 1)), _diff(u, var))
    if t is Call and node.func != "atan2":
        u = node.args[0]
        return fold("*", _CHAIN[node.func](u, node), _diff(u, var))
    op, (u, v) = (node.func, node.args) if t is Call else (node.op, (node.left, node.right))
    du, dv = _diff(u, var), _diff(v, var)
    if op in ("+", "-"):
        return fold(op, du, dv)
    if op == "*":
        return fold("+", fold("*", du, v), fold("*", u, dv))
    if op == "/" and dv == _ZERO:
        return fold("/", du, v)
    # u/v and atan2(u, v) share the numerator u'v - uv'
    den = _power(v, 2) if op == "/" else fold("+", _power(u, 2), _power(v, 2))
    return fold("/", fold("-", fold("*", du, v), fold("*", u, dv)), den)


def parse_expr(source, variables=("x", "y")):
    """Parse source into a ScalarExpr over the given variable names."""
    if not isinstance(source, str):
        raise ValidationError("expression source must be a string")
    return ScalarExpr(_Parser(source, tuple(variables)).parse(), variables)

