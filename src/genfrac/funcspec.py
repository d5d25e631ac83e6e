"""Function specifications and the expression mini-language.

A FuncSpec wraps a one- or two-variable real function, either as an
expression tree (with exact analytic derivatives) or as an opaque
callable (with optionally supplied derivative callables).  Expression
grammar: numeric literals, identifiers ``t``/``t1``/``t2``, operators
``+ - * / ^``, parentheses, and the functions sin, cos, exp, log.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

__all__ = ["FuncSpec", "ParseError", "parse_expression", "Expr"]

_FUNCTIONS = {
    "sin": np.sin,
    "cos": np.cos,
    "exp": np.exp,
    "log": np.log,
}


class ParseError(ValueError):
    """Expression syntax error; carries the byte offset of the problem."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} at offset {offset}")
        self.offset = offset


# {{{ expression tree


class Expr:
    def evaluate(self, env):
        raise NotImplementedError

    def diff(self, var: str) -> "Expr":
        raise NotImplementedError

    def text(self) -> str:
        raise NotImplementedError

    def variables(self) -> frozenset:
        raise NotImplementedError


@dataclass(frozen=True)
class Num(Expr):
    value: float

    def evaluate(self, env):
        return self.value

    def diff(self, var):
        return Num(0.0)

    def text(self):
        return repr(self.value)

    def variables(self):
        return frozenset()


@dataclass(frozen=True)
class Var(Expr):
    name: str

    def evaluate(self, env):
        return env[self.name]

    def diff(self, var):
        return Num(1.0 if self.name == var else 0.0)

    def text(self):
        return self.name

    def variables(self):
        return frozenset({self.name})


@dataclass(frozen=True)
class Neg(Expr):
    arg: Expr

    def evaluate(self, env):
        return -self.arg.evaluate(env)

    def diff(self, var):
        return _neg(self.arg.diff(var))

    def text(self):
        return f"(-{self.arg.text()})"

    def variables(self):
        return self.arg.variables()


@dataclass(frozen=True)
class Bin(Expr):
    op: str
    left: Expr
    right: Expr

    def evaluate(self, env):
        a = self.left.evaluate(env)
        b = self.right.evaluate(env)
        if self.op == "+":
            return a + b
        if self.op == "-":
            return a - b
        if self.op == "*":
            return a * b
        if self.op == "/":
            return a / b
        return a**b

    def diff(self, var):
        a, b = self.left, self.right
        da, db = a.diff(var), b.diff(var)
        if self.op == "+":
            return _add(da, db)
        if self.op == "-":
            return _sub(da, db)
        if self.op == "*":
            return _add(_mul(da, b), _mul(a, db))
        if self.op == "/":
            return _div(_sub(_mul(da, b), _mul(a, db)), _mul(b, b))
        # power
        if isinstance(b, Num):
            return _mul(_mul(b, _pow(a, Num(b.value - 1.0))), da)
        # general a^b = exp(b log a)
        return _mul(
            _pow(a, b),
            _add(_mul(db, Call("log", a)), _div(_mul(b, da), a)),
        )

    def text(self):
        return f"({self.left.text()}{self.op}{self.right.text()})"

    def variables(self):
        return self.left.variables() | self.right.variables()


@dataclass(frozen=True)
class Call(Expr):
    fn: str
    arg: Expr

    def evaluate(self, env):
        return _FUNCTIONS[self.fn](self.arg.evaluate(env))

    def diff(self, var):
        da = self.arg.diff(var)
        if self.fn == "sin":
            outer = Call("cos", self.arg)
        elif self.fn == "cos":
            outer = _neg(Call("sin", self.arg))
        elif self.fn == "exp":
            outer = Call("exp", self.arg)
        else:  # log
            return _div(da, self.arg)
        return _mul(outer, da)

    def text(self):
        return f"{self.fn}({self.arg.text()})"

    def variables(self):
        return self.arg.variables()


def _is_num(e, v) -> bool:
    return isinstance(e, Num) and e.value == v


def _add(a, b):
    if _is_num(a, 0.0):
        return b
    if _is_num(b, 0.0):
        return a
    if isinstance(a, Num) and isinstance(b, Num):
        return Num(a.value + b.value)
    return Bin("+", a, b)


def _sub(a, b):
    if _is_num(b, 0.0):
        return a
    if isinstance(a, Num) and isinstance(b, Num):
        return Num(a.value - b.value)
    if _is_num(a, 0.0):
        return _neg(b)
    return Bin("-", a, b)


def _neg(a):
    if isinstance(a, Num):
        return Num(-a.value)
    return Neg(a)


def _mul(a, b):
    if _is_num(a, 0.0) or _is_num(b, 0.0):
        return Num(0.0)
    if _is_num(a, 1.0):
        return b
    if _is_num(b, 1.0):
        return a
    if isinstance(a, Num) and isinstance(b, Num):
        return Num(a.value * b.value)
    return Bin("*", a, b)


def _div(a, b):
    if _is_num(a, 0.0):
        return Num(0.0)
    if _is_num(b, 1.0):
        return a
    return Bin("/", a, b)


def _pow(a, b):
    if _is_num(b, 1.0):
        return a
    if _is_num(b, 0.0):
        return Num(1.0)
    return Bin("^", a, b)


# }}}


# {{{ parser

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^()]))"
)


def _tokenize(src: str):
    tokens = []
    pos = 0
    while pos < len(src):
        m = _TOKEN_RE.match(src, pos)
        if m is None:
            stripped = src[pos:].lstrip()
            if not stripped:
                break
            bad_at = len(src) - len(stripped)
            raise ParseError(f"unexpected character {src[bad_at]!r}", bad_at)
        off = m.start("num") if m.group("num") else (
            m.start("ident") if m.group("ident") else m.start("op")
        )
        if m.group("num"):
            tokens.append(("num", m.group("num"), off))
        elif m.group("ident"):
            tokens.append(("ident", m.group("ident"), off))
        else:
            tokens.append(("op", m.group("op"), off))
        pos = m.end()
    tokens.append(("end", "", len(src)))
    return tokens


class _Parser:
    def __init__(self, src: str):
        self.src = src
        self.tokens = _tokenize(src)
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def advance(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op: str):
        kind, val, off = self.peek()
        if kind != "op" or val != op:
            raise ParseError(f"expected {op!r}", off)
        return self.advance()

    def parse(self) -> Expr:
        e = self.expr()
        kind, val, off = self.peek()
        if kind != "end":
            raise ParseError(f"unexpected token {val!r}", off)
        return e

    def expr(self) -> Expr:
        e = self.term()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "+-":
                self.advance()
                rhs = self.term()
                e = Bin(val, e, rhs)
            else:
                return e

    def term(self) -> Expr:
        e = self.unary()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "*/":
                self.advance()
                rhs = self.unary()
                e = Bin(val, e, rhs)
            else:
                return e

    def unary(self) -> Expr:
        kind, val, _ = self.peek()
        if kind == "op" and val == "-":
            self.advance()
            return Neg(self.unary())
        if kind == "op" and val == "+":
            self.advance()
            return self.unary()
        return self.power()

    def power(self) -> Expr:
        base = self.atom()
        kind, val, _ = self.peek()
        if kind == "op" and val == "^":
            self.advance()
            # right associative; exponent may carry a unary sign
            return Bin("^", base, self.unary())
        return base

    def atom(self) -> Expr:
        kind, val, off = self.advance()
        if kind == "num":
            return Num(float(val))
        if kind == "ident":
            nkind, nval, _ = self.peek()
            if nkind == "op" and nval == "(":
                if val not in _FUNCTIONS:
                    raise ParseError(f"unknown function {val!r}", off)
                self.advance()
                arg = self.expr()
                self.expect_op(")")
                return Call(val, arg)
            if val not in ("t", "t1", "t2"):
                raise ParseError(f"unknown identifier {val!r}", off)
            return Var(val)
        if kind == "op" and val == "(":
            e = self.expr()
            self.expect_op(")")
            return e
        if kind == "end":
            raise ParseError("unexpected end of expression", off)
        raise ParseError(f"unexpected token {val!r}", off)


# }}}


@dataclass(frozen=True)
class FuncSpec:
    """A function of one or two real variables, with its partials if known.

    ``fn`` must accept numpy arrays (broadcasting); ``partials`` holds one
    derivative callable per variable when available, and a spec with
    partials counts as C^1.  Expression-backed specs carry exact
    derivative trees and are always C^1 on their domain.

    ``expr``, when set, must be the tree that ``fn`` evaluates (and whose
    derivatives ``partials`` evaluate): the identity checks cache
    moments keyed on ``cache_key``, the text ``"arity:repr(expr)"``
    built once here, so two specs with equal trees share them and a
    lookup hashes a string instead of the tree.  A spec without ``expr``
    has no key and is never cached.
    """

    arity: int
    fn: Callable
    label: str
    partials: Optional[tuple] = None
    expr: Optional[Expr] = None
    cache_key: Optional[str] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.arity not in (1, 2):
            raise ValueError(f"arity must be 1 or 2, got {self.arity!r}")
        if self.partials is not None and len(self.partials) != self.arity:
            raise ValueError("need one partial derivative per variable")
        key = None if self.expr is None else f"{self.arity}:{self.expr!r}"
        object.__setattr__(self, "cache_key", key)

    @classmethod
    def from_callable(
        cls,
        fn: Callable,
        arity: int,
        label: str = "<callable>",
        partials: Optional[tuple] = None,
    ) -> "FuncSpec":
        return cls(arity=arity, fn=fn, label=label, partials=partials)

    def __call__(self, *coords):
        if len(coords) != self.arity:
            raise ValueError(f"expected {self.arity} coordinates, got {len(coords)}")
        return self.fn(*coords)

    @property
    def is_c1(self) -> bool:
        return self.partials is not None

    def partial(self, axis: int) -> Callable:
        """Derivative callable along the 1-based axis; raises if unavailable."""
        if not 1 <= axis <= self.arity:
            raise ValueError(f"axis {axis} out of range for arity {self.arity}")
        if self.partials is None:
            raise ValueError(
                f"derivative of {self.label!r} unavailable (supply derivative "
                "callables, or use an expression body)"
            )
        return self.partials[axis - 1]

    def slice_along(self, axis: int, fixed: float) -> "FuncSpec":
        """Freeze the other coordinate, producing a one-variable FuncSpec.

        ``axis`` names the coordinate kept alive (1 or 2).
        """
        if self.arity != 2:
            raise ValueError("slice_along needs an arity-2 FuncSpec")
        if axis not in (1, 2):
            raise ValueError(f"axis must be 1 or 2, got {axis!r}")
        fixed = float(fixed)
        if axis == 1:
            fn = lambda x, _f=self.fn, _c=fixed: _f(x, np.full_like(np.asarray(x, float), _c))
        else:
            fn = lambda x, _f=self.fn, _c=fixed: _f(np.full_like(np.asarray(x, float), _c), x)
        parts = None
        if self.partials is not None:
            dfn = self.partials[axis - 1]
            if axis == 1:
                parts = (
                    lambda x, _d=dfn, _c=fixed: _d(x, np.full_like(np.asarray(x, float), _c)),
                )
            else:
                parts = (
                    lambda x, _d=dfn, _c=fixed: _d(np.full_like(np.asarray(x, float), _c), x),
                )
        other = 2 if axis == 1 else 1
        return FuncSpec(
            arity=1,
            fn=fn,
            label=f"{self.label}|t{other}={fixed:g}",
            partials=parts,
            expr=None,
        )


def _env_names(arity: int) -> tuple:
    return ("t",) if arity == 1 else ("t1", "t2")


def parse_expression(src: str, arity: Optional[int] = None) -> FuncSpec:
    """Parse the mini-language into a FuncSpec with analytic derivatives.

    Arity is inferred from the variables used (``t`` means one variable,
    ``t1``/``t2`` mean two) unless given explicitly, in which case the
    variables must be compatible; a pure constant fits either arity.
    """
    tree = _Parser(src).parse()
    used = tree.variables()
    if "t" in used and used & {"t1", "t2"}:
        raise ParseError("cannot mix 't' with 't1'/'t2' in one expression", 0)
    if arity is None:
        arity = 2 if used & {"t1", "t2"} else 1
    allowed = set(_env_names(arity))
    if not used <= allowed:
        extra = ", ".join(sorted(used - allowed))
        raise ParseError(
            f"arity mismatch: expression uses {extra} but {arity} variable(s) expected", 0
        )
    if arity == 1:
        fn = lambda x, _e=tree: _e.evaluate({"t": x})
        parts = (lambda x, _d=tree.diff("t"): _d.evaluate({"t": x}),)
    else:
        fn = lambda x, y, _e=tree: _e.evaluate({"t1": x, "t2": y})
        parts = (
            lambda x, y, _d=tree.diff("t1"): _d.evaluate({"t1": x, "t2": y}),
            lambda x, y, _d=tree.diff("t2"): _d.evaluate({"t1": x, "t2": y}),
        )
    return FuncSpec(
        arity=arity,
        fn=fn,
        label=src.strip(),
        partials=parts,
        expr=tree,
    )
