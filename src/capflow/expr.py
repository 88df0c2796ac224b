"""Infix expression parsing and evaluation with derivatives up to third order.

Expressions are scalar formulas in the ambient coordinates x, y, z (and w in
dimension 4).  Evaluation propagates truncated Taylor data (value, gradient,
Hessian, third derivatives) through the syntax tree, so derivatives are exact
to rounding; no step-size tuning is involved.  The data travel as one
component-major array per batch, whose layout, index tables and expanders to
dense symmetric arrays are defined here for every module.  A central finite
difference helper is provided for cross-checking.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from fractions import Fraction
from types import SimpleNamespace

import numpy as np

from . import CapflowError

VARIABLE_NAMES = ("x", "y", "z", "w")


class ExprError(ValueError, CapflowError):
    """Base class for expression failures."""


class ExprSyntaxError(ExprError):
    """Malformed source text; carries the byte offset of the failure."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (offset {offset})")
        self.offset = offset


class EvalDomainError(ExprError):
    """Division by zero or fractional power of a non-positive base."""


# ---------------------------------------------------------------------------
# AST


@dataclass(frozen=True)
class Const:
    value: float


@dataclass(frozen=True)
class Var:
    index: int


@dataclass(frozen=True)
class Neg:
    arg: object


@dataclass(frozen=True)
class Bin:
    op: str  # one of + - * /
    left: object
    right: object


@dataclass(frozen=True)
class Pow:
    base: object
    exponent: Fraction


@dataclass(frozen=True)
class Sqrt:
    arg: object


@dataclass(frozen=True)
class Expression:
    """Parsed immutable expression over d ambient variables."""

    ast: object
    dim: int


# ---------------------------------------------------------------------------
# Tokenizer / parser (precedence climbing)


def _tokenize(source: str) -> list[tuple[str, str, int]]:
    tokens = []
    i = 0
    n = len(source)
    while i < n:
        c = source[i]
        if c.isspace():
            i += 1
            continue
        if c.isdigit() or (c == "." and i + 1 < n and source[i + 1].isdigit()):
            j = i
            seen_dot = False
            while j < n and (source[j].isdigit() or (source[j] == "." and not seen_dot)):
                if source[j] == ".":
                    seen_dot = True
                j += 1
            # exponent part like 1e-3
            if j < n and source[j] in "eE":
                k = j + 1
                if k < n and source[k] in "+-":
                    k += 1
                if k < n and source[k].isdigit():
                    while k < n and source[k].isdigit():
                        k += 1
                    j = k
            tokens.append(("num", source[i:j], i))
            i = j
        elif c.isalpha() or c == "_":
            j = i
            while j < n and (source[j].isalnum() or source[j] == "_"):
                j += 1
            tokens.append(("ident", source[i:j], i))
            i = j
        elif c in "+-*/^":
            tokens.append(("op", c, i))
            i += 1
        elif c == "(":
            tokens.append(("lparen", c, i))
            i += 1
        elif c == ")":
            tokens.append(("rparen", c, i))
            i += 1
        else:
            raise ExprSyntaxError(f"unexpected character {c!r}", i)
    tokens.append(("end", "", n))
    return tokens


class _Parser:
    def __init__(self, tokens: list[tuple[str, str, int]], dim: int | None):
        self.tokens = tokens
        self.pos = 0
        self.dim_hint = dim
        self.max_var = -1

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str, text: str | None = None):
        tok = self.peek()
        if tok[0] != kind or (text is not None and tok[1] != text):
            what = text if text is not None else kind
            raise ExprSyntaxError(f"expected {what!r}, found {tok[1]!r}", tok[2])
        return self.advance()

    # expr := term {(+|-) term}
    def parse_expr(self):
        node = self.parse_term()
        while self.peek()[0] == "op" and self.peek()[1] in "+-":
            op = self.advance()[1]
            node = Bin(op, node, self.parse_term())
        return node

    # term := unary {(*|/) unary}
    def parse_term(self):
        node = self.parse_unary()
        while self.peek()[0] == "op" and self.peek()[1] in "*/":
            op = self.advance()[1]
            node = Bin(op, node, self.parse_unary())
        return node

    # unary := '-' unary | power
    def parse_unary(self):
        tok = self.peek()
        if tok[0] == "op" and tok[1] == "-":
            self.advance()
            return Neg(self.parse_unary())
        if tok[0] == "op" and tok[1] == "+":
            self.advance()
            return self.parse_unary()
        return self.parse_power()

    # power := atom ['^' unary]  (right associative; binds above unary minus)
    def parse_power(self):
        base = self.parse_atom()
        tok = self.peek()
        if tok[0] == "op" and tok[1] == "^":
            self.advance()
            off = self.peek()[2]
            exp_node = self.parse_unary()
            frac = _fold_constant(exp_node)
            if frac is None:
                raise ExprSyntaxError("exponent must be a constant", off)
            return Pow(base, frac)
        return base

    def parse_atom(self):
        tok = self.advance()
        kind, text, off = tok
        if kind == "num":
            return Const(float(text))
        if kind == "ident":
            if text == "sqrt":
                self.expect("lparen")
                arg = self.parse_expr()
                self.expect("rparen")
                return Sqrt(arg)
            if text in VARIABLE_NAMES:
                idx = VARIABLE_NAMES.index(text)
                if self.dim_hint is not None and idx >= self.dim_hint:
                    raise ExprSyntaxError(
                        f"variable {text!r} exceeds dimension {self.dim_hint}", off
                    )
                self.max_var = max(self.max_var, idx)
                return Var(idx)
            raise ExprSyntaxError(f"unknown identifier {text!r}", off)
        if kind == "lparen":
            node = self.parse_expr()
            self.expect("rparen")
            return node
        raise ExprSyntaxError(f"unexpected token {text!r}", off)


def _fold_constant(node) -> Fraction | None:
    """Reduce a constant subtree to an exact rational, or None."""
    if isinstance(node, Const):
        return Fraction(node.value).limit_denominator(10**9)
    if isinstance(node, Neg):
        v = _fold_constant(node.arg)
        return None if v is None else -v
    if isinstance(node, Bin):
        a = _fold_constant(node.left)
        b = _fold_constant(node.right)
        if a is None or b is None:
            return None
        if node.op == "+":
            return a + b
        if node.op == "-":
            return a - b
        if node.op == "*":
            return a * b
        if node.op == "/":
            if b == 0:
                return None
            return a / b
    if isinstance(node, Pow):
        a = _fold_constant(node.base)
        if a is None or node.exponent.denominator != 1:
            return None
        return a ** int(node.exponent)
    return None


def parse(source: str, dim: int | None = None) -> Expression:
    """Parse infix source text into an Expression.

    Precedence: power > unary minus > multiplication/division > addition.
    If dim is omitted it is inferred (4 when w occurs, else 3).
    """
    parser = _Parser(_tokenize(source), dim)
    ast = parser.parse_expr()
    tok = parser.peek()
    if tok[0] != "end":
        raise ExprSyntaxError(f"unexpected trailing input {tok[1]!r}", tok[2])
    if dim is None:
        dim = 4 if parser.max_var >= 3 else 3
    return Expression(ast, dim)


# ---------------------------------------------------------------------------
# Component-major Taylor jets (vectorized over N evaluation points)
#
# The jets of a scalar field at N points of R^d are one array of shape
# (jet_rows(d, order), N): row 0 the value, rows 1..d the gradient, then the
# Hessian's upper triangle in the order of _pairs(d) (for d = 3: 00 01 02 11
# 12 22) and, at order 3, the third derivatives with i <= j <= k in the order
# of _triples(d).  Each distinct entry is computed once, so the dense arrays
# of triangle_matrices and triple_tensors are symmetric bit for bit.


@functools.cache
def _pairs(d: int) -> tuple:
    return tuple((i, j) for i in range(d) for j in range(i, d))


@functools.cache
def _triples(d: int) -> tuple:
    return tuple((i, j, k) for i in range(d) for j in range(i, d) for k in range(j, d))


def jet_rows(d: int, order: int) -> int:
    """Rows of a jet array: 1 + d + d(d+1)/2, and d(d+1)(d+2)/6 more at order 3."""
    return 1 + d + len(_pairs(d)) + (len(_triples(d)) if order >= 3 else 0)


@functools.cache
def layout(d: int) -> SimpleNamespace:
    """Gather tables of the layout in R^d.  pi, pj (ti, tj, tk) index the
    gradient by each pair's (triple's) indices; tij, tjk, tik index the
    Hessian triangle by a triple's pairs; pair_slot (d, d) and triple_slot
    (d, d, d) give the triangle position of any index tuple; hess and third
    are the row slices of the two triangles."""
    pi, pj = np.array(_pairs(d)).T
    ti, tj, tk = np.array(_triples(d)).T
    pair_slot = np.empty((d, d), dtype=int)
    pair_slot[pi, pj] = pair_slot[pj, pi] = np.arange(pi.size)
    triple_slot = np.empty((d, d, d), dtype=int)
    for perm in itertools.permutations((ti, tj, tk)):
        triple_slot[perm] = np.arange(ti.size)
    h0 = 1 + d + pi.size
    tables = SimpleNamespace(
        pi=pi, pj=pj, ti=ti, tj=tj, tk=tk, tij=pair_slot[ti, tj], tjk=pair_slot[tj, tk],
        tik=pair_slot[ti, tk], pair_slot=pair_slot, triple_slot=triple_slot,
        hess=slice(1 + d, h0), third=slice(h0, h0 + ti.size))
    # every caller shares the cached tables
    for value in vars(tables).values():
        if isinstance(value, np.ndarray):
            value.flags.writeable = False
    return tables


def jet_gradients(jets: np.ndarray, d: int) -> np.ndarray:
    """The gradient rows of jets as an (N, d) array in C order, the layout
    whose summation order einsum keeps whatever the batch size."""
    return np.ascontiguousarray(jets[1 : d + 1].T)


def _dense(rows: np.ndarray, d: int, index: tuple) -> np.ndarray:
    idx = np.array(index).T
    out = np.empty((rows.shape[1],) + (d,) * len(idx))
    for perm in itertools.permutations(idx):
        out[(slice(None), *perm)] = rows.T
    return out


def triangle_matrices(tri: np.ndarray, d: int) -> np.ndarray:
    """(N, d, d) symmetric matrices from Hessian-triangle rows (d(d+1)/2, N)."""
    return _dense(tri, d, _pairs(d))


def triple_tensors(tri: np.ndarray, d: int) -> np.ndarray:
    """(N, d, d, d) symmetric tensors from third-derivative rows i <= j <= k."""
    return _dense(tri, d, _triples(d))


def sym3(h: np.ndarray, g: np.ndarray, d: int) -> np.ndarray:
    """h_ij g_k + h_jk g_i + h_ik g_j on the triples, from Hessian-triangle rows
    h (d(d+1)/2, N) and gradient rows g (d, N)."""
    t = layout(d)
    return h[t.tij] * g[t.tk] + h[t.tjk] * g[t.ti] + h[t.tik] * g[t.tj]


def _const(value: float, n: int, rows: int) -> np.ndarray:
    out = np.zeros((rows, n))
    out[0] = value
    return out


def _mul(a: np.ndarray, b: np.ndarray, d: int) -> np.ndarray:
    t = layout(d)
    ga, gb = a[1 : d + 1], b[1 : d + 1]
    out = a * b[0] + b * a[0]
    out[0] = a[0] * b[0]
    hess = out[t.hess]
    hess += ga[t.pi] * gb[t.pj]
    hess += ga[t.pj] * gb[t.pi]
    if len(a) > t.hess.stop:
        third = out[t.third]
        third += sym3(a[t.hess], gb, d)
        third += sym3(b[t.hess], ga, d)
    return out


def _chain(u: np.ndarray, d: int, g0, g1, g2, g3) -> np.ndarray:
    """Compose scalar g (given derivative values at the value row) with u."""
    t = layout(d)
    grad = u[1 : d + 1]
    out = np.empty(u.shape)
    out[0] = g0
    out[1 : d + 1] = g1 * grad
    out[t.hess] = g2 * (grad[t.pi] * grad[t.pj]) + g1 * u[t.hess]
    if len(u) > t.hess.stop:
        out[t.third] = (g3 * (grad[t.ti] * grad[t.tj] * grad[t.tk])
                        + g2 * sym3(u[t.hess], grad, d) + g1 * u[t.third])
    return out


def _pow(u: np.ndarray, d: int, frac: Fraction) -> np.ndarray:
    p = float(frac)
    base = u[0]
    if frac.denominator == 1:
        n = int(frac)
        if n == 0:
            return _const(1.0, base.size, len(u))
        if n == 1:
            return u
        if n < 0 and np.any(base == 0.0):
            raise EvalDomainError("zero base with negative integer exponent")
    elif np.any(base <= 0.0):
        raise EvalDomainError("fractional power of non-positive base")

    def deriv(k: int):
        coeff = 1.0
        for m in range(k):
            coeff *= p - m
        if coeff == 0.0:  # polynomial of degree n: higher derivatives vanish
            return np.zeros(base.size)
        return coeff * base ** (p - k)

    g3 = deriv(3) if len(u) > layout(d).hess.stop else None
    return _chain(u, d, deriv(0), deriv(1), deriv(2), g3)


def _eval_node(node, pts: np.ndarray, rows: int) -> np.ndarray:
    n, d = pts.shape
    if isinstance(node, Const):
        return _const(node.value, n, rows)
    if isinstance(node, Var):
        out = np.zeros((rows, n))
        out[0] = pts[:, node.index]
        out[1 + node.index] = 1.0
        return out
    if isinstance(node, Neg):
        return -_eval_node(node.arg, pts, rows)
    if isinstance(node, Bin):
        a = _eval_node(node.left, pts, rows)
        b = _eval_node(node.right, pts, rows)
        if node.op == "+":
            return a + b
        if node.op == "-":
            return a - b
        if node.op == "*":
            return _mul(a, b, d)
        if np.any(b[0] == 0.0):
            raise EvalDomainError("division by zero")
        return _mul(a, _pow(b, d, Fraction(-1)), d)
    if isinstance(node, Pow):
        return _pow(_eval_node(node.base, pts, rows), d, node.exponent)
    if isinstance(node, Sqrt):
        return _pow(_eval_node(node.arg, pts, rows), d, Fraction(1, 2))
    raise TypeError(f"not an AST node: {node!r}")


def evaluate(expr: Expression, points: np.ndarray, order: int = 3) -> np.ndarray:
    """Jets of expr at a batch of points (N, d): the component-major array of
    order 3, or of order 2 for any lower order."""
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != expr.dim:
        raise ValueError(f"points must have shape (N,{expr.dim})")
    if not np.all(np.isfinite(pts)):
        raise EvalDomainError("non-finite evaluation point")
    return _eval_node(expr.ast, pts, jet_rows(expr.dim, order))


@dataclass
class JetValue:
    """Derivative data of an expression at a single point."""

    value: float
    grad: np.ndarray
    hess: np.ndarray
    third: np.ndarray


def finite_difference_jet(func, point, h: float = 1e-4) -> JetValue:
    """Central finite-difference derivatives of a callable, for cross-checks."""
    x = np.asarray(point, dtype=float)
    d = x.size

    def e(i):
        v = np.zeros(d)
        v[i] = h
        return v

    value = float(func(x))
    grad = np.array([(func(x + e(i)) - func(x - e(i))) / (2 * h) for i in range(d)])
    hess = np.zeros((d, d))
    for i in range(d):
        hess[i, i] = (func(x + e(i)) - 2 * value + func(x - e(i))) / h**2
        for j in range(i + 1, d):
            hess[i, j] = hess[j, i] = (
                func(x + e(i) + e(j))
                - func(x + e(i) - e(j))
                - func(x - e(i) + e(j))
                + func(x - e(i) - e(j))
            ) / (4 * h**2)
    third = np.zeros((d, d, d))
    for i, j, k in _triples(d):
        if i == j == k:
            v = (
                func(x + 2 * e(i))
                - 2 * func(x + e(i))
                + 2 * func(x - e(i))
                - func(x - 2 * e(i))
            ) / (2 * h**3)
        elif i == j:
            v = (
                func(x + 2 * e(i) + e(k))
                - func(x + 2 * e(i) - e(k))
                - 2 * (func(x + e(k)) - func(x - e(k)))
                + func(x - 2 * e(i) + e(k))
                - func(x - 2 * e(i) - e(k))
            ) / (8 * h**3)
        elif j == k:
            v = (
                func(x + 2 * e(j) + e(i))
                - func(x + 2 * e(j) - e(i))
                - 2 * (func(x + e(i)) - func(x - e(i)))
                + func(x - 2 * e(j) + e(i))
                - func(x - 2 * e(j) - e(i))
            ) / (8 * h**3)
        else:
            v = 0.0
            for si in (1, -1):
                for sj in (1, -1):
                    for sk in (1, -1):
                        v += si * sj * sk * func(x + si * e(i) + sj * e(j) + sk * e(k))
            v /= 8 * h**3
        for perm in ((i, j, k), (i, k, j), (j, i, k), (j, k, i), (k, i, j), (k, j, i)):
            third[perm] = v
    return JetValue(value, grad, hess, third)
