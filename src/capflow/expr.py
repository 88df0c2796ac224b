"""Infix expression parsing and evaluation with derivatives up to third order.

Expressions are scalar formulas in the ambient coordinates x, y, z (and w in
dimension 4).  Evaluation propagates truncated Taylor data (value, gradient,
Hessian, third-derivative tensor) through the syntax tree, so derivatives are
exact to rounding; no step-size tuning is involved.  A central finite
difference helper is provided for cross-checking.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

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
# Jet arithmetic (vectorized over N evaluation points)

_SYM_TRIPLES: dict[int, list[tuple[int, int, int]]] = {}
_SYM_PAIRS: dict[int, list[tuple[int, int]]] = {}


def _triples(d: int):
    if d not in _SYM_TRIPLES:
        _SYM_TRIPLES[d] = [
            (i, j, k) for i in range(d) for j in range(i, d) for k in range(j, d)
        ]
    return _SYM_TRIPLES[d]


def _pairs(d: int):
    if d not in _SYM_PAIRS:
        _SYM_PAIRS[d] = [(i, j) for i in range(d) for j in range(i, d)]
    return _SYM_PAIRS[d]


def symmetrize_hess(hess: np.ndarray) -> np.ndarray:
    """Copy the upper triangle onto the lower one (bit-exact symmetry)."""
    d = hess.shape[-1]
    for i, j in _pairs(d):
        hess[..., j, i] = hess[..., i, j]
    return hess


def symmetrize_third(third: np.ndarray) -> np.ndarray:
    """Copy canonical entries i<=j<=k to all permutations (bit-exact)."""
    d = third.shape[-1]
    for i, j, k in _triples(d):
        v = third[..., i, j, k]
        third[..., i, k, j] = v
        third[..., j, i, k] = v
        third[..., j, k, i] = v
        third[..., k, i, j] = v
        third[..., k, j, i] = v
    return third


@dataclass
class Jet:
    """Taylor data of a scalar field at a batch of points.

    Shapes: val (N,), grad (N,d), hess (N,d,d), third (N,d,d,d) or None
    when evaluation was requested at order 2.
    """

    val: np.ndarray
    grad: np.ndarray
    hess: np.ndarray
    third: np.ndarray | None

    @property
    def order(self) -> int:
        return 2 if self.third is None else 3


def _sym3_hg(h: np.ndarray, g: np.ndarray) -> np.ndarray:
    # h symmetric (N,d,d), g (N,d) -> h_ij g_k + h_jk g_i + h_ik g_j
    t = np.einsum("nij,nk->nijk", h, g)
    return t + np.einsum("njk,ni->nijk", h, g) + np.einsum("nik,nj->nijk", h, g)


def _jconst(value: float, n: int, d: int, order: int) -> Jet:
    third = np.zeros((n, d, d, d)) if order >= 3 else None
    return Jet(np.full(n, float(value)), np.zeros((n, d)), np.zeros((n, d, d)), third)


def _jvar(idx: int, pts: np.ndarray, order: int) -> Jet:
    n, d = pts.shape
    grad = np.zeros((n, d))
    grad[:, idx] = 1.0
    third = np.zeros((n, d, d, d)) if order >= 3 else None
    return Jet(pts[:, idx].copy(), grad, np.zeros((n, d, d)), third)


def _jadd(a: Jet, b: Jet, sign: float = 1.0) -> Jet:
    third = None
    if a.third is not None:
        third = a.third + sign * b.third
    return Jet(a.val + sign * b.val, a.grad + sign * b.grad, a.hess + sign * b.hess, third)


def _jneg(a: Jet) -> Jet:
    third = None if a.third is None else -a.third
    return Jet(-a.val, -a.grad, -a.hess, third)


def _jmul(a: Jet, b: Jet) -> Jet:
    val = a.val * b.val
    grad = a.grad * b.val[:, None] + b.grad * a.val[:, None]
    cross = np.einsum("ni,nj->nij", a.grad, b.grad)
    hess = (
        a.hess * b.val[:, None, None]
        + b.hess * a.val[:, None, None]
        + cross
        + cross.transpose(0, 2, 1)
    )
    third = None
    if a.third is not None:
        third = (
            a.third * b.val[:, None, None, None]
            + b.third * a.val[:, None, None, None]
            + _sym3_hg(a.hess, b.grad)
            + _sym3_hg(b.hess, a.grad)
        )
    return Jet(val, grad, hess, third)


def _jchain(u: Jet, g0, g1, g2, g3) -> Jet:
    """Compose scalar g (given derivative values at u.val) with the jet u."""
    val = g0
    grad = g1[:, None] * u.grad
    outer = np.einsum("ni,nj->nij", u.grad, u.grad)
    hess = g2[:, None, None] * outer + g1[:, None, None] * u.hess
    third = None
    if u.third is not None:
        outer3 = np.einsum("nij,nk->nijk", outer, u.grad)
        third = (
            g3[:, None, None, None] * outer3
            + g2[:, None, None, None] * _sym3_hg(u.hess, u.grad)
            + g1[:, None, None, None] * u.third
        )
    return Jet(val, grad, hess, third)


def _jpow(u: Jet, frac: Fraction) -> Jet:
    p = float(frac)
    base = u.val
    n_pts, d = u.grad.shape
    if frac.denominator == 1:
        n = int(frac)
        if n == 0:
            return _jconst(1.0, n_pts, d, u.order)
        if n == 1:
            return u
        if n < 0 and np.any(base == 0.0):
            raise EvalDomainError("zero base with negative integer exponent")

        def deriv(k: int):
            coeff = 1.0
            for m in range(k):
                coeff *= n - m
            if coeff == 0.0:  # polynomial of degree n: higher derivatives vanish
                return np.zeros(n_pts)
            return coeff * base ** (n - k)

    else:
        if np.any(base <= 0.0):
            raise EvalDomainError("fractional power of non-positive base")

        def deriv(k: int):
            coeff = 1.0
            for m in range(k):
                coeff *= p - m
            return coeff * base ** (p - k)

    g3 = deriv(3) if u.third is not None else None
    return _jchain(u, deriv(0), deriv(1), deriv(2), g3)


def _jdiv(a: Jet, b: Jet) -> Jet:
    if np.any(b.val == 0.0):
        raise EvalDomainError("division by zero")
    inv = _jpow(b, Fraction(-1))
    return _jmul(a, inv)


def _eval_node(node, pts: np.ndarray, order: int) -> Jet:
    n, d = pts.shape
    if isinstance(node, Const):
        return _jconst(node.value, n, d, order)
    if isinstance(node, Var):
        return _jvar(node.index, pts, order)
    if isinstance(node, Neg):
        return _jneg(_eval_node(node.arg, pts, order))
    if isinstance(node, Bin):
        a = _eval_node(node.left, pts, order)
        b = _eval_node(node.right, pts, order)
        if node.op == "+":
            return _jadd(a, b)
        if node.op == "-":
            return _jadd(a, b, sign=-1.0)
        if node.op == "*":
            return _jmul(a, b)
        return _jdiv(a, b)
    if isinstance(node, Pow):
        return _jpow(_eval_node(node.base, pts, order), node.exponent)
    if isinstance(node, Sqrt):
        return _jpow(_eval_node(node.arg, pts, order), Fraction(1, 2))
    raise TypeError(f"not an AST node: {node!r}")


def evaluate(expr: Expression, points: np.ndarray, order: int = 3) -> Jet:
    """Evaluate expr with derivatives at a batch of points, shape (N,d)."""
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != expr.dim:
        raise ValueError(f"points must have shape (N,{expr.dim})")
    if not np.all(np.isfinite(pts)):
        raise EvalDomainError("non-finite evaluation point")
    jet = _eval_node(expr.ast, pts, order)
    symmetrize_hess(jet.hess)
    if jet.third is not None:
        symmetrize_third(jet.third)
    return jet


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
